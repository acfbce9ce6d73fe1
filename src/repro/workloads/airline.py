"""The Section 3 airline reservation workload.

Flights are counters of available seats; customers reserve seats
(decrement), cancel (increment), change flights (transfer between two
flight items) and agents occasionally need exact seat counts (full
read).
"""

from __future__ import annotations

import random

from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    ReadFullOp,
    TransactionSpec,
    TransferOp,
)
from repro.workloads.base import OpMix, WorkloadConfig, draw_op


class AirlineWorkload:
    """Generates reservation-system transactions over *flights*."""

    def __init__(self, flights: list[str],
                 config: WorkloadConfig | None = None) -> None:
        if not flights:
            raise ValueError("at least one flight required")
        self.flights = flights
        self.config = config or WorkloadConfig(
            mix=OpMix(reserve=0.65, cancel=0.2, transfer=0.1, read=0.05))

    def make_spec(self, rng: random.Random, site: str) -> TransactionSpec:
        kind, flight, seats, other = draw_op(rng, self.flights,
                                             self.config)
        if kind == "cancel":
            ops = (IncrementOp(flight, seats),)
        elif other is not None:
            ops, kind = (TransferOp(flight, other, seats),), "change-flight"
        elif kind == "read":
            ops = (ReadFullOp(flight),)
        else:
            ops, kind = (DecrementOp(flight, seats),), "reserve"
        return TransactionSpec(ops=ops, label=kind, work=self.config.work)
