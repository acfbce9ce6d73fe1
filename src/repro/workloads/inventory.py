"""Inventory / aggregate-field hot-spot workload (Section 8).

One (or a few) "hot" quantity-on-hand counters absorb almost all
updates — O'Neil's hot-spot scenario. Updates are small sells
(decrement) and restocks (increment); skew concentrates traffic on the
first items of the list.
"""

from __future__ import annotations

import random

from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    ReadFullOp,
    TransactionSpec,
)
from repro.workloads.base import OpMix, WorkloadConfig, draw_op


class InventoryWorkload:
    """Generates sell/restock/stock-check transactions over *items*."""

    def __init__(self, items: list[str],
                 config: WorkloadConfig | None = None) -> None:
        if not items:
            raise ValueError("at least one item required")
        self.items = items
        self.config = config or WorkloadConfig(
            mix=OpMix(reserve=0.7, cancel=0.25, transfer=0.0, read=0.05),
            zipf_skew=1.5, amount_low=1, amount_high=3)

    def make_spec(self, rng: random.Random, site: str) -> TransactionSpec:
        kind, item, units, _other = draw_op(rng, self.items, self.config)
        if kind == "cancel":
            ops, label = (IncrementOp(item, units),), "restock"
        elif kind == "read":
            ops, label = (ReadFullOp(item),), "stock-check"
        else:  # reserve; a transfer weight sells too (one item per spec)
            ops, label = (DecrementOp(item, units),), "sell"
        return TransactionSpec(ops=ops, label=label, work=self.config.work)
