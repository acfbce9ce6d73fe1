"""Airline reservation façade (the paper's Section 3 system)."""

from __future__ import annotations

from typing import Any, Callable

from repro.apps.specs import ViewReadSpecs
from repro.core.domain import CounterDomain
from repro.core.system import DvPSystem
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    ReadFullOp,
    TransactionSpec,
    TransferOp,
    TxnResult,
)

Done = Callable[[TxnResult], None] | None


class ReservationSystem:
    """Flights as value-partitioned seat counters.

    *via* redirects submissions through any ``submit(site, spec,
    on_done)`` target — pass a
    :class:`~repro.serving.frontend.ServingFrontend` to route app-level
    traffic through the serving tier (admission control included);
    default is direct submission to the system.
    """

    def __init__(self, system: DvPSystem, via=None) -> None:
        self.system = system
        self._target = via if via is not None else system
        self._estimates = ViewReadSpecs("estimate")
        self._flights: set[str] = set()

    @property
    def flights(self) -> set[str]:
        return set(self._flights)

    def add_flight(self, flight: str, seats: int,
                   quotas: dict[str, int] | None = None) -> None:
        """Open a flight with *seats* split across the sites."""
        if flight in self._flights:
            raise ValueError(f"flight {flight!r} already exists")
        if quotas is not None and sum(quotas.values()) != seats:
            raise ValueError("quotas must sum to the seat count")
        self.system.add_item(flight, CounterDomain(),
                             split=quotas, total=None if quotas else seats)
        self._flights.add(flight)

    def _check(self, flight: str) -> None:
        if flight not in self._flights:
            raise KeyError(f"unknown flight {flight!r}")

    def reserve(self, site: str, flight: str, seats: int,
                on_done: Done = None, work: float = 0.0) -> None:
        """Sell *seats* on *flight* at *site* (non-blocking: commits
        from the local quota, gathers via Vm, or aborts at timeout)."""
        self._check(flight)
        self._target.submit(site, TransactionSpec(
            ops=(DecrementOp(flight, seats),),
            label=f"reserve:{flight}", work=work), on_done)

    def cancel(self, site: str, flight: str, seats: int,
               on_done: Done = None, work: float = 0.0) -> None:
        """Return seats; always commits (increments need nothing)."""
        self._check(flight)
        self._target.submit(site, TransactionSpec(
            ops=(IncrementOp(flight, seats),),
            label=f"cancel:{flight}", work=work), on_done)

    def change_flight(self, site: str, from_flight: str, to_flight: str,
                      seats: int, on_done: Done = None,
                      work: float = 0.0) -> None:
        """Move a booking between flights (the paper's A -> B case).

        The *to* flight gains availability and the *from* flight loses
        it: the customer gives back from_flight seats and takes
        to_flight seats, so availability moves to_flight -> from_flight.
        """
        self._check(from_flight)
        self._check(to_flight)
        self._target.submit(site, TransactionSpec(
            ops=(TransferOp(to_flight, from_flight, seats),),
            label=f"change:{from_flight}->{to_flight}", work=work),
            on_done)

    def seats_available(self, site: str, flight: str,
                        on_done: Done = None, work: float = 0.0) -> None:
        """The exact N — the expensive global drain (Section 3)."""
        self._check(flight)
        self._target.submit(site, TransactionSpec(
            ops=(ReadFullOp(flight),), label=f"count:{flight}",
            work=work), on_done)

    def seats_estimate(self, site: str, flight: str,
                       bound: float | None = None,
                       on_done: Done = None, work: float = 0.0) -> None:
        """Bounded-staleness availability: O(1) when the site's Π(b)
        view cache can certify *bound* (docs/READS.md), exact fan-out
        otherwise. The answer on the committed result's
        ``view_reads[flight]`` certificate states how stale it is."""
        self._check(flight)
        self._target.submit(
            site, self._estimates.get(flight, bound, work), on_done)

    def local_quota(self, site: str, flight: str) -> Any:
        """This site's fragment — a free lower bound on availability."""
        self._check(flight)
        return self.system.sites[site].fragments.value(flight)
