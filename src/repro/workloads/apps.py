"""App-level traffic: drive the ``apps/`` façades, not raw specs.

The PR 8 serving front-end accepted :class:`TransactionSpec`s built by
hand in the workload generators. Real callers go through the
application façades (reserve a seat, deposit cents, estimate a
balance), so the serving experiments should too:
:class:`AppWorkloadDriver` keeps the generic driver's arrival process
(Poisson per site, per-site deterministic streams, collector
integration) but each arrival invokes a *façade call* sampled by an
:class:`AppTraffic` source. Point the façade at a serving front-end
(``Bank(system, via=frontend)``) and the whole app-level request path
— routing, bounded queues, admission control, bounded-staleness view
reads — is exercised end to end.

Draw discipline: each traffic source takes its arrival's draws from
:func:`~repro.workloads.base.draw_op`, as the raw-spec workloads do,
so swapping a raw workload for its app traffic does not change which
transactions a seeded run submits.
"""

from __future__ import annotations

import random
from typing import Callable, Protocol

from repro.apps.airline import ReservationSystem
from repro.apps.bank import Bank
from repro.core.site import SiteDown
from repro.core.transactions import UnsupportedSpec
from repro.workloads.base import WorkloadConfig, WorkloadDriver, draw_op

#: One sampled application request: call it with the completion
#: callback to submit (through whatever target the façade wraps).
AppCall = Callable[[Callable | None], None]


class AppTraffic(Protocol):
    """A workload expressed as façade calls instead of raw specs."""

    def make_call(self, rng: random.Random, site: str) -> AppCall: ...


class AppWorkloadDriver(WorkloadDriver):
    """The generic driver, arriving into façade calls.

    The arrival process is :class:`WorkloadDriver`'s; only the arrival
    body differs: the sampled :class:`AppCall` is invoked with the
    collector's result callback, and the façade's own target decides
    whether that is a direct submit or a serving front-end admission.
    """

    def __init__(self, sim, sites: list[str], source: AppTraffic,
                 config: WorkloadConfig, collector=None) -> None:
        # The façade carries its own submit target; the driver's is unused.
        super().__init__(sim, target=None, sites=sites, source=source,
                         config=config, collector=collector)

    def _arrive(self, site: str) -> None:
        call = self.source.make_call(self._site_rng[site], site)
        self.collector.on_submit(at=self.sim.now)
        try:
            call(self.collector.on_result)
        except (SiteDown, UnsupportedSpec):
            pass  # refused service; the customer walked away (counted lost)


class AirlineAppTraffic:
    """Façade twin of :class:`~repro.workloads.airline.AirlineWorkload`.

    Same draws per arrival (kind, Zipf flight, seat count), mapped onto
    :class:`ReservationSystem` calls. ``read_view`` weight in the mix
    becomes a bounded-staleness ``seats_estimate`` with *view_bound*.
    """

    def __init__(self, reservations: ReservationSystem,
                 flights: list[str],
                 config: WorkloadConfig | None = None,
                 view_bound: float | None = None) -> None:
        if not flights:
            raise ValueError("at least one flight required")
        self.reservations = reservations
        self.flights = flights
        self.config = config or WorkloadConfig()
        self.view_bound = view_bound

    def make_call(self, rng: random.Random, site: str) -> AppCall:
        kind, flight, seats, other = draw_op(rng, self.flights,
                                             self.config)
        app, work = self.reservations, self.config.work
        if kind == "cancel":
            return lambda done: app.cancel(site, flight, seats,
                                           on_done=done, work=work)
        if other is not None:
            return lambda done: app.change_flight(
                site, other, flight, seats, on_done=done, work=work)
        if kind == "read":
            return lambda done: app.seats_available(site, flight,
                                                    on_done=done,
                                                    work=work)
        if kind == "read_view":
            return lambda done: app.seats_estimate(
                site, flight, bound=self.view_bound, on_done=done,
                work=work)
        return lambda done: app.reserve(site, flight, seats,
                                        on_done=done, work=work)


class BankAppTraffic:
    """Banking traffic over a :class:`Bank` façade.

    ``reserve`` → withdraw, ``cancel`` → deposit, ``transfer`` → inter-
    account transfer, ``read`` → exact audit, ``read_view`` → bounded-
    staleness balance estimate with *view_bound* — the read tier E16
    sweeps against the exact fan-out.
    """

    def __init__(self, bank: Bank, accounts: list[str],
                 config: WorkloadConfig | None = None,
                 view_bound: float | None = None) -> None:
        if not accounts:
            raise ValueError("at least one account required")
        self.bank = bank
        self.accounts = accounts
        self.config = config or WorkloadConfig()
        self.view_bound = view_bound

    def make_call(self, rng: random.Random, site: str) -> AppCall:
        kind, account, cents, payee = draw_op(rng, self.accounts,
                                              self.config)
        bank, work = self.bank, self.config.work
        if kind == "cancel":
            return lambda done: bank.deposit(site, account, cents,
                                             on_done=done, work=work)
        if payee is not None:
            return lambda done: bank.transfer(site, account, payee,
                                              cents, on_done=done,
                                              work=work)
        if kind == "read":
            return lambda done: bank.audit_balance(site, account,
                                                   on_done=done,
                                                   work=work)
        if kind == "read_view":
            return lambda done: bank.estimate_balance(
                site, account, bound=self.view_bound, on_done=done,
                work=work)
        return lambda done: bank.withdraw(site, account, cents,
                                          on_done=done, work=work)


__all__ = ["AppCall", "AppTraffic", "AppWorkloadDriver",
           "AirlineAppTraffic", "BankAppTraffic"]
