"""Build, drive and check the six workloads — from outside the program.

Every function here touches ``repro`` only through its public
surface: build a system, register items, feed it the generated
arrivals, run the kernel, read results and registries. The shared
shape is a :class:`Run`: ``drive()`` is the timed region, ``check()``
the correctness checks (outside it), and the counters are harvested
from finished systems by :class:`Tally`.

Arrivals are open loop in *sim* time: one benchmark-owned chained
event per site fires each arrival exactly when it is due (generator
lateness is 0 by construction) and the bound calls were all made
during set-up, so the timed region holds no input generation.
"""

from __future__ import annotations

import time
from collections import Counter
from functools import partial
from typing import Any, Callable

from calibrate import Calibrator
from inputs import Inputs

from repro.apps.airline import ReservationSystem
from repro.apps.bank import Bank
from repro.chaos.explore import explore
from repro.chaos.runner import ChaosConfig, ChaosResult
from repro.core import fragments
from repro.core.domain import CounterDomain
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    TransactionSpec,
    TransferOp,
    TxnResult,
)
from repro.metrics.collector import Collector
from repro.net.link import LinkConfig
from repro.net.outbox import BundlingConfig
from repro.reads import ViewConfig
from repro.serving import ServingConfig, ServingFrontend

#: Registry histograms whose raw sim-time samples the account needs.
_HISTOGRAMS = ("vm.delivery", "serve.wait", "view.staleness")

#: The timed region is clocked in this many consecutive slices (plus
#: the settle) of equal *sim* extent, with a calibration unit between
#: them. For a seed every run does the same work in slice k, so
#: ``report.py`` can take each slice's fastest run: on a shared host
#: noise only ever adds time, and it comes in bursts that rarely hit
#: the same slice of every run.
SLICES = 64


class Tally:
    """Deterministic work counters read off finished systems."""

    def __init__(self) -> None:
        self.systems = 0
        self.steps = 0
        self.pending = 0
        self.log_records = 0
        #: Registry counter families, summed over label sets.
        self.counters: Counter[str] = Counter()
        #: Logical payloads handed to the network, by kind.
        self.payloads: Counter[str] = Counter()
        self.samples: dict[str, list[float]] = {
            name: [] for name in _HISTOGRAMS}

    def add(self, system: DvPSystem) -> None:
        self.systems += 1
        self.steps += system.sim.steps
        self.pending += system.sim.pending
        self.log_records += sum(len(site.log)
                                for site in system.sites.values())
        for metric in system.sim.metrics.counters():
            self.counters[metric.name] += metric.value
        self.payloads.update(system.network.sent_counts)
        for metric in system.sim.metrics.histograms():
            if metric.name in self.samples:
                self.samples[metric.name].extend(metric.values)


class Run:
    """One built workload: drive it, check it, account for it."""

    def __init__(self, inputs: Inputs) -> None:
        self.inputs = inputs
        self.tally = Tally()
        self.attempted = 0
        self.results: list[TxnResult] = []
        self.shed = 0
        #: Arrivals that found their site down (chaos only).
        self.unserved = 0
        #: Sim latency (submit/enqueue -> decision) of committed ops.
        self.latencies: list[float] = []
        #: Workload-specific deterministic evidence (digests, ...).
        self.evidence: dict[str, Any] = {}
        #: Host ms of the final ``verify_full()``, outside the region
        #: (None when every scan is inside it, as under chaos).
        self.verify_full_ms: float | None = None
        #: Host s spent binding the generated calls (input generation,
        #: not set-up).
        self.bind_s = 0.0
        #: Events already queued when the timed region starts.
        self.pending_start = 0
        #: Host s of each consecutive slice of the timed region, and of
        #: the calibration unit run before the first and after each.
        self.slice_walls: list[float] = []
        self.calibration: list[float] = []
        #: CPU s the units took, so the region's CPU time excludes them.
        self.calibration_cpu_s = 0.0
        self._calibrator = Calibrator()
        self._lap_started = 0.0

    def _start_laps(self) -> None:
        cpu_started = time.process_time()
        self.calibration.append(self._calibrator.unit())
        self.calibration_cpu_s += time.process_time() - cpu_started
        self._lap_started = time.perf_counter()

    def _lap(self) -> None:
        self.slice_walls.append(time.perf_counter() - self._lap_started)
        self._start_laps()

    def drive(self) -> None:
        raise NotImplementedError

    def check(self) -> list[str]:
        raise NotImplementedError

    def fingerprint_events(self) -> None:
        """Start hashing every kernel event (traced run only)."""

    def fingerprint(self) -> str | None:
        """The event hash; None where a digest already covers it."""
        return None


# -- long steady runs ---------------------------------------------------------

class SteadyRun(Run):
    """One system, one long open-loop run, then settle."""

    def __init__(self, inputs: Inputs, system: DvPSystem,
                 bind: Callable[[str, tuple], Callable],
                 frontend: ServingFrontend | None = None,
                 collector: Collector | None = None) -> None:
        super().__init__(inputs)
        self.system = system
        self.frontend = frontend
        self.collector = collector or Collector()
        self.attempted = len(inputs.arrivals)
        started = time.perf_counter()
        self._install(bind)
        self.bind_s = time.perf_counter() - started
        self.pending_start = system.sim.pending

    def _install(self, bind: Callable[[str, tuple], Callable]) -> None:
        """Bind every call now; arm one chained arrival per site."""
        per_site: dict[str, list[tuple[float, Callable]]] = {}
        for when, site, call in self.inputs.arrivals:
            per_site.setdefault(site, []).append((when, bind(site, call)))
        for site, calls in per_site.items():
            self._chain(site, iter(calls))

    def _chain(self, site: str, pending) -> None:
        sim = self.system.sim
        on_submit = self.collector.on_submit
        on_result = self.collector.on_result
        label = f"arrival:{site}"

        def arrive(call: Callable) -> None:
            following = next(pending, None)
            if following is not None:
                sim.at_site(site, following[0],
                            partial(arrive, following[1]), label=label)
            on_submit()
            call(on_result)

        first = next(pending)
        sim.at_site(site, first[0], partial(arrive, first[1]), label=label)

    def drive(self) -> None:
        inputs, sim = self.inputs, self.system.sim
        if self.frontend is not None:
            self.frontend.start()
        self._start_laps()
        for index in range(1, SLICES + 1):
            sim.run_until(inputs.duration * index / SLICES)
            self._lap()
        if self.frontend is not None:
            # "stop" (E14) lets the queued backlog drain through the
            # settle window; "quiesce" (E16) sheds it at once.
            getattr(self.frontend, inputs.params["end_of_load"])()
        sim.run_until(inputs.duration + inputs.settle)
        self._lap()

    def check(self) -> list[str]:
        system, collector = self.system, self.collector
        self.results = collector.results
        self.shed = collector.shed
        if self.frontend is not None:
            self.latencies = [sample.latency
                              for sample in self.frontend.samples
                              if sample.committed]
        else:
            self.latencies = [result.latency for result in self.results
                              if result.committed]
        self.tally.add(system)
        failures = []
        started = time.perf_counter()
        reports = system.auditor.verify_full()
        self.verify_full_ms = (time.perf_counter() - started) * 1e3
        failures += [f"conservation: {report}" for report in reports
                     if not report.ok]
        for name, site in system.sites.items():
            if not site.vm.check_accounting():
                failures.append(f"vm accounting drifted at {name}")
        if collector.submitted != self.attempted:
            failures.append(
                f"{collector.submitted} arrivals fired, "
                f"{self.attempted} generated")
        if collector.lost:
            failures.append(
                f"{collector.lost} ops never decided (attempted != "
                "committed + aborted + shed)")
        return failures + self.check_workload()

    def check_workload(self) -> list[str]:
        return []

    def fingerprint_events(self) -> None:
        # Fingerprint only, no list: a reviewer sees at once whether a
        # PR reordered events.
        self.system.sim.enable_trace(limit=0)

    def fingerprint(self) -> str | None:
        return self.system.sim.trace_fingerprint()

    def _no_aborts(self) -> list[str]:
        reasons = Counter(result.reason for result in self.results
                          if not result.committed)
        return [f"workload must not abort, saw {dict(reasons)}"] \
            if reasons else []


def _dvp_system(inputs: Inputs, seed: int, **extra: Any) -> DvPSystem:
    params = inputs.params
    if params["cc"] == "conc2":
        network = {"sync_delay": params["sync_delay"],
                   "link": LinkConfig(base_delay=params["sync_delay"])}
    else:
        network = {"link": LinkConfig(base_delay=params["link_delay"],
                                      jitter=params["link_jitter"]),
                   "policy": params["policy"],
                   "retransmit_period": params.get("retransmit_period",
                                                   5.0)}
    return DvPSystem(SystemConfig(
        sites=list(params["sites"]), seed=seed, cc=params["cc"],
        txn_timeout=params["txn_timeout"],
        shards=params.get("shards", 1),
        shard_workers=params.get("shard_workers", 1),
        partitioner=params.get("partitioner", "all"),
        replicas=params.get("replicas"), **network, **extra))


def _frontend(inputs: Inputs, system: DvPSystem,
              collector: Collector) -> ServingFrontend:
    params = inputs.params
    return ServingFrontend(system, ServingConfig(
        router=params["router"], max_inflight=params["max_inflight"],
        max_depth=params["max_depth"],
        board_period=params["board_period"]), collector)


class TransferRun(SteadyRun):
    def check_workload(self) -> list[str]:
        return self._no_aborts()


def build_transfer(inputs: Inputs, seed: int) -> Run:
    flush_delay = inputs.params["flush_delay"]
    system = _dvp_system(
        inputs, seed,
        bundling=(BundlingConfig(flush_delay=flush_delay)
                  if flush_delay is not None else None))
    for item, split in inputs.items:
        system.add_item(item, CounterDomain(), split=split)

    def bind(site: str, call: tuple) -> Callable:
        spec = TransactionSpec(
            ops=tuple(TransferOp(*move) for move in call[1]),
            label="transfer")
        return partial(system.submit, site, spec)

    return TransferRun(inputs, system, bind)


class LocalRun(SteadyRun):
    def check_workload(self) -> list[str]:
        failures = self._no_aborts()
        sent = self.tally.counters["net.sent"]
        if sent:
            failures.append(f"local workload sent {sent} envelopes")
        return failures


def build_local(inputs: Inputs, seed: int) -> Run:
    system = _dvp_system(inputs, seed)
    for item, split in inputs.items:
        system.add_item(item, CounterDomain(), split=split)
    ops = {"inc": IncrementOp, "dec": DecrementOp}

    def bind(site: str, call: tuple) -> Callable:
        verb, item, amount, work = call
        spec = TransactionSpec(ops=(ops[verb](item, amount),),
                               label=verb, work=work)
        return partial(system.submit, site, spec)

    return LocalRun(inputs, system, bind)


class ServingRun(SteadyRun):
    def check_workload(self) -> list[str]:
        stuck = {name: (queue.depth, queue.inflight)
                 for name, queue in self.frontend.queues.items()
                 if queue.depth or queue.inflight}
        return [f"queues not drained at the end: {stuck}"] if stuck else []


def build_serving(inputs: Inputs, seed: int) -> Run:
    system = _dvp_system(inputs, seed)
    collector = Collector()
    frontend = _frontend(inputs, system, collector)
    reservations = ReservationSystem(system, via=frontend)
    for flight, seats in inputs.items:
        reservations.add_flight(flight, seats)
    verbs = {"reserve": reservations.reserve, "cancel": reservations.cancel}

    def bind(site: str, call: tuple) -> Callable:
        verb, flight, seats, work = call
        return partial(verbs[verb], site, flight, seats, work=work)

    return ServingRun(inputs, system, bind, frontend, collector)


class ReadRun(SteadyRun):
    def check_workload(self) -> list[str]:
        stale = [cert.staleness for result in self.results
                 for cert in result.view_reads.values()]
        reads = [result for result in self.results
                 if result.label.startswith("estimate:")]
        self.evidence.update(
            reads=len(reads),
            reads_committed=sum(1 for r in reads if r.committed),
            reads_served=sum(1 for r in reads if r.view_reads),
            reads_fallback=sum(1 for r in reads if r.view_fallbacks),
            stale_max=max(stale, default=0.0))
        worst = self.evidence["stale_max"]
        bound = self.inputs.params["read_bound"]
        return [f"certificate staleness {worst} exceeds the bound "
                f"{bound}"] if worst > bound else []


def build_reads(inputs: Inputs, seed: int) -> Run:
    params = inputs.params
    system = _dvp_system(inputs, seed, views=ViewConfig(
        refresh_period=params["view_refresh"], ttl=params["view_ttl"]))
    collector = Collector()
    frontend = _frontend(inputs, system, collector)
    bank = Bank(system, via=frontend)
    for account, split in inputs.items:
        bank.open_account(account, split)

    def bind(site: str, call: tuple) -> Callable:
        if call[0] == "estimate":
            return partial(bank.estimate_balance, site, call[1], call[2])
        verb = bank.deposit if call[0] == "deposit" else bank.withdraw
        return partial(verb, site, call[1], call[2], work=call[3])

    return ReadRun(inputs, system, bind, frontend, collector)


# -- chaos exploration --------------------------------------------------------

class ChaosRun(Run):
    """Thousands of short faulty runs instead of one long steady one."""

    def __init__(self, inputs: Inputs, seed: int) -> None:
        super().__init__(inputs)
        self.seed = seed
        self.config = ChaosConfig.from_dict(inputs.params["config"])
        self.budget = inputs.params["budget"]
        self.attempted = self.budget * self.config.txns
        self.report = None
        self._stride = -(-self.budget // SLICES)

    def _on_run(self, index: int, result: ChaosResult) -> None:
        decided = result.system.results
        self.results.extend(decided)
        self.latencies.extend(txn.latency for txn in decided
                              if txn.committed)
        # Arrivals at a dead site never reached a server.
        self.unserved += self.config.txns - result.submitted
        self.tally.add(result.system)
        if (index + 1) % self._stride == 0 or index + 1 == self.budget:
            self._lap()

    def drive(self) -> None:
        leak = self.inputs.params.get("leak")
        fragments.set_test_leak(leak)
        self._start_laps()
        try:
            self.report = explore(self.config, self.budget, self.seed,
                                  on_run=self._on_run)
        finally:
            fragments.set_test_leak(None)

    def check(self) -> list[str]:
        report = self.report
        self.evidence.update(digest=report.digest(), plans=report.runs,
                             failing_plans=len(report.failures))
        return [f"plan #{case.index} failed {sorted(case.failures)}: "
                f"{case.plan.describe()}" for case in report.failures[:5]]


def build_chaos(inputs: Inputs, seed: int) -> Run:
    return ChaosRun(inputs, seed)


BUILDERS: dict[str, Callable[[Inputs, int], Run]] = {
    "transfer_fanout": build_transfer,
    "transfer_bundled": build_transfer,
    "local_commit": build_local,
    "serving_knee": build_serving,
    "read_mostly": build_reads,
    "chaos_explore": build_chaos,
}
