"""Run one workload under one fault plan, deterministically.

``run_chaos(config, plan, seed)`` is a pure function: it builds the
system ``config.system`` names, pre-schedules a seed-derived
transaction workload, compiles the plan onto the simulator, runs to the
plan horizon, then *settles* (heals the network, lifts link faults,
recovers dead sites, and lets retransmissions land) so the oracles
inspect a quiescent system. The whole execution is traced;
:attr:`ChaosResult.fingerprint` is a SHA-256 over every event, so two
runs of the same ``(seed, plan)`` can be compared bit-for-bit.

Everything here drives the system through the
:class:`~repro.core.system.System` contract; what differs per system —
how it is built, what it is asked to do, which oracles judge it, which
fault motifs it has a model for — is one :data:`SCENARIOS` entry.

Mid-run conservation probes run ``verify_full()`` at fixed fractions of
the horizon — the same cross-check the PR 1 fuzz performed — and any
divergence or violation they see is folded into the auditor oracle's
verdict.
"""

from __future__ import annotations

import random
from dataclasses import asdict, dataclass, field
from functools import partial
from math import inf
from typing import Any, Callable, NamedTuple

from repro.chaos.oracles import commit_oracles, default_oracles
from repro.chaos.plan import FaultPlan
from repro.core.domain import CounterDomain
from repro.core.invariants import IncrementalDivergence
from repro.core.partition import PARTITIONERS
from repro.core.redistribution import REBALANCE_POLICIES
from repro.core.system import DvPSystem, System, SystemConfig
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    ReadFullOp,
    ReadLocalOp,
    ReadViewOp,
    TransactionSpec,
    TransferOp,
)
from repro.net.link import LinkConfig
from repro.obs.export import event_to_json
from repro.serving.router import ROUTERS
from repro.sim.random import derive_seed

#: Horizon fractions at which the incremental books are cross-checked
#: against a full scan while faults are still active.
PROBE_FRACTIONS = (0.2, 0.4, 0.6, 0.8, 0.97)

#: A wave's ops, and its origin's accounts (``ChaosConfig.waves``).
WAVE_OPS = 5
#: Each peer's initial fragment of a site's account.
WAVE_FUNDS = 10


@dataclass(frozen=True)
class ChaosConfig:
    """The workload/system half of a chaos scenario (plan-independent).

    The base links are benign (constant small delay, no loss): every
    failure comes from the fault plan, so an empty plan is a healthy
    run and shrinking a plan monotonically removes failure causes.
    """

    sites: int = 4
    items: int = 2
    total: int = 120
    txns: int = 24
    duration: float = 80.0
    txn_timeout: float = 10.0
    retransmit_period: float = 3.0
    checkpoint_interval: int = 4
    base_delay: float = 1.0
    base_jitter: float = 0.5
    settle: float = 150.0
    #: Rebalance-daemon policy at every site (None: no daemons). The
    #: daemons run for the whole fault horizon — the oracles must hold
    #: with planned redistribution in the schedule — and are stopped at
    #: settle start so the system can reach quiescence.
    rebalance: str | None = None
    rebalance_period: float = 6.0
    #: Transport bundling flush window (None: bundling off, the seed
    #: transport). When set, the system runs the bundled outbox + ack
    #: coalescing — replay determinism and every oracle must hold with
    #: batching exactly as without it. Old recorded artifacts carry no
    #: key and load as None.
    bundle_flush_delay: float | None = None
    #: Shard count for the sharded kernel (repro.sim.shard); 1 = the
    #: classic single-queue kernel. Old recorded artifacts carry no key
    #: and load as 1, so their fingerprints replay byte-for-byte.
    shards: int = 1
    #: Worker-lane count for the sharded kernel's schedule; any value
    #: must produce the same fingerprint (the determinism tests pin it).
    shard_workers: int = 1
    #: Partitioner name for the placement directory ("all" = the seed
    #: behaviour: every site owns every item). Old recorded artifacts
    #: carry no key and load as "all", replaying byte-for-byte.
    partitioner: str = "all"
    #: Owners per item under non-"all" partitioners (None: every site).
    replicas: int | None = None
    #: Serving front-end router (None: the seed direct-submit path).
    #: When set, every chaos arrival flows through the
    #: repro.serving front-end — routed, queued, admission-controlled —
    #: and ``submitted`` counts dispatches *into* the system (sheds
    #: never entered it). Old recorded artifacts carry no key and load
    #: as None, replaying byte-for-byte.
    serving: str | None = None
    serving_max_depth: int = 8
    serving_max_inflight: int = 2
    serving_board_period: float = 4.0
    #: Per-reader staleness bound for bounded-staleness view reads
    #: (None: views off, the seed read path). When set, the system runs
    #: the Π(b) view service (docs/READS.md) and a slice of the read
    #: workload becomes ``ReadViewOp(bound=views)`` — re-interpreting
    #: an existing roll range, never drawing extra randomness, so
    #: views-off digests stay byte-identical. Old recorded artifacts
    #: carry no key and load as None, replaying byte-for-byte.
    views: float | None = None
    #: View refresh (write-behind publish) period in virtual time.
    view_refresh: float = 4.0
    #: Share of DvP arrivals that become a *wave*: the benchmark suite's
    #: 5-op transfer shape (:func:`_wave_ops`), each source short at
    #: the origin, so every peer is asked for several items in one
    #: request and answers with one multi-entry message. The wave's
    #: draws come from a stream of their own, so the other arrivals
    #: keep their sites, times and specs. 0 (the default) adds no item
    #: and draws nothing: the seed spec stream. Written to an artifact
    #: only when set, so old artifacts load as 0 and replay
    #: byte-for-byte.
    waves: float = 0.0
    #: Which :data:`SCENARIOS` entry runs: "dvp", or a commit-protocol
    #: baseline. Written to an artifact only when it is not "dvp" —
    #: a baseline failure cannot replay from a file that does not say
    #: which system failed — so every DvP artifact, old or new, carries
    #: no key, loads as "dvp" and replays byte-for-byte.
    system: str = "dvp"

    def __post_init__(self) -> None:
        # What ``repro chaos`` sets from its flags or an artifact
        # carries, refused here rather than deep inside a run (or a
        # settle that never ends). Chained compares: NaN fails them all.
        if self.sites < 1 or self.items < 1 or self.txns < 0:
            raise ValueError("sites and items must be >= 1, txns >= 0")
        if self.shards < 1 or self.shard_workers < 1:
            raise ValueError("shards and shard_workers must be >= 1")
        for name in ("duration", "txn_timeout", "retransmit_period",
                     "rebalance_period", "serving_board_period",
                     "view_refresh"):
            if not 0 < getattr(self, name) < inf:
                raise ValueError(f"{name} must be positive and finite")
        for name in ("settle", "base_delay", "base_jitter",
                     "checkpoint_interval"):
            if not 0 <= getattr(self, name) < inf:
                raise ValueError(f"{name} must be >= 0 and finite")
        for name, known in (("system", SCENARIOS),
                            ("rebalance", REBALANCE_POLICIES),
                            ("partitioner", PARTITIONERS),
                            ("serving", ROUTERS)):
            value = getattr(self, name)
            if value is not None and value not in known:
                raise ValueError(f"unknown {name} {value!r}; choose from "
                                 f"{sorted(known)}")
        if self.bundle_flush_delay is not None \
                and not 0 <= self.bundle_flush_delay < inf:
            raise ValueError(
                "bundle_flush_delay must be >= 0 and finite (or None)")
        if self.replicas is not None and self.replicas < 1:
            raise ValueError("replicas must be >= 1 (or None)")
        if self.serving_max_depth < 1 or self.serving_max_inflight < 1:
            raise ValueError(
                "serving_max_depth and serving_max_inflight must be >= 1")
        if self.views is not None and not 0 <= self.views:
            raise ValueError("views (the view bound) must be >= 0 (or None)")
        if not 0 <= self.waves <= 1:
            raise ValueError("waves (a share of arrivals) must be in [0, 1]")

    def site_names(self) -> list[str]:
        return [f"S{index}" for index in range(self.sites)]

    def item_names(self) -> list[str]:
        return [f"item{index}" for index in range(self.items)]

    def wave_accounts(self) -> dict[str, dict[str, int]]:
        """The wave family's items, each with its initial split: every
        site's :data:`WAVE_OPS` accounts, funded at its peers only (none
        without waves)."""
        if not self.waves:
            return {}
        sites = self.site_names()
        return {f"acct_{site}_{index}": {peer: WAVE_FUNDS for peer in sites
                                         if peer != site}
                for site in sites for index in range(WAVE_OPS)}

    def to_dict(self) -> dict[str, Any]:
        data = asdict(self)
        if self.system == "dvp":
            del data["system"]
        if not self.waves:
            del data["waves"]
        return data

    @classmethod
    def from_dict(cls, data: dict[str, Any]) -> "ChaosConfig":
        return cls(**data)


@dataclass
class ChaosResult:
    """Everything the oracles and the explorer need from one run."""

    config: ChaosConfig
    plan: FaultPlan
    seed: int
    system: System
    submitted: int = 0
    probe_failures: list[str] = field(default_factory=list)
    failures: dict[str, list[str]] = field(default_factory=dict)
    fingerprint: str = ""
    initial_totals: dict[str, int] = field(default_factory=dict)
    #: Canonical JSONL lines of the retained trace ring (empty unless
    #: the run was started with ``trace_limit > 0``). Deterministic:
    #: same (config, plan, seed, trace_limit) → same lines.
    trace_tail: list[str] = field(default_factory=list)

    @property
    def failed(self) -> bool:
        return bool(self.failures)

    @property
    def failed_oracles(self) -> tuple[str, ...]:
        return tuple(sorted(self.failures))

    def summary(self) -> str:
        """Deterministic one-liner (no wall-clock, no object ids)."""
        results = self.system.results
        committed = sum(1 for r in results if r.committed)
        verdict = ("FAIL[" + ",".join(self.failed_oracles) + "]"
                   if self.failed else "ok")
        return (f"seed={self.seed} actions={len(self.plan)} "
                f"txns={committed}c/{len(results) - committed}a/"
                f"{self.submitted - len(results)}l "
                f"crashes={sum(s.crash_count for s in self.system.sites.values())} "
                f"{verdict} trace={self.fingerprint[:12]}")


def _build_dvp(config: ChaosConfig, seed: int
               ) -> tuple[DvPSystem, dict[str, int]]:
    bundling = None
    if config.bundle_flush_delay is not None:
        from repro.net.outbox import BundlingConfig
        bundling = BundlingConfig(flush_delay=config.bundle_flush_delay)
    views = None
    if config.views is not None:
        from repro.reads import ViewConfig
        views = ViewConfig(refresh_period=config.view_refresh)
    system = DvPSystem(SystemConfig(
        sites=config.site_names(), seed=seed,
        txn_timeout=config.txn_timeout,
        retransmit_period=config.retransmit_period,
        checkpoint_interval=config.checkpoint_interval,
        link=LinkConfig(base_delay=config.base_delay,
                        jitter=config.base_jitter),
        bundling=bundling,
        shards=config.shards, shard_workers=config.shard_workers,
        partitioner=config.partitioner, replicas=config.replicas,
        views=views))
    per_site = _quota_split(config, seed)
    per_site.update(config.wave_accounts())
    for item, split in per_site.items():
        system.add_item(item, CounterDomain(), split=split)
    return system, {item: sum(split.values())
                    for item, split in per_site.items()}


def _build_commit(name: str, config: ChaosConfig, seed: int
                  ) -> tuple[System, dict[str, int]]:
    """The commit-protocol baseline ``repro.baselines.<name>``: items
    homed round-robin, each with an equal share of ``config.total``.
    (Imported here: a DvP run pays for no baseline.)"""
    from repro import baselines
    from repro.baselines.common import BaselineConfig

    sites = config.site_names()
    system = getattr(baselines, name)(
        sites, seed=seed,
        link=LinkConfig(base_delay=config.base_delay,
                        jitter=config.base_jitter),
        config=BaselineConfig(txn_timeout=config.txn_timeout,
                              retry_period=config.retransmit_period))
    items = config.item_names()
    for position, item in enumerate(items):
        system.add_item(item, sites[position % len(sites)],
                        config.total // len(items))
    return system, dict.fromkeys(items, config.total // len(items))


def _transfer_workload(system: System, config: ChaosConfig,
                       result: ChaosResult, frontend=None) -> None:
    """Cross-item transfers only: they conserve the total, so the
    conservation oracle has an exact expectation. Arrivals at a dead
    site vanish uncounted, as in the DvP workload."""
    rng = system.sim.rng.stream("chaos:workload")
    sites = config.site_names()
    items = config.item_names()
    for _ in range(config.txns):
        site = rng.choice(sites)
        src = rng.choice(items)
        dst = rng.choice([name for name in items if name != src] or items)
        spec = TransactionSpec(
            ops=(TransferOp(src, dst, rng.randint(1, 3)),), label="chaos")

        def arrive(site=site, spec=spec) -> None:
            if system.sites[site].alive:
                result.submitted += 1
                system.submit(site, spec)

        system.sim.at_site(site, rng.uniform(0.5, config.duration), arrive,
                           label=f"chaos-arrival:{site}")


def _dvp_workload(system: DvPSystem, config: ChaosConfig,
                  result: ChaosResult, frontend=None) -> None:
    _build_workload(system, config, result, frontend)
    _install_probes(system, config, result)


def _build_workload(system: DvPSystem, config: ChaosConfig,
                    result: ChaosResult, frontend=None) -> None:
    """Pre-schedule every arrival from a seed-derived stream.

    Arrivals at a dead site vanish without being counted as submitted
    (the customer's request never reached a running server), so the
    progress oracle can attribute every lost submission to a crash.
    With a serving *frontend* the arrival instead enters the front-end
    (the load balancer outlives any one site); requests the front-end
    sheds never reach the system and are not counted as submitted —
    ``run_chaos`` reads the dispatch count off the front-end after the
    run.
    """
    rng = system.sim.rng.stream("chaos:workload")
    waves = (system.sim.rng.stream("chaos:waves") if config.waves
             else None)
    sites = config.site_names()
    items = config.item_names()
    for _ in range(config.txns):
        site = rng.choice(sites)
        item = rng.choice(items)
        roll = rng.random()
        amount = rng.randint(1, max(2, config.total // (2 * config.sites)))
        if roll < 0.50:
            op = DecrementOp(item, amount)
        elif roll < 0.70:
            op = IncrementOp(item, rng.randint(1, 8))
        elif roll < 0.82 and len(items) > 1:
            other = rng.choice([name for name in items if name != item])
            op = TransferOp(item, other, rng.randint(1, 5))
        elif roll < 0.92:
            # With views on, the upper half of the read range becomes a
            # bounded-staleness view read. The roll was already drawn,
            # so views-off runs consume the same stream and keep their
            # exploration digests byte-identical.
            if config.views is not None and roll >= 0.87:
                op = ReadViewOp(item, bound=config.views)
            else:
                op = ReadFullOp(item)
        else:
            op = ReadLocalOp(item)
        when = rng.uniform(0.5, config.duration)
        # Local reads return only the site's own quota — a lower bound
        # with no serial-value claim — so the serial oracle must be
        # able to tell them apart from full reads. View reads claim a
        # *bounded-stale* value, judged by the view oracle instead.
        label = ("chaos:local-read" if isinstance(op, ReadLocalOp)
                 else "chaos:view-read" if isinstance(op, ReadViewOp)
                 else "chaos")
        ops = (op,)
        if waves is not None and waves.random() < config.waves:
            ops, label = _wave_ops(waves, site, sites), "chaos"

        def arrive(site=site, ops=ops, label=label) -> None:
            spec = TransactionSpec(ops=ops, label=label)
            if frontend is not None:
                frontend.submit(site, spec)
                return
            target = system.sites[site]
            if not target.alive:
                return
            result.submitted += 1
            target.submit(spec)

        # Site-targeted arrival: lands on the shard owning the site.
        system.sim.at_site(site, when, arrive,
                           label=f"chaos-arrival:{site}")


def _wave_ops(rng: random.Random, site: str, sites: list[str]
              ) -> tuple[TransferOp, ...]:
    """The benchmark suite's transfer shape: :data:`WAVE_OPS` moves of
    1..4 from *site*'s accounts to one peer's, account for account.
    Each account is drawn with replacement, so a wave may draw one
    twice: the requester sums the two, and names the account once."""
    peer = rng.choice([name for name in sites if name != site] or sites)
    moves = []
    for _ in range(WAVE_OPS):
        index = rng.randrange(WAVE_OPS)
        moves.append(TransferOp(f"acct_{site}_{index}",
                                f"acct_{peer}_{index}", rng.randint(1, 4)))
    return tuple(moves)


def _install_probes(system: DvPSystem, config: ChaosConfig,
                    result: ChaosResult) -> None:
    for fraction in PROBE_FRACTIONS:
        def probe(fraction=fraction) -> None:
            try:
                reports = system.auditor.verify_full()
            except IncrementalDivergence as exc:
                result.probe_failures.append(
                    f"t={fraction * config.duration:g}: divergence: {exc}")
                return
            for report in reports:
                if not report.ok:
                    result.probe_failures.append(
                        f"t={fraction * config.duration:g}: {report}")
        # verify_full scans every site's books: a consistent global
        # cut under sharding (plain `at` on the single-queue kernel).
        system.sim.at_global(fraction * config.duration, probe,
                             label="chaos-probe")


def run_chaos(config: ChaosConfig, plan: FaultPlan, seed: int,
              oracles: "list | None" = None,
              trace_limit: int = 0,
              trace_kernel: bool = False) -> ChaosResult:
    """Execute one ``(config, plan, seed)`` scenario and judge it.

    *oracles* defaults to the scenario's own list (for DvP: auditor,
    serial, progress, view); pass an explicit list to narrow or extend.

    ``trace_limit > 0`` additionally enables the structured trace bus
    with a ring of that many events; the retained tail lands in
    :attr:`ChaosResult.trace_tail` (and the full live bus stays
    readable on ``result.system.sim.obs``, which `repro trace` renders
    from). Tracing is observation only — it never perturbs the
    schedule, so the fingerprint is unchanged by it.
    """
    scenario = SCENARIOS[config.system]
    system, initial_totals = scenario.build(config, seed)
    result = ChaosResult(config=config, plan=plan, seed=seed, system=system,
                         initial_totals=initial_totals)
    frontend = None
    if config.serving is not None:
        from repro.serving import ServingConfig, ServingFrontend
        frontend = ServingFrontend(system, ServingConfig(
            router=config.serving,
            max_inflight=config.serving_max_inflight,
            max_depth=config.serving_max_depth,
            board_period=config.serving_board_period))
        frontend.start()
    daemons = {}
    if config.rebalance is not None:
        from repro.core.rebalance import RebalanceConfig, install_rebalancing
        daemons = install_rebalancing(system, RebalanceConfig(
            period=config.rebalance_period, high_watermark=1.5,
            policy=config.rebalance))

    system.sim.enable_trace(limit=0)  # fingerprint only; keep no list
    if trace_limit > 0:
        system.sim.obs.enable(ring_limit=trace_limit,
                              kernel_steps=trace_kernel)
    scenario.workload(system, config, result, frontend)
    plan.compile(system)

    system.run_until(config.duration)

    # Serving settle: refuse new work and shed the queued backlog so
    # everything *dispatched* decides inside the settle window (queued
    # requests never entered the system; shedding them is bookkeeping,
    # not data loss). In-flight transactions decide on their own.
    if frontend is not None:
        frontend.quiesce()

    # Settle: lift every scripted fault, revive every site, let
    # retransmissions land. The oracles require quiescence — so the
    # daemons stop here too (a push in the settle tail would leave a
    # fresh Vm unacked at the horizon; everything already in flight
    # lands and acks normally).
    for daemon in daemons.values():
        daemon.stop()
    system.network.heal()
    system.network.clear_all_link_faults()
    for name, site in system.sites.items():
        if not site.alive:
            system.recover(name)  # call_in_site: timers land on the shard
    system.run_for(config.txn_timeout + config.settle)

    if frontend is not None:
        # Submissions = dispatches into the system; sheds stayed out.
        result.submitted = frontend.dispatched
    result.fingerprint = system.sim.trace_fingerprint()
    if trace_limit > 0:
        result.trace_tail = [event_to_json(event)
                             for event in system.sim.obs.events()]
    for oracle in (scenario.oracles() if oracles is None else oracles):
        messages = oracle.check(result)
        if messages:
            result.failures[oracle.name] = messages
    return result


def _quota_split(config: ChaosConfig, seed: int) -> dict[str, dict[str, int]]:
    """Deterministic uneven initial quotas (forces early Vm traffic).

    Under a non-"all" partitioner the quota goes only to each item's
    directory owners (non-owners start at zero — the combine identity).
    One weight is drawn per site regardless, so the draw sequence — and
    with it every pre-existing exploration digest — is byte-identical
    when ``partitioner="all"`` (where owners == all sites anyway).
    """
    from repro.core.partition import Directory, make_partitioner

    rng = random.Random(derive_seed(seed, "chaos:quotas"))
    directory = Directory(make_partitioner(config.partitioner),
                          tuple(config.site_names()),
                          replicas=config.replicas)
    split: dict[str, dict[str, int]] = {}
    for item in config.item_names():
        names = config.site_names()
        owners = set(directory.owners(item))
        drawn = [rng.randint(1, 5) for _ in names]
        weights = [weight if name in owners else 0
                   for name, weight in zip(names, drawn)]
        scale = config.total / sum(weights)
        quotas = [int(weight * scale) for weight in weights]
        first_owner = next(i for i, name in enumerate(names)
                           if name in owners)
        quotas[first_owner] += config.total - sum(quotas)
        split[item] = dict(zip(names, quotas))
    return split


class Scenario(NamedTuple):
    """What differs per system under chaos, and nothing else."""

    #: (config, seed) -> the system with its items registered, and the
    #: initial logical total of each item.
    build: Callable[[ChaosConfig, int], tuple[System, dict[str, int]]]
    #: Pre-schedules every arrival (and whatever rides beside them).
    workload: Callable[..., None]
    #: The oracles that judge a run when the caller names none.
    oracles: Callable[[], list]
    #: :class:`~repro.chaos.explore.GrammarWeights` overrides: 0 for a
    #: fault motif the system has no model for.
    weights: dict[str, float]


#: The systems chaos can run, by ``ChaosConfig.system``. Baseline sites
#: have no skewable clock; the elastic motifs weigh 0 already.
SCENARIOS = {
    "dvp": Scenario(_build_dvp, _dvp_workload, default_oracles, {}),
    "paxos": Scenario(partial(_build_commit, "PaxosCommitSystem"),
                      _transfer_workload, commit_oracles, {"skew": 0.0}),
    "2pc": Scenario(partial(_build_commit, "TwoPCSystem"),
                    _transfer_workload, commit_oracles, {"skew": 0.0}),
}


__all__ = ["ChaosConfig", "ChaosResult", "run_chaos", "PROBE_FRACTIONS",
           "SCENARIOS", "Scenario"]
