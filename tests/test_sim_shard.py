"""The sharded kernel: plan validation, placement semantics, the
conservative-lookahead guard, and the determinism contract (identical
trace fingerprints for every worker count)."""

import pytest

from repro.sim.kernel import LookaheadError, SimulationError, Simulator
from repro.sim.shard import ShardPlan, ShardedSimulator
from tests.heap_queue import HeapEventQueue

SITES = ["s0", "s1", "s2", "s3"]


def plan4(lookahead=1.0):
    """One site per shard: the maximally distributed plan."""
    return ShardPlan.round_robin(SITES, 4, lookahead)


class TestShardPlan:
    def test_round_robin_deals_in_order(self):
        plan = ShardPlan.round_robin(SITES, 2, 1.0)
        assert plan.site_shard == {"s0": 0, "s1": 1, "s2": 0, "s3": 1}
        assert plan.shards == 2

    def test_round_robin_clamps_to_site_count(self):
        plan = ShardPlan.round_robin(["a", "b"], 8, 1.0)
        assert plan.shards == 2

    def test_lookahead_must_be_positive(self):
        with pytest.raises(ValueError):
            ShardPlan({"a": 0}, 0.0)
        with pytest.raises(ValueError):
            ShardPlan({"a": 0}, -1.0)

    def test_shard_ids_must_be_dense(self):
        with pytest.raises(ValueError):
            ShardPlan({"a": 0, "b": 2}, 1.0)

    def test_needs_sites(self):
        with pytest.raises(ValueError):
            ShardPlan({}, 1.0)

    def test_shard_of_unknown_site(self):
        with pytest.raises(KeyError):
            plan4().shard_of("nope")


class TestPlacement:
    def test_setup_at_site_lands_on_owning_shard(self):
        sim = ShardedSimulator(plan4())
        ran = []
        for index, site in enumerate(SITES):
            sim.at_site(site, 1.0 + index, lambda site=site: ran.append(site))
        sim.run()
        assert ran == SITES
        assert sim.steps == 4
        assert [sim.shard_of(site) for site in SITES] == [0, 1, 2, 3]

    def test_unhinted_at_outside_events_goes_to_shard_zero(self):
        sim = ShardedSimulator(plan4())
        seen = []
        sim.at(2.0, lambda: seen.append(sim.shard_of("s0")))
        sim.run()
        assert sim.steps == 1 and seen == [0]

    def test_after_inside_event_stays_on_shard(self):
        """Site code arming timers with plain after() never migrates."""
        sim = ShardedSimulator(plan4())
        clocks = []

        def tick():
            clocks.append(sim.now)
            if len(clocks) < 3:
                sim.after(0.25, tick)

        sim.at_site("s2", 1.0, tick)
        sim.run()
        assert clocks == [1.0, 1.25, 1.5]
        # All three executed on s2's shard (its step counter moved).
        assert sim.steps == 3

    def test_cross_shard_mail_at_lookahead_is_legal(self):
        sim = ShardedSimulator(plan4(lookahead=1.0))
        arrivals = []
        sim.at_site("s0", 1.0,
                    lambda: sim.after_for_site("s1", 1.0,
                                               lambda: arrivals.append(
                                                   sim.now)))
        sim.run()
        assert arrivals == [2.0]

    def test_cross_shard_mail_returns_no_handle(self):
        sim = ShardedSimulator(plan4())
        handles = []
        sim.at_site("s0", 1.0,
                    lambda: handles.append(
                        sim.after_for_site("s1", 2.0, lambda: None)))
        sim.run()
        assert handles == [None]

    def test_short_cross_shard_delay_raises_lookahead_error(self):
        sim = ShardedSimulator(plan4(lookahead=1.0))

        def send_too_close():
            sim.after_for_site("s1", 0.25, lambda: None)

        sim.at_site("s0", 1.0, send_too_close)
        with pytest.raises(LookaheadError):
            sim.run()

    def test_scheduling_into_past_raises(self):
        sim = ShardedSimulator(plan4())
        sim.at_site("s0", 5.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at_site("s0", 1.0, lambda: None)
        with pytest.raises(SimulationError):
            sim.at(1.0, lambda: None)


class TestGlobalEvents:
    def test_global_runs_at_consistent_cut(self):
        """At the cut every shard has executed exactly the events with
        timestamp <= cut — none beyond it."""
        sim = ShardedSimulator(plan4(lookahead=1.0))
        executed = {site: [] for site in SITES}
        for site in SITES:
            def tick(site=site):
                executed[site].append(sim.now)
                if sim.now < 10.0:
                    sim.after(0.3, lambda: tick(site))
            sim.at_site(site, 0.0, lambda site=site: tick(site))

        cut_view = {}
        sim.at_global(5.0, lambda: cut_view.update(
            {site: list(times) for site, times in executed.items()}))
        sim.run()
        assert cut_view  # the probe ran
        for site in SITES:
            assert cut_view[site], site
            assert max(cut_view[site]) <= 5.0
            # Complete up to the cut: every tick due by 5.0 was seen.
            assert cut_view[site] == [t for t in executed[site] if t <= 5.0]

    def test_global_from_inside_window_raises(self):
        sim = ShardedSimulator(plan4(lookahead=1.0))
        sim.at_site("s0", 1.0, lambda: sim.at_global(1.1, lambda: None))
        with pytest.raises(LookaheadError):
            sim.run()

    def test_global_before_barrier_time_raises(self):
        sim = ShardedSimulator(plan4())
        sim.at_site("s0", 3.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at_global(1.0, lambda: None)


class TestCallInSite:
    def test_setup_context_routes_schedules(self):
        sim = ShardedSimulator(plan4())
        ran = []
        value = sim.call_in_site(
            "s3", lambda: (sim.after(2.0, lambda: ran.append(sim.now)),
                           "built")[1])
        assert value == "built"
        sim.run()
        assert ran == [2.0]

    def test_noop_on_owning_shard(self):
        sim = ShardedSimulator(plan4())
        results = []
        sim.at_site("s1", 1.0,
                    lambda: results.append(
                        sim.call_in_site("s1", lambda: "ok")))
        sim.run()
        assert results == ["ok"]

    def test_cross_shard_call_raises(self):
        sim = ShardedSimulator(plan4())
        sim.at_site("s0", 1.0,
                    lambda: sim.call_in_site("s1", lambda: None))
        with pytest.raises(SimulationError):
            sim.run()


class TestDeferToEventEnd:
    def test_fifo_within_event(self):
        sim = ShardedSimulator(plan4())
        order = []

        def action():
            assert sim.defer_to_event_end(lambda: order.append("d1"))
            assert sim.defer_to_event_end(lambda: order.append("d2"))
            order.append("body")

        sim.at_site("s0", 1.0, action)
        sim.run()
        assert order == ["body", "d1", "d2"]

    def test_false_outside_events(self):
        sim = ShardedSimulator(plan4())
        assert sim.defer_to_event_end(lambda: None) is False

    def test_deferrals_are_per_shard(self):
        """A deferral on one shard never leaks into another shard's
        same-round events."""
        sim = ShardedSimulator(plan4())
        order = []

        def on_s0():
            sim.defer_to_event_end(lambda: order.append("s0-deferred"))
            order.append("s0")

        sim.at_site("s0", 1.0, on_s0)
        sim.at_site("s1", 1.0, lambda: order.append("s1"))
        sim.run()
        assert order.index("s0-deferred") == order.index("s0") + 1


class TestClocksAndRunLoops:
    def test_run_until_advances_every_clock(self):
        sim = ShardedSimulator(plan4())
        sim.at_site("s0", 1.0, lambda: None)
        sim.run_until(10.0)
        assert sim.now == 10.0
        assert all(sim.shard_clock(index) == 10.0 for index in range(4))

    def test_pending_counts_queues_and_mail(self):
        sim = ShardedSimulator(plan4())
        sim.at_site("s0", 1.0, lambda: None)
        sim.at_site("s1", 1.0, lambda: None)
        sim.at_global(5.0, lambda: None)
        assert sim.pending == 3
        sim.run()
        assert sim.pending == 0

    def test_step_executes_globally_earliest_event(self):
        sim = ShardedSimulator(plan4())
        ran = []
        sim.at_site("s2", 1.0, lambda: ran.append("early"))
        sim.at_site("s0", 2.0, lambda: ran.append("late"))
        assert sim.step() is True
        assert ran == ["early"]
        sim.run()
        assert ran == ["early", "late"]

    def test_max_steps_halts_between_rounds(self):
        sim = ShardedSimulator(plan4(lookahead=1.0))

        def forever():
            sim.after(0.5, forever)

        for site in SITES:
            sim.at_site(site, 0.0, forever)
        sim.run(max_steps=40)
        # Round-granular guard: it stops, possibly overshooting by at
        # most one window's worth of events.
        assert 40 <= sim.steps <= 40 + 4 * 3

    def test_queue_factory_override(self):
        sim = ShardedSimulator(plan4(), queue_factory=HeapEventQueue)
        ran = []
        sim.at_site("s0", 1.0, lambda: ran.append(1))
        sim.run()
        assert ran == [1]


def _ping_pong_workload(workers, shards=4, seed=3):
    """Cross-shard ping-pong + per-site local chains + one global cut.

    Exercises every code path whose ordering could conceivably depend
    on the worker schedule: mail, same-instant local events, a
    window-clipping global, and per-shard RNG draws.
    """
    plan = ShardPlan.round_robin(SITES, shards, 1.0)
    sim = ShardedSimulator(plan, seed=seed, workers=workers)
    sim.enable_trace()
    log = []

    def bounce(hops, here, there):
        def on_arrive():
            log.append((sim.now, here, hops))
            sim.rng.stream(f"noise:{here}").random()
            if hops > 0:
                sim.after_for_site(there, 1.25,
                                   lambda: bounce(hops - 1, there, here)(),
                                   label=f"bounce:{there}")
        return on_arrive

    sim.at_site("s0", 0.5, bounce(6, "s0", "s2"), label="bounce:s0")
    sim.at_site("s1", 0.5, bounce(6, "s1", "s3"), label="bounce:s1")
    for site in SITES:
        def chain(site=site, left=5):
            log.append((sim.now, site, "chain"))
            if left > 1:
                sim.after(0.4, lambda: chain(site, left - 1),
                          label=f"chain:{site}")
        sim.at_site(site, 0.2, lambda site=site: chain(site),
                    label=f"chain:{site}")
    sim.at_global(3.0, lambda: log.append((sim.now, "*", "cut")),
                  label="cut")
    sim.run()
    return sim, log


class TestDeterminismContract:
    def test_fingerprint_invariant_across_worker_counts(self):
        baseline, base_log = _ping_pong_workload(workers=1)
        for workers in (2, 3, 4, 8):
            sim, log = _ping_pong_workload(workers=workers)
            assert sim.trace_fingerprint() == baseline.trace_fingerprint()
            assert sim.steps == baseline.steps
            # Event *content* matches too, not just the hashes: the log
            # is only reordered across shards, never within one.
            assert sorted(log) == sorted(base_log)

    def test_different_seeds_do_not_change_schedule_fingerprint(self):
        """The fingerprint covers (time, label) pairs; this workload's
        schedule is seed-independent, so seeds must not perturb it —
        per-shard RNG draws happen but never feed back into timing."""
        a, _ = _ping_pong_workload(workers=1, seed=3)
        b, _ = _ping_pong_workload(workers=1, seed=4)
        assert a.trace_fingerprint() == b.trace_fingerprint()

    def test_fingerprint_detects_schedule_divergence(self):
        sim_a, _ = _ping_pong_workload(workers=1)
        plan = ShardPlan.round_robin(SITES, 4, 1.0)
        sim_b = ShardedSimulator(plan, workers=1)
        sim_b.enable_trace()
        sim_b.at_site("s0", 1.0, lambda: None, label="other")
        sim_b.run()
        assert sim_a.trace_fingerprint() != sim_b.trace_fingerprint()

    def test_single_shard_matches_plain_kernel_trace(self):
        """shards=1 must execute the exact event sequence the classic
        kernel does (same total order, same labels)."""
        def drive(sim):
            sim.enable_trace()
            ran = []

            def tick(left):
                ran.append(sim.now)
                if left:
                    sim.after(0.7, lambda: tick(left - 1), label="tick")
            sim.at(0.3, lambda: tick(5), label="tick")
            sim.at(0.3, lambda: None, priority=-1, label="first")
            sim.run()
            return sim.trace

        plain = drive(Simulator())
        sharded = drive(
            ShardedSimulator(ShardPlan({"only": 0}, 1.0)))
        assert sharded == plain

    def test_per_shard_rng_streams_are_stable(self):
        """Shard sub-seeding is part of the executor contract: the
        parallel runner reconstructs these exact streams in workers."""
        from repro.sim.random import RandomStreams
        plan = ShardPlan.round_robin(SITES, 4, 1.0)
        sim = ShardedSimulator(plan, seed=11)
        draws = {}
        for site in SITES:
            def draw(site=site):
                draws[site] = sim.rng.stream(f"noise:{site}").random()
            sim.at_site(site, 1.0, draw)
        sim.run()
        for index, site in enumerate(SITES):
            expected = RandomStreams(11).fork(f"shard:{index}") \
                .stream(f"noise:{site}").random()
            assert draws[site] == expected

    def test_trace_requires_enable(self):
        sim = ShardedSimulator(plan4())
        with pytest.raises(SimulationError):
            sim.trace_fingerprint()
        with pytest.raises(SimulationError):
            _ = sim.trace

    def test_trace_limit_zero_keeps_fingerprint_only(self):
        plan = ShardPlan.round_robin(SITES, 4, 1.0)
        sim = ShardedSimulator(plan)
        sim.enable_trace(limit=0)
        sim.at_site("s0", 1.0, lambda: None, label="x")
        sim.run()
        assert sim.trace == []
        full = ShardedSimulator(plan)
        full.enable_trace()
        full.at_site("s0", 1.0, lambda: None, label="x")
        full.run()
        assert sim.trace_fingerprint() == full.trace_fingerprint()
