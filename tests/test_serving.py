"""Unit tests for the serving front-end: queues, admission, routers."""

import pytest

from repro.core.domain import CounterDomain
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import DecrementOp, TransactionSpec
from repro.metrics.collector import Collector
from repro.serving import (
    DepthBoard,
    LeastQueueRouter,
    LocalityRouter,
    Overload,
    RandomRouter,
    ServeSample,
    ServingConfig,
    ServingFrontend,
)


def build(**config_kwargs):
    system = DvPSystem(SystemConfig(sites=["A", "B", "C"], seed=9))
    system.add_item("f", CounterDomain(), total=1000)
    collector = Collector()
    frontend = ServingFrontend(system, ServingConfig(**config_kwargs),
                               collector)
    return system, frontend, collector


def spec(work=1.0):
    return TransactionSpec(ops=(DecrementOp("f", 1),), label="r",
                           work=work)


class _FixedRouter:
    name = "fixed"

    def __init__(self, target):
        self.target = target

    def route(self, origin, request):
        return self.target


class _FakeQueue:
    def __init__(self, load):
        self.load = load


class TestServingConfig:
    def test_unknown_router_rejected(self):
        with pytest.raises(ValueError):
            ServingConfig(router="clairvoyant")

    def test_bad_inflight_rejected(self):
        with pytest.raises(ValueError):
            ServingConfig(max_inflight=0)

    def test_bad_board_period_rejected(self):
        with pytest.raises(ValueError):
            ServingConfig(board_period=0.0)

    @pytest.mark.parametrize("depth", [0, -1])
    def test_bad_depth_rejected(self, depth):
        """A bound below one would shed every request ``depth``."""
        with pytest.raises(ValueError):
            ServingConfig(max_depth=depth)
        ServingConfig(max_depth=None)  # unbounded stays legal


class TestSiteQueue:
    def test_load_leveling_caps_inflight(self):
        # Distinct items: under conc1 a same-item conflict aborts
        # instantly and would free the slot synchronously.
        system, frontend, collector = build(max_inflight=2, max_depth=10)
        for index in range(6):
            system.add_item(f"g{index}", CounterDomain(), total=10)
        queue = frontend.queues["A"]
        for index in range(6):
            one = TransactionSpec(ops=(DecrementOp(f"g{index}", 1),),
                                  label="r", work=1.0)
            assert queue.offer(one, "A", collector.on_result) is None
        assert queue.inflight == 2
        assert queue.depth == 4
        system.sim.run_until(100.0)
        assert queue.inflight == 0
        assert queue.depth == 0
        assert len(collector.results) == 6
        assert len(frontend.samples) == 6
        assert frontend.dispatched == 6

    def test_depth_bound_sheds(self):
        system, frontend, collector = build(max_inflight=1, max_depth=2)
        queue = frontend.queues["A"]
        refused = [queue.offer(spec(), "A") for _ in range(5)]
        sheds = [r for r in refused if r is not None]
        assert len(sheds) == 2
        assert all(isinstance(s, Overload) for s in sheds)
        assert all(s.reason == "depth" for s in sheds)
        assert collector.shed == 2
        assert frontend.overloads == sheds

    def test_queue_wait_counts_in_latency(self):
        system, frontend, collector = build(max_inflight=1, max_depth=10)
        queue = frontend.queues["A"]
        for _ in range(3):
            queue.offer(spec(work=2.0), "A")
        system.sim.run_until(100.0)
        waits = [s.queue_wait for s in frontend.samples]
        assert waits[0] == 0.0
        assert waits[1] > 0.0
        assert all(s.latency >= s.queue_wait for s in frontend.samples)

    def test_dispatch_to_crashed_site_sheds_typed(self):
        system, frontend, collector = build(max_inflight=1)
        system.crash("A")
        queue = frontend.queues["A"]
        assert queue.offer(spec(), "A") is None
        assert queue.inflight == 0
        assert collector.shed == 1
        assert frontend.overloads[-1].reason == "site-down"

    def test_quiesce_sheds_backlog_and_refuses(self):
        system, frontend, collector = build(max_inflight=1, max_depth=10)
        queue = frontend.queues["A"]
        for _ in range(4):
            queue.offer(spec(), "A")
        drained = frontend.quiesce()
        assert drained == 3            # one is in flight, three queued
        assert queue.depth == 0
        assert all(o.reason == "shutdown" for o in frontend.overloads)
        late = queue.offer(spec(), "A")
        assert late is not None and late.reason == "shutdown"


class TestDepthBoard:
    def test_snapshot_only_moves_on_refresh(self):
        board = DepthBoard({"A": _FakeQueue(0), "B": _FakeQueue(5)})
        assert board.snapshot == {"A": 0, "B": 0}
        board.refresh()
        assert board.snapshot == {"A": 0, "B": 5}

    def test_least_loaded_prefers_origin_on_ties(self):
        board = DepthBoard({"A": _FakeQueue(1), "B": _FakeQueue(1),
                            "C": _FakeQueue(1)})
        board.refresh()
        assert board.least_loaded(["A", "B", "C"], prefer="B") == "B"
        assert board.least_loaded(["A", "C"], prefer="B") == "A"

    def test_refresh_chain_runs_at_barriers(self):
        system, frontend, collector = build(board_period=2.0)
        frontend.start()
        before = frontend.board.refreshes
        system.sim.run_until(10.0)
        ran = frontend.board.refreshes
        assert ran >= before + 4
        frontend.stop()
        system.sim.run_until(20.0)
        assert frontend.board.refreshes == ran


class TestRouters:
    def test_random_router_is_seed_deterministic(self):
        def routes(seed):
            system = DvPSystem(SystemConfig(sites=["A", "B", "C"],
                                            seed=seed))
            router = RandomRouter(system.sim, ["A", "B", "C"])
            return [router.route("A", spec()) for _ in range(40)]

        assert routes(3) == routes(3)
        assert routes(3) != routes(4)

    def test_least_queue_keeps_origin_within_slack(self):
        board = DepthBoard({"A": _FakeQueue(0), "B": _FakeQueue(2),
                            "C": _FakeQueue(9)})
        board.refresh()
        router = LeastQueueRouter(board, slack=2)
        assert router.route("B", spec()) == "B"   # within slack of A
        assert router.route("C", spec()) == "A"   # genuinely hot

    def test_locality_routes_to_an_owner(self):
        system, frontend, collector = build(router="locality")
        owners = system.directory.owners("f")
        assert owners
        target = frontend.router.route("A", spec())
        assert target in owners

    def test_locality_without_items_stays_at_origin(self):
        system, frontend, collector = build(router="locality")
        empty = TransactionSpec(ops=(), label="noop")
        assert frontend.router.route("B", empty) == "B"


class TestFrontendSubmit:
    def test_same_site_refusal_returned_synchronously(self):
        system, frontend, collector = build(max_inflight=1, max_depth=1)
        frontend.router = _FixedRouter("A")
        assert frontend.submit("A", spec()) is None
        assert frontend.submit("A", spec()) is None
        refused = frontend.submit("A", spec())
        assert isinstance(refused, Overload)
        assert refused.reason == "depth"

    def test_cross_site_forward_lands_on_target(self):
        system, frontend, collector = build(max_inflight=2)
        frontend.router = _FixedRouter("B")
        assert frontend.submit("A", spec(), collector.on_result) is None
        system.sim.run_until(100.0)
        assert len(frontend.samples) == 1
        assert frontend.samples[0].site == "B"
        assert len(collector.results) == 1

    def test_shed_events_emitted_when_obs_enabled(self):
        system, frontend, collector = build(max_inflight=1, max_depth=1)
        system.sim.obs.enable()
        queue = frontend.queues["A"]
        for _ in range(4):
            queue.offer(spec(), "A")
        kinds = {event.kind for event in system.sim.obs.events()}
        assert "serve.enqueue" in kinds
        assert "serve.dequeue" in kinds
        assert "serve.shed" in kinds


class TestServeSample:
    @staticmethod
    def make(arrived, wait=0.5, service=1.0, committed=True):
        return ServeSample(site="A", arrived_at=arrived,
                           dispatched_at=arrived + wait,
                           finished_at=arrived + wait + service,
                           committed=committed)

    def test_latency_is_client_perceived(self):
        sample = self.make(0.0, wait=2.0, service=1.0)
        assert sample.latency == pytest.approx(3.0)
        assert sample.queue_wait == pytest.approx(2.0)

    def test_slotted_values_round_trip(self):
        """One of each is retained per op: no ``__dict__`` — and still
        everything the harness does with a value object (pickle across
        worker processes, deepcopy, asdict into a JSON row)."""
        import copy
        import dataclasses
        import json
        import pickle
        from repro.reads import ViewCertificate
        sample = self.make(1.0)
        cert = ViewCertificate(item="x", value=5, as_of=1.0,
                               checked_at=2.5, bound=None, epoch=3)
        for value in (sample, cert):
            assert not hasattr(value, "__dict__")
            assert pickle.loads(pickle.dumps(value)) == value
            assert copy.deepcopy(value) == value
            row = json.loads(json.dumps(dataclasses.asdict(value)))
            assert type(value)(**row) == value
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(value, dataclasses.fields(value)[0].name, None)
        assert (sample.latency, cert.staleness) == (1.5, 1.5)
