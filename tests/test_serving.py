"""Unit tests for the serving front-end: queues, admission, routers."""

import pytest

from repro.core.domain import CounterDomain
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import DecrementOp, ReadViewOp, TransactionSpec
from repro.metrics.collector import Collector
from repro.reads import ViewConfig
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

    @pytest.mark.parametrize("period", [float("nan"), float("inf")],
                             ids=["nan", "inf"])
    def test_a_non_finite_board_period_is_refused(self, period):
        with pytest.raises(ValueError, match="board_period"):
            ServingConfig(board_period=period)

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

    def test_backlog_deciding_inside_submit_drains_in_a_loop(self):
        """2 000 cache-served view reads queue behind one write holding
        the only slot. When it decides, each read decides inside its own
        submit: they drain in FIFO order, without a stack frame per
        request (recursion overflowed at ~100)."""
        system = DvPSystem(SystemConfig(
            sites=["A", "B", "C"], seed=9,
            views=ViewConfig(refresh_period=2.0)))
        system.add_item("f", CounterDomain(), total=1000)
        system.add_item("v", CounterDomain(), total=1000)
        frontend = ServingFrontend(system, ServingConfig(
            max_inflight=1, max_depth=None))
        system.run_until(4.0)        # a refresh round has landed
        queue = frontend.queues["A"]
        decided = []
        queue.offer(spec(work=1.0), "A",
                    lambda result: decided.append(("write",
                                                   result.committed)))
        read = TransactionSpec(ops=(ReadViewOp("v", bound=8.0),),
                               label="estimate")
        for index in range(2000):
            queue.offer(read, "A", lambda result, index=index:
                        decided.append((index, result.committed,
                                        bool(result.view_rows))))
        assert queue.inflight == 1 and queue.depth == 2000
        system.run_until(10.0)
        assert decided[0] == ("write", True)
        assert decided[1:] == [(index, True, True) for index in range(2000)]
        assert queue.inflight == 0 and queue.depth == 0

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
        """No ``__dict__`` — and still everything the harness does with
        a value object (pickle across worker processes, deepcopy,
        asdict into a JSON row)."""
        import copy
        import dataclasses
        import json
        import pickle
        sample = self.make(1.0)
        assert not hasattr(sample, "__dict__")
        assert pickle.loads(pickle.dumps(sample)) == sample
        assert copy.deepcopy(sample) == sample
        row = json.loads(json.dumps(dataclasses.asdict(sample)))
        assert ServeSample(**row) == sample
        with pytest.raises(dataclasses.FrozenInstanceError):
            sample.site = None
        assert sample.latency == 1.5

    def test_certificate_is_a_named_tuple_that_round_trips(self):
        """A ViewCertificate is a ``NamedTuple``: built without a
        dataclass ``__init__``, kept in a result as ``tuple(cert)`` —
        and it still survives pickle, deepcopy and a JSON row."""
        import copy
        import json
        import pickle
        from repro.reads import ViewCertificate
        cert = ViewCertificate(item="x", value=5, as_of=1.0,
                               checked_at=2.5, bound=None, epoch=3)
        assert not hasattr(cert, "__dict__")
        assert pickle.loads(pickle.dumps(cert)) == cert
        assert copy.deepcopy(cert) == cert
        row = json.loads(json.dumps(cert._asdict()))
        assert ViewCertificate(**row) == cert
        assert ViewCertificate(*tuple(cert)) == cert
        with pytest.raises(AttributeError):
            cert.value = 6
        assert cert.staleness == 1.5
        assert repr(cert) == ("ViewCertificate(item='x', value=5, as_of=1.0, "
                              "checked_at=2.5, bound=None, epoch=3)")


class TestServeSamples:
    """``frontend.samples`` is a read-only sequence over the columns:
    each ServeSample is built when it is read, none is kept."""

    def test_length_indexing_and_iteration(self):
        system, frontend, collector = build(max_inflight=1, max_depth=None)
        for work in (0.5, 1.0, 2.0):
            frontend.submit("A", spec(work=work), collector.on_result)
        system.sim.run_until(20.0)
        samples = frontend.samples
        rows = list(samples)
        assert len(samples) == len(rows) == 3
        assert all(type(sample) is ServeSample for sample in rows)
        assert [samples[index] for index in range(-3, 3)] == rows + rows
        assert samples[1:] == rows[1:] and samples[::-1] == rows[::-1]
        assert rows[2].finished_at - rows[2].dispatched_at == 2.0
        assert samples[0].committed is True
        for index in (3, -4):
            with pytest.raises(IndexError):
                samples[index]
        with pytest.raises(TypeError):
            samples[0] = rows[1]
        assert rows[0] in samples and samples.index(rows[2]) == 2

    def test_a_view_not_a_copy(self):
        system, frontend, collector = build(max_inflight=1, max_depth=None)
        samples = frontend.samples
        assert not isinstance(samples, list) and len(samples) == 0
        assert not hasattr(samples, "__dict__")
        frontend.submit("A", spec(work=0.0), collector.on_result)
        assert len(samples) == 1 and samples[-1].site == "A"
