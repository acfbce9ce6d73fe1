"""Property tests for the event queue, the Event back-reference
lifecycle, and the defer_to_event_end same-instant ordering contract.

The queue's correctness claim is *exact order parity* with the
reference heap of bare events: for any interleaving of pushes (any
times, any priorities, ties), pops, cancellations, compactions and
clears, both implementations emit the identical event sequence.
Hypothesis drives random interleavings against the
:class:`~tests.heap_queue.HeapEventQueue` reference.
"""

import gc
import weakref

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sim.events import EventQueue, Event
from repro.sim.kernel import Simulator
from repro.sim.shard import ShardPlan, ShardedSimulator
from tests.heap_queue import HeapEventQueue


def noop():
    pass


# One random operation: (kind, value). A burst pushes several events at
# one instant with priorities from a narrow range, so the queue holds
# runs of events tied on (time, priority) that only seq orders.
_ops = st.lists(
    st.one_of(
        st.tuples(st.just("push"),
                  st.tuples(st.floats(min_value=0.0, max_value=400.0,
                                      allow_nan=False, width=32),
                            st.integers(min_value=-2, max_value=2))),
        st.tuples(st.just("burst"),
                  st.tuples(st.floats(min_value=0.0, max_value=400.0,
                                      allow_nan=False, width=32),
                            st.lists(st.integers(min_value=0, max_value=1),
                                     min_size=2, max_size=12))),
        st.tuples(st.just("pop"), st.none()),
        st.tuples(st.just("pop_if_due"),
                  st.floats(min_value=0.0, max_value=400.0,
                            allow_nan=False, width=32)),
        st.tuples(st.just("peek"), st.none()),
        st.tuples(st.just("cancel"), st.integers(min_value=0)),
        st.tuples(st.just("compact"), st.none()),
        st.tuples(st.just("clear"), st.none()),
    ),
    min_size=1, max_size=200)


def _apply(queue, ops):
    """Run *ops* against *queue*; return the observable event stream."""
    observed = []
    handles = []
    for kind, value in ops:
        if kind == "push":
            time, priority = value
            handles.append(queue.push(time, noop, priority,
                                      label=f"e{len(handles)}"))
        elif kind == "burst":
            time, priorities = value
            for priority in priorities:
                handles.append(queue.push(time, noop, priority,
                                          label=f"e{len(handles)}"))
        elif kind == "pop":
            event = queue.pop()
            observed.append(("pop", None) if event is None else
                            ("pop", (event.time, event.priority,
                                     event.label)))
        elif kind == "pop_if_due":
            event = queue.pop_if_due(value)
            observed.append(("due", None) if event is None else
                            ("due", (event.time, event.priority,
                                     event.label)))
        elif kind == "peek":
            observed.append(("peek", queue.peek_time()))
        elif kind == "cancel":
            if handles:
                handles[value % len(handles)].cancel()
        elif kind == "compact":
            queue.compact()
        elif kind == "clear":
            queue.clear()
            # Every handle handed out so far is now a husk.
            observed.append(("husks", all(
                handle.cancelled and handle.action is None
                and handle.queue is None for handle in handles)))
        observed.append(("len", len(queue)))
    # Drain what's left: the full residual order must match too.
    while True:
        event = queue.pop()
        if event is None:
            break
        observed.append(("drain", (event.time, event.priority,
                                   event.label)))
    return observed


class TestCalendarHeapParity:
    # The class keeps its name so its test ids stay stable; the queue
    # under test is the tuple heap, against the heap of bare events.

    @given(ops=_ops)
    @settings(max_examples=300, deadline=None,
              suppress_health_check=[HealthCheck.too_slow])
    def test_identical_event_streams(self, ops):
        assert _apply(EventQueue(), ops) == _apply(HeapEventQueue(), ops)

    @given(times=st.lists(st.floats(min_value=0.0, max_value=1000.0,
                                    allow_nan=False),
                          min_size=1, max_size=80))
    @settings(max_examples=150, deadline=None)
    def test_pure_push_then_drain_is_sorted(self, times):
        queue = EventQueue()
        for time in times:
            queue.push(time, noop)
        drained = []
        while (event := queue.pop()) is not None:
            drained.append((event.time, event.seq))
        assert drained == sorted(drained)
        assert len(drained) == len(times)

    def test_a_protocol_run_is_the_same_run_on_either_queue(
            self, monkeypatch):
        """Parity where it matters: a lossy DvP run with timeouts,
        retransmissions and cancelled timers executes the same events
        in the same order — same trace fingerprint, hence the same
        step count and decisions — behind the reference heap as behind
        the kernel's queue."""
        from repro.core.domain import CounterDomain
        from repro.core.system import DvPSystem, SystemConfig
        from repro.core.transactions import DecrementOp, TransactionSpec
        from repro.net.link import LinkConfig
        from repro.sim import kernel

        def run(queue):
            monkeypatch.setattr(kernel, "EventQueue", queue)
            system = DvPSystem(SystemConfig(
                sites=["A", "B", "C"], seed=9, txn_timeout=12.0,
                retransmit_period=3.0,
                link=LinkConfig(base_delay=1.0, jitter=0.5,
                                loss_probability=0.2)))
            system.sim.enable_trace()
            system.add_item("x", CounterDomain(), total=60)
            for at in range(1, 41):
                site = "ABC"[at % 3]
                system.sim.at(float(at), lambda site=site: system.submit(
                    site, TransactionSpec(ops=(DecrementOp("x", 7),))))
            system.run_until(200.0)
            system.auditor.assert_ok()
            return (system.sim.trace_fingerprint(), system.sim.steps,
                    len(system.committed()))

        tuples = run(EventQueue)
        heap = run(HeapEventQueue)
        assert tuples == heap
        assert tuples[2] > 0


class TestEventQueueBackref:
    """The Event.queue back-reference lifecycle: cleared on *every*
    removal path, so a held event handle never pins a dead queue."""

    @pytest.mark.parametrize("factory", [EventQueue, HeapEventQueue])
    def test_cleared_on_pop(self, factory):
        queue = factory()
        event = queue.push(1.0, noop)
        assert event.queue is queue
        assert queue.pop() is event
        assert event.queue is None

    @pytest.mark.parametrize("factory", [EventQueue, HeapEventQueue])
    def test_cleared_on_pop_if_due(self, factory):
        queue = factory()
        event = queue.push(1.0, noop)
        assert queue.pop_if_due(2.0) is event
        assert event.queue is None

    @pytest.mark.parametrize("factory", [EventQueue, HeapEventQueue])
    def test_cleared_on_lazy_discard(self, factory):
        queue = factory()
        corpse = queue.push(1.0, noop)
        live = queue.push(2.0, noop)
        corpse.cancel()
        assert queue.pop() is live       # discards the corpse on the way
        assert corpse.queue is None

    @pytest.mark.parametrize("factory", [EventQueue, HeapEventQueue])
    def test_cleared_on_compaction(self, factory):
        queue = factory()
        corpses = [queue.push(float(index), noop) for index in range(10)]
        keeper = queue.push(99.0, noop)
        for corpse in corpses:
            corpse.cancel()
        queue.compact()
        assert all(corpse.queue is None for corpse in corpses)
        assert keeper.queue is queue

    @pytest.mark.parametrize("factory", [EventQueue, HeapEventQueue])
    def test_cleared_on_clear(self, factory):
        queue = factory()
        events = [queue.push(float(index), noop) for index in range(5)]
        queue.clear()
        assert all(event.queue is None for event in events)
        assert len(queue) == 0

    @pytest.mark.parametrize("factory", [EventQueue, HeapEventQueue])
    def test_popped_handle_does_not_pin_queue(self, factory):
        """gc regression: a long-lived event handle (timers hold them)
        must not keep its queue — and everything the queue references —
        alive after the event left the store."""
        queue = factory()
        held = [queue.push(float(index), noop) for index in range(20)]
        held[3].cancel()
        while queue.pop() is not None:
            pass
        ref = weakref.ref(queue)
        del queue
        gc.collect()
        assert ref() is None
        assert all(event.queue is None for event in held)

    def test_cancelled_handle_does_not_pin_queue_after_compact(self):
        queue = EventQueue()
        held = [queue.push(float(index), noop) for index in range(20)]
        for event in held:
            event.cancel()
        queue.compact()
        ref = weakref.ref(queue)
        del queue
        gc.collect()
        assert ref() is None

    def test_cancel_after_removal_is_safe(self):
        """cancel() on an already-popped handle must not corrupt the
        (now detached) queue's cancelled-entry accounting."""
        queue = EventQueue()
        event = queue.push(1.0, noop)
        queue.push(2.0, noop)
        assert queue.pop() is event
        event.cancel()                   # no queue: no count to corrupt
        assert len(queue) == 1
        assert queue.pop().time == 2.0

    def test_standalone_event_cancel(self):
        event = Event(1.0, 0, 0, noop)
        event.cancel()
        assert event.cancelled


def _defer_scenario(sim):
    """An event whose deferred hook schedules a *same-instant* event.

    The contract: the deferred hooks run FIFO right after the body (at
    the same virtual instant), and an event the hook schedules for that
    same instant still executes — after the hooks, in (time, priority,
    seq) order relative to other same-instant events.
    """
    sim.enable_trace()
    order = []

    def body():
        order.append("body")
        sim.defer_to_event_end(lambda: (
            order.append("hook1"),
            sim.at(5.0, lambda: order.append("same-instant"),
                   label="same-instant")))
        sim.defer_to_event_end(lambda: (
            order.append("hook2"),
            sim.defer_to_event_end(lambda: order.append("nested"))))

    sim.at(5.0, body, label="body")
    sim.at(5.0, lambda: order.append("sibling"), label="sibling")
    sim.at(6.0, lambda: order.append("later"), label="later")
    sim.run()
    return order, sim.trace_fingerprint()


class TestDeferSameInstantOrdering:
    EXPECTED = ["body", "hook1", "hook2", "nested", "sibling",
                "same-instant", "later"]

    @pytest.mark.parametrize("factory", [EventQueue, HeapEventQueue])
    def test_order_on_plain_kernel(self, factory):
        order, _ = _defer_scenario(Simulator(queue_factory=factory))
        assert order == self.EXPECTED

    def test_fingerprint_stable_across_queue_implementations(self):
        _, tuples = _defer_scenario(Simulator(queue_factory=EventQueue))
        _, heap = _defer_scenario(Simulator(queue_factory=HeapEventQueue))
        assert tuples == heap

    def test_order_on_sharded_kernel(self):
        sim = ShardedSimulator(ShardPlan({"only": 0}, 1.0))
        order, _ = _defer_scenario(sim)
        assert order == self.EXPECTED

    def test_run_until_boundary_does_not_leak_deferrals(self):
        """Hooks deferred by the last event before a run_until boundary
        run at that instant, not at the next run call."""
        sim = Simulator()
        order = []
        sim.at(1.0, lambda: sim.defer_to_event_end(
            lambda: order.append(("hook", sim.now))))
        sim.run_until(1.0)
        assert order == [("hook", 1.0)]
        sim.at(2.0, lambda: order.append(("next", sim.now)))
        sim.run()
        assert order == [("hook", 1.0), ("next", 2.0)]
