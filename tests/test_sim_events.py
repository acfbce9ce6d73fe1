"""Unit tests for the event queue and simulation kernel."""

import pytest

from repro.sim.events import Event, EventQueue
from repro.sim.kernel import SimulationError, Simulator
from repro.sim.shard import ShardPlan, ShardedSimulator

NON_FINITE = pytest.mark.parametrize(
    "bad", [float("nan"), float("inf"), float("-inf")],
    ids=["nan", "inf", "-inf"])


def _schedule_calls(sim, bad, other_site):
    """Every schedule call the kernels offer, each given *bad*."""
    return {
        "at": lambda: sim.at(bad, lambda: None),
        "after": lambda: sim.after(bad, lambda: None),
        "at_site": lambda: sim.at_site(other_site, bad, lambda: None),
        "after_for_site": lambda: sim.after_for_site(
            other_site, bad, lambda: None),
        "at_global": lambda: sim.at_global(bad, lambda: None),
    }


class TestEventQueue:
    def test_pops_in_time_order(self):
        queue = EventQueue()
        order = []
        queue.push(3.0, lambda: order.append("c"))
        queue.push(1.0, lambda: order.append("a"))
        queue.push(2.0, lambda: order.append("b"))
        while (event := queue.pop()) is not None:
            event.action()
        assert order == ["a", "b", "c"]

    def test_same_time_fifo(self):
        queue = EventQueue()
        events = [queue.push(5.0, lambda: None) for _ in range(10)]
        popped = [queue.pop() for _ in range(10)]
        assert popped == events

    def test_priority_breaks_time_ties(self):
        queue = EventQueue()
        low = queue.push(1.0, lambda: None, priority=5)
        high = queue.push(1.0, lambda: None, priority=1)
        assert queue.pop() is high
        assert queue.pop() is low

    def test_cancelled_events_are_skipped(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        second = queue.push(2.0, lambda: None)
        first.cancel()
        assert queue.pop() is second
        assert queue.pop() is None

    def test_peek_time_ignores_cancelled(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(4.0, lambda: None)
        assert queue.peek_time() == 1.0
        first.cancel()
        assert queue.peek_time() == 4.0

    def test_peek_time_empty(self):
        assert EventQueue().peek_time() is None

    def test_len_counts_entries(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert len(queue) == 2

    def test_clear(self):
        queue = EventQueue()
        queue.push(1.0, lambda: None)
        queue.clear()
        assert queue.pop() is None

    def test_no_event_comparison_runs_in_python(self, monkeypatch):
        """Every heap comparison settles on (time, priority, seq):
        ties, same-instant bursts and events a fraction of a unit apart
        push, cancel and drain in order without one Event.__lt__ call."""
        def refuse(self, other):
            raise AssertionError("Event.__lt__ was called")

        monkeypatch.setattr(Event, "__lt__", refuse)
        queue = EventQueue()
        pushed = []
        for time in (3.0, 0.5, 0.5, 0.25, 2.75, 0.5, 0.125, 1.5):
            for priority in (1, 0, 0, -1):          # a burst with ties
                pushed.append(queue.push(time, lambda: None, priority))
        pushed[5].cancel()
        drained = [queue.pop(), queue.pop_if_due(0.5)]
        for time in (0.5, 0.25, 0.75):               # behind the front
            pushed.append(queue.push(time, lambda: None))
        assert queue.peek_time() == 0.125
        while (event := queue.pop()) is not None:
            drained.append(event)
        keys = [(event.time, event.priority, event.seq) for event in drained]
        assert keys == sorted(keys)
        assert len(keys) == len(pushed) - 1


class TestCompaction:
    """The heap drops cancelled corpses once they dominate a big heap;
    everything observable (len, peek, pop order) must be unaffected."""

    def make_big_queue(self, live_every=3):
        queue = EventQueue()
        events = [queue.push(float(index), lambda: None, label=str(index))
                  for index in range(3000)]
        survivors = []
        for index, event in enumerate(events):
            if index % live_every:
                event.cancel()
            else:
                survivors.append(event)
        return queue, survivors

    def test_compaction_triggers_on_majority_cancelled(self):
        queue, _ = self.make_big_queue()
        assert queue.compactions >= 1

    def test_small_heaps_never_compact(self):
        queue = EventQueue()
        events = [queue.push(float(index), lambda: None)
                  for index in range(100)]
        for event in events[:99]:
            event.cancel()
        assert queue.compactions == 0
        assert len(queue) == 1

    def test_len_survives_compaction(self):
        queue, survivors = self.make_big_queue()
        assert len(queue) == len(survivors)

    def test_peek_time_survives_compaction(self):
        queue, survivors = self.make_big_queue()
        assert queue.peek_time() == survivors[0].time

    def test_pop_order_survives_compaction(self):
        queue, survivors = self.make_big_queue()
        popped = []
        while (event := queue.pop()) is not None:
            popped.append(event)
        assert popped == survivors

    def test_cancel_after_compaction_still_skipped(self):
        queue, survivors = self.make_big_queue()
        survivors[0].cancel()
        assert queue.pop() is survivors[1]

    def test_double_cancel_counts_once(self):
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        first.cancel()
        first.cancel()
        assert len(queue) == 1

    def test_cancel_popped_event_does_not_corrupt_count(self):
        """Cancelling an event after it was popped (e.g. a timer firing
        then being stopped) must not touch the queue's books."""
        queue = EventQueue()
        first = queue.push(1.0, lambda: None)
        queue.push(2.0, lambda: None)
        assert queue.pop() is first
        first.cancel()
        assert len(queue) == 1

    def test_compaction_in_live_simulation(self):
        """End to end: a run that cancels thousands of timers compacts
        without perturbing the surviving schedule."""
        sim = Simulator()
        hits = []
        cancelled = [sim.at(float(2000 + index), lambda: None)
                     for index in range(2000)]
        for t in (1.0, 2.0, 3.0):
            sim.at(t, lambda t=t: hits.append(t))
        for event in cancelled:
            event.cancel()
        sim.run_until(10.0)
        assert hits == [1.0, 2.0, 3.0]
        assert sim.pending == 0


class TestSimulator:
    def test_clock_starts_at_zero(self):
        assert Simulator().now == 0.0

    def test_after_advances_clock(self):
        sim = Simulator()
        times = []
        sim.after(5.0, lambda: times.append(sim.now))
        sim.run()
        assert times == [5.0]
        assert sim.now == 5.0

    def test_at_schedules_absolute(self):
        sim = Simulator()
        hits = []
        sim.at(3.0, lambda: hits.append(sim.now))
        sim.run()
        assert hits == [3.0]

    def test_cannot_schedule_into_past(self):
        sim = Simulator()
        sim.after(2.0, lambda: None)
        sim.run()
        with pytest.raises(SimulationError):
            sim.at(1.0, lambda: None)

    def test_negative_delay_rejected(self):
        with pytest.raises(SimulationError):
            Simulator().after(-1.0, lambda: None)

    @NON_FINITE
    def test_non_finite_time_or_delay_rejected(self, bad):
        # A NaN compares false both ways: a heap would take it and pop
        # later events out of order.
        sim = Simulator()
        for schedule in _schedule_calls(sim, bad, "A").values():
            with pytest.raises(SimulationError):
                schedule()
        assert sim.pending == 0

    def test_a_nan_horizon_is_refused(self):
        # No event compares later than NaN: a run until it would pop
        # every event, and a timer that re-arms itself forever.
        sim = Simulator()
        hits = []
        sim.at(1.0, lambda: hits.append(sim.now))
        with pytest.raises(SimulationError):
            sim.run_until(float("nan"))
        assert hits == [] and sim.now == 0.0

    def test_run_until_stops_at_time(self):
        sim = Simulator()
        hits = []
        for t in (1.0, 2.0, 3.0, 4.0):
            sim.at(t, lambda t=t: hits.append(t))
        sim.run_until(2.5)
        assert hits == [1.0, 2.0]
        assert sim.now == 2.5

    def test_run_until_is_inclusive(self):
        sim = Simulator()
        hits = []
        sim.at(2.0, lambda: hits.append("x"))
        sim.run_until(2.0)
        assert hits == ["x"]

    def test_run_until_never_moves_clock_backwards(self):
        sim = Simulator()
        sim.after(10.0, lambda: None)
        sim.run()
        sim.run_until(5.0)
        assert sim.now == 10.0

    def test_events_can_schedule_events(self):
        sim = Simulator()
        hits = []

        def chain(depth: int) -> None:
            hits.append(sim.now)
            if depth:
                sim.after(1.0, lambda: chain(depth - 1))

        sim.after(1.0, lambda: chain(3))
        sim.run()
        assert hits == [1.0, 2.0, 3.0, 4.0]

    def test_max_steps_limits_run(self):
        sim = Simulator()
        for t in range(10):
            sim.at(float(t + 1), lambda: None)
        sim.run(max_steps=4)
        assert sim.steps == 4

    def test_max_steps_zero_runs_nothing(self):
        """Regression: run(max_steps=0) used to execute one event (the
        count was checked only after the first step)."""
        sim = Simulator()
        sim.at(1.0, lambda: None)
        sim.run(max_steps=0)
        assert sim.steps == 0
        assert sim.now == 0.0

    def test_step_returns_false_when_drained(self):
        assert Simulator().step() is False

    def test_trace_records_labels(self):
        sim = Simulator()
        sim.enable_trace()
        sim.after(1.0, lambda: None, label="hello")
        sim.run()
        assert sim.trace == [(1.0, "hello")]

    def test_trace_requires_enable(self):
        with pytest.raises(SimulationError):
            _ = Simulator().trace

    def test_pending_counts_queue(self):
        sim = Simulator()
        sim.after(1.0, lambda: None)
        sim.after(2.0, lambda: None)
        assert sim.pending == 2

    def test_defer_outside_event_returns_false(self):
        sim = Simulator()
        assert sim.defer_to_event_end(lambda: None) is False

    def test_defer_runs_after_action_same_instant(self):
        sim = Simulator()
        order = []

        def action():
            sim.defer_to_event_end(
                lambda: order.append(("deferred", sim.now)))
            order.append(("action", sim.now))

        sim.at(1.0, action)
        sim.at(1.0, lambda: order.append(("second", sim.now)))
        sim.run_until(1.0)
        # The deferred hook fires after its event's action but before
        # the next event pops — still at the same virtual instant.
        assert order == [("action", 1.0), ("deferred", 1.0),
                         ("second", 1.0)]

    def test_defer_works_in_step_loop(self):
        sim = Simulator()
        hits = []
        sim.at(1.0, lambda: sim.defer_to_event_end(
            lambda: hits.append(sim.now)))
        sim.run()
        assert hits == [1.0]

    def test_nested_defers_run_fifo(self):
        sim = Simulator()
        order = []

        def action():
            sim.defer_to_event_end(lambda: order.append("first"))
            sim.defer_to_event_end(nested)

        def nested():
            order.append("second")
            assert sim.defer_to_event_end(
                lambda: order.append("third")) is True

        sim.at(1.0, action)
        sim.run()
        assert order == ["first", "second", "third"]

    def test_failed_action_clears_deferred_hooks(self):
        sim = Simulator()
        hits = []

        def exploding():
            sim.defer_to_event_end(lambda: hits.append("stale"))
            raise RuntimeError("boom")

        sim.at(1.0, exploding)
        with pytest.raises(RuntimeError):
            sim.run()
        sim.at(2.0, lambda: hits.append("fresh"))
        sim.run()
        assert hits == ["fresh"]

    def test_deterministic_given_seed(self):
        def run(seed: int) -> list[float]:
            sim = Simulator(seed)
            draws = []
            for index in range(5):
                sim.after(sim.rng.stream("x").random() + index,
                          lambda: draws.append(sim.now))
            sim.run()
            return draws

        assert run(7) == run(7)
        assert run(7) != run(8)


class TestShardedNonFinite:
    @NON_FINITE
    def test_outside_and_inside_events(self, bad):
        sim = ShardedSimulator(ShardPlan.round_robin(["A", "B"], 2, 1.0))
        for schedule in _schedule_calls(sim, bad, "B").values():
            with pytest.raises(SimulationError):
                schedule()
        refused = []

        def probe():
            # From A's shard: B is cross-shard mail.
            for name, schedule in _schedule_calls(sim, bad, "B").items():
                try:
                    schedule()
                except SimulationError:
                    refused.append(name)

        sim.at_site("A", 1.0, probe)
        sim.run()
        assert refused == ["at", "after", "at_site", "after_for_site",
                           "at_global"]
        assert sim.pending == 0 and sim.steps == 1

    def test_a_nan_horizon_is_refused(self):
        sim = ShardedSimulator(ShardPlan.round_robin(["A", "B"], 2, 1.0))
        hits = []
        sim.at_site("A", 1.0, lambda: hits.append(1.0))
        with pytest.raises(SimulationError):
            sim.run_until(float("nan"))
        assert hits == [] and sim.now == 0.0
