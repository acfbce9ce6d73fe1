"""Channel-level fuzzing of the Vm protocol with hypothesis.

The fates of individual real messages (deliver / drop / duplicate) are
drawn by hypothesis; whatever the schedule, every created Vm must be
absorbed exactly once and the channel must quiesce once the fates turn
benign (the retransmission loop guarantees eventual delivery).
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.messages import VmAck, VmTransfer
from tests.test_vm import Harness

fate_lists = st.lists(st.sampled_from(["deliver", "drop", "dup"]),
                      min_size=0, max_size=40)
amount_lists = st.lists(st.integers(min_value=1, max_value=9),
                        min_size=1, max_size=10)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(amounts=amount_lists, fates=fate_lists)
def test_exactly_once_despite_arbitrary_fates(amounts, fates):
    h = Harness(retransmit_period=3.0)
    for amount in amounts:
        h.send_value("A", "B", "x", amount)

    fate_iter = iter(fates)

    def scripted_drop(src, dst, payload):
        fate = next(fate_iter, "deliver")
        if fate == "drop":
            return True
        if fate == "dup":
            # Deliver a copy immediately, then the original.
            manager = h.managers[dst]
            if isinstance(payload, VmTransfer):
                manager.on_transfer(payload)
            elif isinstance(payload, VmAck):
                manager.on_ack(payload)
        return False

    # Chaotic phase: scripted fates, with the retransmit timer running.
    for _round in range(6):
        h.flush(drop=scripted_drop)
        h.sim.run_until(h.sim.now + 3.0)
    # Benign phase: everything delivers until quiescence.
    for _round in range(len(amounts) + 5):
        h.flush()
        h.sim.run_until(h.sim.now + 3.0)
    h.flush()

    accepted = [entry.amount for _src, entry in h.accepted["B"]]
    assert accepted == amounts  # exactly once, in order
    assert h.managers["A"].unacked_count() == 0


@settings(max_examples=40, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(amounts=amount_lists,
       refusal_rounds=st.integers(min_value=0, max_value=4))
def test_exactly_once_despite_temporary_refusal(amounts, refusal_rounds):
    """The receiver refuses acceptance (locked fragment) for a while;
    nothing is lost and order is preserved once it relents."""
    h = Harness(retransmit_period=3.0)
    h.refuse["B"] = True
    for amount in amounts:
        h.send_value("A", "B", "x", amount)
    for _round in range(refusal_rounds):
        h.flush()
        h.sim.run_until(h.sim.now + 3.0)
    h.refuse["B"] = False
    h.managers["B"].poke()
    for _round in range(len(amounts) + 5):
        h.flush()
        h.sim.run_until(h.sim.now + 3.0)
    h.flush()
    accepted = [entry.amount for _src, entry in h.accepted["B"]]
    assert accepted == amounts
    assert h.managers["A"].unacked_count() == 0


group_lists = st.lists(st.lists(st.integers(min_value=1, max_value=9),
                                min_size=1, max_size=4),
                       min_size=1, max_size=6)


@settings(max_examples=60, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(groups=group_lists, fates=fate_lists,
       locked_rounds=st.integers(min_value=0, max_value=4))
def test_runs_exactly_once_despite_fates_and_a_held_lock(groups, fates,
                                                         locked_rounds):
    """Multi-entry messages under arbitrary fates, with item "y" held
    for a while: every entry is absorbed exactly once, in order, and
    every run the receiver takes lies inside one message."""
    h = Harness(retransmit_period=3.0)
    h.locked["B"] = {"y"}
    messages = []
    for group in groups:
        entries = h.send_values("A", "B", [("xy"[n % 2], amount)
                                           for n, amount in enumerate(group)])
        messages.append({entry.channel_seq for entry in entries})
    fate_iter = iter(fates)

    def scripted_drop(src, dst, payload):
        fate = next(fate_iter, "deliver")
        if fate == "drop":
            return True
        if fate == "dup":
            manager = h.managers[dst]
            if isinstance(payload, VmTransfer):
                manager.on_transfer(payload)
            elif isinstance(payload, VmAck):
                manager.on_ack(payload)
        return False

    for round_ in range(6):
        if round_ == locked_rounds:
            h.locked["B"] = set()
            h.managers["B"].poke()
        h.flush(drop=scripted_drop)
        h.sim.run_until(h.sim.now + 3.0)
    h.locked["B"] = set()
    h.managers["B"].poke()
    for _round in range(len(groups) * 4 + 5):
        h.flush()
        h.sim.run_until(h.sim.now + 3.0)
    h.flush()

    amounts = [amount for group in groups for amount in group]
    assert [entry.amount for _src, entry in h.accepted["B"]] == amounts
    assert all(any(set(run) <= seqs for seqs in messages)
               for run in h.runs["B"])
    assert h.managers["A"].unacked_count() == 0
