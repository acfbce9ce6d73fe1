"""Machinery is built when it is first needed (ISSUE 17; DESIGN.md §7).

A request that decides inside its ``submit`` call needs no timeout, no
read containers and no lease, so it builds none — a certified view
read not even a ``Transaction``; one that has to wait
gets exactly the timer it always had — same kernel event, same fire
time, and ahead of every event its own call pushed, so ties at the
fire instant break as they always did (the golden fingerprints in
``tests/test_hot_path_equivalence.py`` pin that end to end).
"""

import pytest

from repro.core.domain import CounterDomain
from repro.core.fragments import FragmentStore
from repro.core.policies import AskAllPolicy
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import (
    EMPTY,
    DecrementOp,
    IncrementOp,
    ReadFullOp,
    ReadViewOp,
    Transaction,
    TransactionSpec,
    TransferOp,
    _State,
)
from repro.net.link import LinkConfig
from repro.reads import ViewConfig
from repro.serving import ServingConfig, ServingFrontend
from repro.sim.timers import Timer

SITES = ["A", "B", "C"]


@pytest.fixture
def timers_built(monkeypatch):
    """Labels of every ``Timer`` a transaction or a slot constructs."""
    built: list[str] = []

    class Counted(Timer):
        def __init__(self, sim, action, label="timer", site=None):
            built.append(label)
            super().__init__(sim, action, label, site)

    monkeypatch.setattr("repro.core.transactions.Timer", Counted)
    monkeypatch.setattr("repro.serving.queue.Timer", Counted)
    return built


def _system(**config) -> DvPSystem:
    config.setdefault("txn_timeout", 12.0)
    config.setdefault("link", LinkConfig(base_delay=1.0))
    system = DvPSystem(SystemConfig(sites=SITES, seed=17, **config))
    system.add_item("x", CounterDomain(), split={"A": 5, "B": 50, "C": 50})
    return system


def _pushed(system: DvPSystem) -> list:
    """Every event pushed from now on, in push order."""
    events = []
    push = system.sim._queue.push

    def recording_push(*args, **kwargs):
        events.append(push(*args, **kwargs))
        return events[-1]

    system.sim._queue.push = recording_push
    return events


def _spec(*ops, work=0.0) -> TransactionSpec:
    return TransactionSpec(ops=ops, work=work)


class TestALocalCommitBuildsNothing:
    def test_instant(self, timers_built):
        system = _system()
        pushed = _pushed(system)
        txn = system.submit("A", _spec(DecrementOp("x", 2)))
        assert txn.result.committed and txn._timer is None
        assert timers_built == [] and pushed == []
        # The read and view containers are the one shared empty mapping.
        assert txn._read_responders is EMPTY and txn._view_certs is EMPTY
        assert txn._view_fallbacks == ()

    def test_with_work(self, timers_built):
        system = _system()
        pushed = _pushed(system)
        txn = system.submit("A", _spec(IncrementOp("x", 2), work=0.5))
        assert txn.state is _State.COMPUTING and txn._timer is None
        assert [event.label for event in pushed] == [f"txn-work:{txn.id}"]
        assert txn._needs is EMPTY  # an increment takes nothing
        system.run_for(1.0)
        assert txn.result.committed and timers_built == []
        assert system.sim.pending == 0

    def test_reads_get_their_containers(self):
        system = _system()
        full = system.submit("A", _spec(ReadFullOp("x")))
        assert full._read_responders == {"x": set()}
        system.add_item("y", CounterDomain(), total=30)
        view = system.submit("A", _spec(ReadViewOp("y", bound=3.0)))
        # Views are off: the item escalated to the fan-out at submit.
        assert view._read_responders == {"y": set()}
        assert view._view_fallbacks == ["y"] and view._view_certs == {}


@pytest.fixture
def value_reads(monkeypatch):
    """``(site, item)`` of every fragment value read, in read order."""
    reads: list[tuple[str, str]] = []
    value = FragmentStore.value

    def counted(self, item):
        reads.append((self.site, item))
        return value(self, item)

    monkeypatch.setattr(FragmentStore, "value", counted)
    return reads


class TestAnAdequateTransactionSkipsTheWave:
    """A Conc1 transaction asks once, at its lock grant and before its
    wave, whether its fragments cover it (Section 5; docs/PROTOCOL.md):
    covered, it goes straight to its commit; short, it sends its wave
    and waits. A Conc2 transaction's wave leaves first, and a grant in
    the same call takes the wave's answer."""

    def test_a_covered_decrement_reads_its_fragment_twice(
            self, value_reads, timers_built):
        system = _system()
        pushed = _pushed(system)
        txn = system.submit("A", _spec(DecrementOp("x", 2)))
        assert txn.result.committed and txn.requests_sent == 0
        # The adequacy test, then the commit: no deficit computed for a
        # wave that would ask nobody, no second sufficiency test.
        assert value_reads == [("A", "x"), ("A", "x")]
        assert system.sim.metrics.total("net.sent") == 0
        assert pushed == [] and timers_built == []

    def test_a_short_transfer_reads_no_more_than_before(
            self, value_reads, timers_built):
        system = _system()
        system.add_item("y", CounterDomain(), total=0)
        txn = system.submit("A", _spec(TransferOp("x", "y", 20)))
        # The adequacy test, then the wave's deficit: sufficiency is
        # not asked again in the instant the wave leaves.
        assert value_reads == [("A", "x"), ("A", "x")]
        assert txn.state is _State.GATHERING and txn.requests_sent == 2
        assert timers_built == [f"txn-timeout:{txn.id}"]
        system.run_for(5.0)
        assert txn.result.committed
        # As many as when the wave was followed by a sufficiency test.
        assert len(value_reads) == 9, value_reads

    def test_a_covered_conc2_decrement_reads_its_fragment_twice(
            self, value_reads, timers_built):
        # Conc2 computes its deficits at initiation, before the lock
        # (Section 6.2); a grant inside the submitting call reuses that
        # answer instead of testing the fragment again.
        system = _system(cc="conc2", sync_delay=1.0)
        txn = system.submit("A", _spec(DecrementOp("x", 2)))
        assert txn.result.committed and txn.requests_sent == 0
        # The wave's deficit, then the commit.
        assert value_reads == [("A", "x"), ("A", "x")]
        assert system.sim.metrics.total("net.sent") == 0
        assert timers_built == []

    def test_a_conc2_grant_from_the_queue_tests_again(self, value_reads):
        system = _system(cc="conc2", sync_delay=1.0)
        holder = system.submit("A", _spec(DecrementOp("x", 1), work=1.0))
        waiter = system.submit("A", _spec(DecrementOp("x", 2)))
        assert waiter.state is _State.WAITING_LOCKS
        del value_reads[:]
        system.run_for(2.0)
        assert holder.result.committed and waiter.result.committed
        # The holder's commit; then the waiter's sufficiency test (value
        # may have moved while it waited) and its commit.
        assert value_reads == [("A", "x")] * 3


class TestAWaitingTransactionHasItsTimeout:
    def test_conc1_deficit(self, timers_built):
        system = _system(request_retries=2)
        system.run_until(3.0)
        pushed = _pushed(system)
        txn = system.submit("A", _spec(DecrementOp("x", 20)))
        assert txn.state is _State.GATHERING and txn.requests_sent == 2
        assert timers_built == [f"txn-timeout:{txn.id}"]
        # One round of three, armed in the submitting event, and ahead
        # of the call's own request deliveries in scheduling order.
        timeout, *deliveries = pushed
        assert txn._timer.armed and txn._timer._event is timeout
        assert timeout.time == txn.submitted_at + 12.0 / 3 == 7.0
        assert len(deliveries) == 2
        assert all(timeout.seq < event.seq for event in deliveries)
        system.run_for(6.0)
        assert txn.result.committed

    def test_conc2_lock_queue(self, timers_built):
        system = _system(cc="conc2", sync_delay=1.0)
        holder = system.submit("A", _spec(IncrementOp("x", 1), work=2.0))
        assert holder._timer is None  # sufficient on arrival: computing
        system.run_until(0.5)
        pushed = _pushed(system)
        waiter = system.submit("A", _spec(IncrementOp("x", 1)))
        assert waiter.state is _State.WAITING_LOCKS
        assert waiter.requests_sent == 0
        assert [event.label for event in pushed] \
            == [f"txn-timeout:{waiter.id}"]
        assert waiter._timer.armed and pushed[0].time == 0.5 + 12.0
        system.run_for(3.0)
        assert holder.result.committed and waiter.result.committed
        assert timers_built == [f"txn-timeout:{waiter.id}"]
        assert system.sim.pending == 0  # the timeout was closed at finish

    def test_gathering_without_asking(self, timers_built):
        # A policy may pick nobody to ask while peers exist: nothing is
        # sent, the transaction still waits, so it still has a timeout
        # — armed as start() hands control back.
        class AskNobody(AskAllPolicy):
            def targets(self, origin, peers, deficit, domain, rng):
                return []

        system = _system()
        system.sites["A"].policy = AskNobody()
        pushed = _pushed(system)
        txn = system.submit("A", _spec(DecrementOp("x", 20)))
        assert txn.state is _State.GATHERING and txn.requests_sent == 0
        assert [event.label for event in pushed] == [f"txn-timeout:{txn.id}"]
        assert txn._timer.armed and pushed[0].time == 12.0
        system.run_for(13.0)
        assert txn.result.reason == "timeout"
        assert timers_built == [f"txn-timeout:{txn.id}"]


class TestNeverArmedTransactionsTolerateTheTimerHooks:
    def _computing(self, system):
        txn = system.submit("A", _spec(DecrementOp("x", 1), work=2.0))
        assert txn.state is _State.COMPUTING and txn._timer is None
        return txn

    def test_skew_is_a_no_op(self, timers_built):
        system = _system()
        txn = self._computing(system)
        txn.skew_timeout()
        system.sites["A"].skew_fire_timers()
        assert txn.state is _State.COMPUTING and txn._timer is None
        system.run_for(3.0)
        assert txn.result.committed and timers_built == []

    def test_crash_wipes_it(self, timers_built):
        system = _system()
        txn = self._computing(system)
        system.crash("A")
        assert not system.sites["A"].active
        assert system.sites["A"].txns_wiped == 1
        system.run_for(3.0)  # its commit event finds the site wiped
        assert txn.result is None and system.results == []
        assert timers_built == []

    def test_system_close(self, timers_built):
        system = _system()
        txn = self._computing(system)
        system.add_item("y", CounterDomain(), split={"A": 0, "B": 40})
        waiting = system.submit("A", _spec(DecrementOp("y", 30)))
        assert waiting._timer.armed
        system.close()
        assert txn._timer is None and not waiting._timer.armed
        assert system.sim.pending == 0
        system.close()  # twice is a no-op
        assert timers_built == [f"txn-timeout:{waiting.id}"]


class TestALeaseOnlyForARequestThatOutlivesItsDispatch:
    def _frontend(self, system, **config):
        frontend = ServingFrontend(system, ServingConfig(
            router="least-queue", max_inflight=1, max_depth=None,
            board_period=4.0, **config))
        frontend.start()
        return frontend

    def test_decided_inside_submit_builds_no_lease(self, timers_built):
        system = _system()
        frontend = self._frontend(system)
        queue = frontend.queues["A"]
        done = []
        for _ in range(3):
            frontend.submit("A", _spec(DecrementOp("x", 1)), done.append)
        assert [result.committed for result in done] == [True] * 3
        assert timers_built == [] and queue._leases == set()
        assert queue.inflight == 0 and len(frontend.samples) == 3
        # One that outlives its dispatch call gets exactly one.
        frontend.submit("A", _spec(DecrementOp("x", 1), work=0.5),
                        done.append)
        assert timers_built == ["serve:lease:A"] and queue.inflight == 1
        assert len(queue._leases) == 1
        system.run_for(1.0)
        assert len(done) == 4 and queue.inflight == 0
        assert queue._leases == set() and timers_built == ["serve:lease:A"]

    def test_a_wiped_dispatch_is_reclaimed_exactly_once(self, timers_built):
        system = _system()
        frontend = self._frontend(system)
        queue = frontend.queues["A"]
        expired = system.sim.metrics.counter("serve.lease_expired", site="A")
        done = []
        # Dispatched and pulling Vm when A dies; one more waits behind it.
        frontend.submit("A", _spec(DecrementOp("x", 30)), done.append)
        frontend.submit("A", _spec(IncrementOp("x", 1)), done.append)
        assert (queue.inflight, queue.depth) == (1, 1)
        system.run_until(0.5)
        system.crash("A")
        system.run_until(10.0)
        system.recover("A")
        # The lease (12 + 4) has not run out: the slot is still taken.
        assert (queue.inflight, queue.depth, expired.value) == (1, 1, 0)
        system.run_until(17.0)
        # Reclaimed once; the queued request took the slot and decided
        # inside its dispatch call, so no second lease was built.
        assert expired.value == 1 and done and done[0].committed
        assert (queue.inflight, queue.depth) == (0, 0)
        assert queue._leases == set()
        assert timers_built.count("serve:lease:A") == 1
        system.run_until(60.0)
        assert expired.value == 1 and len(done) == 1


@pytest.fixture
def transactions_built(monkeypatch):
    """Labels of every ``Transaction`` a site constructs."""
    built: list[str] = []

    class Counted(Transaction):
        __slots__ = ()

        def __init__(self, site, spec, *args):
            built.append(spec.label)
            super().__init__(site, spec, *args)

    monkeypatch.setattr("repro.core.site.Transaction", Counted)
    return built


class TestACertifiedReadBuildsNoTransaction:
    """A pure view read whose every item certifies is decided by its
    site inside ``submit``: no Transaction, no lock, no timer, no
    event. Otherwise the site, having asked the cache once per item,
    hands the certificates and the missed items to a Transaction,
    which escalates only a certificate that fails its revalidation."""

    @staticmethod
    def _viewed(**config) -> DvPSystem:
        system = _system(views=ViewConfig(refresh_period=5.0), **config)
        system.add_item("y", CounterDomain(), total=30)
        system.run_until(7.0)  # the t=5 refresh has reached every site
        return system

    def test_decided_before_submit_returns(self, transactions_built,
                                           timers_built):
        system = self._viewed()
        site = system.sites["A"]
        pushed = _pushed(system)
        decided = []
        returned = system.submit("A", TransactionSpec(
            ops=(ReadViewOp("y", bound=3.0), ReadViewOp("x")),
            label="read"), decided.append)
        assert returned is None and transactions_built == []
        (result,) = decided
        assert system.results[-1] is result
        assert result.committed and result.latency == 0.0
        assert result.read_values == {"y": 30, "x": 105}
        assert list(result.view_reads) == ["x", "y"]  # serve order
        assert pushed == [] and timers_built == []
        assert not site.active and not site.wakeable
        assert not site.locks.holders
        assert site._txn_counter == 1  # the id was drawn all the same

    def test_behind_a_frontend_the_slot_is_free_at_once(
            self, transactions_built, timers_built):
        system = self._viewed()
        frontend = ServingFrontend(system, ServingConfig(
            router="view-aware", max_inflight=1, board_period=4.0))
        frontend.start()
        done = []
        for _ in range(3):
            frontend.submit("B", _spec(ReadViewOp("x")), done.append)
        assert [result.committed for result in done] == [True] * 3
        assert frontend.queues["B"].inflight == 0
        assert transactions_built == [] and timers_built == []

    @pytest.mark.parametrize("cc", ["conc1", "conc2"])
    def test_a_miss_hands_its_certificates_on(self, transactions_built, cc):
        system = self._viewed(
            **({"cc": "conc2", "sync_delay": 1.0} if cc == "conc2" else {}))
        system.add_item("z", CounterDomain(), total=30)  # cold everywhere
        metrics = system.sim.metrics
        txn = system.submit("A", TransactionSpec(
            ops=(ReadViewOp("z"), ReadViewOp("y")), label="one-cold"))
        assert transactions_built == ["one-cold"]
        assert list(txn._view_certs) == ["y"]
        assert txn._view_fallbacks == ["z"] and txn._read_responders == {
            "z": set()}
        # The site asks the cache once per item: y is served, z missed,
        # and the transaction takes both as they are.
        assert metrics.total("view.hits") == 1
        assert metrics.total("view.misses") == 1
        system.run_for(10.0)
        assert txn.result.committed
        assert list(txn.result.view_reads) == ["y"]

    @pytest.mark.parametrize("cc", ["conc1", "conc2"])
    @pytest.mark.parametrize("at,bound,served", [
        # Revalidated at t=11.5 from the t=10 refresh: re-served.
        (9.5, 5.0, True),
        # Revalidated at t=9 (staleness 4 > 2) before the t=10
        # refresh: escalated and fanned out alone.
        (7.0, 2.0, False)])
    def test_a_revalidated_certificate_keeps_its_bound(self, cc, at, bound,
                                                       served):
        system = self._viewed(
            **({"cc": "conc2", "sync_delay": 1.0} if cc == "conc2" else {}))
        system.add_item("z", CounterDomain(), total=30)  # cold everywhere
        system.run_until(at)
        done = []
        system.submit("A", TransactionSpec(ops=(
            ReadViewOp("y", bound=bound), ReadViewOp("z", bound=bound))),
            done.append)
        system.run_for(20.0)
        (result,) = done
        assert result.committed
        assert result.read_values == {"y": 30, "z": 30}
        if served:
            (cert,) = result.view_reads.values()
            assert cert.item == "y" and cert.as_of == 10.0
            assert cert.bound == bound and cert.staleness <= bound
            assert result.view_fallbacks == ("z",)
        else:
            assert not result.view_reads
            assert result.view_fallbacks == ("z", "y")
            assert result.requests_sent == 4  # z's wave, then y's

    def test_conc2_sends_a_miss_with_its_initiation_wave(self):
        """Section 6.2: a Conc2 transaction broadcasts all its remote
        requests together at initiation — a view item the site missed
        at submit included, so each peer gets one request."""
        system = self._viewed(cc="conc2", sync_delay=1.0)
        system.add_item("z", CounterDomain(), total=30)  # cold everywhere
        site = system.sites["A"]
        sent = []
        send_request = site.send_request
        site.send_request = lambda dst, request: (
            sent.append((system.sim.now, dst, request.wants)),
            send_request(dst, request))
        txn = system.submit("A", TransactionSpec(
            ops=(ReadFullOp("x"), ReadViewOp("z"))))
        wants = (("x", None), ("z", None))
        assert sent == [(7.0, "B", wants), (7.0, "C", wants)]
        system.run_for(20.0)
        assert txn.result.committed and len(sent) == 2
        assert txn.result.view_fallbacks == ("z",)

    def test_work_or_no_views_takes_the_classic_path(self,
                                                     transactions_built):
        system = self._viewed()
        worked = system.submit("A", _spec(ReadViewOp("y"), work=0.5))
        assert transactions_built == [""] and worked is not None
        assert worked.state is _State.COMPUTING
        plain = _system()
        assert plain.submit("A", _spec(ReadViewOp("x"))) is not None
        assert transactions_built == ["", ""]
