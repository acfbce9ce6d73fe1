"""Unit tests for site-level behaviour: request honoring, Vm
acceptance, checkpointing, read freezes, clock gossip."""

import pytest

from repro.core.domain import CounterDomain
from repro.core.migration import MigrationController, Move
from repro.core.messages import READ_MODE, TRANSFER_MODE, DataRequest
from repro.core.policies import AskAllPolicy
from repro.core.rebalance import RebalanceConfig, RebalanceDaemon
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    ReadFullOp,
    TransactionSpec,
)
from repro.hybrid import HybridSystem, ItemMode
from repro.net.link import LinkConfig
from repro.storage.records import (
    CheckpointRecord,
    VmCreateRecord,
)


def build(**kwargs):
    kwargs.setdefault("sites", ["A", "B", "C"])
    kwargs.setdefault("txn_timeout", 10.0)
    kwargs.setdefault("link", LinkConfig(base_delay=1.0))
    system = DvPSystem(SystemConfig(seed=4, **kwargs))
    system.add_item("x", CounterDomain(), total=90)
    return system


def fresh_ts(site) -> int:
    return site.clock.next()


class TestTransferHonoring:
    def test_honors_and_creates_vm(self):
        system = build()
        site_b = system.sites["B"]
        request = DataRequest(txn_id="A#1", origin="A", mode=TRANSFER_MODE,
                              wants=(("x", 10),),
                              ts=fresh_ts(system.sites["A"]) + (1 << 40))
        site_b.handle_request(request)
        assert site_b.requests_honored == 1
        assert site_b.fragments.value("x") == 20
        assert site_b.vm.has_outstanding("x")
        # The create record hit the log before anything moved.
        records = [env.record for env in site_b.log.scan()]
        assert any(isinstance(record, VmCreateRecord)
                   for record in records)

    def test_ignores_unknown_item(self):
        system = build()
        site_b = system.sites["B"]
        site_b.handle_request(DataRequest("A#1", "A", TRANSFER_MODE,
                                          (("nope", 10),), 1 << 40))
        assert site_b.requests_ignored == 1

    def test_ignores_when_locked(self):
        system = build()
        site_b = system.sites["B"]
        site_b.locks.try_acquire_all("someone", {"x"})
        site_b.handle_request(DataRequest("A#1", "A", TRANSFER_MODE,
                                          (("x", 10),), 1 << 40))
        assert site_b.requests_honored == 0
        assert site_b.requests_ignored == 1

    def test_ignores_stale_timestamp_and_gossips(self):
        system = build()
        site_b = system.sites["B"]
        site_b.fragments.stamp("x", 1 << 50)
        site_b.handle_request(DataRequest("A#1", "A", TRANSFER_MODE,
                                          (("x", 10),), 5))
        assert site_b.requests_ignored == 1
        system.sim.run()
        # The advisory bumped A's clock past the winning stamp.
        assert system.sites["A"].clock.next() > (1 << 50)

    def test_ignores_zero_grant(self):
        system = build()
        site_b = system.sites["B"]
        site_b.fragments.write("x", 0, 0)
        site_b.handle_request(DataRequest("A#1", "A", TRANSFER_MODE,
                                          (("x", 10),), 1 << 40))
        assert site_b.requests_ignored == 1

    def test_lock_released_after_honor(self):
        system = build()
        site_b = system.sites["B"]
        site_b.handle_request(DataRequest("A#1", "A", TRANSFER_MODE,
                                          (("x", 10),), 1 << 40))
        assert site_b.locks.is_free("x")

    def test_fragment_stamped_with_requester_ts(self):
        system = build()
        site_b = system.sites["B"]
        ts = 1 << 40
        site_b.handle_request(DataRequest("A#1", "A", TRANSFER_MODE,
                                          (("x", 10),), ts))
        assert site_b.fragments.timestamp("x") == ts


class TestReadHonoring:
    def test_read_drains_full_fragment(self):
        system = build()
        site_b = system.sites["B"]
        site_b.handle_request(DataRequest("A#1", "A", READ_MODE,
                                          (("x", None),), 1 << 40))
        assert site_b.fragments.value("x") == 0
        assert site_b.requests_honored == 1

    def test_read_refused_with_outstanding_vm(self):
        system = build()
        site_b = system.sites["B"]
        # First create an outstanding Vm via a transfer honor.
        site_b.handle_request(DataRequest("A#1", "A", TRANSFER_MODE,
                                          (("x", 10),), 1 << 40))
        assert site_b.vm.has_outstanding("x")
        site_b.handle_request(DataRequest("A#2", "A", READ_MODE,
                                          (("x", None),), 2 << 40))
        assert site_b.requests_ignored == 1

    def test_read_freeze_holds_lock(self):
        system = build(read_freeze=8.0)
        site_b = system.sites["B"]
        site_b.handle_request(DataRequest("A#1", "A", READ_MODE,
                                          (("x", None),), 1 << 40))
        assert not site_b.locks.is_free("x")
        system.sim.run_until(system.sim.now + 8.5)
        assert site_b.locks.is_free("x")

    def test_freeze_defers_vm_acceptance(self):
        system = build(read_freeze=8.0)
        site_b = system.sites["B"]
        site_b.handle_request(DataRequest("A#1", "A", READ_MODE,
                                          (("x", None),), 1 << 40))
        # A Vm arriving for the frozen item stays pending...
        entry = system.sites["C"].vm.allocate_entry("B", "x", 4,
                                                    "transfer", "t")
        system.sites["C"].vm.register_created([entry])
        system.run_for(4.0)
        assert site_b.fragments.value("x") == 0
        # ...and is absorbed once the freeze lifts.
        system.run_for(30.0)
        assert site_b.fragments.value("x") == 4


def create_records(site) -> list[VmCreateRecord]:
    return [envelope.record for envelope in site.log.scan()
            if isinstance(envelope.record, VmCreateRecord)]


def build_many(**kwargs):
    """Five items at 30 a site: ``a`` .. ``e``."""
    system = build(**kwargs)
    for item in "abcde":
        system.add_item(item, CounterDomain(), total=90)
    return system


class TestBatchedHonoring:
    """One request names every item a peer is asked for; the responder
    judges each item on its own and answers the honorable ones with one
    create record and one real message."""

    def test_mixed_request_forces_one_record_of_the_honorable_item(self):
        system = build_many()
        site_b = system.sites["B"]
        site_b.locks.try_acquire_all("someone", {"b"})
        site_b.fragments.stamp("c", 1 << 41)
        site_b.fragments.stamp("d", 1 << 42)
        site_b.fragments.write("e", 0, 0)
        sent = dict(system.network.sent_counts)
        site_b.handle_request(DataRequest(
            "A#1", "A", TRANSFER_MODE,
            (("a", 10), ("b", 10), ("c", 10), ("d", 10), ("e", 10),
             ("nope", 10)), 1 << 40))
        (record,) = create_records(site_b)
        assert [action.item for action in record.actions] == ["a"]
        assert [(entry.item, entry.amount) for entry in record.messages] \
            == [("a", 10)]
        assert (site_b.requests_honored, site_b.requests_ignored) == (1, 5)
        # One advisory (for c and d together) and one Vm message.
        assert system.network.sent_counts["TsAdvisory"] \
            - sent.get("TsAdvisory", 0) == 1
        assert system.network.sent_counts["VmTransfer"] \
            - sent.get("VmTransfer", 0) == 1
        site_b.locks.release_all("someone")
        assert site_b.locks.holders == {}
        system.sim.run()
        # The advisory carried the largest refused stamp.
        assert system.sites["A"].clock.next() > (1 << 42)

    def test_item_named_twice_is_granted_once(self):
        system = build()
        site_b = system.sites["B"]
        site_b.handle_request(DataRequest(
            "A#1", "A", TRANSFER_MODE, (("x", 20), ("x", 20)), 1 << 40))
        (record,) = create_records(site_b)
        assert [entry.amount for entry in record.messages] == [20]
        assert site_b.fragments.value("x") == 10
        assert (site_b.requests_honored, site_b.requests_ignored) == (1, 1)
        system.run_for(30.0)
        system.auditor.assert_ok()

    def test_peer_picked_twice_for_an_item_is_asked_once(self):
        class Twice(AskAllPolicy):
            def targets(self, origin, peers, deficit, domain, rng):
                return [(peer, deficit) for peer in peers for _ in (1, 2)]

        system = build_many()
        site_a = system.sites["A"]
        site_a.policy = Twice()
        requests = []
        send = site_a.send_request
        site_a.send_request = lambda dst, request: (
            requests.append((dst, request)), send(dst, request))
        results = []
        system.submit("A", TransactionSpec(
            ops=(DecrementOp("a", 40), DecrementOp("b", 35))),
            results.append)
        assert [(dst, request.wants) for dst, request in requests] == [
            ("B", (("a", 20), ("b", 10))), ("C", (("a", 20), ("b", 10)))]
        system.run_for(60.0)
        assert results[0].committed and results[0].requests_sent == 2
        system.auditor.assert_ok()

    def test_conc2_wait_path_honors_every_item_once_locks_come_free(self):
        system = build_many(cc="conc2")
        site_b = system.sites["B"]
        site_b.locks.try_acquire_all("someone", {"b"})
        site_b.handle_request(DataRequest(
            "A#1", "A", TRANSFER_MODE, (("a", 10), ("b", 10)), 1))
        assert create_records(site_b) == [] and site_b.locks.is_free("a")
        site_b.locks.release_all("someone")
        (record,) = create_records(site_b)
        assert [(entry.item, entry.amount) for entry in record.messages] \
            == [("a", 10), ("b", 10)]
        assert site_b.locks.holders == {}
        assert site_b.requests_honored == 2

    def test_read_batch_freezes_then_releases(self):
        system = build_many(read_freeze=8.0)
        site_b = system.sites["B"]
        site_b.handle_request(DataRequest(
            "A#1", "A", READ_MODE, (("a", None), ("b", None)), 1 << 40))
        (record,) = create_records(site_b)
        assert [(entry.item, entry.amount, entry.kind)
                for entry in record.messages] == [
            ("a", 30, "read-drain"), ("b", 30, "read-drain")]
        assert not site_b.locks.is_free("a")
        assert not site_b.locks.is_free("b")
        system.sim.run_until(system.sim.now + 8.5)
        assert site_b.locks.holders == {}
        system.auditor.assert_ok()


class TestVmAcceptance:
    def test_unlocked_acceptance_increments_and_logs(self):
        system = build()
        entry = system.sites["A"].vm.allocate_entry("B", "x", 7,
                                                    "transfer", "t")
        system.sites["A"].vm.register_created([entry])
        system.run_for(10.0)
        # (No conservation audit here: the Vm was conjured out of thin
        # air for the test, not carved from A's fragment.)
        assert system.sites["B"].fragments.value("x") == 37
        records = [env.record for env in system.sites["B"].log.scan()]
        from repro.storage.records import VmAcceptRecord
        assert any(isinstance(record, VmAcceptRecord)
                   for record in records)

    def test_acceptance_while_locked_by_rds_stays_pending(self):
        system = build()
        site_b = system.sites["B"]
        site_b.locks.try_acquire_all("rds:frozen", {"x"})
        entry = system.sites["A"].vm.allocate_entry("B", "x", 7,
                                                    "transfer", "t")
        system.sites["A"].vm.register_created([entry])
        system.run_for(3.0)
        assert site_b.fragments.value("x") == 30  # still pending
        site_b.locks.release_all("rds:frozen")
        site_b.after_lock_release()
        assert site_b.fragments.value("x") == 37

    def test_active_transaction_absorbs_vm(self):
        system = build()
        results = []
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 60),)),
                      results.append)
        system.run_for(60.0)
        assert results and results[0].committed
        system.auditor.assert_ok()


class TestCheckpointing:
    def test_checkpoint_written_at_interval(self):
        system = build(checkpoint_interval=3)
        for _ in range(4):
            system.submit("A", TransactionSpec(
                ops=(IncrementOp("x", 1),)))
        system.run_for(5.0)
        records = [env.record for env in system.sites["A"].log.scan()]
        assert any(isinstance(record, CheckpointRecord)
                   for record in records)

    @pytest.mark.parametrize("interval", [1, 5])
    def test_checkpoint_after_exactly_interval_appends(self, interval):
        system = build(checkpoint_interval=interval)
        site = system.sites["A"]

        def checkpoints():
            return sum(isinstance(envelope.record, CheckpointRecord)
                       for envelope in site.log.scan())

        for _ in range(interval - 1):
            site.log_append(VmCreateRecord(txn_id="t"))
        system.run_for(1.0)
        assert checkpoints() == 0
        site.log_append(VmCreateRecord(txn_id="t"))
        assert checkpoints() == 0  # deferred to a fresh event
        system.run_for(1.0)
        assert checkpoints() == 1

    def test_checkpoint_contains_fragment_snapshot(self):
        system = build(checkpoint_interval=1)
        system.submit("A", TransactionSpec(ops=(IncrementOp("x", 5),)))
        system.run_for(5.0)
        checkpoint = system.sites["A"].log.last_matching(
            lambda record: isinstance(record, CheckpointRecord)).record
        assert dict(checkpoint.fragments)["x"] == 35

    def test_no_checkpoints_when_disabled(self):
        system = build(checkpoint_interval=0)
        for _ in range(10):
            system.submit("A", TransactionSpec(
                ops=(IncrementOp("x", 1),)))
        system.run_for(5.0)
        records = [env.record for env in system.sites["A"].log.scan()]
        assert not any(isinstance(record, CheckpointRecord)
                       for record in records)


class TestDeliverDispatch:
    def test_dead_site_hears_nothing(self):
        system = build()
        system.crash("B")
        site_b = system.sites["B"]
        before = site_b.requests_honored
        system.sites["A"].send_request("B", DataRequest(
            "A#1", "A", TRANSFER_MODE, (("x", 10),), 1 << 40))
        system.run_for(5.0)
        assert site_b.requests_honored == before

    def test_clock_observes_request_ts(self):
        system = build()
        site_b = system.sites["B"]
        system.sites["A"].send_request("B", DataRequest(
            "A#1", "A", TRANSFER_MODE, (("x", 10),), (123 << 16)))
        system.run_for(5.0)
        assert site_b.clock.counter >= 123


def _migrate(system, site):
    controller = MigrationController(system, [], system.directory.epoch)
    move = Move(src=site.name, dst="B", item="x")
    controller._ship_locked(move)
    return move.state == "shipped"


def _rebalance(system, site):
    daemon = RebalanceDaemon(site, RebalanceConfig())
    daemon._maybe_ship("x", 10)
    return daemon.shipments == 1


def _deconsolidate(system, site):
    hybrid = HybridSystem(system)
    hybrid.modes["x"] = ItemMode.CENTRAL  # as if consolidated at *site*
    hybrid.homes["x"] = site.name
    return hybrid.deconsolidate("x", {"B": 5, "C": 5})


class TestShip:
    """``DvPSite.ship`` is the one way value leaves a site outside a
    request: migration, rebalancing and deconsolidation."""

    CALLERS = {"migration": _migrate, "rebalance": _rebalance,
               "deconsolidate": _deconsolidate}

    @pytest.mark.parametrize("caller", sorted(CALLERS))
    def test_a_locked_fragment_refuses_the_ship(self, caller):
        system = build()
        site = system.sites["A"]
        site.locks.try_acquire_all("t", {"x"})
        forces, counter = site.log.forces, site.clock.counter
        assert not self.CALLERS[caller](system, site)
        assert (site.log.forces, site.clock.counter) == (forces, counter)
        assert site.fragments.value("x") == 30
        assert site.vm.unacked_count() == 0
        assert system.auditor.live_vm_total("x") == 0
        site.locks.release_all("t")
        assert self.CALLERS[caller](system, site)  # free: it ships
        assert site.log.forces == forces + 1
