"""One accept record per delivered Vm message (docs/PROTOCOL.md step 5).

The receiver accepts the entries one real message carried as a *run*:
it forces ONE record for the run's lock-free prefix, then tells each
entry's transaction and retires it from the books, in run order. The
record is a ``VmAcceptRecord`` naming the run's first and last sequence
number (equal for a run of one), whose last one recovery restores.
"""

from repro.core.domain import CounterDomain
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import (
    Transaction,
    TransactionSpec,
    TransferOp,
)
from repro.net.link import LinkConfig
from repro.core.fragments import set_test_leak
from repro.storage.records import (
    SetFragment,
    VmAcceptRecord,
    VmCreateRecord,
    encode,
)

ITEMS = ("x", "y", "z")


def build() -> DvPSystem:
    system = DvPSystem(SystemConfig(
        sites=["A", "B"], seed=4, txn_timeout=10.0, retransmit_period=5.0,
        link=LinkConfig(base_delay=1.0)))
    for item in ITEMS:
        system.add_item(item, CounterDomain(), split={"A": 30, "B": 30})
    return system


def send_wave(system: DvPSystem, amounts: dict[str, int],
              txn_id: str = "B#1") -> tuple:
    """A's answer to one request from B: one create record carving
    *amounts* from A's fragments, one real message."""
    site = system.sites["A"]
    actions = tuple(SetFragment(item, site.fragments.value(item) - amount,
                                site.clock.next())
                    for item, amount in amounts.items())
    entries = tuple(site.vm.allocate_entry("B", item, amount, "transfer",
                                           txn_id)
                    for item, amount in amounts.items())
    site.create_vm(f"rds:A:{txn_id}", actions, entries)
    return entries


def accept_records(system: DvPSystem, name: str = "B") -> list:
    return [envelope.record for envelope in system.sites[name].log.scan()
            if isinstance(envelope.record, VmAcceptRecord)]


def audited(system: DvPSystem) -> None:
    assert all(report.ok for report in system.auditor.verify_full())
    for site in system.sites.values():
        assert site.vm.check_accounting()


class TestOneRecordPerMessage:
    def test_a_message_is_accepted_by_one_run_record(self):
        system = build()
        send_wave(system, {"x": 1, "y": 2, "z": 3})
        system.run_for(3.0)
        (record,) = accept_records(system)
        assert (record.src, record.first_seq, record.last_seq,
                record.txn_id) == ("A", 1, 3, "B#1")
        assert [(a.item, a.value) for a in record.actions] == [
            ("x", 31), ("y", 32), ("z", 33)]
        audited(system)

    def test_prefix_stops_at_an_rds_lock_and_the_rest_is_one_record(self):
        system = build()
        site_b = system.sites["B"]
        site_b.locks.try_acquire_all("rds:frozen", {"y"})
        send_wave(system, {"x": 1, "y": 2, "z": 3})
        system.run_for(3.0)
        (first,) = accept_records(system)
        assert (first.first_seq, first.last_seq) == (1, 1)
        assert site_b.vm.incoming["A"].cumulative_accepted == 1
        assert (site_b.fragments.value("y"),
                site_b.fragments.value("z")) == (30, 30)
        site_b.locks.release_all("rds:frozen")
        site_b.after_lock_release()
        rest = accept_records(system)[1]
        assert (rest.first_seq, rest.last_seq) == (2, 3)
        assert [a.item for a in rest.actions] == ["y", "z"]
        system.run_for(3.0)
        audited(system)
        assert system.sites["A"].vm.unacked_count() == 0

    def test_gap_fill_keeps_one_record_per_message(self):
        system = build()
        link = system.network.link("A", "B")
        link.fail()
        send_wave(system, {"x": 1})  # seq 1: lost
        link.restore()
        send_wave(system, {"x": 1, "y": 1}, txn_id="B#2")   # seqs 2, 3
        send_wave(system, {"y": 1, "z": 1}, txn_id="B#3")   # seqs 4, 5
        system.run_for(3.0)
        assert accept_records(system) == []  # buffered behind the gap
        system.run_for(5.0)  # seq 1 is resent alone; the backlog drains
        records = accept_records(system)
        assert [(r.first_seq, r.last_seq) for r in records] == [
            (1, 1), (2, 3), (4, 5)]
        audited(system)


class TestSingleEntryRecord:
    def test_a_single_entry_message_encodes_to_the_pinned_bytes(self):
        system = build()
        send_wave(system, {"y": 4})
        system.run_for(3.0)
        (record,) = accept_records(system)
        ts = record.actions[0].ts
        assert encode(record) == (2, ("A", 1, 1, "B#1", "y", 34, ts))


class TestRecoveryFromMixedRuns:
    """Recovery reads every accept record the same way, whatever the
    length of its run: the last seq goes into the channel's dedup
    state, each action is redone."""

    RECORDS = (
        VmAcceptRecord("A", 1, 1, (SetFragment("x", 31, 5),), "B#1"),
        VmAcceptRecord("C", 1, 3, (SetFragment("x", 32, 6),
                                   SetFragment("y", 31, 6),
                                   SetFragment("z", 31, 6)), "B#2"),
        VmAcceptRecord("A", 2, 4, (SetFragment("y", 33, 7),
                                   SetFragment("z", 32, 7),
                                   SetFragment("x", 34, 7)), "B#3"),
        VmAcceptRecord("C", 4, 4, (SetFragment("z", 35, 8),), "B#4"),
    )

    def recovered(self, records=RECORDS):
        system = DvPSystem(SystemConfig(
            sites=["A", "B", "C"], seed=4, txn_timeout=10.0,
            link=LinkConfig(base_delay=1.0)))
        for item in ITEMS:
            system.add_item(item, CounterDomain(),
                            split={"A": 30, "B": 30, "C": 30})
        site_b = system.sites["B"]
        for record in records:
            site_b.log.append(record)  # forced, never applied
        system.crash("B")
        report = system.recover("B")
        return system.sites["B"], report

    def test_each_source_and_every_action(self):
        site_b, report = self.recovered()
        assert report.redo_applied == 8 and report.redo_skipped == 0
        assert [site_b.fragments.value(item) for item in ITEMS] == [
            34, 33, 35]
        assert {src: site_b.vm.incoming[src].cumulative_accepted
                for src in ("A", "C")} == {"A": 4, "C": 4}
        assert site_b.fragments.timestamp("z") == 8

    def test_an_item_assigned_twice_recovers_its_last_value(self):
        """A message carrying two entries of one item is one record
        that assigns the item twice: redo keeps the last assignment."""
        site_b, report = self.recovered((
            VmAcceptRecord("A", 1, 2, (SetFragment("x", 32, 5),
                                       SetFragment("x", 33, 5)), "B#1"),))
        assert site_b.fragments.value("x") == 33
        assert report.redo_applied == 1
        assert site_b.fragments.timestamp("x") == 5
        assert site_b.vm.incoming["A"].cumulative_accepted == 2

    def test_the_planted_bug_restores_the_first_seq(self):
        set_test_leak("run-first-seq")
        try:
            site_b, _report = self.recovered()
        finally:
            set_test_leak(None)
        assert {src: site_b.vm.incoming[src].cumulative_accepted
                for src in ("A", "C")} == {"A": 2, "C": 4}


class TestCrashAfterARunRecord:
    def test_retransmissions_are_discarded_and_reacked(self):
        """B forces the run record, its ack is lost, B crashes: its
        recovery restores the run's LAST seq, so A's per-entry
        retransmissions are all duplicates, discarded and re-acked."""
        system = build()
        site_b = system.sites["B"]
        back = system.network.link("B", "A")
        back.fail()
        send_wave(system, {"x": 1, "y": 2, "z": 3})
        system.run_for(3.0)
        assert [(r.first_seq, r.last_seq)
                for r in accept_records(system)] == [(1, 3)]
        system.crash("B")
        back.restore()
        system.recover("B")
        assert site_b.vm.incoming["A"].cumulative_accepted == 3
        discarded = system.sim.metrics.total("vm.duplicates")
        system.run_for(12.0)  # A resends each entry once
        assert system.sim.metrics.total("vm.duplicates") - discarded == 3
        assert len(accept_records(system)) == 1
        assert system.sites["A"].vm.unacked_count() == 0
        assert [site_b.fragments.value(item) for item in ITEMS] == [
            31, 32, 33]
        audited(system)


class TestTransactionHoldingTheRun:
    def test_commits_once(self, monkeypatch):
        """A transaction at B holding every item of the run commits
        exactly once: the whole run is in its fragments before it is
        told of the first entry, which completes it; the rest find its
        locks released and tell nobody."""
        system = build()
        results, absorbed = [], []
        on_vm_absorbed = Transaction.on_vm_absorbed

        def spy(txn, entry, src):
            absorbed.append(entry.item)
            on_vm_absorbed(txn, entry, src)

        monkeypatch.setattr(Transaction, "on_vm_absorbed", spy)
        spec = TransactionSpec(ops=tuple(
            TransferOp(item, "x" if item != "x" else "y", 31)
            for item in ITEMS))
        system.sites["B"].submit(spec, results.append)
        system.run_for(20.0)
        assert [r.committed for r in results] == [True]
        runs = [r for r in accept_records(system)
                if r.first_seq < r.last_seq]
        assert [(r.first_seq, r.last_seq) for r in runs] == [(1, 3)]
        assert absorbed == ["x"]
        commits = [env.record for env in system.sites["B"].log.scan()
                   if isinstance(env.record, VmCreateRecord)]
        assert len(commits) == 1
        system.run_for(20.0)
        audited(system)
