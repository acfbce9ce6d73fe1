"""The stable log stores an encoding, readers get the record back.

``StableLog.append`` keeps each of the four DvP record types as one
flat tuple (``repro.storage.records.encode``) and every reader decodes.
No caller may see the difference: for every record, all four readers
return an equal record *of the same type, rows included*; anything
that is not one of the four types is stored and returned untouched —
the baselines log string-tagged plain tuples through the same class;
and recovery, the one consumer that matters, reports what it always
reported.
"""

from collections import Counter
from dataclasses import asdict, dataclass

from hypothesis import given, settings, strategies as st

from repro.core.domain import CounterDomain, MoneyDomain, TokenSetDomain
from repro.core.site import SiteDown
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    TransactionSpec,
    TransferOp,
)
from repro.net.link import LinkConfig
from repro.storage.log import LogRecordEnvelope, StableLog
from repro.storage.records import (
    AppliedRecord,
    CheckpointRecord,
    SetFragment,
    VmAcceptRecord,
    VmCreateRecord,
    VmEntry,
)

names = st.text(alphabet="abcxyz:#_0123456789", max_size=6)
counts = st.integers(min_value=0, max_value=10**12)
#: Domain values: counters and money are ints; a token multiset is a
#: Counter (an object the collector tracks — the encoding must carry
#: it, not choke on it); None and nested tuples for good measure.
values = st.one_of(
    counts,
    st.dictionaries(names, st.integers(1, 9), max_size=3).map(Counter),
    st.none(),
    st.tuples(names, counts))
fragments = st.builds(SetFragment, names, values, counts)
entries = st.builds(VmEntry, names, names, values, counts,
                    st.sampled_from(["transfer", "read-drain"]), names)
pairs = st.lists(st.tuples(names, counts), max_size=3).map(tuple)


def rows(strategy):
    return st.lists(strategy, max_size=4).map(tuple)


dvp_records = st.one_of(
    st.builds(VmCreateRecord, names, rows(fragments), rows(entries)),
    st.builds(VmAcceptRecord, names, counts, counts, rows(fragments),
              names),
    st.builds(AppliedRecord, counts),
    st.builds(CheckpointRecord,
              st.lists(st.tuples(names, values), max_size=3).map(tuple),
              pairs, rows(entries), pairs, pairs,
              st.lists(st.tuples(names, values), max_size=2).map(tuple)))


@dataclass
class _Custom:
    payload: int


#: What the baselines (and anybody else) put through a StableLog.
FOREIGN = [
    ("primary-write", "t#1", "x", 5, 3),
    ("coord-begin", "t#1", ["A", "B"]),
    ("prepared", "t#1", "A", (("dec", "x", 1),)),
    ("participant-commit", "t#1"),
    ("participant-abort", "t#1"),
    ("coord-decision", "t#1", True),
    ("paxos-promise", "t#1", "B", 4),
    ("paxos-accept", "t#1", "B", 4, "prepared"),
    ("escrow", "t#1", "dec", "x", 2),
    ("commit", "t#1", "dec", 2),
    ("replica-write", "t#1", "x", 9, 2),
    # Shaped exactly like encodings, and still nobody's business:
    ("t#1", "x", 3, 0),
    ("t#1", 1, "x", 3, 0),
    (7,),
    (),
    _Custom(3),
    None,
    "a string",
]


def same(record, back) -> bool:
    """Equal, same type, and typed rows all the way down."""
    if type(back) is not type(record) or back != record:
        return False
    if isinstance(record, tuple):
        return all(same(old, new) for old, new in zip(record, back)
                   if isinstance(old, tuple))
    return True


def read_every_way(log: StableLog, lsn: int) -> list:
    """The record at *lsn* through each of the four readers."""
    forwards = next(iter(log.scan(lsn)))
    backwards = [envelope for envelope in log.scan_backwards()
                 if envelope.lsn == lsn][0]
    matched = log.last_matching(lambda record: True)
    assert isinstance(forwards, LogRecordEnvelope)
    assert (forwards.lsn, backwards.lsn) == (lsn, lsn)
    found = [log.read(lsn), forwards.record, backwards.record]
    if matched.lsn == lsn:
        found.append(matched.record)
    return found


class TestRoundTrip:
    @settings(max_examples=300, deadline=None)
    @given(st.lists(dvp_records, min_size=1, max_size=6))
    def test_every_record_type_through_every_reader(self, records):
        log = StableLog("A")
        lsns = [log.append(record) for record in records]
        assert lsns == list(range(len(records)))
        assert len(log) == log.forces == log.next_lsn == len(records)
        for lsn, record in zip(lsns, records):
            for back in read_every_way(log, lsn):
                assert same(record, back), (record, back)
        assert [envelope.record for envelope in log.scan()] == records
        assert log.last_matching(lambda r: True).lsn == lsns[-1]

    def test_empty_rows_and_defaults(self):
        log = StableLog("A")
        for record in (VmCreateRecord("t"), VmAcceptRecord("B", 1, 1),
                       VmAcceptRecord("B", 1, 2), CheckpointRecord(),
                       VmCreateRecord("t", (), (VmEntry("B", "x", 1, 1),)),
                       VmCreateRecord("t", (SetFragment("x", 1),), ())):
            assert same(record, log.read(log.append(record)))

    def test_foreign_records_pass_through_untouched(self):
        log = StableLog("A")
        for record in FOREIGN:
            lsn = log.append(record)
            for back in read_every_way(log, lsn):
                assert back is record
        # Interleaved with real records, each LSN still decodes as
        # what was appended there.
        mixed = StableLog("B")
        commit = VmCreateRecord("t#1", (SetFragment("x", 3, 0),))
        for record in FOREIGN:
            mixed.append(record)
            mixed.append(commit)
        for lsn, envelope in enumerate(mixed.scan()):
            if lsn % 2:
                assert same(commit, envelope.record)
            else:
                assert envelope.record is FOREIGN[lsn // 2]

    def test_subclass_of_a_record_type_is_foreign(self):
        class Tagged(VmCreateRecord):
            pass

        log = StableLog("A")
        record = Tagged("t", (SetFragment("x", 1),))
        assert log.read(log.append(record)) is record

    def test_stable_storage_cannot_be_aliased(self):
        # What is logged is a copy: the log never hands back (nor
        # keeps) the object volatile code still holds.
        log = StableLog("A")
        record = VmCreateRecord("t", (SetFragment("x", 1, 2),))
        lsn = log.append(record)
        assert log.read(lsn) is not record
        assert log.read(lsn) is not log.read(lsn)

    def test_scan_sees_the_log_as_it_was_when_it_started(self):
        log = StableLog("A")
        for index in range(3):
            log.append(AppliedRecord(index))
        seen = []
        for envelope in log.scan(1):
            seen.append(envelope.record.applied_lsn)
            log.append(AppliedRecord(99))
        assert seen == [1, 2]


# -- recovery reads what was written --------------------------------------------

def _crash_recover_run():
    """Small quotas over three domains, so most commits pull remote
    value as Vm; checkpoints on; B crashes with Vm in flight both ways,
    recovers from its log, and the run settles."""
    system = DvPSystem(SystemConfig(
        sites=["A", "B", "C"], seed=14, txn_timeout=10.0,
        retransmit_period=2.0, checkpoint_interval=5,
        link=LinkConfig(base_delay=1.0, jitter=0.5)))
    system.add_item("seats", CounterDomain(),
                    split={"A": 4, "B": 4, "C": 90})
    system.add_item("cash", MoneyDomain(),
                    split={"A": 9000, "B": 50, "C": 50})
    system.add_item("tokens", TokenSetDomain(), split={
        "A": Counter(), "B": Counter(red=3, blue=2), "C": Counter(red=2)})

    def arrive(site, ops):
        try:
            system.submit(site, TransactionSpec(ops=ops))
        except SiteDown:
            pass  # the client finds B dead and walks away

    for index in range(30):
        site = "ABC"[index % 3]
        ops = [DecrementOp("seats", 2 + index % 4),
               TransferOp("cash", "seats", 60) if index % 5 == 0
               else DecrementOp("cash", 40)]
        if index % 4 == 1:
            ops.append(DecrementOp("tokens", Counter(red=1)))
        system.sim.at_site(site, 0.5 + index * 0.9,
                           lambda site=site, ops=tuple(ops): arrive(site, ops),
                           label=f"arrival:{site}")
    system.run_until(14.3)
    system.crash("B")
    system.run_until(18.0)
    report = system.recover("B")
    system.run_until(90.0)
    return system, report


#: Recorded on the commit before the log stored an encoding: recovery
#: must not be able to tell the difference. The report and A's log
#: length were re-recorded when a request came to name every item a
#: peer is asked for: a multi-item honour forces one create record, not
#: one per item (docs/LEDGER.md); the fragments did not move. They
#: were re-recorded again when the entries one message delivered came
#: to be accepted by one record: B forces two run records instead of
#: four accept records, so its checkpoint and log end earlier.
PINNED_REPORT = {
    "site": "B", "scanned_records": 1, "redo_applied": 0,
    "redo_skipped": 1, "vm_rebuilt": 1, "incoming_channels": 1,
    "from_checkpoint": True, "start_lsn": 6, "messages_needed": 0,
    "details": {"crashed_at": 14.3, "recovered_at": 18.0},
}
PINNED_FRAGMENTS = {
    "seats": {"A": 85, "B": 0, "C": 86},
    "cash": {"A": 8530, "B": 0, "C": 10},
    "tokens": {"A": Counter(), "B": Counter(blue=2), "C": Counter(red=2)},
}
PINNED_LOG_LENGTHS = {"A": 15, "B": 8, "C": 1}


class TestRecoveryReadsTheEncoding:
    def test_report_and_fragments_are_what_they_were(self):
        system, report = _crash_recover_run()
        assert asdict(report) == PINNED_REPORT
        assert {item: system.fragment_values(item)
                for item in PINNED_FRAGMENTS} == PINNED_FRAGMENTS
        assert {name: len(site.log)
                for name, site in system.sites.items()} \
            == PINNED_LOG_LENGTHS
        system.auditor.assert_ok()
        assert all(report.ok for report in system.auditor.verify_full())

    def test_a_second_recovery_replays_the_same_log(self):
        # Crash again at the end and recover from the full log: every
        # record type is decoded, and redo is idempotent over them.
        system, _ = _crash_recover_run()
        before = {item: system.fragment_values(item)
                  for item in PINNED_FRAGMENTS}
        system.crash("B")
        report = system.recover("B")
        assert report.redo_applied == 0 and report.messages_needed == 0
        assert {item: system.fragment_values(item)
                for item in PINNED_FRAGMENTS} == before
        kinds = Counter(type(envelope.record).__name__
                        for envelope in system.sites["B"].log.scan())
        assert set(kinds) == {"VmCreateRecord", "VmAcceptRecord",
                              "CheckpointRecord"}
