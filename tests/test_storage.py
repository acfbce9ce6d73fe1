"""Unit tests for the stable log, page store and log records."""

import pytest

from repro.storage.log import StableLog
from repro.storage.pages import PageStore
from repro.storage.records import (
    AppliedRecord,
    CheckpointRecord,
    SetFragment,
    VmAcceptRecord,
    VmCreateRecord,
    VmEntry,
)


class TestStableLog:
    def test_append_returns_lsns_in_order(self):
        log = StableLog("A")
        assert [log.append(f"r{i}") for i in range(3)] == [0, 1, 2]

    def test_read(self):
        log = StableLog("A")
        log.append("alpha")
        assert log.read(0) == "alpha"

    def test_scan_from_lsn(self):
        log = StableLog("A")
        for index in range(5):
            log.append(index)
        assert [env.record for env in log.scan(3)] == [3, 4]
        assert [env.lsn for env in log.scan(3)] == [3, 4]

    def test_scan_backwards(self):
        log = StableLog("A")
        for index in range(3):
            log.append(index)
        assert [env.record for env in log.scan_backwards()] == [2, 1, 0]

    def test_last_matching(self):
        log = StableLog("A")
        log.append(("ckpt", 1))
        log.append(("other",))
        log.append(("ckpt", 2))
        log.append(("other",))
        found = log.last_matching(lambda r: r[0] == "ckpt")
        assert found is not None
        assert found.record == ("ckpt", 2)
        assert found.lsn == 2

    def test_last_matching_none(self):
        assert StableLog("A").last_matching(lambda r: True) is None

    def test_forces_counted(self):
        log = StableLog("A")
        log.append("x")
        log.append("y")
        assert log.forces == 2

    def test_next_lsn(self):
        log = StableLog("A")
        assert log.next_lsn == 0
        log.append("x")
        assert log.next_lsn == 1


class TestPageStore:
    def test_create_and_read(self):
        pages = PageStore("A")
        pages.create("item", 10)
        assert pages.read("item") == 10
        assert pages.page_lsn("item") == -1

    def test_duplicate_create_rejected(self):
        pages = PageStore("A")
        pages.create("item", 10)
        with pytest.raises(ValueError):
            pages.create("item", 20)

    def test_write_stamps_lsn(self):
        pages = PageStore("A")
        pages.create("item", 10)
        pages.write("item", 7, lsn=4)
        assert pages.read("item") == 7
        assert pages.page_lsn("item") == 4

    def test_write_if_newer_applies_once(self):
        pages = PageStore("A")
        pages.create("item", 10)
        assert pages.write_if_newer("item", 7, lsn=4)
        assert not pages.write_if_newer("item", 99, lsn=4)
        assert not pages.write_if_newer("item", 99, lsn=3)
        assert pages.read("item") == 7

    def test_write_if_newer_accepts_later_lsn(self):
        pages = PageStore("A")
        pages.create("item", 10)
        pages.write_if_newer("item", 7, lsn=4)
        assert pages.write_if_newer("item", 8, lsn=5)
        assert pages.read("item") == 8

    def test_contains_and_items(self):
        pages = PageStore("A")
        pages.create("x", 1)
        assert "x" in pages
        assert "y" not in pages
        assert dict(pages.items()) == {"x": 1}

    def test_write_counter(self):
        pages = PageStore("A")
        pages.create("x", 1)
        pages.write("x", 2, 0)
        pages.write_if_newer("x", 3, 1)
        pages.write_if_newer("x", 4, 1)  # skipped
        assert pages.writes == 2


class TestRecords:
    def test_vm_create_record_shape(self):
        entry = VmEntry(dst="B", item="x", amount=5, channel_seq=1)
        record = VmCreateRecord(
            txn_id="t1", actions=(SetFragment("x", 5, ts=9),),
            messages=(entry,))
        assert record.actions[0].ts == 9
        assert record.messages[0].dst == "B"

    def test_records_are_frozen(self):
        record = VmCreateRecord("t1", ())
        with pytest.raises(Exception):
            record.txn_id = "t2"  # type: ignore[misc]

    def test_vm_entry_defaults(self):
        entry = VmEntry(dst="B", item="x", amount=1, channel_seq=3)
        assert entry.kind == "transfer"
        assert entry.txn_id == ""

    def test_accept_record_identifies_channel(self):
        record = VmAcceptRecord(src="A", first_seq=7, last_seq=7)
        assert (record.src, record.first_seq, record.last_seq) \
            == ("A", 7, 7)

    def test_applied_record(self):
        assert AppliedRecord(applied_lsn=12).applied_lsn == 12

    def test_checkpoint_record_defaults(self):
        record = CheckpointRecord()
        assert record.fragments == ()
        assert record.incoming_cumulative == ()
