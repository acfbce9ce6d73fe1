"""Unit tests for the fragment store and protocol message payloads."""

import pytest

from repro.core.domain import CounterDomain, DomainError
from repro.core.fragments import FragmentStore
from repro.core.messages import (
    READ_MODE,
    TRANSFER_MODE,
    DataRequest,
    TsAdvisory,
    VmAck,
    VmTransfer,
)
from repro.storage.pages import PageStore
from repro.storage.records import VmEntry


def build_store():
    pages = PageStore("A")
    store = FragmentStore("A", pages)
    store.register("x", CounterDomain(), 10)
    return store


class TestFragmentStore:
    def test_register_and_read(self):
        store = build_store()
        assert store.knows("x")
        assert not store.knows("y")
        assert store.value("x") == 10
        assert store.timestamp("x") == 0

    def test_register_validates_initial(self):
        pages = PageStore("A")
        store = FragmentStore("A", pages)
        with pytest.raises(DomainError):
            store.register("bad", CounterDomain(), -1)

    def test_write_validates_domain(self):
        store = build_store()
        with pytest.raises(DomainError):
            store.write("x", -5, lsn=1)

    def test_write_and_redo(self):
        store = build_store()
        store.write("x", 7, lsn=3)
        assert store.value("x") == 7
        assert not store.redo_write("x", 99, lsn=3)
        assert store.redo_write("x", 99, lsn=4)

    def test_stamping(self):
        store = build_store()
        store.stamp("x", 5)
        assert store.timestamp("x") == 5
        store.stamp_if_newer("x", 3)
        assert store.timestamp("x") == 5
        store.stamp_if_newer("x", 9)
        assert store.timestamp("x") == 9

    def test_snapshot(self):
        store = build_store()
        store.register("y", CounterDomain(), 3)
        assert store.snapshot() == {"x": 10, "y": 3}

    def test_items_iterates_registered(self):
        store = build_store()
        assert list(store.items()) == ["x"]

    def test_domain_lookup(self):
        store = build_store()
        assert isinstance(store.domain("x"), CounterDomain)


class TestMessages:
    def test_data_request_modes(self):
        read = DataRequest("t", "A", READ_MODE, (("x", None),), 1)
        transfer = DataRequest("t", "A", TRANSFER_MODE, (("x", 5),), 1)
        assert read.mode == "read"
        assert transfer.wants == (("x", 5),)

    def test_messages_are_frozen(self):
        request = DataRequest("t", "A", READ_MODE, (("x", None),), 1)
        with pytest.raises(Exception):
            request.ts = 99  # type: ignore[misc]

    def test_vm_transfer_carries_piggyback(self):
        entry = VmEntry(dst="B", item="x", amount=5, channel_seq=1)
        transfer = VmTransfer(src="A", entries=(entry,), piggyback_ack=7,
                              ts=3)
        assert transfer.piggyback_ack == 7
        assert transfer.entries[0].amount == 5

    def test_ack_fields(self):
        ack = VmAck(src="B", cumulative=4, ts=1)
        assert ack.cumulative == 4

    def test_advisory(self):
        assert TsAdvisory(ts=9).ts == 9
