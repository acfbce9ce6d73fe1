"""Unit tests for Lamport timestamps and the lock table."""

import pytest

from repro.core.locks import LockTable
from repro.core.timestamps import MAX_SITES, LamportClock, decode, encode


class TestTimestamps:
    def test_encode_decode_roundtrip(self):
        ts = encode(17, 3)
        assert decode(ts) == (17, 3)

    def test_rank_out_of_range(self):
        with pytest.raises(ValueError):
            encode(1, MAX_SITES)
        with pytest.raises(ValueError):
            LamportClock(-1)

    def test_next_is_monotone(self):
        clock = LamportClock(0)
        stamps = [clock.next() for _ in range(10)]
        assert stamps == sorted(stamps)
        assert len(set(stamps)) == 10

    def test_uniqueness_across_sites(self):
        a = LamportClock(0)
        b = LamportClock(1)
        stamps = [a.next() for _ in range(20)] + \
            [b.next() for _ in range(20)]
        assert len(set(stamps)) == 40

    def test_site_rank_breaks_counter_ties(self):
        a = LamportClock(0)
        b = LamportClock(1)
        assert a.next() < b.next()  # same counter, lower rank first

    def test_observe_bumps_counter(self):
        clock = LamportClock(0)
        clock.observe(encode(100, 5))
        assert clock.next() > encode(100, 5)

    def test_observe_never_lowers(self):
        clock = LamportClock(0)
        for _ in range(10):
            clock.next()
        clock.observe(encode(2, 1))
        assert clock.counter == 10

    def test_reset_loses_counter(self):
        clock = LamportClock(0)
        for _ in range(5):
            clock.next()
        clock.reset()
        assert clock.counter == 0


class TestLockTableImmediate:
    def test_acquire_all_atomic(self):
        table = LockTable()
        assert table.try_acquire_all("t1", {"a", "b"})
        assert table.holders.get("a") == "t1"
        assert table.holders.get("b") == "t1"

    def test_acquire_all_or_nothing(self):
        table = LockTable()
        table.try_acquire_all("t1", {"b"})
        assert not table.try_acquire_all("t2", {"a", "b"})
        assert table.is_free("a")  # nothing partially taken

    def test_release_all(self):
        table = LockTable()
        table.try_acquire_all("t1", {"a", "b"})
        released = table.release_all("t1")
        assert sorted(released) == ["a", "b"]
        assert table.is_free("a")

    def test_held_by(self):
        table = LockTable()
        table.try_acquire_all("t1", {"a"})
        table.try_acquire_all("t2", {"b"})
        assert table.held_by("t1") == {"a"}

    def test_clear(self):
        table = LockTable()
        table.try_acquire_all("t1", {"a"})
        table.clear()
        assert table.is_free("a")


class TestLockTableWaiting:
    def test_immediate_grant_when_free(self):
        table = LockTable()
        assert table.acquire_all_or_wait("t1", {"a"}, lambda: None)

    def test_waiter_granted_on_release(self):
        table = LockTable()
        table.try_acquire_all("t1", {"a"})
        granted = []
        assert not table.acquire_all_or_wait("t2", {"a"},
                                             lambda: granted.append("t2"))
        table.release_all("t1")
        assert granted == ["t2"]
        assert table.holders.get("a") == "t2"

    def test_fifo_no_overtake(self):
        table = LockTable()
        table.try_acquire_all("t1", {"a"})
        order = []
        table.acquire_all_or_wait("t2", {"a", "b"},
                                  lambda: order.append("t2"))
        # b is free, but granting t3 now would overtake t2.
        granted_now = table.acquire_all_or_wait(
            "t3", {"b"}, lambda: order.append("t3"))
        assert not granted_now
        table.release_all("t1")
        assert order == ["t2"]
        table.release_all("t2")
        assert order == ["t2", "t3"]

    def test_waiting_holds_nothing(self):
        table = LockTable()
        table.try_acquire_all("t1", {"a"})
        table.acquire_all_or_wait("t2", {"a", "b"}, lambda: None)
        assert table.is_free("b")  # no partial holds while queued

    def test_cancel_waiter(self):
        table = LockTable()
        table.try_acquire_all("t1", {"a"})
        granted = []
        table.acquire_all_or_wait("t2", {"a"},
                                  lambda: granted.append("t2"))
        table.cancel_waiter("t2")
        table.release_all("t1")
        assert granted == []
        assert table.is_free("a")

    def test_multiple_waiters_granted_in_order(self):
        table = LockTable()
        table.try_acquire_all("t1", {"a"})
        order = []
        for name in ("t2", "t3"):
            table.acquire_all_or_wait(name, {"a"},
                                      lambda n=name: order.append(n))
        table.release_all("t1")
        assert order == ["t2"]
        table.release_all("t2")
        assert order == ["t2", "t3"]

    def test_disjoint_waiters_granted_together(self):
        table = LockTable()
        table.try_acquire_all("t1", {"a", "b"})
        order = []
        table.acquire_all_or_wait("t2", {"a"}, lambda: order.append("t2"))
        table.acquire_all_or_wait("t3", {"b"}, lambda: order.append("t3"))
        table.release_all("t1")
        assert order == ["t2", "t3"]

    def test_no_deadlock_with_set_waiting(self):
        # Classic deadlock shape (t2 wants {a,b}, t3 wants {b,a}) cannot
        # deadlock because waiters never hold partial sets.
        table = LockTable()
        table.try_acquire_all("t1", {"a", "b"})
        order = []
        table.acquire_all_or_wait("t2", {"a", "b"},
                                  lambda: order.append("t2"))
        table.acquire_all_or_wait("t3", {"b", "a"},
                                  lambda: order.append("t3"))
        table.release_all("t1")
        table.release_all("t2")
        assert order == ["t2", "t3"]
