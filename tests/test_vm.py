"""Unit tests for the Virtual Message protocol engine.

Two VmManagers are wired through a controllable fake transport so every
failure mode (loss, duplication, reordering, refusal-to-accept) can be
scripted deterministically.
"""

import ast
import os
import pathlib
import subprocess
import sys

import pytest

from repro.core.messages import VmAck, VmTransfer
from repro.core.vm import IncomingChannel, OutgoingChannel, VmManager
from repro.sim.kernel import Simulator
from repro.storage.records import VmEntry


def retransmissions(h, site: str, peer: str) -> int:
    return pair_count(h, "vm.retransmissions", site, peer)


def duplicates(h, site: str, peer: str) -> int:
    return pair_count(h, "vm.duplicates", site, peer)


def pair_count(h, family: str, site: str, peer: str) -> int:
    """The registry's *family* count of *site* toward *peer*: 0 before
    the pair's first count, which books its row."""
    labels = (("peer", peer), ("site", site))
    return sum(metric.value for metric in h.sim.metrics.counters(family)
               if metric.labels == labels)


class Harness:
    """Two sites, A and B, with scriptable delivery."""

    def __init__(self, retransmit_period: float = 5.0) -> None:
        self.sim = Simulator(1)
        self.wire: list[tuple[str, str, object]] = []  # (src, dst, payload)
        self.accepted: dict[str, list] = {"A": [], "B": []}
        #: The sequence numbers of each run an accept call absorbed.
        self.runs: dict[str, list] = {"A": [], "B": []}
        self.refuse: dict[str, bool] = {"A": False, "B": False}
        #: Items a site's accept stops at (a held Rds lock).
        self.locked: dict[str, set] = {"A": set(), "B": set()}
        self.managers: dict[str, VmManager] = {}
        clock = {"t": 0}

        def ts() -> int:
            clock["t"] += 1
            return clock["t"]

        for name in ("A", "B"):
            def send(dst, payload, src=name):
                self.wire.append((src, dst, payload))

            def accept(run, src, me=name):
                if self.refuse[me]:
                    return 0
                taken = 0
                while taken < len(run) \
                        and run[taken].item not in self.locked[me]:
                    taken += 1
                if taken:
                    self.accepted[me].extend((src, e) for e in run[:taken])
                    self.runs[me].append(tuple(
                        e.channel_seq for e in run[:taken]))
                return taken

            self.managers[name] = VmManager(
                name, self.sim, send=send, accept=accept, clock_ts=ts,
                retransmit_period=retransmit_period)

    def flush(self, drop=None) -> int:
        """Deliver queued wire messages (optionally dropping some)."""
        drop = drop or (lambda src, dst, payload: False)
        queued, self.wire = self.wire, []
        delivered = 0
        for src, dst, payload in queued:
            if drop(src, dst, payload):
                continue
            delivered += 1
            manager = self.managers[dst]
            if isinstance(payload, VmTransfer):
                manager.on_transfer(payload)
            elif isinstance(payload, VmAck):
                manager.on_ack(payload)
        return delivered

    def send_value(self, src: str, dst: str, item: str, amount: int,
                   transmit: bool = True):
        return self.send_values(src, dst, ((item, amount),),
                                transmit=transmit)[0]

    def send_values(self, src: str, dst: str, amounts, transmit=True):
        """One create record's entries: ``(item, amount)`` each."""
        manager = self.managers[src]
        entries = [manager.allocate_entry(dst, item, amount, "transfer", "t")
                   for item, amount in amounts]
        manager.register_created(entries, transmit=transmit)
        return entries


class TestHappyPath:
    def test_value_delivered_and_acked(self):
        h = Harness()
        h.send_value("A", "B", "x", 5)
        h.flush()  # transfer A->B
        assert [entry.amount for _src, entry in h.accepted["B"]] == [5]
        h.flush()  # ack B->A
        assert h.managers["A"].outgoing["B"].cumulative_acked == 1
        assert h.managers["A"].unacked_count() == 0

    def test_sequence_numbers_increase_per_destination(self):
        h = Harness()
        first = h.send_value("A", "B", "x", 1)
        second = h.send_value("A", "B", "x", 2)
        assert (first.channel_seq, second.channel_seq) == (1, 2)

    def test_channels_are_per_destination(self):
        h = Harness()
        to_b = h.send_value("A", "B", "x", 1)
        # A third party would have its own channel; reuse B's manager as
        # a stand-in destination name.
        to_c = h.managers["A"].allocate_entry("C", "x", 1, "transfer", "t")
        assert to_b.channel_seq == to_c.channel_seq == 1


class TestLossAndRetransmission:
    def test_lost_transfer_retransmitted_until_acked(self):
        h = Harness(retransmit_period=5.0)
        h.send_value("A", "B", "x", 5)
        h.flush(drop=lambda s, d, p: isinstance(p, VmTransfer))  # lost
        assert h.accepted["B"] == []
        h.sim.run_until(5.0)  # retransmission timer fires
        h.flush()
        assert len(h.accepted["B"]) == 1
        assert retransmissions(h, "A", "B") >= 1

    def test_lost_ack_causes_duplicate_which_is_discarded(self):
        h = Harness(retransmit_period=5.0)
        h.send_value("A", "B", "x", 5)
        h.flush(drop=lambda s, d, p: isinstance(p, VmAck))  # ack lost
        assert len(h.accepted["B"]) == 1
        h.sim.run_until(5.0)
        h.flush(drop=lambda s, d, p: isinstance(p, VmAck))
        # Duplicate discarded: still exactly one acceptance.
        assert len(h.accepted["B"]) == 1
        assert duplicates(h, "B", "A") == 1
        h.sim.run_until(10.0)
        h.flush()  # this time the (re-)ack gets through
        assert h.managers["A"].unacked_count() == 0

    def test_timer_stops_when_all_acked(self):
        h = Harness(retransmit_period=5.0)
        h.send_value("A", "B", "x", 5)
        h.flush()
        h.flush()
        h.sim.run_until(30.0)
        assert retransmissions(h, "A", "B") == 0


class TestPerPairMetrics:
    """A pair's registry rows appear on its first count, not when its
    channel opens."""

    @staticmethod
    def rows(h: Harness) -> dict:
        metrics = h.sim.metrics
        rows = {(metric.name, metric.labels): metric.value
                for metric in metrics.counters()
                if metric.name in ("vm.retransmissions", "vm.duplicates")}
        rows.update({(metric.name, metric.labels): len(metric.values)
                     for metric in metrics.histograms("vm.delivery")})
        return rows

    def test_each_family_books_its_first_count(self):
        h = Harness(retransmit_period=5.0)
        h.send_value("A", "B", "x", 5)
        h.flush(drop=lambda s, d, p: isinstance(p, VmAck))  # ack lost
        # Both channels are open; only the delivery has counted.
        delivery = ("vm.delivery", (("dst", "B"), ("src", "A")))
        assert self.rows(h) == {delivery: 1}
        assert h.sim.metrics.total("vm.retransmissions") == 0
        h.sim.run_until(5.0)  # A resends, B discards the duplicate
        h.flush()
        assert self.rows(h) == {
            delivery: 1,
            ("vm.retransmissions", (("peer", "B"), ("site", "A"))): 1,
            ("vm.duplicates", (("peer", "A"), ("site", "B"))): 1}

    def test_channels_are_slotted(self):
        assert not hasattr(OutgoingChannel("B"), "__dict__")
        assert not hasattr(IncomingChannel("A"), "__dict__")


def _anchor(h: Harness) -> None:
    """A Vm from A to a silent peer C, live for good: A's timer then
    ticks at 5, 10, 15, ... for the whole test (flushes drop C's mail)."""
    h.send_value("A", "C", "z", 1)


def _to_b_and_not_c(src, dst, payload):
    return dst == "C"


def _sends_to_b(h: Harness) -> list[tuple[float, int]]:
    """Record (time, seq) of every VmTransfer A puts on the wire to B."""
    manager = h.managers["A"]
    send, log = manager._send, []

    def recording(dst, payload):
        if dst == "B" and isinstance(payload, VmTransfer):
            log.extend((h.sim.now, entry.channel_seq)
                       for entry in payload.entries)
        send(dst, payload)

    manager._send = recording
    return log


class TestOverdueRetransmission:
    """A live Vm is resent once it has gone a full period unacknowledged;
    one sent less than a period ago waits for the next tick."""

    def test_young_vm_on_a_lossless_link_is_never_resent(self):
        h = Harness(retransmit_period=5.0)
        _anchor(h)
        for i in range(1, 21):
            h.sim.run_until(5.0 * i - 0.5)
            h.send_value("A", "B", "x", 1)  # half a unit before a tick
            h.sim.run_until(5.0 * i + 1.0)  # round trip 1.5 < period
            h.flush(drop=_to_b_and_not_c)  # the transfer...
            h.flush(drop=_to_b_and_not_c)  # ...and its ack
        assert len(h.accepted["B"]) == 20
        assert retransmissions(h, "A", "B") == 0
        assert duplicates(h, "B", "A") == 0
        assert retransmissions(h, "A", "C") > 0

    @pytest.mark.parametrize("offset", [0.0, 0.5, 2.5, 4.5])
    def test_lost_vm_resent_between_one_and_two_periods(self, offset):
        h = Harness(retransmit_period=5.0)
        _anchor(h)
        sends = _sends_to_b(h)
        h.sim.run_until(10.0 + offset)
        h.send_value("A", "B", "x", 1)
        h.sim.run_until(60.0)
        times = [t for t, _seq in sends]
        assert times[0] == 10.0 + offset and len(times) >= 5
        gaps = [later - earlier for earlier, later in zip(times, times[1:])]
        assert all(5.0 <= gap <= 10.0 for gap in gaps), gaps

    def test_tick_now_resends_every_live_vm_however_young(self):
        h = Harness(retransmit_period=5.0)
        h.send_value("A", "B", "x", 1)
        h.send_value("A", "B", "x", 2)
        sends = _sends_to_b(h)
        h.managers["A"].tick_now()
        assert sends == [(0.0, 1), (0.0, 2)]
        assert retransmissions(h, "A", "B") == 2

    def test_unsent_entry_goes_out_on_next_tick_as_a_transmit(self):
        h = Harness(retransmit_period=5.0)
        h.sim.obs.enable()
        _anchor(h)
        h.sim.run_until(4.0)
        h.send_value("A", "B", "x", 1, transmit=False)
        sends = _sends_to_b(h)
        h.sim.run_until(5.0)  # one unit old, but never sent
        assert sends == [(5.0, 1)]
        assert retransmissions(h, "A", "B") == 0
        assert [event.kind for event in h.sim.obs.events()
                if getattr(event, "dst", None) == "B"] == \
            ["vm.create", "vm.transmit"]

    def test_restored_entry_goes_out_on_next_tick_as_a_transmit(self):
        """The registry row, not the rebuilt manager's channel, is the
        pair's record: it carries the pre-crash resend across."""
        h = Harness(retransmit_period=5.0)
        entry = h.send_value("A", "B", "x", 1)
        h.sim.run_until(5.0)  # lost at 0, resent at 5
        h.wire.clear()
        h.sim.run_until(7.0)
        h.managers["A"].close()  # A crashes; recovery builds a new one
        rebuilt = VmManager("A", h.sim, send=lambda dst, p: h.wire.append(
                                ("A", dst, p)),
                            accept=lambda entry, src: True,
                            clock_ts=lambda: 0, retransmit_period=5.0)
        rebuilt.restore(entries=(entry,))
        rebuilt.start()
        h.sim.run_until(12.0)
        assert [(dst, [entry.channel_seq for entry in p.entries])
                for _s, dst, p in h.wire] == [("B", [1])]
        assert retransmissions(h, "A", "B") == 1
        assert rebuilt.outgoing["B"].retx_counter is None
        h.sim.run_until(17.0)  # lost again: the rebuilt manager resends
        assert retransmissions(h, "A", "B") == 2

    def test_timer_stays_armed_while_only_young_entries_are_live(self):
        h = Harness(retransmit_period=5.0)
        h.send_value("A", "B", "x", 1)
        h.flush()
        h.flush()  # acked at 0: nothing live, the tick at 5 still pending
        h.sim.run_until(4.0)
        h.send_value("A", "B", "x", 2)
        h.wire.clear()  # lost
        sends = _sends_to_b(h)
        timer = h.managers["A"]._timer
        h.sim.run_until(5.0)  # tick: the one live Vm is one unit old
        assert sends == [] and timer.running
        h.sim.run_until(10.0)
        assert sends == [(10.0, 2)]


class TestOrdering:
    def test_out_of_order_buffered_until_gap_fills(self):
        h = Harness()
        first = h.send_value("A", "B", "x", 1, transmit=False)
        second = h.send_value("A", "B", "x", 2, transmit=False)
        manager = h.managers["A"]
        # Deliver second first: B must buffer it.
        h.managers["B"].on_transfer(VmTransfer("A", (second,), 0, 1))
        assert h.accepted["B"] == []
        h.managers["B"].on_transfer(VmTransfer("A", (first,), 0, 2))
        assert [entry.amount for _s, entry in h.accepted["B"]] == [1, 2]

    def test_cumulative_ack_covers_all_accepted(self):
        h = Harness()
        for amount in (1, 2, 3):
            h.send_value("A", "B", "x", amount)
        h.flush()
        assert h.managers["B"].incoming["A"].cumulative_accepted == 3
        h.flush()
        assert h.managers["A"].outgoing["B"].cumulative_acked == 3

    def test_piggyback_ack_on_reverse_traffic(self):
        h = Harness()
        h.send_value("A", "B", "x", 5)
        h.flush(drop=lambda s, d, p: isinstance(p, VmAck))
        # B now sends its own value to A; the transfer carries the ack.
        h.send_value("B", "A", "y", 1)
        h.flush()
        assert h.managers["A"].outgoing["B"].cumulative_acked == 1


class TestOneMessagePerRecord:
    """A create record's entries leave as one real message per
    destination, and are accepted as one run; duplicates and
    retransmission stay per entry."""

    def test_record_entries_share_one_transfer_per_destination(self):
        h = Harness()
        manager = h.managers["A"]
        entries = [manager.allocate_entry(dst, item, 1, "transfer", "t")
                   for dst, item in (("B", "x"), ("B", "y"), ("C", "x"))]
        manager.register_created(entries)
        assert [(dst, [entry.item for entry in p.entries])
                for _s, dst, p in h.wire] == [("B", ["x", "y"]),
                                              ("C", ["x"])]
        h.flush(drop=_to_b_and_not_c)
        assert [entry.item for _src, entry in h.accepted["B"]] == ["x", "y"]
        h.flush(drop=_to_b_and_not_c)  # one cumulative ack
        assert manager.outgoing["B"].cumulative_acked == 2

    def test_retransmission_is_per_entry(self):
        h = Harness(retransmit_period=5.0)
        h.send_values("A", "B", (("x", 1), ("y", 2)))
        h.wire.clear()  # lost
        sends = _sends_to_b(h)
        h.sim.run_until(5.0)
        assert sends == [(5.0, 1), (5.0, 2)]
        assert [len(p.entries) for _s, _d, p in h.wire] == [1, 1]

    def test_duplicate_transfer_is_discarded_whole_and_reacked(self):
        h = Harness()
        h.send_values("A", "B", (("x", 1), ("y", 2)))
        (transfer,) = [p for _s, _d, p in h.wire]
        h.flush()
        h.wire.clear()  # B's ack is lost
        h.managers["B"].on_transfer(transfer)  # the network duplicated it
        assert [entry.amount for _s, entry in h.accepted["B"]] == [1, 2]
        assert duplicates(h, "B", "A") == 2
        assert [(d, p.cumulative) for _s, d, p in h.wire
                if isinstance(p, VmAck)] == [("A", 2)]

    def test_transfer_after_a_gap_is_buffered(self):
        h = Harness()
        h.send_value("A", "B", "x", 1)
        h.wire.clear()  # seq 1 lost
        h.send_values("A", "B", (("x", 2), ("y", 3)))
        h.flush()
        channel = h.managers["B"].incoming["A"]
        assert h.accepted["B"] == [] and sorted(channel.pending) == [2, 3]
        h.sim.run_until(5.0)  # seq 1 is resent
        h.flush()
        assert [entry.amount for _s, entry in h.accepted["B"]] == [1, 2, 3]


class TestAcceptRuns:
    """The fresh entries one real message carried are accepted as one
    run: the site takes the lock-free prefix, and the rest waits as a
    run. Entries of separate messages are never joined."""

    def test_one_message_is_one_run(self):
        h = Harness()
        h.send_values("A", "B", (("x", 1), ("y", 2), ("z", 3)))
        h.flush()
        assert h.runs["B"] == [(1, 2, 3)]
        assert h.managers["B"].incoming["A"].cumulative_accepted == 3

    def test_prefix_stops_at_a_locked_item_and_the_rest_waits_as_a_run(self):
        h = Harness()
        h.locked["B"] = {"y"}
        h.send_values("A", "B", (("x", 1), ("y", 2), ("z", 3)))
        h.flush()
        channel = h.managers["B"].incoming["A"]
        assert h.runs["B"] == [(1,)]
        assert channel.cumulative_accepted == 1
        assert sorted(channel.pending) == [2, 3] and channel.runs == {2: 3}
        h.flush()  # the ack covers the prefix only
        assert h.managers["A"].outgoing["B"].cumulative_acked == 1
        h.locked["B"] = set()
        h.managers["B"].poke()
        assert h.runs["B"] == [(1,), (2, 3)]
        assert not channel.pending and not channel.runs

    def test_a_locked_head_takes_nothing(self):
        h = Harness()
        h.locked["B"] = {"x"}
        h.send_values("A", "B", (("x", 1), ("y", 2)))
        h.flush()
        channel = h.managers["B"].incoming["A"]
        assert h.runs["B"] == [] and channel.runs == {1: 2}
        h.locked["B"] = set()
        h.managers["B"].poke()
        assert h.runs["B"] == [(1, 2)]

    def test_gap_fill_accepts_one_run_per_message(self):
        h = Harness(retransmit_period=5.0)
        h.send_value("A", "B", "x", 1)
        h.wire.clear()  # seq 1 lost
        h.send_values("A", "B", (("x", 2), ("y", 3)))
        h.send_values("A", "B", (("x", 4), ("y", 5)))
        h.send_value("A", "B", "z", 6)
        h.flush()
        assert h.runs["B"] == []
        h.sim.run_until(5.0)  # seq 1 is resent, alone
        h.flush()
        assert h.runs["B"] == [(1,), (2, 3), (4, 5), (6,)]

    def test_duplicate_of_a_waiting_run_keeps_it_one_run(self):
        h = Harness()
        h.locked["B"] = {"x"}
        h.send_values("A", "B", (("x", 1), ("y", 2)))
        (transfer,) = [p for _s, _d, p in h.wire]
        h.flush()
        h.managers["B"].on_transfer(transfer)  # the network duplicated it
        h.locked["B"] = set()
        h.managers["B"].poke()
        assert h.runs["B"] == [(1, 2)]
        assert [entry.amount for _s, entry in h.accepted["B"]] == [1, 2]

    def test_the_run_is_retired_before_any_entry_is_told(self):
        h = Harness()
        manager = h.managers["B"]
        calls = []
        manager.on_absorbed = lambda src, e: calls.append(("told", e.item))
        manager.on_accepted = lambda src, e: calls.append(("books", e.item))
        h.send_values("A", "B", (("x", 1), ("y", 2)))
        h.flush()
        assert calls == [("books", "x"), ("books", "y"),
                         ("told", "x"), ("told", "y")]


class TestRefusalAndPoke:
    def test_locked_item_leaves_vm_pending(self):
        h = Harness()
        h.refuse["B"] = True
        h.send_value("A", "B", "x", 5)
        h.flush()
        assert h.accepted["B"] == []
        assert h.managers["B"].incoming["A"].pending

    def test_poke_retries_pending_head(self):
        h = Harness()
        h.refuse["B"] = True
        h.send_value("A", "B", "x", 5)
        h.flush()
        h.refuse["B"] = False
        h.managers["B"].poke()
        assert len(h.accepted["B"]) == 1

    def test_head_of_line_blocks_later_messages(self):
        h = Harness()
        h.refuse["B"] = True
        h.send_value("A", "B", "x", 1)
        h.flush()
        h.refuse["B"] = False
        h.send_value("A", "B", "x", 2)
        h.flush()
        # Seq 2 cannot be absorbed before seq 1; both land on the poke.
        assert [entry.amount for _s, entry in h.accepted["B"]] == [1, 2]

    def test_refused_head_not_consumed(self):
        h = Harness()
        h.refuse["B"] = True
        h.send_value("A", "B", "x", 5)
        h.flush()
        channel = h.managers["B"].incoming["A"]
        assert channel.cumulative_accepted == 0
        assert 1 in channel.pending


class TestDrainOrder:
    """A backlog drains in the order each source's first Vm reached the
    site; sending toward a peer opens no channel from it."""

    def test_release_drains_in_first_arrival_order(self):
        h = Harness()
        h.locked["A"] = {"x"}
        h.send_value("A", "B", "y", 1)  # A sends to B first...
        assert "B" not in h.managers["A"].incoming
        from_c = VmEntry(dst="A", item="x", amount=2, channel_seq=1)
        h.managers["A"].on_transfer(VmTransfer("C", (from_c,), 0, 1))
        h.send_value("B", "A", "x", 3)  # ...then hears from C, then B
        h.flush(drop=lambda src, dst, payload: dst != "A")
        assert list(h.managers["A"].incoming) == ["C", "B"]
        assert h.accepted["A"] == []  # both back up behind the lock
        h.locked["A"] = set()
        h.managers["A"].poke()
        assert [(src, entry.amount) for src, entry in h.accepted["A"]] \
            == [("C", 2), ("B", 3)]

    def test_acks_and_piggybacks_open_no_channel(self):
        h = Harness()
        h.send_value("A", "B", "x", 1)
        h.flush()  # B accepts and acks; A sent, but received nothing
        h.flush()
        assert h.managers["A"].outgoing["B"].cumulative_acked == 1
        assert "B" not in h.managers["A"].incoming
        assert "A" not in h.managers["B"].outgoing
        assert h.managers["A"].accepted_from("B") == 0
        assert "B" not in h.managers["A"].incoming


class TestOutstanding:
    def test_has_outstanding_tracks_item(self):
        h = Harness()
        h.send_value("A", "B", "x", 5)
        assert h.managers["A"].has_outstanding("x")
        assert not h.managers["A"].has_outstanding("y")
        h.flush()
        h.flush()
        assert not h.managers["A"].has_outstanding("x")

    def test_ack_progress_prunes_acked_entries(self):
        """Regression: acked entries must leave memory without anyone
        calling prune() by hand — pre-fix, OutgoingChannel.prune existed
        but had no caller, so every Vm ever sent stayed resident."""
        h = Harness()
        h.send_value("A", "B", "x", 5)
        h.flush()  # transfer delivered
        channel = h.managers["A"].outgoing["B"]
        assert channel.entries  # unacked: must be retained
        h.flush()  # ack delivered — prune happens on ack progress
        assert channel.cumulative_acked == 1
        assert not channel.entries

    def test_long_channel_memory_stays_bounded(self):
        """Many acked sends must not accumulate entries (memory bound)."""
        h = Harness()
        for i in range(200):
            h.send_value("A", "B", "x", 1)
            h.flush()
            h.flush()
        channel = h.managers["A"].outgoing["B"]
        assert channel.cumulative_acked == 200
        assert len(channel.entries) == 0

    def test_ack_for_unknown_channel_is_ignored(self):
        """Regression: a stray ack from a peer A never sent to must not
        fabricate an OutgoingChannel with cumulative_acked ahead of
        next_seq — pre-fix that made A's first real sends to that peer
        look already-acked, so the retransmission timer never covered
        them and a lost first transmission lost the value forever."""
        h = Harness(retransmit_period=5.0)
        manager = h.managers["A"]
        # Stale duplicate from an old incarnation of some peer C.
        manager.on_ack(VmAck(src="C", cumulative=7, ts=1))
        assert "C" not in manager.outgoing
        # Now A really sends to C; the first transmission is lost.
        entry = manager.allocate_entry("C", "x", 5, "transfer", "t")
        manager.register_created([entry])
        h.wire.clear()  # initial transmission lost
        assert manager.outgoing["C"].unacked(), \
            "entry must still be outstanding (pre-fix: looked acked)"
        h.sim.run_until(5.0)  # retransmission timer must re-send it
        assert any(isinstance(p, VmTransfer) and d == "C"
                   for _s, d, p in h.wire)

    def test_instrumentation_times(self):
        h = Harness()
        h.send_value("A", "B", "x", 5)
        h.sim.run_until(2.0)  # two units on the (fake) wire
        h.flush()
        metrics = h.sim.metrics
        assert metrics.total("vm.created") == 1
        assert {tuple(sorted(hist.labels)): hist.values.tolist()
                for hist in metrics.histograms("vm.delivery")
                if hist.values} \
            == {(("dst", "B"), ("src", "A")): [2.0]}


class TestReentrancy:
    def test_accept_may_reenter_drain_without_double_absorb(self):
        h = Harness()
        manager_b = h.managers["B"]
        absorbed = []

        def accept(run, src):
            absorbed.extend(entry.channel_seq for entry in run)
            manager_b.drain(src)  # re-entrant poke from inside accept
            return len(run)

        manager_b._accept = accept
        for amount in (1, 2, 3):
            h.send_value("A", "B", "x", amount)
        h.flush()
        assert absorbed == [1, 2, 3]


SRC_DIR = pathlib.Path(__file__).parent.parent / "src"


class TestAccountingCheck:
    """check_accounting() is what the suite's workload checks and the
    tests lean on; it must fail on drift under ``python -O`` too."""

    def test_drift_raises(self):
        h = Harness()
        h.send_value("A", "B", "x", 5)
        manager = h.managers["A"]
        assert manager.check_accounting()
        manager._live_total += 1
        with pytest.raises(AssertionError, match="live total drifted"):
            manager.check_accounting()

    def test_drift_raises_under_python_optimize(self):
        script = (
            "from repro.core.vm import VmManager\n"
            "from repro.sim.kernel import Simulator\n"
            "assert False, 'asserts are live: not running under -O'\n"
            "m = VmManager('A', Simulator(1), send=lambda d, p: None,\n"
            "              accept=lambda e, s: True, clock_ts=lambda: 0)\n"
            "m.register_created([m.allocate_entry('B', 'x', 5, 't', 't')])\n"
            "m._live_by_item['x'] += 1\n"
            "try:\n"
            "    m.check_accounting()\n"
            "except AssertionError as error:\n"
            "    print('raised:', error)\n"
            "else:\n"
            "    print('passed')\n")
        env = dict(os.environ, PYTHONPATH=str(SRC_DIR))
        proc = subprocess.run([sys.executable, "-O", "-c", script],
                              capture_output=True, text=True, env=env,
                              check=True)
        assert proc.stdout.startswith("raised: per-item drifted"), \
            proc.stdout

    def test_no_assert_statement_under_src(self):
        """``python -O`` strips ``assert``: a check the program relies
        on raises explicitly instead."""
        found = [f"{path.relative_to(SRC_DIR)}:{node.lineno}"
                 for path in sorted(SRC_DIR.rglob("*.py"))
                 for node in ast.walk(ast.parse(path.read_text()))
                 if isinstance(node, ast.Assert)]
        assert found == []
