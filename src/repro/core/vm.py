"""The Virtual Message protocol (Section 4.2).

A Vm *comes into existence* when the sender forces a log record
``[database-actions, message-sequence]`` and *ceases to exist* when the
receiver forces ``[database-actions]`` recording its acceptance. In
between, any number of real messages may carry it; the channel machinery
here (per-pair FIFO sequence numbers, cumulative acknowledgements —
piggybacked and explicit — periodic retransmission, duplicate discard,
in-order buffering) guarantees the value is never lost and never
absorbed twice, whatever the links do.

The manager is deliberately ignorant of transactions and locks: the
owning site supplies an ``accept`` callback that either absorbs a Vm
(forcing the accept record) or refuses it because the target fragment is
locked by an unrelated transaction — in which case the Vm simply stays
pending and is retried on the next poke or retransmission, exactly the
paper's "if it is locked, the message can be ignored; it will eventually
be sent again anyway".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator, Sequence

from repro.core.messages import VmAck, VmTransfer
from repro.obs.events import (
    VmAccept,
    VmAckSent,
    VmCreate,
    VmDuplicateDiscard,
    VmRetransmit,
    VmTransmit,
)
from repro.sim.timers import PeriodicTimer
from repro.storage.records import VmEntry

#: Shared empty result for no-progress acks (avoids one allocation per
#: piggybacked ack repeat).
_NO_ENTRIES: tuple = ()


@dataclass
class OutgoingChannel:
    """Sender-side state of the FIFO channel to one destination."""

    dst: str
    next_seq: int = 1
    cumulative_acked: int = 0
    entries: dict[int, VmEntry] = field(default_factory=dict)
    retransmissions: int = 0
    highest_sent: int = 0

    def allocate(self) -> int:
        seq = self.next_seq
        self.next_seq += 1
        return seq

    def unacked(self) -> list[VmEntry]:
        return [entry for seq, entry in sorted(self.entries.items())
                if seq > self.cumulative_acked]

    def ack(self, cumulative: int) -> Sequence[VmEntry]:
        """Advance the cumulative ack; returns entries newly confirmed.

        Progress immediately prunes confirmed entries so channel memory
        (and every ``unacked()`` scan) stays proportional to the
        *in-flight* Vm count, not to everything ever sent. The pruned
        entries come back so the owning manager can keep its O(1)
        live-Vm counters exact without rescanning. No-progress acks
        (piggyback repeats) are the common case, hence the shared empty
        result.
        """
        if cumulative <= self.cumulative_acked:
            return _NO_ENTRIES
        self.cumulative_acked = cumulative
        return self.prune()

    def prune(self) -> list[VmEntry]:
        """Drop (and return) entries whose acceptance is confirmed."""
        pruned = [entry for seq, entry in self.entries.items()
                  if seq <= self.cumulative_acked]
        for entry in pruned:
            del self.entries[entry.channel_seq]
        return pruned


@dataclass
class IncomingChannel:
    """Receiver-side state of the FIFO channel from one source."""

    src: str
    cumulative_accepted: int = 0
    pending: dict[int, VmEntry] = field(default_factory=dict)
    duplicates_discarded: int = 0


class VmManager:
    """Per-site engine driving every virtual message's lifespan."""

    def __init__(self, site: str, sim, send: Callable[[str, object], None],
                 accept: Callable[[VmEntry, str], bool],
                 clock_ts: Callable[[], int],
                 retransmit_period: float = 5.0,
                 on_created: Callable[[VmEntry], None] | None = None,
                 on_accepted: Callable[[str, VmEntry], None] | None = None,
                 coalesce_acks: bool = False) -> None:
        """*coalesce_acks* defers explicit acks to the end of the current
        kernel event and suppresses them entirely when a data message to
        the same peer already left this instant carrying the same (or a
        newer) cumulative value in its piggyback field — the paper's
        "piggybacked onto regular messages" discipline taken literally.
        Correctness is unaffected either way: acks are idempotent
        hints, and the retransmission timer covers any that are elided
        or lost."""
        self.site = site
        self.sim = sim
        self._send = send
        self._accept = accept
        self._clock_ts = clock_ts
        #: Lifecycle hooks for the incremental conservation accounting:
        #: fired exactly once per Vm — at the create-record instant and
        #: at the accept-record instant. Recovery rebuilds channel state
        #: directly (the Vm already existed), so it fires neither.
        self.on_created = on_created
        self.on_accepted = on_accepted
        self.outgoing: dict[str, OutgoingChannel] = {}
        self.incoming: dict[str, IncomingChannel] = {}
        # Observability (docs/OBSERVABILITY.md): typed trace events go
        # through the simulation's bus; counters live in its metrics
        # registry, so they survive VmManager rebuilds across recovery.
        self._obs = sim.obs
        metrics = sim.metrics
        self._metrics = metrics
        self._c_created = metrics.counter("vm.created", site=site)
        self._c_accepted = metrics.counter("vm.accepted", site=site)
        self._c_acks = metrics.counter("vm.acks", site=site)
        self._c_suppressed = metrics.counter("vm.acks_suppressed",
                                             site=site)
        self._c_retx: dict[str, object] = {}
        self._c_dup: dict[str, object] = {}
        self._h_delivery: dict[str, object] = {}
        self._timer = PeriodicTimer(sim, retransmit_period,
                                    self._retransmit_tick,
                                    label=f"vm-retx:{site}")
        # Accepting a Vm can complete a transaction, whose lock release
        # pokes the channels again from inside the accept callback; the
        # work queue below makes drain re-entrancy safe (a nested call
        # only enqueues, the outer loop does the absorbing). A deque:
        # chaos runs push hundreds of channels through one drain, and a
        # list-head pop(0) is O(queue) each time.
        self._drain_queue: deque[str] = deque()
        self._draining = False
        #: Sources with a Vm buffered — all poke() has to look at. A
        #: source joins when on_transfer buffers for it and leaves when
        #: a drain finds its buffer empty, so this is never short of one.
        self._backlog: set[str] = set()
        # O(1) live-Vm accounting. Invariant: every OutgoingChannel's
        # ``entries`` dict holds exactly its live (unacked) entries —
        # ack() prunes confirmed ones on the spot, and recovery rebuilds
        # channels from cumulative_acked=0 — so these counters mirror
        # the old O(live Vm) unacked() scans exactly. check_accounting()
        # cross-checks the two under __debug__.
        self._live_total = 0
        self._live_by_item: dict[str, int] = {}
        # Ack coalescing state (see __init__ docstring): peers owed an
        # explicit ack this instant, and the (time, cumulative) of the
        # last piggyback that left toward each peer.
        self._coalesce = coalesce_acks
        self._ack_due: dict[str, None] = {}
        self._piggyback_sent: dict[str, tuple[float, int]] = {}

    # -- channel access -----------------------------------------------------

    def out_channel(self, dst: str) -> OutgoingChannel:
        if dst not in self.outgoing:
            self.outgoing[dst] = OutgoingChannel(dst)
            self._c_retx[dst] = self._metrics.counter(
                "vm.retransmissions", site=self.site, peer=dst)
        return self.outgoing[dst]

    def in_channel(self, src: str) -> IncomingChannel:
        if src not in self.incoming:
            self.incoming[src] = IncomingChannel(src)
            self._c_dup[src] = self._metrics.counter(
                "vm.duplicates", site=self.site, peer=src)
            self._h_delivery[src] = self._metrics.histogram(
                "vm.delivery", src=src, dst=self.site)
        return self.incoming[src]

    # -- sender side ----------------------------------------------------------

    def allocate_entry(self, dst: str, item: str, amount, kind: str,
                       txn_id: str) -> VmEntry:
        """Reserve the next channel sequence number for a new Vm.

        The entry is not live until the caller logs it (the Vm exists
        from the moment the create record hits stable storage) and then
        calls :meth:`register_created`.
        """
        channel = self.out_channel(dst)
        return VmEntry(dst=dst, item=item, amount=amount,
                       channel_seq=channel.allocate(), kind=kind,
                       txn_id=txn_id)

    def register_created(self, entries: Iterator[VmEntry] | list[VmEntry],
                         transmit: bool = True) -> None:
        """Track logged entries as live and (optionally) transmit them."""
        now = self.sim.now
        for entry in entries:
            channel = self.out_channel(entry.dst)
            channel.entries[entry.channel_seq] = entry
            self._note_live(entry)
            self._c_created.value += 1
            self._metrics.mark(("vm", self.site, entry.dst,
                                entry.channel_seq), now)
            if self._obs.enabled:
                self._obs.emit(VmCreate(
                    t=now, site=self.site, dst=entry.dst,
                    item=entry.item, seq=entry.channel_seq,
                    amount=entry.amount, vm_kind=entry.kind,
                    txn=entry.txn_id))
            if self.on_created is not None:
                self.on_created(entry)
            if transmit:
                self._transmit(entry)
                channel.highest_sent = max(channel.highest_sent,
                                           entry.channel_seq)
        self._ensure_timer()

    def has_outstanding(self, item: str) -> bool:
        """Any live (unaccepted) outgoing Vm for *item*? O(1).

        This is the guard on honoring read requests: a full read must
        observe every fragment, so a site that still owes value
        elsewhere cannot claim its fragment is the whole local story.
        """
        return self._live_by_item.get(item, 0) > 0

    def unacked_count(self) -> int:
        """Live (unacked) outgoing Vm across all channels. O(1)."""
        return self._live_total

    def _note_live(self, entry: VmEntry) -> None:
        self._live_total += 1
        self._live_by_item[entry.item] = \
            self._live_by_item.get(entry.item, 0) + 1

    def _note_dead(self, entry: VmEntry) -> None:
        self._live_total -= 1
        remaining = self._live_by_item[entry.item] - 1
        if remaining:
            self._live_by_item[entry.item] = remaining
        else:
            del self._live_by_item[entry.item]

    def restore_entry(self, entry: VmEntry) -> None:
        """Re-insert a live entry during recovery (no create record —
        the Vm already exists). Duplicate sequence numbers are ignored:
        a checkpointed entry and its create record describe the same
        Vm."""
        channel = self.out_channel(entry.dst)
        if entry.channel_seq in channel.entries:
            return
        channel.entries[entry.channel_seq] = entry
        self._note_live(entry)

    def check_accounting(self) -> bool:
        """Cross-check the O(1) counters against the full channel scan.

        Called from tests and (under ``__debug__``) at checkpoint time;
        raises AssertionError on any drift.
        """
        total = sum(len(channel.unacked())
                    for channel in self.outgoing.values())
        assert total == self._live_total, \
            f"live total drifted: scan={total} counter={self._live_total}"
        by_item: dict[str, int] = {}
        for channel in self.outgoing.values():
            for entry in channel.unacked():
                by_item[entry.item] = by_item.get(entry.item, 0) + 1
        assert by_item == self._live_by_item, \
            f"per-item drifted: scan={by_item} counter={self._live_by_item}"
        return True

    def _transmit(self, entry: VmEntry, retransmit: bool = False) -> None:
        if self._obs.enabled:
            event_type = VmRetransmit if retransmit else VmTransmit
            self._obs.emit(event_type(t=self.sim.now, site=self.site,
                                      dst=entry.dst,
                                      seq=entry.channel_seq))
        piggyback = self.in_channel(entry.dst).cumulative_accepted
        self._piggyback_sent[entry.dst] = (self.sim.now, piggyback)
        self._send(entry.dst, VmTransfer(src=self.site, entry=entry,
                                         piggyback_ack=piggyback,
                                         ts=self._clock_ts()))

    def _retransmit_tick(self) -> None:
        live = 0
        for channel in self.outgoing.values():
            if not channel.entries:
                continue  # nothing live: unacked() would sort nothing
            for entry in channel.unacked():
                retransmit = entry.channel_seq <= channel.highest_sent
                if retransmit:
                    channel.retransmissions += 1
                    self._c_retx[channel.dst].inc()
                channel.highest_sent = max(channel.highest_sent,
                                           entry.channel_seq)
                live += 1
                self._transmit(entry, retransmit=retransmit)
        if live == 0:
            self._timer.stop()

    def _ensure_timer(self) -> None:
        if self._live_total > 0:
            self._timer.start()

    def tick_now(self) -> None:
        """Fire the retransmission tick immediately (clock-skew hook).

        Equivalent to the periodic timer having fired early: every
        live Vm is re-sent right now. The periodic schedule itself is
        untouched.
        """
        self._retransmit_tick()
        self._ensure_timer()

    def start(self) -> None:
        """(Re)arm retransmission after construction or recovery."""
        self._ensure_timer()

    def stop(self) -> None:
        self._timer.stop()

    def close(self) -> None:
        """Stop for good and release the owning site: the timer's
        action is this manager's bound method, and the five callbacks
        are the site's — which holds the manager. Called when recovery
        replaces the manager and when the system closes; channel state,
        counters and the E3 timestamps stay readable."""
        self._timer.close()
        self._send = self._accept = self._clock_ts = None
        self.on_created = self.on_accepted = None

    # -- receiver side --------------------------------------------------------

    def on_transfer(self, transfer: VmTransfer) -> None:
        """Handle a real message: ack bookkeeping, dedup, in-order accept."""
        self.on_ack(VmAck(src=transfer.src,
                          cumulative=transfer.piggyback_ack,
                          ts=transfer.ts))
        channel = self.in_channel(transfer.src)
        seq = transfer.entry.channel_seq
        if seq <= channel.cumulative_accepted:
            # Duplicate (retransmission of something already absorbed):
            # discard, but re-ack so the sender can stop retransmitting.
            channel.duplicates_discarded += 1
            self._c_dup[transfer.src].inc()
            if self._obs.enabled:
                self._obs.emit(VmDuplicateDiscard(
                    t=self.sim.now, site=self.site, src=transfer.src,
                    seq=seq))
            self._send_ack(transfer.src)
            return
        channel.pending[seq] = transfer.entry
        self._backlog.add(transfer.src)
        self.drain(transfer.src)

    def drain(self, src: str) -> None:
        """Absorb buffered messages strictly in sequence order."""
        self._drain_queue.append(src)
        if self._draining:
            return
        self._draining = True
        try:
            while self._drain_queue:
                self._drain_one(self._drain_queue.popleft())
        finally:
            self._draining = False

    def _drain_one(self, src: str) -> None:
        channel = self.in_channel(src)
        progressed = False
        while True:
            next_seq = channel.cumulative_accepted + 1
            entry = channel.pending.get(next_seq)
            if entry is None:
                break
            # Claim the sequence number BEFORE the accept callback runs:
            # acceptance may re-enter drain (commit -> release -> poke)
            # and must never see this entry as pending again.
            del channel.pending[next_seq]
            channel.cumulative_accepted = next_seq
            if not self._accept(entry, src):
                # Target fragment locked by an unrelated transaction;
                # put the message back (head-of-line wait).
                channel.pending[next_seq] = entry
                channel.cumulative_accepted = next_seq - 1
                break
            now = self.sim.now
            self._c_accepted.value += 1
            elapsed = self._metrics.elapsed_since_mark(
                ("vm", src, self.site, next_seq), now)
            if elapsed is not None:
                self._h_delivery[src].observe(elapsed)
            if self._obs.enabled:
                self._obs.emit(VmAccept(t=now, site=self.site,
                                        src=src, item=entry.item,
                                        seq=next_seq))
            if self.on_accepted is not None:
                self.on_accepted(src, entry)
            progressed = True
        if not channel.pending:
            self._backlog.discard(src)
        if progressed:
            self._send_ack(src)

    def poke(self) -> None:
        """Retry pending heads on every channel (called on lock release).

        Channels with nothing buffered are skipped: draining them is a
        no-op (no accept, no ack). Lock releases are frequent and a
        backlog is rare, so the common poke looks at no channel at all;
        a backlog is visited in channel-creation order, as ever.
        """
        backlog = self._backlog
        if not backlog:
            return
        for src in [src for src in self.incoming if src in backlog]:
            if self.incoming[src].pending:
                self.drain(src)

    def on_ack(self, ack: VmAck) -> None:
        channel = self.outgoing.get(ack.src)
        if channel is None:
            # An ack for a channel this site (per its stable state)
            # never sent on — e.g. a stale duplicate from before a peer
            # was rebuilt. Fabricating the channel here would leave
            # cumulative_acked ahead of next_seq, so the first real
            # sends would look already-acked and silently fall out of
            # retransmission. Ignore it; acks carry no value.
            return
        for entry in channel.ack(ack.cumulative):
            self._note_dead(entry)

    def _send_ack(self, dst: str) -> None:
        """Send — or, with coalescing on, schedule — an explicit ack.

        Coalescing defers the send to the end of the current kernel
        event so it can see every message the event produced: if a data
        message to *dst* already left this instant with an up-to-date
        piggyback, the explicit ack is redundant and suppressed.
        Outside event execution (defer unavailable) the ack goes out
        immediately, exactly as without coalescing.
        """
        if self._coalesce:
            if self._ack_due:
                # A flush for this instant is already queued.
                self._ack_due[dst] = None
                return
            if self.sim.defer_to_event_end(self._flush_acks):
                self._ack_due[dst] = None
                return
        self._send_ack_now(dst)

    def _flush_acks(self) -> None:
        due = list(self._ack_due)
        self._ack_due.clear()
        now = self.sim.now
        for dst in due:
            record = self._piggyback_sent.get(dst)
            if record is not None and record[0] == now and \
                    record[1] >= self.in_channel(dst).cumulative_accepted:
                self._c_suppressed.inc()
                continue
            self._send_ack_now(dst)

    def _send_ack_now(self, dst: str) -> None:
        self._c_acks.inc()
        cumulative = self.in_channel(dst).cumulative_accepted
        if self._obs.enabled:
            self._obs.emit(VmAckSent(t=self.sim.now, site=self.site,
                                     dst=dst, cumulative=cumulative))
        self._send(dst, VmAck(src=self.site, cumulative=cumulative,
                              ts=self._clock_ts()))
