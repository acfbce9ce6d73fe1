"""The Virtual Message protocol (Section 4.2).

A Vm *comes into existence* when the sender forces a log record
``[database-actions, message-sequence]`` and *ceases to exist* when the
receiver forces ``[database-actions]`` recording its acceptance. In
between, any number of real messages may carry it; the channel machinery
here (per-pair FIFO sequence numbers, cumulative acknowledgements —
piggybacked and explicit — periodic retransmission, duplicate discard,
in-order buffering) guarantees the value is never lost and never
absorbed twice, whatever the links do. A live Vm is resent once it has
gone a full period unacknowledged; one sent less than a period ago
waits for the next tick.

The manager is deliberately ignorant of transactions and locks: the
owning site supplies an ``accept`` callback that absorbs a *run* — the
in-order entries one real message delivered — forcing one accept
record for the longest prefix it can take, and says how many that was.
An entry whose target fragment is locked by an unrelated transaction
stops the run: it and the entries behind it simply stay pending and are
retried, as the rest of the run, on the next poke or retransmission —
exactly the paper's "if it is locked, the message can be ignored; it
will eventually be sent again anyway".
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from itertools import takewhile
from typing import Callable, Sequence

from repro.core.messages import VmAck, VmTransfer
from repro.obs.registry import CounterMetric, HistogramMetric
from repro.sim.timers import PeriodicTimer
from repro.storage.records import VmEntry

#: Shared empty result for no-progress acks (avoids one allocation per
#: piggybacked ack repeat).
_NO_ENTRIES: tuple = ()


@dataclass(slots=True)
class OutgoingChannel:
    """Sender-side state of the FIFO channel to one destination."""

    dst: str
    next_seq: int = 1
    cumulative_acked: int = 0
    #: The live entries, ascending and all above ``cumulative_acked``:
    #: they join in allocation order (on recovery, in log order from an
    #: ack of 0), and ack progress prunes them from the front.
    entries: dict[int, VmEntry] = field(default_factory=dict)
    #: Time of each live entry's last transmission; an entry absent
    #: here has never been sent (created with ``transmit=False`` or
    #: restored by recovery).
    sent_at: dict[int, float] = field(default_factory=dict)
    #: This pair's registry row, registered on its first count.
    retx_counter: CounterMetric | None = None  # vm.retransmissions

    def unacked(self) -> list[VmEntry]:
        return list(self.entries.values())

    def ack(self, cumulative: int) -> Sequence[VmEntry]:
        """Advance the cumulative ack; returns entries newly confirmed.

        Progress immediately prunes confirmed entries — a prefix of
        ``entries`` — so channel memory stays proportional to the
        *in-flight* Vm count, not to everything ever sent. The pruned
        entries come back so the owning manager can keep its O(1)
        live-Vm counters exact without rescanning. No-progress acks
        (piggyback repeats) are the common case, hence the shared empty
        result.
        """
        if cumulative <= self.cumulative_acked:
            return _NO_ENTRIES
        self.cumulative_acked = cumulative
        pruned = list(takewhile(lambda entry: entry.channel_seq
                                <= cumulative, self.entries.values()))
        for entry in pruned:
            del self.entries[entry.channel_seq]
            self.sent_at.pop(entry.channel_seq, None)
        return pruned


@dataclass(slots=True)
class IncomingChannel:
    """Receiver-side state of the FIFO channel from one source."""

    src: str
    cumulative_accepted: int = 0
    pending: dict[int, VmEntry] = field(default_factory=dict)
    #: First -> last sequence number of each buffered run: entries one
    #: real message carried, accepted together. A pending entry that
    #: starts no run here is accepted on its own.
    runs: dict[int, int] = field(default_factory=dict)
    #: This pair's registry rows, each registered on its first count.
    dup_counter: CounterMetric | None = None  # vm.duplicates
    delivery_histogram: HistogramMetric | None = None  # vm.delivery


class VmManager:
    """Per-site engine driving every virtual message's lifespan."""

    def __init__(self, site: str, sim, send: Callable[[str, object], None],
                 accept: Callable[[tuple[VmEntry, ...], str], int],
                 clock_ts: Callable[[], int],
                 retransmit_period: float = 5.0,
                 on_created: Callable[[VmEntry], None] | None = None,
                 on_accepted: Callable[[str, VmEntry], None] | None = None,
                 coalesce_acks: bool = False,
                 on_absorbed: Callable[[str, VmEntry], None] | None = None
                 ) -> None:
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
        #: with restore() (the Vm already existed), so it fires neither.
        #: Of an accepted run, every entry fires *on_accepted* first,
        #: then each in turn fires *on_absorbed* (the site tells the
        #: transaction it feeds).
        self.on_created = on_created
        self.on_accepted = on_accepted
        self.on_absorbed = on_absorbed
        #: Opened by the protocol alone: an outgoing channel by its first
        #: allocated entry, an incoming one by its first Vm, either by
        #: recovery's restore(). Other modules only read them.
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
        # O(1) live-Vm accounting: these mirror a scan of every
        # channel's ``entries``, which check_accounting() cross-checks
        # under __debug__.
        self._live_total = 0
        self._live_by_item: dict[str, int] = {}
        # Ack coalescing state (see __init__ docstring): peers owed an
        # explicit ack this instant, and the (time, cumulative) of the
        # last piggyback that left toward each peer.
        self._coalesce = coalesce_acks
        self._ack_due: dict[str, None] = {}
        self._piggyback_sent: dict[str, tuple[float, int]] = {}

    # -- channel access -----------------------------------------------------

    def _out_channel(self, dst: str) -> OutgoingChannel:
        channel = self.outgoing.get(dst)
        if channel is None:
            channel = self.outgoing[dst] = OutgoingChannel(dst)
        return channel

    def _in_channel(self, src: str) -> IncomingChannel:
        channel = self.incoming.get(src)
        if channel is None:
            channel = self.incoming[src] = IncomingChannel(src)
        return channel

    def accepted_from(self, src: str) -> int:
        """Sequence number up to which this site has accepted *src*'s
        Vm: 0 before the first arrives. Reads; opens no channel."""
        channel = self.incoming.get(src)
        return 0 if channel is None else channel.cumulative_accepted

    def snapshot(self) -> tuple[tuple, tuple, tuple]:
        """A checkpoint's channel state, :meth:`restore`'s arguments:
        the live entries, each source's accepted-up-to and each
        destination's next sequence number."""
        return (
            tuple(entry for channel in self.outgoing.values()
                  for entry in channel.entries.values()),
            tuple((src, channel.cumulative_accepted)
                  for src, channel in sorted(self.incoming.items())),
            tuple((dst, channel.next_seq)
                  for dst, channel in sorted(self.outgoing.items())))

    def restore(self, entries: Sequence[VmEntry] = (),
                accepted: Sequence[tuple[str, int]] = (),
                next_seqs: Sequence[tuple[str, int]] = ()) -> None:
        """Recovery: rebuild channel state from a :meth:`snapshot` or
        one log record, forcing nothing. Sequence numbers only rise; a
        live entry named again (by a checkpoint and its create record)
        is skipped. Channels open in the order given, *next_seqs*
        first."""
        for dst, next_seq in next_seqs:
            channel = self._out_channel(dst)
            channel.next_seq = max(channel.next_seq, next_seq)
        for entry in entries:
            channel = self._out_channel(entry.dst)
            seq = entry.channel_seq
            channel.next_seq = max(channel.next_seq, seq + 1)
            if seq not in channel.entries:
                channel.entries[seq] = entry
                self._note_live(entry)
        for src, seq in accepted:
            channel = self._in_channel(src)
            channel.cumulative_accepted = max(channel.cumulative_accepted,
                                              seq)

    # -- sender side ----------------------------------------------------------

    def allocate_entry(self, dst: str, item: str, amount, kind: str,
                       txn_id: str) -> VmEntry:
        """Reserve the next channel sequence number for a new Vm.

        The entry is not live until the caller logs it (the Vm exists
        from the moment the create record hits stable storage) and then
        calls :meth:`register_created`.
        """
        channel = self._out_channel(dst)
        channel.next_seq += 1
        return VmEntry(dst=dst, item=item, amount=amount,
                       channel_seq=channel.next_seq - 1, kind=kind,
                       txn_id=txn_id)

    def register_created(self, entries: Sequence[VmEntry],
                         transmit: bool = True) -> None:
        """Track one create record's logged entries as live and
        (optionally) transmit them: one real message per destination,
        carrying all of that destination's entries."""
        now = self.sim.now
        by_dst: dict[str, list[VmEntry]] = {}
        for entry in entries:
            by_dst.setdefault(entry.dst, []).append(entry)
        for dst, group in by_dst.items():
            channel = self._out_channel(dst)
            for entry in group:
                channel.entries[entry.channel_seq] = entry
                self._note_live(entry)
                self._c_created.value += 1
                self._metrics.mark(("vm", self.site, dst,
                                    entry.channel_seq), now)
                if self._obs.enabled:
                    self._obs.emit(
                        "vm.create", now, site=self.site, dst=dst,
                        item=entry.item, seq=entry.channel_seq,
                        amount=entry.amount, vm_kind=entry.kind,
                        txn=entry.txn_id)
                if self.on_created is not None:
                    self.on_created(entry)
                if transmit:
                    channel.sent_at[entry.channel_seq] = now
            if transmit:
                self._transmit(dst, tuple(group))
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

    def check_accounting(self) -> bool:
        """Cross-check the O(1) counters against the full channel scan,
        and every channel's entries against their order: ascending and
        all above its cumulative ack.

        Called from tests and (under ``__debug__``) at checkpoint time;
        raises AssertionError on any drift, also under ``python -O``.
        """
        total = 0
        by_item: dict[str, int] = {}
        for channel in self.outgoing.values():
            seqs = list(channel.entries)
            if seqs != sorted(seqs) or \
                    (seqs and seqs[0] <= channel.cumulative_acked):
                raise AssertionError(
                    f"entries to {channel.dst} out of order: {seqs}, "
                    f"acked up to {channel.cumulative_acked}")
            for entry in channel.entries.values():
                total += 1
                by_item[entry.item] = by_item.get(entry.item, 0) + 1
        if total != self._live_total:
            raise AssertionError(f"live total drifted: scan={total} "
                                 f"counter={self._live_total}")
        if by_item != self._live_by_item:
            raise AssertionError(f"per-item drifted: scan={by_item} "
                                 f"counter={self._live_by_item}")
        return True

    def _transmit(self, dst: str, entries: tuple[VmEntry, ...],
                  retransmit: bool = False) -> None:
        now = self.sim.now
        if self._obs.enabled:
            kind = "vm.retransmit" if retransmit else "vm.transmit"
            for entry in entries:
                self._obs.emit(kind, now, site=self.site, dst=dst,
                               seq=entry.channel_seq)
        piggyback = self.accepted_from(dst)
        self._piggyback_sent[dst] = (now, piggyback)
        self._send(dst, VmTransfer(self.site, entries, piggyback,
                                   self._clock_ts()))

    def _retransmit_tick(self, overdue_only: bool = True) -> None:
        """Send every never-sent live Vm, and resend each one whose last
        transmission is a full period old (any age if not
        *overdue_only*). Keeps the timer running while anything is
        live, even if this tick sent nothing."""
        now = self.sim.now
        period = self._timer.period
        live = 0
        for channel in self.outgoing.values():
            if not channel.entries:
                continue  # nothing live: skip the copy
            sent_at = channel.sent_at
            for entry in channel.unacked():
                live += 1
                seq = entry.channel_seq
                last = sent_at.get(seq)
                retransmit = last is not None
                if retransmit:
                    if overdue_only and last + period > now:
                        continue  # its ack is not overdue yet
                    if channel.retx_counter is None:
                        channel.retx_counter = self._metrics.counter(
                            "vm.retransmissions", site=self.site,
                            peer=channel.dst)
                    channel.retx_counter.value += 1
                sent_at[seq] = now
                self._transmit(channel.dst, (entry,), retransmit=retransmit)
        if live == 0:
            self._timer.stop()

    def _ensure_timer(self) -> None:
        if self._live_total > 0:
            self._timer.start()

    def tick_now(self) -> None:
        """Fire the retransmission tick immediately (clock-skew hook).

        Every live Vm is (re-)sent right now, however recently it last
        went out. The periodic schedule itself is untouched.
        """
        self._retransmit_tick(overdue_only=False)
        self._ensure_timer()

    def start(self) -> None:
        """(Re)arm retransmission after construction or recovery."""
        self._ensure_timer()

    def close(self) -> None:
        """Stop for good and release the owning site: the timer's
        action is this manager's bound method, and the six callbacks
        are the site's — which holds the manager. Called when recovery
        replaces the manager and when the system closes; channel state,
        counters and the E3 timestamps stay readable."""
        self._timer.close()
        self._send = self._accept = self._clock_ts = None
        self.on_created = self.on_accepted = self.on_absorbed = None

    # -- receiver side --------------------------------------------------------

    def on_transfer(self, transfer: VmTransfer) -> None:
        """Handle a real message: ack bookkeeping, then dedup and
        in-order buffering of each entry it carries. The fresh entries
        of a multi-entry message are buffered as one run."""
        src = transfer.src
        self._acked(src, transfer.piggyback_ack)
        channel = self._in_channel(src)
        duplicate = False
        first = last = 0
        for entry in transfer.entries:
            seq = entry.channel_seq
            if seq <= channel.cumulative_accepted:
                # Retransmission of something already absorbed: discard.
                duplicate = True
                if channel.dup_counter is None:
                    channel.dup_counter = self._metrics.counter(
                        "vm.duplicates", site=self.site, peer=src)
                channel.dup_counter.value += 1
                if self._obs.enabled:
                    self._obs.emit("vm.duplicate-discard", self.sim.now,
                                   site=self.site, src=src, seq=seq)
            else:
                channel.pending[seq] = entry
                first = first or seq
                last = seq
        if duplicate:
            # Re-ack so the sender can stop retransmitting.
            self._send_ack(src)
        if first:
            if last > first:
                channel.runs[first] = last
            self._backlog.add(src)
            self.drain(src)

    def drain(self, src: str) -> None:
        """Absorb buffered messages strictly in sequence order.

        A drain already running (an accept that released locks poked
        the channels from inside it) takes *src* from the work queue
        next; otherwise *src* is drained right away."""
        if self._draining:
            self._drain_queue.append(src)
            return
        self._draining = True
        try:
            self._drain_one(src)
            queue = self._drain_queue
            while queue:
                self._drain_one(queue.popleft())
        finally:
            self._draining = False

    def _drain_one(self, src: str) -> None:
        channel = self.incoming[src]
        pending, runs = channel.pending, channel.runs
        progressed = False
        while True:
            first = channel.cumulative_accepted + 1
            if first not in pending:
                break
            last = runs.pop(first, first)
            # Claim the run BEFORE anything is told of it: telling a
            # transaction may re-enter drain (commit -> release ->
            # poke), which must never see these entries as pending.
            run = (tuple([pending.pop(seq) for seq in range(first, last + 1)])
                   if last > first else (pending.pop(first),))
            absorbed = self._accept(run, src)
            if absorbed < len(run):
                # Target fragment locked by an unrelated transaction:
                # the rest of the run goes back (head-of-line wait).
                for entry in run[absorbed:]:
                    pending[entry.channel_seq] = entry
                if last > first + absorbed:
                    runs[first + absorbed] = last
            channel.cumulative_accepted = first + absorbed - 1
            accepted = run[:absorbed]
            # Retire the accepted prefix before any transaction is told:
            # one that commits at once must not sample the value it was
            # handed as in flight (DESIGN.md §6, finding 8).
            if self.on_accepted is not None:
                for entry in accepted:
                    self.on_accepted(src, entry)
            for entry in accepted:  # then tell the site, count it
                if self.on_absorbed is not None:
                    self.on_absorbed(src, entry)
                now = self.sim.now
                self._c_accepted.value += 1
                seq = entry.channel_seq
                elapsed = self._metrics.elapsed_since_mark(
                    ("vm", src, self.site, seq), now)
                if elapsed is not None:
                    if channel.delivery_histogram is None:
                        channel.delivery_histogram = self._metrics.histogram(
                            "vm.delivery", src=src, dst=self.site)
                    channel.delivery_histogram.observe(elapsed)
                if self._obs.enabled:
                    self._obs.emit("vm.accept", now, site=self.site,
                                   src=src, item=entry.item, seq=seq)
                progressed = True
            if absorbed < len(run):
                break
        if not pending:
            self._backlog.discard(src)
        if progressed:
            self._send_ack(src)

    def poke(self) -> None:
        """Retry pending heads on every channel (called on lock release).

        Channels with nothing buffered are skipped: draining them is a
        no-op (no accept, no ack). Lock releases are frequent and a
        backlog is rare, so the common poke looks at no channel at all.
        A backlog drains in the order each source's first Vm reached
        this incarnation of the site (``incoming``'s order; after
        recovery, the channels it restored come first, in its order).
        Any order is correct — a blocked Vm "will eventually be sent
        again" — and this one moves only with deliveries.
        """
        backlog = self._backlog
        if not backlog:
            return
        for src in [src for src in self.incoming if src in backlog]:
            if self.incoming[src].pending:
                self.drain(src)

    def on_ack(self, ack: VmAck) -> None:
        self._acked(ack.src, ack.cumulative)

    def _acked(self, src: str, cumulative: int) -> None:
        """*src* has accepted everything up to *cumulative* on the
        channel toward it (an explicit or a piggybacked ack)."""
        channel = self.outgoing.get(src)
        if channel is None:
            # An ack for a channel this site (per its stable state)
            # never sent on — e.g. a stale duplicate from before a peer
            # was rebuilt. Fabricating the channel here would leave
            # cumulative_acked ahead of next_seq, so the first real
            # sends would look already-acked and silently fall out of
            # retransmission. Ignore it; acks carry no value.
            return
        for entry in channel.ack(cumulative):
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
                    record[1] >= self.accepted_from(dst):
                self._c_suppressed.inc()
                continue
            self._send_ack_now(dst)

    def _send_ack_now(self, dst: str) -> None:
        self._c_acks.inc()
        cumulative = self.accepted_from(dst)
        if self._obs.enabled:
            self._obs.emit("vm.ack", self.sim.now, site=self.site,
                           dst=dst, cumulative=cumulative)
        self._send(dst, VmAck(self.site, cumulative, self._clock_ts()))
