"""Typed log records.

Two record shapes come straight from Section 4.2 of the paper:

* creating virtual messages writes ``[database-actions,
  message-sequence]`` as ONE record (:class:`VmCreateRecord` — also used
  as the commit record when a transaction both updates fragments and
  ships value);
* completing a Vm's lifespan at the receiver writes
  ``[database-actions]`` (:class:`VmAcceptRecord`).

Database actions are *absolute* fragment assignments
(:class:`SetFragment`). Because a fragment is only changed under its
exclusive lock, the final value is known when the record is written, and
replaying assignments in log order is naturally idempotent — the
property Section 7 demands of redo.

Records are ``NamedTuple``s — the log keeps every one for the whole
run, so they are as small as Python allows (DESIGN.md §7). Tuple equality
ignores the class: compare a record only with its own type.
"""

from __future__ import annotations

from typing import Any, NamedTuple


class SetFragment(NamedTuple):
    """Absolute assignment: local fragment of *item* becomes *value*.

    ``ts`` is the timestamp of the transaction performing the write;
    recovery replays it into the fragment's timestamp so that Conc1's
    "TS(t) > TS(d_j)" check stays sound across crashes (Section 7's
    argument that committed timestamps are correctly restored).
    """

    item: str
    value: Any
    ts: int = 0


class VmEntry(NamedTuple):
    """One virtual message: *amount* of *item* owed to site *dst*.

    ``channel_seq`` is the per-(src, dst) FIFO sequence number that the
    retransmission machinery and receiver-side dedup key on. ``kind``
    distinguishes value transfers from full-read drains.
    """

    dst: str
    item: str
    amount: Any
    channel_seq: int
    kind: str = "transfer"
    txn_id: str = ""


class VmCreateRecord(NamedTuple):
    """[database-actions, message-sequence] — atomically logged.

    Writing this record is the *commit point*: the fragment updates in
    ``actions`` are now permanent and each entry in ``messages`` is a
    live virtual message that will be retransmitted until acknowledged.
    """

    txn_id: str
    actions: tuple[SetFragment, ...] = ()
    messages: tuple[VmEntry, ...] = ()


class VmAcceptRecord(NamedTuple):
    """[database-actions] — a Vm's lifespan ends at the receiver.

    ``src``/``channel_seq`` identify the accepted Vm; recovery replays
    them into the channel dedup state so an already-accepted Vm is never
    absorbed twice.
    """

    src: str
    channel_seq: int
    actions: tuple[SetFragment, ...] = ()
    txn_id: str = ""


class CommitRecord(NamedTuple):
    """Commit of a purely local transaction (no messages created)."""

    txn_id: str
    actions: tuple[SetFragment, ...] = ()


class AppliedRecord(NamedTuple):
    """The database now reflects the actions of record *applied_lsn*.

    Section 5 step 6: after making the changes, "record on the log that
    the changes have been made" so recovery knows where redo can stop.
    """

    applied_lsn: int


class CheckpointRecord(NamedTuple):
    """Fuzzy checkpoint: fragment snapshot plus live channel state."""

    fragments: tuple[tuple[str, Any], ...] = ()
    fragment_timestamps: tuple[tuple[str, int], ...] = ()
    outgoing_unacked: tuple[VmEntry, ...] = ()
    incoming_cumulative: tuple[tuple[str, int], ...] = ()
    next_channel_seq: tuple[tuple[str, int], ...] = ()
    extra: tuple[tuple[str, Any], ...] = ()
