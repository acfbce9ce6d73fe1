"""Typed log records.

Section 4.2 of the paper has two write-ahead shapes, and the log has
one record class for each:

* creating virtual messages writes ``[database-actions,
  message-sequence]`` as ONE record (:class:`VmCreateRecord`). A
  purely local commit is the same record with no messages;
* completing Vm lifespans at the receiver writes
  ``[database-actions]`` (:class:`VmAcceptRecord`), one record for the
  run of entries one delivered message carries — a run of one has
  ``first_seq == last_seq``.

Database actions are *absolute* fragment assignments
(:class:`SetFragment`). Because a fragment is only changed under its
exclusive lock, the final value is known when the record is written, and
replaying assignments in log order is naturally idempotent — the
property Section 7 demands of redo.

Records are ``NamedTuple``s. Tuple equality ignores the class: compare
a record only with its own type.

The stable log does not keep these objects. It keeps each record's
*encoding* (:func:`encode`): its fields laid end to end in ONE flat
tuple, the ``SetFragment`` / ``VmEntry`` rows flattened in with them.
A flat tuple of atoms is something CPython's cycle collector stops
tracking the first time it sees it — which it never does for a
``NamedTuple`` instance, nor for a tuple nested inside another before
as many passes as it is deep — so a run's whole history costs the
collector nothing (DESIGN.md §7). :func:`decode` rebuilds the typed
record when a reader asks for it.
"""

from __future__ import annotations

from itertools import chain, starmap
from typing import Any, Callable, NamedTuple


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
    A transaction that ships nothing commits with ``messages=()``.
    """

    txn_id: str
    actions: tuple[SetFragment, ...] = ()
    messages: tuple[VmEntry, ...] = ()


class VmAcceptRecord(NamedTuple):
    """[database-actions] — the lifespans of a run of Vm end together.

    The run is the entries ``first_seq`` .. ``last_seq`` from *src*,
    all carried by one real message, with one action per entry in
    sequence order; *txn_id* is the transaction that requested them.
    Recovery replays ``last_seq`` into the channel dedup state, so no
    entry of the run is ever absorbed twice.
    """

    src: str
    first_seq: int
    last_seq: int
    actions: tuple[SetFragment, ...] = ()
    txn_id: str = ""


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


# -- the stable encoding --------------------------------------------------------

#: The fields of every row of a tuple of rows, end to end.
_flat = chain.from_iterable


def _rows(cls: type, flat: tuple) -> tuple:
    """Rebuild *cls* rows from their fields laid end to end."""
    columns = [iter(flat)] * len(cls._fields)
    return tuple(starmap(cls, zip(*columns)))


#: Record class -> (kind, encoder, decoder). Kind 0 is reserved for
#: everything that is not one of these four classes (see encode).
_CODECS: dict[type, tuple[int, Callable, Callable]] = {
    VmCreateRecord: (
        1,
        lambda r: (r[0], len(r[1]), *_flat(r[1]), *_flat(r[2])),
        lambda p: VmCreateRecord(
            p[0], _rows(SetFragment, p[2:2 + 3 * p[1]]),
            _rows(VmEntry, p[2 + 3 * p[1]:]))),
    VmAcceptRecord: (
        2,
        lambda r: (r[0], r[1], r[2], r[4], *_flat(r[3])),
        lambda p: VmAcceptRecord(p[0], p[1], p[2],
                                 _rows(SetFragment, p[4:]), p[3])),
    AppliedRecord: (3, tuple, AppliedRecord._make),
    # Rare (one per checkpoint interval): only the Vm rows are
    # flattened, the snapshot's pair tuples stay as they are.
    CheckpointRecord: (
        4,
        lambda r: (r[0], r[1], tuple(_flat(r[2])), r[3], r[4], r[5]),
        lambda p: CheckpointRecord(p[0], p[1], _rows(VmEntry, p[2]),
                                   p[3], p[4], p[5])),
}
_DECODERS = {kind: decoder for kind, _, decoder in _CODECS.values()}


def encode(record: Any) -> tuple[int, Any]:
    """*record* as ``(kind, payload)`` for stable storage.

    Only an exact instance of one of the four record classes is
    encoded. Anything else — the baselines log string-tagged plain
    tuples through the same ``StableLog`` — is kind 0 and is its own
    payload, so it can never be mistaken for an encoding.
    """
    codec = _CODECS.get(type(record))
    if codec is None:
        return 0, record
    return codec[0], codec[1](record)


def decode(kind: int, payload: Any) -> Any:
    """The record :func:`encode` was given."""
    return _DECODERS[kind](payload) if kind else payload
