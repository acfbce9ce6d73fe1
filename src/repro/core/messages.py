"""Protocol payloads exchanged between DvP sites.

Three payload kinds exist (Sections 4.2 and 5):

* :class:`DataRequest` — "send me value for items d, e, ..."; *not*
  critical data, so requests are fire-and-forget (no unique ids, no
  retransmission — the paper notes request delivery is not critical).
  A transaction sends one per peer per round, naming every item it is
  short of.
* :class:`VmTransfer` — a real message carrying the virtual messages
  one create record made for one destination; each is retransmitted
  on its own until acknowledged.
* :class:`VmAck` — cumulative acknowledgement for a Vm channel (also
  piggybacked on every VmTransfer in the reverse direction).
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.storage.records import VmEntry

READ_MODE = "read"
TRANSFER_MODE = "transfer"


class DataRequest(NamedTuple):
    """Ask *origin*'s transaction for value of the items held remotely.

    ``wants`` is ``((item, need), ...)`` in sorted item order, each item
    once. ``mode == TRANSFER_MODE``: send up to *need* of each item (a
    partial drain is useful). ``mode == READ_MODE`` (every need is
    None): send each *entire* fragment, and only if the responder has
    no outstanding Vm for the item — the condition Section 3 places on
    evaluating N. The responder judges each item on its own.
    """

    txn_id: str
    origin: str
    mode: str
    wants: tuple[tuple[str, Any], ...]
    ts: int


class VmTransfer(NamedTuple):
    """A real message carrying virtual messages to one destination:
    the entries of one create record on its first transmission, one
    entry on a retransmission.

    ``piggyback_ack`` acknowledges the reverse channel (dst → src) up to
    that sequence number, as Section 4.2 requires of every message.
    ``ts`` carries the sender's logical clock for bump-on-receive.
    """

    src: str
    entries: tuple[VmEntry, ...]
    piggyback_ack: int
    ts: int


class TsAdvisory(NamedTuple):
    """Clock gossip: a request was refused because its timestamp lost
    to the fragment's. Receiving this bumps the requester's Lamport
    clock past the winning stamp so a *fresh* transaction can succeed —
    the paper's stale-clock recovery ("the reception of any messages
    ... would 'bump-up' the counter") made proactive. Fire-and-forget;
    purely an optimization, never required for safety."""

    ts: int


class VmAck(NamedTuple):
    """Cumulative ack: all of *src*'s messages up to *cumulative* were
    received "and processed safely" (accept records forced)."""

    src: str
    cumulative: int
    ts: int
