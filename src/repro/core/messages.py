"""Protocol payloads exchanged between DvP sites.

Three payload kinds exist (Sections 4.2 and 5):

* :class:`DataRequest` — "send me value for item d"; *not* critical
  data, so requests are fire-and-forget (no unique ids, no
  retransmission — the paper notes request delivery is not critical).
* :class:`VmTransfer` — a real message carrying a virtual message's
  value; retransmitted until acknowledged.
* :class:`VmAck` — cumulative acknowledgement for a Vm channel (also
  piggybacked on every VmTransfer in the reverse direction).
"""

from __future__ import annotations

from typing import Any, NamedTuple

from repro.storage.records import VmEntry

READ_MODE = "read"
TRANSFER_MODE = "transfer"


class DataRequest(NamedTuple):
    """Ask *origin*'s transaction for value of *item* held remotely.

    ``mode == TRANSFER_MODE``: send up to *need* (a partial drain is
    useful). ``mode == READ_MODE``: send the *entire* fragment, and only
    if the responder has no outstanding Vm for the item — the condition
    Section 3 places on evaluating N.
    """

    txn_id: str
    origin: str
    item: str
    mode: str
    need: Any
    ts: int


class VmTransfer(NamedTuple):
    """A real message carrying one virtual message.

    ``piggyback_ack`` acknowledges the reverse channel (dst → src) up to
    that sequence number, as Section 4.2 requires of every message.
    ``ts`` carries the sender's logical clock for bump-on-receive.
    """

    src: str
    entry: VmEntry
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
