"""Message envelopes.

The network layer moves opaque *payloads* between named sites inside an
:class:`Envelope` that records routing metadata. Protocol payloads (data
requests, Vm transfers, 2PC votes, ...) are defined by the layers that
use them; the network neither inspects nor depends on payload types.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any


@dataclass(slots=True)
class Envelope:
    """One message in flight from *src* to *dst*.

    A retransmitted or duplicated message travels in a fresh envelope;
    end-to-end identity lives inside the payload (e.g. a Vm sequence
    number), never in the envelope.
    """

    src: str
    dst: str
    payload: Any
    sent_at: float = 0.0
    duplicated: bool = False
