"""Network substrate: failure-prone links, partitions, bundling, and
the order-synchronous mode Conc2 needs.

The fault model follows the paper exactly: links may lose, delay,
duplicate, or reorder messages, and may fail outright; sites may crash;
the network may partition into groups that cannot communicate. There is
no Byzantine behaviour and no partition *detection* — sites only ever
observe timeouts.
"""

from repro.net.link import Link, LinkConfig
from repro.net.message import Envelope
from repro.net.network import Network
from repro.net.outbox import BundleEnvelope, BundlingConfig, Outbox
from repro.net.sync import SynchronousNetwork

__all__ = [
    "BundleEnvelope",
    "BundlingConfig",
    "Envelope",
    "Link",
    "LinkConfig",
    "Network",
    "Outbox",
    "SynchronousNetwork",
]
