"""Stable-storage substrate: write-ahead log, page store, checkpoints.

The paper assumes "stable logging facilities"; this package provides
them with an explicit stable/volatile split. A site crash (see
``repro.core.recovery``) discards every volatile structure but leaves
the :class:`StableLog` and :class:`PageStore` intact — exactly the
survivability contract the Vm lifecycle and the independent-recovery
algorithm rely on.
"""

from repro.storage.log import LogRecordEnvelope, StableLog
from repro.storage.pages import PageStore
from repro.storage.records import (
    CheckpointRecord,
    CommitRecord,
    AppliedRecord,
    SetFragment,
    VmAcceptRecord,
    VmCreateRecord,
    VmEntry,
)

__all__ = [
    "AppliedRecord",
    "CheckpointRecord",
    "CommitRecord",
    "LogRecordEnvelope",
    "PageStore",
    "SetFragment",
    "StableLog",
    "VmAcceptRecord",
    "VmCreateRecord",
    "VmEntry",
]
