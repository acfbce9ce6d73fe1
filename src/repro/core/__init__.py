"""The paper's primary contribution: DvP data model, Vm protocol,
single-site transaction processing, Conc1/Conc2 concurrency control and
independent recovery.

Public entry points:

* :class:`~repro.core.system.DvPSystem` — build a multi-site system.
* :mod:`~repro.core.domain` — partitionable value domains (Γ, Π).
* :mod:`~repro.core.transactions` — transaction specs (reserve,
  cancel, transfer, read-full, write-only, redistribution).
"""

from repro.core.domain import (
    CounterDomain,
    Domain,
    MoneyDomain,
    TokenSetDomain,
)
from repro.core.migration import MigrationController, ReshardInProgress
from repro.core.operators import (
    BoundedDecrement,
    Increment,
    PartitionableOperator,
    SetToZero,
)
from repro.core.partition import (
    PARTITIONERS,
    Directory,
    Router,
    make_partitioner,
)
from repro.core.system import DvPSystem, System, SystemConfig
from repro.core.transactions import (
    ApplyOp,
    DecrementOp,
    IncrementOp,
    Outcome,
    ReadFullOp,
    ReadLocalOp,
    ReadViewOp,
    TransactionSpec,
    TransferOp,
)

__all__ = [
    "ApplyOp",
    "BoundedDecrement",
    "CounterDomain",
    "DecrementOp",
    "Directory",
    "Domain",
    "DvPSystem",
    "MigrationController",
    "PARTITIONERS",
    "ReshardInProgress",
    "Router",
    "make_partitioner",
    "Increment",
    "IncrementOp",
    "MoneyDomain",
    "Outcome",
    "PartitionableOperator",
    "ReadFullOp",
    "ReadLocalOp",
    "ReadViewOp",
    "SetToZero",
    "System",
    "SystemConfig",
    "TokenSetDomain",
    "TransactionSpec",
    "TransferOp",
]
