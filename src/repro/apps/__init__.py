"""Application façades over the DvP core.

The paper motivates DvP with three applications (airline reservation,
banking, inventory control). The first two get a domain-shaped API
over :class:`~repro.core.system.DvPSystem`, so application code reads
like the application, not like the protocol (inventory runs as a
workload, :class:`~repro.workloads.inventory.InventoryWorkload`):

    bank = Bank(system)
    bank.open_account("alice", {"downtown": 40_000})
    bank.withdraw("airport", "alice", 5_000, on_done=...)
"""

from repro.apps.airline import ReservationSystem
from repro.apps.bank import Bank

__all__ = ["Bank", "ReservationSystem"]
