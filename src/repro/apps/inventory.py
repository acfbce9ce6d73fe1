"""Inventory-control façade: quantity-on-hand as aggregate fields.

Section 8's hot-spot application: very frequently updated quantities
whose updates are all increments/decrements. DvP spreads each SKU's
stock across warehouses so sales commit locally.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.apps.specs import ViewReadSpecs
from repro.core.domain import CounterDomain
from repro.core.system import DvPSystem
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    ReadFullOp,
    TransactionSpec,
    TxnResult,
)

Done = Callable[[TxnResult], None] | None


class InventoryControl:
    """SKU stock levels partitioned across warehouses.

    *via* redirects submissions through any ``submit(site, spec,
    on_done)`` target (e.g. a serving front-end); default is direct
    submission to the system.
    """

    def __init__(self, system: DvPSystem, via=None) -> None:
        self.system = system
        self._target = via if via is not None else system
        self._estimates = ViewReadSpecs("stock-estimate")
        self._skus: set[str] = set()

    @property
    def skus(self) -> set[str]:
        return set(self._skus)

    def add_sku(self, sku: str, units: int,
                stocking: dict[str, int] | None = None) -> None:
        if sku in self._skus:
            raise ValueError(f"sku {sku!r} already exists")
        self.system.add_item(sku, CounterDomain(),
                             split=stocking,
                             total=None if stocking else units)
        self._skus.add(sku)

    def _check(self, sku: str) -> None:
        if sku not in self._skus:
            raise KeyError(f"unknown sku {sku!r}")

    def sell(self, warehouse: str, sku: str, units: int,
             on_done: Done = None, work: float = 0.0) -> None:
        self._check(sku)
        self._target.submit(warehouse, TransactionSpec(
            ops=(DecrementOp(sku, units),), label=f"sell:{sku}",
            work=work), on_done)

    def restock(self, warehouse: str, sku: str, units: int,
                on_done: Done = None, work: float = 0.0) -> None:
        self._check(sku)
        self._target.submit(warehouse, TransactionSpec(
            ops=(IncrementOp(sku, units),), label=f"restock:{sku}",
            work=work), on_done)

    def stock_check(self, warehouse: str, sku: str,
                    on_done: Done = None, work: float = 0.0) -> None:
        """Exact global quantity on hand (the expensive read)."""
        self._check(sku)
        self._target.submit(warehouse, TransactionSpec(
            ops=(ReadFullOp(sku),), label=f"stock-check:{sku}",
            work=work), on_done)

    def stock_estimate(self, warehouse: str, sku: str,
                       bound: float | None = None,
                       on_done: Done = None, work: float = 0.0) -> None:
        """Bounded-staleness quantity on hand — O(1) when the
        warehouse's Π(b) view cache certifies *bound* (docs/READS.md)."""
        self._check(sku)
        self._target.submit(
            warehouse, self._estimates.get(sku, bound, work), on_done)

    def on_hand_locally(self, warehouse: str, sku: str) -> Any:
        self._check(sku)
        return self.system.sites[warehouse].fragments.value(sku)
