"""Banking façade: value-partitioned account balances.

The paper's banking points, made API: deposits are always safe ("the
person wants to deposit some money without caring about the net
balance"), withdrawals are irreversible and therefore need the strict
protocol, audits are exact global reads.
"""

from __future__ import annotations

from typing import Any, Callable

from repro.apps.specs import ViewReadSpecs
from repro.core.domain import MoneyDomain
from repro.core.system import DvPSystem
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    ReadFullOp,
    TransactionSpec,
    TransferOp,
    TxnResult,
)

Done = Callable[[TxnResult], None] | None


class Bank:
    """Accounts whose balances are split across branches.

    *via* redirects submissions through any ``submit(site, spec,
    on_done)`` target — pass a serving front-end to route app-level
    traffic (admission control included); default is direct submission.
    """

    def __init__(self, system: DvPSystem, via=None) -> None:
        self.system = system
        self._target = via if via is not None else system
        self._estimates = ViewReadSpecs("estimate")
        self._accounts: set[str] = set()

    @property
    def accounts(self) -> set[str]:
        return set(self._accounts)

    def open_account(self, account: str,
                     branch_balances: dict[str, int]) -> None:
        """Open *account* with initial cents per branch."""
        if account in self._accounts:
            raise ValueError(f"account {account!r} already exists")
        self.system.add_item(account, MoneyDomain(),
                             split=branch_balances)
        self._accounts.add(account)

    def _check(self, account: str) -> None:
        if account not in self._accounts:
            raise KeyError(f"unknown account {account!r}")

    def deposit(self, branch: str, account: str, cents: int,
                on_done: Done = None, work: float = 0.0) -> None:
        """Always-safe: commits locally at any branch, any time."""
        self._check(account)
        self._target.submit(branch, TransactionSpec(
            ops=(IncrementOp(account, cents),),
            label=f"deposit:{account}", work=work), on_done)

    def withdraw(self, branch: str, account: str, cents: int,
                 on_done: Done = None, work: float = 0.0) -> None:
        """Irreversible disbursement: needs funds gathered locally."""
        self._check(account)
        self._target.submit(branch, TransactionSpec(
            ops=(DecrementOp(account, cents),),
            label=f"withdraw:{account}", work=work), on_done)

    def transfer(self, branch: str, payer: str, payee: str, cents: int,
                 on_done: Done = None, work: float = 0.0) -> None:
        """Move money between accounts, atomically, at one branch."""
        self._check(payer)
        self._check(payee)
        self._target.submit(branch, TransactionSpec(
            ops=(TransferOp(payer, payee, cents),),
            label=f"transfer:{payer}->{payee}", work=work), on_done)

    def audit_balance(self, branch: str, account: str,
                      on_done: Done = None, work: float = 0.0) -> None:
        """Exact balance: drains every branch's share to *branch*."""
        self._check(account)
        self._target.submit(branch, TransactionSpec(
            ops=(ReadFullOp(account),), label=f"audit:{account}",
            work=work), on_done)

    def estimate_balance(self, branch: str, account: str,
                         bound: float | None = None,
                         on_done: Done = None, work: float = 0.0) -> None:
        """Bounded-staleness balance (a statement, not a disbursement):
        O(1) when the branch's Π(b) view cache certifies *bound*, exact
        fan-out otherwise — see docs/READS.md."""
        self._check(account)
        self._target.submit(
            branch, self._estimates.get(account, bound, work), on_done)

    def branch_share(self, branch: str, account: str) -> Any:
        """The locally held portion of the balance (free to read)."""
        self._check(account)
        return self.system.sites[branch].fragments.value(account)
