"""Banking workload (the paper's irreversible-transaction example).

Accounts are money amounts (integral cents). Deposits "without caring
about the net balance" are the paper's canonical always-safe operation;
withdrawals need funds gathered locally; audits read the exact balance.
Withdrawals disburse cash — they are irreversible, which is why
serializability (not post-hoc reconciliation) is required here.
"""

from __future__ import annotations

import random

from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    ReadFullOp,
    TransactionSpec,
    TransferOp,
)
from repro.workloads.base import OpMix, WorkloadConfig, draw_op


class BankingWorkload:
    """Generates deposits / withdrawals / transfers / audits."""

    def __init__(self, accounts: list[str],
                 config: WorkloadConfig | None = None) -> None:
        if not accounts:
            raise ValueError("at least one account required")
        self.accounts = accounts
        self.config = config or WorkloadConfig(
            mix=OpMix(reserve=0.45, cancel=0.4, transfer=0.1, read=0.05),
            amount_low=100, amount_high=5000)  # cents

    def make_spec(self, rng: random.Random, site: str) -> TransactionSpec:
        kind, account, cents, payee = draw_op(rng, self.accounts,
                                              self.config)
        if kind == "reserve":
            ops, label = (DecrementOp(account, cents),), "withdraw"
        elif payee is not None:
            ops, label = (TransferOp(account, payee, cents),), "transfer"
        elif kind == "read":
            ops, label = (ReadFullOp(account),), "audit"
        else:
            ops, label = (IncrementOp(account, cents),), "deposit"
        return TransactionSpec(ops=ops, label=label, work=self.config.work)
