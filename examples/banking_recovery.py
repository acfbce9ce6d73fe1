"""Banking on lossy links, with a crash in the middle of a withdrawal.

A customer's balance is value-partitioned across three branches
(paper Section 3: "the amount of money in the bank balance of an
individual"). Deposits commit anywhere, withdrawals gather funds via
virtual messages over links that lose 30% of their packets, and the
downtown branch crashes while money addressed to it is in flight. The
Vm machinery and independent recovery guarantee not a cent is lost.
Afterwards Alice pays Bob at the harbor branch, where her share is
gone: the transfer gathers it the way a withdrawal does.

Run:  python examples/banking_recovery.py
"""

from repro.apps import Bank
from repro.core import DvPSystem, MoneyDomain, SystemConfig
from repro.net.link import LinkConfig

BRANCHES = ["downtown", "airport", "harbor"]
money = MoneyDomain().describe


def show_balance(bank: Bank, account: str, label: str) -> None:
    pretty = ", ".join(
        f"{branch} {money(bank.branch_share(branch, account))}"
        for branch in BRANCHES)
    print(f"  {label:<44} {pretty}")


def main() -> None:
    print("== Alice's balance, partitioned across three branches ==")
    system = DvPSystem(SystemConfig(
        sites=list(BRANCHES), seed=13, txn_timeout=25.0,
        retransmit_period=3.0, checkpoint_interval=6, request_retries=2,
        link=LinkConfig(base_delay=1.5, jitter=1.0,
                        loss_probability=0.3)))
    bank = Bank(system)
    bank.open_account("alice", {"downtown": 40_000, "airport": 25_000,
                                "harbor": 15_000})
    show_balance(bank, "alice", "opening balance ($800.00 total)")

    def report(what):
        def done(result):
            verb = "committed" if result.committed else \
                f"aborted ({result.reason})"
            print(f"  {result.site}: {what} -> {verb}")
        return done

    # Deposits land anywhere, any time - they never need the network.
    bank.deposit("harbor", "alice", 12_000, report("deposit $120"))
    bank.deposit("airport", "alice", 3_000, report("deposit $30"))
    bank.withdraw("airport", "alice", 8_000, report("withdraw $80"))
    system.run_for(2)

    # A big withdrawal at the airport branch: $650 with only $250
    # local - it needs funds from BOTH other branches. The requests go
    # out; the granted money travels as virtual messages.
    bank.withdraw("airport", "alice", 65_000, report("withdraw $650"))
    system.run_for(6.0)  # the gather is in progress

    # Downtown crashes in the middle of the gather. Money already
    # granted travels as Vm (protected by the granters' logs); the
    # withdrawal itself simply keeps waiting inside its timeout.
    print("  !! downtown branch crashes mid-withdrawal "
          "(volatile state lost)")
    system.crash("downtown")
    system.run_for(8.0)
    show_balance(bank, "alice", "while downtown is dark")

    print("  .. downtown restarts: recovery reads ONLY its local log")
    recovery = system.recover("downtown")
    print(f"     scanned {recovery.scanned_records} records "
          f"(checkpointed: {recovery.from_checkpoint}), "
          f"redid {recovery.redo_applied}, rebuilt "
          f"{recovery.vm_rebuilt} outgoing Vm, asked other branches "
          f"for {recovery.messages_needed} messages")

    # Normal processing resumes immediately; the retransmission loop
    # re-drives any Vm the crash interrupted.
    bank.deposit("downtown", "alice", 7_500, report("deposit $75"))
    system.run_for(200.0)
    show_balance(bank, "alice", "after recovery settles")

    bank.open_account("bob", {branch: 0 for branch in BRANCHES})
    bank.transfer("harbor", "alice", "bob", 5_000,
                  report("alice pays bob $50"))
    system.run_for(60.0)
    show_balance(bank, "alice", "alice after paying bob")
    show_balance(bank, "bob", "bob")

    report_audit = system.auditor.check("alice")
    total = report_audit.observed
    print(f"\n  audited balance: {money(total)} "
          f"(expected {money(report_audit.expected)}) -> "
          f"{'balanced to the cent' if report_audit.ok else 'VIOLATION'}")
    system.auditor.assert_ok()


if __name__ == "__main__":
    main()
