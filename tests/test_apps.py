"""Tests for the application façades (airline / bank)."""

import pytest

from repro.apps import Bank, ReservationSystem
from repro.core.domain import CounterDomain
from repro.core.system import DvPSystem, SystemConfig
from repro.net.link import LinkConfig


def build_system(sites=("N", "S", "E", "W")):
    return DvPSystem(SystemConfig(
        sites=list(sites), seed=29, txn_timeout=12.0,
        link=LinkConfig(base_delay=1.0)))


class TestReservationSystem:
    def build(self):
        system = build_system()
        app = ReservationSystem(system)
        app.add_flight("UA1", 80)
        return system, app

    def test_add_flight_with_quotas(self):
        system = build_system()
        app = ReservationSystem(system)
        app.add_flight("UA2", 10, quotas={"N": 10})
        assert system.fragment_values("UA2")["N"] == 10

    def test_quotas_must_sum(self):
        app = ReservationSystem(build_system())
        with pytest.raises(ValueError):
            app.add_flight("UA3", 10, quotas={"N": 5})

    def test_duplicate_flight_rejected(self):
        _system, app = self.build()
        with pytest.raises(ValueError):
            app.add_flight("UA1", 5)

    def test_unknown_flight_rejected(self):
        _system, app = self.build()
        with pytest.raises(KeyError):
            app.reserve("N", "nope", 1)

    def test_reserve_and_cancel(self):
        system, app = self.build()
        results = []
        app.reserve("N", "UA1", 3, results.append)
        app.cancel("S", "UA1", 2, results.append)
        system.run_for(5.0)
        assert all(result.committed for result in results)
        assert system.auditor.expected("UA1") == 79

    def test_reserve_gathers_when_quota_short(self):
        system, app = self.build()
        results = []
        app.reserve("N", "UA1", 50, results.append)  # quota is 20
        system.run_for(30.0)
        assert results and results[0].committed
        system.auditor.assert_ok()

    def test_change_flight_moves_availability(self):
        system, app = self.build()
        app.add_flight("UA9", 40)
        results = []
        app.change_flight("N", "UA1", "UA9", 4, results.append)
        system.run_for(20.0)
        assert results and results[0].committed
        # Customer left UA1 (seats come back) for UA9 (seats consumed).
        assert system.auditor.expected("UA1") == 84
        assert system.auditor.expected("UA9") == 36

    def test_seats_available_exact(self):
        system, app = self.build()
        results = []
        app.reserve("N", "UA1", 5)
        system.run_for(5.0)
        app.seats_available("S", "UA1", results.append)
        system.run_for(30.0)
        assert results and results[0].committed
        assert results[0].read_values["UA1"] == 75

    def test_local_quota(self):
        system, app = self.build()
        assert app.local_quota("N", "UA1") == 20


class TestBank:
    def build(self):
        system = build_system(("downtown", "airport"))
        bank = Bank(system)
        bank.open_account("alice", {"downtown": 30_000,
                                    "airport": 10_000})
        return system, bank

    def test_deposit_always_commits(self):
        system, bank = self.build()
        results = []
        bank.deposit("airport", "alice", 5_000, results.append)
        system.run_for(2.0)
        assert results and results[0].committed
        assert bank.branch_share("airport", "alice") == 15_000

    def test_withdraw_gathers_funds(self):
        system, bank = self.build()
        results = []
        bank.withdraw("airport", "alice", 25_000, results.append)
        system.run_for(30.0)
        assert results and results[0].committed
        system.auditor.assert_ok()

    def test_overdraft_refused(self):
        system, bank = self.build()
        results = []
        bank.withdraw("airport", "alice", 99_999, results.append)
        system.run_for(60.0)
        assert results and not results[0].committed
        assert system.auditor.expected("alice") == 40_000

    def test_transfer_between_accounts(self):
        system, bank = self.build()
        bank.open_account("bob", {"downtown": 1_000})
        results = []
        bank.transfer("downtown", "alice", "bob", 2_500, results.append)
        system.run_for(10.0)
        assert results and results[0].committed
        assert system.auditor.expected("alice") == 37_500
        assert system.auditor.expected("bob") == 3_500

    def test_audit_balance(self):
        system, bank = self.build()
        results = []
        bank.audit_balance("downtown", "alice", results.append)
        system.run_for(30.0)
        assert results and results[0].committed
        assert results[0].read_values["alice"] == 40_000

    def test_duplicate_account_rejected(self):
        _system, bank = self.build()
        with pytest.raises(ValueError):
            bank.open_account("alice", {"downtown": 1})


class TestEstimateSpecsAreBuiltOnce:
    """The read façades keep one frozen spec per (item, bound, work);
    ids, labels and results are a fresh spec's."""

    class Recorder:
        def __init__(self, system):
            self.system = system
            self.specs = []

        def submit(self, site, spec, on_done=None):
            self.specs.append(spec)
            return self.system.submit(site, spec, on_done)

    @pytest.mark.parametrize("facade,opener,verb,label", [
        (Bank, lambda bank: bank.open_account(
            "k", {"N": 10, "S": 10, "E": 10, "W": 10}),
         "estimate_balance", "estimate:k"),
        (ReservationSystem, lambda res: res.add_flight("k", 40),
         "seats_estimate", "estimate:k"),
    ], ids=["bank", "airline"])
    def test_same_question_same_spec(self, facade, opener, verb, label):
        from repro.core.transactions import ReadViewOp, TransactionSpec
        system = build_system()
        recorder = self.Recorder(system)
        app = facade(system, via=recorder)
        opener(app)
        ask = getattr(app, verb)
        results = []
        for site, bound, work in [("N", 5.0, 0.0), ("S", 5.0, 0.0),
                                  ("N", 9.0, 0.0), ("N", 5.0, 0.5),
                                  ("N", None, 0.0)]:
            ask(site, "k", bound, results.append, work=work)
            system.run_for(40.0)  # one exact read at a time
        first, again, bound, work, unbounded = recorder.specs
        assert first is again
        assert len({id(spec) for spec in recorder.specs}) == 4
        assert first == TransactionSpec(
            ops=(ReadViewOp("k", bound=5.0),), label=label, work=0.0)
        assert (bound.ops[0].bound, work.work, unbounded.ops[0].bound) \
            == (9.0, 0.5, None)
        # No views configured: every estimate falls back to the exact
        # fan-out — five distinct transactions, five results.
        assert [r.label for r in results] == [label] * 5
        assert sorted(r.txn_id for r in results) == \
            ["N#1", "N#2", "N#3", "N#4", "S#1"]
        assert all(r.committed and r.read_values["k"] == 40
                   for r in results)
