"""Unit tests for transaction specs and the transaction state machine."""

import pickle

import pytest

from repro.core.domain import CounterDomain
from repro.core.operators import BoundedDecrement, Increment, SetToZero
from repro.core.system import DvPSystem, SystemConfig
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
    TxnResult,
)
from repro.net.link import LinkConfig


def build(sites=("A", "B", "C"), total=90, **config_kwargs):
    config_kwargs.setdefault("txn_timeout", 10.0)
    config_kwargs.setdefault("link", LinkConfig(base_delay=1.0))
    system = DvPSystem(SystemConfig(sites=list(sites), seed=2,
                                    **config_kwargs))
    system.add_item("x", CounterDomain(), total=total)
    return system


def run_one(system, site, spec):
    results = []
    system.submit(site, spec, results.append)
    system.run_for(system.config.txn_timeout + 200.0)
    assert results, "transaction never decided"
    return results[0]


class TestSpec:
    def test_items_union(self):
        spec = TransactionSpec(ops=(DecrementOp("a", 1),
                                    TransferOp("b", "c", 2),
                                    ReadFullOp("d")))
        assert spec.items() == {"a", "b", "c", "d"}

    def test_read_and_update_overlap_rejected(self):
        with pytest.raises(ValueError):
            TransactionSpec(ops=(ReadFullOp("a"), IncrementOp("a", 1)))

    def test_needs_sums_decrements(self):
        domain = CounterDomain()
        spec = TransactionSpec(ops=(DecrementOp("a", 2),
                                    DecrementOp("a", 3),
                                    IncrementOp("a", 100),
                                    TransferOp("a", "b", 4)))
        needs = spec.needs(lambda item: domain)
        assert needs == {"a": 9}

    def test_needs_includes_negative_apply_ops(self):
        domain = CounterDomain()
        spec = TransactionSpec(ops=(ApplyOp("a", BoundedDecrement(7)),))
        assert spec.needs(lambda item: domain) == {"a": 7}

    def test_needs_skips_deltaless_operators(self):
        domain = CounterDomain()
        spec = TransactionSpec(ops=(ApplyOp("a", SetToZero()),))
        assert spec.needs(lambda item: domain) == {}


class TestSlottedSpecs:
    """A workload holds one spec per request: specs and ops are slotted,
    and the derived item sets are slots outside ``==``, ``hash`` and
    ``repr`` — every one of which reads as it did with a ``__dict__``."""

    OPS = (IncrementOp("a", 1), DecrementOp("b", 2), TransferOp("c", "d", 3),
           ApplyOp("e", Increment(4)), ReadFullOp("f"), ReadLocalOp("g"),
           ReadViewOp("h", bound=2.5))

    def spec(self):
        return TransactionSpec(ops=self.OPS, label="mixed", work=0.25)

    def test_no_instance_dict(self):
        spec = self.spec()
        for obj in (spec, *spec.ops):
            assert not hasattr(obj, "__dict__"), type(obj).__name__
        with pytest.raises(AttributeError):
            object.__setattr__(spec, "extra", 1)

    def test_equality_and_hash_see_only_the_three_fields(self):
        spec = self.spec()
        assert spec == self.spec()
        assert hash(spec) == hash(self.spec()) == hash(
            (spec.ops, spec.label, spec.work))
        assert spec != TransactionSpec(ops=self.OPS, label="other",
                                       work=0.25)
        assert hash(IncrementOp("a", 1)) == hash(("a", 1))

    def test_repr_prints_fields_only(self):
        spec = TransactionSpec(ops=(TransferOp("c", "d", 3),
                                    ReadViewOp("h", bound=2.5)), label="t")
        assert repr(spec) == (
            "TransactionSpec(ops=(TransferOp(src_item='c', dst_item='d', "
            "amount=3), ReadViewOp(item='h', bound=2.5)), label='t', "
            "work=0.0)")

    def test_pickle_round_trip_keeps_derived_sets(self):
        spec = self.spec()
        again = pickle.loads(pickle.dumps(spec))
        assert again == spec and repr(again) == repr(spec)
        for name in ("_takes", "_full_reads", "_view_bounds", "_updates",
                     "_items"):
            assert getattr(again, name) == getattr(spec, name), name
        assert again._items == ("f", "h", "a", "b", "c", "d", "e", "g")
        for op in spec.ops:
            assert pickle.loads(pickle.dumps(op)) == op


class TestDeltaRow:
    """A result keeps its deltas as one flat row of atoms and builds
    the ``(item, sign, amount)`` triples on access."""

    def test_semantic_deltas_round_trip(self):
        triples = (("x", -1, 2), ("x", -1, 3), ("y", +1, 3))
        result = TxnResult("t", "", Outcome.COMMITTED, "ok", "A", 0.0, 1.0,
                           delta_row=tuple(atom for triple in triples
                                           for atom in triple))
        assert result.delta_row == ("x", -1, 2, "x", -1, 3, "y", 1, 3)
        assert result.semantic_deltas == triples
        assert tuple(atom for triple in result.semantic_deltas
                     for atom in triple) == result.delta_row
        assert "semantic_deltas=(('x', -1, 2), ('x', -1, 3), " \
            "('y', 1, 3))" in repr(result)

    def test_no_deltas_is_the_empty_row(self):
        result = TxnResult("t", "", Outcome.ABORTED, "timeout", "A", 0.0, 1.0)
        assert result.delta_row == () and result.semantic_deltas == ()
        assert "semantic_deltas=()" in repr(result)

    def test_a_commit_stores_its_deltas_flat_in_op_order(self):
        system = build()
        system.add_item("y", CounterDomain(), total=0)
        result = run_one(system, "A", TransactionSpec(
            ops=(DecrementOp("x", 2), TransferOp("x", "y", 3))))
        assert result.delta_row == ("x", -1, 2, "x", -1, 3, "y", 1, 3)
        assert type(result.delta_row) is tuple


class TestLocalCommit:
    def test_sufficient_local_commit_is_instant(self):
        system = build()
        result = run_one(system, "A", TransactionSpec(
            ops=(DecrementOp("x", 5),)))
        assert result.committed
        assert result.latency == 0.0
        assert system.fragment_values("x")["A"] == 25

    def test_increment_always_commits(self):
        system = build(total=0)
        result = run_one(system, "A", TransactionSpec(
            ops=(IncrementOp("x", 7),)))
        assert result.committed
        assert system.fragment_values("x")["A"] == 7

    def test_transfer_between_items_is_local(self):
        system = build()
        system.add_item("y", CounterDomain(), total=0)
        result = run_one(system, "A", TransactionSpec(
            ops=(TransferOp("x", "y", 10),)))
        assert result.committed
        assert result.requests_sent == 0
        assert system.fragment_values("y")["A"] == 10

    def test_semantic_deltas_reported(self):
        system = build()
        system.add_item("y", CounterDomain(), total=0)
        result = run_one(system, "A", TransactionSpec(
            ops=(DecrementOp("x", 2), TransferOp("x", "y", 3))))
        assert ("x", -1, 2) in result.semantic_deltas
        assert ("x", -1, 3) in result.semantic_deltas
        assert ("y", +1, 3) in result.semantic_deltas

    def test_ops_execute_in_order(self):
        # Decrement 30 would fail alone (fragment 30... needs 35), but
        # an increment first funds it: ops are ordered.
        system = build()
        result = run_one(system, "A", TransactionSpec(
            ops=(IncrementOp("x", 10), DecrementOp("x", 35))))
        assert result.committed

    def test_apply_op_generic_operator(self):
        system = build()
        result = run_one(system, "A", TransactionSpec(
            ops=(ApplyOp("x", Increment(4)),)))
        assert result.committed
        assert system.fragment_values("x")["A"] == 34


class TestRedistribution:
    def test_gathers_from_peers(self):
        system = build()
        result = run_one(system, "A", TransactionSpec(
            ops=(DecrementOp("x", 50),)))  # A holds 30 of 90
        assert result.committed
        assert result.requests_sent > 0
        system.auditor.assert_ok()

    def test_aborts_when_value_globally_insufficient(self):
        system = build(total=30)
        result = run_one(system, "A", TransactionSpec(
            ops=(DecrementOp("x", 50),)))
        assert not result.committed
        assert result.reason == "timeout"
        system.auditor.assert_ok()

    def test_abort_leaves_absorbed_value_at_site(self):
        # An aborted transaction is an Rds transaction: the Vm it
        # absorbed stay in the local fragment.
        system = build(total=30)
        before = system.fragment_values("x")["A"]
        run_one(system, "A", TransactionSpec(ops=(DecrementOp("x", 50),)))
        system.run_for(300.0)
        after = system.fragment_values("x")["A"]
        assert after >= before  # gathered value was not rolled back
        system.auditor.assert_ok()

    def test_timeout_bounds_decision(self):
        system = build(total=30, txn_timeout=7.0)
        result = run_one(system, "A", TransactionSpec(
            ops=(DecrementOp("x", 500),)))
        assert not result.committed
        assert result.latency == pytest.approx(7.0)

    def test_partition_causes_timeout_abort(self):
        system = build()
        system.network.partition([["A"], ["B", "C"]])
        result = run_one(system, "A", TransactionSpec(
            ops=(DecrementOp("x", 50),)))
        assert not result.committed
        assert result.reason == "timeout"

    def test_single_site_system_insufficient_aborts_immediately(self):
        system = build(sites=("A",), total=5)
        result = run_one(system, "A", TransactionSpec(
            ops=(DecrementOp("x", 50),)))
        assert not result.committed
        assert result.reason == "insufficient-no-peers"
        assert result.latency == 0.0

    def test_request_retries_resend(self):
        system = build(total=90, request_retries=2,
                       link=LinkConfig(base_delay=1.0,
                                       loss_probability=1.0))
        result = run_one(system, "A", TransactionSpec(
            ops=(DecrementOp("x", 50),)))
        assert not result.committed
        # 2 peers x (1 initial + 2 retry rounds) = 6 requests.
        assert result.requests_sent == 6


class TestWorkPhase:
    def test_work_delays_commit(self):
        system = build()
        result = run_one(system, "A", TransactionSpec(
            ops=(DecrementOp("x", 5),), work=3.5))
        assert result.committed
        assert result.latency == pytest.approx(3.5)

    def test_work_is_not_subject_to_timeout(self):
        system = build(txn_timeout=2.0)
        result = run_one(system, "A", TransactionSpec(
            ops=(DecrementOp("x", 5),), work=10.0))
        assert result.committed

    def test_locks_held_during_work(self):
        system = build(txn_timeout=50.0)
        results = []
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 5),),
                                           work=10.0), results.append)
        system.run_for(1.0)
        # Conc1 refuses the conflicting lock outright.
        system.submit("A", TransactionSpec(ops=(DecrementOp("x", 1),)),
                      results.append)
        system.run_for(100.0)
        outcomes = {result.reason for result in results}
        assert "locked" in outcomes


class TestReadFull:
    def test_read_drains_everything(self):
        system = build()
        result = run_one(system, "B", TransactionSpec(
            ops=(ReadFullOp("x"),)))
        assert result.committed
        assert result.read_values["x"] == 90
        values = system.fragment_values("x")
        assert values["B"] == 90
        assert values["A"] == values["C"] == 0

    def test_read_reflects_prior_commits(self):
        system = build()
        run_one(system, "A", TransactionSpec(ops=(DecrementOp("x", 10),)))
        result = run_one(system, "B", TransactionSpec(
            ops=(ReadFullOp("x"),)))
        assert result.read_values["x"] == 80

    def test_read_aborts_during_partition(self):
        system = build()
        system.network.partition([["B"], ["A", "C"]])
        result = run_one(system, "B", TransactionSpec(
            ops=(ReadFullOp("x"),)))
        assert not result.committed

    def test_read_plus_other_item_update(self):
        system = build()
        system.add_item("y", CounterDomain(), total=9)
        result = run_one(system, "A", TransactionSpec(
            ops=(ReadFullOp("x"), DecrementOp("y", 1))))
        assert result.committed
        assert result.read_values["x"] == 90


class TestIneffectiveOps:
    def test_ineffective_apply_aborts(self):
        # SetToZero is fine; a hand-built always-ineffective operator
        # must abort the transaction at commit evaluation.
        class Never(SetToZero):
            def apply(self, domain, value):
                from repro.core.operators import Application
                return Application(value, False)

        system = build()
        result = run_one(system, "A", TransactionSpec(
            ops=(ApplyOp("x", Never()),)))
        assert not result.committed
        assert result.reason == "ineffective-operator"


class TestConc1Admission:
    def test_lower_timestamp_refused_after_higher(self):
        system = build()
        # Transaction at C stamps A's fragment remotely via a request.
        run_one(system, "C", TransactionSpec(ops=(DecrementOp("x", 80),)))
        # A's clock is behind C's fragment stamp now? Submit and check
        # the system still decides (commit or timestamp abort, never
        # hangs).
        result = run_one(system, "A", TransactionSpec(
            ops=(DecrementOp("x", 1),)))
        assert result.outcome in (Outcome.COMMITTED, Outcome.ABORTED)

    def test_site_down_submit_raises(self):
        from repro.core.site import SiteDown
        system = build()
        system.crash("A")
        with pytest.raises(SiteDown):
            system.submit("A", TransactionSpec(ops=(IncrementOp("x", 1),)))
