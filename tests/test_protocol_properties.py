"""Property-based whole-protocol tests.

Hypothesis drives randomized scripts of transactions and failures
against small DvP systems; after every script the conservation
invariant and the non-blocking bound must hold, and the committed
history must replay serializably.
"""

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.core.domain import CounterDomain
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    ReadFullOp,
    TransactionSpec,
)
from repro.harness.serial import check_serializable
from repro.net.link import LinkConfig

SITES = ["P", "Q", "R"]

actions = st.lists(
    st.tuples(
        st.floats(min_value=0.1, max_value=80.0),   # submit time
        st.sampled_from(SITES),                     # site
        st.sampled_from(["dec", "inc", "read"]),    # kind
        st.integers(min_value=1, max_value=25),     # amount
    ),
    min_size=1, max_size=25)

failure_plans = st.lists(
    st.tuples(
        st.floats(min_value=1.0, max_value=60.0),   # crash time
        st.sampled_from(SITES),                     # victim
        st.floats(min_value=1.0, max_value=25.0),   # downtime
    ),
    max_size=2)

TIMEOUT = 10.0


def run_script(seed, script, failures, loss):
    system = DvPSystem(SystemConfig(
        sites=list(SITES), seed=seed, txn_timeout=TIMEOUT,
        retransmit_period=2.0,
        link=LinkConfig(base_delay=1.0, jitter=0.5,
                        loss_probability=loss)))
    system.add_item("x", CounterDomain(), total=60)
    results = []
    for submit_at, site, kind, amount in script:
        if kind == "dec":
            spec = TransactionSpec(ops=(DecrementOp("x", amount),))
        elif kind == "inc":
            spec = TransactionSpec(ops=(IncrementOp("x", amount),))
        else:
            spec = TransactionSpec(ops=(ReadFullOp("x"),))

        def submit(s=site, sp=spec):
            if system.sites[s].alive:
                system.submit(s, sp, results.append)

        system.sim.at(submit_at, submit)
    for crash_at, victim, downtime in failures:
        system.sim.at(crash_at, lambda v=victim: system.crash(v))
        system.sim.at(crash_at + downtime,
                      lambda v=victim: (system.sites[v].alive
                                        or system.recover(v)))
    system.run_until(100.0)
    for name, site in system.sites.items():
        if not site.alive:
            system.recover(name)
    system.run_for(400.0)
    return system, results


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=1000), script=actions)
def test_conservation_and_serializability(seed, script):
    system, results = run_script(seed, script, [], loss=0.0)
    system.auditor.assert_ok()
    report = check_serializable(results, {"x": 60},
                                {"x": CounterDomain()})
    assert report.ok, (report.read_mismatches, report.negative_dips)


@settings(max_examples=25, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=1000), script=actions)
def test_every_submitted_transaction_decides(seed, script):
    _system, results = run_script(seed, script, [], loss=0.0)
    # Without crashes, every submission must produce a decision, and
    # within the timeout bound.
    assert len(results) == len(script)
    for result in results:
        assert result.latency <= TIMEOUT + 1e-6


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=1000), script=actions,
       failures=failure_plans,
       loss=st.sampled_from([0.0, 0.2, 0.5]))
def test_conservation_survives_failures(seed, script, failures, loss):
    system, _results = run_script(seed, script, failures, loss)
    system.auditor.assert_ok()


@settings(max_examples=20, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(seed=st.integers(min_value=0, max_value=1000), script=actions,
       loss=st.sampled_from([0.0, 0.3]))
def test_decisions_bounded_despite_loss(seed, script, loss):
    _system, results = run_script(seed, script, [], loss)
    for result in results:
        assert result.latency <= TIMEOUT + 1e-6
