"""Golden pins for the comparison systems (ISSUE 18).

One small fixed-seed scenario per system the paper's claims are
measured against — 2PC, Paxos Commit, quorum, primary copy, the central
counter in ``lock`` and ``escrow`` mode, and the hybrid manager with
and without ``path_sensitive`` — each with jitter, loss, a partition /
heal and, where the system had a crash model when this was recorded, a
crash / recover. Recorded on the commit that fixed the 2PC participant
and *before* the baselines were rebuilt on one substrate: a refactor
must leave every kernel event (``trace_fingerprint``), every
``TxnResult`` (in ``results`` order and in callback order), every
per-kind send count, each site's decoded stable log, every stored
value / version / lock, ``lock_holds`` and ``recovery_messages``
byte-identical. A diff here means the move changed what a protocol
does, not just where its code lives.

To re-record after a deliberate protocol change:
``PYTHONPATH=src python tests/test_baseline_equivalence.py``.
"""

import hashlib
import random

import pytest

from repro.baselines.common import BaselineConfig
from repro.baselines.escrow import CentralCounterSystem
from repro.baselines.paxoscommit import PaxosCommitSystem
from repro.baselines.primarycopy import PrimaryCopySystem
from repro.baselines.quorum import QuorumSystem
from repro.baselines.twopc import TwoPCSystem
from repro.core.domain import CounterDomain
from repro.core.system import DvPSystem, SystemConfig
from repro.core.transactions import (
    DecrementOp,
    IncrementOp,
    ReadFullOp,
    TransactionSpec,
    TransferOp,
)
from repro.hybrid import HybridSystem
from repro.net.link import LinkConfig

SITES = ["S0", "S1", "S2", "S3"]
LINK = LinkConfig(base_delay=1.0, jitter=0.5, loss_probability=0.03)
CONFIG = BaselineConfig(txn_timeout=8.0, retry_period=3.0)
HORIZON = 150.0
SETTLE = 300.0


def _digest(rows) -> str:
    return hashlib.sha256(
        "\x1f".join(map(repr, rows)).encode()).hexdigest()[:16]


def _schedule(system, submit, make_spec, count, seed, alive=None):
    """*count* seeded arrivals in (0.5, HORIZON); returns the list the
    completion callbacks append to (callback order is pinned too)."""
    rng = random.Random(seed)
    heard: list = []
    for index in range(count):
        origin = rng.choice(SITES)
        spec = make_spec(rng, index)
        at = rng.uniform(0.5, HORIZON)

        def arrive(origin=origin, spec=spec) -> None:
            if alive is not None and not alive(origin):
                return
            submit(origin, spec, heard.append)

        system.sim.at(at, arrive, label=f"arrival:{origin}")
    return heard


def _faults(system, crash=None):
    sim, network = system.sim, system.network
    sim.at(40.0, lambda: network.partition([SITES[:2], SITES[2:]]),
           label="partition")
    sim.at(62.0, network.heal, label="heal")
    if crash is not None:
        sim.at(95.0, lambda: system.crash(crash), label="crash")
        sim.at(118.0, lambda: system.recover(crash), label="recover")


def _common_pins(system, heard) -> dict:
    results = system.results
    return {
        "fingerprint": system.sim.trace_fingerprint(),
        "results": _digest(results),
        "heard": _digest(heard),
        "decided": len(results),
        "committed": sum(1 for result in results if result.committed),
        "sent": dict(sorted(system.network.sent_counts.items())),
    }


def _site_pins(system) -> dict:
    return {
        "logs": _digest((name, envelope.lsn, envelope.record)
                        for name, site in system.sites.items()
                        for envelope in site.log.scan()),
        "log_records": sum(len(site.log)
                           for site in system.sites.values()),
        "stores": _digest((name, item, whole.value, whole.version,
                           whole.locked_by)
                          for name, site in system.sites.items()
                          for item, whole in site.store.items().items()),
        "locked": sum(1 for site in system.sites.values()
                      for whole in site.store.items().values()
                      if whole.locked_by is not None),
    }


# -- 2PC and Paxos Commit ------------------------------------------------


def _transfer_mix(rng: random.Random, index: int) -> TransactionSpec:
    src, dst = rng.sample(range(len(SITES)), 2)
    roll = rng.random()
    if roll < 0.70:
        ops = (TransferOp(f"acct_{src}", f"acct_{dst}",
                          rng.randint(1, 12)),)
    elif roll < 0.80:
        ops = (ReadFullOp(f"acct_{src}"), ReadFullOp(f"acct_{dst}"))
    elif roll < 0.90:
        ops = (IncrementOp(f"acct_{src}", rng.randint(1, 5)),)
    else:
        ops = (DecrementOp(f"acct_{src}", rng.randint(1, 5)),
               IncrementOp(f"acct_{dst}", 1))
    return TransactionSpec(ops=ops, label=f"t{index}")


def _coordinated(cls) -> dict:
    system = cls(list(SITES), seed=5, link=LINK, config=CONFIG)
    system.sim.enable_trace(limit=0)
    for index, site in enumerate(SITES):
        system.add_item(f"acct_{index}", site, 60)
    heard = _schedule(system, system.submit, _transfer_mix, 60, seed=17,
                      alive=lambda name: system.sites[name].alive)
    _faults(system, crash="S2")
    system.run_for(SETTLE)
    pins = _common_pins(system, heard)
    pins.update(_site_pins(system))
    pins["total"] = system.total_value()
    pins["lock_holds"] = _digest(system.lock_holds)
    pins["holds"] = len(system.lock_holds)
    pins["recovery_messages"] = system.recovery_messages
    return pins


def twopc() -> dict:
    return _coordinated(TwoPCSystem)


def paxos() -> dict:
    return _coordinated(PaxosCommitSystem)


# -- replicated single-item systems ---------------------------------------


def _single_item_mix(rng: random.Random, index: int) -> TransactionSpec:
    item = rng.choice(["x", "y", "z"])
    roll = rng.random()
    if roll < 0.55:
        op = DecrementOp(item, rng.randint(1, 30))
    elif roll < 0.80:
        op = IncrementOp(item, rng.randint(1, 8))
    else:
        op = ReadFullOp(item)
    return TransactionSpec(ops=(op,), label=f"t{index}")


def quorum() -> dict:
    # A lost write or release leaves its replica locked for good (the
    # baseline retransmits neither), so loss is kept rare enough that
    # the commit path stays exercised to the end.
    system = QuorumSystem(
        list(SITES), seed=5, config=CONFIG,
        link=LinkConfig(base_delay=1.0, jitter=0.5,
                        loss_probability=0.01))
    system.sim.enable_trace(limit=0)
    system.add_item("x", 120)
    system.add_item("y", 40)
    system.add_item("z", 300)
    heard = _schedule(system, system.submit, _single_item_mix, 60,
                      seed=19,
                      alive=lambda name: system.sites[name].alive)
    _faults(system, crash="S1")
    system.run_for(SETTLE)
    pins = _common_pins(system, heard)
    pins.update(_site_pins(system))
    pins["values"] = [system.value(item) for item in "xyz"]
    return pins


def _primary_copy_run(allow_stale_reads: bool) -> dict:
    system = PrimaryCopySystem(list(SITES), seed=5, link=LINK,
                               config=CONFIG,
                               allow_stale_reads=allow_stale_reads)
    system.sim.enable_trace(limit=0)
    system.add_item("x", "S0", 120)
    system.add_item("y", "S2", 40)
    system.add_item("z", "S3", 300)
    heard = _schedule(system, system.submit, _single_item_mix, 60,
                      seed=23)
    _faults(system)  # no crash model when this was recorded
    system.run_for(SETTLE)
    pins = _common_pins(system, heard)
    pins.update(_site_pins(system))
    pins["values"] = [system.value(item) for item in "xyz"]
    return pins


def primary_copy() -> dict:
    return {"strict-reads": _primary_copy_run(False),
            "stale-reads": _primary_copy_run(True)}


# -- the central counter --------------------------------------------------


def _counter_mix(rng: random.Random, index: int) -> TransactionSpec:
    item = "hot" if rng.random() < 0.8 else "cold"
    if rng.random() < 0.7:
        op = DecrementOp(item, rng.randint(1, 12))
    else:
        op = IncrementOp(item, rng.randint(1, 6))
    return TransactionSpec(ops=(op,), label=f"t{index}",
                           work=rng.choice([0.0, 0.5, 2.0]))


def _central(mode: str) -> dict:
    system = CentralCounterSystem(list(SITES), central="S0", mode=mode,
                                  seed=5, link=LINK, config=CONFIG)
    system.sim.enable_trace(limit=0)
    system.add_item("hot", 150)
    system.add_item("cold", 20)
    heard = _schedule(system, system.submit, _counter_mix, 70, seed=29)
    _faults(system)  # one process stands in for every site: no crash
    system.run_for(SETTLE)
    pins = _common_pins(system, heard)
    pins["log"] = _digest((envelope.lsn, envelope.record)
                          for envelope in system.log.scan())
    pins["log_records"] = len(system.log)
    pins["values"] = [system.value("hot"), system.value("cold")]
    pins["central"] = _digest(
        (name, item.value, item.locked_by, tuple(item.wait_queue),
         sorted(item.journal.items()))
        for name, item in sorted(system._items.items()))
    return pins


def central_lock() -> dict:
    return _central("lock")


def central_escrow() -> dict:
    return _central("escrow")


# -- the hybrid manager ---------------------------------------------------


def _hybrid_mix(rng: random.Random, index: int) -> TransactionSpec:
    item = rng.choice(["a", "a", "b"])
    roll = rng.random()
    if roll < 0.45:
        op = DecrementOp(item, rng.randint(1, 20))
    elif roll < 0.80:
        op = IncrementOp(item, rng.randint(1, 6))
    else:
        op = ReadFullOp(item)
    return TransactionSpec(ops=(op,), label=f"t{index}")


def _hybrid(path_sensitive: bool) -> dict:
    system = DvPSystem(SystemConfig(
        sites=list(SITES), seed=5, txn_timeout=8.0,
        retransmit_period=3.0, link=LINK))
    system.sim.enable_trace(limit=0)
    system.add_item("a", CounterDomain(), total=200)
    system.add_item("b", CounterDomain(), total=80)
    hybrid = HybridSystem(system, path_sensitive=path_sensitive)
    transitions: list = []
    system.sim.at(1.0, lambda: hybrid.consolidate(
        "a", "S0", transitions.append), label="consolidate")
    system.sim.at(70.0, lambda: hybrid.consolidate(
        "b", "S3", transitions.append), label="consolidate")
    system.sim.at(130.0, lambda: transitions.append(
        hybrid.deconsolidate("a", {"S1": 10, "S2": 10})),
        label="deconsolidate")
    heard = _schedule(system, hybrid.submit, _hybrid_mix, 70, seed=31,
                      alive=lambda name: system.sites[name].alive)
    _faults(system, crash="S3")
    system.run_for(SETTLE)
    system.auditor.assert_ok()
    pins = _common_pins(system, heard)
    pins["logs"] = _digest((name, envelope.lsn, envelope.record)
                           for name, site in system.sites.items()
                           for envelope in site.log.scan())
    pins["fragments"] = [sorted(system.fragment_values(item).items())
                         for item in ("a", "b")]
    pins["transitions"] = _digest(transitions)
    pins["modes"] = sorted((item, mode.value)
                           for item, mode in hybrid.modes.items())
    pins["forwarded"] = hybrid.sim.metrics.total("hybrid.forwards")
    pins["local_commits"] = hybrid.sim.metrics.total("hybrid.local_commits")
    pins["heard_count"] = len(heard)
    return pins


def hybrid_forwarding() -> dict:
    return _hybrid(path_sensitive=False)


def hybrid_path_sensitive() -> dict:
    return _hybrid(path_sensitive=True)


SCENARIOS = {
    "twopc": twopc,
    "paxos": paxos,
    "quorum": quorum,
    "primary_copy": primary_copy,
    "central_lock": central_lock,
    "central_escrow": central_escrow,
    "hybrid_forwarding": hybrid_forwarding,
    "hybrid_path_sensitive": hybrid_path_sensitive,
}

GOLDEN: dict[str, dict] = {'central_escrow': {'central': '61f7d845f1f0ec47',
                    'committed': 57,
                    'decided': 70,
                    'fingerprint': '1408492ec77bf7a6aa7bc2aa349e8e07d7baec68c0b4110ea5745f6f0af785cf',
                    'heard': '1dbc53ec8317b925',
                    'log': 'c7012b14e8f74e09',
                    'log_records': 115,
                    'results': '1dbc53ec8317b925',
                    'sent': {'AcquireReply': 46,
                             'AcquireReq': 53,
                             'CommitDone': 66,
                             'CommitReq': 70},
                    'values': [8, 5]},
 'central_lock': {'central': 'a6ada5416a0b0dd9',
                  'committed': 38,
                  'decided': 70,
                  'fingerprint': '81c6cc49d377d9918e8ea77665685f80b7030607117eadc587e69d4bdbb850bb',
                  'heard': 'facc6d1af2d01556',
                  'log': '873c14a45d12534c',
                  'log_records': 38,
                  'results': 'facc6d1af2d01556',
                  'sent': {'AbandonReq': 4,
                           'AcquireReply': 29,
                           'AcquireReq': 53,
                           'CommitDone': 38,
                           'CommitReq': 40},
                  'values': [62, 13]},
 'hybrid_forwarding': {'committed': 53,
                       'decided': 63,
                       'fingerprint': 'efb03e6801ad0580de7a828eb262b232d066e3b17a6c52f84b7f8bdc203fb6bc',
                       'forwarded': 39,
                       'fragments': [[('S0', 0),
                                      ('S1', 10),
                                      ('S2', 63),
                                      ('S3', 0)],
                                     [('S0', 3),
                                      ('S1', 0),
                                      ('S2', 42),
                                      ('S3', 0)]],
                       'heard': 'da971da7e0f11bd7',
                       'heard_count': 70,
                       'local_commits': 0,
                       'logs': 'deb98413df5c7dd2',
                       'modes': [('a', 'dvp')],
                       'results': '2cfc9ae15228ecc6',
                       'sent': {'DataRequest': 27,
                                'ForwardReply': 30,
                                'ForwardRequest': 39,
                                'TsAdvisory': 2,
                                'VmAck': 20,
                                'VmTransfer': 20},
                       'transitions': '21cb656095fe49ae'},
 'hybrid_path_sensitive': {'committed': 43,
                           'decided': 65,
                           'fingerprint': '1b821d24b4a315d653c8f02cde922d671f338a3dda34611eb118a5435d2f7885',
                           'forwarded': 21,
                           'fragments': [[('S0', 0),
                                          ('S1', 10),
                                          ('S2', 100),
                                          ('S3', 0)],
                                         [('S0', 3),
                                          ('S1', 0),
                                          ('S2', 42),
                                          ('S3', 0)]],
                           'heard': '4bdb23b456587745',
                           'heard_count': 70,
                           'local_commits': 18,
                           'logs': 'dcae3e0da32e3b29',
                           'modes': [('a', 'dvp')],
                           'results': 'de6c82c922663027',
                           'sent': {'DataRequest': 42,
                                    'ForwardReply': 14,
                                    'ForwardRequest': 21,
                                    'TsAdvisory': 2,
                                    'VmAck': 28,
                                    'VmTransfer': 28},
                           'transitions': 'b943d88f147418ea'},
 'paxos': {'committed': 17,
           'decided': 57,
           'fingerprint': '777f1f0a9eaa145e141e71bf6b5145fd56cd6ac2095d22aea3dd762b44ffaefe',
           'heard': 'f5c27b0cdabda7a1',
           'holds': 59,
           'lock_holds': 'c2a9d994b7a51e44',
           'locked': 0,
           'log_records': 637,
           'logs': '042abd21185612a5',
           'recovery_messages': 22,
           'results': 'f5c27b0cdabda7a1',
           'sent': {'BeginMsg': 81,
                    'DecisionAck': 118,
                    'DecisionMsg': 138,
                    'Phase1a': 96,
                    'Phase1b': 55,
                    'Phase2a': 261,
                    'Phase2b': 236},
           'stores': '11485e0386a83bb6',
           'total': 240},
 'primary_copy': {'stale-reads': {'committed': 49,
                                  'decided': 60,
                                  'fingerprint': '9e7ad460ba0e5a6a8a309844ddced655c89216919d5ac88795734e92483b7d7c',
                                  'heard': '0f440cfd67c0e0ea',
                                  'locked': 0,
                                  'log_records': 42,
                                  'logs': '34bb5376397a9303',
                                  'results': '0f440cfd67c0e0ea',
                                  'sent': {'ForwardReply': 40,
                                           'ForwardReq': 44,
                                           'PropagateMsg': 126},
                                  'stores': '7c84efbbed9945c4',
                                  'values': [102, 3, 60]},
                  'strict-reads': {'committed': 49,
                                   'decided': 60,
                                   'fingerprint': 'e0478e675bb24f596c30b8e312eba35565ef60cf8ef0fa873007265aba6d31f8',
                                   'heard': '4ad2b6ed7e6b581c',
                                   'locked': 0,
                                   'log_records': 42,
                                   'logs': '4ade77ef77249fa7',
                                   'results': '4ad2b6ed7e6b581c',
                                   'sent': {'ForwardReply': 42,
                                            'ForwardReq': 46,
                                            'PropagateMsg': 126},
                                   'stores': '7c84efbbed9945c4',
                                   'values': [102, 3, 60]}},
 'quorum': {'committed': 21,
            'decided': 57,
            'fingerprint': 'eb9d135d8050044940cba485f26faa72bd2fa416dc5dde6f40cebef32377c487',
            'heard': '608f71ea672b472b',
            'locked': 4,
            'log_records': 62,
            'logs': '17fe2a123596fc2c',
            'results': '608f71ea672b472b',
            'sent': {'LockReply': 259,
                     'LockReq': 297,
                     'ReleaseReq': 79,
                     'WriteReq': 46},
            'stores': '33160943f05fbb78',
            'values': [12, 12, 274]},
 'twopc': {'committed': 18,
           'decided': 57,
           'fingerprint': '423cec9c7b0c36a61da47c23065b2686840ec1e9999642f375622e31b6ac5057',
           'heard': '10f38aba67013d22',
           'holds': 58,
           'lock_holds': 'bb2da04aff758c31',
           'locked': 0,
           'log_records': 230,
           'logs': '4c96e680d110fc9f',
           'recovery_messages': 12,
           'results': '10f38aba67013d22',
           'sent': {'DecisionAck': 103,
                    'DecisionMsg': 137,
                    'DecisionRequest': 12,
                    'PrepareMsg': 81,
                    'VoteMsg': 66},
           'stores': '994c4dd45a7bc0fb',
           'total': 252}}


@pytest.mark.parametrize("name", sorted(SCENARIOS))
def test_scenario_matches_its_pin(name):
    assert SCENARIOS[name]() == GOLDEN[name]


if __name__ == "__main__":
    import pprint
    pprint.pprint({name: scenario()
                   for name, scenario in SCENARIOS.items()}, width=76)
