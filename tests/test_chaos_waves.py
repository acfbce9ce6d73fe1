"""The multi-item wave family under the chaos oracles.

``ChaosConfig.waves`` turns a share of the DvP arrivals into the
benchmark suite's 5-op transfer shape, each source funded only at the
origin's peers: every wave asks each peer for several items in one
request, and each answer is one multi-entry create record and one
multi-entry message. The default (0) is the seed spec stream, byte for
byte, and an artifact written before the field existed loads as 0.
"""

import math

import pytest

from repro.chaos import ChaosConfig, FaultPlan, explore
from repro.chaos.runner import WAVE_OPS, run_chaos
from repro.cli import build_parser, main
from repro.core import fragments
from repro.core.transactions import TransferOp
from repro.core.vm import VmManager
from repro.harness.chaos import config_from_args


class TestConfig:
    def test_default_is_off_and_not_written(self):
        assert ChaosConfig().waves == 0
        assert "waves" not in ChaosConfig().to_dict()
        assert ChaosConfig().wave_accounts() == {}

    def test_round_trips_when_set(self):
        config = ChaosConfig(waves=0.25)
        assert config.to_dict()["waves"] == 0.25
        assert ChaosConfig.from_dict(config.to_dict()) == config

    @pytest.mark.parametrize("share", [-0.1, 1.5, math.nan])
    def test_a_share_outside_the_unit_interval_is_refused(self, share):
        with pytest.raises(ValueError, match="waves"):
            ChaosConfig(waves=share)

    def test_accounts_are_funded_at_the_peers_only(self):
        accounts = ChaosConfig(waves=0.5).wave_accounts()
        assert len(accounts) == 4 * WAVE_OPS
        assert set(accounts["acct_S0_0"]) == {"S1", "S2", "S3"}


class TestCli:
    def test_flag_reaches_the_config(self):
        args = build_parser().parse_args(["chaos", "--waves", "0.5"])
        assert config_from_args(args).waves == 0.5

    def test_default_is_no_waves(self):
        args = build_parser().parse_args(["chaos"])
        assert config_from_args(args).waves == 0

    def test_nan_share_is_a_usage_error(self, capsys):
        assert main(["chaos", "--budget", "1", "--waves", "nan"]) == 2

    def test_baselines_refuse_waves(self, capsys):
        assert main(["chaos", "--budget", "1", "--baseline", "2pc",
                     "--waves", "0.5"]) == 2
        assert "--waves" in capsys.readouterr().out


class TestWaveRuns:
    def test_zero_share_is_the_seed_stream(self):
        plain = explore(ChaosConfig(), budget=3, master_seed=5)
        off = explore(ChaosConfig(waves=0.0), budget=3, master_seed=5)
        assert plain.digest() == off.digest()

    def test_waves_ship_multi_entry_messages(self, monkeypatch):
        sizes: list[int] = []
        on_transfer = VmManager.on_transfer

        def spy(manager, transfer):
            sizes.append(len(transfer.entries))
            on_transfer(manager, transfer)

        monkeypatch.setattr(VmManager, "on_transfer", spy)
        result = run_chaos(ChaosConfig(waves=0.5), FaultPlan(()), seed=3)
        try:
            assert not result.failed, result.failures
            waves = [r for r in result.system.results
                     if r.committed and len(r.semantic_deltas) > 2]
            assert waves
            assert max(sizes) >= 3
        finally:
            result.system.close()

    def test_a_wave_is_the_suites_transfer_shape(self):
        from repro.chaos.runner import _wave_ops
        import random

        ops = _wave_ops(random.Random(1), "S0", ["S0", "S1", "S2"])
        assert len(ops) == WAVE_OPS
        assert all(isinstance(op, TransferOp) and 1 <= op.amount <= 4
                   for op in ops)
        (peer,) = {op.dst_item.split("_")[1] for op in ops}
        assert peer != "S0"
        assert all(op.src_item.startswith("acct_S0_") for op in ops)

    @pytest.mark.parametrize("seed", [7, 19, 23])
    def test_budget_200_green(self, seed):
        """CI's wave step: every oracle on the batched path."""
        report = explore(ChaosConfig(waves=0.5), budget=200,
                         master_seed=seed)
        assert report.ok, report.describe()

    def test_describe_names_the_share(self):
        report = explore(ChaosConfig(waves=0.5), budget=1, master_seed=3)
        assert "waves=0.5" in report.describe().splitlines()[0]
        assert "waves" not in explore(ChaosConfig(), budget=1,
                                      master_seed=3).describe()


class TestDuplicateGrant:
    """The hazard the batched honour path guards against, planted: a
    wave that names an account once per op drawing on it, answered by
    a responder that grants every naming, creates value. Only waves
    draw an item twice."""

    @pytest.fixture(autouse=True)
    def _disarm(self):
        yield
        fragments.set_test_leak(None)

    def test_convicted_with_waves(self):
        fragments.set_test_leak("duplicate-grant")
        report = explore(ChaosConfig(waves=0.5), budget=3, master_seed=7)
        assert report.failures
        assert {"auditor", "serial"} <= set(report.failures[0].failures)

    def test_invisible_without_waves(self):
        fragments.set_test_leak("duplicate-grant")
        armed = explore(ChaosConfig(), budget=10, master_seed=7)
        fragments.set_test_leak(None)
        clean = explore(ChaosConfig(), budget=10, master_seed=7)
        assert armed.ok and armed.digest() == clean.digest()


class TestRunFirstSeq:
    """Planted in recovery: an accept run record restores its FIRST
    sequence number. The receiver then waits for an entry its sender
    has already retired (or absorbs a resent one twice). Only multi-
    entry runs tell first from last, and only waves make them."""

    @pytest.fixture(autouse=True)
    def _disarm(self):
        yield
        fragments.set_test_leak(None)

    def test_convicted_with_waves(self):
        fragments.set_test_leak("run-first-seq")
        report = explore(ChaosConfig(waves=0.5), budget=4, master_seed=7)
        assert report.failures
        assert "progress" in report.failures[0].failures

    def test_invisible_without_waves(self):
        fragments.set_test_leak("run-first-seq")
        armed = explore(ChaosConfig(), budget=10, master_seed=7)
        fragments.set_test_leak(None)
        clean = explore(ChaosConfig(), budget=10, master_seed=7)
        assert armed.ok and armed.digest() == clean.digest()
