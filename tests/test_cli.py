"""Tests for the command-line interface."""

import json
import pathlib

import pytest

from repro.cli import build_parser, main

REPRO = (pathlib.Path(__file__).parent / "repros" /
         "chaos_auditor-serial_crash_seed16220008651848166696_1act.json")


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults_to_quick(self):
        args = build_parser().parse_args(["run", "E1"])
        assert args.experiment == "E1"
        assert not args.full
        assert args.jobs == 1
        assert not args.no_cache
        assert args.cache_dir == ".repro-cache"

    def test_run_parallel_flags(self):
        args = build_parser().parse_args(
            ["run", "E6", "--jobs", "4", "--no-cache",
             "--cache-dir", "/tmp/elsewhere"])
        assert args.jobs == 4
        assert args.no_cache
        assert args.cache_dir == "/tmp/elsewhere"

    def test_chaos_defaults(self):
        args = build_parser().parse_args(["chaos"])
        assert args.budget == 200
        assert args.seed == 0
        assert not args.shrink
        assert args.replay is None
        assert args.inject is None
        assert args.repro_dir == "tests/repros"
        assert args.sites == 4

    def test_chaos_inject_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["chaos", "--inject", "bogus"])


class TestCommands:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "E1" in out and "E12" in out

    def test_run_quick(self, capsys):
        assert main(["run", "E5", "--no-cache"]) == 0
        out = capsys.readouterr().out
        assert "recovery independence" in out

    def test_run_cached_replay(self, capsys, tmp_path):
        cache_dir = str(tmp_path / "cache")
        assert main(["run", "E5", "--cache-dir", cache_dir]) == 0
        cold = capsys.readouterr()
        assert "0 cached, 4 computed" in cold.err
        assert main(["run", "E5", "--cache-dir", cache_dir]) == 0
        warm = capsys.readouterr()
        assert "4 cached, 0 computed" in warm.err
        assert warm.out == cold.out

    def test_run_unknown(self, capsys):
        assert main(["run", "E99", "--no-cache"]) == 2
        assert "unknown experiment" in capsys.readouterr().err

    def test_run_all_quick(self, capsys):
        """Exit 0 is every experiment's claims holding on its quick
        table; stderr is where a violated one would be named."""
        assert main(["run", "all", "--no-cache"]) == 0
        captured = capsys.readouterr()
        assert "E1:" in captured.out and "E16:" in captured.out
        assert captured.err == ""

    def test_run_names_a_violated_claim(self, capsys, monkeypatch):
        """A stubbed cell plants a recovering DvP site that exchanged
        messages before it resumed: the table still goes to stdout,
        the claim is named on stderr, the exit status is 1."""
        from repro.harness.experiments import e05_recovery

        honest = e05_recovery._dvp_one

        def chatty(params):
            return {**honest(params), "messages_before_resume": 3}

        monkeypatch.setattr(e05_recovery, "_dvp_one", chatty)
        assert main(["run", "E5", "--no-cache"]) == 1
        planted = capsys.readouterr()
        assert planted.err == ("E5: claim violated: dvp-one exchanged 3 "
                               "messages before resuming\n")
        assert planted.out.startswith("E5: recovery independence\n")
        assert "dvp-one        3" in planted.out

    def test_chaos_explore_clean_and_deterministic(self, capsys):
        assert main(["chaos", "--budget", "4", "--seed", "7"]) == 0
        first = capsys.readouterr().out
        assert "plans run: 4  failing: 0" in first
        assert "exploration digest:" in first
        assert main(["chaos", "--budget", "4", "--seed", "7"]) == 0
        assert capsys.readouterr().out == first

    def test_chaos_bad_budget(self, capsys):
        assert main(["chaos", "--budget", "0"]) == 2
        assert "--budget" in capsys.readouterr().err

    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    @pytest.mark.parametrize("flag", [
        "--views", "--view-refresh", "--timeout", "--duration",
        "--rebalance-period", "--bundle-delay"])
    def test_chaos_refuses_a_bad_number(self, capsys, flag, value):
        """A view bound may be infinite (no bound but the TTL); every
        other number must be finite. Exit 1 means "a plan failed", so a
        refused number is a usage error: one stderr line, exit 2."""
        argv = ["chaos", "--budget", "1", flag, value]
        if flag == "--views" and value == "inf":
            assert main(argv) == 0
            return
        self._assert_refused(capsys, argv)

    @pytest.mark.parametrize("flag", [
        "--sites", "--items", "--replicas", "--serving-depth",
        "--serving-inflight"])
    def test_chaos_refuses_a_count_below_one(self, capsys, flag):
        self._assert_refused(capsys, ["chaos", "--budget", "1", flag, "0"])

    @staticmethod
    def _assert_refused(capsys, argv):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err

    @pytest.mark.parametrize("command", [["chaos", "--replay"], ["trace"]],
                             ids=["replay", "trace"])
    @pytest.mark.parametrize("case", ["missing", "not-json", "list",
                                      "no-config", "plan-not-list"])
    def test_a_bad_artifact_is_a_usage_error(self, capsys, tmp_path,
                                             command, case):
        """Exit 1 means "the recorded failure reproduces": a file that
        is not an artifact says so on one stderr line and exits 2."""
        artifact = json.loads(REPRO.read_text())
        path = tmp_path / "artifact.json"
        if case == "not-json":
            path.write_text("{not json")
        elif case == "list":
            path.write_text(json.dumps([artifact]))
        elif case == "no-config":
            del artifact["config"]
            path.write_text(json.dumps(artifact))
        elif case == "plan-not-list":
            artifact["plan"] = {"kind": "crash"}
            path.write_text(json.dumps(artifact))
        assert main(command + [str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert "Traceback" not in captured.err

    def test_chaos_inject_shrink_and_replay(self, capsys, tmp_path):
        from repro.core import fragments

        repro_dir = str(tmp_path / "repros")
        assert main(["chaos", "--budget", "1", "--seed", "7",
                     "--inject", "crash", "--shrink",
                     "--repro-dir", repro_dir]) == 1
        out = capsys.readouterr().out
        assert fragments.test_leak() is None  # disarmed on exit
        assert "failing: 1" in out
        assert "repro written:" in out
        artifacts = list((tmp_path / "repros").glob("*.json"))
        assert len(artifacts) == 1
        # The frozen artifact replays the failure bit-identically...
        assert main(["chaos", "--replay", str(artifacts[0])]) == 1
        assert "still failing: reproduced" in capsys.readouterr().out
        # ...and the unshrunk exploration without --shrink exits 1 too.
        assert main(["chaos", "--budget", "1", "--seed", "7",
                     "--inject", "crash"]) == 1
        assert "--shrink" in capsys.readouterr().out

    def test_chaos_baseline_is_the_same_explorer(self, capsys, tmp_path,
                                                 monkeypatch):
        """``--baseline`` composes with --shrink and --replay (it used
        to refuse both), and refuses only what configures DvP
        machinery."""
        for baseline in ("paxos", "2pc"):
            assert main(["chaos", "--baseline", baseline, "--budget", "3",
                         "--seed", "7", "--shrink"]) == 0
            out = capsys.readouterr().out
            assert f"chaos explore ({baseline})" in out
            assert "plans run: 3  failing: 0" in out
        assert main(["chaos", "--baseline", "2pc", "--views", "12",
                     "--budget", "3"]) == 2
        assert "--views" in capsys.readouterr().out

        # A planted bug (the participant never asks its coordinator):
        # found, shrunk, frozen with the system it failed on, replayed.
        from repro.baselines.twopc import TwoPCSite
        monkeypatch.setattr(TwoPCSite, "_suspect",
                            lambda self, request: True)
        repro_dir = tmp_path / "repros"
        assert main(["chaos", "--baseline", "2pc", "--budget", "4",
                     "--seed", "7", "--shrink",
                     "--repro-dir", str(repro_dir)]) == 1
        assert "repro written:" in capsys.readouterr().out
        artifact = sorted(repro_dir.glob("chaos_2pc_*.json"))[0]
        assert main(["chaos", "--replay", str(artifact)]) == 1
        assert "still failing: reproduced" in capsys.readouterr().out
        monkeypatch.undo()
        assert main(["chaos", "--replay", str(artifact)]) == 0
        assert "clean" in capsys.readouterr().out
