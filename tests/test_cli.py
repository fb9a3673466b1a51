"""Tests for the command-line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main
from repro.resilience.faultplan import CrashAt, DuplicateBurst, FaultPlan
from repro.resilience.supervisor import derive_run_seed


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_simulate_defaults(self):
        args = build_parser().parse_args(["simulate"])
        assert args.messages == 25
        assert args.epsilon_bits == 16

    def test_attack_protocol_arg(self):
        args = build_parser().parse_args(["attack", "--protocol", "fixed:6"])
        assert args.protocol == "fixed:6"

    def test_campaign_defaults(self):
        args = build_parser().parse_args(["campaign"])
        assert args.runs == 50
        assert args.jobs == 2
        assert args.retries == 0
        assert args.timeout is None
        assert args.fault_plan is None
        assert args.artifacts_dir is None

    def test_shrink_requires_plan_and_seed(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["shrink", "--seed", "1"])
        with pytest.raises(SystemExit):
            build_parser().parse_args(["shrink", "--fault-plan", "p.json"])
        args = build_parser().parse_args(
            ["shrink", "--fault-plan", "p.json", "--seed", "7"]
        )
        assert args.seed == 7
        assert args.run_index == 0


class TestSimulateCommand:
    def test_clean_run_exits_zero(self, capsys):
        code = main(["simulate", "--messages", "5", "--seed", "1"])
        out = capsys.readouterr().out
        assert code == 0
        assert "completed" in out
        assert "no-replay" in out
        assert "VIOLATED" not in out

    def test_faulty_run_still_clean(self, capsys):
        code = main([
            "simulate", "--messages", "8", "--loss", "0.3",
            "--duplicate", "0.3", "--reorder", "0.5",
            "--crash-rate", "0.002", "--seed", "3",
        ])
        assert code == 0
        assert "VIOLATED" not in capsys.readouterr().out


class TestAttackCommand:
    def test_fixed_nonce_usually_broken(self, capsys):
        code = main([
            "attack", "--protocol", "fixed:5", "--harvest", "60",
            "--runs", "5", "--seed", "0",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "fixed:5" in out

    def test_paper_protocol_never_broken(self, capsys):
        main(["attack", "--protocol", "paper", "--harvest", "40",
              "--runs", "3", "--seed", "0"])
        out = capsys.readouterr().out
        # broken column shows 0 of 3
        assert "| 0" in out

    def test_unknown_protocol_rejected(self):
        with pytest.raises(SystemExit):
            main(["attack", "--protocol", "nonsense"])


class TestSweepCommand:
    def test_sweep_prints_rows(self, capsys):
        code = main([
            "sweep-loss", "--losses", "0,0.3", "--runs", "2",
            "--messages", "6",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "pkts/msg" in out
        assert "0.3" in out

    def test_sweep_labels_rows(self, capsys):
        main(["sweep-loss", "--losses", "0.2", "--runs", "1", "--messages", "4"])
        assert "loss=0.2" in capsys.readouterr().out


def _crash_then_replay_plan(run: int) -> FaultPlan:
    return FaultPlan.of(
        DuplicateBurst(step=10, copies=8, spacing=3, run=run),
        CrashAt(step=11, station="R", run=run),
        label="crash-then-replay",
    )


class TestCampaignCommand:
    def test_clean_campaign_exits_zero(self, capsys):
        code = main([
            "campaign", "--runs", "3", "--jobs", "1", "--messages", "3",
            "--label", "smoke",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "smoke" in out
        assert "ok" in out

    def test_scripted_failure_flips_exit_code(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        _crash_then_replay_plan(run=4).save(str(plan_path))
        code = main([
            "campaign", "--runs", "6", "--jobs", "1", "--messages", "6",
            "--protocol", "fixed:2", "--base-seed", "0",
            "--fault-plan", str(plan_path),
            "--artifacts-dir", str(tmp_path / "artifacts"),
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "safety_failed" in out
        campaigns = list((tmp_path / "artifacts").iterdir())
        assert len(campaigns) == 1


class TestShrinkCommand:
    def test_shrink_reports_minimal_repro(self, tmp_path, capsys):
        plan_path = tmp_path / "plan.json"
        _crash_then_replay_plan(run=4).save(str(plan_path))
        out_path = tmp_path / "minimal.json"
        code = main([
            "shrink", "--fault-plan", str(plan_path),
            "--seed", str(derive_run_seed(0, 4, 0)),
            "--messages", "6", "--run-index", "4",
            "--protocol", "fixed:2", "--max-probes", "40",
            "--out", str(out_path),
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "minimal" in out
        assert "safety_failed" in out
        reloaded = FaultPlan.load(str(out_path))
        assert len(reloaded.events) >= 1

    def test_shrink_refuses_passing_repro(self, tmp_path):
        plan_path = tmp_path / "empty.json"
        FaultPlan().save(str(plan_path))
        with pytest.raises(SystemExit, match="nothing to shrink"):
            main([
                "shrink", "--fault-plan", str(plan_path),
                "--seed", "1", "--messages", "3",
            ])


class TestLiveCommand:
    def test_live_defaults(self):
        args = build_parser().parse_args(["live"])
        assert args.messages == 50
        assert args.budget == 60.0
        assert args.give_up == 5.0
        assert args.fault_plan is None

    def test_clean_live_run_exits_zero(self, capsys):
        code = main([
            "live", "--messages", "5", "--seed", "1",
            "--poll-base", "0.002", "--poll-cap", "0.05",
            "--budget", "20", "--give-up", "3", "--label", "cli-clean",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "delivered" in out
        assert "cli-clean" in out

    def test_live_with_crash_plan_and_chaos(self, tmp_path, capsys):
        plan_path = tmp_path / "crashes.json"
        FaultPlan.of(CrashAt(step=5, station="T")).save(str(plan_path))
        code = main([
            "live", "--messages", "8", "--seed", "2",
            "--drop", "0.05", "--duplicate", "0.05",
            "--fault-plan", str(plan_path),
            "--poll-base", "0.002", "--poll-cap", "0.05",
            "--budget", "30", "--give-up", "4",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "crashes (T/R)" in out
        assert "1/0" in out

    def test_unreconcilable_flips_exit_code(self, capsys):
        code = main([
            "live", "--messages", "3", "--seed", "3", "--drop", "1.0",
            "--poll-base", "0.002", "--poll-cap", "0.05",
            "--budget", "10", "--give-up", "0.5",
        ])
        out = capsys.readouterr().out
        assert code == 1
        assert "unreconcilable" in out
        assert "forensic tail" in out

    def test_bad_rates_rejected(self):
        with pytest.raises(SystemExit):
            main(["live", "--drop", "1.5"])


class TestSweepRelayCommand:
    def test_parser_defaults(self):
        args = build_parser().parse_args(["sweep-relay"])
        assert args.topologies == "line,ring,mesh"
        assert args.fail_rates == "0,0.01,0.05,0.1"
        assert args.runs == 10
        assert args.engine == "kernel"
        assert args.paths == 1

    def test_small_sweep_prints_grid(self, capsys):
        code = main([
            "sweep-relay", "--topologies", "line", "--fail-rates", "0",
            "--runs", "2", "--messages", "4", "--jobs", "1",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "relay sweep" in out
        assert "line-4" in out
        assert "100.0%" in out

    def test_markdown_output(self, capsys):
        code = main([
            "sweep-relay", "--topologies", "line", "--fail-rates", "0",
            "--runs", "2", "--messages", "4", "--jobs", "1", "--markdown",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert out.lstrip().startswith("| topology |")


class TestTopologyEngineOptions:
    @pytest.mark.parametrize("argv", [
        ["simulate"],
        ["campaign"],
        ["shrink", "--fault-plan", "plan.json", "--seed", "1"],
    ], ids=["simulate", "campaign", "shrink"])
    def test_engine_defaults_to_the_kernel(self, argv):
        assert build_parser().parse_args(argv).engine == "kernel"

    def test_campaign_engine_and_paths_parse(self):
        args = build_parser().parse_args([
            "campaign", "--topology", "ring", "--topology-size", "8",
            "--engine", "kernel", "--paths", "2",
        ])
        assert args.engine == "kernel"
        assert args.paths == 2

    def test_kernel_striped_campaign_runs_clean(self, capsys):
        code = main([
            "campaign", "--topology", "ring", "--topology-size", "6",
            "--engine", "kernel", "--paths", "2",
            "--runs", "2", "--jobs", "1", "--messages", "6",
        ])
        out = capsys.readouterr().out
        assert code == 0
        assert "ok" in out


def _leg(**fields):
    leg = dict(messages=40, ticks=100, wall_seconds=0.1,
               messages_per_second=400.0)
    leg.update(fields)
    return leg


@pytest.fixture
def stub_relay_legs(monkeypatch):
    """Replace the timed relay bench legs with fixed results.

    The ``--out`` merge guard and the floor gate are pure payload logic;
    the real legs time fabric runs, so a busy host could push
    ``relay_kernel_speedup`` under its floor and fail a test that is not
    about speed.  Returns the stubbed kernel leg so a test can lower its
    speedup.
    """
    from repro.perf import bench

    kernel = {"object": _leg(hops=4, pairs=5),
              "kernel": _leg(hops=4, pairs=5, speedup_median=4.4)}
    monkeypatch.setattr(bench, "_bench_relay", lambda messages, seed: {
        "line_1": _leg(hops=1), "line_4": _leg(hops=4),
    })
    monkeypatch.setattr(bench, "_bench_relay_kernel",
                        lambda messages, seed: kernel)
    monkeypatch.setattr(bench, "_bench_relay_stripe", lambda messages, seed: {
        "paths_1": _leg(paths=1, ticks=200), "paths_2": _leg(paths=2),
    })
    return kernel


class TestBenchQuickOutGuard:
    def test_quick_does_not_clobber_full_baseline(
        self, tmp_path, capsys, stub_relay_legs
    ):
        import json

        out_path = tmp_path / "BENCH.json"
        # A committed full-run baseline (quick=false) with a ratio a
        # quick re-record must not overwrite.
        baseline = {"schema": 1, "quick": False,
                    "ratios": {"relay_hop_efficiency": 1.23}}
        out_path.write_text(json.dumps(baseline))
        code = main([
            "bench", "--only", "relay", "--quick", "--out", str(out_path),
        ])
        assert code == 0
        assert "quick_smoke" in capsys.readouterr().out
        merged = json.loads(out_path.read_text())
        assert merged["quick"] is False
        assert merged["ratios"] == {"relay_hop_efficiency": 1.23}
        assert merged["quick_smoke"]["quick"] is True
        assert "relay_kernel_speedup" in merged["quick_smoke"]["ratios"]

    def test_quick_writes_fresh_file_directly(self, tmp_path, stub_relay_legs):
        import json

        out_path = tmp_path / "BENCH.json"
        code = main([
            "bench", "--only", "relay", "--quick", "--out", str(out_path),
        ])
        assert code == 0
        payload = json.loads(out_path.read_text())
        assert payload["quick"] is True
        assert "quick_smoke" not in payload

    def test_leg_below_floor_fails_the_gate(self, capsys, stub_relay_legs):
        stub_relay_legs["kernel"]["speedup_median"] = 3.9
        code = main(["bench", "--only", "relay"])
        assert code == 1
        assert "REGRESSION relay_kernel_speedup" in capsys.readouterr().out
