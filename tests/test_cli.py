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

    @pytest.mark.parametrize("argv", [
        ["--chunk-size", "4"],
        ["--workers", "2"],
    ], ids=["chunk-size", "workers"])
    def test_campaign_rejects_retired_dispatch_flags(self, argv, capsys):
        # Shards auto-size from --jobs and --runs; --jobs has no alias.
        with pytest.raises(SystemExit) as raised:
            build_parser().parse_args(["campaign", *argv])
        assert raised.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

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

    def test_sweep_names_runs_without_data_and_fails(self, capsys):
        # epsilon = 2^-0 = 1 is no security parameter: every run crashes.
        code = main([
            "sweep-loss", "--losses", "0", "--runs", "2", "--messages", "4",
            "--epsilon-bits", "0",
        ])
        err = capsys.readouterr().err
        assert code == 1
        assert "loss=0 run 0" in err and "loss=0 run 1" in err
        assert "crashed" in err and "epsilon must be in (0, 1)" in err


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


    @pytest.mark.parametrize("argv, message", [
        (["--max-steps", "0"], "max_steps must be >= 1"),
        (["--corrupt-rate", "0.01", "--corrupt-window", "0"],
         "window must be >= 1"),
        (["--topology", "line", "--max-steps", "0"], "max_ticks must be >= 1"),
        (["--topology", "line", "--retain", "tail", "--tail-size", "0"],
         "tail_size must be >= 1"),
    ], ids=["max-steps", "corrupt-window", "fabric-max-steps", "fabric-tail"])
    def test_bad_spec_exits_before_any_run(self, argv, message, capsys):
        with pytest.raises(SystemExit, match=message):
            main(["campaign", "--runs", "8", "--retries", "2", *argv])
        assert capsys.readouterr().out == ""


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

    @pytest.mark.parametrize("argv, message", [
        ([], "max_steps must be >= 1"),
        (["--topology", "line"], "max_ticks must be >= 1"),
    ], ids=["link", "fabric"])
    def test_bad_spec_exits_before_any_probe(self, argv, message, tmp_path):
        plan_path = tmp_path / "plan.json"
        _crash_then_replay_plan(run=0).save(str(plan_path))
        with pytest.raises(SystemExit, match=message):
            main([
                "shrink", "--fault-plan", str(plan_path), "--seed", "1",
                "--max-steps", "0", *argv,
            ])

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
def stub_legs(monkeypatch):
    """Replace the timed kernel and relay bench legs with fixed results.

    The gate is pure payload logic; the real legs time engine and fabric
    runs, so a busy host could push a ratio under its floor and fail a
    test that is not about speed.  Returns the stubbed legs by name so a
    test can lower a speedup.
    """
    from repro.perf import bench

    speedups = {"steps_speedup_median": 6.0, "object_steps_per_second": 1e5,
                "kernel_steps_per_second": 6e5}
    legs = {
        "kernel": {"reliable": dict(speedups),
                   "lossy": {**speedups, "steps_speedup_median": 4.5}},
        "relay": {"line_1": _leg(hops=1),
                  "line_4": _leg(hops=4, efficiency_median=1.2)},
        "relay_kernel": {"object": _leg(hops=4, pairs=5),
                         "kernel": _leg(hops=4, pairs=5, speedup_median=4.4)},
        "relay_stripe": {"paths_1": _leg(paths=1, ticks=200),
                         "paths_2": _leg(paths=2)},
    }
    for name, stats in legs.items():
        monkeypatch.setattr(bench, f"_bench_{name}",
                            lambda *args, stats=stats: stats)
    return legs


class TestBenchGate:
    @pytest.mark.parametrize("only", ["kernel", "relay"])
    def test_only_gates_and_writes_the_ratios_of_its_own_legs(
        self, tmp_path, capsys, stub_legs, only
    ):
        import json

        from repro.perf.bench import _LEGS

        # A full-run payload already at --out is replaced, not merged into.
        out_path = tmp_path / "BENCH.json"
        out_path.write_text(json.dumps({"quick": False, "ratios": {}}))
        code = main(["bench", "--only", only, "--quick", "--out", str(out_path)])
        assert code == 0
        assert "regression gate passed" in capsys.readouterr().out
        payload = json.loads(out_path.read_text())
        assert payload["quick"] is True
        assert set(payload["ratios"]) == {
            key for __, group, keys, __ in _LEGS if group == only
            for key in keys
        }

    @pytest.mark.parametrize(
        "only, leg, side, field, gated",
        [
            ("relay", "relay_kernel", "kernel", "speedup_median",
             "relay_kernel_speedup"),
            ("kernel", "kernel", "lossy", "steps_speedup_median",
             "kernel_steps_speedup_lossy"),
        ],
    )
    def test_leg_below_floor_fails_the_gate(
        self, capsys, stub_legs, only, leg, side, field, gated
    ):
        from repro.perf.bench import _GATE_FLOORS

        stub_legs[leg][side][field] = _GATE_FLOORS[gated] - 0.01
        code = main(["bench", "--only", only])
        assert code == 1
        assert f"REGRESSION {gated}" in capsys.readouterr().out
