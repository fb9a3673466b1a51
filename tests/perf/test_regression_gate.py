"""Unit tests for the perf-regression gate (no timing involved).

The gate's arithmetic must be exact and boring: everything here runs on
hand-built payload dicts, so the tests are immune to host speed.  The
actual measured numbers live in the committed ``BENCH_core.json``; the CI
smoke job exercises the real ``repro bench --quick --check`` path.
"""

from __future__ import annotations

import gc
from itertools import cycle
from pathlib import Path

import pytest

from repro.perf import bench
from repro.perf.bench import (
    _GATE_KEYS,
    SEED_BASELINE,
    SEED_COMPARISON,
    check_regression,
    compare_payloads,
    dump,
    gate_ratios,
    hosts_match,
    load,
)


def payload_with_ratios(**ratios) -> dict:
    return {"ratios": dict(ratios)}


def full_ratios(value: float) -> dict:
    # The gate with the default threshold and no absolute floor, so the
    # arithmetic below is the relative check's alone.
    return payload_with_ratios(stabilization_overhead=value)


GATED = len(full_ratios(1.0)["ratios"])


def test_gate_ratios_from_results():
    results = {
        "live": {
            "lanes_1": {"messages_per_second": 100.0},
            "lanes_8": {"messages_per_second": 550.0},
        },
        "stabilization": {
            "plain": {"steps_per_second": 200.0},
            "monitored": {"steps_per_second": 160.0},
        },
        "kernel": {
            "reliable": {"steps_speedup_median": 6.0},
            "lossy": {"steps_speedup_median": 4.5},
        },
        "relay": {
            "line_1": {"messages_per_second": 400.0, "hops": 1},
            "line_4": {"messages_per_second": 120.0, "hops": 4,
                       "efficiency_median": 1.25},
        },
        "relay_kernel": {"kernel": {"speedup_median": 4.4}},
        "relay_stripe": {"paths_1": {"ticks": 90}, "paths_2": {"ticks": 50}},
    }
    ratios = gate_ratios(results)
    assert ratios == {
        "live_lane_speedup": pytest.approx(5.5),
        "stabilization_overhead": pytest.approx(0.8),
        "kernel_steps_speedup": pytest.approx(6.0),
        "kernel_steps_speedup_lossy": pytest.approx(4.5),
        "relay_hop_efficiency": pytest.approx(1.25),
        "relay_kernel_speedup": pytest.approx(4.4),
        "relay_stripe_speedup": pytest.approx(1.8),
    }
    assert set(ratios) == set(_GATE_KEYS)


def test_gate_ratios_skip_absent_legs():
    # A payload without some legs (an --only run, or one predating a leg)
    # still produces the other ratios instead of KeyError-ing, and so does
    # a relay leg recorded before it took paired medians.
    results = {
        "stabilization": {
            "plain": {"steps_per_second": 200.0},
            "monitored": {"steps_per_second": 160.0},
        },
        "relay": {
            "line_1": {"messages_per_second": 400.0, "hops": 1},
            "line_4": {"messages_per_second": 120.0, "hops": 4},
        },
    }
    ratios = gate_ratios(results)
    assert ratios == {"stabilization_overhead": pytest.approx(0.8)}


def test_run_bench_builds_every_only_choice_from_the_leg_table(monkeypatch):
    ran = []
    legs = ("live", "stabilization", "kernel", "relay", "relay_kernel",
            "relay_stripe")
    for leg in legs:
        monkeypatch.setattr(
            bench, f"_bench_{leg}", lambda *args, leg=leg: ran.append(leg) or {}
        )
    expected = {
        "all": list(legs),
        "kernel": ["kernel"],
        "relay": ["relay", "relay_kernel", "relay_stripe"],
    }
    assert tuple(expected) == bench.BENCH_GROUPS
    for only, names in expected.items():
        ran.clear()
        payload = bench.run_bench(quick=True, base_seed=3, only=only)
        assert ran == names
        assert list(payload["results"]) == names
        assert payload["quick"] is True
        assert payload["config"] == {**bench._SIZES[True], "base_seed": 3}
    with pytest.raises(ValueError):
        bench.run_bench(only="campaign")


def test_timed_pairs_warm_up_then_alternate_with_collection_paused():
    assert gc.isenabled()
    calls = []

    def side(name):
        def run(seed):
            calls.append((name, seed, gc.isenabled()))
            return 0.5, seed

        return run

    pairs = bench._timed_pairs(side("a"), side("b"), [1, 2], warm_seed=0)
    assert calls == [
        ("a", 0, True), ("b", 0, True),
        ("a", 1, False), ("b", 1, False),
        ("a", 2, False), ("b", 2, False),
    ]
    assert pairs == [(0.5, 1, 0.5, 1), (0.5, 2, 0.5, 2)]
    assert gc.isenabled()

    def fails_when_timed(seed):
        if seed:
            raise RuntimeError("leg failed")
        return 0.5, seed

    with pytest.raises(RuntimeError):
        bench._timed_pairs(side("a"), fails_when_timed, [1], warm_seed=0)
    assert gc.isenabled()


def test_relay_hop_efficiency_is_four_times_the_median_pair_ratio(monkeypatch):
    four_hop_walls = cycle([2.0, 4.0, 8.0])

    def fake_run(spec, seed):
        if spec.size == 1:
            return 1.0, 10
        return next(four_hop_walls), 40

    monkeypatch.setattr(bench, "_fabric_run", fake_run)
    stats = bench._bench_relay(messages=5, base_seed=0)
    # Per-pair 1-hop/4-hop wall ratios are 0.5, 0.25 and 0.125 in turn.
    assert stats["line_4"]["efficiency_median"] == pytest.approx(1.0)
    assert gate_ratios({"relay": stats}) == {
        "relay_hop_efficiency": pytest.approx(1.0)
    }
    assert stats["line_1"]["pairs"] == bench._RELAY_PAIRS
    assert stats["line_1"]["messages_per_second"] == pytest.approx(5.0)
    assert stats["line_4"]["ticks"] == 40


def test_check_regression_passes_within_threshold():
    baseline = full_ratios(1.4)
    # 25% below 1.4 is 1.05; anything at or above passes.
    assert check_regression(full_ratios(1.4), baseline) == []
    assert check_regression(full_ratios(1.06), baseline) == []
    assert check_regression(full_ratios(2.0), baseline) == []


def test_check_regression_flags_a_drop():
    failures = check_regression(full_ratios(1.0), full_ratios(1.4))
    assert len(failures) == GATED
    assert all("fell below" in failure for failure in failures)


def test_check_regression_flags_missing_current_ratio():
    current = payload_with_ratios(live_lane_speedup=1.4)
    failures = check_regression(current, full_ratios(1.4))
    assert any("missing" in failure for failure in failures)


def test_check_regression_skips_ratios_absent_from_baseline():
    # Forward compatibility: an old baseline without a key gates nothing.
    assert check_regression(full_ratios(1.4), payload_with_ratios()) == []


def test_check_regression_threshold_validation():
    for bad in (0.0, 1.0, -0.1, 1.5):
        with pytest.raises(ValueError):
            check_regression(full_ratios(1.0), full_ratios(1.0), threshold=bad)


def test_absolute_floor_fails_even_with_matching_baseline():
    # kernel_steps_speedup carries a machine-independent floor of 5.0: a
    # baseline recorded at the same low value cannot launder it through
    # the relative check.
    low = payload_with_ratios(kernel_steps_speedup=4.0)
    failures = check_regression(low, low)
    assert len(failures) == 1
    assert "absolute floor" in failures[0]


def test_absolute_floor_passes_at_or_above():
    ok = payload_with_ratios(
        kernel_steps_speedup=5.0, kernel_steps_speedup_lossy=3.0
    )
    assert check_regression(ok, ok) == []


def test_floor_not_enforced_when_key_absent():
    # Pre-kernel payloads (no kernel keys at all) still gate cleanly.
    assert check_regression(full_ratios(1.4), full_ratios(1.4)) == []


def hosted(payload: dict, python: str = "3.12", platform: str = "linux") -> dict:
    return {**payload, "host": {"python": python, "platform": platform}}


def test_hosts_match_compares_recorded_hosts():
    assert hosts_match(hosted({}), hosted({}))
    assert not hosts_match(hosted({}), hosted({}, platform="darwin"))
    # A payload predating host recording never matches: relative checks
    # must not pretend the hosts are known-identical.
    assert not hosts_match(hosted({}), {})


def test_compare_payloads_same_host_keeps_failures():
    baseline = hosted(full_ratios(1.4))
    failures, warnings = compare_payloads(hosted(full_ratios(1.0)), baseline)
    assert len(failures) == GATED
    assert warnings == []


def test_compare_payloads_cross_host_demotes_relative_to_warnings():
    baseline = hosted(full_ratios(1.4))
    current = hosted(full_ratios(1.0), platform="darwin")
    failures, warnings = compare_payloads(current, baseline)
    assert failures == []
    # The demoted shortfalls plus one explanatory preamble.
    assert len(warnings) == GATED + 1
    assert "host" in warnings[0]


def test_compare_payloads_cross_host_keeps_absolute_floors():
    baseline = hosted(payload_with_ratios(kernel_steps_speedup=6.0))
    current = hosted(
        payload_with_ratios(kernel_steps_speedup=4.0), platform="darwin"
    )
    failures, warnings = compare_payloads(current, baseline)
    assert len(failures) == 1
    assert "absolute floor" in failures[0]
    assert warnings  # the relative shortfall still surfaces as a warning


def test_dump_load_round_trip(tmp_path):
    payload = full_ratios(1.23)
    path = tmp_path / "bench.json"
    dump(payload, str(path))
    assert load(str(path)) == payload


def test_committed_bench_core_passes_its_own_gate():
    # The committed baseline must be self-consistent: its ratios compared
    # against itself always pass, and they are exactly the gated keys — a
    # retired gate's ratio left behind fails here, as does a gate with no
    # baseline.
    baseline = load(str(Path(__file__).resolve().parents[2] / "BENCH_core.json"))
    assert check_regression(baseline, baseline) == []
    assert set(baseline["ratios"]) == set(_GATE_KEYS)
    # It records exactly the legs of the table and the sizes they read.
    assert set(baseline["results"]) == {name for name, _, _ in bench._LEGS}
    assert set(baseline["config"]) == set(bench._SIZES[False]) | {"base_seed"}
    # The step kernel's headline: the committed numbers clear the same
    # absolute floors CI enforces, with the lossy leg above 3x.
    assert baseline["ratios"]["kernel_steps_speedup"] >= 5.0
    assert baseline["ratios"]["kernel_steps_speedup_lossy"] >= 3.0
    # The baseline records its host so cross-host checks can demote
    # baseline-relative failures to warnings.
    assert set(baseline["host"]) == {"python", "platform"}


def test_seed_comparison_backs_the_two_x_claim():
    # The before/after story in the docs is generated from these numbers;
    # keep them arithmetically consistent with themselves.
    for workload in ("reliable", "lossy"):
        entry = SEED_COMPARISON[workload]
        assert entry["steps_speedup"] == pytest.approx(
            entry["streaming_none_steps_per_second"]
            / entry["seed_steps_per_second"],
            abs=0.01,
        )
        assert entry["memory_reduction"] == pytest.approx(
            entry["seed_peak_tracemalloc_bytes"]
            / entry["streaming_none_peak_tracemalloc_bytes"],
            abs=0.01,
        )
        assert entry["steps_speedup"] >= 2.0
        assert entry["memory_reduction"] > 1.0
        assert (
            entry["seed_steps_per_second"]
            == SEED_BASELINE[workload]["steps_per_second"]
        )


def test_bench_cli_parser_accepts_the_documented_flags():
    from repro.cli import build_parser

    parser = build_parser()
    args = parser.parse_args(
        ["bench", "--quick", "--out", "x.json", "--check", "y.json",
         "--threshold", "0.3", "--base-seed", "7", "--only", "kernel"]
    )
    assert args.command == "bench"
    assert args.quick and args.out == "x.json" and args.check == "y.json"
    assert args.threshold == pytest.approx(0.3)
    assert args.base_seed == 7
    assert args.only == "kernel"
