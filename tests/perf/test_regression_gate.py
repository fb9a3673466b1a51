"""Unit tests for the perf-regression gate (no timing involved).

The gate's arithmetic must be exact and boring: everything here runs on
hand-built payload dicts, so the tests are immune to host speed.  The
recorded full-run numbers live in the committed ``BENCH_core.json``; the
CI bench job exercises the real ``repro bench --quick`` path.
"""

from __future__ import annotations

import gc
import math
from itertools import cycle
from pathlib import Path
from types import SimpleNamespace

import pytest

from repro.perf import bench
from repro.perf.bench import (
    _GATE_FLOORS,
    SEED_BASELINE,
    SEED_COMPARISON,
    check_regression,
    dump,
    gate_ratios,
    load,
)

#: Every leg of the table, as the keys of a payload's ``results``.
ALL_LEGS = {name: {} for name, __, __, __ in bench._LEGS}


def full_results() -> dict:
    return {
        "live": {
            "lanes_1": {"messages_per_second": 100.0},
            "lanes_8": {"messages_per_second": 550.0},
        },
        "stabilization": {
            "plain": {"steps_per_second": 200.0},
            "monitored": {"steps_per_second": 160.0,
                          "overhead_median": 0.8},
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


def test_gate_ratios_from_results():
    ratios = gate_ratios(full_results())
    assert ratios == {
        "live_lane_speedup": pytest.approx(5.5),
        "stabilization_overhead": pytest.approx(0.8),
        "kernel_steps_speedup": pytest.approx(6.0),
        "kernel_steps_speedup_lossy": pytest.approx(4.5),
        "relay_hop_efficiency": pytest.approx(1.25),
        "relay_kernel_speedup": pytest.approx(4.4),
        "relay_stripe_speedup": pytest.approx(1.8),
    }
    # One floor per ratio a full run measures, and each leg names the
    # ratios it yields.
    assert set(ratios) == set(_GATE_FLOORS)
    for name, __, gated, __ in bench._LEGS:
        assert set(gate_ratios({name: full_results()[name]})) == set(gated)


def test_gate_ratios_skip_absent_legs():
    # A payload without some legs (an --only run) still produces the
    # other ratios instead of KeyError-ing, and a leg recorded without its
    # paired median produces no ratio, which the gate then fails.
    results = {
        "stabilization": full_results()["stabilization"],
        "relay": {
            "line_1": {"messages_per_second": 400.0, "hops": 1},
            "line_4": {"messages_per_second": 120.0, "hops": 4},
        },
    }
    ratios = gate_ratios(results)
    assert ratios == {"stabilization_overhead": pytest.approx(0.8)}
    assert check_regression({"results": results, "ratios": ratios}) == [
        "relay_hop_efficiency: missing, although the relay leg ran"
    ]


@pytest.mark.parametrize("key", sorted(_GATE_FLOORS))
def test_each_ratio_fails_just_below_its_floor(key):
    at_floor = {"results": ALL_LEGS, "ratios": dict(_GATE_FLOORS)}
    assert check_regression(at_floor) == []
    below = dict(_GATE_FLOORS)
    below[key] = math.nextafter(_GATE_FLOORS[key], 0.0)
    failures = check_regression({"results": ALL_LEGS, "ratios": below})
    assert len(failures) == 1
    assert failures[0].startswith(f"{key}: ") and "fell below" in failures[0]
    missing = dict(_GATE_FLOORS)
    del missing[key]
    failures = check_regression({"results": ALL_LEGS, "ratios": missing})
    assert len(failures) == 1
    assert failures[0].startswith(f"{key}: missing")


@pytest.mark.parametrize("only", ["kernel", "relay"])
def test_a_group_gates_only_the_ratios_of_its_legs(only):
    ran = {
        name: {} for name, group, __, __ in bench._LEGS if group == only
    }
    gated = {
        key
        for name, group, keys, __ in bench._LEGS
        if group == only
        for key in keys
    }
    # Every other ratio may be missing or below its floor: those legs did
    # not run, so they gate nothing.
    ratios = {key: 0.0 for key in _GATE_FLOORS if key not in gated}
    ratios.update({key: _GATE_FLOORS[key] for key in gated})
    assert check_regression({"results": ran, "ratios": ratios}) == []
    assert check_regression({"results": ran, "ratios": {}}) == [
        f"{key}: missing, although the {name} leg ran"
        for name, group, keys, __ in bench._LEGS
        if group == only
        for key in keys
    ]


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


def test_stabilization_overhead_is_the_median_plain_over_monitored_wall(
    monkeypatch,
):
    # A fake clock: a plain run lasts 1.0 s and a monitored one 1.25 s,
    # so the monitored variant runs at 0.8 of plain throughput.
    clock = [0.0]
    steps = {False: 100, True: 100}
    corruptions = [2]

    def fake_run_once(spec, seed):
        clock[0] += 1.25 if spec.stabilization else 1.0
        return SimpleNamespace(result=SimpleNamespace(
            steps=steps[spec.stabilization],
            trace=SimpleNamespace(total_events=7),
            metrics=SimpleNamespace(
                corruptions_t=corruptions[0], corruptions_r=0
            ),
        ))

    monkeypatch.setattr(bench, "run_once", fake_run_once)
    monkeypatch.setattr(bench, "perf_counter", lambda: clock[0])
    stats = bench._bench_stabilization(messages=5, runs=3, base_seed=0)
    assert gate_ratios({"stabilization": stats}) == {
        "stabilization_overhead": pytest.approx(0.8)
    }
    # The warm-up pair is left out of every total.
    assert stats["plain"]["steps"] == stats["monitored"]["steps"] == 300
    assert stats["plain"]["wall_seconds"] == pytest.approx(3.0)
    assert stats["monitored"]["corruptions"] == 6
    # Both variants must simulate the identical run ...
    steps[True] = 101
    with pytest.raises(RuntimeError, match="diverged"):
        bench._bench_stabilization(messages=5, runs=3, base_seed=0)
    # ... and the workload must corrupt, or the monitor idles.
    steps[True] = 100
    corruptions[0] = 0
    with pytest.raises(RuntimeError, match="no corruptions"):
        bench._bench_stabilization(messages=5, runs=3, base_seed=0)


def test_dump_load_round_trip(tmp_path):
    payload = {"ratios": {"stabilization_overhead": 1.23}}
    path = tmp_path / "bench.json"
    dump(payload, str(path))
    assert load(str(path)) == payload


def test_committed_bench_core_is_one_full_run_that_clears_every_floor():
    # The committed payload is a full run (never a quick one written over
    # it), it clears every floor, and its ratios are exactly the gated
    # keys: a retired ratio left behind fails here, as does a floor that
    # no leg measures.
    baseline = load(str(Path(__file__).resolve().parents[2] / "BENCH_core.json"))
    assert baseline["quick"] is False
    assert check_regression(baseline) == []
    assert set(baseline["ratios"]) == set(_GATE_FLOORS)
    # It records exactly the legs of the table and the sizes they read,
    # on one host.
    assert set(baseline["results"]) == set(ALL_LEGS)
    assert baseline["config"] == {**bench._SIZES[False], "base_seed": 0}
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
        ["bench", "--quick", "--out", "x.json", "--base-seed", "7",
         "--only", "kernel"]
    )
    assert args.command == "bench"
    assert args.quick and args.out == "x.json"
    assert args.base_seed == 7
    assert args.only == "kernel"
