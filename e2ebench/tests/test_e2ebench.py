"""The benchmark's own tests: seeded inputs, metric names, checks that bite.

Run from the repository root with ``python -m pytest e2ebench/tests``.
Sizes are tiny; the timed runs themselves are exercised by ``run.py``.
"""

import itertools
import json
import re

import harness
import link_campaign
import live_chaos
import relay_fabric
import run
from spans import Tracer, patch

from repro.baselines.naive_handshake import make_naive_handshake_link
from repro.checkers.live import LiveEventLog
from repro.resilience.supervisor import CampaignConfig, run_campaign

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")
ALL_METRICS = harness.END_TO_END + harness.PER_LAYER


# -- metric registry and result line ------------------------------------------


def test_metric_names_are_unique_and_carry_units():
    names = [name for name, _, _ in ALL_METRICS]
    assert len(names) == len(set(names))
    for name, unit, better in ALL_METRICS:
        assert NAME.fullmatch(name), name
        assert UNIT.fullmatch(unit), (name, unit)
        assert better in ("higher", "lower"), name


def test_benchmark_json_lists_the_registry():
    spec = json.loads((harness.ROOT / "BENCHMARK.json").read_text())
    assert spec["command"][1] == "e2ebench/run.py"
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    for key, registry in (
        ("end_to_end", harness.END_TO_END),
        ("per_layer", harness.PER_LAYER),
    ):
        listed = [(m["name"], m["unit"], m["better"]) for m in spec[key]]
        assert listed == list(registry), key


def test_result_line_has_every_metric_with_its_unit():
    outcome = harness.Outcome(attempted=3)
    outcome.metrics = {name: 1.25 for name, _, _ in harness.END_TO_END}
    outcome.metrics["trace.overhead"] = 0.9
    for trace, registry in ((False, harness.END_TO_END), (True, harness.PER_LAYER)):
        line = json.loads(harness.result_line(outcome, trace))
        assert set(line) == {"correct", "attempted", "failed", "metrics"}
        assert line["correct"] is True and line["attempted"] == 3
        assert {k: v["unit"] for k, v in line["metrics"].items()} == {
            name: unit for name, unit, _ in registry
        }


def test_alternate_pairs_each_result_with_the_host_slowdown():
    calls = []
    modes = [lambda: calls.append("a") or "a", lambda: calls.append("b") or "b"]
    first, second = harness.alternate(modes, seconds=0.0, least=3)
    assert calls == ["a", "b"] * 3
    assert [rep.value for rep in first] == ["a"] * 3
    assert all(rep.slowdown > 0 for rep in first + second)


def test_reference_work_is_fixed():
    assert harness.reference() == harness.reference()
    assert harness.reference(100) != harness.reference()
    assert harness.reference() > 0


def test_tick_percentiles_interpolate_within_an_integer():
    assert harness.tick_percentiles([7] * 100) == (7.0, 7.49)
    p50, _ = harness.tick_percentiles([7] * 60 + [8] * 40)
    assert 6.5 < p50 < 7.5 and p50 != 7.0


# -- seeded inputs ------------------------------------------------------------


def _campaign_counts(seed):
    result = run_campaign(
        link_campaign.make_spec(messages=10),
        6,
        base_seed=link_campaign.base_seeds(seed)[0],
        config=CampaignConfig(in_process=True),
    )
    assert link_campaign.check(result) == []
    return link_campaign.counts([result])


def test_link_campaign_counts_repeat_for_a_seed_and_move_with_it():
    first = _campaign_counts(1)
    assert _campaign_counts(1) == first
    assert _campaign_counts(2) != first


def _stream_fingerprints(seed):
    stream_seed = next(relay_fabric.stream_seeds(seed))
    streams = [
        relay_fabric.run_stream(spec, stream_seed)
        for spec in relay_fabric.make_specs(messages=20)
    ]
    assert [p for s in streams for p in s.problems()] == []
    return [s.fingerprint() for s in streams]


def test_relay_fabric_counts_repeat_for_a_seed_and_move_with_it():
    first = _stream_fingerprints(1)
    assert _stream_fingerprints(1) == first
    assert _stream_fingerprints(2) != first


def test_live_chaos_inputs_repeat_for_a_seed_and_move_with_it():
    def inputs(seed):
        scenarios = live_chaos.scenarios(seed, messages=50)
        return [(s.seed, s.plan) for s in itertools.islice(scenarios, 3)]

    assert inputs(1) == inputs(1)
    assert inputs(2) != inputs(1)


def test_live_chaos_probe_times_every_message_and_comes_off():
    original = LiveEventLog.record
    scenario = next(live_chaos.scenarios(1, messages=100))
    probe = live_chaos.LatencyProbe()
    with probe.instrument():
        done = live_chaos.run_scenario(scenario, probe)
    assert LiveEventLog.record is original
    assert done.problems == [] and done.undelivered == 0
    assert len(done.msg_seconds) == len(done.msg_cpu) == done.oks == 100
    assert len(done.msg_turns) == 100
    assert len(done.block_seconds) == 1
    (wall, cpu), = done.block_seconds
    assert 0 < cpu <= wall * 1.01
    assert done.bits > 0 and done.datagrams >= 2 * done.oks


# -- checks that bite ---------------------------------------------------------


def test_relay_fabric_check_catches_the_no_dedup_ablation():
    stream_seed = next(relay_fabric.stream_seeds(1))
    line, _ = relay_fabric.make_specs(messages=60, exactly_once=False)
    stream = relay_fabric.run_stream(line, stream_seed)
    assert any("VIOLATED" in problem for problem in stream.problems())


def test_link_campaign_check_catches_the_fixed_nonce_strawman():
    spec = link_campaign.make_spec(
        messages=20,
        link_factory=lambda seed: make_naive_handshake_link(nonce_bits=2, seed=seed),
    )
    result = run_campaign(
        spec,
        8,
        base_seed=link_campaign.base_seeds(1)[0],
        config=CampaignConfig(in_process=True),
    )
    assert any("safety_failed" in problem for problem in link_campaign.check(result))


# -- spans ----------------------------------------------------------------------


class _Layers:
    def outer(self):
        return self.inner() + 1

    def inner(self):
        return 1


class _Derived(_Layers):
    pass


def test_spans_nest_count_self_time_and_come_off(tmp_path):
    tracer = Tracer()
    outer, inner = _Layers.outer, _Layers.inner
    with tracer.instrument([(_Layers, "outer", "a"), (_Layers, "inner", "b")]):
        assert _Layers().outer() == 2
    assert (_Layers.outer, _Layers.inner) == (outer, inner)
    assert tracer.call_count("a") == tracer.call_count("b") == 1
    total_a = tracer.total[tracer.names.index("a")]
    assert tracer.self_seconds("a") < total_a
    assert abs(tracer.self_seconds("a") + tracer.self_seconds("b") - total_a) < 1e-9

    path = tmp_path / "spans.jsonl"
    tracer.dump(str(path), {"workload": "test"})
    header, *spans = [json.loads(line) for line in path.read_text().splitlines()]
    assert header["spans"] == header["written"] == 2
    by_name = {span["name"]: span for span in spans}
    assert by_name["b"]["parent"] == by_name["a"]["id"]
    assert by_name["a"]["parent"] == -1


def test_patch_removes_what_it_added_to_a_subclass():
    with patch(_Derived, "inner", lambda self: 5):
        assert _Derived().outer() == 6
    assert "inner" not in vars(_Derived)
    assert _Derived().outer() == 2
