"""The corruption fault family end to end (docs/PROTOCOL.md §13).

Four contracts pinned here:

* **wipe ≡ crash** — a wipe-mode ``CorruptAt`` compiles to the very crash
  move a ``CrashAt`` produces, so the two plans yield *identical traces*
  for identical seeds (crash-amnesia is corruption's special case);
* **seed-pinned replay** — a scramble consumes its own pinned tape, so
  the same plan and seeds reproduce the same corrupted run bit for bit,
  and forensics meta embeds enough (seed + field list) to re-scramble;
* **schema errors are actionable** — fuzzing mixed corrupt/crash/stall
  plans through the JSON parser only ever raises ``ValueError`` with a
  message naming the offending field;
* **campaign plumbing** — the stabilization report survives the compact
  worker wire format and campaign aggregates report convergence.
"""

from __future__ import annotations

import json
import os

import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.base import Corrupt, CrashTransmitter
from repro.adversary.corruption import StateCorruptionAdversary
from repro.adversary.random_faults import FaultProfile, RandomFaultAdversary
from repro.checkers.stabilization import ConvergenceRecord, StabilizationReport
from repro.core.events import Corruption
from repro.core.random_source import RandomSource, split_seed
from repro.core.receiver import Receiver
from repro.core.transmitter import Transmitter
from repro.resilience.artifacts import write_run_artifact
from repro.resilience.faultplan import (
    CorruptAt,
    CrashAt,
    FaultPlan,
    ScriptedAdversary,
    StallWindow,
    apply_fault_plan,
    event_from_dict,
)
from repro.resilience.supervisor import (
    CampaignConfig,
    RunReport,
    RunStatus,
    decode_report,
    encode_report,
    run_campaign,
)
from repro.sim.runner import RunSpec, run_once

from tests.resilience.conftest import make_paper_spec


def trace_events(spec: RunSpec, plan: FaultPlan, seed: int = 3):
    outcome = run_once(apply_fault_plan(spec, plan), seed)
    return list(outcome.result.trace)


# -- wipe ≡ crash -------------------------------------------------------------------


def test_wipe_mode_plan_is_trace_identical_to_crash_plan():
    spec = make_paper_spec(messages=3)
    wipe = FaultPlan.of(
        CorruptAt(step=5, station="T", mode="wipe"),
        CorruptAt(step=9, station="R", mode="wipe"),
    )
    crash = FaultPlan.of(
        CrashAt(step=5, station="T"),
        CrashAt(step=9, station="R"),
    )
    for seed in (0, 7, 42):
        assert trace_events(spec, wipe, seed) == trace_events(spec, crash, seed)


def test_scripted_wipe_compiles_to_the_crash_move():
    adversary = ScriptedAdversary(
        FaultPlan.of(CorruptAt(step=2, station="T", mode="wipe"))
    )
    adversary.bind(RandomSource(0))
    moves = [adversary.next_move() for __ in range(2)]
    assert isinstance(moves[1], CrashTransmitter)


def test_scripted_scramble_compiles_to_a_corrupt_move():
    adversary = ScriptedAdversary(
        FaultPlan.of(
            CorruptAt(step=3, station="R", fields=("rho",), seed=77)
        )
    )
    adversary.bind(RandomSource(0))
    moves = [adversary.next_move() for __ in range(3)]
    move = moves[2]
    assert isinstance(move, Corrupt)
    assert move.station == "R"
    assert move.fields == ("rho",)
    assert move.seed == 77


# -- seed-pinned replay -------------------------------------------------------------


def test_scrambled_runs_replay_bit_identically():
    spec = make_paper_spec(messages=4)
    plan = FaultPlan.of(
        CorruptAt(step=6, station="T", seed=9001),
        CorruptAt(step=14, station="R", seed=9002, fields=("rho", "tau")),
    )
    first = trace_events(spec, plan, seed=11)
    second = trace_events(spec, plan, seed=11)
    assert first == second
    corruptions = [e for e in first if isinstance(e, Corruption)]
    assert [c.seed for c in corruptions] == [9001, 9002]
    assert all(c.fields for c in corruptions)


def test_station_corrupt_is_deterministic_per_seed():
    def fresh_pair():
        from repro.core.protocol import make_data_link

        link = make_data_link(epsilon=2.0 ** -16, seed=5)
        return link.transmitter, link.receiver

    seed = split_seed(0, "corrupt-test")
    tm_a, rm_a = fresh_pair()
    tm_b, rm_b = fresh_pair()
    assert tm_a.corrupt(RandomSource(seed)) == tm_b.corrupt(RandomSource(seed))
    assert rm_a.corrupt(RandomSource(seed)) == rm_b.corrupt(RandomSource(seed))
    for name in Receiver.CORRUPTIBLE_FIELDS:
        private = f"_{name}"
        value_a = getattr(rm_a, private, None) or getattr(rm_a, name, None)
        value_b = getattr(rm_b, private, None) or getattr(rm_b, name, None)
        assert value_a == value_b


def test_station_corrupt_reports_known_fields_only():
    from repro.core.protocol import make_data_link

    link = make_data_link(epsilon=2.0 ** -16, seed=1)
    scrambled = link.receiver.corrupt(RandomSource(3))
    assert set(scrambled) <= set(Receiver.CORRUPTIBLE_FIELDS)
    with pytest.raises(ValueError):
        link.receiver.corrupt(RandomSource(3), fields=("no_such_slot",))
    with pytest.raises(ValueError):
        link.transmitter.corrupt(RandomSource(3), fields=("rho",))


# -- shrinker -----------------------------------------------------------------------


def test_scramble_shrinks_toward_wipe_and_field_halves():
    event = CorruptAt(step=4, station="T", seed=5)
    candidates = event.shrink_candidates()
    modes = [c.mode for c in candidates]
    assert "wipe" in modes
    halves = [c.fields for c in candidates if c.mode == "scramble"]
    full = Transmitter.CORRUPTIBLE_FIELDS
    assert all(h is not None and 0 < len(h) < len(full) for h in halves)
    # A wipe is already minimal: nothing below it.
    assert CorruptAt(step=4, station="T", mode="wipe").shrink_candidates() == ()


# -- schema fuzz --------------------------------------------------------------------


@pytest.mark.parametrize(
    "payload, needle",
    [
        ({"kind": "corrupt", "step": 0, "station": "T"}, "step"),
        ({"kind": "corrupt", "step": 1, "station": "Q"}, "station"),
        ({"kind": "corrupt", "step": 1, "station": "T", "mode": "melt"}, "mode"),
        ({"kind": "corrupt", "step": 1, "station": "T", "seed": -1}, "seed"),
        ({"kind": "corrupt", "step": 1, "station": "T", "fields": []}, "fields"),
        (
            {"kind": "corrupt", "step": 1, "station": "T", "fields": ["rho"]},
            "corruptible",
        ),
    ],
)
def test_corrupt_schema_errors_name_the_offending_field(payload, needle):
    with pytest.raises(ValueError) as err:
        event_from_dict(payload)
    assert needle in str(err.value)


_FUZZ_DICTS = st.fixed_dictionaries(
    {"kind": st.sampled_from(["corrupt", "crash", "stall"])},
    optional={
        "step": st.integers(min_value=-2, max_value=5),
        "start": st.integers(min_value=-2, max_value=5),
        "end": st.integers(min_value=-2, max_value=5),
        "station": st.sampled_from(["T", "R", "X", ""]),
        "mode": st.sampled_from(["scramble", "wipe", "melt"]),
        "seed": st.integers(min_value=-3, max_value=3),
        "fields": st.lists(
            st.sampled_from(["rho", "tau", "busy", "bogus"]), max_size=3
        ),
        "run": st.integers(min_value=-1, max_value=2),
    },
)


@settings(max_examples=300, deadline=None)
@given(payload=_FUZZ_DICTS)
def test_fuzzed_mixed_plans_parse_or_raise_value_error(payload):
    """Malformed plans must fail as schema errors, never as tracebacks."""
    try:
        event = event_from_dict(dict(payload))
    except (ValueError, TypeError) as err:
        assert str(err), "schema errors must carry a message"
    else:
        # Whatever parsed must survive a JSON round trip unchanged.
        rebuilt = event_from_dict(json.loads(json.dumps(event.to_dict())))
        assert rebuilt == event


def test_mixed_plan_json_round_trip(tmp_path):
    plan = FaultPlan.of(
        CorruptAt(step=3, station="T", seed=1),
        CorruptAt(step=8, station="R", fields=("rho",), seed=2, mode="scramble"),
        CorruptAt(step=11, station="T", mode="wipe"),
        CrashAt(step=15, station="R"),
        StallWindow(start=4, end=6),
        label="mixed",
    )
    path = os.path.join(tmp_path, "plan.json")
    plan.save(path)
    assert FaultPlan.load(path) == plan


# -- wire + artifacts ---------------------------------------------------------------


def _stabilization_report() -> StabilizationReport:
    return StabilizationReport(
        corruptions=2,
        converged=2,
        window=8,
        records=(
            ConvergenceRecord(
                station="T", fields=("tau", "num"), seed=9001,
                events=31, datagrams=9, wall_seconds=0.02,
            ),
            ConvergenceRecord(
                station="R", fields=(), seed=9002,
                events=12, datagrams=4, wall_seconds=0.01,
            ),
        ),
    )


def test_worker_wire_round_trips_stabilization():
    report = RunReport(
        index=3,
        seed=17,
        status=RunStatus.OK,
        completed=True,
        steps=120,
        liveness_passed=True,
        safety_summary={"order": (0, 5)},
        stabilization=_stabilization_report(),
    )
    decoded = decode_report(encode_report(report))
    assert decoded.stabilization == report.stabilization
    assert decoded.fingerprint() == report.fingerprint()
    # And None stays None (plain campaigns ship no stabilization payload).
    plain = RunReport(index=0, seed=1, status=RunStatus.OK)
    assert decode_report(encode_report(plain)).stabilization is None


def test_run_artifact_meta_embeds_scramble_seeds(tmp_path):
    report = RunReport(
        index=4,
        seed=99,
        status=RunStatus.SAFETY_FAILED,
        completed=True,
        safety_summary={"order": (1, 5)},
        stabilization=_stabilization_report(),
    )
    run_dir = write_run_artifact(str(tmp_path), report)
    with open(os.path.join(run_dir, "meta.json"), "r", encoding="utf-8") as f:
        meta = json.load(f)
    block = meta["stabilization"]
    assert block["corruptions"] == 2
    assert block["stabilized"] is True
    assert [r["seed"] for r in block["records"]] == [9001, 9002]
    assert block["records"][0]["fields"] == ["tau", "num"]


# -- campaign aggregates ------------------------------------------------------------


def test_corrupting_campaign_reports_convergence():
    spec = make_paper_spec(messages=10, label="corrupting")
    spec = RunSpec(
        link_factory=spec.link_factory,
        adversary_factory=lambda: StateCorruptionAdversary(
            rate_t=0.01,
            rate_r=0.01,
            inner=RandomFaultAdversary(FaultProfile(loss=0.1)),
        ),
        workload_factory=spec.workload_factory,
        max_steps=spec.max_steps,
        label=spec.label,
        stabilization=True,
        stabilization_window=8,
    )
    result = run_campaign(spec, 12, base_seed=5, config=CampaignConfig(jobs=1))
    assert result.corruptions_injected > 0
    assert result.corrupted_runs > 0
    # The acceptance bar: corrupted runs re-stabilize with clean verdicts.
    assert result.stabilized_rate >= 0.95
    assert all(r.status is RunStatus.OK for r in result.reports)
    assert result.convergence_events_p99 >= result.convergence_events_p50 > 0
    rendered = result.render()
    assert "stabilization" in rendered
    assert "stabilized" in rendered
