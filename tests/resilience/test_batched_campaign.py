"""Batched campaign engine: sharding, wire codec, session reuse, determinism.

The engine's contract is that batching is *pure scheduling*: for a fixed
``(spec, runs, base_seed)`` the terminal reports are bit-identical for any
``jobs``, whatever shard size that implies, including the in-process path.  These
tests pin that contract down, plus the pieces it stands on — the compact
wire codec round-trips losslessly, and a reused :class:`RunSession` (and
the :meth:`Simulator.reset` underneath it) reproduces per-run construction
exactly.
"""

from __future__ import annotations

import dataclasses

from repro.adversary.random_faults import FaultProfile, RandomFaultAdversary
from repro.core.protocol import make_data_link
from repro.resilience.faultplan import AbortAt, CrashAt, FaultPlan, ScriptedAdversary
from repro.resilience.supervisor import (
    CampaignConfig,
    RunReport,
    RunStatus,
    decode_report,
    derive_run_seed,
    encode_report,
    execute_attempt,
    run_campaign,
)
from repro.sim.metrics import SimulationMetrics
from repro.sim.runner import RunSession, RunSpec, run_once
from repro.sim.simulator import Simulator
from repro.sim.workload import SequentialWorkload
from tests.resilience.conftest import make_paper_spec


def make_lossy_spec(messages: int = 2) -> RunSpec:
    """The real protocol under random loss — short runs, non-trivial tapes."""
    return RunSpec(
        link_factory=lambda seed: make_data_link(epsilon=2.0 ** -16, seed=seed),
        adversary_factory=lambda: RandomFaultAdversary(FaultProfile(loss=0.2)),
        workload_factory=lambda seed: SequentialWorkload(messages),
        max_steps=50_000,
        label="lossy",
        retain="none",
    )


# -- shard determinism -------------------------------------------------------------


def test_fingerprint_identical_across_jobs():
    # The headline determinism claim: every scheduling shape reproduces the
    # in-process campaign bit for bit.  Six runs make shards of two at one
    # job and of one at two jobs.
    spec = make_lossy_spec()
    baseline = run_campaign(
        spec, 6, base_seed=11, config=CampaignConfig(in_process=True)
    ).fingerprint()
    for jobs, shard in ((1, 2), (2, 1)):
        config = CampaignConfig(jobs=jobs)
        assert config.resolve_chunk_size(6) == shard
        result = run_campaign(spec, 6, base_seed=11, config=config)
        assert result.fingerprint() == baseline, (
            f"jobs={jobs} diverged from in-process"
        )


def test_mid_campaign_retry_keeps_other_shard_runs_intact():
    # A crash inside a shard retries as a single-run shard; its shard-mates
    # must still match the serial campaign.  Sixteen runs over two workers
    # make shards of two, so run 3 shares run 2's shard.
    spec = make_paper_spec()
    plan = FaultPlan.of(AbortAt(step=3, run=2))
    config = CampaignConfig(jobs=2, retries=1)
    assert config.resolve_chunk_size(16) == 2
    serial = run_campaign(
        spec, 16, base_seed=0, fault_plan=plan,
        config=CampaignConfig(in_process=True, retries=1),
    )
    sharded = run_campaign(spec, 16, base_seed=0, config=config, fault_plan=plan)
    assert sharded.fingerprint() == serial.fingerprint()
    assert sharded.reports[2].attempts == 2
    assert sharded.reports[2].seed == derive_run_seed(0, 2, 1)
    assert sharded.reports[3].attempts == 1


def test_resolve_chunk_size():
    # ~4 shards per worker, capped at 32.
    assert CampaignConfig(jobs=1).resolve_chunk_size(16) == 4
    assert CampaignConfig(jobs=2).resolve_chunk_size(16) == 2
    assert CampaignConfig(jobs=1).resolve_chunk_size(1024) == 32
    assert CampaignConfig(jobs=1).resolve_chunk_size(1) == 1


# -- wire codec --------------------------------------------------------------------


def test_encode_decode_round_trips_a_real_ok_report():
    spec = make_lossy_spec()
    report = execute_attempt(
        spec, None, 3, derive_run_seed(9, 3, 0), None, capture_trace=False
    )
    assert report.status is RunStatus.OK
    assert decode_report(encode_report(report)) == report


def test_encode_decode_round_trips_a_failure_with_forensics():
    report = RunReport(
        index=5,
        seed=123,
        status=RunStatus.SAFETY_FAILED,
        completed=True,
        steps=77,
        duration=0.25,
        liveness_passed=False,
        metrics=None,
        safety_summary={"no-duplication": (2, 40), "order": (0, 12)},
        violations=("no-duplication",),
        trace_jsonl='{"type": "deliver_pkt"}\n',
        error="safety violated: no-duplication",
        trace_dropped_events=3,
    )
    decoded = decode_report(encode_report(report))
    assert decoded == report
    assert decoded.fingerprint() == report.fingerprint()


def test_wire_excludes_parent_stamped_fields():
    # attempts/worker_deaths are classification state owned by the parent;
    # a worker-side encoding must come back with the defaults, whatever the
    # in-memory report said.
    report = RunReport(index=0, seed=1, status=RunStatus.OK,
                       attempts=3, worker_deaths=2)
    decoded = decode_report(encode_report(report))
    assert decoded.attempts == 1
    assert decoded.worker_deaths == 0


def test_metrics_wire_round_trip_from_a_real_run():
    outcome = run_once(make_lossy_spec(), seed=42)
    metrics = outcome.metrics
    rebuilt = SimulationMetrics.from_wire(metrics.to_wire())
    # Everything except the deliberately dropped storage series survives.
    assert rebuilt == dataclasses.replace(metrics, storage_samples=[])


# -- session reuse / Simulator.reset ----------------------------------------------


def outcome_fingerprint(outcome) -> tuple:
    """Deterministic identity of a RunOutcome (no wall-clock fields)."""
    wire = outcome.metrics.to_wire()
    return (
        outcome.seed,
        outcome.result.completed,
        outcome.result.steps,
        outcome.liveness_passed,
        tuple(
            (r.condition, r.failure_count, r.trials)
            for r in outcome.safety.all_reports
        ),
        wire[:16] + (wire[18],),  # drop wall_seconds / checker_seconds
    )


def test_session_reuse_matches_fresh_construction_per_seed():
    spec = make_lossy_spec()
    session = RunSession(spec)
    for index in range(5):
        seed = derive_run_seed(7, index, 0)
        reused = outcome_fingerprint(session.run(seed))
        fresh = outcome_fingerprint(run_once(spec, seed))
        assert reused == fresh, f"session diverged from fresh harness at {seed}"


def test_simulator_reset_identical_to_fresh_after_crash_fault_run():
    # The reset property the batch engine leans on, exercised directly at
    # the Simulator level: a run full of station crashes, then a reset —
    # the recycled harness must replay a fresh simulator bit for bit.
    def components(seed):
        return (
            make_data_link(epsilon=2.0 ** -16, seed=seed),
            SequentialWorkload(4),
        )

    crashy_link, crashy_workload = components(101)
    crashy = ScriptedAdversary(
        FaultPlan.of(CrashAt(step=7, station="R"), CrashAt(step=15, station="T"))
    )
    sim = Simulator(crashy_link, crashy, crashy_workload, seed=5, max_steps=50_000)
    first = sim.run()
    assert first.metrics.crashes_t + first.metrics.crashes_r > 0

    link_a, workload_a = components(202)
    sim.reset(link_a, RandomFaultAdversary(FaultProfile(loss=0.3)),
              workload_a, seed=9)
    recycled = sim.run()

    link_b, workload_b = components(202)
    fresh = Simulator(
        link_b, RandomFaultAdversary(FaultProfile(loss=0.3)), workload_b,
        seed=9, max_steps=50_000,
    ).run()
    assert recycled.steps == fresh.steps
    assert recycled.completed == fresh.completed
    assert list(recycled.trace) == list(fresh.trace)
    assert recycled.metrics.to_wire()[:16] == fresh.metrics.to_wire()[:16]


def test_session_invalidates_after_in_run_exception():
    spec = make_paper_spec()
    session = RunSession(spec)
    seed = derive_run_seed(1, 0, 0)
    session.run(seed)
    plan = FaultPlan.of(AbortAt(step=3))
    report = execute_attempt(spec, plan, 0, seed, None, capture_trace=False,
                             session=session)
    assert report.status is RunStatus.CRASHED
    # The crashed run dropped the recycled harness; the next run rebuilds
    # clean and still matches per-run construction.
    after = outcome_fingerprint(session.run(seed))
    assert after == outcome_fingerprint(run_once(spec, seed))


# -- pooled runs against fresh ones ------------------------------------------------


def test_pooled_campaign_matches_fresh_runs_per_seed():
    # The campaign pool must forward retention and factories through the
    # batched engine: each pooled report matches a fresh run at its seed,
    # statuses and per-condition counts alike.  Nine runs over two workers
    # make shards of two, so a pooled session is reused across runs while
    # its trace keeps only a tail.
    spec = dataclasses.replace(make_lossy_spec(), retain="tail", tail_size=32)
    config = CampaignConfig(jobs=2)
    assert config.resolve_chunk_size(9) == 2
    pooled = run_campaign(spec, 9, base_seed=13, config=config)
    assert pooled.status_counts["ok"] == 9
    order_trials = 0
    for index, report in enumerate(pooled.reports):
        fresh = run_once(spec, derive_run_seed(13, index, 0))
        assert report.seed == fresh.seed
        assert report.completed == fresh.result.completed
        assert report.steps == fresh.result.steps
        assert report.safety_summary == {
            r.condition: (r.failure_count, r.trials)
            for r in fresh.safety.all_reports
        }
        order_trials += fresh.safety.order.trials
    assert pooled.order_violation_rate.trials == order_trials


# -- throughput reporting ----------------------------------------------------------


def test_wall_and_cpu_throughput_are_both_reported():
    spec = make_lossy_spec()
    result = run_campaign(
        spec, 4, base_seed=3, config=CampaignConfig(in_process=True)
    )
    assert result.wall_seconds > 0.0
    assert result.wall_steps_per_second > 0.0
    assert result.steps_per_second > 0.0
    # In-process the campaign wall clock contains every run's wall clock
    # plus dispatch, so the wall rate can never exceed the aggregate-CPU
    # rate.
    assert result.wall_steps_per_second <= result.steps_per_second


def test_fingerprint_excludes_campaign_wall_clock():
    spec = make_paper_spec()
    result = run_campaign(
        spec, 2, base_seed=0, config=CampaignConfig(in_process=True)
    )
    slower = dataclasses.replace(result, wall_seconds=result.wall_seconds * 10)
    assert slower.fingerprint() == result.fingerprint()
