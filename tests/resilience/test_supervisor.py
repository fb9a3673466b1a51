"""Supervisor tests: statuses, retries, timeouts, crash isolation, determinism."""

from __future__ import annotations

import dataclasses

import pytest

from repro.resilience.faultplan import AbortAt, FaultPlan, HangAt
from repro.resilience.supervisor import (
    CampaignConfig,
    RunReport,
    RunStatus,
    derive_run_seed,
    execute_attempt,
    run_campaign,
)
from tests.resilience.conftest import (
    REPRO_BASE_SEED,
    REPRO_RUN_INDEX,
    crash_then_replay_plan,
)


def test_derive_run_seed_is_pure_and_attempt_sensitive():
    assert derive_run_seed(7, 3, 0) == derive_run_seed(7, 3, 0)
    assert derive_run_seed(7, 3, 0) != derive_run_seed(7, 3, 1)
    assert derive_run_seed(7, 3, 0) != derive_run_seed(7, 4, 0)


def test_config_validation():
    with pytest.raises(ValueError):
        CampaignConfig(jobs=0)
    with pytest.raises(ValueError):
        CampaignConfig(retries=-1)
    with pytest.raises(ValueError):
        CampaignConfig(timeout=0.0)


def test_report_fingerprint_ignores_wall_clock():
    report = RunReport(index=0, seed=1, status=RunStatus.OK, duration=0.5)
    slower = dataclasses.replace(report, duration=9.9)
    assert report.fingerprint() == slower.fingerprint()


def test_execute_attempt_ok_and_safety_summary(paper_spec):
    report = execute_attempt(
        paper_spec, None, 0, derive_run_seed(0, 0, 0), None, capture_trace=False
    )
    assert report.status is RunStatus.OK
    assert report.has_data
    assert report.completed
    assert set(report.safety_summary) == {
        "causality", "order", "no-duplication", "no-replay"
    }


def test_execute_attempt_classifies_scripted_crash(paper_spec):
    plan = FaultPlan.of(AbortAt(step=3))
    report = execute_attempt(
        paper_spec, plan, 0, derive_run_seed(0, 0, 0), None, capture_trace=False
    )
    assert report.status is RunStatus.CRASHED
    assert not report.has_data
    assert "FaultInjectionAbort" in report.error


def test_execute_attempt_times_out_on_scripted_hang(paper_spec):
    plan = FaultPlan.of(HangAt(step=3))
    report = execute_attempt(
        paper_spec, plan, 0, derive_run_seed(0, 0, 0), 0.3, capture_trace=False
    )
    assert report.status is RunStatus.TIMEOUT
    assert "wall-clock" in report.error


def test_in_process_campaign_all_ok(paper_spec):
    config = CampaignConfig(in_process=True)
    result = run_campaign(paper_spec, 3, base_seed=1, config=config)
    assert result.status_counts == {
        "ok": 3, "safety_failed": 0, "timeout": 0, "crashed": 0,
        "exhausted_retries": 0,
    }
    assert result.missing_data == 0
    assert result.completion_rate == 1.0
    assert not result.any_safety_violation


def test_scripted_safety_failure_is_reported(strawman_spec):
    plan = crash_then_replay_plan(run=REPRO_RUN_INDEX)
    config = CampaignConfig(in_process=True)
    result = run_campaign(
        strawman_spec, REPRO_RUN_INDEX + 1, base_seed=REPRO_BASE_SEED,
        config=config, fault_plan=plan,
    )
    report = result.reports[REPRO_RUN_INDEX]
    assert report.status is RunStatus.SAFETY_FAILED
    assert report.safety_summary["no-duplication"][0] > 0
    assert report.violations
    assert result.any_safety_violation


def test_retries_exhausted_converts_status(paper_spec):
    plan = FaultPlan.of(AbortAt(step=3, run=0))
    config = CampaignConfig(in_process=True, retries=2)
    result = run_campaign(paper_spec, 2, base_seed=0, config=config, fault_plan=plan)
    failed, healthy = result.reports
    assert failed.status is RunStatus.EXHAUSTED_RETRIES
    assert failed.attempts == 3
    assert "retries exhausted" in failed.error
    assert healthy.status is RunStatus.OK
    assert healthy.attempts == 1


def test_no_retries_keeps_raw_status(paper_spec):
    plan = FaultPlan.of(AbortAt(step=3, run=0))
    config = CampaignConfig(in_process=True)
    result = run_campaign(paper_spec, 1, base_seed=0, config=config, fault_plan=plan)
    assert result.reports[0].status is RunStatus.CRASHED


def test_retry_attempts_use_fresh_seeds(paper_spec):
    plan = FaultPlan.of(AbortAt(step=3, run=0))
    config = CampaignConfig(in_process=True, retries=1)
    result = run_campaign(paper_spec, 1, base_seed=5, config=config, fault_plan=plan)
    report = result.reports[0]
    # The terminal attempt carried attempt index 1, not 0.
    assert report.seed == derive_run_seed(5, 0, 1)


def test_pool_campaign_matches_in_process_fingerprint(paper_spec):
    config_pool = CampaignConfig(jobs=2)
    config_serial = CampaignConfig(in_process=True)
    pool = run_campaign(paper_spec, 4, base_seed=3, config=config_pool)
    serial = run_campaign(paper_spec, 4, base_seed=3, config=config_serial)
    assert pool.fingerprint() == serial.fingerprint()


def test_worker_crash_is_isolated_and_blamed(paper_spec):
    plan = FaultPlan.of(AbortAt(step=3, hard=True, run=1))
    config = CampaignConfig(jobs=2)
    result = run_campaign(paper_spec, 4, base_seed=0, config=config, fault_plan=plan)
    counts = result.status_counts
    assert counts["crashed"] == 1
    assert counts["ok"] == 3
    crashed = result.reports[1]
    assert crashed.status is RunStatus.CRASHED
    assert crashed.worker_deaths >= 1
    assert "worker process died" in crashed.error


def test_pool_timeout_interrupts_hung_worker(paper_spec):
    plan = FaultPlan.of(HangAt(step=3, run=0))
    config = CampaignConfig(jobs=2, timeout=0.5)
    result = run_campaign(paper_spec, 2, base_seed=0, config=config, fault_plan=plan)
    assert result.reports[0].status is RunStatus.TIMEOUT
    assert result.reports[1].status is RunStatus.OK


def test_monte_carlo_parallel_returns_campaign_aggregates(paper_spec):
    result = run_campaign(
        paper_spec, 3, base_seed=2, config=CampaignConfig(jobs=2)
    )
    assert result.completion_rate == 1.0
    assert result.order_violation_rate.trials > 0
    assert not result.any_safety_violation
    assert result.status_counts["ok"] == 3


def test_render_lists_every_status_and_label(strawman_spec):
    plan = FaultPlan.of(AbortAt(step=3, run=0))
    config = CampaignConfig(in_process=True)
    result = run_campaign(strawman_spec, 2, base_seed=0, config=config, fault_plan=plan)
    text = result.render()
    for status in RunStatus:
        assert status.value in text
    assert "strawman" in text
    assert "non-ok runs" in text

