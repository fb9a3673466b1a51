"""Compact campaign reports: what a campaign keeps per run stays small.

A campaign keeps every run's :class:`RunReport`, so its footprint grows
with the run count.  Reports and their metrics are slotted (no per-instance
``__dict__`` on Python >= 3.10), and a pooled campaign decodes equal
safety summaries to one shared, read-only dict.  The sharing is held per
campaign, never across campaigns.
"""

from __future__ import annotations

import dataclasses
import multiprocessing
import sys

import pytest

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
from tests.resilience.conftest import make_paper_spec

needs_fork = pytest.mark.skipif(
    "fork" not in multiprocessing.get_all_start_methods(),
    reason="pooled campaigns need fork",
)


def ok_report(index: int = 3) -> RunReport:
    # Verdict-only, as campaigns run: no storage series, which the wire drops.
    report = execute_attempt(
        dataclasses.replace(make_paper_spec(), retain="none"),
        None,
        index,
        derive_run_seed(9, index, 0),
        None,
        capture_trace=False,
    )
    assert report.status is RunStatus.OK
    return report


@needs_fork
def test_pooled_campaign_shares_equal_summaries():
    # The paper's protocol under a benign schedule: every run of three
    # messages ends with the same summary.
    spec = make_paper_spec()
    first = run_campaign(spec, 6, base_seed=1, config=CampaignConfig(jobs=2))
    summaries = [report.safety_summary for report in first.reports]
    assert all(summary == summaries[0] for summary in summaries)
    assert all(summary is summaries[0] for summary in summaries)
    # The sharing is bounded by one campaign.
    second = run_campaign(spec, 2, base_seed=1, config=CampaignConfig(jobs=1))
    assert second.reports[0].safety_summary == summaries[0]
    assert second.reports[0].safety_summary is not summaries[0]


def test_decode_round_trips_and_shares_only_equal_summaries():
    summaries = {}
    report = ok_report()
    wire = encode_report(report)
    first = decode_report(wire, summaries)
    again = decode_report(encode_report(report), summaries)
    assert first == again == report
    assert first.safety_summary is again.safety_summary
    different = RunReport(
        index=4,
        seed=5,
        status=RunStatus.SAFETY_FAILED,
        safety_summary={"order": (1, 3)},
    )
    other = decode_report(encode_report(different), summaries)
    assert other == different
    assert other.safety_summary is not first.safety_summary
    no_data = RunReport(index=0, seed=1, status=RunStatus.TIMEOUT, error="slow")
    assert decode_report(encode_report(no_data), summaries) == no_data
    assert len(summaries) == 2


@pytest.mark.skipif(
    sys.version_info < (3, 10), reason="dataclass slots need Python 3.10"
)
def test_reports_and_metrics_are_slotted():
    report = decode_report(encode_report(ok_report()))
    assert isinstance(report.metrics, SimulationMetrics)
    assert not hasattr(report, "__dict__")
    assert not hasattr(report.metrics, "__dict__")
