"""The `_deadline` guard off the main thread: watchdog-thread fallback.

SIGALRM — the supervisor's preferred per-run timeout mechanism — is only
legal on the main thread of the main interpreter.  Before the fallback
existed, a campaign driven from a worker thread (embedders, thread-pool
test harnesses) silently ran *unguarded*: a hung run hung the campaign.
These tests pin the fallback's contract: it interrupts a wedged run from
any thread, leaves no pending async exception behind on a clean exit, and
gives `run_campaign(in_process=True)` the same TIMEOUT semantics off the
main thread as on it.
"""

from __future__ import annotations

import threading
import time

from repro.resilience.faultplan import FaultPlan, HangAt
from repro.resilience.supervisor import (
    CampaignConfig,
    RunStatus,
    _AttemptTimeout,
    _can_use_sigalrm,
    _deadline,
    run_campaign,
)
from tests.resilience.conftest import make_paper_spec


def _run_in_thread(target, timeout: float = 30.0):
    """Run ``target`` on a fresh worker thread; return its result or raise."""
    box = {}

    def _wrapped():
        try:
            box["result"] = target()
        except BaseException as error:  # noqa: BLE001 - relayed to the test
            box["error"] = error

    thread = threading.Thread(target=_wrapped)
    thread.start()
    thread.join(timeout)
    assert not thread.is_alive(), "worker thread wedged: the guard never fired"
    if "error" in box:
        raise box["error"]
    return box.get("result")


def test_sigalrm_detection_is_thread_aware():
    assert _run_in_thread(_can_use_sigalrm) is False


def test_deadline_interrupts_busy_loop_off_main_thread():
    def _busy():
        started = time.monotonic()
        try:
            with _deadline(0.2):
                while time.monotonic() - started < 20.0:
                    pass
            return "not interrupted"
        except _AttemptTimeout:
            return time.monotonic() - started

    elapsed = _run_in_thread(_busy)
    assert isinstance(elapsed, float), elapsed
    assert elapsed < 5.0


def test_deadline_clean_exit_leaves_no_pending_exception():
    # A guard that fires *after* its block exits must not detonate later:
    # the disarm/clear handshake in the fallback's finally covers both the
    # never-fired and the fired-but-not-yet-raised cases.
    def _quick():
        for _ in range(50):
            with _deadline(30.0):
                pass
        # Give any leaked timer an opportunity to misfire into this thread.
        time.sleep(0.05)
        return "clean"

    assert _run_in_thread(_quick) == "clean"


def test_deadline_none_is_noop_off_main_thread():
    def _unguarded():
        with _deadline(None):
            return threading.active_count()

    assert _run_in_thread(_unguarded) is not None


def test_in_process_campaign_times_out_off_main_thread():
    # The regression this file exists for: a hung run inside
    # run_campaign(in_process=True) driven from a non-main thread must be
    # classified TIMEOUT, not hang the whole campaign.
    spec = make_paper_spec(messages=4)
    plan = FaultPlan.of(HangAt(step=3, run=0))
    config = CampaignConfig(in_process=True, timeout=1.0)

    def _campaign():
        return run_campaign(spec, 2, base_seed=0, config=config, fault_plan=plan)

    result = _run_in_thread(_campaign, timeout=60.0)
    statuses = {report.index: report.status for report in result.reports}
    assert statuses[0] is RunStatus.TIMEOUT
    assert statuses[1] is RunStatus.OK
