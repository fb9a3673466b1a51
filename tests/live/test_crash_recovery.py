"""Crash-amnesia invariants on the live wire.

A station crash wipes volatile state (the paper's model: memory dies, the
entropy source survives).  These tests kill each station at every early
wire turn — the first handful of proxy-observed datagrams covers every
phase of a handshake: initial poll, data packet, acknowledging poll, and
the start of the next handshake — and assert that:

* no message is ever delivered twice and no stale packet is replayed into
  a later handshake (the streaming safety verdicts, which already encode
  the crash-aware resets of Section 2.6);
* the link eventually re-syncs and the full workload is delivered, or the
  run ends in an *explicit* give-up — never a hang (the budget/give-up
  teardown is part of the invariant);
* a transmitter crash mid-handshake re-queues the in-flight slot under a
  fresh attempt number — a distinct value, preserving Axiom 2 — and the
  application still receives every payload exactly once, in order, even
  with a single lane.
"""

from __future__ import annotations

import pytest

from repro.live import BackoffPolicy, LiveScenario, LiveStatus, run_live_scenario
from repro.live.lanes import frame_stripe, unframe_stripe
from repro.resilience.faultplan import CrashAt, FaultPlan

# Fast schedule so twelve scenarios stay cheap; tight but real budgets so
# a regression shows up as an explicit failure, not a wedged test session.
_FAST_POLL = BackoffPolicy(base=0.002, factor=2.0, cap=0.05, jitter=0.25)

MESSAGES = 6
# Wire turns 1..8 span several complete handshakes of a 6-message workload.
CRASH_TURNS = range(1, 9)


def _run_with_crash(station: str, turn: int, seed: int = 5):
    scenario = LiveScenario(
        messages=MESSAGES,
        seed=seed,
        plan=FaultPlan.of(CrashAt(step=turn, station=station)),
        poll=_FAST_POLL,
        budget=20.0,
        give_up_idle=4.0,
        restart_delay=0.01,
        label=f"crash-{station}@{turn}",
    )
    return run_live_scenario(scenario)


@pytest.mark.parametrize("turn", CRASH_TURNS)
@pytest.mark.parametrize("station", ["T", "R"])
def test_crash_at_every_phase_recovers_safely(station, turn):
    report = _run_with_crash(station, turn)
    # Safety holds unconditionally: no duplicate delivery, no replay.
    assert report.safety.passed, report.safety
    # Termination is explicit: re-sync and deliver, or declared give-up.
    assert report.status in (LiveStatus.DELIVERED, LiveStatus.UNRECONCILABLE)
    # On a clean link a single amnesia crash must always be survivable.
    assert report.status is LiveStatus.DELIVERED, report.reason
    assert report.oks == MESSAGES
    assert (report.crashes_t, report.crashes_r) == (
        (1, 0) if station == "T" else (0, 1)
    )


@pytest.mark.parametrize("turn", [2, 3, 4, 6])
def test_transmitter_crash_resubmits_under_fresh_value(turn):
    # The TM is mid-handshake at every early wire turn (the next slot is
    # submitted synchronously with each OK), so an amnesia crash always
    # strands one in-flight slot; it must come back as a distinct value.
    report = _run_with_crash("T", turn)
    assert report.resubmissions == 1
    assert report.status is LiveStatus.DELIVERED
    assert report.safety.passed
    # The RM lane may deliver both incarnations, so deliveries may exceed
    # OKs by at most the resubmission count ...
    assert report.oks <= report.deliveries <= report.oks + report.resubmissions
    # ... but the stripe sequence number lets the resequencer drop the
    # replay: the application gets each payload exactly once, in order,
    # on one lane as on many.
    payloads = [b"live-%05d" % i for i in range(MESSAGES)]
    assert report.delivered_stream == payloads


def test_both_stations_crash_in_one_run():
    scenario = LiveScenario(
        messages=MESSAGES,
        seed=9,
        plan=FaultPlan.of(
            CrashAt(step=3, station="T"), CrashAt(step=10, station="R")
        ),
        poll=_FAST_POLL,
        budget=20.0,
        give_up_idle=4.0,
        restart_delay=0.01,
        label="double-crash",
    )
    report = run_live_scenario(scenario)
    assert report.safety.passed
    assert report.status is LiveStatus.DELIVERED, report.reason
    assert report.crashes_t == 1 and report.crashes_r == 1
    assert report.oks == MESSAGES


def test_slot_attempt_suffixes_are_distinct():
    values = {frame_stripe(7, attempt, b"msg") for attempt in range(4)}
    assert len(values) == 4
    assert {unframe_stripe(value) for value in values} == {
        (7, attempt, b"msg") for attempt in range(4)
    }


def test_crash_turn_never_reached_is_benign():
    # A plan whose crash turn lies beyond the run's wire activity must not
    # block completion (the proxy simply never fires it).
    report = _run_with_crash("R", 10_000)
    assert report.status is LiveStatus.DELIVERED
    assert report.crashes_r == 0
