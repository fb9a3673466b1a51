"""Differential tests: streaming verdicts equal batch verdicts.

The online monitors in :mod:`repro.checkers.streaming` and the batch
checkers share one implementation — the batch functions are ``feed()``
wrappers over the same state machines — so the verdicts should agree *by
construction*.  These tests pin the equivalence down anyway, three ways:

* hypothesis-generated random event sequences, fed once to a fully
  retained :class:`Trace` (batch path) and once to a ``retain="none"``
  trace with a subscribed :class:`StreamingChecks` (online path);
* the same comparison through ``retain="tail"``, whose ring buffer
  discards storage but must not affect observers;
* real simulations from the fault-plan zoo, including the scripted
  crash-then-replay scenario that deterministically *fails*
  no-duplication — parity must hold on violating runs, not just clean
  ones.
"""

from __future__ import annotations

from dataclasses import replace

import pytest
from hypothesis import given, settings, strategies as st

from repro.checkers.axioms import check_axiom1, check_axiom2, check_axiom3_bounded
from repro.checkers.liveness import check_liveness, progress_gaps
from repro.checkers.safety import check_all_safety
from repro.checkers.endtoend import SequentialOrderMonitor
from repro.checkers.streaming import (
    CausalityMonitor,
    LivenessMonitor,
    NoDuplicationMonitor,
    NoReplayMonitor,
    ProgressGapMonitor,
    StreamingChecks,
)
from repro.checkers.trace import Trace
from repro.core.events import (
    ChannelId,
    CrashR,
    CrashT,
    Ok,
    PktDelivered,
    PktSent,
    ReceiveMsg,
    Retry,
    SendMsg,
)
from repro.core.random_source import split_seed
from repro.resilience.faultplan import apply_fault_plan
from repro.resilience.supervisor import derive_run_seed
from repro.sim.runner import run_once

from tests.resilience.conftest import (
    REPRO_BASE_SEED,
    REPRO_RUN_INDEX,
    crash_then_replay_plan,
    make_paper_spec,
    make_strawman_spec,
)

# Small alphabets maximise collisions — exactly where monitor state breaks.
messages = st.sampled_from([b"a", b"b", b"c"])
channels = st.sampled_from([ChannelId.T_TO_R, ChannelId.R_TO_T])
packet_ids = st.integers(min_value=0, max_value=5)
events = st.one_of(
    messages.map(lambda m: SendMsg(message=m)),
    messages.map(lambda m: ReceiveMsg(message=m)),
    st.just(Ok()),
    st.just(CrashT()),
    st.just(CrashR()),
    st.just(Retry()),
    st.builds(PktSent, channel=channels, packet_id=packet_ids, length_bits=st.just(16)),
    st.builds(PktDelivered, channel=channels, packet_id=packet_ids),
)
event_lists = st.lists(events, max_size=60)

CHECK_SETTINGS = settings(max_examples=200, deadline=None)


def streaming_over(event_list, retain: str, **checks_kwargs) -> StreamingChecks:
    """Drive a StreamingChecks off a recording trace in the given mode."""
    trace = Trace(retain=retain, tail_size=8)
    checks = StreamingChecks(**checks_kwargs)
    trace.subscribe(checks.observe, types=checks.observed_types)
    for event in event_list:
        trace.append(event)
    return checks


@CHECK_SETTINGS
@given(event_lists)
def test_streaming_safety_equals_batch(event_list):
    batch = check_all_safety(Trace(event_list))
    online = streaming_over(event_list, retain="none", liveness=False)
    # Frozen dataclasses: this compares verdicts, trial counts, and every
    # violation's condition/index/detail in one shot.
    assert online.safety_report() == batch


@CHECK_SETTINGS
@given(event_lists, st.booleans())
def test_streaming_liveness_equals_batch(event_list, run_completed):
    batch = check_liveness(Trace(event_list), run_completed=run_completed)
    online = streaming_over(event_list, retain="none")
    assert online.liveness_report(run_completed=run_completed) == batch


@CHECK_SETTINGS
@given(event_lists)
def test_streaming_axioms_equal_batch(event_list):
    window = 4
    full = Trace(event_list)
    batch = [
        check_axiom1(full),
        check_axiom2(full),
        check_axiom3_bounded(full, window=window),
    ]
    online = streaming_over(event_list, retain="none", axioms=True, axiom3_window=window)
    assert online.axiom_reports() == batch


@CHECK_SETTINGS
@given(event_lists)
def test_tail_retention_does_not_perturb_observers(event_list):
    batch = check_all_safety(Trace(event_list))
    online = streaming_over(event_list, retain="tail", liveness=False)
    assert online.safety_report() == batch


@CHECK_SETTINGS
@given(event_lists)
def test_progress_gap_monitor_equals_batch(event_list):
    batch = progress_gaps(Trace(event_list))
    trace = Trace(retain="none")
    monitor = ProgressGapMonitor()
    checks = StreamingChecks(monitors=[monitor])
    trace.subscribe(checks.observe, types=checks.observed_types)
    for event in event_list:
        trace.append(event)
    assert monitor.gaps == batch.gaps


@CHECK_SETTINGS
@given(event_lists)
def test_events_seen_counts_every_event(event_list):
    online = streaming_over(event_list, retain="none")
    # The subscription filter only delivers observed types, so events_seen
    # counts the monitored subset, never more than the execution length.
    assert online.events_seen <= len(event_list)
    direct = StreamingChecks()
    for index, event in enumerate(event_list):
        direct.observe(index, event)
    assert direct.events_seen == len(event_list)
    assert direct.safety_report() == online.safety_report()


# ---------------------------------------------------------------------------
# Simulation parity: the zoo traces, clean and violating.
# ---------------------------------------------------------------------------


def _verdicts_for(spec, seed):
    """(streaming safety, streaming liveness ok, trace-or-None) for one run."""
    outcome = run_once(spec, seed)
    trace = outcome.result.trace if spec.retain == "full" else None
    return outcome.safety, outcome.liveness_passed, outcome.result.completed, trace


def _signature(safety):
    """A safety report minus absolute event indexes.

    Under ``retain="none"`` the recording layer tallies unobserved packet
    events in bulk instead of appending them, so observers run in a
    compacted index space: relative order (and therefore every verdict
    and trial count) is preserved, but a violation's absolute
    ``event_index`` differs from the fully-retained run's.  The parity
    claim for that mode is everything *except* those indexes.
    """
    return [
        (r.condition, r.trials, [v.condition for v in r.violations])
        for r in safety.all_reports
    ]


def _assert_retention_parity(spec, seed):
    full_spec = replace(spec, retain="full")
    none_spec = replace(spec, retain="none")
    tail_spec = replace(spec, retain="tail", tail_size=32)
    safety_full, live_full, completed, trace = _verdicts_for(full_spec, seed)
    safety_none, live_none, completed_none, _ = _verdicts_for(none_spec, seed)
    safety_tail, live_tail, _, _ = _verdicts_for(tail_spec, seed)
    # Same seed => same execution, whatever the trace keeps.
    assert completed == completed_none
    # Tail retention appends every event (only storage is bounded), so its
    # verdicts — indexes included — are identical to the full run's.
    assert safety_tail == safety_full
    # Counters-only retention matches modulo the compacted index space.
    assert _signature(safety_none) == _signature(safety_full)
    assert live_none == live_full == live_tail
    # And the batch checkers rescanning the materialised trace agree with
    # the online verdicts of the run that recorded it, exactly.
    assert check_all_safety(trace) == safety_full
    assert check_liveness(trace, run_completed=completed).passed == live_full
    return safety_full


def test_zoo_benign_paper_run_parity():
    spec = make_paper_spec(messages=4)
    seed = split_seed(7, "run", 0)
    safety = _assert_retention_parity(spec, seed)
    assert safety.passed


def test_zoo_crash_then_replay_violation_parity():
    # The scripted repro from the resilience suite: strawman run index 4
    # fails no-duplication under the crash-then-replay plan.  Verdict
    # parity must hold on the violating execution too, with identical
    # violation indexes.
    spec = apply_fault_plan(
        make_strawman_spec(), crash_then_replay_plan(), REPRO_RUN_INDEX
    )
    seed = derive_run_seed(REPRO_BASE_SEED, REPRO_RUN_INDEX, 0)
    safety = _assert_retention_parity(spec, seed)
    assert not safety.no_duplication.passed


def test_zoo_lossy_random_faults_parity():
    from repro.adversary.random_faults import FaultProfile, RandomFaultAdversary
    from repro.sim.runner import RunSpec

    profile = FaultProfile(loss=0.2, duplicate=0.1, reorder=0.2)
    spec = RunSpec.default(
        adversary_factory=lambda: RandomFaultAdversary(profile), messages=6
    )
    for index in range(3):
        safety = _assert_retention_parity(spec, split_seed(11, "run", index))
        assert safety.passed


def test_supplied_monitors_fill_the_report_slots():
    # The report reads the monitors that ran: a supplied order monitor that
    # saw a wrong delivery fails the order slot instead of leaving a default
    # monitor's empty pass in it.
    order = SequentialOrderMonitor()
    liveness = LivenessMonitor()
    checks = StreamingChecks(
        monitors=[
            CausalityMonitor(),
            order,
            NoDuplicationMonitor(),
            NoReplayMonitor(),
            liveness,
        ]
    )
    assert checks.order is order and checks.liveness is liveness
    for index, event in enumerate(
        [SendMsg(message=b"a"), SendMsg(message=b"b"), ReceiveMsg(message=b"b")]
    ):
        checks.observe(index, event)
    report = checks.safety_report().order
    assert report.trials == 1
    assert not report.passed
    assert checks.liveness_report(run_completed=True).trials == 2


def test_report_without_its_monitor_raises():
    checks = StreamingChecks(monitors=[ProgressGapMonitor()])
    assert checks.order is None
    for report in (
        checks.safety_report,
        lambda: checks.liveness_report(run_completed=True),
        checks.axiom_reports,
        checks.stabilization_report,
    ):
        with pytest.raises(ValueError):
            report()
