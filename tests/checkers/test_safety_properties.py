"""Property-based validation of the safety checkers.

The checkers are single-pass stateful scanners; a bug in their state
machines would silently corrupt every experiment.  These tests pit them
against brute-force reference implementations (quadratic, written for
obviousness rather than speed) over hypothesis-generated random traces.
"""

from __future__ import annotations

from hypothesis import given, settings, strategies as st

from repro.checkers.safety import (
    check_causality,
    check_no_duplication,
    check_no_replay,
    check_order,
)
from repro.checkers.trace import Trace
from repro.core.events import CrashR, CrashT, Ok, ReceiveMsg, SendMsg

# Small message alphabet maximises collisions, which is where checker
# state machines break.
messages = st.sampled_from([b"a", b"b", b"c"])
events = st.one_of(
    messages.map(lambda m: SendMsg(message=m)),
    messages.map(lambda m: ReceiveMsg(message=m)),
    st.just(Ok()),
    st.just(CrashT()),
    st.just(CrashR()),
)
traces = st.lists(events, max_size=40).map(Trace)


def ref_causality_violations(trace: Trace) -> int:
    count = 0
    for index, event in enumerate(trace):
        if isinstance(event, ReceiveMsg):
            prior_sends = [
                e
                for e in list(trace)[:index]
                if isinstance(e, SendMsg) and e.message == event.message
            ]
            if not prior_sends:
                count += 1
    return count


def ref_order_violations(trace: Trace) -> int:
    count = 0
    pending = None
    pending_index = None
    for index, event in enumerate(trace):
        if isinstance(event, SendMsg):
            pending, pending_index = event.message, index
        elif isinstance(event, CrashT):
            pending = None
        elif isinstance(event, Ok):
            if pending is None:
                count += 1
            else:
                window = list(trace)[pending_index + 1 : index]
                delivered = any(
                    isinstance(e, ReceiveMsg) and e.message == pending
                    for e in window
                )
                if not delivered:
                    count += 1
                pending = None
    return count


def ref_duplication_violations(trace: Trace) -> int:
    count = 0
    for index, event in enumerate(trace):
        if not isinstance(event, ReceiveMsg):
            continue
        for earlier in range(index - 1, -1, -1):
            e = trace[earlier]
            if isinstance(e, CrashR):
                break
            if isinstance(e, ReceiveMsg) and e.message == event.message:
                count += 1
                break
    return count


def ref_replay_violations(trace: Trace) -> int:
    count = 0
    for index, event in enumerate(trace):
        if not isinstance(event, ReceiveMsg):
            continue
        # The most recent receive/crash^R boundary before this delivery.
        boundary = -1
        for earlier in range(index - 1, -1, -1):
            if isinstance(trace[earlier], (ReceiveMsg, CrashR)):
                boundary = earlier
                break
        # Was the message resolved (its send followed by OK/crash^T)
        # at or before the boundary?
        pending = None
        resolved_at = None
        for position in range(index):
            e = trace[position]
            if isinstance(e, SendMsg):
                pending = e.message
            elif isinstance(e, (Ok, CrashT)) and pending is not None:
                if pending == event.message:
                    resolved_at = position
                pending = None
        if resolved_at is not None and resolved_at <= boundary:
            count += 1
    return count


CHECK_SETTINGS = settings(max_examples=300, deadline=None)


@CHECK_SETTINGS
@given(traces)
def test_causality_matches_reference(trace):
    assert check_causality(trace).failure_count == ref_causality_violations(trace)


@CHECK_SETTINGS
@given(traces)
def test_order_matches_reference(trace):
    assert check_order(trace).failure_count == ref_order_violations(trace)


@CHECK_SETTINGS
@given(traces)
def test_duplication_matches_reference(trace):
    assert check_no_duplication(trace).failure_count == ref_duplication_violations(
        trace
    )


@CHECK_SETTINGS
@given(traces)
def test_replay_matches_reference(trace):
    assert check_no_replay(trace).failure_count == ref_replay_violations(trace)


@CHECK_SETTINGS
@given(traces)
def test_checkers_never_crash_and_trials_bounded(trace):
    deliveries = trace.count(ReceiveMsg)
    assert check_no_duplication(trace).trials == deliveries
    assert check_no_replay(trace).trials == deliveries
    assert check_causality(trace).trials == deliveries
