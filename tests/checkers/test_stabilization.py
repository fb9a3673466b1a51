"""Unit tests for the self-stabilization monitor (docs/PROTOCOL.md §13).

The monitor's contract has sharp edges worth pinning individually: the
probation scrub must erase exactly the violations accrued since the
episode's first corruption (never pre-fault ones), a truncated run must
keep its probation violations, overlapping corruptions must share one
episode but yield one convergence record each, and the seed/field list in
every record must survive the wire round trip (forensics replay depends
on it).

Crash events serve as the clean progress stream here: they are progress
events for the streak but (unlike a bare ``Ok``, which the order monitor
flags as "OK with no message in flight") never violate any scrubbed
condition.
"""

from __future__ import annotations

import itertools

import pytest
from hypothesis import given, settings, strategies as st

from repro.checkers.stabilization import (
    ConvergenceRecord,
    StabilizationMonitor,
    StabilizationReport,
)
from repro.checkers.streaming import StreamingChecks
from repro.core.events import (
    ChannelId,
    Corruption,
    CrashR,
    CrashT,
    Ok,
    PktDelivered,
    PktSent,
    ReceiveMsg,
    Retry,
    SendMsg,
)

WINDOW = 3


def make_checks(window: int = WINDOW) -> StreamingChecks:
    return StreamingChecks(stabilization=True, stabilization_window=window)


def feed(checks: StreamingChecks, events) -> None:
    for index, event in enumerate(events):
        checks.observe(index, event)


def clean_progress(count: int):
    """``count`` violation-free progress events (alternating crashes)."""
    stations = itertools.cycle([CrashT, CrashR])
    return [next(stations)() for __ in range(count)]


def orphan_receive(payload: bytes = b"??") -> ReceiveMsg:
    """A receive with no matching send: a guaranteed causality violation."""
    return ReceiveMsg(message=payload)


class TestConvergence:
    def test_clean_streak_converges_and_scrubs(self):
        checks = make_checks()
        feed(checks, [
            Corruption(station="T", fields=("tau",), seed=5),
            orphan_receive(),          # the corruption's echo: a violation
            *clean_progress(WINDOW),
        ])
        report = checks.stabilization_report()
        assert report.corruptions == 1
        assert report.converged == 1
        assert report.stabilized
        # The probation-era causality violation was scrubbed.
        assert checks.safety_report().passed

    def test_violation_resets_the_streak(self):
        checks = make_checks()
        feed(checks, [
            Corruption(station="R", fields=("rho",), seed=1),
            *clean_progress(2),
            orphan_receive(),          # streak back to zero (and a violation)
            *clean_progress(2),
        ])
        # Only 2 clean events since the last violation: still on probation.
        assert checks.stabilization_report().converged == 0
        checks.observe(6, CrashT())
        assert checks.stabilization_report().converged == 1
        assert checks.safety_report().passed

    def test_pre_fault_violations_are_never_scrubbed(self):
        checks = make_checks()
        feed(checks, [
            orphan_receive(b"genuine"),  # a real bug, before any corruption
            Corruption(station="T", fields=("num",), seed=2),
            *clean_progress(WINDOW),
        ])
        assert checks.stabilization_report().converged == 1
        report = checks.safety_report()
        assert not report.passed

    def test_overlapping_corruptions_one_episode_one_record_each(self):
        checks = make_checks()
        feed(checks, [
            Corruption(station="T", fields=("tau",), seed=10),
            CrashT(),
            Corruption(station="R", fields=("rho",), seed=11),  # extends episode
            *clean_progress(WINDOW),
        ])
        report = checks.stabilization_report()
        assert report.corruptions == 2
        assert report.converged == 2
        stations = sorted(r.station for r in report.records)
        assert stations == ["R", "T"]
        # The second corruption is younger: fewer events to convergence.
        by_station = {r.station: r for r in report.records}
        assert by_station["R"].events < by_station["T"].events

    def test_records_count_events_and_datagrams(self):
        checks = make_checks(window=2)
        feed(checks, [
            Corruption(station="T", fields=(), seed=3),
            PktSent(channel=ChannelId.T_TO_R, packet_id=1, length_bits=64),
            PktDelivered(channel=ChannelId.T_TO_R, packet_id=1),
            CrashT(),
            PktSent(channel=ChannelId.R_TO_T, packet_id=2, length_bits=64),
            CrashR(),
        ])
        (record,) = checks.stabilization_report().records
        assert record.seed == 3
        assert record.events == 5
        assert record.datagrams == 2
        assert record.wall_seconds >= 0.0


class TestFinalize:
    def test_completed_run_closes_open_episode(self):
        checks = make_checks()
        feed(checks, [
            Corruption(station="T", fields=("t",), seed=4),
            orphan_receive(),
            CrashT(),
        ])
        monitor = checks.stabilization
        monitor.finalize(run_completed=True)
        assert checks.stabilization_report().stabilized
        assert checks.safety_report().passed

    def test_truncated_run_keeps_probation_violations(self):
        checks = make_checks()
        feed(checks, [
            Corruption(station="T", fields=("t",), seed=4),
            orphan_receive(),
            CrashT(),
        ])
        monitor = checks.stabilization
        monitor.finalize(run_completed=False)
        report = checks.stabilization_report()
        assert report.corruptions == 1
        assert report.converged == 0
        assert not report.stabilized
        # Probation violations stand, and the monitor adds its own.
        assert not checks.safety_report().passed
        assert monitor.report().violations
        assert "never" in monitor.report().violations[0].detail


class TestMonitorBasics:
    def test_window_validated(self):
        with pytest.raises(ValueError):
            StabilizationMonitor(scrub=(), window=0)

    def test_no_corruptions_not_stabilized(self):
        report = make_checks().stabilization_report()
        assert report.corruptions == 0
        assert not report.stabilized

    def test_reset_clears_everything(self):
        checks = make_checks()
        feed(checks, [
            Corruption(station="T", fields=("tau",), seed=6),
            CrashT(),
        ])
        monitor = checks.stabilization
        monitor.reset()
        report = monitor.summary()
        assert report.corruptions == 0
        assert report.converged == 0
        assert not monitor.report().violations


class TestWireRoundTrip:
    def test_report_round_trips_with_seed_and_fields(self):
        report = StabilizationReport(
            corruptions=3,
            converged=2,
            window=8,
            records=(
                ConvergenceRecord(
                    station="T", fields=("tau", "num"), seed=9001,
                    events=17, datagrams=5, wall_seconds=0.25,
                ),
                ConvergenceRecord(
                    station="R", fields=(), seed=9002,
                    events=4, datagrams=1, wall_seconds=0.01,
                ),
            ),
        )
        decoded = StabilizationReport.from_wire(report.to_wire())
        assert decoded == report
        assert decoded.records[0].seed == 9001
        assert decoded.records[0].fields == ("tau", "num")
        assert decoded.pending == 1

    def test_clean_reports_decode_to_one_shared_instance(self):
        wire = StabilizationReport(corruptions=0, converged=0, window=8).to_wire()
        first = StabilizationReport.from_wire(wire)
        second = StabilizationReport.from_wire(wire)
        assert first is second
        assert first == StabilizationReport(corruptions=0, converged=0, window=8)
        other_window = StabilizationReport.from_wire((0, 0, 4, ()))
        assert other_window.window == 4
        assert other_window is not first

    def test_reports_with_corruptions_are_not_shared(self):
        wire = StabilizationReport(corruptions=1, converged=0, window=8).to_wire()
        first = StabilizationReport.from_wire(wire)
        second = StabilizationReport.from_wire(wire)
        assert first is not second
        assert first == second == StabilizationReport(
            corruptions=1, converged=0, window=8
        )
        assert first.pending == 1


# Corruption-free executions over every class a simulator records.  Small
# alphabets make the safety monitors fire, so violation indices are tested.
_messages = st.sampled_from([b"a", b"b", b"c"])
_channels = st.sampled_from([ChannelId.T_TO_R, ChannelId.R_TO_T])
_corruption_free_events = st.one_of(
    _messages.map(lambda m: SendMsg(message=m)),
    _messages.map(lambda m: ReceiveMsg(message=m)),
    st.just(Ok()),
    st.just(CrashT()),
    st.just(CrashR()),
    st.just(Retry()),
    st.builds(
        PktSent,
        channel=_channels,
        packet_id=st.integers(min_value=0, max_value=5),
        length_bits=st.just(16),
    ),
    st.builds(
        PktDelivered,
        channel=_channels,
        packet_id=st.integers(min_value=0, max_value=5),
    ),
)


class TestEpisodeOnlyTypes:
    """The monitor's ``episode_only`` classes are inert outside an episode.

    A dispatcher that emits no ``Corruption`` (the kernel's precompiled
    adversary modes) skips them; the verdicts must not notice.
    """

    def test_declared_types(self):
        assert set(StabilizationMonitor.episode_only) == {PktSent, PktDelivered}
        assert set(StabilizationMonitor.episode_only) <= set(
            make_checks().stabilization.handlers()
        )

    @settings(max_examples=200, deadline=None)
    @given(st.lists(_corruption_free_events, max_size=80), st.booleans())
    def test_skipping_them_changes_no_verdict(self, events, run_completed):
        full = make_checks()
        feed(full, events)
        skipped = make_checks()
        episode_only = skipped.stabilization.episode_only
        for index, event in enumerate(events):
            if type(event) not in episode_only:
                skipped.observe(index, event)
        for checks in (full, skipped):
            checks.stabilization.finalize(run_completed)
        # Frozen reports: verdicts, trials and every violation's
        # condition, index and detail compare in one shot.
        assert skipped.safety_report() == full.safety_report()
        assert skipped.liveness_report(run_completed) == full.liveness_report(
            run_completed
        )
        assert skipped.stabilization_report() == full.stabilization_report()
        assert skipped.stabilization.report() == full.stabilization.report()

    def test_corruption_free_table_drops_only_their_handlers(self):
        checks = make_checks()
        assert PktSent in checks._table
        assert PktSent not in checks._corruption_free_table
        assert PktDelivered not in checks._corruption_free_table
        assert checks._corruption_free_table[SendMsg] == checks._table[SendMsg]
        # Another monitor observing packets keeps its handlers.
        with_axioms = StreamingChecks(axioms=True, stabilization=True)
        assert with_axioms._corruption_free_table[PktSent] == (
            with_axioms.axiom3._on_sent,
        )
        assert len(with_axioms._table[PktSent]) == 2
