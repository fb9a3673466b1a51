"""End-to-end live scenarios: chaos delivery, give-up, and wire hygiene.

``test_acceptance_chaos_scenario`` is the PR's acceptance gate: a
50-message workload over real UDP through ≥5% stochastic drop plus
duplication and reordering, with one transmitter crash and one receiver
crash scripted mid-run — delivered completely, with every Section 2.6
condition reported satisfied by the streaming checkers, under a hard
wall-clock budget and with zero hangs.
"""

from __future__ import annotations

import asyncio
import socket

import pytest

from repro.checkers.live import LiveEventLog
from repro.core.protocol import make_data_link
from repro.core.random_source import RandomSource
from repro.live import (
    AdaptiveBackoff,
    BackoffPolicy,
    ChaosProxy,
    LanedReceiverEndpoint,
    LanedTransmitterEndpoint,
    LinkProfile,
    LiveScenario,
    LiveStatus,
    run_live_scenario,
    run_live_scenario_async,
)
from repro.resilience.faultplan import CrashAt, DropWindow, FaultPlan, HangAt

_FAST_POLL = BackoffPolicy(base=0.002, factor=2.0, cap=0.05, jitter=0.25)


def test_clean_live_run_delivers_everything():
    report = run_live_scenario(LiveScenario(
        messages=10, seed=1, poll=_FAST_POLL,
        budget=20.0, give_up_idle=3.0, label="clean",
    ))
    assert report.ok
    assert report.oks == report.deliveries == 10
    assert report.crashes_t == report.crashes_r == 0
    assert report.proxy.dropped == report.proxy.duplicated == 0


def test_acceptance_chaos_scenario():
    report = run_live_scenario(LiveScenario(
        messages=50,
        seed=42,
        profile=LinkProfile(
            drop=0.08, duplicate=0.05, reorder=0.05, delay=0.001, jitter=0.002
        ),
        plan=FaultPlan.of(
            CrashAt(step=30, station="T"), CrashAt(step=80, station="R")
        ),
        poll=_FAST_POLL,
        budget=45.0,
        give_up_idle=6.0,
        label="acceptance-chaos",
    ))
    assert report.status is LiveStatus.DELIVERED, report.reason
    assert report.oks == 50
    assert report.crashes_t == 1 and report.crashes_r == 1
    # Every Section 2.6 condition satisfied on the live trace.
    assert report.safety.passed, report.safety
    assert report.liveness_passed
    assert report.ok
    # The chaos actually happened (sanity against a silently clean link).
    assert report.proxy.dropped > 0
    assert report.proxy.duplicated > 0
    assert report.wall_seconds < 45.0


def test_give_up_is_explicit_and_bounded():
    # A fully black-holed link must surface UNRECONCILABLE well inside the
    # budget — graceful degradation, not a hang.
    report = run_live_scenario(LiveScenario(
        messages=5, seed=3,
        profile=LinkProfile(drop=1.0),
        poll=_FAST_POLL,
        budget=15.0, give_up_idle=0.6, label="black-hole",
    ))
    assert report.status is LiveStatus.UNRECONCILABLE
    assert "no progress" in report.reason
    assert report.wall_seconds < 10.0
    assert report.oks == 0
    # Nothing was delivered, so safety is vacuously intact and the
    # forensic tail is preserved for the post-mortem.
    assert report.safety.passed
    assert not report.liveness_passed
    assert report.forensic_tail


def test_poll_count_give_up_policy():
    report = run_live_scenario(LiveScenario(
        messages=5, seed=3,
        profile=LinkProfile(drop=1.0),
        poll=_FAST_POLL,
        budget=15.0, give_up_idle=5.0, give_up_polls=12, label="poll-bound",
    ))
    assert report.status is LiveStatus.UNRECONCILABLE
    assert "polls without progress" in report.reason
    assert report.wall_seconds < 10.0


def test_scripted_partition_heals_and_delivers():
    # DropWindow(channel=None) is a full partition in wire terms; polls
    # keep the turn clock advancing, so the window closes and the
    # handshake resumes where the automata left off.
    report = run_live_scenario(LiveScenario(
        messages=6, seed=4,
        plan=FaultPlan.of(DropWindow(start=3, end=25, channel=None)),
        poll=_FAST_POLL,
        budget=20.0, give_up_idle=4.0, label="partition-heal",
    ))
    assert report.status is LiveStatus.DELIVERED, report.reason
    assert report.safety.passed
    assert report.proxy.dropped >= 20  # the window really dropped traffic


def test_scenario_validation():
    with pytest.raises(ValueError):
        LiveScenario(messages=0)
    with pytest.raises(ValueError):
        LiveScenario(budget=0.0)
    with pytest.raises(ValueError):
        LiveScenario(give_up_polls=-1)
    with pytest.raises(ValueError):
        LiveScenario(wire="classic")  # the batched wire is the only one


def test_malformed_datagrams_are_counted_not_fatal():
    # A live port sees whatever bytes arrive.  Spray garbage at both the
    # proxy (foreign identifier -> rejected by the peek) and the receiver
    # directly (valid lane and identifier, rotten body -> rejected by the
    # decode) while a real one-lane workload runs; everything still
    # delivers.
    async def _run():
        log = LiveEventLog()
        link = make_data_link(epsilon=2.0 ** -16, seed=21)
        root = RandomSource(21)
        done = asyncio.Event()

        proxy = ChaosProxy(rng=root.fork("chaos"))
        await proxy.start()
        tm = LanedTransmitterEndpoint(
            [link], [log], proxy.t_facing_address,
            [b"m-%d" % i for i in range(5)],
            on_done=done.set,
        )
        rm = LanedReceiverEndpoint(
            [link], [log], proxy.r_facing_address,
            [AdaptiveBackoff(_FAST_POLL, root.fork("poll"))],
        )
        try:
            await tm.start()
            await rm.start()
            proxy.connect(tm.local_address, rm.local_address)

            garbage = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
            try:
                for _ in range(20):
                    # Foreign identifier: the proxy's peek rejects it.
                    garbage.sendto(b"\x00not-a-packet", proxy.t_facing_address)
                    # Lane 0, data-packet identifier, truncated body:
                    # forwarded by the proxy (peek passes), rejected by the
                    # RM's codec.
                    garbage.sendto(b"\x00\xd1\xff\xff", proxy.t_facing_address)
                    # Straight at the receiver, bypassing the proxy.
                    garbage.sendto(b"\x00\xa5junk", rm.local_address)
                await asyncio.wait_for(done.wait(), timeout=15.0)
            finally:
                garbage.close()
        finally:
            rm.close()
            tm.close()
            proxy.close()
            await asyncio.sleep(0)
        return proxy.stats, tm, rm, log

    stats, tm, rm, log = asyncio.run(_run())
    assert tm.oks == 5
    assert stats.foreign >= 20  # the unknown identifier died at the proxy
    assert rm.malformed >= 20  # the rest died at the receiver's codec
    assert log.safety_report().passed


def test_report_counts_frames_with_a_foreign_lane_byte(monkeypatch):
    # A frame whose lane byte is outside [0, lanes) passes the proxy's peek
    # (lane and identifier are well formed) and is rejected by the station;
    # the report counts it with the codec rejections.
    lanes, copies = 2, 10
    garbage = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
    connect = ChaosProxy.connect

    def spraying_connect(proxy, tm_addr, rm_addr):
        connect(proxy, tm_addr, rm_addr)
        for _ in range(copies):
            # Lane 5 of 2, towards the RM and towards the TM.
            garbage.sendto(b"\x05\xd1\xff\xff", proxy.t_facing_address)
            garbage.sendto(b"\x05\xa5\xff\xff", proxy.r_facing_address)
            # A valid lane with a rotten body, towards the RM.
            garbage.sendto(b"\x01\xd1\xff\xff", proxy.t_facing_address)

    monkeypatch.setattr(ChaosProxy, "connect", spraying_connect)
    try:
        report = run_live_scenario(LiveScenario(
            messages=12, seed=8, lanes=lanes, poll=_FAST_POLL,
            budget=20.0, give_up_idle=4.0, label="foreign-lanes",
        ))
    finally:
        garbage.close()
    assert report.ok, report.reason
    assert report.proxy.foreign == 0  # every frame passed the peek
    assert report.malformed_datagrams == 3 * copies


@pytest.mark.parametrize(
    "profile, plan",
    [
        (LinkProfile(reorder=0.3, reorder_hold=2.0), FaultPlan()),
        (LinkProfile(), FaultPlan.of(HangAt(step=4, seconds=30.0))),
    ],
    ids=["held-forwards", "hang"],
)
def test_no_timer_outlives_the_scenario(profile, plan):
    # Delayed forwards and hang releases are scheduled on the caller's
    # loop; teardown must cancel them with the stations' poll and restart
    # timers, so nothing fires after the report is returned.
    async def _run():
        report = await run_live_scenario_async(LiveScenario(
            messages=10, seed=6, lanes=2, profile=profile, plan=plan,
            poll=_FAST_POLL, budget=20.0, give_up_idle=0.5, label="timers",
        ))
        # TimerHandles not yet run stay in the loop's private heap until
        # they fire; cancelled ones are only marked.
        loop = asyncio.get_running_loop()
        return report, [h for h in loop._scheduled if not h.cancelled()]

    report, live = asyncio.run(_run())
    assert live == []
    assert report.proxy.reordered or report.proxy.stalled


# -- self-stabilizing mode (docs/PROTOCOL.md §13) -----------------------------------


def test_corrupted_scenario_reports_stabilized():
    from repro.resilience.faultplan import CorruptAt

    report = run_live_scenario(LiveScenario(
        messages=25,
        seed=7,
        profile=LinkProfile(drop=0.05, duplicate=0.05, delay=0.001),
        plan=FaultPlan.of(
            CorruptAt(step=12, station="T", seed=9001),
            CorruptAt(step=30, station="R", seed=9002),
        ),
        poll=_FAST_POLL,
        budget=30.0,
        give_up_idle=6.0,
        stabilization_window=8,
        label="live-corrupt",
    ))
    assert report.status is LiveStatus.STABILIZED
    assert report.completed
    assert report.ok
    assert report.corruptions_t == 1
    assert report.corruptions_r == 1
    stabilization = report.stabilization
    assert stabilization is not None
    assert stabilization.stabilized
    assert stabilization.corruptions == stabilization.converged == 2
    assert sorted(r.seed for r in stabilization.records) == [9001, 9002]
    assert "stabilization" in report.render()


def test_corrupted_laned_scenario_stabilizes_per_lane():
    from repro.resilience.faultplan import CorruptAt

    report = run_live_scenario(LiveScenario(
        messages=24,
        seed=19,
        lanes=3,
        profile=LinkProfile(drop=0.05, delay=0.001),
        plan=FaultPlan.of(
            CorruptAt(step=10, station="T", seed=401),
            CorruptAt(step=25, station="R", seed=402),
        ),
        poll=_FAST_POLL,
        budget=30.0,
        give_up_idle=6.0,
        stabilization_window=6,
        label="live-corrupt-lanes",
    ))
    assert report.status is LiveStatus.STABILIZED
    assert report.ok
    assert report.corruptions_t + report.corruptions_r == 2
    # The per-lane rows add up to the run totals.
    lanes = report.lane_metrics
    assert sum(m.corruptions_t for m in lanes) == report.corruptions_t
    assert sum(m.corruptions_r for m in lanes) == report.corruptions_r
    assert report.stabilization is not None
    assert report.stabilization.stabilized


def test_live_wipe_mode_rides_the_crash_path():
    from repro.resilience.faultplan import CorruptAt

    report = run_live_scenario(LiveScenario(
        messages=15,
        seed=23,
        plan=FaultPlan.of(CorruptAt(step=10, station="T", mode="wipe")),
        poll=_FAST_POLL,
        budget=30.0,
        give_up_idle=6.0,
        label="live-wipe",
    ))
    # A wipe is a crash: no corruption counters, no stabilization report,
    # plain DELIVERED, and the crash tally shows the amnesia restart.
    assert report.status is LiveStatus.DELIVERED
    assert report.ok
    assert report.crashes_t == 1
    assert report.corruptions_t == report.corruptions_r == 0
    assert report.stabilization is None
