"""Multi-lane live deployment: differential equivalence, chaos, hygiene.

The tentpole claims of the laned deployment are pinned here:

* **differential** — a K-lane live run over a clean wire delivers the
  exact resequenced stream :class:`StripedSimulator` produces for the
  same workload and the same per-lane link seeds (the scenario derives
  lane seeds with the identical ``split_seed`` recipe);
* **acceptance** — 4 lanes under 8% drop + duplication + reordering with
  one transmitter-lane crash and one receiver-lane crash still deliver
  all 50 messages in order, with clean per-lane Section 2.6 verdicts;
* **visibility** — the chaos proxy handles laned traffic without ever
  decoding payload bytes (checked structurally *and* by booby-trapping
  the codec);
* **timer hygiene** — crashing an endpoint mid-backoff cancels the
  pending poll outright (the stale-callback regression), lane crashes
  cancel only their own lane's timers, and teardown leaves nothing
  scheduled on the caller's loop.
"""

from __future__ import annotations

import asyncio

import repro.core.packets as packets
import repro.live.proxy as proxy_module
from repro.checkers.live import LiveEventLog
from repro.core.bitstrings import BitString
from repro.core.events import ChannelId
from repro.core.packets import (
    DataPacket,
    PollPacket,
    encode_lane_frame,
    encode_packet,
)
from repro.core.protocol import make_data_link
from repro.core.random_source import RandomSource, split_seed
from repro.extensions.striping import StripedLink, StripedSimulator
from repro.adversary.benign import ReliableAdversary
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
)
from repro.resilience.faultplan import CrashAt, FaultPlan

_FAST_POLL = BackoffPolicy(base=0.004, factor=2.0, cap=0.05, jitter=0.25)
#: Slow enough that a scheduled poll is still pending whenever we look.
_SLOW_POLL = BackoffPolicy(base=10.0, factor=2.0, cap=20.0, jitter=0.0)

#: A sink address for endpoints driven by hand (nothing listens there).
_NOWHERE = ("127.0.0.1", 9)


def _payloads(n: int) -> list:
    # Must match the workload run_live_scenario generates internally.
    return [b"live-%05d" % i for i in range(n)]


# -- differential: live lanes == simulated striping ------------------------------


def test_differential_live_stream_matches_striped_simulator():
    # Same workload, same per-lane link seeds: the scenario derives lane
    # seeds as split_seed(split_seed(seed, "live-link"), "lane", i), which
    # is exactly StripedLink(lanes, ε, seed=split_seed(seed, "live-link")).
    seed, lanes, messages = 7, 3, 18
    payloads = _payloads(messages)

    report = run_live_scenario(LiveScenario(
        messages=messages, seed=seed, lanes=lanes, poll=_FAST_POLL,
        budget=30.0, give_up_idle=4.0, label="differential",
    ))
    assert report.ok, report.reason
    assert report.in_order_delivered == messages

    striped = StripedLink(lanes=lanes, seed=split_seed(seed, "live-link"))
    result = StripedSimulator(
        striped, payloads, ReliableAdversary, seed=seed
    ).run()
    assert result.completed and result.all_safe

    assert report.delivered_stream == result.delivered == payloads


# -- acceptance: 4 lanes, lossy wire, one crash per station ----------------------


def test_four_lane_chaos_acceptance():
    messages = 50
    report = run_live_scenario(LiveScenario(
        messages=messages,
        seed=11,
        lanes=4,
        profile=LinkProfile(
            drop=0.08, duplicate=0.08, reorder=0.08, delay=0.002
        ),
        plan=FaultPlan.of(
            CrashAt(step=9, station="T"), CrashAt(step=31, station="R")
        ),
        poll=_FAST_POLL,
        budget=45.0,
        give_up_idle=6.0,
        label="laned-chaos",
    ))
    assert report.status is LiveStatus.DELIVERED, report.reason
    assert report.oks == messages
    # The resequenced global stream is complete and exactly in order.
    assert report.delivered_stream == _payloads(messages)
    assert report.in_order_delivered == messages
    # Per-lane verdicts: every lane's trace satisfies every condition.
    assert report.safety.passed, report.safety
    assert report.liveness_passed
    assert report.ok
    # Exactly one lane on each side took the scripted crash; siblings
    # never noticed (crash isolation is per lane, not per host).
    assert report.crashes_t == 1 and report.crashes_r == 1
    assert sorted(m.crashes_t for m in report.lane_metrics) == [0, 0, 0, 1]
    assert sorted(m.crashes_r for m in report.lane_metrics) == [0, 0, 0, 1]
    # The chaos actually happened, and every lane carried traffic that the
    # proxy classified structurally (lane id + identifier, no decode).
    assert report.proxy.dropped > 0
    assert report.proxy.duplicated > 0
    assert set(report.proxy.by_lane) == {0, 1, 2, 3}
    # Satellite: per-lane counters surface in the rendered summary.
    assert "per-lane metrics" in report.render()
    assert report.wall_seconds < 45.0


# -- adversary visibility: the proxy never decodes payload bytes ----------------


def test_proxy_never_decodes_payload_bytes(monkeypatch):
    # Structural check first: the proxy module does not even import the
    # decoding half of the codec.
    assert not hasattr(proxy_module, "decode_packet")
    assert not hasattr(proxy_module, "_decode_bitstring")

    # Booby-trap the codec's decode paths; any content inspection beyond
    # peek_wire_info now explodes.
    def _boom(*args, **kwargs):
        raise AssertionError("proxy decoded payload bytes")

    monkeypatch.setattr(packets, "decode_packet", _boom)
    monkeypatch.setattr(packets, "_decode_bitstring", _boom)

    proxy = ChaosProxy(rng=RandomSource(3))
    sent = []
    monkeypatch.setattr(
        proxy, "_send_now", lambda channel, data: sent.append((channel, data))
    )

    data = encode_packet(
        DataPacket(message=b"secret", rho=BitString("01"), tau=BitString("1"))
    )
    poll = encode_packet(
        PollPacket(rho=BitString("01"), tau=BitString("10"), retry=4)
    )
    laned = encode_lane_frame(3, data)

    proxy._on_datagram(ChannelId.T_TO_R, laned)  # laned data packet
    proxy._on_datagram(ChannelId.R_TO_T, poll)  # bare, unlaned poll
    proxy._on_datagram(ChannelId.T_TO_R, b"\xff\xff")  # foreign identifier

    # Both well-formed datagrams were forwarded byte-identically — the
    # proxy never needed (and could not have used) a decode.
    assert [frame for __, frame in sent] == [laned, poll]
    assert proxy.stats.observed == 2
    assert proxy.stats.foreign == 1
    assert proxy.stats.by_kind == {"data": 1, "poll": 1}
    assert proxy.stats.by_lane == {3: 1}


# -- timer hygiene: crash mid-backoff, lane isolation, teardown ------------------


def test_crash_mid_backoff_cancels_pending_poll():
    # Regression: a poll scheduled before a crash must never fire into the
    # cold-restarted automaton.  With a 10s backoff the pending poll is
    # guaranteed to still be scheduled when the crash lands.
    def _one_lane_rm(seed: int) -> LanedReceiverEndpoint:
        return LanedReceiverEndpoint(
            [make_data_link(epsilon=2.0 ** -16, seed=seed)], [LiveEventLog()],
            _NOWHERE,
            [AdaptiveBackoff(_SLOW_POLL, RandomSource(seed).fork("poll"))],
            restart_delay=0.01,
        )

    async def _run():
        rm = _one_lane_rm(5)
        lane = rm._lanes[0]
        await rm.start()
        # The chain is live: first poll sent, next one pending 10s out.
        assert rm.pending_timer_count == 1

        rm.crash()
        assert lane.dead
        # The pending poll died with the volatile state; the only timer
        # left is the restart.
        assert lane.poll_handle is None
        assert rm.pending_timer_count == 1

        await asyncio.sleep(0.05)
        # Cold restart: automaton back, backoff reset, fresh poll chain.
        assert not lane.dead
        assert rm.pending_timer_count == 1
        assert lane.backoff.attempts_without_progress <= 1

        # Teardown sweeps everything — nothing left on the caller's loop.
        rm.close()
        assert rm.pending_timer_count == 0

        # Crash-then-close before the restart fires: the restart callback
        # is cancelled too, so the endpoint stays down for good.
        rm2 = _one_lane_rm(6)
        await rm2.start()
        rm2.crash()
        rm2.close()
        assert rm2.pending_timer_count == 0
        await asyncio.sleep(0.05)
        assert rm2._lanes[0].dead

    asyncio.run(_run())


def test_lane_crash_cancels_only_that_lanes_timers():
    async def _run():
        links = [make_data_link(epsilon=2.0 ** -16, seed=i) for i in (1, 2)]
        logs = [LiveEventLog(), LiveEventLog()]
        root = RandomSource(9)
        rm = LanedReceiverEndpoint(
            links, logs, _NOWHERE,
            [AdaptiveBackoff(_SLOW_POLL, root.fork("poll", i)) for i in (0, 1)],
            restart_delay=0.02,
        )
        await rm.start()
        # One pending poll per lane.
        assert rm.pending_timer_count == 2

        rm.crash_lane(0)
        # Lane 0: poll cancelled, restart scheduled.  Lane 1: untouched.
        assert rm._lanes[0].dead and rm._lanes[0].poll_handle is None
        assert not rm._lanes[1].dead and rm._lanes[1].poll_handle is not None
        assert rm.pending_timer_count == 2
        assert rm.crashes == 1

        await asyncio.sleep(0.06)
        assert not rm._lanes[0].dead  # restarted, polling again
        assert rm.pending_timer_count == 2

        rm.close()
        assert rm.pending_timer_count == 0

    asyncio.run(_run())


def test_laned_endpoint_counts_foreign_and_malformed_traffic():
    # Dispatch is pure bookkeeping until a frame validates, so this needs
    # no socket: feed raw datagrams straight into the splitter.
    links = [make_data_link(epsilon=2.0 ** -16, seed=i) for i in (1, 2)]
    logs = [LiveEventLog(), LiveEventLog()]
    tm = LanedTransmitterEndpoint(links, logs, _NOWHERE, [b"a", b"b"])

    poll = encode_packet(
        PollPacket(rho=BitString("0"), tau=BitString("1"), retry=0)
    )
    data = encode_packet(
        DataPacket(message=b"x", rho=BitString("0"), tau=BitString("1"))
    )
    tm._on_datagram(b"")  # too short for any frame
    tm._on_datagram(bytes([5]) + poll)  # lane id outside [0, 2)
    tm._on_datagram(poll)  # unlaned traffic on a laned wire
    tm._on_datagram(b"\x01\xff\xff")  # lane ok, body fails the codec
    tm._on_datagram(b"\x00" + data)  # decodes, but a TM expects polls
    assert tm.foreign_lanes == 3
    assert tm.malformed == 2
