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
  the codec), and its fast path outside the plan's turn span still fires
  scripted events on the span's first and last turn;
* **slot queue** — a transmitter lane held dead strands no slot: the
  other lanes drain the queue, its resubmitted slot included;
* **timer hygiene** — crashing an endpoint mid-backoff clears the lane's
  poll deadline (the stale-callback regression), lane crashes touch only
  their own lane's deadline, a due poll leaves at its deadline, and
  teardown leaves nothing scheduled on the caller's loop.
"""

from __future__ import annotations

import asyncio

import repro.core.packets as packets
import repro.live.proxy as proxy_module
from repro.checkers.live import LiveEventLog
from repro.core.bitstrings import BitString
from repro.core.events import ChannelId, Retry
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
from repro.live.wire import BatchedDatagramIO
from repro.resilience.faultplan import (
    CorruptAt,
    CrashAt,
    DropWindow,
    FaultPlan,
    StallWindow,
)

_FAST_POLL = BackoffPolicy(base=0.004, factor=2.0, cap=0.05, jitter=0.25)
#: Slow enough that a scheduled poll is still pending whenever we look.
_SLOW_POLL = BackoffPolicy(base=10.0, factor=2.0, cap=20.0, jitter=0.0)

#: A sink address for endpoints driven by hand (nothing listens there).
_NOWHERE = ("127.0.0.1", 9)


def _payloads(n: int) -> list:
    # Must match the workload run_live_scenario generates internally.
    return [b"live-%05d" % i for i in range(n)]


class _StampedLog(LiveEventLog):
    """A lane log that also keeps the loop time of every poll it records."""

    def __init__(self) -> None:
        super().__init__()
        self.polled_at: list = []

    def record(self, event):
        if type(event) is Retry:
            self.polled_at.append(asyncio.get_running_loop().time())
        return super().record(event)


class _CapturingIO:
    """Stands in for one of the proxy's sockets: keeps what it must send."""

    def __init__(self) -> None:
        self.sent: list = []

    def send(self, data, addr) -> None:
        self.sent.append(bytes(data))


def _wired_proxy(**kwargs) -> ChaosProxy:
    """A proxy whose two sockets are :class:`_CapturingIO` stand-ins."""
    proxy = ChaosProxy(**kwargs)
    proxy._t_io, proxy._r_io = _CapturingIO(), _CapturingIO()
    proxy.connect(("127.0.0.1", 1), ("127.0.0.1", 2))
    return proxy


def _data_frame(turn: int, lane: int = 0) -> bytes:
    """A laned data frame that names the turn it is fed at."""
    return encode_lane_frame(lane, encode_packet(
        DataPacket(message=b"turn-%d" % turn, rho=BitString("01"),
                   tau=BitString("1"))
    ))


# -- differential: live lanes == simulated striping ------------------------------


def test_differential_live_stream_matches_striped_simulator():
    # Same workload, same per-lane link seeds: the scenario derives lane
    # seeds as split_seed(split_seed(seed, "live-link"), "lane", i), as
    # StripedLink(lanes, ε, seed=split_seed(seed, "live-link")) does.  The
    # two assign slots to lanes differently (the simulator keeps the static
    # s % K stripe, the live lanes draw from one slot queue), so only the
    # resequenced global stream is compared.
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

    # The forwarded frames are read where they leave: at the sockets.
    proxy = _wired_proxy(rng=RandomSource(3))

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

    # Both well-formed datagrams were forwarded byte-identically, each out
    # of the socket facing its destination — the proxy never needed (and
    # could not have used) a decode.
    assert proxy._r_io.sent == [laned]
    assert proxy._t_io.sent == [poll]
    assert proxy.stats.observed == 2
    assert proxy.stats.foreign == 1
    assert proxy.stats.by_kind == {"data": 1, "poll": 1}
    assert proxy.stats.by_lane == {3: 1}


def test_scripted_events_fire_on_the_first_and_last_turn_of_the_span():
    # Outside the plan's turn span the proxy skips its scripted checks; the
    # span's own first and last turns must still see them, and stalled
    # frames held past the span must still be released.
    crashes, corruptions = [], []
    proxy = _wired_proxy(
        plan=FaultPlan.of(
            CrashAt(step=2, station="T"),  # the span's first turn
            StallWindow(start=4, end=6),  # ... and its last
        ),
        on_crash=lambda station, turn, lane: crashes.append(
            (station, turn, lane)
        ),
    )
    frames = [_data_frame(turn, lane=turn % 3) for turn in range(1, 10)]
    for frame in frames[:6]:
        proxy._on_datagram(ChannelId.T_TO_R, frame)
    assert crashes == [("T", 2, 2)]
    # Turns 4-6 are held; turn 7, past the span, releases them first.
    assert proxy._r_io.sent == frames[:3]
    for frame in frames[6:]:
        proxy._on_datagram(ChannelId.T_TO_R, frame)
    assert proxy._r_io.sent == frames
    assert proxy.stats.stalled == 3 and proxy.stats.forwarded == 9

    proxy = _wired_proxy(
        plan=FaultPlan.of(
            DropWindow(start=3, end=4),  # the span's first turn
            CorruptAt(step=7, station="R", seed=5),  # ... and its last
        ),
        on_corrupt=lambda event, turn, lane: corruptions.append(
            (event.station, turn, lane)
        ),
    )
    for frame in frames:
        proxy._on_datagram(ChannelId.T_TO_R, frame)
    assert corruptions == [("R", 7, 1)]
    assert proxy._r_io.sent == frames[:2] + frames[4:]
    assert proxy.stats.dropped == 2


# -- slot queue: a dead lane strands nothing ---------------------------------------


def test_a_dead_transmitter_lane_strands_no_slot():
    # A TM lane crashes mid-stream and stays dead for longer than the run
    # (restart_delay 60 s).  Its in-flight slot goes back to the head of
    # the one slot queue; the other lanes drain every remaining slot, the
    # resubmitted one included, and the stream arrives exactly once and in
    # order.  A static stripe would strand the dead lane's share until the
    # give-up deadline.
    messages = 40
    report = run_live_scenario(LiveScenario(
        messages=messages, seed=3, lanes=4,
        plan=FaultPlan.of(CrashAt(step=12, station="T")),
        poll=_FAST_POLL, restart_delay=60.0, budget=30.0, give_up_idle=5.0,
        label="dead-lane",
    ))
    assert report.status is LiveStatus.DELIVERED, report.reason
    assert report.ok
    assert report.crashes_t == 1 and report.resubmissions == 1
    dead = [m for m in report.lane_metrics if m.crashes_t]
    assert len(dead) == 1 and dead[0].resubmissions == 1
    # Every slot was OK'd once: the dead lane's before its crash, the
    # rest (its resubmitted slot among them) by the three live lanes.
    assert report.oks == messages
    assert sum(m.oks for m in report.lane_metrics) == messages
    assert report.delivered_stream == _payloads(messages)
    assert report.in_order_delivered == messages
    assert report.wall_seconds < 30.0


def test_a_crashed_lanes_slot_goes_to_the_first_free_lane():
    # Driven by hand (no socket): one payload, three lanes, so lanes 1 and
    # 2 sit idle on an empty queue.  When lane 0 crashes, its slot goes
    # back to the head under attempt 1 and the first free lane takes it at
    # once, while lane 0 is still dead.
    async def _run():
        links = [make_data_link(epsilon=2.0 ** -16, seed=i) for i in range(3)]
        logs = [LiveEventLog() for __ in range(3)]
        tm = LanedTransmitterEndpoint(
            links, logs, _NOWHERE, [b"only"], restart_delay=60.0
        )
        for lane in tm._lanes:
            tm._maybe_send_next(lane)
        assert [lane.current for lane in tm._lanes] == [(0, 0, b"only"), None, None]
        tm.crash_lane(0)
        assert tm._lanes[0].dead
        assert [lane.current for lane in tm._lanes] == [None, (0, 1, b"only"), None]
        assert [lane.resubmissions for lane in tm._lanes] == [1, 0, 0]
        assert [log.events_seen for log in logs] == [2, 1, 0]  # send+crash, send
        tm.close()
        assert tm.pending_timer_count == 0

    asyncio.run(_run())


# -- timer hygiene: crash mid-backoff, lane isolation, teardown ------------------


def test_crash_mid_backoff_cancels_pending_poll():
    # Regression: a poll due before a crash must never fire into the
    # cold-restarted automaton.  The lane is crashed right after its first
    # poll and restarts 0.1 s later, so the stale deadline (first poll +
    # 0.3 s) falls between the restart's poll and the restarted chain's
    # own first deadline: a poll there could only be the stale one.
    policy = BackoffPolicy(base=0.3, factor=1.0, cap=0.3, jitter=0.0)

    def _one_lane_rm(seed: int) -> LanedReceiverEndpoint:
        return LanedReceiverEndpoint(
            [make_data_link(epsilon=2.0 ** -16, seed=seed)], [_StampedLog()],
            _NOWHERE,
            [AdaptiveBackoff(policy, RandomSource(seed).fork("poll"))],
            restart_delay=0.1,
        )

    async def _run():
        rm = _one_lane_rm(5)
        lane = rm._lanes[0]
        polled_at = lane.log.polled_at
        await rm.start()
        # The chain is live: first poll sent, the next one due 0.3 s out on
        # the endpoint's one poll timer.
        assert len(polled_at) == 1
        assert lane.deadline >= polled_at[0] + 0.3
        assert rm.pending_timer_count == 1

        rm.crash()
        assert lane.dead
        # The deadline died with the volatile state and the backoff was
        # reset; the timers left are the shared poll timer and the restart.
        assert lane.deadline is None
        assert lane.backoff.attempts_without_progress == 0
        assert rm.pending_timer_count == 2

        await asyncio.sleep(0.55)
        # Cold restart: automaton back, a poll at once, then polls only at
        # the restarted chain's own deadlines.
        assert not lane.dead
        restart_poll = polled_at[1]
        assert restart_poll >= polled_at[0] + 0.1
        assert all(t >= restart_poll + 0.3 - 1e-3 for t in polled_at[2:])
        assert rm.pending_timer_count == 1

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
        await asyncio.sleep(0.15)
        assert rm2._lanes[0].dead and rm2._lanes[0].deadline is None
        assert len(rm2._lanes[0].log.polled_at) == 1

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
        # One deadline per lane, one timer for the endpoint.
        assert all(lane.deadline is not None for lane in rm._lanes)
        assert rm.pending_timer_count == 1
        sibling = rm._lanes[1].deadline

        rm.crash_lane(0)
        # Lane 0: deadline cleared, restart scheduled.  Lane 1: untouched.
        assert rm._lanes[0].dead and rm._lanes[0].deadline is None
        assert not rm._lanes[1].dead and rm._lanes[1].deadline == sibling
        assert rm.pending_timer_count == 2
        assert rm.crashes == 1

        await asyncio.sleep(0.06)
        # Restarted and polling again on a fresh deadline; the sibling's
        # deadline never moved.
        assert not rm._lanes[0].dead and rm._lanes[0].deadline is not None
        assert rm._lanes[0].polls == 2 and rm._lanes[1].polls == 1
        assert rm._lanes[1].deadline == sibling
        assert rm.pending_timer_count == 1

        rm.close()
        assert rm.pending_timer_count == 0

    asyncio.run(_run())


def test_a_due_poll_leaves_at_its_deadline():
    # Nothing answers the polls, so the lane's chain runs on its timer
    # alone: each poll must reach the wire no earlier than the deadline the
    # previous one set, and well before the one after.
    base = 0.05
    policy = BackoffPolicy(base=base, factor=1.0, cap=base, jitter=0.0)

    async def _run():
        loop = asyncio.get_running_loop()
        arrived = []
        sink = BatchedDatagramIO(lambda view: arrived.append(loop.time()))
        await sink.open()
        log = _StampedLog()
        rm = LanedReceiverEndpoint(
            [make_data_link(epsilon=2.0 ** -16, seed=4)], [log],
            sink.local_address,
            [AdaptiveBackoff(policy, RandomSource(4).fork("poll"))],
        )
        try:
            await rm.start()
            for _ in range(100):
                await asyncio.sleep(0.01)
                if len(arrived) >= 5:
                    break
            assert rm.pending_timer_count == 1
        finally:
            rm.close()
            sink.close()
        assert rm.pending_timer_count == 0
        return log.polled_at, arrived

    polled_at, arrived = asyncio.run(_run())
    assert len(arrived) >= 5
    for sent, due_from, landed in zip(polled_at[1:], polled_at, arrived[1:]):
        assert sent >= due_from + base - 1e-3
        assert landed - due_from < 2 * base


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
