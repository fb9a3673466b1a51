"""The live endpoints: K protocol instances striped over one socket pair.

Axiom 1 makes each data link stop-and-wait at the message level, so one
protocol instance on a live link delivers one message per ~2-RTT
handshake however fast the wire is.  The remedy proved in simulation by
:mod:`repro.extensions.striping` — run K *independent* link instances and
resequence — is deployed here on a real wire, and ``lanes=1`` is simply a
group of one:

* :class:`LanedTransmitterEndpoint` / :class:`LanedReceiverEndpoint` hold
  K independent :class:`~repro.core.transmitter.Transmitter` /
  :class:`~repro.core.receiver.Receiver` automata ("lanes") behind **one**
  shared UDP socket each; every datagram carries a 1-byte lane id in front
  of the canonical packet encoding (:func:`~repro.core.packets.
  encode_lane_frame`), so the socket pair is shared but the protocol
  instances never interact.
* Messages wait in **one slot queue** that every idle lane draws from:
  each slot travels under a ``(sequence, attempt)`` stripe header, and the
  receiver's shared :class:`~repro.util.resequencer.Resequencer`
  restores global order.  A slow lane therefore holds one slot, not a
  fixed share of the stream, and a crashed lane's in-flight slot goes
  back to the head of the queue for the first free lane.  The ``attempt``
  field makes that resubmission a *distinct* message value (Axiom 2)
  without touching the payload the resequencer releases, and the sequence
  number lets the resequencer drop the replay when the first incarnation
  was delivered too — so the application sees every payload exactly once,
  at any lane count.
* Correctness composes because nothing is weakened per lane: each lane is
  a complete instance of the paper's protocol with its own nonces, its own
  crash-amnesia (a lane crash wipes exactly that automaton and its
  timers), its own jittered poll backoff, and its own
  :class:`~repro.checkers.live.LiveEventLog` — so every lane independently
  earns Section 2.6 streaming verdicts, and the aggregate is their
  conjunction (:func:`~repro.checkers.report.merge_safety_reports`).

Crash-amnesia: a lane crash wipes the automaton's memory through its own
``crash()`` transition (the paper's model: memory dies, the entropy source
does not) *and* the harness-side volatile state (backoff schedule,
in-flight bookkeeping, its poll deadline).  The lane stays dead for
``restart_delay`` seconds (datagrams arriving meanwhile are lost, as they
would be at a down host), then cold-restarts.

Poll pacing: each RM lane keeps one poll *deadline*, and the endpoint one
audited loop timer armed at the earliest of them.  A progress event moves
its lane's deadline without touching the timer unless the new deadline is
the earliest; a timer that fires with nothing due re-arms at the new
earliest deadline.  So the loop sees a timer per wakeup, not a
``call_later`` per poll that the next progress event cancels.

Adversary visibility stays structural: the chaos proxy peeks the lane id
and identifier octet through :func:`~repro.core.packets.peek_wire_info` —
faults can *target a lane* but never read contents.

Hot path: each lane's outbound frames reuse the interned one-byte lane
prefix, and RETRY polls go through a per-lane
:class:`~repro.core.packets.PollEncoder`, which caches the lane byte and
the encoded ``(ρ, τ)`` prefix and re-packs only the retry counter.
"""

from __future__ import annotations

import struct
from collections import deque
from dataclasses import dataclass
from typing import Callable, Deque, List, Optional, Sequence

from repro.checkers.live import LiveEventLog
from repro.checkers.report import SafetyReport, merge_safety_reports
from repro.core.events import (
    CRASH_R,
    CRASH_T,
    OK,
    RETRY,
    ChannelId,
    Corruption,
    EmitOk,
    EmitPacket,
    EmitReceiveMsg,
    StationOutput,
    make_pkt_delivered,
    make_pkt_sent,
    make_receive_msg,
    make_send_msg,
)
from repro.core.exceptions import CodecError
# decode_packet is called in repro.live.endpoints, not here; e2ebench's
# traced live run wraps both modules' bindings by name, so it stays bound.
from repro.core.packets import (
    DataPacket,
    PollEncoder,
    PollPacket,
    decode_packet,
    lane_prefix,
)
from repro.core.protocol import DataLink
from repro.core.random_source import RandomSource
from repro.core.receiver import Receiver
from repro.core.transmitter import Transmitter
from repro.live.backoff import AdaptiveBackoff
from repro.live.endpoints import Address, _SocketBase
from repro.util.resequencer import Resequencer

__all__ = [
    "LaneMetrics",
    "LanedTransmitterEndpoint",
    "LanedReceiverEndpoint",
    "frame_stripe",
    "unframe_stripe",
]

#: Stripe header: global sequence number + resubmission attempt.  The
#: attempt is part of the *framing*, not the payload, so a slot re-queued
#: after a transmitter-lane crash is a fresh message value on the wire
#: (Axiom 2: no value is ever sent twice) while the resequenced stream
#: still releases the original payload bytes.
_STRIPE = struct.Struct(">QH")


def frame_stripe(sequence: int, attempt: int, payload: bytes) -> bytes:
    """Wrap a payload in the live stripe header."""
    return _STRIPE.pack(sequence, attempt) + payload


def unframe_stripe(message: bytes) -> "tuple[int, int, bytes]":
    """Split a delivered lane message into ``(sequence, attempt, payload)``."""
    if len(message) < _STRIPE.size:
        raise CodecError("truncated stripe header")
    sequence, attempt = _STRIPE.unpack_from(message, 0)
    return sequence, attempt, message[_STRIPE.size :]


@dataclass(frozen=True)
class LaneMetrics:
    """Per-lane counters for one finished (or running) laned deployment."""

    lane: int
    oks: int  # handshakes completed (messages OK'd on this lane)
    resubmissions: int  # slots re-queued after a TM-lane crash
    deliveries: int  # receive_msg events on this lane (pre-resequencing)
    polls: int  # RETRY polls this lane sent
    crashes_t: int
    crashes_r: int
    events: int  # events this lane's log has checked
    corruptions_t: int = 0  # in-place state scrambles on this TM lane
    corruptions_r: int = 0  # in-place state scrambles on this RM lane


class _TmLane:
    """One transmitter automaton plus its lane-local volatile bookkeeping."""

    __slots__ = (
        "lane", "tm", "log", "prefix", "current", "oks",
        "resubmissions", "crashes", "corruptions", "dead", "out_ids",
        "in_ids", "restart_handle",
    )

    def __init__(self, lane: int, tm: Transmitter, log: LiveEventLog) -> None:
        self.lane = lane
        self.tm = tm
        self.log = log
        self.prefix = lane_prefix(lane)  # interned; reused on every send
        # The slot in flight: (sequence, attempt, payload).
        self.current: Optional["tuple[int, int, bytes]"] = None
        self.oks = 0
        self.resubmissions = 0
        self.crashes = 0
        self.corruptions = 0
        self.dead = False
        self.out_ids = 0
        self.in_ids = 0
        self.restart_handle = None


class _RmLane:
    """One receiver automaton plus its lane-local volatile bookkeeping."""

    __slots__ = (
        "lane", "rm", "log", "backoff", "encoder", "deadline",
        "restart_handle", "polls", "deliveries", "crashes", "corruptions",
        "dead", "out_ids", "in_ids",
    )

    def __init__(
        self, lane: int, rm: Receiver, log: LiveEventLog,
        backoff: AdaptiveBackoff,
    ) -> None:
        self.lane = lane
        self.rm = rm
        self.log = log
        self.backoff = backoff
        self.encoder = PollEncoder(lane)  # caches lane byte + (ρ, τ) prefix
        #: Loop time of this lane's next poll; None while it has no poll
        #: chain (not started, dead, or the endpoint closed).
        self.deadline: Optional[float] = None
        self.restart_handle = None
        self.polls = 0
        self.deliveries = 0
        self.crashes = 0
        self.corruptions = 0
        self.dead = False
        self.out_ids = 0
        self.in_ids = 0


class LanedTransmitterEndpoint(_SocketBase):
    """K transmitter lanes draining one slot queue over one socket.

    The global payload stream is queued in order at construction; each
    lane runs the ordinary one-slot-at-a-time discipline (Axiom 1 *per
    lane*) and, whenever it is idle, draws the slot at the head of the
    shared queue.  ``on_ok`` fires per acknowledged slot, ``on_done`` once
    when every slot is OK'd.
    """

    outbound = ChannelId.T_TO_R
    _expected_packet = PollPacket

    def __init__(
        self,
        links: Sequence[DataLink],
        logs: Sequence[LiveEventLog],
        proxy_addr: Address,
        payloads: Sequence[bytes],
        on_ok: Optional[Callable[[], None]] = None,
        on_done: Optional[Callable[[], None]] = None,
        restart_delay: float = 0.02,
        pool=None,
    ) -> None:
        super().__init__(proxy_addr, len(links), restart_delay, pool=pool)
        if len(logs) != len(links):
            raise ValueError("need one event log per lane")
        self._lanes = [
            _TmLane(i, link.transmitter, log)
            for i, (link, log) in enumerate(zip(links, logs))
        ]
        #: Slots no lane holds, as (sequence, attempt, payload), head first.
        self._slots: Deque["tuple[int, int, bytes]"] = deque(
            (sequence, 0, payload) for sequence, payload in enumerate(payloads)
        )
        self.total_slots = len(self._slots)
        self._oks = 0
        self._on_ok = on_ok
        self._on_done = on_done

    async def start(self) -> None:
        await super().start()
        for lane in self._lanes:
            self._maybe_send_next(lane)

    # -- aggregate views ---------------------------------------------------------

    @property
    def oks(self) -> int:
        return self._oks

    @property
    def resubmissions(self) -> int:
        return sum(lane.resubmissions for lane in self._lanes)

    @property
    def crashes(self) -> int:
        return sum(lane.crashes for lane in self._lanes)

    @property
    def all_delivered(self) -> bool:
        return self._oks >= self.total_slots

    @property
    def corruptions(self) -> int:
        return sum(lane.corruptions for lane in self._lanes)

    def lane_metrics(self) -> List[LaneMetrics]:
        return [
            LaneMetrics(
                lane=lane.lane, oks=lane.oks,
                resubmissions=lane.resubmissions, deliveries=0, polls=0,
                crashes_t=lane.crashes, crashes_r=0,
                events=lane.log.events_seen,
                corruptions_t=lane.corruptions,
            )
            for lane in self._lanes
        ]

    # -- per-lane protocol drive -------------------------------------------------

    def _maybe_send_next(self, lane: _TmLane) -> None:
        if lane.dead or self._closed or lane.current is not None:
            return
        if lane.tm.busy or not self._slots:
            return
        slot = self._slots.popleft()
        lane.current = slot
        value = frame_stripe(slot[0], slot[1], slot[2])
        lane.log.record(make_send_msg(value))
        self._dispatch(lane, lane.tm.send_msg(value))

    def _dispatch(self, lane: _TmLane, outputs: List[StationOutput]) -> None:
        for output in outputs:
            if isinstance(output, EmitPacket):
                self._send_packet(lane, output.packet)
            elif isinstance(output, EmitOk):
                lane.log.record(OK)
                lane.oks += 1
                self._oks += 1
                lane.current = None
                if self._on_ok is not None:
                    self._on_ok()
                if self.all_delivered:
                    if self._on_done is not None:
                        self._on_done()
                else:
                    self._maybe_send_next(lane)

    def _send_packet(self, lane: _TmLane, packet) -> None:
        lane.out_ids += 1
        # The +8 bits are the lane-frame byte: length as the wire (and the
        # adversary) sees the datagram.
        bits = packet.wire_length_bits + 8
        lane.log.record(make_pkt_sent(self.outbound, lane.out_ids, bits))
        self._send_wire(packet, bits >> 3, lane.prefix)

    def _handle_lane_packet(self, lane_id: int, packet: PollPacket) -> None:
        lane = self._lanes[lane_id]
        if lane.dead:
            self.dropped_while_dead += 1
            return
        lane.in_ids += 1
        lane.log.record(make_pkt_delivered(ChannelId.R_TO_T, lane.in_ids))
        self._dispatch(lane, lane.tm.on_receive_pkt(packet))

    # -- crash-amnesia (per lane) ------------------------------------------------

    def crash_lane(self, lane_id: int) -> None:
        """Amnesia-crash one lane; the others keep their handshakes."""
        lane = self._lanes[lane_id]
        if lane.dead or self._closed:
            return
        lane.dead = True
        lane.crashes += 1
        self._cancel_timer(lane.restart_handle)
        lane.log.record(CRASH_T)
        lane.tm.crash()
        if lane.current is not None:
            # The in-flight framed value died with the memory; the slot
            # goes back to the head of the queue under the next attempt — a
            # distinct wire value (Axiom 2) carrying the same payload and
            # sequence number — for the first free lane.
            self._resubmit(lane)
        lane.restart_handle = self._call_later(
            self.restart_delay, lambda: self._restart_lane(lane)
        )

    def corrupt_lane(self, lane_id: int, seed: int,
                     fields: Optional[Sequence[str]] = None) -> "tuple":
        """Scramble one TM lane's state in place; the lane keeps running."""
        lane = self._lanes[lane_id]
        if lane.dead or self._closed:
            return ()
        scrambled = lane.tm.corrupt(RandomSource(seed), fields)
        lane.corruptions += 1
        lane.log.record(Corruption(station="T", fields=scrambled, seed=seed))
        if not lane.tm.busy and lane.current is not None:
            self._resubmit(lane)
        else:
            self._maybe_send_next(lane)
        return scrambled

    def _resubmit(self, lane: _TmLane) -> None:
        """Return ``lane``'s slot to the queue head and offer it to idle lanes."""
        sequence, attempt, payload = lane.current
        lane.current = None
        lane.resubmissions += 1
        self._slots.appendleft((sequence, attempt + 1, payload))
        # Lanes go idle only when the queue runs dry, so an idle lane may be
        # waiting for exactly this slot.
        for each in self._lanes:
            self._maybe_send_next(each)

    def _restart_lane(self, lane: _TmLane) -> None:
        lane.restart_handle = None
        if self._closed:
            return
        lane.dead = False
        self._maybe_send_next(lane)


class LanedReceiverEndpoint(_SocketBase):
    """K receiver lanes feeding one shared resequencer over one socket.

    Each lane runs its own poll chain on its own backoff schedule (jitter
    decorrelates the lanes, so polls spread over the RTT instead of
    bursting); the chains share one timer through the lanes' poll
    deadlines (see the module docstring).  Deliveries carry the stripe
    header; the shared
    :class:`Resequencer` releases the longest in-order payload run, and
    ``on_delivery`` fires once per *released* payload — i.e. once per
    payload, in global stream order.
    """

    outbound = ChannelId.R_TO_T
    _expected_packet = DataPacket

    def __init__(
        self,
        links: Sequence[DataLink],
        logs: Sequence[LiveEventLog],
        proxy_addr: Address,
        backoffs: Sequence[AdaptiveBackoff],
        on_progress: Optional[Callable[[], None]] = None,
        on_delivery: Optional[Callable[[bytes], None]] = None,
        restart_delay: float = 0.02,
        pool=None,
    ) -> None:
        super().__init__(proxy_addr, len(links), restart_delay, pool=pool)
        if len(logs) != len(links) or len(backoffs) != len(links):
            raise ValueError("need one event log and one backoff per lane")
        self._lanes = [
            _RmLane(i, link.receiver, log, backoff)
            for i, (link, log, backoff) in enumerate(zip(links, logs, backoffs))
        ]
        self.resequencer = Resequencer()
        self._on_progress = on_progress
        self._on_delivery = on_delivery
        # The endpoint's one poll timer and the loop time it is armed for.
        self._poll_handle = None
        self._poll_when: Optional[float] = None

    async def start(self) -> None:
        await super().start()
        for lane in self._lanes:
            self._poll_tick(lane)

    # -- aggregate views ---------------------------------------------------------

    @property
    def delivered(self) -> List[bytes]:
        """The resequenced global stream (payloads, stripe header removed)."""
        return self.resequencer.delivered_in_order

    @property
    def deliveries(self) -> int:
        """Lane-level receive_msg count (before resequencing/dedup)."""
        return sum(lane.deliveries for lane in self._lanes)

    @property
    def crashes(self) -> int:
        return sum(lane.crashes for lane in self._lanes)

    @property
    def polls_without_progress(self) -> int:
        """Give-up input: the *least*-stuck lane's fruitless-poll count.

        Finished lanes keep polling without progress forever, so the max
        (or any single lane's counter) would fire spurious give-ups while
        other lanes still advance; the minimum only decays once every lane
        has stopped progressing.
        """
        return min(
            lane.backoff.attempts_without_progress for lane in self._lanes
        )

    @property
    def corruptions(self) -> int:
        return sum(lane.corruptions for lane in self._lanes)

    def lane_metrics(self) -> List[LaneMetrics]:
        return [
            LaneMetrics(
                lane=lane.lane, oks=0, resubmissions=0,
                deliveries=lane.deliveries, polls=lane.polls,
                crashes_t=0, crashes_r=lane.crashes,
                events=lane.log.events_seen,
                corruptions_r=lane.corruptions,
            )
            for lane in self._lanes
        ]

    def safety_report(self) -> SafetyReport:
        """Aggregate Section 2.6 safety verdict across all lane logs."""
        return merge_safety_reports(
            [lane.log.safety_report() for lane in self._lanes]
        )

    # -- per-lane poll chains on one timer ---------------------------------------

    def _poll_tick(self, lane: _RmLane) -> None:
        """Poll ``lane`` now; arm the timer if its next poll is the earliest."""
        self._poll(lane)
        when = lane.deadline
        if when is not None and (self._poll_when is None or when < self._poll_when):
            self._arm_poll_timer(when)

    def _poll(self, lane: _RmLane) -> None:
        """Send one poll and set the lane's next deadline (timer untouched)."""
        if lane.dead or self._closed:
            lane.deadline = None
            return
        lane.log.record(RETRY)
        lane.polls += 1
        for output in lane.rm.retry():
            if isinstance(output, EmitPacket):
                self._send_packet(lane, output.packet)
        lane.deadline = self._loop.time() + lane.backoff.next_delay()

    def _arm_poll_timer(self, when: float) -> None:
        self._cancel_timer(self._poll_handle)
        self._poll_when = when
        self._poll_handle = self._call_at(when, self._on_poll_timer)

    def _on_poll_timer(self) -> None:
        """The poll timer fired: poll every due lane, re-arm at the earliest."""
        # Due means no later than the time the timer was armed for: a loop
        # may run a timer up to a clock tick early, and asking by how much
        # would mean reading the loop's private state.
        due = max(self._loop.time(), self._poll_when)
        self._poll_handle = self._poll_when = None
        earliest = None
        for lane in self._lanes:
            if lane.deadline is not None and lane.deadline <= due:
                self._poll(lane)
            when = lane.deadline
            if when is not None and (earliest is None or when < earliest):
                earliest = when
        if earliest is not None:
            self._arm_poll_timer(earliest)

    def _send_packet(self, lane: _RmLane, packet) -> None:
        lane.out_ids += 1
        bits = packet.wire_length_bits + 8
        lane.log.record(make_pkt_sent(self.outbound, lane.out_ids, bits))
        if type(packet) is PollPacket:
            # The encoder's cached prefix covers the lane byte + (ρ, τ).
            self._send_wire(packet, bits >> 3, lane_prefix(lane.lane),
                            encoder=lane.encoder)
        else:
            self._send_wire(packet, bits >> 3, lane_prefix(lane.lane))

    def _handle_lane_packet(self, lane_id: int, packet: DataPacket) -> None:
        lane = self._lanes[lane_id]
        if lane.dead:
            self.dropped_while_dead += 1
            return
        lane.in_ids += 1
        lane.log.record(make_pkt_delivered(ChannelId.T_TO_R, lane.in_ids))
        tau_before = lane.rm.tau
        outputs = lane.rm.on_receive_pkt(packet)
        progressed = False
        for output in outputs:
            if isinstance(output, EmitReceiveMsg):
                lane.log.record(make_receive_msg(output.message))
                lane.deliveries += 1
                progressed = True
                self._accept_delivery(output.message)
        if not progressed and lane.rm.tau != tau_before:
            progressed = True  # nonce extended mid-handshake
        if progressed:
            lane.backoff.note_progress()
            if self._on_progress is not None:
                self._on_progress()
            # Ack immediately and restart this lane's chain at the reset
            # backoff (a new deadline); sibling lanes' deadlines are
            # untouched.
            self._poll_tick(lane)

    def _accept_delivery(self, message: bytes) -> None:
        sequence, _attempt, payload = unframe_stripe(message)
        released = self.resequencer.accept(sequence, payload)
        if self._on_delivery is not None:
            for ready in released:
                self._on_delivery(ready)

    # -- crash-amnesia (per lane) ------------------------------------------------

    def crash_lane(self, lane_id: int) -> None:
        """Amnesia-crash one lane; sibling poll chains keep running."""
        lane = self._lanes[lane_id]
        if lane.dead or self._closed:
            return
        lane.dead = True
        lane.crashes += 1
        # The lane's poll deadline dies with its memory — a poll due before
        # the crash must never fire into the restarted automaton.  The
        # shared timer stays armed; if it fires for this deadline, it finds
        # nothing due and re-arms at the siblings' earliest.
        lane.deadline = None
        self._cancel_timer(lane.restart_handle)
        lane.log.record(CRASH_R)
        lane.rm.crash()
        lane.backoff.reset()
        lane.restart_handle = self._call_later(
            self.restart_delay, lambda: self._restart_lane(lane)
        )

    def corrupt_lane(self, lane_id: int, seed: int,
                     fields: Optional[Sequence[str]] = None) -> "tuple":
        """Scramble one RM lane's state in place; its poll chain keeps running."""
        lane = self._lanes[lane_id]
        if lane.dead or self._closed:
            return ()
        scrambled = lane.rm.corrupt(RandomSource(seed), fields)
        lane.corruptions += 1
        lane.log.record(Corruption(station="R", fields=scrambled, seed=seed))
        return scrambled

    def _restart_lane(self, lane: _RmLane) -> None:
        lane.restart_handle = None
        if self._closed:
            return
        lane.dead = False
        self._poll_tick(lane)
