"""Chaos proxy: wire-level fault injection between live stations.

The simulator's adversary decides the fate of every packet from inside the
discrete-event loop; on a live link the same role is played by an in-path
UDP relay.  :class:`ChaosProxy` binds one socket facing each station and
forwards datagrams between them, turning two fault sources into wire
behaviour:

* the **scripted** :class:`~repro.resilience.faultplan.FaultPlan` schema —
  the exact JSON plans campaigns archive and shrink, read through the
  same :class:`~repro.resilience.faultplan.FaultSchedule` as the
  simulator's — where turn numbers become 1-based counts of datagrams
  the proxy has observed; every control event of a turn fires on it:

  - ``drop``  → the datagram is not forwarded (with ``channel: null``
    covering both directions, i.e. a full **partition**);
  - ``duplicate`` → the most recently forwarded datagram is re-sent
    ``copies`` times, ``spacing`` quanta apart;
  - ``stall`` → arrivals inside the window are buffered and released when
    the window closes (reordering them behind later traffic);
  - ``crash`` → the proxy does not touch the datagram but tells the crash
    orchestrator to kill the named station (see :mod:`repro.live.scenario`);
    the observed datagram's lane id rides along, so a scenario can crash
    just the lane the trigger datagram belonged to;
  - ``corrupt`` → the proxy tells the scenario to scramble the named
    station's volatile state *in place* (seed-pinned, no dead window);
    ``mode: "wipe"`` is filed as a crash and fires the crash trigger —
    the live half of the wipe ≡ crash identity;
  - ``hang``  → the link goes silent for ``seconds`` of wall clock
    (``null`` = until the scenario's give-up deadline fires); a later
    hang replaces the pause, so an earlier one's release never ends it;
  - ``abort`` → the scenario is torn down (harness-failure drill).

* a **stochastic** :class:`LinkProfile` — per-datagram drop, duplication,
  reordering and delay drawn from a seeded
  :class:`~repro.core.random_source.RandomSource`.

Adversary visibility is enforced structurally: the proxy inspects traffic
only through :func:`~repro.core.packets.peek_wire_info` — identifier octet
and datagram length, exactly what Section 2.3 grants the adversary — and
never decodes payloads.

Hot path: the scripted events sit in the plan's *turn span*, from its
first scripted turn to its last.  A datagram outside that span, arriving
while nothing is held and the link is not paused, skips the scripted
checks (release, control events, drop and stall windows, pause, bursts):
none of them could act on it.  The turn clock, the peek and the stochastic
draws are the same on both paths, so the proxy's tape does not change.
"""

from __future__ import annotations

import asyncio
from dataclasses import dataclass, field
from typing import Callable, Dict, List, Optional, Tuple

from repro.core.events import ChannelId
from repro.core.exceptions import CodecError
from repro.core.packets import peek_wire_info
from repro.core.random_source import RandomSource
from repro.live.endpoints import AuditedTimers
from repro.live.wire import BatchedDatagramIO, BufferPool, link_flush_group
from repro.resilience.faultplan import CorruptAt, FaultPlan, FaultSchedule

__all__ = ["LinkProfile", "ChaosProxy"]

Address = Tuple[str, int]


@dataclass(frozen=True)
class LinkProfile:
    """Stochastic wire behaviour (rates per datagram, delays in seconds)."""

    drop: float = 0.0
    duplicate: float = 0.0
    reorder: float = 0.0
    delay: float = 0.0  # fixed one-way latency added to every datagram
    jitter: float = 0.0  # extra uniform([0, jitter)) latency
    reorder_hold: float = 0.02  # how long a reordered datagram is held back
    duplicate_gap: float = 0.005  # spacing quantum for duplicate copies

    def __post_init__(self) -> None:
        for name in ("drop", "duplicate", "reorder"):
            rate = getattr(self, name)
            if not 0.0 <= rate <= 1.0:
                raise ValueError(f"{name} rate {rate} outside [0, 1]")
        if self.duplicate >= 1.0:
            # Copy counts are geometric (each copy re-flips), so p=1 would
            # mean an infinite duplicate train for every datagram.
            raise ValueError("duplicate rate must be < 1")
        for name in ("delay", "jitter", "reorder_hold", "duplicate_gap"):
            if getattr(self, name) < 0.0:
                raise ValueError(f"{name} must be >= 0")

    @property
    def is_clean(self) -> bool:
        return not (self.drop or self.duplicate or self.reorder
                    or self.delay or self.jitter)


@dataclass
class ProxyStats:
    """Wire-fault accounting (what the scenario report surfaces)."""

    observed: int = 0
    forwarded: int = 0
    dropped: int = 0
    duplicated: int = 0
    reordered: int = 0
    stalled: int = 0
    foreign: int = 0  # datagrams rejected by the identifier/length peek
    by_kind: Dict[str, int] = field(default_factory=dict)
    #: Datagrams observed per lane id (structural framing info, still no
    #: content decode).
    by_lane: Dict[int, int] = field(default_factory=dict)


class ChaosProxy(AuditedTimers):
    """In-path UDP relay applying scripted and stochastic wire faults.

    Lifecycle: ``await start()`` binds both sockets (ephemeral loopback
    ports), ``connect()`` tells the proxy where the stations live, and
    ``close()`` tears the relay down.  Delayed forwards and hang releases
    run on audited timers, so ``close()`` cancels them and leaves nothing
    scheduled on the caller's loop.
    """

    def __init__(
        self,
        plan: Optional[FaultPlan] = None,
        profile: Optional[LinkProfile] = None,
        rng: Optional[RandomSource] = None,
        on_crash: Optional[Callable[[str, int, Optional[int]], None]] = None,
        on_abort: Optional[Callable[[int], None]] = None,
        on_corrupt: Optional[Callable[[CorruptAt, int, Optional[int]], None]] = None,
        pool: Optional[BufferPool] = None,
    ) -> None:
        super().__init__()
        self.plan = plan if plan is not None else FaultPlan()
        self.profile = profile if profile is not None else LinkProfile()
        self._rng = rng if rng is not None else RandomSource(0)
        self._on_crash = on_crash
        self._on_abort = on_abort
        self._on_corrupt = on_corrupt
        self._pool = pool
        self.stats = ProxyStats()
        self._turn = 0
        self._closed = False
        self._tm_addr: Optional[Address] = None
        self._rm_addr: Optional[Address] = None
        self._t_io: Optional[BatchedDatagramIO] = None  # faces the TM
        self._r_io: Optional[BatchedDatagramIO] = None  # faces the RM
        self._last_forwarded: Optional[Tuple[ChannelId, bytes]] = None
        self._paused_until: Optional[float] = None  # None=open; inf=forever
        self._held: List[Tuple[ChannelId, bytes]] = []  # stalled/hung traffic
        # The plan filed by kind; control events and bursts are popped as
        # they fire.  The fast path reads the station events' turn span.
        self._schedule = FaultSchedule(self.plan.events)
        self._first_turn = self._schedule.first_turn
        self._last_turn = self._schedule.last_turn

    # -- lifecycle ---------------------------------------------------------------

    async def start(self) -> None:
        # Each side drains in chunks but dispatches datagrams to
        # _on_datagram ONE AT A TIME, so the scripted-event turn clock
        # counts datagrams however the wire batches them.  The two sides
        # share one flush group: a datagram drained on the T-facing socket
        # is forwarded out the R-facing one, and that borrowed view must
        # leave before the next drain chunk reuses it.
        self._t_io = BatchedDatagramIO(
            lambda view: self._on_datagram(ChannelId.T_TO_R, view),
            pool=self._pool,
        )
        self._r_io = BatchedDatagramIO(
            lambda view: self._on_datagram(ChannelId.R_TO_T, view),
            pool=self._pool,
        )
        await self._t_io.open()
        await self._r_io.open()
        link_flush_group([self._t_io, self._r_io])

    def connect(self, tm_addr: Address, rm_addr: Address) -> None:
        """Tell the proxy where to forward each direction's traffic."""
        self._tm_addr = tm_addr
        self._rm_addr = rm_addr

    @property
    def t_facing_address(self) -> Address:
        """Where the TM should send its datagrams."""
        return self._t_io.local_address

    @property
    def r_facing_address(self) -> Address:
        """Where the RM should send its datagrams."""
        return self._r_io.local_address

    @property
    def wire_ios(self) -> "List[BatchedDatagramIO]":
        """The batched sockets behind the relay (once started)."""
        return [self._t_io, self._r_io]

    @property
    def turns(self) -> int:
        """Datagrams observed so far (the scripted-event clock)."""
        return self._turn

    def close(self) -> None:
        self._closed = True
        self._cancel_timers()
        for io in (self._t_io, self._r_io):
            if io is not None:
                io.close()

    # -- the wire ----------------------------------------------------------------

    def _on_datagram(self, channel: ChannelId, data) -> None:
        # ``data`` is a memoryview into a reused receive buffer (or bytes,
        # when a test calls in directly).  The hot path (peek → forward)
        # stays zero-copy; anything that must survive past this call —
        # stalled/hung holds, delayed forwards, the duplicate-burst replay
        # buffer — is copied at the point it escapes.
        if self._closed:
            return
        # Adversary visibility: identifier + length only, never a decode.
        try:
            info = peek_wire_info(data)
        except CodecError:
            self.stats.foreign += 1
            return
        self._turn += 1
        turn = self._turn
        self.stats.observed += 1
        self.stats.by_kind[info.kind] = self.stats.by_kind.get(info.kind, 0) + 1
        if info.lane is not None:
            self.stats.by_lane[info.lane] = (
                self.stats.by_lane.get(info.lane, 0) + 1
            )

        # The fast path: outside the plan's turn span, with nothing held
        # and the link not paused, every scripted check below is a no-op.
        scripted = (
            self._first_turn <= turn <= self._last_turn
            or self._held
            or self._paused_until is not None
        )
        if scripted:
            self._maybe_release_held(turn)
            self._fire_control_events(turn, info.lane)
            if self._schedule.dropped(turn, channel):
                self.stats.dropped += 1
                return
            if self._schedule.stalled(turn) or self._is_paused():
                self.stats.stalled += 1
                # Held datagrams outlive the drain chunk: copy a borrowed view.
                self._held.append(
                    (channel, data if type(data) is bytes else bytes(data))
                )
                return
        if self.profile.drop and self._rng.bernoulli(self.profile.drop):
            self.stats.dropped += 1
            return

        delay = self._draw_delay()
        if self.profile.reorder and self._rng.bernoulli(self.profile.reorder):
            self.stats.reordered += 1
            delay += self.profile.reorder_hold
        self._forward(channel, data, delay)
        if self.profile.duplicate:
            # Geometric copy count from ONE uniform draw: each copy re-flips
            # the duplicate coin, so copies ~ Geometric(1-p) - 1, which
            # geometric_fast collapses into a single inverse-CDF draw.  This
            # changes the proxy's tape versus per-copy bernoulli() — fine
            # here, because live-wire schedules are timing-dependent and
            # carry no old-seed replay contract (unlike the simulator's
            # adversaries, which keep the per-trial form).  Copies are
            # capped so a hot tape cannot flood the loop.
            copies = self._rng.geometric_fast(1.0 - self.profile.duplicate) - 1
            for k in range(min(copies, 8)):
                self.stats.duplicated += 1
                self._forward(
                    channel, data, delay + (k + 1) * self.profile.duplicate_gap
                )
        if scripted:
            self._fire_duplicate_bursts(turn)

    def _fire_control_events(self, turn: int, lane: Optional[int] = None) -> None:
        schedule = self._schedule
        if schedule.aborts.pop(turn, None):
            if self._on_abort is not None:
                self._on_abort(turn)
            return
        stations = schedule.crashes.pop(turn, None)
        if stations and self._on_crash is not None:
            for station in stations:
                self._on_crash(station, turn, lane)
        scrambles = schedule.scrambles.pop(turn, None)
        if scrambles and self._on_corrupt is not None:
            for event in scrambles:
                self._on_corrupt(event, turn, lane)
        hangs = schedule.hangs.pop(turn, None)
        if hangs:
            # One pause per turn: the turn's last hang sets it.
            seconds = hangs[-1].seconds
            if seconds is None:
                self._paused_until = float("inf")
            else:
                deadline = asyncio.get_running_loop().time() + seconds
                self._paused_until = deadline
                self._call_at(deadline, self._release_pause, deadline)

    def _release_pause(self, deadline: float) -> None:
        """End the pause that ends at ``deadline``, unless a later hang
        has set another since (an earlier finite hang must not cut a
        later one short)."""
        if self._paused_until != deadline:
            return
        self._paused_until = None
        held, self._held = self._held, []
        for channel, data in held:
            self._forward(channel, data, 0.0)

    def _is_paused(self) -> bool:
        if self._paused_until is None:
            return False
        if self._paused_until == float("inf"):
            return True
        return asyncio.get_running_loop().time() < self._paused_until

    def _maybe_release_held(self, turn: int) -> None:
        """Flush stalled datagrams whose window has closed."""
        if not self._held or self._is_paused() or self._schedule.stalled(turn):
            return
        held, self._held = self._held, []
        for channel, data in held:
            self._forward(channel, data, 0.0)

    def _fire_duplicate_bursts(self, turn: int) -> None:
        bursts = self._schedule.bursts.pop(turn, None)
        if not bursts or self._last_forwarded is None:
            return
        channel, data = self._last_forwarded
        for burst in bursts:
            for k in range(burst.copies):
                self.stats.duplicated += 1
                self._forward(
                    channel, data,
                    (k + 1) * burst.spacing * self.profile.duplicate_gap,
                )

    def _draw_delay(self) -> float:
        delay = self.profile.delay
        if self.profile.jitter:
            delay += self.profile.jitter * self._rng.random_float()
        return delay

    def _forward(self, channel: ChannelId, data, delay: float) -> None:
        if delay > 0.0:
            if type(data) is not bytes:
                # The view dies with the drain chunk; a delayed forward
                # needs its own copy.
                data = bytes(data)
            self._call_later(delay, self._send_now, channel, data)
        else:
            self._send_now(channel, data)

    def _send_now(self, channel: ChannelId, data) -> None:
        if self._closed:
            return
        if channel is ChannelId.T_TO_R:
            dest, io = self._rm_addr, self._r_io
        else:
            dest, io = self._tm_addr, self._t_io
        if dest is None:
            return
        self.stats.forwarded += 1
        if self._schedule.bursts:
            # The duplicate-burst replay buffer is only consulted while
            # scripted bursts remain; gating the (copying) bookkeeping on
            # that keeps the no-burst hot path zero-copy.
            self._last_forwarded = (
                channel, data if type(data) is bytes else bytes(data)
            )
        io.send(data, dest)

    def describe(self) -> str:
        profile = "clean" if self.profile.is_clean else (
            f"drop={self.profile.drop:g} dup={self.profile.duplicate:g} "
            f"reorder={self.profile.reorder:g}"
        )
        return f"chaos-proxy({len(self.plan.events)} scripted events, {profile})"
