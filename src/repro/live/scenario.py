"""Scripted live scenarios: stations + chaos proxy + crash orchestration.

:func:`run_live_scenario` is the live analogue of one supervised campaign
run.  It wires a real deployment on the loopback interface —

    TM endpoint  ⇄  chaos proxy  ⇄  RM endpoint

— runs a message workload through it under scripted and stochastic wire
faults, crash-kills stations on cue, and reduces the whole thing to a
:class:`LiveRunReport` whose Section 2.6 verdicts come from the same
streaming checkers the simulator uses.

Three guarantees make the harness CI-safe:

* **hard wall-clock budget** — the entire scenario runs under a deadline;
  whatever happens on the wire, the coroutine returns;
* **bounded give-up** — a supervisor task watches for progress (deliveries,
  nonce updates, OKs); if none lands within ``give_up_idle`` seconds, or
  the RM's backoff has decayed through ``give_up_polls`` fruitless polls,
  the run is torn down with status :data:`LiveStatus.UNRECONCILABLE` — the
  paper's ε-probability bad case surfaced as graceful degradation instead
  of a hang;
* **deterministic teardown** — tasks and timers are cancelled and sockets
  closed in ``finally``, so a failing scenario cannot leak file
  descriptors, tasks or timers into the next test.

Every run is laned (:mod:`repro.live.lanes`); ``lanes=1`` is a group of
one.  Crash orchestration reuses the campaign fault-plan schema: a
``{"kind": "crash", "step": N, "station": "T"}`` event kills the named
station's lane that carried the N-th datagram the proxy observes —
necessarily mid-handshake when traffic is flowing — and cold-restarts it
with empty volatile state after ``restart_delay`` seconds.
"""

from __future__ import annotations

import asyncio
import time
from dataclasses import dataclass, field, replace
from enum import Enum
from typing import List, Optional

from repro.checkers.live import LiveEventLog
from repro.checkers.report import SafetyReport, merge_safety_reports
from repro.checkers.stabilization import StabilizationReport
from repro.checkers.streaming import StreamingChecks
from repro.core.protocol import make_data_link
from repro.core.random_source import RandomSource, split_seed
from repro.live.backoff import AdaptiveBackoff, BackoffPolicy
from repro.live.lanes import (
    LaneMetrics,
    LanedReceiverEndpoint,
    LanedTransmitterEndpoint,
)
from repro.live.proxy import ChaosProxy, LinkProfile, ProxyStats
from repro.live.wire import (
    BufferPool,
    WireStats,
    link_flush_group,
    merge_wire_stats,
)
from repro.resilience.faultplan import CorruptAt, FaultPlan
from repro.util.tables import render_table

__all__ = ["LiveStatus", "LiveScenario", "LiveRunReport", "run_live_scenario",
           "run_live_scenario_async", "resolve_loop_backend"]


class LiveStatus(str, Enum):
    """Terminal status of one live scenario."""

    DELIVERED = "delivered"  # every workload slot OK'd
    STABILIZED = "stabilized"  # delivered *and* reconverged after corruption
    UNRECONCILABLE = "unreconcilable"  # bounded give-up fired (no hang)
    ABORTED = "aborted"  # a scripted abort tore the harness down


@dataclass(frozen=True)
class LiveScenario:
    """Everything one live run needs (all wall-clock knobs in seconds)."""

    messages: int = 50
    seed: int = 0
    epsilon: float = 2.0 ** -16
    profile: LinkProfile = field(default_factory=LinkProfile)
    plan: FaultPlan = field(default_factory=FaultPlan)
    poll: BackoffPolicy = field(default_factory=BackoffPolicy)
    budget: float = 60.0  # hard wall-clock ceiling for the whole run
    give_up_idle: float = 5.0  # no-progress deadline
    give_up_polls: int = 0  # fruitless-poll bound (0 = idle deadline only)
    restart_delay: float = 0.02  # how long a crashed station stays down
    tail_size: int = 4096  # forensic event tail retained by the log
    lanes: int = 1  # protocol instances striped over the socket pair
    stabilization_window: int = 8  # clean progress events ending probation
    #: The datagram layer.  The batched wire (PROTOCOL.md §15) is the only
    #: one; the field stays so that callers naming it keep working.
    wire: str = "batched"
    label: str = ""

    def __post_init__(self) -> None:
        if self.messages < 1:
            raise ValueError("messages must be >= 1")
        if self.budget <= 0.0 or self.give_up_idle <= 0.0:
            raise ValueError("budget and give_up_idle must be positive")
        if self.give_up_polls < 0:
            raise ValueError("give_up_polls must be >= 0")
        if self.lanes < 1:
            raise ValueError("lanes must be >= 1")
        if self.stabilization_window < 1:
            raise ValueError("stabilization_window must be >= 1")
        if self.wire != "batched":
            raise ValueError(f"unknown wire mode {self.wire!r}")

    @property
    def wants_stabilization(self) -> bool:
        """True iff the plan injects in-place state corruption."""
        return any(
            isinstance(event, CorruptAt) and event.mode == "scramble"
            for event in self.plan.events
        )


@dataclass
class LiveRunReport:
    """One live run, reduced to verdicts plus wire/crash accounting."""

    scenario: LiveScenario
    status: LiveStatus
    reason: str
    safety: SafetyReport
    liveness_passed: bool
    deliveries: int
    oks: int
    resubmissions: int
    crashes_t: int
    crashes_r: int
    malformed_datagrams: int
    events_seen: int
    wall_seconds: float
    proxy: ProxyStats
    lanes: int = 1
    lane_metrics: List[LaneMetrics] = field(default_factory=list)
    resequencer_high_water: int = 0  # worst reorder-buffer depth observed
    resequencer_duplicates: int = 0  # crash-resubmission replays dropped
    in_order_delivered: int = 0  # resequenced global-stream length
    corruptions_t: int = 0  # in-place state scrambles applied to the TM
    corruptions_r: int = 0  # in-place state scrambles applied to the RM
    stabilization: Optional[StabilizationReport] = None
    loop_backend: str = "asyncio"  # event loop implementation used
    wire_stats: WireStats = field(default_factory=WireStats)  # batch counters
    pool_outstanding: int = 0  # pooled buffers still unreturned at teardown
    pool_allocated: int = 0  # pooled buffers ever created
    pool_high_water: int = 0  # worst simultaneous pooled-buffer demand
    delivered_stream: List[bytes] = field(repr=False, default_factory=list)
    forensic_tail: List[str] = field(repr=False, default_factory=list)

    @property
    def completed(self) -> bool:
        # STABILIZED is DELIVERED that additionally survived state
        # corruption — both mean the whole workload was OK'd.
        return self.status in (LiveStatus.DELIVERED, LiveStatus.STABILIZED)

    @property
    def ok(self) -> bool:
        """Delivered, safe, and live — the CI gate."""
        return self.completed and self.safety.passed and self.liveness_passed

    def render(self) -> str:
        summary = render_table(
            ["metric", "value"],
            [
                ["scenario", self.scenario.label or "-"],
                ["status", self.status.value],
                ["reason", self.reason],
                ["messages OK", f"{self.oks}/{self.scenario.messages}"],
                ["deliveries", self.deliveries],
                ["slot resubmissions", self.resubmissions],
                ["crashes (T/R)", f"{self.crashes_t}/{self.crashes_r}"],
                ["events checked", self.events_seen],
                ["wall seconds", f"{self.wall_seconds:.2f}"],
                ["event loop", self.loop_backend],
                [
                    "wire batches (recv/send)",
                    f"{self.wire_stats.recv_batches}/"
                    f"{self.wire_stats.send_batches}",
                ],
                [
                    "buffer pool",
                    f"{self.pool_allocated} allocated, "
                    f"{self.pool_outstanding} outstanding, "
                    f"high-water {self.pool_high_water}",
                ],
                ["lanes", self.lanes],
                ["in-order stream", self.in_order_delivered],
                ["reseq high-water", self.resequencer_high_water],
                ["reseq duplicates", self.resequencer_duplicates],
            ]
            + (
                [
                    [
                        "corruptions (T/R)",
                        f"{self.corruptions_t}/{self.corruptions_r}",
                    ],
                    [
                        "stabilization",
                        (
                            "-"
                            if self.stabilization is None
                            else f"{self.stabilization.converged}/"
                            f"{self.stabilization.corruptions} converged "
                            f"(window={self.stabilization.window})"
                        ),
                    ],
                ]
                if self.corruptions_t or self.corruptions_r
                else []
            ),
            title="live scenario",
        )
        wire = render_table(
            ["observed", "forwarded", "dropped", "duplicated", "reordered",
             "stalled", "foreign"],
            [[self.proxy.observed, self.proxy.forwarded, self.proxy.dropped,
              self.proxy.duplicated, self.proxy.reordered, self.proxy.stalled,
              self.proxy.foreign]],
            title="wire (chaos proxy)",
        )
        checks = render_table(
            ["condition", "verdict", "trials"],
            [
                [c.condition, "OK" if c.passed else "VIOLATED", c.trials]
                for c in self.safety.all_reports
            ]
            + [["liveness", "OK" if self.liveness_passed else "VIOLATED", "-"]],
            title="Section 2.6 conditions (live trace)",
        )
        lanes = render_table(
            ["lane", "OKs", "resubs", "deliveries", "polls", "crashes T/R",
             "events"],
            [
                [m.lane, m.oks, m.resubmissions, m.deliveries, m.polls,
                 f"{m.crashes_t}/{m.crashes_r}", m.events]
                for m in self.lane_metrics
            ],
            title="per-lane metrics",
        )
        return "\n".join([summary, "", wire, "", checks, "", lanes])


async def run_live_scenario_async(scenario: LiveScenario) -> LiveRunReport:
    """Execute one scripted live scenario end to end (see module docstring)."""
    loop = asyncio.get_running_loop()
    root = RandomSource(scenario.seed)
    link_seed = split_seed(scenario.seed, "live-link")

    done = asyncio.Event()
    outcome = {"status": LiveStatus.UNRECONCILABLE, "reason": ""}
    progress = {"at": loop.time()}

    def finish(status: LiveStatus, reason: str) -> None:
        if not done.is_set():
            outcome["status"] = status
            outcome["reason"] = reason
            done.set()

    def note_progress() -> None:
        progress["at"] = loop.time()

    wants_stabilization = scenario.wants_stabilization

    def _make_log() -> LiveEventLog:
        # Corruption plans get the stabilization-aware suite so Section 2.6
        # accounting is suspended during probation windows; everything else
        # keeps the plain (cheaper) suite.
        checks = None
        if wants_stabilization:
            checks = StreamingChecks(
                timed=True,
                stabilization=True,
                stabilization_window=scenario.stabilization_window,
            )
        return LiveEventLog(checks=checks, tail_size=scenario.tail_size)

    # One buffer pool for the whole deployment: every socket draws send
    # buffers from it, so its counters are the run-wide leak check.
    pool = BufferPool()
    proxy = ChaosProxy(
        plan=scenario.plan,
        profile=scenario.profile,
        rng=root.fork("chaos"),
        on_crash=lambda station, turn, lane: _crash_station(station, lane),
        on_abort=lambda turn: finish(
            LiveStatus.ABORTED, f"scripted abort at wire turn {turn}"
        ),
        on_corrupt=lambda event, turn, lane: _corrupt_station(event, lane),
        pool=pool,
    )
    payloads = [b"live-%05d" % i for i in range(scenario.messages)]
    await proxy.start()

    # Per-lane link seeds match StripedLink(lanes, ε, seed=link_seed)
    # exactly — the differential property test leans on this identity.
    links = [
        make_data_link(
            epsilon=scenario.epsilon,
            seed=split_seed(link_seed, "lane", i),
        )
        for i in range(scenario.lanes)
    ]
    # One log per lane, *shared* by that lane's two stations, so each
    # lane's trace is a self-contained protocol execution for the
    # Section 2.6 monitors.
    logs = [_make_log() for __ in range(scenario.lanes)]
    tm = LanedTransmitterEndpoint(
        links,
        logs,
        proxy.t_facing_address,
        payloads,
        on_ok=note_progress,
        on_done=lambda: finish(LiveStatus.DELIVERED, "workload complete"),
        restart_delay=scenario.restart_delay,
        pool=pool,
    )
    rm = LanedReceiverEndpoint(
        links,
        logs,
        proxy.r_facing_address,
        [
            AdaptiveBackoff(scenario.poll, root.fork("poll-backoff", i))
            for i in range(scenario.lanes)
        ],
        on_progress=note_progress,
        restart_delay=scenario.restart_delay,
        pool=pool,
    )

    def _crash_station(station: str, lane: "Optional[int]") -> None:
        # The orchestrator's kill switch: invoked by the proxy when a
        # scripted crash's wire turn arrives.  Mid-handshake by
        # construction — a turn only advances when a datagram is in flight.
        # The trigger datagram's lane id rides along and only that lane
        # dies; its siblings keep their handshakes.
        (tm if station == "T" else rm).crash(lane)
        note_progress()  # a crash resets the pending-send clock (Axiom 1)

    def _corrupt_station(event: CorruptAt, lane: "Optional[int]") -> None:
        # In-place scramble: the station keeps running on whatever garbage
        # the seed-pinned tape produced — no dead window, no restart.  Only
        # the trigger datagram's lane is scrambled.
        (tm if event.station == "T" else rm).corrupt(
            event.seed, lane, event.fields
        )
        note_progress()  # the scramble restarts the convergence clock

    started = time.monotonic()
    supervisor: Optional[asyncio.Task] = None
    wire_ios: List = []
    try:
        await tm.start()
        await rm.start()
        proxy.connect(tm.local_address, rm.local_address)
        # All four sockets flush as one group: any drain chunk may enqueue
        # sends on any of them (station → proxy side → station), and every
        # borrowed view must leave before buffers are reused.
        wire_ios = tm.wire_ios + rm.wire_ios + proxy.wire_ios
        link_flush_group(wire_ios)

        async def _give_up_watch() -> None:
            # Deadline-based supervision: the poll backoff retransmits, this
            # task decides when retransmission has stopped being worth it.
            interval = min(0.05, scenario.give_up_idle / 4)
            while not done.is_set():
                await asyncio.sleep(interval)
                idle = loop.time() - progress["at"]
                if idle > scenario.give_up_idle:
                    finish(
                        LiveStatus.UNRECONCILABLE,
                        f"no progress for {idle:.2f}s "
                        f"(give_up_idle={scenario.give_up_idle:g}s)",
                    )
                elif (
                    scenario.give_up_polls
                    and rm.polls_without_progress >= scenario.give_up_polls
                ):
                    finish(
                        LiveStatus.UNRECONCILABLE,
                        f"{rm.polls_without_progress} polls without progress "
                        f"(give_up_polls={scenario.give_up_polls})",
                    )

        supervisor = loop.create_task(_give_up_watch())
        try:
            await asyncio.wait_for(done.wait(), timeout=scenario.budget)
        except asyncio.TimeoutError:
            finish(
                LiveStatus.UNRECONCILABLE,
                f"wall-clock budget of {scenario.budget:g}s exhausted",
            )
    finally:
        if supervisor is not None:
            supervisor.cancel()
        rm.close()
        tm.close()
        proxy.close()
        # Let transport close callbacks drain so nothing leaks into the
        # caller's loop (and pytest's unraisable checks stay quiet).
        await asyncio.sleep(0)

    status: LiveStatus = outcome["status"]  # type: ignore[assignment]
    completed = status is LiveStatus.DELIVERED
    stabilization: Optional[StabilizationReport] = None
    if wants_stabilization:
        # Close the probation books BEFORE the safety verdicts are read: a
        # completed run's open episodes converge (end-of-traffic cut the
        # clean streak short, not a violation) and their echoes are
        # scrubbed; a truncated run keeps them, so the violations stand.
        summaries = []
        for log in logs:
            monitor = log.checks.stabilization
            if monitor is not None:
                monitor.finalize(completed)
                summaries.append(monitor.summary())
        if summaries:
            stabilization = StabilizationReport(
                corruptions=sum(s.corruptions for s in summaries),
                converged=sum(s.converged for s in summaries),
                window=scenario.stabilization_window,
                records=tuple(r for s in summaries for r in s.records),
            )
        if completed and stabilization is not None and stabilization.stabilized:
            status = LiveStatus.STABILIZED
    safety = merge_safety_reports([log.safety_report() for log in logs])
    liveness_passed = all(
        log.liveness_report(run_completed=completed).passed for log in logs
    )
    # Stitch the RM-side half of each lane's counters onto the TM-side half
    # (both endpoints share the lane's log, so events agree).
    lane_metrics = [
        replace(
            t,
            deliveries=r.deliveries,
            polls=r.polls,
            crashes_r=r.crashes_r,
            corruptions_r=r.corruptions_r,
        )
        for t, r in zip(tm.lane_metrics(), rm.lane_metrics())
    ]
    forensic_tail: List[str] = []
    if not completed:
        for index, log in enumerate(logs):
            forensic_tail.append(f"-- lane {index} --")
            forensic_tail.extend(log.tail_lines())
    return LiveRunReport(
        scenario=scenario,
        status=status,
        reason=str(outcome["reason"]),
        safety=safety,
        liveness_passed=liveness_passed,
        deliveries=rm.deliveries,
        oks=tm.oks,
        resubmissions=tm.resubmissions,
        crashes_t=tm.crashes,
        crashes_r=rm.crashes,
        # Both kinds of rejected datagram: a body the codec refused, and a
        # lane byte outside [0, lanes).
        malformed_datagrams=(
            tm.malformed + rm.malformed + tm.foreign_lanes + rm.foreign_lanes
        ),
        events_seen=sum(log.events_seen for log in logs),
        wall_seconds=time.monotonic() - started,
        proxy=proxy.stats,
        lanes=scenario.lanes,
        lane_metrics=lane_metrics,
        resequencer_high_water=rm.resequencer.high_water,
        resequencer_duplicates=rm.resequencer.duplicates,
        in_order_delivered=len(rm.delivered),
        corruptions_t=tm.corruptions,
        corruptions_r=rm.corruptions,
        stabilization=stabilization,
        # Stats survive close(); teardown has already flushed or released
        # every in-flight buffer, so pool_outstanding must read 0 here —
        # the crash-amnesia leak test pins exactly that.
        wire_stats=merge_wire_stats(wire_ios),
        pool_outstanding=pool.outstanding,
        pool_allocated=pool.allocated,
        pool_high_water=pool.high_water,
        delivered_stream=list(rm.delivered),
        forensic_tail=forensic_tail,
    )


def resolve_loop_backend(name: str) -> "tuple[str, object]":
    """Map a requested loop backend to ``(resolved_name, loop_factory)``.

    ``"uvloop"`` and ``"auto"`` try to import uvloop and fall back to
    asyncio when it is not installed — the dependency is optional and the
    live stack must run identically without it.
    """
    if name in ("uvloop", "auto"):
        try:
            import uvloop  # type: ignore[import-not-found]

            return "uvloop", uvloop.new_event_loop
        except ImportError:
            if name == "uvloop":
                # Explicit request degrades gracefully: same semantics,
                # stock loop.  The report's loop_backend records the truth.
                pass
    return "asyncio", asyncio.new_event_loop


def run_live_scenario(
    scenario: LiveScenario, loop: str = "asyncio"
) -> LiveRunReport:
    """Synchronous wrapper: run the scenario on a fresh event loop.

    ``loop`` selects the event loop backend: ``"asyncio"`` (default),
    ``"uvloop"`` (falls back to asyncio when not installed), or ``"auto"``
    (uvloop if available).  The loop lifecycle is managed manually instead
    of via ``asyncio.run`` so the same code path drives both backends.
    """
    backend, factory = resolve_loop_backend(loop)
    ev = factory()
    try:
        asyncio.set_event_loop(ev)
        report = ev.run_until_complete(run_live_scenario_async(scenario))
        ev.run_until_complete(ev.shutdown_asyncgens())
    finally:
        asyncio.set_event_loop(None)
        ev.close()
    report.loop_backend = backend
    return report
