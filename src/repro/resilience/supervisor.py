"""Process-pool campaign supervisor: Monte-Carlo with fleet discipline.

:func:`run_campaign` executes the runs of a :class:`~repro.sim.RunSpec`
in parallel worker processes with the retry/timeout/isolation behaviour a
production harness needs:

* **per-run wall-clock timeout** — a watchdog inside the worker (SIGALRM
  on the main thread, an async-exception watchdog thread elsewhere)
  interrupts hung runs (e.g. an adversary that stops returning) and
  reports terminal status ``timeout`` instead of wedging the campaign;
* **bounded retries** — runs that time out or crash are retried with
  jittered exponential backoff and a *fresh derived seed* per attempt;
  when the budget is spent the terminal status is ``exhausted_retries``;
* **worker-crash isolation** — a worker process that dies mid-run (hard
  abort, OOM kill, segfault) breaks the pool; the supervisor identifies
  the culprit from per-run running-markers, rebuilds the pool, and
  re-runs the innocent bystanders with their seeds unchanged, so one
  poisonous run cannot take the campaign down;
* **graceful degradation** — aggregation happens over the runs that
  produced data, with the missing runs reported explicitly per status
  instead of silently dropped.

Dispatch is **sharded**: runs are grouped into shards, auto-sized from
``jobs`` and the run count (:meth:`CampaignConfig.resolve_chunk_size`),
so one pool task executes many seeds in a single worker round-trip.  Inside a shard the
worker recycles one :class:`~repro.sim.runner.RunSession` — simulator,
channels, trace and streaming checkers are reset per run instead of
rebuilt — and streams back compact tuple-encoded summaries
(:func:`encode_report`) rather than pickled ``RunReport`` objects; full
forensics (trace JSONL) ride along only for non-ok runs.  Retries,
timeouts and blame still operate per run: a retried run is resubmitted as
its own single-run shard, and worker-death quarantine rounds run one run
per pool exactly as before.

Determinism: every per-run seed is ``derive_run_seed(base_seed, index,
attempt)`` — shared with serial :func:`~repro.sim.runner.monte_carlo` —
and retry/blame decisions depend only on per-run results, so a campaign's
reports are identical for any ``jobs``, including fully serial
in-process execution (wall-clock ``duration`` aside).

Workers inherit the (possibly unpicklable) spec by forking, so arbitrary
``RunSpec`` factories — lambdas included — work unchanged.  On platforms
without ``fork`` the supervisor falls back to in-process execution with
the same retry/timeout semantics (hard aborts degrade to soft).
"""

from __future__ import annotations

import ctypes
import dataclasses
import io
import multiprocessing
import os
import random
import signal
import tempfile
import threading
import time
import traceback
from collections import OrderedDict
from concurrent.futures import FIRST_COMPLETED, ProcessPoolExecutor, wait
from concurrent.futures import BrokenExecutor
from contextlib import contextmanager
from dataclasses import dataclass, field
from enum import Enum
from typing import Dict, List, Optional, Set, Tuple

from repro.checkers.stabilization import StabilizationReport
from repro.resilience.faultplan import FaultPlan, apply_fault_plan, enable_hard_aborts
from repro.sim.metrics import SimulationMetrics
from repro.sim.runner import RunSession, RunSpec, derive_run_seed, run_once

from repro.util.stats import BernoulliEstimate, percentile, wilson_interval
from repro.util.tables import render_table

__all__ = [
    "RunStatus",
    "RunReport",
    "CampaignConfig",
    "CampaignResult",
    "run_campaign",
    "derive_run_seed",
    "encode_report",
    "decode_report",
]


class RunStatus(str, Enum):
    """Terminal status of one campaign run."""

    OK = "ok"
    SAFETY_FAILED = "safety_failed"
    TIMEOUT = "timeout"
    CRASHED = "crashed"
    EXHAUSTED_RETRIES = "exhausted_retries"


#: Statuses that were produced by the run itself and may be retried.
_RETRYABLE = (RunStatus.TIMEOUT, RunStatus.CRASHED)

#: Seconds slept before a retry; doubles per attempt up to the cap, jittered.
BACKOFF_BASE = 0.05
BACKOFF_CAP = 2.0

#: Whether campaign runs capture traces, which non-ok runs archive.
CAPTURE_TRACES = True


@dataclass(frozen=True)
class RunReport:
    """Everything the supervisor kept about one run's terminal attempt."""

    index: int
    seed: int
    status: RunStatus
    attempts: int = 1
    completed: bool = False
    steps: int = 0
    duration: float = 0.0
    liveness_passed: bool = False
    worker_deaths: int = 0
    metrics: Optional[SimulationMetrics] = field(repr=False, default=None)
    #: condition -> (failures, trials); None when the run produced no trace.
    safety_summary: Optional[Dict[str, Tuple[int, int]]] = None
    violations: Tuple[str, ...] = ()
    trace_jsonl: Optional[str] = field(repr=False, default=None)
    error: Optional[str] = None
    #: Events the trace's retention mode discarded (0 for retain="full";
    #: a captured tail trace is partial when this is non-zero).
    trace_dropped_events: int = 0
    #: Convergence verdicts when the run's spec enabled stabilization
    #: monitoring; None otherwise (plain campaigns pay nothing for this).
    stabilization: Optional[StabilizationReport] = field(repr=False, default=None)

    @property
    def has_data(self) -> bool:
        """True iff the run produced a checkable trace (ok / safety_failed)."""
        return self.safety_summary is not None

    def fingerprint(self) -> tuple:
        """The deterministic identity of this report (no wall-clock fields)."""
        summary = (
            tuple(sorted(self.safety_summary.items()))
            if self.safety_summary is not None
            else None
        )
        return (
            self.index,
            self.seed,
            self.status.value,
            self.attempts,
            self.completed,
            self.steps,
            summary,
        )


# -- compact wire format ----------------------------------------------------------

#: Status <-> small-int codes for the wire tuples (order = enum order).
_STATUS_BY_CODE: Tuple[RunStatus, ...] = tuple(RunStatus)
_CODE_BY_STATUS: Dict[RunStatus, int] = {
    status: code for code, status in enumerate(_STATUS_BY_CODE)
}


def encode_report(report: RunReport) -> tuple:
    """Flatten a worker-side :class:`RunReport` into a slotted tuple.

    This is what shard workers ship back instead of pickled dataclasses:
    status as a small int, metrics as :meth:`SimulationMetrics.to_wire`,
    the safety summary as ``(condition, (failures, trials))`` pairs.  The
    heavyweight forensics field (``trace_jsonl``) is only ever non-None
    for failed runs, so ok runs — the overwhelming majority — cost a few
    dozen scalars each.  ``attempts``/``worker_deaths`` are excluded: the
    parent stamps those during classification (:func:`_finalize`), the
    worker has nothing to say about them.  Positions are the wire
    contract; :func:`decode_report` and the round-trip test change in
    lockstep.
    """
    metrics = report.metrics
    summary = report.safety_summary
    return (
        report.index,
        report.seed,
        _CODE_BY_STATUS[report.status],
        report.completed,
        report.steps,
        report.duration,
        report.liveness_passed,
        None if metrics is None else metrics.to_wire(),
        None if summary is None else tuple(summary.items()),
        report.violations,
        report.trace_jsonl,
        report.error,
        report.trace_dropped_events,
        None if report.stabilization is None else report.stabilization.to_wire(),
    )


def decode_report(wire: tuple) -> RunReport:
    """Rebuild the :class:`RunReport` a shard worker encoded."""
    metrics_wire = wire[7]
    summary_wire = wire[8]
    stabilization_wire = wire[13]
    return RunReport(
        index=wire[0],
        seed=wire[1],
        status=_STATUS_BY_CODE[wire[2]],
        completed=wire[3],
        steps=wire[4],
        duration=wire[5],
        liveness_passed=wire[6],
        metrics=(
            None if metrics_wire is None else SimulationMetrics.from_wire(metrics_wire)
        ),
        safety_summary=None if summary_wire is None else dict(summary_wire),
        violations=wire[9],
        trace_jsonl=wire[10],
        error=wire[11],
        trace_dropped_events=wire[12],
        stabilization=(
            None
            if stabilization_wire is None
            else StabilizationReport.from_wire(stabilization_wire)
        ),
    )


@dataclass(frozen=True)
class CampaignConfig:
    """Supervisor knobs (all orthogonal to the spec under test)."""

    jobs: int = 1
    timeout: Optional[float] = None  # per-run wall-clock seconds
    retries: int = 0  # extra attempts after the first
    artifacts_dir: Optional[str] = None
    in_process: bool = False  # debugging: skip the pool entirely

    def __post_init__(self) -> None:
        if self.jobs < 1:
            raise ValueError("jobs must be >= 1")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.timeout is not None and self.timeout <= 0:
            raise ValueError("timeout must be positive (or None)")

    def resolve_chunk_size(self, runs: int) -> int:
        """The shard size used for a campaign of ``runs`` runs.

        It targets ~4 shards per worker: big enough to amortize the pool
        round-trip and per-shard session warm-up, small enough that a
        straggler or a mid-shard worker death forfeits little work.  Capped
        at 32 so huge campaigns still rebalance across workers.
        """
        return max(1, min(32, -(-runs // (self.jobs * 4))))


class _AttemptTimeout(Exception):
    """Raised by the in-worker watchdog when a run blows its wall budget."""


def _can_use_sigalrm() -> bool:
    """SIGALRM works only on the main thread of the main interpreter."""
    return (
        hasattr(signal, "SIGALRM")
        and threading.current_thread() is threading.main_thread()
    )


@contextmanager
def _deadline(seconds: Optional[float]):
    """Wall-clock guard: interrupt the protected block after ``seconds``.

    Two implementations behind one interface:

    * **SIGALRM** (preferred) — a real interval timer that can break out of
      almost anything, including blocking C calls.  Only legal on the main
      thread of the main interpreter; ``signal.signal`` raises
      ``ValueError`` anywhere else.
    * **watchdog thread** (fallback) — a daemon timer that injects
      :class:`_AttemptTimeout` into the protected thread via
      ``PyThreadState_SetAsyncExc``.  Async exceptions land only at
      bytecode boundaries, so a block wedged inside a single C call is not
      interrupted until it returns — fine for the hot loops this guards
      (simulator steps), weaker than SIGALRM for arbitrary code.

    The fallback makes the timeout machinery usable from worker threads —
    e.g. ``run_campaign(in_process=True)`` called off the main thread, or
    embedders running campaigns from a thread pool — instead of silently
    running unguarded as the SIGALRM-only version did.
    """
    if seconds is None:
        yield
        return

    if _can_use_sigalrm():
        def _on_alarm(signum, frame):
            raise _AttemptTimeout()

        previous = signal.signal(signal.SIGALRM, _on_alarm)
        signal.setitimer(signal.ITIMER_REAL, seconds)
        try:
            yield
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0.0)
            signal.signal(signal.SIGALRM, previous)
        return

    # Watchdog-thread fallback.  ``armed`` (under the lock) closes the race
    # where the timer fires concurrently with a normal exit: once disarmed,
    # a late-firing timer does nothing, and any exception already injected
    # but not yet raised is cleared before control leaves the guard.
    target_id = threading.get_ident()
    lock = threading.Lock()
    state = {"armed": True}

    def _fire() -> None:
        with lock:
            if not state["armed"]:
                return
            ctypes.pythonapi.PyThreadState_SetAsyncExc(
                ctypes.c_ulong(target_id), ctypes.py_object(_AttemptTimeout)
            )

    timer = threading.Timer(seconds, _fire)
    timer.daemon = True
    timer.start()
    try:
        yield
    finally:
        timer.cancel()
        with lock:
            state["armed"] = False
        # Clear a pending (injected but not yet raised) async exception so
        # it cannot detonate in the caller's code after the guard exits.
        ctypes.pythonapi.PyThreadState_SetAsyncExc(ctypes.c_ulong(target_id), None)


def execute_attempt(
    spec: RunSpec,
    fault_plan: Optional[FaultPlan],
    index: int,
    seed: int,
    timeout: Optional[float],
    capture_trace: bool,
    session: Optional[RunSession] = None,
) -> RunReport:
    """One supervised attempt of one run, classified into a :class:`RunReport`.

    Runs in the current process — the workers call this, and the shrink
    minimizer reuses it in-process for its probes.  ``session`` (built over
    the *same* ``spec``) recycles the simulator across calls; fault plans
    still apply, injected as a per-run adversary-factory override, and a
    run that dies mid-flight invalidates the session so the next attempt
    rebuilds clean.
    """
    # Specs that supervise themselves (the relay fabric's FabricSpec) take
    # the whole run: they interpret the fault plan's topology events
    # directly, so the single-link adversary-override path is bypassed.
    run_direct = getattr(spec, "run_supervised", None)
    effective = (
        spec
        if fault_plan is None or run_direct is not None
        else apply_fault_plan(spec, fault_plan, index)
    )
    started = time.monotonic()
    try:
        with _deadline(timeout):
            if run_direct is not None:
                outcome = run_direct(fault_plan, index, seed)
            elif session is None:
                outcome = run_once(effective, seed)
            else:
                # apply_fault_plan returns `spec` itself (same object) when
                # this run's projected plan is empty, so identity tells us
                # whether an override is in play.
                override = None if effective is spec else effective.adversary_factory
                outcome = session.run(seed, adversary_factory=override)
    except _AttemptTimeout:
        return RunReport(
            index=index,
            seed=seed,
            status=RunStatus.TIMEOUT,
            duration=time.monotonic() - started,
            error=f"run exceeded the {timeout}s wall-clock budget",
        )
    except Exception:
        return RunReport(
            index=index,
            seed=seed,
            status=RunStatus.CRASHED,
            duration=time.monotonic() - started,
            error=traceback.format_exc(limit=16),
        )
    duration = time.monotonic() - started
    reports = outcome.safety.all_reports
    passed = all(not report.violations for report in reports)
    status = RunStatus.OK if passed else RunStatus.SAFETY_FAILED
    summary = {
        report.condition: (report.failure_count, report.trials)
        for report in reports
    }
    violations: Tuple[str, ...] = ()
    if not passed:
        violations = tuple(
            f"{v.condition}@{v.event_index}: {v.detail}"
            for report in reports
            for v in report.violations[:8]
        )
    trace = outcome.result.trace
    trace_jsonl = None
    if capture_trace and status is not RunStatus.OK and trace.retention != "none":
        from repro.checkers.serialize import dump_trace

        buffer = io.StringIO()
        dump_trace(trace, buffer)
        trace_jsonl = buffer.getvalue()
    return RunReport(
        index=index,
        seed=seed,
        status=status,
        completed=outcome.result.completed,
        steps=outcome.result.steps,
        duration=duration,
        liveness_passed=outcome.liveness_passed,
        metrics=outcome.metrics,
        safety_summary=summary,
        violations=violations,
        trace_jsonl=trace_jsonl,
        trace_dropped_events=trace.dropped_events,
        stabilization=outcome.stabilization,
    )


# -- worker side ------------------------------------------------------------------

# Populated in the parent before the pool forks; workers inherit it.  This
# is what lets arbitrary (unpicklable) RunSpec factories cross into workers.
_FORK_STATE: Dict[str, object] = {}


def _worker_init() -> None:
    enable_hard_aborts(True)
    # Workers must not inherit the parent's disposition to e.g. ignore
    # SIGALRM from an interrupted previous deadline.
    if hasattr(signal, "SIGALRM"):
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


def _campaign_shard_worker(
    items: List[Tuple[int, int]],
    timeout: Optional[float],
    capture_trace: bool,
    marker_dir: str,
) -> List[tuple]:
    """Execute one shard of ``(index, seed)`` runs in this worker process.

    One :class:`RunSession` serves the whole shard, so per-run cost is a
    reset instead of a full harness rebuild.  Results ship back as
    :func:`encode_report` tuples.  The running-marker protocol is per
    *run*, not per shard: exactly the run executing when a worker dies
    leaves a marker behind, so the parent's blame logic keeps per-run
    resolution.  Results completed before a mid-shard death are lost with
    the worker — those runs simply re-run under unchanged seeds, which is
    harmless because reports are deterministic functions of (index, seed).
    """
    spec: RunSpec = _FORK_STATE["spec"]  # type: ignore[assignment]
    plan: Optional[FaultPlan] = _FORK_STATE.get("fault_plan")  # type: ignore
    session = RunSession(spec)
    wires: List[tuple] = []
    for index, seed in items:
        # The blame protocol reads only the filename; an empty file via raw
        # os.open is a third the cost of a buffered text write, which counts
        # when every short run in the shard pays for one.
        marker = os.path.join(marker_dir, f"running-{index}")
        os.close(os.open(marker, os.O_CREAT | os.O_WRONLY, 0o644))
        try:
            report = execute_attempt(
                spec, plan, index, seed, timeout, capture_trace, session=session
            )
        finally:
            try:
                os.remove(marker)
            except OSError:
                pass
        wires.append(encode_report(report))
    return wires


# -- aggregation ------------------------------------------------------------------


@dataclass
class CampaignResult:
    """All terminal reports of one campaign plus degradation-aware aggregates.

    Aggregates pool only the runs that produced data (``ok`` /
    ``safety_failed``); :attr:`missing_data` and :attr:`status_counts` make
    the excluded mass explicit instead of silently dropping it.
    """

    spec: RunSpec
    runs: int
    base_seed: int
    config: CampaignConfig
    reports: List[RunReport] = field(repr=False, default_factory=list)
    fault_plan: Optional[FaultPlan] = None
    artifacts_path: Optional[str] = None
    #: True wall-clock duration of the whole campaign (dispatch included);
    #: 0.0 on results built by hand.  Deliberately outside fingerprint().
    wall_seconds: float = 0.0

    @property
    def label(self) -> str:
        return self.spec.label

    @property
    def status_counts(self) -> "OrderedDict[str, int]":
        """Count per terminal status — every status listed, zeros included."""
        counts = OrderedDict((status.value, 0) for status in RunStatus)
        for report in self.reports:
            counts[report.status.value] += 1
        return counts

    @property
    def data_reports(self) -> List[RunReport]:
        """The runs whose traces were produced and checked."""
        return [r for r in self.reports if r.has_data]

    @property
    def missing_data(self) -> int:
        """Runs with no checkable trace (timeout / crashed / exhausted)."""
        return len(self.reports) - len(self.data_reports)

    def _pool(self, condition: str) -> BernoulliEstimate:
        failures = 0
        trials = 0
        for report in self.data_reports:
            f, t = report.safety_summary.get(condition, (0, 0))
            failures += f
            trials += t
        return wilson_interval(failures, trials)

    @property
    def order_violation_rate(self) -> BernoulliEstimate:
        return self._pool("order")

    @property
    def duplication_violation_rate(self) -> BernoulliEstimate:
        return self._pool("no-duplication")

    @property
    def replay_violation_rate(self) -> BernoulliEstimate:
        return self._pool("no-replay")

    @property
    def causality_violations(self) -> int:
        return sum(
            report.safety_summary.get("causality", (0, 0))[0]
            for report in self.data_reports
        )

    @property
    def completion_rate(self) -> float:
        """Fraction of *data-producing* runs that finished their workload."""
        data = self.data_reports
        if not data:
            return 0.0
        return sum(1 for r in data if r.completed) / len(data)

    @property
    def any_safety_violation(self) -> bool:
        return any(r.status is RunStatus.SAFETY_FAILED for r in self.reports)

    @property
    def mean_packets_per_message(self) -> float:
        values = [
            r.metrics.per_message_packets
            for r in self.data_reports
            if r.metrics is not None and r.metrics.messages_ok > 0
        ]
        return sum(values) / len(values) if values else float("inf")

    def _timed_metrics(self) -> List[SimulationMetrics]:
        return [
            r.metrics
            for r in self.data_reports
            if r.metrics is not None and r.metrics.wall_seconds > 0.0
        ]

    @property
    def steps_per_second(self) -> float:
        """Pooled *aggregate-CPU* simulation rate (total steps / summed run wall).

        Per-run wall times are summed across runs, so under parallel
        workers this is the single-worker rate — it deliberately does NOT
        grow with ``jobs``.  For campaign throughput as experienced by the
        caller, use :attr:`wall_steps_per_second`.
        """
        timed = self._timed_metrics()
        wall = sum(m.wall_seconds for m in timed)
        if wall <= 0.0:
            return 0.0
        return sum(m.steps for m in timed) / wall

    @property
    def events_per_second(self) -> float:
        """Pooled aggregate-CPU recording rate (total events / summed run wall)."""
        timed = self._timed_metrics()
        wall = sum(m.wall_seconds for m in timed)
        if wall <= 0.0:
            return 0.0
        return sum(m.events_recorded for m in timed) / wall

    @property
    def wall_steps_per_second(self) -> float:
        """True campaign throughput: data-run steps over campaign wall time.

        Divides by the supervisor's single wall-clock measurement, so this
        *does* scale with workers and shrinks with dispatch overhead.  0.0
        on results that were built without a measured campaign duration.
        """
        if self.wall_seconds <= 0.0:
            return 0.0
        return sum(m.steps for m in self._timed_metrics()) / self.wall_seconds

    @property
    def wall_events_per_second(self) -> float:
        """True campaign recording throughput over campaign wall time."""
        if self.wall_seconds <= 0.0:
            return 0.0
        return (
            sum(m.events_recorded for m in self._timed_metrics()) / self.wall_seconds
        )

    @property
    def checker_overhead_ratio(self) -> float:
        """Pooled share of run wall time spent in the online checkers."""
        timed = self._timed_metrics()
        wall = sum(m.wall_seconds for m in timed)
        if wall <= 0.0:
            return 0.0
        return sum(m.checker_seconds for m in timed) / wall

    # -- relay drop accounting (zero on single-link campaigns) ---------------------

    @property
    def dropped_overflow(self) -> int:
        """Pooled frames lost to full relay FIFOs across all data runs."""
        return sum(
            r.metrics.dropped_overflow
            for r in self.data_reports
            if r.metrics is not None
        )

    @property
    def dropped_down(self) -> int:
        """Pooled frames lost to link-down wires across all data runs."""
        return sum(
            r.metrics.dropped_down
            for r in self.data_reports
            if r.metrics is not None
        )

    # -- stabilization aggregates (empty/zero when no run was corrupted) -----------

    @property
    def stabilization_reports(self) -> List[StabilizationReport]:
        """Per-run stabilization verdicts of the data runs that carried one."""
        return [
            r.stabilization
            for r in self.data_reports
            if r.stabilization is not None
        ]

    @property
    def corruptions_injected(self) -> int:
        """Total state corruptions observed across all data runs."""
        return sum(s.corruptions for s in self.stabilization_reports)

    @property
    def corrupted_runs(self) -> int:
        """Data runs that suffered at least one state corruption."""
        return sum(1 for s in self.stabilization_reports if s.corruptions > 0)

    @property
    def stabilized_runs(self) -> int:
        """Corrupted data runs whose every corruption reconverged."""
        return sum(1 for s in self.stabilization_reports if s.stabilized)

    @property
    def stabilized_rate(self) -> float:
        """Fraction of corrupted runs that fully reconverged (1.0 when none)."""
        corrupted = self.corrupted_runs
        if corrupted == 0:
            return 1.0
        return self.stabilized_runs / corrupted

    def _convergence_values(self, attribute: str) -> List[float]:
        return [
            float(getattr(record, attribute))
            for s in self.stabilization_reports
            for record in s.records
        ]

    @property
    def convergence_events_p50(self) -> float:
        """Median events-to-convergence over every converged corruption."""
        return percentile(self._convergence_values("events"), 0.50)

    @property
    def convergence_events_p99(self) -> float:
        """Tail (p99) events-to-convergence over every converged corruption."""
        return percentile(self._convergence_values("events"), 0.99)

    @property
    def convergence_datagrams_p50(self) -> float:
        """Median datagrams-to-convergence over every converged corruption."""
        return percentile(self._convergence_values("datagrams"), 0.50)

    @property
    def convergence_datagrams_p99(self) -> float:
        """Tail (p99) datagrams-to-convergence over every converged corruption."""
        return percentile(self._convergence_values("datagrams"), 0.99)

    def fingerprint(self) -> tuple:
        """Deterministic identity of the whole campaign (for replay checks)."""
        return tuple(report.fingerprint() for report in self.reports)

    def render(self) -> str:
        """The campaign's summary tables (status counts are always explicit)."""
        counts = self.status_counts
        summary = render_table(
            ["label", "runs", "jobs"] + list(counts) + ["missing data", "completion"],
            [
                [self.label or "-", self.runs, self.config.jobs]
                + list(counts.values())
                + [self.missing_data, self.completion_rate]
            ],
            title="campaign",
        )
        rates = render_table(
            ["condition", "rate", "95% interval", "trials"],
            [
                [name, est.point, f"[{est.low:.3g}, {est.high:.3g}]", est.trials]
                for name, est in (
                    ("order", self.order_violation_rate),
                    ("no-duplication", self.duplication_violation_rate),
                    ("no-replay", self.replay_violation_rate),
                )
            ]
            + [["causality (count)", self.causality_violations, "-", "-"]],
            title="pooled violation rates (completed runs only)",
        )
        blocks = [summary, "", rates]
        if self.corruptions_injected > 0:
            converged = sum(s.converged for s in self.stabilization_reports)
            stabilization = render_table(
                [
                    "corruptions",
                    "converged",
                    "corrupted runs",
                    "stabilized",
                    "events p50",
                    "events p99",
                    "datagrams p50",
                    "datagrams p99",
                ],
                [
                    [
                        self.corruptions_injected,
                        converged,
                        self.corrupted_runs,
                        f"{self.stabilized_rate:.1%}",
                        f"{self.convergence_events_p50:.0f}",
                        f"{self.convergence_events_p99:.0f}",
                        f"{self.convergence_datagrams_p50:.0f}",
                        f"{self.convergence_datagrams_p99:.0f}",
                    ]
                ],
                title="stabilization (convergence over corrupted data runs)",
            )
            blocks += ["", stabilization]
        if self.dropped_overflow or self.dropped_down:
            drops = render_table(
                ["dropped (overflow)", "dropped (link down)"],
                [[self.dropped_overflow, self.dropped_down]],
                title="relay drop accounting (pooled over data runs)",
            )
            blocks += ["", drops]
        if self._timed_metrics():
            wall_steps = (
                f"{self.wall_steps_per_second:,.0f}"
                if self.wall_seconds > 0.0
                else "-"
            )
            wall_events = (
                f"{self.wall_events_per_second:,.0f}"
                if self.wall_seconds > 0.0
                else "-"
            )
            throughput = render_table(
                [
                    "steps/sec (cpu)",
                    "steps/sec (wall)",
                    "events/sec (cpu)",
                    "events/sec (wall)",
                    "checker overhead",
                    "retention",
                ],
                [
                    [
                        f"{self.steps_per_second:,.0f}",
                        wall_steps,
                        f"{self.events_per_second:,.0f}",
                        wall_events,
                        f"{self.checker_overhead_ratio:.1%}",
                        self.spec.retain,
                    ]
                ],
                title="throughput (data runs; cpu = per-worker, wall = campaign)",
            )
            blocks += ["", throughput]
        problem_rows = [
            [
                r.index,
                r.seed,
                r.status.value,
                r.attempts,
                r.worker_deaths,
                (r.error or "; ".join(r.violations[:1]) or "-").splitlines()[0][:60],
            ]
            for r in self.reports
            if r.status is not RunStatus.OK
        ]
        if problem_rows:
            blocks += [
                "",
                render_table(
                    ["run", "seed", "status", "attempts", "deaths", "detail"],
                    problem_rows,
                    title="non-ok runs",
                ),
            ]
        if self.artifacts_path:
            blocks += ["", f"forensics artifacts: {self.artifacts_path}"]
        return "\n".join(blocks)


# -- the supervisor ---------------------------------------------------------------


@dataclass
class _RunState:
    attempt: int = 0
    deaths: int = 0


def _backoff_delay(attempt: int) -> float:
    base = min(BACKOFF_CAP, BACKOFF_BASE * (2 ** max(0, attempt - 1)))
    return base * (0.5 + random.random())  # jitter in [0.5x, 1.5x)


def _finalize(report: RunReport, state: _RunState, config: CampaignConfig) -> RunReport:
    """Stamp attempts/deaths and convert spent retry budgets."""
    status = report.status
    error = report.error
    if status in _RETRYABLE and config.retries > 0:
        status = RunStatus.EXHAUSTED_RETRIES
        error = (
            f"retries exhausted after {state.attempt + 1} attempts "
            f"(last failure: {report.status.value}): {report.error}"
        )
    attempts = state.attempt + 1
    if (
        status is report.status
        and attempts == report.attempts
        and state.deaths == report.worker_deaths
    ):
        # Clean first attempt — the defaults already say so.  Skipping the
        # field-introspecting dataclasses.replace here matters: the parent
        # finalizes every report of every campaign through this function.
        return report
    return dataclasses.replace(
        report,
        status=status,
        error=error,
        attempts=attempts,
        worker_deaths=state.deaths,
    )


def _death_report(
    index: int, base_seed: int, state: _RunState, config: CampaignConfig
) -> RunReport:
    raw = RunReport(
        index=index,
        seed=derive_run_seed(base_seed, index, state.attempt),
        status=RunStatus.CRASHED,
        error=(
            f"worker process died while executing this run "
            f"({state.deaths} death(s) observed)"
        ),
    )
    return _finalize(raw, state, config)


def run_campaign(
    spec: RunSpec,
    runs: int,
    base_seed: int = 0,
    config: Optional[CampaignConfig] = None,
    fault_plan: Optional[FaultPlan] = None,
) -> CampaignResult:
    """Run a supervised, fault-tolerant campaign of ``runs`` independent runs."""
    if runs < 1:
        raise ValueError("runs must be >= 1")
    config = config or CampaignConfig()
    states = {index: _RunState() for index in range(runs)}
    final: Dict[int, RunReport] = {}

    use_pool = (
        not config.in_process
        and "fork" in multiprocessing.get_all_start_methods()
    )
    started = time.monotonic()
    if use_pool:
        _run_with_pool(spec, runs, base_seed, config, fault_plan, states, final)
    else:
        _run_in_process(spec, runs, base_seed, config, fault_plan, states, final)
    wall_seconds = time.monotonic() - started

    reports = [final[index] for index in sorted(final)]
    result = CampaignResult(
        spec=spec,
        runs=runs,
        base_seed=base_seed,
        config=config,
        reports=reports,
        fault_plan=fault_plan,
        wall_seconds=wall_seconds,
    )
    if config.artifacts_dir:
        from repro.resilience.artifacts import write_campaign_artifacts

        result.artifacts_path = write_campaign_artifacts(
            config.artifacts_dir, result
        )
    return result


def _classify(
    index: int,
    report: RunReport,
    state: _RunState,
    config: CampaignConfig,
    final: Dict[int, RunReport],
) -> bool:
    """Record a worker result.  Returns True when the run should be retried."""
    if report.status in _RETRYABLE and state.attempt < config.retries:
        state.attempt += 1
        time.sleep(_backoff_delay(state.attempt))
        return True
    final[index] = _finalize(report, state, config)
    return False


def _blame_death(
    index: int,
    base_seed: int,
    state: _RunState,
    config: CampaignConfig,
    final: Dict[int, RunReport],
) -> None:
    """Charge one observed worker death to a run; finalize it when over budget."""
    state.deaths += 1
    if state.attempt < config.retries:
        state.attempt += 1
    else:
        final[index] = _death_report(index, base_seed, state, config)


def _run_with_pool(
    spec: RunSpec,
    runs: int,
    base_seed: int,
    config: CampaignConfig,
    fault_plan: Optional[FaultPlan],
    states: Dict[int, _RunState],
    final: Dict[int, RunReport],
) -> None:
    context = multiprocessing.get_context("fork")
    _FORK_STATE["spec"] = spec
    _FORK_STATE["fault_plan"] = fault_plan
    marker_dir = tempfile.mkdtemp(prefix="repro-campaign-")
    chunk = config.resolve_chunk_size(runs)
    quarantine = False
    try:
        while len(final) < runs:
            unfinished = sorted(set(range(runs)) - set(final))
            if quarantine:
                # A multi-worker pool break hid the culprit: run the
                # survivors one per pool so the next death is unambiguous.
                for index in unfinished:
                    if index in final:
                        continue
                    _pool_round(
                        [index], 1, 1, context, marker_dir, spec, base_seed,
                        config, states, final,
                    )
                quarantine = False
            else:
                quarantine = _pool_round(
                    unfinished, config.jobs, chunk, context, marker_dir, spec,
                    base_seed, config, states, final,
                )
    finally:
        _FORK_STATE.pop("spec", None)
        _FORK_STATE.pop("fault_plan", None)
        try:
            for name in os.listdir(marker_dir):
                os.remove(os.path.join(marker_dir, name))
            os.rmdir(marker_dir)
        except OSError:
            pass


def _pool_round(
    indices: List[int],
    jobs: int,
    chunk: int,
    context,
    marker_dir: str,
    spec: RunSpec,
    base_seed: int,
    config: CampaignConfig,
    states: Dict[int, _RunState],
    final: Dict[int, RunReport],
) -> bool:
    """One executor's lifetime.  Returns True on an ambiguous pool break.

    Dispatch is sharded: ``chunk`` consecutive runs ride each pool task
    (see :func:`_campaign_shard_worker`).  Runs flagged for retry are
    resubmitted as single-run shards — a retry already paid a backoff
    sleep, so batching it with strangers would only couple their fates.
    """
    broken = False
    futures: Dict[object, List[int]] = {}
    pool = ProcessPoolExecutor(
        max_workers=min(jobs, len(indices)),
        mp_context=context,
        initializer=_worker_init,
    )

    def submit_shard(shard: List[int]) -> None:
        items = [
            (index, derive_run_seed(base_seed, index, states[index].attempt))
            for index in shard
        ]
        future = pool.submit(
            _campaign_shard_worker,
            items,
            config.timeout,
            CAPTURE_TRACES,
            marker_dir,
        )
        futures[future] = shard

    try:
        for start in range(0, len(indices), chunk):
            submit_shard(indices[start : start + chunk])
        while futures:
            done, _ = wait(list(futures), return_when=FIRST_COMPLETED)
            for future in done:
                shard = futures.pop(future)
                reports: Optional[List[RunReport]] = None
                shard_error: Optional[str] = None
                try:
                    reports = [decode_report(wire) for wire in future.result()]
                except BrokenExecutor:
                    broken = True
                    continue
                except Exception:
                    # Harness failure outside execute_attempt's own guards
                    # (it classifies per-run exceptions itself): every run
                    # of the shard is charged a crash, retryable as usual.
                    shard_error = traceback.format_exc(limit=8)
                retry_indices: List[int] = []
                if reports is None:
                    for index in shard:
                        report = RunReport(
                            index=index,
                            seed=derive_run_seed(
                                base_seed, index, states[index].attempt
                            ),
                            status=RunStatus.CRASHED,
                            error=shard_error,
                        )
                        if _classify(index, report, states[index], config, final):
                            retry_indices.append(index)
                else:
                    for report in reports:
                        index = report.index
                        if _classify(index, report, states[index], config, final):
                            retry_indices.append(index)
                for index in retry_indices:
                    if broken:
                        break  # attempt already bumped; next round reruns it
                    try:
                        submit_shard([index])
                    except BrokenExecutor:
                        broken = True
            if broken:
                break
    finally:
        pool.shutdown(wait=False, cancel_futures=True)

    if not broken:
        return False
    # The pool died.  Runs whose running-marker survived were executing in
    # a worker when it happened; with exactly one marker the culprit is
    # certain.  With several (parallel break) we blame nobody and let a
    # quarantine round smoke the culprit out one run at a time.
    suspects = _collect_markers(marker_dir)
    live = [index for index in suspects if index not in final]
    if len(live) == 1:
        _blame_death(live[0], base_seed, states[live[0]], config, final)
        return False
    if len(indices) == 1 and indices[0] not in final:
        # Sole run in the pool: it is the culprit even if it died before
        # its marker landed (guarantees quarantine rounds make progress).
        _blame_death(indices[0], base_seed, states[indices[0]], config, final)
        return False
    return True


def _collect_markers(marker_dir: str) -> Set[int]:
    suspects: Set[int] = set()
    try:
        names = os.listdir(marker_dir)
    except OSError:
        return suspects
    for name in names:
        if name.startswith("running-"):
            try:
                suspects.add(int(name.split("-", 1)[1]))
            except ValueError:
                pass
            try:
                os.remove(os.path.join(marker_dir, name))
            except OSError:
                pass
    return suspects


def _run_in_process(
    spec: RunSpec,
    runs: int,
    base_seed: int,
    config: CampaignConfig,
    fault_plan: Optional[FaultPlan],
    states: Dict[int, _RunState],
    final: Dict[int, RunReport],
) -> None:
    """Fallback without process isolation (hard aborts degrade to soft).

    One :class:`RunSession` serves the whole campaign — the serial analogue
    of shard-level simulator reuse, and what keeps the in-process
    fingerprint bit-identical to pool execution.
    """
    session = RunSession(spec)
    for index in range(runs):
        state = states[index]
        while True:
            seed = derive_run_seed(base_seed, index, state.attempt)
            report = execute_attempt(
                spec,
                fault_plan,
                index,
                seed,
                config.timeout,
                CAPTURE_TRACES,
                session=session,
            )
            if not _classify(index, report, state, config, final):
                break
