"""Online monitors: the Section 2.6 conditions as incremental state machines.

The batch checkers in :mod:`repro.checkers.safety`, ``liveness`` and
``axioms`` were single-pass scanners already, but each made its *own* pass
over a fully materialised trace.  This module factors every condition's
state machine into a :class:`StreamMonitor` that consumes events one at a
time — O(1) amortized work per event, bounded state — so that:

* the simulator can evaluate every condition *while recording*, in one
  pass, with no post-hoc rescans (see ``Simulator(checks=...)``);
* Monte-Carlo campaigns can run checker-only (``retain="none"``) without
  materialising traces at all;
* the batch checkers become thin wrappers (:func:`feed` + ``report()``)
  over the same state machines, so batch and streaming verdicts are
  identical **by construction** — one implementation, two drivers.  The
  differential property tests pin this equivalence down anyway.

Monitors declare the event types they observe via :meth:`handlers`, and
dispatch is by concrete event type (one dict lookup per event, with
subclass resolution cached on first miss), so an event no monitor cares
about costs a single failed lookup.
"""

from __future__ import annotations

from time import perf_counter
from typing import Callable, Dict, Iterable, List, Optional, Tuple, Type

from repro.checkers.report import CheckReport, SafetyReport, Violation
from repro.core.events import (
    CrashR,
    CrashT,
    Event,
    Ok,
    PktDelivered,
    PktSent,
    ReceiveMsg,
    SendMsg,
)

__all__ = [
    "StreamMonitor",
    "CausalityMonitor",
    "OrderMonitor",
    "NoDuplicationMonitor",
    "NoReplayMonitor",
    "LivenessMonitor",
    "ProgressGapMonitor",
    "Axiom1Monitor",
    "Axiom2Monitor",
    "Axiom3BoundedMonitor",
    "StreamingChecks",
    "feed",
]

Handler = Callable[[int, Event], None]

#: Progress events for the liveness condition (Theorem 9).
PROGRESS_EVENTS = (Ok, ReceiveMsg, CrashT, CrashR)


class StreamMonitor:
    """One condition evaluated incrementally.

    Subclasses expose their per-event-type handlers via :meth:`handlers`
    (bound methods taking ``(index, event)``) and their verdict via
    :meth:`report`.  State must stay O(1) in the trace length (modulo the
    violation list, which only grows on actual failures).
    """

    condition: str = ""

    #: Event types among :meth:`handlers` whose handling only measures an
    #: open stabilization episode, which only a ``Corruption`` opens: in an
    #: execution with no ``Corruption`` they cannot change any verdict, so
    #: a dispatcher that knows none is coming may skip them.
    episode_only: Tuple[Type[Event], ...] = ()

    def handlers(self) -> Dict[Type[Event], Handler]:
        """Map each observed event type to its bound handler."""
        raise NotImplementedError

    def report(self) -> CheckReport:
        """The verdict over everything observed so far."""
        raise NotImplementedError

    def reset(self) -> None:
        """Return to the freshly-constructed state, in place.

        Resetting instead of rebuilding keeps every bound handler in an
        already-built dispatch table valid, which is what lets a
        :class:`StreamingChecks` (and the simulator session holding it) be
        reused across runs.
        """
        raise NotImplementedError


class CausalityMonitor(StreamMonitor):
    """Theorem 1's condition: deliveries only of previously sent messages."""

    condition = "causality"

    def __init__(self) -> None:
        self._sent_at: Dict[bytes, int] = {}
        self._trials = 0
        self._violations: List[Violation] = []

    def handlers(self) -> Dict[Type[Event], Handler]:
        return {SendMsg: self._on_send, ReceiveMsg: self._on_receive}

    def _on_send(self, index: int, event: Event) -> None:
        self._sent_at.setdefault(event.message, index)

    def _on_receive(self, index: int, event: Event) -> None:
        self._trials += 1
        origin = self._sent_at.get(event.message)
        if origin is None or origin >= index:
            self._violations.append(
                Violation(
                    condition="causality",
                    event_index=index,
                    detail=f"receive_msg({event.message!r}) with no prior send_msg",
                )
            )

    def report(self) -> CheckReport:
        return CheckReport(
            condition="causality", trials=self._trials, violations=list(self._violations)
        )

    def reset(self) -> None:
        self._sent_at.clear()
        self._trials = 0
        self._violations.clear()


class OrderMonitor(StreamMonitor):
    """Theorem 3's condition: OK implies the message was delivered first."""

    condition = "order"

    def __init__(self) -> None:
        self._pending: Optional[bytes] = None
        self._pending_index = 0
        self._delivered_pending = False
        self._trials = 0
        self._violations: List[Violation] = []

    def handlers(self) -> Dict[Type[Event], Handler]:
        return {
            SendMsg: self._on_send,
            ReceiveMsg: self._on_receive,
            Ok: self._on_ok,
            CrashT: self._on_crash_t,
        }

    def _on_send(self, index: int, event: Event) -> None:
        self._pending = event.message
        self._pending_index = index
        self._delivered_pending = False

    def _on_receive(self, index: int, event: Event) -> None:
        if self._pending is not None and event.message == self._pending:
            self._delivered_pending = True

    def _on_ok(self, index: int, event: Event) -> None:
        if self._pending is None:
            self._violations.append(
                Violation(
                    condition="order",
                    event_index=index,
                    detail="OK with no message in flight",
                )
            )
            return
        self._trials += 1
        if not self._delivered_pending:
            self._violations.append(
                Violation(
                    condition="order",
                    event_index=index,
                    detail=(
                        f"OK for send_msg({self._pending!r}) at {self._pending_index} "
                        f"without an intervening receive_msg"
                    ),
                )
            )
        self._pending = None

    def _on_crash_t(self, index: int, event: Event) -> None:
        self._pending = None  # the in-flight message dies with the memory

    def report(self) -> CheckReport:
        return CheckReport(
            condition="order", trials=self._trials, violations=list(self._violations)
        )

    def reset(self) -> None:
        self._pending = None
        self._pending_index = 0
        self._delivered_pending = False
        self._trials = 0
        self._violations.clear()


class NoDuplicationMonitor(StreamMonitor):
    """Theorem 8's condition: at most one delivery per message, absent crash^R."""

    condition = "no-duplication"

    def __init__(self) -> None:
        self._delivered_since_crash: Dict[bytes, int] = {}
        self._trials = 0
        self._violations: List[Violation] = []

    def handlers(self) -> Dict[Type[Event], Handler]:
        return {CrashR: self._on_crash_r, ReceiveMsg: self._on_receive}

    def _on_crash_r(self, index: int, event: Event) -> None:
        self._delivered_since_crash.clear()

    def _on_receive(self, index: int, event: Event) -> None:
        self._trials += 1
        earlier = self._delivered_since_crash.get(event.message)
        if earlier is not None:
            self._violations.append(
                Violation(
                    condition="no-duplication",
                    event_index=index,
                    detail=(
                        f"receive_msg({event.message!r}) duplicated "
                        f"(first at {earlier}) with no crash^R between"
                    ),
                )
            )
        self._delivered_since_crash[event.message] = index

    def report(self) -> CheckReport:
        return CheckReport(
            condition="no-duplication",
            trials=self._trials,
            violations=list(self._violations),
        )

    def reset(self) -> None:
        self._delivered_since_crash.clear()
        self._trials = 0
        self._violations.clear()


class NoReplayMonitor(StreamMonitor):
    """Theorem 7's condition: resolved messages never resurface.

    Tracks the resolution index of every message (its send followed by an
    OK or crash^T) and the most recent ``receive_msg``/``crash^R``
    boundary; a delivery whose message was resolved at or before the
    boundary is a replay — exactly the quantification of Theorem 7.
    """

    condition = "no-replay"

    def __init__(self) -> None:
        self._resolution_index: Dict[bytes, int] = {}
        self._pending: Optional[bytes] = None
        self._boundary = -1
        self._trials = 0
        self._violations: List[Violation] = []

    def handlers(self) -> Dict[Type[Event], Handler]:
        return {
            SendMsg: self._on_send,
            Ok: self._on_resolve,
            CrashT: self._on_resolve,
            CrashR: self._on_crash_r,
            ReceiveMsg: self._on_receive,
        }

    def _on_send(self, index: int, event: Event) -> None:
        self._pending = event.message

    def _on_resolve(self, index: int, event: Event) -> None:
        if self._pending is not None:
            self._resolution_index[self._pending] = index
            self._pending = None

    def _on_crash_r(self, index: int, event: Event) -> None:
        self._boundary = index

    def _on_receive(self, index: int, event: Event) -> None:
        self._trials += 1
        resolved_at = self._resolution_index.get(event.message)
        if resolved_at is not None and resolved_at <= self._boundary:
            self._violations.append(
                Violation(
                    condition="no-replay",
                    event_index=index,
                    detail=(
                        f"receive_msg({event.message!r}) replayed: already "
                        f"resolved at {resolved_at}, boundary at {self._boundary}"
                    ),
                )
            )
        self._boundary = index

    def report(self) -> CheckReport:
        return CheckReport(
            condition="no-replay", trials=self._trials, violations=list(self._violations)
        )

    def reset(self) -> None:
        self._resolution_index.clear()
        self._pending = None
        self._boundary = -1
        self._trials = 0
        self._violations.clear()


class LivenessMonitor(StreamMonitor):
    """Theorem 9's condition, operationalised for bounded runs.

    Whether the final pending send counts as a violation depends on how
    the run ended, so :meth:`report` takes ``run_completed``.
    """

    condition = "liveness"

    def __init__(self) -> None:
        self._trials = 0
        self._last_send: Optional[int] = None

    def handlers(self) -> Dict[Type[Event], Handler]:
        table: Dict[Type[Event], Handler] = {SendMsg: self._on_send}
        for progress in PROGRESS_EVENTS:
            table[progress] = self._on_progress
        return table

    def _on_send(self, index: int, event: Event) -> None:
        self._trials += 1
        self._last_send = index

    def _on_progress(self, index: int, event: Event) -> None:
        self._last_send = None

    def report(self, run_completed: bool = True) -> CheckReport:
        violations: List[Violation] = []
        if self._last_send is not None and not run_completed:
            violations.append(
                Violation(
                    condition="liveness",
                    event_index=self._last_send,
                    detail=(
                        "send_msg at end of truncated run with no subsequent "
                        "OK/receive_msg/crash before the step budget expired"
                    ),
                )
            )
        return CheckReport(
            condition="liveness", trials=self._trials, violations=violations
        )

    def reset(self) -> None:
        self._trials = 0
        self._last_send = None


class ProgressGapMonitor(StreamMonitor):
    """Waiting times between each send_msg and its first progress event.

    Feeds experiment E5; ``gaps`` is the raw series (event-count units).
    """

    condition = "progress-gaps"

    def __init__(self) -> None:
        self.gaps: List[int] = []
        self._last_send: Optional[int] = None

    def handlers(self) -> Dict[Type[Event], Handler]:
        table: Dict[Type[Event], Handler] = {SendMsg: self._on_send}
        for progress in PROGRESS_EVENTS:
            table[progress] = self._on_progress
        return table

    def _on_send(self, index: int, event: Event) -> None:
        self._last_send = index

    def _on_progress(self, index: int, event: Event) -> None:
        if self._last_send is not None:
            self.gaps.append(index - self._last_send)
            self._last_send = None

    def report(self) -> CheckReport:
        return CheckReport(condition="progress-gaps", trials=len(self.gaps))

    def reset(self) -> None:
        # Fresh list, not clear(): callers may have kept the old series.
        self.gaps = []
        self._last_send = None


class Axiom1Monitor(StreamMonitor):
    """Axiom 1: between two send_msg events there is an OK or crash^T."""

    condition = "axiom-1"

    def __init__(self) -> None:
        self._armed: Optional[int] = None
        self._trials = 0
        self._violations: List[Violation] = []

    def handlers(self) -> Dict[Type[Event], Handler]:
        return {SendMsg: self._on_send, Ok: self._on_resolve, CrashT: self._on_resolve}

    def _on_send(self, index: int, event: Event) -> None:
        self._trials += 1
        if self._armed is not None:
            self._violations.append(
                Violation(
                    condition="axiom-1",
                    event_index=index,
                    detail=(
                        f"send_msg at {index} before the send_msg at "
                        f"{self._armed} saw an OK or crash^T"
                    ),
                )
            )
        self._armed = index

    def _on_resolve(self, index: int, event: Event) -> None:
        self._armed = None

    def report(self) -> CheckReport:
        return CheckReport(
            condition="axiom-1", trials=self._trials, violations=list(self._violations)
        )

    def reset(self) -> None:
        self._armed = None
        self._trials = 0
        self._violations.clear()


class Axiom2Monitor(StreamMonitor):
    """Axiom 2: every message value is sent at most once."""

    condition = "axiom-2"

    def __init__(self) -> None:
        self._first_seen: Dict[bytes, int] = {}
        self._trials = 0
        self._violations: List[Violation] = []

    def handlers(self) -> Dict[Type[Event], Handler]:
        return {SendMsg: self._on_send}

    def _on_send(self, index: int, event: Event) -> None:
        self._trials += 1
        earlier = self._first_seen.get(event.message)
        if earlier is not None:
            self._violations.append(
                Violation(
                    condition="axiom-2",
                    event_index=index,
                    detail=(
                        f"send_msg({event.message!r}) repeated "
                        f"(first at {earlier})"
                    ),
                )
            )
        else:
            self._first_seen[event.message] = index

    def report(self) -> CheckReport:
        return CheckReport(
            condition="axiom-2", trials=self._trials, violations=list(self._violations)
        )

    def reset(self) -> None:
        self._first_seen.clear()
        self._trials = 0
        self._violations.clear()


class Axiom3BoundedMonitor(StreamMonitor):
    """Bounded form of Axiom 3 (fairness): sends imply eventual deliveries."""

    condition = "axiom-3"

    def __init__(self, window: int) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self._window = window
        self._sends_since_delivery = 0
        self._trials = 0
        self._violations: List[Violation] = []

    def handlers(self) -> Dict[Type[Event], Handler]:
        return {PktSent: self._on_sent, PktDelivered: self._on_delivered}

    def _on_sent(self, index: int, event: Event) -> None:
        self._trials += 1
        self._sends_since_delivery += 1
        if self._sends_since_delivery == self._window:
            self._violations.append(
                Violation(
                    condition="axiom-3",
                    event_index=index,
                    detail=(
                        f"{self._window} consecutive packet sends without a "
                        f"single delivery"
                    ),
                )
            )

    def _on_delivered(self, index: int, event: Event) -> None:
        self._sends_since_delivery = 0

    def report(self) -> CheckReport:
        return CheckReport(
            condition="axiom-3", trials=self._trials, violations=list(self._violations)
        )

    def reset(self) -> None:
        self._sends_since_delivery = 0
        self._trials = 0
        self._violations.clear()


# ---------------------------------------------------------------------------
# Dispatch
# ---------------------------------------------------------------------------


def _build_table(
    monitors: Iterable[StreamMonitor],
    corruption_free: bool = False,
) -> Dict[Type[Event], Tuple[Handler, ...]]:
    """Event type -> the monitors' handlers, in suite order.

    ``corruption_free`` leaves out each monitor's ``episode_only`` types:
    the table for an execution that never sees a ``Corruption``.
    """
    table: Dict[Type[Event], List[Handler]] = {}
    for monitor in monitors:
        skipped = monitor.episode_only if corruption_free else ()
        for event_type, handler in monitor.handlers().items():
            if event_type not in skipped:
                table.setdefault(event_type, []).append(handler)
    return {event_type: tuple(handlers) for event_type, handlers in table.items()}


_NO_HANDLERS: Tuple[Handler, ...] = ()

#: Under ``timed=True`` one event in this many is bracketed by perf_counter
#: calls and the total is extrapolated; timing every event would cost more
#: than the dispatch it measures.
_TIMED_STRIDE = 32


def _resolve_subclass(
    table: Dict[Type[Event], Tuple[Handler, ...]], event_class: type
) -> Tuple[Handler, ...]:
    """Handlers for an event class not registered directly (subclass case).

    Preserves the semantics of the batch checkers' ``isinstance`` chains: a
    subclass of a handled type is handled like its base.  The result is
    cached in the table, so the cost is paid once per concrete class.
    """
    resolved: List[Handler] = []
    for registered, handlers in list(table.items()):
        if issubclass(event_class, registered):
            resolved.extend(handlers)
    table[event_class] = tuple(resolved)
    return table[event_class]


class StreamingChecks:
    """One-pass online evaluation of the Section 2.6 conditions.

    The default monitor set matches what :func:`repro.sim.runner.run_once`
    verifies per run: the four safety conditions plus liveness.  Pass
    ``axioms=True`` to also validate the environment axioms (harness
    self-check), or an explicit ``monitors`` list for a custom set.

    Either way the report slots (:attr:`causality`, :attr:`order`,
    :attr:`no_duplication`, :attr:`no_replay`, :attr:`liveness`, the three
    axiom slots and :attr:`stabilization`) hold the suite's monitor with
    that ``condition``, or ``None`` when it has none; a report whose slot
    is empty raises ``ValueError``.

    Feed events either by subscribing to a recording trace::

        checks = StreamingChecks()
        trace.subscribe(checks.observe, types=checks.observed_types)

    or manually via :meth:`observe`.  With ``timed=True`` the cumulative
    wall-clock cost of checking is accumulated in :attr:`checker_seconds`,
    which is how the metrics layer reports checker overhead.
    """

    def __init__(
        self,
        monitors: Optional[List[StreamMonitor]] = None,
        liveness: bool = True,
        axioms: bool = False,
        axiom3_window: int = 4096,
        timed: bool = False,
        stabilization: bool = False,
        stabilization_window: int = 8,
    ) -> None:
        if monitors is None:
            monitors = [
                CausalityMonitor(),
                OrderMonitor(),
                NoDuplicationMonitor(),
                NoReplayMonitor(),
            ]
            if liveness:
                monitors.append(LivenessMonitor())
            if axioms:
                monitors += [
                    Axiom1Monitor(),
                    Axiom2Monitor(),
                    Axiom3BoundedMonitor(window=axiom3_window),
                ]
            if stabilization:
                # Imported lazily: stabilization.py builds on this module.
                from repro.checkers.stabilization import StabilizationMonitor

                monitors.append(
                    StabilizationMonitor(
                        scrub=monitors[:4], window=stabilization_window
                    )
                )
        self.monitors: Tuple[StreamMonitor, ...] = tuple(monitors)
        slot = {monitor.condition: monitor for monitor in self.monitors}.get
        self.causality = slot("causality")
        self.order = slot("order")
        self.no_duplication = slot("no-duplication")
        self.no_replay = slot("no-replay")
        self.liveness = slot("liveness")
        self.axiom1 = slot("axiom-1")
        self.axiom2 = slot("axiom-2")
        self.axiom3 = slot("axiom-3")
        self.stabilization = slot("stabilization")
        self._table = _build_table(self.monitors)
        # For a dispatcher that emits no Corruption (the kernel's
        # precompiled adversary modes); a type whose handlers all drop out
        # resolves to no handlers there.
        self._corruption_free_table = _build_table(
            self.monitors, corruption_free=True
        )
        self.events_seen = 0
        self._timed = timed
        self._timed_samples = 0
        self._sampled_seconds = 0.0

    @property
    def observed_types(self) -> Tuple[Type[Event], ...]:
        """Event types at least one monitor handles (for trace interest)."""
        return tuple(self._table)

    @property
    def checker_seconds(self) -> float:
        """Estimated cumulative wall-clock cost of checking.

        With ``timed=True``, one event in ``_TIMED_STRIDE`` is measured
        (starting with the first) and the total is extrapolated from the
        sample mean; 0.0 when untimed or before the first event.
        """
        if self._timed_samples == 0:
            return 0.0
        return self._sampled_seconds * (self.events_seen / self._timed_samples)

    def observe(self, index: int, event: Event) -> None:
        """Consume the next event of the execution (O(1) amortized)."""
        self.events_seen = seen = self.events_seen + 1
        if self._timed and seen % _TIMED_STRIDE == 1:
            started = perf_counter()
            table = self._table
            handlers = table.get(type(event))
            if handlers is None:
                handlers = _resolve_subclass(table, type(event))
            for handler in handlers:
                handler(index, event)
            self._sampled_seconds += perf_counter() - started
            self._timed_samples += 1
        else:
            table = self._table
            handlers = table.get(type(event))
            if handlers is None:
                handlers = _resolve_subclass(table, type(event))
            for handler in handlers:
                handler(index, event)

    def reset(self) -> None:
        """Reset every monitor for a new run, keeping the dispatch tables.

        Each monitor is reset *in place* (never replaced), so the bound
        handlers baked into ``_table`` and ``_corruption_free_table`` —
        including any cached subclass resolutions — remain correct.  A
        reset checker is observationally identical to a freshly-constructed
        one with the same monitor set.
        """
        for monitor in self.monitors:
            monitor.reset()
        self.events_seen = 0
        self._timed_samples = 0
        self._sampled_seconds = 0.0

    # -- verdicts -----------------------------------------------------------------

    def safety_report(self) -> SafetyReport:
        """The four safety verdicts over everything observed so far."""
        safety = (self.causality, self.order, self.no_duplication, self.no_replay)
        if None in safety:
            raise ValueError(
                "this StreamingChecks was built without all four safety monitors"
            )
        return SafetyReport(*(monitor.report() for monitor in safety))

    def liveness_report(self, run_completed: bool) -> CheckReport:
        """The liveness verdict (requires the default or liveness monitor)."""
        if self.liveness is None:
            raise ValueError("this StreamingChecks was built without a liveness monitor")
        return self.liveness.report(run_completed=run_completed)

    def axiom_reports(self) -> List[CheckReport]:
        """Verdicts of the environment-axiom monitors (``axioms=True`` only)."""
        if self.axiom1 is None or self.axiom2 is None or self.axiom3 is None:
            raise ValueError("this StreamingChecks was built without axiom monitors")
        return [self.axiom1.report(), self.axiom2.report(), self.axiom3.report()]

    def stabilization_report(self):
        """The convergence summary (``stabilization=True`` only).

        Returns a :class:`~repro.checkers.stabilization.StabilizationReport`.
        """
        if self.stabilization is None:
            raise ValueError(
                "this StreamingChecks was built without a stabilization monitor"
            )
        return self.stabilization.summary()


def feed(events: Iterable[Event], *monitors: StreamMonitor) -> None:
    """Drive monitors over a recorded event sequence (the batch driver).

    This is how the batch checkers evaluate a finished trace: same state
    machines, same dispatch, just fed from a sequence instead of live.
    """
    table = _build_table(monitors)
    for index, event in enumerate(events):
        handlers = table.get(type(event))
        if handlers is None:
            handlers = _resolve_subclass(table, type(event))
        for handler in handlers:
            handler(index, event)
