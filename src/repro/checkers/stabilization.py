"""Self-stabilization monitoring: convergence verdicts after state corruption.

Crash-amnesia resets a station to a *known* blank, so the Section 2.6
conditions hold across it unconditionally.  An arbitrary-state fault (the
self-stabilization literature's adversary) instead scrambles live volatile
state — nonces, counters, pending-message bookkeeping — and the protocol is
only expected to *reconverge*: after a bounded amount of fault-free
traffic, the safety conditions must hold again.

:class:`StabilizationMonitor` rides a :class:`~repro.checkers.streaming.
StreamingChecks` suite and implements that verdict discipline:

* each :class:`~repro.core.events.Corruption` event opens (or extends) a
  *probation episode*: the monitor snapshots every safety monitor's
  violation list and starts counting;
* progress events (OK / receive_msg / crashes) grow a *clean streak*; any
  new safety violation resets it — the fault is still echoing;
* once the streak reaches ``window``, the episode *converges*: violations
  accrued during probation are scrubbed (they are the corruption's echo,
  not protocol bugs) and one :class:`ConvergenceRecord` is emitted per
  corruption in the episode, measuring events, datagrams and wall-clock
  time from that corruption to convergence;
* an episode still open when the run ends means the protocol never
  reconverged: the probation violations *stand*, and :meth:`report` adds a
  stabilization violation per unresolved corruption.

The scrub-on-convergence rule is what "suspend Section 2.6 accounting
after each corruption" means operationally: verdicts are only charged for
behaviour outside probation windows.
"""

from __future__ import annotations

from dataclasses import dataclass
from time import perf_counter
from typing import Dict, List, Optional, Sequence, Tuple, Type

from repro.checkers.report import CheckReport, Violation
from repro.checkers.streaming import PROGRESS_EVENTS, Handler, StreamMonitor
from repro.core.events import (
    Corruption,
    Event,
    PktDelivered,
    PktSent,
    SendMsg,
)

__all__ = [
    "ConvergenceRecord",
    "StabilizationReport",
    "StabilizationMonitor",
]


@dataclass(frozen=True)
class ConvergenceRecord:
    """How long one corruption took to stabilize.

    ``events`` counts observed execution events and ``datagrams`` wire
    packets (``PktSent``) between the corruption and the moment the clean
    streak closed; ``wall_seconds`` is the host-clock span (informational —
    it is not part of any replay fingerprint).
    """

    station: str
    fields: Tuple[str, ...]
    seed: int
    events: int
    datagrams: int
    wall_seconds: float

    def to_wire(self) -> tuple:
        return (
            self.station,
            tuple(self.fields),
            self.seed,
            self.events,
            self.datagrams,
            self.wall_seconds,
        )

    @classmethod
    def from_wire(cls, wire: tuple) -> "ConvergenceRecord":
        return cls(
            station=wire[0],
            fields=tuple(wire[1]),
            seed=wire[2],
            events=wire[3],
            datagrams=wire[4],
            wall_seconds=wire[5],
        )


@dataclass(frozen=True)
class StabilizationReport:
    """Aggregate stabilization verdict for one run."""

    corruptions: int
    converged: int
    window: int
    records: Tuple[ConvergenceRecord, ...] = ()

    @property
    def pending(self) -> int:
        """Corruptions whose probation episode never closed."""
        return self.corruptions - self.converged

    @property
    def stabilized(self) -> bool:
        """True iff every injected corruption reconverged within the run."""
        return self.corruptions > 0 and self.converged == self.corruptions

    def to_wire(self) -> tuple:
        return (
            self.corruptions,
            self.converged,
            self.window,
            tuple(record.to_wire() for record in self.records),
        )

    @classmethod
    def from_wire(cls, wire: tuple) -> "StabilizationReport":
        corruptions, converged, window, records = wire
        if not (corruptions or converged or records):
            # A corruption-free run (nearly every run of a campaign) decodes
            # to one shared frozen instance per window: campaigns keep every
            # run's report, and a fresh copy each would be pure overhead.
            clean = _CLEAN_REPORTS.get(window)
            if clean is None:
                clean = _CLEAN_REPORTS[window] = cls(0, 0, window)
            return clean
        return cls(
            corruptions=corruptions,
            converged=converged,
            window=window,
            records=tuple(ConvergenceRecord.from_wire(r) for r in records),
        )


#: window -> the report every corruption-free run decodes to (see
#: from_wire).  The reports are frozen, so every caller may share them.
_CLEAN_REPORTS: Dict[int, StabilizationReport] = {}


class _Episode:
    """One corruption awaiting convergence (internal bookkeeping)."""

    __slots__ = (
        "station",
        "fields",
        "seed",
        "index",
        "events_at",
        "datagrams_at",
        "started",
    )

    def __init__(
        self,
        station: str,
        fields: Tuple[str, ...],
        seed: int,
        index: int,
        events_at: int,
        datagrams_at: int,
        started: float,
    ) -> None:
        self.station = station
        self.fields = fields
        self.seed = seed
        self.index = index
        self.events_at = events_at
        self.datagrams_at = datagrams_at
        self.started = started


class StabilizationMonitor(StreamMonitor):
    """Convergence-time accounting over a set of safety monitors.

    ``scrub`` is the safety monitors whose violation lists this monitor
    snapshots and (on convergence) truncates — same-package coupling to
    their ``_violations`` lists, pinned down by the checker tests.
    """

    condition = "stabilization"

    def __init__(self, scrub: Sequence[StreamMonitor], window: int = 8) -> None:
        if window < 1:
            raise ValueError("window must be >= 1")
        self._scrub = tuple(scrub)
        self._window = window
        self._records: List[ConvergenceRecord] = []
        self._open: List[_Episode] = []
        self._marks: Optional[Tuple[int, ...]] = None
        self._streak = 0
        self._baseline_total = 0
        self._corruptions = 0
        self._events = 0
        self._datagrams = 0

    # -- dispatch ---------------------------------------------------------------

    def handlers(self) -> Dict[Type[Event], Handler]:
        # Concrete types only: StreamingChecks dispatches on type(event)
        # with subclass resolution only on a table miss, so a base-class
        # registration would be shadowed by every directly-registered type.
        table: Dict[Type[Event], Handler] = {
            Corruption: self._on_corruption,
            SendMsg: self._on_event,
            PktSent: self._on_datagram,
            PktDelivered: self._on_delivered,
        }
        for progress in PROGRESS_EVENTS:
            table[progress] = self._on_progress
        return table

    def _violation_total(self) -> int:
        total = 0
        for monitor in self._scrub:
            total += len(monitor._violations)
        return total

    def _on_event(self, index: int, event: Event) -> None:
        self._events += 1

    def _on_datagram(self, index: int, event: Event) -> None:
        self._events += 1
        self._datagrams += 1

    def _on_delivered(self, index: int, event: Event) -> None:
        self._events += 1

    def _on_corruption(self, index: int, event: Event) -> None:
        self._events += 1
        self._corruptions += 1
        if not self._open:
            # Snapshot the pre-fault verdicts; convergence scrubs back to
            # exactly this point.  Overlapping corruptions share the marks
            # of the episode's first corruption.
            self._marks = tuple(len(m._violations) for m in self._scrub)
        self._open.append(
            _Episode(
                station=event.station,
                fields=tuple(event.fields),
                seed=event.seed,
                index=index,
                events_at=self._events,
                datagrams_at=self._datagrams,
                started=perf_counter(),
            )
        )
        self._streak = 0
        self._baseline_total = self._violation_total()

    def _on_progress(self, index: int, event: Event) -> None:
        self._events += 1
        if not self._open:
            return
        # Safety handlers for this same event ran before us (suite order),
        # so the total already includes anything this event flagged.
        total = self._violation_total()
        if total != self._baseline_total:
            self._baseline_total = total
            self._streak = 0
            return
        self._streak += 1
        if self._streak >= self._window:
            self._converge()

    def _converge(self) -> None:
        ended = perf_counter()
        assert self._marks is not None
        for monitor, mark in zip(self._scrub, self._marks):
            del monitor._violations[mark:]
        for episode in self._open:
            self._records.append(
                ConvergenceRecord(
                    station=episode.station,
                    fields=episode.fields,
                    seed=episode.seed,
                    events=self._events - episode.events_at,
                    datagrams=self._datagrams - episode.datagrams_at,
                    wall_seconds=ended - episode.started,
                )
            )
        self._open.clear()
        self._marks = None
        self._streak = 0

    def finalize(self, run_completed: bool) -> None:
        """Close the books at end of run.

        A run that drains its whole workload reaches a final verdict point:
        every message after the corruption was handled, so an open probation
        episode closes (the clean streak was simply cut short by the end of
        traffic, not by a violation).  A *truncated* run — step budget, give
        up, live-lock — leaves its episodes open: the protocol never
        demonstrated reconvergence, and the probation violations stand.
        """
        if run_completed and self._open:
            self._converge()

    # -- verdicts ---------------------------------------------------------------

    def summary(self) -> StabilizationReport:
        return StabilizationReport(
            corruptions=self._corruptions,
            converged=len(self._records),
            window=self._window,
            records=tuple(self._records),
        )

    def report(self) -> CheckReport:
        violations: List[Violation] = []
        for episode in self._open:
            violations.append(
                Violation(
                    condition="stabilization",
                    event_index=episode.index,
                    detail=(
                        f"corruption of {episode.station} "
                        f"(fields: {', '.join(episode.fields) or 'none'}) never "
                        f"reconverged: needed {self._window} clean progress "
                        f"events, saw {self._streak}"
                    ),
                )
            )
        return CheckReport(
            condition="stabilization",
            trials=self._corruptions,
            violations=violations,
        )

    def reset(self) -> None:
        self._records = []
        self._open.clear()
        self._marks = None
        self._streak = 0
        self._baseline_total = 0
        self._corruptions = 0
        self._events = 0
        self._datagrams = 0
