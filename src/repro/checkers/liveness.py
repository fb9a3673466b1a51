"""The liveness condition (Theorem 9), operationalised for bounded runs.

The paper's liveness statement: if the adversary is fair and a message is
pending, then eventually one of ``crash^T``, ``crash^R``, ``OK`` or
``receive_msg`` occurs.  In a bounded simulation "eventually" becomes
"within the step budget"; :func:`check_liveness` verifies that no message
sat unresolved with no intervening progress event once the run ended, and
:func:`progress_gaps` measures the *longest* stretch any message waited —
the quantitative series for experiment E5.

Both are batch drivers over the monitors in
:mod:`repro.checkers.streaming` (:class:`LivenessMonitor`,
:class:`ProgressGapMonitor`), so online and post-hoc verdicts agree by
construction.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.checkers.report import CheckReport
from repro.checkers.streaming import LivenessMonitor, ProgressGapMonitor, feed
from repro.checkers.trace import Trace

__all__ = ["check_liveness", "progress_gaps", "LivenessStats"]


def check_liveness(trace: Trace, run_completed: bool) -> CheckReport:
    """Verify that every pending message eventually saw a progress event.

    ``run_completed`` is the simulator's verdict that the run ended because
    the workload finished (rather than the step budget).  If the run was
    truncated *and* the tail of the trace holds a send_msg with no
    subsequent progress event, liveness failed within the budget.
    """
    monitor = LivenessMonitor()
    feed(trace, monitor)
    return monitor.report(run_completed=run_completed)


@dataclass(frozen=True)
class LivenessStats:
    """Distribution of waiting times between send_msg and first progress."""

    gaps: List[int]

    @property
    def worst(self) -> int:
        return max(self.gaps) if self.gaps else 0

    @property
    def mean(self) -> float:
        return sum(self.gaps) / len(self.gaps) if self.gaps else 0.0

    @property
    def resolved_count(self) -> int:
        return len(self.gaps)


def progress_gaps(trace: Trace) -> LivenessStats:
    """Event-count gaps between each send_msg and its first progress event.

    The unit is trace events (a proxy for adversary turns); Theorem 9 says
    these gaps are finite for every fair adversary, and experiment E5 shows
    how they scale with adversarial stalling.
    """
    monitor = ProgressGapMonitor()
    feed(trace, monitor)
    return LivenessStats(gaps=monitor.gaps)
