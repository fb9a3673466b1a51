"""Correctness-condition checkers for Section 2.6, evaluated on traces.

Two evaluation styles over one set of condition state machines:

* **batch** — ``check_*`` functions that scan a finished :class:`Trace`;
* **streaming** — :class:`StreamingChecks` and the individual monitors in
  :mod:`repro.checkers.streaming`, which consume events online as the
  simulator records them (O(1) amortized per event, bounded state).

A third driver, :class:`LiveEventLog` (:mod:`repro.checkers.live`), feeds
the same streaming monitors from *live* deployments — real sockets and
wall-clock crashes (:mod:`repro.live`) — so live traces get the identical
Section 2.6 verdicts.

Both report through the same :class:`CheckReport`/:class:`SafetyReport`
types and produce identical verdicts by construction.
"""

from repro.checkers.axioms import check_axiom1, check_axiom2, check_axiom3_bounded
from repro.checkers.endtoend import (
    EndToEndMonitor,
    EndToEndNoReplayMonitor,
    SequentialOrderMonitor,
)
from repro.checkers.live import LiveEventLog
from repro.checkers.liveness import LivenessStats, check_liveness, progress_gaps
from repro.checkers.report import CheckReport, SafetyReport, Violation
from repro.checkers.serialize import (
    dump_trace,
    event_from_dict,
    event_to_dict,
    load_trace,
)
from repro.checkers.safety import (
    check_all_safety,
    check_causality,
    check_no_duplication,
    check_no_replay,
    check_order,
)
from repro.checkers.stabilization import (
    ConvergenceRecord,
    StabilizationMonitor,
    StabilizationReport,
)
from repro.checkers.streaming import (
    Axiom1Monitor,
    Axiom2Monitor,
    Axiom3BoundedMonitor,
    CausalityMonitor,
    LivenessMonitor,
    NoDuplicationMonitor,
    NoReplayMonitor,
    OrderMonitor,
    ProgressGapMonitor,
    StreamingChecks,
    StreamMonitor,
)
from repro.checkers.trace import Trace

__all__ = [
    "Axiom1Monitor",
    "Axiom2Monitor",
    "Axiom3BoundedMonitor",
    "CausalityMonitor",
    "CheckReport",
    "ConvergenceRecord",
    "EndToEndMonitor",
    "EndToEndNoReplayMonitor",
    "LiveEventLog",
    "LivenessMonitor",
    "LivenessStats",
    "NoDuplicationMonitor",
    "NoReplayMonitor",
    "OrderMonitor",
    "ProgressGapMonitor",
    "SafetyReport",
    "SequentialOrderMonitor",
    "StabilizationMonitor",
    "StabilizationReport",
    "StreamMonitor",
    "StreamingChecks",
    "Trace",
    "Violation",
    "check_all_safety",
    "check_axiom1",
    "check_axiom2",
    "check_axiom3_bounded",
    "check_causality",
    "check_liveness",
    "check_no_duplication",
    "check_no_replay",
    "check_order",
    "dump_trace",
    "event_from_dict",
    "event_to_dict",
    "load_trace",
    "progress_gaps",
]
