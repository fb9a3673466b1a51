"""End-to-end Section 2.6 checking for the multi-hop relay fabric.

The per-link monitors in :mod:`repro.checkers.streaming` verify each hop's
TM/RM instance in isolation; Dolev-Spielrein's observation — delivery
claims must be checked end to end, not per hop — is what this module
implements for the source→destination stream as a whole.  The fabric
records a *network-scope* execution (one ``send_msg`` per submitted
message, one ``receive_msg`` per exactly-once delivery at the destination,
one ``OK`` per cumulative acknowledgement reaching the source) and an
:class:`EndToEndMonitor` evaluates the Section 2.6 conditions over it.

Two conditions need network-scope state machines of their own:

* **order** — the per-link :class:`~repro.checkers.streaming.OrderMonitor`
  is Axiom-1-shaped (a single message in flight); the fabric pipelines a
  window of messages, so :class:`SequentialOrderMonitor` checks the
  stronger FIFO condition the resequencer guarantees: the k-th delivery
  carries the k-th submission.
* **no-replay** — the per-link monitor's single-pending resolution model
  mis-attributes cumulative acks under pipelining.
  :class:`EndToEndNoReplayMonitor` exploits that fabric acks are
  cumulative (the k-th OK resolves the k-th submission) and flags any
  delivery of an already-acknowledged message.

Causality, no-duplication and liveness reuse the per-link state machines
unchanged — their conditions are scope-free.  Note no-duplication's crash
boundary never fires here: relay crashes are *not* destination crashes, so
end-to-end delivery must be exactly-once across them, which is precisely
what relay amnesia threatens and the fabric's dedup layer restores.
"""

from __future__ import annotations

from typing import Dict, List, Type

from repro.checkers.report import CheckReport, Violation
from repro.checkers.streaming import (
    CausalityMonitor,
    Handler,
    LivenessMonitor,
    NoDuplicationMonitor,
    StreamingChecks,
    StreamMonitor,
)
from repro.core.events import Event, Ok, ReceiveMsg, SendMsg

__all__ = [
    "SequentialOrderMonitor",
    "EndToEndNoReplayMonitor",
    "EndToEndMonitor",
]


class SequentialOrderMonitor(StreamMonitor):
    """Network-scope order: the k-th delivery carries the k-th submission.

    The fabric's resequencer promises FIFO exactly-once delivery, which is
    strictly stronger than the per-link order condition — and checkable
    under pipelining, where the per-link monitor's one-in-flight model
    breaks down.  Reports under the ``order`` condition name so
    :class:`~repro.checkers.report.SafetyReport` slots line up.
    """

    condition = "order"

    def __init__(self) -> None:
        self._sent: List[bytes] = []
        self._next_delivery = 0
        self._trials = 0
        self._violations: List[Violation] = []

    def handlers(self) -> Dict[Type[Event], Handler]:
        return {SendMsg: self._on_send, ReceiveMsg: self._on_receive}

    def _on_send(self, index: int, event: Event) -> None:
        self._sent.append(event.message)

    def _on_receive(self, index: int, event: Event) -> None:
        self._trials += 1
        position = self._next_delivery
        expected = self._sent[position] if position < len(self._sent) else None
        if event.message != expected:
            self._violations.append(
                Violation(
                    condition="order",
                    event_index=index,
                    detail=(
                        f"delivery #{position} carried {event.message!r}, "
                        f"expected submission #{position} ({expected!r})"
                    ),
                )
            )
        else:
            self._next_delivery += 1

    def report(self) -> CheckReport:
        return CheckReport(
            condition="order", trials=self._trials, violations=list(self._violations)
        )

    def reset(self) -> None:
        self._sent.clear()
        self._next_delivery = 0
        self._trials = 0
        self._violations.clear()


class EndToEndNoReplayMonitor(StreamMonitor):
    """Theorem 7 at network scope: an acknowledged message never resurfaces.

    Fabric acknowledgements are cumulative, so the k-th ``OK`` resolves the
    k-th submitted message even though the event itself carries no payload.
    A delivery of a message whose resolution already happened is a replay —
    the stream moved on, yet a stale copy (a relay queue ghost, a
    retransmission racing its own ack) reached the destination.
    """

    condition = "no-replay"

    def __init__(self) -> None:
        self._sent: List[bytes] = []
        self._ok_count = 0
        self._resolved_at: Dict[bytes, int] = {}
        self._trials = 0
        self._violations: List[Violation] = []

    def handlers(self) -> Dict[Type[Event], Handler]:
        return {
            SendMsg: self._on_send,
            Ok: self._on_ok,
            ReceiveMsg: self._on_receive,
        }

    def _on_send(self, index: int, event: Event) -> None:
        self._sent.append(event.message)

    def _on_ok(self, index: int, event: Event) -> None:
        if self._ok_count < len(self._sent):
            self._resolved_at[self._sent[self._ok_count]] = index
            self._ok_count += 1

    def _on_receive(self, index: int, event: Event) -> None:
        self._trials += 1
        resolved_at = self._resolved_at.get(event.message)
        if resolved_at is not None and resolved_at < index:
            self._violations.append(
                Violation(
                    condition="no-replay",
                    event_index=index,
                    detail=(
                        f"receive_msg({event.message!r}) replayed: already "
                        f"acknowledged end-to-end at {resolved_at}"
                    ),
                )
            )

    def report(self) -> CheckReport:
        return CheckReport(
            condition="no-replay",
            trials=self._trials,
            violations=list(self._violations),
        )

    def reset(self) -> None:
        self._sent.clear()
        self._ok_count = 0
        self._resolved_at.clear()
        self._trials = 0
        self._violations.clear()


class EndToEndMonitor(StreamingChecks):
    """One-pass Section 2.6 evaluation of a fabric's end-to-end stream.

    A :class:`~repro.checkers.streaming.StreamingChecks` over the
    network-scope monitors, subscribed to the fabric's trace the same way::

        monitor = EndToEndMonitor()
        trace.subscribe(monitor.observe, types=monitor.observed_types)

    :meth:`safety_report` yields the standard four-condition
    :class:`~repro.checkers.report.SafetyReport` (so campaign
    classification, forensics and the shrinker work unchanged on fabric
    runs) and :meth:`verdict` collapses it to the ``CLEAN``/``VIOLATED``
    summary the acceptance scenarios assert on.
    """

    def __init__(self) -> None:
        super().__init__(
            monitors=[
                CausalityMonitor(),
                SequentialOrderMonitor(),
                NoDuplicationMonitor(),
                EndToEndNoReplayMonitor(),
                LivenessMonitor(),
            ]
        )

    def verdict(self, run_completed: bool = True) -> str:
        """``"CLEAN"`` iff every condition (safety + liveness) holds."""
        safety = self.safety_report()
        liveness = self.liveness_report(run_completed=run_completed)
        clean = safety.passed and liveness.passed
        return "CLEAN" if clean else "VIOLATED"
