"""Exception hierarchy for the repro package.

All exceptions raised by this library derive from :class:`ReproError`, so
callers can catch library failures with a single ``except`` clause while
programming errors (``TypeError``, ``ValueError`` from the standard library)
still propagate normally where appropriate.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class ProtocolError(ReproError):
    """A protocol automaton was driven in a way its interface forbids.

    For example, calling ``send_msg`` on a transmitter that is still busy
    violates Axiom 1 of the paper (the higher layer must wait for OK or a
    crash before submitting the next message).
    """


class ChannelError(ReproError):
    """The communication channel was used incorrectly."""


class UnknownPacketError(ChannelError):
    """An adversary asked the channel to deliver an identifier it never issued.

    The channel only delivers packets that were previously sent (the causality
    axiom of Section 2.3); requesting an unknown identifier is a bug in the
    adversary, not a tolerated fault.
    """

    def __init__(self, packet_id: int) -> None:
        super().__init__(f"channel never issued packet id {packet_id}")
        self.packet_id = packet_id


class CodecError(ReproError):
    """A packet could not be encoded to, or decoded from, its wire format."""


class AxiomViolationError(ReproError):
    """An execution violated one of the environment axioms (Axioms 1-3).

    The correctness conditions of Section 2.6 are only guaranteed for
    executions that respect the axioms; the simulator raises this error
    eagerly instead of producing a trace the theorems say nothing about.
    """


class TraceRetentionError(ReproError):
    """A query needed events a trace's retention mode discarded.

    Raised when e.g. ``of_type`` or ``indexes_of`` is called on a
    trace recorded with ``retain="tail"`` or ``retain="none"`` — the
    counters still answer ``count``-style queries, but the events
    themselves are gone by design.  Re-run with ``retain="full"`` (or use
    the streaming checkers, which never need retained events).
    """


class CheckFailure(ReproError):
    """A correctness condition of Section 2.6 failed on a recorded trace.

    Raised by the checkers in :mod:`repro.checkers` when ``strict=True``.
    Carries the human-readable diagnosis produced by the checker.
    """

    def __init__(self, condition: str, detail: str) -> None:
        super().__init__(f"{condition} violated: {detail}")
        self.condition = condition
        self.detail = detail


class SimulationError(ReproError):
    """The simulation harness reached an inconsistent internal state."""


class ConfigurationError(ReproError):
    """A component was constructed with invalid parameters."""
