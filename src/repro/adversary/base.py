"""Adversary interface (Section 2.4) and the move vocabulary.

The adversary is the *only* source of indeterminism in ``D(A, ADV)``: it
decides which packets are delivered, when, how many times, and when the
stations crash.  Its entire view of the system is the stream of
``new_pkt(id, length)`` announcements — it is structurally oblivious to
packet contents, which is the paper's one restriction on malice
(Section 2.5).

The simulator drives the adversary turn-by-turn: it forwards every
:class:`~repro.channel.PacketInfo` via :meth:`Adversary.on_new_pkt` and
repeatedly asks :meth:`Adversary.next_move` for one of the moves defined
here.  Fairness (Axiom 3) and the infinitely-recurring RETRY assumption are
imposed by the harness (see :mod:`repro.adversary.fairness`), mirroring the
paper's treatment of them as *restrictions on the adversary*, not
capabilities of the channel.
"""

from __future__ import annotations

import sys
from abc import ABC, abstractmethod
from dataclasses import dataclass
from typing import Dict, Optional

from repro.channel.channel import PacketInfo
from repro.core.events import ChannelId
from repro.core.exceptions import SimulationError
from repro.core.random_source import RandomSource
from repro.util.hotpath import trusted_constructor

__all__ = [
    "Move",
    "Deliver",
    "CrashTransmitter",
    "CrashReceiver",
    "Corrupt",
    "TriggerRetry",
    "Pass",
    "Adversary",
    "PASS",
    "TRIGGER_RETRY",
    "CRASH_TRANSMITTER",
    "CRASH_RECEIVER",
    "make_deliver",
    "MOVE_PASS",
    "MOVE_CRASH_T",
    "MOVE_CRASH_R",
    "MOVE_DELIVER",
    "MOVE_RETRY",
    "MOVE_CORRUPT",
    "MOVE_KINDS",
    "move_kind",
]

# Moves are produced once per simulation step; slot them where the runtime
# supports it (graceful degradation on Python 3.9).
_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}


@dataclass(frozen=True, **_SLOTS)
class Move:
    """Base class for one adversary decision."""


@dataclass(frozen=True, **_SLOTS)
class Deliver(Move):
    """``deliver_pkt(id)`` on the named channel.

    The same id may be delivered any number of times; delivering an id the
    channel never issued is an adversary bug and raises
    :class:`~repro.core.exceptions.UnknownPacketError`.
    """

    channel: ChannelId
    packet_id: int


@dataclass(frozen=True, **_SLOTS)
class CrashTransmitter(Move):
    """``crash^T``: wipe the transmitting station's memory."""


@dataclass(frozen=True, **_SLOTS)
class CrashReceiver(Move):
    """``crash^R``: wipe the receiving station's memory."""


@dataclass(frozen=True, **_SLOTS)
class Corrupt(Move):
    """Scramble a station's volatile memory to an arbitrary configuration.

    The arbitrary-state fault of the self-stabilization literature: where a
    crash wipes to a *known* blank, a corruption XORs live nonces with
    adversarial masks and randomizes counters in place.  ``fields`` is None
    for "every volatile field" or a tuple of field names; ``seed`` pins the
    scramble tape independently of the adversary's own tape, so recorded
    corruptions replay bit-identically.  ``wipe=True`` degrades the move to
    the station's crash transition — the differential hook pinning
    crash-amnesia as corruption's known-blank special case.
    """

    station: str  # "T" or "R"
    fields: Optional[tuple] = None
    seed: int = 0
    wipe: bool = False


@dataclass(frozen=True, **_SLOTS)
class TriggerRetry(Move):
    """Schedule the receiver's internal RETRY action now.

    RETRY is not an adversary action in the model — it is an internal action
    assumed to recur forever — but its *interleaving* with deliveries is
    part of the worst-case schedule, so adversaries may position it.  The
    harness additionally forces a RETRY periodically regardless, so an
    adversary cannot starve the assumption away.
    """


@dataclass(frozen=True, **_SLOTS)
class Pass(Move):
    """Do nothing this turn (the harness may force progress instead)."""


#: Interned instances of the field-less moves.  Equal (``==``) to any other
#: instance of their class; adversaries return them instead of allocating a
#: fresh move every turn.
PASS = Pass()
TRIGGER_RETRY = TriggerRetry()
CRASH_TRANSMITTER = CrashTransmitter()
CRASH_RECEIVER = CrashReceiver()

#: Trusted fast constructor for the one hot move that carries fields
#: (positional: channel, packet_id).
make_deliver = trusted_constructor(Deliver, "channel", "packet_id")

#: Move kinds: what both engines execute a move as.  Pass and the two
#: crashes double as the kernel's crash codes (0 none, 1 crash^T,
#: 2 crash^R).
MOVE_PASS = 0
MOVE_CRASH_T = 1
MOVE_CRASH_R = 2
MOVE_DELIVER = 3
MOVE_RETRY = 4
MOVE_CORRUPT = 5

#: The move classes in resolution order: a Move subclass takes the kind of
#: the first class here it subclasses.
MOVE_KINDS = (
    (Deliver, MOVE_DELIVER),
    (CrashTransmitter, MOVE_CRASH_T),
    (CrashReceiver, MOVE_CRASH_R),
    (Corrupt, MOVE_CORRUPT),
    (TriggerRetry, MOVE_RETRY),
    (Pass, MOVE_PASS),
)


def move_kind(kinds: Dict[type, int], move: Move) -> int:
    """Resolve the kind of ``move``'s class and cache it in ``kinds``.

    Raises :class:`~repro.core.exceptions.SimulationError` for a move no
    engine can execute.
    """
    move_type = type(move)
    for cls, kind in MOVE_KINDS:
        if issubclass(move_type, cls):
            kinds[move_type] = kind
            return kind
    raise SimulationError(f"adversary produced unknown move {move!r}")


class Adversary(ABC):
    """Base class for adversarial schedules.

    Subclasses receive ``new_pkt`` announcements and emit moves.  They must
    not touch packet contents — the API never exposes any.

    The life cycle is: construct → :meth:`bind` (receives the experiment's
    random tape) → interleaved :meth:`on_new_pkt` / :meth:`next_move` calls
    until the simulation ends.
    """

    def __init__(self) -> None:
        self._rng: Optional[RandomSource] = None
        self._moves_made = 0

    def bind(self, rng: RandomSource) -> None:
        """Attach the adversary's private random tape (called by the harness)."""
        self._rng = rng

    @property
    def rng(self) -> RandomSource:
        """The bound random tape; raises if the harness never bound one."""
        if self._rng is None:
            raise RuntimeError(f"{type(self).__name__} was never bound to a tape")
        return self._rng

    @property
    def moves_made(self) -> int:
        """How many moves this adversary has produced so far."""
        return self._moves_made

    def on_new_pkt(self, info: PacketInfo) -> None:
        """Observe a ``new_pkt(id, length)`` announcement (default: ignore)."""

    def next_move(self) -> Move:
        """Produce the next move.  Subclasses implement :meth:`_decide`."""
        self._moves_made += 1
        return self._decide()

    @abstractmethod
    def _decide(self) -> Move:
        """Return the adversary's next move."""

    def describe(self) -> str:
        """Short human-readable label for experiment tables."""
        return type(self).__name__

    def __repr__(self) -> str:
        return f"{type(self).__name__}(moves={self._moves_made})"
