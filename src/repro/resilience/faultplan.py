"""Declarative, replayable fault schedules for campaign runs.

A :class:`FaultPlan` is a JSON-serializable script of fault events — crash
this station at step N, drop every packet announced in a window, duplicate
a burst of recent traffic, stall the schedule.  :class:`FaultSchedule`
files a plan's events by kind, once, for every harness that reads plans:
:class:`ScriptedAdversary` (a deterministic adversary for the simulator),
the live chaos proxy and the relay fabric.  Scripted schedules give the
campaign engine record-and-replay fault injection: the exact schedule
that produced a failure is archived next to the trace and can be re-run
(or shrunk, see :mod:`repro.resilience.shrink`) bit-for-bit.

Two event kinds exist purely to harden the *harness* rather than the
protocol: :class:`HangAt` (the adversary stops returning — caught by the
supervisor's per-run wall-clock timeout) and :class:`AbortAt` (the run
dies mid-flight; with ``hard=True`` the whole worker process exits, which
is how the supervisor's worker-crash isolation is exercised end to end).

Events carry an optional ``run`` selector so one plan can script different
faults for different runs of a campaign (``None`` applies to every run);
:meth:`FaultPlan.for_run` projects the plan onto one run index.

``ScriptedAdversary`` composes with the existing adversary zoo: give it an
``inner`` adversary and the scripted events overlay the inner schedule
(drops intercept announcements before the inner adversary sees them;
crashes, stalls and bursts pre-empt the inner move).
"""

from __future__ import annotations

import json
import os
import time
from dataclasses import dataclass, fields, replace
from typing import Dict, Iterable, List, Optional, Set, Tuple, Type

from repro.adversary.base import (
    CRASH_RECEIVER,
    CRASH_TRANSMITTER,
    PASS,
    Adversary,
    Corrupt,
    Move,
    make_deliver,
)
from repro.channel.channel import PacketInfo
from repro.core.events import ChannelId
from repro.core.receiver import Receiver
from repro.core.transmitter import Transmitter

__all__ = [
    "FaultInjectionAbort",
    "FaultEvent",
    "CrashAt",
    "CorruptAt",
    "DropWindow",
    "DuplicateBurst",
    "StallWindow",
    "HangAt",
    "AbortAt",
    "TopologyEvent",
    "LinkDownWindow",
    "LinkUpWindow",
    "RelayCrashAt",
    "RouteFlapAt",
    "FaultPlan",
    "FaultSchedule",
    "ScriptedAdversary",
    "apply_fault_plan",
    "enable_hard_aborts",
]


class FaultInjectionAbort(RuntimeError):
    """A scripted :class:`AbortAt` event fired (soft form)."""


# Hard aborts (os._exit) are only honoured inside supervisor worker
# processes; anywhere else they degrade to the soft (exception) form so a
# stray plan cannot kill a test runner or an interactive session.
_HARD_ABORTS_ENABLED = False


def enable_hard_aborts(enabled: bool) -> None:
    """Allow ``AbortAt(hard=True)`` to terminate this process (workers only)."""
    global _HARD_ABORTS_ENABLED
    _HARD_ABORTS_ENABLED = bool(enabled)


_CHANNEL_VALUES = tuple(c.value for c in ChannelId)


@dataclass(frozen=True)
class FaultEvent:
    """Base class: one scripted fault.  ``kind`` keys the JSON encoding."""

    kind = ""  # overridden per subclass (class attribute, not a field)

    def to_dict(self) -> dict:
        data = {"kind": type(self).kind}
        for f in fields(self):
            value = getattr(self, f.name)
            if value is not None:
                data[f.name] = value
        return data

    def shrink_candidates(self) -> Tuple["FaultEvent", ...]:
        """Strictly simpler variants of this event (for the minimizer)."""
        return ()

    def _check_step(self, step: int) -> None:
        if step < 1:
            raise ValueError(f"{type(self).kind} step must be >= 1, got {step}")

    def _check_window(self, start: int, end: int) -> None:
        if start < 1 or end < start:
            raise ValueError(
                f"{type(self).kind} window must satisfy 1 <= start <= end, "
                f"got [{start}, {end}]"
            )


@dataclass(frozen=True)
class CrashAt(FaultEvent):
    """Crash one station at an exact adversary turn."""

    kind = "crash"

    step: int
    station: str  # "T" or "R"
    run: Optional[int] = None

    def __post_init__(self) -> None:
        self._check_step(self.step)
        if self.station not in ("T", "R"):
            raise ValueError(f"station must be 'T' or 'R', got {self.station!r}")


def _corruptible_fields(station: str) -> Tuple[str, ...]:
    return (
        Transmitter.CORRUPTIBLE_FIELDS
        if station == "T"
        else Receiver.CORRUPTIBLE_FIELDS
    )


@dataclass(frozen=True)
class CorruptAt(FaultEvent):
    """Scramble one station's volatile memory at an exact adversary turn.

    The arbitrary-state fault: ``fields`` restricts the scramble to named
    volatile slots (None = every corruptible field; see the stations'
    ``CORRUPTIBLE_FIELDS``), ``seed`` pins the scramble tape so a recorded
    corruption replays bit-identically, and ``mode="wipe"`` degrades the
    event to the station's crash transition — :class:`FaultSchedule` files
    it as the crash a :class:`CrashAt` is, so wipe-mode corruption and
    crash are trace-identical by construction.
    """

    kind = "corrupt"

    step: int
    station: str  # "T" or "R"
    fields: Optional[Tuple[str, ...]] = None
    seed: int = 0
    mode: str = "scramble"
    run: Optional[int] = None

    def __post_init__(self) -> None:
        self._check_step(self.step)
        if self.station not in ("T", "R"):
            raise ValueError(f"station must be 'T' or 'R', got {self.station!r}")
        if self.mode not in ("scramble", "wipe"):
            raise ValueError(
                f"corrupt mode must be 'scramble' or 'wipe', got {self.mode!r}"
            )
        if isinstance(self.seed, bool) or not isinstance(self.seed, int) or self.seed < 0:
            raise ValueError(
                f"corrupt seed must be a non-negative integer, got {self.seed!r}"
            )
        if self.fields is not None:
            object.__setattr__(self, "fields", tuple(self.fields))
            if not self.fields:
                raise ValueError(
                    "corrupt fields must be omitted (all fields) or non-empty"
                )
            valid = _corruptible_fields(self.station)
            unknown = [name for name in self.fields if name not in valid]
            if unknown:
                raise ValueError(
                    f"corrupt fields {sorted(unknown)} unknown for station "
                    f"{self.station!r} (corruptible: {', '.join(valid)})"
                )

    def shrink_candidates(self) -> Tuple[FaultEvent, ...]:
        candidates: List[FaultEvent] = []
        if self.mode == "scramble":
            # A wipe (= crash) is the strictly simpler fault.
            candidates.append(replace(self, mode="wipe", fields=None))
            fields = (
                self.fields if self.fields is not None
                else _corruptible_fields(self.station)
            )
            if len(fields) > 1:
                half = len(fields) // 2
                candidates.append(replace(self, fields=tuple(fields[:half])))
                candidates.append(replace(self, fields=tuple(fields[half:])))
        return tuple(candidates)


@dataclass(frozen=True)
class DropWindow(FaultEvent):
    """Silently drop every packet announced during turns [start, end].

    ``channel`` restricts the drop to one direction (``"T->R"`` or
    ``"R->T"``); ``None`` drops both.
    """

    kind = "drop"

    start: int
    end: int
    channel: Optional[str] = None
    run: Optional[int] = None

    def __post_init__(self) -> None:
        self._check_window(self.start, self.end)
        if self.channel is not None and self.channel not in _CHANNEL_VALUES:
            raise ValueError(
                f"channel must be one of {_CHANNEL_VALUES} or None, "
                f"got {self.channel!r}"
            )

    def shrink_candidates(self) -> Tuple[FaultEvent, ...]:
        width = self.end - self.start
        if width == 0:
            return ()
        return (replace(self, end=self.start + width // 2),)


@dataclass(frozen=True)
class DuplicateBurst(FaultEvent):
    """Re-deliver the packet announced most recently before ``step``.

    ``copies`` extra deliveries are scheduled at turns ``step``,
    ``step + spacing``, ``step + 2*spacing``, ...  With ``spacing=1`` the
    copies drain back-to-back inside the handshake they came from, where a
    correct receiver shrugs them off as retransmissions; larger spacings
    let the tail of the burst land in *later* handshakes, turning the
    copies into genuine replays (the Section 3 threat).
    """

    kind = "duplicate"

    step: int
    copies: int = 2
    spacing: int = 1
    run: Optional[int] = None

    def __post_init__(self) -> None:
        self._check_step(self.step)
        if self.copies < 1:
            raise ValueError(f"copies must be >= 1, got {self.copies}")
        if self.spacing < 1:
            raise ValueError(f"spacing must be >= 1, got {self.spacing}")

    def shrink_candidates(self) -> Tuple[FaultEvent, ...]:
        candidates = []
        if self.copies > 1:
            candidates.append(replace(self, copies=self.copies // 2))
        if self.spacing > 1:
            candidates.append(replace(self, spacing=max(1, self.spacing // 2)))
        return tuple(candidates)


@dataclass(frozen=True)
class StallWindow(FaultEvent):
    """Deliver nothing during turns [start, end] (the schedule goes quiet).

    Note the harness-level :class:`~repro.adversary.FairnessEnforcer` will
    override long stalls unless the run disables fairness or its patience
    exceeds the window.
    """

    kind = "stall"

    start: int
    end: int
    run: Optional[int] = None

    def __post_init__(self) -> None:
        self._check_window(self.start, self.end)

    def shrink_candidates(self) -> Tuple[FaultEvent, ...]:
        width = self.end - self.start
        if width == 0:
            return ()
        return (replace(self, end=self.start + width // 2),)


@dataclass(frozen=True)
class HangAt(FaultEvent):
    """The adversary stops returning at one turn (a hung worker).

    With ``seconds=None`` it sleeps until the supervisor's wall-clock
    watchdog interrupts it; a finite ``seconds`` resumes afterwards
    (a long stall in wall-clock rather than turn units).
    """

    kind = "hang"

    step: int
    seconds: Optional[float] = None
    run: Optional[int] = None

    def __post_init__(self) -> None:
        self._check_step(self.step)
        if self.seconds is not None and self.seconds < 0:
            raise ValueError(f"seconds must be >= 0, got {self.seconds}")


@dataclass(frozen=True)
class AbortAt(FaultEvent):
    """Kill the run at one turn.

    ``hard=False`` raises :class:`FaultInjectionAbort` (an in-run crash —
    terminal status ``crashed``).  ``hard=True`` exits the whole worker
    process, exercising the supervisor's broken-pool recovery; outside a
    worker it degrades to the soft form.
    """

    kind = "abort"

    step: int
    hard: bool = False
    run: Optional[int] = None

    def __post_init__(self) -> None:
        self._check_step(self.step)


def _normalize_node(node):
    """Canonical node label: JSON lists become tuples (mesh coordinates)."""
    if isinstance(node, (list, tuple)):
        return tuple(_normalize_node(part) for part in node)
    return node


@dataclass(frozen=True)
class TopologyEvent(FaultEvent):
    """Base class: a fault aimed at the relay fabric's *topology*.

    Topology events act on the network graph a multi-hop fabric run is
    routed over (links partitioning and healing, relay nodes crashing with
    amnesia, routes flapping) rather than on one protocol station.  They
    are interpreted by the fabric driver
    (:class:`repro.transport.fabric.FabricSpec`); compiling one into a
    single-link :class:`ScriptedAdversary` is a configuration error —
    a plain campaign has no topology to act on.
    """

    def _check_link(self, link) -> Tuple[object, object]:
        if not isinstance(link, (list, tuple)) or len(link) != 2:
            raise ValueError(
                f"{type(self).kind} link must be a [node, node] pair, "
                f"got {link!r}"
            )
        a, b = (_normalize_node(end) for end in link)
        if a == b:
            raise ValueError(f"{type(self).kind} link endpoints must differ")
        return (a, b)


@dataclass(frozen=True)
class LinkDownWindow(TopologyEvent):
    """Force one link down during fabric ticks [start, end] (partition).

    The link heals (returns to its own Markov dynamics) after ``end`` —
    one event scripts a partition *and* its heal, the topology analogue of
    :class:`DropWindow`.  Per-link protocol retransmission recovers the
    in-flight traffic after the heal; the end-to-end monitor verdict must
    converge back to clean.
    """

    kind = "link_down"

    start: int
    end: int
    link: Tuple[object, object]
    run: Optional[int] = None

    def __post_init__(self) -> None:
        self._check_window(self.start, self.end)
        object.__setattr__(self, "link", self._check_link(self.link))

    def shrink_candidates(self) -> Tuple[FaultEvent, ...]:
        width = self.end - self.start
        if width == 0:
            return ()
        return (replace(self, end=self.start + width // 2),)


@dataclass(frozen=True)
class LinkUpWindow(TopologyEvent):
    """Force one link up during fabric ticks [start, end] (scripted heal).

    Overrides the link's Markov failure process for the window — the tool
    for pinning a deterministic heal inside an otherwise lossy topology.
    """

    kind = "link_up"

    start: int
    end: int
    link: Tuple[object, object]
    run: Optional[int] = None

    def __post_init__(self) -> None:
        self._check_window(self.start, self.end)
        object.__setattr__(self, "link", self._check_link(self.link))

    def shrink_candidates(self) -> Tuple[FaultEvent, ...]:
        width = self.end - self.start
        if width == 0:
            return ()
        return (replace(self, end=self.start + width // 2),)


@dataclass(frozen=True)
class RelayCrashAt(TopologyEvent):
    """Crash one relay node with amnesia at an exact fabric tick.

    The relay's store-and-forward queue is wiped and both stations of
    every link instance adjacent to the node take their crash transition
    (the same amnesia semantics as ``crash^T``/``crash^R`` on a single
    link).  Crashing the fabric's source or destination endpoint is
    rejected at interpretation time — those are the protocol's own
    stations, scripted via :class:`CrashAt` on a single link.
    """

    kind = "relay_crash"

    step: int
    node: object
    run: Optional[int] = None

    def __post_init__(self) -> None:
        self._check_step(self.step)
        object.__setattr__(self, "node", _normalize_node(self.node))


@dataclass(frozen=True)
class RouteFlapAt(TopologyEvent):
    """Force the fabric's route to recompute at an exact fabric tick.

    No link changes state — the event models control-plane churn: the
    routing layer discards its cached path and re-derives it from the
    live topology, surfacing in the fabric's ``reroutes`` counter.
    """

    kind = "route_flap"

    step: int
    run: Optional[int] = None

    def __post_init__(self) -> None:
        self._check_step(self.step)


_EVENT_TYPES: Dict[str, Type[FaultEvent]] = {
    cls.kind: cls
    for cls in (
        CrashAt,
        CorruptAt,
        DropWindow,
        DuplicateBurst,
        StallWindow,
        HangAt,
        AbortAt,
        LinkDownWindow,
        LinkUpWindow,
        RelayCrashAt,
        RouteFlapAt,
    )
}


def event_from_dict(data: dict) -> FaultEvent:
    """Decode one event from its ``to_dict`` form."""
    if not isinstance(data, dict) or "kind" not in data:
        raise ValueError(f"malformed fault event record: {data!r}")
    kind = data["kind"]
    cls = _EVENT_TYPES.get(kind)
    if cls is None:
        raise ValueError(
            f"unknown fault event kind {kind!r} (known: {sorted(_EVENT_TYPES)})"
        )
    allowed = {f.name for f in fields(cls)}
    attrs = {k: v for k, v in data.items() if k != "kind"}
    unknown = set(attrs) - allowed
    if unknown:
        raise ValueError(f"fault event {kind!r} has unknown fields {sorted(unknown)}")
    return cls(**attrs)


@dataclass(frozen=True)
class FaultPlan:
    """An ordered, immutable script of fault events plus a label."""

    events: Tuple[FaultEvent, ...] = ()
    label: str = ""

    @classmethod
    def of(cls, *events: FaultEvent, label: str = "") -> "FaultPlan":
        return cls(events=tuple(events), label=label)

    @property
    def is_empty(self) -> bool:
        return not self.events

    @property
    def wants_stabilization(self) -> bool:
        """True iff the plan scrambles a station (a wipe is a crash)."""
        return bool(FaultSchedule(self.events).scrambles)

    def for_run(self, run_index: int) -> "FaultPlan":
        """Project the plan onto one campaign run (keeps unselective events)."""
        return FaultPlan(
            events=tuple(
                e for e in self.events if e.run is None or e.run == run_index
            ),
            label=self.label,
        )

    def without_event(self, index: int) -> "FaultPlan":
        """A copy with one event removed (for the minimizer)."""
        return FaultPlan(
            events=self.events[:index] + self.events[index + 1:], label=self.label
        )

    def replace_event(self, index: int, event: FaultEvent) -> "FaultPlan":
        """A copy with one event substituted (for the minimizer)."""
        return FaultPlan(
            events=self.events[:index] + (event,) + self.events[index + 1:],
            label=self.label,
        )

    # -- (de)serialization ---------------------------------------------------------

    def to_dict(self) -> dict:
        return {
            "version": 1,
            "label": self.label,
            "events": [e.to_dict() for e in self.events],
        }

    @classmethod
    def from_dict(cls, data: dict) -> "FaultPlan":
        if not isinstance(data, dict) or "events" not in data:
            raise ValueError("a fault plan needs an 'events' list")
        version = data.get("version", 1)
        if version != 1:
            raise ValueError(f"unsupported fault plan version {version!r}")
        return cls(
            events=tuple(event_from_dict(e) for e in data["events"]),
            label=str(data.get("label", "")),
        )

    def to_json(self, indent: int = 2) -> str:
        return json.dumps(self.to_dict(), indent=indent, sort_keys=True)

    @classmethod
    def from_json(cls, text: str) -> "FaultPlan":
        return cls.from_dict(json.loads(text))

    def save(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as stream:
            stream.write(self.to_json())
            stream.write("\n")

    @classmethod
    def load(cls, path: str) -> "FaultPlan":
        with open(path, "r", encoding="utf-8") as stream:
            return cls.from_json(stream.read())


class FaultSchedule:
    """A fault plan filed by kind: the one reading every harness shares.

    :class:`ScriptedAdversary`, the live chaos proxy and the relay fabric
    each build a schedule from the events they are given and consume it,
    popping turn-table entries as they fire.  Turn tables map a turn (an
    adversary move, a proxy-observed datagram or a fabric tick) to its
    events in plan order.  A wipe-mode :class:`CorruptAt` is filed in
    ``crashes`` as the crash it is, so wipe ≡ crash holds on every harness
    by construction.
    """

    def __init__(self, events: Iterable[FaultEvent]) -> None:
        # Station events by turn (the crash table holds station names, the
        # others the events themselves), then the drop and stall windows.
        self.crashes: Dict[int, List[str]] = {}
        self.scrambles: Dict[int, List[CorruptAt]] = {}
        self.bursts: Dict[int, List[DuplicateBurst]] = {}
        self.hangs: Dict[int, List[HangAt]] = {}
        self.aborts: Dict[int, List[AbortAt]] = {}
        self.drops: List[DropWindow] = []
        self.stalls: List[StallWindow] = []
        # Topology events, by fabric tick: nodes to crash, ticks to flap.
        self.down_windows: List[LinkDownWindow] = []
        self.up_windows: List[LinkUpWindow] = []
        self.relay_crashes: Dict[int, List[object]] = {}
        self.flaps: Set[int] = set()
        # The plan split by the harness it targets, in plan order.
        self.station_events: List[FaultEvent] = []
        self.topology_events: List[TopologyEvent] = []
        first = last = None
        for event in events:
            if isinstance(event, TopologyEvent):
                self.topology_events.append(event)
                if isinstance(event, LinkDownWindow):
                    self.down_windows.append(event)
                elif isinstance(event, LinkUpWindow):
                    self.up_windows.append(event)
                elif isinstance(event, RelayCrashAt):
                    self.relay_crashes.setdefault(event.step, []).append(event.node)
                else:
                    self.flaps.add(event.step)
                continue
            self.station_events.append(event)
            if isinstance(event, (DropWindow, StallWindow)):
                windows = self.drops if isinstance(event, DropWindow) else self.stalls
                windows.append(event)
                lo, hi = event.start, event.end
            else:
                entry = event
                if isinstance(event, CrashAt) or (
                    isinstance(event, CorruptAt) and event.mode == "wipe"
                ):
                    table, entry = self.crashes, event.station
                elif isinstance(event, CorruptAt):
                    table = self.scrambles
                elif isinstance(event, DuplicateBurst):
                    table = self.bursts
                elif isinstance(event, HangAt):
                    table = self.hangs
                else:
                    table = self.aborts
                table.setdefault(event.step, []).append(entry)
                lo = hi = event.step
            first = lo if first is None else min(first, lo)
            last = hi if last is None else max(last, hi)
        #: The station events' turn span, ``[first_turn, last_turn]``;
        #: empty, ``(1, 0)``, when the plan has none.
        self.first_turn, self.last_turn = (1, 0) if first is None else (first, last)

    def dropped(self, turn: int, channel: ChannelId) -> bool:
        """Does a drop window swallow ``channel``'s traffic at ``turn``?"""
        for window in self.drops:
            if window.start <= turn <= window.end and (
                window.channel is None or window.channel == channel.value
            ):
                return True
        return False

    def stalled(self, turn: int) -> bool:
        """Does a stall window cover ``turn``?"""
        return any(w.start <= turn <= w.end for w in self.stalls)


def _pop_due(table: Dict[int, list], turn: int):
    """Pop the first entry filed at or before ``turn`` (None if none is due).

    Entries leave in turn order and, within a turn, in plan order, so
    events that share a turn fire on successive moves.
    """
    if table:
        due = min(table)
        if due <= turn:
            entries = table[due]
            entry = entries.pop(0)
            if not entries:
                del table[due]
            return entry
    return None


class ScriptedAdversary(Adversary):
    """Deterministic adversary compiled from a :class:`FaultPlan`.

    Turn numbers are 1-based counts of this adversary's own moves.  With no
    ``inner`` adversary the baseline schedule is benign FIFO delivery;
    with one, the inner adversary supplies the baseline schedule and the
    scripted events overlay it.  An event fires on its turn; one whose turn
    another event took fires on the next move.
    """

    def __init__(self, plan: FaultPlan, inner: Optional[Adversary] = None) -> None:
        super().__init__()
        self.plan = plan
        self.inner = inner
        self._schedule = FaultSchedule(plan.events)
        if self._schedule.topology_events:
            raise ValueError(
                f"fault event {self._schedule.topology_events[0].kind!r} "
                "targets the network topology; it needs a relay-fabric run "
                "(repro campaign --topology), not a single-link adversary"
            )
        self._queue: List[PacketInfo] = []  # own FIFO when inner is None
        # Duplicate-burst copies waiting for their (turn, packet) due date.
        self._redeliver: List[Tuple[int, PacketInfo]] = []
        self._last_announced: Optional[PacketInfo] = None
        self.dropped = 0
        self.duplicated = 0

    def bind(self, rng) -> None:
        super().bind(rng)
        if self.inner is not None:
            self.inner.bind(rng.fork("scripted-inner"))

    # -- announcements -------------------------------------------------------------

    def on_new_pkt(self, info: PacketInfo) -> None:
        # Announcements land between moves; they belong to the upcoming turn.
        if self._schedule.dropped(self.moves_made + 1, info.channel):
            self.dropped += 1
            return
        self._last_announced = info
        if self.inner is not None:
            self.inner.on_new_pkt(info)
        else:
            self._queue.append(info)

    # -- moves ---------------------------------------------------------------------

    def _decide(self) -> Move:
        turn = self.moves_made
        schedule = self._schedule
        abort = _pop_due(schedule.aborts, turn)
        if abort is not None:
            if abort.hard and _HARD_ABORTS_ENABLED:
                os._exit(86)
            raise FaultInjectionAbort(f"scripted abort at turn {turn}")
        hang = _pop_due(schedule.hangs, turn)
        if hang is not None:
            if hang.seconds is None:
                while True:  # until the supervisor's watchdog interrupts
                    time.sleep(0.05)
            time.sleep(hang.seconds)
            return PASS
        station = _pop_due(schedule.crashes, turn)
        if station is not None:
            return CRASH_TRANSMITTER if station == "T" else CRASH_RECEIVER
        scramble = _pop_due(schedule.scrambles, turn)
        if scramble is not None:
            return Corrupt(
                station=scramble.station, fields=scramble.fields, seed=scramble.seed
            )
        # Bursts take no move of their own: every due one is filed now.
        burst = _pop_due(schedule.bursts, turn)
        while burst is not None:
            if self._last_announced is not None:
                self._redeliver.extend(
                    (turn + k * burst.spacing, self._last_announced)
                    for k in range(burst.copies)
                )
                self.duplicated += burst.copies
            burst = _pop_due(schedule.bursts, turn)
        if schedule.stalled(turn):
            return PASS
        due = next(
            (i for i, (when, _) in enumerate(self._redeliver) if when <= turn), None
        )
        if due is not None:
            _, info = self._redeliver.pop(due)
            return make_deliver(info.channel, info.packet_id)
        if self.inner is not None:
            return self.inner.next_move()
        if self._queue:
            info = self._queue.pop(0)
            return make_deliver(info.channel, info.packet_id)
        return PASS

    def describe(self) -> str:
        inner = f", inner={self.inner.describe()}" if self.inner else ""
        label = f" {self.plan.label!r}" if self.plan.label else ""
        return f"scripted({len(self.plan.events)} events{label}{inner})"


def apply_fault_plan(spec, plan: FaultPlan, run_index: int = 0):
    """A copy of ``spec`` whose adversary is wrapped in the run's script.

    The spec's own adversary becomes the inner (baseline) schedule unless
    the plan leaves no events for this run, in which case the spec is
    returned unchanged.
    """
    projected = plan.for_run(run_index)
    if projected.is_empty:
        return spec
    base_factory = spec.adversary_factory
    return replace(
        spec,
        adversary_factory=lambda: ScriptedAdversary(projected, inner=base_factory()),
    )
