"""Recorded executions of ``D(A, ADV)``.

A :class:`Trace` is the concrete form of the paper's *execution*: the
ordered sequence of external actions, as defined in Section 2 via the I/O
automata model.  The checkers evaluate the Section 2.6 correctness
conditions on traces, and the metrics pipeline summarises them, so the
trace API provides exactly the projections those consumers need (message
events, crash boundaries, per-message segments).

The trace is also the simulator's hottest data structure, so recording is
engineered accordingly:

* ``append`` maintains **per-type counters and index lists** online, so
  ``count``/``indexes_of``/``of_type`` answer from the indexes instead of
  rescanning the event list, and ``message_outcomes`` is a memoized single
  pass (invalidated by the next append);
* a **retention mode** (``retain="full" | "tail" | "none"``) bounds what
  the trace keeps: ``"full"`` stores every event (the default, and what the
  batch checkers need), ``"tail"`` keeps only a fixed-size forensic ring
  buffer of the most recent events, and ``"none"`` keeps counters only.
  Campaigns use ``"none"``/``"tail"`` with the streaming checkers to run
  verdict-only at a fraction of the memory;
* **observers** (:meth:`subscribe`) receive each event at append time with
  an optional type filter — this is how :class:`StreamingChecks` rides the
  recording pass — and :meth:`wants`/:meth:`tally` let the recording layer
  skip allocating event objects nobody would ever see.

Queries that need discarded events raise
:class:`~repro.core.exceptions.TraceRetentionError` rather than silently
answering from partial data.
"""

from __future__ import annotations

import heapq
from collections import deque
from dataclasses import dataclass
from typing import (
    Callable,
    Deque,
    Dict,
    Iterable,
    Iterator,
    List,
    Optional,
    Sequence,
    Tuple,
    Type,
    TypeVar,
    Union,
)

from repro.core.events import (
    CrashR,
    CrashT,
    Event,
    Ok,
    PktDelivered,
    PktSent,
    ReceiveMsg,
    Retry,
    SendMsg,
)
from repro.core.exceptions import ConfigurationError, TraceRetentionError

__all__ = ["Trace", "MessageOutcome", "EventsView", "RETENTION_MODES"]

E = TypeVar("E", bound=Event)

Observer = Callable[[int, Event], None]

#: The valid ``retain=`` arguments, in decreasing order of memory appetite.
RETENTION_MODES = ("full", "tail", "none")


@dataclass(frozen=True)
class MessageOutcome:
    """What ultimately happened to one ``send_msg`` (for metrics & checks).

    ``resolution`` is one of ``"ok"`` (an OK followed), ``"crash"``
    (a crash^T intervened before any OK), or ``"pending"`` (the execution
    ended mid-handshake).
    """

    message: bytes
    send_index: int
    resolution: str
    resolution_index: Optional[int]
    delivered_before_resolution: bool


class EventsView(Sequence):
    """Read-only sequence view over a trace's retained events.

    Supports everything a caller legitimately did with the old raw list —
    ``len``, indexing/slicing, iteration, ``==`` against lists/tuples —
    but no mutation, so the trace's online counters can never be
    desynchronised from the event storage.
    """

    __slots__ = ("_events",)

    def __init__(self, events: Sequence[Event]) -> None:
        self._events = events

    def __len__(self) -> int:
        return len(self._events)

    def __getitem__(self, index):
        if isinstance(index, slice):
            return tuple(self._events[index])
        return self._events[index]

    def __iter__(self) -> Iterator[Event]:
        return iter(self._events)

    def __eq__(self, other: object) -> bool:
        if isinstance(other, EventsView):
            return list(self._events) == list(other._events)
        if isinstance(other, (list, tuple)):
            return len(self._events) == len(other) and all(
                mine == theirs for mine, theirs in zip(self._events, other)
            )
        return NotImplemented

    __hash__ = None  # view over mutable storage

    def __repr__(self) -> str:
        return f"EventsView({list(self._events)!r})"


class Trace:
    """An append-only execution record with query helpers."""

    def __init__(
        self,
        events: Optional[Sequence[Event]] = None,
        retain: str = "full",
        tail_size: int = 256,
    ) -> None:
        if retain not in RETENTION_MODES:
            raise ConfigurationError(
                f"retain must be one of {RETENTION_MODES}, got {retain!r}"
            )
        if retain == "tail" and tail_size < 1:
            raise ConfigurationError("tail_size must be >= 1")
        self._retain = retain
        self._is_full = retain == "full"
        self._events: List[Event] = []
        self._tail: Optional[Deque[Tuple[int, Event]]] = (
            deque(maxlen=tail_size) if retain == "tail" else None
        )
        self._total = 0
        self._dropped = 0
        # Per-concrete-type counters (all modes) and index lists (full only).
        self._counts: Dict[type, int] = {}
        self._indexes: Dict[type, List[int]] = {}
        # Caches: query type -> matching concrete types (cleared when a new
        # concrete type first appears), concrete type -> observer tuple
        # (cleared on subscribe), and the memoized message_outcomes result
        # (cleared on every append).
        self._query_cache: Dict[type, Tuple[type, ...]] = {}
        self._observers: List[Tuple[Observer, Optional[Tuple[Type[Event], ...]]]] = []
        self._observer_cache: Dict[type, Tuple[Observer, ...]] = {}
        self._outcomes_cache: Optional[Tuple[MessageOutcome, ...]] = None
        if retain == "none":
            # Counters-only recording has no storage branches and nothing to
            # invalidate; shadow append with the lean path.
            self.append = self._append_none  # type: ignore[method-assign]
        if events:
            for event in events:
                self.append(event)

    # -- recording -------------------------------------------------------------

    def append(self, event: Event) -> None:
        """Record the next event of the execution (O(1) amortized)."""
        if not isinstance(event, Event):
            raise TypeError(f"traces hold Event instances, got {type(event).__name__}")
        index = self._total
        self._total = index + 1
        cls = type(event)
        counts = self._counts
        if cls in counts:
            counts[cls] += 1
        else:
            counts[cls] = 1
            self._query_cache.clear()
        if self._is_full:
            self._events.append(event)
            indexes = self._indexes.get(cls)
            if indexes is None:
                self._indexes[cls] = [index]
            else:
                indexes.append(index)
        elif self._tail is not None:
            self._tail.append((index, event))
            if len(self._tail) == self._tail.maxlen:
                self._dropped = index + 1 - len(self._tail)
        else:
            self._dropped = index + 1
        self._outcomes_cache = None
        observers = self._observer_cache.get(cls)
        if observers is None:
            observers = self._resolve_observers(cls)
        for observer in observers:
            observer(index, event)

    def _append_none(self, event: Event) -> None:
        """:meth:`append` specialised for ``retain="none"``: count + notify."""
        if not isinstance(event, Event):
            raise TypeError(f"traces hold Event instances, got {type(event).__name__}")
        index = self._total
        self._total = index + 1
        cls = type(event)
        counts = self._counts
        if cls in counts:
            counts[cls] += 1
        else:
            counts[cls] = 1
            self._query_cache.clear()
        self._dropped = index + 1
        observers = self._observer_cache.get(cls)
        if observers is None:
            observers = self._resolve_observers(cls)
        for observer in observers:
            observer(index, event)

    def reset(self) -> None:
        """Forget the recorded execution, keeping mode and observers.

        After a reset the trace is observationally identical to a freshly
        constructed one with the same ``retain``/``tail_size``, except that
        existing subscriptions survive — that is the point: a simulator
        session re-records into the same trace with the same streaming
        checkers attached, skipping the rebuild of the observer wiring.
        """
        self._events.clear()
        if self._tail is not None:
            self._tail.clear()
        self._total = 0
        self._dropped = 0
        self._counts.clear()
        self._indexes.clear()
        # count()/indexes_of() answer from _counts keys; stale cached type
        # lists would index into cleared dicts.
        self._query_cache.clear()
        self._outcomes_cache = None

    def tally(self, event_type: Type[Event], count: int = 1) -> None:
        """Count ``count`` occurrences of ``event_type`` without storing them.

        Lets the recording layer skip allocating event objects that no
        retention mode or observer would ever see (check :meth:`wants`
        first).  Forbidden under ``retain="full"``, where it would
        desynchronise the counters from the stored events.
        """
        if self._is_full:
            raise TraceRetentionError(
                "tally() on a fully-retained trace would desynchronise its "
                "counters from the stored events; append real events instead"
            )
        if count < 0:
            raise ValueError("count must be non-negative")
        cls = event_type
        if cls in self._counts:
            self._counts[cls] += count
        elif count:
            self._counts[cls] = count
            self._query_cache.clear()
        self._total += count
        self._dropped += count
        self._outcomes_cache = None

    # -- observers -------------------------------------------------------------

    def subscribe(
        self,
        observer: Observer,
        types: Optional[Iterable[Type[Event]]] = None,
    ) -> None:
        """Call ``observer(index, event)`` for every subsequent append.

        ``types`` restricts delivery to events that are instances of any of
        the given types (subclasses included); ``None`` means every event.
        Observers see events the retention mode discards — this is how the
        streaming checkers evaluate executions that are never stored.
        """
        interest = None if types is None else tuple(types)
        self._observers.append((observer, interest))
        self._observer_cache.clear()

    def wants(self, event_type: Type[Event]) -> bool:
        """Would an appended event of this type reach storage or an observer?

        ``False`` (only possible under ``retain="none"`` with no interested
        observer) licenses the recording layer to :meth:`tally` instead of
        allocating and appending a real event.
        """
        if self._retain != "none":
            return True
        observers = self._observer_cache.get(event_type)
        if observers is None:
            observers = self._resolve_observers(event_type)
        return bool(observers)

    def _resolve_observers(self, cls: type) -> Tuple[Observer, ...]:
        resolved = tuple(
            observer
            for observer, interest in self._observers
            if interest is None or issubclass(cls, interest)
        )
        self._observer_cache[cls] = resolved
        return resolved

    # -- retention -------------------------------------------------------------

    @property
    def retention(self) -> str:
        """The trace's retention mode: ``"full"``, ``"tail"`` or ``"none"``."""
        return self._retain

    @property
    def total_events(self) -> int:
        """Events recorded over the whole execution, retained or not."""
        return self._total

    @property
    def dropped_events(self) -> int:
        """Events the retention mode discarded (0 under ``retain="full"``)."""
        return self._dropped

    def tail_events(self) -> List[Tuple[int, Event]]:
        """The retained ``(index, event)`` pairs, oldest first.

        Under ``"full"`` this is the entire execution; under ``"tail"`` the
        forensic ring buffer; under ``"none"`` it is empty.
        """
        if self._retain == "full":
            return list(enumerate(self._events))
        if self._tail is not None:
            return list(self._tail)
        return []

    def _require_full(self, operation: str) -> None:
        if self._retain != "full":
            raise TraceRetentionError(
                f"{operation} needs the full event sequence, but this trace "
                f"was recorded with retain={self._retain!r}"
            )

    # -- generic access ----------------------------------------------------------

    def __len__(self) -> int:
        return self._total

    def __getitem__(self, index):
        self._require_full("indexing")
        return self._events[index]

    def __iter__(self) -> Iterator[Event]:
        self._require_full("iteration")
        return iter(self._events)

    @property
    def events(self) -> "EventsView":
        """The raw event sequence, as an immutable view."""
        self._require_full("the events view")
        return EventsView(self._events)

    def _matching_types(self, event_type: Type[Event]) -> Tuple[type, ...]:
        matching = self._query_cache.get(event_type)
        if matching is None:
            matching = tuple(
                cls for cls in self._counts if issubclass(cls, event_type)
            )
            self._query_cache[event_type] = matching
        return matching

    def of_type(self, event_type: Type[E]) -> List[E]:
        """All events of one type, in execution order."""
        self._require_full("of_type")
        return [self._events[i] for i in self.indexes_of(event_type)]

    def indexes_of(self, event_type: Type[Event]) -> List[int]:
        """Positions of all events of one type."""
        self._require_full("indexes_of")
        lists = [self._indexes[cls] for cls in self._matching_types(event_type)]
        if not lists:
            return []
        if len(lists) == 1:
            return list(lists[0])
        return list(heapq.merge(*lists))

    def count(self, event_type: Type[Event]) -> int:
        """Number of events of one type (from the online counters)."""
        counts = self._counts
        return sum(counts[cls] for cls in self._matching_types(event_type))

    # -- protocol-level projections --------------------------------------------------

    def sent_messages(self) -> List[bytes]:
        """Payloads of every ``send_msg``, in order."""
        return [e.message for e in self.of_type(SendMsg)]

    def received_messages(self) -> List[bytes]:
        """Payloads of every ``receive_msg``, in order."""
        return [e.message for e in self.of_type(ReceiveMsg)]

    def ok_count(self) -> int:
        """Number of OK notifications."""
        return self.count(Ok)

    def crash_count(self) -> int:
        """Total crashes of either station."""
        return self.count(CrashT) + self.count(CrashR)

    def message_outcomes(self) -> List[MessageOutcome]:
        """Resolve every send_msg to ok / crash / pending.

        Axiom 1 guarantees at most one message is in flight, so one forward
        pass with a single open slot suffices.  The result is memoized and
        invalidated by the next append, so repeated consumers (metrics,
        checkers, reports) pay for the pass once.
        """
        self._require_full("message_outcomes")
        cached = self._outcomes_cache
        if cached is not None:
            return list(cached)
        outcomes: List[MessageOutcome] = []
        open_message: Optional[bytes] = None
        open_index = 0
        open_delivered = False

        def close(resolution: str, resolution_index: Optional[int]) -> None:
            outcomes.append(
                MessageOutcome(
                    message=open_message,  # type: ignore[arg-type]
                    send_index=open_index,
                    resolution=resolution,
                    resolution_index=resolution_index,
                    delivered_before_resolution=open_delivered,
                )
            )

        for index, event in enumerate(self._events):
            if isinstance(event, SendMsg):
                if open_message is not None:
                    close("pending", None)  # Axiom 1 forbids this; be defensive
                open_message = event.message
                open_index = index
                open_delivered = False
            elif open_message is None:
                continue
            elif isinstance(event, ReceiveMsg):
                if event.message == open_message:
                    open_delivered = True
            elif isinstance(event, Ok):
                close("ok", index)
                open_message = None
            elif isinstance(event, CrashT):
                close("crash", index)
                open_message = None
        if open_message is not None:
            close("pending", None)
        self._outcomes_cache = tuple(outcomes)
        return outcomes

    def packets_sent(self) -> int:
        """Total send_pkt actions on both channels."""
        return self.count(PktSent)

    def packets_delivered(self) -> int:
        """Total deliver_pkt actions on both channels."""
        return self.count(PktDelivered)

    def retries(self) -> int:
        """Total RETRY internal actions."""
        return self.count(Retry)

    def summary(self) -> str:
        """One-line human-readable digest, useful in failure messages."""
        return (
            f"Trace(events={self._total}, sends={self.count(SendMsg)}, "
            f"oks={self.ok_count()}, delivered={self.count(ReceiveMsg)}, "
            f"crashT={self.count(CrashT)}, crashR={self.count(CrashR)}, "
            f"pkts={self.packets_sent()}/{self.packets_delivered()})"
        )

    def __repr__(self) -> str:
        return self.summary()
