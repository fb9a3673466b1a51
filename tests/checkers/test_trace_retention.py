"""Unit tests for the trace's retention modes and tallies."""

from __future__ import annotations

import pytest

from repro.checkers.trace import RETENTION_MODES, Trace
from repro.core.events import (
    ChannelId,
    CrashR,
    Event,
    Ok,
    PktDelivered,
    PktSent,
    ReceiveMsg,
    Retry,
    SendMsg,
)
from repro.core.exceptions import ConfigurationError, TraceRetentionError


def handshake_events(n: int):
    events = []
    for i in range(n):
        message = b"m%d" % i
        events += [
            SendMsg(message=message),
            PktSent(channel=ChannelId.T_TO_R, packet_id=i, length_bits=64),
            PktDelivered(channel=ChannelId.T_TO_R, packet_id=i),
            ReceiveMsg(message=message),
            Ok(),
        ]
    return events


# -- construction ------------------------------------------------------------


def test_retention_modes_constant_matches_validation():
    for mode in RETENTION_MODES:
        assert Trace(retain=mode).retention == mode
    with pytest.raises(ConfigurationError):
        Trace(retain="ring")
    with pytest.raises(ConfigurationError):
        Trace(retain="tail", tail_size=0)


def test_non_event_append_rejected_in_every_mode():
    for mode in RETENTION_MODES:
        with pytest.raises(TypeError):
            Trace(retain=mode).append("not an event")


# -- full (the default) ------------------------------------------------------


def test_full_retention_keeps_everything():
    events = handshake_events(3)
    trace = Trace(events)
    assert trace.retention == "full"
    assert len(trace) == trace.total_events == len(events)
    assert trace.dropped_events == 0
    assert list(trace) == events
    assert trace.tail_events() == list(enumerate(events))
    assert trace.count(SendMsg) == 3
    assert trace.indexes_of(SendMsg) == [0, 5, 10]
    # Superclass queries merge the per-type index lists in order.
    assert trace.indexes_of(Event) == list(range(len(events)))


def test_full_retention_forbids_tally():
    trace = Trace(handshake_events(1))
    with pytest.raises(TraceRetentionError):
        trace.tally(Retry, 3)


# -- tail --------------------------------------------------------------------


def test_tail_retention_keeps_a_ring_of_recent_events():
    events = handshake_events(4)  # 20 events
    trace = Trace(events, retain="tail", tail_size=6)
    assert trace.total_events == 20
    assert trace.dropped_events == 14
    tail = trace.tail_events()
    assert tail == list(enumerate(events))[-6:]
    # Counters still cover the whole execution, not just the tail.
    assert trace.count(SendMsg) == 4
    assert trace.count(Event) == 20


def test_tail_retention_refuses_full_sequence_queries():
    trace = Trace(handshake_events(2), retain="tail", tail_size=4)
    for operation in (
        lambda: trace[0],
        lambda: list(iter(trace)),
        lambda: trace.of_type(SendMsg),
        lambda: trace.indexes_of(SendMsg),
    ):
        with pytest.raises(TraceRetentionError):
            operation()


# -- none --------------------------------------------------------------------


def test_none_retention_counts_only():
    events = handshake_events(2)
    trace = Trace(events, retain="none")
    assert trace.total_events == 10
    assert trace.dropped_events == 10
    assert trace.tail_events() == []
    assert trace.count(ReceiveMsg) == 2
    assert trace.ok_count() == 2
    with pytest.raises(TraceRetentionError):
        list(trace)


def test_tally_and_tally1_update_counters():
    trace = Trace(retain="none")
    trace.tally(Retry, 5)
    trace.tally(Retry)
    trace.tally(PktSent, 0)  # zero tallies are allowed and do nothing
    assert trace.count(Retry) == trace.retries() == 6
    assert trace.count(PktSent) == 0
    assert trace.total_events == trace.dropped_events == 6
    with pytest.raises(ValueError):
        trace.tally(Retry, -1)


def test_tally_then_append_keeps_indexes_monotone():
    seen = []
    trace = Trace(retain="none")
    trace.subscribe(lambda index, event: seen.append(index))
    trace.append(SendMsg(message=b"x"))
    trace.tally(Retry, 7)
    trace.append(Ok())
    assert seen == [0, 8]  # appends index past the tallied block
    assert trace.total_events == 9


# -- wants() and observers ---------------------------------------------------


def test_wants_reflects_retention_and_observers():
    assert Trace().wants(Retry)
    assert Trace(retain="tail").wants(Retry)
    bare = Trace(retain="none")
    assert not bare.wants(Retry)
    observed = Trace(retain="none")
    observed.subscribe(lambda index, event: None, types=[ReceiveMsg])
    assert observed.wants(ReceiveMsg)
    assert not observed.wants(Retry)


def test_subscribing_invalidates_the_wants_answer():
    trace = Trace(retain="none")
    assert not trace.wants(Retry)
    trace.subscribe(lambda index, event: None, types=[Retry])
    assert trace.wants(Retry)


def test_observers_see_filtered_events_in_every_mode():
    events = handshake_events(2)
    for mode in RETENTION_MODES:
        received = []
        trace = Trace(retain=mode, tail_size=3)
        trace.subscribe(
            lambda index, event: received.append((index, event)),
            types=[SendMsg, ReceiveMsg],
        )
        for event in events:
            trace.append(event)
        assert received == [
            (index, event)
            for index, event in enumerate(events)
            if isinstance(event, (SendMsg, ReceiveMsg))
        ]


def test_observer_type_filter_includes_subclasses():
    class FancySend(SendMsg):
        pass

    received = []
    trace = Trace(retain="none")
    trace.subscribe(lambda index, event: received.append(event), types=[SendMsg])
    fancy = FancySend(message=b"f")
    trace.append(fancy)
    trace.append(CrashR())
    assert received == [fancy]
