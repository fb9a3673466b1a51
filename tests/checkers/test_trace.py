"""Unit tests for the Trace container and its projections."""

from __future__ import annotations

import pytest

from repro.checkers.trace import Trace
from repro.core.events import (
    ChannelId,
    CrashT,
    Ok,
    PktDelivered,
    PktSent,
    ReceiveMsg,
    Retry,
    SendMsg,
)


def sample_trace() -> Trace:
    return Trace(
        [
            SendMsg(b"a"),
            PktSent(ChannelId.R_TO_T, 0, 64),
            PktDelivered(ChannelId.R_TO_T, 0),
            ReceiveMsg(b"a"),
            Ok(),
            SendMsg(b"b"),
            CrashT(),
            SendMsg(b"c"),
            Retry(),
            ReceiveMsg(b"c"),
            Ok(),
        ]
    )


class TestBasics:
    def test_append_and_len(self):
        trace = Trace()
        trace.append(SendMsg(b"x"))
        assert len(trace) == 1
        assert trace[0] == SendMsg(b"x")

    def test_append_rejects_non_events(self):
        with pytest.raises(TypeError):
            Trace().append("not an event")  # type: ignore[arg-type]

    def test_iteration(self):
        trace = sample_trace()
        assert len(list(trace)) == len(trace)

    def test_of_type_and_count(self):
        trace = sample_trace()
        assert trace.count(SendMsg) == 3
        assert [e.message for e in trace.of_type(SendMsg)] == [b"a", b"b", b"c"]

    def test_indexes_of(self):
        trace = sample_trace()
        assert trace.indexes_of(Ok) == [4, 10]


class TestProjections:
    def test_messages(self):
        trace = sample_trace()
        assert trace.sent_messages() == [b"a", b"b", b"c"]
        assert trace.received_messages() == [b"a", b"c"]

    def test_counters(self):
        trace = sample_trace()
        assert trace.ok_count() == 2
        assert trace.crash_count() == 1
        assert trace.packets_sent() == 1
        assert trace.packets_delivered() == 1
        assert trace.retries() == 1

    def test_summary_mentions_counts(self):
        summary = sample_trace().summary()
        assert "sends=3" in summary
        assert "oks=2" in summary
