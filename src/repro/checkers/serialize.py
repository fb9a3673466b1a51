"""Trace serialization: archive executions as JSON lines.

Failing executions are the currency of protocol debugging — a trace that
violated a condition under some adversary schedule should be storable,
diffable and replayable through the checkers later.  The format is one
JSON object per event, self-describing via a ``type`` field; messages are
hex-encoded so arbitrary byte payloads survive.
"""

from __future__ import annotations

import json
from typing import IO, List

from repro.checkers.trace import Trace
from repro.core.events import (
    ChannelId,
    Corruption,
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
from repro.core.exceptions import CodecError

__all__ = ["event_to_dict", "event_from_dict", "dump_trace", "load_trace"]


def event_to_dict(event: Event) -> dict:
    """Encode one event as a JSON-safe dict."""
    if isinstance(event, SendMsg):
        return {"type": "send_msg", "message": event.message.hex()}
    if isinstance(event, ReceiveMsg):
        return {"type": "receive_msg", "message": event.message.hex()}
    if isinstance(event, Ok):
        return {"type": "ok"}
    if isinstance(event, CrashT):
        return {"type": "crash_t"}
    if isinstance(event, CrashR):
        return {"type": "crash_r"}
    if isinstance(event, Retry):
        return {"type": "retry"}
    if isinstance(event, Corruption):
        return {
            "type": "corruption",
            "station": event.station,
            "fields": list(event.fields),
            "seed": event.seed,
        }
    if isinstance(event, PktSent):
        return {
            "type": "pkt_sent",
            "channel": event.channel.value,
            "packet_id": event.packet_id,
            "length_bits": event.length_bits,
        }
    if isinstance(event, PktDelivered):
        return {
            "type": "pkt_delivered",
            "channel": event.channel.value,
            "packet_id": event.packet_id,
        }
    raise CodecError(f"unserializable event type {type(event).__name__}")


def event_from_dict(data: dict) -> Event:
    """Decode one event from its dict form."""
    try:
        kind = data["type"]
    except (KeyError, TypeError):
        raise CodecError(f"malformed event record: {data!r}") from None
    if kind == "send_msg":
        return SendMsg(message=bytes.fromhex(data["message"]))
    if kind == "receive_msg":
        return ReceiveMsg(message=bytes.fromhex(data["message"]))
    if kind == "ok":
        return Ok()
    if kind == "crash_t":
        return CrashT()
    if kind == "crash_r":
        return CrashR()
    if kind == "retry":
        return Retry()
    if kind == "corruption":
        return Corruption(
            station=data["station"],
            fields=tuple(data["fields"]),
            seed=data["seed"],
        )
    if kind == "pkt_sent":
        return PktSent(
            channel=ChannelId(data["channel"]),
            packet_id=data["packet_id"],
            length_bits=data["length_bits"],
        )
    if kind == "pkt_delivered":
        return PktDelivered(
            channel=ChannelId(data["channel"]), packet_id=data["packet_id"]
        )
    raise CodecError(f"unknown event type {kind!r}")


def dump_trace(trace: Trace, stream: IO[str]) -> None:
    """Write a trace's retained events as JSON lines (one event per line).

    Under ``retain="full"`` this is the whole execution in the classic
    format.  Under ``retain="tail"`` only the forensic ring buffer is
    available; each line then additionally carries the event's ``index``
    in the original execution (extra keys are ignored on load, so
    :func:`load_trace` reads both forms).
    """
    if trace.retention == "full":
        for event in trace:
            stream.write(json.dumps(event_to_dict(event), sort_keys=True))
            stream.write("\n")
        return
    for index, event in trace.tail_events():
        record = event_to_dict(event)
        record["index"] = index
        stream.write(json.dumps(record, sort_keys=True))
        stream.write("\n")


def load_trace(stream: IO[str]) -> Trace:
    """Read a trace written by :func:`dump_trace`."""
    events: List[Event] = []
    for line_number, line in enumerate(stream, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            data = json.loads(line)
        except json.JSONDecodeError as error:
            raise CodecError(f"line {line_number}: invalid JSON: {error}") from None
        events.append(event_from_dict(data))
    return Trace(events)
