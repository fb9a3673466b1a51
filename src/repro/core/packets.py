"""Packet types and their wire codec.

The protocol exchanges two packet shapes (Section 3 / Appendix A):

* **data packets** ``(m, ρ, τ)`` from transmitter to receiver, carrying the
  message ``m``, the echoed receiver challenge ρ, and the transmitter
  nonce τ;
* **poll/ack packets** ``(ρ, τ, i)`` from receiver to transmitter, carrying
  the receiver's current challenge ρ, the τ of the last accepted message,
  and the retry counter ``i``.

The model of Section 2.3 defines packets as elements of {0,1}* with a
``length`` function, and the adversary observes *only* identifiers and
lengths.  We therefore give every packet a canonical wire encoding;
``wire_length_bits`` is the ``length(p)`` the channel reports to the
adversary.  Encoding/decoding round-trips exactly, which the property tests
verify, so simulations may pass packet objects by reference without losing
fidelity.

**Zero-copy discipline.**  The live wire (docs/PROTOCOL.md §15) drains
batches of datagrams into reusable buffers, so every reader here accepts a
``memoryview`` as well as ``bytes`` and never materializes intermediate
slices: :func:`peek_wire_info` reads only the identifier octets,
:func:`decode_packet` unpacks straight out of the caller's buffer (the one
unavoidable copy is the message payload, which outlives the buffer), and
the ``*_into`` encoders serialize into a caller-supplied ``bytearray`` with
lane/session prefixes written in place of a concatenation.  A view handed
to these functions is only valid for the duration of the call — the live
drain loop reuses its buffers on the next wakeup.
"""

from __future__ import annotations

import struct
import sys
from dataclasses import dataclass
from typing import NamedTuple, Optional, Union

from repro.core.bitstrings import BitString
from repro.core.exceptions import CodecError
from repro.util.hotpath import trusted_constructor

__all__ = [
    "DataPacket",
    "PollPacket",
    "Packet",
    "PollEncoder",
    "WireInfo",
    "MAX_LANES",
    "encode_packet",
    "encode_packet_into",
    "packet_wire_bytes",
    "decode_packet",
    "encode_lane_frame",
    "decode_lane_frame",
    "lane_prefix",
    "peek_wire_info",
    "make_data_packet",
    "make_poll_packet",
]

#: Anything the codec can read without copying: encoders produce ``bytes``,
#: the live wire hands the endpoints ``memoryview`` slices of pooled
#: receive buffers.
ReadableBuffer = Union[bytes, bytearray, memoryview]

# Packets are allocated once per send_pkt; slot them where the runtime allows.
_SLOTS = {"slots": True} if sys.version_info >= (3, 10) else {}

_KIND_DATA = 0xD1
_KIND_POLL = 0xA5

#: Highest lane count a multi-lane deployment may use.  Lane ids occupy the
#: range [0, MAX_LANES) so a lane byte can never collide with the packet
#: kind bytes (both >= 0x80), which is what keeps laned and unlaned frames
#: distinguishable from their first octet alone.
MAX_LANES = 64

_LANE_PREFIXES = tuple(bytes([lane]) for lane in range(MAX_LANES))


def _encode_bitstring(bits: BitString) -> bytes:
    """Length-prefixed encoding of a bit string: u32 bit count + packed bytes."""
    n = len(bits)
    nbytes = (n + 7) // 8
    value = bits.value << (nbytes * 8 - n) if n else 0
    return struct.pack(">I", n) + value.to_bytes(nbytes, "big")


def _bitstring_wire_bytes(bits: BitString) -> int:
    """Byte length of :func:`_encode_bitstring`'s output, without encoding."""
    return 4 + (len(bits) + 7) // 8


def _encode_bitstring_into(buf: bytearray, offset: int, bits: BitString) -> int:
    """Write :func:`_encode_bitstring`'s output at ``buf[offset:]``.

    Returns the new offset.  The caller guarantees capacity (see
    :func:`packet_wire_bytes`); ``struct.pack_into`` raises on a short
    buffer rather than silently extending it the way slice assignment on a
    ``bytearray`` would.
    """
    n = len(bits)
    nbytes = (n + 7) // 8
    value = bits.value << (nbytes * 8 - n) if n else 0
    struct.pack_into(">I", buf, offset, n)
    offset += 4
    buf[offset : offset + nbytes] = value.to_bytes(nbytes, "big")
    return offset + nbytes


def _decode_bitstring(data: ReadableBuffer, offset: int) -> "tuple[BitString, int]":
    if offset + 4 > len(data):
        raise CodecError("truncated bit-string length")
    (n,) = struct.unpack_from(">I", data, offset)
    offset += 4
    nbytes = (n + 7) // 8
    if offset + nbytes > len(data):
        raise CodecError("truncated bit-string body")
    raw = int.from_bytes(data[offset : offset + nbytes], "big")
    value = raw >> (nbytes * 8 - n) if n else 0
    return BitString.from_int(value, n), offset + nbytes


@dataclass(frozen=True, **_SLOTS)
class DataPacket:
    """A transmitter→receiver packet ``(m, ρ, τ)``."""

    message: bytes
    rho: BitString
    tau: BitString

    def __post_init__(self) -> None:
        if not isinstance(self.message, bytes):
            raise TypeError("message payload must be bytes")

    def encode(self) -> bytes:
        """Serialise to the canonical wire format."""
        return (
            bytes([_KIND_DATA])
            + struct.pack(">I", len(self.message))
            + self.message
            + _encode_bitstring(self.rho)
            + _encode_bitstring(self.tau)
        )

    @property
    def wire_length_bits(self) -> int:
        """``length(p)`` as reported to the adversary (Section 2.3).

        Computed arithmetically from the canonical format (kind byte +
        u32 message length + message + two length-prefixed bit strings) —
        the channel reports a length per ``send_pkt``, so this must not
        pay for a full serialization.
        """
        return (
            1
            + 4
            + len(self.message)
            + _bitstring_wire_bytes(self.rho)
            + _bitstring_wire_bytes(self.tau)
        ) * 8

    def __repr__(self) -> str:
        return (
            f"DataPacket(m={self.message!r}, rho={self.rho.to01()}, "
            f"tau={self.tau.to01()})"
        )


@dataclass(frozen=True, **_SLOTS)
class PollPacket:
    """A receiver→transmitter packet ``(ρ, τ, i)``.

    Sent on every RETRY; doubles as the acknowledgement once τ names the
    transmitter's current nonce.
    """

    rho: BitString
    tau: BitString
    retry: int

    def __post_init__(self) -> None:
        if self.retry < 0:
            raise ValueError("retry counter must be non-negative")

    def encode(self) -> bytes:
        """Serialise to the canonical wire format."""
        return (
            bytes([_KIND_POLL])
            + _encode_bitstring(self.rho)
            + _encode_bitstring(self.tau)
            + struct.pack(">Q", self.retry)
        )

    @property
    def wire_length_bits(self) -> int:
        """``length(p)`` as reported to the adversary (Section 2.3).

        Arithmetic form of ``len(self.encode()) * 8`` — see
        :meth:`DataPacket.wire_length_bits`.
        """
        return (
            1
            + _bitstring_wire_bytes(self.rho)
            + _bitstring_wire_bytes(self.tau)
            + 8
        ) * 8

    def __repr__(self) -> str:
        return (
            f"PollPacket(rho={self.rho.to01()}, tau={self.tau.to01()}, "
            f"i={self.retry})"
        )


Packet = Union[DataPacket, PollPacket]

#: Trusted fast constructors (positional: the declared field order).  The
#: stations build several packets per handshake from already-validated
#: protocol state; these skip the frozen-dataclass ``__init__`` overhead.
make_data_packet = trusted_constructor(DataPacket, "message", "rho", "tau")
make_poll_packet = trusted_constructor(PollPacket, "rho", "tau", "retry")


def encode_packet(packet: Packet) -> bytes:
    """Serialise either packet kind to bytes."""
    if isinstance(packet, (DataPacket, PollPacket)):
        return packet.encode()
    raise CodecError(f"not a protocol packet: {type(packet).__name__}")


def packet_wire_bytes(packet: Packet) -> int:
    """Byte length of ``encode_packet(packet)``, without encoding.

    The batched wire sizes its pooled send buffers with this before calling
    :func:`encode_packet_into`; it is ``wire_length_bits // 8`` but named
    separately because callers here want a buffer size, not an
    adversary-visible length.
    """
    if isinstance(packet, (DataPacket, PollPacket)):
        return packet.wire_length_bits // 8
    raise CodecError(f"not a protocol packet: {type(packet).__name__}")


def encode_packet_into(buf: bytearray, offset: int, packet: Packet) -> int:
    """Serialise ``packet`` into ``buf`` at ``offset``; return the end offset.

    Byte-identical to ``buf[offset:] = encode_packet(packet)`` but without
    the intermediate ``bytes`` objects: fields are packed straight into the
    caller's (pooled, reusable) buffer.  A lane or session prefix is the
    caller's slice-prefix write before ``offset`` — never a concatenation.
    The caller guarantees ``len(buf) >= offset + packet_wire_bytes(packet)``.
    """
    if isinstance(packet, DataPacket):
        buf[offset] = _KIND_DATA
        offset += 1
        message = packet.message
        struct.pack_into(">I", buf, offset, len(message))
        offset += 4
        end = offset + len(message)
        buf[offset:end] = message
        offset = _encode_bitstring_into(buf, end, packet.rho)
        return _encode_bitstring_into(buf, offset, packet.tau)
    if isinstance(packet, PollPacket):
        buf[offset] = _KIND_POLL
        offset += 1
        offset = _encode_bitstring_into(buf, offset, packet.rho)
        offset = _encode_bitstring_into(buf, offset, packet.tau)
        struct.pack_into(">Q", buf, offset, packet.retry)
        return offset + 8
    raise CodecError(f"not a protocol packet: {type(packet).__name__}")


class WireInfo(NamedTuple):
    """What the adversary may learn from one wire datagram (Section 2.3).

    The model restricts adversary visibility to packet *identifiers* and
    *lengths* — never contents.  The chaos proxy's fault decisions go
    through this view exclusively: ``kind_byte`` is the on-wire identifier
    octet, ``kind`` its symbolic name, ``length_bits`` the full datagram
    length.  ``lane`` is the lane id of a lane-framed datagram (``None``
    for a bare packet encoding) — structural framing, like the identifier,
    not content.  Nothing here requires (or performs) a content decode.

    A named tuple rather than a dataclass: the proxy constructs one per
    forwarded datagram, squarely on the wire hot path.
    """

    kind_byte: int
    kind: str
    length_bits: int
    lane: Optional[int] = None


_KIND_NAMES = {_KIND_DATA: "data", _KIND_POLL: "poll"}


def peek_wire_info(data: ReadableBuffer) -> WireInfo:
    """Identifier/length-only view of an encoded packet.

    This is the *maximum* the channel adversary is allowed to observe:
    the leading kind octet (plus the lane id, for a laned frame) and the
    datagram length.  Raises :class:`CodecError` on an empty datagram or
    an unknown kind byte so that in-path components can reject foreign
    traffic without ever looking at payloads.

    Accepts ``bytes`` or a ``memoryview`` into a pooled receive buffer and
    copies nothing either way: only the first one or two octets are indexed
    (indexing yields an ``int``, never a slice) plus ``len``.
    """
    size = len(data)
    if not size:
        raise CodecError("empty packet")
    first = data[0]
    # Lane bytes sit below MAX_LANES (< 0x80) and kind octets above it, so
    # one comparison routes the frame; the laned branch comes first — it is
    # the live stack's hot path (every multi-lane datagram lands here).
    if first < MAX_LANES:
        if size >= 2:
            second = data[1]
            kind = _KIND_NAMES.get(second)
            if kind is not None:
                return WireInfo(second, kind, size * 8, first)
            raise CodecError(
                f"unknown packet kind byte 0x{second:02x} on lane {first}"
            )
        raise CodecError(f"unknown packet kind byte 0x{first:02x}")
    kind = _KIND_NAMES.get(first)
    if kind is not None:
        return WireInfo(first, kind, size * 8)
    raise CodecError(f"unknown packet kind byte 0x{first:02x}")


def lane_prefix(lane: int) -> bytes:
    """The cached one-byte frame prefix for ``lane`` (validated)."""
    if not 0 <= lane < MAX_LANES:
        raise CodecError(f"lane id {lane} outside [0, {MAX_LANES})")
    return _LANE_PREFIXES[lane]


def encode_lane_frame(lane: int, payload: bytes) -> bytes:
    """Frame one encoded packet for a multi-lane wire: lane byte + payload."""
    return lane_prefix(lane) + payload


def decode_lane_frame(data: bytes) -> "tuple[int, bytes]":
    """Split a laned datagram into ``(lane, encoded_packet)``.

    Rejects empty frames, foreign lane ids, and frames with no body; the
    body itself is *not* decoded here — callers hand it to
    :func:`decode_packet`, which preserves the strict-prefix rejection
    property lane by lane.
    """
    if len(data) < 2:
        raise CodecError("truncated lane frame")
    lane = data[0]
    if lane >= MAX_LANES:
        raise CodecError(f"invalid lane id {lane}")
    return lane, data[1:]


_RETRY_STRUCT = struct.Struct(">Q")


class PollEncoder:
    """Cached wire encoding for the RM's repeated RETRY polls.

    Between two progress events every poll a receiver sends carries the
    same ``(ρ, τ_prev)`` pair — only the retry counter ``i`` advances — so
    the poll backoff loop used to re-encode two identical bit strings per
    resend.  This encoder caches the encoded ``(kind, ρ, τ)`` prefix
    (optionally behind a lane-frame byte, so the lane-frame buffer is
    built once and reused too) and re-packs only the 8-byte counter.

    The cache keys on *object identity*: the receiver automaton replaces
    its ρ/τ references exactly when their values change, and BitStrings
    are immutable, so identity is a sound (and O(1)) freshness test.
    Equal-but-distinct objects merely re-encode — never corrupt.
    """

    __slots__ = ("_prefix", "_rho", "_tau", "_cached")

    def __init__(self, lane: Optional[int] = None) -> None:
        self._prefix = lane_prefix(lane) if lane is not None else b""
        self._rho: Optional[BitString] = None
        self._tau: Optional[BitString] = None
        self._cached = b""

    def encode(self, packet: PollPacket) -> bytes:
        """Byte-identical to ``encode_lane_frame``/``encode_packet``."""
        rho, tau = packet.rho, packet.tau
        if rho is not self._rho or tau is not self._tau:
            self._rho = rho
            self._tau = tau
            self._cached = (
                self._prefix
                + bytes([_KIND_POLL])
                + _encode_bitstring(rho)
                + _encode_bitstring(tau)
            )
        return self._cached + _RETRY_STRUCT.pack(packet.retry)

    def encode_into(self, buf: bytearray, offset: int, packet: PollPacket) -> int:
        """Write :meth:`encode`'s output at ``buf[offset:]``; return end offset.

        Same cached-prefix fast path, but the prefix lands in the caller's
        pooled buffer as one slice write and the counter is packed in place
        — no per-poll ``bytes`` allocation on the batched wire.
        """
        rho, tau = packet.rho, packet.tau
        if rho is not self._rho or tau is not self._tau:
            self.encode(packet)  # refresh self._cached
        cached = self._cached
        end = offset + len(cached)
        buf[offset:end] = cached
        _RETRY_STRUCT.pack_into(buf, end, packet.retry)
        return end + 8


def decode_packet(data: ReadableBuffer) -> Packet:
    """Parse a packet from its canonical wire format.

    Raises :class:`CodecError` on any malformed input — the channel never
    corrupts packets (causality axiom), so a decode failure indicates a bug,
    not a tolerated fault.

    ``data`` may be a ``memoryview`` into a reusable receive buffer; the
    bit-string fields are unpacked straight out of it (``int.from_bytes``
    and ``unpack_from`` read any buffer), and only a data packet's message
    payload — which outlives the buffer — is materialized to ``bytes``.
    The view must stay valid for the duration of this call only.
    """
    if not data:
        raise CodecError("empty packet")
    kind, offset = data[0], 1
    if kind == _KIND_DATA:
        if offset + 4 > len(data):
            raise CodecError("truncated message length")
        (mlen,) = struct.unpack_from(">I", data, offset)
        offset += 4
        if offset + mlen > len(data):
            raise CodecError("truncated message body")
        message = data[offset : offset + mlen]
        if type(message) is not bytes:
            message = bytes(message)
        offset += mlen
        rho, offset = _decode_bitstring(data, offset)
        tau, offset = _decode_bitstring(data, offset)
        if offset != len(data):
            raise CodecError("trailing bytes after data packet")
        return DataPacket(message=message, rho=rho, tau=tau)
    if kind == _KIND_POLL:
        rho, offset = _decode_bitstring(data, offset)
        tau, offset = _decode_bitstring(data, offset)
        if offset + 8 > len(data):
            raise CodecError("truncated retry counter")
        (retry,) = struct.unpack_from(">Q", data, offset)
        offset += 8
        if offset != len(data):
            raise CodecError("trailing bytes after poll packet")
        return PollPacket(rho=rho, tau=tau, retry=retry)
    raise CodecError(f"unknown packet kind byte 0x{kind:02x}")
