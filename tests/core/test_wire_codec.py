"""Wire-codec hardening: fuzzed roundtrips, truncation, and the peek view.

The live deployment (docs/PROTOCOL.md §11) exposes the codec to a real
socket, where datagrams arrive truncated, duplicated mid-flush, or from
foreign senders.  These tests pin down the properties the endpoints and
the chaos proxy rely on:

* encode/decode is a perfect roundtrip through the module-level functions
  the endpoints use, including extreme ρ/τ bit-string lengths;
* **every** strict prefix of a valid encoding is rejected with
  :class:`CodecError` — a truncated datagram can never decode to a
  different valid packet;
* :func:`peek_wire_info` agrees with the full decode on kind and length
  while revealing nothing else, and rejects foreign traffic.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings, strategies as st

from repro.core.bitstrings import BitString
from repro.core.exceptions import CodecError
from repro.core.packets import (
    MAX_LANES,
    DataPacket,
    PollEncoder,
    PollPacket,
    decode_lane_frame,
    decode_packet,
    encode_lane_frame,
    encode_packet,
    encode_packet_into,
    lane_prefix,
    peek_wire_info,
)

_KIND_BYTES = {0xD1, 0xA5}


@st.composite
def long_bitstrings(draw, max_bits: int = 4096) -> BitString:
    """Bit strings up to ``max_bits`` — far beyond any protocol nonce."""
    n = draw(st.integers(min_value=0, max_value=max_bits))
    value = draw(st.integers(min_value=0, max_value=(1 << n) - 1)) if n else 0
    return BitString.from_int(value, n)


bitstrings = st.text(alphabet="01", max_size=200).map(BitString)
messages = st.binary(max_size=500)
retries = st.integers(min_value=0, max_value=2 ** 63 - 1)

data_packets = st.builds(DataPacket, message=messages, rho=bitstrings,
                         tau=bitstrings)
poll_packets = st.builds(PollPacket, rho=bitstrings, tau=bitstrings,
                         retry=retries)
packets = st.one_of(data_packets, poll_packets)


# -- roundtrips ------------------------------------------------------------------


@given(packets)
def test_module_level_roundtrip(packet):
    assert decode_packet(encode_packet(packet)) == packet


@settings(max_examples=25)
@given(messages, long_bitstrings(), long_bitstrings())
def test_data_roundtrip_with_max_length_nonces(m, rho, tau):
    packet = DataPacket(message=m, rho=rho, tau=tau)
    wire = encode_packet(packet)
    assert decode_packet(wire) == packet
    assert packet.wire_length_bits == len(wire) * 8


@settings(max_examples=25)
@given(long_bitstrings(), long_bitstrings(), retries)
def test_poll_roundtrip_with_max_length_nonces(rho, tau, retry):
    packet = PollPacket(rho=rho, tau=tau, retry=retry)
    wire = encode_packet(packet)
    assert decode_packet(wire) == packet
    assert packet.wire_length_bits == len(wire) * 8


# -- truncation ------------------------------------------------------------------


@settings(max_examples=50)
@given(packets)
def test_every_strict_prefix_is_rejected(packet):
    # The live endpoints count on this: a datagram cut anywhere cannot
    # silently decode into a different valid packet.
    wire = encode_packet(packet)
    for cut in range(len(wire)):
        with pytest.raises(CodecError):
            decode_packet(wire[:cut])


@given(packets, st.binary(min_size=1, max_size=16))
def test_trailing_bytes_are_rejected(packet, extra):
    with pytest.raises(CodecError):
        decode_packet(encode_packet(packet) + extra)


@given(packets, st.integers(min_value=0, max_value=255))
def test_foreign_kind_byte_is_rejected(packet, kind):
    wire = encode_packet(packet)
    if kind in _KIND_BYTES:
        return
    with pytest.raises(CodecError):
        decode_packet(bytes([kind]) + wire[1:])


def test_empty_datagram_is_rejected():
    with pytest.raises(CodecError):
        decode_packet(b"")
    with pytest.raises(CodecError):
        peek_wire_info(b"")


# -- the adversary's peek --------------------------------------------------------


@given(packets)
def test_peek_agrees_with_decode(packet):
    wire = encode_packet(packet)
    info = peek_wire_info(wire)
    assert info.kind_byte == wire[0]
    assert info.kind == ("data" if isinstance(packet, DataPacket) else "poll")
    assert info.length_bits == len(wire) * 8 == packet.wire_length_bits


@given(packets)
def test_peek_works_on_any_nonempty_prefix(packet):
    # The proxy peeks before anything validates the datagram; the peek
    # must never require more than the identifier octet.
    wire = encode_packet(packet)
    for cut in range(1, len(wire) + 1):
        info = peek_wire_info(wire[:cut])
        assert info.kind_byte == wire[0]
        assert info.length_bits == cut * 8


@given(st.binary(min_size=1, max_size=64))
def test_peek_rejects_foreign_identifiers(data):
    if data[0] in _KIND_BYTES:
        return
    if data[0] < MAX_LANES and len(data) >= 2 and data[1] in _KIND_BYTES:
        return  # a well-formed laned frame — peeked, not rejected
    with pytest.raises(CodecError):
        peek_wire_info(data)


def test_encode_packet_rejects_non_packets():
    with pytest.raises(CodecError):
        encode_packet("not a packet")


# -- lane frames (multi-lane live wire) ------------------------------------------


lanes = st.integers(min_value=0, max_value=MAX_LANES - 1)


@given(packets, lanes)
def test_lane_frame_roundtrip(packet, lane):
    wire = encode_packet(packet)
    framed = encode_lane_frame(lane, wire)
    assert framed == bytes([lane]) + wire
    got_lane, body = decode_lane_frame(framed)
    assert got_lane == lane
    assert decode_packet(body) == packet


@given(packets, lanes)
def test_peek_reports_lane_and_kind(packet, lane):
    # Section 2.3 visibility on a laned wire: lane id + identifier octet +
    # datagram length, nothing else.
    framed = encode_lane_frame(lane, encode_packet(packet))
    info = peek_wire_info(framed)
    assert info.lane == lane
    assert info.kind == ("data" if isinstance(packet, DataPacket) else "poll")
    assert info.kind_byte == framed[1]
    assert info.length_bits == len(framed) * 8
    # An unlaned frame reports no lane.
    assert peek_wire_info(encode_packet(packet)).lane is None


@given(packets, st.integers(min_value=MAX_LANES, max_value=255))
def test_foreign_lane_ids_are_rejected(packet, lane):
    framed = bytes([lane]) + encode_packet(packet)
    if lane in _KIND_BYTES:
        return  # collides with a kind byte: parsed as an unlaned frame
    with pytest.raises(CodecError):
        decode_lane_frame(framed)
    with pytest.raises(CodecError):
        peek_wire_info(framed)


def test_lane_prefix_validates_and_interns():
    with pytest.raises(CodecError):
        lane_prefix(-1)
    with pytest.raises(CodecError):
        lane_prefix(MAX_LANES)
    assert lane_prefix(3) == b"\x03"
    assert lane_prefix(3) is lane_prefix(3)  # interned, no per-send alloc


def test_truncated_lane_frames_are_rejected():
    with pytest.raises(CodecError):
        decode_lane_frame(b"")
    with pytest.raises(CodecError):
        decode_lane_frame(b"\x00")  # lane byte alone, no body


@settings(max_examples=25)
@given(packets, lanes)
def test_every_strict_prefix_of_a_laned_frame_is_rejected(packet, lane):
    # The strict-prefix property must survive lane framing: a laned
    # datagram cut anywhere can never decode into a valid (lane, packet).
    framed = encode_lane_frame(lane, encode_packet(packet))
    for cut in range(len(framed)):
        prefix = framed[:cut]
        try:
            __, body = decode_lane_frame(prefix)
        except CodecError:
            continue
        with pytest.raises(CodecError):
            decode_packet(body)


# -- zero-copy parity (batched wire path, docs/PROTOCOL.md §15) ------------------
#
# The batched datagram layer hands the codec memoryview slices of reused
# receive buffers and encodes outbound packets straight into pooled
# bytearrays.  Everything the bytes path decides — values, rejections,
# peeks — must be bit-identical through views, or the batched wire would
# silently change protocol behavior.


@settings(max_examples=25)
@given(messages, long_bitstrings(), long_bitstrings(), retries)
def test_memoryview_decode_matches_bytes_decode(m, rho, tau, retry):
    for packet in (DataPacket(message=m, rho=rho, tau=tau),
                   PollPacket(rho=rho, tau=tau, retry=retry)):
        wire = encode_packet(packet)
        # Non-zero offset into a larger buffer: the view's own indices,
        # not the backing buffer's, must drive the decode.
        backing = bytearray(b"\xff" * 7 + wire + b"\xff" * 3)
        view = memoryview(backing)[7:7 + len(wire)]
        assert decode_packet(view) == decode_packet(wire) == packet


@settings(max_examples=25)
@given(packets)
def test_memoryview_prefixes_rejected_like_bytes(packet):
    # The strict-prefix property through views: every cut that the bytes
    # path rejects, the view path rejects too (same error class).
    wire = encode_packet(packet)
    backing = bytearray(wire)
    view = memoryview(backing)
    for cut in range(len(wire)):
        with pytest.raises(CodecError):
            decode_packet(view[:cut])


@given(packets, lanes)
def test_peek_wire_info_memoryview_parity(packet, lane):
    for frame in (encode_packet(packet),
                  encode_lane_frame(lane, encode_packet(packet))):
        view = memoryview(bytearray(frame))
        assert peek_wire_info(view) == peek_wire_info(frame)
        for cut in range(1, len(frame) + 1):
            # Some cuts are themselves invalid (a laned frame cut to its
            # lane byte alone); the view path must agree either way.
            try:
                expected = peek_wire_info(frame[:cut])
            except CodecError:
                with pytest.raises(CodecError):
                    peek_wire_info(view[:cut])
            else:
                assert peek_wire_info(view[:cut]) == expected


@given(st.binary(min_size=1, max_size=64))
def test_peek_rejects_foreign_identifiers_through_views(data):
    view = memoryview(bytearray(data))
    try:
        expected = peek_wire_info(data)
    except CodecError:
        with pytest.raises(CodecError):
            peek_wire_info(view)
    else:
        assert peek_wire_info(view) == expected


@settings(max_examples=25)
@given(messages, long_bitstrings(), long_bitstrings(), retries, lanes)
def test_encode_into_matches_encode(m, rho, tau, retry, lane):
    # The pooled send path: encode into the middle of an oversized reused
    # buffer, with a lane prefix written as a slice assignment — exactly
    # what the batched endpoints do — and get the canonical bytes.
    for packet in (DataPacket(message=m, rho=rho, tau=tau),
                   PollPacket(rho=rho, tau=tau, retry=retry)):
        wire = encode_packet(packet)
        nbytes = packet.wire_length_bits // 8
        assert nbytes == len(wire)
        buf = bytearray(b"\xee" * (nbytes + 16))
        end = encode_packet_into(buf, 1, packet)
        assert end == 1 + nbytes
        assert bytes(buf[1:end]) == wire
        assert buf[0] == 0xEE and buf[end] == 0xEE  # neighbors untouched
        buf[0:1] = lane_prefix(lane)
        assert bytes(buf[:end]) == encode_lane_frame(lane, wire)


@given(poll_packets, lanes)
def test_poll_encoder_encode_into_matches_encode(packet, lane):
    encoder = PollEncoder(lane)
    framed = encoder.encode(packet)
    buf = bytearray(b"\xee" * (len(framed) + 8))
    end = encoder.encode_into(buf, 3, packet)
    assert end == 3 + len(framed)
    assert bytes(buf[3:end]) == framed
    assert buf[2] == 0xEE and buf[end] == 0xEE


# -- the cached poll encoder -----------------------------------------------------


@given(poll_packets)
def test_poll_encoder_matches_canonical_encoding(packet):
    assert PollEncoder().encode(packet) == encode_packet(packet)


@given(poll_packets, lanes)
def test_laned_poll_encoder_matches_lane_frame(packet, lane):
    expected = encode_lane_frame(lane, encode_packet(packet))
    assert PollEncoder(lane).encode(packet) == expected


@given(long_bitstrings(max_bits=64), long_bitstrings(max_bits=64))
def test_poll_encoder_cache_tracks_retry_counter(rho, tau):
    # The RM's backoff loop re-sends the same (rho, tau) with an advancing
    # retry counter: the cached prefix must never freeze the counter.
    encoder = PollEncoder()
    for retry in (0, 1, 7, 2 ** 40):
        packet = PollPacket(rho=rho, tau=tau, retry=retry)
        assert encoder.encode(packet) == encode_packet(packet)


def test_poll_encoder_refreshes_on_new_objects():
    # Equal-but-distinct BitStrings merely re-encode; changed values
    # re-encode correctly (identity is a freshness test, not a trap).
    a, b = BitString("1010"), BitString("0110")
    encoder = PollEncoder()
    first = PollPacket(rho=a, tau=b, retry=0)
    assert encoder.encode(first) == encode_packet(first)
    same_values = PollPacket(rho=BitString("1010"), tau=BitString("0110"), retry=1)
    assert encoder.encode(same_values) == encode_packet(same_values)
    changed = PollPacket(rho=b, tau=a, retry=2)
    assert encoder.encode(changed) == encode_packet(changed)
