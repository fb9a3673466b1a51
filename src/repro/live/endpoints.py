"""Live station sockets: the base of the TM and RM endpoints.

The core automata (:class:`~repro.core.transmitter.Transmitter`,
:class:`~repro.core.receiver.Receiver`) are pure state machines — the
simulator drives them with scheduled actions, and the live endpoints of
:mod:`repro.live.lanes` drive the *same objects* with datagrams and
timers instead.  This module holds what both endpoints share:

* one batched loopback UDP socket (:class:`~repro.live.wire.
  BatchedDatagramIO`) exchanging lane-framed datagrams with the chaos
  proxy: a 1-byte lane id, then the canonical byte encoding of
  :mod:`repro.core.packets`;
* the split of each arriving datagram into its lane and packet.  Malformed
  datagrams are rejected by the codec and counted, never raised: a live
  port is exposed to whatever bytes arrive, and the causality axiom that
  lets the simulator treat decode failures as bugs does not protect a
  real socket;
* audited timers (:class:`AuditedTimers`), which the chaos proxy uses too.
"""

from __future__ import annotations

import asyncio
from typing import Callable, List, Optional, Set, Tuple

from repro.core.exceptions import CodecError
from repro.core.packets import (
    decode_packet,
    encode_packet_into,
    packet_wire_bytes,
)
from repro.live.wire import BatchedDatagramIO, BufferPool

__all__ = ["AuditedTimers"]

Address = Tuple[str, int]


class AuditedTimers:
    """Loop callbacks tracked until they fire or are cancelled.

    Every timer goes through :meth:`_call_later` and :meth:`_cancel_timers`
    sweeps them all.  This is the structural fix for stale-callback bugs:
    a backoff/retry callback scheduled before a crash must never fire into
    the automaton that cold-restarts afterwards, and teardown must leave
    nothing pending on the caller's loop.
    """

    def __init__(self) -> None:
        self._timers: Set[asyncio.TimerHandle] = set()

    @property
    def pending_timer_count(self) -> int:
        """Outstanding scheduled callbacks (exposed for hygiene tests)."""
        return len(self._timers)

    def _call_later(self, delay: float, callback: Callable[..., None], *args):
        """Schedule a tracked one-shot callback (auto-untracked on fire)."""
        handle: Optional[asyncio.TimerHandle] = None

        def _fire() -> None:
            self._timers.discard(handle)
            callback(*args)

        handle = asyncio.get_running_loop().call_later(delay, _fire)
        self._timers.add(handle)
        return handle

    def _cancel_timer(self, handle) -> None:
        if handle is not None:
            handle.cancel()
            self._timers.discard(handle)

    def _cancel_timers(self) -> None:
        for handle in self._timers:
            handle.cancel()
        self._timers.clear()


class _SocketBase(AuditedTimers):
    """One batched UDP socket carrying ``lane_count`` lanes, plus timers."""

    def __init__(
        self,
        proxy_addr: Address,
        lane_count: int,
        restart_delay: float,
        pool: Optional[BufferPool] = None,
    ) -> None:
        if lane_count < 1:
            raise ValueError("need at least one lane")
        super().__init__()
        self.proxy_addr = proxy_addr
        self.lane_count = lane_count
        self.restart_delay = restart_delay
        self.malformed = 0
        self.foreign_lanes = 0  # lane ids outside [0, K) or unframed traffic
        self.dropped_while_dead = 0
        self._pool = pool
        self._io: Optional[BatchedDatagramIO] = None
        self._closed = False

    async def start(self) -> None:
        self._io = BatchedDatagramIO(self._on_datagram, pool=self._pool)
        await self._io.open()

    @property
    def local_address(self) -> Address:
        return self._io.local_address

    @property
    def wire_ios(self) -> "List[BatchedDatagramIO]":
        """The batched socket behind this endpoint (once started)."""
        return [self._io]

    def close(self) -> None:
        self._closed = True
        self._cancel_timers()
        if self._io is not None:
            self._io.close()

    def _send_wire(self, packet, prefix: bytes, encoder=None) -> None:
        """Encode ``packet`` behind ``prefix`` into a pool buffer and queue it.

        ``encoder``, when given, is a :class:`PollEncoder` whose output
        already *includes* ``prefix`` — the argument then only sizes the
        pooled buffer.  No intermediate ``bytes`` is built either way.
        """
        io = self._io
        if io is None or self._closed:
            return
        buf = io.pool.acquire(len(prefix) + packet_wire_bytes(packet))
        if encoder is not None:
            end = encoder.encode_into(buf, 0, packet)
        else:
            buf[: len(prefix)] = prefix
            end = encode_packet_into(buf, len(prefix), packet)
        io.send_pooled(buf, end, self.proxy_addr)

    # Frames are split by hand here (rather than through decode_lane_frame)
    # so a foreign lane id and a malformed body are counted separately; the
    # body still goes through decode_packet, preserving strict-prefix
    # rejection lane by lane.  ``data`` may be a memoryview into a reused
    # receive buffer: the lane byte is an index read and the body slice
    # decodes zero-copy.
    def _on_datagram(self, data) -> None:
        if self._closed:
            return
        if len(data) < 2 or data[0] >= self.lane_count:
            self.foreign_lanes += 1
            return
        lane = data[0]
        try:
            packet = decode_packet(data[1:])
        except CodecError:
            self.malformed += 1
            return
        if not isinstance(packet, self._expected_packet):
            self.malformed += 1
            return
        self._handle_lane_packet(lane, packet)

    # subclass hooks
    _expected_packet: type = object

    def _handle_lane_packet(self, lane: int, packet) -> None:
        raise NotImplementedError
