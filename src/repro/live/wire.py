"""Zero-copy batched datagram I/O for the live protocol stack.

asyncio's stock datagram transport wakes the event loop once per datagram
and allocates a fresh ``bytes`` per packet in each direction.  This module
is the live stack's one datagram layer, a drain/flush socket layer over a
plain non-blocking UDP socket:

* **Drain**: one reader-ready wakeup drains *every* queued datagram from
  the socket, in chunks of up to :data:`BATCH` ``recv_into`` calls, into a
  ring of preallocated receive buffers, and hands each one to the callback
  as a ``memoryview`` slice.  **A delivered view is only valid until the
  next drain chunk** (docs/PROTOCOL.md §15); anything that must outlive
  the wakeup is copied by whoever holds it.
* **Flush**: sends gather into a pending batch and leave in one ``sendto``
  loop per flush.  Inside a drain, the batch is flushed after every chunk
  and *before* the receive buffers are reused, so forwarded views are
  always consumed while still valid.  Several IOs (the chaos proxy's two
  sides plus both stations) share one *flush group* for exactly this
  reason: a datagram drained on one socket may enqueue sends on another.
* **Pooling**: outbound packets are encoded straight into reusable
  ``bytearray`` buffers from a :class:`BufferPool`; the pool's counters
  (``outstanding``/``allocated``/``high_water``) make buffer leaks — e.g.
  a crash-amnesia restart forgetting in-flight buffers — checkable.

If a flush cannot complete synchronously (``EAGAIN``: the send buffer is
full), the leftover entries are *stabilized* — borrowed views copied into
pool buffers — and a writer callback retries, so no pending send ever
references a receive buffer across wakeups.
"""

from __future__ import annotations

import socket
from dataclasses import dataclass
from typing import Callable, List, Optional, Tuple

__all__ = [
    "BATCH",
    "RECV_SIZE",
    "BufferPool",
    "WireStats",
    "BatchedDatagramIO",
    "link_flush_group",
    "merge_wire_stats",
]

Address = Tuple[str, int]

#: Receive buffers per socket, and so datagrams per drain chunk.  Also the
#: reuse granularity of the receive buffers: views handed out for one
#: chunk die when the next chunk is drained.
BATCH = 32

#: Receive buffer size per slot.  Protocol datagrams are tiny (a data
#: packet with the default workload is well under 200 bytes; nonces are
#: capped far below 4096 bits), and the codec's strict truncation checks
#: reject anything that would not have fit — so an oversized datagram is
#: counted malformed, never silently split.
RECV_SIZE = 4096


class BufferPool:
    """Reusable ``bytearray`` send buffers with leak accounting.

    ``acquire`` hands out a buffer of at least ``min_size`` bytes;
    ``release`` returns it.  The free list is bounded (``max_free``), so a
    burst allocates transiently but the steady state is a handful of
    buffers cycling.  ``outstanding`` must return to zero when the wire is
    idle — the crash-amnesia leak check in tests/live/test_wire.py pins
    exactly that.
    """

    __slots__ = ("_free", "default_size", "max_free",
                 "allocated", "outstanding", "high_water")

    def __init__(self, default_size: int = 2048, max_free: int = 64) -> None:
        self._free: List[bytearray] = []
        self.default_size = default_size
        self.max_free = max_free
        self.allocated = 0   # total bytearrays ever created
        self.outstanding = 0  # acquired and not yet released
        self.high_water = 0   # max simultaneous outstanding

    def acquire(self, min_size: int = 0) -> bytearray:
        buf = self._free.pop() if self._free else None
        if buf is None or len(buf) < min_size:
            # Too-small recycled buffers are rare (poll/data packets are
            # near-constant size); just replace rather than searching.
            buf = bytearray(max(min_size, self.default_size))
            self.allocated += 1
        self.outstanding += 1
        if self.outstanding > self.high_water:
            self.high_water = self.outstanding
        return buf

    def release(self, buf: bytearray) -> None:
        self.outstanding -= 1
        if len(self._free) < self.max_free:
            self._free.append(buf)

    @property
    def free_count(self) -> int:
        return len(self._free)


@dataclass
class WireStats:
    """Per-socket batching accounting (surfaced in the scenario report)."""

    datagrams_received: int = 0
    datagrams_sent: int = 0
    recv_batches: int = 0   # drain chunks that yielded data
    send_batches: int = 0   # flushes that sent data
    send_errors: int = 0    # datagrams dropped on a hard send error
    stabilized: int = 0     # borrowed views copied on a deferred flush

    def merge(self, other: "WireStats") -> None:
        self.datagrams_received += other.datagrams_received
        self.datagrams_sent += other.datagrams_sent
        self.recv_batches += other.recv_batches
        self.send_batches += other.send_batches
        self.send_errors += other.send_errors
        self.stabilized += other.stabilized


class _GroupState:
    """Drain bookkeeping shared by every member of one flush group.

    ``draining`` counts group members currently inside their drain loop;
    sends enqueued while it is non-zero wait for the per-chunk group flush
    (one shared counter beats scanning the member list on every send).
    """

    __slots__ = ("draining",)

    def __init__(self) -> None:
        self.draining = 0


class BatchedDatagramIO:
    """One non-blocking UDP socket with batch drain/flush semantics.

    ``on_datagram`` receives each drained datagram as a writable
    ``memoryview`` slice of a reused receive buffer — valid only until the
    callback returns control to the drain loop (next chunk overwrites it).

    Sends (:meth:`send` for stable/borrowed data, :meth:`send_pooled` for
    pool buffers filled via ``encode_packet_into``) gather into a pending
    list; :meth:`flush` pushes them out.  While any member of the flush
    group is draining, sends wait for the per-chunk group flush instead of
    leaving one-at-a-time.
    """

    def __init__(
        self,
        on_datagram: Callable[[memoryview], None],
        pool: Optional[BufferPool] = None,
    ) -> None:
        self.on_datagram = on_datagram
        self.pool = pool if pool is not None else BufferPool()
        self.stats = WireStats()
        self._sock: Optional[socket.socket] = None
        self._fd = -1
        self._loop = None
        self._closed = False
        self._writer_armed = False
        # The flush group: IOs whose sends must all be flushed before any
        # member reuses its receive buffers.  Starts as just this IO;
        # link_flush_group() merges groups.
        self.group: List["BatchedDatagramIO"] = [self]
        self._gstate = _GroupState()
        # Pending sends: (obj, nbytes, addr, pooled).  `obj` is bytes, a
        # pool bytearray (pooled=True), or a borrowed memoryview that
        # flush() consumes before the borrow expires.
        self._pending: List[Tuple[object, int, Address, bool]] = []
        # The receive ring.
        self._rbufs = [bytearray(RECV_SIZE) for _ in range(BATCH)]
        self._rviews = [memoryview(b) for b in self._rbufs]

    # -- lifecycle ---------------------------------------------------------------

    async def open(self, local_addr: Address = ("127.0.0.1", 0)) -> None:
        import asyncio

        sock = socket.socket(socket.AF_INET, socket.SOCK_DGRAM)
        sock.setblocking(False)
        # Deep kernel queues: the whole point is to let datagrams pile up
        # between wakeups instead of waking per datagram.
        try:
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_RCVBUF, 1 << 20)
            sock.setsockopt(socket.SOL_SOCKET, socket.SO_SNDBUF, 1 << 20)
        except OSError:
            pass
        sock.bind(local_addr)
        self._sock = sock
        self._fd = sock.fileno()
        self._loop = asyncio.get_running_loop()
        self._loop.add_reader(self._fd, self._on_readable)

    @property
    def local_address(self) -> Address:
        assert self._sock is not None
        return self._sock.getsockname()

    def close(self) -> None:
        if self._closed:
            return
        self._closed = True
        if self._sock is not None and self._loop is not None:
            try:
                self.flush()
            except OSError:
                pass
            self._loop.remove_reader(self._fd)
            if self._writer_armed:
                self._loop.remove_writer(self._fd)
                self._writer_armed = False
        # Anything still pending is dropped, but pooled buffers must go
        # home — leaking them on teardown would fail the hygiene check.
        for obj, _n, _addr, pooled in self._pending:
            if pooled:
                self.pool.release(obj)  # type: ignore[arg-type]
        self._pending.clear()
        if self._sock is not None:
            self._sock.close()
            self._sock = None

    # -- receive: the drain loop -------------------------------------------------

    def _on_readable(self) -> None:
        if self._closed:
            return
        gstate = self._gstate
        gstate.draining += 1
        try:
            while True:
                n = self._recv_chunk()
                # Consume every send the chunk's callbacks enqueued (on any
                # group member) BEFORE the buffers the forwarded views
                # point into are overwritten by the next chunk.
                self._flush_group()
                if n < BATCH or self._closed:
                    break
        finally:
            gstate.draining -= 1

    def _recv_chunk(self) -> int:
        """Fill up to :data:`BATCH` ring slots, then dispatch the datagrams.

        Returns the number of slots the chunk used, so a full chunk means
        more may be queued.
        """
        assert self._sock is not None
        sock = self._sock
        bufs = self._rbufs
        views = self._rviews
        filled = []
        for i in range(BATCH):
            try:
                nbytes = sock.recv_into(bufs[i], RECV_SIZE)
            except (BlockingIOError, InterruptedError):
                break
            except ConnectionRefusedError:
                # Queued ICMP error from a peer that briefly had no
                # listener; UDP semantics say keep going.  The slot holds
                # nothing — reuse it.
                filled.append((i, -1))
                continue
            filled.append((i, nbytes))
        got = [(i, n) for i, n in filled if n >= 0]
        if not got:
            return 0
        self.stats.recv_batches += 1
        self.stats.datagrams_received += len(got)
        dispatch = self.on_datagram
        for i, nbytes in got:
            if self._closed:
                break
            dispatch(views[i][:nbytes])
        return len(filled)

    # -- send: gather + flush ----------------------------------------------------

    def send(self, data, addr: Address) -> None:
        """Queue one datagram (bytes, or a view consumed by the flush).

        Inside a drain (of any group member) the per-chunk group flush
        batches this send with its siblings; outside one, it leaves now.
        """
        if self._closed:
            return
        self._pending.append((data, len(data), addr, False))
        if not self._gstate.draining:
            self.flush()

    def send_pooled(self, buf: bytearray, nbytes: int, addr: Address) -> None:
        """Queue a pool buffer's first ``nbytes``; released after sending."""
        if self._closed:
            self.pool.release(buf)
            return
        self._pending.append((buf, nbytes, addr, True))
        if not self._gstate.draining:
            self.flush()

    def _flush_group(self) -> None:
        for io in self.group:
            if io._pending and not io._closed:
                io.flush()

    def flush(self) -> None:
        """Push pending sends out; stabilize + defer leftovers on EAGAIN.

        Postcondition: no pending entry borrows caller memory (receive
        buffers) — whatever could not leave synchronously has been copied
        into pool buffers and will be retried on socket writability.
        """
        sock = self._sock
        pending = self._pending
        if not pending or sock is None:
            return
        sent_any = 0
        while pending:
            obj, nbytes, addr, pooled = pending[0]
            data = obj if len(obj) == nbytes else memoryview(obj)[:nbytes]
            try:
                sock.sendto(data, addr)
            except (BlockingIOError, InterruptedError):
                break
            except OSError:
                self.stats.send_errors += 1
            else:
                sent_any += 1
                self.stats.datagrams_sent += 1
            if pooled:
                self.pool.release(obj)
            del pending[0]
        if sent_any:
            self.stats.send_batches += 1
        if pending:
            self._stabilize_pending()
            self._arm_writer()

    def _stabilize_pending(self) -> None:
        """Copy borrowed views into pool buffers (deferred-flush safety)."""
        pending = self._pending
        for i, (obj, nbytes, addr, pooled) in enumerate(pending):
            if pooled or isinstance(obj, bytes):
                continue
            buf = self.pool.acquire(nbytes)
            buf[:nbytes] = obj[:nbytes] if len(obj) != nbytes else obj
            pending[i] = (buf, nbytes, addr, True)
            self.stats.stabilized += 1

    def _arm_writer(self) -> None:
        if self._writer_armed or self._closed or self._loop is None:
            return
        self._writer_armed = True
        self._loop.add_writer(self._fd, self._on_writable)

    def _on_writable(self) -> None:
        if self._closed:
            return
        self.flush()
        if not self._pending and self._writer_armed:
            self._loop.remove_writer(self._fd)
            self._writer_armed = False


def link_flush_group(ios: List[BatchedDatagramIO]) -> None:
    """Merge the given IOs into one shared flush group.

    Required whenever a datagram drained on one socket can enqueue a send
    on another (station ⇄ proxy topologies): the drain loop flushes the
    *group* after each chunk, keeping every borrowed view inside its
    validity window.
    """
    merged: List[BatchedDatagramIO] = []
    for io in ios:
        for member in io.group:
            if member not in merged:
                merged.append(member)
    state = _GroupState()
    for old in {id(io._gstate): io._gstate for io in merged}.values():
        state.draining += old.draining
    for io in merged:
        io.group = merged
        io._gstate = state


def merge_wire_stats(ios: List[BatchedDatagramIO]) -> WireStats:
    """Aggregate stats across a run's sockets (for the scenario report)."""
    total = WireStats()
    for io in ios:
        total.merge(io.stats)
    return total
