"""Zero-copy batched datagram I/O for the live protocol stack.

asyncio's stock datagram transport wakes the event loop once per datagram
and allocates a fresh ``bytes`` per packet in each direction.  On loopback
with zero synthetic latency the 8-lane handshake chain is self-clocking,
so syscall count and allocation churn *are* the throughput ceiling.  This
module is the live stack's one datagram layer, a drain/flush socket layer:

* **Drain**: one reader-ready wakeup drains *every* queued datagram from
  the non-blocking socket — via a ctypes ``recvmmsg`` fast path (one
  syscall per chunk of up to :data:`BATCH`) where libc provides it, else a
  ``recv_into`` loop — into preallocated receive buffers, and hands each
  one to the callback as a ``memoryview`` slice.  **A delivered view is
  only valid until the next drain chunk** (docs/PROTOCOL.md §15); anything
  that must outlive the wakeup is copied by whoever holds it.
* **Flush**: sends gather into a pending batch and leave in one
  ``sendmmsg`` call per chunk (fallback: a ``sendto`` loop).  Inside a
  drain, the batch is flushed after every chunk and *before* the receive
  buffers are reused, so forwarded views are always consumed while still
  valid.  Several IOs (the chaos proxy's two sides plus both stations)
  share one *flush group* for exactly this reason: a datagram drained on
  one socket may enqueue sends on another.
* **Pooling**: outbound packets are encoded straight into reusable
  ``bytearray`` buffers from a :class:`BufferPool`; the pool's counters
  (``outstanding``/``allocated``/``high_water``) make buffer leaks — e.g.
  a crash-amnesia restart forgetting in-flight buffers — checkable.

If a flush cannot complete synchronously (``EAGAIN``: the send buffer is
full), the leftover entries are *stabilized* — borrowed views copied into
pool buffers — and a writer callback retries, so no pending send ever
references a receive buffer across wakeups.

Everything here degrades cleanly: no ``recvmmsg``/``sendmmsg`` in libc
(non-Linux), ``REPRO_NO_MMSG=1`` in the environment, or ``use_mmsg=False``
selects the plain non-blocking fallback with identical semantics.
"""

from __future__ import annotations

import ctypes
import errno
import os
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
    "mmsg_available",
]

Address = Tuple[str, int]

#: Datagrams per recvmmsg/sendmmsg call.  Also the reuse granularity of the
#: receive buffers: views handed out for one chunk die when the next chunk
#: is drained.
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
    recv_batches: int = 0   # recvmmsg/recv-loop chunks that yielded data
    send_batches: int = 0   # sendmmsg/sendto-loop flushes that sent data
    send_errors: int = 0    # datagrams dropped on a hard send error
    stabilized: int = 0     # borrowed views copied on a deferred flush
    mmsg: bool = False      # True when the ctypes fast path is active

    def merge(self, other: "WireStats") -> None:
        self.datagrams_received += other.datagrams_received
        self.datagrams_sent += other.datagrams_sent
        self.recv_batches += other.recv_batches
        self.send_batches += other.send_batches
        self.send_errors += other.send_errors
        self.stabilized += other.stabilized
        self.mmsg = self.mmsg or other.mmsg


# -- ctypes recvmmsg/sendmmsg ---------------------------------------------------
#
# Structures mirror <sys/socket.h> on Linux; ctypes applies native field
# alignment, which matches the ABI (the 4-byte pad after msg_namelen falls
# out of aligning the msg_iov pointer).

class _IoVec(ctypes.Structure):
    _fields_ = [("iov_base", ctypes.c_void_p),
                ("iov_len", ctypes.c_size_t)]


class _MsgHdr(ctypes.Structure):
    _fields_ = [("msg_name", ctypes.c_void_p),
                ("msg_namelen", ctypes.c_uint),
                ("msg_iov", ctypes.POINTER(_IoVec)),
                ("msg_iovlen", ctypes.c_size_t),
                ("msg_control", ctypes.c_void_p),
                ("msg_controllen", ctypes.c_size_t),
                ("msg_flags", ctypes.c_int)]


class _MMsgHdr(ctypes.Structure):
    _fields_ = [("msg_hdr", _MsgHdr),
                ("msg_len", ctypes.c_uint)]


class _SockAddrIn(ctypes.Structure):
    _fields_ = [("sin_family", ctypes.c_ushort),
                ("sin_port", ctypes.c_ushort),   # network byte order
                ("sin_addr", ctypes.c_ubyte * 4),
                ("sin_zero", ctypes.c_ubyte * 8)]


#: Zero-length window type for borrowing a buffer's base address without
#: creating a per-size array type on every send (``(c_char * n)`` would
#: allocate a new ctypes type for each distinct length).
_C0 = ctypes.c_char * 0


class _MMsgApi:
    __slots__ = ("recvmmsg", "sendmmsg")

    def __init__(self, recvmmsg, sendmmsg) -> None:
        self.recvmmsg = recvmmsg
        self.sendmmsg = sendmmsg


_MMSG_API: Optional[_MMsgApi] = None
_MMSG_PROBED = False


def _load_mmsg() -> Optional[_MMsgApi]:
    """Resolve recvmmsg/sendmmsg from libc once; None where unavailable."""
    global _MMSG_API, _MMSG_PROBED
    if _MMSG_PROBED:
        return _MMSG_API
    _MMSG_PROBED = True
    if os.environ.get("REPRO_NO_MMSG"):
        return None
    try:
        libc = ctypes.CDLL(None, use_errno=True)
        recvmmsg = libc.recvmmsg
        sendmmsg = libc.sendmmsg
    except (OSError, AttributeError):
        return None
    recvmmsg.argtypes = [ctypes.c_int, ctypes.POINTER(_MMsgHdr),
                         ctypes.c_uint, ctypes.c_int, ctypes.c_void_p]
    recvmmsg.restype = ctypes.c_int
    sendmmsg.argtypes = [ctypes.c_int, ctypes.POINTER(_MMsgHdr),
                         ctypes.c_uint, ctypes.c_int]
    sendmmsg.restype = ctypes.c_int
    _MMSG_API = _MMsgApi(recvmmsg, sendmmsg)
    return _MMSG_API


def mmsg_available() -> bool:
    """Whether the recvmmsg/sendmmsg fast path can be used on this host."""
    return _load_mmsg() is not None


def _pack_sockaddr(addr: Address) -> _SockAddrIn:
    sa = _SockAddrIn()
    sa.sin_family = socket.AF_INET
    sa.sin_port = socket.htons(addr[1])
    packed = socket.inet_aton(addr[0])
    for i in range(4):
        sa.sin_addr[i] = packed[i]
    return sa


_EAGAIN = {errno.EAGAIN, errno.EWOULDBLOCK}


class _GroupState:
    """Drain bookkeeping shared by every member of one flush group.

    ``draining`` counts group members currently inside their drain loop;
    sends enqueued while it is non-zero wait for the per-chunk group flush
    (one shared counter beats scanning the member list on every send).

    ``base_cache`` maps ``id(buffer) -> (buffer, base address)`` for
    buffers whose C base address is stable: pool send buffers and every
    member's receive buffers.  It is shared group-wide because a datagram
    drained on one socket is often forwarded out another (the proxy), and
    the flush on the *destination* socket is what needs the address.
    Values hold the buffer, so a cached id can never be recycled.
    """

    __slots__ = ("draining", "base_cache")

    def __init__(self) -> None:
        self.draining = 0
        self.base_cache: "dict[int, Tuple[object, int]]" = {}


class BatchedDatagramIO:
    """One non-blocking UDP socket with batch drain/flush semantics.

    ``on_datagram`` receives each drained datagram as a writable
    ``memoryview`` slice of a reused receive buffer — valid only until the
    callback returns control to the drain loop (next chunk overwrites it).

    Sends (:meth:`send` for stable/borrowed data, :meth:`send_pooled` for
    pool buffers filled via ``encode_packet_into``) gather into a pending
    list; :meth:`flush` pushes them out in ``sendmmsg`` chunks.  While any
    member of the flush group is draining, sends wait for the per-chunk
    group flush instead of leaving one-at-a-time.
    """

    def __init__(
        self,
        on_datagram: Callable[[memoryview], None],
        pool: Optional[BufferPool] = None,
        batch: int = BATCH,
        recv_size: int = RECV_SIZE,
        use_mmsg: Optional[bool] = None,
    ) -> None:
        self.on_datagram = on_datagram
        self.pool = pool if pool is not None else BufferPool()
        self.batch = batch
        self.recv_size = recv_size
        api = _load_mmsg() if use_mmsg in (None, True) else None
        if use_mmsg is True and api is None:
            raise OSError("recvmmsg/sendmmsg not available on this platform")
        self._api = api
        self.stats = WireStats(mmsg=api is not None)
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
        # addr -> (sockaddr struct, its address).  The struct keeps the
        # memory alive; the cached integer is what sendmmsg headers want.
        self._saddr_cache: "dict[Address, Tuple[_SockAddrIn, int]]" = {}
        # Preallocated receive machinery (shared by both paths; the mmsg
        # arrays additionally pin iovecs/headers to the buffers once).
        self._rbufs = [bytearray(recv_size) for _ in range(batch)]
        self._rviews = [memoryview(b) for b in self._rbufs]
        if api is not None:
            self._recvmmsg = api.recvmmsg
            self._sendmmsg = api.sendmmsg
            self._rcbufs = [(ctypes.c_char * recv_size).from_buffer(b)
                            for b in self._rbufs]
            # Drained views are always offset-0 slices of these buffers,
            # so the flush path can reuse the base addresses pinned here.
            for rbuf, ref in zip(self._rbufs, self._rcbufs):
                self._gstate.base_cache[id(rbuf)] = (
                    rbuf, ctypes.addressof(ref))
            self._riovs = (_IoVec * batch)()
            self._rhdrs = (_MMsgHdr * batch)()
            for i in range(batch):
                self._riovs[i].iov_base = ctypes.cast(
                    self._rcbufs[i], ctypes.c_void_p)
                self._riovs[i].iov_len = recv_size
                hdr = self._rhdrs[i].msg_hdr
                hdr.msg_name = None  # sender address unused: peers are fixed
                hdr.msg_namelen = 0
                hdr.msg_iov = ctypes.pointer(self._riovs[i])
                hdr.msg_iovlen = 1
            # Everything invariant in the send headers is written once
            # here; per-flush work is reduced to three machine-word stores
            # per datagram through the flat views below (ctypes attribute
            # access costs ~10x a memoryview word store).
            self._shdrs = (_MMsgHdr * batch)()
            self._siovs = (_IoVec * batch)()
            for i in range(batch):
                hdr = self._shdrs[i].msg_hdr
                hdr.msg_namelen = ctypes.sizeof(_SockAddrIn)
                hdr.msg_iov = ctypes.pointer(self._siovs[i])
                hdr.msg_iovlen = 1
            self._siov_q = memoryview(self._siovs).cast("B").cast("Q")
            self._shdr_q = memoryview(self._shdrs).cast("B").cast("Q")
            self._shdr_stride = ctypes.sizeof(_MMsgHdr) // 8  # msg_name is word 0
            mlen_off = _MMsgHdr.msg_len.offset
            stride = ctypes.sizeof(_MMsgHdr)
            self._rlens = memoryview(self._rhdrs).cast("B").cast("I")
            self._rlen_idx = [(mlen_off + stride * i) // 4
                              for i in range(batch)]

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
                if n < self.batch or self._closed:
                    break
        finally:
            gstate.draining -= 1

    def _recv_chunk(self) -> int:
        if self._api is not None:
            return self._recv_chunk_mmsg()
        return self._recv_chunk_fallback()

    def _recv_chunk_mmsg(self) -> int:
        n = self._recvmmsg(self._fd, self._rhdrs, self.batch, 0, None)
        if n < 0:
            err = ctypes.get_errno()
            if err in _EAGAIN or err == errno.EINTR:
                return 0
            if err == errno.ECONNREFUSED:
                # Queued ICMP error from a peer that briefly had no
                # listener; UDP semantics say keep going.
                return 0
            raise OSError(err, os.strerror(err))
        if n == 0:
            return 0
        self.stats.recv_batches += 1
        self.stats.datagrams_received += n
        dispatch = self.on_datagram
        views = self._rviews
        lens = self._rlens
        idx = self._rlen_idx
        for i in range(n):
            if self._closed:
                break
            dispatch(views[i][: lens[idx[i]]])
        return n

    def _recv_chunk_fallback(self) -> int:
        assert self._sock is not None
        sock = self._sock
        bufs = self._rbufs
        views = self._rviews
        filled = []
        for i in range(self.batch):
            try:
                nbytes = sock.recv_into(bufs[i], self.recv_size)
            except (BlockingIOError, InterruptedError):
                break
            except ConnectionRefusedError:
                # Queued ICMP error; the slot holds nothing — reuse it.
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
        A forwarded receive view must be the exact slice handed to
        ``on_datagram`` (it starts at offset 0 of its backing buffer; the
        flush path relies on that when reusing cached base addresses).
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
        if not self._pending or self._sock is None:
            return
        if self._api is None or len(self._pending) == 1:
            # A lone datagram (timer-driven poll outside a drain) leaves
            # via plain sendto: one syscall either way, no marshalling.
            self._flush_fallback()
        else:
            self._flush_mmsg()
        if self._pending:
            self._stabilize_pending()
            self._arm_writer()

    def _flush_mmsg(self) -> None:
        fd = self._fd
        pending = self._pending
        batch = self.batch
        siov_q = self._siov_q
        shdr_q = self._shdr_q
        hstride = self._shdr_stride
        sendmmsg = self._sendmmsg
        saddr_cache = self._saddr_cache
        base_cache = self._gstate.base_cache
        from_buffer = _C0.from_buffer
        addressof = ctypes.addressof
        while pending:
            chunk = pending[:batch]
            # `keepalive` pins the borrowed ctypes windows until the
            # sendmmsg call returns.
            keepalive = []
            pin = keepalive.append
            qi = 0
            hi = 0
            for obj, nbytes, addr, pooled in chunk:
                if pooled:
                    # Pool buffers cycle, are never resized, and stay alive
                    # via the cache value — so their base address is stable
                    # and computed exactly once per buffer.
                    cached = base_cache.get(id(obj))
                    if cached is None or cached[0] is not obj:
                        ref = from_buffer(obj)
                        cached = (obj, addressof(ref))
                        del ref  # drop the export; address stays valid
                        base_cache[id(obj)] = cached
                    base = cached[1]
                elif type(obj) is bytes:
                    # Retransmitted frames (Axiom 2: identical re-sends)
                    # make the same immutable bytes objects recur; their
                    # buffer address is fixed for the object's lifetime,
                    # so it too is computed once.  The insert is bounded
                    # so one-shot payloads cannot grow the cache forever
                    # (past the bound they just recompute each flush).
                    cached = base_cache.get(id(obj))
                    if cached is not None and cached[0] is obj:
                        base = cached[1]
                    else:
                        # No keepalive pin needed: `chunk` holds obj past
                        # the sendmmsg call, and a cache hit keeps it
                        # alive via the cache value thereafter.
                        base = ctypes.cast(
                            ctypes.c_char_p(obj), ctypes.c_void_p).value
                        if len(base_cache) < 4096:
                            base_cache[id(obj)] = (obj, base)
                else:
                    # Writable memoryview — in practice a drained receive
                    # slice being forwarded, which is always an offset-0
                    # slice of a receive buffer registered group-wide.
                    cached = base_cache.get(id(obj.obj))
                    if cached is not None and cached[0] is obj.obj:
                        base = cached[1]
                    else:
                        # Unknown backing buffer: borrow a zero-length
                        # window; it still carries the base address.
                        ref = from_buffer(obj)
                        pin(ref)
                        base = addressof(ref)
                siov_q[qi] = base
                siov_q[qi + 1] = nbytes
                sa = saddr_cache.get(addr)
                if sa is None:
                    struct_ = _pack_sockaddr(addr)
                    sa = (struct_, addressof(struct_))
                    saddr_cache[addr] = sa
                shdr_q[hi] = sa[1]
                qi += 2
                hi += hstride
            sent = sendmmsg(fd, self._shdrs, len(chunk), 0)
            del keepalive
            if sent < 0:
                err = ctypes.get_errno()
                if err in _EAGAIN:
                    return  # caller stabilizes + defers the rest
                if err == errno.EINTR:
                    continue
                if err == errno.ECONNREFUSED:
                    # A queued ICMP error consumed the call; nothing from
                    # this chunk was sent.  Retry — the error is drained.
                    self.stats.send_errors += 1
                    continue
                # Hard error: fall back to per-datagram sendto so one bad
                # destination cannot wedge the whole batch.
                self._flush_fallback()
                return
            self.stats.send_batches += 1
            self.stats.datagrams_sent += sent
            for obj, _n, _addr, pooled in chunk[:sent]:
                if pooled:
                    self.pool.release(obj)  # type: ignore[arg-type]
            del pending[:sent]
            if sent < len(chunk):
                return  # kernel backpressure mid-chunk: defer the rest

    def _flush_fallback(self) -> None:
        assert self._sock is not None
        sock = self._sock
        pending = self._pending
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
        state.base_cache.update(old.base_cache)
    for io in merged:
        io.group = merged
        io._gstate = state


def merge_wire_stats(ios: List[BatchedDatagramIO]) -> WireStats:
    """Aggregate stats across a run's sockets (for the scenario report)."""
    total = WireStats()
    for io in ios:
        total.merge(io.stats)
    return total
