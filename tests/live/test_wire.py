"""The batched datagram layer: drain/flush mechanics and hygiene.

Two layers of pinning for docs/PROTOCOL.md §15:

* **unit** — :class:`BatchedDatagramIO` against real loopback sockets:
  multi-chunk drains, zero-copy forwards across a flush group, the
  deferred flush when the send buffer is full, a refused receive, a hard
  send error, and buffer-pool accounting;
* **hygiene** — every pooled send buffer is back in the pool when a run
  ends, including runs where both stations cold-restart mid-flight with
  total amnesia (in-flight buffers must not leak across the restart).
"""

from __future__ import annotations

import asyncio

from repro.live import BackoffPolicy, LiveScenario
from repro.live.scenario import run_live_scenario
from repro.live.wire import BatchedDatagramIO, BufferPool, link_flush_group
from repro.resilience.faultplan import CrashAt, FaultPlan

_FAST_POLL = BackoffPolicy(base=0.002, factor=2.0, cap=0.05, jitter=0.25)


async def _idle(seconds: float = 0.05) -> None:
    await asyncio.sleep(seconds)


class _FullSendBuffer:
    """A socket whose first ``refusals`` sends find the send buffer full."""

    def __init__(self, sock, refusals: int) -> None:
        self._sock = sock
        self.refusals = refusals

    def sendto(self, data, addr):
        if self.refusals:
            self.refusals -= 1
            raise BlockingIOError
        return self._sock.sendto(data, addr)

    def __getattr__(self, name):
        return getattr(self._sock, name)


class _RefusedReceive:
    """A socket whose first ``refusals`` receives report an ICMP refusal."""

    def __init__(self, sock, refusals: int) -> None:
        self._sock = sock
        self.refusals = refusals

    def recv_into(self, buf, nbytes):
        if self.refusals:
            self.refusals -= 1
            raise ConnectionRefusedError
        return self._sock.recv_into(buf, nbytes)

    def __getattr__(self, name):
        return getattr(self._sock, name)


# -- unit: drain/flush mechanics -------------------------------------------------


def test_multi_chunk_drain_delivers_everything_in_order():
    # More datagrams than one BATCH, with sizes from 1 byte to well past
    # a chunk's typical frame — the drain loop must hand every one to the
    # callback, complete and in kernel-queue order, across chunks.
    count = 3 * 32 + 7
    payloads = [bytes([i & 0xFF]) * (1 + (i * 37) % 900) for i in range(count)]

    async def scenario():
        got = []
        rx = BatchedDatagramIO(lambda view: got.append(bytes(view)))
        tx = BatchedDatagramIO(lambda view: None)
        await rx.open()
        await tx.open()
        dest = rx.local_address
        for payload in payloads:
            tx.send(payload, dest)
        for _ in range(40):
            await _idle(0.01)
            if len(got) == count:
                break
        tx.close()
        rx.close()
        return got, rx.stats, tx.stats

    got, rx_stats, tx_stats = asyncio.run(scenario())
    assert got == payloads  # loopback UDP preserves order; nothing lost
    assert rx_stats.datagrams_received == count
    assert tx_stats.datagrams_sent == count
    # The point of the drain loop: far fewer chunks than datagrams.
    assert rx_stats.recv_batches < count


def test_forwarded_views_cross_the_flush_group_intact():
    # The proxy pattern: a datagram drained on one socket is forwarded
    # out a *different* socket as the receive-buffer view itself (zero
    # copy).  The group flush must consume it before the buffer is
    # reused, so the far end sees the exact bytes.
    count = 80
    payloads = [b"%03d" % i + b"x" * (i % 50) for i in range(count)]

    async def scenario():
        got = []
        sink = BatchedDatagramIO(lambda view: got.append(bytes(view)))
        out = BatchedDatagramIO(lambda view: None)
        relay = BatchedDatagramIO(lambda view: out.send(view, sink_addr))
        tx = BatchedDatagramIO(lambda view: None)
        for io in (sink, out, relay, tx):
            await io.open()
        link_flush_group([sink, out, relay, tx])
        sink_addr = sink.local_address
        for payload in payloads:
            tx.send(payload, relay.local_address)
        for _ in range(40):
            await _idle(0.01)
            if len(got) == count:
                break
        for io in (sink, out, relay, tx):
            io.close()
        return got

    got = asyncio.run(scenario())
    assert sorted(got) == sorted(payloads)
    assert got == payloads  # and loopback order survived the forward


def test_deferred_flush_copies_borrowed_views_and_retries():
    # The relay pattern again, but the out socket's send buffer is full for
    # its first few sends: the leftover forwards must be copied out of the
    # receive buffers before the next chunk reuses them, then leave, in
    # order, once the socket is writable, and the writer must go away.
    count = 80
    payloads = [b"%03d" % i + b"y" * (i % 50) for i in range(count)]

    async def scenario():
        loop = asyncio.get_running_loop()
        pool = BufferPool()
        got = []
        sink = BatchedDatagramIO(lambda view: got.append(bytes(view)))
        out = BatchedDatagramIO(lambda view: None, pool=pool)
        relay = BatchedDatagramIO(lambda view: out.send(view, sink_addr))
        tx = BatchedDatagramIO(lambda view: None)
        for io in (sink, out, relay, tx):
            await io.open()
        link_flush_group([sink, out, relay, tx])
        full = out._sock = _FullSendBuffer(out._sock, refusals=3)
        sink_addr = sink.local_address
        for payload in payloads:
            tx.send(payload, relay.local_address)
        for _ in range(40):
            await _idle(0.01)
            if len(got) == count:
                break
        armed = out._writer_armed
        writer_gone = not loop.remove_writer(out._fd)
        for io in (sink, out, relay, tx):
            io.close()
        return got, out.stats, full.refusals, armed, writer_gone, pool

    got, stats, refusals, armed, writer_gone, pool = asyncio.run(scenario())
    assert got == payloads
    assert refusals == 0
    assert stats.stabilized > 0
    assert stats.datagrams_sent == count
    assert not armed and writer_gone
    assert pool.outstanding == 0


def test_a_refused_receive_is_skipped_and_the_drain_goes_on():
    # A UDP socket may report a queued ICMP port-unreachable on a later
    # receive.  The drain must count no datagram for it, raise nothing
    # into the loop, and deliver everything queued behind it, in order.
    count = 10
    payloads = [b"%02d" % i for i in range(count)]

    async def scenario():
        errors = []
        asyncio.get_running_loop().set_exception_handler(
            lambda loop, context: errors.append(context))
        got = []
        rx = BatchedDatagramIO(lambda view: got.append(bytes(view)))
        tx = BatchedDatagramIO(lambda view: None)
        await rx.open()
        await tx.open()
        refused = rx._sock = _RefusedReceive(rx._sock, refusals=2)
        for payload in payloads:
            tx.send(payload, rx.local_address)
        for _ in range(40):
            await _idle(0.01)
            if len(got) == count:
                break
        rx.close()
        tx.close()
        return got, rx.stats, refused.refusals, errors

    got, stats, refusals, errors = asyncio.run(scenario())
    assert got == payloads
    assert refusals == 0
    assert stats.datagrams_received == count
    assert errors == []


def test_a_hard_send_error_drops_only_that_datagram():
    # A datagram the kernel refuses outright (one past UDP's 65,507-byte
    # limit) is counted and dropped and its pool buffer goes home, while
    # the forwards queued around it in the same group flush still leave.
    oversized = 70_000
    triggers = [b"a", b"bb", b"ccc"]

    async def scenario():
        pool = BufferPool()
        got = []

        def forward(view):
            out.send_pooled(pool.acquire(oversized), oversized, sink_addr)
            out.send(view, sink_addr)

        sink = BatchedDatagramIO(lambda view: got.append(bytes(view)))
        out = BatchedDatagramIO(lambda view: None, pool=pool)
        relay = BatchedDatagramIO(forward)
        tx = BatchedDatagramIO(lambda view: None)
        for io in (sink, out, relay, tx):
            await io.open()
        link_flush_group([out, relay])
        sink_addr = sink.local_address
        for trigger in triggers:
            tx.send(trigger, relay.local_address)
        for _ in range(40):
            await _idle(0.01)
            if len(got) == len(triggers):
                break
        outstanding = pool.outstanding
        for io in (sink, out, relay, tx):
            io.close()
        return got, out.stats, outstanding

    got, stats, outstanding = asyncio.run(scenario())
    assert got == triggers
    assert stats.send_errors == len(triggers)
    assert stats.datagrams_sent == len(triggers)
    assert stats.send_batches == 1  # one group flush carried the chunk
    assert outstanding == 0  # released on the error, not at close


def test_close_returns_every_buffer_of_a_pending_backlog():
    # A socket that never becomes writable again: whatever is still
    # pending at close, pooled sends and stabilized views alike, goes
    # back to the pool.
    async def scenario():
        pool = BufferPool()
        out = BatchedDatagramIO(lambda view: None, pool=pool)
        await out.open()
        out._sock = _FullSendBuffer(out._sock, refusals=1_000)
        dest = out.local_address
        for i in range(5):
            buf = pool.acquire(16)
            buf[:4] = b"%04d" % i
            out.send_pooled(buf, 4, dest)
        out.send(memoryview(bytearray(b"borrowed")), dest)
        backlog = len(out._pending), pool.outstanding, out.stats.stabilized
        out.close()
        # Sends after close queue nothing, and a pooled one goes home.
        out.send(b"late", dest)
        out.send_pooled(pool.acquire(16), 4, dest)
        return backlog, out, pool

    backlog, out, pool = asyncio.run(scenario())
    assert backlog == (6, 6, 1)
    assert pool.outstanding == 0
    assert not out._pending and not out._writer_armed
    assert out.stats.datagrams_sent == 0


def test_pooled_sends_return_every_buffer():
    count = 100

    async def scenario():
        pool = BufferPool()
        got = []
        rx = BatchedDatagramIO(lambda view: got.append(bytes(view)),
                               pool=pool)
        tx = BatchedDatagramIO(lambda view: None, pool=pool)
        await rx.open()
        await tx.open()
        dest = rx.local_address
        for i in range(count):
            buf = pool.acquire(64)
            buf[0:8] = i.to_bytes(8, "big")
            tx.send_pooled(buf, 8, dest)
        for _ in range(40):
            await _idle(0.01)
            if len(got) == count:
                break
        tx.close()
        rx.close()
        return got, pool

    got, pool = asyncio.run(scenario())
    assert [int.from_bytes(g, "big") for g in got] == list(range(count))
    assert pool.outstanding == 0  # every buffer came home
    assert pool.allocated <= pool.max_free + pool.high_water


def test_buffer_pool_accounting():
    pool = BufferPool(default_size=32, max_free=2)
    a = pool.acquire()
    b = pool.acquire(100)
    assert len(a) == 32 and len(b) == 100
    assert pool.outstanding == 2 and pool.high_water == 2
    pool.release(a)
    pool.release(b)
    assert pool.outstanding == 0 and pool.free_count == 2
    c = pool.acquire()
    pool.release(c)
    assert pool.allocated == 2  # recycled, not regrown
    # The free list is bounded: a burst beyond max_free is dropped.
    burst = [pool.acquire() for _ in range(5)]
    for buf in burst:
        pool.release(buf)
    assert pool.free_count == 2
    # A too-small recycled buffer is replaced, never handed out short.
    big = pool.acquire(4096)
    assert len(big) >= 4096


# -- hygiene: the pool across crash-amnesia restarts ----------------------------


def test_crash_amnesia_does_not_leak_pool_buffers():
    # Both stations cold-restart with total amnesia mid-run; whatever
    # pooled send buffers were in flight at the crash must still come
    # home by teardown.  This is the §15 hygiene invariant.
    report = run_live_scenario(LiveScenario(
        messages=20,
        seed=2026,
        lanes=4,
        plan=FaultPlan.of(CrashAt(step=15, station="T"),
                          CrashAt(step=40, station="R")),
        poll=_FAST_POLL,
        budget=45.0,
        give_up_idle=5.0,
        label="wire-hygiene",
    ))
    assert report.ok, report.reason
    assert report.crashes_t == 1 and report.crashes_r == 1
    assert report.pool_outstanding == 0
    assert report.pool_high_water >= 1  # the pool actually carried traffic
