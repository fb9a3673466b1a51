"""The batched datagram layer: drain/flush mechanics and hygiene.

Two layers of pinning for docs/PROTOCOL.md §15:

* **unit** — :class:`BatchedDatagramIO` against real loopback sockets,
  on both the recvmmsg/sendmmsg fast path and the portable fallback:
  multi-chunk drains, zero-copy forwards across a flush group, short
  datagrams, connected-peer mode, and buffer-pool accounting;
* **hygiene** — every pooled send buffer is back in the pool when a run
  ends, including runs where both stations cold-restart mid-flight with
  total amnesia (in-flight buffers must not leak across the restart).
"""

from __future__ import annotations

import asyncio

import pytest

from repro.live import BackoffPolicy, LiveScenario
from repro.live.scenario import run_live_scenario
from repro.live.wire import (
    BatchedDatagramIO,
    BufferPool,
    link_flush_group,
    mmsg_available,
)
from repro.resilience.faultplan import CrashAt, FaultPlan

_FAST_POLL = BackoffPolicy(base=0.002, factor=2.0, cap=0.05, jitter=0.25)

# Every unit test runs on whatever fast path the host has AND the
# portable fallback, so CI on any platform exercises both code paths.
_MODES = [pytest.param(False, id="fallback")]
if mmsg_available():
    _MODES.append(pytest.param(True, id="mmsg"))


async def _idle(seconds: float = 0.05) -> None:
    await asyncio.sleep(seconds)


# -- unit: drain/flush mechanics -------------------------------------------------


@pytest.mark.parametrize("use_mmsg", _MODES)
def test_multi_chunk_drain_delivers_everything_in_order(use_mmsg):
    # More datagrams than one BATCH, with sizes from 1 byte to well past
    # a chunk's typical frame — the drain loop must hand every one to the
    # callback, complete and in kernel-queue order, across chunks.
    count = 3 * 32 + 7
    payloads = [bytes([i & 0xFF]) * (1 + (i * 37) % 900) for i in range(count)]

    async def scenario():
        got = []
        rx = BatchedDatagramIO(lambda view: got.append(bytes(view)),
                               use_mmsg=use_mmsg)
        tx = BatchedDatagramIO(lambda view: None, use_mmsg=use_mmsg)
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
    assert rx_stats.mmsg is (use_mmsg and mmsg_available())
    if use_mmsg:
        # The point of the batch layer: far fewer wakeups than datagrams.
        assert rx_stats.recv_batches < count


@pytest.mark.parametrize("use_mmsg", _MODES)
def test_forwarded_views_cross_the_flush_group_intact(use_mmsg):
    # The proxy pattern: a datagram drained on one socket is forwarded
    # out a *different* socket as the receive-buffer view itself (zero
    # copy).  The group flush must consume it before the buffer is
    # reused, so the far end sees the exact bytes.
    count = 80
    payloads = [b"%03d" % i + b"x" * (i % 50) for i in range(count)]

    async def scenario():
        got = []
        sink = BatchedDatagramIO(lambda view: got.append(bytes(view)),
                                 use_mmsg=use_mmsg)
        out = BatchedDatagramIO(lambda view: None, use_mmsg=use_mmsg)
        relay = BatchedDatagramIO(
            lambda view: out.send(view, sink_addr), use_mmsg=use_mmsg)
        tx = BatchedDatagramIO(lambda view: None, use_mmsg=use_mmsg)
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


@pytest.mark.parametrize("use_mmsg", _MODES)
def test_pooled_sends_return_every_buffer(use_mmsg):
    count = 100

    async def scenario():
        pool = BufferPool()
        got = []
        rx = BatchedDatagramIO(lambda view: got.append(bytes(view)),
                               pool=pool, use_mmsg=use_mmsg)
        tx = BatchedDatagramIO(lambda view: None, pool=pool,
                               use_mmsg=use_mmsg)
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


@pytest.mark.parametrize("use_mmsg", _MODES)
def test_connected_mode_pins_the_peer(use_mmsg):
    async def scenario():
        got = []
        rx = BatchedDatagramIO(lambda view: got.append(bytes(view)),
                               use_mmsg=use_mmsg)
        tx = BatchedDatagramIO(lambda view: None, use_mmsg=use_mmsg)
        await rx.open()
        await tx.open()
        dest = rx.local_address
        tx.connect(dest)
        for i in range(50):
            tx.send(b"c%02d" % i, dest)
        with pytest.raises(ValueError):
            tx.send(b"stray", ("127.0.0.1", 1))
        pool_buf = tx.pool.acquire(8)
        with pytest.raises(ValueError):
            tx.send_pooled(pool_buf, 4, ("127.0.0.1", 1))
        outstanding = tx.pool.outstanding  # rejected buffer was released
        for _ in range(40):
            await _idle(0.01)
            if len(got) == 50:
                break
        tx.close()
        rx.close()
        return got, outstanding

    got, outstanding = asyncio.run(scenario())
    assert got == [b"c%02d" % i for i in range(50)]
    assert outstanding == 0


def test_use_mmsg_flag_is_explicit():
    io = BatchedDatagramIO(lambda view: None, use_mmsg=False)
    assert io.stats.mmsg is False
    if not mmsg_available():
        with pytest.raises(OSError):
            BatchedDatagramIO(lambda view: None, use_mmsg=True)


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
    # The scenario's sockets take the fast path wherever the host has it.
    assert report.wire_stats.mmsg is mmsg_available()
