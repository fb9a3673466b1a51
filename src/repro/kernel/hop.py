"""Persistent flat-state kernel for one relay-fabric hop.

The fabric (:mod:`repro.transport.fabric`) drives every directed edge's
``_LinkSimulator`` in small bursts — ``steps_per_tick`` simulation steps
per fabric tick, interleaved with routing, draining and fault events.
``run_kernel`` cannot serve that shape: it is built around whole-run
borrow/sync of the object graph, and paying extract + sync per burst
would cost more than the object engine it replaces.

:class:`HopKernel` keeps the flat slot-indexed state (the same layout as
:mod:`repro.kernel.engine`) *resident between bursts*: station slots,
int-coded nonces, flat channel stores and the link-gated wire FIFO all
live on the kernel instance, and :meth:`tick` loads them into plain
locals, runs the inlined per-step loop, and stores them back.  The
fabric-facing surface of ``_LinkSimulator`` is served from the flat
state directly:

* **push-style feed** — the shared ``feed`` deque is polled exactly
  where the object engine's ``_advance_workload`` override would run;
* **delivery collector** — a ``receive_msg`` appends the frame bytes
  straight to the shared ``delivered`` deque (the trace-surface hook:
  with ``retain="none"`` the object path's ``ReceiveMsg`` event exists
  only to feed that observer, so the kernel skips materialising it and
  settles the trace counters at :meth:`finalize`);
* **topology faults** — ``crash_transmitter``/``crash_receiver`` apply
  the stations' crash transitions on the flat slots between bursts, and
  the wire's up/down gate reads the shared :class:`LinkState` each tick.

The per-hop wire is always a ``_LinkAdversary`` — a FIFO gated by
``LinkState.up`` that draws no randomness — so its whole decision
procedure inlines to a handful of int ops; the station RNG tapes are
consumed in exactly the object engine's order.  :meth:`finalize` is the
veneer contract's sync half: called once when the fabric run ends, it
writes stations, stats, channels, wire queue, trace counters and metrics
back to the objects, after which ``FabricRun._aggregate_metrics`` (and
any test) observes exactly what the object engine would have produced.
The fabric differential suite (tests/transport/test_fabric_differential)
pins kernel-fabric == object-fabric per seed across topologies and the
topology-event zoo.
"""

from collections import deque

from repro.channel.channel import _make_packet_info
from repro.core.events import (
    ChannelId,
    CrashR,
    CrashT,
    Ok,
    ReceiveMsg,
    SendMsg,
)
from repro.core.exceptions import AxiomViolationError, UnknownPacketError
from repro.kernel.engine import (
    _extract_receiver,
    _extract_transmitter,
    _sync_receiver,
    _sync_transmitter,
)

__all__ = ["HopKernel"]

_T_TO_R = ChannelId.T_TO_R
_R_TO_T = ChannelId.R_TO_T


class HopKernel:
    """Flat-state executor bound to one installed ``_LinkSimulator``.

    Construct immediately after the simulator (stations fresh, channels
    empty, wire queue empty); from then on the kernel's slots are the
    truth and the object graph is stale until :meth:`finalize`.
    """

    def __init__(self, sim) -> None:
        self._sim = sim
        self._wire = sim.wire
        self._link_state = self._wire._state
        self.feed = sim.feed
        self.delivered = sim.delivered
        self._submitted = sim._submitted_payloads

        transmitter = sim._transmitter
        receiver = sim._receiver
        (
            self.t_busy, self.t_msg, self.t_tau_v, self.t_tau_l,
            self.t_ptau_v, self.t_ptau_l, self.t_gen, self.t_num,
            self.t_iseen, self.t_rnv, self.t_rnl,
            self.ts_sent, self.ts_oks, self.ts_crashes, self.ts_err,
            self.ts_ext, self.ts_ign, self.ts_maxtau,
        ) = _extract_transmitter(transmitter)
        (
            self.r_kk, self.r_gen, self.r_num, self.r_i,
            self.r_tau_v, self.r_tau_l, self.r_rho_v, self.r_rho_l,
            self.r_prv, self.r_prl,
            self.rs_sent, self.rs_deliv, self.rs_crashes, self.rs_err,
            self.rs_ext, self.rs_stale, self.rs_tauupd, self.rs_maxrho,
        ) = _extract_receiver(receiver)
        self._t_grb = transmitter._rng._rng.getrandbits
        self._r_grb = receiver._rng._rng.getrandbits
        self.t_bits = 0
        self.r_bits = 0

        params = transmitter._params
        self._size = params.size
        self._bound = params.bound
        self._size1 = params.size(1)
        self.poll_len = (
            17 + ((self.r_rho_l + 7) >> 3) + ((self.r_tau_l + 7) >> 3)
        ) << 3

        # Channels: the flat stores stay parked on the channel objects for
        # the kernel's lifetime (both are empty at fabric construction).
        t_to_r = sim._t_to_r
        r_to_t = sim._r_to_t
        self.tr_store = t_to_r._flatten()
        self.tr_next = t_to_r._next_id
        self.tr_sent = t_to_r._sent_count
        self.tr_deliv = t_to_r._delivered_count
        self.tr_bits = t_to_r._bits_sent
        self.rt_store = r_to_t._flatten()
        self.rt_next = r_to_t._next_id
        self.rt_sent = r_to_t._sent_count
        self.rt_deliv = r_to_t._delivered_count
        self.rt_bits = r_to_t._bits_sent

        # Wire FIFO as (to_receiver, packet_id, length_bits) triples, in
        # announcement order across both channels.
        self.wire_q = deque(
            (info.channel is _T_TO_R, info.packet_id, info.length_bits)
            for info in self._wire._queue
        )
        self._wire._queue.clear()
        self.wire_dropped = self._wire.dropped

        # Simulator loop slots.
        self.steps = sim._steps
        self._retry_every = sim._retry_every
        self.retry_countdown = sim._retry_countdown
        self._sample_every = sim._storage_sample_every
        self.storage_countdown = sim._storage_countdown
        self.next_message = sim._next_message
        self.workload_exhausted = sim._workload_exhausted

        # Metrics mirrors and trace-event tallies.
        metrics = sim._metrics
        self.storage_peak = metrics._storage_peak
        self.m_submitted = metrics.messages_submitted
        self.m_ok = metrics.messages_ok
        self.m_delivered = metrics.messages_delivered
        self.m_retries = metrics.retries
        self.m_crash_t = metrics.crashes_t
        self.m_crash_r = metrics.crashes_r
        self.n_send = self.n_recv = self.n_ok = self.n_ct = self.n_cr = 0

        # Finalize baselines (deltas feed the sim's deferred tallies).
        self._steps0 = self.steps
        self._tr_sent0 = self.tr_sent
        self._tr_deliv0 = self.tr_deliv
        self._rt_sent0 = self.rt_sent
        self._rt_deliv0 = self.rt_deliv
        self._m_retries0 = self.m_retries

    # -- fabric-facing surface ---------------------------------------------------------

    @property
    def active(self) -> bool:
        return bool(
            self.feed
            or self.next_message is not None
            or self.t_busy
            or self.wire_q
        )

    def wipe_feed(self) -> int:
        wiped = len(self.feed) + (1 if self.next_message is not None else 0)
        self.feed.clear()
        self.next_message = None
        return wiped

    def crash_transmitter(self) -> None:
        """The transmitter's crash transition on the flat slots."""
        self.n_ct += 1
        self.m_crash_t += 1
        size1 = self._size1
        self.t_busy = False
        self.t_msg = None
        self.t_bits += size1
        self.t_tau_v = ((1 << size1) | self._t_grb(size1)) if size1 else 1
        self.t_tau_l = 1 + size1
        self.t_ptau_v = 0
        self.t_ptau_l = -1
        self.t_gen = 1
        self.t_num = 0
        self.t_iseen = 0
        self.t_rnv = 0
        self.t_rnl = -1
        self.ts_crashes += 1
        if self.t_tau_l > self.ts_maxtau:
            self.ts_maxtau = self.t_tau_l

    def crash_receiver(self) -> None:
        """The receiver's crash transition on the flat slots."""
        self.n_cr += 1
        self.m_crash_r += 1
        size1 = self._size1
        self.r_kk = 1
        self.r_gen = 1
        self.r_num = 0
        self.r_i = 1
        self.r_tau_v = 0
        self.r_tau_l = 1
        self.r_bits += size1
        self.r_rho_v = self._r_grb(size1) if size1 else 0
        self.r_rho_l = size1
        self.r_prv = 0
        self.r_prl = -1
        self.rs_crashes += 1
        self.poll_len = (
            17 + ((self.r_rho_l + 7) >> 3) + ((self.r_tau_l + 7) >> 3)
        ) << 3
        if self.r_rho_l > self.rs_maxrho:
            self.rs_maxrho = self.r_rho_l

    # -- the burst loop ----------------------------------------------------------------

    def tick(self, burst: int) -> None:
        """Advance ``burst`` simulation steps (one fabric tick's share)."""
        # ---- load slots into locals --------------------------------------
        feed = self.feed
        next_message = self.next_message
        workload_exhausted = self.workload_exhausted
        if next_message is None and feed:
            next_message = feed.popleft()
            workload_exhausted = False

        t_busy = self.t_busy
        t_msg = self.t_msg
        t_tau_v = self.t_tau_v
        t_tau_l = self.t_tau_l
        t_ptau_v = self.t_ptau_v
        t_ptau_l = self.t_ptau_l
        t_gen = self.t_gen
        t_num = self.t_num
        t_iseen = self.t_iseen
        t_rnv = self.t_rnv
        t_rnl = self.t_rnl
        ts_sent = self.ts_sent
        ts_oks = self.ts_oks
        ts_err = self.ts_err
        ts_ext = self.ts_ext
        ts_ign = self.ts_ign
        ts_maxtau = self.ts_maxtau
        r_kk = self.r_kk
        r_gen = self.r_gen
        r_num = self.r_num
        r_i = self.r_i
        r_tau_v = self.r_tau_v
        r_tau_l = self.r_tau_l
        r_rho_v = self.r_rho_v
        r_rho_l = self.r_rho_l
        r_prv = self.r_prv
        r_prl = self.r_prl
        rs_sent = self.rs_sent
        rs_deliv = self.rs_deliv
        rs_err = self.rs_err
        rs_ext = self.rs_ext
        rs_stale = self.rs_stale
        rs_tauupd = self.rs_tauupd
        rs_maxrho = self.rs_maxrho
        t_bits = self.t_bits
        r_bits = self.r_bits
        tr_store = self.tr_store
        rt_store = self.rt_store
        tr_next = self.tr_next
        tr_sent = self.tr_sent
        tr_deliv = self.tr_deliv
        tr_bits = self.tr_bits
        rt_next = self.rt_next
        rt_sent = self.rt_sent
        rt_deliv = self.rt_deliv
        rt_bits = self.rt_bits
        wire_q = self.wire_q
        wire_dropped = self.wire_dropped
        steps = self.steps
        retry_every = self._retry_every
        retry_countdown = self.retry_countdown
        sample_every = self._sample_every
        storage_countdown = self.storage_countdown
        storage_peak = self.storage_peak
        poll_len = self.poll_len
        m_submitted = self.m_submitted
        m_ok = self.m_ok
        m_delivered = self.m_delivered
        m_retries = self.m_retries
        n_send = self.n_send
        n_recv = self.n_recv
        n_ok = self.n_ok
        t_grb = self._t_grb
        r_grb = self._r_grb
        size = self._size
        bound = self._bound
        size1 = self._size1
        submitted = self._submitted
        delivered_append = self.delivered.append
        # LinkState.up only changes between fabric ticks (_apply_topology),
        # never inside a burst, so one read gates the whole burst.
        up = self._link_state.up

        try:
            remaining = burst
            while remaining:
                # -- idle fast-forward ------------------------------------
                # A step with an empty wire and nothing to submit only
                # decrements the retry/storage countdowns: no packet moves,
                # no randomness is drawn, no counter changes.  Batch every
                # such step up to the next cadence firing in O(1) — the
                # result is bit-identical to stepping one at a time.
                if not wire_q and (t_busy or next_message is None):
                    n = retry_countdown - 1
                    if storage_countdown and storage_countdown - 1 < n:
                        n = storage_countdown - 1
                    if n > remaining:
                        n = remaining
                    if n > 0:
                        steps += n
                        retry_countdown -= n
                        if storage_countdown:
                            storage_countdown -= n
                        remaining -= n
                        if not remaining:
                            break
                remaining -= 1
                steps += 1

                # -- higher layer: submit next frame when idle ------------
                if not t_busy and next_message is not None:
                    message = next_message
                    if message in submitted:
                        raise AxiomViolationError(
                            f"Axiom 2 violated: payload {message!r} "
                            "submitted twice"
                        )
                    submitted.add(message)
                    next_message = feed.popleft() if feed else None
                    workload_exhausted = False
                    n_send += 1
                    m_submitted += 1
                    if not isinstance(message, bytes):
                        raise TypeError("messages must be bytes")
                    t_busy = True
                    t_msg = message
                    t_ptau_v = t_tau_v
                    t_ptau_l = t_tau_l
                    t_bits += size1
                    t_tau_v = ((1 << size1) | t_grb(size1)) if size1 else 1
                    t_tau_l = 1 + size1
                    t_gen = 1
                    t_num = 0
                    if t_tau_l > ts_maxtau:
                        ts_maxtau = t_tau_l
                    if t_rnl >= 0:
                        ts_sent += 1
                        pid = tr_next
                        tr_next = pid + 1
                        tr_store[pid] = (message, t_rnv, t_rnl, t_tau_v, t_tau_l)
                        tr_sent += 1
                        tr_bits += (
                            13 + len(message) + ((t_rnl + 7) >> 3)
                            + ((t_tau_l + 7) >> 3)
                        ) << 3
                        if up:
                            wire_q.append((
                                True,
                                pid,
                                (13 + len(message) + ((t_rnl + 7) >> 3)
                                 + ((t_tau_l + 7) >> 3)) << 3,
                            ))
                        else:
                            wire_dropped += 1

                # -- RETRY cadence ----------------------------------------
                countdown = retry_countdown - 1
                if countdown:
                    retry_countdown = countdown
                else:
                    retry_countdown = retry_every
                    m_retries += 1
                    pid = rt_next
                    rt_next = pid + 1
                    rt_store[pid] = (r_rho_v, r_rho_l, r_tau_v, r_tau_l, r_i)
                    rt_sent += 1
                    rt_bits += poll_len
                    r_i += 1
                    rs_sent += 1
                    if up:
                        wire_q.append((False, pid, poll_len))
                    else:
                        wire_dropped += 1

                # -- wire move (inlined _LinkAdversary) -------------------
                if not up:
                    if wire_q:
                        wire_dropped += len(wire_q)
                        wire_q.clear()
                elif wire_q:
                    to_r, dpid, _ln = wire_q.popleft()
                    if to_r:
                        # Delivery on C^{T->R} + Receiver transition.
                        pkt = tr_store.get(dpid)
                        if pkt is None:
                            raise UnknownPacketError(dpid)
                        tr_deliv += 1
                        message, prv_, prl_, ptv, ptl = pkt
                        if prv_ == r_rho_v and prl_ == r_rho_l:
                            if (
                                r_tau_l <= ptl
                                and (ptv >> (ptl - r_tau_l)) == r_tau_v
                            ):
                                if r_tau_l != ptl:
                                    r_tau_v = ptv
                                    r_tau_l = ptl
                                    rs_tauupd += 1
                                    poll_len = (
                                        17 + ((r_rho_l + 7) >> 3)
                                        + ((r_tau_l + 7) >> 3)
                                    ) << 3
                            elif (
                                ptl <= r_tau_l
                                and (r_tau_v >> (r_tau_l - ptl)) == ptv
                            ):
                                rs_stale += 1
                            else:
                                r_tau_v = ptv
                                r_tau_l = ptl
                                r_kk += 1
                                r_gen = 1
                                r_num = 0
                                r_i = 1
                                r_prv = r_rho_v
                                r_prl = r_rho_l
                                r_bits += size1
                                r_rho_v = r_grb(size1) if size1 else 0
                                r_rho_l = size1
                                rs_deliv += 1
                                poll_len = (
                                    17 + ((r_rho_l + 7) >> 3)
                                    + ((r_tau_l + 7) >> 3)
                                ) << 3
                                if r_rho_l > rs_maxrho:
                                    rs_maxrho = r_rho_l
                                delivered_append(message)
                                n_recv += 1
                                m_delivered += 1
                        elif prl_ == r_rho_l and not (
                            r_prl >= 0 and prl_ == r_prl and prv_ == r_prv
                        ):
                            r_num += 1
                            rs_err += 1
                            if r_num >= bound(r_gen):
                                r_gen += 1
                                r_num = 0
                                s = size(r_gen)
                                r_bits += s
                                if s:
                                    r_rho_v = (r_rho_v << s) | r_grb(s)
                                r_rho_l += s
                                rs_ext += 1
                                poll_len = (
                                    17 + ((r_rho_l + 7) >> 3)
                                    + ((r_tau_l + 7) >> 3)
                                ) << 3
                                if r_rho_l > rs_maxrho:
                                    rs_maxrho = r_rho_l
                    else:
                        # Delivery on C^{R->T} + Transmitter transition.
                        pkt = rt_store.get(dpid)
                        if pkt is None:
                            raise UnknownPacketError(dpid)
                        rt_deliv += 1
                        prv_, prl_, ptv, ptl, pretry = pkt
                        if t_busy:
                            if (
                                t_tau_l <= ptl
                                and (ptv >> (ptl - t_tau_l)) == t_tau_v
                            ):
                                t_busy = False
                                t_msg = None
                                t_rnv = prv_
                                t_rnl = prl_
                                t_iseen = 0
                                t_gen = 1
                                t_num = 0
                                ts_oks += 1
                                n_ok += 1
                                m_ok += 1
                            else:
                                if ptl == t_tau_l and not (
                                    t_ptau_l >= 0
                                    and ptl == t_ptau_l
                                    and ptv == t_ptau_v
                                ):
                                    t_num += 1
                                    ts_err += 1
                                    if t_num >= bound(t_gen):
                                        t_gen += 1
                                        t_num = 0
                                        s = size(t_gen)
                                        t_bits += s
                                        if s:
                                            t_tau_v = (t_tau_v << s) | t_grb(s)
                                        t_tau_l += s
                                        ts_ext += 1
                                        if t_tau_l > ts_maxtau:
                                            ts_maxtau = t_tau_l
                                if pretry > t_iseen:
                                    t_iseen = pretry
                                    ts_sent += 1
                                    message = t_msg
                                    pid = tr_next
                                    tr_next = pid + 1
                                    tr_store[pid] = (
                                        message, prv_, prl_, t_tau_v, t_tau_l
                                    )
                                    tr_sent += 1
                                    length = (
                                        13 + len(message) + ((prl_ + 7) >> 3)
                                        + ((t_tau_l + 7) >> 3)
                                    ) << 3
                                    tr_bits += length
                                    # up is True on this branch: announce
                                    # lands on the wire unconditionally.
                                    wire_q.append((True, pid, length))
                                else:
                                    ts_ign += 1
                        else:
                            if (
                                t_tau_l <= ptl
                                and (ptv >> (ptl - t_tau_l)) == t_tau_v
                                and pretry > t_iseen
                            ):
                                t_rnv = prv_
                                t_rnl = prl_
                                t_iseen = pretry
                            else:
                                ts_ign += 1

                # -- storage sampling -------------------------------------
                if storage_countdown:
                    storage_countdown -= 1
                    if not storage_countdown:
                        storage_countdown = sample_every
                        bits_now = (
                            t_tau_l
                            + (t_ptau_l if t_ptau_l > 0 else 0)
                            + r_rho_l
                            + r_tau_l
                            + (r_prl if r_prl > 0 else 0)
                        )
                        if bits_now > storage_peak:
                            storage_peak = bits_now
        finally:
            # ---- store locals back into slots ----------------------------
            self.t_busy = t_busy
            self.t_msg = t_msg
            self.t_tau_v = t_tau_v
            self.t_tau_l = t_tau_l
            self.t_ptau_v = t_ptau_v
            self.t_ptau_l = t_ptau_l
            self.t_gen = t_gen
            self.t_num = t_num
            self.t_iseen = t_iseen
            self.t_rnv = t_rnv
            self.t_rnl = t_rnl
            self.ts_sent = ts_sent
            self.ts_oks = ts_oks
            self.ts_err = ts_err
            self.ts_ext = ts_ext
            self.ts_ign = ts_ign
            self.ts_maxtau = ts_maxtau
            self.r_kk = r_kk
            self.r_gen = r_gen
            self.r_num = r_num
            self.r_i = r_i
            self.r_tau_v = r_tau_v
            self.r_tau_l = r_tau_l
            self.r_rho_v = r_rho_v
            self.r_rho_l = r_rho_l
            self.r_prv = r_prv
            self.r_prl = r_prl
            self.rs_sent = rs_sent
            self.rs_deliv = rs_deliv
            self.rs_err = rs_err
            self.rs_ext = rs_ext
            self.rs_stale = rs_stale
            self.rs_tauupd = rs_tauupd
            self.rs_maxrho = rs_maxrho
            self.t_bits = t_bits
            self.r_bits = r_bits
            self.tr_next = tr_next
            self.tr_sent = tr_sent
            self.tr_deliv = tr_deliv
            self.tr_bits = tr_bits
            self.rt_next = rt_next
            self.rt_sent = rt_sent
            self.rt_deliv = rt_deliv
            self.rt_bits = rt_bits
            self.wire_dropped = wire_dropped
            self.steps = steps
            self.retry_countdown = retry_countdown
            self.storage_countdown = storage_countdown
            self.storage_peak = storage_peak
            self.poll_len = poll_len
            self.m_submitted = m_submitted
            self.m_ok = m_ok
            self.m_delivered = m_delivered
            self.m_retries = m_retries
            self.n_send = n_send
            self.n_recv = n_recv
            self.n_ok = n_ok
            self.next_message = next_message
            self.workload_exhausted = workload_exhausted

    # -- sync-back ---------------------------------------------------------------------

    def finalize(self) -> None:
        """Write the flat state back to the object graph (veneer contract).

        Shares the station sync with :func:`repro.kernel.engine.run_kernel`
        (``_sync_transmitter``/``_sync_receiver``); idempotent so a
        defensive second call is harmless.
        """
        sim = self._sim
        transmitter = sim._transmitter
        receiver = sim._receiver

        _sync_transmitter(transmitter, (
            self.t_busy, self.t_msg, self.t_tau_v, self.t_tau_l,
            self.t_ptau_v, self.t_ptau_l, self.t_gen, self.t_num,
            self.t_iseen, self.t_rnv, self.t_rnl,
            self.ts_sent, self.ts_oks, self.ts_crashes, self.ts_err,
            self.ts_ext, self.ts_ign, self.ts_maxtau,
        ))
        transmitter._rng._bits_drawn += self.t_bits
        self.t_bits = 0
        _sync_receiver(receiver, (
            self.r_kk, self.r_gen, self.r_num, self.r_i,
            self.r_tau_v, self.r_tau_l, self.r_rho_v, self.r_rho_l,
            self.r_prv, self.r_prl,
            self.rs_sent, self.rs_deliv, self.rs_crashes, self.rs_err,
            self.rs_ext, self.rs_stale, self.rs_tauupd, self.rs_maxrho,
        ))
        receiver._rng._bits_drawn += self.r_bits
        self.r_bits = 0

        # The flat stores are still parked (see __init__).
        t_to_r = sim._t_to_r
        r_to_t = sim._r_to_t
        t_to_r._next_id = self.tr_next
        t_to_r._sent_count = self.tr_sent
        t_to_r._delivered_count = self.tr_deliv
        t_to_r._bits_sent = self.tr_bits
        r_to_t._next_id = self.rt_next
        r_to_t._sent_count = self.rt_sent
        r_to_t._delivered_count = self.rt_deliv
        r_to_t._bits_sent = self.rt_bits

        wire = self._wire
        wire._queue = deque(
            _make_packet_info(_T_TO_R if to_r else _R_TO_T, pid, length)
            for to_r, pid, length in self.wire_q
        )
        wire.dropped = self.wire_dropped
        wire._moves_made += self.steps - self._steps0
        self._steps0 = self.steps

        sim._steps = self.steps
        sim._tx_busy = self.t_busy
        sim._retry_countdown = self.retry_countdown
        sim._storage_countdown = self.storage_countdown
        sim._next_message = self.next_message
        sim._workload_exhausted = self.workload_exhausted
        if not sim._record_pkt_sent:
            sim._pkt_sent_tally += (
                (self.tr_sent - self._tr_sent0)
                + (self.rt_sent - self._rt_sent0)
            )
        if not sim._record_pkt_delivered:
            sim._pkt_delivered_tally += (
                (self.tr_deliv - self._tr_deliv0)
                + (self.rt_deliv - self._rt_deliv0)
            )
        if not sim._record_retry:
            sim._retry_tally += self.m_retries - self._m_retries0
        self._tr_sent0 = self.tr_sent
        self._tr_deliv0 = self.tr_deliv
        self._rt_sent0 = self.rt_sent
        self._rt_deliv0 = self.rt_deliv
        self._m_retries0 = self.m_retries

        # Settle the trace counters for the events the loop never
        # materialised (retain="none": every event is counted and dropped;
        # the ReceiveMsg observer's work already happened via `delivered`).
        trace = sim._trace
        total = self.n_send + self.n_recv + self.n_ok + self.n_ct + self.n_cr
        if total:
            trace._total += total
            trace._dropped += total
            counts = trace._counts
            fresh = False
            for cls, n in (
                (SendMsg, self.n_send),
                (ReceiveMsg, self.n_recv),
                (Ok, self.n_ok),
                (CrashT, self.n_ct),
                (CrashR, self.n_cr),
            ):
                if n:
                    if cls in counts:
                        counts[cls] += n
                    else:
                        counts[cls] = n
                        fresh = True
            if fresh:
                trace._query_cache.clear()
            self.n_send = self.n_recv = self.n_ok = 0
            self.n_ct = self.n_cr = 0

        metrics = sim._metrics
        metrics.messages_submitted = self.m_submitted
        metrics.messages_ok = self.m_ok
        metrics.messages_delivered = self.m_delivered
        metrics.retries = self.m_retries
        metrics.crashes_t = self.m_crash_t
        metrics.crashes_r = self.m_crash_r
        metrics._storage_peak = self.storage_peak

        sim._flush_tallies()
