"""Flat slot-indexed step kernel for the GHM data-link simulation.

``run_kernel(sim)`` executes an installed :class:`~repro.sim.simulator.
Simulator`'s run loop with every piece of hot-path state flattened into
plain Python ints and small preallocated containers:

* **Station slots** — the transmitter's and receiver's volatile memory
  (Section 2.4/2.5 of the paper) lives in local int variables:
  ``busy`` flags, generation counters ``t``/``num``, retry indices, and
  every nonce as a ``(value, length)`` int pair.  A length of ``-1``
  encodes the object engine's ``None`` (no ``prev_tau`` / ``rho_next``).
* **Int-coded nonces** — prefix tests and concatenations are the two
  int operations from :mod:`repro.core.bitstrings` inlined:
  ``tau1 ⊑ tau2  ⇔  l1 <= l2 and (v2 >> (l2 - l1)) == v1`` and
  ``tau·r = ((v << k) | bits, l + k)``.
* **Interned packets** — channels are dicts keyed by the small-int
  packet identifier minted at send time; a stored packet is a flat tuple
  of message bytes plus nonce ints, never a ``DataPacket``/``PollPacket``
  object, until sync-back materialises the survivors.
* **Precompiled adversary dispatch** — the adversary configuration is
  classified once into a small set of fast paths (fairness-wrapped or
  bare ``ReliableAdversary``/``RandomFaultAdversary``) whose coin
  schedule and pending-queue bookkeeping are mirrored move-for-move with
  flat state; anything else runs through the generic path that feeds the
  real adversary object exactly like the object engine does.

The veneer contract: the kernel *borrows* the state of the installed
objects at entry and *returns* it at exit.  Every station attribute,
stats counter, channel store, RNG tape position, adversary pending
structure and metrics field is synchronised back before the result is
returned, so checkers, forensics, campaign plumbing and subsequent
``reset()``/``run()`` cycles observe exactly what the object engine
would have produced.  Differential tests (tests/kernel/) pin the two
engines to identical event traces per seed across the fault-plan zoo.

Rare paths (state corruption, scripted adversaries, custom moves) drop
back to the object representation mid-run via the same sync machinery,
keeping behaviour identical without slowing the hot loop.
"""

from collections import deque
from time import perf_counter

from repro.adversary.base import (
    Corrupt,
    CrashReceiver,
    CrashTransmitter,
    Deliver,
    Pass,
    TriggerRetry,
)
from repro.adversary.benign import ReliableAdversary
from repro.adversary.fairness import FairnessEnforcer
from repro.adversary.random_faults import RandomFaultAdversary
from repro.channel.channel import _make_packet_info
from repro.checkers.streaming import _TIMED_STRIDE, _resolve_subclass
from repro.core.bitstrings import BitString
from repro.core.events import (
    CRASH_R,
    CRASH_T,
    OK,
    RETRY,
    ChannelId,
    Corruption,
    CrashR,
    CrashT,
    Ok,
    PktDelivered,
    PktSent,
    ReceiveMsg,
    Retry,
    SendMsg,
    make_pkt_delivered,
    make_pkt_sent,
    make_receive_msg,
    make_send_msg,
)
from repro.core.exceptions import (
    AxiomViolationError,
    SimulationError,
    UnknownPacketError,
)
from repro.core.packets import make_data_packet, make_poll_packet
from repro.core.random_source import RandomSource

_T_TO_R = ChannelId.T_TO_R
_R_TO_T = ChannelId.R_TO_T

# Adversary fast-path classification (see _classify_adversary).
_MODE_GENERIC = 0
_MODE_FAIR_RELIABLE = 1
_MODE_FAIR_RANDOM = 2
_MODE_BARE_RELIABLE = 3
_MODE_BARE_RANDOM = 4


def _classify_adversary(sim):
    """Pick the precompiled dispatch table for the installed adversary.

    Fast paths require the *exact* stock classes — subclasses may override
    coin schedules or bookkeeping, so they take the generic path where the
    real object decides every move.
    """
    adv = sim._adversary
    if type(adv) is FairnessEnforcer:
        inner = adv.inner
        if adv._inner_decide is None:
            return _MODE_GENERIC
        if type(inner) is ReliableAdversary:
            return _MODE_FAIR_RELIABLE
        if type(inner) is RandomFaultAdversary:
            return _MODE_FAIR_RANDOM
        return _MODE_GENERIC
    if type(adv) is ReliableAdversary:
        return _MODE_BARE_RELIABLE
    if type(adv) is RandomFaultAdversary:
        return _MODE_BARE_RANDOM
    return _MODE_GENERIC


def run_kernel(sim):
    """Run ``sim`` to completion on the flat kernel and return the result.

    Mirrors ``Simulator.run()`` step for step: same phase order, same RNG
    draws from the same tapes, same trace events in the same order, same
    error messages.  The Simulator must already be installed (its own
    ``run()`` handles construction/reset and dispatches here).

    Two execution paths share the slot layout and the veneer contract:

    * :func:`_run_fast` — the precompiled adversary modes.  One monolithic
      loop whose hot state lives entirely in plain locals (no closure
      cells), with the station transitions, channel bookkeeping, adversary
      coin schedule and fairness enforcement fully inlined, and — in the
      campaign configuration — trace/checker dispatch collapsed to direct
      monitor-handler calls.
    * :func:`_run_generic` — everything else (scripted plans, corruption,
      custom adversaries).  Flat slots mutated through closures, with the
      real adversary object deciding every move.
    """
    mode = _classify_adversary(sim)
    if mode == _MODE_GENERIC:
        return _run_generic(sim)
    return _run_fast(sim, mode)


def _extract_transmitter(transmitter):
    """Transmitter object -> flat state tuple (order matches _run_fast)."""
    bs = transmitter._tau
    t_tau_v = bs._value
    t_tau_l = bs._length
    bs = transmitter._prev_tau
    if bs is None:
        t_ptau_v = 0
        t_ptau_l = -1
    else:
        t_ptau_v = bs._value
        t_ptau_l = bs._length
    bs = transmitter._rho_next
    if bs is None:
        t_rnv = 0
        t_rnl = -1
    else:
        t_rnv = bs._value
        t_rnl = bs._length
    st = transmitter.stats
    return (
        transmitter._busy,
        transmitter._message,
        t_tau_v,
        t_tau_l,
        t_ptau_v,
        t_ptau_l,
        transmitter._t,
        transmitter._num,
        transmitter._i_seen,
        t_rnv,
        t_rnl,
        st.packets_sent,
        st.oks,
        st.crashes,
        st.errors_counted,
        st.extensions,
        st.polls_ignored,
        st.max_tau_bits,
    )


def _extract_receiver(receiver):
    """Receiver object -> flat state tuple (order matches _run_fast)."""
    bs = receiver._tau
    r_tau_v = bs._value
    r_tau_l = bs._length
    bs = receiver._rho
    r_rho_v = bs._value
    r_rho_l = bs._length
    bs = receiver._prev_rho
    if bs is None:
        r_prv = 0
        r_prl = -1
    else:
        r_prv = bs._value
        r_prl = bs._length
    st = receiver.stats
    return (
        receiver._k,
        receiver._t,
        receiver._num,
        receiver._i,
        r_tau_v,
        r_tau_l,
        r_rho_v,
        r_rho_l,
        r_prv,
        r_prl,
        st.packets_sent,
        st.deliveries,
        st.crashes,
        st.errors_counted,
        st.extensions,
        st.stale_ignored,
        st.tau_updates,
        st.max_rho_bits,
    )


def _run_fast(sim, mode):
    """Monolithic fast loop for the precompiled adversary modes.

    Every piece of hot state is a plain local of this one function — no
    closure cells, no attribute loads inside the loop — and the station
    transitions, channel bookkeeping, adversary coin schedule and fairness
    enforcement are all inlined.  When nothing but the streaming checkers
    observes the trace (the ``retain="none"`` campaign configuration),
    events additionally bypass ``Trace.append``/``StreamingChecks.observe``
    entirely: the loop calls the monitors' bound handlers directly and
    settles the trace counters and checker bookkeeping once at exit, so
    the observable state is identical to the object engine's.
    """
    from repro.sim.simulator import SimulationResult

    started = perf_counter()

    transmitter = sim._transmitter
    receiver = sim._receiver
    t_to_r = sim._t_to_r
    r_to_t = sim._r_to_t
    trace = sim._trace
    metrics = sim._metrics
    checks = sim._checks
    params = transmitter._params

    # ------------------------------------------------------------------
    # Extract: object graph -> flat locals.
    # ------------------------------------------------------------------

    (
        t_busy, t_msg, t_tau_v, t_tau_l, t_ptau_v, t_ptau_l,
        t_gen, t_num, t_iseen, t_rnv, t_rnl,
        ts_sent, ts_oks, ts_crashes, ts_err, ts_ext, ts_ign, ts_maxtau,
    ) = _extract_transmitter(transmitter)
    (
        r_kk, r_gen, r_num, r_i, r_tau_v, r_tau_l, r_rho_v, r_rho_l,
        r_prv, r_prl,
        rs_sent, rs_deliv, rs_crashes, rs_err, rs_ext, rs_stale,
        rs_tauupd, rs_maxrho,
    ) = _extract_receiver(receiver)

    t_grb = transmitter._rng._rng.getrandbits
    r_grb = receiver._rng._rng.getrandbits
    t_bits = 0
    r_bits = 0

    size = params.size
    bound = params.bound
    size1 = size(1)
    # Poll wire length depends only on (rho, tau) lengths, which change
    # rarely; cache it and refresh at the few sites that resize either.
    poll_len = (17 + ((r_rho_l + 7) >> 3) + ((r_tau_l + 7) >> 3)) << 3

    # Adopt a flat store parked by a previous kernel run, else flatten the
    # object-level packets.  Either way the invariant holds from here on:
    # the flat dicts are the truth and the object stores stay empty until
    # exit parks the result back (materialised lazily on first access —
    # see Channel._materialize).
    if t_to_r._flat_store is not None:
        tr_store = t_to_r._flat_store
        t_to_r._flat_store = None
    else:
        tr_store = {}
        for _pid, _pkt in t_to_r._store.items():
            tr_store[_pid] = (
                _pkt.message,
                _pkt.rho._value,
                _pkt.rho._length,
                _pkt.tau._value,
                _pkt.tau._length,
            )
        t_to_r._store.clear()
    tr_next = t_to_r._next_id
    tr_sent = t_to_r._sent_count
    tr_deliv = t_to_r._delivered_count
    tr_bits = t_to_r._bits_sent
    if r_to_t._flat_store is not None:
        rt_store = r_to_t._flat_store
        r_to_t._flat_store = None
    else:
        rt_store = {}
        for _pid, _pkt in r_to_t._store.items():
            rt_store[_pid] = (
                _pkt.rho._value,
                _pkt.rho._length,
                _pkt.tau._value,
                _pkt.tau._length,
                _pkt.retry,
            )
        r_to_t._store.clear()
    rt_next = r_to_t._next_id
    rt_sent = r_to_t._sent_count
    rt_deliv = r_to_t._delivered_count
    rt_bits = r_to_t._bits_sent

    # Recording.  Untraced tallies are derived at exit from the channel
    # counter deltas instead of being counted per event in the loop.
    trace_append = trace.append
    rec_sent = sim._record_pkt_sent
    rec_deliv = sim._record_pkt_delivered
    rec_retry = sim._record_retry
    tr_sent0 = tr_sent
    tr_deliv0 = tr_deliv
    rt_sent0 = rt_sent
    rt_deliv0 = rt_deliv

    # Direct checker dispatch: when the trace stores nothing and its only
    # observer is the streaming checker, resolve each emitted event class
    # -- the packet and retry classes too, when the run records them -- to
    # the monitors' bound handler tuple once, up front.  ``h_send is None``
    # means "no fast path" and every site falls back to ``trace.append``
    # (full/tail retention, extra observers, no checks).  The packet and
    # retry handlers stay None unless recorded; their counts are settled
    # at exit from the same deltas the untraced tallies use.
    h_send = h_recv = h_ok = h_ct = h_cr = None
    h_psent = h_pdel = h_retry = None
    timed = False
    stride = _TIMED_STRIDE
    ev_total = seen = samples = 0
    sampled = 0.0
    n_send = n_recv = n_ok = n_ct = n_cr = 0
    if trace._retain == "none":
        if checks is not None:
            observe = checks.observe
            table = checks._table
            expected = (observe,)
        else:
            table = None
            expected = ()
        resolved = []
        for _cls, _rec in (
            (SendMsg, True), (ReceiveMsg, True), (Ok, True), (CrashT, True),
            (CrashR, True), (PktSent, rec_sent), (PktDelivered, rec_deliv),
            (Retry, rec_retry),
        ):
            if not _rec:
                resolved.append(None)
                continue
            _obs = trace._observer_cache.get(_cls)
            if _obs is None:
                _obs = trace._resolve_observers(_cls)
            if _obs != expected:
                resolved = None
                break
            if table is None:
                resolved.append(())
                continue
            _handlers = table.get(_cls)
            if _handlers is None:
                _handlers = _resolve_subclass(table, _cls)
            resolved.append(_handlers)
        if resolved is not None:
            (h_send, h_recv, h_ok, h_ct, h_cr,
             h_psent, h_pdel, h_retry) = resolved
            ev_total = trace._total
            if checks is not None:
                timed = checks._timed
                seen = checks.events_seen
                samples = checks._timed_samples
                sampled = checks._sampled_seconds

    # Metrics mirrors.
    m_submitted = metrics.messages_submitted
    m_ok = metrics.messages_ok
    m_delivered = metrics.messages_delivered
    m_retries = metrics.retries
    m_retries0 = m_retries
    m_crash_t = metrics.crashes_t
    m_crash_r = metrics.crashes_r
    storage_peak = metrics._storage_peak
    keep_samples = metrics._keep_storage_samples
    samples_append = metrics._storage_samples.append

    # Simulator loop slots.
    steps = sim._steps
    max_steps = sim._max_steps
    retry_every = sim._retry_every
    retry_countdown = sim._retry_countdown
    storage_sample_every = sim._storage_sample_every
    storage_countdown = sim._storage_countdown
    next_message = sim._next_message
    workload_exhausted = sim._workload_exhausted
    message_iter = sim._message_iter
    submitted = sim._submitted_payloads

    # Adversary mirrors (see _run_generic for the structures' contracts).
    # The fairness enforcer's per-channel dicts are mirrored as two-slot
    # locals (there are exactly two channels); ``t_first`` preserves the
    # channel-dict insertion order the starvation scan iterates in.  For
    # FAIR_RELIABLE the bookkeeping is provably dead in-loop — the inner
    # FIFO delivers whenever anything is pending, so starvation counters
    # never move and forced deliveries never fire — and the enforcer's
    # exit state is derived from the FIFO queue instead.
    adv = sim._adversary
    steps0 = sim._steps
    pend_t = {}
    pend_r = {}
    starv_t = 0
    starv_r = 0
    seen_t = False
    seen_r = False
    t_first = True
    enf_count = 0
    patience = 0
    forced = 0
    rel_pend = deque()
    rf_pend = deque()
    rf_dropped = 0
    rf_dup = 0
    rf_crashes = 0
    inner_random = None
    inner_randint = None
    p_loss = p_dup = p_reorder = p_crash_t = p_crash_r = 0.0

    is_fair = mode == _MODE_FAIR_RELIABLE or mode == _MODE_FAIR_RANDOM
    is_rel = mode == _MODE_FAIR_RELIABLE or mode == _MODE_BARE_RELIABLE
    fair_track = mode == _MODE_FAIR_RANDOM

    if is_fair:
        patience = adv._patience
        enf_count = adv._pending_count
        first = True
        for _ch, _pend in adv._pending.items():
            flat = {_pid: _info.length_bits for _pid, _info in _pend.items()}
            if _ch is _T_TO_R:
                pend_t = flat
                seen_t = True
                if first:
                    t_first = True
            else:
                pend_r = flat
                seen_r = True
                if first:
                    t_first = False
            first = False
        starv_t = adv._starvation.get(_T_TO_R, 0)
        starv_r = adv._starvation.get(_R_TO_T, 0)
        forced = adv.forced_deliveries
        inner = adv.inner
    else:
        inner = adv

    if is_rel:
        for _info in inner._pending:
            rel_pend.append(
                (_info.channel is _T_TO_R, _info.packet_id, _info.length_bits)
            )
    else:
        for _info in inner._pending:
            rf_pend.append(
                (_info.channel is _T_TO_R, _info.packet_id, _info.length_bits)
            )
        rf_dropped = inner.dropped
        rf_dup = inner.duplicated
        rf_crashes = inner.crashes_injected
        inner_random = inner._random
        inner_randint = inner.rng.randint
        _prof = inner.profile
        p_loss = _prof.loss
        p_dup = _prof.duplicate
        p_reorder = _prof.reorder
        p_crash_t = _prof.crash_t
        p_crash_r = _prof.crash_r

    # Localise the module globals the loop touches.
    T2R = _T_TO_R
    R2T = _R_TO_T
    pc = perf_counter
    mk_send = make_send_msg
    mk_recv = make_receive_msg
    mk_psent = make_pkt_sent
    mk_pdel = make_pkt_delivered
    EV_OK = OK
    EV_RETRY = RETRY
    EV_CT = CRASH_T
    EV_CR = CRASH_R

    # ------------------------------------------------------------------
    # Main loop (phase order mirrors Simulator.run exactly).
    # ------------------------------------------------------------------

    error = None
    try:
        while steps < max_steps:
            if workload_exhausted and next_message is None and not t_busy:
                break
            steps += 1

            # -- higher layer: submit the next message when idle --------
            if not t_busy and next_message is not None:
                message = next_message
                if message in submitted:
                    raise AxiomViolationError(
                        f"Axiom 2 violated: payload {message!r} submitted twice"
                    )
                submitted.add(message)
                try:
                    next_message = next(message_iter)
                except StopIteration:
                    next_message = None
                    workload_exhausted = True
                if h_send is None:
                    trace_append(mk_send(message))
                elif h_send:
                    ev = mk_send(message)
                    idx = ev_total
                    ev_total = idx + 1
                    n_send += 1
                    seen += 1
                    if timed and seen % stride == 1:
                        _t0 = pc()
                        for h in h_send:
                            h(idx, ev)
                        sampled += pc() - _t0
                        samples += 1
                    else:
                        for h in h_send:
                            h(idx, ev)
                else:
                    ev_total += 1
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
                    length = (
                        13 + len(message) + ((t_rnl + 7) >> 3)
                        + ((t_tau_l + 7) >> 3)
                    ) << 3
                    tr_bits += length
                    if rec_sent:
                        if h_psent is None:
                            trace_append(mk_psent(T2R, pid, length))
                        else:
                            ev = mk_psent(T2R, pid, length)
                            idx = ev_total
                            ev_total = idx + 1
                            seen += 1
                            if timed and seen % stride == 1:
                                _t0 = pc()
                                for h in h_psent:
                                    h(idx, ev)
                                sampled += pc() - _t0
                                samples += 1
                            else:
                                for h in h_psent:
                                    h(idx, ev)
                    if is_fair:
                        if not seen_t:
                            seen_t = True
                            if not seen_r:
                                t_first = True
                        if fair_track:
                            pend_t[pid] = length
                            enf_count += 1
                    if is_rel:
                        rel_pend.append((True, pid, length))
                    elif inner_random() < p_loss:
                        rf_dropped += 1
                    else:
                        rf_pend.append((True, pid, length))

            # -- RETRY cadence -----------------------------------------
            countdown = retry_countdown - 1
            if countdown:
                retry_countdown = countdown
            else:
                retry_countdown = retry_every
                if rec_retry:
                    if h_retry is None:
                        trace_append(EV_RETRY)
                    else:
                        idx = ev_total
                        ev_total = idx + 1
                        seen += 1
                        if timed and seen % stride == 1:
                            _t0 = pc()
                            for h in h_retry:
                                h(idx, EV_RETRY)
                            sampled += pc() - _t0
                            samples += 1
                        else:
                            for h in h_retry:
                                h(idx, EV_RETRY)
                m_retries += 1
                pid = rt_next
                rt_next = pid + 1
                rt_store[pid] = (r_rho_v, r_rho_l, r_tau_v, r_tau_l, r_i)
                rt_sent += 1
                length = poll_len
                rt_bits += length
                r_i += 1
                rs_sent += 1
                if rec_sent:
                    if h_psent is None:
                        trace_append(mk_psent(R2T, pid, length))
                    else:
                        ev = mk_psent(R2T, pid, length)
                        idx = ev_total
                        ev_total = idx + 1
                        seen += 1
                        if timed and seen % stride == 1:
                            _t0 = pc()
                            for h in h_psent:
                                h(idx, ev)
                            sampled += pc() - _t0
                            samples += 1
                        else:
                            for h in h_psent:
                                h(idx, ev)
                if is_fair:
                    if not seen_r:
                        seen_r = True
                        if not seen_t:
                            t_first = False
                    if fair_track:
                        pend_r[pid] = length
                        enf_count += 1
                if is_rel:
                    rel_pend.append((False, pid, length))
                elif inner_random() < p_loss:
                    rf_dropped += 1
                else:
                    rf_pend.append((False, pid, length))

            # -- adversary move ----------------------------------------
            dpid = -1
            dto_r = False
            do_crash = 0
            if mode == _MODE_FAIR_RELIABLE:
                # The enforcer's starvation scan never fires here: the
                # inner FIFO delivers whenever anything is pending, so a
                # pass-step implies every channel is empty.
                if rel_pend:
                    dto_r, dpid, _ln = rel_pend.popleft()
            elif mode == _MODE_BARE_RELIABLE:
                if rel_pend:
                    dto_r, dpid, _ln = rel_pend.popleft()
            else:
                # Inner RandomFaultAdversary coin schedule (exact order).
                if inner_random() < p_crash_t:
                    rf_crashes += 1
                    do_crash = 1
                elif inner_random() < p_crash_r:
                    rf_crashes += 1
                    do_crash = 2
                elif rf_pend:
                    if p_reorder and inner_random() < p_reorder:
                        idx = inner_randint(0, len(rf_pend) - 1)
                        item = rf_pend[idx]
                        del rf_pend[idx]
                    else:
                        item = rf_pend.popleft()
                    if inner_random() < p_dup:
                        rf_pend.append(item)
                        rf_dup += 1
                    dto_r = item[0]
                    dpid = item[1]
                if mode == _MODE_FAIR_RANDOM:
                    if dpid >= 0:
                        if dto_r:
                            starv_t = 0
                            if pend_t.pop(dpid, None) is not None:
                                enf_count -= 1
                        else:
                            starv_r = 0
                            if pend_r.pop(dpid, None) is not None:
                                enf_count -= 1
                    elif enf_count:
                        # Starvation scan over the two channel slots, in
                        # channel-dict insertion order (first-seen wins a
                        # tie via the strict > comparison).
                        most = 0
                        most_count = 0
                        if t_first:
                            if pend_t:
                                starv_t += 1
                                if starv_t >= patience:
                                    most = 1
                                    most_count = starv_t
                            if pend_r:
                                starv_r += 1
                                if starv_r >= patience and starv_r > most_count:
                                    most = 2
                        else:
                            if pend_r:
                                starv_r += 1
                                if starv_r >= patience:
                                    most = 2
                                    most_count = starv_r
                            if pend_t:
                                starv_t += 1
                                if starv_t >= patience and starv_t > most_count:
                                    most = 1
                        if most:
                            # Forced delivery replaces the inner's move,
                            # even a crash.
                            if most == 1:
                                dpid = next(reversed(pend_t))
                                del pend_t[dpid]
                                starv_t = 0
                                dto_r = True
                            else:
                                dpid = next(reversed(pend_r))
                                del pend_r[dpid]
                                starv_r = 0
                                dto_r = False
                            enf_count -= 1
                            forced += 1
                            do_crash = 0

            # -- dispatch: delivery / crash / pass ---------------------
            if dpid >= 0:
                if dto_r:
                    # Channel delivery on C^{T->R} + Receiver transition.
                    pkt = tr_store.get(dpid)
                    if pkt is None:
                        raise UnknownPacketError(dpid)
                    tr_deliv += 1
                    if rec_deliv:
                        if h_pdel is None:
                            trace_append(mk_pdel(T2R, dpid))
                        else:
                            ev = mk_pdel(T2R, dpid)
                            idx = ev_total
                            ev_total = idx + 1
                            seen += 1
                            if timed and seen % stride == 1:
                                _t0 = pc()
                                for h in h_pdel:
                                    h(idx, ev)
                                sampled += pc() - _t0
                                samples += 1
                            else:
                                for h in h_pdel:
                                    h(idx, ev)
                    message, prv_, prl_, ptv, ptl = pkt
                    if prv_ == r_rho_v and prl_ == r_rho_l:
                        if r_tau_l <= ptl and (ptv >> (ptl - r_tau_l)) == r_tau_v:
                            if r_tau_l != ptl:
                                r_tau_v = ptv
                                r_tau_l = ptl
                                rs_tauupd += 1
                                poll_len = (
                                    17 + ((r_rho_l + 7) >> 3)
                                    + ((r_tau_l + 7) >> 3)
                                ) << 3
                        elif ptl <= r_tau_l and (r_tau_v >> (r_tau_l - ptl)) == ptv:
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
                            if h_recv is None:
                                trace_append(mk_recv(message))
                            elif h_recv:
                                ev = mk_recv(message)
                                idx = ev_total
                                ev_total = idx + 1
                                n_recv += 1
                                seen += 1
                                if timed and seen % stride == 1:
                                    _t0 = pc()
                                    for h in h_recv:
                                        h(idx, ev)
                                    sampled += pc() - _t0
                                    samples += 1
                                else:
                                    for h in h_recv:
                                        h(idx, ev)
                            else:
                                ev_total += 1
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
                    # Channel delivery on C^{R->T} + Transmitter transition.
                    pkt = rt_store.get(dpid)
                    if pkt is None:
                        raise UnknownPacketError(dpid)
                    rt_deliv += 1
                    if rec_deliv:
                        if h_pdel is None:
                            trace_append(mk_pdel(R2T, dpid))
                        else:
                            ev = mk_pdel(R2T, dpid)
                            idx = ev_total
                            ev_total = idx + 1
                            seen += 1
                            if timed and seen % stride == 1:
                                _t0 = pc()
                                for h in h_pdel:
                                    h(idx, ev)
                                sampled += pc() - _t0
                                samples += 1
                            else:
                                for h in h_pdel:
                                    h(idx, ev)
                    prv_, prl_, ptv, ptl, pretry = pkt
                    if t_busy:
                        if t_tau_l <= ptl and (ptv >> (ptl - t_tau_l)) == t_tau_v:
                            # OK test passed: current slot acknowledged.
                            t_busy = False
                            t_msg = None
                            t_rnv = prv_
                            t_rnl = prl_
                            t_iseen = 0
                            t_gen = 1
                            t_num = 0
                            ts_oks += 1
                            if h_ok is None:
                                trace_append(EV_OK)
                            elif h_ok:
                                idx = ev_total
                                ev_total = idx + 1
                                n_ok += 1
                                seen += 1
                                if timed and seen % stride == 1:
                                    _t0 = pc()
                                    for h in h_ok:
                                        h(idx, EV_OK)
                                    sampled += pc() - _t0
                                    samples += 1
                                else:
                                    for h in h_ok:
                                        h(idx, EV_OK)
                            else:
                                ev_total += 1
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
                                if rec_sent:
                                    if h_psent is None:
                                        trace_append(mk_psent(T2R, pid, length))
                                    else:
                                        ev = mk_psent(T2R, pid, length)
                                        idx = ev_total
                                        ev_total = idx + 1
                                        seen += 1
                                        if timed and seen % stride == 1:
                                            _t0 = pc()
                                            for h in h_psent:
                                                h(idx, ev)
                                            sampled += pc() - _t0
                                            samples += 1
                                        else:
                                            for h in h_psent:
                                                h(idx, ev)
                                if is_fair:
                                    if not seen_t:
                                        seen_t = True
                                        if not seen_r:
                                            t_first = True
                                    if fair_track:
                                        pend_t[pid] = length
                                        enf_count += 1
                                if is_rel:
                                    rel_pend.append((True, pid, length))
                                elif inner_random() < p_loss:
                                    rf_dropped += 1
                                else:
                                    rf_pend.append((True, pid, length))
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
            elif do_crash == 1:
                if h_ct is None:
                    trace_append(EV_CT)
                elif h_ct:
                    idx = ev_total
                    ev_total = idx + 1
                    n_ct += 1
                    seen += 1
                    if timed and seen % stride == 1:
                        _t0 = pc()
                        for h in h_ct:
                            h(idx, EV_CT)
                        sampled += pc() - _t0
                        samples += 1
                    else:
                        for h in h_ct:
                            h(idx, EV_CT)
                else:
                    ev_total += 1
                    n_ct += 1
                m_crash_t += 1
                t_busy = False
                t_msg = None
                t_bits += size1
                t_tau_v = ((1 << size1) | t_grb(size1)) if size1 else 1
                t_tau_l = 1 + size1
                t_ptau_v = 0
                t_ptau_l = -1
                t_gen = 1
                t_num = 0
                t_iseen = 0
                t_rnv = 0
                t_rnl = -1
                ts_crashes += 1
                if t_tau_l > ts_maxtau:
                    ts_maxtau = t_tau_l
            elif do_crash == 2:
                if h_cr is None:
                    trace_append(EV_CR)
                elif h_cr:
                    idx = ev_total
                    ev_total = idx + 1
                    n_cr += 1
                    seen += 1
                    if timed and seen % stride == 1:
                        _t0 = pc()
                        for h in h_cr:
                            h(idx, EV_CR)
                        sampled += pc() - _t0
                        samples += 1
                    else:
                        for h in h_cr:
                            h(idx, EV_CR)
                else:
                    ev_total += 1
                    n_cr += 1
                m_crash_r += 1
                r_kk = 1
                r_gen = 1
                r_num = 0
                r_i = 1
                r_tau_v = 0
                r_tau_l = 1
                r_bits += size1
                r_rho_v = r_grb(size1) if size1 else 0
                r_rho_l = size1
                r_prv = 0
                r_prl = -1
                rs_crashes += 1
                poll_len = (
                    17 + ((r_rho_l + 7) >> 3) + ((r_tau_l + 7) >> 3)
                ) << 3
                if r_rho_l > rs_maxrho:
                    rs_maxrho = r_rho_l

            # -- storage sampling --------------------------------------
            if storage_countdown:
                storage_countdown -= 1
                if not storage_countdown:
                    storage_countdown = storage_sample_every
                    bits_now = (
                        t_tau_l
                        + (t_ptau_l if t_ptau_l > 0 else 0)
                        + r_rho_l
                        + r_tau_l
                        + (r_prl if r_prl > 0 else 0)
                    )
                    if keep_samples:
                        samples_append(bits_now)
                    if bits_now > storage_peak:
                        storage_peak = bits_now
    except BaseException as exc:
        error = exc

    wall_seconds = perf_counter() - started

    # ------------------------------------------------------------------
    # Sync: flat locals -> object graph (the veneer contract).
    # ------------------------------------------------------------------

    transmitter._busy = t_busy
    transmitter._message = t_msg
    transmitter._tau = BitString._trusted(t_tau_v, t_tau_l)
    transmitter._prev_tau = (
        None if t_ptau_l < 0 else BitString._trusted(t_ptau_v, t_ptau_l)
    )
    transmitter._t = t_gen
    transmitter._num = t_num
    transmitter._i_seen = t_iseen
    transmitter._rho_next = (
        None if t_rnl < 0 else BitString._trusted(t_rnv, t_rnl)
    )
    st = transmitter.stats
    st.packets_sent = ts_sent
    st.oks = ts_oks
    st.crashes = ts_crashes
    st.errors_counted = ts_err
    st.extensions = ts_ext
    st.polls_ignored = ts_ign
    st.max_tau_bits = ts_maxtau
    transmitter._rng._bits_drawn += t_bits

    receiver._k = r_kk
    receiver._t = r_gen
    receiver._num = r_num
    receiver._i = r_i
    receiver._tau = BitString._trusted(r_tau_v, r_tau_l)
    receiver._rho = BitString._trusted(r_rho_v, r_rho_l)
    receiver._prev_rho = (
        None if r_prl < 0 else BitString._trusted(r_prv, r_prl)
    )
    st = receiver.stats
    st.packets_sent = rs_sent
    st.deliveries = rs_deliv
    st.crashes = rs_crashes
    st.errors_counted = rs_err
    st.extensions = rs_ext
    st.stale_ignored = rs_stale
    st.tau_updates = rs_tauupd
    st.max_rho_bits = rs_maxrho
    receiver._rng._bits_drawn += r_bits

    # Park the flat stores on the channels instead of rebuilding packet
    # objects: Channel materialises them lazily on first object-level
    # access, and campaign runs that reset without re-reading their
    # packets never pay for the rebuild at all.
    t_to_r._flat_store = tr_store
    t_to_r._next_id = tr_next
    t_to_r._sent_count = tr_sent
    t_to_r._delivered_count = tr_deliv
    t_to_r._bits_sent = tr_bits

    r_to_t._flat_store = rt_store
    r_to_t._next_id = rt_next
    r_to_t._sent_count = rt_sent
    r_to_t._delivered_count = rt_deliv
    r_to_t._bits_sent = rt_bits

    adv._moves_made += steps - steps0
    if is_fair:
        inner._moves_made += steps - steps0
        adv.forced_deliveries = forced
        if mode == _MODE_FAIR_RELIABLE:
            # Derive the enforcer's exit state from the FIFO queue: the
            # pending sets are exactly the announced-but-undelivered
            # packets (rel_pend preserves per-channel insertion order),
            # and the starvation counters never moved (see the loop).
            pend_t = {}
            pend_r = {}
            for to_r, pid, length in rel_pend:
                if to_r:
                    pend_t[pid] = length
                else:
                    pend_r[pid] = length
            enf_count = len(rel_pend)
        if t_first:
            chans = ((_T_TO_R, pend_t, starv_t, seen_t),
                     (_R_TO_T, pend_r, starv_r, seen_r))
        else:
            chans = ((_R_TO_T, pend_r, starv_r, seen_r),
                     (_T_TO_R, pend_t, starv_t, seen_t))
        adv._pending = {
            ch: {
                pid: _make_packet_info(ch, pid, length)
                for pid, length in pend.items()
            }
            for ch, pend, _sv, _seen in chans if _seen
        }
        adv._pending_count = enf_count
        adv._starvation = {
            ch: sv for ch, _pend, sv, _seen in chans if _seen
        }
    if is_rel:
        inner._pending = deque(
            _make_packet_info(_T_TO_R if to_r else _R_TO_T, pid, length)
            for to_r, pid, length in rel_pend
        )
    else:
        inner._pending = [
            _make_packet_info(_T_TO_R if to_r else _R_TO_T, pid, length)
            for to_r, pid, length in rf_pend
        ]
        inner.dropped = rf_dropped
        inner.duplicated = rf_dup
        inner.crashes_injected = rf_crashes

    sim._steps = steps
    sim._tx_busy = t_busy
    sim._retry_countdown = retry_countdown
    sim._storage_countdown = storage_countdown
    sim._next_message = next_message
    sim._workload_exhausted = workload_exhausted
    # The packet and retry counts are the channel/metric deltas: tallied
    # when unrecorded, settled below when dispatched directly.
    n_psent = (tr_sent - tr_sent0) + (rt_sent - rt_sent0)
    n_pdel = (tr_deliv - tr_deliv0) + (rt_deliv - rt_deliv0)
    n_retry = m_retries - m_retries0
    if not rec_sent:
        sim._pkt_sent_tally += n_psent
        n_psent = 0
    if not rec_deliv:
        sim._pkt_delivered_tally += n_pdel
        n_pdel = 0
    if not rec_retry:
        sim._retry_tally += n_retry
        n_retry = 0

    if h_send is not None:
        # Settle the trace counters and checker bookkeeping the bypassed
        # dispatch would have maintained (retain="none": every event is
        # counted and dropped).
        trace._total = ev_total
        trace._dropped = ev_total
        counts = trace._counts
        fresh = False
        for cls, n in (
            (SendMsg, n_send),
            (ReceiveMsg, n_recv),
            (Ok, n_ok),
            (CrashT, n_ct),
            (CrashR, n_cr),
            (PktSent, n_psent),
            (PktDelivered, n_pdel),
            (Retry, n_retry),
        ):
            if n:
                if cls in counts:
                    counts[cls] += n
                else:
                    counts[cls] = n
                    fresh = True
        if fresh:
            trace._query_cache.clear()
        if checks is not None:
            checks.events_seen = seen
            checks._timed_samples = samples
            checks._sampled_seconds = sampled

    metrics.messages_submitted = m_submitted
    metrics.messages_ok = m_ok
    metrics.messages_delivered = m_delivered
    metrics.retries = m_retries
    metrics.crashes_t = m_crash_t
    metrics.crashes_r = m_crash_r
    metrics._storage_peak = storage_peak

    sim._flush_tallies()

    if error is not None:
        raise error

    checker_seconds = checks.checker_seconds if checks is not None else 0.0
    completed = (
        workload_exhausted and next_message is None and not t_busy
    )
    return SimulationResult(
        trace=trace,
        metrics=metrics.freeze(
            steps,
            wall_seconds=wall_seconds,
            checker_seconds=checker_seconds,
            events_recorded=trace.total_events,
        ),
        completed=completed,
        steps=steps,
        link=sim._link,
        adversary=adv,
        checks=checks,
    )


def _run_generic(sim):
    """Closure-based kernel path for generic adversaries.

    Flat slots mutated through nested closures, with the real adversary
    object deciding every move; rare paths (state corruption, custom
    moves) round-trip through the station objects via the sync closures.
    """
    from repro.sim.simulator import SimulationResult

    started = perf_counter()

    transmitter = sim._transmitter
    receiver = sim._receiver
    t_to_r = sim._t_to_r
    r_to_t = sim._r_to_t
    trace = sim._trace
    metrics = sim._metrics
    checks = sim._checks
    params = transmitter._params

    # ------------------------------------------------------------------
    # Extract: object graph -> flat slots.
    # ------------------------------------------------------------------

    # Transmitter slots.
    t_busy = transmitter._busy
    t_msg = transmitter._message
    _bs = transmitter._tau
    t_tau_v = _bs._value
    t_tau_l = _bs._length
    _bs = transmitter._prev_tau
    if _bs is None:
        t_ptau_v = 0
        t_ptau_l = -1
    else:
        t_ptau_v = _bs._value
        t_ptau_l = _bs._length
    t_gen = transmitter._t
    t_num = transmitter._num
    t_iseen = transmitter._i_seen
    _bs = transmitter._rho_next
    if _bs is None:
        t_rnv = 0
        t_rnl = -1
    else:
        t_rnv = _bs._value
        t_rnl = _bs._length
    _st = transmitter.stats
    ts_sent = _st.packets_sent
    ts_oks = _st.oks
    ts_crashes = _st.crashes
    ts_corr = _st.corruptions
    ts_err = _st.errors_counted
    ts_ext = _st.extensions
    ts_ign = _st.polls_ignored
    ts_maxtau = _st.max_tau_bits

    # Receiver slots.
    r_kk = receiver._k
    r_gen = receiver._t
    r_num = receiver._num
    r_i = receiver._i
    _bs = receiver._tau
    r_tau_v = _bs._value
    r_tau_l = _bs._length
    _bs = receiver._rho
    r_rho_v = _bs._value
    r_rho_l = _bs._length
    _bs = receiver._prev_rho
    if _bs is None:
        r_prv = 0
        r_prl = -1
    else:
        r_prv = _bs._value
        r_prl = _bs._length
    _st = receiver.stats
    rs_sent = _st.packets_sent
    rs_deliv = _st.deliveries
    rs_crashes = _st.crashes
    rs_corr = _st.corruptions
    rs_err = _st.errors_counted
    rs_ext = _st.extensions
    rs_stale = _st.stale_ignored
    rs_tauupd = _st.tau_updates
    rs_maxrho = _st.max_rho_bits

    # RNG tapes: draw straight from the underlying Twister (same tape the
    # stations' RandomSource wraps); account bits locally, settle at sync.
    t_grb = transmitter._rng._rng.getrandbits
    r_grb = receiver._rng._rng.getrandbits
    t_bits = 0
    r_bits = 0

    # Adaptive-extension policy tables (memoized dicts underneath).
    size = params.size
    bound = params.bound
    size1 = size(1)

    # Channel slots: pid -> flat packet tuple.  Unlike the fast path, the
    # generic path hosts arbitrary adversary objects whose decide() may
    # legitimately read the channels mid-run (the content-aware
    # extensions peek at stored packets), so the object stores are
    # materialised and left populated for the run's duration; the eager
    # rebuild at exit replaces them wholesale.
    t_to_r._materialize()
    r_to_t._materialize()
    tr_store = {}
    for _pid, _pkt in t_to_r._store.items():
        tr_store[_pid] = (
            _pkt.message,
            _pkt.rho._value,
            _pkt.rho._length,
            _pkt.tau._value,
            _pkt.tau._length,
        )
    tr_next = t_to_r._next_id
    tr_sent = t_to_r._sent_count
    tr_deliv = t_to_r._delivered_count
    tr_bits = t_to_r._bits_sent
    rt_store = {}
    for _pid, _pkt in r_to_t._store.items():
        rt_store[_pid] = (
            _pkt.rho._value,
            _pkt.rho._length,
            _pkt.tau._value,
            _pkt.tau._length,
            _pkt.retry,
        )
    rt_next = r_to_t._next_id
    rt_sent = r_to_t._sent_count
    rt_deliv = r_to_t._delivered_count
    rt_bits = r_to_t._bits_sent

    # Trace / recording mirrors.
    trace_append = trace.append
    rec_sent = sim._record_pkt_sent
    rec_deliv = sim._record_pkt_delivered
    rec_retry = sim._record_retry
    tally_sent = 0
    tally_deliv = 0
    tally_retry = 0

    # Metrics mirrors.
    m_submitted = metrics.messages_submitted
    m_ok = metrics.messages_ok
    m_delivered = metrics.messages_delivered
    m_retries = metrics.retries
    m_crash_t = metrics.crashes_t
    m_crash_r = metrics.crashes_r
    m_corr_t = metrics.corruptions_t
    m_corr_r = metrics.corruptions_r
    storage_peak = metrics._storage_peak
    keep_samples = metrics._keep_storage_samples
    samples_append = metrics._storage_samples.append

    # Simulator loop slots.
    steps = sim._steps
    max_steps = sim._max_steps
    retry_every = sim._retry_every
    retry_countdown = sim._retry_countdown
    storage_sample_every = sim._storage_sample_every
    storage_countdown = sim._storage_countdown
    next_message = sim._next_message
    workload_exhausted = sim._workload_exhausted
    message_iter = sim._message_iter
    submitted = sim._submitted_payloads

    # Adversary fast-path slots.
    adv = sim._adversary
    mode = _classify_adversary(sim)
    adv_decide = sim._adversary_decide
    adv_next_move = adv.next_move
    adv_moves = 0
    inner_moves = 0
    # Fairness-enforcer mirror: channel -> {pid: length_bits}, insertion
    # order of both dicts matches the real enforcer's structures.
    enf_pending = {}
    enf_starv = {}
    enf_count = 0
    patience = 0
    forced = 0
    # Reliable-inner mirror: FIFO of (to_receiver, pid, length).
    rel_pend = deque()
    # RandomFault-inner mirror: list of (to_receiver, pid, length) + coins.
    rf_pend = []
    rf_dropped = 0
    rf_dup = 0
    rf_crashes = 0
    inner_random = None
    inner_randint = None
    p_loss = p_dup = p_reorder = p_crash_t = p_crash_r = 0.0

    if mode == _MODE_FAIR_RELIABLE or mode == _MODE_FAIR_RANDOM:
        patience = adv._patience
        enf_count = adv._pending_count
        for _ch, _pend in adv._pending.items():
            enf_pending[_ch] = {
                _pid: _info.length_bits for _pid, _info in _pend.items()
            }
        enf_starv.update(adv._starvation)
        forced = adv.forced_deliveries
        inner = adv.inner
    else:
        inner = adv

    if mode == _MODE_FAIR_RELIABLE or mode == _MODE_BARE_RELIABLE:
        for _info in inner._pending:
            rel_pend.append(
                (_info.channel is _T_TO_R, _info.packet_id, _info.length_bits)
            )
    elif mode == _MODE_FAIR_RANDOM or mode == _MODE_BARE_RANDOM:
        for _info in inner._pending:
            rf_pend.append(
                (_info.channel is _T_TO_R, _info.packet_id, _info.length_bits)
            )
        rf_dropped = inner.dropped
        rf_dup = inner.duplicated
        rf_crashes = inner.crashes_injected
        inner_random = inner._random
        inner_randint = inner.rng.randint
        _prof = inner.profile
        p_loss = _prof.loss
        p_dup = _prof.duplicate
        p_reorder = _prof.reorder
        p_crash_t = _prof.crash_t
        p_crash_r = _prof.crash_r
    adv_on_new = adv.on_new_pkt

    # ------------------------------------------------------------------
    # Kernel operations (closures over the flat slots).
    # ------------------------------------------------------------------

    def announce(to_r, pid, length):
        # Packet announcement routed to the active adversary mirror; the
        # enforcer registers the packet first, then the inner adversary
        # sees it — same order as FairnessEnforcer.on_new_pkt.
        nonlocal enf_count, rf_dropped
        if mode == _MODE_GENERIC:
            adv_on_new(
                _make_packet_info(_T_TO_R if to_r else _R_TO_T, pid, length)
            )
            return
        if mode == _MODE_FAIR_RELIABLE or mode == _MODE_FAIR_RANDOM:
            ch = _T_TO_R if to_r else _R_TO_T
            pend = enf_pending.get(ch)
            if pend is None:
                pend = enf_pending[ch] = {}
                enf_starv[ch] = 0
            pend[pid] = length
            enf_count += 1
        if mode == _MODE_FAIR_RELIABLE or mode == _MODE_BARE_RELIABLE:
            rel_pend.append((to_r, pid, length))
        else:
            if inner_random() < p_loss:
                rf_dropped += 1
            else:
                rf_pend.append((to_r, pid, length))

    def send_data(message, rv, rl, tv, tl):
        # channel.send_pkt on C^{T->R}: mint pid, intern flat tuple,
        # record, announce.
        nonlocal tr_next, tr_sent, tr_bits, tally_sent
        pid = tr_next
        tr_next = pid + 1
        tr_store[pid] = (message, rv, rl, tv, tl)
        tr_sent += 1
        length = (13 + len(message) + ((rl + 7) >> 3) + ((tl + 7) >> 3)) << 3
        tr_bits += length
        if rec_sent:
            trace_append(make_pkt_sent(_T_TO_R, pid, length))
        else:
            tally_sent += 1
        announce(True, pid, length)

    def fire_retry():
        # Simulator._fire_retry + Receiver.retry(): RETRY record, then a
        # PollPacket(rho, tau, i) onto C^{R->T}.
        nonlocal tally_retry, tally_sent, m_retries
        nonlocal rt_next, rt_sent, rt_bits, r_i, rs_sent
        if rec_retry:
            trace_append(RETRY)
        else:
            tally_retry += 1
        m_retries += 1
        pid = rt_next
        rt_next = pid + 1
        rt_store[pid] = (r_rho_v, r_rho_l, r_tau_v, r_tau_l, r_i)
        rt_sent += 1
        length = (17 + ((r_rho_l + 7) >> 3) + ((r_tau_l + 7) >> 3)) << 3
        rt_bits += length
        r_i += 1
        rs_sent += 1
        if rec_sent:
            trace_append(make_pkt_sent(_R_TO_T, pid, length))
        else:
            tally_sent += 1
        announce(False, pid, length)

    def submit():
        # Simulator._maybe_submit_message + Transmitter.send_msg: Axiom 2
        # guard, SendMsg record, fresh tau draw, optional immediate data
        # packet when a poll value is on file.
        nonlocal next_message, workload_exhausted, m_submitted
        nonlocal t_busy, t_msg, t_ptau_v, t_ptau_l, t_tau_v, t_tau_l
        nonlocal t_gen, t_num, t_bits, ts_maxtau, ts_sent
        message = next_message
        if message in submitted:
            raise AxiomViolationError(
                f"Axiom 2 violated: payload {message!r} submitted twice"
            )
        submitted.add(message)
        try:
            next_message = next(message_iter)
        except StopIteration:
            next_message = None
            workload_exhausted = True
        trace_append(make_send_msg(message))
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
            send_data(message, t_rnv, t_rnl, t_tau_v, t_tau_l)

    def deliver_to_receiver(pid):
        # Channel delivery on C^{T->R} + Receiver.on_receive_pkt.
        nonlocal tr_deliv, tally_deliv, m_delivered
        nonlocal r_tau_v, r_tau_l, r_rho_v, r_rho_l, r_prv, r_prl
        nonlocal r_kk, r_gen, r_num, r_i, r_bits
        nonlocal rs_deliv, rs_stale, rs_tauupd, rs_err, rs_ext, rs_maxrho
        pkt = tr_store.get(pid)
        if pkt is None:
            raise UnknownPacketError(pid)
        tr_deliv += 1
        if rec_deliv:
            trace_append(make_pkt_delivered(_T_TO_R, pid))
        else:
            tally_deliv += 1
        message, prv_, prl_, ptv, ptl = pkt
        if prv_ == r_rho_v and prl_ == r_rho_l:
            # packet.rho matches the live challenge (Figure 5's main arm).
            if r_tau_l <= ptl and (ptv >> (ptl - r_tau_l)) == r_tau_v:
                # Same handshake, nonce merely extended: adopt the longer
                # tau, no second delivery.
                if r_tau_l != ptl:
                    r_tau_v = ptv
                    r_tau_l = ptl
                    rs_tauupd += 1
            elif ptl <= r_tau_l and (r_tau_v >> (r_tau_l - ptl)) == ptv:
                # tau a proper prefix of tau^R: stale packet.
                rs_stale += 1
            else:
                # tau incomparable with tau^R: a genuinely new message.
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
                if r_rho_l > rs_maxrho:
                    rs_maxrho = r_rho_l
                trace_append(make_receive_msg(message))
                m_delivered += 1
        elif prl_ == r_rho_l and not (
            r_prl >= 0 and prl_ == r_prl and prv_ == r_prv
        ):
            # Same-length rho mismatch that isn't the benign previous
            # handshake's rho: count an error, possibly extend rho^R.
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
                if r_rho_l > rs_maxrho:
                    rs_maxrho = r_rho_l

    def deliver_to_transmitter(pid):
        # Channel delivery on C^{R->T} + Transmitter.on_receive_pkt.
        nonlocal rt_deliv, tally_deliv, m_ok
        nonlocal t_busy, t_msg, t_rnv, t_rnl, t_iseen
        nonlocal t_gen, t_num, t_tau_v, t_tau_l, t_bits
        nonlocal ts_oks, ts_err, ts_ext, ts_maxtau, ts_ign, ts_sent
        pkt = rt_store.get(pid)
        if pkt is None:
            raise UnknownPacketError(pid)
        rt_deliv += 1
        if rec_deliv:
            trace_append(make_pkt_delivered(_R_TO_T, pid))
        else:
            tally_deliv += 1
        prv_, prl_, ptv, ptl, pretry = pkt
        if t_busy:
            if t_tau_l <= ptl and (ptv >> (ptl - t_tau_l)) == t_tau_v:
                # OK test passed: current slot acknowledged.
                t_busy = False
                t_msg = None
                t_rnv = prv_
                t_rnl = prl_
                t_iseen = 0
                t_gen = 1
                t_num = 0
                ts_oks += 1
                trace_append(OK)
                m_ok += 1
                return
            if ptl == t_tau_l and not (
                t_ptau_l >= 0 and ptl == t_ptau_l and ptv == t_ptau_v
            ):
                # Same-length mismatch that isn't the benign previous
                # tau: count an error, possibly extend tau.
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
                send_data(t_msg, prv_, prl_, t_tau_v, t_tau_l)
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

    def crash_t():
        # CRASH_T record + Transmitter.crash(): memory wiped, fresh tau
        # seeded with the reserved crash prefix.
        nonlocal m_crash_t, t_busy, t_msg, t_tau_v, t_tau_l
        nonlocal t_ptau_v, t_ptau_l, t_gen, t_num, t_iseen, t_rnv, t_rnl
        nonlocal t_bits, ts_crashes, ts_maxtau
        trace_append(CRASH_T)
        m_crash_t += 1
        t_busy = False
        t_msg = None
        t_bits += size1
        t_tau_v = ((1 << size1) | t_grb(size1)) if size1 else 1
        t_tau_l = 1 + size1
        t_ptau_v = 0
        t_ptau_l = -1
        t_gen = 1
        t_num = 0
        t_iseen = 0
        t_rnv = 0
        t_rnl = -1
        ts_crashes += 1
        if t_tau_l > ts_maxtau:
            ts_maxtau = t_tau_l

    def crash_r():
        # CRASH_R record + Receiver.crash(): memory wiped, tau reset to
        # the crash sentinel, fresh rho drawn.
        nonlocal m_crash_r, r_kk, r_gen, r_num, r_i
        nonlocal r_tau_v, r_tau_l, r_rho_v, r_rho_l, r_prv, r_prl
        nonlocal r_bits, rs_crashes, rs_maxrho
        trace_append(CRASH_R)
        m_crash_r += 1
        r_kk = 1
        r_gen = 1
        r_num = 0
        r_i = 1
        r_tau_v = 0
        r_tau_l = 1
        r_bits += size1
        r_rho_v = r_grb(size1) if size1 else 0
        r_rho_l = size1
        r_prv = 0
        r_prl = -1
        rs_crashes += 1
        if r_rho_l > rs_maxrho:
            rs_maxrho = r_rho_l

    def sync_transmitter():
        # Flat slots -> transmitter object (state + stats; the RNG tape
        # is settled once at the end of the run).
        transmitter._busy = t_busy
        transmitter._message = t_msg
        transmitter._tau = BitString._trusted(t_tau_v, t_tau_l)
        transmitter._prev_tau = (
            None if t_ptau_l < 0 else BitString._trusted(t_ptau_v, t_ptau_l)
        )
        transmitter._t = t_gen
        transmitter._num = t_num
        transmitter._i_seen = t_iseen
        transmitter._rho_next = (
            None if t_rnl < 0 else BitString._trusted(t_rnv, t_rnl)
        )
        st = transmitter.stats
        st.packets_sent = ts_sent
        st.oks = ts_oks
        st.crashes = ts_crashes
        st.corruptions = ts_corr
        st.errors_counted = ts_err
        st.extensions = ts_ext
        st.polls_ignored = ts_ign
        st.max_tau_bits = ts_maxtau

    def load_transmitter():
        # Transmitter object -> flat slots (after a corruption scramble).
        nonlocal t_busy, t_msg, t_tau_v, t_tau_l, t_ptau_v, t_ptau_l
        nonlocal t_gen, t_num, t_iseen, t_rnv, t_rnl
        nonlocal ts_sent, ts_oks, ts_crashes, ts_corr, ts_err, ts_ext
        nonlocal ts_ign, ts_maxtau
        t_busy = transmitter._busy
        t_msg = transmitter._message
        bs = transmitter._tau
        t_tau_v = bs._value
        t_tau_l = bs._length
        bs = transmitter._prev_tau
        if bs is None:
            t_ptau_v = 0
            t_ptau_l = -1
        else:
            t_ptau_v = bs._value
            t_ptau_l = bs._length
        t_gen = transmitter._t
        t_num = transmitter._num
        t_iseen = transmitter._i_seen
        bs = transmitter._rho_next
        if bs is None:
            t_rnv = 0
            t_rnl = -1
        else:
            t_rnv = bs._value
            t_rnl = bs._length
        st = transmitter.stats
        ts_sent = st.packets_sent
        ts_oks = st.oks
        ts_crashes = st.crashes
        ts_corr = st.corruptions
        ts_err = st.errors_counted
        ts_ext = st.extensions
        ts_ign = st.polls_ignored
        ts_maxtau = st.max_tau_bits

    def sync_receiver():
        receiver._k = r_kk
        receiver._t = r_gen
        receiver._num = r_num
        receiver._i = r_i
        receiver._tau = BitString._trusted(r_tau_v, r_tau_l)
        receiver._rho = BitString._trusted(r_rho_v, r_rho_l)
        receiver._prev_rho = (
            None if r_prl < 0 else BitString._trusted(r_prv, r_prl)
        )
        st = receiver.stats
        st.packets_sent = rs_sent
        st.deliveries = rs_deliv
        st.crashes = rs_crashes
        st.corruptions = rs_corr
        st.errors_counted = rs_err
        st.extensions = rs_ext
        st.stale_ignored = rs_stale
        st.tau_updates = rs_tauupd
        st.max_rho_bits = rs_maxrho

    def load_receiver():
        nonlocal r_kk, r_gen, r_num, r_i, r_tau_v, r_tau_l
        nonlocal r_rho_v, r_rho_l, r_prv, r_prl
        nonlocal rs_sent, rs_deliv, rs_crashes, rs_corr, rs_err, rs_ext
        nonlocal rs_stale, rs_tauupd, rs_maxrho
        r_kk = receiver._k
        r_gen = receiver._t
        r_num = receiver._num
        r_i = receiver._i
        bs = receiver._tau
        r_tau_v = bs._value
        r_tau_l = bs._length
        bs = receiver._rho
        r_rho_v = bs._value
        r_rho_l = bs._length
        bs = receiver._prev_rho
        if bs is None:
            r_prv = 0
            r_prl = -1
        else:
            r_prv = bs._value
            r_prl = bs._length
        st = receiver.stats
        rs_sent = st.packets_sent
        rs_deliv = st.deliveries
        rs_crashes = st.crashes
        rs_corr = st.corruptions
        rs_err = st.errors_counted
        rs_ext = st.extensions
        rs_stale = st.stale_ignored
        rs_tauupd = st.tau_updates
        rs_maxrho = st.max_rho_bits

    def corrupt_move(move):
        # Rare path: round-trip through the real station object so the
        # scramble consumes the move's dedicated tape exactly like the
        # object engine (Simulator._corrupt).
        nonlocal m_corr_t, m_corr_r
        if move.wipe:
            if move.station == "T":
                crash_t()
            elif move.station == "R":
                crash_r()
            else:
                raise SimulationError(
                    f"corrupt move names unknown station {move.station!r}"
                )
            return
        rng = RandomSource(move.seed)
        if move.station == "T":
            sync_transmitter()
            scrambled = transmitter.corrupt(rng, move.fields)
            load_transmitter()
            m_corr_t += 1
        elif move.station == "R":
            sync_receiver()
            scrambled = receiver.corrupt(rng, move.fields)
            load_receiver()
            m_corr_r += 1
        else:
            raise SimulationError(
                f"corrupt move names unknown station {move.station!r}"
            )
        trace_append(
            Corruption(station=move.station, fields=scrambled, seed=move.seed)
        )

    def fairness_pass_turn():
        # FairnessEnforcer bookkeeping for a non-Deliver inner move:
        # advance starvation on every backlogged channel; if one crossed
        # the patience bound, force-deliver its newest pending packet
        # (replacing the inner's move).  Returns (to_receiver, pid) or
        # None.  Tie-break: strictly-greater count, first channel wins.
        nonlocal enf_count, forced
        most = None
        most_count = 0
        for ch, pend in enf_pending.items():
            if not pend:
                continue
            count = enf_starv[ch] + 1
            enf_starv[ch] = count
            if count >= patience and count > most_count:
                most = ch
                most_count = count
        if most is None:
            return None
        pend = enf_pending[most]
        pid = next(reversed(pend))
        del pend[pid]
        enf_count -= 1
        enf_starv[most] = 0
        forced += 1
        return (most is _T_TO_R, pid)

    # ------------------------------------------------------------------
    # Main loop (phase order mirrors Simulator.run exactly).
    # ------------------------------------------------------------------

    error = None
    try:
        while steps < max_steps:
            if workload_exhausted and next_message is None and not t_busy:
                break
            steps += 1

            if not t_busy and next_message is not None:
                submit()

            countdown = retry_countdown - 1
            if countdown:
                retry_countdown = countdown
            else:
                retry_countdown = retry_every
                fire_retry()

            if mode == _MODE_FAIR_RELIABLE:
                adv_moves += 1
                inner_moves += 1
                if rel_pend:
                    to_r, pid, _ln = rel_pend.popleft()
                    ch = _T_TO_R if to_r else _R_TO_T
                    enf_starv[ch] = 0
                    pend = enf_pending.get(ch)
                    if pend is not None and pend.pop(pid, None) is not None:
                        enf_count -= 1
                    if to_r:
                        deliver_to_receiver(pid)
                    else:
                        deliver_to_transmitter(pid)
                elif enf_count:
                    fd = fairness_pass_turn()
                    if fd is not None:
                        if fd[0]:
                            deliver_to_receiver(fd[1])
                        else:
                            deliver_to_transmitter(fd[1])
            elif mode == _MODE_FAIR_RANDOM or mode == _MODE_BARE_RANDOM:
                adv_moves += 1
                # Inner RandomFaultAdversary coin schedule (exact order).
                mv = 0  # 0=pass, 1=crash T, 2=crash R, 3=deliver
                dto_r = False
                dpid = 0
                if inner_random() < p_crash_t:
                    rf_crashes += 1
                    mv = 1
                elif inner_random() < p_crash_r:
                    rf_crashes += 1
                    mv = 2
                elif rf_pend:
                    if p_reorder and inner_random() < p_reorder:
                        idx = inner_randint(0, len(rf_pend) - 1)
                    else:
                        idx = 0
                    item = rf_pend.pop(idx)
                    if inner_random() < p_dup:
                        rf_pend.append(item)
                        rf_dup += 1
                    mv = 3
                    dto_r = item[0]
                    dpid = item[1]
                if mode == _MODE_FAIR_RANDOM:
                    inner_moves += 1
                    if mv == 3:
                        ch = _T_TO_R if dto_r else _R_TO_T
                        enf_starv[ch] = 0
                        pend = enf_pending.get(ch)
                        if (
                            pend is not None
                            and pend.pop(dpid, None) is not None
                        ):
                            enf_count -= 1
                        if dto_r:
                            deliver_to_receiver(dpid)
                        else:
                            deliver_to_transmitter(dpid)
                    else:
                        fd = fairness_pass_turn() if enf_count else None
                        if fd is not None:
                            if fd[0]:
                                deliver_to_receiver(fd[1])
                            else:
                                deliver_to_transmitter(fd[1])
                        elif mv == 1:
                            crash_t()
                        elif mv == 2:
                            crash_r()
                else:
                    if mv == 3:
                        if dto_r:
                            deliver_to_receiver(dpid)
                        else:
                            deliver_to_transmitter(dpid)
                    elif mv == 1:
                        crash_t()
                    elif mv == 2:
                        crash_r()
            elif mode == _MODE_BARE_RELIABLE:
                adv_moves += 1
                if rel_pend:
                    to_r, pid, _ln = rel_pend.popleft()
                    if to_r:
                        deliver_to_receiver(pid)
                    else:
                        deliver_to_transmitter(pid)
            else:
                # Generic path: the real adversary object decides.
                if adv_decide is not None:
                    adv._moves_made += 1
                    move = adv_decide()
                else:
                    move = adv_next_move()
                mt = type(move)
                if mt is Deliver:
                    ch = move.channel
                    if ch is _T_TO_R or ch == _T_TO_R:
                        deliver_to_receiver(move.packet_id)
                    else:
                        deliver_to_transmitter(move.packet_id)
                elif mt is Pass:
                    pass
                elif mt is CrashTransmitter:
                    crash_t()
                elif mt is CrashReceiver:
                    crash_r()
                elif mt is Corrupt:
                    corrupt_move(move)
                elif mt is TriggerRetry:
                    fire_retry()
                # Subclass fallback: same resolution order as
                # Simulator._resolve_move_handler.
                elif isinstance(move, Deliver):
                    ch = move.channel
                    if ch is _T_TO_R or ch == _T_TO_R:
                        deliver_to_receiver(move.packet_id)
                    else:
                        deliver_to_transmitter(move.packet_id)
                elif isinstance(move, CrashTransmitter):
                    crash_t()
                elif isinstance(move, CrashReceiver):
                    crash_r()
                elif isinstance(move, Corrupt):
                    corrupt_move(move)
                elif isinstance(move, TriggerRetry):
                    fire_retry()
                elif isinstance(move, Pass):
                    pass
                else:
                    raise SimulationError(
                        f"adversary produced unknown move {move!r}"
                    )

            if storage_countdown:
                storage_countdown -= 1
                if not storage_countdown:
                    storage_countdown = storage_sample_every
                    bits_now = (
                        t_tau_l
                        + (t_ptau_l if t_ptau_l > 0 else 0)
                        + r_rho_l
                        + r_tau_l
                        + (r_prl if r_prl > 0 else 0)
                    )
                    if keep_samples:
                        samples_append(bits_now)
                    if bits_now > storage_peak:
                        storage_peak = bits_now
    except BaseException as exc:
        error = exc

    wall_seconds = perf_counter() - started

    # ------------------------------------------------------------------
    # Sync: flat slots -> object graph (the veneer contract).
    # ------------------------------------------------------------------

    sync_transmitter()
    sync_receiver()
    transmitter._rng._bits_drawn += t_bits
    receiver._rng._bits_drawn += r_bits

    store = t_to_r._store
    store.clear()
    for pid, (message, rv, rl, tv, tl) in tr_store.items():
        store[pid] = make_data_packet(
            message, BitString._trusted(rv, rl), BitString._trusted(tv, tl)
        )
    t_to_r._next_id = tr_next
    t_to_r._sent_count = tr_sent
    t_to_r._delivered_count = tr_deliv
    t_to_r._bits_sent = tr_bits

    store = r_to_t._store
    store.clear()
    for pid, (rv, rl, tv, tl, retry) in rt_store.items():
        store[pid] = make_poll_packet(
            BitString._trusted(rv, rl), BitString._trusted(tv, tl), retry
        )
    r_to_t._next_id = rt_next
    r_to_t._sent_count = rt_sent
    r_to_t._delivered_count = rt_deliv
    r_to_t._bits_sent = rt_bits

    if mode != _MODE_GENERIC:
        adv._moves_made += adv_moves
        if mode == _MODE_FAIR_RELIABLE or mode == _MODE_FAIR_RANDOM:
            inner._moves_made += inner_moves
            adv.forced_deliveries = forced
            adv._pending = {
                ch: {
                    pid: _make_packet_info(ch, pid, length)
                    for pid, length in pend.items()
                }
                for ch, pend in enf_pending.items()
            }
            adv._pending_count = enf_count
            adv._starvation = dict(enf_starv)
        if mode == _MODE_FAIR_RELIABLE or mode == _MODE_BARE_RELIABLE:
            inner._pending = deque(
                _make_packet_info(_T_TO_R if to_r else _R_TO_T, pid, length)
                for to_r, pid, length in rel_pend
            )
        else:
            inner._pending = [
                _make_packet_info(_T_TO_R if to_r else _R_TO_T, pid, length)
                for to_r, pid, length in rf_pend
            ]
            inner.dropped = rf_dropped
            inner.duplicated = rf_dup
            inner.crashes_injected = rf_crashes

    sim._steps = steps
    sim._tx_busy = t_busy
    sim._retry_countdown = retry_countdown
    sim._storage_countdown = storage_countdown
    sim._next_message = next_message
    sim._workload_exhausted = workload_exhausted
    sim._pkt_sent_tally += tally_sent
    sim._pkt_delivered_tally += tally_deliv
    sim._retry_tally += tally_retry

    metrics.messages_submitted = m_submitted
    metrics.messages_ok = m_ok
    metrics.messages_delivered = m_delivered
    metrics.retries = m_retries
    metrics.crashes_t = m_crash_t
    metrics.crashes_r = m_crash_r
    metrics.corruptions_t = m_corr_t
    metrics.corruptions_r = m_corr_r
    metrics._storage_peak = storage_peak

    sim._flush_tallies()

    if error is not None:
        raise error

    checker_seconds = checks.checker_seconds if checks is not None else 0.0
    completed = (
        workload_exhausted and next_message is None and not t_busy
    )
    return SimulationResult(
        trace=trace,
        metrics=metrics.freeze(
            steps,
            wall_seconds=wall_seconds,
            checker_seconds=checker_seconds,
            events_recorded=trace.total_events,
        ),
        completed=completed,
        steps=steps,
        link=sim._link,
        adversary=adv,
        checks=checks,
    )
