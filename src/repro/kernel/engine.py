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
  object.  The dicts stay parked on the channel objects for the whole
  run (``Channel._flat_store``), so ``Channel.peek`` reads the live store
  mid-run and packet objects are only ever built on demand.
* **One loop, five adversary modes** — the adversary configuration is
  classified once.  Four precompiled modes (fairness-wrapped or bare
  ``ReliableAdversary``/``RandomFaultAdversary``) mirror the coin
  schedule and pending-queue bookkeeping move-for-move with flat state.
  Every other adversary runs in generic mode: the real object hears
  every ``new_pkt`` and decides each move at the loop's one
  adversary-dispatch site, and its deliver, crash, RETRY and corrupt
  moves drive the same inline station code the precompiled modes run.

The veneer contract: the kernel *borrows* the state of the installed
objects at entry and *returns* it at exit.  Every station attribute,
stats counter, channel counter, RNG tape position, adversary pending
structure and metrics field is synchronised back before the result is
returned, so checkers, forensics, campaign plumbing and subsequent
``reset()``/``run()`` cycles observe exactly what the object engine
would have produced.  ``_extract_*``/``_sync_*`` are the station half of
that contract, shared with :class:`repro.kernel.hop.HopKernel`; a state
corruption uses them mid-run to round-trip one station through its
object.  Differential tests (tests/kernel/) pin the two engines to
identical event traces per seed across the fault-plan zoo.
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
    ConfigurationError,
    SimulationError,
    UnknownPacketError,
)
from repro.core.random_source import RandomSource
from repro.core.receiver import Receiver
from repro.core.transmitter import Transmitter

_T_TO_R = ChannelId.T_TO_R
_R_TO_T = ChannelId.R_TO_T

# Adversary classification (see _classify_adversary).
_MODE_GENERIC = 0
_MODE_FAIR_RELIABLE = 1
_MODE_FAIR_RANDOM = 2
_MODE_BARE_RELIABLE = 3
_MODE_BARE_RANDOM = 4

# Generic-mode move kinds.  Pass and the two crashes double as the loop's
# ``do_crash`` codes (0 none, 1 crash^T, 2 crash^R).
_MV_PASS = 0
_MV_CRASH_T = 1
_MV_CRASH_R = 2
_MV_DELIVER = 3
_MV_RETRY = 4
_MV_CORRUPT = 5

# Move classes in Simulator._resolve_move_handler's resolution order.
_MOVE_KINDS = (
    (Deliver, _MV_DELIVER),
    (CrashTransmitter, _MV_CRASH_T),
    (CrashReceiver, _MV_CRASH_R),
    (Corrupt, _MV_CORRUPT),
    (TriggerRetry, _MV_RETRY),
    (Pass, _MV_PASS),
)


def _classify_adversary(sim):
    """Pick the dispatch mode for the installed adversary.

    The precompiled modes require the *exact* stock classes — subclasses
    may override coin schedules or bookkeeping, so they run in generic
    mode, where the real object decides every move.
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


def _move_kind(kinds, move):
    """Resolve (and cache in ``kinds``) the kind of a Move subclass.

    Same resolution order and error as ``Simulator._resolve_move_handler``.
    """
    move_type = type(move)
    for cls, kind in _MOVE_KINDS:
        if issubclass(move_type, cls):
            kinds[move_type] = kind
            return kind
    raise SimulationError(f"adversary produced unknown move {move!r}")


def _extract_transmitter(transmitter):
    """Transmitter object -> flat state tuple (see _sync_transmitter)."""
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
    """Receiver object -> flat state tuple (see _sync_receiver)."""
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


def _sync_transmitter(transmitter, state):
    """Flat state tuple -> transmitter object (inverse of the extract).

    The tape's bit count and ``stats.corruptions`` (which only the
    object's own ``corrupt()`` moves) are not part of the tuple.
    """
    st = transmitter.stats
    (
        transmitter._busy, transmitter._message, tau_v, tau_l, ptau_v, ptau_l,
        transmitter._t, transmitter._num, transmitter._i_seen, rnv, rnl,
        st.packets_sent, st.oks, st.crashes, st.errors_counted,
        st.extensions, st.polls_ignored, st.max_tau_bits,
    ) = state
    transmitter._tau = BitString._trusted(tau_v, tau_l)
    transmitter._prev_tau = (
        None if ptau_l < 0 else BitString._trusted(ptau_v, ptau_l)
    )
    transmitter._rho_next = None if rnl < 0 else BitString._trusted(rnv, rnl)


def _sync_receiver(receiver, state):
    """Flat state tuple -> receiver object (inverse of the extract).

    The tape's bit count and ``stats.corruptions`` are not part of the
    tuple (see :func:`_sync_transmitter`).
    """
    st = receiver.stats
    (
        receiver._k, receiver._t, receiver._num, receiver._i,
        tau_v, tau_l, rho_v, rho_l, prv, prl,
        st.packets_sent, st.deliveries, st.crashes, st.errors_counted,
        st.extensions, st.stale_ignored, st.tau_updates, st.max_rho_bits,
    ) = state
    receiver._tau = BitString._trusted(tau_v, tau_l)
    receiver._rho = BitString._trusted(rho_v, rho_l)
    receiver._prev_rho = None if prl < 0 else BitString._trusted(prv, prl)


def run_kernel(sim):
    """Run ``sim`` to completion on the flat kernel and return the result.

    Mirrors ``Simulator.run()`` step for step: same phase order, same RNG
    draws from the same tapes, same trace events in the same order, same
    error messages.  The Simulator must already be installed (its own
    ``run()`` handles construction/reset and dispatches here).

    One monolithic loop serves every adversary.  Its hot state lives
    entirely in plain locals of this function (no closure cells, no
    attribute loads inside the loop), with the station transitions and
    channel bookkeeping inlined.  The precompiled modes also inline the
    adversary's coin schedule and the fairness enforcement; generic mode
    asks the real adversary object for each move instead (see the module
    docstring).  When nothing but the streaming checkers observes the
    trace (the ``retain="none"`` campaign configuration) and the mode is
    precompiled, events additionally bypass ``Trace.append``/
    ``StreamingChecks.observe`` entirely: the loop calls the monitors'
    bound handlers directly and settles the trace counters and checker
    bookkeeping once at exit, so the observable state is identical to the
    object engine's.

    Only the GHM stations have a flat mirror, and the kernel never calls a
    station method in the loop, so any other station class (a baseline
    protocol, or a subclass overriding a transition) is rejected with
    :class:`~repro.core.exceptions.ConfigurationError` up front.
    """
    from repro.sim.simulator import SimulationResult

    transmitter = sim._transmitter
    receiver = sim._receiver
    if type(transmitter) is not Transmitter or type(receiver) is not Receiver:
        raise ConfigurationError(
            "the kernel engine mirrors only the GHM Transmitter/Receiver "
            f"pair, got {type(transmitter).__name__}/"
            f"{type(receiver).__name__}; run it with engine='object'"
        )
    mode = _classify_adversary(sim)
    generic = mode == _MODE_GENERIC

    started = perf_counter()

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

    # The flat dicts are the channels' contents for the whole run, parked
    # on the channel objects (Channel._flatten adopts a store an earlier
    # kernel run left parked, or flattens the packet objects).
    tr_store = t_to_r._flatten()
    tr_next = t_to_r._next_id
    tr_sent = t_to_r._sent_count
    tr_deliv = t_to_r._delivered_count
    tr_bits = t_to_r._bits_sent
    rt_store = r_to_t._flatten()
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
    # (full/tail retention, extra observers, no checks, generic mode).
    # The packet and retry handlers stay None unless recorded; their
    # counts are settled at exit from the same deltas the untraced tallies
    # use.
    h_send = h_recv = h_ok = h_ct = h_cr = None
    h_psent = h_pdel = h_retry = None
    timed = False
    stride = _TIMED_STRIDE
    ev_total = seen = samples = 0
    sampled = 0.0
    n_send = n_recv = n_ok = n_ct = n_cr = 0
    if trace._retain == "none" and not generic:
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

    # Adversary mirrors for the precompiled modes.  The fairness
    # enforcer's per-channel dicts (channel -> {pid: length_bits}) are
    # mirrored as two-slot locals (there are exactly two channels);
    # ``t_first`` preserves the channel-dict insertion order the
    # starvation scan iterates in.  For FAIR_RELIABLE the bookkeeping is
    # provably dead in-loop — the inner FIFO delivers whenever anything
    # is pending, so starvation counters never move and forced
    # deliveries never fire — and the enforcer's exit state is derived
    # from the FIFO queue instead.
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
    elif not generic:
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

    # Generic mode: the real adversary object (Simulator.run's dispatch).
    adv_decide = sim._adversary_decide
    adv_next_move = adv.next_move
    adv_on_new = adv.on_new_pkt
    move_kinds = dict(_MOVE_KINDS)

    # Localise the module globals the loop touches.
    T2R = _T_TO_R
    R2T = _R_TO_T
    pc = perf_counter
    mk_send = make_send_msg
    mk_recv = make_receive_msg
    mk_psent = make_pkt_sent
    mk_pdel = make_pkt_delivered
    mk_info = _make_packet_info
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
                    elif generic:
                        adv_on_new(mk_info(T2R, pid, length))
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
                elif generic:
                    adv_on_new(mk_info(R2T, pid, length))
                elif inner_random() < p_loss:
                    rf_dropped += 1
                else:
                    rf_pend.append((False, pid, length))

            # -- adversary move ----------------------------------------
            dpid = None
            dto_r = False
            do_crash = 0
            if is_rel:
                # Under the enforcer the starvation scan never fires: the
                # inner FIFO delivers whenever anything is pending, so a
                # pass-step implies every channel is empty.
                if rel_pend:
                    dto_r, dpid, _ln = rel_pend.popleft()
            elif generic:
                # The real adversary object decides, as in Simulator.run;
                # a deliver or crash falls through to the dispatch below.
                if adv_decide is not None:
                    adv._moves_made += 1
                    move = adv_decide()
                else:
                    move = adv_next_move()
                kind = move_kinds.get(type(move))
                if kind is None:
                    kind = _move_kind(move_kinds, move)
                if kind == _MV_DELIVER:
                    dpid = move.packet_id
                    if dpid is None:
                        raise UnknownPacketError(dpid)
                    ch = move.channel
                    dto_r = ch is T2R or ch == T2R
                elif kind <= _MV_CRASH_R:
                    do_crash = kind
                elif kind == _MV_RETRY:
                    # Simulator._fire_retry, scheduled by the adversary.
                    if rec_retry:
                        trace_append(EV_RETRY)
                    m_retries += 1
                    pid = rt_next
                    rt_next = pid + 1
                    rt_store[pid] = (r_rho_v, r_rho_l, r_tau_v, r_tau_l, r_i)
                    rt_sent += 1
                    rt_bits += poll_len
                    r_i += 1
                    rs_sent += 1
                    if rec_sent:
                        trace_append(mk_psent(R2T, pid, poll_len))
                    adv_on_new(mk_info(R2T, pid, poll_len))
                else:
                    # Simulator._corrupt: a wipe is the crash transition; a
                    # scramble round-trips the one station through its
                    # object, consuming the move's pinned tape (it keeps
                    # every nonce's length, so poll_len stays valid).
                    station = move.station
                    if station != "T" and station != "R":
                        raise SimulationError(
                            f"corrupt move names unknown station {station!r}"
                        )
                    if move.wipe:
                        do_crash = 1 if station == "T" else 2
                    else:
                        rng = RandomSource(move.seed)
                        if station == "T":
                            _sync_transmitter(transmitter, (
                                t_busy, t_msg, t_tau_v, t_tau_l, t_ptau_v,
                                t_ptau_l, t_gen, t_num, t_iseen, t_rnv, t_rnl,
                                ts_sent, ts_oks, ts_crashes, ts_err, ts_ext,
                                ts_ign, ts_maxtau,
                            ))
                            scrambled = transmitter.corrupt(rng, move.fields)
                            (
                                t_busy, t_msg, t_tau_v, t_tau_l, t_ptau_v,
                                t_ptau_l, t_gen, t_num, t_iseen, t_rnv, t_rnl,
                                ts_sent, ts_oks, ts_crashes, ts_err, ts_ext,
                                ts_ign, ts_maxtau,
                            ) = _extract_transmitter(transmitter)
                            metrics.corruptions_t += 1
                        else:
                            _sync_receiver(receiver, (
                                r_kk, r_gen, r_num, r_i, r_tau_v, r_tau_l,
                                r_rho_v, r_rho_l, r_prv, r_prl, rs_sent,
                                rs_deliv, rs_crashes, rs_err, rs_ext, rs_stale,
                                rs_tauupd, rs_maxrho,
                            ))
                            scrambled = receiver.corrupt(rng, move.fields)
                            (
                                r_kk, r_gen, r_num, r_i, r_tau_v, r_tau_l,
                                r_rho_v, r_rho_l, r_prv, r_prl, rs_sent,
                                rs_deliv, rs_crashes, rs_err, rs_ext, rs_stale,
                                rs_tauupd, rs_maxrho,
                            ) = _extract_receiver(receiver)
                            metrics.corruptions_r += 1
                        trace_append(Corruption(
                            station=station, fields=scrambled, seed=move.seed
                        ))
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
                if fair_track:
                    if dpid is not None:
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
            if dpid is not None:
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
                                elif generic:
                                    adv_on_new(mk_info(T2R, pid, length))
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

    _sync_transmitter(transmitter, (
        t_busy, t_msg, t_tau_v, t_tau_l, t_ptau_v, t_ptau_l,
        t_gen, t_num, t_iseen, t_rnv, t_rnl,
        ts_sent, ts_oks, ts_crashes, ts_err, ts_ext, ts_ign, ts_maxtau,
    ))
    transmitter._rng._bits_drawn += t_bits
    _sync_receiver(receiver, (
        r_kk, r_gen, r_num, r_i, r_tau_v, r_tau_l, r_rho_v, r_rho_l,
        r_prv, r_prl,
        rs_sent, rs_deliv, rs_crashes, rs_err, rs_ext, rs_stale,
        rs_tauupd, rs_maxrho,
    ))
    receiver._rng._bits_drawn += r_bits

    # The flat stores are still parked on the channels (see the extract
    # half); Channel materialises packet objects lazily on first
    # object-level access, so campaign runs that reset without re-reading
    # their packets never pay for the rebuild at all.
    t_to_r._next_id = tr_next
    t_to_r._sent_count = tr_sent
    t_to_r._delivered_count = tr_deliv
    t_to_r._bits_sent = tr_bits

    r_to_t._next_id = rt_next
    r_to_t._sent_count = rt_sent
    r_to_t._delivered_count = rt_deliv
    r_to_t._bits_sent = rt_bits

    # Generic mode drove the adversary object itself; the precompiled
    # modes write their mirrors back.
    if not generic:
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
    elif not generic:
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
