"""Flat slot-indexed step kernel for the GHM data-link simulation.

:func:`step_loop` is the kernel's one step loop.  It executes an
installed :class:`~repro.sim.simulator.Simulator`'s ``D(A, ADV)``
composition with every piece of hot-path state flattened into plain
Python ints and small preallocated containers:

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
* **One loop, six adversary modes** — the adversary configuration is
  classified once.  Four precompiled modes (fairness-wrapped or bare
  ``ReliableAdversary``/``RandomFaultAdversary``) mirror the coin
  schedule and pending-queue bookkeeping move-for-move with flat state;
  the relay fabric's hop wire (a FIFO gated by its link's up flag) is a
  fifth, whose idle steps are skipped or batched.  Every other adversary
  runs in generic mode: the real object hears every ``new_pkt`` and
  decides each move at the loop's one adversary-dispatch site, and its
  deliver, crash, RETRY and corrupt moves drive the same inline station
  code the precompiled modes run.
* **Generator-held state** — the loop is a generator, so all of the
  above survives in its frame between bursts: ``send(n)`` runs up to
  ``n`` steps and the fabric resumes a hop once per tick for nothing
  more than a generator resume.  :func:`run_kernel` is one burst to the
  end of the run; :class:`repro.kernel.hop.HopKernel` is the fabric's
  handle on a hop's loop.

The veneer contract: the kernel *borrows* the state of the installed
objects when the loop starts and *returns* it on :data:`SYNC` (or when
a step raises).  Every station attribute, stats counter, channel
counter, RNG tape position, adversary pending structure and metrics
field is synchronised back, so checkers, forensics, campaign plumbing
and subsequent ``reset()``/``run()`` cycles observe exactly what the
object engine would have produced.  ``_extract_*``/``_sync_*`` are the
station half of that contract; a state corruption uses them mid-run to
round-trip one station through its object.  Differential tests
(tests/kernel/, tests/transport/test_fabric_differential.py) pin the
two engines to identical event traces per seed across the fault-plan
and topology-fault zoos.
"""

from collections import deque
from time import perf_counter

from repro.adversary.base import (
    MOVE_CRASH_R,
    MOVE_DELIVER,
    MOVE_KINDS,
    MOVE_RETRY,
    move_kind,
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
_MODE_WIRE = 5

# Commands step_loop takes between bursts; a positive int is a burst of
# that many steps.  The crash commands negate the loop's ``do_crash``
# codes.
SYNC = 0
CRASH_TRANSMITTER = -1
CRASH_RECEIVER = -2
WIPE = -3


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
    """Run ``sim`` to the end on the flat kernel; return the loop's wall time.

    Mirrors the object engine step for step: same phase order, same RNG
    draws from the same tapes, same trace events in the same order, same
    error messages.  The Simulator must already be installed; its own
    ``run()`` dispatches here and builds the result.  The run is one burst
    of :func:`step_loop` to the end of the step budget, then the
    :data:`SYNC` that hands the state back to the objects.
    """
    started = perf_counter()
    loop = step_loop(sim)
    next(loop)
    loop.send(sim._max_steps)
    wall_seconds = perf_counter() - started
    loop.send(SYNC)
    return wall_seconds


def step_loop(sim, feed=None, gate=None):
    """The kernel's one step loop, as a generator resumed in bursts.

    Priming (``next``) borrows the state of the installed ``sim``; each
    ``send(n)`` with ``n > 0`` then runs up to ``n`` steps, stopping early
    at the step budget or once the workload is done.  Between bursts it
    takes the commands :data:`CRASH_TRANSMITTER` and
    :data:`CRASH_RECEIVER` (the station's crash transition, between two
    steps), :data:`WIPE` (amnesia for the pending submissions) and
    :data:`SYNC` (the veneer contract's write back, repeatable: every
    delta is rebaselined).  Every resume yields whether the transmitter
    is busy, a submission is pending or a packet is queued on a FIFO
    wire.  A step that raises writes the state back before the exception
    propagates; ``close()`` does not.

    ``feed`` and ``gate`` bind a relay-fabric hop: the hop's push-style
    submission deque (polled at each burst and submission, where the
    object hop's ``_advance_workload`` would run) and its ``LinkState``,
    whose ``up`` flag gates the installed wire adversary (the fabric's
    ``_LinkAdversary``, run as the wire mode).

    The hot state lives entirely in plain locals of this frame (no
    closure cells, no attribute loads inside the loop), with the station
    transitions and channel bookkeeping inlined.  The precompiled modes
    also inline the adversary's coin schedule and the fairness
    enforcement; generic mode asks the real adversary object for each
    move instead (see the module docstring).  Under ``retain="none"`` in
    a precompiled mode, events bypass ``Trace.append`` when the trace's
    observers allow it: the loop calls the monitors' bound handlers (when
    the run's ``StreamingChecks`` is the only observer) or the subscribed
    observers (when the run has no checks) itself, and the trace counters
    and checker bookkeeping are settled at :data:`SYNC` (an observer
    reading them mid-run sees the last sync's values).

    Only the GHM stations have a flat mirror, and the kernel never calls a
    station method in the loop, so any other station class (a baseline
    protocol, or a subclass overriding a transition) is rejected with
    :class:`~repro.core.exceptions.ConfigurationError` up front.
    """
    transmitter = sim._transmitter
    receiver = sim._receiver
    if type(transmitter) is not Transmitter or type(receiver) is not Receiver:
        raise ConfigurationError(
            "the kernel engine mirrors only the GHM Transmitter/Receiver "
            f"pair, got {type(transmitter).__name__}/"
            f"{type(receiver).__name__}; run it with engine='object'"
        )
    mode = _MODE_WIRE if gate is not None else _classify_adversary(sim)
    generic = mode == _MODE_GENERIC
    wire = mode == _MODE_WIRE

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

    # Recording.  Untraced tallies are derived at sync from the channel
    # counter deltas instead of being counted per event in the loop.
    trace_append = trace.append
    rec_sent = sim._record_pkt_sent
    rec_deliv = sim._record_pkt_delivered
    rec_retry = sim._record_retry
    tr_sent0 = tr_sent
    tr_deliv0 = tr_deliv
    rt_sent0 = rt_sent
    rt_deliv0 = rt_deliv

    # Direct dispatch: when the trace stores nothing, resolve each emitted
    # event class -- the packet and retry classes too, when the run
    # records them -- to a handler tuple once, up front: the monitors'
    # bound handlers when the run's streaming checker is the class's only
    # observer, the subscribed observers themselves when the run has no
    # checker.  ``h_send is None`` means "no fast path" and every site
    # falls back to ``trace.append`` (full/tail retention, an observer
    # beside the checker, generic mode).  The packet and retry handlers
    # stay None unless recorded.  The settled counts are the ``n_*`` below
    # and, for packets, the channel deltas the untraced tallies use; both
    # move before the handlers run (Trace.append too counts before it
    # notifies), so a handler that raises leaves them summing to the total.
    h_send = h_recv = h_ok = h_ct = h_cr = None
    h_psent = h_pdel = h_retry = None
    n_send = n_recv = n_ok = n_ct = n_cr = n_retry = 0
    timed = False
    stride = _TIMED_STRIDE
    ev_total = samples = seen_off = 0
    sampled = 0.0
    if trace._retain == "none" and not generic:
        if checks is not None:
            expected = (checks.observe,)
            table = checks._table
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
            if checks is None:
                resolved.append(_obs)
                continue
            if _obs != expected:
                resolved = None
                break
            _handlers = table.get(_cls)
            if _handlers is None:
                _handlers = _resolve_subclass(table, _cls)
            resolved.append(_handlers)
        if resolved is not None:
            (h_send, h_recv, h_ok, h_ct, h_cr,
             h_psent, h_pdel, h_retry) = resolved
            ev_total = trace._total
            if checks is not None:
                # The checker hears every dispatched event, so its running
                # count at the event of index ``idx`` is ``idx + seen_off``.
                timed = checks._timed
                seen_off = checks.events_seen - ev_total + 1
                samples = checks._timed_samples
                sampled = checks._sampled_seconds

    # Metrics mirrors, bumped after an event's dispatch as the object
    # engine bumps them after Trace.append.  The retries baseline turns
    # into the untraced Retry tally at sync.
    m_submitted = metrics.messages_submitted
    m_ok = metrics.messages_ok
    m_delivered = metrics.messages_delivered
    m_retries = m_retries0 = metrics.retries
    m_crash_t = metrics.crashes_t
    m_crash_r = metrics.crashes_r
    storage_peak = metrics._storage_peak
    keep_samples = metrics._keep_storage_samples
    samples_append = metrics._storage_samples.append
    # With nothing recorded per step (packet or retry events, storage
    # samples), an idle wire burst is applied at once (see the loop).
    untraced = not (rec_sent or rec_deliv or rec_retry or keep_samples)

    # Simulator loop slots.
    steps = sim._steps
    max_steps = sim._max_steps
    # The RETRY and storage cadences as the steps they next fire at; the
    # sync turns them back into the object engine's countdowns.
    retry_every = sim._retry_every
    retry_at = steps + sim._retry_countdown
    storage_sample_every = sim._storage_sample_every
    sample_at = steps + sim._storage_countdown
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
    # from the FIFO queue instead.  The wire mode is the reliable FIFO
    # behind its link's up flag: a packet announced while the link is
    # down is lost, and a downed link drops everything in flight at its
    # next move (``up`` is re-read at each burst, since the fabric only
    # moves it between ticks, and stays True in every other mode).
    adv = sim._adversary
    steps0 = steps
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
    up = True
    wire_dropped = adv.dropped if wire else 0

    is_fair = mode == _MODE_FAIR_RELIABLE or mode == _MODE_FAIR_RANDOM
    is_rel = (
        mode == _MODE_FAIR_RELIABLE or mode == _MODE_BARE_RELIABLE or wire
    )
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
        for _info in adv._queue if wire else inner._pending:
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

    # Generic mode: the real adversary object (the object loop's dispatch).
    adv_decide = sim._adversary_decide
    adv_next_move = adv.next_move
    adv_on_new = adv.on_new_pkt
    move_kinds = dict(MOVE_KINDS)

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
    # Command loop: each resume is a burst of steps or a command.
    # ------------------------------------------------------------------

    pending = 0
    error = None
    while True:
        cmd = yield t_busy or next_message is not None or len(rel_pend) > 0
        try:
            stop = steps
            if cmd > 0:
                stop += cmd
                if stop > max_steps:
                    stop = max_steps
                if feed is not None:
                    up = gate.up
                    if next_message is None and feed:
                        next_message = feed.popleft()
            elif cmd == WIPE:
                feed.clear()
                next_message = None
            else:
                pending = -cmd

            # ----------------------------------------------------------
            # Step loop (phase order mirrors Simulator._run_object exactly).
            # ----------------------------------------------------------

            while True:
                if steps >= stop:
                    if not pending:
                        break
                    # A crash command lands between two steps: run
                    # the dispatch below without a step (no sample is
                    # due: ``sample_at`` is past every finished step).
                    dpid = None
                    do_crash = pending
                    pending = 0
                else:
                    if (
                        workload_exhausted
                        and next_message is None
                        and not t_busy
                    ):
                        break
                    if wire and not rel_pend and (
                        t_busy or next_message is None
                    ):
                        if not t_busy and untraced:
                            # Idle to the end of the burst: nothing is
                            # queued and nothing is left to submit (the
                            # feed refills only between bursts), so each
                            # RETRY poll crosses the wire alone, meets
                            # the idle transmitter and draws nothing, and
                            # no nonce moves.  Apply the burst's polls
                            # and storage samples (the peak) at once.
                            if retry_at <= stop:
                                k = (stop - retry_at) // retry_every + 1
                                retry_at += k * retry_every
                                m_retries += k
                                rs_sent += k
                                rt_sent += k
                                rt_bits += k * poll_len
                                for pid in range(rt_next, rt_next + k):
                                    rt_store[pid] = (
                                        r_rho_v, r_rho_l, r_tau_v, r_tau_l,
                                        r_i,
                                    )
                                    r_i += 1
                                rt_next += k
                                if not up:
                                    wire_dropped += k
                                else:
                                    rt_deliv += k
                                    # The transmitter takes a poll that
                                    # extends its tau and carries a new
                                    # retry index; the indexes count up,
                                    # so only the first few can be stale.
                                    taken = 0
                                    if (
                                        t_tau_l <= r_tau_l
                                        and (r_tau_v >> (r_tau_l - t_tau_l))
                                        == t_tau_v
                                        and t_iseen < r_i - 1
                                    ):
                                        taken = r_i - 1 - t_iseen
                                        if taken > k:
                                            taken = k
                                        t_rnv = r_rho_v
                                        t_rnl = r_rho_l
                                        t_iseen = r_i - 1
                                    ts_ign += k - taken
                            if sample_at <= stop:
                                sample_at += (
                                    (stop - sample_at) // storage_sample_every
                                    + 1
                                ) * storage_sample_every
                                bits_now = (
                                    t_tau_l
                                    + (t_ptau_l if t_ptau_l > 0 else 0)
                                    + r_rho_l
                                    + r_tau_l
                                    + (r_prl if r_prl > 0 else 0)
                                )
                                if bits_now > storage_peak:
                                    storage_peak = bits_now
                            steps = stop
                            break
                        # Idle fast-forward: a wire step with nothing
                        # queued and nothing to submit does nothing
                        # until a cadence fires (no packet, no draw, no
                        # counter), so skip every step before the next
                        # RETRY or storage sample in O(1).
                        n = retry_at - 1
                        if sample_at <= n:
                            n = sample_at - 1
                        if n > stop:
                            n = stop
                        if n > steps:
                            steps = n
                            if steps == stop:
                                break
                    steps += 1

                    # -- higher layer: submit the next message when idle
                    if not t_busy and next_message is not None:
                        message = next_message
                        if message in submitted:
                            raise AxiomViolationError(
                                f"Axiom 2 violated: payload {message!r} "
                                "submitted twice"
                            )
                        submitted.add(message)
                        if feed is None:
                            try:
                                next_message = next(message_iter)
                            except StopIteration:
                                next_message = None
                                workload_exhausted = True
                        else:
                            next_message = feed.popleft() if feed else None
                        if h_send is None:
                            trace_append(mk_send(message))
                        elif h_send:
                            ev = mk_send(message)
                            idx = ev_total
                            ev_total = idx + 1
                            n_send += 1
                            if timed and (idx + seen_off) % stride == 1:
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
                            tr_store[pid] = (
                                message, t_rnv, t_rnl, t_tau_v, t_tau_l
                            )
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
                                    if timed and (idx + seen_off) % stride == 1:
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
                                if up:
                                    rel_pend.append((True, pid, length))
                                else:
                                    wire_dropped += 1
                            elif generic:
                                adv_on_new(mk_info(T2R, pid, length))
                            elif inner_random() < p_loss:
                                rf_dropped += 1
                            else:
                                rf_pend.append((True, pid, length))

                    # -- RETRY cadence -------------------------------
                    if steps == retry_at:
                        retry_at = steps + retry_every
                        if rec_retry:
                            if h_retry is None:
                                trace_append(EV_RETRY)
                            else:
                                idx = ev_total
                                ev_total = idx + 1
                                n_retry += 1
                                if timed and (idx + seen_off) % stride == 1:
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
                        rt_store[pid] = (
                            r_rho_v, r_rho_l, r_tau_v, r_tau_l, r_i
                        )
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
                                if timed and (idx + seen_off) % stride == 1:
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
                            if up:
                                rel_pend.append((False, pid, length))
                            else:
                                wire_dropped += 1
                        elif generic:
                            adv_on_new(mk_info(R2T, pid, length))
                        elif inner_random() < p_loss:
                            rf_dropped += 1
                        else:
                            rf_pend.append((False, pid, length))

                    # -- adversary move ------------------------------
                    dpid = None
                    do_crash = 0
                    if is_rel:
                        # Under the enforcer the starvation scan never
                        # fires: the inner FIFO delivers whenever
                        # anything is pending, so a pass-step implies
                        # every channel is empty.
                        if rel_pend:
                            if up:
                                dto_r, dpid, _ln = rel_pend.popleft()
                            else:
                                wire_dropped += len(rel_pend)
                                rel_pend.clear()
                    elif generic:
                        # The real adversary object decides, as in
                        # Simulator._run_object; a deliver or crash falls
                        # through to the dispatch below.
                        if adv_decide is not None:
                            adv._moves_made += 1
                            move = adv_decide()
                        else:
                            move = adv_next_move()
                        kind = move_kinds.get(type(move))
                        if kind is None:
                            kind = move_kind(move_kinds, move)
                        if kind == MOVE_DELIVER:
                            dpid = move.packet_id
                            if dpid is None:
                                raise UnknownPacketError(dpid)
                            ch = move.channel
                            dto_r = ch is T2R or ch == T2R
                        elif kind <= MOVE_CRASH_R:
                            # Pass and the crashes are the crash codes.
                            do_crash = kind
                        elif kind == MOVE_RETRY:
                            # Simulator._fire_retry, scheduled by the
                            # adversary.
                            if rec_retry:
                                trace_append(EV_RETRY)
                            m_retries += 1
                            pid = rt_next
                            rt_next = pid + 1
                            rt_store[pid] = (
                                r_rho_v, r_rho_l, r_tau_v, r_tau_l, r_i
                            )
                            rt_sent += 1
                            rt_bits += poll_len
                            r_i += 1
                            rs_sent += 1
                            if rec_sent:
                                trace_append(mk_psent(R2T, pid, poll_len))
                            adv_on_new(mk_info(R2T, pid, poll_len))
                        else:
                            # Simulator._corrupt: a wipe is the crash
                            # transition; a scramble round-trips the one
                            # station through its object, consuming the
                            # move's pinned tape (it keeps every nonce's
                            # length, so poll_len stays valid).
                            station = move.station
                            if station != "T" and station != "R":
                                raise SimulationError(
                                    "corrupt move names unknown station "
                                    f"{station!r}"
                                )
                            if move.wipe:
                                do_crash = 1 if station == "T" else 2
                            else:
                                rng = RandomSource(move.seed)
                                if station == "T":
                                    _sync_transmitter(transmitter, (
                                        t_busy, t_msg, t_tau_v, t_tau_l,
                                        t_ptau_v, t_ptau_l, t_gen, t_num,
                                        t_iseen, t_rnv, t_rnl, ts_sent,
                                        ts_oks, ts_crashes, ts_err,
                                        ts_ext, ts_ign, ts_maxtau,
                                    ))
                                    scrambled = transmitter.corrupt(
                                        rng, move.fields
                                    )
                                    (
                                        t_busy, t_msg, t_tau_v, t_tau_l,
                                        t_ptau_v, t_ptau_l, t_gen, t_num,
                                        t_iseen, t_rnv, t_rnl, ts_sent,
                                        ts_oks, ts_crashes, ts_err,
                                        ts_ext, ts_ign, ts_maxtau,
                                    ) = _extract_transmitter(transmitter)
                                    metrics.corruptions_t += 1
                                else:
                                    _sync_receiver(receiver, (
                                        r_kk, r_gen, r_num, r_i, r_tau_v,
                                        r_tau_l, r_rho_v, r_rho_l, r_prv,
                                        r_prl, rs_sent, rs_deliv,
                                        rs_crashes, rs_err, rs_ext,
                                        rs_stale, rs_tauupd, rs_maxrho,
                                    ))
                                    scrambled = receiver.corrupt(
                                        rng, move.fields
                                    )
                                    (
                                        r_kk, r_gen, r_num, r_i, r_tau_v,
                                        r_tau_l, r_rho_v, r_rho_l, r_prv,
                                        r_prl, rs_sent, rs_deliv,
                                        rs_crashes, rs_err, rs_ext,
                                        rs_stale, rs_tauupd, rs_maxrho,
                                    ) = _extract_receiver(receiver)
                                    metrics.corruptions_r += 1
                                trace_append(Corruption(
                                    station=station,
                                    fields=scrambled,
                                    seed=move.seed,
                                ))
                    else:
                        # Inner RandomFaultAdversary coin schedule
                        # (exact order).
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
                                # Starvation scan over the two channel
                                # slots, in channel-dict insertion order
                                # (first-seen wins a tie via the strict
                                # > comparison).
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
                                        if (
                                            starv_r >= patience
                                            and starv_r > most_count
                                        ):
                                            most = 2
                                else:
                                    if pend_r:
                                        starv_r += 1
                                        if starv_r >= patience:
                                            most = 2
                                            most_count = starv_r
                                    if pend_t:
                                        starv_t += 1
                                        if (
                                            starv_t >= patience
                                            and starv_t > most_count
                                        ):
                                            most = 1
                                if most:
                                    # Forced delivery replaces the
                                    # inner's move, even a crash.
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

                # -- dispatch: delivery / crash / pass ---------------
                if dpid is not None:
                    if dto_r:
                        # Channel delivery on C^{T->R} + Receiver
                        # transition.
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
                                if timed and (idx + seen_off) % stride == 1:
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
                                if h_recv is None:
                                    trace_append(mk_recv(message))
                                elif h_recv:
                                    ev = mk_recv(message)
                                    idx = ev_total
                                    ev_total = idx + 1
                                    n_recv += 1
                                    if timed and (idx + seen_off) % stride == 1:
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
                        # Channel delivery on C^{R->T} + Transmitter
                        # transition.
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
                                if timed and (idx + seen_off) % stride == 1:
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
                            if (
                                t_tau_l <= ptl
                                and (ptv >> (ptl - t_tau_l)) == t_tau_v
                            ):
                                # OK test passed: current slot
                                # acknowledged.
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
                                    if timed and (idx + seen_off) % stride == 1:
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
                                            t_tau_v = (
                                                (t_tau_v << s) | t_grb(s)
                                            )
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
                                        message, prv_, prl_, t_tau_v,
                                        t_tau_l,
                                    )
                                    tr_sent += 1
                                    length = (
                                        13 + len(message)
                                        + ((prl_ + 7) >> 3)
                                        + ((t_tau_l + 7) >> 3)
                                    ) << 3
                                    tr_bits += length
                                    if rec_sent:
                                        if h_psent is None:
                                            trace_append(
                                                mk_psent(T2R, pid, length)
                                            )
                                        else:
                                            ev = mk_psent(T2R, pid, length)
                                            idx = ev_total
                                            ev_total = idx + 1
                                            if timed and (
                                                (idx + seen_off) % stride == 1
                                            ):
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
                                        if up:
                                            rel_pend.append(
                                                (True, pid, length)
                                            )
                                        else:
                                            wire_dropped += 1
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
                        if timed and (idx + seen_off) % stride == 1:
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
                        if timed and (idx + seen_off) % stride == 1:
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

                # -- storage sampling --------------------------------
                if steps == sample_at:
                    sample_at = steps + storage_sample_every
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
            # Anything a step raises -- a watchdog's timeout included --
            # syncs first.  close() raises GeneratorExit at the yield,
            # outside this try, so it never syncs.
            error = exc
        if cmd and error is None:
            continue

        # --------------------------------------------------------------
        # Sync: flat locals -> object graph (the veneer contract).
        # --------------------------------------------------------------

        _sync_transmitter(transmitter, (
            t_busy, t_msg, t_tau_v, t_tau_l, t_ptau_v, t_ptau_l,
            t_gen, t_num, t_iseen, t_rnv, t_rnl,
            ts_sent, ts_oks, ts_crashes, ts_err, ts_ext, ts_ign, ts_maxtau,
        ))
        transmitter._rng._bits_drawn += t_bits
        t_bits = 0
        _sync_receiver(receiver, (
            r_kk, r_gen, r_num, r_i, r_tau_v, r_tau_l, r_rho_v, r_rho_l,
            r_prv, r_prl,
            rs_sent, rs_deliv, rs_crashes, rs_err, rs_ext, rs_stale,
            rs_tauupd, rs_maxrho,
        ))
        receiver._rng._bits_drawn += r_bits
        r_bits = 0

        # The flat stores are still parked on the channels (see the
        # extract half); Channel materialises packet objects lazily on
        # first object-level access, so campaign runs that reset without
        # re-reading their packets never pay for the rebuild at all.
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
        steps0 = steps
        if is_rel:
            queue = deque(
                _make_packet_info(_T_TO_R if to_r else _R_TO_T, pid, length)
                for to_r, pid, length in rel_pend
            )
            if wire:
                adv._queue = queue
                adv.dropped = wire_dropped
            else:
                inner._pending = queue
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
        sim._retry_countdown = retry_at - steps
        sim._storage_countdown = sample_at - steps
        sim._next_message = next_message
        sim._workload_exhausted = workload_exhausted
        # Packet counts are the channel deltas: tallied when unrecorded,
        # settled below when dispatched directly.  Unrecorded retries are
        # tallied from the metric delta.
        n_psent = (tr_sent - tr_sent0) + (rt_sent - rt_sent0)
        n_pdel = (tr_deliv - tr_deliv0) + (rt_deliv - rt_deliv0)
        tr_sent0 = tr_sent
        rt_sent0 = rt_sent
        tr_deliv0 = tr_deliv
        rt_deliv0 = rt_deliv
        if not rec_sent:
            sim._pkt_sent_tally += n_psent
            n_psent = 0
        if not rec_deliv:
            sim._pkt_delivered_tally += n_pdel
            n_pdel = 0
        if not rec_retry:
            sim._retry_tally += m_retries - m_retries0
        m_retries0 = m_retries

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
            n_send = n_recv = n_ok = n_ct = n_cr = n_retry = 0
            if checks is not None:
                checks.events_seen = ev_total + seen_off - 1
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
        # The flushed tallies took indexes; events after a sync follow them.
        ev_total = trace._total
        if checks is not None:
            seen_off = checks.events_seen - ev_total + 1

        if error is not None:
            raise error
