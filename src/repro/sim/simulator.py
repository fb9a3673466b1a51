"""The execution harness: composes ``D(A, ADV)`` and runs it.

This is the operational form of Figure 1.  One :class:`Simulator` owns:

* a :class:`~repro.core.protocol.DataLink` (the pair ``A = (A^t, A^r)``);
* a :class:`~repro.channel.ChannelPair` (``C^{T→R}`` and ``C^{R→T}``);
* an :class:`~repro.adversary.Adversary` (optionally wrapped in a
  :class:`~repro.adversary.FairnessEnforcer` so Axiom 3 holds);
* a :class:`~repro.sim.workload.Workload` standing in for the higher layer.

Each simulation *step* is: (1) the higher layer submits the next message if
the transmitter is idle (Axiom 1), (2) the receiver's RETRY internal action
fires on its cadence (the "infinitely many RETRY events" assumption), and
(3) the adversary makes one move.  The full execution is recorded as a
:class:`~repro.checkers.trace.Trace` for the correctness checkers.

The recording path is the hot loop, so it supports three cost levers:

* ``retain`` / ``tail_size`` choose the trace's retention mode — campaigns
  run ``retain="none"`` (counters only) or ``"tail"`` (forensic ring);
* ``checks`` attaches a :class:`~repro.checkers.StreamingChecks` suite that
  evaluates the Section 2.6 conditions online while events are recorded,
  replacing the post-hoc batch passes;
* when neither the retention mode nor any observer would ever see a
  packet-level event, the simulator counts it (:meth:`Trace.tally`)
  instead of allocating it — roughly half of all events in a typical run.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional

from repro.adversary.base import (
    Adversary,
    Corrupt,
    CrashReceiver,
    CrashTransmitter,
    Deliver,
    Move,
    Pass,
    TriggerRetry,
)
from repro.adversary.fairness import FairnessEnforcer
from repro.channel.channel import ChannelPair
from repro.checkers.streaming import StreamingChecks
from repro.checkers.trace import Trace
from repro.core.events import (
    CRASH_R,
    CRASH_T,
    OK,
    RETRY,
    ChannelId,
    Corruption,
    EmitOk,
    EmitPacket,
    EmitReceiveMsg,
    PktDelivered,
    PktSent,
    Retry,
    StationOutput,
    make_pkt_delivered,
    make_pkt_sent,
    make_receive_msg,
    make_send_msg,
)
from repro.core.exceptions import AxiomViolationError, SimulationError
from repro.core.protocol import DataLink
from repro.core.random_source import RandomSource
from repro.sim.metrics import MetricsCollector, SimulationMetrics
from repro.sim.workload import Workload

__all__ = ["SimulationResult", "Simulator"]

_T_TO_R = ChannelId.T_TO_R


@dataclass
class SimulationResult:
    """Everything a finished run produced.

    ``checks`` is the online monitor suite that rode the run (``None``
    when the simulator was built without one); its reports are the
    streaming verdicts over exactly the recorded execution.
    """

    trace: Trace
    metrics: SimulationMetrics
    completed: bool
    steps: int
    link: DataLink
    adversary: Adversary
    checks: Optional[StreamingChecks] = field(default=None, repr=False)

    @property
    def all_messages_ok(self) -> bool:
        """True iff every submitted message was acknowledged with OK.

        Vacuously true for an empty workload: zero messages, zero failures.
        """
        return self.metrics.messages_ok == self.metrics.messages_submitted


class Simulator:
    """Drives one execution of ``D(A, ADV)`` to completion or step budget.

    Parameters
    ----------
    link:
        The protocol pair under test.
    adversary:
        The fault/scheduling strategy.  Wrapped in a
        :class:`FairnessEnforcer` unless ``enforce_fairness=False``.
    workload:
        The higher layer's message stream (Axioms 1–2 are enforced here).
    seed:
        Tape for the adversary (the stations carry their own tapes).
    retry_every:
        A RETRY internal action is forced at least every this many steps;
        adversaries may trigger additional ones.
    max_steps:
        Hard stop — bounded stand-in for "eventually".
    enforce_fairness:
        Disable only to demonstrate what an unfair adversary can do
        (the theorems then promise liveness nothing).
    fairness_patience:
        Forwarded to the :class:`FairnessEnforcer`.
    retain, tail_size:
        Trace retention mode (see :class:`~repro.checkers.trace.Trace`).
        ``"full"`` keeps the whole execution; ``"tail"`` a bounded ring of
        the most recent ``tail_size`` events; ``"none"`` counters only.
    checks:
        An optional :class:`StreamingChecks` suite subscribed to the trace
        so the Section 2.6 conditions are evaluated online during the run.
    storage_sample_every:
        Sample the stations' storage footprint every this many steps.
        Default: every step under ``retain="full"`` (the experiments'
        series need that), every 16 steps otherwise (the peak stays
        accurate to within a message's growth; the campaign path doesn't
        pay a per-step probe).  ``0`` disables periodic sampling entirely.
    keep_storage_samples:
        Forwarded to :class:`MetricsCollector`; default keeps the series
        only under ``retain="full"``.
    engine:
        ``"object"`` runs the classic per-object loop below; ``"kernel"``
        runs the flat slot-indexed step kernel (:mod:`repro.kernel`),
        which produces the identical execution — same trace events, same
        RNG draws, same verdicts — several times faster.  The kernel
        borrows the stations'/channels'/adversary's state for the run and
        syncs it back afterwards, so everything observable through this
        class behaves the same either way.
    """

    def __init__(
        self,
        link: DataLink,
        adversary: Adversary,
        workload: Workload,
        seed: Optional[int] = None,
        retry_every: int = 4,
        max_steps: int = 100_000,
        enforce_fairness: bool = True,
        fairness_patience: int = 32,
        retain: str = "full",
        tail_size: int = 256,
        checks: Optional[StreamingChecks] = None,
        storage_sample_every: Optional[int] = None,
        keep_storage_samples: Optional[bool] = None,
        engine: str = "object",
    ) -> None:
        if retry_every < 1:
            raise ValueError("retry_every must be >= 1")
        if max_steps < 1:
            raise ValueError("max_steps must be >= 1")
        if engine not in ("object", "kernel"):
            raise ValueError(
                f"engine must be 'object' or 'kernel', got {engine!r}"
            )
        if storage_sample_every is None:
            storage_sample_every = 1 if retain == "full" else 16
        if storage_sample_every < 0:
            raise ValueError("storage_sample_every must be >= 0")
        if keep_storage_samples is None:
            keep_storage_samples = retain == "full"
        self._engine = engine
        self._retry_every = retry_every
        self._max_steps = max_steps
        self._storage_sample_every = storage_sample_every
        self._enforce_fairness = enforce_fairness
        self._fairness_patience = fairness_patience
        self._keep_storage_samples = keep_storage_samples
        self._channels = ChannelPair(on_new_pkt=self._on_new_pkt)
        self._t_to_r = self._channels.t_to_r
        self._r_to_t = self._channels.r_to_t
        self._trace = Trace(retain=retain, tail_size=tail_size)
        self._checks = checks
        if checks is not None:
            self._trace.subscribe(checks.observe, types=checks.observed_types)
        self._move_handlers: Dict[type, Callable[[Move], None]] = {
            Deliver: self._deliver,
            CrashTransmitter: self._crash_transmitter,
            CrashReceiver: self._crash_receiver,
            Corrupt: self._corrupt,
            TriggerRetry: self._trigger_retry,
            Pass: self._pass,
        }
        self._install(link, adversary, workload, seed)

    def _install(
        self,
        link: DataLink,
        adversary: Adversary,
        workload: Workload,
        seed: Optional[int],
    ) -> None:
        """Wire fresh run participants into this (new or recycled) harness.

        Everything per-run lives here; everything per-session (channels,
        trace, checks, move-handler cache, config) lives in ``__init__``.
        A reused simulator must make exactly the choices a fresh one would,
        so this re-derives every run-scoped attribute from scratch.
        """
        self._link = link
        self._transmitter = link.transmitter
        self._receiver = link.receiver
        self._workload = workload
        if self._enforce_fairness and not isinstance(adversary, FairnessEnforcer):
            adversary = FairnessEnforcer(adversary, patience=self._fairness_patience)
        self._adversary = adversary
        self._adversary.bind(RandomSource(seed).fork("adversary"))
        # When the adversary uses the stock Adversary.next_move (every
        # in-tree one does), run() folds its bookkeeping into the loop and
        # calls _decide directly — one call frame per step instead of two.
        self._adversary_decide = (
            adversary._decide
            if type(adversary).next_move is Adversary.next_move
            else None
        )
        self._read_recording_flags()
        self._pkt_sent_tally = 0
        self._pkt_delivered_tally = 0
        self._retry_tally = 0
        self._metrics = MetricsCollector(
            link, self._channels, keep_storage_samples=self._keep_storage_samples
        )
        self._message_iter: Iterator[bytes] = iter(workload)
        self._next_message: Optional[bytes] = None
        self._workload_exhausted = False
        self._submitted_payloads = set()
        self._steps = 0
        # Mirror of transmitter.busy, updated at the three transition points
        # the simulator itself drives (send_msg, EmitOk, crash^T), so the
        # per-step idle check is one attribute load instead of a property.
        self._tx_busy = self._transmitter.busy
        self._retry_countdown = self._retry_every
        self._storage_countdown = self._storage_sample_every
        self._advance_workload()

    def _read_recording_flags(self) -> None:
        """Decide which packet-level events become real trace events.

        Packet-level events are ~half the execution; skip allocating them
        when neither retention nor an observer would ever see one.  The
        skipped events are counted in plain ints and flushed to the trace's
        counters in bulk (end of run(), or whenever the trace is read) —
        Trace.tally1 per event would still pay a call frame.  Re-read when
        ``run()`` starts, so an observer subscribed after construction sees
        the events too.
        """
        trace = self._trace
        self._record_pkt_sent = trace.wants(PktSent)
        self._record_pkt_delivered = trace.wants(PktDelivered)
        self._record_retry = trace.wants(Retry)

    def reset(
        self,
        link: DataLink,
        adversary: Adversary,
        workload: Workload,
        seed: Optional[int] = None,
    ) -> None:
        """Recycle this simulator for a fresh run with new participants.

        Clears the trace, channels and streaming checkers in place and
        installs the new ``D(A, ADV)`` composition — skipping the object
        construction and observer wiring that dominates short runs in
        campaign mode.  The reused harness is required to produce
        bit-identical executions to a freshly constructed ``Simulator``
        with the same arguments; the reset property tests pin this down.
        """
        self._trace.reset()
        self._channels.reset()
        if self._checks is not None:
            self._checks.reset()
        self._install(link, adversary, workload, seed)

    # -- channel callback -------------------------------------------------------------

    def _on_new_pkt(self, info) -> None:
        if self._record_pkt_sent:
            self._trace.append(
                make_pkt_sent(info.channel, info.packet_id, info.length_bits)
            )
        else:
            self._pkt_sent_tally += 1
        self._adversary.on_new_pkt(info)

    # -- run loop -----------------------------------------------------------------------

    def run(self) -> SimulationResult:
        """Execute until the workload is fully acknowledged or budget runs out.

        The loop body inlines :meth:`step` (sans the call frames) because
        this is the engine's hottest couple of lines; keep the two in sync.
        :meth:`step` remains the single-step API.
        """
        self._read_recording_flags()
        if self._engine == "kernel":
            from repro.kernel.engine import run_kernel

            return run_kernel(self)
        # A prior kernel run on this simulator may have parked flat packet
        # tuples on the channels; the object loop works on packet objects.
        self._channels.t_to_r._materialize()
        self._channels.r_to_t._materialize()
        submit = self._maybe_submit_message
        fire_retry = self._fire_retry
        adversary = self._adversary
        adv_decide = self._adversary_decide
        next_move = adversary.next_move
        deliver = self._deliver
        execute = self._execute_move
        metrics = self._metrics
        retry_every = self._retry_every
        max_steps = self._max_steps
        steps = self._steps
        started = perf_counter()
        while steps < max_steps:
            if (
                self._workload_exhausted
                and self._next_message is None
                and not self._tx_busy
            ):
                break
            steps += 1
            self._steps = steps
            if not self._tx_busy and self._next_message is not None:
                submit()
            countdown = self._retry_countdown - 1
            if countdown:
                self._retry_countdown = countdown
            else:
                self._retry_countdown = retry_every
                fire_retry()
            if adv_decide is not None:
                adversary._moves_made += 1
                move = adv_decide()
            else:
                move = next_move()
            if type(move) is Deliver:
                deliver(move)
            else:
                execute(move)
            if self._storage_countdown:
                self._storage_countdown -= 1
                if not self._storage_countdown:
                    self._storage_countdown = self._storage_sample_every
                    metrics.sample_storage()
        wall_seconds = perf_counter() - started
        self._flush_tallies()
        checker_seconds = self._checks.checker_seconds if self._checks else 0.0
        return SimulationResult(
            trace=self._trace,
            metrics=self._metrics.freeze(
                self._steps,
                wall_seconds=wall_seconds,
                checker_seconds=checker_seconds,
                events_recorded=self._trace.total_events,
            ),
            completed=self._finished(),
            steps=self._steps,
            link=self._link,
            adversary=self._adversary,
            checks=self._checks,
        )

    def step(self) -> None:
        """One simulation step: higher layer, RETRY cadence, adversary move."""
        self._steps += 1
        if not self._tx_busy and self._next_message is not None:
            self._maybe_submit_message()
        self._retry_countdown -= 1
        if not self._retry_countdown:
            self._retry_countdown = self._retry_every
            self._fire_retry()
        move = self._adversary.next_move()
        if type(move) is Deliver:
            self._deliver(move)
        else:
            self._execute_move(move)
        if self._storage_countdown:
            self._storage_countdown -= 1
            if not self._storage_countdown:
                self._storage_countdown = self._storage_sample_every
                self._metrics.sample_storage()

    # -- step phases ------------------------------------------------------------------------

    def _maybe_submit_message(self) -> None:
        if self._tx_busy or self._next_message is None:
            return
        message = self._next_message
        if message in self._submitted_payloads:
            raise AxiomViolationError(
                f"Axiom 2 violated: payload {message!r} submitted twice"
            )
        self._submitted_payloads.add(message)
        self._advance_workload()
        self._trace.append(make_send_msg(message))
        self._metrics.messages_submitted += 1
        outputs = self._transmitter.send_msg(message)
        self._tx_busy = True
        if outputs:
            self._apply_outputs(outputs, self._t_to_r)

    def _fire_retry(self) -> None:
        if self._record_retry:
            self._trace.append(RETRY)
        else:
            self._retry_tally += 1
        self._metrics.retries += 1
        outputs = self._receiver.retry()
        if outputs:
            self._apply_outputs(outputs, self._r_to_t)

    def _execute_move(self, move: Move) -> None:
        handler = self._move_handlers.get(type(move))
        if handler is None:
            handler = self._resolve_move_handler(type(move), move)
        handler(move)

    def _resolve_move_handler(
        self, move_type: type, move: Move
    ) -> Callable[[Move], None]:
        """Cache the handler for a Move subclass (same semantics as the old
        ``isinstance`` chain, paid once per concrete type)."""
        for registered, handler in list(self._move_handlers.items()):
            if issubclass(move_type, registered):
                self._move_handlers[move_type] = handler
                return handler
        raise SimulationError(f"adversary produced unknown move {move!r}")

    def _crash_transmitter(self, move: Move) -> None:
        self._trace.append(CRASH_T)
        self._metrics.crashes_t += 1
        self._transmitter.crash()
        self._tx_busy = False

    def _crash_receiver(self, move: Move) -> None:
        self._trace.append(CRASH_R)
        self._metrics.crashes_r += 1
        self._receiver.crash()

    def _corrupt(self, move: Corrupt) -> None:
        if move.wipe:
            # A wipe-mode corruption *is* a crash: the known-blank special
            # case of the arbitrary-state fault.  Delegating keeps the two
            # trace-identical, which the differential tests pin down.
            if move.station == "T":
                self._crash_transmitter(move)
            elif move.station == "R":
                self._crash_receiver(move)
            else:
                raise SimulationError(
                    f"corrupt move names unknown station {move.station!r}"
                )
            return
        # The scramble tape is pinned by the move's own seed — independent
        # of the adversary's tape — so recorded corruptions replay
        # bit-identically from forensics artifacts.
        rng = RandomSource(move.seed)
        if move.station == "T":
            scrambled = self._transmitter.corrupt(rng, move.fields)
            self._tx_busy = self._transmitter.busy
            self._metrics.corruptions_t += 1
        elif move.station == "R":
            scrambled = self._receiver.corrupt(rng, move.fields)
            self._metrics.corruptions_r += 1
        else:
            raise SimulationError(
                f"corrupt move names unknown station {move.station!r}"
            )
        self._trace.append(
            Corruption(station=move.station, fields=scrambled, seed=move.seed)
        )

    def _trigger_retry(self, move: Move) -> None:
        self._fire_retry()

    def _pass(self, move: Move) -> None:
        pass

    def _deliver(self, move: Deliver) -> None:
        to_receiver = move.channel is _T_TO_R or move.channel == ChannelId.T_TO_R
        channel = self._t_to_r if to_receiver else self._r_to_t
        packet = channel.deliver_pkt(move.packet_id)
        if self._record_pkt_delivered:
            self._trace.append(make_pkt_delivered(move.channel, move.packet_id))
        else:
            self._pkt_delivered_tally += 1
        if to_receiver:
            outputs = self._receiver.on_receive_pkt(packet)
            if outputs:
                self._apply_outputs(outputs, self._r_to_t)
        else:
            outputs = self._transmitter.on_receive_pkt(packet)
            if outputs:
                self._apply_outputs(outputs, self._t_to_r)

    def _apply_outputs(self, outputs: List[StationOutput], out_channel) -> None:
        """Apply station outputs; ``out_channel`` is where EmitPacket goes
        (each station only ever sends on its own outgoing channel)."""
        for output in outputs:
            output_type = type(output)
            if output_type is EmitPacket:
                out_channel.send_pkt(output.packet)
            elif output_type is EmitOk:
                self._trace.append(OK)
                self._metrics.messages_ok += 1
                self._tx_busy = False
            elif output_type is EmitReceiveMsg:
                self._trace.append(make_receive_msg(output.message))
                self._metrics.messages_delivered += 1
            elif isinstance(output, EmitPacket):
                out_channel.send_pkt(output.packet)
            elif isinstance(output, EmitOk):
                self._trace.append(OK)
                self._metrics.messages_ok += 1
                self._tx_busy = False
            elif isinstance(output, EmitReceiveMsg):
                self._trace.append(make_receive_msg(output.message))
                self._metrics.messages_delivered += 1
            else:
                raise SimulationError(f"unknown station output {output!r}")

    # -- bookkeeping ----------------------------------------------------------------------------

    def _flush_tallies(self) -> None:
        """Push the deferred packet/retry counts into the trace's counters."""
        if self._pkt_sent_tally:
            self._trace.tally(PktSent, self._pkt_sent_tally)
            self._pkt_sent_tally = 0
        if self._pkt_delivered_tally:
            self._trace.tally(PktDelivered, self._pkt_delivered_tally)
            self._pkt_delivered_tally = 0
        if self._retry_tally:
            self._trace.tally(Retry, self._retry_tally)
            self._retry_tally = 0

    def _advance_workload(self) -> None:
        try:
            self._next_message = next(self._message_iter)
        except StopIteration:
            self._next_message = None
            self._workload_exhausted = True

    def _finished(self) -> bool:
        return (
            self._workload_exhausted
            and self._next_message is None
            and not self._tx_busy
        )

    @property
    def trace(self) -> Trace:
        """The execution recorded so far (grows while stepping)."""
        self._flush_tallies()
        return self._trace

    @property
    def channels(self) -> ChannelPair:
        """The underlying channel pair (for inspection in tests)."""
        return self._channels

    @property
    def steps_taken(self) -> int:
        """Number of steps executed so far."""
        return self._steps

    @property
    def finished(self) -> bool:
        """True once the whole workload has been acknowledged."""
        return self._finished()

    @property
    def max_steps(self) -> int:
        """The step budget this simulator was configured with."""
        return self._max_steps
