"""Forcing the ε-probability failure branches with scripted randomness.

Theorem 3 tolerates failure with probability ε because specific nonce
collisions *can* happen.  These tests rig the stations' random tapes to
make those collisions certain, and verify that (a) the implementation then
fails in exactly the way the analysis predicts, and (b) the Section 2.6
checkers flag it.  This is mutation-style validation: if the protocol or a
checker drifted, a forced collision failing to produce the predicted
violation would expose it.
"""

from __future__ import annotations

from typing import Deque
from collections import deque

from repro.core.bitstrings import BitString
from repro.core.events import EmitOk, EmitPacket, EmitReceiveMsg
from repro.core.packets import DataPacket
from repro.core.params import ProtocolParams
from repro.core.random_source import RandomSource
from repro.core.receiver import Receiver
from repro.core.transmitter import Transmitter
from repro.checkers.safety import check_no_duplication, check_no_replay, check_order
from repro.checkers.trace import Trace
from repro.core.events import Ok, ReceiveMsg, SendMsg


PARAMS = ProtocolParams(epsilon=2.0 ** -16)


class ScriptedRandomSource(RandomSource):
    """A RandomSource whose next draws can be forced to specific values.

    Scripted values are consumed first (lengths must match the request);
    once the script is exhausted, genuine randomness resumes.
    """

    def __init__(self, seed: int = 0) -> None:
        super().__init__(seed)
        self._script: Deque[BitString] = deque()

    def force_next(self, bits: BitString) -> None:
        self._script.append(bits)

    def random_bits(self, length: int) -> BitString:
        if self._script:
            forced = self._script.popleft()
            if len(forced) != length:
                raise AssertionError(
                    f"script mismatch: forced {len(forced)} bits, asked {length}"
                )
            return forced
        return super().random_bits(length)


def pump_handshake(tm: Transmitter, rm: Receiver, trace: Trace, message: bytes) -> None:
    """Drive one message through a perfect channel, recording the trace."""
    trace.append(SendMsg(message=message))
    outputs = tm.send_msg(message)
    _route_to_receiver(outputs, rm, trace)
    for __ in range(6):
        poll_outputs = rm.retry()
        poll = next(o.packet for o in poll_outputs if isinstance(o, EmitPacket))
        t_outputs = tm.on_receive_pkt(poll)
        done = False
        for output in t_outputs:
            if isinstance(output, EmitOk):
                trace.append(Ok())
                done = True
            elif isinstance(output, EmitPacket):
                _route_to_receiver([output], rm, trace)
        if done:
            return
    raise AssertionError("handshake did not complete on a perfect channel")


def _route_to_receiver(outputs, rm: Receiver, trace: Trace) -> None:
    for output in outputs:
        if isinstance(output, EmitPacket):
            for r_output in rm.on_receive_pkt(output.packet):
                if isinstance(r_output, EmitReceiveMsg):
                    trace.append(ReceiveMsg(message=r_output.message))


class TestForcedTauCollisionBreaksOrder:
    """Lemma 5 / Theorem 3's ε-event: the fresh τ collides with τ^R."""

    def test_spurious_ok_without_delivery(self):
        tm_rng = ScriptedRandomSource(1)
        tm = Transmitter(PARAMS, tm_rng)
        rm = Receiver(PARAMS, RandomSource(2))
        trace = Trace()

        # Message 1 completes normally; the receiver remembers tau_1.
        pump_handshake(tm, rm, trace, b"m1")
        tau_1 = rm.tau

        # Rig message 2's fresh nonce to equal tau_1 (probability 2^-size
        # in reality; certainty here).  The transmitter draws size(1) bits
        # after the fixed tau'_crash prefix.
        assert tau_1[0] == 1  # live nonces start with tau'_crash
        tm_rng.force_next(tau_1.suffix(len(tau_1) - 1))

        trace.append(SendMsg(message=b"m2"))
        tm.send_msg(b"m2")
        assert tm.tau == tau_1  # the collision is armed

        # The receiver's ordinary poll acks tau_1 — which now LOOKS like
        # an ack for m2.  The transmitter emits OK; m2 was never delivered.
        poll = next(
            o.packet for o in rm.retry() if isinstance(o, EmitPacket)
        )
        outputs = tm.on_receive_pkt(poll)
        assert any(isinstance(o, EmitOk) for o in outputs)
        trace.append(Ok())

        report = check_order(trace)
        assert not report.passed
        assert report.failure_count == 1

    def test_unrigged_tape_does_not_collide(self):
        # Control: with genuine randomness the same schedule is clean.
        tm = Transmitter(PARAMS, RandomSource(1))
        rm = Receiver(PARAMS, RandomSource(2))
        trace = Trace()
        pump_handshake(tm, rm, trace, b"m1")
        pump_handshake(tm, rm, trace, b"m2")
        assert check_order(trace).passed


class TestForcedRhoCollisionBreaksNoReplay:
    """Lemma 4 / Theorem 7's ε-event: a fresh ρ equals a historical one."""

    def test_replayed_message_accepted(self):
        rm_rng = ScriptedRandomSource(3)
        tm = Transmitter(PARAMS, RandomSource(4))
        rm = Receiver(PARAMS, rm_rng)
        trace = Trace()

        # Message 1: capture the challenge it was delivered against and
        # the data packet that carried it (the adversary's archive).
        rho_0 = rm.rho
        trace.append(SendMsg(message=b"m1"))
        tm.send_msg(b"m1")
        poll = next(o.packet for o in rm.retry() if isinstance(o, EmitPacket))
        data_outputs = tm.on_receive_pkt(poll)
        archived = next(
            o.packet for o in data_outputs if isinstance(o, EmitPacket)
        )
        assert archived.rho == rho_0

        # Deliver m1, rigging the next TWO challenge draws to repeat rho_0
        # (once after m1's delivery, once after m2's).
        rm_rng.force_next(rho_0)
        rm_rng.force_next(rho_0)
        for r_output in rm.on_receive_pkt(archived):
            if isinstance(r_output, EmitReceiveMsg):
                trace.append(ReceiveMsg(message=r_output.message))
        ack = next(o.packet for o in rm.retry() if isinstance(o, EmitPacket))
        for output in tm.on_receive_pkt(ack):
            if isinstance(output, EmitOk):
                trace.append(Ok())
        assert rm.rho == rho_0  # the collision is armed

        # Message 2 completes normally (against the repeated challenge),
        # creating the receive boundary Theorem 7 quantifies over.
        pump_handshake(tm, rm, trace, b"m2")
        assert rm.rho == rho_0  # armed again

        # The adversary replays m1's archived data packet: its rho matches
        # the (rigged) fresh challenge and its tau is incomparable with
        # tau^R (which is now m2's nonce) — the receiver re-accepts a
        # message resolved two handshakes ago.
        outputs = rm.on_receive_pkt(archived)
        replayed = [o for o in outputs if isinstance(o, EmitReceiveMsg)]
        assert len(replayed) == 1  # the protocol was fooled, as analysed
        trace.append(ReceiveMsg(message=replayed[0].message))

        report = check_no_replay(trace)
        assert not report.passed

    def test_single_boundary_collision_is_duplication(self):
        # The same collision one handshake earlier is, by the formal
        # definitions, a *duplication* (Theorem 8), not a replay: the OK
        # falls inside the receive-extension, so m is not yet in M_alpha.
        rm_rng = ScriptedRandomSource(8)
        tm = Transmitter(PARAMS, RandomSource(9))
        rm = Receiver(PARAMS, rm_rng)
        trace = Trace()

        rho_0 = rm.rho
        trace.append(SendMsg(message=b"m1"))
        tm.send_msg(b"m1")
        poll = next(o.packet for o in rm.retry() if isinstance(o, EmitPacket))
        archived = next(
            o.packet
            for o in tm.on_receive_pkt(poll)
            if isinstance(o, EmitPacket)
        )
        rm_rng.force_next(rho_0)
        for r_output in rm.on_receive_pkt(archived):
            if isinstance(r_output, EmitReceiveMsg):
                trace.append(ReceiveMsg(message=r_output.message))
        ack = next(o.packet for o in rm.retry() if isinstance(o, EmitPacket))
        for output in tm.on_receive_pkt(ack):
            if isinstance(output, EmitOk):
                trace.append(Ok())

        older = DataPacket(
            message=b"m1",
            rho=rho_0,
            tau=BitString("1").concat(
                RandomSource(99).random_bits(PARAMS.size(1))
            ),
        )
        outputs = rm.on_receive_pkt(older)
        assert any(isinstance(o, EmitReceiveMsg) for o in outputs)
        trace.append(ReceiveMsg(message=b"m1"))

        assert not check_no_duplication(trace).passed
        assert check_no_replay(trace).passed  # the definitions differ here

    def test_unrigged_tape_rejects_replay(self):
        tm = Transmitter(PARAMS, RandomSource(4))
        rm = Receiver(PARAMS, RandomSource(5))
        trace = Trace()
        pump_handshake(tm, rm, trace, b"m1")
        # Replay an old-style packet against the genuine fresh challenge.
        older = DataPacket(
            message=b"m1",
            rho=RandomSource(6).random_bits(PARAMS.size(1)),
            tau=BitString("1").concat(RandomSource(7).random_bits(PARAMS.size(1))),
        )
        outputs = rm.on_receive_pkt(older)
        assert not any(isinstance(o, EmitReceiveMsg) for o in outputs)
        assert check_no_replay(trace).passed
