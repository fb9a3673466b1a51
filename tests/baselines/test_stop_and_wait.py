"""Tests for the stop-and-wait (modular sequence) baseline."""

from __future__ import annotations

import pytest

from repro.adversary.benign import ReliableAdversary
from repro.adversary.crash import ScheduledCrashAdversary
from repro.adversary.random_faults import FaultProfile, RandomFaultAdversary
from repro.baselines.base import AckFrame, Frame
from repro.baselines.stop_and_wait import (
    StopAndWaitReceiver,
    StopAndWaitTransmitter,
    make_stop_and_wait_link,
)
from repro.checkers.safety import check_all_safety
from repro.core.events import EmitOk, EmitReceiveMsg
from repro.core.exceptions import ProtocolError
from repro.sim.simulator import Simulator
from repro.sim.workload import SequentialWorkload


class TestUnits:
    def test_sequence_increments_per_message(self):
        tm = StopAndWaitTransmitter()
        assert tm.send_msg(b"a")[0].packet.seq == 1
        tm.on_receive_pkt(AckFrame(seq=1))
        assert tm.send_msg(b"b")[0].packet.seq == 2

    def test_matching_ack_oks(self):
        tm = StopAndWaitTransmitter()
        tm.send_msg(b"a")
        assert any(isinstance(o, EmitOk) for o in tm.on_receive_pkt(AckFrame(seq=1)))

    def test_stale_ack_retransmits(self):
        tm = StopAndWaitTransmitter()
        tm.send_msg(b"a")
        outputs = tm.on_receive_pkt(AckFrame(seq=0))
        assert outputs[0].packet == Frame(seq=1, message=b"a")

    def test_sequence_wraps_at_modulus(self):
        tm = StopAndWaitTransmitter(seq_bits=2)
        for expected in (1, 2, 3, 0, 1):
            frame = tm.send_msg(b"m%d" % expected)[0].packet
            assert frame.seq == expected
            tm.on_receive_pkt(AckFrame(seq=expected))

    def test_receiver_accepts_new_rejects_repeat(self):
        rm = StopAndWaitReceiver()
        first = rm.on_receive_pkt(Frame(seq=1, message=b"a"))
        again = rm.on_receive_pkt(Frame(seq=1, message=b"a"))
        assert any(isinstance(o, EmitReceiveMsg) for o in first)
        assert not any(isinstance(o, EmitReceiveMsg) for o in again)

    def test_crash_resets_counters(self):
        tm = StopAndWaitTransmitter()
        tm.send_msg(b"a")
        tm.crash()
        assert not tm.busy
        assert tm.send_msg(b"b")[0].packet.seq == 1  # counter restarted

    def test_axiom1(self):
        tm = StopAndWaitTransmitter()
        tm.send_msg(b"a")
        with pytest.raises(ProtocolError):
            tm.send_msg(b"b")

    def test_validation(self):
        with pytest.raises(ValueError):
            StopAndWaitTransmitter(seq_bits=0)


class TestBehaviour:
    def _run(self, adversary, seq_bits=16, messages=12, seed=0):
        sim = Simulator(
            make_stop_and_wait_link(seq_bits=seq_bits),
            adversary,
            SequentialWorkload(messages),
            seed=seed,
            max_steps=30_000,
            engine="object",
        )
        return sim.run()

    def test_correct_over_reliable_fifo(self):
        result = self._run(ReliableAdversary())
        assert result.all_messages_ok
        assert check_all_safety(result.trace).passed

    def test_wide_counter_survives_moderate_reorder_dup(self):
        # Unlike ABP, a 16-bit counter distinguishes frames many messages
        # apart, so moderate duplication/reordering does not confuse it.
        result = self._run(
            RandomFaultAdversary(FaultProfile(duplicate=0.3, reorder=0.4)), seed=1
        )
        assert result.all_messages_ok
        assert check_all_safety(result.trace).passed

    def test_breaks_under_crashes(self):
        # Deterministic counters restart at zero after a crash.  Depending
        # on where the crash lands, the protocol either repeats history (a
        # safety violation) or the desynchronised counters deadlock (a
        # liveness loss) — [LMF88] says one of the two is unavoidable.
        broken = 0
        for seed in range(8):
            result = self._run(
                ScheduledCrashAdversary(
                    [(15 + seed, "T"), (30 + seed, "R"), (45 + seed, "T")]
                ),
                seed=seed,
            )
            safety = check_all_safety(result.trace).passed
            if not safety or not result.completed:
                broken += 1
        assert broken > 0
