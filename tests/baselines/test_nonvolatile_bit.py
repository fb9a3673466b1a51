"""Tests for the [BS88]-style nonvolatile-bit baseline."""

from __future__ import annotations

from repro.adversary.benign import ReliableAdversary
from repro.adversary.crash import CrashStormAdversary
from repro.baselines.base import AckFrame, Frame
from repro.baselines.nonvolatile_bit import (
    NonvolatileBitReceiver,
    NonvolatileBitTransmitter,
    make_nonvolatile_bit_link,
)
from repro.checkers.safety import check_all_safety
from repro.core.events import EmitReceiveMsg
from repro.sim.simulator import Simulator
from repro.sim.workload import SequentialWorkload


class TestStableStorageSemantics:
    def test_transmitter_bit_survives_crash(self):
        tm = NonvolatileBitTransmitter()
        tm.send_msg(b"a")
        tm.on_receive_pkt(AckFrame(seq=0))  # bit flips to 1
        tm.crash()
        assert tm.nonvolatile_bit == 1
        assert tm.send_msg(b"b")[0].packet.seq == 1

    def test_transmitter_message_is_volatile(self):
        tm = NonvolatileBitTransmitter()
        tm.send_msg(b"a")
        tm.crash()
        assert not tm.busy  # the in-flight message died with the memory

    def test_receiver_expectation_survives_crash(self):
        rm = NonvolatileBitReceiver()
        rm.on_receive_pkt(Frame(seq=0, message=b"a"))
        rm.crash()
        outputs = rm.on_receive_pkt(Frame(seq=0, message=b"a"))
        assert not any(isinstance(o, EmitReceiveMsg) for o in outputs)


class TestBehaviour:
    def _run(self, adversary, messages=12, seed=0):
        sim = Simulator(
            make_nonvolatile_bit_link(),
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

    def test_receiver_crashes_fully_tolerated(self):
        # The headline [BS88] property: the stable bit prevents the
        # duplication/replay failures plain ABP shows under crash^R.
        for seed in range(8):
            result = self._run(
                CrashStormAdversary(
                    crash_rate=0.03, target_transmitter=False, max_crashes=6
                ),
                seed=seed,
            )
            assert check_all_safety(result.trace).passed

    def test_transmitter_crashes_still_leak_order_violations(self):
        # The residual weakness: a one-bit deterministic ack cannot
        # distinguish the pre-crash message from its successor.
        violated = 0
        for seed in range(10):
            result = self._run(
                CrashStormAdversary(
                    crash_rate=0.03, target_receiver=False, max_crashes=6
                ),
                seed=seed,
            )
            report = check_all_safety(result.trace)
            if not report.order.passed:
                violated += 1
            # But never duplication or replay — those need receiver state loss.
            assert report.no_duplication.passed
        assert violated > 0
