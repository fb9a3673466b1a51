"""Unit and behavioural tests for the alternating-bit baseline."""

from __future__ import annotations

import pytest

from repro.adversary.benign import ReliableAdversary
from repro.adversary.random_faults import FaultProfile, RandomFaultAdversary
from repro.baselines.alternating_bit import AbpReceiver, AbpTransmitter, make_abp_link
from repro.baselines.base import AckFrame, Frame
from repro.checkers.safety import check_all_safety
from repro.core.events import EmitOk, EmitPacket, EmitReceiveMsg
from repro.core.exceptions import ProtocolError
from repro.resilience.faultplan import CrashAt, FaultPlan, ScriptedAdversary
from repro.sim.simulator import Simulator
from repro.sim.workload import SequentialWorkload


class TestTransmitterUnit:
    def test_sends_frame_with_current_bit(self):
        tm = AbpTransmitter()
        outputs = tm.send_msg(b"m1")
        assert outputs[0].packet == Frame(seq=0, message=b"m1")

    def test_matching_ack_flips_bit(self):
        tm = AbpTransmitter()
        tm.send_msg(b"m1")
        outputs = tm.on_receive_pkt(AckFrame(seq=0))
        assert any(isinstance(o, EmitOk) for o in outputs)
        assert tm.send_msg(b"m2")[0].packet.seq == 1

    def test_stale_ack_triggers_retransmit(self):
        tm = AbpTransmitter()
        tm.send_msg(b"m1")
        outputs = tm.on_receive_pkt(AckFrame(seq=1))
        assert isinstance(outputs[0], EmitPacket)
        assert outputs[0].packet == Frame(seq=0, message=b"m1")

    def test_axiom1_enforced(self):
        tm = AbpTransmitter()
        tm.send_msg(b"m1")
        with pytest.raises(ProtocolError):
            tm.send_msg(b"m2")

    def test_crash_resets_bit(self):
        tm = AbpTransmitter()
        tm.send_msg(b"m1")
        tm.on_receive_pkt(AckFrame(seq=0))
        tm.crash()
        assert tm.send_msg(b"m2")[0].packet.seq == 0  # volatile bit lost

    def test_wrong_type_rejected(self):
        with pytest.raises(ProtocolError):
            AbpTransmitter().on_receive_pkt(Frame(seq=0, message=b"m"))


class TestReceiverUnit:
    def test_accepts_expected_bit(self):
        rm = AbpReceiver()
        outputs = rm.on_receive_pkt(Frame(seq=0, message=b"m1"))
        assert any(
            isinstance(o, EmitReceiveMsg) and o.message == b"m1" for o in outputs
        )

    def test_rejects_duplicate_silently(self):
        # Duplicates are not re-acked per packet (self-flooding); the
        # periodic RETRY carries the re-ack instead.
        rm = AbpReceiver()
        rm.on_receive_pkt(Frame(seq=0, message=b"m1"))
        outputs = rm.on_receive_pkt(Frame(seq=0, message=b"m1"))
        assert outputs == []
        retry_outputs = rm.retry()
        assert retry_outputs[0].packet == AckFrame(seq=0)

    def test_retry_before_first_accept_uses_sentinel(self):
        # Nothing accepted yet: the ack carries a sentinel that clocks
        # retransmission without risking a spurious OK.
        rm = AbpReceiver()
        outputs = rm.retry()
        assert outputs[0].packet == AckFrame(seq=-1)

    def test_retry_resends_previous_ack(self):
        rm = AbpReceiver()
        rm.on_receive_pkt(Frame(seq=0, message=b"m1"))
        outputs = rm.retry()
        assert outputs[0].packet == AckFrame(seq=0)

    def test_wrong_type_rejected(self):
        with pytest.raises(ProtocolError):
            AbpReceiver().on_receive_pkt(AckFrame(seq=0))


class TestAbpBehaviour:
    def _run(self, adversary, messages=12, seed=0, max_steps=30_000, **kwargs):
        sim = Simulator(
            make_abp_link(), adversary, SequentialWorkload(messages),
            seed=seed, max_steps=max_steps, engine="object", **kwargs,
        )
        return sim.run()

    def test_correct_over_reliable_fifo(self):
        result = self._run(ReliableAdversary())
        assert result.all_messages_ok
        assert check_all_safety(result.trace).passed

    def test_correct_under_loss_only(self):
        # Fairness enforcement off: the enforcer resurrects dropped packets
        # out of order, which would violate the FIFO premise ABP needs.  A
        # loss-only adversary with loss < 1 is fair on its own.
        result = self._run(
            RandomFaultAdversary(FaultProfile(loss=0.35)),
            enforce_fairness=False,
        )
        assert result.all_messages_ok
        assert check_all_safety(result.trace).passed

    def test_breaks_under_duplication(self):
        # The paper's setting (duplicating channels) defeats ABP.
        violated = 0
        for seed in range(8):
            result = self._run(
                RandomFaultAdversary(FaultProfile(duplicate=0.5, reorder=0.5)),
                seed=seed,
            )
            if not check_all_safety(result.trace).passed:
                violated += 1
        assert violated > 0

    def test_breaks_under_receiver_crash(self):
        # [BS88]'s observation: classical FIFO protocols are not
        # crash-resilient.  Depending on where the crash lands relative to
        # the alternating bit, ABP either misbehaves (safety) or
        # desynchronises into a deadlock (liveness) — it never keeps both.
        broken = 0
        for seed in range(8):
            result = self._run(
                ScriptedAdversary(
                    FaultPlan.of(
                        CrashAt(step=21 + seed, station="R"),
                        CrashAt(step=46 + seed, station="R"),
                    )
                ),
                seed=seed,
            )
            if not check_all_safety(result.trace).passed or not result.completed:
                broken += 1
        assert broken > 0
