"""Unit tests for the Transmitter automaton (reconstructed Figure 2)."""

from __future__ import annotations

import pytest

from repro.core.bitstrings import TAU_CRASH, TAU_PRIME_CRASH, BitString
from repro.core.events import EmitOk
from repro.core.exceptions import ProtocolError
from repro.core.packets import DataPacket, PollPacket
from repro.core.params import ProtocolParams
from repro.core.random_source import RandomSource
from repro.core.transmitter import Transmitter


EPS = 2.0 ** -16


@pytest.fixture
def tm() -> Transmitter:
    return Transmitter(ProtocolParams(epsilon=EPS), RandomSource(1))


def arm(tm: Transmitter, rho="0101", message=b"m1"):
    """Make the transmitter busy with a message and aware of a challenge.

    Returns the data-packet outputs of the first poll reply.
    """
    tm.send_msg(message)
    return tm.on_receive_pkt(
        PollPacket(rho=BitString(rho), tau=TAU_CRASH, retry=1)
    )


def complete(tm: Transmitter, message=b"m1", next_rho="1010"):
    """Run a full fault-free handshake; leaves the transmitter idle with
    ``next_rho`` remembered as the receiver's current challenge."""
    arm(tm, message=message)
    outputs = tm.on_receive_pkt(
        PollPacket(rho=BitString(next_rho), tau=tm.tau, retry=2)
    )
    assert any(isinstance(o, EmitOk) for o in outputs)


class TestInitialState:
    def test_idle_initially(self, tm):
        assert not tm.busy
        assert tm.pending_message is None

    def test_tau_starts_with_tau_prime_crash(self, tm):
        assert TAU_PRIME_CRASH.is_prefix_of(tm.tau)
        assert not TAU_CRASH.is_prefix_of(tm.tau)

    def test_generation_starts_at_one(self, tm):
        assert tm.generation == 1
        assert tm.error_count == 0

    def test_initial_reset_not_counted_as_crash(self, tm):
        assert tm.stats.crashes == 0


class TestSendMsg:
    def test_without_known_challenge_stays_silent(self, tm):
        outputs = tm.send_msg(b"m1")
        assert outputs == []
        assert tm.busy
        assert tm.pending_message == b"m1"

    def test_initial_polls_with_foreign_tau_do_not_arm(self, tm):
        # An idle fresh transmitter ignores polls whose tau is not its own;
        # the first message therefore opens silently.
        tm.on_receive_pkt(PollPacket(rho=BitString("0101"), tau=TAU_CRASH, retry=1))
        assert tm.send_msg(b"m1") == []

    def test_second_message_opens_with_data(self, tm):
        complete(tm, next_rho="1010")
        outputs = tm.send_msg(b"m2")
        assert len(outputs) == 1
        packet = outputs[0].packet
        assert isinstance(packet, DataPacket)
        assert packet.message == b"m2"
        assert packet.rho == BitString("1010")
        assert packet.tau == tm.tau

    def test_fresh_tau_per_message(self, tm):
        tau_before = tm.tau
        tm.send_msg(b"m1")
        assert tm.tau != tau_before
        assert TAU_PRIME_CRASH.is_prefix_of(tm.tau)

    def test_send_while_busy_violates_axiom1(self, tm):
        tm.send_msg(b"m1")
        with pytest.raises(ProtocolError):
            tm.send_msg(b"m2")

    def test_non_bytes_rejected(self, tm):
        with pytest.raises(TypeError):
            tm.send_msg("text")  # type: ignore[arg-type]

    def test_counters_reset_per_message(self, tm):
        complete(tm)
        tm.send_msg(b"m2")
        assert tm.generation == 1
        assert tm.error_count == 0


class TestOkPath:
    def test_exact_tau_ack_yields_ok(self, tm):
        arm(tm)
        ack = PollPacket(rho=BitString("1111"), tau=tm.tau, retry=2)
        outputs = tm.on_receive_pkt(ack)
        assert any(isinstance(o, EmitOk) for o in outputs)
        assert not tm.busy
        assert tm.stats.oks == 1

    def test_ok_resets_retry_watermark(self, tm):
        arm(tm)
        tm.on_receive_pkt(PollPacket(rho=BitString("1"), tau=tm.tau, retry=9))
        assert tm.last_retry_seen == 0

    def test_extension_of_tau_also_acks(self, tm):
        # Theorem 3's proof bounds P(prefix(tau_0, tau_0^R)): a poll whose
        # tau extends tau^T must trigger OK.
        arm(tm)
        extended = tm.tau.concat(BitString("101"))
        outputs = tm.on_receive_pkt(
            PollPacket(rho=BitString("1"), tau=extended, retry=2)
        )
        assert any(isinstance(o, EmitOk) for o in outputs)

    def test_ok_remembers_new_challenge(self, tm):
        complete(tm, next_rho="1010")
        outputs = tm.send_msg(b"m2")
        assert outputs[0].packet.rho == BitString("1010")

    def test_proper_prefix_of_tau_does_not_ack(self, tm):
        arm(tm)
        stale = tm.tau.prefix(len(tm.tau) - 1)
        outputs = tm.on_receive_pkt(
            PollPacket(rho=BitString("1"), tau=stale, retry=2)
        )
        assert not any(isinstance(o, EmitOk) for o in outputs)
        assert tm.busy


class TestPollReplies:
    def test_fresh_poll_gets_data_reply(self, tm):
        tm.send_msg(b"m1")
        poll = PollPacket(rho=BitString("0011"), tau=TAU_CRASH, retry=1)
        outputs = tm.on_receive_pkt(poll)
        assert len(outputs) == 1
        packet = outputs[0].packet
        assert packet.message == b"m1"
        assert packet.rho == BitString("0011")  # echoes the poll's challenge
        assert packet.tau == tm.tau

    def test_reply_tracks_latest_challenge(self, tm):
        tm.send_msg(b"m1")
        tm.on_receive_pkt(PollPacket(rho=BitString("0011"), tau=TAU_CRASH, retry=1))
        outputs = tm.on_receive_pkt(
            PollPacket(rho=BitString("1100"), tau=TAU_CRASH, retry=2)
        )
        assert outputs[0].packet.rho == BitString("1100")

    def test_duplicate_retry_counter_ignored(self, tm):
        tm.send_msg(b"m1")
        tm.on_receive_pkt(PollPacket(rho=BitString("0011"), tau=TAU_CRASH, retry=5))
        outputs = tm.on_receive_pkt(
            PollPacket(rho=BitString("0011"), tau=TAU_CRASH, retry=5)
        )
        assert outputs == []
        assert tm.stats.polls_ignored >= 1

    def test_retry_watermark_strictly_increasing(self, tm):
        tm.send_msg(b"m1")
        tm.on_receive_pkt(PollPacket(rho=BitString("0011"), tau=TAU_CRASH, retry=5))
        assert tm.last_retry_seen == 5
        assert tm.on_receive_pkt(
            PollPacket(rho=BitString("0011"), tau=TAU_CRASH, retry=4)
        ) == []
        assert len(tm.on_receive_pkt(
            PollPacket(rho=BitString("0011"), tau=TAU_CRASH, retry=6)
        )) == 1

    def test_wrong_packet_type_rejected(self, tm):
        with pytest.raises(ProtocolError):
            tm.on_receive_pkt(
                DataPacket(message=b"x", rho=BitString("0"), tau=BitString("1"))
            )


class TestErrorCountingAndExtension:
    @staticmethod
    def _junk_poll(tm, retry):
        """Poll with same-length tau differing from tau^T in the last bit."""
        flipped = tm.tau.prefix(len(tm.tau) - 1).concat(
            BitString("0" if tm.tau[-1] else "1")
        )
        return PollPacket(rho=BitString("1"), tau=flipped, retry=retry)

    def test_same_length_mismatch_counts(self, tm):
        tm.send_msg(b"m1")
        tm.on_receive_pkt(self._junk_poll(tm, 1))
        assert tm.error_count == 1
        assert tm.stats.errors_counted == 1

    def test_shorter_tau_not_counted(self, tm):
        tm.send_msg(b"m1")
        tm.on_receive_pkt(PollPacket(rho=BitString("1"), tau=TAU_CRASH, retry=1))
        assert tm.error_count == 0

    def test_longer_non_extension_tau_not_counted(self, tm):
        tm.send_msg(b"m1")
        longer = BitString("0" * (len(tm.tau) + 3))
        tm.on_receive_pkt(PollPacket(rho=BitString("1"), tau=longer, retry=1))
        assert tm.error_count == 0

    def test_extension_at_bound(self, tm):
        tm.send_msg(b"m1")
        params = ProtocolParams(epsilon=EPS)
        old_tau = tm.tau
        old_len = len(tm.tau)
        for i in range(params.bound(1)):
            tm.on_receive_pkt(self._junk_poll(tm, i + 1))
        assert tm.generation == 2
        assert tm.error_count == 0
        assert old_tau.is_proper_prefix_of(tm.tau)
        assert len(tm.tau) == old_len + params.size(2)
        assert tm.stats.extensions == 1

    def test_extended_tau_used_in_replies(self, tm):
        tm.send_msg(b"m1")
        params = ProtocolParams(epsilon=EPS)
        for i in range(params.bound(1)):
            tm.on_receive_pkt(self._junk_poll(tm, i + 1))
        outputs = tm.on_receive_pkt(
            PollPacket(rho=BitString("0011"), tau=TAU_CRASH, retry=100)
        )
        assert outputs[0].packet.tau == tm.tau

    def test_ack_still_works_after_extension(self, tm):
        tm.send_msg(b"m1")
        params = ProtocolParams(epsilon=EPS)
        for i in range(params.bound(1)):
            tm.on_receive_pkt(self._junk_poll(tm, i + 1))
        outputs = tm.on_receive_pkt(
            PollPacket(rho=BitString("1"), tau=tm.tau, retry=200)
        )
        assert any(isinstance(o, EmitOk) for o in outputs)


class TestCrash:
    def test_crash_erases_everything(self, tm):
        arm(tm)
        old_tau = tm.tau
        tm.crash()
        assert not tm.busy
        assert tm.pending_message is None
        assert tm.tau != old_tau
        assert tm.generation == 1
        assert tm.error_count == 0
        assert tm.last_retry_seen == 0
        assert tm.stats.crashes == 1

    def test_post_crash_tau_avoids_tau_crash(self, tm):
        for __ in range(20):
            tm.crash()
            assert not TAU_CRASH.is_prefix_of(tm.tau)

    def test_post_crash_send_has_no_challenge(self, tm):
        complete(tm)
        tm.crash()
        assert tm.send_msg(b"m2") == []

    def test_pre_crash_ack_does_nothing_after_crash(self, tm):
        arm(tm)
        old_tau = tm.tau
        tm.crash()
        outputs = tm.on_receive_pkt(
            PollPacket(rho=BitString("1"), tau=old_tau, retry=1)
        )
        assert not any(isinstance(o, EmitOk) for o in outputs)


class TestIdleBehaviour:
    def test_idle_updates_challenge_on_matching_tau(self, tm):
        complete(tm, next_rho="1010")
        tm.on_receive_pkt(PollPacket(rho=BitString("0110"), tau=tm.tau, retry=2))
        outputs = tm.send_msg(b"m2")
        assert outputs[0].packet.rho == BitString("0110")

    def test_idle_ignores_foreign_tau(self, tm):
        complete(tm, next_rho="1010")
        tm.on_receive_pkt(
            PollPacket(rho=BitString("0000"), tau=BitString("10101010"), retry=9)
        )
        outputs = tm.send_msg(b"m2")
        assert outputs[0].packet.rho == BitString("1010")

    def test_idle_respects_retry_watermark(self, tm):
        complete(tm, next_rho="1010")
        tm.on_receive_pkt(PollPacket(rho=BitString("0110"), tau=tm.tau, retry=3))
        # A replayed older poll (same tau, lower retry) must not regress.
        tm.on_receive_pkt(PollPacket(rho=BitString("1111"), tau=tm.tau, retry=2))
        outputs = tm.send_msg(b"m2")
        assert outputs[0].packet.rho == BitString("0110")

    def test_storage_accounting(self, tm):
        assert tm.storage_bits >= len(tm.tau)
