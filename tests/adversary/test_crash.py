"""Unit tests for the random crash-injecting adversary."""

from __future__ import annotations

import pytest

from repro.adversary.base import CrashReceiver, CrashTransmitter, Deliver
from repro.adversary.crash import CrashStormAdversary
from repro.channel.channel import PacketInfo
from repro.core.events import ChannelId
from repro.core.random_source import RandomSource


def info(pid):
    return PacketInfo(channel=ChannelId.T_TO_R, packet_id=pid, length_bits=64)


class TestCrashStorm:
    def test_injects_crashes_at_rate(self):
        adv = CrashStormAdversary(crash_rate=0.3)
        adv.bind(RandomSource(1))
        moves = [adv.next_move() for __ in range(200)]
        crashes = sum(
            isinstance(m, (CrashTransmitter, CrashReceiver)) for m in moves
        )
        assert 30 < crashes < 90
        assert adv.crashes_injected == crashes

    def test_respects_station_targeting(self):
        adv = CrashStormAdversary(crash_rate=0.5, target_receiver=False)
        adv.bind(RandomSource(2))
        moves = [adv.next_move() for __ in range(100)]
        assert any(isinstance(m, CrashTransmitter) for m in moves)
        assert not any(isinstance(m, CrashReceiver) for m in moves)

    def test_max_crashes_cap(self):
        adv = CrashStormAdversary(crash_rate=0.9, max_crashes=3)
        adv.bind(RandomSource(3))
        for __ in range(100):
            adv.next_move()
        assert adv.crashes_injected == 3

    def test_still_delivers_between_crashes(self):
        adv = CrashStormAdversary(crash_rate=0.2)
        adv.bind(RandomSource(4))
        adv.on_new_pkt(info(0))
        moves = [adv.next_move() for __ in range(30)]
        assert any(isinstance(m, Deliver) for m in moves)

    def test_validation(self):
        with pytest.raises(ValueError):
            CrashStormAdversary(crash_rate=2.0)
        with pytest.raises(ValueError):
            CrashStormAdversary(target_transmitter=False, target_receiver=False)

