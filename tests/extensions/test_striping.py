"""Tests for message striping over K independent links."""

from __future__ import annotations

import subprocess
import sys

import pytest

from repro.adversary.benign import DelayedFifoAdversary, ReliableAdversary
from repro.adversary.random_faults import FaultProfile, RandomFaultAdversary
from repro.extensions.striping import Resequencer, StripedLink, StripedSimulator


PAYLOADS = [b"msg-%04d" % i for i in range(24)]


def run(lanes, adversary_factory, payloads=PAYLOADS, seed=5):
    striped = StripedLink(lanes=lanes, seed=seed)
    simulator = StripedSimulator(striped, payloads, adversary_factory, seed=seed)
    return simulator.run()


class TestStripedLink:
    def test_round_robin_assignment(self):
        striped = StripedLink(lanes=3)
        per_lane = striped.stripe([b"a", b"b", b"c", b"d"])
        assert [len(lane) for lane in per_lane] == [2, 1, 1]
        assert striped.lane_of(0) == 0 and striped.lane_of(3) == 0

    def test_resequencer_reorders(self):
        striped = StripedLink(lanes=2)
        frames = striped.stripe([b"x", b"y", b"z"])
        # Deliver out of order: seq 1 before seq 0.
        striped.accept(frames[1][0])  # seq 1
        assert striped.delivered_in_order == []
        assert striped.reorder_buffer_size == 1
        striped.accept(frames[0][0])  # seq 0
        assert striped.delivered_in_order == [b"x", b"y"]
        striped.accept(frames[0][1])  # seq 2
        assert striped.delivered_in_order == [b"x", b"y", b"z"]

    def test_validation(self):
        with pytest.raises(ValueError):
            StripedLink(lanes=0)


class TestStripedRuns:
    def test_order_preserved_end_to_end(self):
        result = run(4, ReliableAdversary)
        assert result.completed
        assert result.delivered == PAYLOADS
        assert result.all_safe

    def test_order_preserved_under_faults(self):
        result = run(
            3,
            lambda: RandomFaultAdversary(
                FaultProfile(loss=0.3, duplicate=0.3, reorder=0.5)
            ),
        )
        assert result.completed
        assert result.delivered == PAYLOADS
        assert result.all_safe
        # Lanes progress unevenly under random faults: the resequencer
        # genuinely had to buffer.
        assert result.max_reorder_buffer >= 1

    def test_throughput_scales_when_latency_bound(self):
        single = run(1, lambda: DelayedFifoAdversary(delay_turns=6))
        wide = run(4, lambda: DelayedFifoAdversary(delay_turns=6))
        assert single.completed and wide.completed
        # Four lanes should cut wall-clock rounds by at least 2x.
        assert wide.rounds * 2 < single.rounds
        assert wide.messages_per_round > 2 * single.messages_per_round

    def test_each_lane_individually_safe(self):
        result = run(
            2, lambda: RandomFaultAdversary(FaultProfile(loss=0.4, crash_t=0.005))
        )
        assert result.all_safe

    def test_single_lane_degenerates_to_plain_link(self):
        result = run(1, ReliableAdversary)
        assert result.completed
        assert result.delivered == PAYLOADS
        assert result.max_reorder_buffer == 0


class TestResequencer:
    def test_releases_longest_in_order_run(self):
        reseq = Resequencer()
        assert reseq.accept(1, b"b") == []
        assert reseq.backlog == 1
        assert reseq.accept(0, b"a") == [b"a", b"b"]
        assert reseq.delivered_in_order == [b"a", b"b"]
        assert reseq.next_expected == 2
        assert reseq.backlog == 0

    def test_duplicates_counted_and_dropped(self):
        # A crash-resubmitted slot whose first incarnation already landed
        # arrives as a replayed sequence number: dropped, never re-released.
        reseq = Resequencer()
        reseq.accept(0, b"a")
        assert reseq.accept(0, b"a-again") == []
        assert reseq.duplicates == 1
        reseq.accept(2, b"c")
        assert reseq.accept(2, b"c-again") == []  # pending duplicate
        assert reseq.duplicates == 2
        assert reseq.accept(1, b"b") == [b"b", b"c"]
        assert reseq.delivered_in_order == [b"a", b"b", b"c"]

    def test_high_water_tracks_worst_backlog(self):
        reseq = Resequencer()
        for sequence in (3, 2, 1):
            reseq.accept(sequence, b"x")
        assert reseq.high_water == 3
        reseq.accept(0, b"x")
        assert reseq.backlog == 0
        assert reseq.high_water == 3  # high-water survives the flush

    def test_fabric_and_live_lanes_share_it_without_the_extensions(self):
        # One class serves the striped link, the live lanes and the relay
        # fabric's destination, and the latter two reach it without
        # importing this package's forgery and content-aware attackers.
        code = (
            "import sys\n"
            "from repro.live import lanes\n"
            "from repro.transport import fabric\n"
            "assert lanes.Resequencer is fabric.Resequencer\n"
            "print(sorted(m for m in sys.modules if 'extensions' in m))\n"
        )
        probe = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True,
            timeout=60,
        )
        assert probe.returncode == 0, probe.stderr
        assert probe.stdout.strip() == "[]"
        from repro.transport import fabric

        assert fabric.Resequencer is Resequencer
