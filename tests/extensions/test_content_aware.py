"""Tests for the content-aware adversary (obliviousness dropped)."""

from __future__ import annotations

import pytest

from repro.baselines.naive_handshake import make_naive_handshake_link
from repro.checkers.safety import check_all_safety
from repro.core.protocol import make_data_link
from repro.extensions.content_aware import ContentAwareReplayAttacker
from repro.sim.simulator import Simulator
from repro.sim.workload import SequentialWorkload


def launch(link, seed, engine, harvest=70, budget=200, messages=200):
    """Run the attack on one engine; returns (attacker, simulator, result)."""
    attacker = ContentAwareReplayAttacker(
        harvest_messages=harvest, strike_budget=budget
    )
    sim = Simulator(
        link, attacker, SequentialWorkload(messages), seed=seed,
        max_steps=30_000, engine=engine,
    )
    attacker.attach_channels(sim.channels)
    return attacker, sim, sim.run()


def run_attack(link, seed, harvest=70, budget=200, messages=200,
               engine="object"):
    attacker, _sim, result = launch(
        link, seed, engine, harvest=harvest, budget=budget, messages=messages
    )
    return attacker, check_all_safety(result.trace)


class TestSurgicalAttackOnFixedNonce:
    @pytest.mark.parametrize("seed", range(6))
    def test_always_breaks_small_fixed_nonce(self, seed):
        link = make_naive_handshake_link(nonce_bits=6, seed=seed)
        attacker, report = run_attack(link, seed)
        assert not (report.no_replay.passed and report.no_duplication.passed)
        assert attacker.surgical_hits >= 1

    def test_surgery_is_cheap(self):
        # Unlike the oblivious flooder (hundreds of blind replays), the
        # surgical attacker lands its first replay within a few strikes.
        link = make_naive_handshake_link(nonce_bits=6, seed=0)
        attacker, report = run_attack(link, 0, budget=50)
        assert not report.passed
        assert attacker.strikes_at_first_hit is not None
        assert attacker.strikes_at_first_hit <= 10

    def test_index_covers_challenge_space(self):
        link = make_naive_handshake_link(nonce_bits=6, seed=1)
        attacker, __ = run_attack(link, 1)
        # 70 data packets over a 64-value space: near-full coverage.
        assert attacker.archive_size > 32


class TestRealProtocolResistsEvenContentAwareness:
    @pytest.mark.parametrize("seed", range(4))
    def test_entropy_not_obliviousness_carries_security(self, seed):
        # Given causality, reading packets does not help: the fresh
        # challenge has size(1, eps) >= 18 bits, and the archive simply
        # never contains it.
        link = make_data_link(epsilon=2.0 ** -12, seed=seed)
        attacker, report = run_attack(link, seed)
        assert report.passed
        assert attacker.surgical_hits == 0

    def test_attacker_requires_channel_attachment(self):
        link = make_data_link(epsilon=2.0 ** -12, seed=9)
        attacker = ContentAwareReplayAttacker(harvest_messages=5)
        sim = Simulator(link, attacker, SequentialWorkload(20), seed=9)
        # Never attached: it degenerates to a faithful FIFO adversary.
        result = sim.run()
        assert result.all_messages_ok
        assert attacker.archive_size == 0


LINKS = {
    "ghm": lambda seed: make_data_link(epsilon=2.0 ** -12, seed=seed),
    "naive6": lambda seed: make_naive_handshake_link(nonce_bits=6, seed=seed),
}


class TestKernelEngine:
    """The attacker peeks at the channels from ``on_new_pkt`` and
    ``_decide``; the kernel keeps its stores readable for the whole run."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("link", list(LINKS))
    def test_engines_agree(self, link, seed):
        runs = []
        for engine in ("object", "kernel"):
            attacker, sim, result = launch(LINKS[link](seed), seed, engine)
            channels = (sim.channels.t_to_r, sim.channels.r_to_t)
            runs.append((
                list(result.trace.events),
                result.steps,
                attacker.surgical_hits,
                attacker.archive_size,
                [
                    (ids, [c.peek(pid) for pid in ids], c.sent_count,
                     c.delivered_count, c.bits_sent)
                    for c, ids in ((c, c.all_packet_ids()) for c in channels)
                ],
            ))
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("seed", range(2))
    def test_kernel_breaks_small_fixed_nonce(self, seed):
        link = make_naive_handshake_link(nonce_bits=6, seed=seed)
        attacker, report = run_attack(link, seed, engine="kernel")
        assert not (report.no_replay.passed and report.no_duplication.passed)
        assert attacker.surgical_hits >= 1

    @pytest.mark.parametrize("seed", range(2))
    def test_kernel_real_protocol_resists(self, seed):
        link = make_data_link(epsilon=2.0 ** -12, seed=seed)
        attacker, report = run_attack(link, seed, engine="kernel")
        assert report.passed
        assert attacker.surgical_hits == 0


class TestValidation:
    def test_rejects_degenerate_harvest(self):
        with pytest.raises(ValueError):
            ContentAwareReplayAttacker(harvest_messages=0)

    def test_describe(self):
        attacker = ContentAwareReplayAttacker()
        assert "content-aware" in attacker.describe()
