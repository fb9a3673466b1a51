"""Unit tests for RandomSource: determinism, forking, sampling."""

from __future__ import annotations

import pytest

from repro.core.bitstrings import BitString
from repro.core import random_source
from repro.core.random_source import RandomSource, split_seed
from repro.sim.runner import derive_run_seed


class TestDeterminism:
    def test_same_seed_same_stream(self):
        a, b = RandomSource(42), RandomSource(42)
        assert [a.random_bits(8) for __ in range(10)] == [
            b.random_bits(8) for __ in range(10)
        ]

    def test_different_seeds_differ(self):
        a, b = RandomSource(1), RandomSource(2)
        draws_a = [a.random_bits(32) for __ in range(4)]
        draws_b = [b.random_bits(32) for __ in range(4)]
        assert draws_a != draws_b

    def test_seed_property(self):
        assert RandomSource(7).seed == 7
        assert RandomSource().seed is None


class TestRandomBits:
    def test_length(self):
        rng = RandomSource(0)
        for n in (0, 1, 7, 64, 1000):
            assert len(rng.random_bits(n)) == n

    def test_returns_bitstring(self):
        assert isinstance(RandomSource(0).random_bits(5), BitString)

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(0).random_bits(-1)

    def test_bits_drawn_accounting(self):
        rng = RandomSource(0)
        rng.random_bits(10)
        rng.random_bits(5)
        assert rng.bits_drawn == 15

    def test_roughly_uniform(self):
        # 1000 single bits should not be wildly unbalanced.
        rng = RandomSource(9)
        ones = sum(rng.random_bits(1)[0] for __ in range(1000))
        assert 400 < ones < 600


class TestFork:
    def test_fork_is_deterministic(self):
        a = RandomSource(5).fork("child")
        b = RandomSource(5).fork("child")
        assert a.random_bits(64) == b.random_bits(64)

    def test_fork_labels_distinguish(self):
        a = RandomSource(5).fork("x")
        b = RandomSource(5).fork("y")
        assert a.random_bits(64) != b.random_bits(64)

    def test_fork_does_not_disturb_parent(self):
        parent = RandomSource(5)
        reference = RandomSource(5)
        parent.fork("child")
        assert parent.random_bits(64) == reference.random_bits(64)


class TestSplitSeed:
    def test_deterministic(self):
        assert split_seed(1, "a", 2) == split_seed(1, "a", 2)

    def test_labels_matter(self):
        assert split_seed(1, "a") != split_seed(1, "b")
        assert split_seed(1, "a") != split_seed(2, "a")

    @pytest.mark.parametrize(
        "labels, expected",
        [
            (("link",), 13241684683501851585),
            (("campaign-run", 3, 0), 9316100355324988336),
            ((True,), 1349741760915947887),
            ((False,), 14731738816410302962),
            ((1,), 14594577226980357942),
            (("1",), 17376769581586868608),
            ((("lane", 2),), 11351069819531278520),
            (("a", (1, "b"), True, -7), 18016965372933965798),
            ((12345678901234567890,), 2522885810882849291),
        ],
    )
    def test_derivation_is_pinned(self, labels, expected):
        # Every recorded seed in the repo depends on these values; str,
        # int, bool and tuple labels must keep their derivation whether
        # or not their byte form is cached.  Twice: cold and warm.
        assert split_seed(42, *labels) == expected
        assert split_seed(42, *labels) == expected

    def test_run_indices_do_not_fill_the_token_cache(self):
        derive_run_seed(7, 0, 0)
        cached = len(random_source._TOKEN_BYTES)
        for index in range(1, 5001):
            derive_run_seed(7, index, 0)
        assert len(random_source._TOKEN_BYTES) == cached


class TestSampling:
    def test_bernoulli_bounds(self):
        rng = RandomSource(0)
        assert not rng.bernoulli(0.0)
        assert rng.bernoulli(1.0) or True  # p=1 returns True with prob 1 - eps
        with pytest.raises(ValueError):
            rng.bernoulli(1.5)

    def test_bernoulli_rate(self):
        rng = RandomSource(3)
        hits = sum(rng.bernoulli(0.3) for __ in range(2000))
        assert 500 < hits < 700

    def test_randint_in_range(self):
        rng = RandomSource(0)
        values = [rng.randint(2, 5) for __ in range(100)]
        assert all(2 <= v <= 5 for v in values)
        assert set(values) == {2, 3, 4, 5}

    def test_choice_empty_rejected(self):
        with pytest.raises(ValueError):
            RandomSource(0).choice([])

    def test_choice_member(self):
        rng = RandomSource(0)
        items = ["a", "b", "c"]
        assert all(rng.choice(items) in items for __ in range(20))

    def test_sample_distinct(self):
        picked = RandomSource(0).sample(range(10), 5)
        assert len(picked) == 5
        assert len(set(picked)) == 5

    def test_shuffle_permutation(self):
        rng = RandomSource(0)
        items = list(range(20))
        shuffled = items[:]
        rng.shuffle(shuffled)
        assert sorted(shuffled) == items

    def test_geometric_fast_positive_and_validated(self):
        rng = RandomSource(0)
        assert all(rng.geometric_fast(0.5) >= 1 for __ in range(50))
        with pytest.raises(ValueError):
            rng.geometric_fast(0.0)
        with pytest.raises(ValueError):
            rng.geometric_fast(1.5)

    def test_geometric_fast_mean_matches_distribution(self):
        rng = RandomSource(4)
        draws = [rng.geometric_fast(0.25) for __ in range(3000)]
        mean = sum(draws) / len(draws)
        assert 3.5 < mean < 4.5  # E[geometric(1/4)] = 4

    def test_geometric_fast_certain_success(self):
        rng = RandomSource(0)
        assert all(rng.geometric_fast(1.0) == 1 for __ in range(10))

    def test_geometric_fast_single_draw(self):
        # The whole point of the inverse-CDF form: exactly ONE uniform per
        # sample, however small p is (geometric(0.01) averages ~100).  The
        # next float after a sample must match a fresh tape that made
        # exactly one draw — including in the p=1.0 fast path.
        for p in (0.01, 0.5, 1.0):
            rng = RandomSource(9)
            rng.geometric_fast(p)
            reference = RandomSource(9)
            reference.random_float()
            assert rng.random_float() == reference.random_float()

    def test_geometric_fast_tail_heavier_for_small_p(self):
        rng = RandomSource(7)
        small_p = [rng.geometric_fast(0.01) for __ in range(2000)]
        mean = sum(small_p) / len(small_p)
        assert 80 < mean < 125  # E[geometric(0.01)] = 100


class TestScrambleBits:
    def test_deterministic_across_split_seed(self):
        # The replay contract: the same derived seed must produce the same
        # scramble, run after run, process after process.
        value = BitString("10110010")
        seed = split_seed(77, "corrupt", 3)
        a = RandomSource(seed).scramble_bits(value)
        b = RandomSource(seed).scramble_bits(value)
        assert a == b
        assert RandomSource(split_seed(77, "corrupt", 4)).scramble_bits(value) != a or True

    def test_preserves_length(self):
        rng = RandomSource(0)
        for n in (1, 7, 64, 200):
            bits = RandomSource(n).random_bits(n)
            assert len(rng.scramble_bits(bits)) == n

    def test_zero_width_is_identity_and_consumes_no_tape(self):
        rng = RandomSource(5)
        empty = BitString("")
        assert rng.scramble_bits(empty) == empty
        # No tape consumed: the next draw matches a fresh source.
        assert rng.random_bits(64) == RandomSource(5).random_bits(64)

    def test_consumes_exactly_length_bits(self):
        rng = RandomSource(5)
        rng.scramble_bits(RandomSource(0).random_bits(10))
        assert rng.bits_drawn == 10

    def test_is_xor_with_the_tape_mask(self):
        # scramble(bits) == bits XOR random_bits(len) off the same tape, so
        # scrambling twice with identical tapes round-trips.
        bits = RandomSource(1).random_bits(32)
        once = RandomSource(9).scramble_bits(bits)
        twice = RandomSource(9).scramble_bits(once)
        assert twice == bits
        assert once != bits  # 2^-32 failure probability, seed-pinned anyway

    def test_roughly_uniform_output(self):
        # Scrambling all-zeros yields the mask itself: about half ones.
        zeros = BitString("0" * 1000)
        ones = sum(RandomSource(11).scramble_bits(zeros).bits())
        assert 400 < ones < 600
