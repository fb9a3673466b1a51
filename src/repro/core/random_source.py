"""Deterministic randomness for protocol stations and adversaries.

Every random choice in the system — the stations' nonces and the adversary's
coin tosses — flows through a :class:`RandomSource`.  This gives three things
the paper's analysis needs and a reproduction must preserve:

* **Independent tapes.**  Section 4 fixes "the random tape of the adversary
  and the transmitting station" while quantifying over the receiver's tape.
  Distinct sources seeded independently model exactly those tapes.
* **Reproducibility.**  Experiments and failing property tests can be
  replayed bit-for-bit from a seed.
* **Crash semantics.**  A crash erases a station's *memory* but not its
  entropy supply; the source survives crashes, exactly as a hardware RNG
  would, while all protocol state is re-initialised.
"""

from __future__ import annotations

import math
import random
from typing import Optional, Sequence

from repro.core.bitstrings import BitString

__all__ = ["RandomSource", "split_seed"]


# repr()+encode() of the label tokens is a measurable share of split_seed
# when campaigns derive seeds for every component of every run; string
# labels come from a small fixed vocabulary, so their byte forms are
# cached.  Every other token (run indices, lane numbers, tuples) is
# encoded on each call: indices are unbounded and would fill the cache.
_TOKEN_BYTES: dict = {}


def _token_bytes(token: object) -> bytes:
    if type(token) is not str:
        return repr(token).encode("utf-8")
    data = _TOKEN_BYTES.get(token)
    if data is None:
        data = repr(token).encode("utf-8")
        if len(_TOKEN_BYTES) < 4096:  # labels are few; seeds must not pile up
            _TOKEN_BYTES[token] = data
    return data


def split_seed(seed: int, *labels: object) -> int:
    """Derive an independent child seed from ``seed`` and a label path.

    Used to give each component of a simulation (transmitter, receiver,
    adversary, workload) its own deterministic tape from one experiment seed.
    The derivation is stable across runs and platforms.
    """
    h = 0x811C9DC5
    for byte in repr(seed).encode("utf-8"):
        h ^= byte
        h = (h * 0x01000193) & 0xFFFFFFFFFFFFFFFF
    for token in labels:
        for byte in _token_bytes(token):
            h ^= byte
            h = (h * 0x01000193) & 0xFFFFFFFFFFFFFFFF
    return h


class RandomSource:
    """A seeded stream of random bits and standard sampling helpers.

    Implements ``random(l)`` of Figure 3 as :meth:`random_bits`, plus the
    sampling primitives adversaries and workload generators need.  Wraps
    :class:`random.Random` (Mersenne Twister), which is more than adequate
    for simulation — the oblivious-adversary assumption is enforced
    structurally, not cryptographically (see DESIGN.md §5).
    """

    def __init__(self, seed: Optional[int] = None) -> None:
        self._seed = seed
        self._bits_drawn = 0

    def __getattr__(self, name: str):
        # The Twister is materialized on first draw, not at construction:
        # seeding Mersenne state is the dominant cost of a RandomSource, and
        # several sources per run exist only to fork children (which derive
        # purely from the seed).  Laziness changes no tape — a source that
        # never draws never touches its generator.  ``random_float`` is the
        # Twister's own bound method (the uniform draw is made once per
        # adversary turn, and a wrapper frame is pure overhead there), so
        # asking for it also materializes.
        if name in ("_rng", "random_float"):
            rng = self._rng = random.Random(self._seed)
            self.random_float = rng.random
            return rng if name == "_rng" else rng.random
        raise AttributeError(name)

    @property
    def seed(self) -> Optional[int]:
        """The seed this source was created with (None = OS entropy)."""
        return self._seed

    @property
    def bits_drawn(self) -> int:
        """Total number of random bits handed out so far (for metrics)."""
        return self._bits_drawn

    def fork(self, *labels: object) -> "RandomSource":
        """Create an independently-seeded child source.

        The child's tape is a deterministic function of this source's seed
        and the labels, so forking does not perturb this source's stream.
        """
        base = self._seed if self._seed is not None else self._rng.getrandbits(64)
        return RandomSource(split_seed(base, *labels))

    # -- bit-level primitives (Figure 3 `random`) ------------------------------

    def random_bits(self, length: int) -> BitString:
        """Return a uniformly random :class:`BitString` of ``length`` bits."""
        if length < 0:
            raise ValueError("length must be non-negative")
        self._bits_drawn += length
        if length == 0:
            return BitString("")
        # getrandbits yields < 2**length by contract, so the trusted
        # constructor's invariant holds without a range check.
        return BitString._trusted(self._rng.getrandbits(length), length)

    def scramble_bits(self, bits: BitString) -> BitString:
        """XOR a bit string with a uniform same-length mask (state corruption).

        The primitive behind the arbitrary-state fault model: flipping each
        bit independently with probability 1/2 yields a uniformly random
        string of the same length, i.e. the corrupted field carries *no*
        information about its pre-fault value.  Zero-width inputs come back
        unchanged without consuming any tape, so field lists containing
        empty nonces scramble deterministically regardless of order.
        """
        if len(bits) == 0:
            return bits
        mask = self.random_bits(len(bits))
        return BitString._trusted(bits._value ^ mask._value, len(bits))

    # -- generic sampling helpers ----------------------------------------------

    # random_float (uniform float in [0, 1)) is served by __getattr__ as the
    # underlying Twister's bound ``random`` method.

    def bernoulli(self, probability: float) -> bool:
        """Return True with the given probability."""
        if not 0.0 <= probability <= 1.0:
            raise ValueError(f"probability {probability} outside [0, 1]")
        return self._rng.random() < probability

    def randint(self, low: int, high: int) -> int:
        """Uniform integer in the inclusive range [low, high]."""
        return self._rng.randint(low, high)

    def choice(self, items: Sequence):
        """Uniformly choose one element of a non-empty sequence."""
        if not items:
            raise ValueError("cannot choose from an empty sequence")
        return self._rng.choice(items)

    def sample(self, items: Sequence, k: int) -> list:
        """Choose ``k`` distinct elements without replacement."""
        return self._rng.sample(list(items), k)

    def shuffle(self, items: list) -> None:
        """Shuffle a list in place."""
        self._rng.shuffle(items)

    def geometric_fast(self, probability: float) -> int:
        """Geometric(p) trial count from a single inverse-CDF draw.

        The number of Bernoulli(p) trials up to and including the first
        success, ``P(X = k) = (1-p)^(k-1) p``, from exactly one uniform
        draw however small ``p`` is: the closed form
        ``⌊ln(U) / ln(1-p)⌋ + 1`` maps a uniform ``U ∈ (0, 1]`` through
        the inverse CDF, so a mean of ~100 trials at ``p = 0.01`` still
        costs one draw.
        """
        if not 0.0 < probability <= 1.0:
            raise ValueError("probability must be in (0, 1]")
        # Consume a draw even for p=1 so the p→1 limit keeps draw parity
        # with every other probability.
        u = 1.0 - self.random_float()  # uniform in (0, 1]
        if probability == 1.0:
            return 1
        return int(math.log(u) / math.log1p(-probability)) + 1

    def __repr__(self) -> str:
        return f"RandomSource(seed={self._seed!r})"
