"""Analytic bounds from Section 4, as executable formulas.

The experiments compare measured rates against these closed forms:

* the per-message error budget of Theorem 3 (four lemmas × ε/4), with the
  per-policy union bound Σ_t bound(t)·2^(−size(t, ε));
* nonce growth as a function of adversarial error count (the storage claim
  of Section 1);
* expected communication cost of the three-packet handshake under
  independent loss;
* the success probability of the Section 3 replay attack against the
  fixed-nonce strawman (the curve experiment E2's measurements track).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.core.params import SizeBoundPolicy

__all__ = [
    "ErrorBudget",
    "theorem3_budget",
    "union_bound",
    "generation_after_errors",
    "nonce_bits_after_errors",
    "expected_handshake_packets",
    "fixed_nonce_replay_probability",
    "replay_attack_curve",
]


@dataclass(frozen=True)
class ErrorBudget:
    """How Theorem 3 spends ε across its four lemmas.

    The proof splits the failure event by where the OK-causing packet
    originated (α₋₁ / α₀ / α₁) and whether a second delivery occurred,
    charging each of the four cases at most ε/4.
    """

    epsilon: float
    duplicate_delivery: float  # Lemma 4: stale packet matches the fresh rho
    wrong_message_ack: float  # Lemma 5: tau collision across messages
    stale_ok_cause: float  # Lemma 6: OK caused by a pre-extension packet
    initial_prefix_collision: float  # P(prefix(tau_0, tau_0^R)) in Theorem 3

    @property
    def total(self) -> float:
        return (
            self.duplicate_delivery
            + self.wrong_message_ack
            + self.stale_ok_cause
            + self.initial_prefix_collision
        )


def theorem3_budget(epsilon: float) -> ErrorBudget:
    """The ε/4-per-lemma split Theorem 3's proof uses."""
    quarter = epsilon / 4.0
    return ErrorBudget(
        epsilon=epsilon,
        duplicate_delivery=quarter,
        wrong_message_ack=quarter,
        stale_ok_cause=quarter,
        initial_prefix_collision=quarter,
    )


def union_bound(policy: SizeBoundPolicy, epsilon: float, horizon: int = 64) -> float:
    """Σ_t bound(t)·2^(−size(t, ε)) — each lemma's total guessing mass.

    A policy supports the paper's accounting when this is ≤ ε/4; see
    :meth:`~repro.core.params.SizeBoundPolicy.is_sound`.
    """
    return policy.total_failure_mass(epsilon, horizon)


def generation_after_errors(policy: SizeBoundPolicy, errors: int) -> int:
    """The generation ``t`` reached after ``errors`` counted mismatches.

    Generation ``t`` absorbs ``bound(t)`` errors before extending, so the
    reached generation is the smallest ``t`` whose cumulative bound exceeds
    the error count.
    """
    if errors < 0:
        raise ValueError("errors must be non-negative")
    t = 1
    absorbed = 0
    while absorbed + policy.bound(t) <= errors:
        absorbed += policy.bound(t)
        t += 1
        if t > 10_000:
            raise OverflowError("error count beyond any realistic generation")
    return t


def nonce_bits_after_errors(
    policy: SizeBoundPolicy, epsilon: float, errors: int
) -> int:
    """Nonce length (bits) after ``errors`` mismatches on one message.

    This is the paper's storage claim made quantitative: the length is a
    function of the *current message's* error count only, independent of
    protocol history, and resets to ``size(1, ε)`` afterwards.
    """
    t = generation_after_errors(policy, errors)
    return policy.cumulative_size(t, epsilon)


def expected_handshake_packets(
    loss: float, steady_state: bool = True
) -> float:
    """Expected packets per message under independent per-packet loss.

    The handshake needs three one-way successes (poll, data, ack) — two in
    steady state, where the previous ack pre-arms the transmitter with the
    receiver's challenge.  Each success costs ``1/(1 − loss)`` transmissions
    in expectation under independent loss with prompt retransmission.  This
    is a first-order model (it ignores wasted crossings), good enough to
    predict the shape of experiment E7's curve.
    """
    if not 0.0 <= loss < 1.0:
        raise ValueError("loss must be in [0, 1)")
    required = 2.0 if steady_state else 3.0
    return required / (1.0 - loss)


def fixed_nonce_replay_probability(nonce_bits: int, distinct_packets: int) -> float:
    """P[Section 3 attack succeeds] against a fixed ``nonce_bits`` challenge.

    Each archived packet embeds an independent historical challenge; the
    attack wins if any equals the receiver's fresh ``nonce_bits``-bit
    challenge: ``1 − (1 − 2^−b)^n``.
    """
    if nonce_bits < 1:
        raise ValueError("nonce_bits must be >= 1")
    if distinct_packets < 0:
        raise ValueError("distinct_packets must be non-negative")
    miss = 1.0 - 2.0 ** (-nonce_bits)
    return 1.0 - miss ** distinct_packets


def replay_attack_curve(nonce_bits: int, archive_sizes: List[int]) -> List[float]:
    """The theoretical attack-success curve for a sweep of archive sizes."""
    return [fixed_nonce_replay_probability(nonce_bits, n) for n in archive_sizes]
