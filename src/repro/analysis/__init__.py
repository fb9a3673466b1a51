"""Analytic bounds of Section 4, and the relay fabric's reliability yardstick,
as executable formulas."""

from repro.analysis.bounds import (
    ErrorBudget,
    expected_handshake_packets,
    fixed_nonce_replay_probability,
    generation_after_errors,
    nonce_bits_after_errors,
    replay_attack_curve,
    theorem3_budget,
    union_bound,
)
from repro.analysis.reliability import (
    connected_up_sets,
    reliability,
    stationary_up_probability,
)

__all__ = [
    "ErrorBudget",
    "connected_up_sets",
    "expected_handshake_packets",
    "fixed_nonce_replay_probability",
    "generation_after_errors",
    "nonce_bits_after_errors",
    "reliability",
    "replay_attack_curve",
    "stationary_up_probability",
    "theorem3_budget",
    "union_bound",
]
