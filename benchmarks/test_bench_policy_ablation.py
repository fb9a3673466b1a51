"""E8 — the Section 5 open problem: choosing size/bound functions.

Ablates the size/bound policy under an identical hostile schedule and
reports the trade the paper leaves open: wire cost (bits/message), nonce
growth (peak storage), extension count, and safety.  The printed-TR
constants work in practice over short horizons (their flaw is asymptotic);
the aggressive policy buys fewer extensions with longer nonces.
"""

from __future__ import annotations

from conftest import campaign, emit

from repro.adversary.random_faults import DuplicateFloodAdversary
from repro.core.params import (
    AggressivePolicy,
    PrintedPaperPolicy,
    SizeBoundPolicy,
    SoundPolicy,
)
from repro.core.protocol import make_data_link
from repro.sim.runner import RunSpec
from repro.sim.workload import SequentialWorkload
from repro.util.tables import render_table

EPSILON = 2.0 ** -10
RUNS = 12
POLICIES = [SoundPolicy(), PrintedPaperPolicy(), AggressivePolicy()]


def run_policy(policy: SizeBoundPolicy):
    spec = RunSpec(
        link_factory=lambda seed: make_data_link(
            epsilon=EPSILON, seed=seed, policy=policy, require_sound_policy=False
        ),
        adversary_factory=lambda: DuplicateFloodAdversary(
            flood=0.85, flood_t_to_r_only=True
        ),
        workload_factory=lambda seed: SequentialWorkload(15),
        max_steps=100_000,
        retry_every=32,  # poll rate below the flooded channel's capacity
    )
    pooled = campaign(spec, RUNS, 7)
    extensions = sum(
        r.metrics.receiver_extensions + r.metrics.transmitter_extensions
        for r in pooled.reports
    )
    bits = sum(r.metrics.bits_sent for r in pooled.reports) / sum(
        max(r.metrics.messages_ok, 1) for r in pooled.reports
    )
    return [
        policy.name,
        policy.is_sound(EPSILON),
        policy.size(1, EPSILON),
        extensions / RUNS,
        pooled.mean_storage_peak_bits,
        bits,
        pooled.any_safety_violation,
        pooled.completion_rate,
    ]


def run_experiment():
    return [run_policy(policy) for policy in POLICIES]


def test_bench_policy_ablation(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit(
        render_table(
            [
                "policy",
                "sound",
                "size(1)",
                "extensions/run",
                "peak-bits",
                "bits/msg",
                "violated",
                "completion",
            ],
            rows,
            title="E8: size/bound policy ablation under duplicate flooding",
        )
    )
    by_name = {row[0]: row for row in rows}
    # All three stay safe over this (finite) horizon.
    assert not any(row[6] for row in rows)
    assert all(row[7] == 1.0 for row in rows)
    # The trade-off shape: aggressive extends less often than sound...
    assert by_name["aggressive"][3] <= by_name["sound"][3]
    # ...but pays with longer nonces when it does extend.
    assert by_name["aggressive"][2] > by_name["printed"][2]
