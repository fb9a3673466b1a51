"""E5 — Theorem 9 (liveness): progress under any fair adversary.

The minimal fair adversary is pure stalling wrapped in Axiom-3
enforcement: nothing is delivered until fairness forces it.  Sweeping the
enforcement patience measures how waiting time scales with how grudging
the adversary is — Theorem 9 says completion always happens, and the gaps
stay finite (linear in patience for this schedule).
"""

from __future__ import annotations

from conftest import emit

from repro.adversary.fairness import StallingAdversary
from repro.checkers.liveness import progress_gaps
from repro.core.protocol import make_data_link
from repro.sim.runner import RunSpec, derive_run_seed, run_once
from repro.sim.workload import SequentialWorkload
from repro.util.tables import render_table

PATIENCE_LEVELS = [4, 8, 16, 32, 64]
RUNS = 10


def run_experiment():
    rows = []
    for patience in PATIENCE_LEVELS:
        spec = RunSpec(
            link_factory=lambda seed: make_data_link(epsilon=2.0 ** -16, seed=seed),
            adversary_factory=StallingAdversary,
            workload_factory=lambda seed: SequentialWorkload(8),
            fairness_patience=patience,
            max_steps=300_000,
        )
        # Whole traces, so fresh runs rather than a campaign's reports.
        outcomes = [
            run_once(spec, derive_run_seed(patience, i, 0)) for i in range(RUNS)
        ]
        gaps = [progress_gaps(o.result.trace) for o in outcomes]
        rows.append(
            [
                patience,
                sum(o.result.completed for o in outcomes) / RUNS,
                sum(g.worst for g in gaps) / len(gaps),
                sum(g.mean for g in gaps) / len(gaps),
                sum(o.metrics.retries for o in outcomes) / RUNS,
            ]
        )
    return rows


def test_bench_liveness_vs_patience(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit(
        render_table(
            ["patience", "completion", "worst-gap", "mean-gap", "retries/run"],
            rows,
            title="E5: liveness (Theorem 9) under minimal fair adversary",
        )
    )
    # Theorem 9: every fair schedule completes.
    assert all(row[1] == 1.0 for row in rows)
    # Waiting time scales with the adversary's grudge, but stays finite.
    worst_gaps = [row[2] for row in rows]
    assert worst_gaps[-1] > worst_gaps[0]
