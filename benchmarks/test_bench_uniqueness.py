"""E3 — Theorems 7 & 8 (uniqueness): no duplication, no replay, under
unbounded duplication pressure.

Sweeps the duplicate-flood intensity — the model's "a packet may be
delivered any number of times" clause at full strength — and measures the
per-delivery rates of duplication and replay violations.  Paper claim:
both stay below ε regardless of the flood.
"""

from __future__ import annotations

from conftest import campaign, emit

from repro.adversary.random_faults import DuplicateFloodAdversary
from repro.core.protocol import make_data_link
from repro.sim.runner import RunSpec
from repro.sim.workload import SequentialWorkload
from repro.util.tables import render_table

EPSILON = 2.0 ** -10
FLOODS = [0.2, 0.5, 0.8, 0.95]
RUNS_PER_POINT = 15


def run_experiment():
    rows = []
    for index, flood in enumerate(FLOODS):
        spec = RunSpec(
            link_factory=lambda seed: make_data_link(epsilon=EPSILON, seed=seed),
            adversary_factory=lambda: DuplicateFloodAdversary(
                flood=flood, flood_t_to_r_only=True
            ),
            workload_factory=lambda seed: SequentialWorkload(15),
            max_steps=80_000,
            # Keep the poll rate below the channel's drain capacity: at
            # flood f only (1-f) of moves deliver fresh packets, so a
            # fixed cadence would diverge the queue at high f.
            retry_every=max(4, int(4 / (1.0 - flood))),
        )
        pooled = campaign(spec, RUNS_PER_POINT, index)
        rows.append(
            [
                flood,
                pooled.duplication_violation_rate.successes,
                pooled.replay_violation_rate.successes,
                pooled.duplication_violation_rate.trials,
                pooled.duplication_violation_rate.high,
                pooled.completion_rate,
            ]
        )
    return rows


def test_bench_uniqueness_under_duplication(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit(
        render_table(
            ["flood", "dup-violations", "replay-violations", "deliveries",
             "dup-rate-high", "completion"],
            rows,
            title="E3: uniqueness (Theorems 7+8) vs duplication flood",
        )
    )
    # Paper claim: zero observed uniqueness violations at every intensity.
    assert sum(row[1] for row in rows) == 0
    assert sum(row[2] for row in rows) == 0
    # And the flood cannot stop progress (fair schedule).
    assert all(row[5] >= 0.9 for row in rows)
