"""E7 — communication efficiency vs loss rate, against the baselines.

Over loss-only FIFO schedules (where every protocol is correct), sweep the
loss rate and measure packets per delivered message.  Claims reproduced:

* fault-free, the paper's handshake costs ~3 packets cold / 2 steady —
  competitive with the deterministic baselines (2 frames);
* cost grows with the error count roughly as ``k/(1 − loss)`` (the paper:
  "communication complexity increases linearly with the number of
  errors"), tracking the analytic first-order model.
"""

from __future__ import annotations

from conftest import campaign, emit

from repro.adversary.random_faults import FaultProfile, RandomFaultAdversary
from repro.analysis.bounds import expected_handshake_packets
from repro.baselines.alternating_bit import make_abp_link
from repro.baselines.stop_and_wait import make_stop_and_wait_link
from repro.core.protocol import make_data_link
from repro.sim.runner import RunSpec
from repro.sim.workload import SequentialWorkload
from repro.util.tables import render_table

LOSS_RATES = [0.0, 0.2, 0.4, 0.6]
RUNS = 10
MESSAGES = 30

PROTOCOLS = [
    ("paper-protocol", lambda seed: make_data_link(epsilon=2.0 ** -12, seed=seed)),
    ("alternating-bit", lambda seed: make_abp_link()),
    ("stop-and-wait-16b", lambda seed: make_stop_and_wait_link(16)),
]


def cost_at(factory, loss):
    spec = RunSpec(
        link_factory=factory,
        adversary_factory=lambda: RandomFaultAdversary(FaultProfile(loss=loss)),
        workload_factory=lambda seed: SequentialWorkload(MESSAGES),
        max_steps=200_000,
        # A loss-only adversary with loss < 1 is already fair; the
        # enforcer would resurrect dropped packets out of order, silently
        # breaking the FIFO premise this experiment depends on.
        enforce_fairness=False,
        # The kernel runs only the GHM stations.
        engine="object",
    )
    pooled = campaign(spec, RUNS, int(loss * 100))
    assert pooled.completion_rate == 1.0, f"incomplete at loss={loss}"
    assert not pooled.any_safety_violation, f"violations at loss={loss} (FIFO+loss!)"
    return pooled.mean_packets_per_message


def run_experiment():
    rows = []
    for loss in LOSS_RATES:
        row = [loss]
        for __, factory in PROTOCOLS:
            row.append(cost_at(factory, loss))
        row.append(expected_handshake_packets(loss))
        rows.append(row)
    return rows


def test_bench_baseline_costs(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    headers = ["loss"] + [name for name, __ in PROTOCOLS] + ["analytic(2/(1-p))"]
    emit(
        render_table(
            headers, rows, title="E7: packets per message vs loss (FIFO, loss-only)"
        )
    )
    paper = [row[1] for row in rows]
    # Fault-free: the amortised handshake sits in [2, 4] packets/message.
    assert 2.0 <= paper[0] <= 4.0
    # Cost increases with the error rate...
    assert paper == sorted(paper)
    # ...and stays within a small constant of the first-order model.
    for row in rows:
        assert row[1] <= row[-1] * 3.0
    # The randomized protocol is never more than ~2x the deterministic
    # baselines despite carrying nonces instead of one bit.
    for row in rows:
        assert row[1] <= min(row[2], row[3]) * 2.5
