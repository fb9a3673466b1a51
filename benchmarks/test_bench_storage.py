"""E4 — storage: nonce length tracks *current-message* faults and resets.

The paper's storage argument (Section 1): counters and nonces reset after
every successful message and crash, so memory depends only on the number
of errors during the *present* message — not on history.  Two
measurements:

* sweep the fault rate: the peak footprint grows with per-message fault
  pressure, but is **stationary across the run** (second-half peak equals
  first-half peak) — an unbounded-counter protocol would grow
  monotonically with history;
* compare against the analytic growth curve ``nonce_bits_after_errors``.
"""

from __future__ import annotations

from conftest import campaign, emit

from repro.adversary.random_faults import DuplicateFloodAdversary, FaultProfile, RandomFaultAdversary
from repro.analysis.bounds import nonce_bits_after_errors
from repro.core.params import SoundPolicy
from repro.core.protocol import make_data_link
from repro.sim.runner import RunSpec
from repro.sim.workload import SequentialWorkload
from repro.util.tables import render_table

EPSILON = 2.0 ** -10
FLOODS = [0.0, 0.4, 0.8, 0.95]
RUNS_PER_POINT = 12


def _half_peaks(pooled, half):
    """Mean over runs of the peak footprint within one half of the run."""
    totals = 0.0
    for report in pooled.reports:
        samples = report.metrics.storage_samples
        middle = len(samples) // 2
        window = samples[:middle] if half == 0 else samples[middle:]
        totals += max(window or [0])
    return totals / len(pooled.reports)


def run_experiment():
    rows = []
    for index, flood in enumerate(FLOODS):
        spec = RunSpec(
            link_factory=lambda seed: make_data_link(epsilon=EPSILON, seed=seed),
            adversary_factory=lambda: DuplicateFloodAdversary(
                flood=flood, flood_t_to_r_only=True
            )
            if flood
            else RandomFaultAdversary(FaultProfile()),
            workload_factory=lambda seed: SequentialWorkload(20),
            max_steps=80_000,
            # Poll rate below drain capacity (see E3).
            retry_every=max(4, int(4 / (1.0 - flood)) if flood < 1 else 4),
        )
        pooled = campaign(spec, RUNS_PER_POINT, index)
        rows.append(
            [
                flood,
                pooled.mean_storage_peak_bits,
                _half_peaks(pooled, 0),
                _half_peaks(pooled, 1),
                sum(
                    r.metrics.receiver_extensions
                    + r.metrics.transmitter_extensions
                    for r in pooled.reports
                ),
                sum(
                    r.metrics.receiver_errors_counted
                    + r.metrics.transmitter_errors_counted
                    for r in pooled.reports
                ),
            ]
        )
    return rows


def analytic_rows():
    policy = SoundPolicy()
    return [
        [errors, nonce_bits_after_errors(policy, EPSILON, errors)]
        for errors in (0, 2, 6, 14, 30, 62)
    ]


def test_bench_storage_resets(benchmark):
    rows = benchmark.pedantic(run_experiment, rounds=1, iterations=1)
    emit(
        render_table(
            ["flood", "peak-bits", "1st-half-peak", "2nd-half-peak",
             "extensions", "errors-counted"],
            rows,
            title="E4: storage vs fault intensity (stationary across the run)",
        )
    )
    emit(
        render_table(
            ["errors-on-message", "nonce-bits (analytic)"],
            analytic_rows(),
            title="E4b: analytic nonce growth per current-message errors",
        )
    )
    peaks = [row[1] for row in rows]
    # Peak grows with fault pressure — storage is a function of the
    # current message's error count...
    assert peaks[-1] >= peaks[0]
    # ...but never of history: the footprint is stationary across the run
    # (no accumulation message over message), because every delivery and
    # OK resets the nonces.  An unbounded-counter protocol would show the
    # second-half peak strictly dominating the first at every fault level.
    for row in rows:
        assert row[3] <= max(row[2], 1.0) * 1.5
