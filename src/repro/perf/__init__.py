"""Performance harness: benchmarks and the floors that gate their ratios."""

from repro.perf.bench import (
    SEED_BASELINE,
    SEED_COMPARISON,
    check_regression,
    gate_ratios,
    run_bench,
)

__all__ = [
    "SEED_BASELINE",
    "SEED_COMPARISON",
    "check_regression",
    "gate_ratios",
    "run_bench",
]
