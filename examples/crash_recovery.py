#!/usr/bin/env python3
"""Crash recovery: what [LMF88] says is impossible deterministically.

Subjects four protocols to the same crash storm — random memory-erasing
crashes of both stations while messages flow — and reports which of the
paper's correctness conditions each protocol violates:

* the paper's randomized protocol survives cleanly;
* the alternating-bit protocol duplicates and replays (receiver crashes)
  and emits spurious OKs (transmitter crashes);
* stop-and-wait restarts its counters and repeats history;
* the [BS88]-style nonvolatile-bit variant fixes the receiver side but a
  one-bit deterministic ack still cannot protect the in-flight message
  across a transmitter crash.

Run:  python examples/crash_recovery.py
"""

from __future__ import annotations

from repro import SequentialWorkload, Simulator, check_all_safety, make_data_link
from repro.adversary import CrashStormAdversary
from repro.baselines import (
    make_abp_link,
    make_nonvolatile_bit_link,
    make_stop_and_wait_link,
)

RUNS = 10
MESSAGES = 15
CRASH_RATE = 0.02


def storm(build_link, label: str) -> None:
    totals = {"order": 0, "no-duplication": 0, "no-replay": 0}
    clean_runs = 0
    for seed in range(RUNS):
        link = build_link(seed)
        adversary = CrashStormAdversary(crash_rate=CRASH_RATE, max_crashes=8)
        # The kernel runs only the GHM stations.
        simulator = Simulator(
            link, adversary, SequentialWorkload(MESSAGES), seed=seed,
            max_steps=100_000, engine="object",
        )
        result = simulator.run()
        report = check_all_safety(result.trace)
        clean_runs += report.passed
        for check in report.all_reports:
            if check.condition in totals:
                totals[check.condition] += check.failure_count
    print(f"{label:>20}: clean runs {clean_runs}/{RUNS}   "
          f"order={totals['order']} dup={totals['no-duplication']} "
          f"replay={totals['no-replay']}")


def main() -> None:
    print(f"crash storm: rate {CRASH_RATE}/turn on both stations, "
          f"{MESSAGES} messages per run\n")
    storm(lambda s: make_data_link(epsilon=2.0 ** -12, seed=s), "paper protocol")
    storm(lambda s: make_abp_link(), "alternating bit")
    storm(lambda s: make_stop_and_wait_link(16), "stop-and-wait")
    storm(lambda s: make_nonvolatile_bit_link(), "nonvolatile bit")


if __name__ == "__main__":
    main()
