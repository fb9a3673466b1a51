"""End-to-end benchmark of the three deployment shapes.

    python3 e2ebench/run.py --workload link_campaign --seed 1 --seconds 10 --trace 0

``--workload`` is ``link_campaign``, ``relay_fabric`` or ``live_chaos``.
With ``--trace 0`` the run reports the end-to-end metrics; with
``--trace 1`` it also makes a traced run, writes its spans to
``e2ebench/out/`` and reports the per-layer metrics.  The last line of
standard output is one JSON object; the exit code is 0 only when every
output check passed.  The program is imported from ``src/`` of the
checkout this file sits in.  See ``e2ebench/README.md``.
"""

from __future__ import annotations

import argparse
import importlib
import os
import sys
import tempfile
from pathlib import Path

WORKLOADS = ("link_campaign", "relay_fabric", "live_chaos")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    here = Path(__file__).resolve().parent
    src = here.parent / "src"
    if not (src / "repro" / "__init__.py").is_file():
        print(f"e2ebench: no program sources at {src}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(here), str(src)]
    import harness

    # One core for this process and every process it starts (the campaign
    # worker, the set-up interpreters): the host's speed probe then runs
    # where the timed work runs.
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    # The campaign supervisor makes temporary marker directories; keep them
    # inside the checkout with everything else the benchmark writes.
    temp = harness.OUT / "tmp"
    temp.mkdir(parents=True, exist_ok=True)
    tempfile.tempdir = str(temp)

    workload = importlib.import_module(args.workload)
    outcome = workload.measure(args.seed, args.seconds, bool(args.trace))
    for note in outcome.notes:
        print(note)
    for problem in outcome.problems:
        print(f"CHECK FAILED: {problem}")
    failed_frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    print(f"attempted {outcome.attempted}, failed {outcome.failed} "
          f"(failed_frac {failed_frac:.6f})")
    shown = harness.PER_LAYER if args.trace else harness.END_TO_END
    for name, unit, _ in shown:
        print(f"  {name:<28} {outcome.metrics.get(name, 0):>16.6g} {unit}")
    print(harness.result_line(outcome, bool(args.trace)))
    return 0 if outcome.correct else 1


if __name__ == "__main__":
    sys.exit(main())
