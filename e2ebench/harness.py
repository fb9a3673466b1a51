"""What every workload shares: metric names, statistics, timing, output.

Every workload reports every metric named here, because the result line
must carry the full end-to-end set (``--trace 0``) or the full per-layer
set (``--trace 1``).  A per-layer metric of a layer the workload never
calls reads 0; the workload table in ``README.md`` says which metrics each
workload fills.

Every time the benchmark reports is read at the host's nominal speed (see
:class:`HostSpeed`): the host is shared, and its speed alone moves a raw
timing by more than any bound the benchmark could set.
"""

from __future__ import annotations

import json
import random
import resource
import statistics
import subprocess
import sys
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, Generic, Iterable, List, Sequence, Tuple, TypeVar

T = TypeVar("T")

#: Root of the checkout the benchmark runs in; the program is imported from
#: ``<root>/src`` and nowhere else.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: Where traced runs write their spans (ignored by git).
OUT = Path(__file__).resolve().parent / "out"

#: (name, unit, better) for the metrics a ``--trace 0`` run reports.
END_TO_END: Tuple[Tuple[str, str, str], ...] = (
    ("msgs_per_s", "msg/s", "higher"),
    ("run_ms_p50", "ms", "lower"),
    ("run_ms_p99", "ms", "lower"),
    ("msg_us_p50", "us", "lower"),
    ("msg_us_p99", "us", "lower"),
    ("msg_ticks_p50", "ticks", "lower"),
    ("msg_ticks_p99", "ticks", "lower"),
    ("pkts_per_msg", "pkt/msg", "lower"),
    ("bits_per_msg", "bit/msg", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("setup_s", "s", "lower"),
)

#: Layer times are seconds per delivered message: runs last a fixed wall
#: time and finish different amounts of work, so totals would not compare.
_PER_MSG = "s/msg"

#: (name, unit, better) for the metrics a ``--trace 1`` run reports.
PER_LAYER: Tuple[Tuple[str, str, str], ...] = (
    # link_campaign, from the public results of the untraced run.
    ("resilience.dispatch_s", _PER_MSG, "lower"),
    ("sim.session_s", _PER_MSG, "lower"),
    ("kernel.loop_s", _PER_MSG, "lower"),
    ("checkers.busy_s", _PER_MSG, "lower"),
    ("kernel.steps", "count", "lower"),
    ("checkers.events", "count", "lower"),
    ("sim.retries", "count", "lower"),
    ("adversary.crashes", "count", "lower"),
    ("channel.delivery_ratio", "ratio", "higher"),
    ("core.extensions", "count", "lower"),
    ("core.errors_counted", "count", "lower"),
    ("core.storage_peak_bits", "bit", "lower"),
    # relay_fabric, from the traced run.
    ("transport.build_s", _PER_MSG, "lower"),
    ("kernel.hop_s", _PER_MSG, "lower"),
    ("transport.route_s", _PER_MSG, "lower"),
    ("transport.topology_s", _PER_MSG, "lower"),
    ("checkers.e2e_s", _PER_MSG, "lower"),
    ("transport.fabric_s", _PER_MSG, "lower"),
    ("transport.ticks", "count", "lower"),
    ("kernel.hop_ticks", "count", "lower"),
    ("transport.route_calls", "count", "lower"),
    ("transport.reroutes", "count", "lower"),
    ("transport.retransmits", "count", "lower"),
    ("transport.dup_drops", "count", "lower"),
    ("transport.dropped_overflow", "count", "lower"),
    ("transport.dropped_down", "count", "lower"),
    # live_chaos, from the traced run plus the reports' counters.
    ("checkers.record_s", _PER_MSG, "lower"),
    ("core.automata_s", _PER_MSG, "lower"),
    ("core.codec_s", _PER_MSG, "lower"),
    ("live.flush_s", _PER_MSG, "lower"),
    ("extensions.reseq_s", _PER_MSG, "lower"),
    ("live.residual_s", _PER_MSG, "lower"),
    ("live.cpu_busy", "ratio", "higher"),
    ("live.idle_s", _PER_MSG, "lower"),
    ("live.dgrams_per_recv_batch", "dgram/batch", "higher"),
    ("live.dgrams_per_send_batch", "dgram/batch", "higher"),
    ("live.pool_high_water", "count", "lower"),
    ("live.resubmissions", "count", "lower"),
    ("live.reseq_high_water", "count", "lower"),
    ("live.proxy_dropped", "count", "lower"),
    ("live.proxy_duplicated", "count", "lower"),
    ("live.proxy_reordered", "count", "lower"),
    ("live.probe_overhead", "ratio", "higher"),
    # every workload
    ("trace.overhead", "ratio", "higher"),
)

@dataclass
class Outcome:
    """One workload run: checks, operation counts and metric values."""

    attempted: int = 0
    failed: int = 0
    problems: List[str] = field(default_factory=list)
    metrics: Dict[str, float] = field(default_factory=dict)
    #: Human-readable lines printed before the result line.
    notes: List[str] = field(default_factory=list)

    @property
    def correct(self) -> bool:
        return not self.problems and self.failed == 0


def percentiles(values: Sequence[float]) -> Tuple[float, float]:
    """Interpolated (p50, p99) of at least two values."""
    cuts = statistics.quantiles(values, n=100, method="inclusive")
    return cuts[49], cuts[98]


def tick_percentiles(values: Sequence[int]) -> Tuple[float, float]:
    """(p50, p99) of integer tick counts, read as a continuous distribution.

    Each integer ``k`` stands for the interval ``[k - 0.5, k + 0.5)`` and a
    percentile interpolates inside the interval it falls in (the grouped-
    data percentile), so it follows the distribution instead of sticking to
    one integer while the distribution under it moves.
    """
    tally = Counter(values)
    total = len(values)
    cuts = []
    for share in (0.5, 0.99):
        target, below = share * total, 0
        for tick in sorted(tally):
            if below + tally[tick] >= target:
                cuts.append(tick - 0.5 + (target - below) / tally[tick])
                break
            below += tally[tick]
    return cuts[0], cuts[1]


def peak_rss_mb() -> float:
    """Peak RSS of this process or of any child it waited for, in MiB.

    The largest child is the campaign worker where there is one.
    """
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, children) / 1024.0  # ru_maxrss is in KiB on Linux


#: Messages of :func:`reference` per speed probe, and the time they take at
#: the nominal host speed: their median on the 2-vCPU host the benchmark's
#: bounds were set on.  It only sets the scale of every reported time.
REFERENCE_MESSAGES = 7000
REFERENCE_S = 0.010


class _Link:
    """A lossy, deduplicating link: the kind of object the program is made of."""

    def __init__(self, rng: random.Random) -> None:
        self.rng = rng
        self.seq = 0
        self.acked: Dict[int, int] = {}
        self.queue: List[Tuple[int, bytes, int]] = []
        self.log: List[bytes] = []

    def send(self, payload: bytes) -> None:
        self.seq += 1
        if self.rng.random() > 0.2:
            self.queue.append((self.seq, payload, self.seq * 2654435761 & 0xFFFFFFFF))

    def deliver(self) -> int:
        if not self.queue:
            return 0
        seq, payload, tag = self.queue.pop(0)
        if seq in self.acked:
            return 0
        self.acked[seq] = tag
        self.log.append(payload)
        return tag & 0xFF


def reference(messages: int = REFERENCE_MESSAGES) -> int:
    """Fixed pure-Python work: messages over 16 lossy links of its own.

    Method calls, attribute access, a seeded ``random.Random``, dicts,
    lists, tuples and bytes formatting, as in the program.  It is the
    benchmark's own code, so a change to the program never changes how
    long it takes; only the host does.  Of three candidates timed next to
    fixed campaigns and fabric streams for three minutes, this one tracked
    them best.
    """
    rng = random.Random(5)
    links = [_Link(rng) for _ in range(16)]
    total = 0
    for i in range(messages):
        link = links[i & 15]
        link.send(b"m%05d" % i)
        total += link.deliver()
    return total


class HostSpeed:
    """How much slower than nominal the host runs the work just done.

    The host's other tenants slow this process by up to 1.7x for tens of
    seconds at a time, in CPU time as much as in wall time, so no raw
    timing repeats within any useful bound.  Every timed repetition is
    therefore bracketed by two timings of :func:`reference`; its slowdown
    is their mean over :data:`REFERENCE_S`, and a time divided by the
    slowdown is the time the repetition would take at the nominal speed.
    A change to the program moves that time; a change of host load moves
    both it and the reference, and cancels.
    """

    def __init__(self) -> None:
        self._last = self.probe()

    @staticmethod
    def probe() -> float:
        started = perf_counter()
        reference()
        return perf_counter() - started

    def slowdown(self) -> float:
        """Slowdown over the work done since the previous call."""
        now = self.probe()
        factor = (self._last + now) / (2 * REFERENCE_S)
        self._last = now
        return factor


@dataclass
class Timed(Generic[T]):
    """One repetition's result and the host's slowdown while it ran."""

    value: T
    slowdown: float


def median_rate(work: Iterable[Tuple[float, float]]) -> float:
    """Median of ``amount / seconds`` over repetitions."""
    return statistics.median(amount / seconds for amount, seconds in work)


def alternate(
    modes: Sequence[Callable[[], T]], seconds: float, least: int = 2
) -> List[List[Timed[T]]]:
    """Call ``modes`` round-robin for ``seconds``, each at least ``least`` times.

    Interleaving lets every mode see the same machine conditions, which
    keeps a ratio between modes (an instrumentation overhead) steady.
    Each result comes with the host's slowdown while it ran.
    """
    results: List[List[Timed[T]]] = [[] for _ in modes]
    speed = HostSpeed()
    deadline = perf_counter() + seconds
    while len(results[-1]) < least or perf_counter() < deadline:
        for mode, out in zip(modes, results):
            value = mode()
            out.append(Timed(value, speed.slowdown()))
    return results


def slowdown_note(reps: Iterable[Timed]) -> str:
    """A line saying how much the host slowed the timed repetitions."""
    factors = sorted(rep.slowdown for rep in reps)
    return "host slowdown x%.2f (x%.2f to x%.2f) over %d repetitions" % (
        statistics.median(factors),
        factors[0],
        factors[-1],
        len(factors),
    )


#: Set-ups per run; ``setup_s`` is their median.
SETUPS = 5


def time_setup(modules: Sequence[str], build: Callable[[], None]) -> float:
    """Median set-up time at the nominal speed: imports plus ``build()``.

    Imports can only be timed once inside this process, so each repetition
    times them in a child interpreter (start-up included), then times the
    in-process construction and warm-up ``build``.
    """
    code = "import sys; sys.path.insert(0, %r); import %s" % (
        str(SRC),
        ", ".join(modules),
    )
    speed = HostSpeed()
    samples = []
    for _ in range(SETUPS):
        started = perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True, cwd=str(ROOT))
        build()
        samples.append((perf_counter() - started) / speed.slowdown())
    return statistics.median(samples)


def result_line(outcome: Outcome, trace: bool) -> str:
    """The JSON object the benchmark prints as its last line."""
    names = PER_LAYER if trace else END_TO_END
    missing = [name for name, _, _ in names if name not in outcome.metrics]
    if missing and not trace:
        raise RuntimeError(f"workload did not report {', '.join(missing)}")
    metrics = {
        name: {"value": outcome.metrics.get(name, 0), "unit": unit}
        for name, unit, _ in names
    }
    return json.dumps(
        {
            "correct": outcome.correct,
            "attempted": outcome.attempted,
            "failed": outcome.failed,
            "metrics": metrics,
        }
    )
