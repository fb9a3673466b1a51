"""relay_fabric: source-to-destination streams over a relay fabric with churn.

The paper's Section 1 deployment: the data link runs on every hop, relays
store and forward, and an end-to-end layer restores exactly-once delivery
while links fail and repair (``fail_rate=0.05``).  Streams alternate
between a 4-hop line with one path and an 8-node ring striped over two
disjoint paths, both on the kernel hop engine with the default source
window of 4 frames.

One timed repetition is one (line, ring) pair of streams under a fresh
seed from the workload seed's sequence.  Fabric runs are deterministic:
ticks, packets, bits and per-message tick latencies are reported over the
first ``FIXED_PAIRS`` pairs, and the first pair is run once more at the end
to check that it reproduces them exactly.
"""

from __future__ import annotations

import random
import statistics
from dataclasses import dataclass
from time import perf_counter
from typing import Callable, Dict, Iterator, List, Optional, Tuple

import networkx

from harness import (
    OUT,
    Outcome,
    Timed,
    alternate,
    median_rate,
    peak_rss_mb,
    percentiles,
    slowdown_note,
    tick_percentiles,
    time_setup,
)
from spans import Tracer

from repro.checkers.endtoend import EndToEndMonitor
from repro.core.events import ReceiveMsg, SendMsg
from repro.kernel.hop import HopKernel
from repro.transport.fabric import FabricRun, FabricSpec
from repro.transport.network import Network

MESSAGES = 200
FIXED_PAIRS = 64
FAIL_RATE = 0.05
WARMUP_MESSAGES = 20
IMPORTS = ("repro.transport.fabric", "repro.kernel.hop")

#: Layer time names, span name -> metric.
LAYERS = {
    "transport.build": "transport.build_s",
    "kernel.hop": "kernel.hop_s",
    "transport.route": "transport.route_s",
    "transport.topology": "transport.topology_s",
    "checkers.e2e": "checkers.e2e_s",
    "transport.fabric": "transport.fabric_s",
}


def make_specs(
    messages: int = MESSAGES, exactly_once: bool = True
) -> List[FabricSpec]:
    """The line and the ring every stream pair runs over."""
    common = dict(
        messages=messages,
        fail_rate=FAIL_RATE,
        engine="kernel",
        exactly_once=exactly_once,
    )
    return [
        FabricSpec(topology="line", size=4, paths=1, label="line4", **common),
        FabricSpec(topology="ring", size=8, paths=2, label="ring8x2", **common),
    ]


def stream_seeds(seed: int) -> Iterator[int]:
    """The endless sequence of fabric seeds the workload seed generates."""
    rng = random.Random(f"relay_fabric:{seed}")
    while True:
        yield rng.getrandbits(48)


class StreamProbe:
    """Per-message latency, read off the fabric's end-to-end event stream.

    Subscribed to ``run.trace`` for ``SendMsg`` (a frame enters the source
    window) and ``ReceiveMsg`` (in-order delivery at the destination); the
    fabric's tick counter gives the latency in ticks, ``perf_counter`` in
    wall time.
    """

    def __init__(self, run: FabricRun) -> None:
        self.run = run
        self.sent: List[bytes] = []
        self.received: List[bytes] = []
        self.ticks: List[int] = []
        self.seconds: List[float] = []
        self._at: Dict[bytes, Tuple[int, float]] = {}
        run.trace.subscribe(self.observe, types=(SendMsg, ReceiveMsg))

    def observe(self, index: int, event) -> None:
        if event.__class__ is SendMsg:
            self.sent.append(event.message)
            self._at[event.message] = (self.run.ticks, perf_counter())
        else:
            self.received.append(event.message)
            tick, started = self._at[event.message]
            self.ticks.append(self.run.ticks - tick)
            self.seconds.append(perf_counter() - started)


@dataclass
class Stream:
    """What the benchmark kept of one fabric run (the run itself is dropped)."""

    label: str
    seed: int
    messages: int
    wall: float
    ticks: int
    verdict: str
    completed: bool
    in_order: bool
    delivered: int
    packets: int
    bits: int
    msg_ticks: List[int]
    msg_seconds: List[float]
    counters: Dict[str, int]

    def problems(self) -> List[str]:
        """Empty iff the stream is CLEAN, complete and in order."""
        problems = []
        where = f"{self.label} seed {self.seed}"
        if self.verdict != "CLEAN":
            problems.append(f"{where}: end-to-end verdict {self.verdict}")
        if not self.completed:
            problems.append(f"{where}: stream incomplete after {self.ticks} ticks")
        if not self.in_order or self.delivered != self.messages:
            problems.append(f"{where}: delivered stream is not the sent one in order")
        return problems

    def fingerprint(self) -> tuple:
        """What must repeat exactly when the same stream runs again."""
        return (self.ticks, self.packets, self.bits, tuple(self.msg_ticks))


def run_stream(spec: FabricSpec, seed: int, tracer: Optional[Tracer] = None) -> Stream:
    """Build and run one stream; the wall covers both.

    Under ``tracer`` the stream also counts its hop-kernel ticks and route
    computations, from the spans it opened.
    """
    spans = _span_counts(tracer)
    started = perf_counter()
    run = FabricRun(spec, (), seed)
    probe = StreamProbe(run)
    outcome = run.run()
    wall = perf_counter() - started
    stream = Stream(
        label=spec.label,
        seed=seed,
        messages=spec.messages,
        wall=wall,
        ticks=run.ticks,
        verdict=run.verdict(),
        completed=outcome.result.completed,
        in_order=probe.received == probe.sent,
        delivered=len(probe.received),
        packets=outcome.metrics.packets_sent,
        bits=outcome.metrics.bits_sent,
        msg_ticks=probe.ticks,
        msg_seconds=probe.seconds,
        counters={
            "transport.ticks": run.ticks,
            "transport.reroutes": run.reroutes,
            "transport.retransmits": run.retransmits,
            "transport.dup_drops": run.dup_drops,
            "transport.dropped_overflow": run.dropped_overflow,
            "transport.dropped_down": run.dropped_down,
            "checkers.events": run.trace.total_events,
        },
    )
    if tracer is not None:
        after = _span_counts(tracer)
        stream.counters["kernel.hop_ticks"] = after[0] - spans[0]
        stream.counters["transport.route_calls"] = after[1] - spans[1]
    return stream


def _span_counts(tracer: Optional[Tracer]) -> Tuple[int, int]:
    if tracer is None:
        return 0, 0
    return tracer.call_count("kernel.hop"), tracer.call_count("transport.route")


#: The two streams of one repetition, line then ring.
Pair = List[Stream]
#: A pair as timed, with the host's slowdown while it ran.
TimedPair = Timed[Pair]


def pairs(
    specs: List[FabricSpec], seed: int, tracer: Optional[Tracer] = None
) -> Callable[[], Pair]:
    """Pair after pair of streams, with spans when ``tracer`` is given."""
    seeds = stream_seeds(seed)
    targets = [
        (FabricRun, "__init__", "transport.build"),
        (FabricRun, "run", "transport.fabric"),
        (HopKernel, "tick", "kernel.hop"),
        (networkx, "shortest_path", "transport.route"),
        (Network, "up_subgraph", "transport.route"),
        (Network, "tick", "transport.topology"),
        (EndToEndMonitor, "observe", "checkers.e2e"),
    ]

    def rep() -> Pair:
        stream_seed = next(seeds)
        if tracer is None:
            return [run_stream(spec, stream_seed) for spec in specs]
        tracer.run += 1
        with tracer.instrument(targets):
            return [run_stream(spec, stream_seed, tracer) for spec in specs]

    return rep


def judge(done: List[TimedPair], again: Pair, outcome: Outcome) -> None:
    """Check every stream, and that the first pair ran the same again."""
    for pair in done:
        for stream in pair.value:
            problems = stream.problems()
            outcome.attempted += 1
            outcome.failed += bool(problems)
            outcome.problems.extend(problems)
    if [s.fingerprint() for s in again] != [s.fingerprint() for s in done[0].value]:
        outcome.problems.append(
            "ticks, packets, bits or message latencies differ between "
            "repetitions of one seed"
        )


def _rates(done: List[TimedPair]) -> List[Tuple[float, float]]:
    """(messages delivered, seconds at the nominal speed) of each pair."""
    return [
        (
            sum(s.delivered for s in pair.value),
            sum(s.wall for s in pair.value) / pair.slowdown,
        )
        for pair in done
    ]


def end_to_end(done: List[TimedPair]) -> Dict[str, float]:
    """Timings over every pair, at the nominal host speed; deterministic
    figures over the fixed prefix."""
    fixed = [s for pair in done[:FIXED_PAIRS] for s in pair.value]
    delivered = sum(s.delivered for s in fixed)
    metrics = {
        "msgs_per_s": median_rate(_rates(done)),
        "pkts_per_msg": sum(s.packets for s in fixed) / delivered,
        "bits_per_msg": sum(s.bits for s in fixed) / delivered,
    }
    metrics["run_ms_p50"], metrics["run_ms_p99"] = percentiles(
        [s.wall * 1e3 / pair.slowdown for pair in done for s in pair.value]
    )
    metrics["msg_us_p50"], metrics["msg_us_p99"] = percentiles(
        [
            t * 1e6 / pair.slowdown
            for pair in done
            for s in pair.value
            for t in s.msg_seconds
        ]
    )
    metrics["msg_ticks_p50"], metrics["msg_ticks_p99"] = tick_percentiles(
        [t for s in fixed for t in s.msg_ticks]
    )
    return metrics


def counts(done: List[TimedPair]) -> Dict[str, int]:
    """The fabric's own counters summed over the fixed prefix (deterministic)."""
    totals: Dict[str, int] = {}
    for pair in done[:FIXED_PAIRS]:
        for stream in pair.value:
            for name, value in stream.counters.items():
                totals[name] = totals.get(name, 0) + value
    return totals


def measure(seed: int, seconds: float, trace: bool) -> Outcome:
    """Time stream pairs; with ``trace``, alternate them with traced pairs."""
    outcome = Outcome()
    specs = make_specs()
    warmup = make_specs(WARMUP_MESSAGES)
    warmup_seed = next(stream_seeds(seed + 1))
    setup = time_setup(
        IMPORTS, lambda: [run_stream(spec, warmup_seed) for spec in warmup]
    )
    first_seed = next(stream_seeds(seed))
    if not trace:
        (done,) = alternate([pairs(specs, seed)], seconds, least=FIXED_PAIRS)
        judge(done, [run_stream(spec, first_seed) for spec in specs], outcome)
        outcome.metrics.update(end_to_end(done))
        outcome.metrics["peak_rss_mb"] = peak_rss_mb()
        outcome.metrics["setup_s"] = setup
        outcome.notes.append(
            f"relay_fabric: {len(done)} pairs of (line, ring) streams x "
            f"{MESSAGES} messages"
        )
        outcome.notes.append(slowdown_note(done))
        return outcome

    tracer = Tracer()
    plain, spanned = alternate(
        [pairs(specs, seed), pairs(specs, seed, tracer)],
        seconds,
        least=FIXED_PAIRS,
    )
    # Traced pair k runs the inputs of untraced pair k: the first traced
    # pair is the repetition the determinism check compares.
    judge(plain + spanned, spanned[0].value, outcome)
    if counts(plain).items() - counts(spanned).items():
        outcome.problems.append("fabric counters differ with and without spans")
    delivered = sum(s.delivered for pair in spanned for s in pair.value)
    slowdown = statistics.mean(pair.slowdown for pair in spanned)
    for span, metric in LAYERS.items():
        outcome.metrics[metric] = tracer.self_seconds(span) / slowdown / delivered
    outcome.metrics.update(counts(spanned))
    outcome.metrics["trace.overhead"] = median_rate(_rates(spanned)) / median_rate(
        _rates(plain)
    )
    outcome.notes.append(
        f"relay_fabric: {len(plain)} untraced and {len(spanned)} traced pairs"
    )
    OUT.mkdir(exist_ok=True)
    tracer.dump(
        str(OUT / f"spans-relay_fabric-{seed}.jsonl"),
        {"workload": "relay_fabric", "seed": seed, "pairs": len(spanned)},
    )
    return outcome
