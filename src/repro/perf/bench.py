"""Engine benchmarks: the harness behind ``BENCH_core.json`` and its gate.

The harness answers these questions, repeatably:

* **micro** — how fast are the primitives: raw ``Trace.append`` and the
  online :class:`~repro.checkers.StreamingChecks` dispatch, in events/sec;

* **campaign** — end-to-end throughput of the parallel campaign
  supervisor on a many-run lossy campaign of short runs (the regime where
  dispatch overhead rivals simulation), batched sharded dispatch vs
  per-run dispatch (``chunk_size=1``) at the default worker count.  The
  two dispatches are also asserted to produce identical campaign
  fingerprints, so the speedup can never silently come from skipped work;

* **stabilization** — checker overhead of self-stabilizing mode: the
  same corrupting lossy workload is timed with and without the
  convergence monitor (``RunSpec.stabilization``), interleaved run by
  run.  The gated ``stabilization_overhead`` ratio (monitored steps/sec
  over plain steps/sec) bounds what the probation bookkeeping may cost on
  the campaign hot path;

* **live** — loopback messages/sec of the live UDP deployment at
  lanes ∈ {1, 4, 8} on a lossless (small fixed delay) profile.  The gated
  ``live_lane_speedup`` ratio (8 lanes vs 1) measures how much of Axiom
  1's stop-and-wait latency the lane striping actually pipelines away on
  a real wire; every leg must deliver its whole workload with clean
  verdicts or the benchmark raises;

* **kernel** — the step kernel against the object engine on identical
  seeds (``kernel_steps_speedup`` and its lossy twin);

* **relay** — the relay fabric: per-hop efficiency of a 4-hop line
  against one hop, the kernel hop engine against the object one, and
  the protocol-time win of two disjoint paths on a ring.

Absolute throughput is machine-dependent, so the regression gate
(:func:`check_regression`) compares only *within-run ratios* against the
committed ``BENCH_core.json`` baseline, and the kernel and relay ratios
additionally against absolute floors (:data:`_GATE_FLOORS`).  Absolute,
host-stamped figures for the campaign, fabric and live paths come from
the end-to-end benchmark (``e2ebench/``).  :data:`SEED_BASELINE` and
:data:`SEED_COMPARISON` record the numbers measured against the
pre-streaming tree for the before/after story.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import platform
import statistics
import sys
from time import perf_counter
from typing import Callable, Dict, List, Sequence, Tuple

from repro.adversary.benign import ReliableAdversary
from repro.adversary.corruption import StateCorruptionAdversary
from repro.adversary.random_faults import FaultProfile, RandomFaultAdversary
from repro.checkers.streaming import StreamingChecks
from repro.checkers.trace import Trace
from repro.core.events import (
    OK,
    ChannelId,
    Event,
    PktDelivered,
    PktSent,
    ReceiveMsg,
    SendMsg,
)
from repro.core.protocol import make_data_link
from repro.core.random_source import split_seed
from repro.sim.runner import RunSpec, run_once
from repro.sim.simulator import Simulator
from repro.sim.workload import SequentialWorkload

__all__ = [
    "SEED_BASELINE",
    "SEED_COMPARISON",
    "run_bench",
    "run_kernel_bench",
    "gate_ratios",
    "check_regression",
    "compare_payloads",
    "hosts_match",
]

#: Absolute numbers measured on the pre-streaming tree (commit ec5718d,
#: the engine the streaming trace engine replaced).  Methodology: a git
#: worktree of the seed commit and the streaming tree were benchmarked
#: in alternating subprocesses on the same host (6-run warm-up, then best
#: of three 6-run trials of RunSpec.default(messages=200); medians over
#: three interleaved repetitions), which bounds the host's timing drift
#: to well under the measured gap.  Memory is the peak tracemalloc
#: footprint of one 400-message run.  Kept for the measured before/after
#: table; never used by the regression gate (absolute throughput is
#: machine-dependent).
SEED_BASELINE: Dict[str, Dict[str, float]] = {
    "reliable": {
        "steps_per_second": 87_760.5,
        "events_per_second": 174_975.3,
    },
    "lossy": {
        "steps_per_second": 92_049.6,
        "events_per_second": 139_945.1,
    },
    "memory": {
        "reliable_peak_tracemalloc_bytes_400_messages": 630_109.0,
        "lossy_peak_tracemalloc_bytes_400_messages": 762_549.0,
    },
}

#: The paired "after" numbers from the same interleaved A/B session that
#: produced :data:`SEED_BASELINE` (seed worktree vs this tree, alternating
#: subprocesses, medians of three repetitions).  This is the measured
#: before/after story: the streaming engine with ``retain="none"`` clears
#: 2x steps/sec on both campaign workloads and roughly halves the peak
#: footprint.  Like the baseline, these absolutes are host-specific.
SEED_COMPARISON: Dict[str, Dict[str, float]] = {
    "reliable": {
        "seed_steps_per_second": 87_760.5,
        "streaming_none_steps_per_second": 175_209.8,
        "steps_speedup": 2.00,
        "seed_peak_tracemalloc_bytes": 630_109.0,
        "streaming_none_peak_tracemalloc_bytes": 320_087.0,
        "memory_reduction": 1.97,
    },
    "lossy": {
        "seed_steps_per_second": 92_049.6,
        "streaming_none_steps_per_second": 203_840.0,
        "steps_speedup": 2.21,
        "seed_peak_tracemalloc_bytes": 762_549.0,
        "streaming_none_peak_tracemalloc_bytes": 377_999.0,
        "memory_reduction": 2.02,
    },
}

#: Ratios the regression gate compares against the committed baseline.
_GATE_KEYS = (
    "campaign_dispatch_speedup",
    "live_lane_speedup",
    "stabilization_overhead",
    "kernel_steps_speedup",
    "kernel_steps_speedup_lossy",
    "relay_hop_efficiency",
    "relay_kernel_speedup",
    "relay_stripe_speedup",
)

#: Absolute floors, enforced whenever the key is present in the current
#: run — independent of any baseline.  Unlike the baseline-relative
#: checks these survive host mismatches: the step kernel must clear 5x
#: over the object engine on the reliable campaign shape (3x on the
#: lossy one) wherever the bench runs, or the kernel has lost the
#: advantage that justifies maintaining two engines.
_GATE_FLOORS = {
    "kernel_steps_speedup": 5.0,
    "kernel_steps_speedup_lossy": 3.0,
    # The fabric's kernel hop engine must clear 4x over the object
    # engine on the bench line (same spec, same seed, bit-identical
    # trace) or the flat-state executor has lost its reason to exist.
    "relay_kernel_speedup": 4.0,
    # Two vertex-disjoint paths must shave at least a third off the
    # protocol time of the single-path ring (ticks are deterministic,
    # so this floor is host-independent).
    "relay_stripe_speedup": 1.5,
}

#: Per-key overrides of :func:`check_regression`'s default threshold.
#: The live leg times real kernel round trips on a shared host's
#: loopback, so its run-to-run variance is far above the simulator
#: ratios'; the wider tolerance still keeps the committed ~5x lane
#: baseline gated above the 2.5x target.
_GATE_THRESHOLDS = {
    "live_lane_speedup": 0.5,
    # The relay legs time whole end-to-end fabric runs (hundreds of
    # per-link simulations each); their run-to-run variance is closer
    # to the live legs' than the simulator ratios'.  relay_stripe_speedup
    # needs no override: it is a deterministic tick ratio.
    "relay_hop_efficiency": 0.5,
    "relay_kernel_speedup": 0.5,
}


def _kernel_leg_run(engine: str, lossy: bool, messages: int, seed: int):
    """One engine-throughput run: direct simulator, no checkers, no trace.

    The kernel leg measures the *execution engines* against each other, so
    both sides run the bare campaign configuration (``retain="none"``,
    ``checks=None``) — the same observable outputs (metrics, verdict-free
    counters, final station state), none of the shared recording overhead
    that would dilute the ratio equally on both sides.
    """
    adversary = (
        RandomFaultAdversary(FaultProfile(loss=0.2))
        if lossy
        else ReliableAdversary()
    )
    simulator = Simulator(
        link=make_data_link(epsilon=2.0 ** -8, seed=split_seed(seed, "link")),
        adversary=adversary,
        workload=SequentialWorkload(messages),
        seed=split_seed(seed, "adversary"),
        max_steps=400_000,
        retain="none",
        checks=None,
        engine=engine,
    )
    started = perf_counter()
    result = simulator.run()
    return perf_counter() - started, result.steps


def _timed_pairs(
    run_a: Callable[[int], Tuple[float, int]],
    run_b: Callable[[int], Tuple[float, int]],
    seeds: Sequence[int],
    warm_seed: int,
) -> List[Tuple[float, int, float, int]]:
    """Time each seed back to back on two sides, ``a`` first.

    Each side maps a seed to ``(wall_seconds, count)``; the result holds
    one ``(wall_a, count_a, wall_b, count_b)`` per seed.  One untimed
    warm-up pair pays first-call costs.  Collection is paused
    around the timed pairs so a GC cycle cannot land inside one side's
    window but not the other's.  Callers record the *median* of the
    per-pair wall ratios, which is robust to the occasional run a noisy
    host slows several-fold, where a quotient of best-of walls is not.
    """
    run_a(warm_seed)
    run_b(warm_seed)
    pairs: List[Tuple[float, int, float, int]] = []
    gc_was_enabled = gc.isenabled()
    gc.disable()
    try:
        for seed in seeds:
            pairs.append(run_a(seed) + run_b(seed))
    finally:
        if gc_was_enabled:
            gc.enable()
    return pairs


def _pair_ratios(timed) -> List[float]:
    """Per-pair wall ratios ``a / b`` of :func:`_timed_pairs` output."""
    return [
        wall_a / wall_b if wall_b > 0 else 0.0
        for wall_a, _, wall_b, _ in timed
    ]


def _check_counts_equal(timed, what: str) -> None:
    """Both sides of every pair must have done the same work."""
    for i, (_, count_a, _, count_b) in enumerate(timed):
        if count_a != count_b:
            raise RuntimeError(
                f"{what} pair {i}: engines diverged ({count_a} vs {count_b})"
            )


#: (messages per run, pairs timed) of the kernel leg, by ``quick``.  One
#: quick pair's ratio spans ~3.4-9.5 on a shared 2-vCPU host, and the
#: median of 5 pairs once read 4.96 against the 5.0 floor; 21 pairs, as
#: the relay legs time (:data:`_RELAY_PAIRS`), steady it.
_KERNEL_LEG = {True: (800, 21), False: (2000, 8)}


def _bench_kernel(
    messages: int, pairs: int, base_seed: int
) -> Dict[str, Dict[str, float]]:
    """Step-kernel speedup over the object engine, paired run by run.

    Every seed is executed back-to-back on both engines (object first,
    kernel second, see :func:`_timed_pairs`) and contributes one
    wall-clock ratio; the recorded speedup is the median of the per-pair
    ratios.  Both engines must execute the identical number of steps per
    seed — a kernel that diverged from the object engine would invalidate
    the comparison, so it raises.
    """
    stats: Dict[str, Dict[str, float]] = {}
    for lossy in (False, True):
        label = "lossy" if lossy else "reliable"
        timed = _timed_pairs(
            lambda seed: _kernel_leg_run("object", lossy, messages, seed),
            lambda seed: _kernel_leg_run("kernel", lossy, messages, seed),
            [split_seed(base_seed, "bench-kernel", label, i) for i in range(pairs)],
            split_seed(base_seed, "bench-kernel-warmup", label),
        )
        _check_counts_equal(timed, f"kernel bench {label} (steps)")
        object_wall = sum(pair[0] for pair in timed)
        kernel_wall = sum(pair[2] for pair in timed)
        total_steps = sum(pair[3] for pair in timed)
        ratios = _pair_ratios(timed)
        stats[label] = {
            "pairs": pairs,
            "messages": messages,
            "steps": total_steps,
            "object_wall_seconds": object_wall,
            "kernel_wall_seconds": kernel_wall,
            "object_steps_per_second": (
                total_steps / object_wall if object_wall > 0 else 0.0
            ),
            "kernel_steps_per_second": (
                total_steps / kernel_wall if kernel_wall > 0 else 0.0
            ),
            "pair_ratios": [round(r, 3) for r in ratios],
            "steps_speedup_median": statistics.median(ratios),
        }
    return stats


#: Wall-clock repetitions per campaign dispatch mode; best-of is recorded.
_CAMPAIGN_REPEATS = 3


def _campaign_spec() -> RunSpec:
    """Short lossy runs: the regime where per-run dispatch overhead bites.

    One message under 20% loss keeps each run around a dozen steps, so the
    measured difference between the two dispatch modes is almost entirely
    dispatch cost rather than simulation time.  It runs the object engine,
    which the committed baseline's ratio was recorded on.
    """
    spec = RunSpec.default(messages=1, label="campaign-lossy", engine="object")
    spec.adversary_factory = lambda: RandomFaultAdversary(FaultProfile(loss=0.2))
    spec.retain = "none"
    spec.max_steps = 50_000
    return spec


def _bench_campaign(runs: int, base_seed: int) -> Dict[str, Dict[str, float]]:
    """Batched sharded dispatch vs per-run dispatch, same campaign.

    Both configurations run the identical ``runs``-run lossy campaign with
    the same worker count; only the shard size differs (``chunk_size=1``
    reproduces the old one-pool-task-per-run engine).  Every campaign
    fingerprint — across both dispatch modes and all repetitions — must
    match exactly: a dispatch path that changed any verdict or seed would
    invalidate the comparison, so it raises instead.  Each leg is measured
    ``_CAMPAIGN_REPEATS`` times and the best wall clock kept (the usual
    timeit discipline: the minimum is the run least disturbed by the rest
    of the machine).
    """
    from repro.resilience.supervisor import CampaignConfig, run_campaign

    spec = _campaign_spec()
    seed = split_seed(base_seed, "bench-campaign")
    # Default worker count (one): a single worker isolates dispatch
    # amortization — the thing sharding changes — from parallel scaling,
    # which varies with host core count and would drown the gated ratio in
    # machine-shape noise.
    configs = {
        "per_run": CampaignConfig(chunk_size=1),
        "batched": CampaignConfig(),
    }
    stats: Dict[str, Dict[str, float]] = {}
    fingerprints: Dict[str, tuple] = {}
    for name, config in configs.items():
        wall = math.inf
        total_steps = 0
        for _ in range(_CAMPAIGN_REPEATS):
            started = perf_counter()
            result = run_campaign(spec, runs, base_seed=seed, config=config)
            wall = min(wall, perf_counter() - started)
            fingerprint = result.fingerprint()
            if fingerprints.setdefault(name, fingerprint) != fingerprint:
                raise RuntimeError(
                    f"{name} campaign dispatch is not deterministic across "
                    "repetitions"
                )
            total_steps = sum(r.steps for r in result.reports)
        stats[name] = {
            "runs": runs,
            "jobs": config.jobs,
            "chunk_size": config.resolve_chunk_size(runs),
            "wall_seconds": wall,
            "steps": total_steps,
            "steps_per_second": total_steps / wall if wall > 0 else 0.0,
            "runs_per_second": runs / wall if wall > 0 else 0.0,
        }
    if fingerprints["per_run"] != fingerprints["batched"]:
        raise RuntimeError(
            "batched campaign dispatch diverged from per-run dispatch: "
            "identical fingerprints are a precondition of the comparison"
        )
    return stats


def _stabilization_spec(messages: int) -> RunSpec:
    """Lossy workload with random in-place state corruption.

    The corruption rate is tuned so every bench run scrambles at least one
    station a few times: the monitored leg then exercises the full
    probation/scrub path (episode open, mark, streak, converge) rather
    than idling, which is the cost the gated ratio exists to bound.  It
    runs the object engine, which the committed baseline's ratio was
    recorded on.
    """
    spec = RunSpec.default(
        messages=messages, label="stabilization", engine="object"
    )
    spec.adversary_factory = lambda: StateCorruptionAdversary(
        rate_t=0.005,
        rate_r=0.005,
        inner=RandomFaultAdversary(FaultProfile(loss=0.1)),
    )
    spec.retain = "none"
    spec.max_steps = 400_000
    return spec


def _bench_stabilization(
    messages: int, runs: int, base_seed: int
) -> Dict[str, Dict[str, float]]:
    """Same corrupting workload, with and without the convergence monitor.

    The two variants take turns run by run so host clock drift cancels
    out of the gated ratio.  The corrupting adversary is seed-pinned, so
    both variants simulate the identical run — the only difference is
    whether :class:`StabilizationMonitor` rides the stream.
    The leg refuses to report a ratio measured on a corruption-free
    workload: that would gate nothing.
    """
    base = _stabilization_spec(messages)
    variants = {
        "plain": dataclasses.replace(base, stabilization=False),
        "monitored": dataclasses.replace(base, stabilization=True),
    }
    totals = {
        name: {"wall_seconds": 0.0, "steps": 0, "events": 0, "corruptions": 0}
        for name in variants
    }
    for spec in variants.values():
        run_once(spec, split_seed(base_seed, "bench-stab-warmup"))
    for i in range(runs):
        seed = split_seed(base_seed, "bench-stab", i)
        for name, spec in variants.items():
            started = perf_counter()
            outcome = run_once(spec, seed)
            wall = perf_counter() - started
            result = outcome.result
            bucket = totals[name]
            bucket["wall_seconds"] += wall
            bucket["steps"] += result.steps
            bucket["events"] += result.trace.total_events
            bucket["corruptions"] += (
                result.metrics.corruptions_t + result.metrics.corruptions_r
            )
    if totals["monitored"]["corruptions"] == 0:
        raise RuntimeError(
            "stabilization bench injected no corruptions; the overhead "
            "ratio would be measured on an idle monitor"
        )
    stats: Dict[str, Dict[str, float]] = {}
    for name, bucket in totals.items():
        wall = bucket["wall_seconds"]
        stats[name] = {
            "runs": runs,
            "wall_seconds": wall,
            "steps": bucket["steps"],
            "events": bucket["events"],
            "corruptions": bucket["corruptions"],
            "steps_per_second": bucket["steps"] / wall if wall > 0 else 0.0,
            "events_per_second": bucket["events"] / wall if wall > 0 else 0.0,
        }
    return stats


#: Lane counts the live leg measures (1 is the stop-and-wait baseline).
_LIVE_LANES = (1, 4, 8)

#: Wall-clock repetitions per live lane count; best-of is recorded.
_LIVE_REPEATS = 2


def _bench_live(messages: int, base_seed: int) -> Dict[str, Dict[str, float]]:
    """Loopback messages/sec of the live deployment per lane count.

    Lossless profile with a small fixed one-way delay, so throughput is
    dominated by the per-message handshake latency Axiom 1 serializes —
    the thing lane striping exists to pipeline.  A fast, tightly jittered
    poll schedule keeps the RM's ack latency (rather than its poll timer)
    on the critical path.  Each leg must deliver its entire workload with
    clean Section 2.6 verdicts; a bench that silently dropped messages
    would make the throughput numbers meaningless, so it raises instead.
    """
    from repro.live import BackoffPolicy, LinkProfile, LiveScenario
    from repro.live.scenario import run_live_scenario

    poll = BackoffPolicy(base=0.004, factor=2.0, cap=0.05, jitter=0.25)
    profile = LinkProfile(delay=0.002)
    stats: Dict[str, Dict[str, float]] = {}
    for lanes in _LIVE_LANES:
        best_mps = 0.0
        wall = math.inf
        high_water = 0
        for __ in range(_LIVE_REPEATS):
            scenario = LiveScenario(
                messages=messages,
                seed=split_seed(base_seed, "bench-live", lanes),
                profile=profile,
                poll=poll,
                budget=45.0,
                lanes=lanes,
                label=f"bench-live-{lanes}",
            )
            report = run_live_scenario(scenario)
            if not report.ok:
                raise RuntimeError(
                    f"live bench leg lanes={lanes} failed: {report.reason}"
                )
            wall = min(wall, report.wall_seconds)
            best_mps = max(best_mps, messages / report.wall_seconds)
            high_water = max(high_water, report.resequencer_high_water)
        stats[f"lanes_{lanes}"] = {
            "lanes": lanes,
            "messages": messages,
            "wall_seconds": wall,
            "messages_per_second": best_mps,
            "resequencer_high_water": high_water,
        }
    return stats


def _synthetic_events(count: int) -> List[Event]:
    """A protocol-shaped event mix: one handshake per message, no faults."""
    events: List[Event] = []
    message_index = 0
    while len(events) < count:
        message = message_index.to_bytes(4, "big")
        message_index += 1
        events.append(SendMsg(message=message))
        events.append(
            PktSent(channel=ChannelId.T_TO_R, packet_id=message_index, length_bits=256)
        )
        events.append(PktDelivered(channel=ChannelId.T_TO_R, packet_id=message_index))
        events.append(ReceiveMsg(message=message))
        events.append(
            PktSent(channel=ChannelId.R_TO_T, packet_id=message_index, length_bits=128)
        )
        events.append(PktDelivered(channel=ChannelId.R_TO_T, packet_id=message_index))
        events.append(OK)
    return events[:count]


#: Pairs timed per wall-clock relay leg.  A quick kernel run lasts
#: ~1.4 ms, so one pair's ratio swings with the host; over 5 pairs the
#: median still read from 3.7 to 5.0 on a shared 2-vCPU host, over 21
#: from 4.4 to 4.7.
_RELAY_PAIRS = 21

#: Repetitions of a stripe leg, whose gated ratio counts ticks.
_RELAY_REPEATS = 3


def _fabric_run(spec, seed: int) -> Tuple[float, int]:
    """Wall seconds (construction excluded) and ticks of one fault-free stream."""
    from repro.transport.fabric import FabricRun

    run = FabricRun(spec, (), seed)
    started = perf_counter()
    outcome = run.run()
    wall = perf_counter() - started
    if not outcome.result.completed:
        raise RuntimeError(
            f"relay bench leg {spec.label} failed to deliver its stream "
            f"within {spec.max_ticks} ticks"
        )
    return wall, run.ticks


def _fabric_leg(timed, side: int, messages: int, hops: int) -> Dict[str, float]:
    """One side's totals over timed fabric pairs (side 0 is ``a``)."""
    wall = sum(pair[2 * side] for pair in timed)
    return {
        "hops": hops,
        "messages": messages,
        "pairs": len(timed),
        "ticks": timed[-1][2 * side + 1],
        "wall_seconds": wall,
        "messages_per_second": (
            messages * len(timed) / wall if wall > 0 else 0.0
        ),
    }


def _bench_relay(messages: int, base_seed: int) -> Dict[str, Dict[str, float]]:
    """End-to-end relay fabric throughput: 4-hop line vs single hop.

    Both legs push the same message stream through the same end-to-end
    layer at the same seed; only the hop count differs.  The gated ratio
    is *per-hop efficiency* — 4-hop messages/sec scaled by the hop count,
    over 1-hop messages/sec.  1.0 would mean relaying is free (each hop
    runs a full TM/RM instance, so the 4-hop line does 4x the per-link
    work); the committed baseline bounds how far below free the fabric's
    store-and-forward overhead may drift.  Each seed runs on both lines
    back to back (:func:`_timed_pairs`) and the recorded efficiency is
    the median of the per-pair ones.  Both lines run the object engine,
    which the committed baseline's ratio was recorded on.
    """
    from repro.transport.fabric import FabricSpec

    line_1, line_4 = (
        FabricSpec(topology="line", size=hops, messages=messages,
                   engine="object", label=f"line_{hops}")
        for hops in (1, 4)
    )
    timed = _timed_pairs(
        lambda seed: _fabric_run(line_1, seed),
        lambda seed: _fabric_run(line_4, seed),
        [split_seed(base_seed, "bench-relay", i) for i in range(_RELAY_PAIRS)],
        split_seed(base_seed, "bench-relay-warmup"),
    )
    stats = {
        "line_1": _fabric_leg(timed, 0, messages, 1),
        "line_4": _fabric_leg(timed, 1, messages, 4),
    }
    stats["line_4"]["efficiency_median"] = 4 * statistics.median(
        _pair_ratios(timed)
    )
    return stats


def _bench_relay_kernel(messages: int, base_seed: int) -> Dict[str, Dict[str, float]]:
    """Kernel-engine fabric hops vs the object engine on a 4-hop line.

    Both engines run the identical spec at the identical seed (the
    differential suite proves they produce bit-identical traces), so the
    wall-clock ratio isolates pure executor overhead: per-step attribute
    dispatch through the object graph vs the hop kernel's flat-local
    burst loop with idle fast-forward.  The wide window and high
    ``steps_per_tick`` keep the run engine-dominated rather than
    fabric-dispatch-dominated.  Each seed runs on both engines back to
    back (:func:`_timed_pairs`; a GC cycle landing inside the short kernel
    window but not the long object one would wreck the ratio) and the
    recorded speedup is the median of the per-pair ratios.
    """
    from repro.transport.fabric import FabricSpec

    specs = {
        engine: FabricSpec(
            topology="line",
            size=4,
            messages=messages,
            window=32,
            steps_per_tick=64,
            engine=engine,
            label=f"bench_{engine}",
        )
        for engine in ("object", "kernel")
    }
    timed = _timed_pairs(
        lambda seed: _fabric_run(specs["object"], seed),
        lambda seed: _fabric_run(specs["kernel"], seed),
        [
            split_seed(base_seed, "bench-relay-kernel", i)
            for i in range(_RELAY_PAIRS)
        ],
        split_seed(base_seed, "bench-relay-kernel-warmup"),
    )
    _check_counts_equal(timed, "relay kernel bench (ticks)")
    stats = {
        "object": _fabric_leg(timed, 0, messages, 4),
        "kernel": _fabric_leg(timed, 1, messages, 4),
    }
    stats["kernel"]["speedup_median"] = statistics.median(_pair_ratios(timed))
    return stats


def _bench_relay_stripe(messages: int, base_seed: int) -> Dict[str, Dict[str, float]]:
    """Multi-path striping throughput on a ring: 2 disjoint paths vs 1.

    The gated ratio is *protocol time* — fabric ticks to stream
    completion with one path over ticks with two vertex-disjoint paths —
    not wall clock.  Striping halves the per-path frame load, so the
    window drains in fewer protocol rounds (the quantity Bunn–Ostrovsky
    style multi-path arguments bound); wall clock would conflate that
    with host scheduling of the extra busy links, which do the same
    total engine work either way.  Tick counts are fully deterministic
    per seed, so the ratio is exactly reproducible across hosts.
    """
    from repro.transport.fabric import FabricSpec

    seed = split_seed(base_seed, "bench-relay-stripe")
    stats: Dict[str, Dict[str, float]] = {}
    for paths in (1, 2):
        spec = FabricSpec(
            topology="ring",
            size=8,
            messages=messages,
            window=16,
            steps_per_tick=4,
            engine="kernel",
            paths=paths,
            label=f"bench_stripe_{paths}",
        )
        wall = math.inf
        for _ in range(_RELAY_REPEATS):
            leg_wall, ticks = _fabric_run(spec, seed)
            wall = min(wall, leg_wall)
        stats[f"paths_{paths}"] = {
            "paths": paths,
            "messages": messages,
            "ticks": ticks,
            "wall_seconds": wall,
            "messages_per_second": messages / wall if wall > 0 else 0.0,
        }
    return stats


def _bench_trace_append(events: List[Event]) -> Dict[str, float]:
    started = perf_counter()
    trace = Trace()
    append = trace.append
    for event in events:
        append(event)
    wall = perf_counter() - started
    return {
        "events": len(events),
        "wall_seconds": wall,
        "events_per_second": len(events) / wall if wall > 0 else 0.0,
    }


def _bench_streaming_checks(events: List[Event]) -> Dict[str, float]:
    checks = StreamingChecks()
    observe = checks.observe
    started = perf_counter()
    for index, event in enumerate(events):
        observe(index, event)
    wall = perf_counter() - started
    if not checks.safety_report().passed:
        raise RuntimeError("synthetic benchmark stream violated a condition")
    return {
        "events": len(events),
        "wall_seconds": wall,
        "events_per_second": len(events) / wall if wall > 0 else 0.0,
    }


def gate_ratios(results: dict) -> Dict[str, float]:
    """The machine-independent ratios the regression gate compares."""
    ratios: Dict[str, float] = {}
    campaign = results.get("campaign")
    if campaign and campaign["per_run"]["steps_per_second"] > 0:
        ratios["campaign_dispatch_speedup"] = (
            campaign["batched"]["steps_per_second"]
            / campaign["per_run"]["steps_per_second"]
        )
    live = results.get("live")
    if live and live["lanes_1"]["messages_per_second"] > 0:
        ratios["live_lane_speedup"] = (
            live["lanes_8"]["messages_per_second"]
            / live["lanes_1"]["messages_per_second"]
        )
    stabilization = results.get("stabilization")
    if stabilization and stabilization["plain"]["steps_per_second"] > 0:
        ratios["stabilization_overhead"] = (
            stabilization["monitored"]["steps_per_second"]
            / stabilization["plain"]["steps_per_second"]
        )
    kernel = results.get("kernel")
    if kernel:
        ratios["kernel_steps_speedup"] = kernel["reliable"][
            "steps_speedup_median"
        ]
        ratios["kernel_steps_speedup_lossy"] = kernel["lossy"][
            "steps_speedup_median"
        ]
    relay = results.get("relay")
    if relay and "efficiency_median" in relay.get("line_4", {}):
        ratios["relay_hop_efficiency"] = relay["line_4"]["efficiency_median"]
    relay_kernel = results.get("relay_kernel")
    if relay_kernel and "speedup_median" in relay_kernel.get("kernel", {}):
        ratios["relay_kernel_speedup"] = relay_kernel["kernel"][
            "speedup_median"
        ]
    relay_stripe = results.get("relay_stripe")
    if relay_stripe and relay_stripe["paths_2"]["ticks"] > 0:
        # Protocol-time ratio (deterministic per seed) — see
        # _bench_relay_stripe for why ticks, not wall clock.
        ratios["relay_stripe_speedup"] = (
            relay_stripe["paths_1"]["ticks"]
            / relay_stripe["paths_2"]["ticks"]
        )
    return ratios


def run_bench(quick: bool = False, base_seed: int = 0) -> dict:
    """Run the full benchmark matrix; returns the BENCH_core.json payload.

    ``quick=True`` shrinks workloads and run counts for CI smoke (the
    gated ratios stay meaningful; only their variance grows).
    """
    # The campaign benchmark keeps the same run count in both modes: its
    # gated ratio is not size-invariant (per-run dispatch cost grows with
    # the number of in-flight futures), so quick CI measurements must use
    # the same campaign the committed baseline recorded.  At ~a dozen steps
    # per run the campaign leg costs about a second, well within CI budget.
    campaign_runs = 1024
    if quick:
        messages, runs, micro_events, live_messages = 60, 4, 40_000, 40
        relay_messages = 40
    else:
        messages, runs, micro_events, live_messages = 200, 12, 200_000, 80
        relay_messages = 120
    kernel_messages, kernel_pairs = _KERNEL_LEG[quick]
    events = _synthetic_events(micro_events)
    micro = {
        "trace_append": _bench_trace_append(events),
        "streaming_checks": _bench_streaming_checks(events),
    }
    campaign = _bench_campaign(campaign_runs, base_seed)
    live = _bench_live(live_messages, base_seed)
    stabilization = _bench_stabilization(messages, runs, base_seed)
    kernel = _bench_kernel(kernel_messages, kernel_pairs, base_seed)
    relay = _bench_relay(relay_messages, base_seed)
    relay_kernel = _bench_relay_kernel(relay_messages, base_seed)
    relay_stripe = _bench_relay_stripe(relay_messages, base_seed)
    results = {
        "micro": micro,
        "campaign": campaign,
        "live": live,
        "stabilization": stabilization,
        "kernel": kernel,
        "relay": relay,
        "relay_kernel": relay_kernel,
        "relay_stripe": relay_stripe,
    }
    return {
        "schema": 1,
        "quick": quick,
        "config": {
            "messages": messages,
            "runs": runs,
            "micro_events": micro_events,
            "campaign_runs": campaign_runs,
            "live_messages": live_messages,
            "kernel_messages": kernel_messages,
            "kernel_pairs": kernel_pairs,
            "relay_messages": relay_messages,
            "base_seed": base_seed,
        },
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
        "seed_baseline": SEED_BASELINE,
        "seed_comparison": SEED_COMPARISON,
        "results": results,
        "ratios": gate_ratios(results),
    }


def run_kernel_bench(quick: bool = False, base_seed: int = 0) -> dict:
    """Run only the step-kernel speedup leg (the CI kernel-differential job).

    Returns a reduced payload with the same shape as :func:`run_bench`
    (``results``/``ratios``/``host``), so :func:`check_regression` and
    the absolute floors apply unchanged.
    """
    kernel_messages, kernel_pairs = _KERNEL_LEG[quick]
    kernel = _bench_kernel(kernel_messages, kernel_pairs, base_seed)
    results = {"kernel": kernel}
    return {
        "schema": 1,
        "quick": quick,
        "config": {
            "kernel_messages": kernel_messages,
            "kernel_pairs": kernel_pairs,
            "base_seed": base_seed,
        },
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
        "results": results,
        "ratios": gate_ratios(results),
    }


def run_relay_bench(quick: bool = False, base_seed: int = 0) -> dict:
    """Run only the relay fabric legs (the CI fabric-differential job).

    Covers hop efficiency, the kernel-vs-object engine ratio and the
    striping protocol-time ratio; the reduced payload has the same
    shape as :func:`run_bench`, so the absolute floors
    (``relay_kernel_speedup >= 4.0``, ``relay_stripe_speedup >= 1.5``)
    apply unchanged.
    """
    relay_messages = 40 if quick else 120
    results = {
        "relay": _bench_relay(relay_messages, base_seed),
        "relay_kernel": _bench_relay_kernel(relay_messages, base_seed),
        "relay_stripe": _bench_relay_stripe(relay_messages, base_seed),
    }
    return {
        "schema": 1,
        "quick": quick,
        "config": {
            "relay_messages": relay_messages,
            "base_seed": base_seed,
        },
        "host": {
            "python": sys.version.split()[0],
            "platform": platform.platform(),
        },
        "results": results,
        "ratios": gate_ratios(results),
    }


def _relative_failures(
    current: dict, baseline: dict, threshold: float
) -> List[str]:
    """Baseline-relative shortfalls: ratios that dropped past threshold."""
    failures: List[str] = []
    baseline_ratios = baseline.get("ratios", {})
    current_ratios = current.get("ratios", {})
    for key in _GATE_KEYS:
        expected = baseline_ratios.get(key)
        if expected is None:
            continue
        actual = current_ratios.get(key)
        if actual is None:
            failures.append(f"{key}: missing from current results")
            continue
        key_threshold = max(threshold, _GATE_THRESHOLDS.get(key, threshold))
        floor = expected * (1.0 - key_threshold)
        if actual < floor:
            failures.append(
                f"{key}: {actual:.2f} fell below {floor:.2f} "
                f"(baseline {expected:.2f}, threshold {key_threshold:.0%})"
            )
    return failures


def _floor_failures(current: dict) -> List[str]:
    """Absolute-floor shortfalls, baseline-independent (see _GATE_FLOORS)."""
    failures: List[str] = []
    current_ratios = current.get("ratios", {})
    for key, floor in _GATE_FLOORS.items():
        actual = current_ratios.get(key)
        if actual is not None and actual < floor:
            failures.append(
                f"{key}: {actual:.2f} fell below absolute floor {floor:.2f}"
            )
    return failures


def hosts_match(current: dict, baseline: dict) -> bool:
    """Whether two payloads were measured on the same platform.

    Gated ratios are engine-vs-engine comparisons within one host, but
    they still shift between CPU generations and interpreter builds; a
    baseline recorded elsewhere bounds a different machine's behavior.
    """
    return current.get("host") == baseline.get("host")


def check_regression(
    current: dict, baseline: dict, threshold: float = 0.25
) -> List[str]:
    """Compare gated ratios against a baseline payload.

    Returns a list of human-readable failures; empty means the gate
    passes.  A ratio regresses when it falls more than ``threshold``
    below the baseline's value; keys in :data:`_GATE_THRESHOLDS` use
    their own (wider) tolerance — but never a tighter one than the
    caller asked for.  Ratios absent from the baseline are skipped
    (forward compatibility), ratios absent from the current run are
    failures.  Ratios listed in :data:`_GATE_FLOORS` must additionally
    clear their absolute floor whenever the current run measured them.

    Host identity is deliberately ignored here — use
    :func:`compare_payloads` for the mismatch-aware verdict.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    return _relative_failures(current, baseline, threshold) + _floor_failures(
        current
    )


def compare_payloads(
    current: dict, baseline: dict, threshold: float = 0.25
) -> Tuple[List[str], List[str]]:
    """Host-aware regression verdict: ``(failures, warnings)``.

    On the baseline's own host this is :func:`check_regression` with an
    empty warning list.  When the hosts differ, the baseline-relative
    comparisons are demoted to *warnings* — a ratio recorded on another
    machine is advisory there, not a gate — while the absolute floors of
    :data:`_GATE_FLOORS` keep failing hard: the kernel's required margin
    over the object engine is a property of the code, not of the host
    that recorded the baseline.
    """
    if not 0.0 < threshold < 1.0:
        raise ValueError("threshold must be in (0, 1)")
    relative = _relative_failures(current, baseline, threshold)
    floors = _floor_failures(current)
    if hosts_match(current, baseline):
        return relative + floors, []
    warnings = [
        "baseline was recorded on a different host "
        f"({baseline.get('host')} vs {current.get('host')}); "
        "baseline-relative ratio checks are advisory here"
    ]
    warnings.extend(relative)
    return floors, warnings


def dump(payload: dict, path: str) -> None:
    """Write a benchmark payload as pretty JSON."""
    with open(path, "w", encoding="utf-8") as stream:
        json.dump(payload, stream, indent=2, sort_keys=True)
        stream.write("\n")


def load(path: str) -> dict:
    """Read a benchmark payload written by :func:`dump`."""
    with open(path, "r", encoding="utf-8") as stream:
        return json.load(stream)
