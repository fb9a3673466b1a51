"""live_chaos: the automata over loopback UDP through the chaos proxy.

Eight stop-and-wait lanes share one proxied socket pair on the batched
wire, under 5% drop, 2.5% duplication, 2.5% reordering and one scripted
transmitter crash per scenario, with the RM polling on a jittered
exponential backoff.  Eight lanes keep one core busy, so codec, wire,
proxy, automata and live-checker costs all reach ``msgs_per_s``.  Traffic
crosses the host's loopback interface, not a real link.

One timed repetition is one scenario.  Scenario inputs (seed, crash turn)
come from the workload seed; the wire timing does not, so live figures
are not deterministic and nothing is required to repeat exactly.
"""

from __future__ import annotations

import contextlib
import random
import statistics
from dataclasses import dataclass, field
from time import perf_counter, process_time
from typing import Callable, Dict, Iterator, List, Optional, Tuple

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
from spans import Tracer, patch

from repro.checkers.live import LiveEventLog
from repro.core.events import Ok, PktSent, SendMsg
from repro.core.packets import PollEncoder
from repro.core.receiver import Receiver
from repro.core.transmitter import Transmitter
from repro.extensions.striping import Resequencer
from repro.live import BackoffPolicy, ChaosProxy, LinkProfile, LiveScenario
from repro.live import endpoints, lanes, proxy
from repro.live.scenario import run_live_scenario
from repro.live.wire import BatchedDatagramIO
from repro.resilience.faultplan import CrashAt, FaultPlan

MESSAGES = 2000
#: As in link_campaign: small enough that no scenario meets an epsilon-event.
EPSILON = 2.0 ** -32
#: Messages per "run" on this workload: the size of a link_campaign run.
BLOCK = 100
LANES = 8
PROFILE = LinkProfile(drop=0.05, duplicate=0.025, reorder=0.025)
POLL = BackoffPolicy(base=0.004, factor=2.0, cap=0.05, jitter=0.25)
WARMUP_MESSAGES = 200
IMPORTS = ("repro.live", "repro.live.scenario")

#: Spans of the traced run: (owner, attribute, span name).
TRACED = [
    (LiveEventLog, "record", "checkers.record"),
    (Transmitter, "send_msg", "core.automata"),
    (Transmitter, "on_receive_pkt", "core.automata"),
    (Receiver, "retry", "core.automata"),
    (Receiver, "on_receive_pkt", "core.automata"),
    (endpoints, "decode_packet", "core.codec"),
    (endpoints, "encode_packet_into", "core.codec"),
    (lanes, "decode_packet", "core.codec"),
    (lanes, "lane_prefix", "core.codec"),
    (lanes, "frame_stripe", "core.codec"),
    (lanes, "unframe_stripe", "core.codec"),
    (PollEncoder, "encode_into", "core.codec"),
    (proxy, "peek_wire_info", "core.codec"),
    (BatchedDatagramIO, "flush", "live.flush"),
    (Resequencer, "accept", "extensions.reseq"),
]
LAYERS = {
    "checkers.record": "checkers.record_s",
    "core.automata": "core.automata_s",
    "core.codec": "core.codec_s",
    "live.flush": "live.flush_s",
    "extensions.reseq": "extensions.reseq_s",
}


def make_scenario(
    seed: int, crash_turn: int, messages: int = MESSAGES
) -> LiveScenario:
    """One scenario: the fixed deployment plus one seed and one T crash."""
    return LiveScenario(
        messages=messages,
        seed=seed,
        epsilon=EPSILON,
        lanes=LANES,
        wire="batched",
        profile=PROFILE,
        plan=FaultPlan.of(CrashAt(step=crash_turn, station="T")),
        poll=POLL,
        budget=60.0,
        label="live_chaos",
    )


def scenarios(seed: int, messages: int = MESSAGES) -> Iterator[LiveScenario]:
    """The endless scenario sequence the workload seed generates.

    The crash turn lies between ``messages / 2`` and ``2 * messages``; a
    scenario carries about 2.3 datagrams per message, so it always fires
    mid-stream.
    """
    rng = random.Random(f"live_chaos:{seed}")
    while True:
        yield make_scenario(
            rng.getrandbits(32), rng.randrange(messages // 2, 2 * messages), messages
        )


def payloads(messages: int) -> List[bytes]:
    """The stream ``run_live_scenario`` submits, in order."""
    return [b"live-%05d" % i for i in range(messages)]


class LatencyProbe:
    """The timed run's only probe, on ``LiveEventLog.record``.

    Each lane has one log, so a ``SendMsg`` and the next ``OK`` on the same
    log bracket one message.  The probe stamps both with ``perf_counter``,
    ``process_time`` and the proxy's datagram count (the wire turn live
    fault plans are scripted in), keeps the clocks at every ``OK``, and
    sums the wire bits of every ``PktSent``.
    """

    def __init__(self) -> None:
        self.proxy: Optional[ChaosProxy] = None
        self.bits = 0
        self.first_send: Optional[Tuple[float, float]] = None
        self.seconds: List[float] = []
        self.cpu: List[float] = []
        self.turns: List[int] = []
        self.ok_at: List[Tuple[float, float]] = []
        self._sent: Dict[LiveEventLog, Tuple[float, float, int]] = {}

    def blocks(self, size: int = BLOCK) -> List[Tuple[float, float]]:
        """(wall, CPU) seconds of each block of ``size`` consecutive OKs."""
        marks = [self.first_send] + self.ok_at[size - 1 :: size]
        return [
            (end[0] - start[0], end[1] - start[1])
            for start, end in zip(marks, marks[1:])
        ]

    def instrument(self) -> contextlib.ExitStack:
        """Install the probe; it comes off when the returned stack exits."""
        probe = self
        record = LiveEventLog.record
        init = ChaosProxy.__init__
        sent = self._sent

        def probed_record(log, event):
            kind = event.__class__
            if kind is PktSent:
                probe.bits += event.length_bits
            elif kind is SendMsg:
                now, cpu = perf_counter(), process_time()
                sent[log] = (now, cpu, probe.proxy.stats.observed)
                probe.first_send = probe.first_send or (now, cpu)
            elif kind is Ok and log in sent:
                now, cpu = perf_counter(), process_time()
                started, cpu_started, turn = sent.pop(log)
                probe.seconds.append(now - started)
                probe.cpu.append(cpu - cpu_started)
                probe.turns.append(probe.proxy.stats.observed - turn)
                probe.ok_at.append((now, cpu))
            return record(log, event)

        def tracked_init(proxy_, *args, **kwargs):
            init(proxy_, *args, **kwargs)
            probe.proxy = proxy_

        stack = contextlib.ExitStack()
        stack.enter_context(patch(LiveEventLog, "record", probed_record))
        stack.enter_context(patch(ChaosProxy, "__init__", tracked_init))
        return stack


@dataclass
class Scenario:
    """What the benchmark kept of one live run."""

    messages: int
    wall: float
    cpu: float
    oks: int
    datagrams: int
    problems: List[str]
    undelivered: int
    counters: Dict[str, int]
    #: Filled only when the latency probe rode the run.
    bits: int = 0
    msg_seconds: List[float] = field(default_factory=list)
    msg_cpu: List[float] = field(default_factory=list)
    msg_turns: List[int] = field(default_factory=list)
    #: (wall, CPU) seconds of each block.
    block_seconds: List[Tuple[float, float]] = field(default_factory=list)


def run_scenario(
    scenario: LiveScenario, probe: Optional[LatencyProbe] = None
) -> Scenario:
    """Run one scenario and check its delivered stream and buffer pool.

    ``probe`` must already be installed; its figures are copied over.
    """
    started, cpu = perf_counter(), process_time()
    report = run_live_scenario(scenario)
    wall, cpu = perf_counter() - started, process_time() - cpu
    expected = payloads(scenario.messages)
    where = f"scenario seed {scenario.seed}"
    problems = []
    if not report.ok:
        problems.append(f"{where}: {report.status.value} ({report.reason})")
    if report.delivered_stream != expected:
        problems.append(f"{where}: delivered stream is not the payloads in order")
    if report.pool_outstanding:
        problems.append(f"{where}: {report.pool_outstanding} pool buffers leaked")
    stats = report.wire_stats
    done = Scenario(
        messages=scenario.messages,
        wall=wall,
        cpu=cpu,
        oks=report.oks,
        datagrams=report.proxy.observed,
        problems=problems,
        undelivered=len(set(expected) - set(report.delivered_stream)),
        counters={
            "datagrams_received": stats.datagrams_received,
            "recv_batches": stats.recv_batches,
            "datagrams_sent": stats.datagrams_sent,
            "send_batches": stats.send_batches,
            "live.pool_high_water": report.pool_high_water,
            "live.resubmissions": report.resubmissions,
            "live.reseq_high_water": report.resequencer_high_water,
            "live.proxy_dropped": report.proxy.dropped,
            "live.proxy_duplicated": report.proxy.duplicated,
            "live.proxy_reordered": report.proxy.reordered,
            "checkers.events": report.events_seen,
        },
    )
    if probe is not None:
        done.bits, done.block_seconds = probe.bits, probe.blocks()
        done.msg_seconds, done.msg_cpu = probe.seconds, probe.cpu
        done.msg_turns = probe.turns
    return done


def bare(seed: int) -> Callable[[], Scenario]:
    """Scenario after scenario with no instrumentation at all."""
    inputs = scenarios(seed)
    return lambda: run_scenario(next(inputs))


def probed(seed: int) -> Callable[[], Scenario]:
    """Scenario after scenario carrying the latency probe (the timed run)."""
    inputs = scenarios(seed)

    def rep() -> Scenario:
        probe = LatencyProbe()
        with probe.instrument():
            return run_scenario(next(inputs), probe)

    return rep


def traced(seed: int, tracer: Tracer) -> Callable[[], Scenario]:
    """Scenario after scenario with spans around the calls into each layer."""
    inputs = scenarios(seed)

    def rep() -> Scenario:
        tracer.run += 1
        with tracer.instrument(TRACED):
            return run_scenario(next(inputs))

    return rep


#: A scenario as timed, with the host's slowdown while it ran.
TimedScenario = Timed[Scenario]


def judge(runs: List[TimedScenario], outcome: Outcome) -> None:
    """Count every submitted message; undelivered ones are failures."""
    for run in runs:
        outcome.attempted += run.value.messages
        outcome.failed += run.value.undelivered
        outcome.problems.extend(run.value.problems)


def at_nominal(wall: float, cpu: float, slowdown: float) -> float:
    """Wall time with its CPU part read at the nominal host speed.

    The rest of the wall time waits on retransmission timers and sockets,
    which a busy host does not stretch; it stays as measured.  Blocks
    slowed by a crash's backoff are mostly such waiting.
    """
    return wall - cpu + cpu / slowdown


def _rates(runs: List[TimedScenario]) -> List[Tuple[float, float]]:
    """(messages OK'd, seconds at the nominal speed) of each scenario."""
    return [
        (run.value.oks, at_nominal(run.value.wall, run.value.cpu, run.slowdown))
        for run in runs
    ]


def end_to_end(runs: List[TimedScenario]) -> Dict[str, float]:
    """Block walls pooled; message latencies per scenario, then the median.

    A "run" here is a block of ``BLOCK`` consecutive OKs: a scenario wall
    has too few samples per run for a p99.  Every scenario holds enough
    messages for its own latency p99, so one scenario disturbed by the rest
    of the machine moves little.  CPU time is read at the nominal host
    speed (:func:`at_nominal`).
    """
    oks = sum(run.value.oks for run in runs)
    metrics = {
        "msgs_per_s": median_rate(_rates(runs)),
        "pkts_per_msg": sum(run.value.datagrams for run in runs) / oks,
        "bits_per_msg": sum(run.value.bits for run in runs) / oks,
    }
    metrics["run_ms_p50"], metrics["run_ms_p99"] = percentiles(
        [
            at_nominal(wall, cpu, run.slowdown) * 1e3
            for run in runs
            for wall, cpu in run.value.block_seconds
        ]
    )
    latency = [
        percentiles(
            [
                at_nominal(wall, cpu, run.slowdown) * 1e6
                for wall, cpu in zip(run.value.msg_seconds, run.value.msg_cpu)
            ]
        )
        + tick_percentiles(run.value.msg_turns)
        for run in runs
    ]
    names = ("msg_us_p50", "msg_us_p99", "msg_ticks_p50", "msg_ticks_p99")
    for i, name in enumerate(names):
        metrics[name] = statistics.median(figures[i] for figures in latency)
    return metrics


def counters(runs: List[Scenario]) -> Dict[str, float]:
    """The reports' counters: batch ratios, high-water marks, mean counts."""
    total: Dict[str, int] = {}
    for done in runs:
        for name, value in done.counters.items():
            total[name] = total.get(name, 0) + value
    metrics = {
        name: total[name] / len(runs)
        for name in (
            "live.resubmissions",
            "live.proxy_dropped",
            "live.proxy_duplicated",
            "live.proxy_reordered",
            "checkers.events",
        )
    }
    metrics["live.dgrams_per_recv_batch"] = (
        total["datagrams_received"] / total["recv_batches"]
    )
    metrics["live.dgrams_per_send_batch"] = (
        total["datagrams_sent"] / total["send_batches"]
    )
    for name in ("live.pool_high_water", "live.reseq_high_water"):
        metrics[name] = max(done.counters[name] for done in runs)
    return metrics


def measure(seed: int, seconds: float, trace: bool) -> Outcome:
    """Time probed scenarios; with ``trace``, rotate bare, probed and traced ones."""
    outcome = Outcome()
    warmup = scenarios(seed + 1, WARMUP_MESSAGES)
    setup = time_setup(IMPORTS, lambda: run_scenario(next(warmup)))
    if not trace:
        (runs,) = alternate([probed(seed)], seconds)
        judge(runs, outcome)
        outcome.metrics.update(end_to_end(runs))
        outcome.metrics["peak_rss_mb"] = peak_rss_mb()
        outcome.metrics["setup_s"] = setup
        outcome.notes.append(
            f"live_chaos: {len(runs)} scenarios x {MESSAGES} messages x {LANES} lanes"
        )
        outcome.notes.append(slowdown_note(runs))
        return outcome

    tracer = Tracer()
    plain, timed, spanned = alternate(
        [bare(seed), probed(seed), traced(seed, tracer)], seconds
    )
    judge(plain + timed + spanned, outcome)
    oks = sum(run.value.oks for run in spanned)
    slowdown = statistics.mean(run.slowdown for run in spanned)
    layer_seconds = 0.0
    for span, metric in LAYERS.items():
        layer_seconds += tracer.self_seconds(span)
        outcome.metrics[metric] = tracer.self_seconds(span) / slowdown / oks
    cpu = sum(run.value.cpu for run in spanned)
    outcome.metrics["live.residual_s"] = (cpu - layer_seconds) / slowdown / oks
    # Idle time waits on timers and sockets, not on the host's speed.
    wall = sum(run.value.wall for run in plain)
    cpu = sum(run.value.cpu for run in plain)
    outcome.metrics["live.cpu_busy"] = cpu / wall
    outcome.metrics["live.idle_s"] = (wall - cpu) / sum(run.value.oks for run in plain)
    outcome.metrics.update(counters([run.value for run in plain]))
    untraced = median_rate(_rates(plain))
    outcome.metrics["live.probe_overhead"] = median_rate(_rates(timed)) / untraced
    outcome.metrics["trace.overhead"] = median_rate(_rates(spanned)) / untraced
    outcome.notes.append(
        f"live_chaos: {len(plain)} bare, {len(timed)} probed and "
        f"{len(spanned)} traced scenarios x {MESSAGES} messages"
    )
    OUT.mkdir(exist_ok=True)
    tracer.dump(
        str(OUT / f"spans-live_chaos-{seed}.jsonl"),
        {"workload": "live_chaos", "seed": seed, "scenarios": len(spanned)},
    )
    return outcome
