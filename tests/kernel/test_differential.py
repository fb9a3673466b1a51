"""Differential pinning: kernel engine == object engine, event for event.

Every test runs the same spec under the same seed on both engines and
requires the two executions to be *identical*: the full trace (under
``retain="full"`` every event of the run is recorded), the Section 2.6
verdicts, the frozen metrics (minus wall-clock fields), the stations'
final state, the channels' counters, the adversary's bookkeeping, and the
stations' RNG tape positions.  The zoo spans the model's whole fault
vocabulary — reliable FIFO, random loss/duplication/reordering, station
crashes, scripted drop/dup/stall/crash/corrupt plans, arbitrary-state
corruption with the stabilization monitor attached — plus both fairness
settings and truncated (max_steps-bounded) runs.
"""

from collections import deque

import pytest

from repro.adversary.base import (
    PASS,
    Adversary,
    Corrupt,
    Move,
    TriggerRetry,
    make_deliver,
)
from repro.adversary.benign import DelayedFifoAdversary, ReliableAdversary
from repro.adversary.composite import MixtureAdversary, PhasedAdversary
from repro.adversary.corruption import StateCorruptionAdversary
from repro.adversary.crash import CrashStormAdversary
from repro.adversary.fairness import StallingAdversary
from repro.adversary.random_faults import (
    DuplicateFloodAdversary,
    FaultProfile,
    RandomFaultAdversary,
    ReorderAdversary,
)
from repro.adversary.replay import ReplayAttacker
from repro.baselines import (
    make_abp_link,
    make_naive_handshake_link,
    make_nonvolatile_bit_link,
    make_stop_and_wait_link,
)
from repro.checkers.streaming import StreamingChecks
from repro.core.events import ChannelId
from repro.core.exceptions import (
    ConfigurationError,
    SimulationError,
    UnknownPacketError,
)
from repro.core.protocol import make_data_link
from repro.core.random_source import split_seed
from repro.resilience.faultplan import (
    CorruptAt,
    CrashAt,
    DropWindow,
    DuplicateBurst,
    FaultPlan,
    StallWindow,
    apply_fault_plan,
)
from repro.sim.runner import RunOutcome, RunSpec, run_once
from repro.sim.simulator import Simulator
from repro.sim.workload import SequentialWorkload

SEEDS = [0, 1, 7, 42, 1234]
ENGINES = ("object", "kernel")


def build_spec(adversary_factory, engine, **overrides):
    options = dict(
        epsilon=2.0 ** -8,
        adversary_factory=adversary_factory,
        messages=25,
        retain="full",
        max_steps=60_000,
        engine=engine,
    )
    options.update(overrides)
    plan = options.pop("fault_plan", None)
    spec = RunSpec.default(**options)
    if plan is not None:
        spec = apply_fault_plan(spec, plan)
    return spec


def metrics_key(metrics):
    """Everything deterministic in the frozen metrics (wall-clock excluded)."""
    wire = metrics.to_wire()
    return wire[:16] + wire[18:] + (tuple(metrics.storage_samples),)


def stabilization_key(report):
    if report is None:
        return None
    return (
        report.corruptions,
        report.converged,
        report.window,
        tuple(
            (r.station, tuple(r.fields), r.seed, r.events, r.datagrams)
            for r in report.records
        ),
    )


def safety_key(safety):
    return tuple(
        (r.condition, r.passed, r.failure_count, r.trials)
        for r in safety.all_reports
    )


def assert_equivalent(adversary_factory, seed, **overrides):
    object_outcome = run_once(
        build_spec(adversary_factory, "object", **overrides), seed
    )
    obj = snapshot(object_outcome)
    kernel_outcome = run_once(
        build_spec(adversary_factory, "kernel", **overrides), seed
    )
    ker = snapshot(kernel_outcome)
    assert obj["events"] == ker["events"]
    for key in obj:
        assert obj[key] == ker[key], f"engines diverge on {key}"


def snapshot(outcome):
    """Extract every deterministic observable of one finished run."""
    result = outcome.result
    link = result.link
    t, r = link.transmitter, link.receiver
    adversary = result.adversary
    adv_state = {
        "moves_made": adversary.moves_made,
        "type": type(adversary).__name__,
    }
    for name in ("forced_deliveries", "dropped", "duplicated",
                 "crashes_injected", "redeliveries"):
        if hasattr(adversary, name):
            adv_state[name] = getattr(adversary, name)
    inner = getattr(adversary, "inner", None)
    if inner is not None:
        adv_state["inner_type"] = type(inner).__name__
        adv_state["inner_moves"] = inner.moves_made
        for name in ("dropped", "duplicated", "crashes_injected"):
            if hasattr(inner, name):
                adv_state["inner_" + name] = getattr(inner, name)
    trace = result.trace
    return {
        "events": list(trace.events),
        "counts": (trace.packets_sent(), trace.packets_delivered(),
                   trace.retries(), trace.ok_count(), trace.crash_count()),
        "completed": result.completed,
        "steps": result.steps,
        "metrics": metrics_key(result.metrics),
        "safety": safety_key(outcome.safety),
        "liveness": outcome.liveness_passed,
        "stabilization": stabilization_key(outcome.stabilization),
        "transmitter": repr(t),
        "receiver": repr(r),
        "t_bits_drawn": t._rng.bits_drawn,
        "r_bits_drawn": r._rng.bits_drawn,
        "t_stats": vars(t.stats).copy(),
        "r_stats": vars(r.stats).copy(),
        "adversary": adv_state,
    }


class TestReliable:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_fair_reliable(self, seed):
        assert_equivalent(ReliableAdversary, seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bare_reliable(self, seed):
        assert_equivalent(ReliableAdversary, seed, enforce_fairness=False)

    def test_truncated_run(self):
        # max_steps exhaustion: both engines stop mid-flight identically.
        assert_equivalent(ReliableAdversary, 3, max_steps=37)

    def test_single_step_budget(self):
        assert_equivalent(ReliableAdversary, 5, max_steps=1)

    def test_empty_workload(self):
        assert_equivalent(ReliableAdversary, 9, messages=0)


class TestRandomFaults:
    @pytest.mark.parametrize("seed", SEEDS)
    def test_lossy(self, seed):
        factory = lambda: RandomFaultAdversary(
            FaultProfile(loss=0.15, duplicate=0.1)
        )
        assert_equivalent(factory, seed)

    @pytest.mark.parametrize("seed", SEEDS)
    def test_every_fault_class(self, seed):
        factory = lambda: RandomFaultAdversary(
            FaultProfile(
                loss=0.2, duplicate=0.1, reorder=0.15,
                crash_t=0.002, crash_r=0.002,
            )
        )
        assert_equivalent(factory, seed, max_steps=30_000)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_high_loss_low_patience_forces_deliveries(self, seed):
        # Dropped packets linger in the enforcer's pending sets, so a high
        # loss rate plus a short patience exercises forced (resurrected)
        # deliveries on both engines.
        factory = lambda: RandomFaultAdversary(FaultProfile(loss=0.5))
        assert_equivalent(factory, seed, fairness_patience=4)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_bare_random(self, seed):
        factory = lambda: RandomFaultAdversary(
            FaultProfile(loss=0.1, duplicate=0.15, reorder=0.1)
        )
        assert_equivalent(factory, seed, enforce_fairness=False)


class _Nudge(TriggerRetry):
    """A Move subclass: both engines must resolve it as TriggerRetry."""


class _OwnNextMove(Adversary):
    """FIFO adversary that overrides ``next_move`` itself, so the engines
    must call it instead of ``_decide`` (``Simulator._adversary_decide``
    is None); every fifth move schedules a RETRY through a Move subclass."""

    def __init__(self):
        super().__init__()
        self._pending = deque()

    def on_new_pkt(self, info):
        self._pending.append(info)

    def next_move(self):
        self._moves_made += 1
        if self._moves_made % 5 == 0:
            return _Nudge()
        return self._decide()

    def _decide(self):
        if self._pending:
            info = self._pending.popleft()
            return make_deliver(info.channel, info.packet_id)
        return PASS


#: Generic adversaries beyond the ones pinned case by case below.
GENERIC_ZOO = {
    # The Section 3 crash-then-replay attack; it schedules TriggerRetry.
    "replay": lambda: ReplayAttacker(
        harvest_messages=8, replay_rounds=2, polls_between_replays=1
    ),
    "crash-storm": lambda: CrashStormAdversary(crash_rate=0.02, max_crashes=6),
    "phased": lambda: PhasedAdversary([
        (DelayedFifoAdversary(delay_turns=2), 60),
        (RandomFaultAdversary(FaultProfile(loss=0.1, duplicate=0.1)), 0),
    ]),
    "mixture": lambda: MixtureAdversary([
        (ReliableAdversary(), 3.0),
        (ReorderAdversary(window=4), 1.0),
    ]),
    "own-next-move": _OwnNextMove,
}


class TestGenericAdversaries:
    @pytest.mark.parametrize("seed", SEEDS[:3])
    @pytest.mark.parametrize("fair", [True, False], ids=["fair", "bare"])
    @pytest.mark.parametrize("name", list(GENERIC_ZOO))
    def test_generic_zoo(self, name, fair, seed):
        assert_equivalent(
            GENERIC_ZOO[name], seed, enforce_fairness=fair, max_steps=20_000
        )

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_stalling_under_enforcer(self, seed):
        assert_equivalent(StallingAdversary, seed, messages=8)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_delayed_fifo(self, seed):
        assert_equivalent(lambda: DelayedFifoAdversary(delay_turns=3), seed)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_reorder(self, seed):
        assert_equivalent(lambda: ReorderAdversary(window=8), seed)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_duplicate_flood(self, seed):
        assert_equivalent(
            lambda: DuplicateFloodAdversary(flood=0.4), seed, messages=10
        )


class TestFaultPlans:
    """Scripted drop/dup/stall/crash/corrupt plans (the zoo of ISSUE 7)."""

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_drop_window(self, seed):
        plan = FaultPlan.of(
            DropWindow(start=5, end=25),
            DropWindow(start=40, end=55, channel="T->R"),
        )
        assert_equivalent(ReliableAdversary, seed, fault_plan=plan)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_duplicate_burst(self, seed):
        plan = FaultPlan.of(
            DuplicateBurst(step=12, copies=3, spacing=1),
            DuplicateBurst(step=30, copies=2, spacing=7),
        )
        assert_equivalent(ReliableAdversary, seed, fault_plan=plan)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_stall_window(self, seed):
        plan = FaultPlan.of(StallWindow(start=10, end=80))
        assert_equivalent(
            ReliableAdversary, seed, fault_plan=plan, fairness_patience=16
        )

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_crashes(self, seed):
        plan = FaultPlan.of(
            CrashAt(step=15, station="T"),
            CrashAt(step=45, station="R"),
        )
        assert_equivalent(ReliableAdversary, seed, fault_plan=plan)

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_corrupt_scramble_and_wipe(self, seed):
        plan = FaultPlan.of(
            CorruptAt(step=12, station="T", seed=401),
            CorruptAt(step=28, station="R", seed=402),
            CorruptAt(step=44, station="T", seed=403, mode="wipe"),
            CorruptAt(step=60, station="R", fields=("tau", "rho"), seed=404),
        )
        assert_equivalent(
            ReliableAdversary, seed, fault_plan=plan, stabilization=True
        )

    def test_combined_plan_over_lossy_inner(self):
        plan = FaultPlan.of(
            DropWindow(start=8, end=20),
            CrashAt(step=33, station="T"),
            DuplicateBurst(step=50, copies=2, spacing=3),
            StallWindow(start=70, end=90),
            CorruptAt(step=110, station="R", seed=77),
        )
        factory = lambda: RandomFaultAdversary(
            FaultProfile(loss=0.1, duplicate=0.05)
        )
        assert_equivalent(factory, 21, fault_plan=plan, stabilization=True)


class TestStateCorruption:
    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_random_corruption_with_stabilization(self, seed):
        factory = lambda: StateCorruptionAdversary(rate_t=0.01, rate_r=0.01)
        assert_equivalent(
            factory, seed, stabilization=True, max_steps=30_000
        )

    def test_wipe_mode(self):
        factory = lambda: StateCorruptionAdversary(
            rate_t=0.005, rate_r=0.005, wipe=True
        )
        assert_equivalent(factory, 2, stabilization=True, max_steps=30_000)


def streaming_snapshot(outcome):
    """Observables available under ``retain="none"`` (no stored events)."""
    result = outcome.result
    link = result.link
    t, r = link.transmitter, link.receiver
    trace = result.trace
    checks = result.checks
    return {
        "counts": (trace.packets_sent(), trace.packets_delivered(),
                   trace.retries(), trace.ok_count(), trace.crash_count()),
        "total_events": trace.total_events,
        "events_seen": checks.events_seen,
        "completed": result.completed,
        "steps": result.steps,
        "metrics": metrics_key(result.metrics),
        "safety": safety_key(outcome.safety),
        "liveness": outcome.liveness_passed,
        "stabilization": stabilization_key(outcome.stabilization),
        "axioms": None if checks.axiom1 is None else tuple(
            (r.condition, r.passed, r.failure_count, r.trials)
            for r in checks.axiom_reports()
        ),
        "timed_samples": checks._timed_samples,
        "transmitter": repr(t),
        "receiver": repr(r),
        "t_bits_drawn": t._rng.bits_drawn,
        "r_bits_drawn": r._rng.bits_drawn,
        "t_stats": vars(t.stats).copy(),
        "r_stats": vars(r.stats).copy(),
    }


def run_with_axioms(spec, seed):
    """``run_once`` with the environment-axiom monitors on (RunSpec has no
    switch for them), so the axiom-3 monitor observes packet events."""
    checks = StreamingChecks(timed=True, axioms=True)
    simulator = Simulator(
        link=spec.link_factory(split_seed(seed, "link")),
        adversary=spec.adversary_factory(),
        workload=spec.workload_factory(split_seed(seed, "workload")),
        seed=split_seed(seed, "adversary"),
        max_steps=spec.max_steps,
        retain=spec.retain,
        checks=checks,
        engine=spec.engine,
    )
    result = simulator.run()
    return RunOutcome(
        seed=seed,
        result=result,
        safety=checks.safety_report(),
        liveness_passed=checks.liveness_report(result.completed).passed,
    )


def assert_streaming_equivalent(adversary_factory, seed, run=run_once,
                                **overrides):
    overrides.setdefault("retain", "none")
    obj = streaming_snapshot(
        run(build_spec(adversary_factory, "object", **overrides), seed)
    )
    ker = streaming_snapshot(
        run(build_spec(adversary_factory, "kernel", **overrides), seed)
    )
    assert obj == ker


class TestStreamingFastPath:
    """retain="none" runs take the kernel's direct checker-dispatch path;
    the settled trace/checker counters must match the object engine's."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_fair_reliable_none_retention(self, seed):
        obj = streaming_snapshot(
            run_once(build_spec(ReliableAdversary, "object", retain="none"),
                     seed)
        )
        ker = streaming_snapshot(
            run_once(build_spec(ReliableAdversary, "kernel", retain="none"),
                     seed)
        )
        assert obj == ker

    @pytest.mark.parametrize("seed", SEEDS)
    def test_lossy_none_retention(self, seed):
        factory = lambda: RandomFaultAdversary(
            FaultProfile(loss=0.2, duplicate=0.1, crash_t=0.001,
                         crash_r=0.001)
        )
        obj = streaming_snapshot(
            run_once(build_spec(factory, "object", retain="none",
                                max_steps=30_000), seed)
        )
        ker = streaming_snapshot(
            run_once(build_spec(factory, "kernel", retain="none",
                                max_steps=30_000), seed)
        )
        assert obj == ker

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_bare_random_none_retention(self, seed):
        factory = lambda: RandomFaultAdversary(
            FaultProfile(loss=0.1, reorder=0.1, duplicate=0.05)
        )
        obj = streaming_snapshot(
            run_once(build_spec(factory, "object", retain="none",
                                enforce_fairness=False), seed)
        )
        ker = streaming_snapshot(
            run_once(build_spec(factory, "kernel", retain="none",
                                enforce_fairness=False), seed)
        )
        assert obj == ker


class TestStreamingFastPathRecordedPackets:
    """retain="none" runs whose monitors observe packet events (the
    stabilization and axiom-3 monitors): PktSent/PktDelivered reach the
    handlers through the kernel's direct dispatch too."""

    @pytest.mark.parametrize("seed", SEEDS)
    def test_lossy_stabilization(self, seed):
        factory = lambda: RandomFaultAdversary(
            FaultProfile(loss=0.2, duplicate=0.05, reorder=0.1,
                         crash_t=0.002, crash_r=0.002)
        )
        assert_streaming_equivalent(
            factory, seed, stabilization=True, max_steps=30_000
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_bare_random_stabilization(self, seed):
        factory = lambda: RandomFaultAdversary(
            FaultProfile(loss=0.1, reorder=0.1, duplicate=0.05)
        )
        assert_streaming_equivalent(
            factory, seed, stabilization=True, enforce_fairness=False
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_reliable_stabilization(self, seed):
        assert_streaming_equivalent(
            ReliableAdversary, seed, stabilization=True
        )

    @pytest.mark.parametrize("seed", SEEDS)
    def test_lossy_axioms(self, seed):
        factory = lambda: RandomFaultAdversary(
            FaultProfile(loss=0.2, duplicate=0.1, crash_t=0.001,
                         crash_r=0.001)
        )
        assert_streaming_equivalent(
            factory, seed, run=run_with_axioms, max_steps=30_000
        )


class TestVeneerSync:
    """The kernel must leave the object graph exactly as the object engine
    does — a second (object-engine) inspection pass sees the same world."""

    def test_channel_state_synced(self):
        spec_obj = build_spec(ReliableAdversary, "object")
        spec_ker = build_spec(ReliableAdversary, "kernel")
        out_obj = run_once(spec_obj, 11)
        out_ker = run_once(spec_ker, 11)
        sim_channels = {}
        for label, outcome in (("object", out_obj), ("kernel", out_ker)):
            link = outcome.result.link
            sim_channels[label] = (
                link.transmitter.storage_bits,
                link.receiver.storage_bits,
                link.total_storage_bits(),
            )
        assert sim_channels["object"] == sim_channels["kernel"]

    @pytest.mark.parametrize("seed", SEEDS[:3])
    @pytest.mark.parametrize("name", ["reliable", "lossy", "delayed-fifo",
                                      "replay"])
    def test_channel_contents_synced(self, name, seed):
        # Packet ids, every stored packet and the counters, read through
        # the Channel API after the run (kernel stores stay parked flat).
        factory = {
            "reliable": ReliableAdversary,
            "lossy": lambda: RandomFaultAdversary(
                FaultProfile(loss=0.2, duplicate=0.1, reorder=0.1)
            ),
            "delayed-fifo": lambda: DelayedFifoAdversary(delay_turns=3),
            "replay": GENERIC_ZOO["replay"],
        }[name]
        contents = [
            channel_contents(run_simulator(build_spec(factory, engine), seed))
            for engine in ENGINES
        ]
        assert contents[0] == contents[1]

    def test_kernel_engine_rejected_values(self):
        with pytest.raises(ValueError):
            run_once(build_spec(ReliableAdversary, "vectorized"), 0)
        run_once(build_spec(ReliableAdversary, "kernel"), 0)


def run_simulator(spec, seed):
    """Run the spec's simulator as ``run_once`` would build it; return it."""
    simulator = Simulator(
        link=spec.link_factory(split_seed(seed, "link")),
        adversary=spec.adversary_factory(),
        workload=spec.workload_factory(split_seed(seed, "workload")),
        seed=split_seed(seed, "adversary"),
        max_steps=spec.max_steps,
        enforce_fairness=spec.enforce_fairness,
        retain=spec.retain,
        engine=spec.engine,
    )
    simulator.run()
    return simulator


def channel_contents(simulator):
    contents = []
    for channel in (simulator.channels.t_to_r, simulator.channels.r_to_t):
        ids = channel.all_packet_ids()
        contents.append((
            ids,
            [channel.peek(pid) for pid in ids],
            [channel.packet_length_bits(pid) for pid in ids],
            channel.sent_count,
            channel.delivered_count,
            channel.bits_sent,
        ))
    return contents


class _Fixed(Adversary):
    """Makes the same move every turn."""

    def __init__(self, move):
        super().__init__()
        self._move = move

    def _decide(self):
        return self._move


class TestMoveErrors:
    """Moves the object engine rejects fail the same way on the kernel."""

    @pytest.mark.parametrize("move, error", [
        (make_deliver(ChannelId.T_TO_R, -1), UnknownPacketError),
        (make_deliver(ChannelId.R_TO_T, -3), UnknownPacketError),
        (make_deliver(ChannelId.R_TO_T, 10 ** 6), UnknownPacketError),
        (make_deliver(ChannelId.T_TO_R, None), UnknownPacketError),
        (Move(), SimulationError),
        (Corrupt(station="X"), SimulationError),
        (Corrupt(station="X", wipe=True), SimulationError),
    ], ids=["neg-t2r", "neg-r2t", "unissued", "none", "bare-move",
            "corrupt-station", "wipe-station"])
    def test_same_error(self, move, error):
        raised = []
        for engine in ENGINES:
            simulator = Simulator(
                make_data_link(epsilon=2.0 ** -8, seed=3),
                _Fixed(move),
                SequentialWorkload(3),
                seed=3,
                enforce_fairness=False,
                engine=engine,
            )
            with pytest.raises(error) as info:
                simulator.run()
            raised.append((str(info.value), simulator.steps_taken))
        assert raised[0] == raised[1]


class TestStationGuard:
    """The kernel mirrors only the GHM stations, and says so up front."""

    @pytest.mark.parametrize("make_link", [
        make_abp_link, make_stop_and_wait_link, make_nonvolatile_bit_link,
    ], ids=["abp", "stop-and-wait", "nonvolatile-bit"])
    def test_baseline_stations_rejected(self, make_link):
        link = make_link()
        simulator = Simulator(
            link, ReliableAdversary(), SequentialWorkload(5), seed=0,
            engine="kernel",
        )
        with pytest.raises(ConfigurationError) as info:
            simulator.run()
        assert type(link.transmitter).__name__ in str(info.value)
        assert type(link.receiver).__name__ in str(info.value)
        assert simulator.steps_taken == 0

    def test_station_subclass_rejected(self):
        # The kernel never calls station methods, so a subclass would run
        # the stock transitions silently; it must be refused instead.
        link = make_data_link(epsilon=2.0 ** -8, seed=0)
        base = type(link.receiver)
        link.receiver.__class__ = type("PatchedReceiver", (base,), {})
        simulator = Simulator(
            link, ReliableAdversary(), SequentialWorkload(5), seed=0,
            engine="kernel",
        )
        with pytest.raises(ConfigurationError, match="PatchedReceiver"):
            simulator.run()

    @pytest.mark.parametrize("seed", SEEDS[:3])
    def test_naive_handshake_runs_identically(self, seed):
        # GHM stations under FixedPolicy: same classes, other parameters.
        snapshots = []
        for engine in ENGINES:
            spec = build_spec(
                lambda: RandomFaultAdversary(FaultProfile(loss=0.1)), engine
            )
            spec.link_factory = lambda s: make_naive_handshake_link(
                nonce_bits=8, seed=s
            )
            snapshots.append(snapshot(run_once(spec, seed)))
        assert snapshots[0] == snapshots[1]
