"""Integration-grade unit tests for the Simulator harness."""

from __future__ import annotations

import dataclasses

import pytest

from repro.adversary.benign import DelayedFifoAdversary, ReliableAdversary
from repro.adversary.crash import CrashStormAdversary
from repro.adversary.fairness import FairnessEnforcer, StallingAdversary
from repro.adversary.random_faults import (
    DuplicateFloodAdversary,
    FaultProfile,
    RandomFaultAdversary,
)
from repro.baselines.alternating_bit import make_abp_link
from repro.checkers.axioms import check_axiom1, check_axiom2, check_axiom3_bounded
from repro.checkers.safety import check_all_safety
from repro.core.events import Ok, PktDelivered, PktSent, ReceiveMsg, Retry, SendMsg
from repro.core.exceptions import ConfigurationError
from repro.core.protocol import make_data_link
from repro.resilience.faultplan import CrashAt, FaultPlan, ScriptedAdversary
from repro.sim.simulator import Simulator
from repro.sim.workload import SequentialWorkload


def run(adversary, messages=10, seed=1, link_seed=1, **kwargs):
    link = make_data_link(epsilon=2.0 ** -16, seed=link_seed)
    sim = Simulator(
        link, adversary, SequentialWorkload(messages), seed=seed, **kwargs
    )
    return sim.run()


class TestFaultFreeRuns:
    def test_completes(self):
        result = run(ReliableAdversary())
        assert result.completed
        assert result.all_messages_ok
        assert result.metrics.messages_ok == 10

    def test_in_order_delivery(self):
        result = run(ReliableAdversary())
        assert result.trace.received_messages() == result.trace.sent_messages()

    def test_event_interleaving_respects_axioms(self):
        result = run(ReliableAdversary())
        assert check_axiom1(result.trace).passed
        assert check_axiom2(result.trace).passed
        assert check_axiom3_bounded(result.trace, window=64).passed

    def test_packet_economy(self):
        # Steady state is two packets per message; the cold start adds a
        # few polls, so the average sits between 2 and 4.
        result = run(ReliableAdversary(), messages=50)
        assert 2.0 <= result.metrics.per_message_packets <= 4.0

    def test_deterministic_given_seeds(self):
        a = run(ReliableAdversary(), seed=3, link_seed=5)
        b = run(ReliableAdversary(), seed=3, link_seed=5)
        assert a.steps == b.steps
        assert list(a.trace) == list(b.trace)


class TestFaultyRuns:
    def test_loss_recovered_by_retransmission(self):
        adv = RandomFaultAdversary(FaultProfile(loss=0.4))
        result = run(adv, messages=20, seed=2)
        assert result.completed
        assert result.all_messages_ok

    def test_duplication_and_reorder_safe(self):
        adv = RandomFaultAdversary(FaultProfile(duplicate=0.4, reorder=0.6))
        result = run(adv, messages=20, seed=3)
        assert result.completed
        assert check_all_safety(result.trace).passed

    def test_heavy_everything(self):
        adv = RandomFaultAdversary(
            FaultProfile(loss=0.3, duplicate=0.3, reorder=0.5, crash_t=0.003, crash_r=0.003)
        )
        result = run(adv, messages=20, seed=4, max_steps=200_000)
        assert result.completed
        assert check_all_safety(result.trace).passed


class TestCrashHandling:
    def test_scheduled_transmitter_crash(self):
        adv = ScriptedAdversary(FaultPlan.of(CrashAt(step=11, station="T")))
        result = run(adv, messages=10, seed=5)
        assert result.completed
        assert result.metrics.crashes_t == 1
        # At most one message may be lost to the crash.
        assert result.metrics.messages_ok >= 9
        assert check_all_safety(result.trace).passed

    def test_scheduled_receiver_crash(self):
        adv = ScriptedAdversary(FaultPlan.of(CrashAt(step=11, station="R")))
        result = run(adv, messages=10, seed=6)
        assert result.completed
        assert result.metrics.crashes_r == 1
        assert check_all_safety(result.trace).passed

    def test_crash_storm_trace_consistency(self):
        storm = [
            CrashAt(step=i + 1, station="T" if i % 10 else "R")
            for i in range(5, 60, 5)
        ]
        adv = ScriptedAdversary(FaultPlan.of(*storm))
        result = run(adv, messages=10, seed=7, max_steps=100_000)
        report = check_all_safety(result.trace)
        assert report.causality.passed
        assert report.passed


class TestStallingAndFairness:
    def test_stalling_adversary_cannot_block_forever(self):
        result = run(StallingAdversary(), messages=5, seed=8, fairness_patience=8)
        assert result.completed

    def test_unenforced_stalling_blocks(self):
        result = run(
            StallingAdversary(),
            messages=1,
            seed=9,
            enforce_fairness=False,
            max_steps=2_000,
        )
        assert not result.completed
        assert result.metrics.messages_ok == 0

    def test_prewrapped_enforcer_not_double_wrapped(self):
        link = make_data_link(seed=1)
        wrapped = FairnessEnforcer(StallingAdversary(), patience=4)
        sim = Simulator(link, wrapped, SequentialWorkload(2), seed=1)
        result = sim.run()
        assert result.adversary is wrapped
        assert result.completed


class TestHarnessContract:
    def test_max_steps_bounds_run(self):
        result = run(StallingAdversary(), messages=1, enforce_fairness=False, max_steps=50)
        assert result.steps == 50

    def test_retry_cadence(self):
        result = run(ReliableAdversary(), messages=2, retry_every=2)
        assert result.trace.retries() >= result.steps // 2 - 1

    def test_validation(self):
        link = make_data_link(seed=1)
        with pytest.raises(ValueError):
            Simulator(link, ReliableAdversary(), SequentialWorkload(1), retry_every=0)
        with pytest.raises(ValueError):
            Simulator(link, ReliableAdversary(), SequentialWorkload(1), max_steps=0)

    def test_empty_workload_finishes_immediately(self):
        link = make_data_link(seed=1)
        sim = Simulator(link, ReliableAdversary(), SequentialWorkload(0), seed=1)
        result = sim.run()
        assert result.completed
        assert result.metrics.messages_submitted == 0
        # Zero messages, zero failures: vacuously ok (regression — this
        # used to demand messages_submitted > 0 and report False).
        assert result.all_messages_ok

    def test_trace_event_shape(self):
        result = run(ReliableAdversary(), messages=3)
        sends = result.trace.of_type(SendMsg)
        oks = result.trace.of_type(Ok)
        deliveries = result.trace.of_type(ReceiveMsg)
        assert len(sends) == len(oks) == len(deliveries) == 3

    def test_metrics_storage_samples_collected(self):
        result = run(ReliableAdversary(), messages=3)
        assert len(result.metrics.storage_samples) == result.steps
        assert result.metrics.storage_peak_bits >= max(result.metrics.storage_samples[:1] or [0])

    def test_kernel_is_the_default_engine(self):
        # The kernel refuses stations it has no flat mirror of, so a
        # baseline link run without naming an engine fails up front.
        sim = Simulator(make_abp_link(), ReliableAdversary(), SequentialWorkload(3))
        with pytest.raises(ConfigurationError, match="AbpTransmitter"):
            sim.run()
        assert sim.steps_taken == 0

    @pytest.mark.parametrize("engine", ["object", "kernel"])
    def test_late_subscriber_sees_packet_events(self, engine):
        # Subscribing after construction must still switch the run from
        # tallying packet/retry events to recording them.
        link = make_data_link(epsilon=2.0 ** -16, seed=1)
        sim = Simulator(
            link, ReliableAdversary(), SequentialWorkload(5), seed=1,
            retain="none", engine=engine,
        )
        seen = []
        sim.trace.subscribe(
            lambda index, event: seen.append((index, type(event))),
            types=(PktSent, PktDelivered, Retry),
        )
        result = sim.run()
        trace = result.trace
        assert trace.packets_sent() > 0
        assert sum(cls is PktSent for _, cls in seen) == trace.packets_sent()
        assert (
            sum(cls is PktDelivered for _, cls in seen)
            == trace.packets_delivered()
        )
        assert sum(cls is Retry for _, cls in seen) == trace.retries() > 0
        indexes = [index for index, _ in seen]
        assert indexes == sorted(set(indexes))
        assert indexes[-1] < trace.total_events


STEP_ADVERSARIES = {
    "reliable": ReliableAdversary,
    "random-fault": lambda: RandomFaultAdversary(
        FaultProfile(loss=0.3, duplicate=0.1, reorder=0.1, crash_t=0.01, crash_r=0.01)
    ),
    "delayed-fifo": lambda: DelayedFifoAdversary(delay_turns=3),
    "crash-storm": lambda: CrashStormAdversary(crash_rate=0.05),
    "duplicate-flood": lambda: DuplicateFloodAdversary(flood=0.5),
}


class TestStepMatchesRun:
    """Driving ``step()`` must replay the kernel's ``run()``, and ``run()``
    must finish an execution that ``step()`` began, on either engine.

    All three retention modes are covered: ``"full"`` samples storage every
    step, ``"tail"`` and ``"none"`` every 16 steps, and ``"tail"`` keeps a
    ring of the most recent events.
    """

    @staticmethod
    def build(name, seed, enforce_fairness, retain, engine):
        return Simulator(
            make_data_link(epsilon=2.0 ** -16, seed=seed),
            STEP_ADVERSARIES[name](),
            SequentialWorkload(20),
            seed=seed,
            enforce_fairness=enforce_fairness,
            max_steps=3_000,
            retain=retain,
            engine=engine,
        )

    @staticmethod
    def assert_same_run(got, expected, retain):
        assert got.steps == expected.steps
        assert got.completed == expected.completed
        if retain == "full":
            assert list(got.trace) == list(expected.trace)
        elif retain == "tail":
            assert got.trace.tail_events() == expected.trace.tail_events()
        assert dataclasses.replace(
            got.metrics, wall_seconds=0.0, checker_seconds=0.0
        ) == dataclasses.replace(
            expected.metrics, wall_seconds=0.0, checker_seconds=0.0
        )

    @pytest.mark.parametrize("retain", ["full", "tail", "none"])
    @pytest.mark.parametrize("enforce_fairness", [True, False])
    @pytest.mark.parametrize("name", sorted(STEP_ADVERSARIES))
    def test_step_reproduces_run(self, name, enforce_fairness, retain):
        for seed in range(5):
            expected = self.build(
                name, seed, enforce_fairness, retain, "kernel"
            ).run()
            sim = self.build(name, seed, enforce_fairness, retain, "object")
            while not sim.finished and sim.steps_taken < sim.max_steps:
                sim.step()
            steps = sim.steps_taken
            assert steps == expected.steps
            assert sim.finished == expected.completed
            # run() on a drained simulator takes no step; it only freezes
            # the result, metrics and storage samples included.
            stepped = sim.run()
            assert stepped.steps == steps
            self.assert_same_run(stepped, expected, retain)

    @pytest.mark.parametrize("engine", ["object", "kernel"])
    @pytest.mark.parametrize("retain", ["full", "tail", "none"])
    @pytest.mark.parametrize("name", sorted(STEP_ADVERSARIES))
    def test_run_finishes_stepped_run(self, name, retain, engine):
        # run() picks up the RETRY and storage countdowns where step() left
        # them; the kernel takes over the object loop's state mid-execution.
        for seed in range(3):
            for enforce_fairness in (True, False):
                expected = self.build(
                    name, seed, enforce_fairness, retain, "kernel"
                ).run()
                for prefix in (1, 7, 50):
                    sim = self.build(name, seed, enforce_fairness, retain, engine)
                    for _ in range(prefix):
                        sim.step()
                    assert not sim.finished
                    self.assert_same_run(sim.run(), expected, retain)
