"""Integration: crash-recovery scenarios (the point versus [LMF88]).

Deterministic crash schedules exercise every crash position the protocol
distinguishes: mid-handshake transmitter crash (message lost, no
corruption), mid-handshake receiver crash (message still delivered — the
τ_crash sentinel at work), idle crashes, and double crashes.
"""

from __future__ import annotations

import pytest

from repro.adversary.crash import CrashStormAdversary
from repro.checkers.safety import check_all_safety
from repro.core.events import CrashT, Ok, SendMsg
from repro.core.protocol import make_data_link
from repro.resilience.faultplan import CrashAt, FaultPlan, ScriptedAdversary
from repro.sim.simulator import Simulator
from repro.sim.workload import SequentialWorkload


def run(adversary, messages=10, seed=0, link_seed=None, max_steps=100_000):
    link = make_data_link(
        epsilon=2.0 ** -16, seed=link_seed if link_seed is not None else seed
    )
    sim = Simulator(
        link, adversary, SequentialWorkload(messages), seed=seed, max_steps=max_steps
    )
    return sim.run(), link


class TestSingleCrashes:
    @pytest.mark.parametrize("turn", [3, 7, 11, 23])
    def test_transmitter_crash_anywhere_is_safe(self, turn):
        result, __ = run(
            ScriptedAdversary(FaultPlan.of(CrashAt(step=turn + 1, station="T")))
        )
        assert result.completed
        assert check_all_safety(result.trace).passed

    @pytest.mark.parametrize("turn", [3, 7, 11, 23])
    def test_receiver_crash_anywhere_is_safe(self, turn):
        result, __ = run(
            ScriptedAdversary(FaultPlan.of(CrashAt(step=turn + 1, station="R")))
        )
        assert result.completed
        assert check_all_safety(result.trace).passed

    def test_transmitter_crash_loses_at_most_inflight_message(self):
        result, __ = run(
            ScriptedAdversary(FaultPlan.of(CrashAt(step=10, station="T"))),
            messages=10,
        )
        assert result.metrics.messages_ok >= 9

    def test_receiver_crash_loses_no_messages(self):
        # The paper's sentinel argument: after crash^R the receiver still
        # recognises the in-flight message as new.
        result, __ = run(
            ScriptedAdversary(FaultPlan.of(CrashAt(step=10, station="R"))),
            messages=10,
        )
        assert result.metrics.messages_ok == 10


class TestDoubleCrashes:
    def test_back_to_back_crashes(self):
        result, __ = run(
            ScriptedAdversary(
                FaultPlan.of(
                    CrashAt(step=10, station="T"), CrashAt(step=11, station="R")
                )
            )
        )
        assert result.completed
        assert check_all_safety(result.trace).passed

    def test_simultaneous_style_crash_storm(self):
        schedule = [CrashAt(step=step, station="T") for step in range(6, 80, 10)]
        schedule += [CrashAt(step=step, station="R") for step in range(9, 80, 10)]
        result, __ = run(ScriptedAdversary(FaultPlan.of(*schedule)), messages=12)
        assert check_all_safety(result.trace).passed
        assert result.completed


class TestMemoryErasure:
    def test_counters_reset_by_crash(self):
        result, link = run(
            ScriptedAdversary(
                FaultPlan.of(
                    CrashAt(step=31, station="T"), CrashAt(step=32, station="R")
                )
            )
        )
        assert result.completed
        # Post-run state reflects the last message only, not history.
        assert link.transmitter.generation == 1
        assert link.receiver.error_count == 0

    def test_storage_does_not_accumulate_across_crashes(self):
        adversary = CrashStormAdversary(crash_rate=0.01, max_crashes=20)
        result, link = run(adversary, messages=30, seed=5)
        # Fault-free steady state holds five size(1)-scale strings: the
        # transmitter's tau and remembered previous tau, the receiver's
        # rho, remembered previous rho, and last-accepted tau (plus the
        # tau'_crash marker bits).  Crashes must not inflate this.
        baseline = 5 * link.params.size(1) + 8
        assert result.metrics.storage_final_bits <= baseline

    def test_high_crash_rate_eventually_completes(self):
        adversary = CrashStormAdversary(crash_rate=0.02, max_crashes=40)
        result, __ = run(adversary, messages=15, seed=6, max_steps=300_000)
        assert result.completed
        assert check_all_safety(result.trace).passed


class TestCrashResolutionSemantics:
    def test_crashed_messages_are_crash_resolved(self):
        result, __ = run(
            ScriptedAdversary(FaultPlan.of(CrashAt(step=7, station="T"))),
            messages=8,
        )
        # Each send_msg stays pending until the OK or crash^T after it.
        outcomes = []
        for event in result.trace:
            if isinstance(event, SendMsg):
                outcomes.append("pending")
            elif outcomes and outcomes[-1] == "pending":
                if isinstance(event, Ok):
                    outcomes[-1] = "ok"
                elif isinstance(event, CrashT):
                    outcomes[-1] = "crash"
        resolutions = set(outcomes)
        assert "ok" in resolutions
        # Either the crash hit between messages (all ok) or one message
        # resolved by crash; never anything else.
        assert resolutions <= {"ok", "crash"}
