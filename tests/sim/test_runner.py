"""Unit tests for run specs and single checked runs."""

from __future__ import annotations

import pytest

from repro.adversary.benign import ReliableAdversary
from repro.adversary.random_faults import FaultProfile, RandomFaultAdversary
from repro.core.exceptions import ConfigurationError
from repro.sim.runner import RunSpec, run_once
from repro.transport.fabric import FabricSpec


def spec(adversary_factory=ReliableAdversary, messages=5, **overrides):
    return RunSpec.default(
        epsilon=2.0 ** -16,
        adversary_factory=adversary_factory,
        messages=messages,
        **overrides,
    )


class TestRunOnce:
    def test_produces_checked_outcome(self):
        outcome = run_once(spec(), seed=1)
        assert outcome.result.completed
        assert outcome.safety.passed
        assert outcome.liveness_passed

    def test_seed_determinism(self):
        a = run_once(spec(), seed=5)
        b = run_once(spec(), seed=5)
        assert a.metrics.packets_sent == b.metrics.packets_sent
        assert a.result.steps == b.result.steps

    def test_different_seeds_decorrelate(self):
        adversary = lambda: RandomFaultAdversary(FaultProfile(loss=0.4))
        runs = [run_once(spec(adversary), seed=s) for s in range(6)]
        packet_counts = {r.metrics.packets_sent for r in runs}
        assert len(packet_counts) > 1


class TestRunSpec:
    def test_default_spec_shape(self):
        s = RunSpec.default()
        assert s.workload_factory(0).message_count == 20
        assert s.enforce_fairness

    def test_unknown_engine_rejected_at_construction(self):
        # A misspelt engine fails the spec, not every run built from it.
        with pytest.raises(ValueError, match="engine must be"):
            RunSpec.default(engine="kernal")

    @pytest.mark.parametrize(
        "overrides",
        [
            {"retain": "most"},
            {"retain": "tail", "tail_size": 0},
            {"retry_every": 0},
            {"max_steps": 0},
            {"fairness_patience": 0},
            {"stabilization": True, "stabilization_window": 0},
        ],
        ids=["retain", "tail_size", "retry_every", "max_steps",
             "fairness_patience", "stabilization_window"],
    )
    def test_values_every_run_rejects_fail_the_spec(self, overrides):
        # The spec raises what a run built from it would raise, so a
        # campaign fails before it schedules (and retries) a single run.
        with pytest.raises((ConfigurationError, ValueError)) as spec_error:
            RunSpec.default(messages=1, **overrides)
        unchecked = RunSpec.default(messages=1)
        for name, value in overrides.items():
            setattr(unchecked, name, value)
        with pytest.raises(type(spec_error.value)) as run_error:
            run_once(unchecked, seed=1)
        assert str(run_error.value) == str(spec_error.value)

    def test_values_no_run_reads_are_accepted(self):
        for overrides in (
            {"retain": "none", "tail_size": 0},
            {"enforce_fairness": False, "fairness_patience": 0},
            {"stabilization": False, "stabilization_window": 0},
        ):
            accepted = RunSpec.default(messages=1, **overrides)
            assert run_once(accepted, seed=1).result.completed

    def test_fabric_spec_rejects_unknown_engine_alike(self):
        # One check serves both specs: same exception, same message.
        with pytest.raises(ValueError) as link_error:
            RunSpec.default(engine="kernal")
        with pytest.raises(ValueError) as fabric_error:
            FabricSpec(engine="kernal")
        assert str(fabric_error.value) == str(link_error.value)

    def test_specs_default_to_the_kernel(self):
        assert RunSpec.default().engine == "kernel"
        assert FabricSpec().engine == "kernel"

    @pytest.mark.parametrize("engine", ["object", "kernel"])
    def test_known_engines_accepted(self, engine):
        accepted = spec(engine=engine)
        assert accepted.engine == engine
        assert run_once(accepted, seed=1).result.completed
