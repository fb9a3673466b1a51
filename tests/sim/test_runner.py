"""Unit tests for the Monte-Carlo runner and aggregation."""

from __future__ import annotations

import pytest

from repro.adversary.benign import ReliableAdversary
from repro.adversary.random_faults import FaultProfile, RandomFaultAdversary
from repro.sim.runner import RunSpec, monte_carlo, run_once
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


class TestMonteCarlo:
    def test_aggregates_runs(self):
        result = monte_carlo(spec(), runs=5, base_seed=0)
        assert result.runs == 5
        assert len(result.outcomes) == 5
        assert result.completion_rate == 1.0

    def test_clean_protocol_has_zero_violation_rates(self):
        result = monte_carlo(spec(), runs=5)
        assert result.order_violation_rate.successes == 0
        assert result.duplication_violation_rate.successes == 0
        assert result.replay_violation_rate.successes == 0
        assert result.causality_violations == 0
        assert not result.any_safety_violation

    def test_trials_pool_across_runs(self):
        result = monte_carlo(spec(messages=4), runs=5)
        assert result.order_violation_rate.trials == 20  # 4 msgs x 5 runs

    def test_packet_metric(self):
        result = monte_carlo(spec(), runs=3)
        assert 2.0 <= result.mean_packets_per_message <= 4.0

    def test_storage_metric(self):
        result = monte_carlo(spec(), runs=3)
        assert result.mean_storage_peak_bits > 0

    def test_loss_increases_cost(self):
        costs = [
            monte_carlo(
                spec(lambda: RandomFaultAdversary(FaultProfile(loss=loss))),
                runs=3,
                base_seed=index,
            ).mean_packets_per_message
            for index, loss in enumerate((0.0, 0.5))
        ]
        assert costs[1] > costs[0]

    def test_rejects_zero_runs(self):
        with pytest.raises(ValueError):
            monte_carlo(spec(), runs=0)

    def test_default_spec_shape(self):
        s = RunSpec.default()
        assert s.workload_factory(0).message_count == 20
        assert s.enforce_fairness

    def test_unknown_engine_rejected_at_construction(self):
        # A misspelt engine fails the spec, not every run built from it.
        with pytest.raises(ValueError, match="engine must be"):
            RunSpec.default(engine="kernal")

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
