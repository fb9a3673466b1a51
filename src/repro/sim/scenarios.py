"""Named simulation scenarios: the paper's situations as a registry.

Examples, benchmarks and the CLI all need the same handful of situations —
"fault-free", "lossy link", "the Section 3 attack", "crash storm", and so
on.  This registry gives each a name, a description, and a factory, so a
user can run any of them with one call::

    from repro.sim.scenarios import get_scenario
    result = get_scenario("crash-storm").run(seed=7)

or from the shell::

    python -m repro scenario crash-storm --seed 7
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict, List

from repro.adversary.base import Adversary
from repro.adversary.benign import DelayedFifoAdversary, ReliableAdversary
from repro.adversary.crash import CrashStormAdversary
from repro.adversary.fairness import StallingAdversary
from repro.adversary.random_faults import (
    DuplicateFloodAdversary,
    FaultProfile,
    RandomFaultAdversary,
)
from repro.adversary.replay import ReplayAttacker
from repro.checkers.safety import SafetyReport, check_all_safety
from repro.core.protocol import make_data_link
from repro.sim.simulator import SimulationResult, Simulator
from repro.sim.workload import SequentialWorkload

__all__ = ["Scenario", "ScenarioResult", "get_scenario", "list_scenarios", "SCENARIOS"]


@dataclass
class ScenarioResult:
    """A scenario run plus its checker verdicts."""

    simulation: SimulationResult
    safety: SafetyReport

    @property
    def ok(self) -> bool:
        """Completed with all Section 2.6 conditions intact."""
        return self.simulation.completed and self.safety.passed


@dataclass(frozen=True)
class Scenario:
    """One named, reproducible simulation setup."""

    name: str
    description: str
    adversary_factory: Callable[[], Adversary]
    messages: int = 20
    epsilon: float = 2.0 ** -16
    max_steps: int = 100_000
    enforce_fairness: bool = True
    retry_every: int = 4

    def run(self, seed: int = 0) -> ScenarioResult:
        """Execute the scenario with fresh, seeded components."""
        link = make_data_link(epsilon=self.epsilon, seed=seed)
        simulator = Simulator(
            link,
            self.adversary_factory(),
            SequentialWorkload(self.messages),
            seed=seed,
            max_steps=self.max_steps,
            enforce_fairness=self.enforce_fairness,
            retry_every=self.retry_every,
        )
        result = simulator.run()
        return ScenarioResult(
            simulation=result, safety=check_all_safety(result.trace)
        )


SCENARIOS: Dict[str, Scenario] = {
    scenario.name: scenario
    for scenario in [
        Scenario(
            name="fault-free",
            description="Reliable FIFO channel: the three-packet handshake at its best.",
            adversary_factory=ReliableAdversary,
        ),
        Scenario(
            name="slow-link",
            description="FIFO with fixed propagation delay; no faults.",
            adversary_factory=lambda: DelayedFifoAdversary(delay_turns=8),
        ),
        Scenario(
            name="lossy",
            description="40% independent packet loss (FIFO otherwise).",
            adversary_factory=lambda: RandomFaultAdversary(FaultProfile(loss=0.4)),
            enforce_fairness=False,  # loss < 1 is fair by itself; keep FIFO
        ),
        Scenario(
            name="chaos",
            description=(
                "Everything at once: loss, duplication, reordering and "
                "random crashes of both stations."
            ),
            adversary_factory=lambda: RandomFaultAdversary(
                FaultProfile(
                    loss=0.3, duplicate=0.3, reorder=0.5,
                    crash_t=0.002, crash_r=0.002,
                )
            ),
        ),
        Scenario(
            name="duplicate-flood",
            description="Old data packets redelivered relentlessly (Theorems 7+8 pressure).",
            adversary_factory=lambda: DuplicateFloodAdversary(
                flood=0.8, flood_t_to_r_only=True
            ),
            # At flood f only (1-f) of adversary moves deliver fresh
            # packets; the poll cadence must stay below that capacity or
            # the queue diverges.
            retry_every=24,
        ),
        Scenario(
            name="replay-attack",
            description="The Section 3 crash-then-replay attack (oblivious).",
            adversary_factory=lambda: ReplayAttacker(
                harvest_messages=60, replay_rounds=5
            ),
            messages=180,
            epsilon=2.0 ** -12,
        ),
        Scenario(
            name="crash-storm",
            description="Random memory-erasing crashes of both stations.",
            adversary_factory=lambda: CrashStormAdversary(
                crash_rate=0.015, max_crashes=10
            ),
        ),
        Scenario(
            name="stalling",
            description=(
                "Pure denial of service under Axiom-3 enforcement: the "
                "slowest schedule a fair adversary can impose (Theorem 9)."
            ),
            adversary_factory=StallingAdversary,
            messages=8,
            max_steps=300_000,
        ),
    ]
}


def get_scenario(name: str) -> Scenario:
    """Look a scenario up by name; raises KeyError with the valid names."""
    try:
        return SCENARIOS[name]
    except KeyError:
        valid = ", ".join(sorted(SCENARIOS))
        raise KeyError(f"unknown scenario {name!r}; choose one of: {valid}") from None


def list_scenarios() -> List[Scenario]:
    """All registered scenarios, sorted by name."""
    return [SCENARIOS[name] for name in sorted(SCENARIOS)]
