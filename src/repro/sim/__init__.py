"""Simulation harness: the operational composition ``D(A, ADV)``."""

from repro.sim.metrics import MetricsCollector, SimulationMetrics
from repro.sim.runner import (
    MonteCarloResult,
    RunOutcome,
    RunSpec,
    monte_carlo,
    run_once,
)
from repro.sim.simulator import SimulationResult, Simulator
from repro.sim.workload import (
    ExplicitWorkload,
    RandomPayloadWorkload,
    SequentialWorkload,
    Workload,
)

__all__ = [
    "ExplicitWorkload",
    "MetricsCollector",
    "MonteCarloResult",
    "RandomPayloadWorkload",
    "RunOutcome",
    "RunSpec",
    "SequentialWorkload",
    "SimulationMetrics",
    "SimulationResult",
    "Simulator",
    "Workload",
    "monte_carlo",
    "run_once",
]
