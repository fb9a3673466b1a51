"""Simulation harness: the operational composition ``D(A, ADV)``."""

from repro.sim.metrics import MetricsCollector, SimulationMetrics
from repro.sim.runner import RunOutcome, RunSpec, run_once
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
    "RandomPayloadWorkload",
    "RunOutcome",
    "RunSpec",
    "SequentialWorkload",
    "SimulationMetrics",
    "SimulationResult",
    "Simulator",
    "Workload",
    "run_once",
]
