"""Single-link runs: the spec, one checked run, and run seeds.

The probabilistic conditions of Section 2.6 are statements about
distributions over executions; estimating them takes many independent runs
with fresh random tapes.  A :class:`RunSpec` describes one run, and
:func:`run_once` executes and checks it; a :class:`RunSession` executes
many runs of one spec on a recycled harness.  Batches go through
:func:`~repro.resilience.supervisor.run_campaign` (in process or in worker
processes), whose :class:`~repro.resilience.supervisor.CampaignResult`
pools every run's Bernoulli trials per condition (with Wilson intervals):
the figures experiments E1, E3, E4, E7 and E8 read.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Optional

from repro.adversary.base import Adversary
from repro.checkers.report import SafetyReport
from repro.checkers.streaming import StreamingChecks
from repro.checkers.trace import check_retention
from repro.core.protocol import DataLink, make_data_link
from repro.core.random_source import split_seed
from repro.sim.metrics import SimulationMetrics
from repro.sim.simulator import SimulationResult, Simulator, check_engine
from repro.sim.workload import SequentialWorkload, Workload

__all__ = [
    "RunSpec",
    "RunOutcome",
    "RunSession",
    "derive_run_seed",
    "run_once",
]


def derive_run_seed(base_seed: int, index: int, attempt: int) -> int:
    """The seed of one run of a batch: a pure function of its coordinates.

    Every execution path — the in-process campaign loop and sharded pool
    workers alike — derives run seeds through this one function, which is
    what makes their per-seed verdicts bit-identical regardless of
    scheduling.  Retries get fresh tapes via ``attempt`` without
    perturbing any other run's seed.
    """
    return split_seed(base_seed, "campaign-run", index, attempt)


@dataclass
class RunSpec:
    """Everything needed to launch one independent simulation.

    Factories (rather than instances) are stored so every run gets fresh,
    independently seeded components.
    """

    link_factory: Callable[[int], DataLink]
    adversary_factory: Callable[[], Adversary]
    workload_factory: Callable[[int], Workload] = (
        lambda seed: SequentialWorkload(20)
    )
    retry_every: int = 4
    max_steps: int = 100_000
    enforce_fairness: bool = True
    fairness_patience: int = 32
    label: str = ""
    retain: str = "full"
    tail_size: int = 256
    # Self-stabilizing mode: attach the convergence monitor so Section 2.6
    # accounting is suspended during corruption probation windows.
    stabilization: bool = False
    stabilization_window: int = 8
    # Execution engine, one of repro.sim.simulator.ENGINES: "kernel" (the
    # flat step kernel) or "object" (the reference loop it is pinned to;
    # identical executions, several times slower, and the one that runs
    # non-GHM stations).
    engine: str = "kernel"

    def __post_init__(self) -> None:
        # Reject here, with the run's own message, what every run built
        # from this spec would reject, so a campaign fails before it starts.
        check_engine(self.engine)
        check_retention(self.retain, self.tail_size)
        for name in ("retry_every", "max_steps"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.enforce_fairness and self.fairness_patience < 1:
            raise ValueError("patience must be >= 1")
        if self.stabilization and self.stabilization_window < 1:
            raise ValueError("window must be >= 1")

    @classmethod
    def default(
        cls,
        epsilon: float = 2.0 ** -16,
        adversary_factory: Callable[[], Adversary] = None,
        messages: int = 20,
        **overrides,
    ) -> "RunSpec":
        """Convenience spec: standard link + sequential workload."""
        if adversary_factory is None:
            from repro.adversary.benign import ReliableAdversary

            adversary_factory = ReliableAdversary
        return cls(
            link_factory=lambda seed: make_data_link(epsilon=epsilon, seed=seed),
            adversary_factory=adversary_factory,
            workload_factory=lambda seed: SequentialWorkload(messages),
            **overrides,
        )


@dataclass
class RunOutcome:
    """One run's simulation result plus its checker verdicts.

    ``stabilization`` is the convergence summary (a
    :class:`~repro.checkers.stabilization.StabilizationReport`) when the
    spec ran with ``stabilization=True``, else None.
    """

    seed: int
    result: SimulationResult
    safety: SafetyReport
    liveness_passed: bool
    stabilization: Optional[object] = None

    @property
    def metrics(self) -> SimulationMetrics:
        return self.result.metrics


class RunSession:
    """A reusable harness executing many runs of one spec, one at a time.

    The first :meth:`run` builds the simulator and its streaming checker
    suite; subsequent calls recycle them via :meth:`Simulator.reset`, which
    skips the object construction and observer wiring that dominates short
    runs.  Component seeds are derived exactly as a fresh :func:`run_once`
    would derive them (``split_seed(seed, "link"/"workload"/"adversary")``),
    so a session's outcomes are bit-identical to per-run construction —
    the shard-determinism and reset property tests pin this down.

    A session is single-threaded and yields *live* results: the trace and
    checker objects inside the returned :class:`RunOutcome` are reused by
    the next :meth:`run`.  Callers that keep outcomes (rather than
    extracting summaries immediately) should use :func:`run_once`.
    """

    def __init__(self, spec: RunSpec) -> None:
        self.spec = spec
        self._simulator: Optional[Simulator] = None
        self._checks: Optional[StreamingChecks] = None

    def invalidate(self) -> None:
        """Discard the recycled harness; the next run rebuilds from scratch."""
        self._simulator = None
        self._checks = None

    def run(
        self,
        seed: int,
        adversary_factory: Optional[Callable[[], Adversary]] = None,
    ) -> RunOutcome:
        """Execute one run of the spec under ``seed`` and check it.

        ``adversary_factory`` overrides the spec's factory for this run
        only — the hook the campaign supervisor uses to inject per-run
        scripted fault plans without rebuilding specs or sessions.
        """
        spec = self.spec
        factory = adversary_factory if adversary_factory is not None else (
            spec.adversary_factory
        )
        link = spec.link_factory(split_seed(seed, "link"))
        adversary = factory()
        workload = spec.workload_factory(split_seed(seed, "workload"))
        simulator = self._simulator
        try:
            if simulator is None:
                self._checks = checks = StreamingChecks(
                    timed=True,
                    stabilization=spec.stabilization,
                    stabilization_window=spec.stabilization_window,
                )
                self._simulator = simulator = Simulator(
                    link=link,
                    adversary=adversary,
                    workload=workload,
                    seed=split_seed(seed, "adversary"),
                    retry_every=spec.retry_every,
                    max_steps=spec.max_steps,
                    enforce_fairness=spec.enforce_fairness,
                    fairness_patience=spec.fairness_patience,
                    retain=spec.retain,
                    tail_size=spec.tail_size,
                    checks=checks,
                    engine=spec.engine,
                )
            else:
                checks = self._checks
                simulator.reset(
                    link, adversary, workload, seed=split_seed(seed, "adversary")
                )
            result = simulator.run()
        except BaseException:
            # The run died mid-flight (timeout alarm, injected abort,
            # harness exception) and left the simulator mid-execution;
            # drop it so the next run rebuilds clean.
            self.invalidate()
            raise
        stabilization = None
        if checks.stabilization is not None:
            # Close any open probation episode before reading verdicts: a
            # cleanly drained run converged by definition, a truncated one
            # keeps its probation violations.
            checks.stabilization.finalize(result.completed)
            stabilization = checks.stabilization.summary()
        safety = checks.safety_report()
        liveness = checks.liveness_report(run_completed=result.completed)
        return RunOutcome(
            seed=seed,
            result=result,
            safety=safety,
            liveness_passed=liveness.passed,
            stabilization=stabilization,
        )


def run_once(spec: RunSpec, seed: int) -> RunOutcome:
    """Execute one independent run of the spec and check its execution.

    The Section 2.6 conditions are evaluated by online monitors riding the
    recording pass (see :class:`~repro.checkers.StreamingChecks`), so the
    verdicts are available whatever the spec's trace retention mode — no
    post-hoc rescans of the trace.  (One-shot form of :class:`RunSession`;
    the returned outcome owns its trace and checkers.)
    """
    return RunSession(spec).run(seed)
