"""Monte-Carlo experiment runner.

The probabilistic conditions of Section 2.6 are statements about
distributions over executions; estimating them takes many independent runs
with fresh random tapes.  :func:`monte_carlo` repeats a configurable run
specification across seeds, evaluates every safety checker on every trace,
and aggregates Bernoulli estimates (with Wilson intervals) per condition —
the raw material for experiments E1, E3 and E6.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable, List, Optional, Tuple

from repro.adversary.base import Adversary
from repro.checkers.report import SafetyReport
from repro.checkers.streaming import StreamingChecks
from repro.core.protocol import DataLink, make_data_link
from repro.core.random_source import split_seed
from repro.sim.metrics import SimulationMetrics
from repro.sim.simulator import SimulationResult, Simulator, check_engine
from repro.sim.workload import SequentialWorkload, Workload
from repro.util.stats import BernoulliEstimate, wilson_interval

__all__ = [
    "RunSpec",
    "RunOutcome",
    "RunSession",
    "MonteCarloResult",
    "derive_run_seed",
    "run_once",
    "monte_carlo",
]


def derive_run_seed(base_seed: int, index: int, attempt: int) -> int:
    """The seed of one run of a batch: a pure function of its coordinates.

    Every execution path — serial :func:`monte_carlo`, the in-process
    campaign loop, and sharded pool workers — derives run seeds through
    this one function, which is what makes their per-seed verdicts
    bit-identical regardless of scheduling.  Retries get fresh tapes via
    ``attempt`` without perturbing any other run's seed.
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
    # Execution engine: "object" (classic loop) or "kernel" (flat
    # slot-indexed step kernel; identical executions, several times faster).
    engine: str = "object"

    def __post_init__(self) -> None:
        check_engine(self.engine)

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


@dataclass
class MonteCarloResult:
    """Aggregated verdicts across many independent runs.

    The per-condition estimates are over *trials*, not runs: e.g. the order
    estimate pools every OK'd message of every run as one Bernoulli trial,
    matching the theorem's per-message quantification.
    """

    spec: RunSpec
    runs: int
    outcomes: List[RunOutcome] = field(repr=False, default_factory=list)

    def _pool(self, picker: Callable[[SafetyReport], Tuple[int, int]]) -> BernoulliEstimate:
        failures = 0
        trials = 0
        for outcome in self.outcomes:
            f, t = picker(outcome.safety)
            failures += f
            trials += t
        return wilson_interval(failures, trials)

    @property
    def order_violation_rate(self) -> BernoulliEstimate:
        """Per-OK'd-message rate of Theorem 3 (order) violations."""
        return self._pool(lambda s: (s.order.failure_count, s.order.trials))

    @property
    def duplication_violation_rate(self) -> BernoulliEstimate:
        """Per-delivery rate of Theorem 8 (no duplication) violations."""
        return self._pool(
            lambda s: (s.no_duplication.failure_count, s.no_duplication.trials)
        )

    @property
    def replay_violation_rate(self) -> BernoulliEstimate:
        """Per-delivery rate of Theorem 7 (no replay) violations."""
        return self._pool(lambda s: (s.no_replay.failure_count, s.no_replay.trials))

    @property
    def causality_violations(self) -> int:
        """Absolute count — Theorem 1 allows exactly zero."""
        return sum(o.safety.causality.failure_count for o in self.outcomes)

    @property
    def completion_rate(self) -> float:
        """Fraction of runs that finished their workload within budget."""
        if not self.outcomes:
            return 0.0
        return sum(1 for o in self.outcomes if o.result.completed) / len(self.outcomes)

    @property
    def any_safety_violation(self) -> bool:
        """True iff any run violated any safety condition."""
        return any(not o.safety.passed for o in self.outcomes)

    @property
    def mean_packets_per_message(self) -> float:
        """Mean over runs of packets-per-OK'd-message."""
        values = [
            o.metrics.per_message_packets
            for o in self.outcomes
            if o.metrics.messages_ok > 0
        ]
        return sum(values) / len(values) if values else float("inf")

    @property
    def mean_storage_peak_bits(self) -> float:
        """Mean over runs of the peak combined nonce footprint."""
        if not self.outcomes:
            return 0.0
        return sum(o.metrics.storage_peak_bits for o in self.outcomes) / len(
            self.outcomes
        )

    @property
    def steps_per_second(self) -> float:
        """Pooled simulation throughput: total steps over total wall time."""
        wall = sum(o.metrics.wall_seconds for o in self.outcomes)
        if wall <= 0.0:
            return 0.0
        return sum(o.metrics.steps for o in self.outcomes) / wall

    @property
    def events_per_second(self) -> float:
        """Pooled recording throughput: total events over total wall time."""
        wall = sum(o.metrics.wall_seconds for o in self.outcomes)
        if wall <= 0.0:
            return 0.0
        return sum(o.metrics.events_recorded for o in self.outcomes) / wall

    @property
    def checker_overhead_ratio(self) -> float:
        """Pooled share of wall time spent in the online checkers."""
        wall = sum(o.metrics.wall_seconds for o in self.outcomes)
        if wall <= 0.0:
            return 0.0
        return sum(o.metrics.checker_seconds for o in self.outcomes) / wall


def monte_carlo(spec: RunSpec, runs: int, base_seed: int = 0) -> MonteCarloResult:
    """Run ``runs`` independent simulations of ``spec`` serially and aggregate.

    Every outcome is kept, so the result pools per-condition trials across
    runs.  Run seeds come from :func:`derive_run_seed`, as in
    :func:`~repro.resilience.supervisor.run_campaign`, which runs the same
    spec in worker processes (with timeouts and retries) and reaches the
    same per-seed verdicts.
    """
    if runs < 1:
        raise ValueError("runs must be >= 1")
    # Fresh objects per run (not a RunSession): MonteCarloResult keeps every
    # outcome alive, so their traces must not share one recycled simulator.
    outcomes = [run_once(spec, derive_run_seed(base_seed, i, 0)) for i in range(runs)]
    return MonteCarloResult(spec=spec, runs=runs, outcomes=outcomes)
