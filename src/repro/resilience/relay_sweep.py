"""``fail_rate × topology`` sweep campaigns over the relay fabric.

The paper's end-to-end setting is the protocol running between the source
and destination of a faulty network (Section 1); the Markov
:class:`~repro.transport.network.LinkState` machinery models each link's
failure process.  This module lights up that axis: a grid of
``(topology, fail_rate)`` cells, each driven through the batched campaign
engine (:func:`~repro.resilience.supervisor.run_campaign`) so timeouts,
retries, sharded dispatch and forensics all apply per cell.

Each cell reports delivery rate (messages delivered over messages
submitted, pooled over runs), completion and CLEAN rates, convergence
percentiles (p50/p99 fabric ticks to stream completion, over completed
runs), and the split drop accounting (``dropped_overflow`` vs
``dropped_down``).  Beside them it sets the connectivity yardstick: R,
the exact source–destination reliability at the links' stationary
up-probability (:mod:`repro.analysis.reliability`), and the efficiency
(fault-free ticks p50 ÷ R) ÷ ticks p50, which reads 1 when a stream is
slowed by no more than the share of ticks its network is cut.
:meth:`RelaySweepResult.render` prints the grid;
:meth:`RelaySweepResult.to_markdown` emits the EXPERIMENTS.md table.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Tuple

from repro.analysis.reliability import (
    MAX_LINKS,
    reliability,
    stationary_up_probability,
)
from repro.core.exceptions import ConfigurationError
from repro.resilience.supervisor import (
    CampaignConfig,
    CampaignResult,
    run_campaign,
)
from repro.transport.fabric import FabricSpec
from repro.util.stats import percentile
from repro.util.tables import render_table

__all__ = [
    "RelaySweepConfig",
    "SweepCell",
    "RelaySweepResult",
    "run_relay_sweep",
]

#: Default grid: every topology the fabric builds, from fault-free up to
#: link failure rates where delivery visibly degrades.
_DEFAULT_TOPOLOGIES: Tuple[str, ...] = ("line", "ring", "mesh")
_DEFAULT_FAIL_RATES: Tuple[float, ...] = (0.0, 0.01, 0.05, 0.1)
_DEFAULT_SIZES: Dict[str, int] = {"line": 4, "ring": 6, "mesh": 3}


@dataclass(frozen=True)
class RelaySweepConfig:
    """The sweep grid plus the per-cell fabric parameters."""

    topologies: Tuple[str, ...] = _DEFAULT_TOPOLOGIES
    fail_rates: Tuple[float, ...] = _DEFAULT_FAIL_RATES
    sizes: Optional[Dict[str, int]] = None  # topology -> size; defaults apply
    runs: int = 10
    base_seed: int = 0
    messages: int = 40
    window: int = 8
    steps_per_tick: int = 4
    max_ticks: int = 20_000
    engine: str = "kernel"
    paths: int = 1

    def __post_init__(self) -> None:
        if not self.topologies:
            raise ConfigurationError("sweep needs at least one topology")
        if not self.fail_rates:
            raise ConfigurationError("sweep needs at least one fail_rate")
        for rate in self.fail_rates:
            if not 0.0 <= rate < 1.0:
                raise ConfigurationError(
                    f"fail_rate must be in [0, 1), got {rate!r}"
                )
        if self.runs < 1:
            raise ConfigurationError("runs must be >= 1")

    def size_for(self, topology: str) -> int:
        if self.sizes and topology in self.sizes:
            return self.sizes[topology]
        return _DEFAULT_SIZES.get(topology, 4)

    def spec_for(self, topology: str, fail_rate: float) -> FabricSpec:
        """The per-cell spec (validation happens in FabricSpec itself)."""
        return FabricSpec(
            topology=topology,
            size=self.size_for(topology),
            messages=self.messages,
            window=self.window,
            steps_per_tick=self.steps_per_tick,
            max_ticks=self.max_ticks,
            fail_rate=fail_rate,
            engine=self.engine,
            paths=self.paths,
            label=f"{topology}@{fail_rate:g}",
        )


@dataclass(frozen=True)
class SweepCell:
    """One ``(topology, fail_rate)`` grid point's pooled campaign summary."""

    topology: str
    size: int
    fail_rate: float
    runs: int
    delivery_rate: float  # pooled delivered / submitted over data runs
    completion_rate: float  # fraction of data runs that finished the stream
    clean_rate: float  # fraction of runs with an OK (CLEAN) verdict
    ticks_p50: float  # median fabric ticks to completion (completed runs)
    ticks_p99: float  # tail fabric ticks to completion (completed runs)
    dropped_overflow: int
    dropped_down: int
    # R at the links' stationary up-probability; None past MAX_LINKS links.
    reliability: Optional[float]

    @classmethod
    def from_campaign(cls, spec: FabricSpec, result: CampaignResult) -> "SweepCell":
        submitted = delivered = 0
        for report in result.data_reports:
            if report.metrics is not None:
                submitted += report.metrics.messages_submitted
                delivered += report.metrics.messages_delivered
        completed_ticks = [
            float(r.steps) for r in result.data_reports if r.completed
        ]
        ok_runs = sum(
            1
            for r in result.reports
            if r.status.value == "ok" and r.liveness_passed
        )
        network = spec.build_network()
        connectivity = None
        if network.edge_count <= MAX_LINKS:
            connectivity = reliability(
                network,
                stationary_up_probability(spec.fail_rate, spec.repair_rate),
            )
        return cls(
            topology=spec.topology,
            size=spec.size,
            fail_rate=spec.fail_rate,
            runs=result.runs,
            delivery_rate=(delivered / submitted) if submitted else 0.0,
            completion_rate=result.completion_rate,
            clean_rate=ok_runs / result.runs if result.runs else 0.0,
            ticks_p50=percentile(completed_ticks, 0.50),
            ticks_p99=percentile(completed_ticks, 0.99),
            dropped_overflow=result.dropped_overflow,
            dropped_down=result.dropped_down,
            reliability=connectivity,
        )


_HEADERS = [
    "topology",
    "fail_rate",
    "runs",
    "delivery",
    "completion",
    "clean",
    "ticks p50",
    "ticks p99",
    "R",
    "efficiency",
    "drop ovf",
    "drop down",
]


def _cell_row(cell: SweepCell, efficiency: Optional[float]) -> List[object]:
    return [
        f"{cell.topology}-{cell.size}",
        f"{cell.fail_rate:g}",
        cell.runs,
        f"{cell.delivery_rate:.1%}",
        f"{cell.completion_rate:.1%}",
        f"{cell.clean_rate:.1%}",
        f"{cell.ticks_p50:.0f}",
        f"{cell.ticks_p99:.0f}",
        "-" if cell.reliability is None else f"{cell.reliability:.3f}",
        "-" if efficiency is None else f"{efficiency:.2f}",
        cell.dropped_overflow,
        cell.dropped_down,
    ]


@dataclass(frozen=True)
class RelaySweepResult:
    """Every cell of one sweep, in grid order (topology-major)."""

    config: RelaySweepConfig
    cells: Tuple[SweepCell, ...]
    wall_seconds: float = 0.0
    campaigns: Tuple[CampaignResult, ...] = field(repr=False, default=())

    def efficiency(self, cell: SweepCell) -> Optional[float]:
        """(fault-free ticks p50 ÷ R) ÷ ticks p50 for ``cell``, or None when
        the grid has no fault-free cell of its topology with a p50 to
        compare, when R is unknown, or when no run of ``cell`` completed."""
        if not cell.reliability or not cell.ticks_p50:
            return None
        for free in self.cells:
            if (
                free.topology == cell.topology
                and free.fail_rate == 0.0
                and free.ticks_p50
            ):
                return free.ticks_p50 / cell.reliability / cell.ticks_p50
        return None

    def _rows(self) -> List[List[object]]:
        return [_cell_row(cell, self.efficiency(cell)) for cell in self.cells]

    def render(self) -> str:
        """The sweep grid as one aligned table."""
        table = render_table(
            _HEADERS,
            self._rows(),
            title=(
                f"relay sweep ({self.config.engine} engine, "
                f"{self.config.runs} runs/cell, "
                f"{self.config.messages} messages/run)"
            ),
        )
        return f"{table}\nsweep wall time: {self.wall_seconds:.1f}s"

    def to_markdown(self) -> str:
        """A GitHub-flavoured markdown table (EXPERIMENTS.md format)."""
        lines = [
            "| " + " | ".join(_HEADERS) + " |",
            "|" + "|".join("---" for _ in _HEADERS) + "|",
        ]
        for row in self._rows():
            lines.append("| " + " | ".join(str(v) for v in row) + " |")
        return "\n".join(lines)


def run_relay_sweep(
    config: Optional[RelaySweepConfig] = None,
    campaign: Optional[CampaignConfig] = None,
    keep_campaigns: bool = False,
) -> RelaySweepResult:
    """Drive every grid cell through the batched campaign engine.

    Cell seeds are offset so no two cells share a seed sequence
    (``base_seed + cell_index * runs``); within a cell the campaign's own
    per-run seed derivation applies.  ``keep_campaigns`` retains each
    cell's full :class:`CampaignResult` for callers that want per-run
    forensics; the summary cells are always built.
    """
    from time import monotonic

    config = config or RelaySweepConfig()
    campaign = campaign or CampaignConfig()
    cells: List[SweepCell] = []
    results: List[CampaignResult] = []
    started = monotonic()
    index = 0
    for topology in config.topologies:
        for fail_rate in config.fail_rates:
            spec = config.spec_for(topology, fail_rate)
            result = run_campaign(
                spec,
                runs=config.runs,
                base_seed=config.base_seed + index * config.runs,
                config=campaign,
            )
            cells.append(SweepCell.from_campaign(spec, result))
            if keep_campaigns:
                results.append(result)
            index += 1
    return RelaySweepResult(
        config=config,
        cells=tuple(cells),
        wall_seconds=monotonic() - started,
        campaigns=tuple(results),
    )
