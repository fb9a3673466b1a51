"""Shared helpers for the experiment benchmarks.

Every benchmark regenerates one experiment from EXPERIMENTS.md (the
executable form of the paper's claims), prints its table, and asserts the
claim's *shape* — who wins, what is bounded by what, where the curve bends.
Run with::

    pytest benchmarks/ --benchmark-only -s
"""

from __future__ import annotations

from repro.resilience.supervisor import CampaignConfig, CampaignResult, run_campaign
from repro.sim.runner import RunSpec


def emit(table_text: str) -> None:
    """Print an experiment table (visible with pytest -s)."""
    print()
    print(table_text)
    print()


def campaign(spec: RunSpec, runs: int, base_seed: int) -> CampaignResult:
    """Pool ``runs`` seeded runs of ``spec``, every one of them with data.

    In process, so reports keep whole metrics (E4 reads the storage series
    the pool's wire format drops).  A run that crashed would drop out of
    every aggregate, so it fails the experiment instead.
    """
    result = run_campaign(spec, runs, base_seed, CampaignConfig(in_process=True))
    assert result.missing_data == 0, result.render()
    return result
