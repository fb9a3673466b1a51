"""The relay sweep's connectivity columns: R and efficiency."""

from __future__ import annotations

import pytest

from repro.resilience.relay_sweep import RelaySweepConfig, run_relay_sweep
from repro.resilience.supervisor import CampaignConfig

_CAMPAIGN = CampaignConfig(jobs=1)


@pytest.fixture(scope="module")
def sweep():
    config = RelaySweepConfig(
        topologies=("ring", "mesh"), fail_rates=(0.0, 0.05), runs=2,
        messages=6, window=4,
    )
    return run_relay_sweep(config, campaign=_CAMPAIGN)


def test_reliability_at_the_stationary_up_probability(sweep):
    # repair_rate 0.2 and fail_rate 0.05 keep each link up 80% of ticks.
    r = {(c.topology, c.fail_rate): c.reliability for c in sweep.cells}
    assert r["ring", 0.0] == 1.0
    assert r["ring", 0.05] == pytest.approx(1 - (1 - 0.8 ** 3) ** 2)
    assert r["mesh", 0.05] == pytest.approx(0.869502, abs=1e-6)


def test_efficiency_against_the_fault_free_cell(sweep):
    free, faulty = sweep.cells[0], sweep.cells[1]
    assert sweep.efficiency(free) == pytest.approx(1.0)
    assert sweep.efficiency(faulty) == pytest.approx(
        free.ticks_p50 / faulty.reliability / faulty.ticks_p50
    )


def test_markdown_carries_both_columns(sweep):
    header, _, *rows = sweep.to_markdown().splitlines()
    columns = [c.strip() for c in header.strip("|").split("|")]
    assert columns[8:10] == ["R", "efficiency"]
    first = [c.strip() for c in rows[0].strip("|").split("|")]
    assert first[8:10] == ["1.000", "1.00"]


def test_no_fault_free_cell_prints_a_dash():
    config = RelaySweepConfig(
        topologies=("line",), fail_rates=(0.05,), runs=1, messages=4,
        window=4,
    )
    result = run_relay_sweep(config, campaign=_CAMPAIGN)
    cell = result.cells[0]
    assert cell.reliability == pytest.approx(0.8 ** 4)
    assert result.efficiency(cell) is None
    row = result.to_markdown().splitlines()[2]
    assert [c.strip() for c in row.strip("|").split("|")][8:10] == ["0.410", "-"]
