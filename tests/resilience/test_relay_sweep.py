"""The fail_rate × topology sweep over the relay fabric."""

from __future__ import annotations

import pytest

from repro.core.exceptions import ConfigurationError
from repro.resilience.relay_sweep import RelaySweepConfig, run_relay_sweep
from repro.resilience.supervisor import CampaignConfig

# Small grid, in-process campaign pool: fast enough for tier-1.
_SMALL = RelaySweepConfig(
    topologies=("line", "ring"),
    fail_rates=(0.0, 0.05),
    runs=3,
    messages=8,
    window=4,
)
_CAMPAIGN = CampaignConfig(jobs=1)


@pytest.fixture(scope="module")
def small_sweep():
    return run_relay_sweep(_SMALL, campaign=_CAMPAIGN)


class TestConfig:
    def test_empty_grid_rejected(self):
        with pytest.raises(ConfigurationError):
            RelaySweepConfig(topologies=())
        with pytest.raises(ConfigurationError):
            RelaySweepConfig(fail_rates=())

    def test_bad_fail_rate_rejected(self):
        with pytest.raises(ConfigurationError):
            RelaySweepConfig(fail_rates=(1.5,))

    def test_runs_floor(self):
        with pytest.raises(ConfigurationError):
            RelaySweepConfig(runs=0)

    def test_spec_carries_engine_paths_and_label(self):
        config = RelaySweepConfig(engine="kernel", paths=2, sizes={"ring": 8})
        spec = config.spec_for("ring", 0.05)
        assert spec.engine == "kernel"
        assert spec.paths == 2
        assert spec.size == 8
        assert spec.label == "ring@0.05"


class TestSweep:
    def test_grid_order_and_shape(self, small_sweep):
        keys = [(c.topology, c.fail_rate) for c in small_sweep.cells]
        assert keys == [
            ("line", 0.0), ("line", 0.05), ("ring", 0.0), ("ring", 0.05),
        ]
        assert all(c.runs == 3 for c in small_sweep.cells)

    def test_fault_free_cells_deliver_everything(self, small_sweep):
        for cell in small_sweep.cells:
            if cell.fail_rate == 0.0:
                assert cell.delivery_rate == 1.0
                assert cell.completion_rate == 1.0
                assert cell.clean_rate == 1.0
                assert cell.dropped_down == 0

    def test_cell_fields_sane(self, small_sweep):
        for cell in small_sweep.cells:
            assert 0.0 <= cell.delivery_rate <= 1.0
            assert 0.0 <= cell.clean_rate <= 1.0
            assert cell.ticks_p50 <= cell.ticks_p99
            assert cell.dropped_overflow >= 0
            assert cell.dropped_down >= 0

    def test_deterministic(self, small_sweep):
        again = run_relay_sweep(_SMALL, campaign=_CAMPAIGN)
        assert again.cells == small_sweep.cells

    def test_render_and_markdown(self, small_sweep):
        rendered = small_sweep.render()
        assert "relay sweep" in rendered
        assert "line-4" in rendered
        markdown = small_sweep.to_markdown()
        lines = markdown.splitlines()
        # Header + separator + one row per cell.
        assert len(lines) == 2 + len(small_sweep.cells)
        assert lines[0].startswith("| topology |")

    def test_keep_campaigns(self):
        tiny = RelaySweepConfig(
            topologies=("line",), fail_rates=(0.0,), runs=2, messages=4
        )
        result = run_relay_sweep(tiny, campaign=_CAMPAIGN, keep_campaigns=True)
        assert len(result.campaigns) == 1
        assert result.campaigns[0].runs == 2

    def test_cells_use_distinct_seed_blocks(self, monkeypatch):
        # No two grid cells may replay the same seed sequence.
        import repro.resilience.relay_sweep as module

        seeds = []
        real = module.run_campaign

        def spy(spec, runs, base_seed, config):
            seeds.append(base_seed)
            return real(spec, runs=runs, base_seed=base_seed, config=config)

        monkeypatch.setattr(module, "run_campaign", spy)
        config = RelaySweepConfig(
            topologies=("line",), fail_rates=(0.0, 0.05), runs=3,
            messages=4, window=4, base_seed=100,
        )
        run_relay_sweep(config, campaign=_CAMPAIGN)
        assert seeds == [100, 103]
