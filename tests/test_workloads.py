"""Tests for the reusable workload drivers."""

import pytest

from repro.core.workloads import checkpoint_sweep, pause_density
from repro.core.hostspec import XEON_E5_1630_2DOM0
from repro.guests import DAYTIME_UNIKERNEL, TINYX


class TestCheckpointSweep:
    def test_sweep_shape(self):
        result = checkpoint_sweep("lightvm", DAYTIME_UNIKERNEL,
                                  points=(5, 15), samples_per_point=3,
                                  spec=XEON_E5_1630_2DOM0)
        assert result.points == [5, 15]
        assert len(result.save_ms) == 2
        assert all(s > 0 for s in result.save_ms)
        assert all(r > 0 for r in result.restore_ms)

    def test_lightvm_flat_over_points(self):
        result = checkpoint_sweep("lightvm", DAYTIME_UNIKERNEL,
                                  points=(5, 25), samples_per_point=3,
                                  spec=XEON_E5_1630_2DOM0)
        assert result.save_ms[1] == pytest.approx(result.save_ms[0],
                                                  rel=0.3)


class TestPauseDensity:
    def test_pausing_releases_cpu(self):
        result = pause_density(TINYX, fleet=30, pause_fraction=0.5)
        assert result.paused == 15
        assert result.utilization_after < result.utilization_before

    def test_fraction_validation(self):
        with pytest.raises(ValueError):
            pause_density(TINYX, fleet=5, pause_fraction=1.5)

    def test_zero_fraction_noop(self):
        result = pause_density(TINYX, fleet=10, pause_fraction=0.0)
        assert result.paused == 0
