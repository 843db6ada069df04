"""Tests for the reusable workload drivers."""

import pytest

from repro.core.workloads import pause_density
from repro.guests import TINYX


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
