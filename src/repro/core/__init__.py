"""LightVM core: host assembly, specs, metrics, workload drivers and the
§7 use cases."""

from .host import Host, VARIANTS
from .hostspec import (AMD_OPTERON_64, HostSpec, XEON_E5_1630,
                       XEON_E5_1630_2DOM0, XEON_E5_2690)
from .workloads import (CheckpointSweepResult, PauseDensityResult,
                        checkpoint_sweep, pause_density)

__all__ = [
    "AMD_OPTERON_64",
    "CheckpointSweepResult",
    "Host",
    "HostSpec",
    "PauseDensityResult",
    "VARIANTS",
    "XEON_E5_1630",
    "XEON_E5_1630_2DOM0",
    "XEON_E5_2690",
    "checkpoint_sweep",
    "pause_density",
]
