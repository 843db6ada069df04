"""Reusable experiment drivers.

A workload shape of the paper's evaluation that is not a scenario-spec
traffic pattern: pause part of a fleet to free CPU.  Boot storms run as
specs through :func:`repro.stdlib.run_scenario`.
"""

from __future__ import annotations

import dataclasses

from ..guests.images import GuestImage
from .host import Host
from .hostspec import HostSpec, XEON_E5_1630


@dataclasses.dataclass
class PauseDensityResult:
    """Effect of freezing part of a fleet (§2's pause requirement)."""

    fleet: int
    paused: int
    utilization_before: float
    utilization_after: float
    boot_before_ms: float
    boot_after_ms: float


def pause_density(image: GuestImage, fleet: int, pause_fraction: float,
                  spec: HostSpec = XEON_E5_1630,
                  seed: int = 0) -> PauseDensityResult:
    """Boot a fleet, freeze a fraction of it, and measure what that buys:
    lower host CPU utilization and faster boots for newcomers."""
    if not 0.0 <= pause_fraction <= 1.0:
        raise ValueError("pause_fraction must be in [0, 1]")
    host = Host(spec=spec, variant="lightvm", seed=seed,
                pool_target=fleet + 8, shell_memory_kb=image.memory_kb)
    host.warmup(20.0 * (fleet + 8))
    domains = [host.create_vm(image).domain for _ in range(fleet)]
    utilization_before = host.cpu_utilization()
    boot_before = host.create_vm(image).boot_ms

    to_pause = domains[:int(fleet * pause_fraction)]
    for domain in to_pause:
        host.pause_vm(domain)
    utilization_after = host.cpu_utilization()
    boot_after = host.create_vm(image).boot_ms
    return PauseDensityResult(fleet=fleet, paused=len(to_pause),
                              utilization_before=utilization_before,
                              utilization_after=utilization_after,
                              boot_before_ms=boot_before,
                              boot_after_ms=boot_after)
