"""Reusable experiment drivers.

Two workload shapes of the paper's evaluation that are not scenario-spec
traffic patterns: checkpoint a sample of a running fleet (Fig 12), and
pause part of a fleet to free CPU.  Boot storms run as specs through
:func:`repro.stdlib.run_scenario`.
"""

from __future__ import annotations

import dataclasses
import typing

from ..guests.images import GuestImage
from .host import Host
from .hostspec import HostSpec, XEON_E5_1630


@dataclasses.dataclass
class CheckpointSweepResult:
    """Mean save/restore times at each fleet-size point."""

    variant: str
    points: typing.List[int]
    save_ms: typing.List[float]
    restore_ms: typing.List[float]


def checkpoint_sweep(variant: str, image: GuestImage,
                     points: typing.Sequence[int],
                     samples_per_point: int = 10,
                     spec: HostSpec = XEON_E5_1630,
                     seed: int = 0) -> CheckpointSweepResult:
    """Grow a fleet to each point and checkpoint a random sample (the
    Fig 12 procedure)."""
    host = Host(spec=spec, variant=variant, seed=seed,
                pool_target=max(points) + 32,
                shell_memory_kb=image.memory_kb)
    host.warmup(25.0 * (max(points) + 32))
    pick = host.rng.stream("checkpoint-sweep")
    fleet = []
    save_series, restore_series = [], []
    for target in points:
        while host.running_guests < target:
            config = host.config_for(image)
            fleet.append((host.create_vm(config).domain, config))
        saves, restores = [], []
        for _ in range(samples_per_point):
            domain, config = fleet.pop(pick.randrange(len(fleet)))
            t0 = host.sim.now
            saved = host.save_vm(domain, config)
            saves.append(host.sim.now - t0)
            t0 = host.sim.now
            fleet.append((host.restore_vm(saved), config))
            restores.append(host.sim.now - t0)
        save_series.append(sum(saves) / len(saves))
        restore_series.append(sum(restores) / len(restores))
    return CheckpointSweepResult(variant=variant, points=list(points),
                                 save_ms=save_series,
                                 restore_ms=restore_series)


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
