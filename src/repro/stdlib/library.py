"""The built-in component library.

Concrete component types (host profiles, guest footprints, traffic
patterns, fault plans, placement policies, topologies) and the standard
instances every scenario spec can reference by ``name@version``.

Each type carries a ``build()`` hook that turns the declarative record
into the live object the runner needs (a :class:`~repro.core.host.Host`,
a :class:`~repro.guests.images.GuestImage`, a
:class:`~repro.faults.plan.FaultPlan`); pure-data components (traffic,
placement, topology) are consumed field-by-field when a spec is lowered
onto a single-host storm or a :class:`~repro.cluster.config.ClusterConfig`.
"""

from __future__ import annotations

import dataclasses
import typing

from ..core.hostspec import HOST_SPECS, HostSpec
from ..guests.catalog import CATALOG
from ..guests.images import GuestImage
from .components import Component, register


@dataclasses.dataclass(frozen=True)
class HostProfile(Component):
    """One machine + toolstack configuration.

    ``pooled`` selects the chaos shell-pool discipline the LightVM
    benchmarks use (pool pre-filled to ``guests + pool_slack`` shells,
    ``warmup_ms_per_shell`` simulated ms of pre-fill per shell); with
    ``pooled: false`` the host keeps its stock defaults — the Fig 4
    stock-Xen storms run that way.
    """

    kind: typing.ClassVar[str] = "host"

    spec: str = "xeon-e5-1630"
    variant: str = "lightvm"
    xenstore_workers: int = 1
    xenstore_batch: bool = False
    pooled: bool = True
    pool_slack: int = 64
    warmup_ms_per_shell: float = 20.0

    def host_spec(self) -> HostSpec:
        return HOST_SPECS[self.spec]

    def build(self, *, count: int, image: typing.Optional[GuestImage],
              sim=None, seed: int = 0, fault_plan=None):
        """Construct (and pre-warm) the host for a ``count``-guest run."""
        from ..core.host import Host
        kwargs: typing.Dict[str, object] = dict(
            spec=self.host_spec(), variant=self.variant, seed=seed,
            sim=sim, xenstore_workers=self.xenstore_workers,
            xenstore_batch=self.xenstore_batch, fault_plan=fault_plan)
        if self.pooled:
            kwargs["pool_target"] = count + self.pool_slack
            if image is not None:
                kwargs["shell_memory_kb"] = image.memory_kb
        host = Host(**kwargs)
        if self.pooled and self.warmup_ms_per_shell > 0:
            host.warmup(self.warmup_ms_per_shell
                        * (count + self.pool_slack))
        return host


@dataclasses.dataclass(frozen=True)
class GuestProfile(Component):
    """A guest footprint: a VM image from the catalogue, or one of the
    container/process baselines the paper compares against."""

    kind: typing.ClassVar[str] = "guest"

    #: Catalogue image name (``runtime == "vm"`` only).
    image: str = ""
    #: ``vm`` | ``container`` | ``process``.
    runtime: str = "vm"

    def build(self) -> GuestImage:
        if self.runtime != "vm":
            raise ValueError("guest %s has runtime %r, not a VM image"
                             % (self.ref(), self.runtime))
        return CATALOG[self.image]


@dataclasses.dataclass(frozen=True)
class TrafficPattern(Component):
    """How load arrives.

    Single-host storms read ``pattern`` plus the burst/churn knobs; the
    cluster lowering maps the arrival knobs onto
    :class:`~repro.cluster.config.ClusterConfig` fields
    (``create_spacing_ms``, ``request_gap_ms``, ``service_ms``).
    """

    kind: typing.ClassVar[str] = "traffic"

    #: ``boot-storm`` | ``bursty`` | ``open-loop`` | ``churn``.
    pattern: str = "boot-storm"
    #: Bursty storms: creates per burst / idle gap between bursts.
    burst_size: int = 16
    burst_gap_ms: float = 50.0
    #: Churn storms: live guests kept resident (oldest destroyed first).
    churn_working_set: int = 8
    #: Cluster create ramp: gap between consecutive create commands.
    create_spacing_ms: float = 3.0
    #: Open-loop request streams: mean inter-arrival gap / service time.
    request_gap_ms: float = 1.0
    service_ms: float = 0.5


@dataclasses.dataclass(frozen=True)
class FaultProfile(Component):
    """A named fault plan (rate, point pattern, recovery posture)."""

    kind: typing.ClassVar[str] = "faults"

    rate: float = 0.0
    points: str = "*"
    #: Attach the PR-6 recovery layer (watchdog, reaper, journal).
    recovery: bool = False

    def build(self, seed: int):
        """The per-run :class:`FaultPlan`, or ``None`` for rate 0."""
        if self.rate <= 0.0:
            return None
        from ..faults import FaultPlan
        return FaultPlan.uniform(self.rate, points=self.points, seed=seed)


@dataclasses.dataclass(frozen=True)
class PlacementProfile(Component):
    """Cluster placement policy."""

    kind: typing.ClassVar[str] = "placement"

    policy: str = "least-loaded"


@dataclasses.dataclass(frozen=True)
class TopologyProfile(Component):
    """Cluster interconnect: epoch window, latency floor, bandwidth."""

    kind: typing.ClassVar[str] = "topology"

    epoch_ms: float = 5.0
    net_latency_ms: float = 5.0
    net_bandwidth_mbps: float = 10000.0


#: Component kind -> dataclass type (the spec layer dispatches on this).
KINDS: typing.Dict[str, type] = {
    "host": HostProfile,
    "guest": GuestProfile,
    "traffic": TrafficPattern,
    "faults": FaultProfile,
    "placement": PlacementProfile,
    "topology": TopologyProfile,
}


# ----------------------------------------------------------------------
# Standard instances (version 1 of everything)
# ----------------------------------------------------------------------

#: One host profile per toolstack variant on the paper's 4-core Xeon —
#: the Fig 9 contenders.
for _variant in ("xl", "chaos+xs", "chaos+xs+split", "chaos+noxs",
                 "lightvm"):
    register(HostProfile(name=_variant, version=1, variant=_variant))

#: The 64-core AMD density machine (Fig 10): LightVM with the quicker
#: 12 ms/shell pre-fill the density benchmark uses.
register(HostProfile(name="lightvm-64core", version=1,
                     spec="amd-opteron-64", variant="lightvm",
                     warmup_ms_per_shell=12.0))

#: The PR-5 batched multi-worker control plane, as a distinct component
#: (the ablation configuration — never silently substituted for
#: ``lightvm@1``, which the Fig 10 gate pins to workers=1).
register(HostProfile(name="lightvm-batched", version=1,
                     variant="lightvm", xenstore_workers=4,
                     xenstore_batch=True))

#: Every catalogue image is a guest component at version 1: unikernel
#: (noop/daytime/...), Tinyx, and full-VM (debian) footprints.
for _name in sorted(CATALOG):
    register(GuestProfile(name=_name, version=1, image=_name))

#: The container and process baselines from Figs 4 and 10.
register(GuestProfile(name="docker", version=1, runtime="container"))
register(GuestProfile(name="process", version=1, runtime="process"))

#: Traffic patterns.
register(TrafficPattern(name="boot-storm", version=1,
                        pattern="boot-storm"))
register(TrafficPattern(name="open-loop", version=1, pattern="open-loop"))
register(TrafficPattern(name="bursty", version=1, pattern="bursty"))
register(TrafficPattern(name="churn", version=1, pattern="churn"))

#: Fault plans.
register(FaultProfile(name="none", version=1, rate=0.0))
register(FaultProfile(name="light", version=1, rate=0.01))
register(FaultProfile(name="heavy", version=1, rate=0.05, recovery=True))

#: Placement policies.
register(PlacementProfile(name="least-loaded", version=1,
                          policy="least-loaded"))
register(PlacementProfile(name="first-fit", version=1,
                          policy="first-fit"))

#: Topologies.
register(TopologyProfile(name="lan", version=1))
register(TopologyProfile(name="wan", version=1, epoch_ms=20.0,
                         net_latency_ms=20.0,
                         net_bandwidth_mbps=1000.0))
