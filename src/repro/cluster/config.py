"""Cluster scenario configuration.

A :class:`ClusterConfig` is a flat record of scalars — the *entire*
input to a cluster run.  Determinism contract: the merged cluster
timeline (and therefore the cluster digest) is a pure function of this
config; the backend and worker count must not matter.  Configs are built
by lowering a cluster-mode scenario spec
(:meth:`repro.stdlib.spec.ScenarioSpec.to_cluster_config`), so the
spec, not the config, is what a sweep manifest records and replays.
"""

from __future__ import annotations

import dataclasses
import typing

from ..core.hostspec import HOST_SPECS, HostSpec
from ..guests.catalog import lookup
from ..guests.images import GuestImage


class ClusterConfigError(ValueError):
    """A cluster config that cannot produce a well-defined run."""


@dataclasses.dataclass
class ClusterConfig:
    """Everything a cluster run depends on, as JSON scalars."""

    #: Number of simulated hosts.
    hosts: int = 8
    #: Master seed; every per-host seed, fault plan, and traffic stream
    #: is derived from it (see :func:`host_seed`).
    seed: int = 0
    #: Scenario name (the spec's ``name``); informative only.
    scenario: str = "boot-storm"
    #: Toolstack variant on every host (see :data:`repro.core.host.VARIANTS`).
    variant: str = "lightvm"
    #: Guest image name from the catalogue.
    image: str = "noop"
    #: Host spec name from :data:`repro.core.hostspec.HOST_SPECS`.
    spec: str = "amd-opteron-64"

    #: Epoch window length in simulated ms.  The lookahead rule requires
    #: ``epoch_ms <= net_latency_ms`` — see :meth:`validate`.
    epoch_ms: float = 5.0
    #: Minimum cross-host message latency (the cluster's lookahead), ms.
    net_latency_ms: float = 5.0
    #: Cross-host link bandwidth (migration streams), Mbit/s.
    net_bandwidth_mbps: float = 10000.0

    #: Total guests created cluster-wide.
    guests: int = 32
    #: Gap between consecutive create commands, ms (the boot-storm ramp).
    create_spacing_ms: float = 3.0
    #: When the first create command arrives; ``None`` derives a value
    #: that leaves the chaos shell pools time to pre-fill.
    create_start_ms: typing.Optional[float] = None
    #: Per-host shell-pool headroom beyond the worst-case guest count.
    pool_slack: int = 8

    #: Placement policy: ``least-loaded`` (spread) or ``first-fit`` (pack).
    placement: str = "least-loaded"

    #: Total cross-host live migrations to drive (the churn phase).
    migrations: int = 0

    #: Total open-loop requests cluster-wide (split across hosts).
    requests: int = 0
    #: Mean inter-arrival gap of one host's request stream, ms.
    request_gap_ms: float = 1.0
    #: Modeled service time per request on the guest's host, ms.
    service_ms: float = 0.5
    #: When request streams open; ``None`` derives mid-storm so traffic
    #: overlaps boots and migrations.
    traffic_start_ms: typing.Optional[float] = None

    #: Per-host fault injection probability (0.0 = fault-free hosts).
    fault_rate: float = 0.0
    #: Fault points pattern handed to :meth:`FaultPlan.uniform`.
    fault_points: str = "*"
    #: Attach the PR-6 recovery layer (watchdog, orphan reaper, journal)
    #: to every host.  Worth enabling with aggressive fault rates, where
    #: a dead background daemon can otherwise starve a create forever —
    #: which the livelock guard reports as a ClusterError.
    recovery: bool = False

    #: Livelock guard: a run that has not quiesced after this many epochs
    #: raises instead of spinning forever.
    max_epochs: int = 200000

    # ------------------------------------------------------------------
    # Derived values (pure functions of the scalars above)
    # ------------------------------------------------------------------
    def validate(self) -> None:
        if self.hosts < 1:
            raise ClusterConfigError("hosts must be >= 1, got %r"
                                     % self.hosts)
        if self.epoch_ms <= 0:
            raise ClusterConfigError("epoch_ms must be > 0, got %r"
                                     % self.epoch_ms)
        if self.net_latency_ms < self.epoch_ms:
            # The conservative-PDES lookahead rule: a message sent inside
            # epoch k must not arrive before epoch k+1 begins, or hosts
            # would need mid-window exchange and the barrier schedule
            # would stop being deterministic.
            raise ClusterConfigError(
                "net_latency_ms (%r) must be >= epoch_ms (%r): the epoch "
                "length is the cluster's lookahead"
                % (self.net_latency_ms, self.epoch_ms))
        if self.create_spacing_ms <= 0:
            raise ClusterConfigError("create_spacing_ms must be > 0")
        if self.request_gap_ms <= 0:
            raise ClusterConfigError("request_gap_ms must be > 0")
        if self.spec not in HOST_SPECS:
            raise ClusterConfigError(
                "unknown spec %r; expected one of %s"
                % (self.spec, ", ".join(sorted(HOST_SPECS))))
        lookup(self.image)  # raises on an unknown image name

    def host_spec(self) -> HostSpec:
        return HOST_SPECS[self.spec]

    def guest_image(self) -> GuestImage:
        return lookup(self.image)

    def pool_target(self) -> int:
        """Shell-pool size per host: worst-case local guests plus slack.

        ``first-fit`` can pack every guest onto host 0, so the worst case
        is the full cluster guest count; ``least-loaded`` spreads evenly.
        """
        if self.placement == "first-fit":
            worst = self.guests
        else:
            worst = -(-self.guests // self.hosts)  # ceil division
        return worst + self.pool_slack

    def create_start(self) -> float:
        """First create-command arrival; default leaves pool-fill time."""
        if self.create_start_ms is not None:
            return self.create_start_ms
        # A chaos shell pre-creates in ~12 ms of simulated time; give the
        # pool one full fill plus margin, rounded up to an epoch boundary
        # consumers don't rely on (the controller stamps exact times).
        return 12.0 * self.pool_target() + 50.0

    def traffic_start(self) -> float:
        """Request streams open mid-storm by default."""
        if self.traffic_start_ms is not None:
            return self.traffic_start_ms
        return self.create_start() + \
            (self.guests * self.create_spacing_ms) / 2.0

    def requests_for(self, host_index: int) -> int:
        """Host ``host_index``'s share of the request budget."""
        base, extra = divmod(self.requests, self.hosts)
        return base + (1 if host_index < extra else 0)


def host_seed(seed: int, host_index: int) -> int:
    """Derive host ``host_index``'s seed from the cluster seed.

    Pure arithmetic (no process-dependent state): the same (seed, index)
    pair yields the same per-host seed in every backend and worker.  The
    multiplier keeps nearby cluster seeds from colliding with nearby host
    indices.
    """
    return seed * 1000003 + host_index

