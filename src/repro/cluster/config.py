"""Cluster run configuration: a resolved cluster-mode spec plus a seed.

A :class:`ClusterConfig` is the *entire* input to a cluster run.
Determinism contract: the merged cluster timeline (and therefore the
cluster digest) is a pure function of (spec, seed); the backend and
worker count must not matter.  Every host is built from the spec's own
components, as a single-host run is: :meth:`HostProfile.build
<repro.stdlib.library.HostProfile.build>` with the cluster's pool
target, the fault profile's plan under :func:`host_seed`, and the guest
profile's image.  The spec has validated every value when it was
loaded, so the config checks nothing again; a sweep manifest records
and replays the spec.
"""

from __future__ import annotations

import dataclasses
import typing

if typing.TYPE_CHECKING:
    from ..stdlib.spec import ScenarioSpec

#: Per-host shell-pool headroom beyond the worst-case guest count.
POOL_SLACK = 8


class ClusterConfigError(ValueError):
    """A cluster run that cannot be set up (e.g. an unknown backend)."""


@dataclasses.dataclass(frozen=True)
class ClusterConfig:
    """Everything a cluster run depends on."""

    #: The resolved cluster-mode scenario spec.
    spec: "ScenarioSpec"
    #: Master seed; every per-host seed, fault plan, and traffic stream
    #: is derived from it (see :func:`host_seed`).
    seed: int = 0

    def pool_target(self) -> int:
        """Shell-pool size per host: worst-case local guests plus slack.

        ``first-fit`` can pack every guest onto host 0, so the worst case
        is the full cluster guest count; ``least-loaded`` spreads evenly.
        """
        spec = self.spec
        if spec.placement.policy == "first-fit":
            worst = spec.guests
        else:
            worst = -(-spec.guests // spec.hosts)  # ceil division
        return worst + POOL_SLACK

    def create_start(self) -> float:
        """First create-command arrival, leaving pool-fill time."""
        # A chaos shell pre-creates in ~12 ms of simulated time; give the
        # pool one full fill plus margin, rounded up to an epoch boundary
        # consumers don't rely on (the controller stamps exact times).
        return 12.0 * self.pool_target() + 50.0

    def traffic_start(self) -> float:
        """Request streams open mid-storm, overlapping boots and
        migrations."""
        return self.create_start() + \
            (self.spec.guests * self.spec.traffic.create_spacing_ms) / 2.0

    def requests_for(self, host_index: int) -> int:
        """Host ``host_index``'s share of the request budget."""
        base, extra = divmod(self.spec.requests, self.spec.hosts)
        return base + (1 if host_index < extra else 0)


def host_seed(seed: int, host_index: int) -> int:
    """Derive host ``host_index``'s seed from the cluster seed.

    Pure arithmetic (no process-dependent state): the same (seed, index)
    pair yields the same per-host seed in every backend and worker.  The
    multiplier keeps nearby cluster seeds from colliding with nearby host
    indices.
    """
    return seed * 1000003 + host_index
