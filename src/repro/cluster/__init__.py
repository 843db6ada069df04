"""repro.cluster — parallel multi-host simulation with epoch barriers.

The cluster layer scales the single-host reproduction out to N simulated
hosts whose DES engines advance independently between deterministic
epoch barriers (conservative parallel DES: the epoch length is the
lookahead, bounded by the minimum cross-host message latency).  Two
execution backends sit behind one API — ``backend="inline"`` (single
process, the semantic reference) and ``backend="procs"`` (``workers=N``
is the coordinator, stepping one share of the hosts itself, plus N-1
child processes) — and are required to produce byte-identical cluster
digests; DESIGN.md's "Epoch-barrier determinism contract" section holds
the full argument.

Scenarios are described by cluster-mode specs and run through
``repro run``; from Python, lower a spec onto a config and run it::

    from repro.cluster import Cluster
    from repro.stdlib import preset

    spec = preset("boot-storm", hosts=8, guests=64, requests=2000)
    result = Cluster(spec.to_cluster_config(seed=1), backend="procs",
                     workers=4).run()
    print(result.digest, result.stats["booted"])
"""

from .cluster import (BACKENDS, Cluster, ClusterError, ClusterResult,
                      InlineBackend)
from .config import ClusterConfig, ClusterConfigError, host_seed
from .controller import Controller
from .messages import CONTROLLER, ClusterMessage, sort_canonical
from .node import HostNode
from .placement import Placement, PlacementError

__all__ = [
    "BACKENDS",
    "CONTROLLER",
    "Cluster",
    "ClusterConfig",
    "ClusterConfigError",
    "ClusterError",
    "ClusterMessage",
    "ClusterResult",
    "Controller",
    "HostNode",
    "InlineBackend",
    "Placement",
    "PlacementError",
    "host_seed",
    "sort_canonical",
]
