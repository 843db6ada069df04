"""The built-in component library.

Concrete component types (host profiles, guest footprints, traffic
patterns, fault plans, placement policies, topologies) and the standard
instances every scenario spec can reference by ``name@version``.

Each type carries a ``build()`` hook that turns the declarative record
into the live object a run needs (a :class:`~repro.core.host.Host`, a
:class:`~repro.guests.images.GuestImage`, a
:class:`~repro.faults.plan.FaultPlan`).  A single-host run and every
cluster node build their hosts, images and fault plans through these
same hooks.  Pure-data components (traffic, placement, topology) are
read field by field: by the single-host storm, and by the cluster's
nodes and controller.  Each type checks its own parameters when a spec
overrides them (:meth:`~.components.Component.validate`).
"""

from __future__ import annotations

import dataclasses
import typing

from ..cluster.placement import POLICIES
from ..core.host import VARIANTS
from ..core.hostspec import HOST_SPECS, HostSpec
from ..faults import FaultPlan, FaultRule
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
    stock-Xen storms run that way.  Cluster nodes size and fill their
    pools themselves, so a cluster-mode spec may not override these
    three parameters.
    """

    kind: typing.ClassVar[str] = "host"

    spec: str = "xeon-e5-1630"
    variant: str = "lightvm"
    xenstore_workers: int = 1
    xenstore_batch: bool = False
    pooled: bool = True
    pool_slack: int = 64
    warmup_ms_per_shell: float = 20.0

    domain = {"spec": HOST_SPECS, "variant": VARIANTS,
              "xenstore_workers": 1, "pool_slack": 0,
              "warmup_ms_per_shell": 0}

    def host_spec(self) -> HostSpec:
        return HOST_SPECS[self.spec]

    def build(self, *, count: int, image: typing.Optional[GuestImage],
              sim=None, seed: int = 0, fault_plan=None,
              recovery: bool = False,
              pool_target: typing.Optional[int] = None):
        """Construct (and pre-warm) the host for a ``count``-guest run.

        A cluster node passes ``pool_target``, its worst-case local
        guests plus slack: the shell pool is sized to it and not warmed
        up, because the node's pool fills on the epoch timeline before
        the first create arrives.
        """
        from ..core.host import Host
        kwargs: typing.Dict[str, object] = dict(
            spec=self.host_spec(), variant=self.variant, seed=seed,
            sim=sim, xenstore_workers=self.xenstore_workers,
            xenstore_batch=self.xenstore_batch, fault_plan=fault_plan,
            recovery=recovery)
        warmup_ms = 0.0
        if pool_target is None and self.pooled:
            pool_target = count + self.pool_slack
            warmup_ms = self.warmup_ms_per_shell * pool_target
        if pool_target is not None:
            kwargs["pool_target"] = pool_target
            if image is not None:
                kwargs["shell_memory_kb"] = image.memory_kb
        host = Host(**kwargs)
        if warmup_ms > 0:
            host.warmup(warmup_ms)
        return host


#: Guest runtimes: a VM image, or the container/process baselines.
RUNTIMES = ("vm", "container", "process")


@dataclasses.dataclass(frozen=True)
class GuestProfile(Component):
    """A guest footprint: a VM image from the catalogue, or one of the
    container/process baselines the paper compares against."""

    kind: typing.ClassVar[str] = "guest"

    #: Catalogue image name (``runtime == "vm"`` only).
    image: str = ""
    #: ``vm`` | ``container`` | ``process``.
    runtime: str = "vm"

    domain = {"runtime": RUNTIMES}

    def validate(self) -> None:
        super().validate()
        if self.runtime == "vm" and self.image not in CATALOG:
            raise ValueError("parameter 'image' must be a catalogue image "
                             "(%s), got %r" % (", ".join(sorted(CATALOG)),
                                               self.image))

    def build(self) -> GuestImage:
        if self.runtime != "vm":
            raise ValueError("guest %s has runtime %r, not a VM image"
                             % (self.ref(), self.runtime))
        return CATALOG[self.image]


def _check_positive(component: Component, *names: str) -> None:
    """Raise :class:`ValueError` naming the first of ``names`` whose
    value is not > 0 (written ``not value > 0`` so that NaN fails)."""
    for name in names:
        value = getattr(component, name)
        if not value > 0:
            raise ValueError("parameter %r must be > 0, got %r"
                             % (name, value))


#: Traffic patterns (host mode runs ``open-loop`` as a plain storm; its
#: request knobs drive cluster traffic).
PATTERNS = ("boot-storm", "bursty", "open-loop", "churn")


@dataclasses.dataclass(frozen=True)
class TrafficPattern(Component):
    """How load arrives.

    Single-host storms read ``pattern`` plus the burst/churn knobs; a
    cluster's controller and nodes read the arrival knobs
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

    domain = {"pattern": PATTERNS, "burst_size": 1, "burst_gap_ms": 0,
              "churn_working_set": 0, "service_ms": 0}

    def validate(self) -> None:
        super().validate()
        _check_positive(self, "create_spacing_ms", "request_gap_ms")


@dataclasses.dataclass(frozen=True)
class FaultProfile(Component):
    """A named fault plan (rate, point pattern, recovery posture)."""

    kind: typing.ClassVar[str] = "faults"

    rate: float = 0.0
    points: str = "*"
    #: Attach the crash-recovery layer (watchdog, reaper, journal);
    #: host-mode runs are then audited (see :mod:`.runner`).
    recovery: bool = False

    domain = {"rate": 0.0}

    def validate(self) -> None:
        super().validate()
        if not self.rate <= 1.0:
            raise ValueError("parameter 'rate' is a probability and must "
                             "be <= 1, got %r" % self.rate)

    def build(self, seed: int):
        """The per-run :class:`FaultPlan`, or ``None`` for rate 0."""
        if self.rate <= 0.0:
            return None
        return FaultPlan.uniform(self.rate, points=self.points, seed=seed)


def rules_to_json(rules: typing.Iterable[FaultRule]
                  ) -> typing.List[typing.Dict[str, object]]:
    """Fault rules as ``chaos@1`` ``rules`` mappings, every key set."""
    return [dict(dataclasses.asdict(rule), at=list(rule.at))
            for rule in rules]


def _is_int(value: object) -> bool:
    return isinstance(value, int) and not isinstance(value, bool)


def _is_number(value: object) -> bool:
    return isinstance(value, (int, float)) and not isinstance(value, bool)


#: Each key a rule mapping may carry: (check on its value, what it must be).
_RULE_KEYS = {
    "point": (lambda value: isinstance(value, str) and bool(value),
              "a non-empty fault-point name"),
    "probability": (lambda value: _is_number(value) and 0 <= value <= 1,
                    "a probability in [0, 1]"),
    "at": (lambda value: isinstance(value, list)
           and all(_is_int(item) and item >= 1 for item in value),
           "a list of occurrence numbers >= 1"),
    "max_fires": (lambda value: value is None
                  or (_is_int(value) and value >= 1),
                  "null or an integer >= 1"),
    "kind": (lambda value: isinstance(value, str), "a string"),
    "delay_ms": (lambda value: _is_number(value) and value >= 0,
                 "a number >= 0"),
}


def _parse_rules(value: object) -> typing.Tuple[FaultRule, ...]:
    """Rule mappings -> :class:`FaultRule` tuple; a malformed entry
    raises :class:`ValueError` naming it."""
    if not isinstance(value, list):
        raise ValueError("parameter 'rules' must be a list of rule "
                         "mappings, got %r" % (value,))
    for index, item in enumerate(value):
        if not isinstance(item, dict) or "point" not in item:
            raise ValueError("rule %d must be a mapping with a 'point' "
                             "key, got %r" % (index, item))
        for key in item:
            if key not in _RULE_KEYS:
                raise ValueError("rule %d has unknown key %r (rule keys: "
                                 "%s)" % (index, key,
                                          ", ".join(sorted(_RULE_KEYS))))
            check, expected = _RULE_KEYS[key]
            if not check(item[key]):
                raise ValueError("rule %d: %r must be %s, got %r"
                                 % (index, key, expected, item[key]))
    return tuple(FaultRule(**dict(item, at=tuple(item.get("at", ()))))
                 for item in value)


@dataclasses.dataclass(frozen=True)
class ChaosProfile(Component):
    """A chaos campaign's fault plan: the ``rules`` list (JSON mappings
    such as ``{"point": ..., "at": [6]}``) or, when it is unset, the
    schedule :meth:`FaultPlan.chaos` draws from each run's seed.
    ``repro chaos`` pins shrunk rules into reproducers."""

    kind: typing.ClassVar[str] = "faults"
    #: Always attach the crash-recovery layer: chaos runs are audited.
    recovery: typing.ClassVar[bool] = True

    rules: typing.Optional[typing.List[dict]] = None

    def validate(self) -> None:
        if self.rules is not None:
            _parse_rules(self.rules)

    def build(self, seed: int):
        """The pinned ``rules``, or the schedule drawn from ``seed``."""
        if self.rules is None:
            return FaultPlan.chaos(seed)
        return FaultPlan(rules=_parse_rules(self.rules), seed=seed)


@dataclasses.dataclass(frozen=True)
class PlacementProfile(Component):
    """Cluster placement policy."""

    kind: typing.ClassVar[str] = "placement"

    policy: str = "least-loaded"

    domain = {"policy": POLICIES}


@dataclasses.dataclass(frozen=True)
class TopologyProfile(Component):
    """Cluster interconnect: epoch window, latency floor, bandwidth."""

    kind: typing.ClassVar[str] = "topology"

    epoch_ms: float = 5.0
    net_latency_ms: float = 5.0
    net_bandwidth_mbps: float = 10000.0

    def validate(self) -> None:
        _check_positive(self, "epoch_ms")
        if not self.net_latency_ms >= self.epoch_ms:
            # The conservative-PDES lookahead rule: a message sent inside
            # epoch k must not arrive before epoch k+1 begins, or hosts
            # would need mid-window exchange and the barrier schedule
            # would stop being deterministic.
            raise ValueError(
                "parameter 'net_latency_ms' (%r) must be >= epoch_ms "
                "(%r): the epoch length is the cluster's lookahead"
                % (self.net_latency_ms, self.epoch_ms))
        _check_positive(self, "net_bandwidth_mbps")


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
#: The chaos campaign's plan: a seeded crash schedule, audited runs.
register(ChaosProfile(name="chaos", version=1))

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
