"""Declarative scenario specs: YAML/JSON in, a validated composition out.

A :class:`ScenarioSpec` is the *entire* description of an experiment —
which components run (pinned ``name@version`` references, optionally
with parameter overrides) and the workload scalars (guest count, host
count, request/migration budgets).  Validation is strict and typed:

* unknown keys are rejected (:class:`UnknownSpecKeyError` names the key
  and suggests the nearest valid one — no silent defaulting);
* every component reference must pin a version; unknown names and
  version mismatches raise :class:`~.components.UnknownComponentError` /
  :class:`~.components.ComponentVersionError` naming the offending
  field;
* component parameter overrides are type- and domain-checked
  (:class:`~.components.ComponentOverrideError`);
* workload scalars are type- and range-checked, and so are the
  component combinations a mode cannot run (:class:`SpecTypeError`).

The resolved spec has a canonical JSON form and a SHA-256 **spec
digest** over it; the sweep manifest is a pure function of (spec digest,
seed set), which is what makes ``repro run`` reproducible by
construction.
"""

from __future__ import annotations

import dataclasses
import difflib
import hashlib
import json
import pathlib
import typing

from .components import ComponentError, resolve
from .library import (ChaosProfile, FaultProfile, GuestProfile,
                      HostProfile, PlacementProfile, TopologyProfile,
                      TrafficPattern)


class SpecError(ValueError):
    """Base class for scenario-spec validation failures."""

    def __init__(self, field: str, message: str):
        self.field = field
        super().__init__(message)


class UnknownSpecKeyError(SpecError):
    """The spec payload carries a key the schema does not define."""


class MissingSpecKeyError(SpecError):
    """A required key is absent for the declared mode."""


class SpecTypeError(SpecError):
    """A workload scalar has the wrong type or an invalid value."""


#: Keys every spec must carry.
_REQUIRED = ("name", "mode", "host", "guest", "traffic", "guests")
#: Component fields by spec key, with the kinds they resolve against.
_COMPONENT_KEYS = ("host", "guest", "traffic", "faults", "placement",
                   "topology")
#: Keys valid only in cluster mode.
_CLUSTER_ONLY = ("hosts", "placement", "topology", "requests",
                 "migrations")
#: The full schema, per mode.
_KEYS_BY_MODE = {
    "host": frozenset(("name", "mode", "host", "guest", "traffic",
                       "faults", "guests")),
    "cluster": frozenset(("name", "mode", "host", "guest", "traffic",
                          "faults", "placement", "topology", "hosts",
                          "guests", "requests", "migrations")),
}

MODES = ("host", "cluster")

#: Shell-pool parameters a cluster-mode ``host`` mapping may not
#: override: cluster nodes size and fill their pools themselves.
_CLUSTER_POOL_KEYS = ("pool_slack", "pooled", "warmup_ms_per_shell")


@dataclasses.dataclass
class ScenarioSpec:
    """A validated scenario: resolved components + workload scalars."""

    name: str
    mode: str
    host: HostProfile
    guest: GuestProfile
    traffic: TrafficPattern
    faults: typing.Union[FaultProfile, ChaosProfile]
    placement: typing.Optional[PlacementProfile]
    topology: typing.Optional[TopologyProfile]
    guests: int
    hosts: int = 1
    requests: int = 0
    migrations: int = 0
    #: The original payload (component *references*, not resolved
    #: parameters) — round-trippable through :meth:`from_dict`, embedded
    #: in sweep manifests so ``repro run --replay`` can rebuild the spec.
    source: typing.Dict[str, object] = dataclasses.field(
        default_factory=dict, repr=False, compare=False)

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_dict(cls, payload: typing.Mapping) -> "ScenarioSpec":
        if not isinstance(payload, typing.Mapping):
            raise SpecTypeError(
                "spec", "a scenario spec must be a mapping, got %s"
                % type(payload).__name__)
        data = dict(payload)

        mode = data.get("mode")
        if mode not in MODES:
            raise SpecTypeError(
                "mode", "field 'mode': expected one of %s, got %r"
                % (", ".join(MODES), mode))

        allowed = _KEYS_BY_MODE[mode]
        for key in sorted(data, key=str):
            if key in allowed:
                continue
            if key in _CLUSTER_ONLY:
                raise UnknownSpecKeyError(
                    key, "key %r is only valid in mode 'cluster' "
                    "(this spec declares mode %r)" % (key, mode))
            hint = difflib.get_close_matches(str(key), sorted(allowed),
                                             n=1)
            suggestion = " (did you mean %r?)" % hint[0] if hint else ""
            raise UnknownSpecKeyError(
                str(key), "unknown key %r in scenario spec%s; valid keys "
                "for mode %r: %s" % (key, suggestion, mode,
                                     ", ".join(sorted(allowed))))

        required = list(_REQUIRED)
        if mode == "cluster":
            required += ["hosts", "placement", "topology"]
        for key in required:
            if key not in data:
                raise MissingSpecKeyError(
                    key, "scenario spec is missing required key %r "
                    "(mode %r)" % (key, mode))

        name = data["name"]
        if not isinstance(name, str) or not name:
            raise SpecTypeError(
                "name", "field 'name': expected a non-empty string, "
                "got %r" % (name,))

        host = resolve("host", data["host"], "host")
        guest = resolve("guest", data["guest"], "guest")
        traffic = resolve("traffic", data["traffic"], "traffic")
        faults = resolve("faults", data.get("faults", "none@1"), "faults")
        if guest.runtime != "vm" and (faults.recovery
                                      or faults.build(0) is not None):
            # Container and process storms have no control plane to
            # fault or recover.
            raise SpecTypeError(
                "faults", "field 'faults': %s guests (runtime %r) run "
                "no fault plan or recovery, got %s"
                % (guest.ref(), guest.runtime, faults.ref()))
        placement = topology = None
        if mode == "cluster":
            if guest.runtime != "vm":
                raise SpecTypeError(
                    "guest", "field 'guest': cluster mode boots VM "
                    "images only, got %s (runtime %r)"
                    % (guest.ref(), guest.runtime))
            if isinstance(faults, ChaosProfile):
                raise SpecTypeError(
                    "faults", "field 'faults': chaos schedules run only "
                    "in host mode, got %s in mode 'cluster' (chaos runs "
                    "are audited, and cluster runs are not yet)"
                    % faults.ref())
            for key in _CLUSTER_POOL_KEYS:
                if isinstance(data["host"], dict) and key in data["host"]:
                    # An ignored override would move the spec digest
                    # and nothing else.
                    raise SpecTypeError(
                        "host", "field 'host': mode 'cluster' cannot "
                        "override %r of %s: each cluster node sizes its "
                        "shell pool to its worst-case guests and fills "
                        "it before the first create" % (key, host.ref()))
            placement = resolve("placement", data["placement"],
                                "placement")
            topology = resolve("topology", data["topology"], "topology")

        guests = _positive_int(data["guests"], "guests")
        hosts = _positive_int(data["hosts"], "hosts") \
            if mode == "cluster" else 1
        requests = _non_negative_int(data.get("requests", 0), "requests")
        migrations = _non_negative_int(data.get("migrations", 0),
                                       "migrations")

        return cls(name=name, mode=mode, host=host, guest=guest,
                   traffic=traffic, faults=faults, placement=placement,
                   topology=topology, guests=guests, hosts=hosts,
                   requests=requests, migrations=migrations,
                   source=dict(data))

    # ------------------------------------------------------------------
    # Canonical form & digest
    # ------------------------------------------------------------------
    def canonical(self) -> typing.Dict[str, object]:
        """Fully-resolved JSON record: every component parameter value
        (post-override) plus the workload scalars."""
        components: typing.Dict[str, object] = {
            "host": self.host.describe(),
            "guest": self.guest.describe(),
            "traffic": self.traffic.describe(),
            "faults": self.faults.describe(),
        }
        if self.mode == "cluster":
            assert self.placement is not None and self.topology is not None
            components["placement"] = self.placement.describe()
            components["topology"] = self.topology.describe()
        return {"name": self.name, "mode": self.mode,
                "guests": self.guests, "hosts": self.hosts,
                "requests": self.requests,
                "migrations": self.migrations,
                "components": components}

    def digest(self) -> str:
        """SHA-256 over the canonical form — the spec's identity."""
        blob = json.dumps(self.canonical(), sort_keys=True,
                          separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    # ------------------------------------------------------------------
    # Lowering
    # ------------------------------------------------------------------
    def to_cluster_config(self, seed: int = 0):
        """This cluster-mode spec under ``seed``, as the
        :class:`~repro.cluster.config.ClusterConfig` a cluster runs."""
        if self.mode != "cluster":
            raise SpecTypeError(
                "mode", "spec %r has mode %r; only cluster-mode specs "
                "lower to a ClusterConfig" % (self.name, self.mode))
        from ..cluster.config import ClusterConfig
        return ClusterConfig(spec=self, seed=seed)


def _positive_int(value: object, field: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 1:
        raise SpecTypeError(
            field, "field %r: expected a positive integer, got %r"
            % (field, value))
    return value


def _non_negative_int(value: object, field: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool) or value < 0:
        raise SpecTypeError(
            field, "field %r: expected a non-negative integer, got %r"
            % (field, value))
    return value


# ----------------------------------------------------------------------
# File loading
# ----------------------------------------------------------------------

def loads(text: str, *, format: str = "yaml") -> ScenarioSpec:
    """Parse a YAML or JSON scenario document."""
    if format == "json":
        payload = json.loads(text)
    else:
        import yaml
        payload = yaml.safe_load(text)
    if not isinstance(payload, dict):
        raise SpecTypeError(
            "spec", "a scenario document must be a mapping, got %s"
            % type(payload).__name__)
    return ScenarioSpec.from_dict(payload)


def load_spec(path: typing.Union[str, pathlib.Path]) -> ScenarioSpec:
    """Load a scenario spec from ``path`` (.yaml/.yml/.json)."""
    path = pathlib.Path(path)
    format = "json" if path.suffix.lower() == ".json" else "yaml"
    return loads(path.read_text(), format=format)


__all__ = ["ScenarioSpec", "SpecError", "UnknownSpecKeyError",
           "MissingSpecKeyError", "SpecTypeError", "ComponentError",
           "load_spec", "loads", "MODES"]
