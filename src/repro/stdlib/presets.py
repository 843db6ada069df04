"""Named scenario presets: the repo's standing experiments as specs.

The two standing cluster scenarios, which tests and benchmarks run
(``preset(name, ...).to_cluster_config(seed)`` pairs the spec with a
seed), and a helper for the single-host storm shape the figure
benchmarks use.
"""

from __future__ import annotations

import typing

from .spec import ScenarioSpec

#: A create ramp across N LightVM hosts (the generalized Fig 10 shape).
BOOT_STORM: typing.Dict[str, object] = {
    "name": "boot-storm",
    "mode": "cluster",
    "host": "lightvm-64core@1",
    "guest": "noop@1",
    "traffic": "boot-storm@1",
    "faults": "none@1",
    "placement": "least-loaded@1",
    "topology": "lan@1",
    "hosts": 8,
    "guests": 32,
    "requests": 0,
    "migrations": 0,
}

#: Boot a fleet, then churn guests between hosts (Fig 13 generalized to
#: cluster placement); ``examples/migration_churn.yaml`` is this spec.
MIGRATION_CHURN: typing.Dict[str, object] = {
    "name": "migration-churn",
    "mode": "cluster",
    "host": "lightvm-64core@1",
    "guest": "noop@1",
    "traffic": "churn@1",
    "faults": "none@1",
    "placement": "least-loaded@1",
    "topology": "lan@1",
    "hosts": 4,
    "guests": 16,
    "requests": 0,
    "migrations": 8,
}

PRESETS: typing.Dict[str, typing.Dict[str, object]] = {
    "boot-storm": BOOT_STORM,
    "migration-churn": MIGRATION_CHURN,
}


def preset(name: str, **workload) -> ScenarioSpec:
    """The named preset, with workload scalars optionally overridden.

    ``workload`` keys are spec keys (``hosts``, ``guests``,
    ``requests``, ``migrations``, or even component references) — they
    go through the same strict validation as a spec file.
    """
    if name not in PRESETS:
        raise KeyError("unknown preset %r (have: %s)"
                       % (name, ", ".join(sorted(PRESETS))))
    payload = dict(PRESETS[name])
    payload.update(workload)
    return ScenarioSpec.from_dict(payload)


def storm_spec(name: str, host: object, guest: object, guests: int,
               traffic: object = "boot-storm@1",
               faults: object = "none@1") -> ScenarioSpec:
    """A single-host storm spec — the shape every figure benchmark is.

    ``host``/``guest``/``traffic``/``faults`` take anything a spec file
    accepts: a pinned ``name@version`` string or a ``{"ref": ...}``
    mapping with parameter overrides.
    """
    return ScenarioSpec.from_dict({
        "name": name, "mode": "host", "host": host, "guest": guest,
        "traffic": traffic, "faults": faults, "guests": guests})
