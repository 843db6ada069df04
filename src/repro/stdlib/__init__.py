"""repro.stdlib — the scenario standard library.

A gem5-stdlib-style component registry (named, versioned host profiles,
guest footprints, traffic patterns, fault plans, placement policies and
topologies), a declarative :class:`ScenarioSpec` (YAML/JSON) composing
them into single-host or cluster runs, a runner, and a parallel
multi-seed sweep whose manifest is a pure function of (spec, seed set).

Entry points:

* ``load_spec(path)`` / ``ScenarioSpec.from_dict(payload)`` — validate a
  scenario document (typed errors, no silent defaulting);
* ``run_scenario(spec, seed)`` — one run, one replay digest;
* ``run_sweep(spec, seeds, workers)`` — the sweep manifest behind
  ``repro run``, the only CLI that runs a scenario;
* ``sweep_manifest(spec, records)`` — the manifest of runs already made,
  as ``repro run`` builds it for the one seed it runs in process;
* ``preset(name)`` / ``storm_spec(...)`` — the standing experiments.
"""

from .components import (Component, ComponentError,
                         ComponentOverrideError, ComponentVersionError,
                         DuplicateComponentError, UnknownComponentError,
                         catalogue, kinds, lookup, names, register,
                         resolve, versions_of)
from .library import (ChaosProfile, FaultProfile, GuestProfile,
                      HostProfile, PlacementProfile, TopologyProfile,
                      TrafficPattern)
from .presets import PRESETS, preset, storm_spec
from .runner import ScenarioResult, run_scenario
from .spec import (MissingSpecKeyError, ScenarioSpec, SpecError,
                   SpecTypeError, UnknownSpecKeyError, load_spec, loads)
from .sweep import (MANIFEST_VERSION, SweepError, bench_payload,
                    manifest_digest, replay_manifest, run_sweep,
                    sweep_manifest, workers_on_hosts, write_bench_json)

__all__ = [
    # components
    "Component", "ComponentError", "ComponentOverrideError",
    "ComponentVersionError", "DuplicateComponentError",
    "UnknownComponentError", "register", "lookup", "resolve",
    "kinds", "names", "versions_of", "catalogue",
    # library
    "HostProfile", "GuestProfile", "TrafficPattern",
    "FaultProfile", "ChaosProfile", "PlacementProfile", "TopologyProfile",
    # spec
    "ScenarioSpec", "SpecError", "UnknownSpecKeyError",
    "MissingSpecKeyError", "SpecTypeError", "load_spec", "loads",
    # runner / sweep
    "ScenarioResult", "run_scenario", "run_sweep", "sweep_manifest",
    "replay_manifest", "manifest_digest", "bench_payload",
    "write_bench_json",
    "workers_on_hosts",
    "SweepError", "MANIFEST_VERSION",
    # presets
    "PRESETS", "preset", "storm_spec",
]
