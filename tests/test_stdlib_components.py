"""The component registry: versioned refs, typed errors, overrides."""

import dataclasses

import pytest

from repro.stdlib import components as C
from repro.stdlib.library import (FaultProfile, GuestProfile, HostProfile,
                                  TrafficPattern)


class TestRegistry:
    def test_every_standard_kind_is_populated(self):
        assert C.kinds() == ["faults", "guest", "host", "placement",
                             "topology", "traffic"]
        for kind in C.kinds():
            assert C.names(kind), kind

    def test_variant_hosts_registered_at_version_1(self):
        for variant in ("xl", "chaos+xs", "chaos+xs+split", "chaos+noxs",
                        "lightvm"):
            host = C.lookup("host", variant, 1)
            assert host.variant == variant
        assert C.versions_of("host", "lightvm") == [1]

    def test_every_catalog_image_is_a_guest_component(self):
        from repro.guests import CATALOG
        for name in CATALOG:
            assert C.lookup("guest", name, 1).image == name

    def test_catalogue_is_sorted_and_complete(self):
        catalogue = C.catalogue()
        keys = [(c.kind, c.name, c.version) for c in catalogue]
        assert keys == sorted(keys)
        assert len(keys) == len(set(keys))

    def test_duplicate_registration_is_loud(self):
        existing = C.lookup("host", "lightvm", 1)
        with pytest.raises(C.DuplicateComponentError) as err:
            C.register(dataclasses.replace(existing))
        assert "immutable" in str(err.value)
        assert "bump the version" in str(err.value)

    def test_ref_round_trips_through_resolve(self):
        host = C.lookup("host", "lightvm-64core", 1)
        assert host.ref() == "lightvm-64core@1"
        assert C.resolve("host", host.ref(), "host") is host


class TestTypedErrors:
    def test_unpinned_reference_is_an_error_not_latest(self):
        with pytest.raises(C.ComponentVersionError) as err:
            C.resolve("guest", "daytime", "guest")
        assert err.value.field == "guest"
        assert "pins no version" in str(err.value)
        assert "daytime@<version>" in str(err.value)

    def test_unknown_name_lists_known_names(self):
        with pytest.raises(C.UnknownComponentError) as err:
            C.resolve("traffic", "lumpy@1", "traffic")
        assert err.value.field == "traffic"
        assert "unknown traffic component 'lumpy'" in str(err.value)
        assert "boot-storm" in str(err.value)

    def test_missing_version_lists_available_versions(self):
        with pytest.raises(C.ComponentVersionError) as err:
            C.resolve("host", "lightvm@9", "host")
        assert "no version 9" in str(err.value)
        assert "(have: 1)" in str(err.value)

    def test_malformed_version_is_an_error(self):
        with pytest.raises(C.ComponentVersionError) as err:
            C.resolve("host", "lightvm@latest", "host")
        assert "malformed version 'latest'" in str(err.value)


class TestOverrides:
    def test_parameter_override_applies(self):
        host = C.resolve("host", {"ref": "xl@1", "pooled": False}, "host")
        assert isinstance(host, HostProfile)
        assert host.pooled is False
        # The registered component is untouched.
        assert C.lookup("host", "xl", 1).pooled is True

    def test_unknown_parameter_lists_overridable(self):
        with pytest.raises(C.ComponentOverrideError) as err:
            C.resolve("host", {"ref": "xl@1", "pool": 9}, "host")
        assert "no parameter 'pool'" in str(err.value)
        assert "pool_slack" in str(err.value)

    def test_reserved_keys_cannot_be_overridden(self):
        for key in ("name", "version", "kind"):
            with pytest.raises(C.ComponentOverrideError) as err:
                C.resolve("host", {"ref": "xl@1", key: "x"}, "host")
            assert "reserved key" in str(err.value)

    def test_type_mismatch_is_an_error(self):
        with pytest.raises(C.ComponentOverrideError) as err:
            C.resolve("host", {"ref": "xl@1", "pool_slack": "lots"},
                      "host")
        assert "expects int" in str(err.value)

    def test_mapping_without_ref_is_an_error(self):
        with pytest.raises(C.ComponentOverrideError) as err:
            C.resolve("host", {"pooled": False}, "host")
        assert "'ref' key" in str(err.value)


class TestBuildHooks:
    def test_guest_build_returns_catalog_image(self):
        from repro.guests import CATALOG
        guest = C.lookup("guest", "daytime", 1)
        assert guest.build() is CATALOG["daytime"]

    def test_container_guest_refuses_vm_build(self):
        docker = C.lookup("guest", "docker", 1)
        assert isinstance(docker, GuestProfile)
        with pytest.raises(ValueError):
            docker.build()

    def test_fault_profile_rate_zero_builds_none(self):
        none = C.lookup("faults", "none", 1)
        assert isinstance(none, FaultProfile)
        assert none.build(seed=3) is None

    def test_fault_profile_builds_seeded_plan(self):
        light = C.lookup("faults", "light", 1)
        plan = light.build(seed=3)
        assert plan is not None

    def test_host_build_pooled_prefills_shells(self):
        from repro.guests import CATALOG
        host = C.lookup("host", "lightvm", 1).build(
            count=4, image=CATALOG["daytime"])
        assert host.sim.now > 0.0  # warmup advanced the clock

    def test_host_build_unpooled_keeps_stock_defaults(self):
        from repro.guests import CATALOG
        profile = C.resolve("host", {"ref": "xl@1", "pooled": False},
                            "host")
        host = profile.build(count=4, image=CATALOG["daytime"])
        assert host.sim.now == 0.0  # no warmup, no pool pre-fill

    def test_host_build_with_pool_target_sizes_pool_without_warmup(self):
        # The cluster node's call: the pool fills on the epoch timeline.
        from repro.guests import CATALOG
        host = C.lookup("host", "lightvm", 1).build(
            count=4, image=CATALOG["daytime"], pool_target=12)
        assert host.daemon.pool_target == 12
        assert host.sim.now == 0.0

    def test_describe_includes_all_params(self):
        record = C.lookup("traffic", "boot-storm", 1).describe()
        assert record["kind"] == "traffic"
        assert record["name"] == "boot-storm"
        assert record["version"] == 1
        assert isinstance(C.lookup("traffic", "boot-storm", 1),
                          TrafficPattern)
        assert "create_spacing_ms" in record
