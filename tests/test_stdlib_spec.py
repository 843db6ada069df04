"""ScenarioSpec validation: strict keys, typed errors, canonical digest."""

import copy

import pytest

from repro.stdlib import (ComponentError, MissingSpecKeyError,
                          ScenarioSpec, SpecTypeError,
                          UnknownSpecKeyError, loads)
from repro.stdlib.presets import BOOT_STORM

HOST_SPEC = {
    "name": "smoke",
    "mode": "host",
    "host": "lightvm@1",
    "guest": "daytime@1",
    "traffic": "boot-storm@1",
    "faults": "none@1",
    "guests": 8,
}


class TestValidation:
    def test_minimal_host_spec_parses(self):
        spec = ScenarioSpec.from_dict(HOST_SPEC)
        assert spec.name == "smoke"
        assert spec.mode == "host"
        assert spec.guests == 8
        assert spec.hosts == 1
        assert spec.host.variant == "lightvm"

    def test_faults_defaults_to_none_at_1(self):
        payload = dict(HOST_SPEC)
        del payload["faults"]
        spec = ScenarioSpec.from_dict(payload)
        assert spec.faults.ref() == "none@1"
        assert spec.faults.rate == 0.0

    def test_unknown_key_rejected_with_suggestion(self):
        payload = dict(HOST_SPEC, guets=8)
        with pytest.raises(UnknownSpecKeyError) as err:
            ScenarioSpec.from_dict(payload)
        assert err.value.field == "guets"
        assert "unknown key 'guets'" in str(err.value)
        assert "did you mean 'guests'?" in str(err.value)

    def test_cluster_only_key_in_host_mode_names_the_mode(self):
        payload = dict(HOST_SPEC, hosts=4)
        with pytest.raises(UnknownSpecKeyError) as err:
            ScenarioSpec.from_dict(payload)
        assert err.value.field == "hosts"
        assert "only valid in mode 'cluster'" in str(err.value)

    def test_missing_required_key_named(self):
        payload = dict(HOST_SPEC)
        del payload["traffic"]
        with pytest.raises(MissingSpecKeyError) as err:
            ScenarioSpec.from_dict(payload)
        assert err.value.field == "traffic"
        assert "missing required key 'traffic'" in str(err.value)

    def test_cluster_mode_requires_placement_and_topology(self):
        payload = dict(BOOT_STORM)
        del payload["placement"]
        with pytest.raises(MissingSpecKeyError) as err:
            ScenarioSpec.from_dict(payload)
        assert err.value.field == "placement"

    def test_bad_mode_is_typed(self):
        with pytest.raises(SpecTypeError) as err:
            ScenarioSpec.from_dict(dict(HOST_SPEC, mode="fleet"))
        assert err.value.field == "mode"
        assert "expected one of host, cluster" in str(err.value)

    def test_workload_scalars_type_checked(self):
        for key, value in (("guests", 0), ("guests", "many"),
                           ("guests", True)):
            with pytest.raises(SpecTypeError) as err:
                ScenarioSpec.from_dict(dict(HOST_SPEC, **{key: value}))
            assert err.value.field == key
            assert "positive integer" in str(err.value)

    def test_negative_requests_rejected(self):
        payload = dict(BOOT_STORM, requests=-1)
        with pytest.raises(SpecTypeError) as err:
            ScenarioSpec.from_dict(payload)
        assert err.value.field == "requests"
        assert "non-negative integer" in str(err.value)

    def test_empty_name_rejected(self):
        with pytest.raises(SpecTypeError) as err:
            ScenarioSpec.from_dict(dict(HOST_SPEC, name=""))
        assert err.value.field == "name"

    def test_component_errors_carry_the_spec_field(self):
        with pytest.raises(ComponentError) as err:
            ScenarioSpec.from_dict(dict(HOST_SPEC, guest="daytme@1"))
        assert err.value.field == "guest"

    def test_version_mismatch_names_the_field(self):
        with pytest.raises(ComponentError) as err:
            ScenarioSpec.from_dict(dict(HOST_SPEC, host="lightvm@2"))
        assert err.value.field == "host"
        assert "no version 2" in str(err.value)

    def test_non_mapping_payload_rejected(self):
        with pytest.raises(SpecTypeError):
            ScenarioSpec.from_dict(["not", "a", "mapping"])  # type: ignore[arg-type]


class TestCanonicalForm:
    def test_digest_is_stable_across_source_spelling(self):
        # The digest hashes the *resolved* spec: a reference with a
        # no-op override mapping digests the same as the plain string.
        plain = ScenarioSpec.from_dict(HOST_SPEC)
        spelled = ScenarioSpec.from_dict(
            dict(HOST_SPEC, host={"ref": "lightvm@1"}))
        assert plain.digest() == spelled.digest()

    def test_digest_moves_with_overrides(self):
        plain = ScenarioSpec.from_dict(HOST_SPEC)
        tuned = ScenarioSpec.from_dict(
            dict(HOST_SPEC, host={"ref": "lightvm@1", "pool_slack": 8}))
        assert plain.digest() != tuned.digest()

    def test_canonical_embeds_resolved_components(self):
        record = ScenarioSpec.from_dict(HOST_SPEC).canonical()
        assert record["components"]["host"]["variant"] == "lightvm"
        assert record["components"]["faults"]["rate"] == 0.0
        assert "placement" not in record["components"]

    def test_source_round_trips(self):
        spec = ScenarioSpec.from_dict(HOST_SPEC)
        again = ScenarioSpec.from_dict(spec.source)
        assert again.digest() == spec.digest()


class TestClusterLowering:
    def test_boot_storm_preset_lowers_to_config_defaults(self):
        from repro.cluster.config import ClusterConfig
        config = ScenarioSpec.from_dict(BOOT_STORM).to_cluster_config(7)
        assert config == ClusterConfig(hosts=8, seed=7,
                                       scenario="boot-storm", guests=32)

    def test_host_mode_spec_refuses_cluster_lowering(self):
        with pytest.raises(SpecTypeError) as err:
            ScenarioSpec.from_dict(HOST_SPEC).to_cluster_config(0)
        assert "only cluster-mode specs" in str(err.value)

    def test_topology_and_traffic_knobs_reach_the_config(self):
        payload = copy.deepcopy(BOOT_STORM)
        payload["topology"] = {"ref": "lan@1", "epoch_ms": 4.0}
        payload["traffic"] = {"ref": "boot-storm@1",
                              "create_spacing_ms": 7.0}
        config = ScenarioSpec.from_dict(payload).to_cluster_config(0)
        assert config.epoch_ms == 4.0
        assert config.create_spacing_ms == 7.0

    @pytest.mark.parametrize("host", [
        "lightvm-batched@1",
        {"ref": "chaos+xs@1", "xenstore_workers": 4},
        {"ref": "chaos+xs@1", "xenstore_batch": True},
    ])
    def test_cluster_mode_rejects_xenstore_knobs(self, host):
        # ClusterConfig cannot carry them, so they would be dropped.
        with pytest.raises(SpecTypeError) as err:
            ScenarioSpec.from_dict(dict(BOOT_STORM, host=host))
        assert err.value.field == "host"


class TestDocumentLoading:
    def test_yaml_document_parses(self):
        spec = loads(
            "name: y\nmode: host\nhost: lightvm@1\nguest: daytime@1\n"
            "traffic: boot-storm@1\nguests: 4\n")
        assert spec.name == "y"

    def test_json_document_parses(self):
        import json
        spec = loads(json.dumps(HOST_SPEC), format="json")
        assert spec.digest() == ScenarioSpec.from_dict(HOST_SPEC).digest()

    def test_non_mapping_document_rejected(self):
        with pytest.raises(SpecTypeError) as err:
            loads("- just\n- a\n- list\n")
        assert "must be a mapping" in str(err.value)

    def test_committed_examples_parse(self):
        import pathlib
        from repro.stdlib import load_spec
        root = pathlib.Path(__file__).resolve().parent.parent
        for name in ("boot_storm.yaml", "cluster_storm.yaml",
                     "fig10_density.yaml", "migration_churn.yaml"):
            spec = load_spec(root / "examples" / name)
            assert spec.digest()
