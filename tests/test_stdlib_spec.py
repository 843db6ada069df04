"""ScenarioSpec validation: strict keys, typed errors, canonical digest."""

import copy

import pytest

from repro.cluster import Cluster
from repro.stdlib import (ComponentError, MissingSpecKeyError,
                          ScenarioSpec, SpecTypeError,
                          UnknownSpecKeyError, loads, preset, run_scenario)
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

    @pytest.mark.parametrize("base, key, value, field", [
        (HOST_SPEC, "host", {"ref": "xl@1", "spec": "nope"}, "host"),
        (HOST_SPEC, "host", {"ref": "xl@1", "variant": "kvm"}, "host"),
        (HOST_SPEC, "host", {"ref": "xl@1", "pool_slack": -100}, "host"),
        (HOST_SPEC, "host", {"ref": "xl@1", "pool_slack": 8.5}, "host"),
        (HOST_SPEC, "guest", {"ref": "daytime@1", "image": "nope"},
         "guest"),
        (HOST_SPEC, "guest", {"ref": "daytime@1", "runtime": "gpu"},
         "guest"),
        (HOST_SPEC, "traffic", {"ref": "boot-storm@1",
                                "pattern": "zigzag"}, "traffic"),
        (HOST_SPEC, "traffic", {"ref": "churn@1",
                                "churn_working_set": -1}, "traffic"),
        (HOST_SPEC, "faults", {"ref": "light@1", "rate": 7}, "faults"),
        (HOST_SPEC, "faults", {"ref": "chaos@1", "rules": [{}]}, "faults"),
        (BOOT_STORM, "placement", {"ref": "least-loaded@1",
                                   "policy": "random"}, "placement"),
        (BOOT_STORM, "topology", {"ref": "lan@1", "epoch_ms": 0},
         "topology"),
        (BOOT_STORM, "topology", {"ref": "lan@1",
                                  "net_bandwidth_mbps": 0}, "topology"),
        (BOOT_STORM, "traffic", {"ref": "open-loop@1",
                                 "request_gap_ms": 0}, "traffic"),
        (BOOT_STORM, "faults", "chaos@1", "faults"),
        (BOOT_STORM, "guest", "docker@1", "guest"),
        (dict(HOST_SPEC, guest="docker@1"), "faults", "heavy@1", "faults"),
        (dict(HOST_SPEC, guest="process@1"), "faults", "heavy@1",
         "faults"),
    ])
    def test_out_of_domain_values_rejected_at_load(
            self, base, key, value, field, tmp_path, capsys):
        # Each used to load, then fail at run time with a bare
        # KeyError/ValueError or run as something else.
        import json

        from repro.cli import main
        payload = dict(base, **{key: value})
        with pytest.raises((ComponentError, SpecTypeError)) as err:
            ScenarioSpec.from_dict(payload)
        assert err.value.field == field
        path = tmp_path / "spec.json"
        path.write_text(json.dumps(payload))
        assert main(["run", str(path)]) == 2
        assert "field %r" % field in capsys.readouterr().err

    def test_non_string_keys_are_named_not_crashed_on(self):
        with pytest.raises(UnknownSpecKeyError) as err:
            loads("name: y\nmode: host\n1: x\n")
        assert err.value.field == "1"
        with pytest.raises(ComponentError) as err:
            ScenarioSpec.from_dict(dict(HOST_SPEC,
                                        host={"ref": "xl@1", 1: 2}))
        assert err.value.field == "host"

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
        spec = ScenarioSpec.from_dict(BOOT_STORM)
        config = spec.to_cluster_config(7)
        assert config == ClusterConfig(spec=spec, seed=7)
        # 8 hosts share 32 guests: 4 each, plus 8 spare shells.
        assert config.pool_target() == 12
        assert config.create_start() == 12.0 * 12 + 50.0
        assert config.traffic_start() == config.create_start() + 48.0

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
        assert config.spec.topology.epoch_ms == 4.0
        assert config.spec.traffic.create_spacing_ms == 7.0
        assert config.traffic_start() == \
            config.create_start() + 32 * 7.0 / 2

    @pytest.mark.parametrize("host", [
        "lightvm-batched@1",
        {"ref": "chaos+xs@1", "xenstore_workers": 4},
        {"ref": "chaos+xs@1", "xenstore_batch": True},
    ])
    def test_cluster_mode_runs_xenstore_knobs(self, host):
        # Nodes build their hosts through HostProfile.build, which hands
        # both knobs to the host.
        spec = preset("boot-storm", hosts=3, guests=6, requests=60,
                      host=host)
        inline = Cluster(spec.to_cluster_config(2)).run()
        assert inline.stats["booted"] == 6
        for workers in (2, 3):
            procs = Cluster(spec.to_cluster_config(2), backend="procs",
                            workers=workers).run()
            assert procs.digest == inline.digest
            assert procs.stats == inline.stats

    def test_xenstore_knobs_change_a_cluster_run(self):
        def digest(host):
            return run_scenario(preset("boot-storm", hosts=3, guests=12,
                                       requests=300, host=host), 2).digest
        assert digest("chaos+xs@1") == (
            "8adff589c3c4ca2a46c15061f97dd0fe"
            "7e99b37e982095d5227f4d47ff81f032")
        assert digest({"ref": "chaos+xs@1", "xenstore_workers": 4,
                       "xenstore_batch": True}) == (
            "8a2f31cb67f632dfaca21c46f955f0ec"
            "99930c329df020f7275a14bec8a4d743")

    @pytest.mark.parametrize("key,value", [
        ("pool_slack", 200), ("warmup_ms_per_shell", 30.0),
        ("pooled", False)])
    def test_cluster_mode_rejects_pool_overrides(self, key, value):
        # Cluster nodes size and fill their pools themselves, so the
        # override would move the spec digest and nothing else.
        with pytest.raises(SpecTypeError) as err:
            preset("boot-storm", hosts=2, guests=4, requests=20,
                   host={"ref": "lightvm-64core@1", key: value})
        assert err.value.field == "host"
        assert repr(key) in str(err.value)


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
        for name in ("boot_storm.yaml", "chaos_churn.yaml",
                     "chaos_storm.yaml", "cluster_storm.yaml",
                     "fault_storm.yaml", "fig10_density.yaml",
                     "migration_churn.yaml", "xl_storm.yaml"):
            spec = load_spec(root / "examples" / name)
            assert spec.digest()
