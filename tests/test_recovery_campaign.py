"""The chaos campaign: seeded schedules, ddmin shrinking, reproducers.

A campaign is a sweep of a recovery-enabled spec (every run audited),
plus ddmin over each failing seed's rules.  The acceptance fixture: a
deliberately-broken schedule (the reaper disabled, so a toolstack crash
nobody recovers) must shrink to at most two fault events, and the
one-seed manifest it becomes must replay to the same violations and the
same digest.
"""

import hashlib
import json
import pathlib

import pytest

from repro.faults import FaultPlan, FaultRule
from repro.recovery import OrphanReaper, campaign
from repro.stdlib import (MANIFEST_VERSION, ScenarioSpec, SpecTypeError,
                          load_spec, replay_manifest, run_scenario,
                          run_sweep, storm_spec)
from repro.stdlib.library import rules_to_json

ROOT = pathlib.Path(__file__).resolve().parent.parent
STORM = ROOT / "examples" / "chaos_storm.yaml"
CHURN = ROOT / "examples" / "chaos_churn.yaml"

#: The deliberately-broken fixture: three rules, only the create crash
#: matters once nobody reaps.
BROKEN = (FaultRule(point="toolstack.create", at=(6,), kind="crash"),
          FaultRule(point="xenstore.message", at=(3,), kind="drop"),
          FaultRule(point="xenstore.commit", at=(2,), kind="conflict"))


def chaos_spec(rules, guests=6):
    """A chaos+xs storm of ``guests`` daytime guests under ``rules``."""
    return storm_spec("chaos", {"ref": "chaos+xs@1", "pool_slack": 8},
                      "daytime@1", guests,
                      faults={"ref": "chaos@1",
                              "rules": rules_to_json(rules)})


@pytest.fixture
def no_reap(monkeypatch):
    """Disable the orphan reaper: crashed operations stay half-done,
    which the audit must report."""
    def reap(self):
        return
        yield
    monkeypatch.setattr(OrphanReaper, "reap", reap)
    return monkeypatch


def violations(rules, seed=7):
    return run_scenario(chaos_spec(rules), seed=seed).violations


class TestShrinking:
    def test_broken_schedule_shrinks_to_at_most_two_events(self, no_reap):
        assert violations(BROKEN)
        minimal = campaign.shrink(BROKEN, violations)
        assert len(minimal) <= 2
        assert any(rule.point == "toolstack.create" for rule in minimal)

    def test_shrunk_schedule_is_one_minimal(self, no_reap):
        minimal = campaign.shrink(BROKEN, violations)
        for index in range(len(minimal)):
            subset = minimal[:index] + minimal[index + 1:]
            assert subset == () or not violations(subset)

    def test_reproducer_json_replays_to_same_violation(self, no_reap):
        minimal = campaign.shrink(BROKEN, violations)
        reproducer = run_sweep(chaos_spec(minimal), [7])
        # Round-trip through JSON text, as the CLI artifact does.
        reloaded = json.loads(json.dumps(reproducer))
        same, replayed = replay_manifest(reloaded)
        assert same
        assert replayed["runs"] == reproducer["runs"]
        assert replayed["runs"][0]["violations"]

    def test_fixed_bug_replays_as_diverged(self, no_reap):
        reproducer = run_sweep(chaos_spec(BROKEN[:1]), [7])
        assert replay_manifest(reproducer)[0]
        no_reap.undo()  # the "fix": the reaper is back
        same, replayed = replay_manifest(reproducer)
        assert not same
        assert replayed["runs"][0]["violations"] == []

    def test_reaping_the_broken_schedule_passes(self):
        result = run_scenario(chaos_spec(BROKEN), seed=7, keep_host=True)
        assert result.violations == []
        assert result.host.recovery.reaper.reaped["create"] == 1


class TestCampaign:
    def test_all_seeds_recover_clean(self):
        manifest, reproducers = campaign.run_campaign(load_spec(STORM),
                                                      range(16))
        assert len(manifest["runs"]) == 16
        assert all(record["violations"] == []
                   for record in manifest["runs"])
        assert reproducers == []

    def test_storm_digests_match_the_pinned_rollup(self):
        # The campaign's own boot-storm runner, before it became a
        # sweep, gave these 16 digests; the sweep must reproduce them
        # at any worker count.
        spec = load_spec(STORM)
        inline = run_sweep(spec, range(16))
        rollup = hashlib.sha256("".join(
            record["digest"] for record in inline["runs"]).encode("ascii"))
        assert rollup.hexdigest() == ("24735d8cb3ae6edd2c1053faa538f712"
                                      "836b46e69bcb1940db10823704f16c32")
        assert run_sweep(spec, range(16), workers=2) == inline

    def test_churn_scenario_recovers_clean(self):
        _, reproducers = campaign.run_campaign(load_spec(CHURN), range(16))
        assert reproducers == []

    def test_no_reap_campaign_emits_shrunk_reproducers(self, no_reap):
        manifest, reproducers = campaign.run_campaign(load_spec(STORM),
                                                      range(8))
        failing = [record["seed"] for record in manifest["runs"]
                   if record["violations"]]
        assert failing  # at least one seed crashes a create in 8 tries
        assert [reproducer["seeds"] for reproducer in reproducers] == \
            [[seed] for seed in failing]
        for reproducer in reproducers:
            assert reproducer["version"] == MANIFEST_VERSION
            assert len(reproducer["spec"]["faults"]["rules"]) <= 2
            same, replayed = replay_manifest(reproducer)
            assert same
            assert replayed["runs"][0]["violations"] == \
                reproducer["runs"][0]["violations"] != []

    def test_schedules_are_seed_deterministic(self):
        assert FaultPlan.chaos(3) == FaultPlan.chaos(3)
        assert FaultPlan.chaos(3).rules != FaultPlan.chaos(4).rules
        assert load_spec(STORM).faults.build(3) == FaultPlan.chaos(3)

    def test_rule_dict_roundtrip(self):
        rule = FaultRule(point="toolstack.create", at=(6,), kind="crash",
                         max_fires=1, delay_ms=2.5)
        spec = chaos_spec([rule])
        again = ScenarioSpec.from_dict(json.loads(json.dumps(spec.source)))
        assert again.faults.build(seed=0).rules == (rule,)
        assert again.digest() == spec.digest()
        assert chaos_spec([rule, rule]).digest() != spec.digest()

    def test_unknown_scenario_rejected(self, capsys):
        # A campaign runs only audited host-mode specs; anything else is
        # a typed error naming the field, before any run (exit 2).
        from repro.cli import main
        for name, field in (("boot_storm.yaml", "faults"),
                            ("cluster_storm.yaml", "mode")):
            path = ROOT / "examples" / name
            with pytest.raises(SpecTypeError) as err:
                campaign.run_campaign(load_spec(path), [0])
            assert err.value.field == field
            assert main(["chaos", str(path)]) == 2
            assert "field %r" % field in capsys.readouterr().err

    def test_unknown_reproducer_version_rejected(self, tmp_path, capsys):
        from repro.cli import main
        reproducers = [run_sweep(chaos_spec(BROKEN[:1]), [7])]
        reproducers[0]["version"] = 99
        path = tmp_path / "reproducers.json"
        path.write_text(json.dumps(reproducers))
        assert main(["run", "--replay", str(path)]) == 2
        assert "'version'" in capsys.readouterr().err


class TestChaosCommand:
    def test_reproducers_replay_only_while_the_bug_lives(
            self, no_reap, tmp_path, capsys):
        from repro.cli import main
        out = tmp_path / "r.json"
        assert main(["chaos", str(STORM), "--seeds", "0..7",
                     "--out", str(out)]) == 1
        reproducers = json.loads(out.read_text())
        assert reproducers
        for reproducer in reproducers:
            assert reproducer["seeds"] == [reproducer["runs"][0]["seed"]]
            assert len(reproducer["spec"]["faults"]["rules"]) <= 2
        assert main(["run", "--replay", str(out)]) == 0
        no_reap.undo()
        assert main(["run", "--replay", str(out)]) == 1
        reproducers[0]["spec"]["faults"]["rules"][0]["at"] = 6
        out.write_text(json.dumps(reproducers))
        capsys.readouterr()
        assert main(["run", "--replay", str(out)]) == 2
        assert "field 'faults'" in capsys.readouterr().err
