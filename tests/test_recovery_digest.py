"""Replay-digest identity for crash-and-recover runs.

The PR 2 contract extends through the recovery layer: same seed + same
FaultPlan => identical EventTrace digest, *crashes included*.  Every
schedule here actually crashes something (a daemon crash and a toolstack
crash), recovers, and must digest identically across two fresh runs.
"""

import pytest

from repro.faults import FaultRule
from repro.stdlib import run_scenario, storm_spec
from repro.stdlib.library import rules_to_json

#: A schedule that reliably kills both layers mid-run: the daemon on the
#: 20th charged op and the toolstack create on phase 2 of guest 2.
CRASHY = (FaultRule(point="xenstore.daemon_crash", at=(20,), kind="crash"),
          FaultRule(point="toolstack.create", at=(6,), kind="crash"))

#: The two campaign patterns, as traffic components.
TRAFFIC = {"boot-storm": "boot-storm@1",
           "churn": {"ref": "churn@1", "churn_working_set": 2}}


def run(rules, seed, scenario="boot-storm"):
    spec = storm_spec("crashy", {"ref": "chaos+xs@1", "pool_slack": 8},
                      "daytime@1", 6, traffic=TRAFFIC[scenario],
                      faults={"ref": "chaos@1",
                              "rules": rules_to_json(rules)})
    return run_scenario(spec, seed=seed, keep_host=True)


class TestDualRunDigestIdentity:
    @pytest.mark.parametrize("scenario", ["boot-storm", "churn"])
    @pytest.mark.parametrize("seed", [0, 1, 2])
    def test_crash_and_recover_digests_identically(self, scenario, seed):
        first, second = [run(CRASHY, seed, scenario) for _ in range(2)]
        # The crashes really happened: one daemon crash and one
        # toolstack crash, each failing one create (DaemonRestarted,
        # ToolstackCrashed), one watchdog restart, one reaped create...
        faults = first.host.fault_metrics()
        assert faults["xenstore.daemon_crash"]["injected"] == 1
        assert faults["toolstack.create"]["injected"] == 1
        assert first.stats["create_failed"] == 2.0
        recovery = first.host.recovery
        assert recovery.watchdog.health()["crashes"] == 1
        assert recovery.reaper.reaped["create"] == 1
        # ...the run recovered...
        assert first.violations == []
        # ...and the two timelines are bit-identical.
        assert first.digest == second.digest
        assert first.violations == second.violations
        assert first.host.running_guests == second.host.running_guests

    def test_different_seeds_diverge_under_probabilistic_faults(self):
        # Occurrence-based rules fire identically regardless of seed;
        # probabilistic ones draw from the seed's fault streams, so the
        # timelines must differ (and each seed must still self-replay).
        probabilistic = (FaultRule(point="xenstore.message",
                                   probability=0.05, kind="drop"),)
        one = run(probabilistic, seed=0)
        two = run(probabilistic, seed=1)
        assert one.digest != two.digest
        again = run(probabilistic, seed=0)
        assert again.digest == one.digest

    def test_schedule_changes_the_digest(self):
        calm = run((), seed=0)
        crashy = run(CRASHY, seed=0)
        assert calm.violations == crashy.violations == []
        assert calm.digest != crashy.digest
