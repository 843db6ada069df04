"""Tests for repro.faults: deterministic injection, retry, rollback."""

import pytest

from repro.core import Host
from repro.faults import (FaultInjector, FaultPlan, FaultRule,
                          InvariantViolation, MessageTimeout, RetryPolicy,
                          assert_clean, check_host)
from repro.hypervisor import DomainState
from repro.guests import DAYTIME_UNIKERNEL
from repro.sim.rng import RngRegistry
from repro.stdlib import run_scenario, storm_spec


def drained(host, ms=500.0):
    """Let async teardowns finish, then return invariant violations."""
    host.sim.run(until=host.sim.now + ms)
    return host.check_invariants()


class TestFaultInjector:
    def test_null_injector_never_fires(self):
        injector = FaultInjector()
        assert not injector.enabled
        assert injector.fires("xenstore.message") is None
        assert injector.metrics() == {}

    def test_once_fires_at_nth_occurrence_only(self):
        plan = FaultPlan.once("hotplug.script", occurrence=3,
                              kind="crash", delay_ms=7.0)
        injector = FaultInjector(plan)
        hits = [injector.fires("hotplug.script") for _ in range(6)]
        assert [h is not None for h in hits] == [False, False, True,
                                                False, False, False]
        assert hits[2].kind == "crash"
        assert hits[2].delay_ms == 7.0

    def test_max_fires_bounds_a_storm(self):
        plan = FaultPlan(rules=(FaultRule(point="xenstore.commit",
                                          probability=1.0, max_fires=3),))
        injector = FaultInjector(plan)
        fired = sum(injector.fires("xenstore.commit") is not None
                    for _ in range(10))
        assert fired == 3
        assert injector.metrics()["xenstore.commit"] == {
            "occurrences": 10, "injected": 3}

    def test_pattern_scopes_rules_to_matching_points(self):
        plan = FaultPlan.uniform(1.0, points="xenstore.*")
        injector = FaultInjector(plan)
        assert injector.fires("xenstore.message") is not None
        assert injector.fires("hotplug.script") is None

    def test_same_seed_same_schedule(self):
        plan = FaultPlan.uniform(0.3, seed=11)
        schedules = []
        for _ in range(2):
            injector = FaultInjector(plan)
            schedules.append([injector.fires("p") is not None
                              for _ in range(200)])
        assert schedules[0] == schedules[1]
        assert any(schedules[0]) and not all(schedules[0])

    def test_per_point_streams_are_isolated(self):
        """Interleaving draws for point b never perturbs point a."""
        plan = FaultPlan.uniform(0.3, seed=11)
        alone = FaultInjector(plan)
        pattern_alone = [alone.fires("a") is not None for _ in range(100)]
        mixed = FaultInjector(plan)
        pattern_mixed = []
        for _ in range(100):
            pattern_mixed.append(mixed.fires("a") is not None)
            mixed.fires("b")
        assert pattern_alone == pattern_mixed


class TestRetryPolicy:
    def test_backoff_grows_exponentially_to_cap(self):
        policy = RetryPolicy(base_ms=1.0, multiplier=2.0, cap_ms=8.0,
                             jitter=0.0)
        assert [policy.backoff_ms(r) for r in (1, 2, 3, 4, 5, 6)] == \
            [1.0, 2.0, 4.0, 8.0, 8.0, 8.0]

    def test_jitter_is_bounded_and_seeded(self):
        policy = RetryPolicy(base_ms=4.0, jitter=0.25)
        stream = RngRegistry(3).stream("j")
        first = [policy.backoff_ms(1, stream) for _ in range(20)]
        stream = RngRegistry(3).stream("j")
        again = [policy.backoff_ms(1, stream) for _ in range(20)]
        assert first == again
        assert all(3.0 <= d <= 5.0 for d in first)
        assert len(set(first)) > 1

    def test_gives_up_past_max_retries(self):
        policy = RetryPolicy(max_retries=3)
        assert not policy.give_up(3, 0.0, 10.0)
        assert policy.give_up(4, 0.0, 10.0)

    def test_deadline_overrides_remaining_retries(self):
        policy = RetryPolicy(max_retries=100, deadline_ms=50.0)
        assert not policy.give_up(1, 0.0, 49.0)
        assert policy.give_up(1, 0.0, 51.0)


class TestXenStoreFaults:
    def test_lost_message_is_retried_transparently(self):
        host = Host(variant="xl",
                    fault_plan=FaultPlan.once("xenstore.message"))
        record = host.create_vm(DAYTIME_UNIKERNEL)
        assert record.domain.state == DomainState.RUNNING
        assert host.xenstore.stats["timeouts"] == 1
        assert drained(host) == []

    def test_message_exhaustion_fails_loudly_then_recovers(self):
        plan = FaultPlan(rules=(FaultRule(point="xenstore.message",
                                          probability=1.0, max_fires=8),))
        host = Host(variant="xl", fault_plan=plan)
        with pytest.raises(MessageTimeout):
            host.create_vm(DAYTIME_UNIKERNEL)
        assert host.xenstore.stats["timeouts"] == 8
        assert drained(host) == []
        # The fault window has passed; the host is fully usable again.
        record = host.create_vm(DAYTIME_UNIKERNEL)
        assert record.domain.state == DomainState.RUNNING

    def test_conflict_storm_rides_the_retry_loop(self):
        plan = FaultPlan(rules=(FaultRule(point="xenstore.commit",
                                          probability=1.0, max_fires=3),))
        host = Host(variant="xl", fault_plan=plan)
        record = host.create_vm(DAYTIME_UNIKERNEL)
        assert record.domain.state == DomainState.RUNNING
        assert host.xenstore.stats["conflicts"] >= 3
        assert record.xenstore_retries >= 3
        assert drained(host) == []

    def test_dropped_watches_force_reannounce(self):
        plan = FaultPlan(rules=(FaultRule(point="xenstore.watch",
                                          probability=1.0, max_fires=2),))
        host = Host(variant="xl", fault_plan=plan)
        record = host.create_vm(DAYTIME_UNIKERNEL)
        assert record.domain.state == DomainState.RUNNING
        assert host.xenstore.stats["watch_drops"] == 2
        assert drained(host) == []


class TestHotplugFaults:
    def test_failed_script_is_relaunched(self):
        host = Host(variant="xl", fault_plan=FaultPlan.once(
            "hotplug.script", kind="exit-1"))
        record = host.create_vm(DAYTIME_UNIKERNEL)
        assert record.domain.state == DomainState.RUNNING
        assert host.toolstack.hotplug.failures == 1
        assert host.toolstack.hotplug.invocations >= 2
        assert drained(host) == []

    def test_script_exhaustion_rolls_the_creation_back(self):
        plan = FaultPlan(rules=(FaultRule(point="hotplug.script",
                                          probability=1.0, max_fires=9),))
        host = Host(variant="xl", fault_plan=plan)
        with pytest.raises(Exception):
            host.create_vm(DAYTIME_UNIKERNEL)
        assert host.toolstack.rollbacks == 1
        assert host.running_guests == 0
        assert drained(host) == []
        record = host.create_vm(DAYTIME_UNIKERNEL)
        assert record.domain.state == DomainState.RUNNING

    def test_xendevd_survives_a_failure_too(self):
        host = Host(variant="chaos+xs", fault_plan=FaultPlan.once(
            "hotplug.xendevd"))
        record = host.create_vm(DAYTIME_UNIKERNEL)
        assert record.domain.state == DomainState.RUNNING
        assert host.toolstack.hotplug.failures == 1
        assert drained(host) == []


class TestShellPoolFaults:
    def test_crashed_shell_is_torn_down_and_replenished(self):
        host = Host(variant="lightvm", pool_target=4,
                    fault_plan=FaultPlan.once("shellpool.shell",
                                              kind="crash"))
        host.warmup(2000)
        assert host.daemon.shells_crashed == 1
        assert len(host.daemon.pool) == 4  # replenished past the crash
        record = host.create_vm(DAYTIME_UNIKERNEL)
        assert record.domain.state == DomainState.RUNNING
        assert drained(host) == []


class TestHypervisorFaults:
    def test_transient_hypercall_is_retried(self):
        host = Host(variant="xl", fault_plan=FaultPlan.once(
            "hypervisor.hypercall"))
        record = host.create_vm(DAYTIME_UNIKERNEL)
        assert record.domain.state == DomainState.RUNNING
        assert host.fault_metrics()["hypervisor.hypercall"]["injected"] == 1
        assert drained(host) == []

    @pytest.mark.parametrize("variant", ["xl", "lightvm"])
    def test_grant_map_failure_is_retried(self, variant):
        host = Host(variant=variant, pool_target=4, fault_plan=FaultPlan.once(
            "hypervisor.grant_map"))
        host.warmup(2000)
        record = host.create_vm(DAYTIME_UNIKERNEL)
        assert record.domain.state == DomainState.RUNNING
        assert host.fault_metrics()["hypervisor.grant_map"]["injected"] == 1
        assert drained(host) == []


class TestDeterministicTimelines:
    @pytest.mark.parametrize("variant", ["xl", "chaos+xs", "lightvm"])
    def test_same_seed_and_plan_bitwise_identical(self, variant):
        """ISSUE acceptance: same (seed, FaultPlan) => same timeline."""
        timelines = []
        for _run in range(2):
            host = Host(variant=variant, seed=13, pool_target=8,
                        fault_plan=FaultPlan.uniform(0.05, seed=13))
            host.warmup(2000)
            creates = []
            for _ in range(8):
                try:
                    creates.append(host.create_vm(
                        DAYTIME_UNIKERNEL).create_ms)
                except Exception as exc:
                    creates.append(type(exc).__name__)
            timelines.append((creates, host.sim.now,
                              host.fault_metrics()))
        assert timelines[0] == timelines[1]

    def test_no_plan_means_no_timing_perturbation(self):
        """A None plan and an empty plan are byte-for-byte the same."""
        times = []
        for plan in (None, FaultPlan()):
            host = Host(variant="xl", seed=4, fault_plan=plan)
            times.append([host.create_vm(DAYTIME_UNIKERNEL).create_ms
                          for _ in range(3)])
        assert times[0] == times[1]


class TestInvariantChecker:
    def test_clean_host_has_no_violations(self):
        host = Host(variant="xl")
        host.create_vm(DAYTIME_UNIKERNEL)
        assert drained(host) == []
        assert_clean(host)  # does not raise

    def test_orphaned_xenstore_subtree_is_reported(self):
        host = Host(variant="xl")
        proc = host.sim.process(host.xenstore.write(
            0, "/local/domain/99/name", "ghost"))
        host.sim.run(until=proc)
        violations = host.check_invariants()
        assert violations and "99" in "".join(violations)
        with pytest.raises(InvariantViolation):
            assert_clean(host)

    def test_leaked_grant_is_reported(self):
        host = Host(variant="lightvm", pool_target=2)
        host.warmup(1000)
        record = host.create_vm(DAYTIME_UNIKERNEL)
        domid = record.domain.domid
        host.destroy_vm(record.domain)
        host.sim.run(until=host.sim.now + 500.0)
        host.hypervisor.grants.grant_access(domid, 0, 0xdead)
        assert any("leaked by dead granter dom%d" % domid in violation
                   for violation in host.check_invariants())

    @pytest.mark.xfail(strict=True, reason=(
        "chaos's noxs device setup takes only as many of a shell's "
        "prepared devices as the guest has vifs and vbds, so a noop "
        "guest (no vifs) on a one-vif shell drops the prepared vif "
        "without destroying it: each churned guest leaks a dom0 grant "
        "and an unbound dom0 channel naming the dead domain"))
    def test_noop_churn_leaves_nothing_behind(self):
        spec = storm_spec("noop-churn", "lightvm-64core@1", "noop@1", 16,
                          traffic="churn@1")
        result = run_scenario(spec, keep_host=True)
        assert check_host(result.host) == []
