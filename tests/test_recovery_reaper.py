"""Toolstack crash consistency: intents, the orphan reaper, the sweep.

A toolstack killed mid-create/destroy/migrate (``toolstack.*`` fault
points) leaves a half-done operation behind.  The per-phase intent
record stays open; ``Host.recover()`` rolls creates back, destroys
forward and migrations back to the source, then sweeps the store for
orphan subtrees.  Every test ends with a clean invariant audit.
"""

import pytest

from repro.core import Host, XEON_E5_1630_2DOM0
from repro.faults import FaultPlan, FaultRule, ToolstackCrashed
from repro.guests import DAYTIME_UNIKERNEL
from repro.hypervisor import DomainState
from repro.net import Link
from repro.sim import Simulator
from repro.toolstack import migrate


def make_host(variant="chaos+xs", plan=None, seed=0, sim=None):
    host = Host(variant=variant, seed=seed, sim=sim, fault_plan=plan,
                recovery=True)
    host.warmup(500)
    return host


def drained(host, ms=500.0):
    host.sim.run(until=host.sim.now + ms)
    return host.check_invariants()


def daemon_crash_host(variant, occurrence):
    """Three guests created and destroyed in turn while the XenStore
    daemon crashes once, at its ``occurrence``-th consultation."""
    host = Host(spec=XEON_E5_1630_2DOM0, variant=variant, seed=2,
                pool_target=8, shell_memory_kb=DAYTIME_UNIKERNEL.memory_kb,
                recovery=True, fault_plan=FaultPlan(seed=1, rules=(
                    FaultRule("xenstore.daemon_crash", at=(occurrence,)),)))
    host.warmup(300.0)
    domains = [host.create_vm(DAYTIME_UNIKERNEL).domain for _ in range(3)]
    for domain in domains:
        host.destroy_vm(domain)
    return host


class TestCreateCrash:
    # toolstack.create is consulted once per phase:
    # hypervisor, xenstore, devices, load.
    @pytest.mark.parametrize("occurrence,phase", [
        (1, "hypervisor"), (2, "xenstore"), (3, "devices"), (4, "load")])
    @pytest.mark.parametrize("variant", ["xl", "chaos+xs"])
    def test_crash_at_each_phase_reaps_clean(self, variant, occurrence,
                                             phase):
        plan = FaultPlan.once("toolstack.create", occurrence=occurrence,
                              kind="crash")
        host = make_host(variant, plan)
        with pytest.raises(ToolstackCrashed):
            host.create_vm(DAYTIME_UNIKERNEL)
        for _ in range(2):
            host.create_vm(DAYTIME_UNIKERNEL)

        intents = host.recovery.intents.open_intents()
        assert [i.op for i in intents] == ["create"]
        assert intents[0].crashed and intents[0].phase == phase

        host.recover()
        assert host.recovery.reaper.reaped["create"] == 1
        assert not host.recovery.intents.open_intents()
        assert host.running_guests == 2
        assert drained(host) == []

    def test_unreaped_crash_is_an_invariant_violation(self):
        plan = FaultPlan.once("toolstack.create", occurrence=2,
                              kind="crash")
        host = make_host("chaos+xs", plan)
        with pytest.raises(ToolstackCrashed):
            host.create_vm(DAYTIME_UNIKERNEL)
        violations = drained(host)
        assert violations and "still open" in violations[0]
        host.recover()
        assert drained(host) == []

    def test_successful_creates_close_their_intents(self):
        host = make_host()
        for _ in range(3):
            host.create_vm(DAYTIME_UNIKERNEL)
        assert len(host.recovery.intents) == 3
        assert not host.recovery.intents.open_intents()
        host.recover()  # reaping with nothing open is a no-op
        assert host.recovery.reaper.reaped["create"] == 0
        assert host.running_guests == 3
        assert drained(host) == []


class TestDestroyCrash:
    # toolstack.destroy phases: paused, devices, xenstore.
    @pytest.mark.parametrize("occurrence", [1, 2, 3])
    def test_crash_mid_destroy_rolls_forward(self, occurrence):
        plan = FaultPlan.once("toolstack.destroy", occurrence=occurrence,
                              kind="crash")
        host = make_host("chaos+xs", plan)
        keep = host.create_vm(DAYTIME_UNIKERNEL)
        victim = host.create_vm(DAYTIME_UNIKERNEL)
        with pytest.raises(ToolstackCrashed):
            host.destroy_vm(victim.domain)
        host.recover()
        # Roll forward: the half-destroyed guest finishes dying.
        assert host.recovery.reaper.reaped["destroy"] == 1
        assert victim.domain.domid not in host.hypervisor.domains
        assert keep.domain.state is DomainState.RUNNING
        assert host.running_guests == 1
        assert drained(host) == []

    def test_xl_destroy_crash_rolls_forward(self):
        plan = FaultPlan.once("toolstack.destroy", occurrence=2,
                              kind="crash")
        host = make_host("xl", plan)
        record = host.create_vm(DAYTIME_UNIKERNEL)
        with pytest.raises(ToolstackCrashed):
            host.destroy_vm(record.domain)
        host.recover()
        assert host.running_guests == 0
        assert drained(host) == []

    def test_daemon_restart_on_the_store_removal_is_resent(self):
        # The crash lands on the first destroy's removal of
        # /local/domain/<id>: the batched removal resends it once the
        # daemon is back, so the destroy completes.
        host = daemon_crash_host("chaos+xs", 80)
        assert host.xenstore.stats["crashes"] == 1
        host.recover()
        assert host.running_guests == 0
        assert host.check_invariants() == []


class TestSweep:
    def test_orphan_subtrees_are_swept(self):
        host = make_host()
        host.create_vm(DAYTIME_UNIKERNEL)

        def plant():
            from repro.xenstore import XsClient
            client = XsClient(host.xenstore)
            yield from client.mkdir("/local/domain/99/device")
            yield from client.write("/vm/99", "ghost")
        host.sim.run(until=host.sim.process(plant()))
        assert drained(host) != []  # the leak is visible

        host.recover()
        assert host.recovery.reaper.swept_paths == [
            "/local/domain/99", "/vm/99"]
        assert not host.xenstore.tree.exists("/local/domain/99")
        assert drained(host) == []

    @pytest.mark.parametrize("variant,occurrence", [
        ("chaos+xs", 89), ("chaos+xs+split", 100), ("xl", 323), ("xl", 324)])
    def test_sweep_outlasts_a_daemon_restart(self, variant, occurrence):
        # The crash lands on the sweep's own listing of the store.
        host = daemon_crash_host(variant, occurrence)
        assert host.xenstore.stats["crashes"] == 0
        host.recover()
        assert host.xenstore.stats["crashes"] == 1
        assert host.check_invariants() == []

    def test_live_domains_survive_the_sweep(self):
        host = make_host()
        records = [host.create_vm(DAYTIME_UNIKERNEL) for _ in range(3)]
        host.recover()
        assert host.recovery.reaper.swept_paths == []
        for record in records:
            assert record.domain.state is DomainState.RUNNING
        assert drained(host) == []


class TestMigrationCrash:
    def _pair(self, plan):
        sim = Simulator()
        src = Host(spec=XEON_E5_1630_2DOM0, variant="chaos+xs", sim=sim,
                   fault_plan=plan, recovery=True)
        dst = Host(spec=XEON_E5_1630_2DOM0, variant="chaos+xs", sim=sim,
                   seed=1, recovery=True)
        src.warmup(500)
        config = src.config_for(DAYTIME_UNIKERNEL)
        record = src.create_vm(config)
        link = Link(sim, latency_ms=0.1, bandwidth_mbps=1000.0)
        return sim, src, dst, record.domain, config, link

    def test_crash_mid_memory_copy_recovers_both_hosts(self):
        plan = FaultPlan.once("toolstack.migrate", occurrence=1,
                              kind="crash")
        sim, src, dst, domain, config, link = self._pair(plan)
        proc = sim.process(migrate(
            src.checkpointer, dst.checkpointer, domain, config, link,
            faults=src.faults, intents=src.recovery.intents))
        with pytest.raises(ToolstackCrashed):
            sim.run(until=proc)
        # Mid-copy: the source is suspended, the destination half-built.
        assert domain.state is DomainState.SUSPENDED

        src.recover()
        assert src.recovery.reaper.reaped["migrate"] == 1
        # The source keeps running; the destination's partial guest is
        # reaped and its ambient weights are consistent again.
        assert domain.state is DomainState.RUNNING
        assert src.running_guests == 1
        assert dst.running_guests == 0
        sim.run(until=sim.now + 500.0)
        assert src.check_invariants() == []
        assert dst.check_invariants() == []

    def test_clean_migration_closes_its_intent(self):
        sim, src, dst, domain, config, link = self._pair(plan=None)
        proc = sim.process(migrate(
            src.checkpointer, dst.checkpointer, domain, config, link,
            faults=src.faults, intents=src.recovery.intents))
        remote = sim.run(until=proc)
        assert remote.state is DomainState.RUNNING
        assert not src.recovery.intents.open_intents()
        sim.run(until=sim.now + 500.0)
        assert src.check_invariants() == []
        assert dst.check_invariants() == []
