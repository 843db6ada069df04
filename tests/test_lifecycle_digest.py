"""Lifecycle digest pins: every guest operation on all five variants.

One scenario drives each operation on an existing guest through the
control plane: create (with one rollback under ``FAULTY``), save and
restore, a live migration, an aborted migration, pause/unpause, an
in-place reboot and destroy on both hosts.  The replay digest of that
timeline is pinned per variant, fault-free and under ``FAULTY``, so a
change to any of those paths shows up here even where no figure test
runs it.  After the run both hosts must audit clean, and the XenStore
daemons' ambient-client ledgers must hold exactly the live guests'
weights.

Two more pins cover the crash-recovery side of create and destroy: a
recovery-on lifecycle whose crashed creates and destroy the orphan
reaper finishes, and the rollup of a churn storm under the chaos@1
schedules on every variant.
"""

import functools
import hashlib

import pytest

from repro.analysis import EventTrace
from repro.core import VARIANTS, Host, XEON_E5_1630_2DOM0
from repro.faults import (FaultInjector, FaultPlan, FaultRule,
                          MigrationAborted)
from repro.guests import DAYTIME_UNIKERNEL
from repro.net import Link
from repro.sim import Simulator
from repro.stdlib import run_sweep, storm_spec
from repro.toolstack import migrate

#: Makes one create on every variant roll back.
FAULTY = FaultPlan(seed=3, rules=(
    FaultRule("hypervisor.hypercall", at=(3, 9)),
    FaultRule("hotplug.*", probability=1.0, max_fires=9),
    FaultRule("xenstore.commit", at=(5,)),
    FaultRule("xenstore.message", at=(11,))))

#: (variant, faulty) -> (replay digest, event count).  The xl timelines
#: include removing each saved or migrated guest's ``/vm/<domid>``.
PINS = {
    ("xl", False): (
        "edc2b300363f725d4d7e6787364613a7afdb0074633a45ffa6fb20d621883990",
        3386),
    ("xl", True): (
        "4584401647a137abe134c44ff542620dca80c39b32694cf85f9fab3bbeabbd78",
        3559),
    ("chaos+xs", False): (
        "b5293807ecc319dda97567ceb4c8bf1362bf55a60f0a55bd0328252ffe07d19d",
        969),
    ("chaos+xs", True): (
        "78e89ceb7c6a8e93aa5e4a2466b5dd3f08fdd514c573d70fe7d99d4d15533130",
        994),
    ("chaos+xs+split", False): (
        "7900e22abcd6a1386d9a2284219cffe833dd21fda0739f2452eddc46a80fc685",
        1448),
    ("chaos+xs+split", True): (
        "a4d95f5223aa6aabefbffc0a5b881c79d15f3081a9039cf3c84900150a454c87",
        1476),
    ("chaos+noxs", False): (
        "21ba8c8c20cf76539d1ecfe8b466c729acb11f5e31ee96384514d1503a3db575",
        302),
    ("chaos+noxs", True): (
        "ef435ae2cd81b112a5ffa705430c5d347623f1bbf8300a579a479313ffd92e6e",
        308),
    ("lightvm", False): (
        "106e673f67fa308fd510149badbe00c702effd48469dbd7d5f4b84665afe49eb",
        585),
    ("lightvm", True): (
        "b28b0e08f2483f84795b0871436ff0f13fb973baf569bcfaa5529b6cc8d8962b",
        608),
}


def lifecycle(variant, plan):
    sim = Simulator()
    trace = EventTrace().attach(sim)
    kw = dict(spec=XEON_E5_1630_2DOM0, variant=variant, sim=sim,
              pool_target=24, shell_memory_kb=DAYTIME_UNIKERNEL.memory_kb)
    src, dst = Host(seed=5, fault_plan=plan, **kw), Host(seed=6, **kw)
    src.warmup(600.0)
    link = Link(sim, latency_ms=0.1, bandwidth_mbps=1000.0)
    guests = []
    for _ in range(8):
        config = src.config_for(DAYTIME_UNIKERNEL)
        try:
            guests.append((src.create_vm(config).domain, config))
        except Exception:
            pass
    domain, config = guests.pop(0)
    guests.append((src.restore_vm(src.save_vm(domain, config)), config))
    sim.run(until=sim.now + 50.0)
    domain, config = guests.pop(0)
    moved = sim.run(until=sim.process(migrate(
        src.checkpointer, dst.checkpointer, domain, config, link)))
    domain, config = guests[0]
    with pytest.raises(MigrationAborted):
        sim.run(until=sim.process(migrate(
            src.checkpointer, dst.checkpointer, domain, config, link,
            faults=FaultInjector(FaultPlan.once("migration.link")))))
    domain, _ = guests[1]
    src.pause_vm(domain)
    src.unpause_vm(domain)
    sim.run(until=sim.process(src.power.reboot(domain)))
    src.destroy_vm(guests.pop(2)[0])
    dst.destroy_vm(moved)
    sim.run(until=sim.now + 200.0)
    return src, dst, trace


@pytest.mark.parametrize("faulty", [False, True],
                         ids=["fault-free", "faulty"])
@pytest.mark.parametrize("variant", VARIANTS)
def test_lifecycle_digest(variant, faulty):
    src, dst, trace = lifecycle(variant, FAULTY if faulty else None)
    assert (trace.digest(), trace.events) == PINS[variant, faulty]
    assert src.toolstack.rollbacks == (1 if faulty else 0)
    assert src.check_invariants() == []
    assert dst.check_invariants() == []
    if src.xenstore is not None:
        assert src.xenstore.ambient_clients == (5.0 if faulty else 6.0)
        assert dst.xenstore.ambient_clients == 0.0


#: Two creates and one destroy die mid-operation; the reaper finishes
#: them.
CRASHES = FaultPlan(seed=4, rules=(
    FaultRule("toolstack.create", at=(5, 14)),
    FaultRule("toolstack.destroy", at=(3,))))

#: variant -> (replay digest, event count) of :func:`recovery_lifecycle`.
RECOVERY_PINS = {
    "xl": (
        "f157f90388451b821c4a6b34310f4de56a40db8dde1cd5e6cd8e18a506667d49",
        2091),
    "chaos+xs": (
        "0441a874a012da59ff532a0cbd3c8d61a30b0c1f84581842724e3d909c98295a",
        594),
    "chaos+xs+split": (
        "ed8ffac70e39d7f24b2aaa6c3a421933d811949f0efb54b6678a9dc2925c8ece",
        899),
    "chaos+noxs": (
        "b8103a0146f412cb061698661c645d0a6dd7c2ac8db7a3f55fd7db08ada18f7e",
        199),
    "lightvm": (
        "b6786c9d01298bc5247f076fbee8e84c52d3daa9af65791bc6886eb43a809496",
        349),
}


@functools.lru_cache(maxsize=None)
def recovery_lifecycle(variant):
    """Eight overlapping creates, four concurrent destroys, then one
    recovery pass; crashed operations are recorded, not raised.  Returns
    what the tests read, not the host."""
    sim = Simulator()
    trace = EventTrace().attach(sim)
    host = Host(spec=XEON_E5_1630_2DOM0, variant=variant, sim=sim, seed=5,
                pool_target=24, shell_memory_kb=DAYTIME_UNIKERNEL.memory_kb,
                recovery=True, fault_plan=CRASHES)
    host.warmup(600.0)
    created, crashed = [], []

    def attempt(operation):
        try:
            created.append((yield from operation))
        except Exception as exc:
            crashed.append(exc)

    procs = []
    for index in range(8):
        config = host.config_for(DAYTIME_UNIKERNEL)
        procs.append(sim.process(attempt(host.toolstack.create_vm(config))))
        sim.run(until=sim.now + (0.0, 0.7, 1.4)[index % 3])
    sim.run(until=sim.all_of(procs))
    sim.run(until=sim.all_of([
        sim.process(attempt(host.toolstack.destroy_vm(record.domain)))
        for record in created[:4]]))
    host.recover()
    sim.run(until=sim.now + 500.0)
    return dict(pin=(trace.digest(), trace.events), crashed=len(crashed),
                rollbacks=host.toolstack.rollbacks,
                reaped=dict(host.recovery.reaper.reaped),
                violations=host.check_invariants())


@pytest.mark.parametrize("variant", VARIANTS)
def test_recovery_lifecycle_digest(variant):
    run = recovery_lifecycle(variant)
    assert run["pin"] == RECOVERY_PINS[variant]
    assert run["crashed"] == run["rollbacks"] == 3
    assert run["reaped"] == {"create": 2, "destroy": 1, "migrate": 0}


@pytest.mark.parametrize("variant", [
    variant if variant != "lightvm" else pytest.param(
        variant, marks=pytest.mark.xfail(strict=True, reason=(
            "ROADMAP direction 3(a): a create that crashes at its "
            "hypervisor check after claiming a shell has not recorded "
            "the shell's prepared vif yet, so the reaper's rollback "
            "leaves its dom0 grant and event channel bound to the dead "
            "shell domain")))
    for variant in VARIANTS])
def test_recovery_lifecycle_audits_clean(variant):
    assert recovery_lifecycle(variant)["violations"] == []


#: variant -> sha256 over the 16 seed digests of :func:`churn_spec`.
CHURN_ROLLUPS = {
    "xl": "9be7050f79d5f27c4855ee5bd963110edcbde49387d273aadf574de9544ff2b9",
    "chaos+xs":
        "8ce1018c6aaa6b7166a0043e6e6e2e1032766e9f1374e5c42565d1a7272bb731",
    "chaos+xs+split":
        "f0432faeca948ef3900e413177f02544aec6957131df750550fbdc329acbee77",
    "chaos+noxs":
        "6290e732545495571e5cd9d69ea6cf5d183e3300e81fb809255976c9987209ec",
    "lightvm":
        "52a940c4c2de3ef910809e97b145db9757970f0bdad487850e671a988164ce70",
}


def churn_spec(variant):
    """Six churned daytime guests under the chaos@1 crash schedules."""
    return storm_spec("c", {"ref": variant + "@1", "pool_slack": 8},
                      "daytime@1", 6,
                      traffic={"ref": "churn@1", "churn_working_set": 2},
                      faults="chaos@1")


@pytest.mark.parametrize("variant", VARIANTS)
def test_churn_under_crash_schedules_rollup(variant):
    manifest = run_sweep(churn_spec(variant), range(16))
    rollup = hashlib.sha256("".join(
        record["digest"] for record in manifest["runs"]).encode("ascii"))
    assert rollup.hexdigest() == CHURN_ROLLUPS[variant]
    assert all(record["violations"] == [] for record in manifest["runs"])
