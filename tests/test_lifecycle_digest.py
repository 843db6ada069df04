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
"""

import pytest

from repro.analysis import EventTrace
from repro.core import VARIANTS, Host, XEON_E5_1630_2DOM0
from repro.faults import (FaultInjector, FaultPlan, FaultRule,
                          MigrationAborted)
from repro.guests import DAYTIME_UNIKERNEL
from repro.net import Link
from repro.sim import Simulator
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
