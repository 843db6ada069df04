"""Tests for Host assembly, specs, and component wiring."""

import pytest

from repro.core import (AMD_OPTERON_64, Host, HostSpec, VARIANTS,
                        XEON_E5_1630, XEON_E5_2690)
from repro.guests import DAYTIME_UNIKERNEL


class TestSpecs:
    def test_paper_machines(self):
        assert XEON_E5_1630.cores == 4
        assert XEON_E5_1630.memory_gb == 128
        assert AMD_OPTERON_64.cores == 64
        assert AMD_OPTERON_64.dom0_cores == 4
        assert XEON_E5_2690.cores == 14
        assert XEON_E5_2690.memory_gb == 64

    def test_guest_cores_derived(self):
        assert XEON_E5_1630.guest_cores == 3
        assert AMD_OPTERON_64.guest_cores == 60

    def test_custom_spec(self):
        spec = HostSpec(name="lab", cores=8, memory_gb=32, dom0_cores=2)
        host = Host(spec=spec, variant="chaos+noxs")
        assert len(host.hypervisor.scheduler.guest_cores) == 6
        assert len(host.hypervisor.scheduler.dom0_cores) == 2


class TestComponentWiring:
    def test_xenstore_variants_have_daemon(self):
        for variant in ("xl", "chaos+xs", "chaos+xs+split"):
            host = Host(variant=variant)
            assert host.xenstore is not None, variant
            assert host.noxs is None, variant

    def test_noxs_variants_have_module_and_sysctl(self):
        for variant in ("chaos+noxs", "lightvm"):
            host = Host(variant=variant)
            assert host.xenstore is None, variant
            assert host.noxs is not None, variant
            assert host.sysctl is not None, variant

    def test_split_variants_have_daemon(self):
        for variant in VARIANTS:
            host = Host(variant=variant)
            expected = variant in ("chaos+xs+split", "lightvm")
            assert (host.daemon is not None) == expected, variant

    def test_xl_uses_bash_hotplug(self):
        from repro.toolstack import BashHotplug, Xendevd
        assert isinstance(Host(variant="xl").toolstack.hotplug,
                          BashHotplug)
        assert isinstance(Host(variant="lightvm").toolstack.hotplug,
                          Xendevd)

    @pytest.mark.parametrize("variant, roots", [
        ("xl", ("/local/domain", "/vm")), ("chaos+xs", ("/local/domain",)),
        ("chaos+xs+split", ("/local/domain",)), ("chaos+noxs", None),
        ("lightvm", None)])
    def test_control_plane(self, variant, roots):
        from repro.toolstack.plane import NoxsPlane, XsPlane
        plane = Host(variant=variant).toolstack.plane
        if roots is None:
            assert isinstance(plane, NoxsPlane)
        else:
            assert isinstance(plane, XsPlane)
            assert plane.roots == roots

    def test_toolstack_names(self):
        assert Host(variant="xl").toolstack.name == "xl"
        assert Host(variant="lightvm").toolstack.name == "chaos+noxs+split"
        assert Host(variant="chaos+xs").toolstack.name == "chaos+xs"

    def test_warmup_fills_pool(self):
        host = Host(variant="lightvm", pool_target=6)
        assert len(host.daemon.pool) == 0
        host.warmup(2000)
        assert len(host.daemon.pool) == 6

    def test_shared_sim_across_hosts(self):
        from repro.sim import Simulator
        sim = Simulator()
        a = Host(variant="chaos+noxs", sim=sim)
        b = Host(variant="chaos+noxs", sim=sim)
        a.create_vm(DAYTIME_UNIKERNEL)
        b.create_vm(DAYTIME_UNIKERNEL)
        assert a.sim is b.sim
        assert a.running_guests == b.running_guests == 1

    def test_guest_memory_accounting(self):
        host = Host(variant="chaos+noxs")
        assert host.guest_memory_kb() == 0
        host.create_vm(DAYTIME_UNIKERNEL)
        assert host.guest_memory_kb() == DAYTIME_UNIKERNEL.memory_kb

    def test_config_for_uses_unique_names(self):
        host = Host(variant="chaos+noxs")
        a = host.config_for(DAYTIME_UNIKERNEL)
        b = host.config_for(DAYTIME_UNIKERNEL)
        assert a.name != b.name

    def test_cpu_utilization_idle_host(self):
        host = Host(variant="chaos+noxs")
        assert host.cpu_utilization() == 0.0
