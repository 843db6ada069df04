"""Tests for the noxs module, control pages and sysctl device."""

import pytest

from repro.hypervisor import (DEV_SYSCTL, DEV_VIF, DomainState, Hypervisor,
                              STATE_CONNECTED, STATE_INITIALISING)
from repro.noxs import (CTRL_SIZE, ControlPageError, DeviceControlPage,
                        NoxsModule, SysctlBackend, SysctlError)
from repro.sim import Simulator


def make_platform():
    sim = Simulator()
    hv = Hypervisor(sim, memory_kb=1024 * 1024, total_cores=4,
                    dom0_cores=1, dom0_memory_kb=64 * 1024)
    return sim, hv, NoxsModule(sim, hv)


def run(sim, gen):
    def wrapper():
        result = yield from gen
        return result
    return sim.run(until=sim.process(wrapper()))


class TestControlPage:
    def test_initial_state(self):
        page = DeviceControlPage(0x1000, DEV_VIF)
        assert page.state == STATE_INITIALISING
        assert page.dev_type == DEV_VIF
        assert page.mtu == 1500
        assert len(page.raw()) == CTRL_SIZE

    def test_state_transitions(self):
        page = DeviceControlPage(0x1000, DEV_VIF)
        page.state = STATE_CONNECTED
        assert page.state == STATE_CONNECTED

    def test_invalid_state_rejected(self):
        page = DeviceControlPage(0x1000, DEV_VIF)
        with pytest.raises(ControlPageError):
            page.state = 99

    def test_mac_roundtrip(self):
        mac = b"\x00\x16\x3e\xaa\xbb\xcc"
        page = DeviceControlPage(0x1000, DEV_VIF, mac=mac)
        assert page.mac == mac

    def test_bad_mac_rejected(self):
        with pytest.raises(ControlPageError):
            DeviceControlPage(0x1000, DEV_VIF, mac=b"\x00")

    def test_ring_ref_and_features(self):
        page = DeviceControlPage(0x1000, DEV_VIF)
        page.ring_ref = 77
        page.feature_bits = 0b101
        assert page.ring_ref == 77
        assert page.feature_bits == 0b101
        assert page.mac == b"\x00" * 6  # untouched by sibling setters


class TestNoxsModule:
    def test_create_device_returns_complete_entry(self):
        sim, hv, noxs = make_platform()
        dom = hv.domctl_create()
        entry = run(sim, noxs.ioctl_create_device(dom, DEV_VIF))
        assert entry.dev_type == DEV_VIF
        assert entry.backend_domid == 0
        assert entry.evtchn_port > 0
        assert entry.grant_ref > 0
        assert hv.grants.entry(0, entry.grant_ref).grantee_domid == dom.domid
        assert noxs.stats["devices_created"] == 1

    def test_create_device_takes_time(self):
        sim, hv, noxs = make_platform()
        dom = hv.domctl_create()
        run(sim, noxs.ioctl_create_device(dom, DEV_VIF))
        assert sim.now > 0

    def test_unsupported_type_rejected(self):
        sim, hv, noxs = make_platform()
        dom = hv.domctl_create()
        with pytest.raises(ValueError):
            run(sim, noxs.ioctl_create_device(dom, 42))

    def test_write_devpage_records_entry(self):
        sim, hv, noxs = make_platform()
        dom = hv.domctl_create()
        hv.devpage_create(dom)
        entry = run(sim, noxs.ioctl_create_device(dom, DEV_VIF))
        index = run(sim, noxs.write_devpage(dom, entry))
        assert dom.device_page.read(index).evtchn_port == entry.evtchn_port

    def test_destroy_device_releases_resources(self):
        sim, hv, noxs = make_platform()
        dom = hv.domctl_create()
        entry = run(sim, noxs.ioctl_create_device(dom, DEV_VIF))
        assert len(noxs.control_pages) == 1
        run(sim, noxs.ioctl_destroy_device(dom, entry))
        assert len(noxs.control_pages) == 0
        assert hv.grants.count_for(0) == 0
        assert noxs.stats["devices_destroyed"] == 1

    def test_destroy_slower_than_create(self):
        """§6.2: noxs device destruction is the unoptimized path."""
        sim, hv, noxs = make_platform()
        dom = hv.domctl_create()
        entry = run(sim, noxs.ioctl_create_device(dom, DEV_VIF))
        create_time = sim.now
        run(sim, noxs.ioctl_destroy_device(dom, entry))
        destroy_time = sim.now - create_time
        assert destroy_time > create_time


class TestSysctl:
    def _with_sysctl(self):
        sim, hv, noxs = make_platform()
        sysctl = SysctlBackend(sim, hv, noxs)
        dom = hv.domctl_create()
        hv.devpage_create(dom)
        run(sim, sysctl.attach(dom))
        return sim, hv, sysctl, dom

    def test_attach_creates_sysctl_entry(self):
        _sim, _hv, _sysctl, dom = self._with_sysctl()
        entries = [e for _i, e in dom.device_page.entries()]
        assert any(e.dev_type == DEV_SYSCTL for e in entries)
        assert SysctlBackend.NOTE_KEY in dom.notes

    def test_suspend_transitions_domain(self):
        sim, hv, sysctl, dom = self._with_sysctl()
        hv.domctl_unpause(dom)
        run(sim, sysctl.request_suspend(dom))
        assert dom.state == DomainState.SUSPENDED

    def test_suspend_requires_running(self):
        sim, _hv, sysctl, dom = self._with_sysctl()
        with pytest.raises(Exception):
            run(sim, sysctl.request_suspend(dom))

    def test_resume_after_suspend(self):
        sim, hv, sysctl, dom = self._with_sysctl()
        hv.domctl_unpause(dom)
        run(sim, sysctl.request_suspend(dom))
        run(sim, sysctl.complete_resume(dom))
        assert dom.state == DomainState.RUNNING

    def test_suspend_without_sysctl_rejected(self):
        sim, hv, noxs = make_platform()
        sysctl = SysctlBackend(sim, hv, noxs)
        dom = hv.domctl_create()
        hv.domctl_unpause(dom)
        with pytest.raises(SysctlError):
            run(sim, sysctl.request_suspend(dom))

    def test_suspend_takes_milliseconds_not_seconds(self):
        sim, hv, sysctl, dom = self._with_sysctl()
        hv.domctl_unpause(dom)
        start = sim.now
        run(sim, sysctl.request_suspend(dom))
        assert sim.now - start < 10.0  # paper: ~30 ms for full save


class TestDataPathRings:
    def test_vif_gets_a_ring_pair(self):
        sim, hv, noxs = make_platform()
        dom = hv.domctl_create()
        entry = run(sim, noxs.ioctl_create_device(dom, DEV_VIF))
        grant = hv.grants.entry(0, entry.grant_ref)
        page = noxs.control_pages[grant.frame]
        assert page.ring_ref == grant.frame
        assert grant.frame in noxs.rings

    def test_sysctl_has_no_data_path(self):
        sim, hv, noxs = make_platform()
        dom = hv.domctl_create()
        entry = run(sim, noxs.ioctl_create_device(dom, DEV_SYSCTL))
        grant = hv.grants.entry(0, entry.grant_ref)
        assert grant.frame not in noxs.rings

    def test_destroy_releases_rings(self):
        sim, hv, noxs = make_platform()
        dom = hv.domctl_create()
        entry = run(sim, noxs.ioctl_create_device(dom, DEV_VIF))
        run(sim, noxs.ioctl_destroy_device(dom, entry))
        assert not noxs.rings

    def test_ring_carries_traffic_end_to_end(self):
        sim, hv, noxs = make_platform()
        dom = hv.domctl_create()
        entry = run(sim, noxs.ioctl_create_device(dom, DEV_VIF))
        grant = hv.grants.entry(0, entry.grant_ref)
        pair = noxs.rings[grant.frame]
        # Front-end transmits; back-end consumes and responds.
        assert pair.requests.push({"pkt": 1}) is True
        request = pair.requests.pop()
        pair.responses.push({"status": "ok", "pkt": request["pkt"]})
        assert pair.responses.pop()["pkt"] == 1
