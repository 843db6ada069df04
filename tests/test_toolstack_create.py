"""Tests for VM creation across the five toolstack variants."""

import pytest

from repro.core import Host, VARIANTS
from repro.faults import FaultPlan, FaultRule
from repro.guests import DAYTIME_UNIKERNEL, NOOP_UNIKERNEL
from repro.hypervisor import DomainState
from repro.toolstack.devices import DeviceSetupError, XsDeviceManager
from repro.xenstore import MAX_TX_RETRIES


@pytest.fixture(params=VARIANTS)
def host(request):
    h = Host(variant=request.param)
    h.warmup(500)
    return h


class TestCreateAcrossVariants:
    def test_create_boots_a_running_domain(self, host):
        record = host.create_vm(DAYTIME_UNIKERNEL)
        assert record.domain.state == DomainState.RUNNING
        assert record.create_ms > 0
        assert record.boot_ms > 0

    def test_phase_breakdown_sums_to_create(self, host):
        record = host.create_vm(DAYTIME_UNIKERNEL)
        assert sum(record.phases.values()) == pytest.approx(
            record.create_ms, rel=0.01)

    def test_create_without_boot_leaves_created(self, host):
        record = host.create_vm(DAYTIME_UNIKERNEL, boot=False)
        assert record.domain.state in (DomainState.CREATED,)
        assert record.boot_ms == 0.0

    def test_destroy_releases_domain(self, host):
        record = host.create_vm(DAYTIME_UNIKERNEL)
        count_before = host.running_guests
        host.destroy_vm(record.domain)
        assert host.running_guests == count_before - 1

    def test_memory_reserved_matches_image(self, host):
        record = host.create_vm(DAYTIME_UNIKERNEL)
        owned = host.hypervisor.memory.owned_kb(record.domain.domid)
        assert owned == DAYTIME_UNIKERNEL.memory_kb


class TestVariantOrdering:
    """The paper's headline comparisons between the configurations."""

    @staticmethod
    def _first_create(variant, image=DAYTIME_UNIKERNEL):
        host = Host(variant=variant)
        host.warmup(500)
        record = host.create_vm(image)
        return record

    def test_chaos_much_faster_than_xl(self):
        xl = self._first_create("xl")
        chaos = self._first_create("chaos+xs")
        assert chaos.create_ms < xl.create_ms / 4

    def test_split_faster_than_unsplit(self):
        unsplit = self._first_create("chaos+xs")
        split = self._first_create("chaos+xs+split")
        assert split.create_ms < unsplit.create_ms

    def test_lightvm_fastest(self):
        lightvm = self._first_create("lightvm")
        for other in ("xl", "chaos+xs", "chaos+xs+split", "chaos+noxs"):
            assert lightvm.create_ms <= self._first_create(other).create_ms

    def test_noop_unikernel_near_paper_floor(self):
        """§6.1: noop + all optimizations boots in about 2.3 ms."""
        record = self._first_create("lightvm", image=NOOP_UNIKERNEL)
        assert record.total_ms == pytest.approx(2.3, abs=0.5)

    def test_lightvm_daytime_near_4ms(self):
        record = self._first_create("lightvm")
        assert record.total_ms == pytest.approx(4.4, abs=1.0)

    def test_xl_first_creation_near_100ms(self):
        record = self._first_create("xl")
        assert 60 <= record.create_ms <= 140


class TestScalingBehaviour:
    def test_xl_creation_grows_with_running_guests(self):
        host = Host(variant="xl")
        first = host.create_vm(DAYTIME_UNIKERNEL)
        for _ in range(120):
            host.create_vm(DAYTIME_UNIKERNEL)
        late = host.create_vm(DAYTIME_UNIKERNEL)
        assert late.create_ms > first.create_ms * 1.2

    def test_lightvm_creation_flat(self):
        host = Host(variant="lightvm", pool_target=200)
        host.warmup(3000)
        first = host.create_vm(DAYTIME_UNIKERNEL)
        for _ in range(120):
            host.create_vm(DAYTIME_UNIKERNEL)
        late = host.create_vm(DAYTIME_UNIKERNEL)
        assert late.create_ms == pytest.approx(first.create_ms, rel=0.25)

    def test_noxs_needs_no_xenstore(self):
        host = Host(variant="lightvm")
        assert host.xenstore is None
        host.warmup(500)
        record = host.create_vm(DAYTIME_UNIKERNEL)
        assert record.xenstore_retries == 0
        assert record.phases["xenstore"] == 0.0

    def test_xl_device_page_absent(self):
        host = Host(variant="xl")
        record = host.create_vm(DAYTIME_UNIKERNEL)
        assert record.domain.device_page is None

    def test_lightvm_device_page_present(self):
        host = Host(variant="lightvm")
        host.warmup(500)
        record = host.create_vm(DAYTIME_UNIKERNEL)
        assert record.domain.device_page is not None
        assert record.domain.device_page.count >= 1  # vif (+ sysctl)


class TestHostValidation:
    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            Host(variant="kvm")

    def test_names_unique(self):
        host = Host(variant="xl")
        r1 = host.create_vm(DAYTIME_UNIKERNEL)
        r2 = host.create_vm(DAYTIME_UNIKERNEL)
        assert r1.config_name != r2.config_name


class TestCreationRecord:
    # One commit conflict: on xl the second commit is the first guest's
    # vif transaction, on chaos+xs the first is its registration.
    @pytest.mark.parametrize("variant,commit", [("xl", 2), ("chaos+xs", 1)])
    def test_xenstore_retries_are_this_creations_own(self, variant, commit):
        host = Host(variant=variant, fault_plan=FaultPlan(
            rules=(FaultRule("xenstore.commit", at=(commit,)),)))
        host.warmup(600)
        assert [host.create_vm(DAYTIME_UNIKERNEL).xenstore_retries
                for _ in range(3)] == [1, 0, 0]

    @pytest.mark.parametrize("variant", ["xl", "chaos+xs"])
    def test_concurrent_creates_count_each_retry_once(self, variant):
        host = Host(variant=variant, fault_plan=FaultPlan(seed=1, rules=(
            FaultRule("xenstore.commit", probability=0.3),)))
        host.warmup(600)
        records = []

        def create():
            records.append((yield from host.toolstack.create_vm(
                host.config_for(DAYTIME_UNIKERNEL))))

        host.sim.run(until=host.sim.all_of(
            [host.sim.process(create()) for _ in range(6)]))
        assert sum(record.xenstore_retries for record in records) == \
            host.xenstore.stats["conflicts"] == 7


class TestFailedDeviceSetup:
    """Both failure branches of ``XsDeviceManager.create_device`` run
    ``_cleanup_failed_create``: it leaves neither store entries nor a
    pending request behind, the create fails typed, and after the
    create's own rollback the host audits clean."""

    @pytest.fixture
    def cleanups(self, monkeypatch):
        """What each cleanup left: (front entries, back entries, still
        pending), read as soon as it returns, before the rollback."""
        left = []
        cleanup = XsDeviceManager._cleanup_failed_create

        def spy(manager, domain, kind, index):
            yield from cleanup(manager, domain, kind, index)
            tree = manager.xenstore.tree
            left.append((
                tree.exists("/local/domain/%d/device/%s/%d"
                            % (domain.domid, kind, index)),
                tree.exists("/local/domain/0/backend/%s/%d"
                            % (kind, domain.domid)),
                (domain.domid, kind, index) in manager._pending))

        monkeypatch.setattr(XsDeviceManager, "_cleanup_failed_create", spy)
        return left

    @pytest.mark.parametrize("variant", ["xl", "chaos+xs"])
    def test_backend_that_never_responds(self, variant, cleanups):
        host = Host(variant=variant, fault_plan=FaultPlan(seed=1, rules=(
            FaultRule("xenstore.watch", probability=1.0),)))
        with pytest.raises(DeviceSetupError,
                           match="back-end never responded"):
            host.create_vm(DAYTIME_UNIKERNEL)
        assert cleanups == [(False, False, False)]
        host.sim.run(until=host.sim.now + 500)
        assert host.check_invariants() == []

    @pytest.mark.parametrize("variant", ["xl", "chaos+xs"])
    def test_device_transaction_out_of_retries(self, variant, cleanups):
        # Commit 1 is the guest's registration; every attempt of its vif
        # transaction follows.  probability=1.0 would fail the
        # registration instead.
        attempts = tuple(range(2, MAX_TX_RETRIES + 3))
        host = Host(variant=variant, fault_plan=FaultPlan(rules=(
            FaultRule("xenstore.commit", at=attempts),)))
        with pytest.raises(DeviceSetupError,
                           match="transaction retries exhausted"):
            host.create_vm(DAYTIME_UNIKERNEL)
        assert host.faults.injected == {"xenstore.commit": len(attempts)}
        assert cleanups == [(False, False, False)]
        host.sim.run(until=host.sim.now + 500)
        assert host.check_invariants() == []
