"""Checkpointing (save/restore) and live migration (§5.1, §6.2).

One implementation serves every toolstack: libxc serializes the memory,
the toolstack re-creates the domain on restore, and the toolstack's
control plane (:mod:`repro.toolstack.plane`) suspends, resumes and
releases the guest.  On xl, restore re-runs full XenStore device setup
with bash hotplug and is the expensive direction (Fig 12b: ~550 ms), and
both directions degrade as the XenStore loads up.  On LightVM's noxs
plane, save ≈ 30 ms and restore ≈ 20 ms, flat in the number of running
guests (Fig 12).

Migration (Fig 13) follows chaos: it "open[s] a TCP connection to a
migration daemon running on the remote host and ... send[s] the guest's
configuration so that the daemon pre-creates the domain and creates the
devices", then suspends the guest and streams its memory.
"""

from __future__ import annotations

import dataclasses
import typing

from ..faults.plan import NULL_INJECTOR, MigrationAborted, ToolstackCrashed
from ..hypervisor.domain import Domain
from ..net.links import Link
from ..trace.tracer import tracer_of
from .config import VMConfig

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.engine import Simulator


@dataclasses.dataclass
class MigrationCosts:
    """Cost constants for checkpoint/migration (ms unless noted)."""

    #: libxc memory serialization rate to/from the ramdisk, MB per ms
    #: (0.125 MB/ms = 125 MB/s; calibrated so a 3.6 MB daytime guest saves
    #: in ≈30 ms including control-plane work).
    ramdisk_mb_per_ms: float = 0.14
    #: Reading a checkpoint back is faster than writing one (sequential
    #: ramdisk read + batched mapping), MB per ms.
    restore_mb_per_ms: float = 0.24
    #: Fixed libxc setup per save/restore (context, fd plumbing); the
    #: toolstack's own overhead around each is in the toolstack's costs.
    libxc_fixed_ms: float = 1.5


@dataclasses.dataclass
class SavedImage:
    """A checkpoint on disk (or in flight during migration)."""

    config: VMConfig
    memory_kb: int
    #: Simulated time the save finished.
    saved_at: float = 0.0


class Checkpointer:
    """save/restore on top of a toolstack instance."""

    def __init__(self, toolstack,
                 costs: typing.Optional[MigrationCosts] = None):
        self.toolstack = toolstack
        self.sim: "Simulator" = toolstack.sim
        self.costs = costs or MigrationCosts()

    # ------------------------------------------------------------------
    # Helpers
    # ------------------------------------------------------------------
    def _dump_ms(self, memory_kb: int) -> float:
        return (self.costs.libxc_fixed_ms
                + memory_kb / 1024.0 / self.costs.ramdisk_mb_per_ms)

    def _load_ms(self, memory_kb: int) -> float:
        return (self.costs.libxc_fixed_ms
                + memory_kb / 1024.0 / self.costs.restore_mb_per_ms)

    # ------------------------------------------------------------------
    # Save
    # ------------------------------------------------------------------
    def save(self, domain: Domain, config: VMConfig):
        """Generator: checkpoint ``domain`` and destroy it.

        Returns a :class:`SavedImage`.
        """
        with tracer_of(self.sim).span("migration.save",
                                      domid=domain.domid,
                                      config=config.name):
            saved = yield from self._save(domain, config)
        return saved

    def _save(self, domain: Domain, config: VMConfig):
        yield self.sim.timeout(self.toolstack.costs.save_overhead_ms)
        yield from self.toolstack.plane.suspend(domain)
        # libxc: stream guest memory to the ramdisk.
        memory_kb = domain.memory_kb
        yield self.sim.timeout(self._dump_ms(memory_kb))
        yield from self.toolstack.plane.release_saved(domain)
        return SavedImage(config=config, memory_kb=memory_kb,
                          saved_at=self.sim.now)

    # ------------------------------------------------------------------
    # Restore
    # ------------------------------------------------------------------
    def restore(self, saved: SavedImage):
        """Generator: bring a checkpoint back; returns the new Domain.

        Restores re-run domain and device creation (which is why xl's
        restore is its slowest operation), then load memory and resume —
        no guest kernel boot.
        """
        with tracer_of(self.sim).span("migration.restore",
                                      config=saved.config.name):
            domain = yield from self._restore(saved)
        return domain

    def _restore(self, saved: SavedImage):
        ts = self.toolstack
        yield self.sim.timeout(ts.costs.restore_overhead_ms)
        record = yield from ts.create_vm(saved.config, boot=False)
        domain = record.domain
        # libxc: load the memory image back.
        yield self.sim.timeout(self._load_ms(saved.memory_kb))
        domain.image = saved.config.image
        # Resume (no kernel boot: the guest continues where it stopped).
        yield from ts.plane.resume(domain, saved.config.image.ambient_weight)
        return domain


def migrate(source: Checkpointer, destination: Checkpointer,
            domain: Domain, config: VMConfig, link: Link, faults=None,
            intents=None):
    """Generator: live-migrate ``domain`` from source to destination host.

    Follows §5.1's flow: connect to the remote migration daemon, send the
    configuration so the remote side pre-creates the domain and devices,
    suspend the guest, stream its memory, and resume remotely.  Returns
    the new Domain on the destination.

    Failure semantics: if the destination cannot create the domain (e.g.
    it is out of memory), or the link dies mid-copy (the
    ``migration.link`` fault point), the migration raises
    :class:`MigrationAborted` with the source guest resumed and running
    and nothing leaked on the destination.

    With an :class:`~repro.recovery.intents.IntentLog` attached
    (``intents``), the ``toolstack.migrate`` crash point can additionally
    kill the migrating process mid-memory-copy: no inline abort runs —
    the open intent leaves recovery (resume source, reap destination) to
    the orphan reaper.
    """
    sim = source.sim
    start = sim.now
    faults = faults if faults is not None else NULL_INJECTOR

    with tracer_of(sim).span("migration.migrate", config=config.name,
                             domid=domain.domid):
        remote_domain = yield from _migrate(source, destination, domain,
                                            config, link, faults, intents)
    remote_domain.notes["migrated_in_ms"] = sim.now - start
    return remote_domain


def _migrate(source: Checkpointer, destination: Checkpointer,
             domain: Domain, config: VMConfig, link: Link, faults,
             intents=None):
    sim = source.sim
    intent = (intents.open("migrate", toolstack=source.toolstack,
                           domain=domain, config=config, source=source,
                           destination=destination, remote_domain=None)
              if intents is not None else None)

    # TCP connection + configuration exchange.
    yield from link.round_trip()
    yield from link.transfer(max(1, len(config.text) // 1024))

    # Remote pre-creation of the domain and its devices.  The source
    # guest has not been touched yet, so a failure here aborts cleanly
    # (the destination toolstack already rolled its half back).
    try:
        record = yield from destination.toolstack.create_vm(config,
                                                            boot=False)
    except Exception as exc:
        if intent is not None:
            intent.close()  # aborted cleanly: nothing for the reaper
        raise MigrationAborted(
            "destination could not pre-create %r: %s"
            % (config.name, exc)) from exc
    remote_domain = record.domain
    if intent is not None:
        intent.notes["remote_domain"] = remote_domain
        intent.advance("pre_created")

    # Suspend the source guest.
    yield from source.toolstack.plane.suspend(domain)

    # Stream the guest memory over the wire (libxc send path).
    memory_kb = domain.memory_kb
    yield sim.timeout(source.costs.libxc_fixed_ms)
    if intent is not None and \
            faults.fires("toolstack.migrate") is not None:
        # The migrating chaos/xl process dies mid-copy: the source guest
        # stays suspended, the destination keeps its empty pre-created
        # domain, and half the memory crossed the wire for nothing.  No
        # inline abort — the reaper owns recovery via the open intent.
        intent.advance("memory_copy")
        intent.crashed = True
        yield from link.transfer(max(1, memory_kb // 2))
        raise ToolstackCrashed(
            "migration toolstack died streaming %r" % config.name)
    if faults.fires("migration.link") is not None:
        # The TCP connection died mid-copy: half the memory crossed the
        # wire for nothing.  Resume the source, roll back the remote.
        yield from link.transfer(max(1, memory_kb // 2))
        yield from _abort_migration(source, destination, domain, config,
                                    remote_domain)
        if intent is not None:
            intent.close()  # aborted inline: nothing for the reaper
        raise MigrationAborted(
            "link interrupted while streaming %r; source resumed"
            % config.name)
    yield from link.transfer(memory_kb)

    # Tear down on the source, resume on the destination (whose daemon,
    # on the XenStore, now carries the guest's ambient traffic).
    yield from source.toolstack.plane.release(domain)
    yield sim.timeout(destination.costs.libxc_fixed_ms)
    yield from destination.toolstack.plane.resume(
        remote_domain, config.image.ambient_weight)
    if intent is not None:
        intent.close()
    return remote_domain


def _abort_migration(source: Checkpointer, destination: Checkpointer,
                     domain: Domain, config: VMConfig,
                     remote_domain: Domain):
    """Generator: undo a half-done migration — resume the suspended
    source guest and destroy the pre-created destination domain."""
    yield from source.toolstack.plane.resume(domain,
                                             config.image.ambient_weight)
    try:
        yield from destination.toolstack.destroy_vm(remote_domain)
    except Exception:
        pass
