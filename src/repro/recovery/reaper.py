"""The orphan reaper: crash consistency for half-done toolstack ops.

When a toolstack process dies mid-operation (the ``toolstack.*`` crash
points), no inline rollback runs — the half-built or half-torn-down
guest simply stays behind, exactly like an ``xl create`` killed with
SIGKILL leaves stale ``/local/domain/<id>`` entries and a paused domain.
The reaper restores consistency deterministically:

1. walk the open :class:`~repro.recovery.intents.Intent` records in
   intent-id order and roll each operation back (create) or forward
   (destroy), or resume-source / reap-destination (migrate);
2. sweep the store against the hypervisor's domain list and remove any
   ``/local/domain/<id>`` / ``/vm/<id>`` subtree whose domain no longer
   exists (orphans from operations that never opened an intent).

Every teardown path is the toolstack's own tolerant rollback, so the
reaper ends in the same state an un-crashed failure path would have —
which is what lets the post-recovery invariant check
(:func:`repro.faults.invariants.check_host`) stay strict.
"""

from __future__ import annotations

import typing

from ..hypervisor.domain import DomainState
from ..toolstack.devices import _patient_rm, _patiently
from ..trace.tracer import tracer_of
from .intents import Intent, IntentLog

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.engine import Simulator


class _TeardownSpec:
    """Minimal config stand-in built from ``domain.image`` — enough for
    the toolstacks' ``_rollback_create`` (device counts + a name)."""

    def __init__(self, domain):
        image = domain.image
        self.name = domain.name
        self.vifs = [dict() for _ in range(image.vifs if image else 0)]
        self.vbds = [dict() for _ in range(image.vbds if image else 0)]


class OrphanReaper:
    """Rolls crashed toolstack operations back or forward."""

    def __init__(self, sim: "Simulator", intents: IntentLog,
                 toolstack=None):
        self.sim = sim
        self.intents = intents
        #: Primary toolstack — supplies the store handle and hypervisor
        #: for the orphan sweep (migration intents carry their own).
        self.toolstack = toolstack
        self.reaped = {"create": 0, "destroy": 0, "migrate": 0}
        #: Orphan subtrees the sweep removed (no intent pointed at them).
        self.swept_paths: typing.List[str] = []

    def reap(self):
        """Generator: recover every open intent, then sweep the store."""
        for intent in self.intents.open_intents():
            with tracer_of(self.sim).span("recovery.reap", op=intent.op,
                                          intent=intent.intent_id,
                                          phase=intent.phase):
                yield from self._reap_intent(intent)
            intent.close()
            self.reaped[intent.op] += 1
        yield from self.sweep()

    def _reap_intent(self, intent: Intent):
        if intent.op == "create":
            yield from self._roll_back_create(intent)
        elif intent.op == "destroy":
            yield from self._roll_forward_destroy(intent)
        elif intent.op == "migrate":
            yield from self._recover_migration(intent)
        else:
            raise ValueError("unknown intent op %r" % (intent.op,))

    # -- create: roll back ---------------------------------------------
    def _roll_back_create(self, intent: Intent):
        """The guest never finished creating — nothing depends on it, so
        take it apart with the toolstack's own tolerant rollback."""
        if intent.domain is None:
            return  # died before the domain existed: nothing to undo
        config = intent.config or _TeardownSpec(intent.domain)
        yield from intent.toolstack._rollback_create(intent.domain, config)

    # -- destroy: roll forward -----------------------------------------
    def _roll_forward_destroy(self, intent: Intent):
        """The user asked for the guest to go; finish the teardown.  The
        tolerant rollback reaches the same end state from any phase."""
        domain = intent.domain
        toolstack = intent.toolstack
        if domain.state == DomainState.RUNNING:
            toolstack.hypervisor.domctl_pause(domain)
        config = intent.config or _TeardownSpec(domain)
        yield from toolstack._rollback_create(domain, config)

    # -- migrate: resume source, reap destination ----------------------
    def _recover_migration(self, intent: Intent):
        """The migrating process died mid-memory-copy: the source guest
        is suspended (and intact) and the destination holds a pre-created
        domain that never received memory.  Resume the source exactly
        like a link-failure abort, then reap the destination's partial
        state."""
        from ..toolstack.migration import _abort_migration
        yield from _abort_migration(intent.notes["source"],
                                    intent.notes["destination"],
                                    intent.domain, intent.config,
                                    intent.notes["remote_domain"])

    # -- the orphan sweep ----------------------------------------------
    def sweep(self):
        """Generator: remove store subtrees whose domain is gone.

        Compares ``/local/domain/<id>`` and ``/vm/<id>`` against the
        hypervisor's live domain table (child listings are sorted, so
        the sweep order is deterministic).  Catches leftovers from
        operations that never opened an intent — the store-side analogue
        of ``xl destroy`` on a zombie domid.
        """
        toolstack = self.toolstack
        xs = getattr(toolstack, "xs", None)
        if toolstack is None or xs is None:
            return
        hypervisor = toolstack.hypervisor
        rng = getattr(toolstack, "rng", None)
        for base in ("/local/domain", "/vm"):
            if not xs.tree.exists(base):
                continue
            # Recovery must outlast the crashes it recovers from: the
            # listing retries a daemon restart like the removals do.
            names = yield from _patiently(self.sim,
                                          lambda: xs.directory(base), rng)
            for name in names:
                if not name.isdigit():
                    continue
                domid = int(name)
                if domid == 0 or domid in hypervisor.domains:
                    continue
                path = "%s/%s" % (base, name)
                with tracer_of(self.sim).span("recovery.sweep",
                                              path=path):
                    yield from _patient_rm(self.sim, xs, path, rng)
                toolstack.xenstore.watches.remove_for_domain(domid)
                self.swept_paths.append(path)
