"""Crash recovery and graceful degradation for the control plane.

The paper's density argument (§4.2, Fig 10) assumes the control plane
*stays up* while thousands of guests churn.  This package models what it
takes to keep that true when pieces of it die:

* :mod:`~repro.recovery.journal` — the XenStore daemon's write-ahead op
  journal; a crash (``xenstore.daemon_crash``) discards in-memory state
  and a restart replays the journal (oxenstored's tdb durability model);
* :mod:`~repro.recovery.watchdog` — the Dom0 service manager that
  notices the crash and drives the restart on the timeline;
* :mod:`~repro.recovery.intents` — per-phase intent records for
  toolstack operations, so a toolstack killed mid-create/destroy/migrate
  (``toolstack.*`` crash points) leaves an auditable trail instead of
  silent orphans;
* :mod:`~repro.recovery.reaper` — walks open intents and the store and
  rolls half-done operations back or forward deterministically;
* :mod:`~repro.recovery.campaign` — ``repro chaos``: a sweep of a
  recovery-enabled scenario spec (every run audited after recovery),
  each failing seed's schedule ddmin-shrunk to a one-seed sweep
  manifest that ``repro run --replay`` verifies.

Everything is **opt-in and digest-gated**: a
:class:`~repro.core.host.Host` built without ``recovery=True`` never
consults the new fault points, never journals and never sheds, so its
event timelines (and replay digests) are byte-identical to pre-recovery
builds.  Recovery-enabled runs keep the same contract among themselves:
same seed + same plan = same digest, crashes included.
"""

from .intents import Intent, IntentLog, crash_check
from .journal import JournalCosts, OpJournal
from .reaper import OrphanReaper
from .watchdog import Watchdog, WatchdogCosts

__all__ = [
    "Intent",
    "IntentLog",
    "JournalCosts",
    "OpJournal",
    "OrphanReaper",
    "RecoveryManager",
    "Watchdog",
    "WatchdogCosts",
    "crash_check",
]


class RecoveryManager:
    """Wires the whole recovery layer into one :class:`Host`.

    Attaches the op journal + watchdog to the XenStore daemon (when the
    variant has one), intent records + the crash injector to the
    toolstack, and builds the orphan reaper.  Constructed by
    ``Host(recovery=True)``.
    """

    def __init__(self, host, journal_costs=None, watchdog_costs=None):
        self.host = host
        self.intents = IntentLog()
        self.journal = None
        self.watchdog = None
        if host.xenstore is not None:
            self.journal = OpJournal()
            host.xenstore.attach_journal(self.journal, journal_costs)
            self.watchdog = Watchdog(host.sim, host.xenstore,
                                     watchdog_costs)
            self.watchdog.arm()
        host.toolstack.attach_intents(self.intents, host.faults)
        self.reaper = OrphanReaper(host.sim, self.intents, host.toolstack)

    def recover(self):
        """Generator: one recovery pass — reap open intents (rolling
        crashed operations back or forward), then sweep the store for
        orphan subtrees."""
        yield from self.reaper.reap()
