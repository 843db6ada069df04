"""Resource-leak invariants checked after fault-injected experiments.

A control plane that survives injected faults is only correct if its
rollback paths actually release everything a failed operation allocated.
:func:`check_host` audits a :class:`~repro.core.host.Host` against the
hypervisor's view of live domains and returns a list of human-readable
violations; :func:`assert_clean` raises on any.

Checks (all duck-typed so partial hosts — e.g. noxs variants with no
XenStore — are handled):

* every ``/local/domain/<id>`` and ``/vm/<id>`` XenStore subtree belongs
  to a live domain, and every backend directory under dom0 references one;
* every grant-table entry's granter and grantee are alive;
* every non-closed event channel's owner (and bound peer) are alive;
* memory extents are owned exactly by live domains, at their stated size;
* every pooled shell is a live domain in the ``SHELL`` state;
* every bridge port maps to a live domain.

Run the checker with the simulator drained (``host.sim.run()`` returned
and no fault mid-flight): asynchronous teardown (e.g. the noxs save path)
legitimately holds resources for a few simulated milliseconds.
"""

from __future__ import annotations

import typing


class InvariantViolation(AssertionError):
    """The host leaked control-plane state; see the message for details."""


def _live_domains(host) -> typing.Dict[int, object]:
    return dict(host.hypervisor.domains)


def _check_xenstore(host, domains, violations) -> None:
    xenstore = getattr(host, "xenstore", None)
    if xenstore is None:
        return
    tree = xenstore.tree

    def list_dir(path):
        try:
            return tree.directory(path)
        except Exception:
            return []

    for name in list_dir("/local/domain"):
        try:
            domid = int(name)
        except ValueError:
            violations.append("/local/domain/%s: non-numeric entry" % name)
            continue
        if domid != 0 and domid not in domains:
            violations.append(
                "/local/domain/%d leaked (domain not in hypervisor)" % domid)
    for name in list_dir("/vm"):
        try:
            domid = int(name)
        except ValueError:
            continue
        if domid not in domains:
            violations.append(
                "/vm/%d leaked (domain not in hypervisor)" % domid)
    for kind in list_dir("/local/domain/0/backend"):
        base = "/local/domain/0/backend/%s" % kind
        for name in list_dir(base):
            try:
                domid = int(name)
            except ValueError:
                continue
            if domid not in domains:
                violations.append(
                    "%s/%d leaked backend entries" % (base, domid))

    # Ambient-traffic accounting: the daemon's weighted client count
    # must equal the sum of the live domains' registered weights.  Every
    # register_client must be paired with an unregister on destruction /
    # suspension — an unmatched register inflates the 1/(1-rho) load
    # factor forever (and the unregister clamp at zero would silently
    # mask double-unregisters, so drift in either direction is a bug).
    expected = 0.0
    for domain in domains.values():
        notes = getattr(domain, "notes", {})
        expected += notes.get("xenstore_client", 0.0) or 0.0
        # A paused guest parks its weight under another key; it is still
        # not ambient load, so only the active registration counts.
    if abs(xenstore.ambient_clients - expected) > 1e-9:
        violations.append(
            "xenstore ambient_clients=%.6f but live domains register "
            "%.6f (unbalanced register/unregister_client)"
            % (xenstore.ambient_clients, expected))


def _check_grants(host, domains, violations) -> None:
    grants = getattr(host.hypervisor, "grants", None)
    if grants is None:
        return
    for (granter, ref), entry in grants.items():
        if granter not in domains:
            violations.append(
                "grant ref %d leaked by dead granter dom%d" % (ref, granter))
        grantee = getattr(entry, "grantee_domid", None)
        if grantee is not None and grantee not in domains:
            violations.append(
                "grant ref %d (dom%d) references dead grantee dom%d"
                % (ref, granter, grantee))


def _check_event_channels(host, domains, violations) -> None:
    table = getattr(host.hypervisor, "event_channels", None)
    if table is None:
        return
    for (domid, port), channel in table.items():
        if getattr(channel, "state", "") == "closed":
            continue  # half-torn pair awaiting the peer's close: benign
        if domid not in domains:
            violations.append(
                "event channel (dom%d, port %d) leaked by dead owner"
                % (domid, port))
        remote = getattr(channel, "remote_domid", None)
        if remote is not None and remote not in domains:
            violations.append(
                "event channel (dom%d, port %d) bound to dead dom%d"
                % (domid, port, remote))


def _check_memory(host, domains, violations) -> None:
    memory = getattr(host.hypervisor, "memory", None)
    if memory is None:
        return
    owners = set(memory.owners())
    for owner in sorted(owners - set(domains)):
        violations.append(
            "memory extents leaked by dead dom%d (%d KB)"
            % (owner, memory.owned_kb(owner)))
    for domid, domain in sorted(domains.items()):
        owned = memory.owned_kb(domid)
        if owned != domain.memory_kb:
            violations.append(
                "dom%d owns %d KB of extents but claims %d KB"
                % (domid, owned, domain.memory_kb))


def _check_shell_pool(host, domains, violations) -> None:
    from ..hypervisor.domain import DomainState

    daemon = getattr(host, "daemon", None)
    if daemon is None:
        return
    for shell in list(getattr(daemon.pool, "items", [])):
        domain = getattr(shell, "domain", shell)
        domid = getattr(domain, "domid", None)
        if domid not in domains:
            violations.append(
                "shell pool holds dead dom%s" % domid)
        elif domains[domid].state is not DomainState.SHELL:
            violations.append(
                "pooled shell dom%d is in state %s, not SHELL"
                % (domid, domains[domid].state.name))


def _check_bridge(host, domains, violations) -> None:
    bridge = getattr(host, "bridge", None)
    ports = getattr(bridge, "ports", None)
    if not isinstance(ports, dict):
        return
    for devname, domid in sorted(ports.items()):
        if domid not in domains:
            violations.append(
                "bridge port %s leaked by dead dom%d" % (devname, domid))


def _check_recovery_residue(host, violations) -> None:
    """Recovered runs must leave no residue behind (opt-in: only hosts
    built with ``recovery=True`` are held to this).

    After the reaper has run and the simulator drained there must be no
    open intent records (an open intent is a crashed operation nobody
    recovered), the daemon must be back up, no request may still be
    queued on a daemon shard, and the tracer must have no open spans
    (an open span is a process that died mid-operation)."""
    recovery = getattr(host, "recovery", None)
    if recovery is None:
        return
    for intent in recovery.intents.open_intents():
        violations.append(
            "intent #%d (%s %s) still open after recovery%s"
            % (intent.intent_id, intent.op,
               getattr(intent.config, "name", None)
               or getattr(intent.domain, "name", "?"),
               " [crashed at phase %r]" % intent.phase
               if intent.crashed else ""))
    daemon = getattr(host, "xenstore", None)
    if daemon is not None:
        if daemon.crashed:
            violations.append(
                "xenstore daemon still down (epoch %d, %d crash(es), "
                "%d restart(s)) — watchdog never completed the restart"
                % (daemon.epoch, daemon.stats["crashes"],
                   daemon.stats["restarts"]))
        for index, shard in enumerate(daemon._shards):
            queued = len(getattr(shard, "queue", ()))
            if queued:
                violations.append(
                    "daemon shard %d drained with %d request(s) still "
                    "queued" % (index, queued))
    tracer = getattr(host.sim, "tracer", None)
    open_spans = getattr(tracer, "open_spans", None)
    if open_spans is not None:
        for span in open_spans():
            violations.append(
                "tracer span %r opened at t=%.3f never closed"
                % (span.name, span.begin_ms))


def check_host(host) -> typing.List[str]:
    """Audit ``host`` for leaked control-plane state.

    Returns a (possibly empty) list of violation descriptions.
    """
    domains = _live_domains(host)
    violations: typing.List[str] = []
    _check_xenstore(host, domains, violations)
    _check_grants(host, domains, violations)
    _check_event_channels(host, domains, violations)
    _check_memory(host, domains, violations)
    _check_shell_pool(host, domains, violations)
    _check_bridge(host, domains, violations)
    _check_recovery_residue(host, violations)
    return violations


def assert_clean(host) -> None:
    """Raise :class:`InvariantViolation` if :func:`check_host` finds leaks."""
    violations = check_host(host)
    if violations:
        raise InvariantViolation(
            "%d control-plane invariant violation(s):\n  %s"
            % (len(violations), "\n  ".join(violations)))
