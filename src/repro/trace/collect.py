"""Host scraping: fold every subsystem's counters into one registry.

:func:`collect_host_metrics` walks a live :class:`~repro.core.host.Host`
and publishes its state through a :class:`MetricsRegistry`: domains by
state, memory, CPU, hypercall counts, XenStore and noxs traffic, the
shell pool, and the fault-injector tallies.  ``repro metrics`` prints
it; it is the one host-wide stats view.  Repeated calls against the same
registry refresh gauges in place and reset counters to the subsystems'
current values, so the registry always reflects "now".
"""

from __future__ import annotations

import typing

from .metrics import MetricsRegistry

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..core.host import Host


def _set_counter(registry: MetricsRegistry, name: str, value: int) -> None:
    counter = registry.counter(name)
    # Scrapes publish the subsystem's own monotone total; later scrapes
    # only ever move it forward, so overwrite rather than accumulate.
    counter.value = int(value)


def collect_host_metrics(host: "Host",
                         registry: typing.Optional[MetricsRegistry] = None
                         ) -> MetricsRegistry:
    """Scrape ``host`` into ``registry`` (created if not given)."""
    from ..hypervisor.domain import DomainState

    registry = registry if registry is not None else MetricsRegistry(
        sim=host.sim)

    # --- hypervisor ---------------------------------------------------
    for op in sorted(host.hypervisor.hypercall_counts):
        _set_counter(registry, "hypervisor/hypercalls/" + op,
                     host.hypervisor.hypercall_counts[op])
    registry.gauge("hypervisor/event_channels/dom0").set(
        host.hypervisor.event_channels.count_for(0))
    registry.gauge("hypervisor/grants/dom0").set(
        host.hypervisor.grants.count_for(0))

    # --- domains and memory -------------------------------------------
    by_state: typing.Dict[str, int] = {}
    shell_kb = 0
    for domain in host.hypervisor.domains.values():
        if domain.domid == 0:
            continue
        by_state[domain.state.value] = by_state.get(domain.state.value,
                                                    0) + 1
        if domain.state is DomainState.SHELL:
            shell_kb += domain.memory_kb
    for state in sorted(by_state):
        registry.gauge("domains/" + state).set(by_state[state])
    guest_kb = (host.hypervisor.memory.used_kb
                - host.spec.dom0_memory_kb - shell_kb)
    registry.gauge("memory/guest_kb").set(guest_kb)
    registry.gauge("memory/shell_kb").set(shell_kb)
    registry.gauge("memory/free_kb").set(host.hypervisor.memory.free_kb)
    registry.gauge("cpu/utilization").set(host.cpu_utilization())

    # --- XenStore -----------------------------------------------------
    if host.xenstore is not None:
        for key in sorted(host.xenstore.stats):
            _set_counter(registry, "xenstore/" + key,
                         host.xenstore.stats[key])
        registry.gauge("xenstore/watches").set(len(host.xenstore.watches))
        registry.gauge("xenstore/nodes").set(
            host.xenstore.tree.count_nodes())

    # --- noxs ---------------------------------------------------------
    if host.noxs is not None:
        for key in sorted(host.noxs.stats):
            _set_counter(registry, "noxs/" + key, host.noxs.stats[key])

    # --- shell pool ---------------------------------------------------
    if host.daemon is not None:
        registry.gauge("shellpool/ready").set(len(host.daemon.pool))
        registry.gauge("shellpool/target").set(host.daemon.pool_target)

    # --- fault injection ----------------------------------------------
    for point, counts in host.faults.metrics().items():
        _set_counter(registry, "faults/%s/occurrences" % point,
                     counts["occurrences"])
        _set_counter(registry, "faults/%s/injected" % point,
                     counts["injected"])

    return registry
