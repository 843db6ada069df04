"""Hotplug: plumbing a new virtual interface into the software switch.

§5.3: with standard Xen, device setup in user space happens through bash
hotplug scripts launched by ``xl`` or ``udevd`` — "launching and executing
bash scripts is a slow process taking tens of milliseconds".  LightVM
replaces them with ``xendevd``, a pre-started binary daemon that listens
for udev events and "executes a pre-defined setup without forking or bash
scripts".

Both handlers survive injected script failures (the paper's motivating
flakiness): the ``hotplug.script`` / ``hotplug.xendevd`` fault points make
a run fail after charging its latency (plus any hang modeled by the rule's
``delay_ms``), and the handler relaunches per its retry policy, raising
:class:`HotplugError` once its retries run out (or
:class:`~repro.faults.retry.RetryBudgetExhausted` once its backoff
budget is spent) — both :class:`~repro.faults.retry.RetryExhausted`.
"""

from __future__ import annotations

import dataclasses
import typing

from ..faults.plan import NULL_INJECTOR
from ..faults.retry import (RetryBudgetExhausted, RetryExhausted,
                            RetryPolicy)

if typing.TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from ..sim.engine import Simulator


class HotplugError(RetryExhausted):
    """A hotplug handler kept failing past its retry count."""


@dataclasses.dataclass
class HotplugCosts:
    """Latency constants (ms)."""

    #: udev event propagation to the handler.
    udev_event_ms: float = 4.0
    #: fork+exec of bash plus the script body (brctl/ip invocations).
    bash_script_ms: float = 38.0
    #: xendevd handling: pre-resolved setup, no fork.
    xendevd_ms: float = 0.25


class Bridge(typing.Protocol):
    """What hotplug handlers need from a software switch."""

    def attach(self, domid: int, devname: str) -> None: ...  # noqa: E704

    def detach(self, domid: int, devname: str) -> None: ...  # noqa: E704


class NullBridge:
    """A stand-in bridge that only records port membership."""

    def __init__(self):
        self.ports: typing.Dict[str, int] = {}

    def attach(self, domid: int, devname: str) -> None:
        self.ports[devname] = domid

    def detach(self, domid: int, devname: str) -> None:
        self.ports.pop(devname, None)


class _FaultTolerantHandler:
    """Shared retry loop for both hotplug handler styles."""

    #: Fault point consulted per script run; set by subclasses.
    fault_point = ""

    def __init__(self, sim: "Simulator", bridge=None,
                 costs: typing.Optional[HotplugCosts] = None,
                 faults=None, rng=None,
                 retry_policy: typing.Optional[RetryPolicy] = None):
        self.sim = sim
        self.bridge = bridge or NullBridge()
        self.costs = costs or HotplugCosts()
        self.faults = faults if faults is not None else NULL_INJECTOR
        self.rng = rng
        self.retry_policy = retry_policy or RetryPolicy(
            max_retries=8, base_ms=1.0, multiplier=2.0, cap_ms=50.0)
        self.invocations = 0
        #: Script runs that failed (and were relaunched).
        self.failures = 0

    def _run_cost_ms(self) -> float:  # pragma: no cover - abstract
        raise NotImplementedError

    def _run(self, apply: typing.Callable[[], None]):
        """Generator: run the handler, relaunching on injected failures."""
        retry = 0
        started = self.sim.now
        slept = 0.0
        while True:
            yield self.sim.timeout(self._run_cost_ms())
            self.invocations += 1
            rule = self.faults.fires(self.fault_point)
            if rule is None:
                apply()
                return
            self.failures += 1
            if rule.delay_ms:  # a hung script sits until its watchdog fires
                yield self.sim.timeout(rule.delay_ms)
            retry += 1
            if self.retry_policy.give_up(retry, started, self.sim.now):
                raise HotplugError(
                    "%s handler failed %d times" % (self.fault_point, retry))
            delay = self.retry_policy.backoff_ms(retry, self.rng)
            if self.retry_policy.over_budget(slept, delay):
                raise RetryBudgetExhausted(
                    "%s handler spent its %.1f ms backoff budget"
                    % (self.fault_point, self.retry_policy.budget_ms))
            slept += delay
            yield self.sim.timeout(delay)


class BashHotplug(_FaultTolerantHandler):
    """Standard Xen: udev event -> bash hotplug script."""

    fault_point = "hotplug.script"

    def _run_cost_ms(self) -> float:
        return self.costs.bash_script_ms

    def attach(self, domid: int, devname: str):
        """Generator: run the vif-bridge script for a new device."""
        yield self.sim.timeout(self.costs.udev_event_ms)
        yield from self._run(lambda: self.bridge.attach(domid, devname))

    def detach(self, domid: int, devname: str):
        """Generator: run the teardown script."""
        yield self.sim.timeout(self.costs.udev_event_ms)
        yield from self._run(lambda: self.bridge.detach(domid, devname))


class Xendevd(_FaultTolerantHandler):
    """LightVM: resident daemon handling udev events without forking."""

    fault_point = "hotplug.xendevd"

    def _run_cost_ms(self) -> float:
        return self.costs.xendevd_ms

    def attach(self, domid: int, devname: str):
        """Generator: fast-path attach."""
        yield from self._run(lambda: self.bridge.attach(domid, devname))

    def detach(self, domid: int, devname: str):
        """Generator: fast-path detach."""
        yield from self._run(lambda: self.bridge.detach(domid, devname))
