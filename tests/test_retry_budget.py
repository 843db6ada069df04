"""RetryPolicy deadline budgets: ``budget_ms`` and RetryBudgetExhausted.

The budget caps the *cumulative backoff* one operation may sleep, so a
recovery storm cannot pile unbounded simulated hours onto one request.
``budget_ms=None`` (the default everywhere) disables the cap, which is
what keeps existing replay digests unchanged.
"""

import pytest

from repro.faults import (ABSORBED, FaultPlan, MessageTimeout,
                          RetryBudgetExhausted, RetryExhausted, RetryPolicy,
                          retry_call, retry_generator)
from repro.sim import Simulator
from repro.toolstack import DeviceSetupError, ToolstackError
from repro.toolstack.hotplug import BashHotplug, HotplugError
from repro.xenstore import XenStoreDaemon, XsClient


def drive(sim, gen):
    result = []

    def runner():
        result.append((yield from gen))
    sim.run(until=sim.process(runner()))
    return result[0]


class Flaky:
    """Callable failing the first ``failures`` times."""

    def __init__(self, failures):
        self.failures = failures
        self.calls = 0

    def __call__(self):
        self.calls += 1
        if self.calls <= self.failures:
            raise ValueError("transient %d" % self.calls)
        return "ok"


class TestPolicyArithmetic:
    def test_over_budget_is_checked_before_the_sleep(self):
        policy = RetryPolicy(budget_ms=10.0)
        assert not policy.over_budget(0.0, 10.0)
        assert policy.over_budget(0.0, 10.1)
        assert policy.over_budget(6.0, 5.0)

    def test_none_budget_never_trips(self):
        policy = RetryPolicy(budget_ms=None)
        assert not policy.over_budget(1e9, 1e9)


class TestRetryHelpers:
    def test_retry_call_spends_then_raises_typed(self):
        sim = Simulator()
        policy = RetryPolicy(max_retries=50, base_ms=4.0, multiplier=1.0,
                             cap_ms=4.0, jitter=0.0, budget_ms=10.0)
        flaky = Flaky(failures=99)
        with pytest.raises(RetryBudgetExhausted):
            drive(sim, retry_call(sim, policy, None, flaky, (ValueError,)))
        # 4 + 4 slept, the third backoff would overspend: 3 attempts.
        assert flaky.calls == 3
        assert sim.now == pytest.approx(8.0)

    def test_retry_generator_honours_the_budget(self):
        sim = Simulator()
        policy = RetryPolicy(max_retries=50, base_ms=4.0, multiplier=1.0,
                             cap_ms=4.0, jitter=0.0, budget_ms=7.9)

        def always_fails():
            yield sim.timeout(1.0)
            raise ValueError("nope")

        with pytest.raises(RetryBudgetExhausted):
            drive(sim, retry_generator(sim, policy, None, always_fails,
                                       (ValueError,)))

    def test_budget_exhaustion_is_a_retry_exhausted(self):
        # Call sites catching the old RetryExhausted keep working.
        assert issubclass(RetryBudgetExhausted, RetryExhausted)

    def test_no_budget_keeps_plain_attempt_counting(self):
        sim = Simulator()
        policy = RetryPolicy(max_retries=3, base_ms=1.0, jitter=0.0)
        flaky = Flaky(failures=99)
        with pytest.raises(ValueError):
            drive(sim, retry_call(sim, policy, None, flaky, (ValueError,)))
        assert flaky.calls == 4  # initial + 3 retries, no budget raise


class TestWiredCallSites:
    def test_daemon_resends_trip_the_budget(self):
        sim = Simulator()
        daemon = XenStoreDaemon(
            sim, rng=None,
            faults=_injector(FaultPlan.uniform(1.0, "xenstore.message")),
            retry_policy=RetryPolicy(max_retries=50, base_ms=2.0,
                                     multiplier=1.0, cap_ms=2.0,
                                     jitter=0.0, budget_ms=5.0))
        with pytest.raises(RetryBudgetExhausted):
            drive(sim, XsClient(daemon).write("/x", "1"))

    def test_daemon_default_budget_is_off(self):
        sim = Simulator()
        daemon = XenStoreDaemon(
            sim, rng=None,
            faults=_injector(FaultPlan.uniform(1.0, "xenstore.message")))
        assert daemon.retry_policy.budget_ms is None
        with pytest.raises(MessageTimeout):
            drive(sim, XsClient(daemon).write("/x", "1"))

    def test_hotplug_budget_trips_before_attempts_run_out(self):
        sim = Simulator()
        hotplug = BashHotplug(
            sim, faults=_injector(FaultPlan.uniform(1.0, "hotplug.script")),
            retry_policy=RetryPolicy(max_retries=50, base_ms=2.0,
                                     multiplier=1.0, cap_ms=2.0,
                                     jitter=0.0, budget_ms=3.0))
        with pytest.raises(RetryBudgetExhausted):
            drive(sim, hotplug.attach(1, "vif1.0"))

    def test_hotplug_without_budget_raises_hotplug_error(self):
        sim = Simulator()
        hotplug = BashHotplug(
            sim, faults=_injector(FaultPlan.uniform(1.0, "hotplug.script")),
            retry_policy=RetryPolicy(max_retries=2, base_ms=0.5,
                                     jitter=0.0))
        with pytest.raises(HotplugError):
            drive(sim, hotplug.attach(1, "vif1.0"))

    @pytest.mark.parametrize("error", [HotplugError, DeviceSetupError,
                                       ToolstackError])
    def test_retry_exhaustion_is_one_absorbed_type(self, error):
        assert issubclass(error, RetryExhausted)
        assert isinstance(error("retries ran out"), ABSORBED)


def _injector(plan):
    from repro.faults import FaultInjector
    return FaultInjector(plan)
