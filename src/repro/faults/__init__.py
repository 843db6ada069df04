"""Deterministic fault injection for the simulated control plane.

:class:`FaultPlan` declares *what* should fail (fault point x probability
or Nth occurrence x kind); :class:`FaultInjector` evaluates it with draws
from named seeded RNG streams, so a ``(seed, plan)`` pair replays the
exact same fault schedule every run.  :mod:`repro.faults.retry` provides
the exponential-backoff policies the surviving layers use, and
:mod:`repro.faults.invariants` audits a host for leaked state afterwards.
"""

from .invariants import InvariantViolation, assert_clean, check_host
from .plan import (CHAOS_POINTS, NULL_INJECTOR, DaemonRestarted,
                   FaultInjector, FaultPlan, FaultRule, GrantMapFailure,
                   InjectedFault, LinkInterrupted, MessageTimeout,
                   MigrationAborted, Overloaded, ToolstackCrashed,
                   TransientHypercallError)
from .retry import (ROLLBACK_POLICY, RetryBudgetExhausted, RetryExhausted,
                    RetryPolicy, retry_call, retry_generator)

#: The typed failures the control plane is *supposed* to surface under
#: faults; storms and cluster nodes count them and go on.
ABSORBED = (InjectedFault, Overloaded, MigrationAborted, RetryExhausted)

__all__ = [
    "ABSORBED",
    "CHAOS_POINTS",
    "DaemonRestarted",
    "FaultInjector",
    "FaultPlan",
    "FaultRule",
    "GrantMapFailure",
    "InjectedFault",
    "InvariantViolation",
    "LinkInterrupted",
    "MessageTimeout",
    "MigrationAborted",
    "NULL_INJECTOR",
    "Overloaded",
    "ROLLBACK_POLICY",
    "RetryBudgetExhausted",
    "RetryExhausted",
    "RetryPolicy",
    "ToolstackCrashed",
    "TransientHypercallError",
    "assert_clean",
    "check_host",
    "retry_call",
    "retry_generator",
]
