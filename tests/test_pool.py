"""The worker pool under injected failures.

A worker that raises, dies or is SIGKILLed must fail the run at once —
whatever the worker order — with the caller's typed error naming that
worker's hosts or seeds and exit status, and leave no process behind.
Each failure is injected by monkeypatching before the pool forks.
"""

import dataclasses
import multiprocessing
import os
import pathlib
import re
import signal
import time

import pytest

from repro.cluster.cluster import Cluster, ClusterError
from repro.cluster.node import HostNode
from repro.cluster.procs import ProcsBackend
from repro.stdlib import SweepError, load_spec, run_sweep, storm_spec
from repro.stdlib import sweep as sweep_module

STORM = pathlib.Path(__file__).resolve().parents[1] / "examples" \
    / "cluster_storm.yaml"

#: Every failure is reported, and every worker gone, well inside this.
BOUND_S = 2.0

#: The cluster storm's failing host and epoch; host 1 is on worker 1.
FAIL_HOST = 1
FAIL_EPOCH = 3


def _raise():
    raise RuntimeError("host %d failed" % FAIL_HOST)


def _kill_self():
    os.kill(os.getpid(), signal.SIGKILL)


def _in_epoch(action):
    """Make FAIL_HOST's worker run ``action`` inside epoch FAIL_EPOCH."""
    def inject(monkeypatch):
        run_epoch = HostNode.run_epoch

        def failing(node, epoch, window_end):
            if node.host_index == FAIL_HOST and epoch == FAIL_EPOCH:
                action()
            return run_epoch(node, epoch, window_end)
        monkeypatch.setattr(HostNode, "run_epoch", failing)
    return inject


def _kill_between_epochs(monkeypatch):
    """SIGKILL FAIL_HOST's worker while it waits for epoch FAIL_EPOCH."""
    run_epoch = ProcsBackend.run_epoch

    def killing(backend, epoch, window_end, batches):
        if epoch == FAIL_EPOCH:
            proc = backend._pool._procs[FAIL_HOST % backend.workers]
            os.kill(proc.pid, signal.SIGKILL)
            proc.join(timeout=BOUND_S)
        return run_epoch(backend, epoch, window_end, batches)
    monkeypatch.setattr(ProcsBackend, "run_epoch", killing)


#: failure -> (injector, what the error says about the worker's exit).
CLUSTER_FAILURES = {
    "host-raises": (_in_epoch(_raise),
                    r"exited with code 1:\n.*RuntimeError: host 1 failed"),
    "killed-between-epochs": (_kill_between_epochs,
                              r"was killed by SIGKILL without a reply"),
    "killed-mid-epoch": (_in_epoch(_kill_self),
                         r"was killed by SIGKILL without a reply"),
}


def _assert_fails_fast(error, run, message, detail):
    start = time.perf_counter()
    with pytest.raises(error) as err:
        run()
    elapsed = time.perf_counter() - start
    assert message in str(err.value)
    assert re.search(detail, str(err.value), re.S), str(err.value)
    assert elapsed < BOUND_S
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [2, 4])
@pytest.mark.parametrize("failure", sorted(CLUSTER_FAILURES))
def test_cluster_worker_failure_names_its_hosts(monkeypatch, failure,
                                                workers):
    inject, detail = CLUSTER_FAILURES[failure]
    config = load_spec(STORM).to_cluster_config(1)
    inject(monkeypatch)
    hosts = ", ".join(str(host)
                      for host in range(FAIL_HOST, config.hosts, workers))
    _assert_fails_fast(
        ClusterError,
        lambda: Cluster(config, backend="procs", workers=workers).run(),
        "cluster worker failed: worker 1 (hosts %s)" % hosts, detail)


@pytest.mark.parametrize("workers", [2, 4])
def test_coordinator_error_lets_idle_workers_exit(workers):
    # The livelock guard fires in the coordinator, not in a worker: the
    # idle workers must see their pipes close and exit, not linger.
    config = dataclasses.replace(load_spec(STORM).to_cluster_config(1),
                                 max_epochs=FAIL_EPOCH)
    _assert_fails_fast(
        ClusterError,
        lambda: Cluster(config, backend="procs", workers=workers).run(),
        "no quiescence after %d epochs" % FAIL_EPOCH, r"livelocked")


@pytest.mark.parametrize("failure,detail", [
    ("raises", r"exited with code 1:\n.*RuntimeError: seed 1 failed"),
    ("killed", r"was killed by SIGKILL without a reply"),
], ids=["raises", "killed"])
def test_sweep_worker_failure_names_its_seeds(monkeypatch, failure,
                                              detail):
    run_scenario = sweep_module.run_scenario

    def flaky(spec, seed, **kwargs):
        if seed == 0:
            time.sleep(10)  # worker 0 is still busy when worker 1 fails
        elif seed == 1:
            if failure == "killed":
                _kill_self()
            raise RuntimeError("seed 1 failed")
        return run_scenario(spec, seed=seed, **kwargs)
    monkeypatch.setattr(sweep_module, "run_scenario", flaky)
    spec = storm_spec("pool-failure", "lightvm@1", "daytime@1", 4)
    _assert_fails_fast(
        SweepError, lambda: run_sweep(spec, range(4), workers=2),
        "sweep worker failed: worker 1 (seeds 1, 3)", detail)
