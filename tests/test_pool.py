"""The worker pool under injected failures.

A worker that raises, dies or is killed by a signal must fail the run at
once — whatever the worker order — with the caller's typed error naming
that worker's hosts or seeds and exit status, and leave no process
behind.  Each failure is injected by monkeypatching before the pool
forks.  On the procs backend the coordinator steps host share 0 itself,
so a failure there propagates as it does inline, and a child still busy
in its epoch is stopped rather than waited for.
"""

import multiprocessing
import os
import pathlib
import re
import signal
import time

import pytest

from repro.cluster import cluster as cluster_module
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

#: A real-time signal: ``signal.Signals`` has no member for it.
RT_SIGNAL = 40


def _raise(host=FAIL_HOST):
    raise RuntimeError("host %d failed" % host)


def _signal_self(signum):
    return lambda: os.kill(os.getpid(), signum)


_kill_self = _signal_self(signal.SIGKILL)


def _in_epoch(action, host=FAIL_HOST):
    """Make ``host``'s process run ``action`` inside epoch FAIL_EPOCH."""
    def inject(monkeypatch):
        run_epoch = HostNode.run_epoch

        def failing(node, epoch, window_end):
            if node.host_index == host and epoch == FAIL_EPOCH:
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
    "killed-by-rt-signal": (_in_epoch(_signal_self(RT_SIGNAL)),
                            r"was killed by signal %d without a reply"
                            % RT_SIGNAL),
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
                      for host in range(FAIL_HOST, config.spec.hosts,
                                        workers))
    _assert_fails_fast(
        ClusterError,
        lambda: Cluster(config, backend="procs", workers=workers).run(),
        "cluster worker failed: worker 1 (hosts %s)" % hosts, detail)


@pytest.mark.parametrize("workers", [2, 4])
def test_coordinator_share_failure_raises_as_inline(monkeypatch, workers):
    # Host 0 is on share 0, which the coordinator steps itself: its error
    # is the run's error, unwrapped, and every child still exits.
    config = load_spec(STORM).to_cluster_config(1)
    _in_epoch(lambda: _raise(0), host=0)(monkeypatch)
    with pytest.raises(RuntimeError) as inline:
        Cluster(config, backend="inline").run()
    _assert_fails_fast(
        RuntimeError,
        lambda: Cluster(config, backend="procs", workers=workers).run(),
        str(inline.value), r"^host 0 failed$")


@pytest.mark.parametrize("workers", [2, 4])
def test_coordinator_share_failure_stops_a_busy_child(monkeypatch,
                                                      workers):
    # Share 0 fails while the child holding host 1 is still in the same
    # epoch, and slow: the child is stopped, not waited for.
    config = load_spec(STORM).to_cluster_config(1)
    _in_epoch(lambda: time.sleep(10))(monkeypatch)
    _in_epoch(lambda: _raise(0), host=0)(monkeypatch)
    _assert_fails_fast(
        RuntimeError,
        lambda: Cluster(config, backend="procs", workers=workers).run(),
        "host 0 failed", r"^host 0 failed$")


def test_failed_coordinator_build_leaves_no_child(monkeypatch):
    # The coordinator builds share 0's nodes after forking the children,
    # and Cluster.run builds its backend outside its try.  The child's
    # own build is slow: it is stopped, not waited for.
    init = HostNode.__init__

    def failing(node, config, host_index):
        if host_index == 0:
            raise RuntimeError("host 0 failed to build")
        if host_index == FAIL_HOST:
            time.sleep(10)
        init(node, config, host_index)
    monkeypatch.setattr(HostNode, "__init__", failing)
    config = load_spec(STORM).to_cluster_config(1)
    _assert_fails_fast(
        RuntimeError,
        lambda: Cluster(config, backend="procs", workers=2).run(),
        "host 0 failed to build", r"^host 0 failed to build$")


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_procs_forks_every_share_but_the_first(monkeypatch, workers):
    # Share 0 (host 0's) runs in the coordinator, beside N-1 children.
    children = []
    run_epoch = HostNode.run_epoch

    def counting(node, epoch, window_end):
        if node.host_index == 0:
            children.append(len(multiprocessing.active_children()))
        return run_epoch(node, epoch, window_end)
    monkeypatch.setattr(HostNode, "run_epoch", counting)
    config = load_spec(STORM).to_cluster_config(1)
    result = Cluster(config, backend="procs", workers=workers).run()
    assert result.workers == workers
    assert children and set(children) == {workers - 1}
    assert multiprocessing.active_children() == []


@pytest.mark.parametrize("workers", [2, 4])
def test_coordinator_error_lets_idle_workers_exit(monkeypatch, workers):
    # The livelock guard fires in the coordinator, not in a worker: the
    # idle workers must be stopped, not linger.
    monkeypatch.setattr(cluster_module, "MAX_EPOCHS", FAIL_EPOCH)
    config = load_spec(STORM).to_cluster_config(1)
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
