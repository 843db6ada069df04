"""The worker pool: persistent OS processes, one pipe each, failing fast.

The only module allowed to import ``multiprocessing`` (lint rule
RPR010), under both process runners: the cluster procs backend and the
sweep runner.  ``items`` are dealt round-robin into ``workers`` shares,
and worker ``s`` runs ``main(conn, *args, items[s::workers])`` in a
``fork``-preferred child, where an exception becomes an ``("error",
traceback)`` reply.  With ``keep_first`` the caller keeps share 0 and
works it itself, so only shares 1..N-1 fork (none when N is 1): the
procs backend does, the sweep forks all N.  :meth:`WorkerPool.gather`
waits on every pipe at once, so the first worker to fail raises the
caller's typed error naming its share and exit status, and
:meth:`WorkerPool.close` then terminates the survivors, as it does on
``close(abort=True)`` when the caller's own work failed.  A live worker
that never replies is not detected.
"""

from __future__ import annotations

import multiprocessing
import signal
import traceback
import typing


def clamp(workers: int, items: int) -> int:
    """``workers`` limited to ``[1, items]``: no worker goes idle."""
    return max(1, min(int(workers), items))


def _exit_status(code: int) -> str:
    """How a child with exit code ``code`` ended, in words."""
    if code >= 0:
        return "exited with code %d" % code
    try:
        name = signal.Signals(-code).name
    except ValueError:  # e.g. a real-time signal, which has no name
        name = "signal %d" % -code
    return "was killed by %s" % name


def _child(conn, inherited: list, main: typing.Callable,
           args: tuple) -> None:
    """Child entry: run ``main(conn, *args)``, framing any exception."""
    # A forked child inherits the coordinator's end of its own pipe and
    # of every earlier worker's; holding them would hide the
    # coordinator's exit, and a dead sibling's, behind a pipe never EOF.
    for other in inherited:
        other.close()
    try:
        main(conn, *args)
    except BaseException:
        try:
            conn.send(("error", traceback.format_exc()))
        except OSError:  # coordinator already gone
            pass
        raise SystemExit(1)
    finally:
        conn.close()


class WorkerPool:
    """A process per share of ``items``, each running ``main`` over it;
    with ``keep_first``, every share but share 0, which the caller keeps."""

    def __init__(self, main: typing.Callable, args: tuple,
                 items: typing.Sequence[int], workers: int,
                 error: typing.Type[Exception], label: str, noun: str,
                 keep_first: bool = False):
        self.workers = clamp(workers, len(items))
        #: Worker ``w``'s share: a pure function of (items, workers).
        self.partition = [list(items[worker::self.workers])
                          for worker in range(self.workers)]
        self._error = error
        self._label = label
        self._noun = noun
        self._failed = False
        #: Forked share -> the coordinator's end of its pipe, its process.
        self._conns: typing.Dict[int, typing.Any] = {}
        self._procs: typing.Dict[int, typing.Any] = {}
        fork = "fork" in multiprocessing.get_all_start_methods()
        ctx = multiprocessing.get_context("fork" if fork else "spawn")
        try:
            for share in range(1 if keep_first else 0, self.workers):
                parent_conn, child_conn = ctx.Pipe()
                self._conns[share] = parent_conn
                proc = ctx.Process(
                    target=_child,
                    args=(child_conn,
                          list(self._conns.values()) if fork else [],
                          main, args + (self.partition[share],)),
                    daemon=True)
                try:
                    proc.start()
                finally:
                    child_conn.close()
                self._procs[share] = proc
        except BaseException:
            self._failed = True
            self.close()
            raise

    def _failure(self, worker: int,
                 trace: typing.Optional[str] = None) -> Exception:
        """The typed error for ``worker``, which replied with ``trace``
        or closed its pipe, so is exiting (its exit code is awaited)."""
        self._failed = True
        proc = self._procs[worker]
        proc.join()
        message = "%s failed: worker %d (%s %s) %s" % (
            self._label, worker, self._noun,
            ", ".join(str(item) for item in self.partition[worker]),
            _exit_status(proc.exitcode))
        if trace is None:
            return self._error(message + " without a reply (see stderr)")
        return self._error("%s:\n%s" % (message, trace))

    def send(self, worker: int, message: tuple) -> None:
        try:
            self._conns[worker].send(message)
        except OSError:
            raise self._failure(worker)

    def gather(self) -> typing.List[tuple]:
        """One reply per forked worker, in share order; the first failure
        raises the caller's error at once."""
        # Imported on use: at module level it would add ~0.4 MB to every
        # process that imports ``repro``, pool or not.
        from multiprocessing.connection import wait
        replies: typing.Dict[int, tuple] = {}
        waiting = {conn: worker for worker, conn in self._conns.items()}
        try:
            while waiting:
                for conn in wait(list(waiting)):
                    worker = waiting.pop(conn)
                    try:
                        reply = conn.recv()
                    except (EOFError, OSError):
                        raise self._failure(worker)
                    if reply[0] == "error":
                        raise self._failure(worker, reply[1])
                    replies[worker] = reply
        except BaseException:
            self._failed = True
            raise
        return [replies[worker] for worker in self._conns]

    def close(self, abort: bool = False) -> None:
        """Join the workers; after a failure, or with ``abort`` (the
        caller failed), terminate them first."""
        for conn in self._conns.values():
            conn.close()
        for proc in self._procs.values():
            if self._failed or abort:
                proc.terminate()
            proc.join()
