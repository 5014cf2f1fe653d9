"""The run's processes: ``run`` runs shards of work, one here and each other
in a forked worker, and reports their failures as one. It knows nothing of
what a shard holds, and holds every fork, pipe, kill and reap of the package."""

import contextlib
import ctypes
import os
import pickle
import signal
import traceback
from pathlib import Path

import numpy as np

from .files import write_all

_PR_SET_PDEATHSIG = 1  # prctl's option, from <linux/prctl.h>


def worker_count(n_shards: int) -> int:
    """The number of processes that run ``n_shards`` shards of work: one
    per CPU this process may run on (its affinity mask), and at most one per
    shard; 1 where ``os.fork`` or ``os.sched_getaffinity`` is missing
    (Windows). Tests patch it; nothing else sets it."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_getaffinity")):
        return 1
    return min(n_shards, len(os.sched_getaffinity(0)))


def openblas_function(name: str, restype, *argtypes):
    """The function ``name`` of the scipy-openblas library bundled with
    numpy's wheels, with its ctypes types set; None where there is no such
    library or it lacks ``name``. Opening the library again yields the copy
    numpy already loaded."""
    package = Path(np.__file__).parent
    for lib in [*package.parent.glob("numpy.libs/*openblas*"), *package.glob(".dylibs/*openblas*")]:
        try:
            function = getattr(ctypes.CDLL(str(lib)), name)
        except (OSError, AttributeError):
            continue
        function.argtypes, function.restype = list(argtypes), restype
        return function
    return None


@contextlib.contextmanager
def _blas_threads_shared(processes: int):
    """Hold the bundled OpenBLAS at max(1, threads // ``processes``)
    threads for the block, where ``processes`` > 1, and give it back its
    old count after: each forked worker inherits the lower count, so the
    processes' BLAS threads do not outnumber the CPUs. Without that library
    or its thread calls, nothing is set."""
    get = set_threads = None
    if processes > 1:
        get = openblas_function("scipy_openblas_get_num_threads64_", ctypes.c_int)
        set_threads = openblas_function("scipy_openblas_set_num_threads64_", None, ctypes.c_int)
    if get is None or set_threads is None:
        yield
        return
    threads = get()
    set_threads(max(1, threads // processes))
    try:
        yield
    finally:
        set_threads(threads)


def run(shards: list, work, running: dict, order) -> None:
    """Call ``work(shard, running)`` on each shard: the first here, each
    other in a worker forked for it (``_fork_worker``) and released here.
    While workers run, each process keeps its share of the BLAS threads
    (``_blas_threads_shared``). A failure ends its own shard only. Once every
    worker has exited, the failure whose ``running`` dict sorts first by
    ``order`` is raised, with ``running`` updated from that dict. An
    interrupt (no ``Exception``) in this process's shard, or while it waits,
    kills the workers first. Every worker is reaped on every path."""
    workers = {}  # pid -> (worker number, read end of its pipe), until reaped
    failures = []  # (running dict, exception)
    with _blas_threads_shared(len(shards)):
        try:
            for number in range(1, len(shards)):
                _fork_worker(number, shards[number], work, workers)
                shards[number] = None  # the worker runs it; release it here
            own = {}
            try:
                work(shards[0], own)
            except Exception as exc:
                failures.append((own, exc))
            while workers:
                failures += _reap(next(iter(workers)), workers)
        finally:
            for pid, (_, read) in workers.items():
                with contextlib.suppress(ProcessLookupError):
                    os.kill(pid, signal.SIGKILL)
                os.close(read)
                with contextlib.suppress(ChildProcessError):
                    os.waitpid(pid, 0)
    if failures:
        where, exc = min(failures, key=lambda failure: order(failure[0]))
        running.update(where)
        raise exc


def _fork_worker(number: int, shard, work, workers: dict) -> None:
    """Fork worker ``number`` to run ``work`` on ``shard`` (``_work``), and
    record it in ``workers`` as pid -> (number, read end of its pipe). The
    worker ends with this process (``_end_with_parent``), and leaves only
    through ``os._exit``, so no caller's ``finally``, ``atexit`` handler or
    stdio buffer runs twice (nothing in a run prints). SIGINT is blocked
    across the fork, so an interrupt lands in this process before the worker
    is forked or once it is recorded, and in the worker once it is inside
    its ``try``."""
    parent = os.getpid()
    read, write = os.pipe()
    mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
    try:
        pid = os.fork()
        if pid == 0:
            status = 1
            try:
                _end_with_parent(parent)
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                os.close(read)
                status = _work(shard, work, write)
            finally:
                os._exit(status)
        workers[pid] = (number, read)
    except BaseException:
        os.close(read)
        raise
    finally:
        os.close(write)
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _end_with_parent(parent: int) -> None:
    """In a worker just forked by the process ``parent``: have the kernel
    kill it once the thread that forked it ends (Linux's ``prctl``), and
    leave at once if ``parent`` has already ended, as that signal would then
    never come. Where the C library has no ``prctl``, nothing is done."""
    try:
        prctl = ctypes.CDLL(None).prctl
    except (OSError, AttributeError):
        return
    prctl.argtypes, prctl.restype = [ctypes.c_int, ctypes.c_ulong], ctypes.c_int
    prctl(_PR_SET_PDEATHSIG, signal.SIGKILL)
    if os.getppid() != parent:
        os._exit(1)


def _work(shard, work, write: int) -> int:
    """A worker's body: run ``work`` on ``shard``, and on a failure send the
    pickled (running dict, exception, traceback text) to the pipe end
    ``write``. An exception that does not pickle, or does not load back, is
    sent as a ``RuntimeError`` holding its repr and traceback. Returns the
    exit status."""
    running = {}
    try:
        work(shard, running)
        return 0
    except BaseException as exc:
        text = "".join(traceback.format_exception(exc))
        try:
            message = pickle.dumps((running, exc, text))
            pickle.loads(message)
        except Exception:
            message = pickle.dumps((running, RuntimeError(f"{exc!r}\n{text}"), text))
        write_all(write, message)
        return 1


class _RemoteTraceback(Exception):
    """A worker's traceback text, chained as the cause of the exception it
    sent, so that a report or a propagated exception shows where it arose."""

    def __str__(self) -> str:
        return self.args[0]


def _reap(pid: int, workers: dict) -> list[tuple[dict, BaseException]]:
    """Read worker ``pid``'s pipe to its end, wait for the worker and drop it
    from ``workers``; returns its failure as [(running dict, exception)], or
    []. A worker that ended otherwise than with status 0 and sent nothing
    (say, killed by a signal) fails as a ``RuntimeError`` whose dict names
    the worker."""
    number, read = workers[pid]
    chunks = []
    while chunk := os.read(read, 1 << 16):
        chunks.append(chunk)
    status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    del workers[pid]
    os.close(read)
    if chunks:
        where, exc, text = pickle.loads(b"".join(chunks))
        exc.__cause__ = _RemoteTraceback(text)
        return [(where, exc)]
    if status == 0:
        return []
    how = f"signal {-status}" if status < 0 else f"exit status {status}"
    return [({"worker": number}, RuntimeError(
        f"worker {number} (pid {pid}) ended by {how} before it reported"
    ))]
