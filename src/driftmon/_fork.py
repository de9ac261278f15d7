"""Forked workers, each pinned to one CPU, that send a reply over a pipe.

A drift run summarises a data file of ``FORK_MIN_BYTES`` or more in one
worker per CPU (``summary``); a performance run sums the sales of such a
file in one worker while it reads the predictions (``data``).  Both use
``cpus`` for the gate and ``replies`` for the workers.

A worker runs a job: a function called with no argument in the forked
process that returns its reply as byte strings.  The worker makes the
whole reply first, then writes each message after its length, exits 0
once every one is written, and never returns into its caller's code.
The parent reads each reply as it arrives and learns, once the worker is
reaped, whether the reply is whole.  A worker that cannot be started or
does not reply whole is the caller's cue to do the work in-process, where
every error is the one a serial read raises.  A parent that works while
its workers run pins itself to a CPU of its own meanwhile (``pinned``).
Its signal mask and CPU affinity are the same after the call.
"""

from __future__ import annotations

import os
import sys
from contextlib import contextmanager
from pathlib import Path
from typing import TYPE_CHECKING, Callable, Iterable, Iterator, Sequence

if TYPE_CHECKING:
    import signal

#: A smaller data file is read in-process.  Forking a worker costs a few
#: milliseconds of copy-on-write faults, about what reading a 1e3-row file
#: takes; a 1 MiB file takes tens of milliseconds.
FORK_MIN_BYTES = 1 << 20


def cpus(path: Path, count: int) -> list[int]:
    """The first ``count`` CPUs of the affinity mask, one for each worker
    or process reading ``path``, or ``[]`` when it is read in-process: it
    is under ``FORK_MIN_BYTES``, ``count`` or the mask is under two,
    ``os.fork`` is missing, or another thread runs."""
    if count < 2 or not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return []
    # A forked child holds a copy of every lock, and another thread may hold
    # one; ``threading`` is always loaded in a process that started a thread.
    threading = sys.modules.get("threading")
    if threading is not None and threading.active_count() > 1:
        return []
    try:
        if os.stat(path).st_size < FORK_MIN_BYTES:
            return []
    except OSError:
        return []  # the in-process read reports it
    chosen = sorted(os.sched_getaffinity(0))[:count]
    return chosen if len(chosen) > 1 else []


class Reply:
    """One worker's messages, in the order it wrote them.  ``whole`` is
    true once the worker is reaped, if its messages were read to their end
    and it exited 0."""

    def __init__(self, pid: int, fd: int) -> None:
        self._pid = pid
        self._stream = open(fd, "rb")
        self._ended = False
        self._code: int | None = None

    def __iter__(self) -> Iterator[bytes]:
        read = self._stream.read
        while len(head := read(8)) == 8:
            size = int.from_bytes(head, "little")
            message = read(size)
            if len(message) < size:
                break  # the worker died writing it
            yield message
        self._ended = True

    @property
    def whole(self) -> bool:
        return self._ended and self._code == 0

    def _reap(self) -> None:
        """Close the pipe and wait for the worker, killed first if its
        messages were not read to their end; once only.  Call with signals
        held."""
        if self._code is None:
            self._stream.close()
            if not self._ended:
                import signal

                os.kill(self._pid, signal.SIGKILL)
            self._code = os.waitstatus_to_exitcode(os.waitpid(self._pid, 0)[1])


@contextmanager
def replies(
    jobs: Sequence[Callable[[], Iterable[bytes]]], cpus: Sequence[int]
) -> Iterator[list[Reply] | None]:
    """Run ``jobs[i]`` in a worker pinned to ``cpus[i]``, one per CPU
    given, and yield their replies, or ``None`` when no worker runs: no CPU
    is given, or one could not be forked.

    On the way out every worker is reaped, and one whose reply was not
    read to its end is killed first: none outlives the block.
    """
    started: list[Reply] = []
    try:
        try:
            for job, cpu in zip(jobs, cpus):
                # Signals are held until the worker is listed: a handler run
                # in the child could return into the caller's code, and one
                # raising in the parent before that would leave it unreaped.
                with _signals_held() as mask:
                    started.append(_spawn(job, cpu, mask))
        except OSError:
            _reap(started)
            started = []
        yield started or None
    finally:
        # An interrupt arriving now is raised once every worker is reaped.
        _reap(started)


@contextmanager
def pinned(cpus: Sequence[int]) -> Iterator[None]:
    """Pin this process to ``cpus``, if any are given, while the block
    runs; the mask it had is restored after the block.  Left unpinned, this
    process and a worker can share one CPU while the other idles."""
    if not cpus:
        yield
        return
    mask = os.sched_getaffinity(0)
    try:
        try:
            os.sched_setaffinity(0, cpus)
        except OSError:
            pass  # best effort, as for the workers
        yield
    finally:
        os.sched_setaffinity(0, mask)


def _reap(started: list[Reply]) -> None:
    with _signals_held():
        for reply in started:
            reply._reap()


@contextmanager
def _signals_held() -> Iterator[set[signal.Signals]]:
    """Hold every signal that can be held; yield the mask to restore."""
    import signal  # here: a run that forks nothing does not load it

    mask = signal.pthread_sigmask(signal.SIG_BLOCK, signal.valid_signals())
    try:
        yield mask
    finally:
        signal.pthread_sigmask(signal.SIG_SETMASK, mask)


def _spawn(job: Callable[[], Iterable[bytes]], cpu: int, mask: set[signal.Signals]) -> Reply:
    """Fork a worker that runs ``job`` and writes its reply to a pipe."""
    fd, out = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(fd)
        os.close(out)
        raise
    if pid:
        os.close(out)
        return Reply(pid, fd)
    # The worker never returns into its caller's code.  It exits 0 only
    # once its whole reply is written.
    code = 1
    try:
        import signal

        signal.pthread_sigmask(signal.SIG_SETMASK, mask)
        try:
            os.sched_setaffinity(0, {cpu})
        except OSError:
            pass  # pinning is best effort: unpinned, the workers only overlap less
        # The whole reply is made before its first message is written, so
        # the worker never waits on its pipe while it works.
        messages = list(job())
        with open(out, "wb") as stream:
            for message in messages:
                stream.write(len(message).to_bytes(8, "little"))
                stream.write(message)
        code = 0
    finally:
        os._exit(code)
