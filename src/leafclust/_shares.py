"""Contiguous shares of a run of rows, each share in its own process.

A run of ``count`` rows of ``width`` floats is cut into contiguous shares,
as many as the usable CPUs and the work allow, and each share's rows are
written into its own slice of one buffer: this process fills the first
share, and a forked child each other, sharing the buffer with the parent.
Every row comes from the same ``values_of`` either way, so the result is
byte-identical whatever the CPU count.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import signal

import numpy as np

# Work below which a share is not worth its own process.  For a distance
# matrix the work is merged points: on a 2 vCPU Xeon a merge costs 26-55 ns
# per point and a fork and join 3-4 ms at 40-50 MiB RSS, so a share of this
# size spends about 5 % of its time on it.
_MIN_WORK_PER_SHARE = 2_000_000


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def in_shares(count: int, work: int, values_of, width: int = 1) -> np.ndarray:
    """The ``(count, width)`` array of the rows ``values_of(lo, hi)`` gives for
    ``[lo, hi)``, in order: ``hi - lo`` rows of ``width`` floats each.

    The run is cut into ``max(1, min(cpus, count, work // _MIN_WORK_PER_SHARE))``
    contiguous shares of equal count, so one share forks nothing.

    A child ends only through ``os._exit`` (0 once its slice is written, 1
    otherwise), so it never flushes stdio, runs exit handlers or returns into
    the caller; any other wait status, a signal's too, fails the run.  Every
    child is reaped before this returns or raises; if this process's own
    share raises (a KeyboardInterrupt too), the children are killed.
    """
    shares = max(1, min(_usable_cpus(), count, work // _MIN_WORK_PER_SHARE))
    # Anonymous, so shared across fork; mmap cannot map 0 bytes (no rows).
    values = np.frombuffer(mmap.mmap(-1, 8 * max(1, count * width)))[:count * width]
    values = values.reshape(count, width)

    def fill(lo, hi):
        values[lo:hi] = np.reshape(values_of(lo, hi), (hi - lo, width))

    cuts = [count * s // shares for s in range(shares + 1)]
    children = []  # pids not yet reaped
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    fill(lo, hi)
                    code = 0
                finally:
                    os._exit(code)
            children.append(pid)
        fill(0, cuts[1])
        while children:
            pid, status = os.waitpid(children[0], 0)
            children.pop(0)
            if status != 0:
                raise ChildProcessError(f"share failed in process {pid}: wait status {status}")
    finally:
        for pid in children:
            with contextlib.suppress(ProcessLookupError, ChildProcessError):
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    return values
