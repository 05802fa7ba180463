"""Dissimilarities between circular step densities.

All integral distances are evaluated exactly: two step densities are
refined onto the union of their breakpoints, where both are constant on
every interval, so each integral reduces to a finite sum over that one
refinement.  The moment distance compares closed-form trigonometric moment
vectors, computed once per density.  A grid-based approximation exists
only as a cross-check in the test suite.

A large matrix is split across the usable CPUs: its pairs are cut into
contiguous shares, forked child processes compute all shares but the first,
and each writes its values into its own slice of one buffer that it shares
with the parent.  Every pair runs through the same code either way, so the
matrix is byte-identical whatever the CPU count.
"""

from __future__ import annotations

import contextlib
import mmap
import os
import reprlib
import signal
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .density import StepDensity, _frozen_array, trig_moments


class DistanceTag(str, Enum):
    L1 = "l1"
    SUP = "sup"
    HELLINGER_SQ = "hellinger"
    MOMENT_EUCLIDEAN = "moments"


@dataclass(frozen=True)
class DistanceKind:
    """A distance selector: the tag plus the moment order used by D4."""

    tag: DistanceTag
    moment_order: int = 5

    def __post_init__(self):
        try:
            object.__setattr__(self, "tag", DistanceTag(self.tag))
        except ValueError:  # Enum's own message would hold the whole tag
            raise ValueError(f"{reprlib.repr(self.tag)} is not a valid DistanceTag") from None
        if self.tag is DistanceTag.MOMENT_EUCLIDEAN and self.moment_order < 1:
            raise ValueError("moment order must be >= 1")

    @property
    def name(self) -> str:
        return self.tag.value


@dataclass(frozen=True)
class DistanceMatrix:
    """Symmetric pairwise dissimilarity matrix with row labels."""

    labels: tuple[str, ...]
    entries: np.ndarray
    kind: DistanceKind

    def __post_init__(self):
        labels = tuple(self.labels)
        entries = _frozen_array(self.entries)
        m = len(labels)
        if m < 2:
            raise ValueError("a distance matrix needs at least 2 items")
        if len(set(labels)) != m:
            raise ValueError("duplicate labels in distance matrix")
        if entries.shape != (m, m):
            raise ValueError(f"entries must be {m}x{m}")
        if np.any(entries < 0) or not np.all(np.isfinite(entries)):
            raise ValueError("entries must be finite and nonnegative")
        if np.any(entries != entries.T):
            raise ValueError("entries must be exactly symmetric")
        if np.any(np.diag(entries) != 0.0):
            raise ValueError("diagonal must be exactly zero")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "entries", entries)

    @property
    def size(self) -> int:
        return len(self.labels)


def merge_breakpoints(f: StepDensity, g: StepDensity):
    """Common refinement of two step densities.

    Returns ``(breaks, fh, gh)`` where ``breaks`` is the sorted union of
    both breakpoint sets, a breakpoint that f and g share listed once, and
    ``fh[k]``/``gh[k]`` are the (constant) values of f and g on
    (``breaks[k]``, ``breaks[k+1]``].

    The merge is linear and searches nothing: a stable sort of the two
    sorted arrays is one timsort merge of two runs, and a running count of
    the entries that came from f gives each merged interval's height index
    in f; the rest of the entries up to that point came from g.
    """
    fb = f.breakpoints
    both = np.concatenate((fb, g.breakpoints))
    order = np.argsort(both, kind="stable")
    merged = both[order]
    # Left ends of the merged intervals: the last copy of each value but 2*pi.
    # Of a breakpoint f and g share that is g's copy (the sort is stable), so
    # the counts up to it include both copies.
    left = np.flatnonzero(merged[1:] != merged[:-1])
    f_count = np.cumsum(order < fb.size)[left]
    return np.append(merged[left], merged[-1]), f.heights[f_count - 1], g.heights[left - f_count]


# Reducers of the common refinement, one per integral distance.
_REDUCERS = {
    DistanceTag.L1: lambda breaks, fh, gh: np.sum(np.abs(fh - gh) * np.diff(breaks)),
    DistanceTag.SUP: lambda breaks, fh, gh: np.max(np.abs(fh - gh)),
    DistanceTag.HELLINGER_SQ: lambda breaks, fh, gh: np.sum(
        (np.sqrt(fh) - np.sqrt(gh)) ** 2 * np.diff(breaks)),
}


def _refined(reduce):
    """Pair distance: merge the two breakpoint sets once, then reduce."""
    return lambda f, g: float(reduce(*merge_breakpoints(f, g)))


# Each tag maps to (per-density preparation, distance between two prepared
# densities): the integral distances work on the densities themselves, the
# moment distance on each density's moment vector.
_KERNELS = {tag: (lambda d, r: d, _refined(reduce)) for tag, reduce in _REDUCERS.items()}
_KERNELS[DistanceTag.MOMENT_EUCLIDEAN] = (
    lambda d, r: trig_moments(d, r).as_vector(),
    lambda mf, mg: float(np.linalg.norm(mf - mg)),
)


def dist_l1(f: StepDensity, g: StepDensity) -> float:
    """D1: integral of |f - g| over the circle.

    Lies in [0, 2] up to the rounding of the unit masses: two disjoint
    subnormal traces give 2.000000000000001.
    """
    return pair_distance(f, g, DistanceKind(DistanceTag.L1))


def dist_sup(f: StepDensity, g: StepDensity) -> float:
    """D2: sup of |f - g|; step functions attain it on interval interiors."""
    return pair_distance(f, g, DistanceKind(DistanceTag.SUP))


def dist_hellinger_sq(f: StepDensity, g: StepDensity) -> float:
    """D3: integral of (sqrt(f) - sqrt(g))^2, i.e. 2 - 2*int(sqrt(fg)).

    This is the squared Hellinger-style integral without a 1/2 factor, so
    it ranges over [0, 2] up to the rounding of the unit masses (as for
    :func:`dist_l1`) and is not guaranteed to satisfy the triangle
    inequality.
    """
    return pair_distance(f, g, DistanceKind(DistanceTag.HELLINGER_SQ))


def dist_moment_euclidean(f: StepDensity, g: StepDensity, r: int = 5) -> float:
    """D4: Euclidean distance between the first 2r trigonometric moments."""
    return pair_distance(f, g, DistanceKind(DistanceTag.MOMENT_EUCLIDEAN, r))


def pair_distance(f: StepDensity, g: StepDensity, kind: DistanceKind) -> float:
    """Distance between two densities under the selected kind."""
    prepare, pair = _KERNELS[kind.tag]
    return pair(prepare(f, kind.moment_order), prepare(g, kind.moment_order))


def distance_matrix(densities, labels, kind: DistanceKind) -> DistanceMatrix:
    """All-pairs distance matrix over a list of densities.

    Per-density work (the moment vectors) is done once per density.  Each
    unordered pair is then computed once and mirrored, which makes the
    matrix exactly symmetric.  Where the pairs are worth it they are split
    across the usable CPUs (see the module docstring).  ``DistanceMatrix``
    checks the labels.
    """
    prepare, pair = _KERNELS[kind.tag]
    items = [prepare(d, kind.moment_order) for d in densities]
    m = len(items)
    iu, ku = np.triu_indices(m, 1)
    # Merged points over all pairs: each item takes part in m - 1 merges.
    work = (m - 1) * sum(_size(item) for item in items)
    shares = max(1, min(_usable_cpus(), iu.size, work // _MIN_WORK_PER_SHARE))
    entries = np.zeros((m, m))
    entries[iu, ku] = entries[ku, iu] = _pair_values(pair, items, iu, ku, shares)
    return DistanceMatrix(tuple(labels), entries, kind)


# Work (merged points) below which a share is not worth its own process.  On
# a 2 vCPU Xeon a merge costs 26-55 ns per point and a fork and join 3-4 ms at
# 40-50 MiB RSS, so a share of this size spends about 5 % of its time on it.
_MIN_WORK_PER_SHARE = 2_000_000


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork."""
    if hasattr(os, "fork") and hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return 1


def _size(item) -> int:
    """Intervals of a density, entries of a moment vector."""
    return item.n_intervals if isinstance(item, StepDensity) else item.size


def _share(pair, items, iu, ku) -> np.ndarray:
    """The distances of the pairs ``(iu[j], ku[j])``, in order."""
    return np.array([pair(items[i], items[k]) for i, k in zip(iu.tolist(), ku.tolist())],
                    dtype=float)


def _pair_values(pair, items, iu, ku, shares: int) -> np.ndarray:
    """:func:`_share` of all pairs, cut into ``shares`` contiguous shares of
    equal count: this process computes the first, a forked child each other,
    and each writes its values into its own slice of one buffer that the
    children share with this process.

    A child ends only through ``os._exit`` (0 once its slice is written, 1
    otherwise), so it never flushes stdio, runs exit handlers or returns into
    the caller; any other wait status, a signal's too, fails the matrix.
    Every child is reaped before this returns or raises; if this process's
    own share raises (a KeyboardInterrupt too), the children are killed.
    """
    if shares == 1:
        return _share(pair, items, iu, ku)
    values = np.frombuffer(mmap.mmap(-1, 8 * iu.size))  # anonymous: shared across fork
    cuts = [iu.size * s // shares for s in range(shares + 1)]
    children = []  # pids not yet reaped
    try:
        for lo, hi in zip(cuts[1:-1], cuts[2:]):
            pid = os.fork()
            if pid == 0:
                code = 1
                try:
                    values[lo:hi] = _share(pair, items, iu[lo:hi], ku[lo:hi])
                    code = 0
                finally:
                    os._exit(code)
            children.append(pid)
        values[:cuts[1]] = _share(pair, items, iu[:cuts[1]], ku[:cuts[1]])
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
