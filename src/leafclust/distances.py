"""Dissimilarities between circular step densities.

All integral distances are evaluated exactly: two step densities are
refined onto the union of their breakpoints, where both are constant on
every interval, so each integral reduces to a finite sum over that one
refinement.  The moment distance compares closed-form trigonometric moment
vectors, computed once per density.  One kernel per kind (``_kernel``)
gives the items a pair compares and the distance between two of them, for
a single pair and for a matrix alike.  A grid-based approximation exists
only as a cross-check in the test suite.  ``_shares.in_shares`` splits a
matrix's pairs across processes.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from enum import Enum

import numpy as np

from ._shares import in_shares
from .density import StepDensity, _echo, _frozen_array, trig_moments


class DistanceTag(str, Enum):
    L1 = "l1"
    SUP = "sup"
    HELLINGER_SQ = "hellinger"
    MOMENT_EUCLIDEAN = "moments"


# trig_moments holds about five (r, n + 1) float arrays: at r = 1,000 and
# n = 16,000 that is about 0.64 GB per density.
_MAX_MOMENT_ORDER = 1000


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
        r = self.moment_order
        if self.tag is DistanceTag.MOMENT_EUCLIDEAN and not 1 <= r <= _MAX_MOMENT_ORDER:
            raise ValueError(f"moment order must be >= 1 and <= {_MAX_MOMENT_ORDER:,}, "
                             f"got {_echo(r)}")

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


def _kernel(densities, kind: DistanceKind):
    """``(items, size, pair)`` of one kind: the items a pair compares (the
    densities, or for ``moments`` their moment vectors), their total size
    (intervals or vector entries) and the distance between two items."""
    if kind.tag is DistanceTag.MOMENT_EUCLIDEAN:
        items = [trig_moments(d, kind.moment_order).as_vector() for d in densities]
        return items, sum(v.size for v in items), lambda u, v: float(np.linalg.norm(u - v))
    reduce = _REDUCERS[kind.tag]
    items = list(densities)
    return (items, sum(d.n_intervals for d in items),
            lambda f, g: float(reduce(*merge_breakpoints(f, g))))


def pair_distance(f: StepDensity, g: StepDensity, kind: DistanceKind) -> float:
    """Distance between two densities under the selected kind."""
    (u, v), _, pair = _kernel((f, g), kind)
    return pair(u, v)


def distance_matrix(densities, labels, kind: DistanceKind) -> DistanceMatrix:
    """All-pairs distance matrix over a list of densities.

    Per-density work (the moment vectors) is done once per density.  Each
    unordered pair is then computed once and mirrored, which makes the
    matrix exactly symmetric.  Where the pairs are worth it they are split
    across the usable CPUs by ``_shares.in_shares``.  ``DistanceMatrix``
    checks the labels.
    """
    items, size, pair = _kernel(densities, kind)
    m = len(items)
    iu, ku = np.triu_indices(m, 1)

    def values_of(lo, hi):
        return [pair(items[i], items[k]) for i, k in zip(iu[lo:hi].tolist(), ku[lo:hi].tolist())]

    entries = np.zeros((m, m))
    # Merged points over all pairs: each item takes part in m - 1 merges.
    entries[iu, ku] = entries[ku, iu] = in_shares(iu.size, (m - 1) * size, values_of)
    return DistanceMatrix(tuple(labels), entries, kind)
