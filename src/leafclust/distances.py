"""Dissimilarities between circular step densities.

All integral distances are evaluated exactly: two step densities are
refined onto the union of their breakpoints, where both are constant on
every interval, so each integral reduces to a finite sum over that one
refinement.  The moment distance compares closed-form trigonometric moment
vectors, computed once per density.  One kernel per pass (``_kernel``)
gives the items a pair compares and the row of distances between two of
them, for a single pair and for a matrix alike; the integral kinds of a
pass share one merge per pair.  ``Pairs`` holds a run's densities and
computes every integral kind it was built for in one such pass, the first
time ``distance_matrix`` asks for one of them.  A grid-based approximation
exists only as a cross-check in the test suite.  ``_shares.in_shares``
splits a pass's pairs across processes.
"""

from __future__ import annotations

import reprlib
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

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


class _Refinement:
    """The common refinement of two densities (``merge_breakpoints``), with the
    interval widths and height gaps that several reducers read, each computed
    once, when first read."""

    def __init__(self, f: StepDensity, g: StepDensity):
        self.breaks, self.fh, self.gh = merge_breakpoints(f, g)

    @cached_property
    def widths(self) -> np.ndarray:
        return np.diff(self.breaks)

    @cached_property
    def gaps(self) -> np.ndarray:
        return np.abs(self.fh - self.gh)


# Reducers of the common refinement, one per integral distance.
_REDUCERS = {
    DistanceTag.L1: lambda r: np.sum(r.gaps * r.widths),
    DistanceTag.SUP: lambda r: np.max(r.gaps),
    DistanceTag.HELLINGER_SQ: lambda r: np.sum((np.sqrt(r.fh) - np.sqrt(r.gh)) ** 2 * r.widths),
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


def _kernel(densities, kinds):
    """``(items, size, row)`` of one pass over ``kinds``, either integral kinds
    or one ``moments`` kind: the items a pair compares (the densities, or
    their moment vectors), their total size (intervals or vector entries) and
    the distances between two items, one per kind.  The integral kinds share
    one merge per pair."""
    if kinds[0].tag is DistanceTag.MOMENT_EUCLIDEAN:
        (kind,) = kinds
        items = [trig_moments(d, kind.moment_order).as_vector() for d in densities]
        return items, sum(v.size for v in items), lambda u, v: [float(np.linalg.norm(u - v))]
    reducers = [_REDUCERS[kind.tag] for kind in kinds]

    def row(f, g):
        refinement = _Refinement(f, g)
        return [float(reduce(refinement)) for reduce in reducers]

    items = list(densities)
    return items, sum(d.n_intervals for d in items), row


def pair_distance(f: StepDensity, g: StepDensity, kind: DistanceKind) -> float:
    """Distance between two densities under the selected kind."""
    (u, v), _, row = _kernel((f, g), [kind])
    return row(u, v)[0]


def _column(kind: DistanceKind):
    """A kind's column in ``Pairs``: its tag, or for ``moments`` the kind itself (with r)."""
    return kind if kind.tag is DistanceTag.MOMENT_EUCLIDEAN else kind.tag


class Pairs:
    """A run's densities and their distances over every unordered pair.

    A kind's values are computed the first time they are asked for.  The
    first integral kind asked computes every integral kind of ``kinds`` in
    the same pass, from one ``merge_breakpoints`` per pair, and the others
    then read their column; a ``moments`` kind, or a kind not in ``kinds``,
    is a pass of its own.
    """

    def __init__(self, densities, kinds):
        self.densities = list(densities)
        self.upper = np.triu_indices(len(self.densities), 1)
        self._integral = {k.tag: k for k in kinds if k.tag in _REDUCERS}
        self._columns: dict = {}

    def values(self, kind: DistanceKind) -> np.ndarray:
        """``kind``'s distances over the pairs ``self.upper`` lists, in order."""
        column = _column(kind)
        if column not in self._columns:
            kinds = list(self._integral.values()) if column in self._integral else [kind]
            items, size, row = _kernel(self.densities, kinds)
            iu, ku = self.upper

            def values_of(lo, hi):
                return [row(items[i], items[k])
                        for i, k in zip(iu[lo:hi].tolist(), ku[lo:hi].tolist())]

            # Merged points over all pairs: each item takes part in m - 1 merges.
            table = in_shares(iu.size, (len(items) - 1) * size, values_of, len(kinds))
            self._columns.update(zip(map(_column, kinds), table.T))
        return self._columns[column]


def distance_matrix(densities, labels, kind: DistanceKind) -> DistanceMatrix:
    """All-pairs distance matrix over a list of densities, or over a ``Pairs``
    table built for several kinds.

    Per-density work (the moment vectors) is done once per density.  Each
    unordered pair is then computed once and mirrored, which makes the
    matrix exactly symmetric.  Where the pairs are worth it they are split
    across the usable CPUs by ``_shares.in_shares``.  ``DistanceMatrix``
    checks the labels.
    """
    pairs = densities if isinstance(densities, Pairs) else Pairs(densities, [kind])
    iu, ku = pairs.upper
    m = len(pairs.densities)
    entries = np.zeros((m, m))
    entries[iu, ku] = entries[ku, iu] = pairs.values(kind)
    return DistanceMatrix(tuple(labels), entries, kind)
