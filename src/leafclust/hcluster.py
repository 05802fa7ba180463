"""Agglomerative hierarchical clustering over a precomputed distance matrix.

Complete linkage is the default throughout the package because it keeps the
maximum within-cluster dissimilarity small; single and average linkage are
available as options.

``agglomerate`` keeps a dense matrix of linkage heights between the active
clusters and, after each merge, writes one new row by the Lance-Williams
recurrence: the maximum (complete) or minimum (single) of the two merged
rows, or for average linkage the sum of the two rows of block sums divided
by the product of cluster sizes, so every height is a block sum over a
block size.  Each step is O(m^2) vectorized work.  Among the pairs at the
minimal height the one with the smallest (smaller id, larger id) node ids
merges, so runs are reproducible.

Every tree product reads one pass over the merges, ``_layout``: each merge
puts the child holding the smaller leaf first, so a node's leaves are one
run of the leaf order, from its first (smallest) leaf to its last.
``leaf_order`` returns that order and ``cut`` slices it; ``to_newick`` and
``svgplot.plot_dendrogram`` take the ordered children and the node heights.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum

import numpy as np

from .density import _echo
from .distances import DistanceMatrix

__all__ = ["Linkage", "Merge", "Dendrogram", "agglomerate", "cut", "leaf_order", "to_newick"]


class Linkage(str, Enum):
    COMPLETE = "complete"
    SINGLE = "single"
    AVERAGE = "average"


@dataclass(frozen=True)
class Merge:
    """One agglomeration step: children node ids, linkage height, merged size."""

    left: int
    right: int
    height: float
    size: int


@dataclass(frozen=True)
class Dendrogram:
    """Binary merge tree from agglomerative clustering.

    Node ids 0..m-1 are the leaves (in label order); id m+i is the cluster
    created by ``merges[i]``.  Heights are non-decreasing because all three
    supported linkages are monotone.
    """

    labels: tuple[str, ...]
    merges: tuple[Merge, ...]

    def __post_init__(self):
        labels = tuple(self.labels)
        merges = tuple(self.merges)
        m = len(labels)
        if m < 2:
            raise ValueError(f"a dendrogram needs at least 2 leaves, got {m}")
        if len(merges) != m - 1:
            raise ValueError(f"expected {m - 1} merges for {m} leaves")
        seen_children, sizes = set(), [1] * m
        for i, mg in enumerate(merges):
            for child in (mg.left, mg.right):
                if not 0 <= child < m + i:
                    raise ValueError(f"merge {i}: child id {_echo(child)} out of range")
                if child in seen_children:
                    raise ValueError(f"merge {i}: child id {child} reused")
                seen_children.add(child)
            sizes.append(sizes[mg.left] + sizes[mg.right])
            if mg.size != sizes[-1]:
                raise ValueError(f"merge {i}: size {_echo(mg.size)}, "
                                 f"but its children hold {sizes[-1]}")
            if not np.isfinite(mg.height):
                raise ValueError(f"merge {i}: height must be finite")
            if mg.height < 0:
                raise ValueError(f"merge {i}: negative height")
            if i > 0 and mg.height < merges[i - 1].height:
                raise ValueError(f"merge {i}: heights must be non-decreasing")
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "merges", merges)

    @property
    def n_leaves(self) -> int:
        return len(self.labels)


def agglomerate(dm: DistanceMatrix, linkage: Linkage = Linkage.COMPLETE) -> Dendrogram:
    """Cluster a distance matrix bottom-up into a dendrogram.

    At every step the pair of active clusters with minimal linkage
    distance is merged; ties are broken toward the lexicographically
    smallest (smaller id, larger id) pair so runs are reproducible.
    """
    linkage = Linkage(linkage)
    m = dm.size
    # Slots 0..k-1 hold the k active clusters: node id, size and, in
    # ``heights``, the linkage height to every other slot (inf on the
    # diagonal).  Average linkage also keeps the block sums.
    heights = np.array(dm.entries, dtype=float)
    np.fill_diagonal(heights, np.inf)
    sums = None
    if linkage is Linkage.AVERAGE:
        # A block sum adds up to m*m entries.  Where that could overflow, the
        # sums are kept at a power-of-two scale 2**-shift, which is exact.
        shift = max(0, math.frexp(dm.entries.max())[1] + (m * m).bit_length() - 1023)
        sums = dm.entries * 2.0 ** -shift
    ids = np.arange(m)
    sizes = np.ones(m)
    merges: list[Merge] = []
    floor = 0.0
    for k in range(m, 1, -1):
        active = heights[:k, :k]
        height = active.min()
        # ``heights`` is symmetric: a tied pair is found as (a, b) and (b, a), one key.
        rows, cols = np.nonzero(active == height)
        lo = np.minimum(ids[rows], ids[cols])
        hi = np.maximum(ids[rows], ids[cols])
        best = np.argmin(lo * (2 * m) + hi)
        keep, drop = sorted((int(rows[best]), int(cols[best])))
        size = sizes[keep] + sizes[drop]
        if linkage is Linkage.COMPLETE:
            row = np.maximum(active[keep], active[drop])
        elif linkage is Linkage.SINGLE:
            row = np.minimum(active[keep], active[drop])
        else:
            sums[keep, :k] += sums[drop, :k]
            sums[:k, keep] = sums[keep, :k]
            row = sums[keep, :k] / (size * sizes[:k]) * 2.0 ** shift
        row[keep] = np.inf
        heights[keep, :k] = row
        heights[:k, keep] = row
        # The last slot moves into the dropped one, so slots 0..k-2 stay active.
        last = k - 1
        for arr in (heights, sums):
            if arr is not None:
                arr[drop, :k] = arr[last, :k]
                arr[:k, drop] = arr[:k, last]
        heights[drop, drop] = np.inf
        # Rounding can put a mathematically tied average height an ulp
        # below the previous one; record the heights non-decreasing.
        floor = max(floor, float(height))
        merges.append(Merge(int(lo[best]), int(hi[best]), floor, int(size)))
        ids[keep], sizes[keep] = m + len(merges) - 1, size
        ids[drop], sizes[drop] = ids[last], sizes[last]
    return Dendrogram(dm.labels, tuple(merges))


def _layout(dend: Dendrogram):
    """Each merge's (left, right) children, each node's height (0 for a leaf)
    and first and last leaf, and the leaves in layout order."""
    m = dend.n_leaves
    first, last, successor = list(range(m)), list(range(m)), [None] * m
    children = []
    for mg in dend.merges:
        left, right = sorted((mg.left, mg.right), key=first.__getitem__)
        children.append((left, right))
        successor[last[left]] = first[right]
        first.append(first[left])
        last.append(last[right])
    order = [first[-1]]
    while successor[order[-1]] is not None:
        order.append(successor[order[-1]])
    return children, [0.0] * m + [mg.height for mg in dend.merges], first, last, order


def cut(dend: Dendrogram, k: int) -> list[int]:
    """Assign each leaf to one of k flat clusters.

    Undoes the last k-1 merges and numbers the resulting components by
    their smallest leaf index.  Returns one cluster id per label, in label
    order.
    """
    m = dend.n_leaves
    if not 1 <= k <= m:
        raise ValueError(f"k must be in [1, {m}], got {k}")
    _, _, first, last, order = _layout(dend)
    slot = {leaf: i for i, leaf in enumerate(order)}
    # After the first m-k merges the clusters are the nodes below 2m-k
    # that none of those merges consumed.
    consumed = {child for mg in dend.merges[: m - k] for child in (mg.left, mg.right)}
    roots = sorted((node for node in range(2 * m - k) if node not in consumed),
                   key=first.__getitem__)
    assignment = [0] * m
    for cluster_id, node in enumerate(roots):
        for leaf in order[slot[first[node]]:slot[last[node]] + 1]:
            assignment[leaf] = cluster_id
    return assignment


def leaf_order(dend: Dendrogram) -> list[int]:
    """Left-to-right leaf indices of the deterministic tree layout."""
    return _layout(dend)[4]


def _format_length(x: float) -> str:
    out = repr(float(x))
    return out[:-2] if out.endswith(".0") else out


def to_newick(dend: Dendrogram) -> str:
    """Serialize a dendrogram as a Newick string with branch lengths.

    A child's branch length is its parent's merge height minus its own
    height (leaves sit at height 0).  Children are ordered by their
    smallest contained leaf index, so output is deterministic.
    """
    m = dend.n_leaves
    children, heights, *_ = _layout(dend)
    texts = {leaf: _escape_label(label) for leaf, label in enumerate(dend.labels)}
    for node, (left, right) in enumerate(children, m):
        texts[node] = (f"({texts.pop(left)}:{_format_length(heights[node] - heights[left])},"
                       f"{texts.pop(right)}:{_format_length(heights[node] - heights[right])})")
    return texts[2 * m - 2] + ";"


_NEWICK_UNSAFE = set("():;,[]' ")


def _escape_label(label: str) -> str:
    """Quote a label that is empty, holds Newick punctuation or a space, or
    holds a character ``str.isprintable`` rejects: every other blank (tab,
    line breaks, U+00A0, ...) and every control or format character."""
    if not label or not label.isprintable() or set(label) & _NEWICK_UNSAFE:
        return "'" + label.replace("'", "''") + "'"
    return label
