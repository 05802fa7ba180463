"""Shared test utilities: random generators and independent oracles.

The oracles here deliberately avoid the library's own code paths: moments
and integral distances are re-derived by midpoint quadrature on a fine
grid and, exactly, by a per-pair copy of the earlier distance code,
clustering by a plain-Python agglomerative loop over member lists and by
the earlier blockwise library clustering,
flat cuts by the earlier union-find cut, SVG point strings by the earlier
per-point plot code (density step paths expanded back to its corners by a
regex), long-CSV datasets by the earlier row-by-row reader, and
Newick strings by a tiny recursive-descent parser.
"""

from __future__ import annotations

import csv
import math
import re
import reprlib
from collections import Counter

import numpy as np

from leafclust import CcdSequence, DataFormatError, Dataset, StepDensity, TWO_PI

PANELS = 10**6


# ---------------------------------------------------------------------------
# random inputs

def random_ccd(rng, n_range=(2, 2000), high=100.0, seq_id="seq") -> CcdSequence:
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    values = rng.uniform(0.0, high, n)
    if not np.any(values > 0):
        values[0] = high / 2
    return CcdSequence(seq_id, values)


def directional_ccd(rng, n_range=(50, 2000), seq_id="seq") -> CcdSequence:
    """A trace with real shape signal, so the mean direction is well defined."""
    n = int(rng.integers(n_range[0], n_range[1] + 1))
    theta = TWO_PI * np.arange(1, n + 1) / n
    phase = rng.uniform(0.0, TWO_PI)
    amp1 = rng.uniform(0.1, 0.45)
    amp2 = rng.uniform(0.0, 0.3)
    k2 = int(rng.integers(2, 6))
    values = 1.0 + amp1 * np.cos(theta - phase) + amp2 * np.cos(k2 * theta - 3 * phase)
    values = values * rng.uniform(0.2, 40.0)
    values = values * (1.0 + 0.05 * rng.standard_normal(n))
    return CcdSequence(seq_id, np.maximum(values, 0.0))


def random_density(rng, max_intervals=12, spread=0.3, min_gap=1e-4) -> StepDensity:
    """Random step density with moderate total variation.

    Keeping the height spread moderate bounds the total variation, which
    in turn bounds the breakpoint-straddling error of midpoint quadrature
    oracles well below the 1e-6 tolerances used in tests.
    """
    k = int(rng.integers(2, max_intervals + 1))
    while True:
        inner = np.sort(rng.uniform(min_gap, TWO_PI - min_gap, k - 1))
        breaks = np.concatenate(([0.0], inner, [TWO_PI]))
        if np.all(np.diff(breaks) >= min_gap):
            break
    heights = rng.uniform(1.0 - spread, 1.0 + spread, k)
    heights = heights / np.sum(heights * np.diff(breaks))
    return StepDensity(breaks, heights)


# ---------------------------------------------------------------------------
# quadrature oracles

def quadrature_midpoints(panels=PANELS) -> np.ndarray:
    return (np.arange(panels) + 0.5) * (TWO_PI / panels)


_TRIG_TABLES: dict = {}


def _trig_tables(p_max: int, panels: int):
    """cos(p*mid) and sin(p*mid) rows for p = 1..p_max, built once."""
    key = (p_max, panels)
    if key not in _TRIG_TABLES:
        mids = quadrature_midpoints(panels)
        cos_rows = [np.cos(mids)]
        sin_rows = [np.sin(mids)]
        for _ in range(p_max - 1):
            cp = cos_rows[-1] * cos_rows[0] - sin_rows[-1] * sin_rows[0]
            sp = sin_rows[-1] * cos_rows[0] + cos_rows[-1] * sin_rows[0]
            cos_rows.append(cp)
            sin_rows.append(sp)
        _TRIG_TABLES.clear()  # keep at most one table set in memory
        _TRIG_TABLES[key] = (cos_rows, sin_rows)
    return _TRIG_TABLES[key]


def moment_quadrature(d: StepDensity, p_max: int, panels=PANELS) -> np.ndarray:
    """Midpoint-rule trigonometric moments, orders 1..p_max; shape (p_max, 2)."""
    cos_rows, sin_rows = _trig_tables(p_max, panels)
    f = d.evaluate(quadrature_midpoints(panels))
    dt = TWO_PI / panels
    out = np.empty((p_max, 2))
    for p in range(1, p_max + 1):
        out[p - 1] = (np.dot(f, cos_rows[p - 1]) * dt, np.dot(f, sin_rows[p - 1]) * dt)
    return out


def grid_l1(f: StepDensity, g: StepDensity, panels=PANELS) -> float:
    mids = quadrature_midpoints(panels)
    return float(np.sum(np.abs(f.evaluate(mids) - g.evaluate(mids))) * (TWO_PI / panels))


def grid_hellinger_sq(f: StepDensity, g: StepDensity, panels=PANELS) -> float:
    mids = quadrature_midpoints(panels)
    diff = np.sqrt(f.evaluate(mids)) - np.sqrt(g.evaluate(mids))
    return float(np.sum(diff * diff) * (TWO_PI / panels))


def grid_sup(f: StepDensity, g: StepDensity, panels=PANELS) -> float:
    mids = quadrature_midpoints(panels)
    return float(np.max(np.abs(f.evaluate(mids) - g.evaluate(mids))))


# ---------------------------------------------------------------------------
# per-pair distance reference
#
# Exact per-pair reference: one breakpoint merge per pair and distance, and
# both densities' moments recomputed for every pair, one order p at a time.
# The arithmetic matches the library's kernels, so results must be equal.

def merge_breakpoints(f: StepDensity, g: StepDensity):
    breaks = np.union1d(f.breakpoints, g.breakpoints)
    right = breaks[1:]
    fh = f.heights[np.searchsorted(f.breakpoints, right, side="left") - 1]
    gh = g.heights[np.searchsorted(g.breakpoints, right, side="left") - 1]
    return breaks, fh, gh


def trig_moments_loop(d: StepDensity, r: int) -> np.ndarray:
    """Moment pairs of orders 1..r, one p at a time; shape (r, 2)."""
    pairs = np.empty((r, 2))
    b = d.breakpoints
    h = d.heights
    for p in range(1, r + 1):
        sin_b = np.sin(p * b)
        cos_b = np.cos(p * b)
        pairs[p - 1, 0] = np.sum(h * (sin_b[1:] - sin_b[:-1])) / p
        pairs[p - 1, 1] = np.sum(h * (cos_b[:-1] - cos_b[1:])) / p
    return pairs


def dist_l1(f: StepDensity, g: StepDensity) -> float:
    breaks, fh, gh = merge_breakpoints(f, g)
    return float(np.sum(np.abs(fh - gh) * np.diff(breaks)))


def dist_sup(f: StepDensity, g: StepDensity) -> float:
    _, fh, gh = merge_breakpoints(f, g)
    return float(np.max(np.abs(fh - gh)))


def dist_hellinger_sq(f: StepDensity, g: StepDensity) -> float:
    breaks, fh, gh = merge_breakpoints(f, g)
    return float(np.sum((np.sqrt(fh) - np.sqrt(gh)) ** 2 * np.diff(breaks)))


def dist_moment_euclidean(f: StepDensity, g: StepDensity, r: int = 5) -> float:
    mf = trig_moments_loop(f, r).reshape(-1)
    mg = trig_moments_loop(g, r).reshape(-1)
    return float(np.linalg.norm(mf - mg))


def pairwise_matrix(densities, tag: str, r: int) -> np.ndarray:
    """All-pairs matrix from the per-pair reference, upper triangle mirrored."""
    dist = {
        "l1": dist_l1,
        "sup": dist_sup,
        "hellinger": dist_hellinger_sq,
        "moments": lambda f, g: dist_moment_euclidean(f, g, r),
    }[tag]
    m = len(densities)
    out = np.zeros((m, m))
    for i in range(m):
        for k in range(i + 1, m):
            out[i, k] = out[k, i] = dist(densities[i], densities[k])
    return out


# ---------------------------------------------------------------------------
# clustering reference

def brute_force_agglomerate(matrix, linkage: str):
    """O(m^3)-ish reference clustering over a plain nested-list matrix.

    Returns merge tuples (left, right, height, size) with the same node-id
    and tie-break conventions as the library: leaves 0..m-1, new cluster
    ids increase from m, ties go to the smallest (a, b) pair.
    """
    m = len(matrix)
    clusters = {i: [i] for i in range(m)}
    merges = []
    next_id = m
    while len(clusters) > 1:
        best = None
        ids = sorted(clusters)
        for ai, a in enumerate(ids):
            for b in ids[ai + 1:]:
                vals = [matrix[x][y] for x in clusters[a] for y in clusters[b]]
                if linkage == "complete":
                    dist = max(vals)
                elif linkage == "single":
                    dist = min(vals)
                elif linkage == "average":
                    dist = sum(vals) / len(vals)
                else:
                    raise ValueError(linkage)
                if best is None or (dist, a, b) < best:
                    best = (dist, a, b)
        dist, a, b = best
        merged = clusters.pop(a) + clusters.pop(b)
        merges.append((a, b, dist, len(merged)))
        clusters[next_id] = merged
        next_id += 1
    return merges


def agglomerate_blockwise(matrix: np.ndarray, linkage: str):
    """The earlier library clustering, kept as an exact oracle.

    Recomputes every active pair's linkage from its ``np.ix_`` block of the
    original matrix at every step.  Returns merge tuples like
    ``brute_force_agglomerate``; complete and single heights are matrix
    entries, so the library's must equal them bit for bit.
    """
    reduce = {"complete": np.max, "single": np.min, "average": np.mean}[linkage]
    m = matrix.shape[0]
    active = {i: np.array([i]) for i in range(m)}
    merges = []
    for step in range(m - 1):
        ids = sorted(active)
        best = None
        for a_pos, a in enumerate(ids):
            for b in ids[a_pos + 1:]:
                cand = (float(reduce(matrix[np.ix_(active[a], active[b])])), a, b)
                if best is None or cand < best:
                    best = cand
        height, a, b = best
        members = np.concatenate((active[a], active[b]))
        del active[a], active[b]
        active[m + step] = members
        merges.append((a, b, height, members.size))
    return merges


def merge_leaf_sets(m: int, merges) -> list[frozenset]:
    """Leaf set of every internal node, in merge order."""
    sets = [frozenset([i]) for i in range(m)]
    for left, right, _height, _size in merges:
        sets.append(sets[left] | sets[right])
    return sets[m:]


def cut_union_find(dend, k: int) -> list[int]:
    """The earlier library cut, kept as an oracle: union-find over the
    first m-k merges, components numbered by their smallest leaf."""
    m = dend.n_leaves
    parent = list(range(2 * m - 1))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for i, mg in enumerate(dend.merges[: m - k]):
        node = m + i
        parent[find(mg.left)] = node
        parent[find(mg.right)] = node

    roots: dict[int, list[int]] = {}
    for leaf in range(m):
        roots.setdefault(find(leaf), []).append(leaf)
    components = sorted(roots.values(), key=min)
    assignment = [0] * m
    for cluster_id, leaves in enumerate(components):
        for leaf in leaves:
            assignment[leaf] = cluster_id
    return assignment


# ---------------------------------------------------------------------------
# SVG point strings (the earlier per-point plot code)

def _point_string(points) -> str:
    return " ".join(f"{x:.5f},{y:.5f}" for x, y in points)


def density_point_strings(densities) -> list[str]:
    """``"x,y"`` corners of each ``plot_densities`` step, corner by corner."""
    return [_point_string(points) for points in density_points(densities)]


def leaf_point_strings(outlines) -> list[str]:
    """``points`` of each ``plot_leaves`` polygon, vertex by vertex."""
    return [_point_string(points) for points in leaf_points(outlines)]


def density_points(densities) -> list[list[tuple[float, float]]]:
    """Exact pixel corners of each ``plot_densities`` step."""
    width, height = 640.0, 420.0
    ml, mr, mt, mb = 56.0, 16.0, 30.0, 42.0
    pw, ph = width - ml - mr, height - mt - mb
    ymax = max(float(d.heights.max()) for d in densities)
    if ymax <= 0:
        ymax = 1.0
    ymax *= 1.05

    def px(t):
        return ml + (t / TWO_PI) * pw

    def py(h):
        return mt + ph - (h / ymax) * ph

    out = []
    for d in densities:
        b, h = d.breakpoints, d.heights
        points = []
        for k in range(h.size):
            points.append((px(b[k]), py(h[k])))
            points.append((px(b[k + 1]), py(h[k])))
        out.append(points)
    return out


_TOKEN = r"[^\sMHV,]+"
_STEP_PATH = re.compile(rf"M({_TOKEN}),({_TOKEN})((?:H{_TOKEN}V{_TOKEN})*)H({_TOKEN})")
_STEP_MOVE = re.compile(rf"H({_TOKEN})V({_TOKEN})")


def step_path_points(d: str) -> str:
    """The corners of step path ``d`` as a ``points`` string, numbers copied verbatim.

    ``Mx0,y0Hx1Vy1...Vy(n-1)Hxn`` has the corners (x0,y0) (x1,y0) (x1,y1)
    (x2,y1) ... (xn,y(n-1)); anything else is a ValueError.
    """
    match = _STEP_PATH.fullmatch(d)
    if match is None:
        raise ValueError(f"not an absolute H/V step path: {d!r}")
    x, y, moves, last = match.groups()
    corners = [f"{x},{y}"]
    for x, next_y in _STEP_MOVE.findall(moves):
        corners += [f"{x},{y}", f"{x},{next_y}"]
        y = next_y
    corners.append(f"{last},{y}")
    return " ".join(corners)


def leaf_points(outlines) -> list[list[tuple[float, float]]]:
    """Exact pixel vertices of each ``plot_leaves`` polygon."""
    ncols = max(1, math.ceil(math.sqrt(len(outlines))))
    cell, pad, title_h = 150.0, 10.0, 16.0
    out = []
    for idx, outline in enumerate(outlines):
        row, col = divmod(idx, ncols)
        ox = col * cell
        oy = row * (cell + title_h) + title_h
        pts = outline.points
        cx = (float(pts[:, 0].min()) + float(pts[:, 0].max())) / 2
        cy = (float(pts[:, 1].min()) + float(pts[:, 1].max())) / 2
        span = max(float(pts[:, 0].max() - pts[:, 0].min()),
                   float(pts[:, 1].max() - pts[:, 1].min()), 1e-12)
        scale = (cell - 2 * pad) / span
        out.append([
            (ox + cell / 2 + (x - cx) * scale, oy + cell / 2 - (y - cy) * scale)
            for x, y in pts
        ])
    return out


# ---------------------------------------------------------------------------
# Newick parsing (round-trip oracle)

def parse_newick(text: str):
    """Parse a Newick string into (tree, trailing_index).

    A tree is either ('leaf', label, branch_length) or
    ('node', [children], branch_length); the root's branch length is None.
    """
    pos = 0

    def parse_node():
        nonlocal pos
        if text[pos] == "(":
            pos += 1
            children = [parse_node()]
            while text[pos] == ",":
                pos += 1
                children.append(parse_node())
            if text[pos] != ")":
                raise ValueError(f"expected ')' at {pos}")
            pos += 1
            label, length = parse_suffix()
            return ("node", children, length)
        label, length = parse_suffix()
        return ("leaf", label, length)

    def parse_suffix():
        nonlocal pos
        label = ""
        if text[pos] == "'":
            pos += 1
            while True:
                end = text.index("'", pos)
                if text[end: end + 2] == "''":
                    label += text[pos:end] + "'"
                    pos = end + 2
                else:
                    label += text[pos:end]
                    pos = end + 1
                    break
        else:
            while text[pos] not in "(),:;":
                label += text[pos]
                pos += 1
        length = None
        if text[pos] == ":":
            pos += 1
            start = pos
            while text[pos] not in "(),;":
                pos += 1
            length = float(text[start:pos])
        return label, length

    tree = parse_node()
    if text[pos] != ";":
        raise ValueError("missing trailing semicolon")
    return tree


def newick_leaves(tree) -> list[str]:
    """Leaf labels of a parsed Newick tree, left to right."""
    if tree[0] == "leaf":
        return [tree[1]]
    return [label for child in tree[1] for label in newick_leaves(child)]


def newick_node_heights(tree) -> dict[frozenset, float]:
    """Heights of internal nodes of an ultrametric Newick tree.

    Computes each node's depth from the root, takes any leaf's depth as
    the total tree height, and maps every internal node's leaf-label set
    to (total - depth).
    """
    depths = {}
    leaf_depth = [None]

    def walk(node, depth):
        kind = node[0]
        if kind == "leaf":
            leaf_depth[0] = depth
            return frozenset([node[1]])
        leaves = frozenset()
        for child in node[1]:
            length = child[2] if child[2] is not None else 0.0
            leaves |= walk(child, depth + length)
        depths[leaves] = depth
        return leaves

    root_leaves = walk(tree, 0.0)
    total = leaf_depth[0]
    return {leaves: total - depth for leaves, depth in depths.items()}, root_leaves


# ---------------------------------------------------------------------------
# long-CSV datasets (the earlier row-by-row reader)

def read_dataset_csv_rows(path, number=float) -> Dataset:
    """A long-CSV dataset read record by record with ``csv`` and ``number``."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        try:
            header = next(reader)
        except StopIteration:
            raise DataFormatError(f"{path}: empty file") from None
        if [c.strip() for c in header] != ["id", "value"]:
            raise DataFormatError(
                f"{path}: expected header 'id,value', got {reprlib.repr(header)}")
        order: list[str] = []
        values: dict[str, list[float]] = {}
        finished: set[str] = set()
        for row_no, row in enumerate(reader, start=2):
            if not row:
                continue
            if len(row) != 2:
                raise DataFormatError(f"{path}: row {row_no}: expected 2 columns")
            seq_id, raw = row[0], row[1]
            if seq_id in finished:
                raise DataFormatError(
                    f"{path}: row {row_no}: rows for id {reprlib.repr(seq_id)} are not contiguous"
                )
            if seq_id not in values:
                if order:
                    finished.add(order[-1])
                order.append(seq_id)
                values[seq_id] = []
            try:
                value = number(raw)
            except ValueError:
                raise DataFormatError(
                    f"{path}: row {row_no}: bad number {reprlib.repr(raw)} "
                    f"for id {reprlib.repr(seq_id)}"
                ) from None
            if value < 0:
                raise DataFormatError(
                    f"{path}: row {row_no}: negative CCD value for id {reprlib.repr(seq_id)}"
                )
            values[seq_id].append(value)
    try:
        return Dataset(tuple(CcdSequence(seq_id, values[seq_id]) for seq_id in order))
    except ValueError as exc:  # a trace or the dataset (an empty one, say)
        raise DataFormatError(f"{path}: {exc}") from None


# ---------------------------------------------------------------------------
# partition agreement

def adjusted_rand_index(a, b) -> float:
    if len(a) != len(b):
        raise ValueError("partitions must cover the same items")
    pairs = lambda x: x * (x - 1) // 2
    joint = Counter(zip(a, b))
    sum_joint = sum(pairs(c) for c in joint.values())
    sum_a = sum(pairs(c) for c in Counter(a).values())
    sum_b = sum(pairs(c) for c in Counter(b).values())
    total = pairs(len(a))
    expected = sum_a * sum_b / total
    max_index = (sum_a + sum_b) / 2
    if max_index == expected:
        return 1.0
    return (sum_joint - expected) / (max_index - expected)
