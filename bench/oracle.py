"""Independent reference results for checking the CLI's outputs.

Nothing here calls leafclust: traces are normalized, distances computed per
pair on the merged breakpoint grid, dendrograms built by brute force and
Newick text parsed by code of its own.  The benchmark compares the CLI's
artifacts with these results, so a fault in the program cannot hide behind
the same fault in the check.
"""

from __future__ import annotations

import math

import numpy as np

TWO_PI = 2.0 * math.pi
MOMENT_ORDER = 5
KINDS = ("l1", "sup", "hellinger", "moments")
INTEGRAL_KINDS = ("l1", "sup", "hellinger")


def normalize(values) -> tuple[np.ndarray, np.ndarray]:
    """Unit-mass step density of a trace, rotated by its mean direction.

    Returns ``(breaks, heights)`` on (0, 2*pi]: ``heights[k]`` is the density
    on (``breaks[k]``, ``breaks[k+1]``].
    """
    y = np.asarray(values, dtype=float)
    breaks = np.linspace(0.0, TWO_PI, y.size + 1)
    heights = y / (TWO_PI * y.mean())
    sin_b, cos_b = np.sin(breaks), np.cos(breaks)
    alpha = float(np.dot(heights, sin_b[1:] - sin_b[:-1]))
    beta = float(np.dot(heights, cos_b[:-1] - cos_b[1:]))
    if math.hypot(alpha, beta) <= 1e-12:
        return breaks, heights
    mu = math.atan2(beta, alpha)
    if mu <= 0.0:
        mu += TWO_PI
    # g(t) = f(t + mu): every old breakpoint moves down by mu, modulo 2*pi.
    old = breaks[:-1]
    moved = np.where(old >= mu, old - mu, old + (TWO_PI - mu))
    new_breaks = np.unique(np.concatenate(([0.0], moved, [TWO_PI])))
    mids = (new_breaks[:-1] + new_breaks[1:]) / 2 + mu
    mids = np.where(mids > TWO_PI, mids - TWO_PI, mids)
    return new_breaks, heights[_interval_of(breaks, mids)]


def _interval_of(breaks: np.ndarray, t: np.ndarray) -> np.ndarray:
    """Index k of the interval (breaks[k], breaks[k+1]] holding each t."""
    return np.clip(np.searchsorted(breaks, t, side="left") - 1, 0, breaks.size - 2)


def pair_distances(f, g) -> tuple[float, float, float, int]:
    """(l1, sup, hellinger, merged grid size) of two step densities."""
    (bf, hf), (bg, hg) = f, g
    grid = np.union1d(bf, bg)
    right = grid[1:]
    fh = hf[_interval_of(bf, right)]
    gh = hg[_interval_of(bg, right)]
    widths = np.diff(grid)
    diff = np.abs(fh - gh)
    l1 = float(np.sum(diff * widths))
    sup = float(diff.max())
    hell = float(np.sum((np.sqrt(fh) - np.sqrt(gh)) ** 2 * widths))
    return l1, sup, hell, int(grid.size)


def moment_vector(density, r: int = MOMENT_ORDER) -> np.ndarray:
    """(alpha_1, beta_1, ..., alpha_r, beta_r) of a step density, in closed form."""
    breaks, heights = density
    p = np.arange(1, r + 1, dtype=float)[:, None]
    sin_pb, cos_pb = np.sin(p * breaks), np.cos(p * breaks)
    alpha = (sin_pb[:, 1:] - sin_pb[:, :-1]) @ heights / p[:, 0]
    beta = (cos_pb[:, :-1] - cos_pb[:, 1:]) @ heights / p[:, 0]
    return np.column_stack((alpha, beta)).reshape(-1)


def matrices(densities, kinds=KINDS) -> tuple[dict[str, np.ndarray], int]:
    """Pairwise matrices for ``kinds`` and the summed merged grid size."""
    m = len(densities)
    out = {kind: np.zeros((m, m)) for kind in kinds}
    merged_points = 0
    if any(kind in INTEGRAL_KINDS for kind in kinds):
        for i in range(m):
            for k in range(i + 1, m):
                l1, sup, hell, size = pair_distances(densities[i], densities[k])
                merged_points += size
                for kind, value in (("l1", l1), ("sup", sup), ("hellinger", hell)):
                    if kind in out:
                        out[kind][i, k] = out[kind][k, i] = value
    if "moments" in out:
        vecs = [moment_vector(d) for d in densities]
        for i in range(m):
            for k in range(i + 1, m):
                out["moments"][i, k] = out["moments"][k, i] = float(
                    np.linalg.norm(vecs[i] - vecs[k]))
    return out, merged_points


def agglomerate(matrix, linkage: str) -> list[tuple[int, int, float]]:
    """Brute-force agglomerative clustering: (left id, right id, height) per merge.

    Leaves are ids 0..m-1 and merge i creates id m+i.  Every step scans all
    pairs of active clusters over their member lists and takes the smallest
    (height, smaller id, larger id).
    """
    rows = np.asarray(matrix, dtype=float).tolist()
    m = len(rows)
    members = {i: [i] for i in range(m)}
    merges = []
    for new_id in range(m, 2 * m - 1):
        best = None
        ids = sorted(members)
        for pos, a in enumerate(ids):
            row_sets = [rows[x] for x in members[a]]
            for b in ids[pos + 1:]:
                vals = [row[y] for row in row_sets for y in members[b]]
                if linkage == "complete":
                    height = max(vals)
                elif linkage == "single":
                    height = min(vals)
                elif linkage == "average":
                    height = sum(vals) / len(vals)
                else:
                    raise ValueError(f"unknown linkage {linkage!r}")
                if best is None or (height, a, b) < best:
                    best = (height, a, b)
        height, a, b = best
        members[new_id] = members.pop(a) + members.pop(b)
        merges.append((a, b, height))
    return merges


def cut(merges, m: int, k: int) -> list[int]:
    """Flat clusters after undoing the last k-1 merges, numbered by smallest leaf."""
    component = {i: [i] for i in range(m)}
    for new_id, (a, b, _height) in enumerate(merges[: m - k], start=m):
        component[new_id] = component.pop(a) + component.pop(b)
    assignment = [0] * m
    for cluster_id, leaves in enumerate(sorted(component.values(), key=min)):
        for leaf in leaves:
            assignment[leaf] = cluster_id
    return assignment


def newick_leaves(text: str) -> list[str]:
    """Leaf labels of a Newick tree; raises ValueError if it does not parse.

    Iterative, so tree depth is not limited by the recursion limit.
    """
    text = text.strip()
    if not text.endswith(";"):
        raise ValueError("missing trailing ';'")
    leaves, depth, pos, end = [], 0, 0, len(text) - 1
    expect_node = True
    while pos < end:
        ch = text[pos]
        if ch == "(":
            if not expect_node:
                raise ValueError(f"unexpected '(' at {pos}")
            depth += 1
            pos += 1
            continue
        if ch in ",)":
            if expect_node:
                raise ValueError(f"empty node at {pos}")
            if ch == ")":
                depth -= 1
                if depth < 0:
                    raise ValueError(f"unbalanced ')' at {pos}")
            expect_node = ch == ","
            pos += 1
            if ch == ")":
                pos = _skip_label_and_length(text, pos, end)[1]
            continue
        if not expect_node:
            raise ValueError(f"unexpected {ch!r} at {pos}")
        label, pos = _skip_label_and_length(text, pos, end)
        if not label:
            raise ValueError(f"leaf without a label at {pos}")
        leaves.append(label)
        expect_node = False
    if depth != 0 or expect_node:
        raise ValueError("unbalanced parentheses")
    return leaves


def _skip_label_and_length(text: str, pos: int, end: int) -> tuple[str, int]:
    """Read an optional (possibly quoted) label and ':length' from ``pos``."""
    label = ""
    if pos < end and text[pos] == "'":
        pos += 1
        while True:
            close = text.index("'", pos)
            label += text[pos:close]
            if text[close + 1: close + 2] == "'":
                label += "'"
                pos = close + 2
            else:
                pos = close + 1
                break
    else:
        start = pos
        while pos < end and text[pos] not in "(),:;":
            pos += 1
        label = text[start:pos]
    if pos < end and text[pos] == ":":
        start = pos + 1
        pos = start
        while pos < end and text[pos] not in "(),;":
            pos += 1
        float(text[start:pos])
    return label, pos
