"""Library properties: any accepted traces run through to parsable SVGs, and
the four distances of any two densities keep the inequalities that tie them."""

import tempfile
import xml.etree.ElementTree as ET
from pathlib import Path

import numpy as np
from hypothesis import given, settings, strategies as st

import helpers
from leafclust import (
    CcdSequence,
    DistanceKind,
    DistanceTag,
    Linkage,
    agglomerate,
    cut,
    density_from_ccd,
    distance_matrix,
    leaf_outline,
    normalize_leaf,
    pair_distance,
    plot_dendrogram,
    plot_densities,
    plot_leaves,
    to_newick,
)

SVG = "{http://www.w3.org/2000/svg}"

# {0} and all of [0, 1e308], with subnormals drawn on purpose as well.
_VALUES = st.just(0.0) | st.sampled_from([5e-324, 1e-310]) | st.floats(0.0, 1e308)
_TRACES = st.lists(_VALUES, min_size=2, max_size=40).filter(lambda v: any(x > 0 for x in v))
MASS_TOL = 1e-9
# l1 and hellinger are at most mass(f) + mass(g): 2, up to the masses' rounding.
# Disjoint spikes reach it: 2.000000000000001 when one mass reads 1.0000000000000007.
UPPER = 2 * (1 + MASS_TOL)


def _shape_coordinates(path):
    root = ET.parse(path).getroot()
    points = [helpers.step_path_points(e.get("d")) for e in root.iter(f"{SVG}path")]
    points += [e.get("points") for e in root.iter(f"{SVG}polygon")]
    return [float(v) for shape in points for point in shape.split() for v in point.split(",")]


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.lists(_TRACES, min_size=2, max_size=5))
def test_traces_run_through_every_stage(traces):
    seqs = [CcdSequence(f"leaf{i}", values) for i, values in enumerate(traces)]
    labels = [s.id for s in seqs]
    m = len(seqs)
    densities = [normalize_leaf(s) for s in seqs]
    for d in densities:
        assert abs(d.mass() - 1.0) <= MASS_TOL
    with tempfile.TemporaryDirectory() as tmp:
        out = Path(tmp)
        for tag in DistanceTag:
            dm = distance_matrix(densities, labels, DistanceKind(tag))
            if tag in (DistanceTag.L1, DistanceTag.HELLINGER_SQ):
                assert np.all((dm.entries >= 0) & (dm.entries <= UPPER))
            for linkage in Linkage:
                dend = agglomerate(dm, linkage)
                _tree, leaves = helpers.newick_node_heights(helpers.parse_newick(to_newick(dend)))
                assert leaves == frozenset(labels)
                for k in range(1, m + 1):
                    assert len(set(cut(dend, k))) == k
                plot_dendrogram(dend, out / "tree.svg")
                ET.parse(out / "tree.svg")
        plot_densities(densities, out / "densities.svg")
        plot_leaves([leaf_outline(density_from_ccd(s), normalize_leaf(s).rotation) for s in seqs],
                    out / "leaves.svg")
        for name in ("densities.svg", "leaves.svg"):
            coords = _shape_coordinates(out / name)  # at least two points per leaf
            assert len(coords) >= 4 * m and np.all(np.isfinite(coords))


@settings(max_examples=100, derandomize=True, database=None, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.integers(2, 12), st.integers(1, 10), st.booleans())
def test_distances_keep_their_inequalities(seed, max_intervals, r, same):
    """Any two random densities, and a density with itself, where all four are 0."""
    rng = np.random.default_rng(seed)
    f, g = (helpers.random_density(rng, max_intervals, spread=0.9) for _ in "fg")
    g = f if same else g
    l1, sup, hellinger, moments = (pair_distance(f, g, DistanceKind(tag, r)) for tag in DistanceTag)
    broken = helpers.distance_inequality_violations(l1, sup, hellinger, moments, r)
    assert [name for name, mask in broken.items() if mask.any()] == []
