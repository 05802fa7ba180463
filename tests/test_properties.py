"""End-to-end library property: any accepted traces run through to parsable SVGs."""

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
