import math
import xml.etree.ElementTree as ET

import numpy as np
import pytest

import helpers
from leafclust import (
    CcdSequence,
    DistanceKind,
    Linkage,
    agglomerate,
    density_from_ccd,
    distance_matrix,
    leaf_outline,
    mean_direction,
    normalize_leaf,
    plot_dendrogram,
    plot_densities,
    plot_leaves,
)
from leafclust.distances import DistanceMatrix

SVG = "{http://www.w3.org/2000/svg}"


def svg_root(path):
    return ET.parse(path).getroot()


class TestPlotDensities:
    def test_single_uniform_density_is_horizontal(self, tmp_path):
        d = density_from_ccd(CcdSequence("u", np.ones(4)))
        path = tmp_path / "d.svg"
        plot_densities([d], path)
        root = svg_root(path)
        lines = root.findall(f"{SVG}polyline")
        assert len(lines) == 1
        ys = {pt.split(",")[1] for pt in lines[0].get("points").split()}
        assert len(ys) == 1

    def test_two_step_has_one_step(self, tmp_path):
        d = density_from_ccd(CcdSequence("t", np.array([1.0, 3.0])))
        path = tmp_path / "d.svg"
        plot_densities([d], path)
        poly = svg_root(path).find(f"{SVG}polyline")
        ys = [float(pt.split(",")[1]) for pt in poly.get("points").split()]
        assert len(set(ys)) == 2

    def test_identical_densities_coincide(self, tmp_path):
        d = density_from_ccd(CcdSequence("a", np.array([1.0, 2.0, 3.0])))
        e = density_from_ccd(CcdSequence("b", np.array([1.0, 2.0, 3.0])))
        path = tmp_path / "d.svg"
        plot_densities([d, e], path)
        lines = svg_root(path).findall(f"{SVG}polyline")
        assert len(lines) == 2
        assert lines[0].get("points") == lines[1].get("points")

    def test_groups_share_style(self, tmp_path):
        seqs = [CcdSequence(f"s{i}", np.array([1.0, 2.0, float(i + 1)]))
                for i in range(4)]
        densities = [density_from_ccd(s) for s in seqs]
        groups = {"s0": "A", "s1": "A", "s2": "B", "s3": "B"}
        path = tmp_path / "d.svg"
        plot_densities(densities, path, groups=groups)
        lines = svg_root(path).findall(f"{SVG}polyline")
        strokes = [ln.get("stroke") for ln in lines[:4]]
        assert strokes[0] == strokes[1] and strokes[2] == strokes[3]
        assert strokes[0] != strokes[2]

    def test_empty_list_rejected(self, tmp_path):
        with pytest.raises(ValueError):
            plot_densities([], tmp_path / "d.svg")


class TestPlotLeaves:
    def test_grid_of_ten(self, tmp_path):
        rng = np.random.default_rng(40)
        outlines = [leaf_outline(helpers.directional_ccd(rng, (20, 40), f"L{i}"))
                    for i in range(10)]
        path = tmp_path / "leaves.svg"
        plot_leaves(outlines, path)
        root = svg_root(path)
        assert len(root.findall(f"{SVG}polygon")) == 10
        titles = [t.text for t in root.findall(f"{SVG}text")]
        assert titles == [f"L{i}" for i in range(10)]

    def test_uniform_leaf_is_regular_polygon(self, tmp_path):
        out = leaf_outline(CcdSequence("u", np.ones(24)))
        path = tmp_path / "leaf.svg"
        plot_leaves([out], path)
        poly = svg_root(path).find(f"{SVG}polygon")
        pts = np.array([[float(v) for v in p.split(",")]
                        for p in poly.get("points").split()])
        center = pts.mean(axis=0)
        radii = np.hypot(*(pts - center).T)
        np.testing.assert_allclose(radii, radii[0], rtol=1e-6)

    def test_rotated_cell_is_rotation_of_unrotated(self, tmp_path):
        seq = CcdSequence("q", np.array([1.0, 0.2, 0.2, 0.2]))
        plain = leaf_outline(seq)
        turned = leaf_outline(seq, rotated=True)
        mu = mean_direction(density_from_ccd(seq)).angle
        rot = np.array([[math.cos(-mu), -math.sin(-mu)],
                        [math.sin(-mu), math.cos(-mu)]])
        np.testing.assert_allclose(turned.points, plain.points @ rot.T, atol=1e-9)
        plot_leaves([plain, turned], tmp_path / "pair.svg")
        assert (tmp_path / "pair.svg").exists()


class TestPlotDendrogram:
    def make_dend(self):
        entries = np.array([[0.0, 1.0, 5.0], [1.0, 0.0, 2.0], [5.0, 2.0, 0.0]])
        dm = DistanceMatrix(("A", "B", "C"), entries, DistanceKind("l1"))
        return agglomerate(dm, Linkage.COMPLETE)

    def test_bar_heights_equal_merge_heights_exactly(self, tmp_path):
        dend = self.make_dend()
        path = tmp_path / "t.svg"
        plot_dendrogram(dend, path)
        group = svg_root(path).find(f"{SVG}g")
        assert group is not None
        bar_heights = []
        for bar in group.findall(f"{SVG}path"):
            tokens = bar.get("d").split()
            # M x1 y1 L x1 H L x2 H L x2 y2: the horizontal bar sits at H
            assert tokens[5] == tokens[8]
            bar_heights.append(float(tokens[5]))
        assert bar_heights == [mg.height for mg in dend.merges]

    def test_two_leaf_dendrogram_single_bar(self, tmp_path):
        entries = np.array([[0.0, 2.5], [2.5, 0.0]])
        dm = DistanceMatrix(("A", "B"), entries, DistanceKind("l1"))
        path = tmp_path / "t.svg"
        plot_dendrogram(agglomerate(dm, Linkage.COMPLETE), path)
        group = svg_root(path).find(f"{SVG}g")
        bars = group.findall(f"{SVG}path")
        assert len(bars) == 1
        assert float(bars[0].get("d").split()[5]) == 2.5

    def test_leaf_labels_in_layout_order(self, tmp_path):
        dend = self.make_dend()
        path = tmp_path / "t.svg"
        plot_dendrogram(dend, path)
        texts = [t.text for t in svg_root(path).findall(f"{SVG}text")]
        assert texts[-3:] == ["A", "B", "C"]


def _density_case(name):
    if name == "uniform":
        return [density_from_ccd(CcdSequence("u", np.ones(4)))]
    if name == "two-values":
        return [density_from_ccd(CcdSequence("t", np.array([1.0, 3.0])))]
    rng = np.random.default_rng(43)
    return [normalize_leaf(helpers.directional_ccd(rng, (30, 400), f"s{i}")) for i in range(6)]


class TestPointStringsMatchPerPointOracle:
    """Every point string equals the earlier per-point code's, byte for byte."""

    @staticmethod
    def point_strings(path, tag):
        return [e.get("points") for e in svg_root(path).findall(f"{SVG}{tag}")]

    @pytest.mark.parametrize("case", ["uniform", "two-values", "normalized"])
    def test_density_polylines(self, case, tmp_path):
        densities = _density_case(case)
        plot_densities(densities, tmp_path / "d.svg")
        assert self.point_strings(tmp_path / "d.svg", "polyline") == \
            helpers.density_point_strings(densities)

    @pytest.mark.parametrize("rotated", [False, True])
    def test_leaf_polygons(self, rotated, tmp_path):
        rng = np.random.default_rng(44)
        outlines = [leaf_outline(helpers.directional_ccd(rng, (20, 300), f"L{i}"),
                                 rotated=rotated) for i in range(10)]
        plot_leaves(outlines, tmp_path / "leaves.svg")
        assert self.point_strings(tmp_path / "leaves.svg", "polygon") == \
            helpers.leaf_point_strings(outlines)


class TestWellFormedAndDeterministic:
    def test_all_plots_parse_and_are_stable(self, tmp_path):
        rng = np.random.default_rng(41)
        seqs = [helpers.directional_ccd(rng, (30, 60), f"s{i}") for i in range(5)]
        densities = [normalize_leaf(s) for s in seqs]
        outlines = [leaf_outline(s, rotated=True) for s in seqs]
        dm = distance_matrix(densities, [s.id for s in seqs], DistanceKind("l1"))
        dend = agglomerate(dm, Linkage.COMPLETE)
        jobs = [
            ("dens.svg", lambda p: plot_densities(densities, p, title="densities")),
            ("leaves.svg", lambda p: plot_leaves(outlines, p)),
            ("tree.svg", lambda p: plot_dendrogram(dend, p, title="tree")),
        ]
        for name, job in jobs:
            first, second = tmp_path / ("a_" + name), tmp_path / ("b_" + name)
            job(first)
            job(second)
            ET.parse(first)  # raises on malformed XML
            assert first.read_bytes() == second.read_bytes()
