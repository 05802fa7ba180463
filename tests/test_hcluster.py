import re

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from scipy.cluster.hierarchy import linkage as scipy_linkage
from scipy.spatial.distance import squareform

import helpers
from leafclust import (
    Dendrogram,
    DistanceKind,
    DistanceMatrix,
    Linkage,
    Merge,
    agglomerate,
    cut,
    distance_matrix,
    leaf_order,
    normalize_leaf,
    synth_dataset,
    to_newick,
)

KIND = DistanceKind("l1")


def matrix_from(entries, labels=None):
    entries = np.asarray(entries, dtype=float)
    m = entries.shape[0]
    labels = labels or tuple(chr(ord("A") + i) for i in range(m))
    return DistanceMatrix(tuple(labels), entries, KIND)


def random_matrix(rng, m):
    """Symmetric matrix with distinct off-diagonal entries."""
    while True:
        tri = rng.uniform(0.1, 10.0, size=m * (m - 1) // 2)
        if len(set(tri.tolist())) == tri.size:
            return matrix_from(squareform(tri))


THREE = matrix_from([[0.0, 1.0, 5.0], [1.0, 0.0, 2.0], [5.0, 2.0, 0.0]])


class TestAgglomerate:
    def test_two_leaves(self):
        dm = matrix_from([[0.0, 3.5], [3.5, 0.0]])
        dend = agglomerate(dm, Linkage.COMPLETE)
        assert dend.merges == (Merge(0, 1, 3.5, 2),)

    def test_three_leaves_complete(self):
        dend = agglomerate(THREE, Linkage.COMPLETE)
        assert dend.merges[0] == Merge(0, 1, 1.0, 2)
        assert dend.merges[1] == Merge(2, 3, 5.0, 3)

    def test_three_leaves_single_and_average(self):
        single = agglomerate(THREE, Linkage.SINGLE)
        assert single.merges[1].height == 2.0
        average = agglomerate(THREE, Linkage.AVERAGE)
        assert average.merges[1].height == pytest.approx(3.5)

    def test_tie_break_is_lexicographic(self):
        dm = matrix_from(np.ones((4, 4)) - np.eye(4))
        dend = agglomerate(dm, Linkage.COMPLETE)
        assert [(mg.left, mg.right) for mg in dend.merges] == [(0, 1), (2, 3), (4, 5)]

    @pytest.mark.parametrize("link", list(Linkage))
    def test_matches_brute_force_reference(self, link):
        rng = np.random.default_rng(21)
        for _ in range(40):
            m = int(rng.integers(2, 9))
            dm = random_matrix(rng, m)
            dend = agglomerate(dm, link)
            ref = helpers.brute_force_agglomerate(dm.entries.tolist(), link.value)
            got_sets = helpers.merge_leaf_sets(m, [(g.left, g.right, g.height, g.size)
                                                   for g in dend.merges])
            ref_sets = helpers.merge_leaf_sets(m, ref)
            assert got_sets == ref_sets
            for got, want in zip(dend.merges, ref):
                assert got.height == pytest.approx(want[2], abs=1e-12)
                assert got.size == want[3]

    @pytest.mark.parametrize("link", list(Linkage))
    def test_matches_brute_force_on_tie_heavy_matrices(self, link):
        # Entries in {0..3} make many pairs tie, so every merge exercises the
        # (height, smaller id, larger id) tie-break.
        rng = np.random.default_rng(23)
        for _ in range(300):
            m = int(rng.integers(2, 14))
            tri = rng.integers(0, 4, size=m * (m - 1) // 2).astype(float)
            dm = matrix_from(squareform(tri))
            got = [(g.left, g.right, g.height, g.size)
                   for g in agglomerate(dm, link).merges]
            assert got == helpers.brute_force_agglomerate(dm.entries.tolist(), link.value)

    @pytest.mark.parametrize("link,method", [(Linkage.COMPLETE, "complete"),
                                             (Linkage.SINGLE, "single"),
                                             (Linkage.AVERAGE, "average")])
    def test_matches_scipy(self, link, method):
        rng = np.random.default_rng(22)
        for _ in range(20):
            m = int(rng.integers(3, 9))
            dm = random_matrix(rng, m)
            dend = agglomerate(dm, link)
            z = scipy_linkage(squareform(dm.entries), method=method)
            scipy_merges = [(int(a), int(b), float(h), int(s)) for a, b, h, s in z]
            got_sets = set(helpers.merge_leaf_sets(
                m, [(g.left, g.right, g.height, g.size) for g in dend.merges]))
            ref_sets = set(helpers.merge_leaf_sets(m, scipy_merges))
            assert got_sets == ref_sets
            np.testing.assert_allclose(sorted(mg.height for mg in dend.merges),
                                       sorted(z[:, 2]), atol=1e-12)

    def test_heights_are_monotone(self):
        rng = np.random.default_rng(23)
        for link in Linkage:
            for _ in range(20):
                dend = agglomerate(random_matrix(rng, 8), link)
                heights = [mg.height for mg in dend.merges]
                assert heights == sorted(heights)

    def test_complete_linkage_dominance(self):
        rng = np.random.default_rng(24)
        dm = random_matrix(rng, 8)
        dend = agglomerate(dm, Linkage.COMPLETE)
        sets = node_leaf_sets(dend)
        for i, mg in enumerate(dend.merges):
            leaves = sorted(sets[8 + i])
            inner_max = max(dm.entries[a, b] for a in leaves for b in leaves if a < b)
            assert mg.height == inner_max

    def test_label_permutation_equivariance(self):
        rng = np.random.default_rng(25)
        dm = random_matrix(rng, 7)
        perm = rng.permutation(7)
        permuted = matrix_from(dm.entries[np.ix_(perm, perm)],
                               labels=tuple(dm.labels[i] for i in perm))
        for k in range(1, 8):
            base = cut(agglomerate(dm, Linkage.COMPLETE), k)
            other = cut(agglomerate(permuted, Linkage.COMPLETE), k)
            groups_base = {frozenset(dm.labels[i] for i in range(7) if base[i] == c)
                           for c in set(base)}
            groups_other = {frozenset(permuted.labels[i] for i in range(7) if other[i] == c)
                            for c in set(other)}
            assert groups_base == groups_other


# Few decimal fractions, none exact in binary: many pairs tie mathematically,
# and their average heights come out an ulp apart depending on the
# summation order.
DECIMALS = (0.1, 0.2, 0.3)


def block_linkages(entries, clusters, link):
    """Linkage between every two of ``clusters`` (leaf lists), from the blocks."""
    m = entries.shape[0]
    owner = np.empty(m, dtype=int)
    for c, leaves in enumerate(clusters):
        owner[leaves] = c
    k = len(clusters)
    rows, cols = np.meshgrid(owner, owner, indexing="ij")
    if link is Linkage.AVERAGE:
        sums = np.zeros((k, k))
        np.add.at(sums, (rows, cols), entries)
        sizes = np.array([len(leaves) for leaves in clusters], dtype=float)
        return sums / np.outer(sizes, sizes)
    reduce = np.maximum if link is Linkage.COMPLETE else np.minimum
    out = np.full((k, k), -np.inf if link is Linkage.COMPLETE else np.inf)
    reduce.at(out, (rows, cols), entries)
    return out


def synth_l1_matrix(per_group, seed):
    """The l1 matrix of a cluster-wide-shaped synthetic dataset, m = 4 * per_group."""
    dataset = synth_dataset(4, per_group, (64, 256), 0.05, seed)
    densities = [normalize_leaf(seq) for seq in dataset.sequences]
    return distance_matrix(densities, [d.source_id for d in densities], KIND)


def as_tuples(dend):
    return [(g.left, g.right, g.height, g.size) for g in dend.merges]


def node_leaf_sets(dend):
    """Leaf set of every node, indexed by node id: the leaves, then the merges."""
    m = dend.n_leaves
    return [frozenset([i]) for i in range(m)] + helpers.merge_leaf_sets(m, as_tuples(dend))


class TestNearTies:
    def test_tied_average_heights_do_not_decrease(self):
        # Every entry but two is 0.7, so the last two merges tie at 0.7; the
        # block sums of the last one give a mean an ulp away from 0.7.
        dm = matrix_from(squareform([0.7, 0.1, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.7, 0.1]))
        dend = agglomerate(dm, Linkage.AVERAGE)
        assert [(mg.left, mg.right, mg.height) for mg in dend.merges] == \
            [(0, 2, 0.1), (3, 4, 0.1), (1, 5, 0.7), (6, 7, 0.7)]

    @pytest.mark.parametrize("link", list(Linkage))
    def test_heights_never_decrease_and_match_the_blocks(self, link):
        rng = np.random.default_rng(31)
        for _ in range(1000):
            m = int(rng.integers(2, 14))
            dm = matrix_from(squareform(rng.choice(DECIMALS, size=m * (m - 1) // 2)))
            dend = agglomerate(dm, link)
            heights = [mg.height for mg in dend.merges]
            assert heights == sorted(heights)
            sets = node_leaf_sets(dend)
            active = list(range(m))
            for i, mg in enumerate(dend.merges):
                values = block_linkages(dm.entries, [sorted(sets[c]) for c in active], link)
                np.fill_diagonal(values, np.inf)
                pair = values[active.index(mg.left), active.index(mg.right)]
                assert abs(mg.height - pair) <= 1e-12
                assert abs(mg.height - values.min()) <= 1e-12
                active.remove(mg.left)
                active.remove(mg.right)
                active.append(m + i)


class TestAverageAtExtremeMagnitudes:
    """Average linkage sums its blocks at a power-of-two scale where they
    could overflow: the heights stay exact block means, with no warning."""

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("value", [1.72e308, 1.79e308, np.finfo(float).max])
    def test_equal_entries_give_their_value(self, value):
        dend = agglomerate(matrix_from(squareform([value] * 3)), Linkage.AVERAGE)
        assert [mg.height for mg in dend.merges] == [value, value]

    @pytest.mark.filterwarnings("error")
    def test_scaled_matrix_gives_the_scaled_tree(self):
        rng = np.random.default_rng(33)
        for _ in range(200):
            m = int(rng.integers(2, 14))
            tri = rng.uniform(0.1, 10.0, size=m * (m - 1) // 2)
            small = agglomerate(matrix_from(squareform(tri)), Linkage.AVERAGE)
            large = agglomerate(matrix_from(squareform(tri * 2.0 ** 1019)), Linkage.AVERAGE)
            assert [(mg.left, mg.right, mg.height * 2.0 ** 1019, mg.size)
                    for mg in small.merges] == as_tuples(large)


class TestAgglomerateAtScale:
    @pytest.mark.parametrize("link", list(Linkage))
    @pytest.mark.parametrize("source", ["random", "synth"])
    @pytest.mark.parametrize("m", [40, 128])
    def test_matches_references(self, m, source, link):
        rng = np.random.default_rng(32 + m)
        dm = random_matrix(rng, m) if source == "random" else synth_l1_matrix(m // 4, m)
        got = as_tuples(agglomerate(dm, link))
        if m == 40:
            ref = helpers.brute_force_agglomerate(dm.entries.tolist(), link.value)
            assert helpers.merge_leaf_sets(m, got) == helpers.merge_leaf_sets(m, ref)
            np.testing.assert_allclose([g[2] for g in got], [r[2] for r in ref],
                                       rtol=0, atol=1e-12)
        z = scipy_linkage(squareform(dm.entries), method=link.value)
        scipy_merges = [(int(a), int(b), float(h), int(s)) for a, b, h, s in z]
        assert set(helpers.merge_leaf_sets(m, got)) == \
            set(helpers.merge_leaf_sets(m, scipy_merges))
        np.testing.assert_allclose([g[2] for g in got], sorted(z[:, 2]), rtol=0, atol=1e-12)

    @pytest.mark.parametrize("link", [Linkage.COMPLETE, Linkage.SINGLE])
    @pytest.mark.parametrize("m", [40, 128])
    def test_equals_the_blockwise_oracle_on_synthetic_data(self, m, link):
        dm = synth_l1_matrix(m // 4, m)
        assert as_tuples(agglomerate(dm, link)) == \
            helpers.agglomerate_blockwise(dm.entries, link.value)

    @pytest.mark.parametrize("link", list(Linkage))
    def test_four_hundred_leaves(self, link):
        m = 400
        dm = random_matrix(np.random.default_rng(33), m)
        dend = agglomerate(dm, link)
        assert len(dend.merges) == m - 1 and dend.merges[-1].size == m
        z = scipy_linkage(squareform(dm.entries), method=link.value)
        np.testing.assert_allclose([mg.height for mg in dend.merges], sorted(z[:, 2]),
                                   rtol=0, atol=1e-12)


class TestCut:
    def test_single_cluster(self):
        assert cut(agglomerate(THREE, Linkage.COMPLETE), 1) == [0, 0, 0]

    def test_all_singletons(self):
        assert cut(agglomerate(THREE, Linkage.COMPLETE), 3) == [0, 1, 2]

    def test_two_clusters_hand_trace(self):
        assert cut(agglomerate(THREE, Linkage.COMPLETE), 2) == [0, 0, 1]

    def test_out_of_range_rejected(self):
        dend = agglomerate(THREE, Linkage.COMPLETE)
        for bad in (0, 4, -1):
            with pytest.raises(ValueError):
                cut(dend, bad)

    def test_numbering_by_smallest_leaf(self):
        rng = np.random.default_rng(26)
        dend = agglomerate(random_matrix(rng, 8), Linkage.COMPLETE)
        assignment = cut(dend, 3)
        firsts = {}
        for leaf, cluster_id in enumerate(assignment):
            firsts.setdefault(cluster_id, leaf)
        assert sorted(firsts) == list(firsts)

    @pytest.mark.parametrize("linkage", list(Linkage))
    def test_equals_the_union_find_oracle_for_every_k(self, linkage):
        rng = np.random.default_rng(27)
        for m in (2, 3, 7, 16, 33):
            for _ in range(4):
                dend = agglomerate(random_matrix(rng, m), linkage)
                for k in range(1, m + 1):
                    assert cut(dend, k) == helpers.cut_union_find(dend, k)


def chain(m, grow):
    """A dendrogram that adds one leaf per merge: in increasing index order
    (``grow="left"``, the tree deepens along its left children) or in
    decreasing order (``"right"``), merge i at height i + 1."""
    leaves = list(range(m)) if grow == "left" else list(range(m - 1, -1, -1))
    merges = [Merge(leaves[0], leaves[1], 1.0, 2)] + [
        Merge(m + i - 1, leaves[i + 1], float(i + 1), i + 2) for i in range(1, m - 1)]
    return Dendrogram(tuple(f"x{i}" for i in range(m)), tuple(merges))


@st.composite
def _dendrograms(draw):
    """Any valid dendrogram, not only one ``agglomerate`` builds: a random
    merge order, or a chain grown on the left or on the right; either child
    may be named first, and labels may need Newick quoting."""
    m = draw(st.integers(2, 30))
    shape = draw(st.sampled_from(["random", "left", "right"]))
    rng = draw(st.randoms(use_true_random=False))
    labels = [rng.choice(("x", "x y", "x'", "(x:")) + str(i) for i in range(m)]
    active = list(range(m)) if shape != "right" else list(range(m - 1, -1, -1))
    sizes, merges, height = [1] * m, [], 0.0
    for node in range(m, 2 * m - 1):
        if shape == "random":
            pair = [active.pop(rng.randrange(len(active))) for _ in range(2)]
        else:
            pair = [active.pop(0), active.pop(0)]
        if rng.random() < 0.5:
            pair.reverse()
        height += rng.choice((0.0, 1.0, rng.uniform(0.0, 10.0)))
        sizes.append(sizes[pair[0]] + sizes[pair[1]])
        merges.append(Merge(*pair, height, sizes[-1]))
        active.insert(0, node)
    return Dendrogram(tuple(labels), tuple(merges))


class TestLayout:
    @settings(max_examples=200, derandomize=True, database=None, deadline=None)
    @given(_dendrograms())
    def test_newick_leaf_order_and_cut_agree_with_the_oracles(self, dend):
        m = dend.n_leaves
        tree = helpers.parse_newick(to_newick(dend))
        assert helpers.newick_leaves(tree) == [dend.labels[i] for i in leaf_order(dend)]
        heights, _ = helpers.newick_node_heights(tree)
        sets = node_leaf_sets(dend)
        for i, mg in enumerate(dend.merges):
            leaves = frozenset(dend.labels[j] for j in sets[m + i])
            assert heights[leaves] == pytest.approx(mg.height, rel=1e-9, abs=1e-9)
        for k in range(1, m + 1):
            assert cut(dend, k) == helpers.cut_union_find(dend, k)

    def test_cut_deep_chains(self):
        m = 5000
        left, right = chain(m, "left"), chain(m, "right")
        for k in (1, 2, 3, m // 2, m - 1, m):
            assert cut(left, k) == [0] * (m - k + 1) + list(range(1, k))
            assert cut(right, k) == list(range(k - 1)) + [k - 1] * (m - k + 1)
        assert leaf_order(left) == leaf_order(right) == list(range(m))


class TestNewick:
    def test_two_leaves(self):
        dm = matrix_from([[0.0, 1.0], [1.0, 0.0]])
        assert to_newick(agglomerate(dm, Linkage.COMPLETE)) == "(A:1,B:1);"

    def test_three_leaf_example(self):
        assert to_newick(agglomerate(THREE, Linkage.COMPLETE)) == "((A:1,B:1):4,C:5);"

    def test_round_trip_topology_and_heights(self):
        rng = np.random.default_rng(27)
        for _ in range(20):
            m = int(rng.integers(2, 9))
            dm = random_matrix(rng, m)
            dend = agglomerate(dm, Linkage.COMPLETE)
            tree = helpers.parse_newick(to_newick(dend))
            heights, root_leaves = helpers.newick_node_heights(tree)
            assert root_leaves == frozenset(dm.labels)
            sets = node_leaf_sets(dend)
            for i, mg in enumerate(dend.merges):
                leaves = frozenset(dend.labels[j] for j in sets[m + i])
                assert leaves in heights
                assert heights[leaves] == pytest.approx(mg.height, abs=1e-9)

    def test_label_quoting(self):
        dm = matrix_from([[0.0, 1.0], [1.0, 0.0]], labels=("a b", "c:d"))
        text = to_newick(agglomerate(dm, Linkage.COMPLETE))
        assert "'a b'" in text and "'c:d'" in text
        tree = helpers.parse_newick(text)
        _, root_leaves = helpers.newick_node_heights(tree)
        assert root_leaves == {"a b", "c:d"}

    def test_deep_chain_serializes(self):
        # Each merge adds one leaf to the previous cluster: 1,199 levels,
        # deeper than the default recursion limit.
        m = 1200
        merges = [Merge(0, 1, 1.0, 2)] + [Merge(m + i - 1, i + 1, float(i + 1), i + 2)
                                          for i in range(1, m - 1)]
        dend = Dendrogram(tuple(f"x{i}" for i in range(m)), tuple(merges))
        text = to_newick(dend)
        assert text.startswith("(" * (m - 1) + "x0:1,x1:1):1,x2:2):1,x3:3)")
        assert text.endswith(f",x{m - 1}:{m - 1});")
        assert text.count("(") == text.count(")") == m - 1
        assert re.findall(r"x\d+", text) == [f"x{i}" for i in leaf_order(dend)]
        depth = 0
        for ch in text:
            depth += {"(": 1, ")": -1}.get(ch, 0)
            assert depth >= 0
        assert depth == 0
        # The mirror image: each merge adds the next smaller leaf, which the
        # layout puts first, so the tree deepens along its right children.
        dend = chain(m, "right")
        text = to_newick(dend)
        assert text.startswith(f"(x0:{m - 1},(x1:{m - 2},(x2:{m - 3},")
        assert text.endswith(f"(x{m - 2}:1,x{m - 1}:1)" + ":1)" * (m - 2) + ";")
        assert text.count("(") == text.count(")") == m - 1
        assert re.findall(r"x\d+", text) == [f"x{i}" for i in leaf_order(dend)] == \
            [f"x{i}" for i in range(m)]

    def test_leaf_order_matches_newick(self):
        dend = agglomerate(THREE, Linkage.COMPLETE)
        assert leaf_order(dend) == [0, 1, 2]


class TestDendrogramValidation:
    def test_rejects_child_reuse(self):
        with pytest.raises(ValueError, match="reused"):
            Dendrogram(("a", "b", "c"),
                       (Merge(0, 1, 1.0, 2), Merge(0, 3, 2.0, 3)))

    def test_rejects_decreasing_heights(self):
        with pytest.raises(ValueError, match="non-decreasing"):
            Dendrogram(("a", "b", "c"),
                       (Merge(0, 1, 2.0, 2), Merge(3, 2, 1.0, 3)))

    @pytest.mark.parametrize("height", [float("inf"), float("nan")])
    def test_rejects_non_finite_height(self, height):
        with pytest.raises(ValueError, match="merge 1: height must be finite"):
            Dendrogram(("a", "b", "c"),
                       (Merge(0, 1, 1.0, 2), Merge(3, 2, height, 3)))

    def test_rejects_sizes_that_do_not_add_up(self):
        with pytest.raises(ValueError, match="merge 0: size 7, but its children hold 2"):
            Dendrogram(("a", "b", "c"), (Merge(0, 1, 1.0, 7), Merge(3, 2, 2.0, 3)))
        with pytest.raises(ValueError, match="merge 1: size 4, but its children hold 3"):
            Dendrogram(("a", "b", "c"), (Merge(0, 1, 1.0, 2), Merge(3, 2, 2.0, 4)))

    def test_rejects_wrong_merge_count(self):
        with pytest.raises(ValueError):
            Dendrogram(("a", "b", "c"), (Merge(0, 1, 1.0, 2),))

    @pytest.mark.parametrize("merge,message", [
        (Merge(10 ** 5000, 1, 1.0, 2), "merge 0: child id <int of 16,610 bits> out of range"),
        (Merge(0, 1, 1.0, 10 ** 5000),
         "merge 0: size <int of 16,610 bits>, but its children hold 2"),
    ], ids=["child-id", "size"])
    def test_int_too_long_to_print_is_echoed_by_size(self, merge, message):
        with pytest.raises(ValueError) as raised:
            Dendrogram(("a", "b"), (merge,))
        assert str(raised.value) == message
