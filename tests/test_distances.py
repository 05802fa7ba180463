import math
import os
import signal
import time

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

import helpers
from leafclust import _shares, distances
from leafclust import (
    TWO_PI,
    CcdSequence,
    DistanceKind,
    DistanceMatrix,
    DistanceTag,
    StepDensity,
    density_from_ccd,
    dist_hellinger_sq,
    dist_l1,
    dist_moment_euclidean,
    dist_sup,
    distance_matrix,
    merge_breakpoints,
    normalize_leaf,
    pair_distance,
    rotate_density,
    synth_dataset,
    trig_moments,
)

UNIFORM = density_from_ccd(CcdSequence("u", np.ones(4)))
TWO_STEP = density_from_ccd(CcdSequence("t", np.array([1.0, 3.0])))
# Unit masses on (0, pi/2] and (pi, 3pi/2]: disjoint supports.
QUAD_A = density_from_ccd(CcdSequence("qa", np.array([1.0, 0.0, 0.0, 0.0])))
QUAD_B = density_from_ccd(CcdSequence("qb", np.array([0.0, 0.0, 1.0, 0.0])))

ALL_KINDS = [
    DistanceKind(DistanceTag.L1),
    DistanceKind(DistanceTag.SUP),
    DistanceKind(DistanceTag.HELLINGER_SQ),
    DistanceKind(DistanceTag.MOMENT_EUCLIDEAN, 5),
]


SINGLE = StepDensity(np.array([0.0, TWO_PI]), np.array([1.0 / TWO_PI]))


@st.composite
def grid_density(draw, n):
    """A density on the uniform grid of n intervals (n = 1: ``SINGLE``)."""
    if n == 1:
        return SINGLE
    values = draw(st.lists(st.integers(0, 5), min_size=n, max_size=n)
                  .filter(lambda v: any(v)))
    return density_from_ccd(CcdSequence("grid", np.array(values, dtype=float)))


@st.composite
def sharing_pairs(draw):
    """Two densities whose breakpoints coincide, or miss by one ulp, often.

    g is f itself, f's grid refined k times, the one-interval density, or a
    rotation of f or of the refined grid by a shift that puts the shift
    itself, or one of the rotated breakpoints, on or one ulp beside a
    breakpoint of the other density.
    """
    n = draw(st.integers(1, 24))
    f = draw(grid_density(n))
    how = draw(st.sampled_from(["same", "nested", "single", "rotated"]))
    if how == "same":
        return f, f
    if how == "single":
        return f, SINGLE
    g = draw(grid_density(n * draw(st.integers(2, 5))))
    if how == "nested":
        return f, g
    turned, other = draw(st.permutations([f, g]))
    t = draw(st.sampled_from(other.breakpoints[1:-1].tolist() or [math.pi]))
    b = draw(st.sampled_from(turned.breakpoints[1:-1].tolist() or [math.pi]))
    shift = draw(st.sampled_from([t, b - t]))
    shift = np.nextafter(shift, draw(st.sampled_from([-np.inf, shift, np.inf])))
    return rotate_density(turned, float(shift)), other


class TestMergeBreakpoints:
    def test_identical_grids(self):
        breaks, fh, gh = merge_breakpoints(UNIFORM, UNIFORM)
        np.testing.assert_array_equal(breaks, UNIFORM.breakpoints)
        np.testing.assert_array_equal(fh, gh)

    def test_nested_grids(self):
        breaks, fh, gh = merge_breakpoints(TWO_STEP, UNIFORM)
        assert breaks.size - 1 == 4
        np.testing.assert_array_equal(breaks, UNIFORM.breakpoints)

    def test_refinement_reproduces_each_density(self):
        rng = np.random.default_rng(10)
        for _ in range(50):
            f = helpers.random_density(rng)
            g = helpers.random_density(rng)
            breaks, fh, gh = merge_breakpoints(f, g)
            assert breaks[0] == 0.0 and breaks[-1] == TWO_PI
            # covers the circle up to one ulp of summation error
            assert abs(float(np.sum(np.diff(breaks))) - TWO_PI) <= np.spacing(TWO_PI)
            lengths = np.diff(breaks)
            assert abs(float(np.sum(fh * lengths)) - 1.0) <= 1e-12
            assert abs(float(np.sum(gh * lengths)) - 1.0) <= 1e-12
            probes = rng.uniform(1e-9, TWO_PI, 100)
            idx = np.searchsorted(breaks, probes, side="left") - 1
            np.testing.assert_array_equal(f.evaluate(probes), fh[idx])
            np.testing.assert_array_equal(g.evaluate(probes), gh[idx])

    @settings(max_examples=300, derandomize=True, database=None, deadline=None)
    @given(pair=sharing_pairs())
    def test_equals_union_and_search_oracle(self, pair):
        for f, g in (pair, pair[::-1]):
            got = merge_breakpoints(f, g)
            want = helpers.merge_breakpoints(f, g)
            assert [a.dtype for a in got] == [a.dtype for a in want]
            assert [a.tobytes() for a in got] == [a.tobytes() for a in want]


class TestWorkedValues:
    def test_identical_densities_are_at_zero(self):
        assert dist_l1(UNIFORM, UNIFORM) == 0.0
        assert dist_sup(UNIFORM, UNIFORM) == 0.0
        assert dist_hellinger_sq(UNIFORM, UNIFORM) == 0.0
        assert dist_moment_euclidean(UNIFORM, UNIFORM, 5) == 0.0

    def test_uniform_vs_two_step(self):
        assert dist_l1(UNIFORM, TWO_STEP) == pytest.approx(0.5, abs=1e-12)
        assert dist_sup(UNIFORM, TWO_STEP) == pytest.approx(1 / (4 * math.pi), abs=1e-12)
        expected_h = 2.0 - (1.0 + math.sqrt(3.0)) / math.sqrt(2.0)
        assert dist_hellinger_sq(UNIFORM, TWO_STEP) == pytest.approx(expected_h, abs=1e-12)
        assert dist_moment_euclidean(UNIFORM, TWO_STEP, 1) == pytest.approx(
            1 / math.pi, abs=1e-12)

    def test_disjoint_supports(self):
        assert dist_l1(QUAD_A, QUAD_B) == pytest.approx(2.0, abs=1e-12)
        assert dist_hellinger_sq(QUAD_A, QUAD_B) == pytest.approx(2.0, abs=1e-12)
        assert dist_sup(QUAD_A, QUAD_B) == pytest.approx(2 / math.pi, abs=1e-12)

    def test_moment_distance_from_uniform_is_moment_norm(self):
        rng = np.random.default_rng(11)
        g = helpers.random_density(rng)
        from leafclust import trig_moments
        norm = float(np.linalg.norm(trig_moments(g, 5).as_vector()))
        assert dist_moment_euclidean(UNIFORM, g, 5) == pytest.approx(norm, abs=1e-12)

    def test_moment_distance_rejects_zero_order(self):
        with pytest.raises(ValueError):
            dist_moment_euclidean(UNIFORM, TWO_STEP, 0)


class TestMetricProperties:
    def test_symmetry_is_bitwise(self):
        rng = np.random.default_rng(12)
        for _ in range(30):
            f = helpers.random_density(rng)
            g = helpers.random_density(rng)
            assert dist_l1(f, g) == dist_l1(g, f)
            assert dist_sup(f, g) == dist_sup(g, f)
            assert dist_hellinger_sq(f, g) == dist_hellinger_sq(g, f)
            assert dist_moment_euclidean(f, g, 4) == dist_moment_euclidean(g, f, 4)

    def test_bounds(self):
        rng = np.random.default_rng(13)
        for _ in range(30):
            f = helpers.random_density(rng)
            g = helpers.random_density(rng)
            assert 0.0 <= dist_l1(f, g) <= 2.0
            assert 0.0 <= dist_hellinger_sq(f, g) <= 2.0
            r = 3
            assert dist_moment_euclidean(f, g, r) <= 2.0 * math.sqrt(2 * r)

    def test_triangle_inequality_l1_sup_moments(self):
        rng = np.random.default_rng(14)
        for _ in range(100):
            f, g, h = (helpers.random_density(rng) for _ in range(3))
            for fn in (dist_l1, dist_sup, lambda a, b: dist_moment_euclidean(a, b, 5)):
                assert fn(f, h) <= fn(f, g) + fn(g, h) + 1e-12

    def test_rotation_congruence(self):
        rng = np.random.default_rng(15)
        for _ in range(20):
            f = helpers.random_density(rng)
            g = helpers.random_density(rng)
            mu = rng.uniform(0.0, TWO_PI)
            fr, gr = rotate_density(f, mu), rotate_density(g, mu)
            assert dist_l1(fr, gr) == pytest.approx(dist_l1(f, g), abs=1e-12)
            assert dist_sup(fr, gr) == pytest.approx(dist_sup(f, g), abs=1e-12)
            assert dist_hellinger_sq(fr, gr) == pytest.approx(
                dist_hellinger_sq(f, g), abs=1e-12)


class TestGridOracle:
    def test_l1_and_hellinger_match_midpoint_grid(self):
        rng = np.random.default_rng(16)
        for _ in range(4):
            f = helpers.random_density(rng, max_intervals=8, spread=0.15)
            g = helpers.random_density(rng, max_intervals=8, spread=0.15)
            assert dist_l1(f, g) == pytest.approx(helpers.grid_l1(f, g), abs=1e-6)
            assert dist_hellinger_sq(f, g) == pytest.approx(
                helpers.grid_hellinger_sq(f, g), abs=1e-6)

    def test_sup_matches_dense_grid_max(self):
        rng = np.random.default_rng(17)
        for _ in range(4):
            f = helpers.random_density(rng, max_intervals=8, spread=0.15)
            g = helpers.random_density(rng, max_intervals=8, spread=0.15)
            assert dist_sup(f, g) == pytest.approx(helpers.grid_sup(f, g), abs=1e-6)


class TestDistanceMatrix:
    def test_two_identical_densities(self):
        dm = distance_matrix([UNIFORM, UNIFORM], ["a", "b"], ALL_KINDS[0])
        np.testing.assert_array_equal(dm.entries, np.zeros((2, 2)))

    def test_duplicate_density_gives_zero_entry(self):
        dm = distance_matrix([UNIFORM, TWO_STEP, UNIFORM], ["a", "b", "c"],
                             DistanceKind(DistanceTag.L1))
        assert dm.entries[0, 2] == 0.0
        np.testing.assert_array_equal(dm.entries, dm.entries.T)

    @pytest.mark.parametrize("kind", ALL_KINDS, ids=lambda k: k.name)
    def test_matches_pairwise_recomputation(self, kind):
        rng = np.random.default_rng(18)
        densities = [helpers.random_density(rng) for _ in range(10)]
        labels = [f"d{i}" for i in range(10)]
        dm = distance_matrix(densities, labels, kind)
        for i in range(10):
            for j in range(i + 1, 10):
                expected = pair_distance(densities[i], densities[j], kind)
                assert abs(dm.entries[i, j] - expected) <= 1e-15

    def test_rejects_duplicate_labels(self):
        with pytest.raises(ValueError, match="duplicate"):
            distance_matrix([UNIFORM, TWO_STEP], ["a", "a"], ALL_KINDS[0])

    def test_rejects_single_density(self):
        with pytest.raises(ValueError):
            distance_matrix([UNIFORM], ["a"], ALL_KINDS[0])

    def test_validator_rejects_asymmetry(self):
        bad = np.array([[0.0, 1.0], [1.0 + 1e-15, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            DistanceMatrix(("a", "b"), bad, ALL_KINDS[0])

    def test_validator_rejects_nonzero_diagonal(self):
        bad = np.array([[1e-300, 1.0], [1.0, 0.0]])
        with pytest.raises(ValueError, match="diagonal"):
            DistanceMatrix(("a", "b"), bad, ALL_KINDS[0])

    def test_validator_rejects_negative_entries(self):
        bad = np.array([[0.0, -1.0], [-1.0, 0.0]])
        with pytest.raises(ValueError):
            DistanceMatrix(("a", "b"), bad, ALL_KINDS[0])


class TestPerPairOracle:
    """The matrix kernels against a verbatim copy of the per-pair code."""

    @staticmethod
    def _normalized(seed):
        dataset = synth_dataset(2, 3, (50, 400), 0.02, seed)
        return [normalize_leaf(seq) for seq in dataset.sequences]

    @pytest.mark.parametrize("seed", [0, 1, 2])
    @pytest.mark.parametrize("r", [1, 5])
    @pytest.mark.parametrize("tag", list(DistanceTag), ids=lambda t: t.value)
    def test_matrix_equals_per_pair_code(self, tag, r, seed):
        densities = self._normalized(seed)
        labels = [d.source_id for d in densities]
        dm = distance_matrix(densities, labels, DistanceKind(tag, r))
        np.testing.assert_array_equal(
            dm.entries, helpers.pairwise_matrix(densities, tag.value, r))

    @staticmethod
    def _shared_breakpoints():
        """Densities that share interior breakpoints, as real traces do.

        Unrotated grids of n, 2n and 3n arcs share every breakpoint of the
        coarser grid that rounds alike, and rotating a density onto one of
        its own breakpoints leaves its first and last heights unequal.
        """
        rng = np.random.default_rng(45)
        densities = [density_from_ccd(helpers.directional_ccd(rng, (k * 60, k * 60), f"n{k}"))
                     for k in (1, 2, 3)]
        d = density_from_ccd(helpers.directional_ccd(rng, (60, 60), "onto"))
        densities.append(rotate_density(d, float(d.breakpoints[17])))
        return densities

    @pytest.mark.parametrize("tag", list(DistanceTag), ids=lambda t: t.value)
    def test_shared_breakpoints_equal_per_pair_code(self, tag):
        densities = self._shared_breakpoints()
        labels = [d.source_id for d in densities]
        dm = distance_matrix(densities, labels, DistanceKind(tag))
        np.testing.assert_array_equal(
            dm.entries, helpers.pairwise_matrix(densities, tag.value, 5))

    @pytest.mark.parametrize("r", [1, 2, 5, 10])
    def test_trig_moments_equal_per_order_loop(self, r):
        for d in self._normalized(3):
            np.testing.assert_array_equal(trig_moments(d, r).pairs,
                                          helpers.trig_moments_loop(d, r))


class TestSplitPairs:
    """A matrix whose pairs are split across forked processes."""

    @staticmethod
    def _split(monkeypatch, cpus=3):
        """Split every matrix into up to ``cpus`` shares; return the forked pids."""
        forks = []
        fork = os.fork

        def counted():
            forks.append(fork())
            return forks[-1]

        monkeypatch.setattr(_shares, "_MIN_WORK_PER_SHARE", 1)
        monkeypatch.setattr(_shares, "_usable_cpus", lambda: cpus)
        monkeypatch.setattr(os, "fork", counted)
        return forks

    @staticmethod
    def _assert_no_child_left():
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    @pytest.mark.parametrize("m", [2, 3, 7])
    @pytest.mark.parametrize("tag", list(DistanceTag), ids=lambda t: t.value)
    def test_split_entries_equal_one_share(self, monkeypatch, tag, m):
        dataset = synth_dataset(1, m, (50, 400), 0.02, m)
        densities = [normalize_leaf(seq) for seq in dataset.sequences]
        labels = [d.source_id for d in densities]
        whole = distance_matrix(densities, labels, DistanceKind(tag)).entries
        forks = self._split(monkeypatch)
        split = distance_matrix(densities, labels, DistanceKind(tag)).entries
        assert len(forks) == min(3, m * (m - 1) // 2) - 1
        assert split.tobytes() == whole.tobytes()
        self._assert_no_child_left()

    @pytest.mark.parametrize("why", ["little work", "one cpu"])
    @pytest.mark.parametrize("tag", list(DistanceTag), ids=lambda t: t.value)
    def test_one_share_forks_nothing(self, monkeypatch, tag, why):
        """A matrix below the work per share, or on one CPU, is filled in this
        process alone, through the same path and to the same bytes as a split."""
        dataset = synth_dataset(1, 7, (50, 400), 0.02, 7)
        densities = [normalize_leaf(seq) for seq in dataset.sequences]
        labels = [d.source_id for d in densities]
        forks = self._split(monkeypatch)
        split = distance_matrix(densities, labels, DistanceKind(tag)).entries
        assert len(forks) == 2
        forks.clear()
        if why == "little work":
            monkeypatch.setattr(_shares, "_MIN_WORK_PER_SHARE", 10 ** 9)
        else:
            monkeypatch.setattr(_shares, "_usable_cpus", lambda: 1)
        whole = distance_matrix(densities, labels, DistanceKind(tag)).entries
        assert forks == []
        assert whole.tobytes() == split.tobytes()
        self._assert_no_child_left()

    @pytest.mark.parametrize("shares", [1, 2, 3, 4])
    @pytest.mark.parametrize("count", [0, 1, 2, 5, 1000])
    def test_in_shares_covers_every_value_once(self, monkeypatch, count, shares):
        """``in_shares`` returns ``values_of`` over exactly [0, count), in order,
        and forks one child per share but the first."""
        forks = self._split(monkeypatch, cpus=shares)
        asked = []

        def values_of(lo, hi):
            asked.append((lo, hi))  # seen in this process only: the first share
            return [float(j) + 0.5 for j in range(lo, hi)]

        values = _shares.in_shares(count, 10 ** 9, values_of)
        assert values.tolist() == [j + 0.5 for j in range(count)]
        assert len(forks) == max(1, min(shares, count)) - 1
        assert asked == [(0, count // max(1, min(shares, count)))]
        self._assert_no_child_left()

    @pytest.mark.parametrize("where", ["child", "parent", "killed", "interrupt"])
    def test_failed_share_raises_and_leaves_no_child(self, monkeypatch, where):
        """A child that fails, or that a signal kills, fails the matrix; a
        failure of this process's own share propagates, an interrupt too.
        Either way every child is killed and reaped."""
        merge = distances.merge_breakpoints
        parent = os.getpid()

        def failing(f, g):
            if os.getpid() != parent:
                if where == "child":
                    raise ValueError("pair failed in the child")
                if where == "killed":
                    os.kill(os.getpid(), signal.SIGKILL)
                if where == "interrupt":  # only a kill ends the child in time
                    time.sleep(60)
                    os._exit(0)
            elif where == "parent":
                raise ValueError("pair failed in the parent")
            elif where == "interrupt":
                raise KeyboardInterrupt
            return merge(f, g)

        monkeypatch.setattr(distances, "merge_breakpoints", failing)
        forks = self._split(monkeypatch)
        densities = [normalize_leaf(seq)
                     for seq in synth_dataset(1, 7, (50, 400), 0.02, 7).sequences]
        error = {"child": ChildProcessError, "parent": ValueError,
                 "killed": ChildProcessError, "interrupt": KeyboardInterrupt}[where]
        start = time.monotonic()
        with pytest.raises(error) as raised:
            distance_matrix(densities, [d.source_id for d in densities],
                            DistanceKind(DistanceTag.L1))
        assert time.monotonic() - start < 30
        if where == "killed":
            assert str(raised.value) == (
                f"share failed in process {forks[0]}: wait status {int(signal.SIGKILL)}")
        self._assert_no_child_left()


def test_kind_requires_positive_moment_order():
    with pytest.raises(ValueError):
        DistanceKind(DistanceTag.MOMENT_EUCLIDEAN, 0)


@pytest.mark.parametrize("r,shown", [(1001, "1001"), (10 ** 20, str(10 ** 20)),
                                     (10 ** 1000, "1" + "0" * 17 + "..." + "0" * 19),
                                     (10 ** 5000, "<int of 16,610 bits>"),
                                     (-10 ** 5000, "<negative int of 16,610 bits>")],
                         ids=["1001", "1e20", "1e1000", "1e5000", "-1e5000"])
def test_kind_bounds_moment_order(r, shown):
    """r above 1,000 is rejected when the kind is built, before any moment
    array; a long r is echoed cut short, and one too long to print by its size."""
    with pytest.raises(ValueError) as raised:
        DistanceKind(DistanceTag.MOMENT_EUCLIDEAN, r)
    assert str(raised.value) == f"moment order must be >= 1 and <= 1,000, got {shown}"
    assert DistanceKind(DistanceTag.MOMENT_EUCLIDEAN, 1000).moment_order == 1000
