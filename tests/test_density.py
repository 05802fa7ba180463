import math

import numpy as np
import pytest

import helpers
from leafclust import (
    TWO_PI,
    CcdSequence,
    InvalidCcdError,
    StepDensity,
    density_from_ccd,
    dist_l1,
    leaf_outline,
    mean_direction,
    normalize_leaf,
    rotate_density,
    trig_moments,
)

QUARTER = CcdSequence("q", np.array([1.0, 0.0, 0.0, 0.0]))
TWO_STEP = CcdSequence("t", np.array([1.0, 3.0]))


def uniform_density(n=4):
    return density_from_ccd(CcdSequence("u", np.ones(n)))


class TestCcdSequence:
    def test_rejects_short(self):
        with pytest.raises(InvalidCcdError):
            CcdSequence("x", np.array([1.0]))

    def test_rejects_negative(self):
        with pytest.raises(InvalidCcdError, match="negative"):
            CcdSequence("x", np.array([1.0, -0.5, 2.0]))

    def test_rejects_all_zero(self):
        with pytest.raises(InvalidCcdError, match="zero"):
            CcdSequence("x", np.zeros(5))

    def test_zero_values_allowed(self):
        seq = CcdSequence("x", np.array([0.0, 1.0, 0.0]))
        assert len(seq) == 3

    def test_values_are_immutable(self):
        seq = CcdSequence("x", np.array([1.0, 2.0]))
        with pytest.raises(ValueError):
            seq.values[0] = 5.0


class TestDensityFromCcd:
    def test_uniform(self):
        d = uniform_density()
        np.testing.assert_array_equal(d.breakpoints, np.linspace(0.0, TWO_PI, 5))
        np.testing.assert_array_equal(d.heights, np.full(4, 1.0 / TWO_PI))
        assert d.breakpoints[-1] == TWO_PI
        assert d.rotation == 0.0

    def test_scale_invariance_is_exact_for_doubling(self):
        a = density_from_ccd(CcdSequence("a", np.ones(4)))
        b = density_from_ccd(CcdSequence("b", 2.0 * np.ones(4)))
        np.testing.assert_array_equal(a.breakpoints, b.breakpoints)
        np.testing.assert_array_equal(a.heights, b.heights)

    def test_scale_invariance_random_factors(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            seq = helpers.random_ccd(rng, n_range=(2, 200))
            k = 10.0 ** rng.uniform(-6, 6)
            scaled = CcdSequence(seq.id, k * seq.values)
            a, b = density_from_ccd(seq), density_from_ccd(scaled)
            np.testing.assert_array_equal(a.breakpoints, b.breakpoints)
            np.testing.assert_allclose(a.heights, b.heights, rtol=1e-12, atol=0)

    def test_two_step_heights_and_mass(self):
        d = density_from_ccd(TWO_STEP)
        np.testing.assert_allclose(
            d.heights, [1.0 / (4 * math.pi), 3.0 / (4 * math.pi)], rtol=1e-15)
        assert d.breakpoints[1] == math.pi
        assert abs(d.mass() - 1.0) < 1e-15

    def test_mass_is_one_for_random_sequences(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            d = density_from_ccd(helpers.random_ccd(rng))
            assert abs(d.mass() - 1.0) <= 1e-9

    @pytest.mark.parametrize("values,like", [([1e308] * 3, [1.0, 1.0, 1.0]),
                                             ([1e-320, 2e-320, 3e-320], [1.0, 2.0, 3.0])])
    def test_extreme_scales_normalize(self, values, like):
        # The mean of [1e308] * 3 overflows and subnormal traces lose
        # precision unless the trace is rescaled before the mean is taken.
        d = density_from_ccd(CcdSequence("x", np.array(values)))
        assert abs(d.mass() - 1.0) <= 1e-9
        ref = density_from_ccd(CcdSequence("x", np.array(like)))
        np.testing.assert_allclose(d.heights, ref.heights, rtol=1e-15, atol=0)
        np.testing.assert_allclose(normalize_leaf(CcdSequence("x", np.array(values))).heights,
                                   normalize_leaf(CcdSequence("x", np.array(like))).heights,
                                   rtol=1e-15, atol=0)

    def test_reversed_trace_gives_the_mirror_density(self):
        # A trace read the other way round is the reflection t -> 2pi - t:
        # the same grid and the heights in reverse order.  Only the mean is
        # summed in another order.  Any order sums n nonnegative terms to
        # within (n - 1) u relative (u = 2**-53; Higham, "Accuracy and
        # Stability of Numerical Algorithms", 2002, section 4.2), and the
        # division by n, the product with 2pi and each height's quotient
        # round once more, so a height and its mirror differ by at most
        # 2 (n + 2) u relative to first order; 2 u more covers the rest.
        rng = np.random.default_rng(12)
        for _ in range(100):
            seq = helpers.random_ccd(rng)
            d = density_from_ccd(seq)
            mirror = density_from_ccd(CcdSequence(seq.id, seq.values[::-1]))
            np.testing.assert_array_equal(mirror.breakpoints, d.breakpoints)
            np.testing.assert_allclose(mirror.heights, d.heights[::-1],
                                       rtol=2 * (len(seq) + 3) * 2.0**-53, atol=0)


class TestStepDensityValidation:
    def test_rejects_bad_mass(self):
        with pytest.raises(InvalidCcdError, match="mass"):
            StepDensity(np.array([0.0, TWO_PI]), np.array([1.0]))

    def test_rejects_wrong_endpoints(self):
        with pytest.raises(InvalidCcdError):
            StepDensity(np.array([0.0, 6.0]), np.array([1.0 / 6.0]))

    def test_rejects_unsorted_breakpoints(self):
        with pytest.raises(InvalidCcdError):
            StepDensity(np.array([0.0, 4.0, 3.0, TWO_PI]),
                        np.array([0.1, 0.1, 0.1]))

    def test_rejects_nan_breakpoint(self):
        # Every comparison with NaN is false, so only a check that all steps
        # are positive rejects it.
        with pytest.raises(InvalidCcdError, match="strictly increasing"):
            StepDensity(np.array([0.0, math.nan, TWO_PI]), np.array([1.0, 1.0]) / TWO_PI)

    def test_rejects_negative_heights(self):
        b = np.array([0.0, math.pi, TWO_PI])
        with pytest.raises(InvalidCcdError):
            StepDensity(b, np.array([-0.1, 1.0 / math.pi + 0.1]))

    def test_evaluate_interval_convention(self):
        d = density_from_ccd(TWO_STEP)
        lo, hi = d.heights
        # (0, pi] gets the first height, (pi, 2pi] the second; 0 wraps to 2pi.
        assert d.evaluate(math.pi) == lo
        assert d.evaluate(math.pi + 1e-12) == hi
        assert d.evaluate(TWO_PI) == hi
        assert d.evaluate(0.0) == hi
        assert d.evaluate(-math.pi / 2) == hi


class TestTrigMoments:
    def test_uniform_moments_vanish(self):
        m = trig_moments(uniform_density(), 6)
        np.testing.assert_allclose(m.pairs, np.zeros((6, 2)), atol=1e-12)

    def test_two_step_first_moments(self):
        m = trig_moments(density_from_ccd(TWO_STEP), 1)
        assert abs(m.alpha(1)) < 1e-15
        np.testing.assert_allclose(m.beta(1), -1.0 / math.pi, rtol=1e-12)

    def test_rejects_zero_order(self):
        with pytest.raises(InvalidCcdError):
            trig_moments(uniform_density(), 0)

    def test_moment_pairs_stay_in_unit_disc(self):
        rng = np.random.default_rng(3)
        for _ in range(50):
            d = helpers.random_density(rng)
            m = trig_moments(d, 8)
            assert np.all(np.sum(m.pairs**2, axis=1) <= 1.0 + 1e-9)

    def test_matches_quadrature_oracle(self):
        rng = np.random.default_rng(4)
        for _ in range(5):
            d = helpers.random_density(rng, max_intervals=8, spread=0.15)
            closed = trig_moments(d, 10).pairs
            quad = helpers.moment_quadrature(d, 10)
            np.testing.assert_allclose(closed, quad, atol=1e-6)

    def test_as_vector_layout(self):
        m = trig_moments(density_from_ccd(TWO_STEP), 2)
        vec = m.as_vector()
        assert vec.shape == (4,)
        assert vec[0] == m.alpha(1) and vec[1] == m.beta(1)


class TestMeanDirection:
    def test_uniform_is_undefined(self):
        md = mean_direction(uniform_density())
        assert not md.defined
        assert md.angle == 0.0
        assert md.resultant_length < 1e-12

    def test_quadrant_direction(self):
        md = mean_direction(density_from_ccd(QUARTER))
        assert md.defined
        np.testing.assert_allclose(md.angle, math.pi / 4, rtol=1e-12)

    def test_two_step_direction(self):
        md = mean_direction(density_from_ccd(TWO_STEP))
        np.testing.assert_allclose(md.angle, 3 * math.pi / 2, rtol=1e-12)
        np.testing.assert_allclose(md.resultant_length, 1.0 / math.pi, rtol=1e-12)

    def test_boundary_angles_land_in_half_open_interval(self):
        # beta = 0, alpha > 0 maps to 2pi (the representative of angle 0).
        east = rotate_density(density_from_ccd(QUARTER), math.pi / 4)
        md = mean_direction(east)
        assert md.defined
        assert 0.0 < md.angle <= TWO_PI
        assert md.angle == pytest.approx(TWO_PI, rel=1e-9) or md.angle < 1e-9


class TestRotateDensity:
    def test_identity_rotation(self):
        d = density_from_ccd(QUARTER)
        r = rotate_density(d, 0.0)
        np.testing.assert_array_equal(r.breakpoints, d.breakpoints)
        np.testing.assert_array_equal(r.heights, d.heights)
        assert r.rotation == 0.0

    def test_quadrant_wrap(self):
        d = density_from_ccd(QUARTER)
        r = rotate_density(d, math.pi / 4)
        expected_breaks = [0.0, math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4,
                           7 * math.pi / 4, TWO_PI]
        np.testing.assert_allclose(r.breakpoints, expected_breaks, rtol=0, atol=1e-15)
        np.testing.assert_allclose(
            r.heights, [2 / math.pi, 0.0, 0.0, 0.0, 2 / math.pi], rtol=1e-15)
        assert r.breakpoints[-1] == TWO_PI
        assert r.rotation == math.pi / 4

    def test_rotation_at_exact_breakpoint_reorders_without_split(self):
        d = density_from_ccd(QUARTER)
        r = rotate_density(d, d.breakpoints[1])
        assert r.n_intervals == d.n_intervals
        assert sorted(r.heights) == sorted(d.heights)

    def test_mass_contributions_are_permuted(self):
        rng = np.random.default_rng(5)
        for _ in range(30):
            d = helpers.random_density(rng)
            r = rotate_density(d, rng.uniform(0.0, TWO_PI))
            assert r.n_intervals in (d.n_intervals, d.n_intervals + 1)
            np.testing.assert_allclose(sorted(set(r.heights)), sorted(set(d.heights)))
            assert abs(r.mass() - 1.0) <= 1e-9

    def test_rotate_then_unrotate_is_pointwise_identity(self):
        rng = np.random.default_rng(6)
        for _ in range(30):
            d = helpers.random_density(rng)
            mu = rng.uniform(0.0, TWO_PI)
            back = rotate_density(rotate_density(d, mu), -mu)
            probes = rng.uniform(1e-9, TWO_PI, 200)
            np.testing.assert_array_equal(d.evaluate(probes), back.evaluate(probes))

    @pytest.mark.parametrize("n", [3, 7, 100, 997, 4000])
    def test_shifts_on_and_one_ulp_beside_every_breakpoint(self, n):
        # Shifted or lifted breakpoints can round onto each other or onto
        # 2*pi; the zero-width intervals that leaves must be dropped.
        rng = np.random.default_rng(n)
        d = density_from_ccd(CcdSequence("x", rng.uniform(0.5, 2.0, n)))
        mids = 0.5 * (d.breakpoints[:-1] + d.breakpoints[1:])
        for k in range(1, n):
            b = d.breakpoints[k]
            # The pieces on either side of the cut and at the ends of the support.
            pieces = np.unique(np.clip([0, k - 2, k - 1, k, k + 1, n - 1], 0, n - 1))
            for shift in (np.nextafter(b, 0.0), b, np.nextafter(b, TWO_PI)):
                r = rotate_density(d, float(shift))
                assert r.breakpoints[0] == 0.0 and r.breakpoints[-1] == TWO_PI
                assert abs(r.mass() - 1.0) <= 1e-9
                # g(t) = d(t + shift): each original piece keeps its height.
                np.testing.assert_array_equal(r.evaluate(mids[pieces] - shift),
                                              d.heights[pieces])

    def test_rotation_by_own_mean_direction_zeroes_beta(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            d = helpers.random_density(rng)
            md = mean_direction(d)
            if not md.defined:
                continue
            m = trig_moments(rotate_density(d, md.angle), 1)
            assert abs(m.beta(1)) <= 1e-12
            assert m.alpha(1) == pytest.approx(md.resultant_length, abs=1e-12)


class TestNormalizeLeaf:
    def test_uniform_is_flagged_and_unrotated(self):
        nd = normalize_leaf(CcdSequence("u", np.ones(4)))
        assert not nd.direction_defined
        assert nd.rotation == 0.0
        np.testing.assert_array_equal(nd.heights, uniform_density().heights)

    def test_quadrant_becomes_symmetric_about_zero(self):
        nd = normalize_leaf(QUARTER)
        expected = StepDensity(
            np.array([0.0, math.pi / 4, 3 * math.pi / 4, 5 * math.pi / 4,
                      7 * math.pi / 4, TWO_PI]),
            np.array([2 / math.pi, 0.0, 0.0, 0.0, 2 / math.pi]),
        )
        assert dist_l1(nd, expected) <= 1e-12

    def test_cyclic_shift_invariance(self):
        rng = np.random.default_rng(8)
        for i in range(20):
            seq = helpers.directional_ccd(rng, seq_id=f"s{i}")
            s = int(rng.integers(1, len(seq)))
            shifted = CcdSequence(seq.id, np.roll(seq.values, -s))
            assert dist_l1(normalize_leaf(seq), normalize_leaf(shifted)) <= 1e-9


class TestLeafOutline:
    def test_uniform_circle(self):
        out = leaf_outline(density_from_ccd(CcdSequence("u", np.ones(4))))
        r = 1.0 / TWO_PI
        expected = [(0.0, r), (-r, 0.0), (0.0, -r), (r, 0.0)]
        np.testing.assert_allclose(out.points, expected, atol=1e-15)

    def test_point_count_matches_sequence(self):
        rng = np.random.default_rng(9)
        seq = helpers.random_ccd(rng, n_range=(17, 17))
        assert leaf_outline(density_from_ccd(seq)).points.shape == (17, 2)

    def test_scaling_leaves_outline_unchanged(self):
        seq = CcdSequence("a", np.array([1.0, 2.0, 0.5, 3.0]))
        big = CcdSequence("a", 512.0 * seq.values)
        np.testing.assert_array_equal(
            leaf_outline(density_from_ccd(seq)).points, leaf_outline(density_from_ccd(big)).points)

    def test_two_step_points(self):
        out = leaf_outline(density_from_ccd(TWO_STEP))
        r1, r2 = 1.0 / (4 * math.pi), 3.0 / (4 * math.pi)
        np.testing.assert_allclose(out.points, [(-r1, 0.0), (r2, 0.0)], atol=1e-16)

    def test_rotated_outline_is_rigid_rotation(self):
        plain = leaf_outline(density_from_ccd(QUARTER))
        turned = leaf_outline(density_from_ccd(QUARTER), normalize_leaf(QUARTER).rotation)
        mu = mean_direction(density_from_ccd(QUARTER)).angle
        rot = np.array([[math.cos(-mu), -math.sin(-mu)],
                        [math.sin(-mu), math.cos(-mu)]])
        np.testing.assert_allclose(turned.points, plain.points @ rot.T, atol=1e-9)
