import math

import numpy as np
import pytest

from leafclust import (
    CcdSequence,
    dist_l1,
    normalize_leaf,
    sample_trace,
    synth_dataset,
)
from leafclust.synth import _group_template


class TestSynthDataset:
    def test_cardinality_and_labels(self):
        ds = synth_dataset(4, 5, (50, 100), 0.02, seed=1)
        assert len(ds.sequences) == 20
        assert set(ds.groups.values()) == {"G1", "G2", "G3", "G4"}
        assert ds.ids[0] == "G1.001"

    def test_deterministic_given_seed(self):
        a = synth_dataset(2, 3, (40, 80), 0.05, seed=9)
        b = synth_dataset(2, 3, (40, 80), 0.05, seed=9)
        for sa, sb in zip(a.sequences, b.sequences):
            assert sa.id == sb.id
            np.testing.assert_array_equal(sa.values, sb.values)

    def test_seeds_differ(self):
        a = synth_dataset(1, 1, (50, 50), 0.0, seed=1)
        b = synth_dataset(1, 1, (50, 50), 0.0, seed=2)
        assert not np.array_equal(a.sequences[0].values, b.sequences[0].values)

    def test_resolutions_respect_range(self):
        ds = synth_dataset(2, 10, (30, 35), 0.0, seed=3)
        assert all(30 <= len(s) <= 35 for s in ds.sequences)

    @pytest.mark.parametrize("bad", [(0, 1), (1, 0)])
    def test_rejects_nonpositive_counts(self, bad):
        with pytest.raises(ValueError):
            synth_dataset(*bad, (10, 20), 0.0, seed=0)

    def test_rejects_bad_resolution_range(self):
        with pytest.raises(ValueError):
            synth_dataset(1, 1, (100, 50), 0.0, seed=0)
        with pytest.raises(ValueError):
            synth_dataset(1, 1, (1, 50), 0.0, seed=0)

    def test_rejects_negative_noise(self):
        with pytest.raises(ValueError):
            synth_dataset(1, 1, (10, 20), -0.1, seed=0)

    @pytest.mark.parametrize("noise", [math.nan, math.inf])
    def test_rejects_non_finite_noise(self, noise):
        with pytest.raises(ValueError, match="noise must be finite and >= 0"):
            synth_dataset(1, 1, (10, 20), noise, seed=0)
        template = _group_template(0, np.random.default_rng(0))
        with pytest.raises(ValueError, match="noise must be finite and >= 0"):
            sample_trace(template, 10, 0.0, 1.0, noise, np.random.default_rng(1))


class TestTraceGeometry:
    def test_same_resolution_and_rotation_give_identical_densities(self):
        rng = np.random.default_rng(50)
        template = _group_template(0, rng)
        a = CcdSequence("a", sample_trace(template, 800, rotation=1.3, scale=2.0))
        b = CcdSequence("b", sample_trace(template, 800, rotation=1.3, scale=37.5))
        assert dist_l1(normalize_leaf(a), normalize_leaf(b)) <= 1e-9

    def test_noise_free_group_is_tight_after_normalization(self):
        # Instances differ in scale, rotation and resolution only; frozen
        # regression bound for the residual resampling mismatch.
        ds = synth_dataset(1, 3, (500, 4000), 0.0, seed=12345)
        densities = [normalize_leaf(s) for s in ds.sequences]
        for i in range(3):
            for j in range(i + 1, 3):
                assert dist_l1(densities[i], densities[j]) <= 0.05

    def test_traces_are_positive_with_small_noise(self):
        ds = synth_dataset(3, 4, (100, 300), 0.02, seed=6)
        for seq in ds.sequences:
            assert np.all(seq.values >= 0)
            assert np.any(seq.values > 0)
