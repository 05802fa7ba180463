"""Synthetic CCD datasets with known group structure.

Each group gets a smooth periodic radius template built from a strong
first harmonic (so the mean direction is well defined and rotation
normalization can align instances) plus group-specific higher harmonics
that act as the shape signature.  Every generated trace is a template
sampled at a random resolution, randomly rotated, randomly rescaled and
perturbed with multiplicative noise, which is exactly the kind of
variation the density normalization is supposed to remove.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dataio import Dataset
from .density import TWO_PI, CcdSequence

__all__ = ["ShapeTemplate", "sample_trace", "synth_dataset"]


@dataclass(frozen=True)
class ShapeTemplate:
    """Periodic radius profile 1 + sum_k amp_k * cos(k*theta - phase_k)."""

    harmonics: tuple[int, ...]
    amplitudes: tuple[float, ...]
    phases: tuple[float, ...]

    def radius(self, theta: np.ndarray) -> np.ndarray:
        r = np.ones_like(theta)
        for k, amp, phase in zip(self.harmonics, self.amplitudes, self.phases):
            r = r + amp * np.cos(k * theta - phase)
        return r


def _group_template(g: int, rng: np.random.Generator) -> ShapeTemplate:
    # First harmonic anchors the mean direction; harmonics 2..5 carry the
    # group signature.  Total amplitude stays below 0.9 so radii stay positive.
    primary = 2 + g % 4
    secondary = 2 + (g + 1 + g // 4) % 4
    harmonics = [1, primary]
    amplitudes = [0.4, 0.28 + rng.uniform(0.0, 0.07)]
    phases = [rng.uniform(0.0, TWO_PI), rng.uniform(0.0, TWO_PI)]
    if secondary != primary:
        harmonics.append(secondary)
        amplitudes.append(rng.uniform(0.1, 0.18))
        phases.append(rng.uniform(0.0, TWO_PI))
    return ShapeTemplate(tuple(harmonics), tuple(amplitudes), tuple(phases))


def sample_trace(
    template: ShapeTemplate,
    n: int,
    rotation: float,
    scale: float,
    noise: float = 0.0,
    rng: np.random.Generator | None = None,
) -> np.ndarray:
    """One CCD trace: the template sampled at n grid angles, rotated by
    ``rotation``, scaled, and optionally perturbed multiplicatively."""
    if not 0 <= noise < math.inf:  # NaN fails too
        raise ValueError(f"noise must be finite and >= 0, got {noise}")
    theta = TWO_PI * np.arange(1, n + 1) / n
    values = scale * template.radius(theta + rotation)
    if noise > 0:
        if rng is None:
            raise ValueError("noise requires an rng")
        values = values * (1.0 + noise * rng.standard_normal(n))
    return np.maximum(values, 0.0)


def synth_dataset(
    groups: int,
    per_group: int,
    n_range: tuple[int, int] = (500, 4000),
    noise: float = 0.02,
    seed: int = 0,
) -> Dataset:
    """Generate a labeled synthetic CCD dataset.

    ``n_range`` bounds the per-trace resolution (inclusive), ``noise`` is
    the standard deviation of the multiplicative perturbation, and the
    whole construction is a pure function of ``seed``.
    """
    if groups < 1 or per_group < 1:
        raise ValueError("groups and per_group must be >= 1")
    lo, hi = int(n_range[0]), int(n_range[1])
    if lo < 2 or hi < lo:
        raise ValueError(f"bad resolution range {n_range}")
    rng = np.random.default_rng(seed)
    templates = [_group_template(g, rng) for g in range(groups)]
    sequences = []
    group_of = {}
    for g, template in enumerate(templates):
        group_name = f"G{g + 1}"
        for i in range(per_group):
            n = int(rng.integers(lo, hi + 1))
            rotation = rng.uniform(0.0, TWO_PI)
            scale = float(np.exp(rng.uniform(np.log(0.5), np.log(50.0))))
            values = sample_trace(template, n, rotation, scale, noise, rng)
            seq_id = f"{group_name}.{i + 1:03d}"
            sequences.append(CcdSequence(seq_id, values))
            group_of[seq_id] = group_name
    return Dataset(tuple(sequences), group_of)
