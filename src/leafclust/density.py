"""Circular step densities built from centroid-contour-distance traces.

A CCD trace is a sequence of nonnegative distances sampled at uniformly
spread angles around the circle.  Dividing by the trace mean turns it into
an exact piecewise-constant probability density on (0, 2pi], which removes
the arbitrary scale of the raw measurements.  Rotating the density by its
mean direction then removes the arbitrary starting point of the contour.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

TWO_PI = 2.0 * math.pi

# Resultant lengths at or below this are treated as zero: the density is
# isotropic for all practical purposes and has no usable mean direction.
RESULTANT_EPS = 1e-12

_MASS_TOL = 1e-9


class InvalidCcdError(ValueError):
    """Raised when a CCD trace or step density violates its invariants."""


def _frozen_array(values, dtype=float) -> np.ndarray:
    arr = np.asarray(values, dtype=dtype)
    if arr.flags.writeable:
        arr = arr.copy()
    arr.flags.writeable = False
    return arr


@dataclass(frozen=True)
class CcdSequence:
    """A raw CCD trace: distances to the centroid along the contour.

    The angular grid is implicit: value j sits on the arc
    (2*pi*(j-1)/n, 2*pi*j/n].  The scale of the values is arbitrary.
    """

    id: str
    values: np.ndarray

    def __post_init__(self):
        vals = _frozen_array(self.values)
        if vals.ndim != 1:
            raise InvalidCcdError(f"sequence {self.id!r}: values must be one-dimensional")
        if vals.size < 2:
            raise InvalidCcdError(f"sequence {self.id!r}: fewer than 2 values")
        if not np.all(np.isfinite(vals)):
            raise InvalidCcdError(f"sequence {self.id!r}: non-finite value")
        if np.any(vals < 0):
            j = int(np.argmax(vals < 0))
            raise InvalidCcdError(
                f"sequence {self.id!r}: negative CCD value {vals[j]} at position {j}"
            )
        if not np.any(vals > 0):
            raise InvalidCcdError(f"sequence {self.id!r}: all values are zero")
        object.__setattr__(self, "values", vals)

    def __len__(self) -> int:
        return self.values.size


@dataclass(frozen=True)
class StepDensity:
    """Piecewise-constant circular probability density on (0, 2pi].

    ``heights[k]`` is the density on the interval
    (``breakpoints[k]``, ``breakpoints[k+1]``].  The first breakpoint is 0
    and the last is exactly 2*pi; total mass is 1.

    ``rotation`` records the angle subtracted from the support (0 if the
    density was never rotated).  ``direction_defined`` is False only when a
    normalisation step found the density isotropic and skipped rotation.
    """

    breakpoints: np.ndarray
    heights: np.ndarray
    source_id: str = ""
    rotation: float = 0.0
    direction_defined: bool = True

    def __post_init__(self):
        b = _frozen_array(self.breakpoints)
        h = _frozen_array(self.heights)
        if b.ndim != 1 or h.ndim != 1 or b.size != h.size + 1 or h.size < 1:
            raise InvalidCcdError("breakpoints must be one longer than heights")
        if b[0] != 0.0 or b[-1] != TWO_PI:
            raise InvalidCcdError("support must start at 0 and end at 2*pi exactly")
        if not np.all(np.diff(b) > 0):  # NaN too
            raise InvalidCcdError("breakpoints must be strictly increasing")
        if np.any(h < 0) or not np.all(np.isfinite(h)):
            raise InvalidCcdError("heights must be finite and nonnegative")
        mass = float(np.sum(h * np.diff(b)))
        if abs(mass - 1.0) > _MASS_TOL:
            raise InvalidCcdError(f"total mass {mass} is not 1 within {_MASS_TOL}")
        object.__setattr__(self, "breakpoints", b)
        object.__setattr__(self, "heights", h)

    @property
    def n_intervals(self) -> int:
        return self.heights.size

    def mass(self) -> float:
        return float(np.sum(self.heights * np.diff(self.breakpoints)))

    def evaluate(self, t) -> np.ndarray:
        """Density value at angle(s) t, interpreted circularly.

        Each interval is open on the left and closed on the right, so
        ``evaluate(breakpoints[k+1]) == heights[k]`` and angle 0 maps to
        the last interval (it is the same point as 2*pi on the circle).
        """
        t = np.asarray(t, dtype=float)
        wrapped = np.mod(t, TWO_PI)
        wrapped = np.where(wrapped == 0.0, TWO_PI, wrapped)
        idx = np.searchsorted(self.breakpoints, wrapped, side="left") - 1
        return self.heights[idx]


@dataclass(frozen=True)
class TrigMoments:
    """First ``order`` trigonometric moment pairs of a circular density.

    ``pairs[p-1]`` holds (E[cos(p T)], E[sin(p T)]).  Each pair lies in the
    closed unit disc because it is the mean of a unit-modulus quantity.
    """

    order: int
    pairs: np.ndarray

    def __post_init__(self):
        pairs = _frozen_array(self.pairs)
        if self.order < 1:
            raise InvalidCcdError("moment order must be >= 1")
        if pairs.shape != (self.order, 2):
            raise InvalidCcdError(f"expected {self.order} moment pairs")
        norms = np.sum(pairs**2, axis=1)
        if np.any(norms > 1.0 + 1e-9):
            raise InvalidCcdError("moment pair outside the unit disc")
        object.__setattr__(self, "pairs", pairs)

    def alpha(self, p: int) -> float:
        return float(self.pairs[p - 1, 0])

    def beta(self, p: int) -> float:
        return float(self.pairs[p - 1, 1])

    def as_vector(self) -> np.ndarray:
        """Flatten to (alpha_1, beta_1, ..., alpha_r, beta_r)."""
        return self.pairs.reshape(-1)


@dataclass(frozen=True)
class MeanDirection:
    """Mean (preferred) direction and resultant length of a density.

    ``defined`` is False for isotropic densities, where every direction is
    equally preferred; ``angle`` then defaults to 0.
    """

    angle: float
    resultant_length: float
    defined: bool = True


@dataclass(frozen=True)
class LeafOutline:
    """Cartesian reconstruction of a leaf contour in normalized radius units."""

    id: str
    points: np.ndarray

    def __post_init__(self):
        pts = _frozen_array(self.points)
        if pts.ndim != 2 or pts.shape[1] != 2:
            raise InvalidCcdError("outline points must be an (n, 2) array")
        object.__setattr__(self, "points", pts)


def grid_breakpoints(n: int) -> np.ndarray:
    """Uniform angular grid 0, 2*pi/n, ..., 2*pi with exact endpoints."""
    return np.linspace(0.0, TWO_PI, n + 1)


def density_from_ccd(seq: CcdSequence) -> StepDensity:
    """Turn a CCD trace into its unit-mass circular step density.

    The height over arc j is y_j / (2*pi*mean(y)), which makes the result
    invariant to any positive rescaling of the trace.  The trace is first
    scaled by a power of two into [0, 1), which is exact, so the mean can
    neither overflow nor lose precision to subnormal values.
    """
    values = np.ldexp(seq.values, -math.frexp(float(seq.values.max()))[1])
    heights = values / (TWO_PI * float(np.mean(values)))
    return StepDensity(grid_breakpoints(len(seq)), heights, source_id=seq.id)


def trig_moments(d: StepDensity, r: int) -> TrigMoments:
    """Exact trigonometric moments of a step density, orders 1..r.

    Integrating cos(p t) and sin(p t) against each constant piece gives

        alpha(p) = sum_k h_k (sin(p t_k) - sin(p t_{k-1})) / p
        beta(p)  = sum_k h_k (cos(p t_{k-1}) - cos(p t_k)) / p

    with no quadrature involved.  ``TrigMoments`` rejects an order r < 1.
    """
    p = np.arange(1, r + 1)
    pb = p[:, None] * d.breakpoints  # row p-1 holds p * t_k
    sin_b, cos_b = np.sin(pb), np.cos(pb)
    h = d.heights
    alpha = np.sum(h * (sin_b[:, 1:] - sin_b[:, :-1]), axis=-1) / p
    beta = np.sum(h * (cos_b[:, :-1] - cos_b[:, 1:]), axis=-1) / p
    return TrigMoments(r, np.column_stack((alpha, beta)))


def _angle_in_two_pi(beta: float, alpha: float) -> float:
    """Quadrant-aware inverse tangent mapped into (0, 2*pi]."""
    angle = math.atan2(beta, alpha)
    if angle <= 0.0:
        angle += TWO_PI
    return angle


def mean_direction(d: StepDensity) -> MeanDirection:
    """Mean direction and resultant length from the first moment pair.

    Returns a flagged (undefined) result instead of failing when the
    resultant length vanishes.
    """
    m = trig_moments(d, 1)
    alpha, beta = m.alpha(1), m.beta(1)
    resultant = math.hypot(alpha, beta)
    if resultant <= RESULTANT_EPS:
        return MeanDirection(0.0, resultant, defined=False)
    return MeanDirection(_angle_in_two_pi(beta, alpha), resultant)


def rotate_density(d: StepDensity, mu: float) -> StepDensity:
    """Rotate a density by angle mu, keeping the support inside (0, 2pi].

    The result g satisfies g(t) = d(t + mu) circularly.  Breakpoints that
    fall below zero are wrapped up by 2*pi; the interval straddling the
    wrap point is split in two, so heights are a pure reindexing of the
    originals and mass is preserved.  Lifted breakpoints are clamped at
    2*pi, and intervals that rounding (or a cut exactly on a breakpoint)
    leaves with zero width are dropped: they carry no mass.
    """
    shift = math.fmod(mu, TWO_PI)
    if shift < 0.0:
        shift += TWO_PI
    if shift == 0.0:
        return replace(d, rotation=mu)

    b = d.breakpoints
    h = d.heights
    # First interval with right endpoint >= shift; its left endpoint is <= shift.
    s = int(np.searchsorted(b, shift, side="left"))
    lifted = np.minimum(b[1:s] + (TWO_PI - shift), TWO_PI)
    new_b = np.concatenate(([0.0], b[s:] - shift, lifted, [TWO_PI]))
    new_h = np.concatenate((h[s - 1 :], h[: s - 1], h[s - 1 : s]))
    keep = np.diff(new_b) > 0.0
    new_b = np.concatenate(([0.0], new_b[1:][keep]))
    return StepDensity(new_b, new_h[keep], source_id=d.source_id, rotation=mu,
                       direction_defined=d.direction_defined)


def normalize_leaf(seq: CcdSequence) -> StepDensity:
    """Scale- and rotation-normalize a CCD trace.

    Builds the unit-mass density, then rotates it by its mean direction so
    the first sine moment vanishes.  Isotropic traces cannot be rotated
    meaningfully; they are returned unrotated with ``direction_defined``
    set to False.
    """
    d = density_from_ccd(seq)
    md = mean_direction(d)
    if not md.defined:
        return replace(d, direction_defined=False)
    return rotate_density(d, md.angle)


def leaf_outline(d: StepDensity, rotation: float = 0.0) -> LeafOutline:
    """Reconstruct the leaf contour of density ``d`` as Cartesian points.

    Each (t_{k+1} - rotation, h_k), the angle wrapped into (0, 2pi], is a polar
    point; for a trace's density h_k = y_k/(2*pi*mean(y)), so the outline is
    scale-free.  The ``rotation`` of the normalized density turns the leaf to
    its normalized orientation.
    """
    angles = d.breakpoints[1:] - rotation
    angles = np.where(angles <= 0.0, angles + TWO_PI, angles)
    radii = d.heights
    points = np.column_stack((radii * np.cos(angles), radii * np.sin(angles)))
    return LeafOutline(d.source_id, points)
