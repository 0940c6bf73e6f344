"""Closed-form clearance between sphere/capsule primitives plus an AABB broadphase.

Every primitive is reduced internally to a segment with a radius (a sphere is
a degenerate capsule), so a single segment-segment distance kernel covers all
shape combinations. The kernel is vectorized over pairs and samples.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

# Owner tag of a placed primitive: (group id or "static", link index).
Owner = tuple[str, int]

# Reported clearance when the broadphase leaves no pair within range.
FAR = math.inf

# Squared-length threshold below which a segment is treated as a point.
_EPS2 = 1e-16


def _vec3(x) -> np.ndarray:
    v = np.asarray(x, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"expected a 3-vector, got shape {v.shape}")
    if not np.all(np.isfinite(v)):
        raise ValueError(f"expected a finite 3-vector, got {v.tolist()}")
    return v


@dataclass(frozen=True, eq=False)
class Sphere:
    center: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "center", _vec3(self.center))
        if not 0.0 < self.radius < math.inf:
            raise ValueError("sphere radius must be finite and > 0")


@dataclass(frozen=True, eq=False)
class Capsule:
    """Segment from p0 to p1 swept by a sphere of the given radius."""

    p0: np.ndarray
    p1: np.ndarray
    radius: float

    def __post_init__(self):
        object.__setattr__(self, "p0", _vec3(self.p0))
        object.__setattr__(self, "p1", _vec3(self.p1))
        if not 0.0 < self.radius < math.inf:
            raise ValueError("capsule radius must be finite and > 0")


Shape = Sphere | Capsule


@dataclass(frozen=True, eq=False)
class PlacedPrimitive:
    """A collision shape in world frame with its owner tag."""

    shape: Shape
    owner: Owner


def owner_str(owner: Owner) -> str:
    return f"{owner[0]}/{owner[1]}"


def segment_of(shape: Shape) -> tuple[np.ndarray, np.ndarray, float]:
    """Segment-plus-radius view of any shape (sphere -> zero-length segment)."""
    if isinstance(shape, Sphere):
        return shape.center, shape.center, shape.radius
    return shape.p0, shape.p1, shape.radius


def segments_of(prims: list[PlacedPrimitive]) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Stack primitives into (n,3) endpoint arrays and an (n,) radius array."""
    if not prims:
        return np.zeros((0, 3)), np.zeros((0, 3)), np.zeros(0)
    p0s, p1s, radii = zip(*(segment_of(p.shape) for p in prims))
    return np.array(p0s, dtype=float), np.array(p1s, dtype=float), np.array(radii, dtype=float)


def _dot(x, y):
    return np.einsum("...i,...i->...", x, y)


def _clamp01(x):
    return np.minimum(np.maximum(x, 0.0), 1.0)


def segment_distance(p0, p1, q0, q1) -> np.ndarray:
    """Distance between closest points of segments [p0,p1] and [q0,q1].

    Broadcasts over leading dimensions; handles parallel and degenerate
    (point) segments via the clamped closest-point construction. A quotient
    whose denominator is ~0 is replaced where it is used, so each
    denominator is guarded once.
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    d1 = p1 - p0
    d2 = q1 - q0
    r = p0 - q0
    a, e, f, c, b = _dot(d1, d1), _dot(d2, d2), _dot(d2, r), _dot(d1, r), _dot(d1, d2)
    a_ok, e_ok = a > _EPS2, e > _EPS2
    a_safe = np.where(a_ok, a, 1.0)  # s is 0 wherever a is ~0 (last step below)

    denom = a * e - b * b
    d_ok = denom > _EPS2
    s = np.where(d_ok, _clamp01((b * f - c * e) / np.where(d_ok, denom, 1.0)), 0.0)
    t = np.where(e_ok, (b * s + f) / np.where(e_ok, e, 1.0), 0.0)
    tc = _clamp01(t)
    # closest point moved onto the q-segment boundary: recompute s for that edge
    s = np.where(t == tc, s, _clamp01((b * tc - c) / a_safe))
    # degenerate q-segment (t is 0): project q0 onto the p-segment instead
    s = np.where(e_ok, s, _clamp01(-c / a_safe))
    s = np.where(a_ok, s, 0.0)

    diff = (p0 + s[..., None] * d1) - (q0 + tc[..., None] * d2)
    return np.sqrt(_dot(diff, diff))


def segment_aabbs(p0: np.ndarray, p1: np.ndarray, radii: np.ndarray, inflate: float = 0.0):
    """Axis-aligned bounds of capsules given as endpoint/radius arrays."""
    pad = (radii + inflate)[..., None]
    lo = np.minimum(p0, p1) - pad
    hi = np.maximum(p0, p1) + pad
    return lo, hi


def pair_clearances(p0, p1, radii, ii, jj, margin: float) -> np.ndarray:
    """The clearance kernel: every index pair of a flat segment layout in one call.

    `p0`, `p1` are (T, S, 3) segment endpoints of S primitives at T sampled
    times and `radii` their (S,) radii; pair k is (ii[k], jj[k]). Returns
    (T, P) signed clearances, segment distance minus both radii, where the
    two AABBs inflated by margin/2 overlap, and +inf where they do not.
    Segment distances are computed for overlapping pairs only, if any.
    """
    lo, hi = segment_aabbs(p0, p1, radii, margin / 2.0)
    near = np.all(lo[:, ii] <= hi[:, jj], axis=-1) & np.all(lo[:, jj] <= hi[:, ii], axis=-1)
    clear = np.full(near.shape, np.inf)
    t, k = np.nonzero(near)
    if k.size:
        a, b = ii[k], jj[k]
        dist = segment_distance(p0[t, a], p1[t, a], p0[t, b], p1[t, b])
        clear[t, k] = dist - radii[a] - radii[b]
    return clear
