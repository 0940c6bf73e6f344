"""Closed-form clearance between sphere/capsule primitives plus an AABB broadphase.

Every primitive is reduced internally to a segment with a radius (a sphere is
a degenerate capsule), so a single segment-segment distance kernel covers all
shape combinations. The kernel is vectorized; scalar entry points wrap it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import NonFiniteInput

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


@dataclass(frozen=True)
class Clearance:
    """Signed surface-to-surface distance; negative means penetration."""

    signed_distance: float
    witness: tuple[Owner, Owner] | None = None


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


def _safe_div(num, den, fallback=0.0):
    ok = den > _EPS2
    return np.where(ok, num / np.where(ok, den, 1.0), fallback)


def segment_distance(p0, p1, q0, q1) -> np.ndarray:
    """Distance between closest points of segments [p0,p1] and [q0,q1].

    Broadcasts over leading dimensions; handles parallel and degenerate
    (point) segments via the clamped closest-point construction.
    """
    p0 = np.asarray(p0, dtype=float)
    p1 = np.asarray(p1, dtype=float)
    q0 = np.asarray(q0, dtype=float)
    q1 = np.asarray(q1, dtype=float)
    d1 = p1 - p0
    d2 = q1 - q0
    r = p0 - q0
    a = np.einsum("...i,...i->...", d1, d1)
    e = np.einsum("...i,...i->...", d2, d2)
    f = np.einsum("...i,...i->...", d2, r)
    c = np.einsum("...i,...i->...", d1, r)
    b = np.einsum("...i,...i->...", d1, d2)

    denom = a * e - b * b
    s = np.where(denom > _EPS2, np.clip(_safe_div(b * f - c * e, denom), 0.0, 1.0), 0.0)
    t = _safe_div(b * s + f, e)
    tc = np.clip(t, 0.0, 1.0)
    # closest point moved onto the q-segment boundary: recompute s for that edge
    s = np.where(t == tc, s, np.clip(_safe_div(b * tc - c, a), 0.0, 1.0))
    # degenerate q-segment: project q0 onto the p-segment instead
    s = np.where(e > _EPS2, s, np.clip(_safe_div(-c, a), 0.0, 1.0))
    s = np.where(a > _EPS2, s, 0.0)
    t = np.where(e > _EPS2, tc, 0.0)

    diff = (p0 + s[..., None] * d1) - (q0 + t[..., None] * d2)
    return np.sqrt(np.einsum("...i,...i->...", diff, diff))


def segment_segment_distance(a0, a1, b0, b1) -> float:
    """Scalar entry point with finiteness checking."""
    pts = np.array([a0, a1, b0, b1], dtype=float)
    if pts.shape != (4, 3):
        raise ValueError("segment endpoints must be 3-vectors")
    if not np.all(np.isfinite(pts)):
        raise NonFiniteInput("segment endpoints must be finite")
    return float(segment_distance(pts[0], pts[1], pts[2], pts[3]))


def _canonical_key(shape: Shape) -> tuple:
    p0, p1, r = segment_of(shape)
    return (*p0.tolist(), *p1.tolist(), r)


def primitive_clearance(a: PlacedPrimitive, b: PlacedPrimitive) -> Clearance:
    """Signed surface-to-surface clearance between two placed primitives.

    The operand order is canonicalized before the distance computation so that
    primitive_clearance(a, b) and primitive_clearance(b, a) are bit-identical.
    """
    pa, pb = a.shape, b.shape
    if _canonical_key(pb) < _canonical_key(pa):
        pa, pb = pb, pa
    a0, a1, ra = segment_of(pa)
    b0, b1, rb = segment_of(pb)
    axis = segment_segment_distance(a0, a1, b0, b1)
    return Clearance(signed_distance=axis - ra - rb, witness=(a.owner, b.owner))


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
