"""Serial revolute chains and world-frame placement of their collision shapes.

A robot is a base pose followed by revolute joints, each defined by a fixed
rigid offset from its parent frame and a rotation axis. Collision geometry
(capsules or spheres) is attached to joint frames and placed by forward
kinematics, batched over configurations and over arms of one structure.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, field

import numpy as np

from .errors import DimensionMismatch
from .geometry import Shape, _vec3, segment_of

# Interpolated states may overshoot a limit by rounding; FK tolerates this much.
_LIMIT_SLACK = 1e-9

_EYE = np.eye(3)


def rotation_about_axis(axis: np.ndarray, angle) -> np.ndarray:
    """Rodrigues rotation matrix; `angle` may be a scalar or an array."""
    a = np.asarray(axis, dtype=float)
    return _rodrigues(_skew(a), np.outer(a, a), angle)


def _rodrigues(k, outer, angle) -> np.ndarray:
    """cos(angle) I + sin(angle) K + (1 - cos(angle)) a a^T, broadcast over angle."""
    th = np.asarray(angle, dtype=float)
    c = np.cos(th)[..., None, None]
    s = np.sin(th)[..., None, None]
    return c * _EYE + s * k + (1.0 - c) * outer


def _is_index(value) -> bool:
    """An integer, which a boolean is not."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _skew(a) -> np.ndarray:
    return np.array([[0.0, -a[2], a[1]], [a[2], 0.0, -a[0]], [-a[1], a[0], 0.0]])


def rpy_matrix(rpy) -> np.ndarray:
    """Rotation from roll-pitch-yaw (extrinsic x-y-z, i.e. Rz @ Ry @ Rx)."""
    r, p, y = (float(v) for v in rpy)
    if not all(math.isfinite(v) for v in (r, p, y)):
        raise ValueError("roll-pitch-yaw angles must be finite")
    rx = rotation_about_axis([1.0, 0.0, 0.0], r)
    ry = rotation_about_axis([0.0, 1.0, 0.0], p)
    rz = rotation_about_axis([0.0, 0.0, 1.0], y)
    return rz @ ry @ rx


def pose(xyz=(0.0, 0.0, 0.0), rpy=(0.0, 0.0, 0.0)) -> np.ndarray:
    """Homogeneous 4x4 transform from a translation and roll-pitch-yaw."""
    m = np.eye(4)
    m[:3, :3] = rpy_matrix(rpy)
    m[:3, 3] = np.asarray(xyz, dtype=float)
    return m


@dataclass(frozen=True, eq=False)
class JointSpec:
    """One revolute joint: fixed offset from the parent frame, then rotation."""

    axis: np.ndarray
    origin_offset: np.ndarray  # 4x4 rigid transform, applied before the rotation
    position_limits: tuple[float, float]

    def __post_init__(self):
        axis = np.asarray(self.axis, dtype=float)
        if axis.shape != (3,):
            raise ValueError("joint axis must be a 3-vector")
        if not abs(np.linalg.norm(axis) - 1.0) <= 1e-9:
            raise ValueError("joint axis must have unit norm")
        origin = np.asarray(self.origin_offset, dtype=float)
        if origin.shape != (4, 4) or not np.all(np.isfinite(origin)):
            raise ValueError("origin_offset must be a finite 4x4 transform")
        _vec3(origin[:3, 3], "a joint's origin_offset")
        lo, hi = (float(v) for v in self.position_limits)
        if not -math.inf < lo <= hi < math.inf:
            raise ValueError("position limits must be finite and satisfy lo <= hi")
        object.__setattr__(self, "axis", axis)
        object.__setattr__(self, "origin_offset", origin)
        object.__setattr__(self, "position_limits", (lo, hi))

    @classmethod
    def from_xyz_rpy(cls, axis, xyz=(0.0, 0.0, 0.0), rpy=(0.0, 0.0, 0.0), limits=(-np.pi, np.pi)):
        return cls(axis=axis, origin_offset=pose(xyz, rpy), position_limits=tuple(limits))


@dataclass(frozen=True, eq=False)
class LinkGeometry:
    """A collision shape expressed in the frame of joint `frame`."""

    frame: int
    shape: Shape


@dataclass(frozen=True, eq=False)
class JointState:
    group_id: str
    positions: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "positions", np.asarray(self.positions, dtype=float).reshape(-1))


@dataclass(eq=False)
class RobotModel:
    """A serial chain plus its collision capsules and self-collision exemptions.

    `allowed_pairs` lists link-index pairs exempt from self-collision checks.
    Pairs of links that are adjacent (consecutive in the links list, or
    attached to the same joint frame) are always added automatically, since
    chained capsules touch by construction.

    `max_cartesian_speed_bound` is a conservative upper bound on the speed of
    any point of any placed primitive while every joint respects its velocity
    limit: sum_j vlim_j * reach_j, where reach_j bounds, by the triangle
    inequality, how far a surface point of a link that joint j moves can be
    from joint j's origin: `chain[f]` sums the norms of the offsets of joints
    1..f, so a link of frame f lies within `chain[f] - chain[j]` plus its
    farthest surface point of joint j's origin.
    """

    group_id: str
    base_pose: np.ndarray
    joints: list[JointSpec]
    links: list[LinkGeometry]
    joint_velocity_limits: np.ndarray
    allowed_pairs: set[tuple[int, int]] = field(default_factory=set)
    max_cartesian_speed_bound: float = field(init=False)

    def __post_init__(self):
        self.base_pose = np.asarray(self.base_pose, dtype=float)
        if self.base_pose.shape != (4, 4) or not np.all(np.isfinite(self.base_pose)):
            raise ValueError("base_pose must be a finite 4x4 transform")
        _vec3(self.base_pose[:3, 3], f"the base_pose of '{self.group_id}'")
        self.joint_velocity_limits = np.asarray(self.joint_velocity_limits, dtype=float).reshape(-1)
        if len(self.joint_velocity_limits) != len(self.joints):
            raise ValueError("need one velocity limit per joint")
        if not np.all((self.joint_velocity_limits > 0.0) & np.isfinite(self.joint_velocity_limits)):
            raise ValueError("velocity limits must be finite and > 0")
        for link in self.links:
            frame = link.frame
            if not _is_index(frame):
                raise ValueError(f"link frame must be a joint index, got {frame!r}")
            if not 0 <= frame < len(self.joints):
                raise ValueError(f"link frame {frame} out of range")

        self.allowed_pairs = {tuple(sorted(p)) for p in self.allowed_pairs}
        for pair in self.allowed_pairs:
            if len(pair) != 2 or not all(_is_index(k) and 0 <= k < len(self.links) for k in pair):
                raise ValueError(f"allowed pair {pair!r} is not two link indices in range")
        self.allowed_pairs |= self._adjacent_pairs()

        # cached arrays for the batch FK path
        axes = np.array([j.axis for j in self.joints]).reshape(-1, 3)
        self._k = np.array([_skew(a) for a in axes]).reshape(-1, 3, 3)
        self._outer = axes[:, :, None] * axes[:, None, :]
        self._r_off = np.array([j.origin_offset[:3, :3] for j in self.joints]).reshape(-1, 3, 3)
        self._t_off = np.array([j.origin_offset[:3, 3] for j in self.joints]).reshape(-1, 3)
        self._lo = np.array([j.position_limits[0] for j in self.joints])
        self._hi = np.array([j.position_limits[1] for j in self.joints])
        segs = [segment_of(link.shape) for link in self.links]
        self._local_p0 = np.array([s[0] for s in segs]).reshape(-1, 3)
        self._local_p1 = np.array([s[1] for s in segs]).reshape(-1, 3)
        self._radii = np.array([s[2] for s in segs]).reshape(-1)
        self._frames = np.array([link.frame for link in self.links], dtype=int)
        # farthest surface point of each link from its frame origin
        far = np.maximum(
            np.linalg.norm(self._local_p0, axis=1), np.linalg.norm(self._local_p1, axis=1)
        ) + self._radii
        chain = np.append(0.0, np.cumsum(np.linalg.norm(self._t_off[1:], axis=1)))
        moved = self._frames >= np.arange(len(self.joints))[:, None]  # (J, L)
        reach = np.where(moved, chain[self._frames] - chain[:, None] + far, 0.0).max(axis=1, initial=0.0)
        self.max_cartesian_speed_bound = float(self.joint_velocity_limits @ reach)

    def _adjacent_pairs(self) -> set[tuple[int, int]]:
        pairs = set()
        order = sorted(range(len(self.links)), key=lambda i: (self.links[i].frame, i))
        for a, b in zip(order, order[1:]):
            pairs.add(tuple(sorted((a, b))))
        for i in range(len(self.links)):
            for j in range(i + 1, len(self.links)):
                if self.links[i].frame == self.links[j].frame:
                    pairs.add((i, j))
        return pairs

    @property
    def n_joints(self) -> int:
        return len(self.joints)

    @property
    def n_links(self) -> int:
        return len(self.links)

    def owners(self) -> list[tuple[str, int]]:
        return [(self.group_id, i) for i in range(len(self.links))]


def within_limits(model: RobotModel, q: JointState, tol: float = 0.0) -> bool:
    """True iff every coordinate lies in its closed limit interval."""
    positions = q.positions
    if positions.shape != (model.n_joints,):
        raise DimensionMismatch(
            f"{model.group_id}: expected {model.n_joints} joint values, got {positions.shape}"
        )
    return bool(np.all(positions >= model._lo - tol) and np.all(positions <= model._hi + tol))


# per-arm constants that ArmStack stacks
_STACKED = ("base_pose", "_r_off", "_t_off", "_k", "_outer", "_local_p0", "_local_p1", "_lo", "_hi")


class ArmStack:
    """Batched forward kinematics of arms that share joint count and link frames.

    Each arm keeps its own base pose, joint offsets, axes, limits and link
    shapes; only the structure (which joint frame carries which link) must
    agree, so one sequence of array operations places any rows of any arms
    at once, with the same arithmetic per row as placing it alone.
    """

    def __init__(self, models: list[RobotModel]):
        self.n_joints, self.frames = models[0].n_joints, models[0]._frames
        same = (m.n_joints == self.n_joints and np.array_equal(m._frames, self.frames) for m in models)
        if not all(same):
            raise ValueError("stacked arms must share joint count and link frames")
        self.arrays = {name: np.array([getattr(m, name) for m in models]) for name in _STACKED}

    def place(self, q, arms) -> tuple[np.ndarray, np.ndarray]:
        """World endpoints (N, L, 3) of every link primitive.

        `q` is an (N, J) batch of configurations and `arms` (N,) the stack
        member of each row; each constant is gathered once, and every joint's
        rotation is built in one batch. No limit checking happens here.
        """
        a = self.arrays
        base = a["base_pose"][arms]
        rot, trans = base[:, :3, :3], base[:, :3, 3]
        t_off, r_off = a["_t_off"][arms], a["_r_off"][arms]
        turn = _rodrigues(a["_k"][arms], a["_outer"][arms], q)
        r = np.empty((len(q), self.n_joints, 3, 3))  # each joint's frame
        t = np.empty((len(q), self.n_joints, 3))
        for j in range(self.n_joints):
            t[:, j] = trans = trans + np.einsum("...ij,...j->...i", rot, t_off[:, j])
            r[:, j] = rot = rot @ r_off[:, j] @ turn[:, j]
        r, t = r.take(self.frames, axis=1), t.take(self.frames, axis=1)  # each link's frame
        p0 = t + np.einsum("...lij,...lj->...li", r, a["_local_p0"][arms])
        p1 = t + np.einsum("...lij,...lj->...li", r, a["_local_p1"][arms])
        return p0, p1

