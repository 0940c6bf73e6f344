"""Timed joint-space trajectories: interpolation, held end state, sample grids.

Interpolation is piecewise linear in joint space. After the final waypoint a
trajectory holds its last configuration forever, so sampling is defined for
every t >= 0. Construction is deliberately permissive (only array shapes are
enforced); `validate` reports semantic problems instead of raising, so that
malformed inputs can be diagnosed.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .errors import NegativeTime, NonPositiveStep
from .kinematics import JointState, RobotModel

_traj_counter = itertools.count()

# Relative slack for velocity-limit checks; exact retiming at the limit may
# overshoot by one ulp.
_VEL_SLACK = 1e-9


def _next_id() -> str:
    return f"traj-{next(_traj_counter)}"


@dataclass(eq=False)
class JointTrajectory:
    """Waypoints (time_from_start, positions) for one group."""

    group_id: str
    times: np.ndarray
    positions: np.ndarray
    id: str = field(default_factory=_next_id)

    def __post_init__(self):
        self.times = np.asarray(self.times, dtype=float).reshape(-1)
        self.positions = np.asarray(self.positions, dtype=float)
        if self.positions.ndim != 2 or self.positions.shape[0] != len(self.times):
            raise ValueError("positions must be (n_waypoints, n_joints)")
        if len(self.times) == 0:
            raise ValueError("a trajectory needs at least one waypoint")

    @property
    def duration(self) -> float:
        return float(self.times[-1])


@dataclass(frozen=True)
class Violation:
    kind: str
    detail: str

    def __str__(self) -> str:
        return f"{self.kind}: {self.detail}"


def validate(traj: JointTrajectory, model: RobotModel) -> list[Violation]:
    """All problems that make `traj` unexecutable on `model`; empty list if ok."""
    problems: list[Violation] = []
    if traj.positions.shape[1] != model.n_joints:
        problems.append(
            Violation("DimensionMismatch",
                      f"{traj.positions.shape[1]} joint values, model has {model.n_joints}")
        )
        return problems

    if traj.times[0] != 0.0:
        problems.append(Violation("NonZeroStart", f"first waypoint at t={traj.times[0]}"))
    bad = np.nonzero(np.diff(traj.times) <= 0.0)[0]
    for k in bad:
        problems.append(
            Violation("NonMonotonicTime",
                      f"waypoint {k + 1} at t={traj.times[k + 1]} after t={traj.times[k]}")
        )

    lo, hi = model._lo, model._hi
    for k, q in enumerate(traj.positions):
        if np.any(q < lo) or np.any(q > hi):
            problems.append(Violation("JointLimitViolation", f"waypoint {k} outside limits"))

    if not bad.size:
        dq = np.abs(np.diff(traj.positions, axis=0))
        dt = np.diff(traj.times)[:, None]
        with np.errstate(divide="ignore", invalid="ignore"):
            speed = np.where(dt > 0, dq / dt, 0.0)
        limit = model.joint_velocity_limits * (1.0 + _VEL_SLACK)
        for k in np.nonzero(np.any(speed > limit, axis=1))[0]:
            worst = float(speed[k].max())
            problems.append(
                Violation("VelocityLimit", f"segment {k} average speed {worst:.3f} rad/s")
            )
    return problems


def states_at(traj: JointTrajectory, times) -> np.ndarray:
    """Interpolated positions at an array of query times, shape (m, n_joints).

    Times past the final waypoint yield the held final configuration.
    """
    ts = np.asarray(times, dtype=float).reshape(-1)
    if np.any(ts < 0.0):
        raise NegativeTime("trajectory queried at negative time")
    out = np.empty((len(ts), traj.positions.shape[1]))
    for k in range(traj.positions.shape[1]):
        out[:, k] = np.interp(ts, traj.times, traj.positions[:, k])
    return out


def state_at(traj: JointTrajectory, t: float) -> JointState:
    """Linear interpolation between bracketing waypoints; held state past the end."""
    return JointState(group_id=traj.group_id, positions=states_at(traj, [t])[0])


def grid_size(horizon: float, dt: float) -> int:
    """Number of samples in time_grid(horizon, dt), without building it."""
    if dt <= 0.0:
        raise NonPositiveStep(f"dt must be > 0, got {dt}")
    if horizon < 0.0:
        raise NegativeTime(f"horizon must be >= 0, got {horizon}")
    # multiples k*dt below the forced endpoint (guard scaled so a horizon
    # much smaller than dt still keeps the t=0 sample)
    guard = horizon - min(dt, horizon) * 1e-9
    k = int(np.floor(horizon / dt + 1e-9))
    while k >= 0 and k * dt >= guard:
        k -= 1
    return k + 2


def time_grid(horizon: float, dt: float) -> np.ndarray:
    """Sample times 0, dt, 2*dt, ... plus the horizon endpoint, exactly once.

    Gaps never exceed dt (up to rounding); the last element equals `horizon`.
    """
    return np.append(np.arange(grid_size(horizon, dt) - 1) * dt, horizon)

