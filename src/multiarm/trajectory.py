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
from .kinematics import RobotModel

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
    times, positions = traj.times, traj.positions
    if positions.shape[1] != model.n_joints:
        return [Violation("DimensionMismatch",
                          f"{positions.shape[1]} joint values, model has {model.n_joints}")]
    if not (np.isfinite(times).all() and np.isfinite(positions).all()):
        return [Violation("NonFinite", "waypoint times and positions must be finite")]

    # each check an array test; only the offending rows are looped over
    problems = [Violation("NonZeroStart", f"first waypoint at t={times[0]}")] if times[0] != 0.0 else []
    dt = times[1:] - times[:-1]
    bad = (dt <= 0.0).nonzero()[0]
    problems += [Violation("NonMonotonicTime",
                           f"waypoint {k + 1} at t={times[k + 1]} after t={times[k]}") for k in bad]
    out = ((positions < model._lo) | (positions > model._hi)).any(axis=1).nonzero()[0]
    problems += [Violation("JointLimitViolation", f"waypoint {k} outside limits") for k in out]
    if not bad.size:
        speed = np.abs(positions[1:] - positions[:-1]) / dt[:, None]
        fast = (speed > model.joint_velocity_limits * (1.0 + _VEL_SLACK)).any(axis=1).nonzero()[0]
        problems += [Violation("VelocityLimit", f"segment {k} average speed {speed[k].max():.3f} rad/s")
                     for k in fast]
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


def grid_size(horizon: float, dt: float) -> int:
    """Number of samples in time_grid(horizon, dt), without building it."""
    if dt <= 0.0:
        raise NonPositiveStep(f"dt must be > 0, got {dt}")
    if horizon < 0.0:
        raise NegativeTime(f"horizon must be >= 0, got {horizon}")
    # multiples k*dt below the forced endpoint (guard scaled so a horizon
    # much smaller than dt still keeps the t=0 sample)
    guard = horizon - min(dt, horizon) * 1e-9
    k = int(horizon / dt + 1e-9)  # the floor, as horizon >= 0
    while k >= 0 and k * dt >= guard:
        k -= 1
    return k + 2


def time_grid(horizon: float, dt: float) -> np.ndarray:
    """Sample times 0, dt, 2*dt, ... plus the horizon endpoint, exactly once.

    Gaps never exceed dt (up to rounding); the last element equals `horizon`.
    """
    times = np.arange(grid_size(horizon, dt)) * dt
    times[-1] = horizon
    return times

