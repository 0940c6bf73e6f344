import numpy as np
import pytest

from multiarm import (
    JointTrajectory,
    NegativeTime,
    NonPositiveStep,
    state_at,
    time_grid,
    validate,
)
from multiarm.trajectory import grid_size, states_at

from conftest import planar_arm


def traj(waypoints, group="arm", traj_id=None):
    """A trajectory from [(time, positions), ...]."""
    kwargs = {} if traj_id is None else {"id": traj_id}
    return JointTrajectory(group, [w[0] for w in waypoints], [w[1] for w in waypoints], **kwargs)


def test_single_waypoint_is_valid_hold():
    model = planar_arm("arm")
    t = traj([(0.0, [0.1, 0.2])])
    assert validate(t, model) == []
    assert t.duration == 0.0
    assert np.allclose(state_at(t, 7.0).positions, [0.1, 0.2])


def test_non_monotonic_times_flagged():
    model = planar_arm("arm")
    t = traj([(0.0, [0, 0]), (1.0, [0.5, 0]), (1.0, [0.6, 0])])
    kinds = [v.kind for v in validate(t, model)]
    assert "NonMonotonicTime" in kinds


def test_nonzero_start_flagged():
    model = planar_arm("arm")
    t = traj([(0.5, [0, 0]), (1.0, [0.5, 0])])
    kinds = [v.kind for v in validate(t, model)]
    assert "NonZeroStart" in kinds


def test_velocity_limit_flagged():
    model = planar_arm("arm", vlim=1.0)
    t = traj([(0.0, [0, 0]), (0.1, [np.pi, 0])])  # 31.4 rad/s >> 1 rad/s
    kinds = [v.kind for v in validate(t, model)]
    assert kinds == ["VelocityLimit"]


def test_joint_limit_flagged():
    model = planar_arm("arm", limits=(-1.0, 1.0))
    t = traj([(0.0, [0, 0]), (2.0, [1.5, 0])])
    kinds = [v.kind for v in validate(t, model)]
    assert "JointLimitViolation" in kinds


def test_dimension_mismatch_flagged():
    model = planar_arm("arm")
    t = traj([(0.0, [0, 0, 0]), (1.0, [1, 0, 0])])
    kinds = [v.kind for v in validate(t, model)]
    assert kinds == ["DimensionMismatch"]


def test_exact_speed_at_limit_is_legal():
    model = planar_arm("arm", vlim=0.7)
    t = traj([(0.0, [0, 0]), (2.0 / 0.7, [2.0, 0])])
    assert validate(t, model) == []


def test_state_at_midpoint_and_held():
    t = traj([(0.0, [0.0]), (2.0, [2.0])])
    assert state_at(t, 1.0).positions[0] == pytest.approx(1.0)
    assert state_at(t, 2.0).positions[0] == pytest.approx(2.0)
    assert state_at(t, 5.0).positions[0] == pytest.approx(2.0)


def test_state_at_piecewise():
    t = traj([(0.0, [0, 0]), (1.0, [1, -1]), (3.0, [1, 3])])
    assert np.allclose(state_at(t, 2.0).positions, [1.0, 1.0])


def test_state_at_negative_time():
    t = traj([(0.0, [0.0])])
    with pytest.raises(NegativeTime):
        state_at(t, -0.1)


def test_waypoints_reproduced_exactly(rng):
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.5, 9))])
    positions = rng.uniform(-2, 2, (10, 3))
    t = JointTrajectory("arm", times, positions)
    for k in range(10):
        assert np.array_equal(state_at(t, float(times[k])).positions, positions[k])


def test_state_at_is_continuous(rng):
    times = np.concatenate([[0.0], np.cumsum(rng.uniform(0.05, 0.5, 9))])
    positions = rng.uniform(-2, 2, (10, 2))
    t = JointTrajectory("arm", times, positions)
    slopes = np.abs(np.diff(positions, axis=0) / np.diff(times)[:, None])
    max_slope = float(slopes.max())
    eps = 1e-6
    for _ in range(200):
        at = float(rng.uniform(0, times[-1] - eps))
        step = np.abs(state_at(t, at + eps).positions - state_at(t, at).positions)
        assert np.all(step <= max_slope * eps + 1e-12)


def test_time_grid_basic():
    assert np.allclose(time_grid(1.0, 0.5), [0.0, 0.5, 1.0])
    assert np.allclose(time_grid(1.0, 0.4), [0.0, 0.4, 0.8, 1.0])
    assert np.allclose(time_grid(0.0, 0.5), [0.0])


def test_time_grid_properties(rng):
    for _ in range(200):
        horizon = float(rng.uniform(0.0, 5.0))
        dt = float(rng.uniform(0.01, 1.0))
        ts = time_grid(horizon, dt)
        assert grid_size(horizon, dt) == len(ts)
        assert ts[0] == 0.0
        assert ts[-1] == horizon
        assert np.all(np.diff(ts) > 0)
        assert np.max(np.diff(ts), initial=0.0) <= dt * (1 + 1e-9)


def test_time_grid_nesting():
    coarse = time_grid(3.0, 0.4)
    fine = time_grid(3.0, 0.2)
    assert set(coarse.tolist()) <= set(fine.tolist())


def test_time_grid_tiny_horizon_keeps_origin():
    ts = time_grid(1e-12, 0.05)
    assert ts[0] == 0.0
    assert ts[-1] == 1e-12


def discretize(t, dt, horizon):
    """A trajectory sampled the way the collision checks sample it."""
    ts = time_grid(horizon, dt)
    return ts, states_at(t, ts)


def test_discretize_endpoint_forced():
    t = traj([(0.0, [0.0]), (1.0, [1.0])])
    ts, _ = discretize(t, 0.4, 1.0)
    assert ts == pytest.approx([0.0, 0.4, 0.8, 1.0])


def test_discretize_held_past_duration():
    t = traj([(0.0, [0.0]), (0.3, [3.0])])
    ts, qs = discretize(t, 0.5, 1.0)
    assert ts == pytest.approx([0.0, 0.5, 1.0])
    assert qs[1, 0] == pytest.approx(3.0)
    assert qs[2, 0] == pytest.approx(3.0)


def test_discretize_matches_state_at(rng):
    t = traj([(0.0, [0, 0]), (1.0, [1, -1]), (3.0, [1, 3])])
    for time, q in zip(*discretize(t, 0.17, 4.0)):
        assert np.allclose(q, state_at(t, time).positions)


def test_discretize_rejects_bad_step():
    t = traj([(0.0, [0.0])])
    with pytest.raises(NonPositiveStep):
        discretize(t, 0.0, 1.0)
    with pytest.raises(NegativeTime):
        discretize(t, 0.1, -1.0)


def test_states_at_batch_matches_scalar(rng):
    t = traj([(0.0, [0, 0]), (1.0, [1, -1]), (3.0, [1, 3])])
    ts = rng.uniform(0, 4, 50)
    batch = states_at(t, ts)
    for k, at in enumerate(ts):
        assert np.array_equal(batch[k], state_at(t, float(at)).positions)


def test_trajectory_shape_validation():
    with pytest.raises(ValueError):
        JointTrajectory("arm", [0.0, 1.0], [[0.0, 0.0]])
    with pytest.raises(ValueError):
        JointTrajectory("arm", [], np.zeros((0, 2)))
