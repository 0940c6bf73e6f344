"""Shared builders for planar test arms and randomized scenarios."""

import logging
from contextlib import contextmanager
from unittest import mock

import numpy as np
import pytest

from multiarm import (
    Capsule,
    CheckParams,
    JointSpec,
    JointState,
    LinkGeometry,
    RobotModel,
    RunParams,
    Scenario,
    Scene,
    Task,
    candidate_sweep,
    composite_state_check,
    executor,
    plan_joint_line,
    pose,
)
from multiarm.collision import Layout, Monitor

# The shipped fixture parameters deliberately violate the margin/dt soundness
# bound (they rely on large true clearances instead); silence the warning in
# the test run to keep output readable.
logging.getLogger("multiarm.executor").setLevel(logging.ERROR)


def planar_arm(
    group,
    base_xyz=(0.0, 0.0, 0.0),
    lengths=(0.5, 0.5),
    radius=0.05,
    vlim=1.0,
    limits=(-4.8, 4.8),
    base_rpy=(0.0, 0.0, 0.0),
):
    joints = []
    links = []
    prev = (0.0, 0.0, 0.0)
    for i, length in enumerate(lengths):
        joints.append(JointSpec.from_xyz_rpy(axis=(0, 0, 1), xyz=prev, limits=limits))
        links.append(LinkGeometry(frame=i, shape=Capsule((0, 0, 0), (length, 0, 0), radius)))
        prev = (length, 0.0, 0.0)
    return RobotModel(
        group_id=group,
        base_pose=pose(base_xyz, base_rpy),
        joints=joints,
        links=links,
        joint_velocity_limits=[vlim] * len(lengths),
    )


def facing_pair(gap=1.5, lengths=(0.5, 0.5), vlims=(1.0, 1.0), radius=0.05):
    """Two arms on the y axis, bases gap apart, shared workspace in between."""
    left = planar_arm("left", (0.0, -gap / 2, 0.0), lengths, radius, vlims[0])
    right = planar_arm("right", (0.0, gap / 2, 0.0), lengths, radius, vlims[1])
    return left, right


def scene_of(models, idle, obstacles=()):
    return Scene(
        robots={m.group_id: m for m in models},
        idle_postures={m.group_id: JointState(m.group_id, q) for m, q in zip(models, idle)},
        static_obstacles=list(obstacles),
    )


def sweep_traj(model, q0, q1, traj_id=None):
    return plan_joint_line(
        model, JointState(model.group_id, q0), JointState(model.group_id, q1), traj_id
    )


def running_check(candidate, running, now, params, models):
    """The candidate's check against one running record, on its own."""
    (report,) = candidate_sweep(candidate, now, params, Layout(models, []), [running])
    return report


def crossing_case(rng, dt=0.01):
    """A randomized pair of opposed sweeps through the shared center.

    The margin always satisfies the soundness condition
    margin >= 2 * (combined speed bound) * dt.
    """
    vlims = (float(rng.uniform(0.2, 0.5)), float(rng.uniform(0.2, 0.5)))
    left, right = facing_pair(gap=float(rng.uniform(1.3, 1.6)), vlims=vlims)
    amp_l = float(rng.uniform(0.6, 1.2))
    amp_r = float(rng.uniform(0.6, 1.2))
    elbow_l = float(rng.uniform(-0.3, 0.3))
    elbow_r = float(rng.uniform(-0.3, 0.3))
    running = sweep_traj(left, [np.pi / 2 - amp_l, elbow_l], [np.pi / 2 + amp_l, elbow_l], "running")
    candidate = sweep_traj(
        right, [-np.pi / 2 + amp_r, elbow_r], [-np.pi / 2 - amp_r, elbow_r], "candidate"
    )
    start = float(rng.uniform(0.0, 0.3 * running.duration))
    now = start + float(rng.uniform(0.0, 0.4 * running.duration))
    bound = left.max_cartesian_speed_bound + right.max_cartesian_speed_bound
    params = CheckParams(dt=dt, margin=2.0 * bound * dt * 1.05)
    models = {"left": left, "right": right}
    return candidate, running, start, now, params, models


def random_scenario(rng):
    """A small randomized two-arm scenario for whole-pipeline runs.

    Submission times are non-decreasing within each group so that task
    chains arrive in program order.
    """
    vlims = (float(rng.uniform(0.4, 1.0)), float(rng.uniform(0.4, 1.0)))
    left, right = facing_pair(gap=float(rng.uniform(1.4, 1.8)), vlims=vlims)
    idle_l = [np.pi / 2 - float(rng.uniform(0.8, 1.2)), float(rng.uniform(-0.2, 0.2))]
    idle_r = [-np.pi / 2 + float(rng.uniform(0.8, 1.2)), float(rng.uniform(-0.2, 0.2))]
    scene = scene_of([left, right], [idle_l, idle_r])
    tasks = []
    for group in ("left", "right"):
        centre = np.pi / 2 if group == "left" else -np.pi / 2
        submit = 0.0
        for _ in range(int(rng.integers(1, 4))):
            goal = [centre + float(rng.uniform(-1.2, 1.2)), float(rng.uniform(-0.3, 0.3))]
            tasks.append(
                Task(
                    group_id=group,
                    goal=JointState(group, goal),
                    submit_time=submit,
                    timeout=float(rng.uniform(2.0, 12.0)),
                )
            )
            submit += float(rng.uniform(0.0, 0.5))
    # sound discretization: margin above 2 * combined speed bound * dt
    dt = 0.01
    combined = left.max_cartesian_speed_bound + right.max_cartesian_speed_bound
    params = RunParams(
        check=CheckParams(dt=dt, margin=2.0 * combined * dt * 1.02), tick_length=0.01
    )
    return Scenario(scene=scene, tasks=tasks, seed=int(rng.integers(0, 2**31)), params=params)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@contextmanager
def monitor_oracle(scene):
    """Check every monitor check of the managers built on `scene` inside the
    block against composite_state_check of every arm's state: the same
    verdict, and the same witness, time and minimum when colliding.

    Yields counts of the checks, of those that measured nothing because no
    pair was due, and of the colliding ones.
    """
    counts = {"checks": 0, "skipped": 0, "colliding": 0}

    class CheckedMonitor(Monitor):
        def check(self, clock, states_of):
            skipped = not np.any(self.safe_until <= clock)
            report = super().check(clock, states_of)
            full = composite_state_check(states_of(sorted(scene.robots)), scene, self.margin)
            assert report.colliding == full.colliding, clock
            if full.colliding:
                assert report == full, clock
            counts["checks"] += 1
            counts["skipped"] += skipped
            counts["colliding"] += full.colliding
            return report

    with mock.patch.object(executor, "Monitor", CheckedMonitor):
        yield counts
