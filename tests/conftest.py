"""Shared builders for planar test arms and randomized scenarios."""

import json
import logging
import math
import weakref
from contextlib import contextmanager
from pathlib import Path
from unittest import mock

import numpy as np
import pytest

from multiarm import (
    Capsule,
    CheckParams,
    ExecutionManager,
    JointSpec,
    JointState,
    LinkGeometry,
    RobotModel,
    RunParams,
    Scenario,
    Scene,
    Task,
    Timeline,
    collision,
    composite_state_check,
    executor,
    fixture_path,
    harness,
    load_scenario,
    plan_joint_line,
    pose,
)
from multiarm.collision import Layout, Monitor
from multiarm.geometry import owner_str
from multiarm.harness import FIXTURES, scenario_from_dict
from multiarm.kinematics import ArmStack

from oracles import monitor_window, state_at, sweep_reads

DATA = Path(__file__).parent / "data"

# the runs whose logs tests/test_golden.py pins: a shipped fixture or a file
# of tests/data, the mode, and the monitor period of the halting ring (the
# ring with the check against parked arms off), or None
PINNED_RUNS = [(name, mode, None) for name in FIXTURES for mode in ("async", "sync")]
PINNED_RUNS += [("ring16_901.json", "async", None), ("batch_small.json", "async", None),
                ("ring16_901.json", "async", 1), ("ring16_901.json", "async", 5)]


def pinned_scenario(name, period=None):
    if name in FIXTURES:
        return load_scenario(fixture_path(name))
    data = json.loads((DATA / name).read_text())
    if period is not None:
        data["params"].update(check_static=False, monitor_period=period)
    return scenario_from_dict(data)


@contextmanager
def announcing(on):
    """Run each `harness.run` inside the block with its whole plan announced
    before its first submission (`on`), whether or not the run checks
    parked arms, or with nothing announced."""
    if not on:
        with mock.patch.object(ExecutionManager, "announce", lambda mgr, trajectories: None):
            yield
        return
    plans = []
    plan_tasks, submit = harness.plan_tasks, ExecutionManager.submit

    def planned(scenario):
        plans.append(plan_tasks(scenario))
        return plans[-1]

    def announced_submit(mgr, traj, timeout):
        if not mgr._entries:
            mgr.announce(plans[-1])
        return submit(mgr, traj, timeout)

    with mock.patch.object(harness, "plan_tasks", planned), \
            mock.patch.object(ExecutionManager, "submit", announced_submit):
        yield


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


def timeline_sweep(candidate, now, params, layout, running, parked=None):
    """A new monitor's sweep on a Timeline of the `running` records, each arm
    held at its first waypoint before its run, and of the `parked` postures
    (by group, or None for no check against obstacles and parked arms)."""
    timeline = Timeline(dict(parked or {}))
    for rec in running:
        g = rec.trajectory.group_id
        timeline.held.setdefault(g, JointState(g, rec.trajectory.positions[0]))
        timeline.runs[g].append(rec)
    groups = [rec.trajectory.group_id for rec in running]
    return Monitor(layout, params).sweep(candidate, now, timeline, groups,
                                         None if parked is None else list(parked))


def running_check(candidate, running, now, params, models):
    """The candidate's check against one running record, on its own."""
    (report,) = timeline_sweep(candidate, now, params, Layout(models, []), [running])
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
    # the draw of the seed that scenarios no longer carry, which keeps every later one the same
    rng.integers(0, 2**31)
    return Scenario(scene=scene, tasks=tasks, params=params)


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


@contextmanager
def monitor_oracle(scene):
    """Check the managers built on `scene` inside the block against
    composite_state_check of every arm's state at every monitor tick at
    which an arm runs at step 5, whether or not the tick ran the steps: the
    tick must log a COLLISION_HALT exactly when the full check collides, each
    with the full check's witness and minimum. An arm ran at step 5 if one
    runs after the tick, or if the tick halted them. After every wake and
    check, the monitor's `next_due` must be its earliest safe-until time.

    Yields counts of the instants compared (`instants`) and of the colliding
    ones, of the monitor's checks, of those that found a pair due, and of
    those that measured no pair because the box filter retired every due one.
    """
    counts = {"instants": 0, "colliding": 0, "checks": 0, "due": 0, "retired": 0}
    tick = ExecutionManager.tick

    def assert_next(monitor):
        assert monitor.next_due == min(monitor.safe_until, default=math.inf)

    class CheckedMonitor(Monitor):
        def wake(self, g):
            super().wake(g)
            assert_next(self)

        def check(self, clock, window):
            due = bool(np.any(self.safe_until <= clock))
            built = []
            report = super().check(clock, lambda *args: built.append(True) or window(*args))
            counts["checks"] += 1
            counts["due"] += due
            counts["retired"] += due and not built
            assert_next(self)
            return report

    def checked_tick(mgr):
        events = tick(mgr)
        halts = [e.values for e in events if e.kind == "COLLISION_HALT"]
        if (isinstance(mgr._monitor, CheckedMonitor) and mgr.tick_index % mgr.monitor_period == 0
                and (halts or mgr._running)):
            full = composite_state_check(mgr.current_states(), scene, mgr.params.margin)
            assert bool(halts) == full.colliding, mgr.clock
            if full.colliding:
                witness = "|".join(map(owner_str, full.witness))
                assert set(halts) == {(witness, full.min_clearance_seen)}, mgr.clock
            counts["instants"] += 1
            counts["colliding"] += full.colliding
        return events

    with mock.patch.object(executor, "Monitor", CheckedMonitor), \
            mock.patch.object(ExecutionManager, "tick", checked_tick):
        yield counts


def same_bits(got, want):
    """`got` equals `want` bit for bit, a (1, J) held row standing for every row."""
    got, want = np.atleast_1d(got), np.atleast_1d(want)
    shape = np.broadcast_shapes(got.shape, want.shape)
    return np.array_equal(np.broadcast_to(got, shape).view(np.uint64),
                          np.broadcast_to(want, shape).view(np.uint64))


@contextmanager
def timeline_oracle():
    """Check the timeline reads of every manager run inside the block against
    the builders `Timeline.at` replaced (`oracles.sweep_reads` and
    `oracles.monitor_window`), bit for bit: at each admission check, every
    running and parked arm at `now` plus the sweep's grid; at each monitor
    window, the instants and every arm's positions at them. The parked
    postures the old builders read are kept apart, as `_stop` once set them.

    Yields counts of the arm reads compared, by kind.
    """
    counts = {"admission": 0, "window": 0}
    postures = weakref.WeakKeyDictionary()  # by timeline: each arm's parked posture

    def parked(timeline):
        return postures.setdefault(timeline, dict(timeline.held))

    stop, window, sweep = ExecutionManager._stop, ExecutionManager._window, Monitor.sweep

    def checked_stop(mgr, g, elapsed):
        parked(mgr._timeline)[g] = state_at(mgr._timeline.runs[g][-1].trajectory, elapsed)
        stop(mgr, g, elapsed)

    def checked_window(mgr, groups, limit):
        times, q, cut = window(mgr, groups, limit)
        running = {g: mgr._timeline.runs[g][-1] for g in mgr._running}
        want = monitor_window(mgr, running, parked(mgr._timeline), groups, limit)
        assert same_bits(times, want[0]) and cut == want[2]
        for g in groups:
            assert same_bits(q[g], want[1][g]), (mgr.clock, g)
        counts["window"] += len(groups)
        return times, q, cut

    def checked_sweep(monitor, candidate, now, timeline, running, parked_groups=None):
        runs = [timeline.runs[g][-1] for g in running]
        times, want = sweep_reads(candidate, now, monitor.params, runs)
        want.update((g, parked(timeline)[g].positions[None]) for g in parked_groups or ())
        got = timeline.at(want, times, since=now)
        for g in want:
            assert same_bits(got[g], want[g]), (now, g)
        counts["admission"] += len(want)
        return sweep(monitor, candidate, now, timeline, running, parked_groups)

    with mock.patch.object(ExecutionManager, "_stop", checked_stop), \
            mock.patch.object(ExecutionManager, "_window", checked_window), \
            mock.patch.object(Monitor, "sweep", checked_sweep):
        yield counts


def same_report(got, want):
    """Equal field for field, the minimum bit for bit."""
    return got == want and got.min_clearance_seen.hex() == want.min_clearance_seen.hex()


def no_box_apart(a, b):
    """`collision._apart` with no two boxes apart, in its shape."""
    return np.zeros(np.broadcast_shapes(np.shape(a), np.shape(b))[:-1], dtype=bool)


@contextmanager
def cull_oracle():
    """Check every admission sweep inside the block against the same sweep
    with no boxes: no two boxes apart, so every running and parked arm placed
    and paired, on a new monitor: no placement kept from an earlier sweep,
    and no box table but its own. Every report must be the same, field for
    field.

    Yields counts of the sweeps, and of the running arms that the box table
    left with no pair, reported `FAR` without placing them.
    """
    counts = {"sweeps": 0, "culled": 0}
    sweep = Monitor.sweep
    place = Layout.place

    def checked(monitor, candidate, now, timeline, running, parked=None):
        placed_groups = []

        def spy(self, q, *args):
            placed_groups.extend(q)
            return place(self, q, *args)

        with mock.patch.object(Layout, "place", spy):
            got = sweep(monitor, candidate, now, timeline, running, parked)
        with mock.patch.object(collision, "_apart", no_box_apart):
            want = sweep(Monitor(monitor.layout, monitor.params), candidate, now, timeline, running, parked)
        assert len(got) == len(want)
        for report, reference in zip(got, want):
            assert same_report(report, reference), (now, candidate.id)
        counts["sweeps"] += 1
        counts["culled"] += sum(g not in placed_groups for g in running)
        return got

    with mock.patch.object(Monitor, "sweep", checked):
        yield counts


@contextmanager
def work_counts():
    """Count, inside the block, the `ArmStack.place` calls (`calls`), the
    configurations they place (`rows`), the layout-wide endpoint arrays
    `Layout.spread` builds for the kernel (`arrays`), the collision kernel's
    calls (`kernels`), the pair-samples it measures (`pair_samples`), the
    `ExecutionManager.tick` calls (`ticks`) and those that ran the scheduler's
    five steps (`full_ticks`). The steps start by reading the manager's
    `clock`; a tick that only advances the clock never reads it."""
    counts = {"calls": 0, "rows": 0, "arrays": 0, "kernels": 0, "pair_samples": 0,
              "ticks": 0, "full_ticks": 0}
    stack_place, spread, kernel = ArmStack.place, Layout.spread, collision.pair_clearances
    tick, clock = ExecutionManager.tick, ExecutionManager.clock
    read = [False]

    def spy_stack(self, q, arms):
        counts["calls"] += 1
        counts["rows"] += len(q)
        return stack_place(self, q, arms)

    def spy_spread(self, placed):
        counts["arrays"] += 1
        return spread(self, placed)

    def spy_kernel(p0, p1, radii, ii, jj, margin):
        counts["kernels"] += 1
        counts["pair_samples"] += len(p0) * len(ii)
        return kernel(p0, p1, radii, ii, jj, margin)

    def spy_clock(self):
        read[0] = True
        return clock.fget(self)

    def spy_tick(self):
        read[0] = False
        events = tick(self)
        counts["ticks"] += 1
        counts["full_ticks"] += read[0]
        return events

    with mock.patch.object(ArmStack, "place", spy_stack), \
            mock.patch.object(Layout, "spread", spy_spread), \
            mock.patch.object(collision, "pair_clearances", spy_kernel), \
            mock.patch.object(ExecutionManager, "clock", property(spy_clock)), \
            mock.patch.object(ExecutionManager, "tick", spy_tick):
        yield counts
