"""The box table of admission: a pair of a candidate link and a link or
obstacle whose boxes stay more than the margin apart is not paired, and a
running arm left with no pair is not placed.

Every sweep of the pinned runs and of the scheduler's random sequences must
report what a sweep with no boxes reports (`conftest.cull_oracle`); each row
of a run's box must hold its link at every instant the timeline can read;
and on the 16-arm ring the boxes must cut the forward kinematics and the
kernel's work. `test_wake.py` checks that the table holds every arm after
every operation of its random cells.
"""

import json
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from multiarm import (
    CheckParams,
    ExecutionManager,
    JointState,
    JointTrajectory,
    RunningRecord,
    Timeline,
    collision,
    executor,
    fixture_path,
    load_scenario,
    run,
)
from multiarm.collision import BoxTable, Layout, Placed, candidate_sweep
from multiarm.geometry import segment_aabbs
from multiarm.harness import FIXTURES, scenario_from_dict

from conftest import (
    PINNED_RUNS,
    cull_oracle,
    facing_pair,
    no_box_apart,
    pinned_scenario,
    planar_arm,
    same_report,
    scene_of,
    sweep_traj,
    work_counts,
)
from test_scheduler_properties import IDLE, drive, ops

DATA = Path(__file__).parent / "data"


@pytest.mark.parametrize("name, mode, period", PINNED_RUNS)
def test_every_sweep_of_the_pinned_runs_reports_as_with_no_boxes(name, mode, period):
    scenario = pinned_scenario(name, period)
    with cull_oracle() as counts:
        run(scenario, mode)
    assert counts["sweeps"] > 0
    if name == "ring16_901.json":
        assert counts["culled"] > 0


@settings(derandomize=True, max_examples=200, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(st.booleans(), ops)
def test_every_sweep_of_random_sequences_reports_as_with_no_boxes(check_static, sequence):
    scene = scene_of(facing_pair(gap=1.2), [IDLE["left"], IDLE["right"]])
    with cull_oracle():
        drive(scene, check_static, sequence)


def run_box(model, traj, dt):
    """The box admission gives a run of `traj`, as a sweep of it at `dt` places it."""
    placed = Placed()
    g = model.group_id
    timeline = Timeline({g: JointState(g, traj.positions[0])})
    params = CheckParams(dt=dt)
    table = BoxTable(Layout({g: model}, []), params.margin)
    candidate_sweep(traj, 0.0, params, table, timeline, [], None, placed)
    return placed.run_box(model, params)


MODELS = {
    "one_link": planar_arm("arm", lengths=(1.0,), radius=0.01, vlim=2.0),
    "three_links": planar_arm("arm", lengths=(0.4, 0.3, 0.2), radius=0.03, vlim=1.5),
    "panda": load_scenario(fixture_path("panda_like_shared.json")).scene.robots["arm_a"],
}


def test_a_sweep_refuses_a_table_at_another_margin():
    """A table at a smaller margin would cull pairs within the sweep's margin."""
    model = MODELS["one_link"]
    traj = JointTrajectory("arm", [0.0, 1.0], [[0.0], [1.0]])
    timeline = Timeline({"arm": JointState("arm", [0.0])})
    table = BoxTable(Layout({"arm": model}, []), 0.01)
    with pytest.raises(ValueError, match="margin"):
        candidate_sweep(traj, 0.0, CheckParams(dt=0.05, margin=0.02), table, timeline, [])
    assert candidate_sweep(traj, 0.0, CheckParams(dt=0.05, margin=0.01), table, timeline, []) == []


fractions = st.floats(0.0, 1.0)


@settings(derandomize=True, max_examples=300, deadline=None)
@given(
    st.sampled_from(sorted(MODELS)),
    st.lists(st.lists(fractions, min_size=7, max_size=7), min_size=2, max_size=5),
    st.floats(0.002, 0.2),
    st.floats(0.0, 2.0),
    st.lists(fractions, min_size=1, max_size=20),
    st.one_of(st.none(), fractions),
)
def test_a_run_box_holds_the_arm_at_every_instant_the_timeline_reads(
    name, waypoints, dt, late, offsets, parked_at
):
    """At random instants, at every waypoint (where a joint may turn, at full
    speed, between two samples) and after a stop anywhere, each capsule's
    box lies in its link's row of the run's box."""
    model = MODELS[name]
    g = model.group_id
    positions = np.array([model._lo + (model._hi - model._lo) * np.array(w[: model.n_joints])
                          for w in waypoints])
    # each segment at the speed of its fastest joint's limit
    steps = np.abs(np.diff(positions, axis=0)) / model.joint_velocity_limits
    times = np.append(0.0, np.cumsum(np.maximum(steps.max(axis=1), 1e-3)))
    traj = JointTrajectory(g, times, positions)
    box = run_box(model, traj, dt)
    layout = Layout({g: model}, [])
    timeline = Timeline({g: JointState(g, positions[0])})

    start = 0.7
    now = start + late * traj.duration
    timeline.runs[g].append(RunningRecord(traj, start))
    if parked_at is not None:
        timeline.park(g, now, parked_at * traj.duration)
    instants = np.concatenate([np.asarray(offsets) * (traj.duration + 2 * dt), start + times - now])
    instants = np.sort(instants[instants >= 0.0])
    if not instants.size:
        return
    p0, p1 = layout.spread(layout.place(timeline.at([g], instants, since=now)))
    lo, hi = segment_aabbs(p0, p1, model._radii)
    assert np.all(lo >= box[:, :3]) and np.all(hi <= box[:, 3:])


@settings(derandomize=True, max_examples=100, deadline=None)
@given(st.floats(0.005, 0.1), st.floats(0.0, 1.0), st.floats(-np.pi, np.pi), st.booleans())
@example(0.05, 0.5, np.pi / 2, True)
def test_a_run_box_holds_a_turn_between_two_samples(dt, phase, angle, back):
    """A one-link arm swings to `angle` at full speed and turns back at an
    instant `phase` of the way from one sample to the next: its capsule
    there, beyond both samples, lies in the link's row of the run's box."""
    model = MODELS["one_link"]
    turn = (3.0 + phase) * dt
    start = angle + (1.0 if back else -1.0) * model.joint_velocity_limits[0] * turn
    traj = JointTrajectory("arm", [0.0, turn, 2.0 * turn], [[start], [angle], [start]])
    box = run_box(model, traj, dt)
    timeline = Timeline({"arm": JointState("arm", [start])})
    timeline.runs["arm"].append(RunningRecord(traj, 0.0))
    layout = Layout({"arm": model}, [])
    p0, p1 = layout.spread(layout.place(timeline.at(["arm"], turn + np.array([-dt, 0.0, dt]) / 2)))
    lo, hi = segment_aabbs(p0, p1, model._radii)
    assert np.all(lo >= box[:, :3]) and np.all(hi <= box[:, 3:])


@pytest.mark.parametrize("other", ["parked", "running"])
def test_an_arm_within_the_margin_of_the_candidate_start_is_measured(other):
    """The candidate starts 0.01 m from the other arm, inside the 0.02 m
    margin, and swings away by more than the margin in one sample: its box
    must hold its first row, and an arm within the margin of it is never
    culled, on the first sweep or on a retry."""
    a = planar_arm("a", lengths=(0.5,), vlim=3.0)
    b = planar_arm("b", (1.11, 0.0, 0.0), lengths=(0.5,), vlim=0.1)
    params = CheckParams(dt=0.1, margin=0.02)
    layout = Layout({"a": a, "b": b}, [])
    cand = sweep_traj(a, [0.0], [-1.0], "cand")
    timeline = Timeline({"a": JointState("a", [0.0]), "b": JointState("b", [np.pi])})
    table = BoxTable(layout, params.margin)
    running, parked = [], ["b"]
    if other == "running":
        motion = sweep_traj(b, [np.pi], [np.pi + 0.05], "b")
        timeline.runs["b"].append(RunningRecord(motion, 0.0))
        table.admit("b", run_box(b, motion, params.dt))
        running, parked = ["b"], []
    placed = Placed()
    for _ in range(2):
        got = candidate_sweep(cand, 0.0, params, table, timeline, running, parked, placed)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(collision, "_apart", no_box_apart)
            bare = BoxTable(layout, params.margin)
            want = candidate_sweep(cand, 0.0, params, bare, timeline, running, parked)
        assert want[0].colliding and want[0].first_collision_time == 0.0
        assert all(same_report(report, reference) for report, reference in zip(got, want))


def test_a_retried_candidate_is_placed_once_and_keeps_only_its_box():
    """Blocked by the running left arm, the right arm's task waits in the
    backlog; its retry places only the parked left arm, and its entry drops
    its placement once admitted, the box table keeping its run's boxes."""
    left, right = facing_pair(gap=1.5)
    ql, qr = [np.pi / 2 - 1.0, 0.0], [-np.pi / 2 + 1.0, 0.0]
    scene = scene_of([left, right], [ql, qr])
    mgr = ExecutionManager(scene, CheckParams(dt=0.01, margin=0.02), tick_length=0.01)
    placements, sweeping = [], []
    place, sweep = Layout.place, executor.candidate_sweep

    def spy(self, q, *rest):
        if sweeping:
            placements.append((mgr.clock, sorted(q)))
        return place(self, q, *rest)

    def spied_sweep(*args):
        sweeping.append(True)
        try:
            return sweep(*args)
        finally:
            sweeping.pop()

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(Layout, "place", spy)
        patch.setattr(executor, "candidate_sweep", spied_sweep)
        mgr.submit(sweep_traj(left, ql, [np.pi / 2 + 1.0, 0.0], "across"), 30.0)
        mgr.tick()
        blocked = mgr.submit(sweep_traj(right, qr, [-np.pi / 2 - 1.0, 0.0], "blocked"), 30.0)
        mgr.tick()
        entry = mgr._entries[blocked.id]
        assert entry.placed.e0 is not None
        first = mgr.clock
        while not mgr.all_terminal():
            mgr.tick()
    # left with the parked right arm in one call; right on its own, then the
    # running left arm, which right's box does not cull; on the retry, only
    # the newly parked left arm
    assert [groups for _, groups in placements] == [["left", "right"], ["right"], ["left"], ["left"]]
    assert placements[-1][0] > first and mgr.status(blocked).start_time == placements[-1][0]
    assert entry.placed is None
    rows = scene.layout.rows["right"]
    assert np.isfinite(mgr._monitor.table.boxes[rows.start : rows.stop]).all()


def test_admission_places_and_pairs_less_on_the_ring():
    """Without any box this run placed 28 313 configurations, and the kernel
    measured 505 176 pair-samples. With one box per arm it placed 14 136 in
    170 FK calls, and made 159 kernel calls on 159 layout-wide arrays that
    measured 162 726 pair-samples; with placements that built their own
    arrays, it built 239 of them. With link boxes, reach spheres and a
    parked-arm memo per layout it placed 11 562 in 160 calls, and measured
    44 503 in 108 kernel calls."""
    with work_counts() as counts:
        run(scenario_from_dict(json.loads((DATA / "ring16_901.json").read_text())), "async")
    assert counts["rows"] <= 10_987
    assert counts["pair_samples"] <= 17_116
    assert counts["calls"] <= 150
    assert counts["arrays"] <= 92
    assert counts["kernels"] <= 92


def test_the_fixtures_make_few_kinematics_calls():
    """A call's fixed cost is that of some forty to fifty configurations, so the
    count of calls, not of rows, sets the fixtures' decision time. With one
    box per arm they made 43 kernel calls on 43 arrays, measuring 13 990
    pair-samples; with placements that built their own arrays, they built 66.
    With link boxes, reach spheres and a parked-arm memo per layout they made
    48 FK calls on 1 997 rows and 29 kernel calls measuring 9 608."""
    with work_counts() as counts:
        for name in FIXTURES:
            for mode in ("async", "sync"):
                run(load_scenario(fixture_path(name)), mode)
    assert counts["calls"] <= 46
    assert counts["rows"] <= 1_596
    assert counts["arrays"] <= 26
    assert counts["kernels"] <= 26
    assert counts["pair_samples"] <= 5_011
