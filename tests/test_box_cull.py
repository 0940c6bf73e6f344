"""The box table of admission, which a manager's `Monitor` keeps: a pair of a
candidate link and a link or obstacle whose boxes stay more than the margin
apart is not paired, and a running arm left with no pair is not placed.

Every sweep of the pinned runs and of the scheduler's random sequences must
report what a sweep with no boxes reports (`conftest.cull_oracle`); each row
of a run's box must hold its link at every instant the timeline can read;
and on the 16-arm ring the boxes must cut the forward kinematics and the
kernel's work. The placements the monitor keeps, per trajectory and for an
arm's announced program at once, and the last row it keeps to hold a
finished arm at, must be the rows a placement of their own gives, bit for
bit. `test_wake.py` checks that the table holds every arm after every
operation of its random cells.
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
    StatusKind,
    Timeline,
    collision,
    fixture_path,
    load_scenario,
    run,
)
from multiarm.collision import Layout, Monitor
from multiarm.geometry import segment_aabbs
from multiarm.kinematics import ArmStack
from multiarm.harness import FIXTURES, scenario_from_dict

from conftest import (
    PINNED_RUNS,
    cull_oracle,
    facing_pair,
    no_box_apart,
    pinned_scenario,
    planar_arm,
    same_bits,
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
    """The box admission gives a run of `traj`, as a sweep of it at `dt` places
    it: read from a monitor at margin 0, whose table adds no margin/2 to it."""
    g = model.group_id
    monitor = Monitor(Layout({g: model}, []), CheckParams(dt=dt, margin=0.0))
    monitor.sweep(traj, 0.0, Timeline({g: JointState(g, traj.positions[0])}), [])
    monitor.admit(g, traj)
    return monitor.boxes[monitor.layout.rows[g].start : monitor.layout.rows[g].stop]


MODELS = {
    "one_link": planar_arm("arm", lengths=(1.0,), radius=0.01, vlim=2.0),
    "three_links": planar_arm("arm", lengths=(0.4, 0.3, 0.2), radius=0.03, vlim=1.5),
    "panda": load_scenario(fixture_path("panda_like_shared.json")).scene.robots["arm_a"],
}


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


@settings(derandomize=True, max_examples=200, deadline=None)
@given(
    st.sampled_from(sorted(MODELS)),
    st.lists(st.lists(fractions, min_size=7, max_size=7), min_size=1, max_size=5),
    st.floats(0.002, 0.2),
    st.one_of(st.none(), st.floats(2.0, 10.0)),
)
@example("three_links", [[0.2] * 7, [0.7] * 7], 0.05, 10.0)
def test_a_finished_arm_is_held_at_the_last_row_its_admission_placed(name, waypoints, dt, hold):
    """An arm parked at the end of its run is held, with no placement, at the
    last row of the run's placement: bit for bit the placement of the row
    `RunningRecord.held` reads there, also when the plan repeats its last
    waypoint `hold` samples later, so that the placement cut its held tail."""
    model = MODELS[name]
    g = model.group_id
    other = planar_arm("other", (10.0, 0.0, 0.0), lengths=(0.5,))
    positions = [model._lo + (model._hi - model._lo) * np.array(w[: model.n_joints]) for w in waypoints]
    steps = np.abs(np.diff(positions, axis=0)) / model.joint_velocity_limits
    times = np.append(0.0, np.cumsum(np.maximum(steps.max(axis=1, initial=0.0), 1e-3)))
    if hold is not None:
        positions, times = positions + positions[-1:], np.append(times, times[-1] + hold * dt)
    traj = JointTrajectory(g, times, positions)
    layout = Layout({g: model, "other": other}, [])
    timeline = Timeline({g: JointState(g, positions[0]), "other": JointState("other", [0.0])})
    monitor = Monitor(layout, CheckParams(dt=dt, margin=0.02))
    monitor.sweep(traj, 0.0, timeline, [])
    if hold is not None:
        assert len(monitor.placements[traj][0]) < len(collision._motion_times(traj.duration, dt))
    monitor.admit(g, traj)
    timeline.runs[g].append(RunningRecord(traj, 0.0))
    timeline.park(g, traj.duration, traj.duration)
    placed = []
    with pytest.MonkeyPatch.context() as patch:
        place = Layout.place
        patch.setattr(Layout, "place", lambda self, q: placed.extend(q) or place(self, q))
        monitor.sweep(sweep_traj(other, [0.0], [0.5], "c"), traj.duration, timeline, [], [g])
    assert placed == ["other"] and g not in monitor.ends
    want = ArmStack([model]).place(timeline.runs[g][-1].held, [0])
    for got, ends in zip(monitor.held[g], want):
        assert same_bits(got, ends)


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
    monitor = Monitor(layout, params)
    running, parked = [], ["b"]
    if other == "running":
        motion = sweep_traj(b, [np.pi], [np.pi + 0.05], "b")
        monitor.sweep(motion, 0.0, timeline, [])
        timeline.runs["b"].append(RunningRecord(motion, 0.0))
        monitor.admit("b", motion)
        running, parked = ["b"], []
    for _ in range(2):
        got = monitor.sweep(cand, 0.0, timeline, running, parked)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(collision, "_apart", no_box_apart)
            want = Monitor(layout, params).sweep(cand, 0.0, timeline, running, parked)
        assert want[0].colliding and want[0].first_collision_time == 0.0
        assert all(same_report(report, reference) for report, reference in zip(got, want))


def test_a_retried_candidate_is_placed_once_and_keeps_only_its_box():
    """Blocked by the running left arm, the right arm's task waits in the
    backlog; its retry places nothing, as the finished left arm is held at
    the last row its admission placed, and the monitor drops the right
    task's placement once it is admitted, keeping its run's boxes."""
    left, right = facing_pair(gap=1.5)
    ql, qr = [np.pi / 2 - 1.0, 0.0], [-np.pi / 2 + 1.0, 0.0]
    scene = scene_of([left, right], [ql, qr])
    mgr = ExecutionManager(scene, CheckParams(dt=0.01, margin=0.02), tick_length=0.01)
    placements, sweeping = [], []
    place, sweep = Layout.place, Monitor.sweep

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
        patch.setattr(Monitor, "sweep", spied_sweep)
        mgr.submit(sweep_traj(left, ql, [np.pi / 2 + 1.0, 0.0], "across"), 30.0)
        mgr.tick()
        blocked = mgr.submit(sweep_traj(right, qr, [-np.pi / 2 - 1.0, 0.0], "blocked"), 30.0)
        mgr.tick()
        entry = mgr._entries[blocked.id]
        assert entry.trajectory in mgr._monitor.placements
        first = mgr.clock
        while not mgr.all_terminal():
            mgr.tick()
    # left with the parked right arm in one call; right on its own, then the
    # running left arm, which right's box does not cull; nothing on the retry
    assert [groups for _, groups in placements] == [["left", "right"], ["right"], ["left"]]
    assert placements[-1][0] == first < mgr.status(blocked).start_time
    assert not mgr._monitor.placements
    rows = scene.layout.rows["right"]
    assert np.isfinite(mgr._monitor.boxes[rows.start : rows.stop]).all()


def test_an_entry_that_ends_unadmitted_drops_its_placement():
    """The left arm's announced `lapsed` times out before it reaches the gate,
    so it is never placed, not even with `across`; the right arm's
    `blocked`, placed by its sweep and backlogged behind `across`, is
    cancelled, which drops its placement."""
    left, right = facing_pair(gap=1.5)
    ql, qr = [np.pi / 2 - 1.0, 0.0], [-np.pi / 2 + 1.0, 0.0]
    mgr = ExecutionManager(scene_of([left, right], [ql, qr]), CheckParams(dt=0.01, margin=0.02))
    lapsed = sweep_traj(left, ql, [np.pi / 2, 0.0], "lapsed")
    across = sweep_traj(left, ql, [np.pi / 2 + 1.0, 0.0], "across")
    blocked = sweep_traj(right, qr, [-np.pi / 2 - 1.0, 0.0], "blocked")
    mgr.announce([lapsed, across, blocked])
    mgr.submit(lapsed, 0.004)
    mgr.tick()
    mgr.submit(across, 30.0)
    mgr.tick()
    handle = mgr.submit(blocked, 30.0)
    mgr.tick()
    assert list(mgr._monitor.placements) == [blocked]
    assert mgr.status(handle).kind is StatusKind.BACKLOGGED
    mgr.cancel(handle)
    assert not mgr._monitor.placements and not any(mgr._monitor.announced.values())
    assert [e.kind for e in mgr.events if e.trajectory_id == "lapsed"] == ["SUBMITTED", "TIMEOUT_ABORT"]


def test_a_new_trajectory_of_a_swept_arm_is_placed_afresh():
    """One monitor sweeps two trajectories of one arm against a parked
    neighbour: the first swings away from it, the second into it. The second
    is placed anew, not read from the first's placement, and reports what a
    new monitor reports."""
    a = planar_arm("a", lengths=(0.5,))
    b = planar_arm("b", (1.0, 0.0, 0.0), lengths=(0.5,))
    params = CheckParams(dt=0.05, margin=0.02)
    layout = Layout({"a": a, "b": b}, [])
    timeline = Timeline({"a": JointState("a", [np.pi / 2]), "b": JointState("b", [np.pi])})
    monitor = Monitor(layout, params)
    away = sweep_traj(a, [np.pi / 2], [np.pi], "away")
    into = sweep_traj(a, [np.pi / 2], [0.0], "into")
    (first,) = monitor.sweep(away, 0.0, timeline, [], ["b"])
    (second,) = monitor.sweep(into, 0.0, timeline, [], ["b"])
    assert not first.colliding and second.colliding
    assert list(monitor.placements) == [away, into]
    (want,) = Monitor(layout, params).sweep(into, 0.0, timeline, [], ["b"])
    assert same_report(second, want)
    # only a trajectory of the arm that a sweep placed is admitted; one that
    # ends unadmitted drops its placement
    for g, trajectory in (("a", sweep_traj(a, [np.pi / 2], [0.5], "unswept")), ("b", into)):
        with pytest.raises(ValueError):
            monitor.admit(g, trajectory)
    monitor.admit("a", into)
    monitor.drop(away)
    assert not monitor.placements and monitor.ends["a"][0] is into


def test_a_sweep_places_the_announced_program_of_its_arm_in_one_call():
    """Arm a's three announced trajectories are placed with the first of them
    swept, and the parked arm b, in one call; a trajectory dropped before
    that sweep is not placed, and the later sweeps place nothing. Each
    placement is the one a monitor that was not told of the program makes."""
    a = planar_arm("a", lengths=(0.5,))
    b = planar_arm("b", (1.5, 0.0, 0.0), lengths=(0.5,))
    params = CheckParams(dt=0.05, margin=0.02)
    layout = Layout({"a": a, "b": b}, [])
    timeline = Timeline({"a": JointState("a", [0.0]), "b": JointState("b", [np.pi])})
    program = [sweep_traj(a, [0.0], [1.0], "t0"), sweep_traj(a, [1.0], [-1.0], "t1"),
               sweep_traj(a, [-1.0], [0.5], "t2"), sweep_traj(a, [0.5], [0.0], "t3")]
    monitor = Monitor(layout, params)
    monitor.announce(program)
    monitor.drop(program[2])
    with work_counts() as counts:
        for trajectory in program[:2] + program[3:]:
            monitor.sweep(trajectory, 0.0, timeline, [], ["b"])
    assert (counts["calls"], list(monitor.placements)) == (1, program[:2] + program[3:])
    for trajectory in program[:2] + program[3:]:
        alone = Monitor(layout, params)
        alone.sweep(trajectory, 0.0, timeline, [], ["b"])
        for got, want in zip(monitor.placements[trajectory], alone.placements[trajectory]):
            assert np.array_equal(got, want)


def test_admission_places_and_pairs_less_on_the_ring():
    """Without any box this run placed 28 313 configurations, and the kernel
    measured 505 176 pair-samples. With one box per arm it placed 14 136 in
    170 FK calls, and made 159 kernel calls on 159 layout-wide arrays that
    measured 162 726 pair-samples; with placements that built their own
    arrays, it built 239 of them. With link boxes, reach spheres and a
    parked-arm memo per layout it placed 11 562 in 160 calls, and measured
    44 503 in 108 kernel calls. With one placement per candidate, and a
    finished arm placed anew at the next sweep against it, it placed 10 987
    in 150 calls; with run boxes padded by one speed bound per arm, the
    kernel measured 17 116."""
    with work_counts() as counts:
        run(scenario_from_dict(json.loads((DATA / "ring16_901.json").read_text())), "async")
    assert counts["rows"] <= 10_934
    assert counts["pair_samples"] <= 16_958
    assert counts["calls"] <= 65
    assert counts["arrays"] <= 92
    assert counts["kernels"] <= 92


def test_the_fixtures_make_few_kinematics_calls():
    """A call's fixed cost is that of some forty to fifty configurations, so the
    count of calls, not of rows, sets the fixtures' decision time. With one
    box per arm they made 43 kernel calls on 43 arrays, measuring 13 990
    pair-samples; with placements that built their own arrays, they built 66.
    With link boxes, reach spheres and a parked-arm memo per layout they made
    48 FK calls on 1 997 rows and 29 kernel calls measuring 9 608. With one
    placement per candidate, and a finished arm placed anew at the next
    sweep against it, they made 46 FK calls on 1 596 rows; with run boxes
    padded by one speed bound per arm, 26 kernel calls measuring 5 011."""
    with work_counts() as counts:
        for name in FIXTURES:
            for mode in ("async", "sync"):
                run(load_scenario(fixture_path(name)), mode)
    assert counts["calls"] <= 34
    assert counts["rows"] <= 1_578
    assert counts["arrays"] <= 25
    assert counts["kernels"] <= 25
    assert counts["pair_samples"] <= 4_474
