import json

import pytest

from multiarm import (
    JointLimitViolation,
    JointState,
    RunParams,
    Scenario,
    ScenarioInvalid,
    StatusKind,
    Task,
    fixture_path,
    load_scenario,
    metrics_from_events,
    plan_joint_line,
    replay_min_clearance,
    run,
    validate,
    write_metrics,
)
from multiarm.harness import CSV_HEADER, FIXTURES, parse_event_line, write_events

from conftest import planar_arm, random_scenario, scene_of


def tick():
    return 0.01


def test_plan_zero_move_is_single_waypoint():
    arm = planar_arm("arm")
    t = plan_joint_line(arm, JointState("arm", [0.3, -0.2]), JointState("arm", [0.3, -0.2]))
    assert len(t.times) == 1
    assert t.duration == 0.0


def test_plan_duration_from_binding_joint():
    arm = planar_arm("arm", lengths=(1.0,), vlim=1.0)
    t = plan_joint_line(arm, JointState("arm", [0.0]), JointState("arm", [2.0]))
    assert t.duration == pytest.approx(2.0)


def test_plan_two_joint_binding_rule():
    arm = planar_arm("arm", vlim=1.0, limits=(-3.2, 3.2))
    t = plan_joint_line(arm, JointState("arm", [0.0, 0.0]), JointState("arm", [2.0, 1.0]))
    assert t.duration == pytest.approx(2.0)
    # the slower joint moves at half speed; the plan passes validation
    assert validate(t, arm) == []
    mid = 0.5 * (t.positions[0] + t.positions[1])
    assert mid[1] == pytest.approx(0.5)


def test_plan_rejects_out_of_limits():
    arm = planar_arm("arm", limits=(-1.0, 1.0))
    with pytest.raises(JointLimitViolation):
        plan_joint_line(arm, JointState("arm", [0.0, 0.0]), JointState("arm", [2.0, 0.0]))


def fixture(name):
    return load_scenario(fixture_path(name))


def test_fixture_files_load():
    for name in FIXTURES:
        sc = fixture(name)
        assert sc.tasks
        assert sc.params.tick_length == tick()


def test_disjoint_makespans():
    sc = fixture("disjoint.json")
    ra = run(sc, "async")
    rs = run(sc, "sync")
    assert abs(ra.metrics.makespan - 3.0) <= 0.02
    assert abs(rs.metrics.makespan - 5.0) <= 0.02
    assert ra.metrics.backlog_entries == 0
    assert ra.metrics.overhead <= 2 * tick() + 1e-9


def test_crossing_serializes_either_way():
    sc = fixture("crossing.json")
    ra = run(sc, "async")
    rs = run(sc, "sync")
    assert abs(ra.metrics.makespan - rs.metrics.makespan) <= 0.02
    assert ra.metrics.backlog_entries == 1


def test_timeout_fixture_aborts_victim():
    sc = fixture("timeout.json")
    result = run(sc, "async")
    assert result.metrics.timeout_aborts == 1
    aborted = [s for s in result.statuses.values() if s.kind is StatusKind.ABORTED_TIMEOUT]
    assert len(aborted) == 1
    assert abs(aborted[0].at - 2.0) <= tick() + 1e-9


def test_panda_fixture_runs_clean_and_async_wins():
    sc = fixture("panda_like_shared.json")
    ra = run(sc, "async")
    rs = run(sc, "sync")
    assert all(s.kind is StatusKind.SUCCEEDED for s in ra.statuses.values())
    assert all(s.kind is StatusKind.SUCCEEDED for s in rs.statuses.values())
    assert ra.metrics.collision_halts == 0
    assert ra.metrics.makespan <= rs.metrics.makespan + tick() + 1e-9


def test_single_arm_baseline_sequential():
    arm = planar_arm("solo", lengths=(1.0, 1.0), limits=(-3.2, 3.2))
    scene = scene_of([arm], [[0.0, 0.0]])
    goals = [[1.0, 0.0], [1.0, 1.0], [0.0, 0.0]]
    tasks = [Task("solo", JointState("solo", g)) for g in goals]
    sc = Scenario(scene=scene, tasks=tasks, params=RunParams())
    result = run(sc, "async")
    # binding-joint durations are 1 s each, executed strictly in sequence
    assert abs(result.metrics.makespan - 3.0) <= len(goals) * tick() + 1e-9


def test_metrics_recompute_matches_run():
    sc = fixture("crossing.json")
    result = run(sc, "async")
    again = metrics_from_events(result.lines, "async")
    assert again == result.metrics


def test_metrics_from_empty_scenario():
    arm = planar_arm("arm")
    scene = scene_of([arm], [[0.0, 0.0]])
    sc = Scenario(scene=scene, tasks=[], params=RunParams())
    result = run(sc, "async")
    m = result.metrics
    assert m.makespan == 0.0
    assert m.backlog_entries == 0
    assert m.state_evaluations == 0


def test_write_metrics_csv_format(tmp_path):
    sc = fixture("disjoint.json")
    result = run(sc, "async")
    out = tmp_path / "metrics.csv"
    write_metrics(result.metrics, out)
    lines = out.read_text().strip().split("\n")
    assert lines[0].split(",") == CSV_HEADER
    row = lines[1].split(",")
    assert row[0] == "async"
    assert float(row[1]) == pytest.approx(result.metrics.makespan, abs=1e-6)
    assert row[3] == "0"


def test_event_lines_parse_roundtrip(tmp_path):
    sc = fixture("crossing.json")
    result = run(sc, "async")
    out = tmp_path / "events.log"
    write_events(result.lines, out)
    for line in out.read_text().splitlines():
        clock, kind, traj_id, fields = parse_event_line(line)
        assert clock >= 0.0
        assert traj_id.startswith("t")


def test_async_never_slower_than_sync(rng):
    for _ in range(5):
        sc = random_scenario(rng)
        ra = run(sc, "async")
        rs = run(sc, "sync")
        assert ra.metrics.makespan <= rs.metrics.makespan + tick() + 1e-9


def test_replay_clearance_positive_on_fixtures():
    for name in FIXTURES:
        sc = fixture(name)
        result = run(sc, "async")
        assert replay_min_clearance(sc, result) > 0.0


def test_scenario_validation_errors():
    arm = planar_arm("arm", limits=(-1.0, 1.0))
    scene = scene_of([arm], [[0.0, 0.0]])
    bad_goal = Scenario(
        scene=scene, tasks=[Task("arm", JointState("arm", [2.0, 0.0]))], params=RunParams()
    )
    with pytest.raises(ScenarioInvalid):
        run(bad_goal, "async")
    unknown = Scenario(
        scene=scene, tasks=[Task("ghost", JointState("ghost", [0.0, 0.0]))], params=RunParams()
    )
    with pytest.raises(ScenarioInvalid):
        run(unknown, "async")
    short_goal = Scenario(
        scene=scene, tasks=[Task("arm", JointState("arm", [0.0]))], params=RunParams()
    )
    with pytest.raises(ScenarioInvalid):
        run(short_goal, "async")
    ok = Scenario(scene=scene, tasks=[], params=RunParams())
    with pytest.raises(ScenarioInvalid):
        run(ok, "both")


def test_malformed_scenario_file(tmp_path):
    path = tmp_path / "broken.json"
    path.write_text(json.dumps({"robots": [{"group_id": "x"}]}))
    with pytest.raises(ScenarioInvalid):
        load_scenario(path)


def test_scenario_with_sphere_links_and_obstacle(tmp_path):
    doc = {
        "seed": 3,
        "params": {"time_step": 0.05, "margin": 0.02, "tick": 0.01},
        "robots": [
            {
                "group_id": "arm",
                "base_pose": {"xyz": [0, 0, 0], "rpy": [0, 0, 0]},
                "joints": [
                    {
                        "axis": [0, 0, 1],
                        "position_limits": [-3.2, 3.2],
                        "velocity_limit": 1.0,
                    }
                ],
                "links": [
                    {"joint": 0, "capsule": {"p0": [0, 0, 0], "p1": [0.4, 0, 0], "radius": 0.04}},
                    {"joint": 0, "sphere": {"center": [0.45, 0, 0], "radius": 0.06}},
                ],
                "idle_posture": [0.0],
            }
        ],
        "obstacles": [{"sphere": {"center": [0.0, 0.6, 0.0], "radius": 0.05}}],
        "tasks": [{"group_id": "arm", "goal": [3.0], "submit_time": 0.0, "timeout": 10.0}],
    }
    path = tmp_path / "spherey.json"
    path.write_text(json.dumps(doc))
    sc = load_scenario(path)
    assert len(sc.scene.static_obstacles) == 1
    result = run(sc, "async")
    # the sweep passes the obstacle: the gripper sphere reaches 0.51 m and
    # the obstacle surface starts at 0.55 m, so the run completes clean
    assert all(s.kind is StatusKind.SUCCEEDED for s in result.statuses.values())
    assert replay_min_clearance(sc, result) > 0.0


def test_staggered_submission():
    sc = fixture("disjoint.json")
    tasks = [
        Task(t.group_id, t.goal, submit_time=0.5 * i, timeout=t.timeout)
        for i, t in enumerate(sc.tasks)
    ]
    sc2 = Scenario(scene=sc.scene, tasks=tasks, seed=sc.seed, params=sc.params)
    result = run(sc2, "async")
    submitted = {
        traj_id: clock
        for clock, kind, traj_id, _ in map(parse_event_line, result.lines)
        if kind == "SUBMITTED"
    }
    assert submitted["t0"] == 0.0
    assert 0.5 <= submitted["t1"] <= 0.5 + tick() + 1e-9
