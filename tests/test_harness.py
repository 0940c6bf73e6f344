import json
import math

import numpy as np
import pytest

from multiarm import (
    ExecutionManager,
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
from multiarm.executor import Event
from multiarm.geometry import MAX_EXTENT
from multiarm.harness import CSV_HEADER, FIXTURES, scenario_from_dict, write_events

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


@pytest.mark.parametrize("mode", ["async", "sync"])
def test_run_ticks_until_the_tick_that_ends_the_last_entry(monkeypatch, mode):
    # run asks whether every entry ended only after a tick that logged
    # something, and still stops on the same tick
    ticks = []
    tick_once = ExecutionManager.tick

    def spy(self):
        ticks.append(self.tick_index)
        return tick_once(self)

    monkeypatch.setattr(ExecutionManager, "tick", spy)
    run(fixture("crossing.json"), mode)
    assert len(ticks) == 401


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
        event = Event.parse(line)
        assert event.line() == line
        assert event.clock >= 0.0
        assert event.trajectory_id.startswith("t")


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


@pytest.mark.parametrize("factor", [0, -1, 0.0, float("nan"), float("inf")])
def test_replay_refuses_a_factor_that_is_not_finite_and_positive(factor):
    sc = fixture("crossing.json")
    result = run(sc, "async")
    with pytest.raises(ValueError, match="factor"):
        replay_min_clearance(sc, result, factor)


def test_scenario_validation_errors():
    # a Scenario is refused where it is built, with a ValueError like the scene's
    arm = planar_arm("arm", limits=(-1.0, 1.0))
    scene = scene_of([arm], [[0.0, 0.0]])
    with pytest.raises(ValueError, match="goal outside joint limits"):
        Scenario(scene=scene, tasks=[Task("arm", JointState("arm", [2.0, 0.0]))], params=RunParams())
    with pytest.raises(ValueError, match="unknown group 'ghost'"):
        Scenario(scene=scene, tasks=[Task("ghost", JointState("ghost", [0.0, 0.0]))], params=RunParams())
    with pytest.raises(ValueError, match="goal needs 2 joint values"):
        Scenario(scene=scene, tasks=[Task("arm", JointState("arm", [0.0]))], params=RunParams())
    ok = Scenario(scene=scene, tasks=[], params=RunParams())
    with pytest.raises(ScenarioInvalid):
        run(ok, "both")


@pytest.mark.parametrize("build", [
    lambda: RunParams(default_timeout=math.inf),
    lambda: RunParams(check_static="false"),
    lambda: Task("arm", JointState("arm", [0.0, 0.0]), submit_time=-1.0),
    lambda: Task("arm", JointState("arm", [0.0, 0.0]), timeout=0.0),
])
def test_run_params_and_tasks_are_refused_where_built(build):
    with pytest.raises(ValueError):
        build()


@pytest.mark.parametrize("tick, period", [(0.0, 5), (math.nan, 5), (math.inf, 5), (0.01, 0), (0.01, 2.5),
                                          (0.01, True)])
def test_run_params_and_the_manager_refuse_a_clock_alike(tick, period):
    scene = scene_of([planar_arm("arm")], [[0.0, 0.0]])
    with pytest.raises(ValueError) as params:
        RunParams(tick_length=tick, monitor_period=period)
    with pytest.raises(ValueError) as manager:
        ExecutionManager(scene, tick_length=tick, monitor_period=period)
    assert str(params.value) == str(manager.value)


def crossing_data():
    return json.loads(fixture_path("crossing.json").read_text())


def test_the_loader_ignores_a_seed_key():
    for seed in (3, "12", 1.5, None):
        scenario = scenario_from_dict({**crossing_data(), "seed": seed})
        assert run(scenario, "async").lines == run(fixture("crossing.json"), "async").lines


def test_load_scenario_writes_the_params_given_over_the_file_s():
    sc = load_scenario(fixture_path("crossing.json"), {"tick": 0.005, "monitor_period": 10})
    assert (sc.params.tick_length, sc.params.monitor_period) == (0.005, 10)
    assert sc.params.check == fixture("crossing.json").params.check
    with pytest.raises(ScenarioInvalid, match="monitor_period"):
        load_scenario(fixture_path("crossing.json"), {"monitor_period": 2.5})


@pytest.mark.parametrize("damage", ["truncated", "latin-1", "nested"])
def test_a_file_that_is_not_utf8_json_is_refused(tmp_path, damage):
    text = fixture_path("crossing.json").read_text()
    path = tmp_path / "bad.json"
    if damage == "truncated":
        path.write_text(text[: len(text) // 2])
    elif damage == "latin-1":
        path.write_bytes(text.replace('"left"', '"l\u00e9ft"').encode("latin-1"))
    else:  # deeper than the parser's recursion limit
        path.write_text("[" * 100_000)
    with pytest.raises(ScenarioInvalid, match="not a JSON document"):
        load_scenario(path)


def test_a_scene_at_the_extent_bound_loads_and_backlogs_both_crossing_tasks():
    data = crossing_data()
    data["obstacles"] = [{"capsule": {"p0": [-MAX_EXTENT, 0, 0], "p1": [MAX_EXTENT, 0, 0], "radius": 0.1}}]
    events = [Event.parse(line) for line in run(scenario_from_dict(data), "async").lines]
    assert [(e.trajectory_id, e.fields["blockers"]) for e in events if e.kind == "BACKLOGGED"] == [
        ("t0", "static"), ("t1", "static")]
    assert [e.trajectory_id for e in events if e.kind == "TIMEOUT_ABORT"] == ["t0", "t1"]
    data["obstacles"][0]["capsule"]["p1"][0] = float(np.nextafter(MAX_EXTENT, np.inf))
    with pytest.raises(ScenarioInvalid, match="within"):
        scenario_from_dict(data)


def renamed_group(name):
    """disjoint.json with its left arm and left's tasks renamed to `name`."""
    data = json.loads(fixture_path("disjoint.json").read_text())
    for item in data["robots"] + data["tasks"]:
        if item["group_id"] == "left":
            item["group_id"] = name
    return data


@pytest.mark.parametrize("char", [";", "\t", "\r", "\n"])
def test_a_group_id_that_would_break_the_log_is_refused(char):
    """The log writes a group id into its SUBMITTED lines, between tabs and ';'."""
    with pytest.raises(ScenarioInvalid, match="group_id"):
        scenario_from_dict(renamed_group(f"left{char}x"))


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


def test_static_obstacle_blocks_until_the_timeout():
    # a sphere on both crossing arms' paths: each admission sweep hits it,
    # and only a timeout clears a "static" blocker, so nothing is requeued
    data = json.loads(fixture_path("crossing.json").read_text())
    data["obstacles"] = [{"sphere": {"center": [0, -0.05, 0], "radius": 0.05}}]
    data["tasks"][0]["timeout"], data["tasks"][1]["timeout"] = 0.5, 1.0
    sc = scenario_from_dict(data)
    result = run(sc, "async")
    assert result.lines[2:] == [
        "0.010000\tBACKLOGGED\tt0\tblockers=static;deadline=0.500000;checks=1;states=41",
        "0.010000\tBACKLOGGED\tt1\tblockers=static;deadline=1.000000;checks=1;states=41",
        "0.500000\tTIMEOUT_ABORT\tt0\tdeadline=0.500000",
        "1.000000\tTIMEOUT_ABORT\tt1\tdeadline=1.000000",
    ]
    assert replay_min_clearance(sc, result) == pytest.approx(0.319, abs=5e-4)


def test_staggered_submission():
    sc = fixture("disjoint.json")
    tasks = [
        Task(t.group_id, t.goal, submit_time=0.5 * i, timeout=t.timeout)
        for i, t in enumerate(sc.tasks)
    ]
    sc2 = Scenario(scene=sc.scene, tasks=tasks, params=sc.params)
    result = run(sc2, "async")
    submitted = {
        e.trajectory_id: e.clock
        for e in map(Event.parse, result.lines)
        if e.kind == "SUBMITTED"
    }
    assert submitted["t0"] == 0.0
    assert 0.5 <= submitted["t1"] <= 0.5 + tick() + 1e-9
