import json
import math

import pytest

import multiarm.cli
from multiarm import TickBudgetExceeded, fixture_path
from multiarm.cli import main
from multiarm.executor import Event
from multiarm.harness import CSV_HEADER

from test_harness import renamed_group


def run_cli(tmp_path, name, *extra):
    metrics = tmp_path / "metrics.csv"
    events = tmp_path / "events.log"
    code = main(
        [
            "run",
            "--scenario",
            str(fixture_path(name)),
            "--metrics-out",
            str(metrics),
            "--events-out",
            str(events),
            *extra,
        ]
    )
    return code, metrics, events


def test_clean_run_exit_zero(tmp_path, capsys):
    code, metrics, events = run_cli(tmp_path, "disjoint.json")
    assert code == 0
    assert metrics.read_text().splitlines()[0] == ",".join(CSV_HEADER)
    assert events.read_text().endswith("\n")
    out = capsys.readouterr().out
    assert "makespan=" in out


def test_timeout_run_exit_two(tmp_path):
    code, _, events = run_cli(tmp_path, "timeout.json")
    assert code == 2
    assert "TIMEOUT_ABORT" in events.read_text()


def test_sync_mode_flag(tmp_path):
    code, metrics, _ = run_cli(tmp_path, "disjoint.json", "--mode", "sync")
    assert code == 0
    row = metrics.read_text().splitlines()[1].split(",")
    assert row[0] == "sync"
    assert abs(float(row[1]) - 5.0) <= 0.02


def test_parameter_overrides(tmp_path):
    code, metrics, events = run_cli(
        tmp_path,
        "crossing.json",
        "--time-step",
        "0.025",
        "--tick",
        "0.005",
        "--margin",
        "0.03",
        "--monitor-period",
        "10",
        "--backlog-timeout",
        "20",
    )
    assert code == 0
    # finer tick shows up in event clocks: some fall on an odd multiple of 5 ms
    logged = [Event.parse(line) for line in events.read_text().splitlines()]
    assert any(round(e.clock / 0.005) % 2 for e in logged)
    assert any(e.fields.get("deadline") == 20.0 for e in logged)


def test_determinism_byte_identical(tmp_path):
    m1 = tmp_path / "a"
    m2 = tmp_path / "b"
    m1.mkdir()
    m2.mkdir()
    code1, metrics1, events1 = run_cli(m1, "crossing.json")
    code2, metrics2, events2 = run_cli(m2, "crossing.json")
    assert code1 == code2 == 0
    assert metrics1.read_bytes() == metrics2.read_bytes()
    assert events1.read_bytes() == events2.read_bytes()


def test_bad_scenario_exit_one(tmp_path):
    missing = tmp_path / "nope.json"
    code = main(["run", "--scenario", str(missing)])
    assert code == 1


@pytest.mark.parametrize("option", ["--metrics-out", "--events-out"])
@pytest.mark.parametrize("target", ["missing_dir/out.txt", "."])
def test_unwritable_output_path_exits_one(tmp_path, capsys, option, target):
    # a file in a directory that does not exist, and a path that is a directory
    path = tmp_path / target
    code = main(["run", "--scenario", str(fixture_path("disjoint.json")), option, str(path)])
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "missing_dir").exists()


@pytest.mark.parametrize("content", ["{bad", "[1]", "[" * 100_000])
def test_scenario_that_is_not_a_json_object_exits_one(tmp_path, capsys, content):
    path = tmp_path / "bad.json"
    path.write_text(content)
    assert main(["run", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize(
    "option", [["--margin", "nan"], ["--time-step", "0"], ["--time-step", "1e-300"]]
)
def test_bad_parameter_override_exits_one(tmp_path, capsys, option):
    code, _, _ = run_cli(tmp_path, "crossing.json", *option)
    assert code == 1
    assert capsys.readouterr().err.startswith("error: ")


def test_fine_but_workable_time_step_runs(tmp_path):
    # 2 500 samples per check of timeout.json's 10 s task, although a joint's
    # full range at its speed limit would take 48 s
    code, _, events = run_cli(tmp_path, "timeout.json", "--time-step", "0.004")
    assert code == 2
    assert "TIMEOUT_ABORT" in events.read_text()


def test_collision_halt_exit_three(tmp_path):
    # park the idle left arm across the corridor and disable the
    # static-admission gate: the right arm's sweep is admitted blind and
    # only the online monitor stops it
    data = json.loads(fixture_path("crossing.json").read_text())
    data["robots"][0]["idle_posture"] = [1.5707963267948966, 0.0]
    data["tasks"] = [t for t in data["tasks"] if t["group_id"] == "right"]
    data["params"]["check_static"] = False
    path = tmp_path / "halting.json"
    path.write_text(json.dumps(data))
    events = tmp_path / "events.log"
    code = main(["run", "--scenario", str(path), "--events-out", str(events)])
    assert code == 3
    assert "COLLISION_HALT" in events.read_text()


def _timeout_inf(data):
    data["tasks"][0]["timeout"] = math.inf


def _submit_time_nan(data):
    data["tasks"][0]["submit_time"] = math.nan


def _duplicate_group(data):
    data["robots"].append(json.loads(json.dumps(data["robots"][0])))


def _fractional_monitor_period(data):
    data["params"]["monitor_period"] = 2.7


def _velocity_limit_inf(data):
    data["robots"][0]["joints"][0]["velocity_limit"] = math.inf


def _idle_posture_out_of_limits(data):
    data["robots"][0]["idle_posture"] = [9.0, 0.0]


def _base_xyz_nan(data):
    data["robots"][1]["base_pose"]["xyz"] = [math.nan, 0.75, 0.0]


def _base_rpy_inf(data):
    data["robots"][1]["base_pose"]["rpy"] = [0.0, 0.0, math.inf]


def _joint_axis_nan(data):
    data["robots"][1]["joints"][0]["axis"] = [0.0, 0.0, math.nan]


def _joint_origin_nan(data):
    data["robots"][1]["joints"][1]["origin_xyz"] = [math.nan, 0.0, 0.0]


def _position_limits_inf(data):
    data["robots"][1]["joints"][0]["position_limits"] = [-math.inf, math.inf]


def _capsule_end_nan(data):
    data["robots"][1]["links"][0]["capsule"]["p1"] = [math.nan, 0.0, 0.0]


def _obstacle_centre_nan(data):
    data["obstacles"] = [{"sphere": {"center": [math.nan, 0.0, 0.0], "radius": 0.1}}]


def _link_joint_fractional(data):
    data["robots"][1]["links"][1]["joint"] = 1.5


def _link_joint_bool(data):
    data["robots"][1]["links"][1]["joint"] = True


def _check_static_string(data):
    data["params"]["check_static"] = "false"


def _goal_wrong_length(data):
    data["tasks"][0]["goal"] = [0.0]


def _params_not_an_object(data):
    data["params"] = []


def _capsule_radius_inf(data):
    data["robots"][1]["links"][0]["capsule"]["radius"] = math.inf


def _goal_nested(data):
    data["tasks"][0]["goal"] = [[2.57, 0.0]]


def _submit_time_bool(data):
    data["tasks"][0]["submit_time"] = True


def _base_pose_null(data):
    data["robots"][0]["base_pose"] = None


def _task_group_list(data):
    data["tasks"][1]["group_id"] = []


def _joint_axis_bools(data):
    data["robots"][1]["joints"][0]["axis"] = [False, False, True]


def _base_xyz_bool(data):
    data["robots"][1]["base_pose"]["xyz"] = [True, 0, 0]


def _capsule_end_bool(data):
    data["robots"][1]["links"][0]["capsule"]["p1"] = [True, 0, 0]


def _position_limits_bool(data):
    data["robots"][1]["joints"][0]["position_limits"] = [-3.2, True]


def _obstacle_centre_bool(data):
    data["obstacles"] = [{"sphere": {"center": [True, 0.0, 0.0], "radius": 0.1}}]


def _allowed_pair_fractional(data):
    data["robots"][1]["allowed_pairs"] = [[0.5, 1]]


def _allowed_pair_bool(data):
    data["robots"][1]["allowed_pairs"] = [[True, 0]]


def _across(length):
    """A capsule obstacle 2 * length long across both crossing arms' paths."""
    return [{"capsule": {"p0": [-length, 0.0, 0.0], "p1": [length, 0.0, 0.0], "radius": 0.1}}]


def _obstacle_across_1e50(data):
    data["obstacles"] = _across(1e50)


def _obstacle_across_1e150(data):
    data["obstacles"] = _across(1e150)


def _obstacle_across_1e308(data):
    data["obstacles"] = _across(1e308)


def _base_xyz_1e308(data):
    data["robots"][1]["base_pose"]["xyz"] = [1e308, 0.75, 0.0]


@pytest.mark.parametrize(
    "corrupt",
    [
        _timeout_inf,
        _submit_time_nan,
        _duplicate_group,
        _fractional_monitor_period,
        _velocity_limit_inf,
        _idle_posture_out_of_limits,
        _base_xyz_nan,
        _base_rpy_inf,
        _joint_axis_nan,
        _joint_origin_nan,
        _position_limits_inf,
        _capsule_end_nan,
        _obstacle_centre_nan,
        _link_joint_fractional,
        _link_joint_bool,
        _check_static_string,
        _goal_wrong_length,
        _params_not_an_object,
        _capsule_radius_inf,
        _goal_nested,
        _submit_time_bool,
        _base_pose_null,
        _task_group_list,
        _joint_axis_bools,
        _base_xyz_bool,
        _capsule_end_bool,
        _position_limits_bool,
        _obstacle_centre_bool,
        _allowed_pair_fractional,
        _allowed_pair_bool,
        _obstacle_across_1e50,
        _obstacle_across_1e150,
        _obstacle_across_1e308,
        _base_xyz_1e308,
    ],
)
def test_malformed_scenario_exits_one_without_traceback(tmp_path, capsys, corrupt):
    data = json.loads(fixture_path("crossing.json").read_text())
    corrupt(data)
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(data))  # writes Infinity / NaN, which json.load reads back
    assert main(["run", "--scenario", str(path)]) == 1
    assert capsys.readouterr().err.startswith("error: ")


@pytest.mark.parametrize("char", [";", "\t", "\r", "\n"])
def test_a_group_id_that_would_break_the_log_exits_one_before_the_run(tmp_path, capsys, char):
    path = tmp_path / "renamed.json"
    path.write_text(json.dumps(renamed_group(f"left{char}x")))
    events = tmp_path / "events.log"
    assert main(["run", "--scenario", str(path), "--events-out", str(events)]) == 1
    assert "group_id" in capsys.readouterr().err
    assert not events.exists()


def test_tick_budget_overrun_exits_one(tmp_path, capsys, monkeypatch):
    def overrun(scenario, mode):
        raise TickBudgetExceeded("scenario did not quiesce within the tick budget")

    monkeypatch.setattr(multiarm.cli, "run", overrun)
    assert main(["run", "--scenario", str(fixture_path("disjoint.json"))]) == 1
    assert "tick budget" in capsys.readouterr().err


def test_submit_time_beyond_a_million_ticks_exits_one(tmp_path, capsys):
    # crossing.json ticks 0.01 s, so a task at 1e9 s would take 1e11 idle ticks
    data = json.loads(fixture_path("crossing.json").read_text())
    data["tasks"][0]["submit_time"] = 1e9
    path = tmp_path / "late.json"
    path.write_text(json.dumps(data))
    assert main(["run", "--scenario", str(path)]) == 1
    assert "needs over 1000000 ticks" in capsys.readouterr().err


@pytest.mark.parametrize(
    "option, message",
    [
        # crossing.json's 2 s moves alone would take 2e6 ticks of 1e-6 s
        (["--tick", "0.000001"], "motion 2 s needs over 1000000 ticks of 1e-06 s"),
        (["--backlog-timeout", "1e5"], "timeout 100000 s needs over 1000000 ticks of 0.01 s"),
    ],
)
def test_stated_time_beyond_a_million_ticks_exits_one(tmp_path, capsys, option, message):
    code, _, _ = run_cli(tmp_path, "crossing.json", *option)
    assert code == 1
    assert message in capsys.readouterr().err
