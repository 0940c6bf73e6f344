"""Tests of the benchmark itself: seeded inputs, metric names, tracing.

    python3 -m pytest perfbench
"""

import json
import time
from pathlib import Path

import pytest

import run
import workloads
from multiarm import ExecutionManager, JointState, Scene, composite_state_check, executor, harness
from multiarm.harness import scenario_from_dict
from reference import NOMINAL_S, Speedometer
from tracer import SITES, Tracer

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("make", [workloads.ring16_dict, workloads.batch_queue_dict])
def test_same_seed_gives_identical_scenario_dicts(make):
    assert make(7) == make(7)
    assert make(7) != make(8)


def _metrics(argv, capsys):
    code = run.main(argv)
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 0
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("trace, key", [(0, "end_to_end"), (1, "per_layer")])
def test_printed_metrics_match_benchmark_json(trace, key, capsys):
    argv = ["--workload", "fixtures", "--seed", "0", "--seconds", "0", "--trace", str(trace)]
    assert _metrics(argv, capsys) == {m["name"]: m["unit"] for m in BENCHMARK[key]}


def test_traced_pass_self_times_fit_in_wall_time():
    runs = workloads.load("fixtures", 0)[:2]
    originals = (ExecutionManager.tick, harness.plan_tasks, executor.composite_state_check)
    gate = run.Gate()
    with run.counted_warnings():
        plain, traced = run.passes(lambda: runs, gate, 0, (run.TickTimer, Tracer))
    tracer, wall = traced[0]
    assert not gate.problems and len(set(gate.digests)) == 1
    assert not tracer.absent
    self_times = [stat.self_seconds for stat in tracer.stats.values()]
    assert min(self_times) >= 0.0
    assert sum(self_times) <= wall
    assert tracer.stats["collision.composite_state_check"].calls > 0
    assert (ExecutionManager.tick, harness.plan_tasks, executor.composite_state_check) == originals


def test_missing_function_is_reported_absent():
    tracer = Tracer(SITES + (("collision.merged", "multiarm.collision", "no_such_function", None),))
    with tracer.installed():
        pass
    assert tracer.absent == ["collision.merged"]


def test_ring_settings_are_sound_and_goals_free_of_self_collision():
    scenario = scenario_from_dict(workloads.ring16_dict(0))
    manager = ExecutionManager(scenario.scene, params=scenario.params.check)
    assert scenario.params.check.margin >= manager.margin_bound
    # self-collision of a planar chain depends on the elbow and wrist only;
    # the goals' box is convex, so every straight joint line stays inside it
    goals = [task.goal.positions for task in scenario.tasks]
    lo = [min(g[k] for g in goals) for k in (1, 2)]
    hi = [max(g[k] for g in goals) for k in (1, 2)]
    group = "arm00"
    model = scenario.scene.robots[group]
    scene = Scene({group: model}, {group: JointState(group, [0.0, 0.0, 0.0])}, [])
    steps = 12
    for i in range(steps + 1):
        for j in range(steps + 1):
            q = [0.0, lo[0] + (hi[0] - lo[0]) * i / steps, lo[1] + (hi[1] - lo[1]) * j / steps]
            report = composite_state_check({group: JointState(group, q)}, scene, 0.05)
            assert not report.colliding, q


def test_speedometer_scales_host_times_to_the_nominal_kernel_time():
    speed = Speedometer()
    spent = speed.after_tick(time.perf_counter())
    assert speed.after_tick(time.perf_counter()) == 0.0  # not due again yet
    assert len(speed.samples) == 1 and spent >= speed.samples[0] > 0.0
    assert speed.scale() * speed.kernel_s() == pytest.approx(NOMINAL_S)
