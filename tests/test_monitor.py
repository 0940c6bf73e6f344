"""The executor's monitor against the stateless full check, at every check.

The monitor measures only the pairs whose safe-until time has come, each at
every remaining check instant of the planned motion; a check of every pair
must give the same verdict, and when colliding the same witness and minimum,
at every monitor tick of every run here, including runs that halt with arms
parked in contact, runs whose windows are cut short, and a cancel that parks
an arm off its plan.
"""

import json
from pathlib import Path

import numpy as np
import pytest

from multiarm import (
    CheckParams,
    ExecutionManager,
    Sphere,
    StatusKind,
    collision,
    composite_state_check,
    fixture_path,
    run,
)
from multiarm.collision import CollisionReport, Layout, Monitor
from multiarm.executor import Event
from multiarm.geometry import FAR, PlacedPrimitive, owner_str
from multiarm.harness import FIXTURES, scenario_from_dict

from conftest import facing_pair, monitor_oracle, planar_arm, scene_of, sweep_traj
from test_golden import RING16_901_HALTING, digest

DATA = Path(__file__).parent / "data"


def run_checked(data, mode, **params):
    data["params"] = {**data.get("params", {}), **params}
    scenario = scenario_from_dict(data)
    with monitor_oracle(scenario.scene) as counts:
        result = run(scenario, mode)
    assert counts["checks"] > 0
    return counts, result


@pytest.mark.parametrize("period", [1, 5])
@pytest.mark.parametrize("check_static", [True, False])
@pytest.mark.parametrize("mode", ["async", "sync"])
@pytest.mark.parametrize("name", FIXTURES)
def test_monitor_matches_the_full_check_on_the_fixtures(name, mode, check_static, period):
    data = json.loads(fixture_path(name).read_text())
    run_checked(data, mode, check_static=check_static, monitor_period=period)


@pytest.mark.parametrize("check_static", [True, False])
def test_monitor_matches_the_full_check_on_the_ring(check_static):
    data = json.loads((DATA / "ring16_901.json").read_text())
    counts, result = run_checked(data, "async", check_static=check_static)
    # every colliding check halts every running arm on its tick
    assert counts["colliding"] == result.metrics.collision_halts == (0 if check_static else 4)
    # some checks find every due pair's boxes apart, and build no window (the
    # halting run stops after 17 checks, none of them such)
    assert (counts["retired"] > 0) == check_static


def test_monitor_skips_checks_on_the_fixtures():
    """Far-apart arms sleep: on the crossing cell most checks measure nothing."""
    data = json.loads(fixture_path("crossing.json").read_text())
    counts, _ = run_checked(data, "async")
    assert 0 < counts["skipped"] < counts["checks"]


def test_monitor_measures_in_few_checks_on_the_panda_cell():
    """Every planned motion is known: on the dual-arm cell a due check puts
    its pairs to sleep through the rest of the motion."""
    data = json.loads(fixture_path("panda_like_shared.json").read_text())
    counts, _ = run_checked(data, "async")
    assert 5 * (counts["checks"] - counts["skipped"]) <= counts["checks"]


@pytest.mark.parametrize("pair_samples", [1, 250])
def test_a_cut_window_keeps_every_check_and_the_halting_log(monkeypatch, pair_samples):
    """A window cut to bound its memory puts its clear pairs to sleep only
    until its last instant, and the checks and the log stay the same."""
    cuts = []
    window = ExecutionManager._window

    def spied(mgr, groups, limit):
        times, q, cut = window(mgr, groups, limit)
        cuts.append(cut)
        return times, q, cut

    monkeypatch.setattr(collision, "PAIR_SAMPLES", pair_samples)
    monkeypatch.setattr(ExecutionManager, "_window", spied)
    data = json.loads((DATA / "ring16_901.json").read_text())
    counts, result = run_checked(data, "async", check_static=False)
    assert any(cuts)
    assert counts["colliding"] == result.metrics.collision_halts == 4
    assert digest(result.lines) == RING16_901_HALTING[5]


@pytest.mark.parametrize("pair_samples", [1, 250])
def test_cut_windows_need_no_speed_bound(monkeypatch, pair_samples):
    """With every arm's cartesian speed bound at 0, the checks and the log
    stay the same: the monitor's sleeps rest on measurements alone."""
    monkeypatch.setattr(collision, "PAIR_SAMPLES", pair_samples)
    data = json.loads((DATA / "ring16_901.json").read_text())
    data["params"]["check_static"] = False
    scenario = scenario_from_dict(data)
    for model in scenario.scene.robots.values():
        model.max_cartesian_speed_bound = 0.0
    with monitor_oracle(scenario.scene) as counts:
        result = run(scenario, "async")
    assert counts["colliding"] == result.metrics.collision_halts == 4
    assert digest(result.lines) == RING16_901_HALTING[5]


@pytest.mark.parametrize(
    "angles, cut, safe_until",
    [
        ([0.0, 0.3, np.pi / 2, np.pi / 2], False, 2.0),
        ([0.0, 0.3, np.pi / 2, np.pi / 2], True, 2.0),
        ([0.0, 0.3, 0.3, 0.3], True, 3.0),
        ([0.0, 0.3, 0.3, 0.3], False, np.inf),
    ],
)
def test_a_due_pair_sleeps_until_its_first_instant_at_or_below_the_margin(angles, cut, safe_until):
    """Clear at every instant, it sleeps until the last instant of a cut
    window, or for good; a check before its wake-up measures nothing."""
    left, right = facing_pair(gap=1.0, lengths=(0.5,))
    monitor = Monitor(Layout({"left": left, "right": right}, []), CheckParams(margin=0.02))
    assert monitor.ii.size == 1

    def window(groups, limit):
        assert groups == ["left", "right"] and limit >= 4
        q = {"left": np.array(angles)[:, None], "right": np.array([[-np.pi / 2]])}
        return np.arange(4.0), q, cut

    assert not monitor.check(0.0, window).colliding
    assert monitor.safe_until.tolist() == [safe_until]
    assert monitor.check(1.0, None) == CollisionReport(False, None, None, FAR)


def test_a_cancel_mid_motion_wakes_the_pairs_of_the_parked_arm():
    """The right arm leaves the left arm's path before the left arm gets
    there, so the first check puts every pair to sleep through its window.
    Cancelled in the path, the right arm parks off its plan: its pairs must
    wake, and the left arm halts where the full check says it collides."""
    left, right = facing_pair(vlims=(1.0, 2.0))
    idle_l, idle_r = [np.pi / 2 - 2.0, 0.0], [-np.pi / 2, 0.0]
    scene = scene_of([left, right], [idle_l, idle_r])
    with monitor_oracle(scene) as counts:
        mgr = ExecutionManager(scene, CheckParams(dt=0.01, margin=0.02), monitor_period=5)
        away = mgr.submit(sweep_traj(right, idle_r, [-np.pi / 2 + 1.5, 0.0], "away"), 10.0)
        sweep = mgr.submit(sweep_traj(left, idle_l, [np.pi / 2 + 0.5, 0.0], "sweep"), 10.0)
        for _ in range(5):
            mgr.tick()
        assert set(mgr.running_records()) == {"left", "right"}
        assert np.all(mgr._monitor.safe_until == np.inf)
        for _ in range(5):
            mgr.tick()
        mgr.cancel(away)
        for _ in range(300):
            mgr.tick()
    assert mgr.all_terminal() and counts["colliding"] == 1
    status = mgr.status(sweep)
    assert status.kind is StatusKind.ABORTED_COLLISION
    full = composite_state_check(mgr.current_states(), scene, 0.02)
    assert full.colliding and status.witness == full.witness
    witness = "|".join(owner_str(o) for o in full.witness)
    halt = Event(status.at, "COLLISION_HALT", "sweep", (witness, full.min_clearance_seen))
    assert mgr.event_lines()[-1] == halt.line()


@pytest.mark.parametrize("first", [0.0, -1.0])
def test_an_arm_boxed_near_an_obstacle_halts_where_the_full_check_collides(first):
    """A one-link arm swings up to end 0.9 margin below a sphere, straight
    along y, while another arm runs far away (so each admission sweeps and
    boxes the run), after a first run that swung it away from the sphere, or
    none. The arm's box must be its new run's, grown by half the margin: the
    old run's box, or one grown less, lies apart from the sphere's, and the
    pair would sleep through the contact that halts the far arm."""
    margin = 0.02
    arm = planar_arm("arm", lengths=(0.5,), vlim=1.0)
    far = planar_arm("far", (10.0, 0.0, 0.0), lengths=(0.5,), vlim=0.2)
    top = 0.5 + 0.05 + 0.9 * margin  # the sphere's lowest point above the base
    sphere = Sphere((0.0, top + 0.05, 0.0), 0.05)
    scene = scene_of([arm, far], [[0.0], [0.0]], [PlacedPrimitive(sphere, ("static", 0))])
    with monitor_oracle(scene) as counts:
        mgr = ExecutionManager(scene, CheckParams(dt=0.002, margin=margin), tick_length=0.01,
                               check_static=False)
        away = mgr.submit(sweep_traj(far, [0.0], [2.0], "far"), 30.0)
        mgr.tick()
        if first:
            mgr.submit(sweep_traj(arm, [0.0], [first], "away"), 30.0)
        up = mgr.submit(sweep_traj(arm, [first], [np.pi / 2], "up"), 30.0)
        while not mgr.all_terminal():
            mgr.tick()
    # the arm completes on the tick whose check halts the far arm
    assert mgr.status(up).kind is StatusKind.SUCCEEDED and counts["colliding"] == 1
    status = mgr.status(away)
    assert status.kind is StatusKind.ABORTED_COLLISION and status.at == mgr.status(up).finish
    assert status.witness == (("arm", 0), ("static", 0))
