"""Acceptance suite: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines; the test outcomes themselves are the pass/fail record.
"""

import time

import numpy as np
import pytest

from multiarm import (
    JointState,
    RunningRecord,
    StatusKind,
    fixture_path,
    load_scenario,
    metrics_from_events,
    replay_min_clearance,
    run,
    write_metrics,
)
from multiarm.geometry import Capsule, PlacedPrimitive, Sphere, segments_of
from multiarm.executor import Event
from multiarm.harness import FIXTURES

from conftest import crossing_case, planar_arm, random_scenario, running_check
from oracles import (
    dense_running_sweep,
    finite_difference_speeds,
    forward_kinematics,
    grid_segment_distance_batch,
    planar_chain_points,
    primitive_clearance,
)

_T0 = time.monotonic()
TICK = 0.01


@pytest.fixture(scope="module")
def fixture_scenarios():
    return {name: load_scenario(fixture_path(name)) for name in FIXTURES}


@pytest.fixture(scope="module")
def random_runs():
    rng = np.random.default_rng(515151)
    out = []
    for _ in range(20):
        sc = random_scenario(rng)
        out.append((sc, run(sc, "async")))
    return out


def test_criterion_1_geometry_oracle_agreement(rng):
    started = time.monotonic()
    n = 10_000
    prims = []
    for k in range(2 * n):
        p0 = rng.uniform(-2, 2, 3)
        if rng.random() < 0.25:
            prims.append(PlacedPrimitive(Sphere(p0, float(rng.uniform(0.05, 0.4))), ("p", k)))
        else:
            p1 = p0 + rng.uniform(-1, 1, 3)
            prims.append(
                PlacedPrimitive(Capsule(p0, p1, float(rng.uniform(0.05, 0.4))), ("p", k))
            )
    set_a, set_b = prims[:n], prims[n:]
    a0, a1, ra = segments_of(set_a)
    b0, b1, rb = segments_of(set_b)
    oracle = grid_segment_distance_batch(a0, a1, b0, b1) - ra - rb

    worst = 0.0
    for i in range(n):
        fwd = primitive_clearance(set_a[i], set_b[i])
        rev = primitive_clearance(set_b[i], set_a[i])
        assert fwd.signed_distance == rev.signed_distance  # exact symmetry
        worst = max(worst, abs(fwd.signed_distance - oracle[i]))
    elapsed = time.monotonic() - started
    assert worst < 1e-4
    assert elapsed < 10.0
    print(
        f"ACCEPTANCE 1 (geometry oracle, {n} pairs): PASS "
        f"max |err|={worst:.2e} m, {elapsed:.1f} s"
    )


def test_criterion_2_kinematics(rng):
    lengths = (0.8, 0.55)
    model = planar_arm("arm", base_xyz=(0.2, -0.4, 0.0), lengths=lengths, limits=(-3.2, 3.2))
    worst_fk = 0.0
    for _ in range(1000):
        q = rng.uniform(-3.2, 3.2, 2)
        pts = planar_chain_points((0.2, -0.4), lengths, q)
        prims = forward_kinematics(model, JointState("arm", q))
        for k, prim in enumerate(prims):
            err = max(
                np.linalg.norm(prim.shape.p0[:2] - pts[k]),
                np.linalg.norm(prim.shape.p1[:2] - pts[k + 1]),
            )
            worst_fk = max(worst_fk, float(err))
    assert worst_fk <= 1e-9

    bound = model.max_cartesian_speed_bound
    vlim = model.joint_velocity_limits
    worst_speed = 0.0
    for _ in range(10_000):
        q = rng.uniform(-3.1, 3.1, 2)
        qdot = rng.uniform(-1.0, 1.0, 2) * vlim
        worst_speed = max(worst_speed, float(np.max(finite_difference_speeds(model, q, qdot))))
    assert worst_speed <= bound * (1 + 1e-6)
    print(
        f"ACCEPTANCE 2 (kinematics): PASS fk err={worst_fk:.1e} m, "
        f"speed {worst_speed:.3f} <= bound {bound:.3f} m/s"
    )


def test_criterion_3_discrete_check_soundness(rng):
    cases = 50
    colliding = 0
    missed = 0
    worst_dt_err = 0.0
    for _ in range(cases):
        cand, running_traj, start, now, params, models = crossing_case(rng)
        # soundness precondition: margin >= 2 * combined bound * dt
        combined = sum(m.max_cartesian_speed_bound for m in models.values())
        assert params.margin >= 2.0 * combined * params.dt
        rec = RunningRecord(running_traj, start)
        report = running_check(cand, rec, now, params, models)
        ts, dense = dense_running_sweep(cand, rec, now, models, step=params.dt / 100)
        if dense.min() <= 0.0:
            colliding += 1
            if not report.colliding:
                missed += 1
            else:
                tau_oracle = float(ts[np.nonzero(dense <= params.margin)[0][0]])
                worst_dt_err = max(worst_dt_err, abs(report.first_collision_time - tau_oracle))
    assert missed == 0
    assert colliding >= 20
    assert worst_dt_err <= params.dt + 1e-9
    print(
        f"ACCEPTANCE 3 (discrete-check soundness, {cases} scenarios, "
        f"{colliding} colliding): PASS 0 missed, worst dt err={worst_dt_err:.4f} s"
    )


def test_criterion_4_scheduler_safety(fixture_scenarios, random_runs):
    audited = 0
    worst = np.inf
    for name, sc in fixture_scenarios.items():
        result = run(sc, "async")
        low = replay_min_clearance(sc, result, factor=10)
        assert low > 0.0, f"{name}: dense replay found clearance {low}"
        worst = min(worst, low)
        audited += 1
    for sc, result in random_runs:
        low = replay_min_clearance(sc, result, factor=10)
        assert low > 0.0, f"seeded scenario: dense replay found clearance {low}"
        worst = min(worst, low)
        audited += 1
    print(
        f"ACCEPTANCE 4 (scheduler safety, {audited} runs re-simulated at tick/10): "
        f"PASS min true clearance={worst:.3f} m"
    )


def test_criterion_5_async_advantage(fixture_scenarios):
    sc = fixture_scenarios["disjoint.json"]
    ra = run(sc, "async")
    rs = run(sc, "sync")
    assert abs(ra.metrics.makespan - 3.00) <= 0.02
    assert abs(rs.metrics.makespan - 5.00) <= 0.02
    sc = fixture_scenarios["crossing.json"]
    ca = run(sc, "async")
    cs = run(sc, "sync")
    assert abs(ca.metrics.makespan - cs.metrics.makespan) <= 0.02
    assert ca.metrics.backlog_entries == 1
    print(
        "ACCEPTANCE 5 (async advantage): PASS "
        f"disjoint {ra.metrics.makespan:.2f}/{rs.metrics.makespan:.2f} s, "
        f"crossing {ca.metrics.makespan:.2f}/{cs.metrics.makespan:.2f} s, 1 backlog"
    )


def test_criterion_6_timeout_and_liveness(fixture_scenarios, random_runs):
    sc = fixture_scenarios["timeout.json"]
    result = run(sc, "async")
    aborted = [s for s in result.statuses.values() if s.kind is StatusKind.ABORTED_TIMEOUT]
    assert len(aborted) == 1
    submit_clock = min(e.clock for e in map(Event.parse, result.lines) if e.kind == "SUBMITTED")
    assert abs(aborted[0].at - (submit_clock + 2.0)) <= TICK + 1e-9

    for sc, res in random_runs:
        assert all(s.terminal for s in res.statuses.values())
    print(
        "ACCEPTANCE 6 (timeout + liveness): PASS "
        f"abort at {aborted[0].at:.2f} s; all handles terminal in {len(random_runs)} random runs"
    )


def test_criterion_7_determinism(fixture_scenarios, tmp_path):
    for name in FIXTURES:
        for mode in ("async", "sync"):
            first = run(load_scenario(fixture_path(name)), mode)
            second = run(load_scenario(fixture_path(name)), mode)
            assert first.lines == second.lines
            p1 = tmp_path / f"{name}.{mode}.1.csv"
            p2 = tmp_path / f"{name}.{mode}.2.csv"
            write_metrics(metrics_from_events(first.lines, mode), p1)
            write_metrics(metrics_from_events(second.lines, mode), p2)
            assert p1.read_bytes() == p2.read_bytes()
    print("ACCEPTANCE 7 (determinism): PASS byte-identical logs and CSVs for all fixtures")


def test_criterion_8_suite_runtime():
    elapsed = time.monotonic() - _T0
    assert elapsed < 60.0
    print(f"ACCEPTANCE 8 (runtime): PASS acceptance suite took {elapsed:.1f} s")
