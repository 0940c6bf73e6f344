import json
import math
from pathlib import Path

import numpy as np
import pytest

from multiarm import (
    Capsule,
    CheckParams,
    CollisionReport,
    JointSpec,
    JointState,
    LinkGeometry,
    MissingGroupState,
    PlacedPrimitive,
    RobotModel,
    RunningRecord,
    Scene,
    Sphere,
    Timeline,
    UnknownGroup,
    collision,
    composite_state_check,
    fixture_path,
    load_scenario,
    pose,
    required_margin,
    run,
)
from multiarm.collision import BoxTable, Layout, Monitor, Placed, _apart, candidate_sweep
from multiarm.harness import scenario_from_dict
from multiarm.geometry import FAR

from conftest import (
    crossing_case,
    facing_pair,
    planar_arm,
    running_check,
    scene_of,
    sweep_traj,
    timeline_sweep,
)
from oracles import (
    dense_running_sweep,
    forward_kinematics,
    primitive_clearance,
    unculled_monitor,
    unculled_sweep,
)

DATA = Path(__file__).parent / "data"
# of the ring run's 1 096 pairs, those the box table retires at its first monitor check
RING_FIRST_RETIRED = 1_094

def cross_check(left, qa, right, qb, margin):
    """The monitor on a two-arm scene; the 2-link arms exempt all self pairs."""
    scene = scene_of([left, right], [qa.positions, qb.positions])
    return composite_state_check({"left": qa, "right": qb}, scene, margin)


def test_far_apart_arms_clear(rng):
    left = planar_arm("left", (0, 0, 0), lengths=(1.0, 1.0))
    right = planar_arm("right", (10, 0, 0), lengths=(1.0, 1.0))
    for _ in range(20):
        qa = JointState("left", rng.uniform(-3, 3, 2))
        qb = JointState("right", rng.uniform(-3, 3, 2))
        c = cross_check(left, qa, right, qb, margin=0.02)
        assert c.min_clearance_seen >= 8.0  # may be +inf once broadphase prunes
        assert not c.colliding


def test_interleaved_arms_penetrate():
    left = planar_arm("left", (0, 0, 0), lengths=(1.0, 1.0), limits=(-3.2, 3.2))
    right = planar_arm("right", (1, 0, 0), lengths=(1.0, 1.0), limits=(-3.2, 3.2))
    qa = JointState("left", [0.0, 0.0])  # points at right base, overlapping it
    qb = JointState("right", [np.pi, 0.0])  # points back at left base
    got = cross_check(left, qa, right, qb, margin=0.02)
    assert got.min_clearance_seen < 0
    # the oracle: minimum over primitive_clearance of all placed cross pairs
    placed_a = forward_kinematics(left, qa)
    placed_b = forward_kinematics(right, qb)
    want = min(
        primitive_clearance(pa, pb).signed_distance for pa in placed_a for pb in placed_b
    )
    assert got.min_clearance_seen == pytest.approx(want, abs=1e-12)


def test_layout_never_cross_pairs_a_robot_with_itself():
    arms = [planar_arm(g, (k, 0, 0), lengths=(0.4, 0.4, 0.4)) for k, g in enumerate("abc")]
    layout = scene_of(arms, [[0, 0, 0]] * 3).layout
    groups = [(layout.owners[i][0], layout.owners[j][0]) for i, j in zip(layout.ii, layout.jj)]
    # the self pairs (link 0 with link 2 of each arm) come first, then only cross pairs
    assert groups[: layout.n_self] == [("a", "a"), ("b", "b"), ("c", "c")]
    assert all(ga < gb for ga, gb in groups[layout.n_self :])
    assert len(groups) == 3 + 3 * 9


def test_allowed_pairs_never_apply_across_robots():
    # both robots exempt everything internally; the cross pair must still hit
    left = planar_arm("left", (0, 0, 0), lengths=(1.0, 1.0), limits=(-3.2, 3.2))
    right = planar_arm("right", (1.5, 0, 0), lengths=(1.0, 1.0), limits=(-3.2, 3.2))
    c = cross_check(
        left, JointState("left", [0, 0]), right, JointState("right", [np.pi, 0]), margin=0.02
    )
    assert c.min_clearance_seen < 0
    assert c.colliding
    assert c.witness[0][0] == "left" and c.witness[1][0] == "right"


def test_trajectory_vs_running_disjoint_clear():
    left = planar_arm("left", (0, 0, 0), lengths=(1.0, 1.0))
    right = planar_arm("right", (10, 0, 0), lengths=(1.0, 1.0))
    models = {"left": left, "right": right}
    cand = sweep_traj(right, [0.0, 0.0], [2.0, 0.5], "cand")
    running = RunningRecord(sweep_traj(left, [0.0, 0.0], [1.5, -0.5], "run"), start_time=0.0)
    report = running_check(cand, running, 0.5, CheckParams(), models)
    assert not report.colliding
    assert report.first_collision_time is None


def test_trajectory_vs_running_matches_dense_oracle(rng):
    hits = 0
    for _ in range(15):
        cand, running_traj, start, now, params, models = crossing_case(rng)
        rec = RunningRecord(running_traj, start)
        report = running_check(cand, rec, now, params, models)
        ts, dense = dense_running_sweep(cand, rec, now, models, step=params.dt / 100)
        if dense.min() <= 0.0:
            assert report.colliding  # soundness under the margin/dt condition
        if report.colliding and dense.min() <= params.margin:
            tau_oracle = float(ts[np.nonzero(dense <= params.margin)[0][0]])
            assert abs(report.first_collision_time - tau_oracle) <= params.dt + 1e-9
            hits += 1
    assert hits >= 5  # the generator must actually produce colliding cases


def test_trajectory_vs_running_held_state():
    # running trajectory finished long ago; candidate sweeps through its
    # parked posture, which must still collide
    left, right = facing_pair(gap=1.5)
    models = {"left": left, "right": right}
    parked = sweep_traj(left, [np.pi / 2 - 0.8, 0.0], [np.pi / 2, 0.0], "run")  # ends at centre
    cand = sweep_traj(right, [-np.pi / 2 + 1.0, 0.0], [-np.pi / 2 - 1.0, 0.0], "cand")
    rec = RunningRecord(parked, start_time=0.0)
    report = running_check(cand, rec, parked.duration + 5.0, CheckParams(), models)
    assert report.colliding


def test_trajectory_vs_running_covers_parked_candidate():
    # candidate finishes in the running arm's future path; the held end state
    # must be checked over the running trajectory's remaining horizon
    left, right = facing_pair(gap=1.5)
    models = {"left": left, "right": right}
    slow = planar_arm("left", (0.0, -0.75, 0.0), vlim=0.1)
    models["left"] = slow
    running = RunningRecord(
        sweep_traj(slow, [np.pi / 2 - 1.0, 0.0], [np.pi / 2 + 1.0, 0.0], "run"), 0.0
    )
    # quick dart to the centre, parking inside the running arm's later sweep
    cand = sweep_traj(right, [-np.pi / 2 + 1.4, 0.0], [-np.pi / 2, 0.0], "cand")
    report = running_check(cand, running, 0.0, CheckParams(), models)
    assert report.colliding
    assert report.first_collision_time > cand.duration


def test_candidate_sweep_rejects_own_group_and_future_records():
    cand, running_traj, start, now, params, models = crossing_case(np.random.default_rng(3))
    layout = scene_of(list(models.values()), [[0.0, 0.0], [0.0, 0.0]]).layout
    with pytest.raises(ValueError):
        timeline_sweep(cand, now, params, layout, [RunningRecord(cand, now)])
    with pytest.raises(ValueError):
        timeline_sweep(cand, now, params, layout, [RunningRecord(running_traj, now + 1.0)])
    running = RunningRecord(running_traj, start)
    parked = {g: JointState(g, [0.0, 0.0]) for g in (cand.group_id, running_traj.group_id)}
    for g, q in parked.items():
        with pytest.raises(ValueError):
            timeline_sweep(cand, now, params, layout, [running], {g: q})


def test_candidate_sweep_refuses_a_record_that_starts_one_ulp_after_now():
    # the executor's start clocks and `now` are tick multiples, a start's at
    # or below now's, so the test needs no slack
    cand, running_traj, start, now, params, models = crossing_case(np.random.default_rng(3))
    layout = scene_of(list(models.values()), [[0.0, 0.0], [0.0, 0.0]]).layout
    later = RunningRecord(running_traj, math.nextafter(now, math.inf))
    with pytest.raises(ValueError):
        timeline_sweep(cand, now, params, layout, [later])
    timeline_sweep(cand, now, params, layout, [RunningRecord(running_traj, now)])  # started at now


def static_check(candidate, scene, postures=None):
    """The candidate's check against the obstacles and every other, parked, arm."""
    postures = scene.idle_postures if postures is None else postures
    parked = {g: q for g, q in postures.items() if g != candidate.group_id}
    (report,) = timeline_sweep(candidate, 0.0, CheckParams(), scene.layout, [], parked)
    return report


def test_trajectory_vs_static_empty_scene_clear():
    arm = planar_arm("arm", lengths=(1.0, 1.0))
    scene = scene_of([arm], [[0.0, 0.0]])
    cand = sweep_traj(arm, [-0.5, 0.0], [0.5, 0.0], "cand")
    report = static_check(cand, scene)
    assert not report.colliding


def test_trajectory_vs_static_obstacle_on_path_midpoint():
    arm = planar_arm("arm", lengths=(1.0, 1.0), limits=(-3.2, 3.2))
    obstacle = PlacedPrimitive(Sphere((2.0, 0.0, 0.0), 0.1), ("static", 0))
    scene = scene_of([arm], [[-0.5, 0.0]], obstacles=[obstacle])
    cand = sweep_traj(arm, [-0.5, 0.0], [0.5, 0.0], "cand")  # tip passes (2,0,0) at midtime
    report = static_check(cand, scene)
    assert report.colliding
    assert report.witness[1] == ("static", 0)
    # the sphere sits exactly on the midpoint of the tip's arc
    assert abs(report.first_collision_time - cand.duration / 2) < 0.2 * cand.duration


def test_trajectory_vs_static_idle_arm_out_of_reach():
    left, right = facing_pair(gap=4.0)
    scene = scene_of([left, right], [[0.0, 0.0], [0.0, 0.0]])
    cand = sweep_traj(left, [0.0, 0.0], [1.0, 0.5], "cand")
    report = static_check(cand, scene)
    assert not report.colliding


def test_trajectory_vs_static_idle_posture_override():
    left, right = facing_pair(gap=1.5)
    scene = scene_of([left, right], [[np.pi / 2 - 1.0, 0.0], [-np.pi / 2 + 1.0, 0.0]])
    cand = sweep_traj(left, [np.pi / 2 - 1.0, 0.0], [np.pi / 2 + 1.0, 0.0], "cand")
    assert not static_check(cand, scene).colliding
    # the right arm has since parked across the centre
    parked = {"right": JointState("right", [-np.pi / 2, 0.0]), "left": scene.idle_postures["left"]}
    report = static_check(cand, scene, parked)
    assert report.colliding


def test_composite_single_arm_home_clear():
    arm = planar_arm("arm")
    scene = scene_of([arm], [[0.0, 0.0]])
    report = composite_state_check({"arm": JointState("arm", [0, 0])}, scene, margin=0.02)
    assert not report.colliding
    assert report.first_collision_time is None


def test_composite_witness_identifies_overlapping_pair():
    left, right = facing_pair(gap=1.0)
    scene = scene_of([left, right], [[np.pi / 2, 0.0], [-np.pi / 2, 0.0]])
    states = {
        "left": JointState("left", [np.pi / 2, 0.0]),
        "right": JointState("right", [-np.pi / 2, 0.0]),
    }
    report = composite_state_check(states, scene, margin=0.02)
    assert report.colliding
    assert report.first_collision_time == 0.0
    # arms point at each other along x=0: the distal links overlap most deeply
    placed_l = forward_kinematics(left, states["left"])
    placed_r = forward_kinematics(right, states["right"])
    best = min(
        (primitive_clearance(pa, pb).signed_distance, pa.owner, pb.owner)
        for pa in placed_l
        for pb in placed_r
    )
    assert report.min_clearance_seen == pytest.approx(best[0], abs=1e-12)
    assert set(report.witness) == {best[1], best[2]}


def test_composite_margin_semantics():
    left, right = facing_pair(gap=1.5)
    states = {
        "left": JointState("left", [np.pi / 2, 0.0]),
        "right": JointState("right", [-np.pi / 2 + 0.9, 0.0]),
    }
    scene = scene_of([left, right], [[np.pi / 2, 0.0], [-np.pi / 2 + 0.9, 0.0]])
    measured = composite_state_check(states, scene, margin=10.0)
    assert measured.colliding  # everything is within 10 m
    gap = measured.min_clearance_seen
    assert gap > 0
    below = composite_state_check(states, scene, margin=gap * 0.9)
    assert not below.colliding
    above = composite_state_check(states, scene, margin=gap * 1.1)
    assert above.colliding


def test_composite_self_collision_respects_allowed_pairs():
    # fold a 3-link chain onto itself: links 0 and 2 overlap
    arm = planar_arm("arm", lengths=(0.4, 0.4, 0.4), limits=(-3.2, 3.2))
    folded = JointState("arm", [0.0, 3.0, 3.0])
    scene = scene_of([arm], [[0.0, 0.0, 0.0]])
    report = composite_state_check({"arm": folded}, scene, margin=0.02)
    assert report.colliding
    assert set(report.witness) == {("arm", 0), ("arm", 2)}
    permissive = planar_arm("perm", lengths=(0.4, 0.4, 0.4), limits=(-3.2, 3.2))
    permissive.allowed_pairs.add((0, 2))
    scene2 = scene_of([permissive], [[0.0, 0.0, 0.0]])
    report2 = composite_state_check({"perm": JointState("perm", [0.0, 3.0, 3.0])}, scene2, 0.02)
    assert not report2.colliding


def test_composite_missing_and_unknown_groups():
    left, right = facing_pair()
    scene = scene_of([left, right], [[0, 0], [0, 0]])
    with pytest.raises(MissingGroupState):
        composite_state_check({"left": JointState("left", [0, 0])}, scene, 0.02)
    states = {
        "left": JointState("left", [0, 0]),
        "right": JointState("right", [0, 0]),
        "ghost": JointState("ghost", [0, 0]),
    }
    with pytest.raises(UnknownGroup):
        composite_state_check(states, scene, 0.02)


def test_composite_equals_pairwise_minimum(rng):
    left, right = facing_pair(gap=1.4)
    obstacle = PlacedPrimitive(Sphere((0.3, 0.0, 0.0), 0.08), ("static", 0))
    scene = scene_of([left, right], [[0, 0], [0, 0]], obstacles=[obstacle])
    margin = 5.0
    for _ in range(25):
        states = {
            "left": JointState("left", rng.uniform(-2, 2, 2)),
            "right": JointState("right", rng.uniform(-2, 2, 2)),
        }
        combined = composite_state_check(states, scene, margin)
        placed = {g: forward_kinematics(scene.robots[g], states[g]) for g in ("left", "right")}
        pairs = [(pa, pb) for pa in placed["left"] for pb in placed["right"]]
        pairs += [(p, obstacle) for g in ("left", "right") for p in placed[g]]
        want = min(primitive_clearance(a, b).signed_distance for a, b in pairs)
        assert combined.min_clearance_seen == pytest.approx(want, abs=1e-12)


def test_margin_monotonicity(rng):
    for _ in range(10):
        cand, running_traj, start, now, params, models = crossing_case(rng)
        rec = RunningRecord(running_traj, start)
        low = running_check(cand, rec, now, params, models)
        bigger = CheckParams(dt=params.dt, margin=params.margin * 3)
        high = running_check(cand, rec, now, bigger, models)
        if low.colliding:
            assert high.colliding


def test_dt_monotonicity(rng):
    for _ in range(8):
        cand, running_traj, start, now, params, models = crossing_case(rng)
        rec = RunningRecord(running_traj, start)
        coarse = running_check(cand, rec, now, params, models)
        fine = running_check(
            cand, rec, now, CheckParams(dt=params.dt / 4, margin=params.margin), models
        )
        assert fine.min_clearance_seen <= coarse.min_clearance_seen + 1e-12


def test_swap_roles_verdicts_agree(rng):
    for _ in range(10):
        cand, running_traj, start, now, params, models = crossing_case(rng)
        fwd = running_check(cand, RunningRecord(running_traj, now), now, params, models)
        rev = running_check(running_traj, RunningRecord(cand, now), now, params, models)
        assert fwd.colliding == rev.colliding
        if fwd.colliding:
            assert fwd.first_collision_time == pytest.approx(rev.first_collision_time, abs=params.dt)


def test_required_margin_formula():
    left, right = facing_pair(vlims=(0.5, 0.25))
    assert required_margin(left, right, 0.01) == pytest.approx(
        2.0 * (left.max_cartesian_speed_bound + right.max_cartesian_speed_bound) * 0.01
    )
    assert required_margin(left, None, 0.01) == pytest.approx(
        2.0 * left.max_cartesian_speed_bound * 0.01
    )


def test_check_params_validation():
    with pytest.raises(ValueError):
        CheckParams(dt=0.0)
    with pytest.raises(ValueError):
        CheckParams(margin=-0.1)


def test_scene_validation():
    arm = planar_arm("arm")
    with pytest.raises(ValueError):
        Scene(robots={"arm": arm}, idle_postures={}, static_obstacles=[])
    with pytest.raises(ValueError):
        Scene(
            robots={"arm": arm},
            idle_postures={"arm": JointState("arm", [0, 0])},
            static_obstacles=[PlacedPrimitive(Sphere((0, 0, 0), 0.1), ("arm", 0))],
        )


def test_a_scene_refuses_an_idle_posture_outside_joint_limits():
    """A scene built without the loader: an arm idle outside its limits
    would fail only at the first sweep, inside `tick()`, after its entry
    had left the queue."""
    a = planar_arm("a", limits=(-1.0, 1.0))
    b = planar_arm("b", (1.5, 0.0, 0.0), limits=(-1.0, 1.0))
    with pytest.raises(ValueError, match="^idle posture of 'b' outside joint limits$"):
        scene_of([a, b], [[0.0, 0.0], [2.0, 0.0]])
    with pytest.raises(ValueError, match="outside joint limits"):
        scene_of([a, b], [[np.nan, 0.0], [0.0, 0.0]])
    scene_of([a, b], [[0.0, 0.0], [1.0, -1.0]])  # the limits themselves are inside


def brute_force_pairs(scene, states):
    """(clearance, owner, owner) of every pair the monitor covers, in its
    documented order, from primitive_clearance on forward_kinematics."""
    groups = sorted(scene.robots)
    placed = {g: forward_kinematics(scene.robots[g], states[g]) for g in groups}
    out = []
    for g in groups:
        prims = placed[g]
        for i in range(len(prims)):
            for j in range(i + 1, len(prims)):
                if (i, j) not in scene.robots[g].allowed_pairs:
                    out.append((prims[i], prims[j]))
    for a, ga in enumerate(groups):
        for gb in groups[a + 1 :]:
            out.extend((pa, pb) for pa in placed[ga] for pb in placed[gb])
    for g in groups:
        out.extend((pa, ps) for pa in placed[g] for ps in scene.static_obstacles)
    return [(primitive_clearance(a, b).signed_distance, a.owner, b.owner) for a, b in out]


def random_states(scene, rng, spread=1.0):
    """In-limit states, drawn from the middle `spread` share of each range."""
    states = {}
    for g, m in scene.robots.items():
        mid, half = (m._hi + m._lo) / 2.0, (m._hi - m._lo) / 2.0
        states[g] = JointState(g, mid + spread * rng.uniform(-half, half))
    return states


def planar_ring(arms=16, radius=2.0):
    """Planar 3-link arms on a ring, bases facing the centre, around an obstacle."""
    models = []
    for k in range(arms):
        angle = 2.0 * np.pi * k / arms
        base = (radius * np.cos(angle), radius * np.sin(angle), 0.0)
        models.append(
            planar_arm(
                f"arm{k:02d}", base, lengths=(0.35, 0.3, 0.25), radius=0.04,
                limits=(-1.3, 1.3), base_rpy=(0.0, 0.0, angle + np.pi),
            )
        )
    obstacle = PlacedPrimitive(Sphere((0.0, 0.0, 0.0), 0.6), ("static", 0))
    return scene_of(models, [[0.0, 0.0, 0.0]] * arms, obstacles=[obstacle])


@pytest.mark.parametrize("name", ["panda_like_shared", "ring16"])
def test_composite_matches_brute_force_oracle(name, rng):
    if name == "ring16":
        scene, margin, samples = planar_ring(), 0.05, 12
    else:
        scene, margin, samples = load_scenario(fixture_path(f"{name}.json")).scene, 0.02, 40
    seen = {True: 0, False: 0}
    for k in range(samples):
        states = random_states(scene, rng, spread=(0.2, 1.0)[k % 2])
        pairs = brute_force_pairs(scene, states)
        values = np.array([c for c, _, _ in pairs])
        best = float(values.min())
        # crossing planar links all give -(r_a + r_b): the witness is one of
        # the pairs at the minimum, up to rounding
        tied = [owners for c, *owners in pairs if c <= best + 1e-12]
        # with a margin spanning the workspace no pair is pruned: exact agreement
        wide = composite_state_check(states, scene, margin=100.0)
        assert wide.min_clearance_seen == pytest.approx(best, abs=1e-12)
        assert list(wide.witness) in tied
        report = composite_state_check(states, scene, margin)
        assert report.colliding == (best <= margin)
        seen[report.colliding] += 1
        if report.colliding:
            assert report.min_clearance_seen == pytest.approx(best, abs=1e-12)
            assert list(report.witness) in tied
        else:
            assert report.min_clearance_seen >= best - 1e-12
    assert seen[True] and seen[False]  # both verdicts exercised


def test_candidate_sweep_matches_separate_checks(rng):
    # one sweep over two running arms with different horizons, a parked arm
    # and an obstacle gives the verdicts of the separate checks
    hits = 0
    for _ in range(12):
        cand, running_traj, start, now, params, models = crossing_case(rng)
        far = planar_arm("far", (4.0, 0.0, 0.0), lengths=(0.5, 0.5))
        parked = planar_arm("park", (float(rng.uniform(-1.2, -0.8)), 0.0, 0.0), lengths=(0.5, 0.4))
        obstacle = PlacedPrimitive(Sphere((float(rng.uniform(0.3, 1.0)), 0.0, 0.0), 0.1), ("static", 0))
        scene = scene_of(
            [models["left"], models["right"], far, parked],
            [[0.0, 0.0], [0.0, 0.0], [0.0, 0.0], [float(rng.uniform(-0.6, 0.6)), 0.0]],
            obstacles=[obstacle],
        )
        records = [
            RunningRecord(running_traj, start),
            RunningRecord(sweep_traj(far, [0.0, 0.0], [float(rng.uniform(0.1, 3.0)), 0.0], "far"), now),
        ]
        idle = {"park": scene.idle_postures["park"]}
        reports = timeline_sweep(cand, now, params, scene.layout, records, idle)
        assert len(reports) == 3
        for rec, got in zip(records, reports):
            models = {g: scene.robots[g] for g in (cand.group_id, rec.trajectory.group_id)}
            want = running_check(cand, rec, now, params, models)
            assert got.colliding == want.colliding
            assert got.first_collision_time == want.first_collision_time
            assert got.witness == want.witness
            assert got.min_clearance_seen == pytest.approx(want.min_clearance_seen, abs=1e-12)
        (want,) = timeline_sweep(cand, now, params, scene.layout, [], idle)
        assert reports[2] == want
        hits += reports[0].colliding + reports[2].colliding
    assert hits >= 4


def skewed_arm(rng, group, base_xyz):
    """A 3-D arm with offset joints, tilted axes, a turned base, and shapes
    off their frame origins, several on one frame. Its random shapes would
    touch each other in most states, so it has no self pairs."""
    joints = []
    for _ in range(3):
        axis = rng.normal(size=3)
        joints.append(JointSpec.from_xyz_rpy(
            axis=axis / np.linalg.norm(axis), xyz=rng.uniform(-0.3, 0.3, 3),
            rpy=rng.uniform(-np.pi, np.pi, 3), limits=(-2.5, 2.5),
        ))
    links = [
        LinkGeometry(f, Capsule(rng.uniform(-0.2, 0.2, 3), rng.uniform(-0.3, 0.3, 3), 0.03))
        for f in (0, 1, 1, 2)
    ]
    links.append(LinkGeometry(2, Sphere(rng.uniform(-0.2, 0.2, 3), 0.05)))
    base = pose(base_xyz, rng.uniform(-np.pi, np.pi, 3))
    every = {(i, j) for i in range(len(links)) for j in range(i + 1, len(links))}
    return RobotModel(group, base, joints, links, [1.0, 1.0, 1.0], allowed_pairs=every)


def skewed_cell(rng):
    arms = [skewed_arm(rng, f"s{k}", (1.0 * k, 0.2 * k, 0.0)) for k in range(3)]
    obstacles = [
        PlacedPrimitive(Capsule((0.3, -0.5, 0.0), (1.0, 0.6, 0.2), 0.05), ("static", 0)),
        PlacedPrimitive(Sphere((0.4, 0.3, 0.3), 0.1), ("static", 1)),
    ]
    return scene_of(arms, [[0.0, 0.0, 0.0]] * 3, obstacles)


def gapped_ring():
    """The planar ring with small obstacles in some of the gaps between arms,
    which two neighbours can reach, besides the central one no arm can."""
    scene = planar_ring()
    for k in range(0, 16, 3):
        angle = 2.0 * np.pi * (k + 0.5) / 16
        centre = (1.75 * np.cos(angle), 1.75 * np.sin(angle), 0.0)
        scene.static_obstacles.append(PlacedPrimitive(Sphere(centre, 0.05), ("static", k + 1)))
    return scene


def same_verdict(got, want):
    colliding, time, witness, minimum = want
    assert (got.colliding, got.first_collision_time, got.witness) == (colliding, time, witness)
    if colliding:
        assert got.min_clearance_seen == minimum
    return colliding


@pytest.mark.parametrize("margin", [0.02, 0.05])
def test_culled_monitor_matches_the_full_pair_list(margin, rng, monkeypatch):
    for scene in (gapped_ring(), skewed_cell(rng)):
        seen = {True: 0, False: 0}
        for k in range(30):
            states = random_states(scene, rng, spread=(0.1, 0.3, 1.0)[k % 3])
            report = composite_state_check(states, scene, margin)
            seen[same_verdict(report, unculled_monitor(states, scene, margin))] += 1
        assert seen[True] and seen[False]
    # the ring run's first monitor check has every pair due, and the box table retires most
    first = []
    check = Monitor.check

    def spy(self, clock, window):
        if not first:
            due = np.flatnonzero(self.safe_until <= clock)
            boxes = self.table.boxes
            first.append((due.size, int(_apart(boxes[self.ii[due]], boxes[self.jj[due]]).sum())))
        return check(self, clock, window)

    monkeypatch.setattr(Monitor, "check", spy)
    run(scenario_from_dict(json.loads((DATA / "ring16_901.json").read_text())), "async")
    assert first == [(1096, RING_FIRST_RETIRED)]


@pytest.mark.parametrize("margin", [0.02, 0.05])
def test_culled_sweep_matches_the_full_pair_list(margin, rng):
    scene = gapped_ring()
    params = CheckParams(dt=0.05, margin=margin)
    groups = sorted(scene.robots)
    seen = {True: 0, False: 0}
    for _ in range(12):
        order = [str(g) for g in rng.permutation(groups)]
        cand_g, running_g, parked_g = order[0], order[1:7], order[7:]
        start = random_states(scene, rng)
        goal = random_states(scene, rng)
        trajs = {g: sweep_traj(scene.robots[g], start[g].positions, goal[g].positions, g)
                 for g in order[:7]}
        now = 1.0
        running = [RunningRecord(trajs[g], float(rng.uniform(0.0, now))) for g in running_g]
        parked = {g: start[g] for g in parked_g}
        got = timeline_sweep(trajs[cand_g], now, params, scene.layout, running, parked)
        want = unculled_sweep(trajs[cand_g], now, params, scene.layout, running, parked)
        assert len(got) == len(want) == len(running) + 1
        for report, reference in zip(got, want):
            seen[same_verdict(report, reference)] += 1
    assert seen[True] and seen[False]


def test_a_far_arm_is_placed_at_most_once_at_its_idle_posture_and_never_paired(monkeypatch):
    placed, pairs = [], []
    place, kernel = Layout.place, collision.pair_clearances

    def spy(self, q, *rest):
        placed.append(q)
        return place(self, q, *rest)

    def spy_kernel(p0, p1, radii, ii, jj, margin):
        pairs.append(len(ii))
        return kernel(p0, p1, radii, ii, jj, margin)

    monkeypatch.setattr(Layout, "place", spy)
    monkeypatch.setattr(collision, "pair_clearances", spy_kernel)
    # disjoint's arms stand 10 m apart: left's admission places the parked
    # right arm at its idle posture, with its own motion; right's places its
    # motion alone, as the table culls the running left arm; the monitor
    # places neither, and no pair is measured
    scenario = load_scenario(fixture_path("disjoint.json"))
    run(scenario, "async")
    assert [sorted(q) for q in placed] == [["left", "right"], ["right"]]
    assert np.array_equal(placed[0]["right"], scenario.scene.idle_postures["right"].positions[None])
    assert pairs == []
    clear = CollisionReport(False, None, None, FAR)
    assert composite_state_check(scenario.scene.idle_postures, scenario.scene, 0.02) == clear
    # a sweep against a running arm 4 m away, whose run box the table has, places the candidate only
    cand, _, _, now, params, models = crossing_case(np.random.default_rng(5))
    far = planar_arm("far", (4.0, 0.0, 0.0), lengths=(0.5, 0.5))
    layout = Layout({cand.group_id: models[cand.group_id], "far": far}, [])
    motion = sweep_traj(far, [0.0, 0.0], [1.0, 0.0], "far")
    run_placed, table = Placed(), BoxTable(layout, params.margin)
    timeline = Timeline({"far": JointState("far", [0.0, 0.0]),
                         cand.group_id: JointState(cand.group_id, cand.positions[0])})
    candidate_sweep(motion, 0.0, params, BoxTable(layout, params.margin), timeline, [], None, run_placed)
    timeline.runs["far"].append(RunningRecord(motion, 0.0))
    table.admit("far", run_placed.run_box(far, params))
    placed.clear()
    assert candidate_sweep(cand, now, params, table, timeline, ["far"]) == [clear]
    assert [sorted(q) for q in placed] == [[cand.group_id]]
