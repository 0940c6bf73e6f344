import json
import warnings
from pathlib import Path

import numpy as np
import pytest

from multiarm import (
    Capsule,
    DimensionMismatch,
    JointLimitViolation,
    JointSpec,
    JointState,
    LinkGeometry,
    PlacedPrimitive,
    RobotModel,
    Sphere,
    UnknownGroup,
    pose,
    within_limits,
)
from multiarm import CheckParams, ExecutionManager, fixture_path, load_scenario, run
from multiarm.collision import Layout
from multiarm.harness import FIXTURES, scenario_from_dict
from multiarm.geometry import MAX_EXTENT
from multiarm.kinematics import _LIMIT_SLACK, ArmStack, rotation_about_axis, rpy_matrix

from conftest import planar_arm
from oracles import (
    all_pairs_margin_bound,
    finite_difference_speeds,
    forward_kinematics,
    loop_placed_segments,
    loop_speed_bound,
    planar_chain_points,
)
from test_collision import skewed_arm, skewed_cell


def two_link(lengths=(1.0, 1.0)):
    return planar_arm("arm", lengths=lengths, limits=(-3.2, 3.2))


def distal_tip(model, q):
    prims = forward_kinematics(model, JointState("arm", q))
    return prims[-1].shape.p1


def test_straight_chain():
    assert np.allclose(distal_tip(two_link(), [0, 0]), [2, 0, 0], atol=1e-12)


def test_base_rotation():
    assert np.allclose(distal_tip(two_link(), [np.pi / 2, 0]), [0, 2, 0], atol=1e-12)


def test_elbow_bend_closed_form():
    assert np.allclose(distal_tip(two_link(), [np.pi / 2, -np.pi / 2]), [1, 1, 0], atol=1e-9)


def test_fk_respects_base_pose():
    model = planar_arm("arm", base_xyz=(1.0, 2.0, 0.5), lengths=(1.0, 1.0), limits=(-3.2, 3.2))
    prims = forward_kinematics(model, JointState("arm", [0, 0]))
    assert np.allclose(prims[-1].shape.p1, [3.0, 2.0, 0.5], atol=1e-12)


def test_fk_dimension_mismatch():
    with pytest.raises(DimensionMismatch):
        forward_kinematics(two_link(), JointState("arm", [0.0]))


def test_fk_limit_violation():
    with pytest.raises(JointLimitViolation):
        forward_kinematics(two_link(), JointState("arm", [3.3, 0.0]))


def test_within_limits_closed_interval():
    model = planar_arm("arm", limits=(-np.pi, np.pi))
    assert within_limits(model, JointState("arm", [0.0, 0.0]))
    assert within_limits(model, JointState("arm", [np.pi, 0.0]))
    assert not within_limits(model, JointState("arm", [np.pi + 1e-3, 0.0]))


def test_fk_determinism_bit_identical():
    model = two_link()
    q = JointState("arm", [0.3123456789, -1.234567891])
    a = forward_kinematics(model, q)
    b = forward_kinematics(model, q)
    for pa, pb in zip(a, b):
        assert np.array_equal(pa.shape.p0, pb.shape.p0)
        assert np.array_equal(pa.shape.p1, pb.shape.p1)


def test_batched_placement_is_bit_identical_to_joint_by_joint_fk(rng):
    # arms of two structures, in an order that interleaves their stacks; in
    # each stack, full batches mixed with a held (1, J) configuration, a
    # batch ending in a run of repeated rows, and a batch of one row repeated
    panda = load_scenario(fixture_path("panda_like_shared.json")).scene.robots
    models = dict(panda)
    for k in range(4):
        models[f"p{k}"] = planar_arm(f"p{k}", (k, 1.0, 0.0), base_rpy=(0.0, 0.3 * k, 0.7 * k))
    groups = ["p2", "arm_b", "p0", "arm_a", "p1", "p3"]
    q = {g: rng.uniform(models[g]._lo, models[g]._hi, size=(7, models[g].n_joints)) for g in groups}
    q["p2"][4:] = q["p2"][3]  # a held tail
    q["arm_a"][:] = q["arm_a"][0]  # every row the same
    q["p0"] = q["p0"][:1]  # held at every sample
    q["arm_b"][5:] = q["arm_b"][4]
    layout = Layout(models, [])
    placed = layout.place(q)
    # each arm's rows stop at its held tail
    kept = {g: len(placed[g][0]) for g in groups}
    assert kept == {"p2": 4, "arm_b": 5, "p0": 1, "arm_a": 1, "p1": 7, "p3": 7}
    assert all(len(e1) == len(e0) for e0, e1 in placed.values())
    p0, p1 = layout.spread(placed)
    for g in groups:
        want0, want1 = loop_placed_segments(models[g], np.broadcast_to(q[g], (7, models[g].n_joints)))
        single0, single1 = ArmStack([models[g]]).place(q[g], np.zeros(len(q[g]), dtype=int))
        rows = layout.rows[g]
        for got, want in ((p0[:, rows], want0), (p1[:, rows], want1)):
            assert np.array_equal(got, want)
        for got, want in zip(placed[g], (want0, want1)):
            assert np.array_equal(got, want[: kept[g]])
        assert np.array_equal(single0, want0[: len(q[g])]) and np.array_equal(single1, want1[: len(q[g])])
    assert sorted(i for g in groups for i in layout.rows[g]) == list(range(p0.shape[1]))


def spatial_arm(group, n_joints, frames, rng):
    """An arm of random axes, offsets and base pose whose links hang off `frames`."""
    joints = []
    for _ in range(n_joints):
        axis = rng.normal(size=3)
        joints.append(JointSpec.from_xyz_rpy(axis / np.linalg.norm(axis), xyz=rng.uniform(-0.3, 0.3, 3),
                                             rpy=rng.uniform(-1.0, 1.0, 3), limits=(-3.0, 3.0)))
    links = [LinkGeometry(f, Capsule(rng.uniform(-0.2, 0.2, 3), rng.uniform(-0.2, 0.2, 3), 0.02))
             for f in frames]
    return RobotModel(group, pose(rng.uniform(-1.0, 1.0, 3), rng.uniform(-1.0, 1.0, 3)), joints, links,
                      np.ones(n_joints))


# joint count and link frames: a joint that carries no link (2), links out of
# frame order so that the links of joints 0 and 2 are not adjacent in the
# list, and two links on one frame (0, then 2)
LINK_LAYOUTS = [(5, [0, 1, 3, 4]), (3, [2, 0, 1, 0, 2]), (3, [0, 0, 1, 2, 2])]


@pytest.mark.parametrize("n", [1, 300])
@pytest.mark.parametrize("n_joints, frames", LINK_LAYOUTS)
def test_batched_placement_matches_joint_by_joint_fk_on_any_link_layout(rng, n, n_joints, frames):
    models = [spatial_arm(f"m{k}", n_joints, frames, rng) for k in range(3)]
    stack = ArmStack(models)
    arms = rng.integers(0, len(models), size=n)  # members' rows interleaved
    q = rng.uniform(-3.0, 3.0, size=(n, n_joints))
    p0, p1 = stack.place(q, arms)
    assert p0.shape == p1.shape == (n, len(frames), 3)
    for k, model in enumerate(models):
        want0, want1 = loop_placed_segments(model, q[arms == k])
        assert np.array_equal(p0[arms == k], want0) and np.array_equal(p1[arms == k], want1)


def test_batched_placement_checks_states():
    layout = Layout({"a": two_link(), "b": planar_arm("b", lengths=(1.0,))}, [])
    with pytest.raises(DimensionMismatch):
        layout.place({"a": np.zeros((1, 2)), "b": np.zeros((1, 2))})
    with pytest.raises(DimensionMismatch):
        layout.place({"a": np.zeros((0, 2))})
    with pytest.raises(JointLimitViolation, match="^a:"):
        layout.place({"b": np.zeros((1, 1)), "a": np.array([[3.3, 0.0]])})
    with pytest.raises(UnknownGroup):
        layout.place({"c": np.zeros((1, 2))})


def test_limit_violation_names_a_later_arm_of_a_mixed_stack(rng):
    # one structure: a batch, a held configuration, then a batch whose held
    # tail alone leaves the limits
    models = {g: planar_arm(g, (float(k), 0.0, 0.0)) for k, g in enumerate("abc")}
    layout = Layout(models, [])
    bad = rng.uniform(-1.0, 1.0, size=(6, 2))
    bad[3:] = [0.0, 5.0]
    q = {"a": rng.uniform(-1.0, 1.0, size=(6, 2)), "b": np.zeros((1, 2)), "c": bad}
    with pytest.raises(JointLimitViolation, match="^c:"):
        layout.place(q)
    q["c"] = q["c"][:3]
    q["b"] = np.array([[0.0, -5.0]])
    with pytest.raises(JointLimitViolation, match="^b:"):
        layout.place(q)


def test_limit_check_names_the_arm_and_keeps_the_slack_on_a_mixed_stack(rng):
    models = {g: planar_arm(g, (float(k), 0.0, 0.0), limits=(-1.0, 1.0)) for k, g in enumerate("abc")}
    layout = Layout(models, [])
    edge = 1.0 + _LIMIT_SLACK
    q = {"a": rng.uniform(-1.0, 1.0, size=(5, 2)), "b": np.array([[0.0, edge]]),
         "c": rng.uniform(-1.0, 1.0, size=(4, 2))}
    q["a"][1, 0], q["c"][2, 1] = -edge, edge  # exactly at the slack: placed
    layout.place(q)
    for g, row in (("a", 3), ("b", 0), ("c", 1)):
        for value in (np.nan, np.nextafter(edge, np.inf), np.nextafter(-edge, -np.inf)):
            bad = {h: qh.copy() for h, qh in q.items()}
            bad[g][row, 1] = value
            with pytest.raises(JointLimitViolation, match=f"^{g}:"):
                layout.place(bad)


def test_each_placement_makes_one_kinematics_call_on_the_ring(monkeypatch):
    calls = []
    layout_place, stack_place = Layout.place, ArmStack.place

    def spy_layout(self, q, *rest):
        calls.append("layout")
        return layout_place(self, q, *rest)

    def spy_stack(self, q, arms):
        calls.append("stack")
        return stack_place(self, q, arms)

    monkeypatch.setattr(Layout, "place", spy_layout)
    monkeypatch.setattr(ArmStack, "place", spy_stack)
    data = json.loads((Path(__file__).parent / "data" / "ring16_901.json").read_text())
    run(scenario_from_dict(data), "async")
    # the 16 arms share one structure, and every placement places some arm;
    # each arm's first sweep places its announced program in one call, and
    # an arm that finished a run is held at the last row that run placed
    placements = [k for k, c in enumerate(calls) if c == "layout"]
    assert len(placements) == 65
    assert calls.count("stack") == len(placements)
    assert all(calls[k + 1] == "stack" for k in placements)


def test_placement_holds_single_configurations_and_leaves_absent_arms_unplaced(rng):
    # three arms of one structure: a batch, a held configuration, an absent arm
    models = {g: planar_arm(g, (float(k), 0.0, 0.0)) for k, g in enumerate("abc")}
    layout = Layout(models, [PlacedPrimitive(Sphere((0.0, 2.0, 0.0), 0.1), ("static", 0))])
    held = np.array([[0.3, -0.2]])
    p0, p1 = layout.spread(layout.place({"a": rng.uniform(-1.0, 1.0, size=(5, 2)), "c": held}))
    assert p0.shape == p1.shape == (5, 7, 3)
    want0, want1 = ArmStack([models["c"]]).place(held, [0])
    assert np.array_equal(p0[:, layout.rows["c"]], np.broadcast_to(want0, (5, 2, 3)))
    assert np.array_equal(p1[:, layout.rows["c"]], np.broadcast_to(want1, (5, 2, 3)))
    assert np.isnan(p0[:, layout.rows["b"]]).all() and np.isnan(p1[:, layout.rows["b"]]).all()
    for ends in (p0, p1):
        assert np.array_equal(ends[:, layout.static_rows], np.broadcast_to([0.0, 2.0, 0.0], (5, 1, 3)))
    assert layout.owners[layout.static_rows[0]] == ("static", 0)


def test_rigid_body_consistency(rng):
    # two primitives on the same frame keep their relative placement under any q
    joints = [
        JointSpec.from_xyz_rpy(axis=(0, 0, 1), limits=(-3.2, 3.2)),
        JointSpec.from_xyz_rpy(axis=(0, 1, 0), xyz=(0.5, 0, 0), limits=(-3.2, 3.2)),
    ]
    links = [
        LinkGeometry(1, Capsule((0, 0, 0), (0.4, 0, 0), 0.05)),
        LinkGeometry(1, Sphere((0.2, 0.1, 0.3), 0.05)),
    ]
    model = RobotModel(
        group_id="arm",
        base_pose=pose(),
        joints=joints,
        links=links,
        joint_velocity_limits=[1.0, 1.0],
    )
    gaps = []
    for _ in range(100):
        q = rng.uniform(-3.2, 3.2, 2)
        p0, p1 = ArmStack([model]).place(q[None], [0])
        centre_a = 0.5 * (p0[0, 0] + p1[0, 0])
        centre_b = p0[0, 1]
        gaps.append(np.linalg.norm(centre_a - centre_b))
    assert np.max(gaps) - np.min(gaps) < 1e-9


def test_planar_closed_form_agreement(rng):
    lengths = (0.7, 0.4)
    model = planar_arm("arm", base_xyz=(0.3, -0.2, 0.0), lengths=lengths, limits=(-3.2, 3.2))
    for _ in range(1000):
        q = rng.uniform(-3.2, 3.2, 2)
        pts = planar_chain_points((0.3, -0.2), lengths, q)
        prims = forward_kinematics(model, JointState("arm", q))
        for k, prim in enumerate(prims):
            assert np.allclose(prim.shape.p0[:2], pts[k], atol=1e-9)
            assert np.allclose(prim.shape.p1[:2], pts[k + 1], atol=1e-9)
            assert abs(prim.shape.p0[2]) < 1e-9


def test_speed_bound_never_violated(rng):
    model = planar_arm("arm", lengths=(0.6, 0.5), vlim=1.3, limits=(-3.2, 3.2))
    bound = model.max_cartesian_speed_bound
    worst = 0.0
    for _ in range(2000):
        q = rng.uniform(-3.1, 3.1, 2)
        qdot = rng.uniform(-1.0, 1.0, 2) * 1.3
        worst = max(worst, float(np.max(finite_difference_speeds(model, q, qdot))))
    assert worst <= bound * (1 + 1e-6)


def test_speed_bound_is_reasonably_tight():
    model = planar_arm("arm", lengths=(0.5, 0.5), vlim=1.0, limits=(-3.2, 3.2))
    # straight arm spinning at both limits comes close to the bound
    speeds = finite_difference_speeds(model, [0.0, 0.0], [1.0, 1.0])
    assert np.max(speeds) > 0.85 * model.max_cartesian_speed_bound / 1.6


@pytest.mark.parametrize("name", [*FIXTURES, "ring16_901.json"])
def test_bounds_equal_the_loops_on_every_shipped_arm(name):
    if name in FIXTURES:
        scenario = load_scenario(fixture_path(name))
    else:
        data = Path(__file__).parent / "data" / name
        scenario = scenario_from_dict(json.loads(data.read_text()))
    models = scenario.scene.robots.values()
    for model in models:
        assert model.max_cartesian_speed_bound == loop_speed_bound(model)
    manager = ExecutionManager(scenario.scene, scenario.params.check)
    assert manager.margin_bound == all_pairs_margin_bound(models, scenario.params.check.dt)


def test_each_link_speed_bound_holds_its_link(rng):
    """Each link's bound holds the speed of its endpoints, by finite
    differences of FK at random states and joint speeds within the limits,
    on skewed arms and on every shipped arm; a link nearer the base gets a
    lower bound than the arm's, which bounds every link."""
    models = [skewed_arm(rng, "arm", (0.0, 0.0, 0.0)) for _ in range(100)]
    for name in [*FIXTURES, "ring16_901.json"]:
        path = fixture_path(name) if name in FIXTURES else Path(__file__).parent / "data" / name
        models += load_scenario(path).scene.robots.values()
    for model in models:
        bounds = model.link_speed_bounds
        assert bounds.shape == (model.n_links,) and bounds.max() <= model.max_cartesian_speed_bound
        assert bounds.min() < model.max_cartesian_speed_bound
        for _ in range(20):
            q = rng.uniform(model._lo, model._hi)
            qdot = rng.uniform(-1.0, 1.0, model.n_joints) * model.joint_velocity_limits
            assert np.all(finite_difference_speeds(model, q, qdot) <= bounds * (1 + 1e-6))


def test_bounds_match_the_loops_and_hold_on_skewed_arms(rng):
    # the chain subtracts offset sums where the loop sums slices, so the
    # bounds may differ in the last bits
    for k in range(200):
        model = skewed_arm(rng, "arm", (0.0, 0.0, 0.0))
        bound = model.max_cartesian_speed_bound
        assert bound == pytest.approx(loop_speed_bound(model), rel=1e-12)
        for _ in range(5):
            q = rng.uniform(-2.4, 2.4, 3)
            qdot = rng.uniform(-1.0, 1.0, 3)  # the arm's velocity limits are 1
            assert np.max(finite_difference_speeds(model, q, qdot)) <= bound * (1 + 1e-6)
    for _ in range(20):
        scene = skewed_cell(rng)
        manager = ExecutionManager(scene, CheckParams(dt=0.01))
        assert manager.margin_bound == all_pairs_margin_bound(scene.robots.values(), 0.01)


def test_rotation_about_axis_matches_rpy():
    assert np.allclose(rotation_about_axis([0, 0, 1], 0.7), rpy_matrix((0, 0, 0.7)), atol=1e-12)
    r = rotation_about_axis([0, 1, 0], np.array([0.1, -0.4]))
    assert r.shape == (2, 3, 3)
    assert np.allclose(r[0] @ r[0].T, np.eye(3), atol=1e-12)


def test_joint_spec_validation():
    with pytest.raises(ValueError):
        JointSpec.from_xyz_rpy(axis=(0, 0, 2))
    with pytest.raises(ValueError):
        JointSpec.from_xyz_rpy(axis=(0, 0, 1), limits=(1.0, -1.0))
    JointSpec.from_xyz_rpy(axis=(0, 0, 1), xyz=(0.0, 0.0, -MAX_EXTENT))
    for xyz in ((np.nextafter(MAX_EXTENT, np.inf), 0.0, 0.0), (0.0, 0.0, -1e308)):
        with pytest.raises(ValueError, match="origin_offset"):
            JointSpec.from_xyz_rpy(axis=(0, 0, 1), xyz=xyz)
    # an entry past 1 in magnitude, or not finite, is refused before the
    # norm is taken, whose square would overflow with a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for axis in ((0, 0, 1e200), (0, -1e200, 0), (0, 0, np.inf), (np.nan, 0, 1), (0, 0, 1 + 2e-9)):
            with pytest.raises(ValueError, match="unit norm"):
                JointSpec.from_xyz_rpy(axis=axis)
        JointSpec.from_xyz_rpy(axis=(0, 0, 1 + 5e-10))  # within the unit-norm tolerance


def test_model_validation():
    with pytest.raises(ValueError):
        planar_arm("arm", vlim=-1.0)
    planar_arm("arm", base_xyz=(MAX_EXTENT, -MAX_EXTENT, 0.0))
    for xyz in ((np.nextafter(MAX_EXTENT, np.inf), 0.0, 0.0), (0.0, 0.0, -1e308)):
        with pytest.raises(ValueError, match="base_pose"):
            planar_arm("arm", base_xyz=xyz)
    with pytest.raises(ValueError):
        RobotModel(
            group_id="arm",
            base_pose=pose(),
            joints=[JointSpec.from_xyz_rpy(axis=(0, 0, 1))],
            links=[LinkGeometry(3, Sphere((0, 0, 0), 0.1))],
            joint_velocity_limits=[1.0],
        )


@pytest.mark.parametrize("group", ["left;x", "left\tx", "left\rx", "left\nx", 7])
def test_a_model_refuses_a_group_id_that_would_break_the_log(group):
    """The log writes a group id into its SUBMITTED lines, between tabs and ';'."""
    with pytest.raises(ValueError, match="group_id"):
        planar_arm(group)


def test_adjacent_links_auto_allowed():
    model = planar_arm("arm")
    assert (0, 1) in model.allowed_pairs
