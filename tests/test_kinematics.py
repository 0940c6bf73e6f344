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
from multiarm import fixture_path, load_scenario
from multiarm.collision import Layout
from multiarm.kinematics import ArmStack, rotation_about_axis, rpy_matrix

from conftest import planar_arm
from oracles import (
    finite_difference_speeds,
    forward_kinematics,
    loop_placed_segments,
    planar_chain_points,
)


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
    # arms of two structures, in an order that interleaves their stacks
    panda = load_scenario(fixture_path("panda_like_shared.json")).scene.robots
    models = dict(panda)
    for k in range(3):
        models[f"p{k}"] = planar_arm(f"p{k}", (k, 1.0, 0.0), base_rpy=(0.0, 0.3 * k, 0.7 * k))
    groups = ["p2", "arm_b", "p0", "arm_a", "p1"]
    q = [rng.uniform(models[g]._lo, models[g]._hi, size=(7, models[g].n_joints)) for g in groups]
    layout = Layout(models, [])
    p0, p1 = layout.place(dict(zip(groups, q)))
    for g, qg in zip(groups, q):
        want0, want1 = loop_placed_segments(models[g], qg)
        (single0,), (single1,) = ArmStack([models[g]]).place(qg[None])
        rows = layout.rows[g]
        for got, want in ((p0[:, rows], want0), (p1[:, rows], want1)):
            assert np.array_equal(got, want)
        assert np.array_equal(single0, want0) and np.array_equal(single1, want1)
    assert sorted(i for g in groups for i in layout.rows[g]) == list(range(p0.shape[1]))


def test_batched_placement_checks_states():
    layout = Layout({"a": two_link(), "b": planar_arm("b", lengths=(1.0,))}, [])
    with pytest.raises(DimensionMismatch):
        layout.place({"a": np.zeros((1, 2)), "b": np.zeros((1, 2))})
    with pytest.raises(JointLimitViolation, match="^a:"):
        layout.place({"b": np.zeros((1, 1)), "a": np.array([[3.3, 0.0]])})
    with pytest.raises(UnknownGroup):
        layout.place({"c": np.zeros((1, 2))})


def test_placement_holds_single_configurations_and_leaves_absent_arms_unplaced(rng):
    # three arms of one structure: a batch, a held configuration, an absent arm
    models = {g: planar_arm(g, (float(k), 0.0, 0.0)) for k, g in enumerate("abc")}
    layout = Layout(models, [PlacedPrimitive(Sphere((0.0, 2.0, 0.0), 0.1), ("static", 0))])
    held = np.array([[0.3, -0.2]])
    p0, p1 = layout.place({"a": rng.uniform(-1.0, 1.0, size=(5, 2)), "c": held})
    assert p0.shape == p1.shape == (5, 7, 3)
    (want0,), (want1,) = ArmStack([models["c"]]).place(held[None])
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
        (p0,), (p1,) = ArmStack([model]).place(q[None, None])
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


def test_model_validation():
    with pytest.raises(ValueError):
        planar_arm("arm", vlim=-1.0)
    with pytest.raises(ValueError):
        RobotModel(
            group_id="arm",
            base_pose=pose(),
            joints=[JointSpec.from_xyz_rpy(axis=(0, 0, 1))],
            links=[LinkGeometry(3, Sphere((0, 0, 0), 0.1))],
            joint_velocity_limits=[1.0],
        )


def test_adjacent_links_auto_allowed():
    model = planar_arm("arm")
    assert (0, 1) in model.allowed_pairs
