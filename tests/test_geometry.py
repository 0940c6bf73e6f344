import numpy as np
import pytest

from multiarm import (
    Capsule,
    PlacedPrimitive,
    Sphere,
    pair_clearances,
)
from multiarm.geometry import segment_aabbs, segment_of, segments_of

from oracles import (
    NonFiniteInput,
    exhaustive_close_pairs,
    grid_segment_distance,
    grid_segment_distance_dense,
    primitive_clearance,
    segment_segment_distance,
)


def random_primitive(rng, span=2.0, owner=("x", 0)):
    p0 = rng.uniform(-span, span, 3)
    if rng.random() < 0.25:
        return PlacedPrimitive(Sphere(p0, float(rng.uniform(0.05, 0.4))), owner)
    p1 = p0 + rng.uniform(-1.0, 1.0, 3)
    if np.allclose(p0, p1):
        p1 = p0 + np.array([0.1, 0.0, 0.0])
    return PlacedPrimitive(Capsule(p0, p1, float(rng.uniform(0.05, 0.4))), owner)


def test_parallel_unit_offset():
    assert segment_segment_distance((0, 0, 0), (1, 0, 0), (0, 1, 0), (1, 1, 0)) == pytest.approx(1.0)


def test_touching_segments():
    assert segment_segment_distance((0, 0, 0), (1, 0, 0), (0.5, 0, 0), (0.5, 1, 0)) == pytest.approx(0.0)


def test_skew_pair_matches_grid_oracle():
    got = segment_segment_distance((0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1))
    want = grid_segment_distance_dense((0, 0, 0), (1, 1, 0), (0, 1, 1), (1, 0, 1))
    assert got == pytest.approx(want, abs=1e-4)
    # the projections cross, leaving exactly the z gap
    assert got == pytest.approx(1.0, abs=1e-9)


def test_degenerate_point_segment():
    # point above the middle of a segment
    assert segment_segment_distance((0.5, 1, 0), (0.5, 1, 0), (0, 0, 0), (1, 0, 0)) == pytest.approx(1.0)
    # point vs point
    assert segment_segment_distance((0, 0, 0), (0, 0, 0), (3, 4, 0), (3, 4, 0)) == pytest.approx(5.0)


def test_nearly_parallel_overlap():
    d = segment_segment_distance((0, 0, 0), (1, 0, 0), (0.5, 0.3, 0), (1.5, 0.3 + 1e-12, 0))
    assert d == pytest.approx(0.3, abs=1e-9)


def test_non_finite_input_raises():
    with pytest.raises(NonFiniteInput):
        segment_segment_distance((0, 0, np.nan), (1, 0, 0), (0, 1, 0), (1, 1, 0))
    with pytest.raises(NonFiniteInput):
        segment_segment_distance((0, 0, 0), (np.inf, 0, 0), (0, 1, 0), (1, 1, 0))


def test_capsule_capsule_clearance():
    a = PlacedPrimitive(Capsule((0, 0, 0), (1, 0, 0), 0.2), ("a", 0))
    b = PlacedPrimitive(Capsule((0, 1, 0), (1, 1, 0), 0.2), ("b", 0))
    c = primitive_clearance(a, b)
    assert c.signed_distance == pytest.approx(0.6)
    assert c.witness == (("a", 0), ("b", 0))


def test_penetrating_capsules():
    a = PlacedPrimitive(Capsule((-1, 0, 0), (1, 0, 0), 0.3), ("a", 0))
    b = PlacedPrimitive(Capsule((0, -1, 0), (0, 1, 0), 0.3), ("b", 0))
    assert primitive_clearance(a, b).signed_distance == pytest.approx(-0.6)


def test_sphere_capsule_axial_gap():
    s = PlacedPrimitive(Sphere((0, 0, 2), 0.1), ("a", 0))
    c = PlacedPrimitive(Capsule((0, 0, 0), (0, 0, 1), 0.1), ("b", 0))
    assert primitive_clearance(s, c).signed_distance == pytest.approx(0.8)


def test_clearance_symmetry_is_exact(rng):
    for _ in range(300):
        a = random_primitive(rng, owner=("a", 1))
        b = random_primitive(rng, owner=("b", 2))
        ab = primitive_clearance(a, b).signed_distance
        ba = primitive_clearance(b, a).signed_distance
        assert ab == ba  # bit-identical, not approx


def test_clearance_rigid_invariance(rng):
    from multiarm.kinematics import rotation_about_axis

    for _ in range(100):
        a = random_primitive(rng, owner=("a", 0))
        b = random_primitive(rng, owner=("b", 0))
        base = primitive_clearance(a, b).signed_distance
        axis = rng.normal(size=3)
        axis /= np.linalg.norm(axis)
        rot = rotation_about_axis(axis, float(rng.uniform(-np.pi, np.pi)))
        shift = rng.uniform(-3, 3, 3)

        def moved(p):
            p0, p1, r = segment_of(p.shape)
            return PlacedPrimitive(Capsule(rot @ p0 + shift, rot @ p1 + shift, r), p.owner)

        after = primitive_clearance(moved(a), moved(b)).signed_distance
        assert after == pytest.approx(base, abs=1e-9)


def test_grid_oracle_agreement(rng):
    n = 2000
    a0 = rng.uniform(-2, 2, (n, 3))
    a1 = a0 + rng.uniform(-1, 1, (n, 3))
    b0 = rng.uniform(-2, 2, (n, 3))
    b1 = b0 + rng.uniform(-1, 1, (n, 3))
    from multiarm.geometry import segment_distance

    got = segment_distance(a0, a1, b0, b1)
    from oracles import grid_segment_distance_batch

    want = grid_segment_distance_batch(a0, a1, b0, b1)
    assert np.max(np.abs(got - want)) < 1e-4


def cross_clearances(set_a, set_b, margin):
    """The kernel over every (a, b) pair of two primitive sets, shape (|a|, |b|)."""
    p0, p1, radii = segments_of(set_a + set_b)
    ii, jj = np.divmod(np.arange(len(set_a) * len(set_b)), len(set_b))
    clear = pair_clearances(p0[None], p1[None], radii, ii, jj + len(set_a), margin)
    return clear.reshape(len(set_a), len(set_b))


def test_broadphase_trivial():
    far_a = [PlacedPrimitive(Sphere((0, 0, 0), 0.1), ("a", 0))]
    far_b = [PlacedPrimitive(Sphere((10, 0, 0), 0.1), ("b", 0))]
    assert cross_clearances(far_a, far_b, 0.01)[0, 0] == np.inf
    near_b = [PlacedPrimitive(Sphere((0.05, 0, 0), 0.1), ("b", 0))]
    assert cross_clearances(far_a, near_b, 0.01)[0, 0] == pytest.approx(-0.15)


def test_broadphase_superset_of_close_pairs(rng):
    for trial, n in ((0, 40), (1, 200)):
        set_a = [random_primitive(rng, owner=("a", i)) for i in range(n)]
        set_b = [random_primitive(rng, owner=("b", i)) for i in range(n)]
        margin = 0.05
        clear = cross_clearances(set_a, set_b, margin)
        for i, j in exhaustive_close_pairs(set_a, set_b, margin):
            assert np.isfinite(clear[i, j])


def test_aabb_covers_capsule():
    p0, p1, r = segments_of([PlacedPrimitive(Capsule((0, 0, 0), (1, 2, 3), 0.5), ("a", 0))])
    lo, hi = segment_aabbs(p0, p1, r, 0.0)
    assert np.allclose(lo[0], [-0.5, -0.5, -0.5])
    assert np.allclose(hi[0], [1.5, 2.5, 3.5])


def test_invalid_shapes_rejected():
    with pytest.raises(ValueError):
        Sphere((0, 0, 0), 0.0)
    with pytest.raises(ValueError):
        Capsule((0, 0, 0), (1, 0, 0), -0.1)
    for radius in (np.inf, np.nan):
        with pytest.raises(ValueError):
            Sphere((0, 0, 0), radius)
        with pytest.raises(ValueError):
            Capsule((0, 0, 0), (1, 0, 0), radius)
