import numpy as np
import pytest

from multiarm import (
    Capsule,
    PlacedPrimitive,
    Sphere,
    pair_clearances,
)
from multiarm.geometry import MAX_EXTENT, segment_aabbs, segment_distance, segment_of, segments_of

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


def dense_pair_clearances(p0, p1, radii, ii, jj, margin):
    """Every pair at every sample: segment distance minus both radii, or inf
    where the two boxes, each inflated by margin/2, are apart on some axis."""
    clear = np.empty((len(p0), len(ii)))
    for t in range(len(p0)):
        for k, (i, j) in enumerate(zip(ii, jj)):
            pad_i, pad_j = radii[i] + margin / 2.0, radii[j] + margin / 2.0
            apart = any(
                min(p0[t, i, x], p1[t, i, x]) - pad_i > max(p0[t, j, x], p1[t, j, x]) + pad_j
                or min(p0[t, j, x], p1[t, j, x]) - pad_j > max(p0[t, i, x], p1[t, i, x]) + pad_i
                for x in range(3)
            )
            dist = segment_distance(p0[t, i], p1[t, i], p0[t, j], p1[t, j])
            clear[t, k] = np.inf if apart else dist - radii[i] - radii[j]
    return clear


@pytest.mark.parametrize("margin", [0.0, 0.05, 0.4, np.inf])
def test_kernel_matches_the_dense_oracle_on_a_subset_of_rows(margin, rng):
    for _ in range(20):
        samples, rows = int(rng.integers(1, 6)), int(rng.integers(2, 12))
        p0 = rng.uniform(-1.5, 1.5, (samples, rows, 3))
        p1 = p0 + rng.uniform(-0.8, 0.8, (samples, rows, 3))
        point = rng.random(rows) < 0.25  # spheres
        p1[:, point] = p0[:, point]
        radii = rng.uniform(0.02, 0.3, rows)
        used = rng.choice(rows, size=int(rng.integers(1, rows + 1)), replace=False)
        ii, jj = rng.choice(used, size=(2, int(rng.integers(0, 30))))
        unused = np.setdiff1d(np.arange(rows), used)
        p0[:, unused] = p1[:, unused] = np.nan  # an arm that is not placed
        got = pair_clearances(p0, p1, radii, ii, jj, margin)
        assert got.shape == (samples, len(ii))
        assert np.array_equal(got, dense_pair_clearances(p0, p1, radii, ii, jj, margin))


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
    # past MAX_EXTENT the kernel would measure the shape wrong; at it, it is exact
    over = np.nextafter(MAX_EXTENT, np.inf)
    for radius in (np.inf, np.nan, over):
        with pytest.raises(ValueError):
            Sphere((0, 0, 0), radius)
        with pytest.raises(ValueError):
            Capsule((0, 0, 0), (1, 0, 0), radius)
    for point in ((over, 0, 0), (0, -over, 0), (0, 0, 1e308)):
        with pytest.raises(ValueError, match="within"):
            Sphere(point, 0.1)
        with pytest.raises(ValueError, match="within"):
            Capsule((0, 0, 0), point, 0.1)
    Sphere((0, 0, -MAX_EXTENT), MAX_EXTENT)
    Capsule((-MAX_EXTENT, 0, 0), (MAX_EXTENT, 0, 0), MAX_EXTENT)
    assert segment_distance([-MAX_EXTENT, 0, 0], [MAX_EXTENT, 0, 0], [0.3, 0.5, 0], [0.3, 0.5, 1]) == 0.5
