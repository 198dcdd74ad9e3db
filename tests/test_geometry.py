"""Distance measures, gain arithmetic, and the eta/delta geometry."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import scan_oracle
from twoptlab import (
    Metric,
    delta,
    distance,
    eta_geometry_y,
    held_karp,
    min_improvement,
    pairwise_distances,
    two_change_gain,
)
from twoptlab.geometry import _pairwise, vec_dist

SQ = [(0.0, 0.0), (1.0, 0.0), (1.0, 1.0), (0.0, 1.0)]

coord = st.floats(min_value=-10.0, max_value=10.0, allow_nan=False, allow_infinity=False)
point2 = st.tuples(coord, coord)


# ---------------------------------------------------------------------------
# distance


def test_distance_manhattan_unit_diagonal():
    assert distance((0, 0), (1, 1), Metric.MANHATTAN) == pytest.approx(2.0)


def test_distance_euclidean_3_4_5():
    assert distance((0, 0), (3, 4), Metric.EUCLIDEAN) == pytest.approx(5.0)


def test_distance_squared_euclidean_3_4():
    assert distance((0, 0), (3, 4), Metric.SQ_EUCLIDEAN) == pytest.approx(25.0)


def test_distance_accepts_string_metric_names():
    assert distance((0, 0), (3, 4), "l2") == pytest.approx(5.0)
    assert distance((0, 0), (1, 1), "l1") == pytest.approx(2.0)
    assert distance((0, 0), (3, 4), "l2sq") == pytest.approx(25.0)


def test_distance_dimension_mismatch():
    with pytest.raises(ValueError):
        distance((0, 0), (1, 2, 3), Metric.EUCLIDEAN)


def test_metric_parse_rejects_unknown():
    with pytest.raises(ValueError):
        Metric.parse("l3")


@given(a=point2, b=point2)
def test_distance_symmetric_and_zero_on_diagonal(a, b):
    for m in Metric:
        assert distance(a, b, m) == pytest.approx(distance(b, a, m))
        assert distance(a, a, m) == 0.0


@given(a=point2, b=point2, c=point2)
def test_triangle_inequality_l1_l2(a, b, c):
    for m in (Metric.MANHATTAN, Metric.EUCLIDEAN):
        ab = distance(a, b, m)
        ac = distance(a, c, m)
        cb = distance(c, b, m)
        assert ab <= ac + cb + 1e-9


def test_squared_euclidean_violates_triangle_inequality():
    # midpoint of a segment: 4 > 1 + 1
    a, b, c = (0.0, 0.0), (2.0, 0.0), (1.0, 0.0)
    m = Metric.SQ_EUCLIDEAN
    assert distance(a, b, m) > distance(a, c, m) + distance(c, b, m)


def test_pairwise_distances_matches_scalar():
    rng = np.random.default_rng(5)
    pts = rng.random((12, 3))
    for m in Metric:
        mat = pairwise_distances(pts, m)
        assert mat.shape == (12, 12)
        for i in (0, 3, 11):
            for j in (1, 4, 7):
                assert mat[i, j] == distance(pts[i], pts[j], m)
        assert np.allclose(mat, mat.T)
        assert np.all(np.diag(mat) == 0.0)


def test_pairwise_distances_exact_near_coincident():
    # tiny separations must not fall victim to cancellation: the certifier
    # compares gains at 1e-12 on instances with near-coincident points
    pts = np.array([[0.5, 0.5], [0.5 + 1e-9, 0.5], [0.25, 0.25]])
    mat = pairwise_distances(pts, Metric.EUCLIDEAN)
    assert mat[0, 1] == pytest.approx(1e-9, rel=1e-9)


@pytest.mark.parametrize("metric", ["l1", "l2", "l2sq"])
def test_fortran_ordered_points_give_the_bits_of_c_ordered_ones(metric):
    # vec_dist's einsum path (d >= 3) adds in an order that follows the
    # memory layout; as_points hands every reader C-ordered coordinates
    pts = 1e3 * np.random.default_rng(5).standard_normal((300, 3))
    fortran = np.asfortranarray(pts)
    assert pairwise_distances(fortran, metric).tobytes() == pairwise_distances(pts, metric).tobytes()
    assert held_karp(fortran[:12], metric).length.hex() == held_karp(pts[:12], metric).length.hex()
    assert min_improvement(fortran[:12], metric).hex() == min_improvement(pts[:12], metric).hex()


@pytest.mark.parametrize("d", [1, 2, 3])
@pytest.mark.parametrize("metric", ["l1", "l2", "l2sq"])
def test_batched_pairwise_matches_one_matrix_per_set(metric, d):
    # three tour-ordered sets of 201 points: at d = 2 the stack's blocks take
    # 36 rows (one set alone would take 108), so every matrix spans blocks
    rng = np.random.default_rng(d)
    pts = rng.random((200, d))
    orders = np.array([rng.permutation(200) for _ in range(3)])
    sets = pts[np.hstack((orders, orders[:, :1]))]
    got = _pairwise(sets, metric)
    assert got.shape == (3, 201, 201)
    for k in range(3):
        assert got[k].tobytes() == pairwise_distances(sets[k], metric).tobytes(), k
        assert np.all(np.diagonal(got[k]) == 0.0)
    with pytest.raises(ValueError, match=r"\(n, d\) coordinate array"):
        pairwise_distances(sets, metric)


def _vec_dist_inputs(d: int):
    """(name, a, b) argument pairs of every shape vec_dist is called with."""
    rng = np.random.default_rng(d)
    n = 37
    for scale in (1.0, 1e-9, 1e6 / 3, 1e150, 1e160):  # from 1e160 on squares overflow
        pts = scale * rng.standard_normal((n, d))
        yield f"single {scale}", pts[0], pts[1]
        yield f"row {scale}", pts[3], pts
        yield f"block {scale}", pts[:5, None, :], pts[None, :, :]
        yield f"pairs {scale}", pts, np.roll(pts, 1, axis=0)
        if scale < 1e38:  # float32's range
            yield f"float32 {scale}", pts[:7].astype(np.float32), pts[7:14].astype(np.float32)
            yield f"float32 row {scale}", pts[0].astype(np.float32), pts.astype(np.float32)
    ints = rng.integers(-3, 4, size=(n, d))  # small lattice: ties and coincident points
    yield "int lists", ints.tolist(), ints[::-1].tolist()
    yield "int row", ints[0].tolist(), ints
    yield "int single", ints[0].tolist(), ints[1].tolist()
    same = np.full((n, d), 0.1)
    yield "coincident", same[0], same
    yield "coincident pairs", same, same
    pts = rng.random((n, d))
    yield "scalar", 0.5, pts  # broadcasts over every coordinate
    yield "one coordinate", pts[:, :1], pts[::-1]  # a trailing axis of length 1 broadcasts


@pytest.mark.parametrize("d", [1, 2, 3, 4, 8])
@pytest.mark.parametrize("metric", ["l1", "l2", "l2sq"])
def test_vec_dist_matches_reference_formula(metric, d):
    # the per-coordinate path (d <= 2) and the einsum path must both give
    # the reference formula's bits, its type and its silence on overflow
    overflowed = False
    for name, a, b in _vec_dist_inputs(d):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got, want = vec_dist(a, b, metric), scan_oracle.vec_dist(a, b, metric)
        assert type(got) is type(want), name
        assert np.shape(got) == np.shape(want) and np.asarray(got).dtype == np.float64, name
        assert np.asarray(got).tobytes() == np.asarray(want).tobytes(), name
        overflowed |= bool(np.isinf(want).any())
    assert overflowed == (metric != "l1")


# ---------------------------------------------------------------------------
# delta


def test_delta_a_equals_b_is_zero():
    assert delta((1, 2), (1, 2), (5, 5), Metric.EUCLIDEAN) == 0.0


def test_delta_at_c_equals_a():
    a, b = (0.0, 0.0), (3.0, 4.0)
    assert delta(a, b, a, Metric.EUCLIDEAN) == pytest.approx(-5.0)


def test_delta_squared_euclidean_worked_example():
    # d(c,a) - d(c,b) = (9+1) - (1+1) = 8
    assert delta((0, 0), (2, 0), (3, 1), Metric.SQ_EUCLIDEAN) == pytest.approx(8.0)


@given(a=point2, b=point2, c=point2)
def test_delta_antisymmetry_and_euclidean_bound(a, b, c):
    for m in Metric:
        assert delta(a, b, c, m) == pytest.approx(-delta(b, a, c, m), abs=1e-9)
    assert abs(delta(a, b, c, Metric.EUCLIDEAN)) <= distance(a, b, Metric.EUCLIDEAN) + 1e-9


# ---------------------------------------------------------------------------
# two_change_gain


def test_gain_degenerate_zero():
    p = (0.7, 0.7)
    for m in Metric:
        assert two_change_gain(p, p, p, p, m) == 0.0


def test_gain_square_boundary_order_negative():
    got = two_change_gain(SQ[0], SQ[1], SQ[2], SQ[3], Metric.EUCLIDEAN)
    assert got == pytest.approx(2.0 - 2.0 * math.sqrt(2.0))


def test_gain_square_crossing_order_positive():
    got = two_change_gain(SQ[0], SQ[2], SQ[1], SQ[3], Metric.EUCLIDEAN)
    assert got == pytest.approx(2.0 * math.sqrt(2.0) - 2.0)


@settings(max_examples=200)
@given(x1=point2, x2=point2, x3=point2, x4=point2)
def test_gain_matches_both_delta_difference_forms(x1, x2, x3, x4):
    for m in Metric:
        g = two_change_gain(x1, x2, x3, x4, m)
        d1 = delta(x2, x3, x1, m) - delta(x2, x3, x4, m)
        d2 = delta(x1, x4, x2, m) - delta(x1, x4, x3, m)
        scale = max(1.0, abs(g))
        assert abs(g - d1) <= 1e-12 * scale
        assert abs(g - d2) <= 1e-12 * scale


# ---------------------------------------------------------------------------
# eta_geometry_y


def test_eta_collinear_interior_case():
    assert eta_geometry_y(1.0, 0.0, 2.0) == pytest.approx(0.5)


def test_eta_zero_on_bisector():
    assert eta_geometry_y(0.0, 3.7, 2.0) == 0.0
    assert eta_geometry_y(0.0, 0.0, 1.0) == 0.0


def test_eta_worked_value():
    assert eta_geometry_y(1.0, 1.0, 2.0) == pytest.approx(math.sqrt(7.0 / 12.0))


def test_eta_domain_errors():
    with pytest.raises(ValueError):
        eta_geometry_y(2.0, 0.0, 2.0)  # eta == delta is degenerate
    with pytest.raises(ValueError):
        eta_geometry_y(3.0, 0.0, 2.0)
    with pytest.raises(ValueError):
        eta_geometry_y(-0.1, 0.0, 2.0)
    with pytest.raises(ValueError):
        eta_geometry_y(0.5, 0.0, 0.0)


@settings(max_examples=200)
@given(
    d_ab=st.floats(min_value=0.1, max_value=10.0),
    eta_frac=st.floats(min_value=0.0, max_value=0.99),
    x=st.floats(min_value=0.0, max_value=20.0),
)
def test_eta_round_trip(d_ab, eta_frac, x):
    # place z = (x, y) against a = (0, -d/2), b = (0, d/2) and recompute eta
    eta = eta_frac * d_ab
    y = eta_geometry_y(eta, x, d_ab)
    a = (0.0, -d_ab / 2.0)
    b = (0.0, d_ab / 2.0)
    z = (x, -y)  # branch closer to a gives the positive eta sign
    eta_back = distance(z, a, Metric.EUCLIDEAN) - distance(z, b, Metric.EUCLIDEAN)
    assert abs(abs(eta_back) - eta) <= 1e-9
