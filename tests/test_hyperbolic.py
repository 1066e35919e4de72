import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    PoincareVector,
    distance_arcosh_raw,
    log_map_origin_raw,
    mobius_add,
    oracle_arcosh_distance,
    oracle_distance,
    oracle_log_map,
    oracle_mobius,
    project_to_ball,
    random_inball,
)
from rachain import hyperbolic as H

coord = st.floats(-0.5, 0.5, allow_nan=False)
vec3 = st.tuples(coord, coord, coord).map(lambda t: np.array(t) * 0.9)


class TestMobiusAddition:
    def test_collinear_reduces_to_scalar_formula(self):
        # for x, y on one axis the sum is (x + y) / (1 + c x y)
        out = H.mobius_add_raw(np.array([0.3, 0.0]), np.array([0.4, 0.0]))
        np.testing.assert_allclose(out, [0.625, 0.0], rtol=0, atol=1e-15)

    def test_matches_scalar_oracle(self, rng):
        for _ in range(50):
            x = random_inball(rng, 1, 4)[0]
            y = random_inball(rng, 1, 4)[0]
            np.testing.assert_allclose(
                H.mobius_add_raw(x, y), oracle_mobius(x, y), atol=1e-12)

    def test_matches_scalar_oracle_other_curvature(self, rng):
        c = 0.7
        for _ in range(20):
            x = random_inball(rng, 1, 3)[0] / np.sqrt(c)
            y = random_inball(rng, 1, 3)[0] / np.sqrt(c)
            np.testing.assert_allclose(
                H.mobius_add_raw(x, y, c), oracle_mobius(x, y, c), atol=1e-12)

    @given(vec3)
    @settings(max_examples=100, deadline=None)
    def test_zero_is_identity(self, x):
        zero = np.zeros_like(x)
        np.testing.assert_allclose(H.mobius_add_raw(x, zero), x, atol=1e-15)
        np.testing.assert_allclose(H.mobius_add_raw(zero, x), x, atol=1e-15)

    @given(vec3)
    @settings(max_examples=100, deadline=None)
    def test_left_inverse(self, x):
        np.testing.assert_allclose(
            H.mobius_add_raw(-x, x), np.zeros_like(x), atol=1e-12)

    @given(vec3, vec3)
    @settings(max_examples=100, deadline=None)
    def test_stays_inside_ball(self, x, y):
        out = H.mobius_add_raw(x, y)
        assert float(out @ out) < 1.0

    def test_batched_matches_single(self, rng):
        xs = random_inball(rng, 8, 5)
        ys = random_inball(rng, 8, 5)
        batched = H.mobius_add_raw(xs, ys)
        for i in range(8):
            np.testing.assert_allclose(batched[i], H.mobius_add_raw(xs[i], ys[i]),
                                       atol=0)

    def test_wrapper_validates_curvature_mismatch(self):
        a = PoincareVector(np.array([0.1, 0.0]), curvature=1.0)
        b = PoincareVector(np.array([0.1, 0.0]), curvature=2.0)
        with pytest.raises(ValueError, match="curvature"):
            mobius_add(a, b)


class TestDistance:
    def test_matches_scalar_oracle(self, rng):
        for _ in range(50):
            x = random_inball(rng, 1, 4)[0]
            y = random_inball(rng, 1, 4)[0]
            assert H.distance_raw(x, y) == pytest.approx(oracle_distance(x, y),
                                                         abs=1e-12)

    def test_arctanh_and_arcosh_forms_agree(self, rng):
        xs = random_inball(rng, 200, 6)
        ys = random_inball(rng, 200, 6)
        d1 = H.distance_raw(xs, ys)
        d2 = distance_arcosh_raw(xs, ys)
        np.testing.assert_allclose(d1, d2, atol=1e-9)
        for i in range(5):
            assert d2[i] == pytest.approx(
                oracle_arcosh_distance(xs[i], ys[i]), abs=1e-12)

    def test_curvature_rescaling_isometry(self, rng):
        # d_c(x, y) = d_1(sqrt(c) x, sqrt(c) y) / sqrt(c)
        c = 3.0
        x = random_inball(rng, 1, 4)[0] / np.sqrt(c)
        y = random_inball(rng, 1, 4)[0] / np.sqrt(c)
        expected = H.distance_raw(np.sqrt(c) * x, np.sqrt(c) * y) / np.sqrt(c)
        assert H.distance_raw(x, y, c) == pytest.approx(float(expected), abs=1e-12)

    @given(vec3, vec3)
    @settings(max_examples=100, deadline=None)
    def test_symmetric_nonnegative(self, x, y):
        d_xy = float(H.distance_raw(x, y))
        d_yx = float(H.distance_raw(y, x))
        assert d_xy >= 0.0
        assert d_xy == pytest.approx(d_yx, abs=1e-10)

    @given(vec3)
    @settings(max_examples=50, deadline=None)
    def test_zero_iff_equal(self, x):
        assert float(H.distance_raw(x, x)) == pytest.approx(0.0, abs=1e-9)

    @given(vec3, vec3, vec3)
    @settings(max_examples=100, deadline=None)
    def test_triangle_inequality(self, x, y, z):
        assert (float(H.distance_raw(x, z))
                <= float(H.distance_raw(x, y)) + float(H.distance_raw(y, z)) + 1e-9)

    def test_near_coincident_points_stay_precise(self):
        x = np.array([0.7, 0.1])
        y = x + 1e-12
        d = float(distance_arcosh_raw(x, y))
        assert 0.0 < d < 1e-10


class TestLogMap:
    def test_known_value(self):
        # arctanh(0.5) = 0.5493061443340549 along the vector direction
        out = log_map_origin_raw(np.array([0.5, 0.0]))
        np.testing.assert_allclose(out, [0.5493061443340549, 0.0], atol=1e-15)

    def test_origin_maps_to_exact_zero(self):
        out = log_map_origin_raw(np.zeros(4))
        assert np.all(out == 0.0)

    def test_matches_scalar_oracle(self, rng):
        for _ in range(30):
            x = random_inball(rng, 1, 5)[0]
            np.testing.assert_allclose(
                log_map_origin_raw(x), oracle_log_map(x), atol=1e-12)

    def test_norm_is_half_distance_to_origin(self, rng):
        xs = random_inball(rng, 50, 3)
        norms = np.linalg.norm(log_map_origin_raw(xs), axis=-1)
        dists = H.distance_raw(np.zeros(3), xs)
        np.testing.assert_allclose(norms, dists / 2.0, atol=1e-12)

    def test_preserves_direction(self, rng):
        x = random_inball(rng, 1, 4)[0]
        out = log_map_origin_raw(x)
        cos = (out @ x) / (np.linalg.norm(out) * np.linalg.norm(x))
        assert cos == pytest.approx(1.0, abs=1e-12)


class TestProjection:
    def test_outside_point_pulled_in(self):
        v = np.array([3.0, 4.0])
        p = project_to_ball(v)
        n = np.linalg.norm(p.coords)
        assert n == pytest.approx(1.0 - H.BALL_MARGIN, abs=1e-12)
        np.testing.assert_allclose(p.coords / n, v / 5.0, atol=1e-12)

    def test_inside_point_untouched(self):
        v = np.array([0.2, -0.1])
        np.testing.assert_allclose(project_to_ball(v).coords, v, atol=0)

    def test_project_rows_batched(self, rng):
        rows = rng.standard_normal((10, 4)) * 2.0
        out = H.project_rows(rows)
        assert np.all(np.linalg.norm(out, axis=-1) <= 1.0 - H.BALL_MARGIN + 1e-12)

    def test_curvature_bound(self):
        out = H.project_rows(np.array([[2.0, 0.0]]), c=4.0)
        assert np.linalg.norm(out) == pytest.approx((1.0 - H.BALL_MARGIN) / 2.0,
                                                    abs=1e-12)


class TestPoincareVector:
    def test_rejects_boundary_point(self):
        with pytest.raises(ValueError, match="outside"):
            PoincareVector(np.array([1.0, 0.0]))

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError, match="finite"):
            PoincareVector(np.array([np.nan, 0.0]))

    def test_rejects_bad_curvature(self):
        with pytest.raises(ValueError, match="curvature"):
            PoincareVector(np.array([0.1, 0.0]), curvature=0.0)

    def test_rejects_matrix(self):
        with pytest.raises(ValueError, match="single vector"):
            PoincareVector(np.zeros((2, 2)))

    def test_curvature_scales_admissible_norm(self):
        PoincareVector(np.array([0.45, 0.0]), curvature=4.0)
        with pytest.raises(ValueError):
            PoincareVector(np.array([0.55, 0.0]), curvature=4.0)


class TestRandomBallRows:
    def test_rows_inside_requested_radius(self, rng):
        rows = H.random_ball_rows(rng, 100, 8, radius=0.1)
        assert np.all(np.linalg.norm(rows, axis=-1) <= 0.1)

    def test_radius_must_fit_ball(self, rng):
        with pytest.raises(ValueError):
            H.random_ball_rows(rng, 5, 3, curvature=4.0, radius=0.6)
