import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adsheat.geometry import (
    BallPoint,
    FiberAngle,
    cosh_sq_distance,
    disc_distance,
    hermitian_inner,
    hyperbolic_distance,
    phase_factor,
    point_at_distance,
    require_half_integer,
    twist_angle,
)

TWO_PI = 2.0 * math.pi


def ball_points(n: int):
    """Strategy: points with norm <= 0.93, coordinatewise polar sampling."""
    radius = st.floats(min_value=0.0, max_value=0.93)
    angle = st.floats(min_value=0.0, max_value=TWO_PI, exclude_max=True)

    def build(rs, phis):
        # scale down so the total norm stays below 0.95 for any n
        scale = math.sqrt(n)
        coords = tuple(
            r / scale * cmath.exp(1j * phi) for r, phi in zip(rs, phis)
        )
        return BallPoint(coords)

    return st.builds(
        build,
        st.tuples(*([radius] * n)),
        st.tuples(*([angle] * n)),
    )


class TestBallPoint:
    def test_origin(self):
        o = BallPoint.origin(3)
        assert o.n == 3
        assert o.norm_sq == 0.0

    def test_rejects_boundary_and_outside(self):
        with pytest.raises(ValueError):
            BallPoint((1.0,))
        with pytest.raises(ValueError):
            BallPoint((0.8, 0.7))

    def test_rejects_empty(self):
        with pytest.raises(ValueError):
            BallPoint(())

    def test_coerces_real_coordinates(self):
        p = BallPoint((0.5, 0.1))
        assert all(isinstance(c, complex) for c in p.coords)

    def test_point_at_distance_inverts_distance(self):
        for d in (0.0, 0.3, 1.0, 2.5):
            w = point_at_distance(d, 2)
            assert hyperbolic_distance(w, BallPoint.origin(2)) == pytest.approx(
                d, abs=1e-13
            )

    def test_point_at_distance_is_tanh(self):
        w = point_at_distance(0.7)
        assert w.coords[0] == pytest.approx(math.tanh(0.7), rel=1e-15)


class TestDistance:
    def test_real_axis_additivity(self):
        # on the real segment the distance parameter adds exactly:
        # cosh^2 rho(tanh a, tanh b) = cosh^2(a - b)
        a, b = 1.1, 0.4
        w = BallPoint((math.tanh(a),))
        y = BallPoint((math.tanh(b),))
        assert hyperbolic_distance(w, y) == pytest.approx(a - b, rel=1e-12)

    def test_diagonal_is_zero(self):
        w = BallPoint((0.3 + 0.2j, -0.1j))
        assert hyperbolic_distance(w, w) == 0.0

    def test_unitary_rotation_invariance(self):
        w = point_at_distance(0.9)
        rotated = BallPoint((w.coords[0] * cmath.exp(0.6j),))
        assert hyperbolic_distance(rotated, BallPoint.origin(1)) == pytest.approx(
            0.9, abs=1e-13
        )

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            hyperbolic_distance(BallPoint.origin(1), BallPoint.origin(2))

    @given(ball_points(2), ball_points(2))
    def test_symmetry_and_lower_bound(self, w, y):
        c2 = cosh_sq_distance(w, y)
        assert c2 >= 1.0
        assert cosh_sq_distance(y, w) == pytest.approx(c2, rel=1e-12)
        assert hyperbolic_distance(w, y) >= 0.0

    @given(ball_points(1))
    def test_self_distance_vanishes(self, w):
        assert hyperbolic_distance(w, w) <= 1e-7
        assert disc_distance(np.array([w.coords[0]]), w.coords[0])[0] <= 1e-7

    @given(ball_points(1), ball_points(1))
    def test_disc_distance_matches_scalar_route(self, w, y):
        # the array helper against the scalar cosh^2 / distance pair, with
        # the diagonal pair (w, w) in the same batch
        d = disc_distance(np.array([w.coords[0], y.coords[0]]), y.coords[0])
        assert math.cosh(d[0]) ** 2 == pytest.approx(cosh_sq_distance(w, y), rel=1e-12)
        assert d[0] == pytest.approx(hyperbolic_distance(w, y), abs=1e-7)
        assert d[1] <= 1e-7


class TestHermitianInner:
    @given(ball_points(2), ball_points(2))
    def test_conjugate_symmetry(self, w, y):
        lhs = hermitian_inner(w, y)
        rhs = hermitian_inner(y, w).conjugate()
        assert lhs == pytest.approx(rhs, abs=1e-15)

    def test_value(self):
        w = BallPoint((0.5j, 0.2))
        y = BallPoint((0.1, 0.3 + 0.1j))
        expected = 0.5j * 0.1 + 0.2 * (0.3 - 0.1j)
        assert hermitian_inner(w, y) == pytest.approx(expected, rel=1e-15)


class TestPhaseFactor:
    @given(ball_points(2), ball_points(2), st.integers(min_value=-4, max_value=4))
    def test_unit_modulus(self, w, y, two_kappa):
        kappa = two_kappa / 2.0
        assert abs(phase_factor(w, y, kappa)) == pytest.approx(1.0, rel=1e-14)

    @given(ball_points(2), ball_points(2), st.integers(min_value=-4, max_value=4))
    def test_twist_angle_reproduces_phase(self, w, y, two_kappa):
        angle = twist_angle(w, y)
        assert angle == pytest.approx(cmath.phase(1.0 - hermitian_inner(w, y)), abs=1e-15)
        assert abs(angle) < math.pi / 2.0
        expected = cmath.exp(-1j * two_kappa * angle)
        assert phase_factor(w, y, two_kappa / 2.0) == pytest.approx(expected, abs=1e-15)

    def test_weight_zero_is_one(self):
        w = BallPoint((0.3 + 0.4j,))
        y = BallPoint((0.2j,))
        assert phase_factor(w, y, 0.0) == 1.0 + 0.0j

    @given(ball_points(2), ball_points(2))
    def test_swap_conjugates(self, w, y):
        # 1 - <w,y> = conj(1 - <y,w>), so swapping the points conjugates
        # the twist; this is what makes the kernel hermitian
        lhs = phase_factor(w, y, 1.0)
        rhs = phase_factor(y, w, 1.0).conjugate()
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_real_configuration_has_no_twist(self):
        w = BallPoint((0.5,))
        y = BallPoint((0.2,))
        assert phase_factor(w, y, 1.5) == pytest.approx(1.0 + 0.0j, abs=1e-15)


class TestFiberAngle:
    def test_normalizes_into_period(self):
        assert FiberAngle(TWO_PI + 0.3).theta == pytest.approx(0.3, abs=1e-12)
        assert FiberAngle(-0.1).theta == pytest.approx(TWO_PI - 0.1, abs=1e-12)
        assert FiberAngle(0.0).theta == 0.0

    def test_never_reaches_two_pi(self):
        # folding -1e-320 % 2pi can return exactly 2pi in IEEE arithmetic
        assert FiberAngle(-1e-320).theta < TWO_PI
        assert 0.0 <= FiberAngle(TWO_PI).theta < TWO_PI

    def test_rejects_nonfinite(self):
        with pytest.raises(ValueError):
            FiberAngle(math.inf)


class TestHalfInteger:
    def test_accepts_and_snaps(self):
        assert require_half_integer(0.5) == 0.5
        assert require_half_integer(-2.0) == -2.0
        assert require_half_integer(1.4999999999999) == 1.5

    def test_rejects_other(self):
        with pytest.raises(ValueError):
            require_half_integer(0.25)
        with pytest.raises(ValueError):
            require_half_integer(0.51)
