import cmath
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adsheat.geometry import (
    BallPoint,
    FiberAngle,
    bergman_pairing,
    hermitian_inner,
    point_at_distance,
    require_half_integer,
    twist_phase,
)

TWO_PI = 2.0 * math.pi


def distance(a: BallPoint, b: BallPoint) -> float:
    return float(bergman_pairing(a.coords, b.coords)[0])


def twist(a: BallPoint, b: BallPoint) -> float:
    return float(bergman_pairing(a.coords, b.coords)[1])


def distance_40_digits(mpmath, a: BallPoint, b: BallPoint) -> float:
    """acosh(sqrt(cosh^2)) of the exact coordinates, at 40 digits."""
    with mpmath.workdps(40):
        wm, ym = [mpmath.mpc(c) for c in a.coords], [mpmath.mpc(c) for c in b.coords]
        num = abs(1 - mpmath.fsum(p * mpmath.conj(q) for p, q in zip(wm, ym))) ** 2
        den = (1 - mpmath.fsum(abs(p) ** 2 for p in wm)) * (1 - mpmath.fsum(abs(q) ** 2 for q in ym))
        return float(mpmath.acosh(mpmath.sqrt(num / den)))


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

    @pytest.mark.parametrize("n", [0, 1.5, 2.0, True])
    @pytest.mark.parametrize(
        "make",
        [BallPoint.origin, lambda n: point_at_distance(0.5, n)],
        ids=["origin", "point_at_distance"],
    )
    def test_dimension_must_be_an_integer(self, make, n):
        with pytest.raises(ValueError, match="dimension must be an integer >= 1"):
            make(n)
        assert make(np.int64(2)).n == 2

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
            assert distance(w, BallPoint.origin(2)) == pytest.approx(
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
        assert distance(w, y) == pytest.approx(a - b, rel=1e-12)

    def test_diagonal_is_zero(self):
        w = BallPoint((0.3 + 0.2j, -0.1j))
        assert distance(w, w) == 0.0

    def test_unitary_rotation_invariance(self):
        w = point_at_distance(0.9)
        rotated = BallPoint((w.coords[0] * cmath.exp(0.6j),))
        assert distance(rotated, BallPoint.origin(1)) == pytest.approx(
            0.9, abs=1e-13
        )

    @pytest.mark.parametrize("d", np.geomspace(1e-10, 5.0, 41).tolist(), ids="{:.2e}".format)
    def test_point_at_distance_round_trip_keeps_its_digits(self, d):
        # a few ulps of d, plus what the rounding of tanh d itself moves atanh by
        got = distance(point_at_distance(d), BallPoint.origin(1))
        allowed = 4.0 * math.ulp(d) + math.ulp(math.tanh(d)) * math.cosh(d) ** 2
        assert abs(got - d) <= allowed

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_close_pairs_against_a_40_digit_reference(self, n):
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(n)
        for gap in np.geomspace(1e-10, 0.3, 12):
            w = rng.normal(size=n) + 1j * rng.normal(size=n)
            w *= rng.uniform(0.0, 0.8) / np.linalg.norm(w)
            y = w + gap * (rng.normal(size=n) + 1j * rng.normal(size=n))
            a, b = BallPoint(tuple(w)), BallPoint(tuple(y))
            exact = distance_40_digits(mpmath, a, b)
            assert distance(a, b) == pytest.approx(exact, rel=4e-15)

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_far_pairs_against_a_40_digit_reference(self, n):
        # antipodal pairs 0.999999 from the centre, then random pairs out to 0.999999;
        # rounding |w|^2 moves d by about eps / (1 - |w|^2), as rounding w itself
        # would, where atanh of a rounded tanh near 1 would be off by cosh^2 d eps
        mpmath = pytest.importorskip("mpmath")
        rng = np.random.default_rng(n)
        unit = rng.normal(size=n) + 1j * rng.normal(size=n)
        pairs = [(0.999999 * unit / np.linalg.norm(unit), -0.999999 * unit / np.linalg.norm(unit))]
        for _ in range(20):
            w, y = (rng.normal(size=n) + 1j * rng.normal(size=n) for _ in range(2))
            pairs.append((w * rng.uniform(0.5, 0.999999) / np.linalg.norm(w),
                          y * rng.uniform(0.5, 0.999999) / np.linalg.norm(y)))
        for w, y in pairs:
            a, b = BallPoint(tuple(w)), BallPoint(tuple(y))
            exact = distance_40_digits(mpmath, a, b)
            allowed = 4e-16 * n * (1.0 / (1.0 - a.norm_sq) + 1.0 / (1.0 - b.norm_sq))
            assert abs(distance(a, b) - exact) <= allowed + 4.0 * math.ulp(exact)

    def test_pair_too_far_for_tanh_takes_acosh(self):
        # tanh of the distance rounds to 1 here, so atanh cannot give it
        edge = 1.0 - 2.0**-53
        far = distance(BallPoint((-edge,)), BallPoint((edge,)))
        assert far == pytest.approx(2.0 * math.atanh(edge), rel=1e-12)

    def test_dimension_mismatch_raises(self):
        with pytest.raises(ValueError):
            distance(BallPoint.origin(1), BallPoint.origin(2))

    @given(ball_points(2), ball_points(2))
    def test_symmetry_and_lower_bound(self, w, y):
        d = distance(w, y)
        assert d >= 0.0
        assert distance(y, w) == pytest.approx(d, rel=1e-12)

    @given(ball_points(1))
    def test_self_distance_vanishes(self, w):
        assert distance(w, w) == 0.0
        assert bergman_pairing((np.array([w.coords[0]]),), w.coords)[0][0] == 0.0

    @given(
        st.sampled_from([1, 2]).flatmap(
            lambda n: st.lists(st.tuples(ball_points(n), ball_points(n)), min_size=1, max_size=6)
        )
    )
    def test_array_pairing_matches_each_ball_pair_bit_for_bit(self, pairs):
        # with a diagonal pair in the batch, and the second point broadcast
        pairs = pairs + [(pairs[0][0], pairs[0][0])]
        n = pairs[0][0].n
        w = [np.array([p.coords[i] for p, _ in pairs]) for i in range(n)]
        y = [np.array([q.coords[i] for _, q in pairs]) for i in range(n)]
        d, angle = bergman_pairing(w, y)
        assert d.tolist() == [distance(p, q) for p, q in pairs]
        assert angle.tolist() == [twist(p, q) for p, q in pairs]
        y0 = pairs[0][1]
        d, angle = bergman_pairing(w, y0.coords)
        assert d.tolist() == [distance(p, y0) for p, _ in pairs]
        assert angle.tolist() == [twist(p, y0) for p, _ in pairs]

    def test_array_form_keeps_the_digits_of_close_disc_pairs(self):
        # acosh(sqrt(cosh^2)) put the first pair 3.5e-3 off
        mpmath = pytest.importorskip("mpmath")
        w = np.array([0.3, 0.3, 0.3 + 0.2j])
        y = np.array([0.3000001, 0.3 + 1.4e-6, 0.3001 + 0.2j])
        d, _ = bergman_pairing((w,), (y,))
        with mpmath.workdps(40):
            for p, q, got in zip(w.tolist(), y.tolist(), d.tolist()):
                p, q = mpmath.mpc(p), mpmath.mpc(q)
                exact = mpmath.atanh(abs(p - q) / abs(1 - p * mpmath.conj(q)))
                assert got == pytest.approx(float(exact), rel=4e-15)

    def test_corrupt_array_pair_raises(self):
        # 1.5 lies outside the disc, so cosh^2 comes out negative
        with pytest.raises(ValueError, match="far below its lower bound 1"):
            bergman_pairing((np.array([0.2, 1.5]),), (0.1,))


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


class TestTwistPhase:
    @given(ball_points(2), ball_points(2), st.integers(min_value=-4, max_value=4))
    def test_unit_modulus(self, w, y, two_kappa):
        kappa = two_kappa / 2.0
        assert abs(twist_phase(twist(w, y), kappa)) == pytest.approx(1.0, rel=1e-14)

    @given(ball_points(2), ball_points(2), st.integers(min_value=-4, max_value=4))
    def test_twist_reproduces_phase(self, w, y, two_kappa):
        angle = twist(w, y)
        assert angle == pytest.approx(cmath.phase(1.0 - hermitian_inner(w, y)), abs=1e-15)
        assert abs(angle) < math.pi / 2.0
        expected = cmath.exp(-1j * two_kappa * angle)
        assert twist_phase(angle, two_kappa / 2.0) == pytest.approx(expected, abs=1e-15)

    def test_weight_zero_is_one(self):
        w = BallPoint((0.3 + 0.4j,))
        y = BallPoint((0.2j,))
        assert twist_phase(twist(w, y), 0.0) == 1.0 + 0.0j

    @given(ball_points(2), ball_points(2))
    def test_swap_conjugates(self, w, y):
        # 1 - <w,y> = conj(1 - <y,w>), so swapping the points conjugates
        # the twist; this is what makes the kernel hermitian
        lhs = twist_phase(twist(w, y), 1.0)
        rhs = twist_phase(twist(y, w), 1.0).conjugate()
        assert lhs == pytest.approx(rhs, abs=1e-12)

    def test_real_configuration_has_no_twist(self):
        w = BallPoint((0.5,))
        y = BallPoint((0.2,))
        assert twist_phase(twist(w, y), 1.5) == pytest.approx(1.0 + 0.0j, abs=1e-15)


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
