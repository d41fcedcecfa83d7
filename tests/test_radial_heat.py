import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adsheat.radial_heat import (
    GaussianTerm,
    GaussianTermSum,
    heat_prefactor,
    hyperbolic_heat_kernel,
    hyperbolic_heat_kernel_scaled,
    millson_apply,
    millson_term_sum,
    small_x_threshold,
)

# frozen oracles: exact-rational term lists evaluated at 50 digits (mpmath,
# offline); independent of the double-precision path under test, including
# the small-x interpolation region
ORACLE_Q = {
    (1.0, 1, 1.0): 5.4727407763734001907e-3,
    (0.5, 2, 2.0): 7.1402769171822423573e-5,
    (2.0, 3, 0.7): 1.2532886266558120628e-12,
    (1.0, 3, 1e-4): 7.1343384984359824642e-8,
    (1.0, 3, 0.049): 7.120302658519800218e-8,
    (0.25, 2, 0.004): 2.4533996267498456391e-2,
    (4.0, 1, 5.0): 7.2590446754806501904e-7,
}


def h3_closed_form(t: float, x: float) -> float:
    return (
        math.exp(-t)
        * x
        * math.exp(-x * x / (4.0 * t))
        / ((4.0 * math.pi * t) ** 1.5 * math.sinh(x))
    )


class TestTermAlgebra:
    def test_seed(self):
        seed = GaussianTermSum.gaussian_seed()
        assert seed.order == 0
        assert seed.terms == (GaussianTerm(0, 0, 0, 0, Fraction(1)),)

    def test_one_application_by_hand(self):
        # -(1/sinh) d/dx e^{-x^2/4t} = (x / 2t) (1/sinh) e^{-x^2/4t}
        s1 = millson_apply(GaussianTermSum.gaussian_seed())
        assert s1.order == 1
        assert set(s1.terms) == {GaussianTerm(1, 1, 0, 1, Fraction(1, 2))}

    def test_two_applications_by_hand(self):
        # d/dx[(x/2t) sinh^-1 G] = (1/2t) sinh^-1 G - (x/2t) cosh sinh^-2 G
        #                          - (x^2/4t^2) sinh^-1 G
        # then multiply by -(1/sinh):
        s2 = millson_term_sum(2)
        expected = {
            GaussianTerm(1, 0, 0, 2, Fraction(-1, 2)),
            GaussianTerm(1, 1, 1, 3, Fraction(1, 2)),
            GaussianTerm(2, 2, 0, 2, Fraction(1, 4)),
        }
        assert set(s2.terms) == expected

    def test_term_sum_idempotent_cache(self):
        assert millson_term_sum(3) is millson_term_sum(3)

    @given(st.integers(min_value=0, max_value=10))
    def test_structural_invariants(self, n):
        s = millson_term_sum(n)
        assert s.order == n
        for term in s.terms:
            assert term.sinhinvpow - term.coshpow == n
            assert (term.xpow + term.sinhinvpow) % 2 == 0
            assert term.coeff != 0
        assert list(s.terms) == sorted(
            s.terms,
            key=lambda t: (t.tpow, t.xpow, t.coshpow, t.sinhinvpow),
        )

    def test_term_counts(self):
        # quadratic growth at small order; the count stays below
        # (n+1)(n+2)/2 only through n = 7, so the sequence is monitored
        # against frozen values rather than against that bound
        counts = [len(millson_term_sum(n).terms) for n in range(11)]
        assert counts == [1, 1, 3, 6, 11, 17, 26, 36, 50, 65, 85]
        for n in range(8):
            assert counts[n] <= (n + 1) * (n + 2) // 2

    def test_rejects_negative_order(self):
        with pytest.raises(ValueError):
            millson_term_sum(-1)


class TestH3ClosedForm:
    @pytest.mark.parametrize("t", [0.25, 1.0, 4.0])
    def test_matches(self, t):
        xs = np.linspace(0.1, 5.0, 40)
        for x in xs:
            assert hyperbolic_heat_kernel(t, 1, float(x)) == pytest.approx(
                h3_closed_form(t, float(x)), rel=1e-12
            )


class TestRecursionConsistency:
    def test_order_step_via_finite_difference(self):
        # q_{n+1}(x) = e^{-(2n+1) t} / (2 pi) * (-(1/sinh x) dq_n/dx);
        # checked with a central difference, so any error in the exact
        # rewriting of the term algebra would show up here
        t, x, n, h = 0.5, 2.0, 2, 1e-4
        dq = (
            hyperbolic_heat_kernel(t, n, x + h) - hyperbolic_heat_kernel(t, n, x - h)
        ) / (2.0 * h)
        lifted = -dq / math.sinh(x) * math.exp(-(2 * n + 1) * t) / (2.0 * math.pi)
        assert lifted == pytest.approx(
            hyperbolic_heat_kernel(t, n + 1, x), rel=1e-6
        )

    def test_order_step_n1_to_n2(self):
        t, x, h = 1.0, 1.3, 1e-4
        dq = (
            hyperbolic_heat_kernel(t, 1, x + h) - hyperbolic_heat_kernel(t, 1, x - h)
        ) / (2.0 * h)
        lifted = -dq / math.sinh(x) * math.exp(-3.0 * t) / (2.0 * math.pi)
        assert lifted == pytest.approx(hyperbolic_heat_kernel(t, 2, x), rel=1e-6)


class TestFrozenOracles:
    @pytest.mark.parametrize("key", sorted(ORACLE_Q))
    def test_value(self, key):
        t, n, x = key
        assert hyperbolic_heat_kernel(t, n, x) == pytest.approx(
            ORACLE_Q[key], rel=1e-9
        )


class TestSmallX:
    def test_limit_at_zero_n1(self):
        # x/sinh(x) -> 1: q(t, 1, 0) = e^{-t} / (2 (pi)^(1/2))^3 t^(3/2) ...
        t = 1.0
        expected = math.exp(-t) / (4.0 * math.pi * t) ** 1.5
        assert hyperbolic_heat_kernel(t, 1, 0.0) == pytest.approx(expected, rel=1e-10)
        assert hyperbolic_heat_kernel(t, 1, 1e-12) == pytest.approx(
            expected, rel=1e-10
        )

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_path_continuity_at_threshold(self, n):
        # interpolated branch (just below) and direct branch (just above)
        # must agree far better than either is accurate
        th = small_x_threshold(n)
        below = hyperbolic_heat_kernel(1.0, n, th * 0.999999)
        above = hyperbolic_heat_kernel(1.0, n, th * 1.000001)
        assert below == pytest.approx(above, rel=1e-7)

    def test_threshold_grows_with_order(self):
        assert small_x_threshold(1) < small_x_threshold(2) < small_x_threshold(3)

    def test_positive_at_origin_high_order(self):
        for n in (2, 3, 4):
            assert hyperbolic_heat_kernel(0.7, n, 0.0) > 0.0


class TestEvaluation:
    def test_scaled_variant_consistency(self):
        t, n, x = 0.8, 2, 1.7
        scaled = hyperbolic_heat_kernel_scaled(t, n, x)
        plain = hyperbolic_heat_kernel(t, n, x)
        assert scaled * math.exp(-x * x / (4.0 * t)) == pytest.approx(
            plain, rel=1e-14
        )

    def test_deep_tail_underflows_to_zero(self):
        # x^2/4t > 700: true value < 1e-290, returned as exact 0
        assert hyperbolic_heat_kernel(0.001, 1, 4.0) == 0.0
        assert hyperbolic_heat_kernel_scaled(0.001, 1, 4.0) > 0.0

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("n, x", [(1, 1e300), (2, 1e160), (3, 1e200), (2, 711.0)])
    def test_scaled_past_sinh_overflow_is_zero(self, n, x):
        # sinh x overflows, alone or with x^p (inf * 0 would give NaN)
        assert hyperbolic_heat_kernel_scaled(1.0, n, x) == 0.0
        out = hyperbolic_heat_kernel_scaled(1.0, n, np.array([1.0, x]))
        assert out.tolist() == [hyperbolic_heat_kernel_scaled(1.0, n, 1.0), 0.0]

    def test_array_matches_scalar(self):
        xs = np.array([1e-5, 0.01, 0.5, 2.0, 10.0, 60.0])
        out = hyperbolic_heat_kernel(0.5, 2, xs)
        assert out.shape == xs.shape
        for xi, oi in zip(xs, out):
            assert float(oi) == hyperbolic_heat_kernel(0.5, 2, float(xi))

    @pytest.mark.parametrize("scaled", [False, True])
    @pytest.mark.parametrize("n", [1, 2, 3, 4])
    def test_mixed_array_matches_scalar_bits(self, n, scaled):
        # small-x, regular and (at t = 0.05, x > 11.8) dead points in one
        # array take the masked path; the regular-only slice takes the
        # unmasked one; every entry must equal the scalar call bit for bit
        kernel = hyperbolic_heat_kernel_scaled if scaled else hyperbolic_heat_kernel
        t, thr = 0.05, small_x_threshold(n)
        xs = np.array([0.0, 0.3 * thr, 0.999 * thr, thr, 0.3, 1.0, 5.0, 11.0, 12.0, 40.0])
        for arr in (xs, xs[3:8], xs[::-1].reshape(2, 5)):
            out = kernel(t, n, arr)
            assert out.shape == arr.shape
            for xi, oi in zip(arr.ravel(), out.ravel()):
                assert float(oi) == kernel(t, n, float(xi))

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(st.integers(min_value=1, max_value=12), st.floats(0.02, 5.0), st.data())
    def test_array_gives_every_point_its_scalar_bits(self, n, t, data):
        # eval-hyperbolic hands each (t, n) group's x column to one call; small-x,
        # regular and dead (past sinh overflow) points mix in any order
        thr = small_x_threshold(n)
        zone = st.one_of(
            st.floats(0.0, thr, exclude_max=True),
            st.floats(thr, 40.0),
            st.floats(710.0, 1e300),
        )
        xs = data.draw(st.lists(zone, min_size=1, max_size=16))
        for kernel in (hyperbolic_heat_kernel, hyperbolic_heat_kernel_scaled):
            out = kernel(t, n, np.array(xs))
            assert out.tolist() == [kernel(t, n, x) for x in xs]

    @pytest.mark.parametrize("kernel", [hyperbolic_heat_kernel, hyperbolic_heat_kernel_scaled])
    @pytest.mark.parametrize("bad", [math.nan, math.inf, -math.inf, -1e-300])
    def test_bad_entry_anywhere_rejected(self, kernel, bad):
        for pos in (0, 2, 4):
            xs = np.array([0.0, 0.5, 1.0, 2.0, 3.0])
            xs[pos] = bad
            with pytest.raises(ValueError, match=r"distance x must be finite and >= 0"):
                kernel(1.0, 2, xs)

    @pytest.mark.parametrize("kernel", [hyperbolic_heat_kernel, hyperbolic_heat_kernel_scaled])
    def test_empty_array(self, kernel):
        for shape in ((0,), (2, 0)):
            out = kernel(1.0, 1, np.empty(shape))
            assert isinstance(out, np.ndarray) and out.shape == shape

    def test_prefactor(self):
        t, n = 0.7, 2
        expected = math.exp(-n * n * t) / (
            (2.0 * math.pi) ** n * math.sqrt(4.0 * math.pi * t)
        )
        assert heat_prefactor(t, n) == pytest.approx(expected, rel=1e-15)

    def test_rejects_bad_arguments(self):
        with pytest.raises(ValueError):
            hyperbolic_heat_kernel(0.0, 1, 1.0)
        with pytest.raises(ValueError):
            hyperbolic_heat_kernel(1.0, 0, 1.0)
        with pytest.raises(ValueError):
            hyperbolic_heat_kernel(1.0, 1, -0.5)

    @given(
        st.integers(min_value=1, max_value=6),
        st.floats(min_value=0.05, max_value=10.0),
        st.floats(min_value=1e-6, max_value=30.0),
    )
    def test_positive_and_finite(self, n, t, x):
        q = hyperbolic_heat_kernel(t, n, x)
        assert math.isfinite(q)
        assert q >= 0.0

    @given(
        st.integers(min_value=1, max_value=4),
        st.floats(min_value=0.1, max_value=5.0),
        st.floats(min_value=0.05, max_value=5.0),
        st.floats(min_value=0.05, max_value=3.0),
    )
    def test_radially_decreasing(self, n, t, x, dx):
        assert hyperbolic_heat_kernel(t, n, x) >= hyperbolic_heat_kernel(
            t, n, x + dx
        )
