import math
import sys
from decimal import Decimal, localcontext
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adsheat.radial_heat import (
    SERIES_TERMS,
    GaussianTerm,
    GaussianTermSum,
    heat_prefactor,
    hyperbolic_heat_kernel,
    hyperbolic_heat_kernel_scaled,
    millson_apply,
    millson_term_sum,
    small_x_threshold,
)
from adsheat.radial_heat import _T_FLOOR_BOUND, _series_coeffs, _series_values, _t_floor, _term_sum_values

# frozen oracles: exact-rational term lists evaluated at 50 digits (mpmath,
# offline); independent of the double-precision path under test, including
# the small-x series region
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


# the box of the accuracy contract: t in [0.05, 5], x in [0, 4]
T_BOX = (0.05, 0.1, 0.3, 1.0, 2.0, 5.0)


def box_bound(n: int) -> float:
    """Worst relative error of q_t allowed on the box, by order."""
    return 2e-14 if n <= 2 else 1e-13 if n <= 6 else 5e-13 if n <= 10 else 1e-12


def exact_q(mpmath, n: int, x: float, ts) -> list:
    """q_t(x) for each t in ts from the exact term sum, at 60 + 2n log10(1/x)
    digits (the terms cancel like x^(1 - 2n)); x = 0 is taken at 1e-30."""
    x = max(x, 1e-30)
    with mpmath.workdps(60 + int(2 * n * math.log10(max(1.0, 1.0 / x)))):
        xm = mpmath.mpf(x)
        ch, sh = mpmath.cosh(xm), mpmath.sinh(xm)
        by_tpow: dict[int, object] = {}
        for term in millson_term_sum(n).terms:
            c = mpmath.mpf(term.coeff.numerator) / term.coeff.denominator
            value = c * xm**term.xpow * ch**term.coshpow / sh**term.sinhinvpow
            by_tpow[term.tpow] = by_tpow.get(term.tpow, 0) + value
        out = []
        for t in map(mpmath.mpf, ts):
            gauss = mpmath.exp(-n * n * t - xm * xm / (4 * t))
            pref = gauss / ((2 * mpmath.pi) ** n * mpmath.sqrt(4 * mpmath.pi * t))
            out.append(pref * mpmath.fsum(v / t**a for a, v in by_tpow.items()))
        return out


def decimal_pi() -> Decimal:
    """pi at the current decimal precision (the series in the decimal module's documentation)."""
    three = Decimal(3)
    lasts, term, total, n, na, d, da = 0, three, three, 1, 0, 0, 24
    while total != lasts:
        lasts = total
        n, na = n + na, na + 8
        d, da = d + da, da + 32
        term = (term * n) / d
        total += term
    return total


def decimal_q(t: float, n: int, x: float, scaled: bool) -> Decimal:
    """q_t(x) (times e^{x^2/4t} if ``scaled``) from the exact term sum in ``decimal``,
    at 40 + 4n log10(1/x) digits (the terms cancel like x^(1 - 2n)); x > 0."""
    with localcontext() as ctx:
        ctx.prec = 40 + int(4 * n * max(0.0, -math.log10(x)))
        td, xd = Decimal(t), Decimal(x)
        ex = xd.exp()
        ch, sh = (ex + 1 / ex) / 2, (ex - 1 / ex) / 2
        total = sum(
            Decimal(term.coeff.numerator) / term.coeff.denominator
            * td**-term.tpow * xd**term.xpow * ch**term.coshpow / sh**term.sinhinvpow
            for term in millson_term_sum(n).terms
        )
        pi = decimal_pi()
        exponent = -n * n * td - (0 if scaled else xd * xd / (4 * td))
        return +(exponent.exp() * total / ((2 * pi) ** n * (4 * pi * td).sqrt()))


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

    @pytest.mark.parametrize("n", [-1, True, 1.0])
    def test_rejects_other_than_an_integer_order(self, n):
        millson_term_sum(1)  # a cached order must not answer for True or 1.0
        with pytest.raises(ValueError, match="order must be an integer >= 0"):
            millson_term_sum(n)

    @pytest.mark.parametrize("power", [-1, True, 1.0])
    def test_term_powers_must_be_integers(self, power):
        with pytest.raises(ValueError, match="tpow must be an integer >= 0"):
            GaussianTerm(power, 0, 0, 0, Fraction(1))


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


class TestExactReference:
    @pytest.mark.parametrize("n", range(1, 13))
    def test_box(self, n):
        # every 1/16 in [0, 4], the small points and the switch point, at six
        # times; points where q underflows a double are skipped
        mpmath = pytest.importorskip("mpmath")
        xs = sorted({k / 16 for k in range(65)} | {1e-4, 1e-3, 5e-3, 0.02, small_x_threshold(n)})
        worst = 0.0
        for x in xs:
            for t, ref in zip(T_BOX, exact_q(mpmath, n, x, T_BOX)):
                if ref > 1e-300:
                    worst = max(worst, float(abs(hyperbolic_heat_kernel(t, n, x) - ref) / ref))
        assert worst <= box_bound(n)


class TestSmallX:
    def test_limit_at_zero_n1(self):
        # x/sinh(x) -> 1: q(t, 1, 0) = e^{-t} / (2 (pi)^(1/2))^3 t^(3/2) ...
        t = 1.0
        expected = math.exp(-t) / (4.0 * math.pi * t) ** 1.5
        assert hyperbolic_heat_kernel(t, 1, 0.0) == pytest.approx(expected, rel=1e-10)
        assert hyperbolic_heat_kernel(t, 1, 1e-12) == pytest.approx(
            expected, rel=1e-10
        )

    @pytest.mark.parametrize("n", range(1, 13))
    def test_path_continuity_at_threshold(self, n):
        # the series and the term sum, each without Gaussian or prefactor,
        # agree at the same x = x_s(n) to within twice the box bound
        x = np.array([small_x_threshold(n)])
        for t in T_BOX:
            series, direct = _series_values(n, t, x)[0], _term_sum_values(n, t, x)[0]
            assert series == pytest.approx(direct, rel=2.0 * box_bound(n), abs=0.0)

    def test_threshold_grows_with_order(self):
        # n = 1 keeps the 1e-3 switch of its one-term sum; the rule then grows
        assert small_x_threshold(1) == 1e-3
        switches = [small_x_threshold(n) for n in range(1, 13)]
        assert switches == sorted(switches)
        assert small_x_threshold(12) == pytest.approx(11.0 / 3.0)

    def test_series_fits_its_terms_and_has_no_negative_coefficient(self):
        # the cut after 2^-60 ends inside SERIES_TERMS at every order, and a
        # sum over coefficients >= 0 cannot cancel
        for n in range(1, 13):
            g = _series_coeffs(n)
            assert g.shape[0] == n + 1 and g.shape[1] < SERIES_TERMS
            assert np.all(g >= 0.0)

    def test_positive_at_origin_high_order(self):
        for n in (2, 3, 4):
            assert hyperbolic_heat_kernel(0.7, n, 0.0) > 0.0


class TestSubnormalPrefactor:
    """Where e^{-n^2 t} / ((2 pi)^n sqrt(4 pi t)) is below the normal range, q_t
    still rounds once: at (5, 12) a subnormal prefactor made it 27% low."""

    SPACING = Decimal(2.0**-1074)  # between neighbouring subnormals

    @pytest.mark.parametrize("kernel", [hyperbolic_heat_kernel, hyperbolic_heat_kernel_scaled])
    @pytest.mark.parametrize("t, n", [(5.0, 12), (4.9, 12), (20.0, 6), (709.0, 1)])
    def test_within_one_subnormal_spacing_of_the_exact_sum(self, kernel, t, n):
        scaled = kernel is hyperbolic_heat_kernel_scaled
        xs = [0.05, 1.0, 3.0, 6.0]
        values = kernel(t, n, np.array(xs))
        for x, value in zip(xs, values):
            exact = decimal_q(t, n, x, scaled)
            assert exact < Decimal(sys.float_info.min)
            assert abs(Decimal(value) - exact) <= self.SPACING
            assert kernel(t, n, x) == value

    def test_underflow_to_zero_past_the_gaussian_cutoff(self):
        # x^2 / 4t > 700 is returned as 0 by design, although the true value
        # (5.7e-317 here) is a subnormal
        assert hyperbolic_heat_kernel(0.05, 1, 12.0) == 0.0
        assert decimal_q(0.05, 1, 12.0, scaled=False) > 0


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
        xs = np.array([0.0, 0.3 * thr, 0.999 * thr, thr, thr + 0.3, thr + 1.0, 5.0, 11.0, 12.0, 40.0])
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
        # the orders the accuracy tests cover end at 12
        with pytest.raises(ValueError, match=r"n must be <= 12, got 13"):
            hyperbolic_heat_kernel_scaled(1.0, 13, 0.5)

    @pytest.mark.parametrize("kernel", [hyperbolic_heat_kernel, hyperbolic_heat_kernel_scaled])
    @pytest.mark.parametrize("t, x", [(1e-27, 0.0), (1e-26, 1.55e-12)])
    def test_time_below_floor_rejected(self, kernel, t, x):
        # t^-12 overflows here; the sum gave 0 * inf = NaN
        with pytest.raises(ValueError, match=r"below \S+, where the order-12 kernel"):
            kernel(t, 12, x)

    @pytest.mark.parametrize("n", range(1, 13))
    @pytest.mark.parametrize("kernel, scaled", [(hyperbolic_heat_kernel, False), (hyperbolic_heat_kernel_scaled, True)])
    def test_finite_at_the_time_floor(self, n, kernel, scaled):
        floor = _t_floor(n, scaled)
        xs = np.concatenate([[0.0, 1e-300, 1e-12], np.geomspace(1e-9, 710.4, 400)])
        assert np.isfinite(kernel(floor, n, xs)).all()
        with pytest.raises(ValueError, match=r"double-precision range"):
            kernel(floor * (1.0 - 1e-12), n, xs)

    def test_time_floor_as_documented(self):
        plain = {1: 4e-207, 2: 6.2e-125, 3: 1e-89, 6: 4e-49, 12: 6.8e-26}
        scaled = {**plain, 7: 5.5e-42, 12: 1.1e-23}
        for n, floor in plain.items():
            assert _t_floor(n, False) == pytest.approx(floor, rel=0.05)
        for n, floor in scaled.items():
            assert _t_floor(n, True) == pytest.approx(floor, rel=0.05)
        assert max(_t_floor(n, True) for n in range(1, 13)) < _T_FLOOR_BOUND

    def test_plain_kernel_keeps_times_only_the_scaled_one_rejects(self):
        # from n = 7 the scaled kernel's direct-sum terms set its floor; the
        # plain kernel forms none of them at such t and stays defined
        xs = np.array([0.0, 1e-13, 0.5, 700.0])
        for n, t in [(7, 1e-42), (12, 1e-24), (12, 1e-25)]:
            assert np.isfinite(hyperbolic_heat_kernel(t, n, xs)).all()
            with pytest.raises(ValueError, match=r"double-precision range"):
                hyperbolic_heat_kernel_scaled(t, n, xs)
        with pytest.raises(ValueError, match=r"below 6.77e-26"):
            hyperbolic_heat_kernel(6e-26, 12, xs)

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
