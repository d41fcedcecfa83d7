import cmath
import math

import numpy as np
import pytest

from adsheat.geometry import (
    BallPoint,
    FiberAngle,
    hyperbolic_distance,
    point_at_distance,
    twist_angle,
)
from adsheat.kernels import (
    MAX_FIBER_MODES,
    AdsKernelQuery,
    MaassKernelQuery,
    SeriesConfig,
    ads_kernel_integral,
    ads_kernel_series,
    ads_kernel_series_detail,
    maass_kernel_direct,
    maass_kernel_substituted,
    maass_radial_profile,
    theta_identity_lhs,
    theta_identity_rhs,
)
from adsheat.quadrature import ConvergenceError, QuadratureConfig

TWO_PI = 2.0 * math.pi

# frozen mpmath oracles (50 digits, offline; see tests/test_radial_heat.py
# for the q_t counterparts these are built from)
ORACLE_V_1_1_0_0 = 2.3122264071497805365e-2
ORACLE_V_1_1_1_05 = 2.6594274373114986646e-1
ORACLE_V_05_2_HALF_1 = 1.7625142470743216315e-3
ORACLE_S_1_1_03_07 = 4.5471085325594677283e-2
ORACLE_THETA_1_0_0_K10 = 1.0001034463724076389
ORACLE_THETA_07_05_1_K12 = 0.71672817547410552305 - 0.26740036940802044591j


def pair_at(d: float, n: int = 1) -> tuple[BallPoint, BallPoint]:
    return point_at_distance(d, n), BallPoint.origin(n)


class TestMaassRoutes:
    def test_diagonal_against_oracle(self):
        q = MaassKernelQuery(1.0, 1, 0.0, BallPoint.origin(1), BallPoint.origin(1))
        v = maass_kernel_substituted(q)
        assert v.imag == 0.0
        assert v.real == pytest.approx(ORACLE_V_1_1_0_0, rel=1e-11)

    def test_weight_one_against_oracle(self):
        w, y = pair_at(0.5)
        q = MaassKernelQuery(1.0, 1, 1.0, w, y)
        assert maass_kernel_direct(q).real == pytest.approx(
            ORACLE_V_1_1_1_05, rel=1e-10
        )
        assert maass_kernel_substituted(q).real == pytest.approx(
            ORACLE_V_1_1_1_05, rel=1e-10
        )

    def test_half_weight_n2_against_oracle(self):
        w, y = pair_at(1.0, 2)
        q = MaassKernelQuery(0.5, 2, 0.5, w, y)
        assert maass_kernel_direct(q).real == pytest.approx(
            ORACLE_V_05_2_HALF_1, rel=1e-10
        )

    @pytest.mark.parametrize("t", [0.5, 2.0])
    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("d", [0.3, 2.0])
    def test_route_equivalence_spot(self, t, kappa, d):
        w, y = pair_at(d)
        q = MaassKernelQuery(t, 1, kappa, w, y)
        direct = maass_kernel_direct(q)
        substituted = maass_kernel_substituted(q)
        assert abs(direct - substituted) <= max(1e-8, 1e-6 * abs(substituted))

    def test_direct_route_overflow_raises_instead_of_nan(self):
        # the Chebyshev factor overflows at kappa = 7; the quadrature must
        # refuse the resulting NaN rather than report it as converged
        w, y = pair_at(0.5)
        with pytest.raises(ConvergenceError) as exc_info:
            maass_kernel_direct(MaassKernelQuery(1.0, 1, 7.0, w, y))
        assert exc_info.value.value is not None

    def test_direct_delegates_near_diagonal(self):
        w = BallPoint((1e-12,))
        q = MaassKernelQuery(1.0, 1, 0.5, w, BallPoint.origin(1))
        assert maass_kernel_direct(q) == maass_kernel_substituted(q)

    def test_weight_conjugation(self):
        # v_{-kappa}(w, y) = conj(v_{kappa}(w, y)): only the phase twist
        # depends on the sign of the weight
        w = BallPoint((0.3 + 0.25j,))
        y = BallPoint((0.1 - 0.2j,))
        plus = maass_kernel_substituted(MaassKernelQuery(1.0, 1, 1.5, w, y))
        minus = maass_kernel_substituted(MaassKernelQuery(1.0, 1, -1.5, w, y))
        assert plus == pytest.approx(minus.conjugate(), rel=1e-12)

    def test_hermitian_symmetry(self):
        w = BallPoint((0.4 + 0.1j, -0.2j))
        y = BallPoint((0.1j, 0.3))
        a = maass_kernel_substituted(MaassKernelQuery(0.8, 2, 1.0, w, y))
        b = maass_kernel_substituted(MaassKernelQuery(0.8, 2, 1.0, y, w))
        assert a == pytest.approx(b.conjugate(), abs=1e-9 * abs(a) + 1e-15)

    def test_weight_zero_radial_and_positive(self):
        # same distance through three different point pairs -> same value
        d = 0.9
        pairs = [
            pair_at(d),
            (BallPoint((math.tanh(d) * cmath.exp(1.1j),)), BallPoint.origin(1)),
            (BallPoint((math.tanh(d + 0.4),)), BallPoint((math.tanh(0.4),))),
        ]
        values = [
            maass_kernel_substituted(MaassKernelQuery(1.0, 1, 0.0, w, y))
            for w, y in pairs
        ]
        for v in values:
            assert v.imag == pytest.approx(0.0, abs=1e-15)
            assert v.real > 0.0
        assert values[0].real == pytest.approx(values[1].real, rel=1e-9)
        assert values[0].real == pytest.approx(values[2].real, rel=1e-9)

    def test_overflow_guard(self):
        w, y = pair_at(0.5)
        with pytest.raises(ValueError, match="double-precision"):
            maass_kernel_substituted(MaassKernelQuery(1.0, 1, 15.0, w, y))

    def test_query_validation(self):
        w, y = pair_at(0.5)
        with pytest.raises(ValueError):
            MaassKernelQuery(0.0, 1, 0.0, w, y)
        with pytest.raises(ValueError):
            MaassKernelQuery(1.0, 1, 0.3, w, y)  # not a half-integer
        with pytest.raises(ValueError):
            MaassKernelQuery(1.0, 2, 0.0, w, y)  # dimension mismatch


class TestRadialProfile:
    def test_matches_scalar_route(self):
        t, n, kappa = 1.0, 1, 1.0
        ds = np.array([0.05, 0.3, 0.8, 1.6])
        profile = maass_radial_profile(t, n, kappa, ds)
        for d, value in zip(ds, profile):
            w, y = pair_at(float(d), n)
            scalar = maass_kernel_substituted(MaassKernelQuery(t, n, kappa, w, y))
            assert value == pytest.approx(scalar.real, rel=1e-11)

    def test_chunking_is_transparent(self):
        # different chunk sizes change BLAS blocking, so agreement is to
        # rounding, not to the bit
        ds = np.linspace(0.0, 2.0, 37)
        a = maass_radial_profile(0.7, 1, 0.5, ds, chunk_rows=5)
        b = maass_radial_profile(0.7, 1, 0.5, ds)
        assert np.allclose(a, b, rtol=1e-13, atol=0.0)

    def test_monotone_decay_in_distance(self):
        ds = np.linspace(0.0, 3.0, 20)
        profile = maass_radial_profile(1.0, 1, 0.0, ds)
        assert np.all(np.diff(profile) < 0)


class TestAdsSeries:
    def test_against_frozen_oracle(self):
        w, y = pair_at(0.3)
        query = AdsKernelQuery(1.0, 1, w, y, 0.7)
        with pytest.warns(RuntimeWarning):
            detail = ads_kernel_series_detail(query, SeriesConfig(eps_tail=1e-13))
        assert detail.value.imag == 0.0
        assert detail.value.real == pytest.approx(ORACLE_S_1_1_03_07, rel=1e-10)

    def test_series_is_real_and_positive_at_base(self):
        w, y = pair_at(0.0)
        for theta in (0.0, 1.0, math.pi):
            with pytest.warns(RuntimeWarning):
                value = ads_kernel_series(AdsKernelQuery(0.7, 1, w, y, theta))
            assert value.imag == 0.0
            assert value.real > 0.0

    def test_theta_reflection_symmetry(self):
        # the mode sum pairs e^{+-ik theta} into cosines, so for real z
        # the value is even in theta (up to the ulp lost folding -1.1
        # into [0, 2 pi))
        w, y = pair_at(0.4)
        a = ads_kernel_series(AdsKernelQuery(1.0, 1, w, y, 1.1))
        b = ads_kernel_series(AdsKernelQuery(1.0, 1, w, y, -1.1))
        assert a == pytest.approx(b, rel=1e-13)

    def test_theta_period_invariance(self):
        w, y = pair_at(0.4)
        a = ads_kernel_series(AdsKernelQuery(1.0, 1, w, y, 0.9))
        b = ads_kernel_series(AdsKernelQuery(1.0, 1, w, y, 0.9 + TWO_PI))
        assert a == pytest.approx(b, rel=1e-13)

    def test_large_time_collapses_to_few_modes(self):
        w, y = pair_at(0.5)
        with pytest.warns(RuntimeWarning):
            detail = ads_kernel_series_detail(AdsKernelQuery(50.0, 1, w, y, 0.3))
        assert detail.modes_used <= 3
        assert detail.tail_estimate < 1e-20
        # the envelope heuristic fails here too: undamped modes grow like
        # e^{t k^2 - 2 n t k}, ~e^149 at k = 3, though the damped pairs
        # below 1e-45 make convergence immediate
        assert detail.envelope_violated

    def test_envelope_violation_flagged_at_small_time(self):
        w, y = pair_at(0.0)
        with pytest.warns(RuntimeWarning, match="envelope"):
            detail = ads_kernel_series_detail(AdsKernelQuery(0.7, 1, w, y, 0.0))
        assert detail.envelope_violated

    def test_mode_pin_override(self):
        w, y = pair_at(0.5)
        detail = ads_kernel_series_detail(
            AdsKernelQuery(1.0, 1, w, y, 0.2), SeriesConfig(k_max_override=5)
        )
        assert detail.modes_used == 5

    def test_mode_cap_raises_with_partial_value(self):
        # t = 0.005: damped modes decay like e^{-0.01 k}, far too slow for
        # the default tail target within the 256-mode cap
        w, y = pair_at(0.3)
        with pytest.raises(ConvergenceError) as exc_info:
            ads_kernel_series(AdsKernelQuery(0.005, 1, w, y, 0.0))
        err = exc_info.value
        assert err.value is not None
        assert err.error_estimate is not None
        assert "256" in str(err) or str(MAX_FIBER_MODES) in str(err)

    def test_tail_estimate_brackets_refinement(self):
        w, y = pair_at(0.6)
        q = AdsKernelQuery(1.2, 1, w, y, 0.4)
        coarse = ads_kernel_series_detail(q, SeriesConfig(eps_tail=1e-6))
        fine = ads_kernel_series_detail(q, SeriesConfig(eps_tail=1e-13))
        assert abs(coarse.value - fine.value) <= 10.0 * coarse.tail_estimate + 1e-15

    @pytest.mark.parametrize(
        "w, y",
        [((0.3 + 0.1j,), (0.2j,)), ((-0.4j,), (0.5 + 0.2j,)), ((0.1, 0.2j), (0.3j, -0.1))],
    )
    def test_twist_enters_as_effective_angle(self, w, y):
        # a twisted pair equals the untwisted pair at the same distance
        # with the fiber angle moved by Arg(1 - <w,y>)
        w, y = BallPoint(w), BallPoint(y)
        n, theta = w.n, 0.9
        query = AdsKernelQuery(0.8, n, w, y, theta)
        assert query.theta_eff == theta + twist_angle(w, y)
        u = point_at_distance(hyperbolic_distance(w, y), n)
        plain = AdsKernelQuery(0.8, n, u, BallPoint.origin(n), query.theta_eff)
        a = ads_kernel_series(query)
        b = ads_kernel_series(plain)
        assert a == pytest.approx(b, rel=1e-9)

    def test_query_theta_coercion(self):
        w, y = pair_at(0.5)
        q = AdsKernelQuery(1.0, 1, w, y, -0.25)
        assert isinstance(q.theta, FiberAngle)
        assert q.theta.theta == pytest.approx(TWO_PI - 0.25, abs=1e-12)


class TestAdsCentralIdentity:
    @pytest.mark.parametrize("t", [0.7, 1.5])
    @pytest.mark.parametrize("d", [0.0, 0.8])
    def test_integral_equals_series_over_2pi(self, t, d):
        import warnings

        w, y = pair_at(d)
        for theta in (0.0, 1.0):
            query = AdsKernelQuery(t, 1, w, y, theta)
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", RuntimeWarning)
                series = ads_kernel_series(query)
            integral = ads_kernel_integral(t, 1, d, theta)
            assert abs(complex(integral) - series / TWO_PI) <= 1e-6

    def test_integral_real_for_real_configuration(self):
        value = ads_kernel_integral(1.0, 1, 0.5, 0.9)
        assert abs(complex(value).imag) <= 1e-12 * abs(complex(value).real)


class TestThetaIdentity:
    def test_frozen_symmetric_point(self):
        lhs = theta_identity_lhs(1.0, 0.0, 0.0, 10)
        rhs = theta_identity_rhs(1.0, 0.0, 0.0, 10)
        assert lhs.imag == pytest.approx(0.0, abs=1e-16)
        assert lhs.real == pytest.approx(ORACLE_THETA_1_0_0_K10, rel=1e-14)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs)

    def test_frozen_generic_point(self):
        lhs = theta_identity_lhs(0.7, 0.5, 1.0, 12)
        rhs = theta_identity_rhs(0.7, 0.5, 1.0, 12)
        assert lhs == pytest.approx(ORACLE_THETA_07_05_1_K12, rel=1e-13)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs)

    def test_period_shift_reindexes(self):
        # theta -> theta + 2 pi shifts the copy index; at K = 15 the two
        # boundary terms that differ are ~e^{-(2K pi)^2/4t}
        a = theta_identity_lhs(1.0, 0.4, 0.3, 15)
        b = theta_identity_lhs(1.0, 0.4, 0.3 + TWO_PI, 15)
        assert abs(a - b) <= 1e-12 * abs(a)

    def test_k_terms_validation(self):
        with pytest.raises(ValueError):
            theta_identity_lhs(1.0, 0.0, 0.0, -1)
