import cmath
import math
import warnings

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adsheat import kernels
from adsheat.geometry import (
    BallPoint,
    FiberAngle,
    bergman_pairing,
    point_at_distance,
    twist_phase,
)
from adsheat.kernels import (
    MAX_FIBER_MODES,
    _mode_u_max,
    SeriesConfig,
    ads_kernel_integral,
    ads_kernel_series_detail,
    maass_direct_profile,
    maass_radial_profile,
)
from adsheat.quadrature import ConvergenceError, QuadratureConfig, gauss_legendre_rule
from adsheat.radial_heat import hyperbolic_heat_kernel

TWO_PI = 2.0 * math.pi

# frozen mpmath oracles (50 digits, offline; see tests/test_radial_heat.py
# for the q_t counterparts these are built from)
ORACLE_V_1_1_0_0 = 2.3122264071497805365e-2
ORACLE_V_1_1_1_05 = 2.6594274373114986646e-1
ORACLE_V_05_2_HALF_1 = 1.7625142470743216315e-3
ORACLE_S_1_1_03_07 = 4.5471085325594677283e-2


# the CLI's tolerances (1e-11 / 1e-9); the profiles default to 1e-13 / 1e-12
CLI_QUAD = QuadratureConfig()


def pair_at(d: float, n: int = 1) -> tuple[BallPoint, BallPoint]:
    return point_at_distance(d, n), BallPoint.origin(n)


def ball_kernel(profile, t: float, n: int, kappa: float, w: BallPoint, y: BallPoint) -> complex:
    """v_{t,n,kappa}(w, y) = twist_phase(twist, kappa) * V(d) from one pairing of
    (w, y), with V by ``profile`` at the CLI's tolerances."""
    d, twist = bergman_pairing(w.coords, y.coords)
    return complex(twist_phase(twist, kappa)) * profile(t, n, kappa, d, CLI_QUAD)


def series_at(t: float, n: int, w: BallPoint, y: BallPoint, theta: float, series_config=None) -> float:
    """The fiber-mode series at a point pair: at its distance, with ``theta``
    folded into [0, 2 pi) and moved by its twist, as ``eval-ads --w/--y`` does."""
    d, twist = bergman_pairing(w.coords, y.coords)
    theta_eff = FiberAngle(theta).theta + float(twist)
    return ads_kernel_series_detail(t, n, d, theta_eff, series_config).value


class TestMaassRoutes:
    def test_diagonal_against_oracle(self):
        v = ball_kernel(maass_radial_profile, 1.0, 1, 0.0, BallPoint.origin(1), BallPoint.origin(1))
        assert v.imag == 0.0
        assert v.real == pytest.approx(ORACLE_V_1_1_0_0, rel=1e-11)

    @pytest.mark.parametrize("profile", [maass_direct_profile, maass_radial_profile])
    def test_weight_one_against_oracle(self, profile):
        v = ball_kernel(profile, 1.0, 1, 1.0, *pair_at(0.5))
        assert v.real == pytest.approx(ORACLE_V_1_1_1_05, rel=1e-10)

    def test_half_weight_n2_against_oracle(self):
        v = ball_kernel(maass_direct_profile, 0.5, 2, 0.5, *pair_at(1.0, 2))
        assert v.real == pytest.approx(ORACLE_V_05_2_HALF_1, rel=1e-10)

    @pytest.mark.parametrize("t", [0.5, 2.0])
    @pytest.mark.parametrize("kappa", [0.0, 0.5, 1.0])
    @pytest.mark.parametrize("d", [0.3, 2.0])
    def test_route_equivalence_spot(self, t, kappa, d):
        w, y = pair_at(d)
        direct = ball_kernel(maass_direct_profile, t, 1, kappa, w, y)
        substituted = ball_kernel(maass_radial_profile, t, 1, kappa, w, y)
        assert abs(direct - substituted) <= max(1e-8, 1e-6 * abs(substituted))

    def test_direct_route_overflow_raises_instead_of_nan(self):
        # the Chebyshev factor overflows at kappa = 7; the quadrature must
        # refuse the resulting NaN rather than report it as converged
        with pytest.raises(ConvergenceError) as exc_info:
            ball_kernel(maass_direct_profile, 1.0, 1, 7.0, *pair_at(0.5))
        assert exc_info.value.value is not None

    def test_direct_route_overflow_raises_before_any_warning(self):
        # the non-finite total is the one report; numpy's overflow and
        # invalid-value warnings must not precede it
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ConvergenceError):
                ball_kernel(maass_direct_profile, 1.0, 1, 7.0, *pair_at(0.5))

    def test_one_integrand_call_per_quadrature_of_a_converging_row(self, monkeypatch):
        # both routes converge on their eight starting panels: each quadrature takes
        # them in one call (the engine that learned C from a lone first panel made two)
        calls = []
        real = kernels.adaptive_gauss_kronrod

        def spy(f, *args, **kwargs):
            sizes = []
            calls.append(sizes)

            def counted(x):
                sizes.append(len(x))
                return f(x)

            return real(counted, *args, **kwargs)

        monkeypatch.setattr(kernels, "adaptive_gauss_kronrod", spy)
        for profile in (maass_direct_profile, maass_radial_profile):
            ball_kernel(profile, 1.0, 1, 0.5, *pair_at(0.5))
        assert calls == [[120], [120]]

    def test_direct_delegates_near_diagonal(self):
        w, y = BallPoint((1e-12,)), BallPoint.origin(1)
        direct = ball_kernel(maass_direct_profile, 1.0, 1, 0.5, w, y)
        assert direct == ball_kernel(maass_radial_profile, 1.0, 1, 0.5, w, y)

    def test_weight_conjugation(self):
        # v_{-kappa}(w, y) = conj(v_{kappa}(w, y)): only the phase twist
        # depends on the sign of the weight
        w = BallPoint((0.3 + 0.25j,))
        y = BallPoint((0.1 - 0.2j,))
        plus = ball_kernel(maass_radial_profile, 1.0, 1, 1.5, w, y)
        minus = ball_kernel(maass_radial_profile, 1.0, 1, -1.5, w, y)
        assert plus == pytest.approx(minus.conjugate(), rel=1e-12)

    def test_hermitian_symmetry(self):
        w = BallPoint((0.4 + 0.1j, -0.2j))
        y = BallPoint((0.1j, 0.3))
        a = ball_kernel(maass_radial_profile, 0.8, 2, 1.0, w, y)
        b = ball_kernel(maass_radial_profile, 0.8, 2, 1.0, y, w)
        assert a == pytest.approx(b.conjugate(), abs=1e-9 * abs(a) + 1e-15)

    def test_weight_zero_radial_and_positive(self):
        # same distance through three different point pairs -> same value
        d = 0.9
        pairs = [
            pair_at(d),
            (BallPoint((math.tanh(d) * cmath.exp(1.1j),)), BallPoint.origin(1)),
            (BallPoint((math.tanh(d + 0.4),)), BallPoint((math.tanh(0.4),))),
        ]
        values = [ball_kernel(maass_radial_profile, 1.0, 1, 0.0, w, y) for w, y in pairs]
        for v in values:
            assert v.imag == pytest.approx(0.0, abs=1e-15)
            assert v.real > 0.0
        assert values[0].real == pytest.approx(values[1].real, rel=1e-9)
        assert values[0].real == pytest.approx(values[2].real, rel=1e-9)

    def test_overflow_guard(self):
        with pytest.raises(ValueError, match="double-precision"):
            ball_kernel(maass_radial_profile, 1.0, 1, 15.0, *pair_at(0.5))

    @pytest.mark.parametrize("profile", [maass_direct_profile, maass_radial_profile])
    def test_argument_validation(self, profile):
        w, y = pair_at(0.5)
        with pytest.raises(ValueError, match="time must be finite and > 0"):
            ball_kernel(profile, 0.0, 1, 0.0, w, y)
        with pytest.raises(ValueError, match="half-integer"):
            ball_kernel(profile, 1.0, 1, 0.3, w, y)
        with pytest.raises(ValueError, match="different dimensions"):
            ball_kernel(profile, 1.0, 2, 0.0, w, BallPoint.origin(2))


class TestRadialProfile:
    def test_matches_scalar_route(self):
        t, n, kappa = 1.0, 1, 1.0
        ds = np.array([0.05, 0.3, 0.8, 1.6])
        profile = maass_radial_profile(t, n, kappa, ds)
        for d, value in zip(ds, profile):
            scalar = ball_kernel(maass_radial_profile, t, n, kappa, *pair_at(float(d), n))
            assert value == pytest.approx(scalar.real, rel=1e-11)

    def test_chunking_is_transparent(self):
        # 740 distances cross the 512-row block boundary; each block refines
        # its own panels, so agreement is to rounding, not to the bit
        ds = np.linspace(0.0, 2.0, 37)
        a = maass_radial_profile(0.7, 1, 0.5, np.tile(ds, 20))
        b = maass_radial_profile(0.7, 1, 0.5, ds)
        assert np.allclose(a, np.tile(b, 20), rtol=1e-13, atol=0.0)

    def test_monotone_decay_in_distance(self):
        ds = np.linspace(0.0, 3.0, 20)
        profile = maass_radial_profile(1.0, 1, 0.0, ds)
        assert np.all(np.diff(profile) < 0)

    @pytest.mark.parametrize(
        "t, n, kappa",
        [(1.0, 1, 0.0), (0.8, 1, 1.0), (0.3, 1, 0.0), (0.7, 1, 0.0), (1.0, 2, 0.0), (1.0, 1, 0.5)],
    )
    def test_matches_dense_fixed_rule(self, t, n, kappa):
        # reference: 2 int q_t(x(u)) cosh(2 kappa u) du by composite
        # Gauss-Legendre at 160 nodes per unit of u, truncated at 1e-16
        m = round(2 * kappa)
        ds = np.linspace(0.0, 12.0, 97)
        u_max = _mode_u_max(t, m, 1e-16)
        u, wts = gauss_legendre_rule(0.0, u_max, math.ceil(160 * u_max / 15), order=15)
        x = np.arccosh(np.cosh(u) * np.cosh(ds)[:, None])
        reference = (hyperbolic_heat_kernel(t, n, x) * 2.0 * np.cosh(m * u)) @ wts
        profile = maass_radial_profile(t, n, kappa, ds)
        keep = np.abs(reference) > 1e-10
        assert keep.sum() >= 38
        rel = np.abs(profile - reference)[keep] / np.abs(reference[keep])
        assert rel.max() <= 2e-14

    def test_distances_up_to_the_overflow_cap(self):
        # u stops at 700 - d, short of where cosh u cosh d overflows
        assert maass_radial_profile(1.0, 1, 0.0, [699.0])[0] == 0.0
        with pytest.raises(ValueError, match="< 700"):
            maass_radial_profile(1.0, 1, 0.0, [700.0])

    @pytest.mark.parametrize("d", [0.0, 0.3, 2.5])
    def test_lone_distance_matches_a_one_element_array(self, d):
        lone = maass_radial_profile(0.7, 1, 0.5, d)
        assert isinstance(lone, float)
        assert lone == maass_radial_profile(0.7, 1, 0.5, [d])[0]

    @pytest.mark.parametrize("d_big", [695.0, 699.0])
    def test_far_distance_does_not_cut_its_block(self, d_big):
        # a far distance stops its own integral early, not its neighbours'
        alone = maass_radial_profile(1.0, 1, 0.0, [0.0, 0.5])
        mixed = maass_radial_profile(1.0, 1, 0.0, [0.0, 0.5, d_big])
        assert mixed[2] == 0.0
        np.testing.assert_allclose(mixed[:2], alone, rtol=1e-12, atol=0.0)


PROFILES = [maass_radial_profile, maass_direct_profile]


@st.composite
def weighted_profile_cases(draw):
    """(t, n, weights, distances): 1-8 half-integer weights, repeats allowed,
    with t (2 kappa)^2 <= 120, and distances that include 0 and 5e-9."""
    t = draw(st.floats(min_value=0.1, max_value=2.0))
    m_max = int(math.sqrt(120.0 / t))
    ms = draw(st.lists(st.integers(-m_max, m_max), min_size=1, max_size=8))
    ds = draw(st.lists(st.floats(min_value=0.0, max_value=4.0), max_size=4))
    return t, draw(st.sampled_from([1, 2, 3])), [m / 2 for m in ms], [0.0, 5e-9, *ds]


class TestWeightBatches:
    """A 1-D array of weights gives one (kappa, d) row per pair, the rows of
    a block sharing one quadrature per route."""

    @given(weighted_profile_cases())
    def test_each_row_meets_its_target_against_the_lone_weight(self, case):
        t, n, kappas, ds = case
        for profile in PROFILES:
            batched = profile(t, n, kappas, ds)
            assert batched.shape == (len(kappas), len(ds))
            for kappa, row in zip(kappas, batched):
                alone = profile(t, n, kappa, ds)
                assert np.all(np.abs(row - alone) <= np.maximum(1e-13, 1e-12 * np.abs(alone)))
            assert profile(t, n, kappas[:1], ds)[0].tolist() == profile(t, n, kappas[0], ds).tolist()

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize("ds", [0.3, [0.0, 5e-9, 0.3, 2.5]])
    def test_one_weight_array_is_the_scalar_call(self, profile, ds):
        batched = profile(0.7, 2, [1.5], ds)
        assert batched.shape == (1,) + np.shape(ds)
        assert batched[0].tolist() == np.asarray(profile(0.7, 2, 1.5, ds)).tolist()

    @pytest.mark.parametrize("profile", PROFILES)
    def test_weights_of_one_mode_share_their_bits(self, profile):
        # V depends on |kappa| only: -1 and 1 are one row, as are repeats
        values = profile(0.5, 1, [1.0, -1.0, 0.5, 1.0], [0.2, 1.1])
        assert values[0].tolist() == values[1].tolist() == values[3].tolist()

    @pytest.mark.parametrize("profile", PROFILES)
    def test_shapes(self, profile):
        assert profile(1.0, 1, [0.0, 0.5], 0.4).shape == (2,)
        assert profile(1.0, 1, [0.0, 0.5], np.full((2, 3), 0.4)).shape == (2, 2, 3)
        assert profile(1.0, 1, [], [0.4, 0.5]).shape == (0, 2)
        with pytest.raises(ValueError, match="1-D array"):
            profile(1.0, 1, [[0.5]], 0.4)

    @pytest.mark.parametrize("profile", PROFILES)
    def test_every_weight_is_checked(self, profile):
        with pytest.raises(ValueError, match="half-integer"):
            profile(1.0, 1, [0.5, 0.3], 0.4)
        with pytest.raises(ValueError, match=r"exp\(t \(2 kappa\)\^2\) = exp\(729\)"):
            profile(1.0, 1, [0.5, 13.5], 0.4)

    @pytest.mark.parametrize("profile", PROFILES)
    @pytest.mark.parametrize(
        "weights, count, blocks",
        [(4, 100, [400]), (4, 300, [300] * 4), (2, 600, [512, 512, 176])],
    )
    def test_a_block_holds_at_most_512_rows(self, profile, monkeypatch, weights, count, blocks):
        # a chunk of up to 512 distances, with as many weights as fit beside it
        rows = []
        real = kernels.adaptive_gauss_kronrod

        def spy(f, a, b, cfg, points=(), **kwargs):
            result = real(f, a, b, cfg, points, **kwargs)
            rows.append(np.size(result.value))
            return result

        monkeypatch.setattr(kernels, "adaptive_gauss_kronrod", spy)
        values = profile(0.4, 1, np.arange(weights) / 2, np.linspace(0.01, 2.0, count))
        assert values.shape == (weights, count)
        assert rows == blocks


class TestDirectProfile:
    @pytest.mark.parametrize("profile", [maass_radial_profile, maass_direct_profile])
    def test_orders_past_12_rejected(self, profile):
        # q_t, which both routes integrate, is stated and tested for n <= 12
        assert profile(1.0, 12, 0.5, [0.5])[0] > 0.0
        with pytest.raises(ValueError, match=r"n must be <= 12, got 13"):
            profile(1.0, 13, 0.5, [0.5])

    def test_group_agrees_with_substituted_route(self):
        ds = np.array([0.05, 0.3, 0.8, 1.6, 3.0])
        direct = maass_direct_profile(1.0, 1, 1.0, ds)
        substituted = maass_radial_profile(1.0, 1, 1.0, ds)
        np.testing.assert_allclose(direct, substituted, rtol=1e-12, atol=1e-13)

    def test_near_diagonal_delegates_to_the_substituted_profile(self):
        ds = np.array([0.0, 5e-9, 0.4])
        cfg = QuadratureConfig()
        direct = maass_direct_profile(0.7, 1, 0.5, ds, cfg)
        assert direct[:2].tolist() == maass_radial_profile(0.7, 1, 0.5, ds[:2], cfg).tolist()

    @pytest.mark.parametrize("kappa", [0.0, 3.0])
    @pytest.mark.parametrize(
        "cfg", [None, QuadratureConfig()], ids=["profile-tolerance", "cli-tolerance"]
    )
    def test_near_diagonal_and_far_distances_share_a_group(self, kappa, cfg):
        # the smallest distances refine the shared panels near r = 0 until,
        # at the profile's tolerances, d + r^2 rounds to d for d = 8; every
        # row must stay finite and within its own tolerance of the
        # independent substituted route
        ds = np.array([1.0000001e-8, 1e-6, 1e-4, 0.5, 2.5, 8.0])
        tol = cfg or QuadratureConfig(abs_tol=1e-13, rel_tol=1e-12)
        direct = maass_direct_profile(0.5, 1, kappa, ds, cfg)
        tight = QuadratureConfig(abs_tol=1e-15, rel_tol=1e-14, max_nodes=10**6)
        reference = maass_radial_profile(0.5, 1, kappa, ds, tight)
        bound = np.maximum(tol.abs_tol, tol.rel_tol * np.abs(reference))
        assert np.all(np.abs(direct - reference) <= bound)


    @pytest.mark.parametrize("d_big", [695.0, 699.0, 699.999])
    def test_far_distance_does_not_cut_its_block(self, d_big):
        # x stops at 700 for the far distance alone, short of where sinh x
        # overflows (past x = 710.48 the integrand would be inf * 0)
        alone = maass_direct_profile(1.0, 1, 0.0, [0.0, 0.5])
        mixed = maass_direct_profile(1.0, 1, 0.0, [0.0, 0.5, d_big])
        assert mixed[2] == 0.0
        np.testing.assert_allclose(mixed[:2], alone, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("d", [5e-9, 0.3, 2.5])
    def test_lone_distance_matches_a_one_element_array(self, d):
        lone = maass_direct_profile(0.7, 1, 0.5, d)
        assert isinstance(lone, float)
        assert lone == maass_direct_profile(0.7, 1, 0.5, [d])[0]

    @pytest.mark.parametrize("d", [1.5e-8, 2e-8, 3e-8, 5e-8])
    def test_lone_distance_just_above_the_cut_meets_its_target(self, d):
        # the integrand turns over at r ~ sqrt(2d) ~ 2e-4, far inside the
        # first of eight equal starting panels on [0, sqrt(u_max)] ~ [0, 3]
        cfg = QuadratureConfig()
        value = maass_direct_profile(0.5, 1, 0.0, d, cfg)
        reference = _maass_direct_reference(0.5, 0, d)
        assert abs(value - reference) <= max(cfg.abs_tol, cfg.rel_tol * abs(reference))


class TestAdsSeries:
    def test_against_frozen_oracle(self):
        detail = ads_kernel_series_detail(1.0, 1, 0.3, 0.7, SeriesConfig(eps_tail=1e-13))
        assert isinstance(detail.value, float)
        assert detail.value == pytest.approx(ORACLE_S_1_1_03_07, rel=1e-10)

    def test_series_is_real_and_positive_at_base(self):
        w, y = pair_at(0.0)
        for theta in (0.0, 1.0, math.pi):
            value = series_at(0.7, 1, w, y, theta)
            assert isinstance(value, float)
            assert value > 0.0

    def test_theta_reflection_symmetry(self):
        # the mode sum pairs e^{+-ik theta} into cosines, so for real z
        # the value is even in theta (up to the ulp lost folding -1.1
        # into [0, 2 pi))
        w, y = pair_at(0.4)
        a = series_at(1.0, 1, w, y, 1.1)
        b = series_at(1.0, 1, w, y, -1.1)
        assert a == pytest.approx(b, rel=1e-13)

    def test_theta_period_invariance(self):
        w, y = pair_at(0.4)
        a = series_at(1.0, 1, w, y, 0.9)
        b = series_at(1.0, 1, w, y, 0.9 + TWO_PI)
        assert a == pytest.approx(b, rel=1e-13)

    def test_large_time_collapses_to_few_modes(self):
        detail = ads_kernel_series_detail(50.0, 1, 0.5, 0.3)
        assert detail.modes_used <= 3
        assert detail.tail_estimate < 1e-20

    def test_series_emits_no_warning(self):
        # truncation is reported as data (modes_used, tail_estimate), never
        # as a RuntimeWarning
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            detail = ads_kernel_series_detail(0.7, 1, 0.0, 0.0)
        assert detail.value > 0.0

    def test_mode_floor_holds_small_kernels(self):
        # the value (~9.5e-10) sits below eps_tail, so the first damped pair
        # already does; the floor keeps summing (6 modes, not 1) and the
        # result matches a tight reference instead of being 2.7e-3 off
        default = ads_kernel_series_detail(1.5, 3, 0.0, 0.7)
        reference = ads_kernel_series_detail(1.5, 3, 0.0, 0.7, SeriesConfig(eps_tail=1e-15))
        assert default.modes_used >= 6
        assert default.value == pytest.approx(reference.value, rel=1e-6)

    @pytest.mark.parametrize(
        "t, n, d, eps_tail, modes",
        [
            (0.3, 1, 0.5, 1e-9, 33),
            (1.0, 1, 0.5, 1e-9, 11),
            (0.1, 1, 0.2, 1e-9, 114),
            (0.08, 1, 0.12, 1e-9, 152),
            (2.0, 1, 2.4, 1e-9, 6),
            (0.07, 1, 0.0, 1e-9, 182),
            # a floor with a |v_0| term was one mode higher here; the count was not
            (0.05, 6, 0.0, 1e-9, 66),
            (0.05, 1, 0.0, 1e-4, 137),
        ],
    )
    def test_modes_used_frozen(self, t, n, d, eps_tail, modes):
        # counts of the one-integral-per-mode series; blocks must not move them
        detail = ads_kernel_series_detail(t, n, d, 0.7, SeriesConfig(eps_tail=eps_tail))
        assert detail.modes_used == modes
        assert len(detail.damped_modes) == modes + 1

    @given(
        st.floats(min_value=0.05, max_value=3.0),
        st.sampled_from([1, 2, 3, 6, 12]),
        st.floats(min_value=0.0, max_value=3.0),
    )
    def test_damped_modes_are_positive_and_bound_v0(self, t, n, d):
        # V_k >= V_0 > 0, so each damped mode is at least e^{-t k^2} v_0: the
        # stop test then bounds the |v_0| term the mode floor leaves out
        try:
            modes = ads_kernel_series_detail(t, n, d, 0.0).damped_modes
        except ConvergenceError:
            return  # past the mode cap (small t, small n)
        for k, mode in enumerate(modes):
            assert mode > 0.0
            assert mode >= math.exp(-t * k * k) * modes[0]

    @pytest.mark.parametrize("w, y", [((0.46,), (0.0,)), ((0.3 + 0.1j,), (0.2j,))])
    def test_at_angle_equals_a_fresh_series(self, w, y):
        d, twist = bergman_pairing(w, y)
        moved = ads_kernel_series_detail(0.4, 1, d, 0.7 + twist).at_angle(4.1 + twist)
        assert moved == ads_kernel_series_detail(0.4, 1, d, 4.1 + twist)

    def test_pinned_count_beyond_one_block(self):
        detail = ads_kernel_series_detail(0.02, 1, 0.5, 0.3, SeriesConfig(k_max_override=300))
        assert detail.modes_used == 300 and len(detail.damped_modes) == 301
        reference = series_at(0.02, 1, *pair_at(0.5), 0.3, SeriesConfig(eps_tail=1e-12))
        assert detail.value == pytest.approx(reference, abs=1e-10)

    def test_mode_pin_override(self):
        detail = ads_kernel_series_detail(1.0, 1, 0.5, 0.2, SeriesConfig(k_max_override=5))
        assert detail.modes_used == 5

    def test_mode_cap_raises_with_partial_value(self):
        # t = 0.005: damped modes decay like e^{-0.01 k}, far too slow for
        # the default tail target within the 256-mode cap
        with pytest.raises(ConvergenceError) as exc_info:
            series_at(0.005, 1, *pair_at(0.3), 0.0)
        err = exc_info.value
        assert isinstance(err.value, float)
        assert err.error_estimate is not None
        assert "256" in str(err) or str(MAX_FIBER_MODES) in str(err)

    def test_floor_past_the_cap_raises_before_any_quadrature(self, monkeypatch):
        # at t = 1e-6 the floor alone asks for 4555 modes; the series used to
        # sum 257 of them and then blame the last damped pair
        def no_quadrature(*args, **kwargs):
            raise AssertionError("quadrature ran")

        monkeypatch.setattr(kernels, "_cosh_mode_integral", no_quadrature)
        with pytest.raises(ConvergenceError, match=rf"floor of 4555 modes.* cap of {MAX_FIBER_MODES}"):
            ads_kernel_series_detail(1e-6, 1, 0.1, 0.0)

    def test_tail_estimate_brackets_refinement(self):
        coarse = ads_kernel_series_detail(1.2, 1, 0.6, 0.4, SeriesConfig(eps_tail=1e-6))
        fine = ads_kernel_series_detail(1.2, 1, 0.6, 0.4, SeriesConfig(eps_tail=1e-13))
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
        d, twist = bergman_pairing(w.coords, y.coords)
        theta_eff = theta + float(twist)
        a = series_at(0.8, n, w, y, theta)
        assert a == ads_kernel_series_detail(0.8, n, d, theta_eff).value
        b = series_at(0.8, n, point_at_distance(float(d), n), BallPoint.origin(n), theta_eff)
        assert a == pytest.approx(b, rel=1e-9)

    def test_angle_is_used_as_given(self):
        # no folding into [0, 2 pi): cos is even, so the reflection is exact
        a = ads_kernel_series_detail(1.0, 1, 0.4, 1.1)
        assert a == ads_kernel_series_detail(1.0, 1, 0.4, -1.1)

    @pytest.mark.parametrize(
        "t, n, d, theta",
        [(0.0, 1, 0.5, 0.3), (1.0, 0, 0.5, 0.3), (1.0, 1, -0.1, 0.3), (1.0, 1, 700.0, 0.3),
         (1.0, 1, math.nan, 0.3), (1.0, 1, 0.5, math.nan), (1.0, 1, 0.5, math.inf),
         (1.0, 13, 0.5, 0.3)],
    )
    def test_both_routes_reject_the_same_arguments(self, t, n, d, theta):
        for route in (ads_kernel_series_detail, ads_kernel_integral):
            with pytest.raises(ValueError):
                route(t, n, d, theta)


class TestAdsCentralIdentity:
    @pytest.mark.parametrize("t", [0.7, 1.5])
    @pytest.mark.parametrize("d", [0.0, 0.8])
    def test_integral_equals_series_over_2pi(self, t, d):
        w, y = pair_at(d)
        for theta in (0.0, 1.0):
            series = series_at(t, 1, w, y, theta)
            integral = ads_kernel_integral(t, 1, d, theta)
            assert abs(integral - series / TWO_PI) <= 1e-6

    def test_integral_over_an_angle_array_matches_scalar_calls(self):
        # one quadrature serves the whole array, so a value matches its
        # scalar call within the default abs_tol, not bit for bit
        angles = [0.0, 1.0, 5.5, -0.3]
        values = ads_kernel_integral(0.5, 1, 0.4, np.array(angles))
        assert isinstance(values, np.ndarray) and values.shape == (4,)
        assert values.dtype == np.float64
        for angle, value in zip(angles, values):
            single = ads_kernel_integral(0.5, 1, 0.4, angle)
            assert isinstance(single, float)
            assert abs(value - single) <= QuadratureConfig().abs_tol

    def test_one_cosine_pass_per_sweep(self, monkeypatch):
        import adsheat.kernels as kernels

        calls = []
        real = kernels.adaptive_gauss_kronrod

        def spy(f, a, b, *rest, **kwargs):
            calls.append((a, b))
            return real(f, a, b, *rest, **kwargs)

        monkeypatch.setattr(kernels, "adaptive_gauss_kronrod", spy)
        ads_kernel_integral(0.3, 1, 0.5, np.linspace(0.0, TWO_PI, 24))
        # the envelope integral, then every (angle, copy) pair at once
        assert len(calls) == 2 and calls[0] == calls[1]
        # past 512 angles, one more pass per block of 512
        calls.clear()
        ads_kernel_integral(0.3, 1, 0.5, np.linspace(0.0, TWO_PI, 1025))
        assert len(calls) == 4

    def test_small_time_sweep_converges(self):
        values = ads_kernel_integral(0.01, 3, 0.0, np.linspace(0.0, TWO_PI, 24))
        assert np.all(np.isfinite(values))

    @pytest.mark.parametrize("theta", [2.5, 3.1, math.pi])
    def test_tiny_values_match_mpmath(self, theta):
        # (t, d) = (0.1, 0.2): the kernel is 2.8e-22 at theta = 2.5, 1.0e-29 at
        # 3.1 and 5.4e-30 at pi, all far below abs_tol.  Alone, no component
        # forces a finer panel, so only the starting panels resolve cos(u theta/2t)
        reference = _ads_reference(0.1, 0.2, theta)
        alone = ads_kernel_integral(0.1, 1, 0.2, theta)
        beside_one = ads_kernel_integral(0.1, 1, 0.2, np.array([1.0, theta]))[1]
        assert abs(alone - reference) <= 1e-17
        assert abs(beside_one - reference) <= 1e-17

    @pytest.mark.parametrize(
        "t, n, d, abs_tol",
        [(0.01, 2, 0.0, 1e-11), (0.01, 3, 0.0, 1e-11), (0.0206, 1, 0.0, 1e-6), (0.7, 1, 0.8, 1e-11)],
    )
    def test_wing_cutoff_matches_stepping_one_by_one(self, monkeypatch, t, n, d, abs_tol):
        # the reference: step u by 1.0 from u0 until the envelope is negligible
        # or u reaches 400; the first cases step 20 times across binades
        import adsheat.kernels as kernels
        from adsheat.radial_heat import hyperbolic_heat_kernel_scaled

        def envelope(u):
            x = np.arccosh(np.cosh(u) * math.cosh(d))
            return hyperbolic_heat_kernel_scaled(t, n, x) * np.exp((u * u - x * x) / (4.0 * t))

        u_max = 2.0 * math.sqrt(t * (math.log(1.0 / abs_tol) + 20.0))
        while float(envelope(np.array([u_max]))[0]) > 0.01 * abs_tol and u_max < 400.0:
            u_max += 1.0
        ends = []
        real = kernels.adaptive_gauss_kronrod

        def spy(f, a, b, *rest, **kwargs):
            ends.append(b)
            return real(f, a, b, *rest, **kwargs)

        monkeypatch.setattr(kernels, "adaptive_gauss_kronrod", spy)
        ads_kernel_integral(t, n, d, 0.5, quad_config=QuadratureConfig(abs_tol=abs_tol))
        assert ends[0] == u_max  # the envelope integral runs over [0, u_max]

    def test_integral_real_for_real_configuration(self):
        value = ads_kernel_integral(1.0, 1, 0.5, 0.9)
        assert isinstance(value, float) and value > 0.0

    @pytest.mark.parametrize("d", [699.0, 720.0, math.nan, -1.0])
    def test_distance_gives_a_finite_value_or_value_error(self, d):
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            try:
                value = ads_kernel_integral(1.0, 1, d, 0.5)
            except ValueError as exc:
                assert "distances must be finite, >= 0 and < 700" in str(exc)
            else:
                assert math.isfinite(value)


    @pytest.mark.parametrize("t", [1e-3, 3e-3, 0.01, 0.05])
    def test_small_time_value_within_abs_tol_or_raises(self, t):
        # n = 1, d = 0: each copy is e^{-t} e^{-theta_k^2/4t} (4 pi t)^(-2) times
        # int_R u/sinh(u) cos(u theta_k/2t) du = (pi^2/2) sech^2(pi theta_k/4t)
        theta, cfg = math.sqrt(t), QuadratureConfig()
        exact = 0.0
        for k in range(-2, 3):
            theta_k = theta + TWO_PI * k
            decay = math.exp(-2.0 * abs(math.pi * theta_k / (4.0 * t)))
            sech_sq = 4.0 * decay / (1.0 + decay) ** 2
            exact += math.exp(-t - theta_k**2 / (4.0 * t)) * 0.5 * math.pi**2 * sech_sq
        exact /= (4.0 * math.pi * t) ** 2
        try:
            value = ads_kernel_integral(t, 1, 0.0, theta, quad_config=cfg)
        except ConvergenceError:
            if t > 1e-3:
                raise
            return  # at t = 1e-3 the kernel, 2.6e-17, is below what doubles resolve there
        assert abs(value - exact) <= max(cfg.abs_tol, cfg.rel_tol * abs(exact))


def _maass_direct_reference(t: float, m: int, d: float) -> float:
    """V(d) for n = 1 by the direct route in 25-digit mpmath.

    ``2 int_0^inf 2 r sinh(x) T_m(cosh x / cosh d) / sqrt(cosh^2 x - cosh^2 d)
    q_t(x) dr`` with ``x = d + r^2``, q_t on H^3 in closed form, and the
    r-interval split geometrically down to where the integrand turns over.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(25):
        t_mp, d_mp = mp.mpf(t), mp.mpf(d)
        cosh_d = mp.cosh(d_mp)

        def q(x):
            gauss = mp.exp(-x * x / (4 * t_mp))
            return mp.exp(-t_mp) * x * gauss / ((4 * mp.pi * t_mp) ** 1.5 * mp.sinh(x))

        def integrand(r):
            x = d_mp + r * r
            cheb = mp.cosh(m * mp.acosh(max(mp.cosh(x) / cosh_d, 1)))
            root = mp.sqrt(mp.sinh(r * r) * mp.sinh(x + d_mp))
            return 4 * r * mp.sinh(x) * cheb / root * q(x)

        peak, width = 2 * t * m, math.sqrt(2 * t)
        lo, hi = max(d, peak - 10 * width), peak + 10 * width + 2
        rs = [math.sqrt(x - d) for x in sorted({d, *(lo + (hi - lo) * k / 6 for k in range(7))})]
        while 0.0 < d < 0.1 and rs[1] > 0.1 * math.sqrt(d):
            rs.insert(1, 0.5 * rs[1])
        return float(mp.quad(integrand, rs, method="gauss-legendre"))


def _ads_reference(t: float, d: float, theta: float) -> float:
    """The n = 1 integral form at base 0 in 25-digit mpmath, as cosine transforms.

    ``(4 pi t)^(-1/2) sum_k 2 e^{-theta_k^2/4t} int_0^60 F(u) cos(u theta_k / 2t)
    du`` with ``F = e^{(u^2 - x^2)/4t} q_t(x) e^{x^2/4t}`` and q_t on H^3 in
    closed form; copies with theta_k^2/4t > 80 are below 1e-35.  At d = 0,
    t = 0.1 it is within 2e-33 of the closed form, (pi^2/4) sech^2(pi w/2)
    for int_0^inf u/sinh(u) cos(w u) du, at theta = 2.5 and 3.1.
    """
    mp = pytest.importorskip("mpmath")
    with mp.workdps(25):
        t_mp, cosh_d = mp.mpf(t), mp.cosh(mp.mpf(d))
        scale = mp.exp(-t_mp) / (4 * mp.pi * t_mp) ** 1.5

        def envelope(u):
            x = mp.acosh(mp.cosh(u) * cosh_d)
            return scale * (x / mp.sinh(x) if x else 1) * mp.exp((u * u - x * x) / (4 * t_mp))

        total = mp.mpf(0)
        for k in (-1, 0, 1):
            theta_k = theta + 2 * mp.pi * k
            if theta_k**2 / (4 * t_mp) > 80:
                continue
            freq = theta_k / (2 * t_mp)
            transform = mp.quad(
                lambda u: envelope(u) * mp.cos(freq * u),
                mp.linspace(0, 60, 61),
                method="gauss-legendre",
            )
            total += 2 * mp.exp(-theta_k**2 / (4 * t_mp)) * transform
        return float(total / mp.sqrt(4 * mp.pi * t_mp))
