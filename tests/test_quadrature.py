import math

import numpy as np
import pytest

from adsheat.quadrature import (
    GAUSS_EMBEDDED_WEIGHTS,
    KRONROD_NODES,
    KRONROD_WEIGHTS,
    ConvergenceError,
    QuadratureConfig,
    adaptive_gauss_kronrod,
    gauss_legendre_rule,
)


class TestRuleConstants:
    def test_kronrod_degree_exactness(self):
        # the 15-point Kronrod extension integrates monomials up to
        # degree 22 exactly on [-1, 1]
        for k in range(0, 23):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            approx = float(np.sum(KRONROD_WEIGHTS * KRONROD_NODES**k))
            assert approx == pytest.approx(exact, abs=3e-15)

    def test_gauss_degree_exactness(self):
        # the embedded 7-point Gauss rule is exact through degree 13
        for k in range(0, 14):
            exact = 0.0 if k % 2 else 2.0 / (k + 1)
            approx = float(np.sum(GAUSS_EMBEDDED_WEIGHTS * KRONROD_NODES**k))
            assert approx == pytest.approx(exact, abs=3e-15)

    def test_weights_sum_to_interval_length(self):
        assert float(np.sum(KRONROD_WEIGHTS)) == pytest.approx(2.0, abs=1e-15)
        assert float(np.sum(GAUSS_EMBEDDED_WEIGHTS)) == pytest.approx(2.0, abs=1e-15)

    def test_nodes_sorted_and_symmetric(self):
        assert np.all(np.diff(KRONROD_NODES) > 0)
        assert np.allclose(KRONROD_NODES, -KRONROD_NODES[::-1], atol=1e-16)


class TestAdaptive:
    def test_gaussian_integral(self):
        res = adaptive_gauss_kronrod(
            lambda x: np.exp(-(x**2)), 0.0, 12.0, QuadratureConfig()
        )
        assert res.value == pytest.approx(math.sqrt(math.pi) / 2.0, rel=1e-13)
        # stops once the estimate is under max(abs_tol, rel_tol * |value|)
        assert res.error_estimate < 1e-9
        assert res.n_evals >= 15

    def test_complex_oscillatory(self):
        # int exp(-x^2 + ix) dx over R = sqrt(pi) e^{-1/4}
        res = adaptive_gauss_kronrod(
            lambda x: np.exp(-(x**2) + 1j * x), -9.0, 9.0, QuadratureConfig()
        )
        expected = math.sqrt(math.pi) * math.exp(-0.25)
        assert res.value == pytest.approx(expected, rel=1e-12)
        assert isinstance(res.value, complex)

    def test_real_integrand_returns_real(self):
        res = adaptive_gauss_kronrod(lambda x: np.sin(x), 0.0, math.pi, QuadratureConfig())
        assert isinstance(res.value, float)
        assert res.value == pytest.approx(2.0, rel=1e-13)

    def test_empty_interval(self):
        res = adaptive_gauss_kronrod(lambda x: np.exp(x), 1.0, 1.0, QuadratureConfig())
        assert res.value == 0.0

    def test_node_budget_exhaustion_carries_partial_result(self):
        cfg = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-14, max_nodes=60)
        with pytest.raises(ConvergenceError) as exc_info:
            adaptive_gauss_kronrod(lambda x: np.cos(40.0 * x), 0.0, 50.0, cfg)
        err = exc_info.value
        assert err.value is not None
        assert err.error_estimate is not None
        assert math.isfinite(err.error_estimate)

    def test_nan_integrand_raises(self):
        # NaN > tol is False, so a NaN estimate must not pass as converged
        def f(x):
            out = np.exp(-x)
            out[3] = np.nan
            return out

        with pytest.raises(ConvergenceError) as exc_info:
            adaptive_gauss_kronrod(f, 0.0, 5.0, QuadratureConfig())
        err = exc_info.value
        assert math.isnan(abs(err.value))
        assert math.isnan(err.error_estimate)

    def test_points_split_the_starting_panels(self):
        mids = []

        def f(x):
            mids.append(x[7])  # the middle node sits at the panel centre
            return np.exp(-x)

        res = adaptive_gauss_kronrod(f, 0.0, 3.0, QuadratureConfig(), points=[0.5, 2.0])
        assert mids[:3] == [0.25, 1.25, 2.5]
        assert res.value == pytest.approx(1.0 - math.exp(-3.0), rel=1e-13)

    @pytest.mark.parametrize("points", [[2.0, 0.5], [0.0, 1.0], [4.0], [math.nan]])
    def test_points_must_lie_inside_in_order(self, points):
        with pytest.raises(ValueError, match="strictly between"):
            adaptive_gauss_kronrod(np.exp, 0.0, 3.0, points=points)

    def test_respects_absolute_tolerance(self):
        cfg = QuadratureConfig(abs_tol=1e-6, rel_tol=1e-15)
        res = adaptive_gauss_kronrod(lambda x: np.exp(-x) * np.sin(3 * x), 0.0, 20.0, cfg)
        # int_0^inf e^-x sin(3x) dx = 3/10; the [0, 20] truncation error ~6e-10
        assert res.value == pytest.approx(0.3, abs=1e-6)


# value, error estimate, node and panel counts as frozen from the scalar
# engine before vector integrands existed; they must not move by a bit
FROZEN = [
    (lambda x: np.exp(-(x**2)), 0.0, 12.0, QuadratureConfig(),
     0.8862269254527578, 2.179938909528333e-10, 120, 8),
    (lambda x: np.exp(-(x**2) + 1j * x), -9.0, 9.0, QuadratureConfig(),
     1.3803884470431431 - 2.7504112709412793e-17j, 7.856987738573171e-11, 240, 12),
    (lambda x: np.exp(-x) * np.sin(3 * x), 0.0, 20.0,
     QuadratureConfig(abs_tol=1e-6, rel_tol=1e-15),
     0.300000000651747, 1.401223713540799e-07, 120, 8),
    (lambda x: np.exp(-x) * np.sin(3 * x), 0.0, 20.0, QuadratureConfig(),
     0.3000000006517469, 6.33836725511266e-11, 210, 11),
]
FROZEN_IDS = ["gaussian", "complex", "oscillatory-abs", "oscillatory"]
FROZEN_FIELDS = "f, a, b, cfg, value, error, n_evals, n_panels"


class TestScalarPathFrozen:
    @pytest.mark.parametrize(FROZEN_FIELDS, FROZEN, ids=FROZEN_IDS)
    def test_bit_identical(self, f, a, b, cfg, value, error, n_evals, n_panels):
        res = adaptive_gauss_kronrod(f, a, b, cfg)
        assert res.value == value
        assert res.error_estimate == error
        assert (res.n_evals, res.n_panels) == (n_evals, n_panels)

    @pytest.mark.parametrize(FROZEN_FIELDS, FROZEN, ids=FROZEN_IDS)
    def test_one_row_vector_gives_the_same_bits(
        self, f, a, b, cfg, value, error, n_evals, n_panels
    ):
        # a (1, 15) integrand is the same integral as a (15,) one; only the shape differs
        res = adaptive_gauss_kronrod(lambda x: f(x)[None, :], a, b, cfg)
        assert res.value.shape == res.error_estimate.shape == (1,)
        assert res.value[0] == value
        assert res.error_estimate[0] == error
        assert (res.n_evals, res.n_panels) == (n_evals, n_panels)


class TestVectorIntegrand:
    @staticmethod
    def _pair(x):
        # sizes 1 and 1e-14: int_0^12 e^{-x^2} and 1e-13 int_0^20 e^{-x} cos 3x
        big = np.exp(-(x**2)) * (x <= 12.0)
        small = 1e-13 * np.exp(-x) * np.cos(3.0 * x)
        return np.stack([big, small])

    def test_each_component_meets_its_own_target(self):
        cfg = QuadratureConfig(abs_tol=1e-30, rel_tol=1e-10)
        res = adaptive_gauss_kronrod(self._pair, 0.0, 20.0, cfg)
        exact = np.array([
            math.sqrt(math.pi) / 2.0,
            1e-13 * (1.0 + math.exp(-20.0) * (3.0 * math.sin(60.0) - math.cos(60.0))) / 10.0,
        ])
        assert res.value.shape == res.error_estimate.shape == (2,)
        assert exact[1] == pytest.approx(1e-14, rel=1e-6)
        target = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(res.value))
        assert np.all(res.error_estimate <= target)
        # the small component is accurate relative to itself, not to the big one
        assert np.all(np.abs(res.value - exact) <= 1e-9 * np.abs(exact))

    def test_one_panel_per_call_and_scalar_agreement(self):
        cfg = QuadratureConfig()
        calls = []

        def f(x):
            calls.append(len(x))
            return np.stack([np.sin(x), np.cos(x) ** 2])

        res = adaptive_gauss_kronrod(f, 0.0, 3.0, cfg)
        assert set(calls) == {15} and res.n_evals == 15 * len(calls)
        for c, g in enumerate((np.sin, lambda x: np.cos(x) ** 2)):
            assert res.value[c] == pytest.approx(adaptive_gauss_kronrod(g, 0.0, 3.0, cfg).value, rel=1e-12)

    def test_complex_components(self):
        res = adaptive_gauss_kronrod(
            lambda x: np.stack([np.exp(-(x**2) + 1j * x), np.exp(-(x**2))]), -9.0, 9.0
        )
        assert res.value.dtype == complex
        assert res.value[0] == pytest.approx(math.sqrt(math.pi) * math.exp(-0.25), rel=1e-12)

    def test_nan_in_one_component_raises_with_partial_arrays(self):
        def f(x):
            out = np.stack([np.exp(-x), np.exp(-2.0 * x)])
            out[1, 3] = np.nan
            return out

        with pytest.raises(ConvergenceError, match="component 1") as exc_info:
            adaptive_gauss_kronrod(f, 0.0, 5.0, QuadratureConfig())
        err = exc_info.value
        assert err.value.shape == err.error_estimate.shape == (2,)
        assert np.isfinite(err.value[0]) and np.isnan(err.value[1])

    def test_budget_exhaustion_carries_partial_arrays(self):
        cfg = QuadratureConfig(abs_tol=1e-14, rel_tol=1e-14, max_nodes=150)
        with pytest.raises(ConvergenceError) as exc_info:
            adaptive_gauss_kronrod(
                lambda x: np.stack([np.exp(-x), np.cos(40.0 * x)]), 0.0, 50.0, cfg
            )
        assert exc_info.value.value.shape == (2,)

    @pytest.mark.parametrize("shape", [(3, 14), (15, 3), (2, 3, 15), ()])
    def test_wrong_shape_raises(self, shape):
        with pytest.raises(ValueError, match="shape"):
            adaptive_gauss_kronrod(lambda x: np.ones(shape), 0.0, 1.0)

    def test_shape_must_not_change_between_panels(self):
        calls = []

        def f(x):
            calls.append(x)
            return np.ones((2 if len(calls) == 1 else 3, 15))

        with pytest.raises(ValueError, match="on every panel"):
            adaptive_gauss_kronrod(f, 0.0, 1.0)


class TestFixedRule:
    def test_polynomial_exactness(self):
        # one 15-point panel is exact for degree <= 29
        nodes, weights = gauss_legendre_rule(0.0, 1.0, 1, order=15)
        assert float(np.sum(weights * nodes**29)) == pytest.approx(1.0 / 30.0, rel=1e-14)

    def test_composite_panels(self):
        nodes, weights = gauss_legendre_rule(0.0, 2.0 * math.pi, 8, order=15)
        assert nodes.shape == weights.shape == (8 * 15,)
        assert float(np.sum(weights * np.cos(nodes) ** 2)) == pytest.approx(
            math.pi, rel=1e-13
        )

    def test_interval_measure(self):
        _, weights = gauss_legendre_rule(-1.5, 4.0, 3, order=10)
        assert float(np.sum(weights)) == pytest.approx(5.5, rel=1e-14)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=-1.0)
        with pytest.raises(ValueError):
            QuadratureConfig(max_nodes=10)
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=-1e-3)

    def test_defaults(self):
        cfg = QuadratureConfig()
        assert cfg.abs_tol == 1e-11
        assert cfg.rel_tol == 1e-9
        assert cfg.max_nodes == 100_000
