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

    def test_respects_absolute_tolerance(self):
        cfg = QuadratureConfig(abs_tol=1e-6, rel_tol=1e-15)
        res = adaptive_gauss_kronrod(lambda x: np.exp(-x) * np.sin(3 * x), 0.0, 20.0, cfg)
        # int_0^inf e^-x sin(3x) dx = 3/10; the [0, 20] truncation error ~6e-10
        assert res.value == pytest.approx(0.3, abs=1e-6)


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
