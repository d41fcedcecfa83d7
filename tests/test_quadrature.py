import hashlib
import heapq
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adsheat import quadrature
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
        assert isinstance(res.value, float)
        # a vector integrand gets zeros shaped like its components
        res = adaptive_gauss_kronrod(lambda x: np.stack([x, x]), 1.0, 1.0)
        assert np.shape(res.value) == np.shape(res.error_estimate) == (2,)
        assert not np.any(res.value) and not np.any(res.error_estimate)
        assert (res.n_evals, res.n_panels) == (15, 0)

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
            mids.extend(x.reshape(-1, 15)[:, 7])  # the middle node sits at the panel centre
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


# value, error estimate, node and panel counts as frozen from the engine that
# refines in waves; they must not move by a bit
FROZEN = [
    (lambda x: np.exp(-(x**2)), 0.0, 12.0, QuadratureConfig(),
     0.8862269254527578, 2.1799400197513576e-10, 120, 8),
    (lambda x: np.exp(-(x**2) + 1j * x), -9.0, 9.0, QuadratureConfig(),
     1.380388447043143 + 5.551115123125783e-17j, 7.856988338283637e-11, 240, 12),
    (lambda x: np.exp(-x) * np.sin(3 * x), 0.0, 20.0,
     QuadratureConfig(abs_tol=1e-6, rel_tol=1e-15),
     0.300000000651747, 1.4012237152061333e-07, 120, 8),
    (lambda x: np.exp(-x) * np.sin(3 * x), 0.0, 20.0, QuadratureConfig(),
     0.300000000651747, 6.338367255110013e-11, 210, 11),
]
FROZEN_IDS = ["gaussian", "complex", "oscillatory-abs", "oscillatory"]
FROZEN_FIELDS = "f, a, b, cfg, value, error, n_evals, n_panels"


# odd C on several calls a wave, as frozen from the engine whose first call was one
# panel: value and error estimate (a digest of their reprs), node and panel counts.
# The first panel and each later call are reduced as row groups of their own; a
# regrouping moves bits (BLAS rounds a lone row and an odd last row differently)
_RATES_7 = np.linspace(0.5, 2.0, 7)[:, None]
_FREQS_7 = np.linspace(1.0, 7.0, 7)[:, None]
_RATES_117 = np.linspace(5.0, 1.0, 117)[:, None]
FROZEN_VECTOR = [
    (lambda x: np.exp(-_RATES_7 * x) * np.cos(_FREQS_7 * x), 0.0, 20.0, (), 7,
     "d6e67879fb4714fd", 390, 17),
    (lambda x: np.cos(_RATES_117 * x) * np.exp(-x), 0.0, 30.0, np.linspace(0.0, 30.0, 31)[1:-1],
     117, "2b37f98064e5d093", 540, 33),
]


class TestVectorPathFrozen:
    @pytest.mark.parametrize(
        "f, a, b, points, components, digest, n_evals, n_panels", FROZEN_VECTOR,
        ids=["C7-8-panels", "C117-30-panels"],
    )
    def test_bit_identical(self, f, a, b, points, components, digest, n_evals, n_panels):
        res = adaptive_gauss_kronrod(f, a, b, QuadratureConfig(), points, components=components)
        assert res.value.shape == (components,)
        bits = repr((res.value.tolist(), res.error_estimate.tolist())).encode()
        assert hashlib.sha256(bits).hexdigest()[:16] == digest
        assert (res.n_evals, res.n_panels) == (n_evals, n_panels)


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

    def test_whole_wave_per_call_and_scalar_agreement(self):
        cfg = QuadratureConfig()
        calls = []

        def f(x):
            calls.append(len(x))
            return np.stack([np.sin(x), np.cos(x) ** 2])

        res = adaptive_gauss_kronrod(f, 0.0, 30.0, cfg, components=2)
        # the eight starting panels in one call, then each wave's children (two per
        # bisected panel) in one call
        assert calls[0] == 120 and len(calls) > 1
        assert all(n % 30 == 0 for n in calls[1:]) and max(calls[1:]) > 30
        assert res.n_evals == sum(calls)
        for c, g in enumerate((np.sin, lambda x: np.cos(x) ** 2)):
            assert res.value[c] == pytest.approx(adaptive_gauss_kronrod(g, 0.0, 30.0, cfg).value, rel=1e-12)

    @pytest.mark.parametrize("components", [1, 40, 600])
    def test_no_call_holds_more_than_512_rows_of_15_values(self, components, monkeypatch):
        log = []  # integrand calls by node count, bisections as 0
        rate = np.linspace(40.0, 1.0, components)[:, None]

        def f(x):
            log.append(len(x))
            return np.cos(rate * x) * np.exp(-x)

        def heappop(heap, pop=heapq.heappop):
            log.append(0)
            return pop(heap)

        monkeypatch.setattr(quadrature.heapq, "heappop", heappop)
        # 100 starting panels, as many a call as 512 rows allow and one more in the first
        cfg = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-12)
        points = np.linspace(0.0, 30.0, 101)[1:-1]
        res = adaptive_gauss_kronrod(f, 0.0, 30.0, cfg, points, components=components)
        sizes = [n for n in log if n]
        assert res.n_evals == sum(sizes)
        cap = max(1, 512 // components)  # panels a call after the first may hold
        assert sizes[0] == 15 * min(cap + 1, 100)
        assert 15 * min(cap, 99 - cap) <= max(sizes[1:]) <= 15 * cap
        # a wave bisects no more panels than one call can hold the children of:
        # one at a time from 256 components up, as when each call was one panel
        widest = max(map(len, "".join("p" if n == 0 else "." for n in log).split(".")))
        assert widest <= max(1, cap // 2) and (widest > 1) == (components < 256)
        exact = (1.0 + np.exp(-30.0) * (rate * np.sin(30.0 * rate) - np.cos(30.0 * rate))) / (1.0 + rate**2)
        assert np.all(np.abs(res.value - exact[:, 0]) <= 1e-10 * np.abs(exact[:, 0]))

    def test_frozen_gaussian_takes_at_most_three_calls(self):
        calls = []
        f, a, b, cfg, value, *_ = FROZEN[0]

        def spy(x):
            calls.append(len(x))
            return f(x)

        assert adaptive_gauss_kronrod(spy, a, b, cfg).value == value
        assert len(calls) <= 3

    @given(
        st.floats(min_value=0.05, max_value=20.0),
        st.floats(min_value=0.0, max_value=30.0),
        st.sampled_from([1, 7, 600]),
    )
    def test_gaussian_cosine_transforms_meet_their_targets(self, a, b, components):
        # int_0^L e^{-a_c x^2} cos(b_c x) dx = sqrt(pi / a_c) e^{-b_c^2 / 4 a_c} / 2, with
        # L where the dropped tail is below 1e-16; one component is a (N,) integrand
        a_c = a * np.linspace(1.0, 2.0, components)[:, None]
        b_c = b * np.linspace(1.0, 0.5, components)[:, None]
        length = math.sqrt(40.0 / a)
        cfg = QuadratureConfig()

        def f(x):
            out = np.exp(-a_c * x * x) * np.cos(b_c * x)
            return out[0] if components == 1 else out

        res = adaptive_gauss_kronrod(f, 0.0, length, cfg)
        exact = (0.5 * np.sqrt(math.pi / a_c) * np.exp(-b_c * b_c / (4.0 * a_c)))[:, 0]
        assert np.shape(res.value) == (() if components == 1 else (components,))
        assert np.all(np.abs(res.value - exact) <= np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(exact)))

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
        with pytest.raises(ValueError, match=r"shape \(N,\) or \(C, N\) for its N nodes"):
            adaptive_gauss_kronrod(lambda x: np.ones(shape), 0.0, 1.0)

    def test_shape_must_not_change_between_panels(self):
        calls = []

        def f(x):  # the starting panels miss cos(40 x): a second wave, a second call
            calls.append(x)
            return np.tile(np.cos(40.0 * x), (2 if len(calls) == 1 else 3, 1))

        with pytest.raises(ValueError, match=r"the same C on every call; got \(3, \d+\)"):
            adaptive_gauss_kronrod(f, 0.0, 50.0, components=2)
        assert len(calls) == 2


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

    def test_base_rule_built_once_and_never_shared_out(self, monkeypatch):
        first = gauss_legendre_rule(0.0, 1.0, 2, order=37)
        monkeypatch.setattr(np.polynomial.legendre, "leggauss", None)  # a rebuild would fail
        first[0][:] = first[1][:] = -1.0  # the caller's arrays are its own
        again = gauss_legendre_rule(0.0, 1.0, 2, order=37)
        assert np.all(again[0] > 0.0) and np.all(again[1] > 0.0)
        assert float(np.sum(again[1])) == pytest.approx(1.0, rel=1e-14)

    @pytest.mark.parametrize(
        "n_panels, order", [(0, 15), (2.5, 15), (True, 15), (1, 1), (1, 15.0), (np.int64(2), True)]
    )
    def test_counts_must_be_integers(self, n_panels, order):
        with pytest.raises(ValueError, match="must be an integer >="):
            gauss_legendre_rule(0.0, 1.0, n_panels, order=order)


class TestConfig:
    def test_validation(self):
        with pytest.raises(ValueError):
            QuadratureConfig(abs_tol=-1.0)
        with pytest.raises(ValueError):
            QuadratureConfig(max_nodes=10)
        with pytest.raises(ValueError):
            QuadratureConfig(rel_tol=-1e-3)

    @pytest.mark.parametrize("max_nodes", [59, 1000.0, True])
    def test_max_nodes_must_be_an_integer(self, max_nodes):
        with pytest.raises(ValueError, match="max_nodes must be an integer >= 60"):
            QuadratureConfig(max_nodes=max_nodes)

    def test_max_nodes_takes_a_numpy_integer_as_an_int(self):
        cfg = QuadratureConfig(max_nodes=np.int64(1000))
        assert type(cfg.max_nodes) is int and cfg == QuadratureConfig(max_nodes=1000)

    def test_defaults(self):
        cfg = QuadratureConfig()
        assert cfg.abs_tol == 1e-11
        assert cfg.rel_tol == 1e-9
        assert cfg.max_nodes == 100_000
