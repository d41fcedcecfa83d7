import math

import numpy as np
import pytest

from adsheat.special import chebyshev_T, spectral_cosh_factor


class TestChebyshev:
    def test_low_degrees_explicit(self):
        for z in (-1.7, -0.3, 0.0, 0.9, 2.4):
            assert chebyshev_T(0, z) == 1.0
            assert chebyshev_T(1, z) == z
            assert chebyshev_T(2, z) == pytest.approx(2 * z * z - 1, rel=1e-15)
            assert chebyshev_T(3, z) == pytest.approx(4 * z**3 - 3 * z, rel=1e-14)
            assert chebyshev_T(4, z) == pytest.approx(
                8 * z**4 - 8 * z * z + 1, rel=1e-13
            )

    def test_cos_composition(self):
        for m in range(8):
            for phi in (0.1, 0.7, 2.0):
                assert chebyshev_T(m, math.cos(phi)) == pytest.approx(
                    math.cos(m * phi), abs=1e-12
                )

    def test_cosh_composition(self):
        # z < -1 by parity: T_m(-cosh u) = (-1)^m cosh(m u)
        for m in range(26):
            for u in (0.0, 0.5, 2.0, 5.0):
                for sign in (1.0, -1.0):
                    assert chebyshev_T(m, sign * math.cosh(u)) == pytest.approx(
                        sign**m * math.cosh(m * u), rel=1e-12
                    )

    def test_degree_sequence_is_each_scalar_call(self):
        z = np.linspace(-2.0, 2.0, 7).reshape(1, 7)
        degrees = [3, 0, 7, 1, 3]
        out = chebyshev_T(degrees, z)
        assert out.shape == (5, 1, 7)
        for m, row in zip(degrees, out):
            assert row.tolist() == chebyshev_T(m, z).tolist()
        assert chebyshev_T([], z).shape == (0, 1, 7)

    def test_bits_of_the_float_recurrence(self):
        # the recurrence on Python floats, in the same op order
        def reference(m, z):
            t_prev, t_cur = 1.0, z
            for _ in range(m - 1):
                t_prev, t_cur = t_cur, 2.0 * z * t_cur - t_prev
            return 1.0 if m == 0 else t_cur

        for z in (-1.7, -0.3, 0.1, 0.9999, 1.3, math.cosh(2.5)):
            for m in range(13):
                out = chebyshev_T(m, z)
                assert type(out) is float and out == reference(m, z)
        assert chebyshev_T(4, np.array(0.6)).shape == ()

    def test_array_input(self):
        z = np.linspace(-2.0, 2.0, 7)
        out = chebyshev_T(5, z)
        assert out.shape == z.shape
        for zi, oi in zip(z, out):
            assert oi == pytest.approx(chebyshev_T(5, float(zi)), rel=1e-14)

    def test_rejects_negative_degree(self):
        with pytest.raises(ValueError):
            chebyshev_T(-1, 0.5)


class TestSpectralCoshFactor:
    def test_weight_array_is_each_scalar_call(self):
        x, d = np.array([[0.7, 1.3, 4.0]]), np.array([[0.5]])
        weights = [1.5, -0.5, 0.0]
        out = spectral_cosh_factor(x, d, weights)
        assert out.shape == (3, 1, 3)
        for kappa, row in zip(weights, out):
            assert row.tolist() == spectral_cosh_factor(x, d, kappa).tolist()

    def test_weight_zero_form(self):
        x, d = 1.4, 0.6
        expected = 1.0 / math.sqrt(math.sinh(x - d) * math.sinh(x + d))
        assert spectral_cosh_factor(x, d, 0.0) == pytest.approx(expected, rel=1e-14)

    def test_weight_half_form(self):
        x, d = 2.0, 1.0
        expected = (math.cosh(x) / math.cosh(d)) / math.sqrt(
            math.sinh(x - d) * math.sinh(x + d)
        )
        assert spectral_cosh_factor(x, d, 0.5) == pytest.approx(expected, rel=1e-14)

    def test_endpoint_singularity_rate(self):
        # N(x) ~ ((x - d) sinh(2d))^(-1/2) as x decreases to d
        d = 0.8
        for eps in (1e-6, 1e-8):
            x = d + eps
            expected = 1.0 / math.sqrt(eps * math.sinh(2 * d))
            assert spectral_cosh_factor(x, d, 0.0) == pytest.approx(
                expected, rel=1e-5
            )

    def test_sign_flip_of_weight_is_noop(self):
        # only |kappa| enters (T_{2|kappa|})
        assert spectral_cosh_factor(1.5, 0.5, 1.0) == spectral_cosh_factor(
            1.5, 0.5, -1.0
        )

    def test_array_matches_scalar(self):
        d = 0.5
        xs = np.linspace(0.7, 3.0, 9)
        out = spectral_cosh_factor(xs, d, 1.0)
        for xi, oi in zip(xs, out):
            assert oi == pytest.approx(spectral_cosh_factor(float(xi), d, 1.0), rel=1e-14)

    def test_requires_x_beyond_d(self):
        with pytest.raises(ValueError):
            spectral_cosh_factor(0.5, 0.5, 0.0)

    def test_distance_column_matches_scalar_calls(self):
        # a column of distances against a row of nodes: the same bits as
        # one scalar call per (d, x)
        ds = np.array([1e-8, 0.3, 2.5])[:, None]
        xs = ds + np.array([1e-12, 0.01, 0.7, 4.0])
        out = spectral_cosh_factor(xs, ds, 1.5)
        assert out.shape == (3, 4)
        for i, d in enumerate(ds[:, 0]):
            for j, x in enumerate(xs[i]):
                assert out[i, j] == spectral_cosh_factor(float(x), float(d), 1.5)

    @pytest.mark.parametrize("d", [[0.2, -0.1], [0.2, math.inf], [0.2, math.nan]])
    def test_distance_column_is_validated(self, d):
        with pytest.raises(ValueError):
            spectral_cosh_factor(np.array([[1.0], [1.0]]), np.array(d)[:, None], 0.0)

    def test_distance_column_requires_x_beyond_each_d(self):
        with pytest.raises(ValueError):
            spectral_cosh_factor(np.array([0.5, 0.5]), np.array([0.1, 0.5]), 0.0)
