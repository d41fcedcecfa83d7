"""Reference values computed apart from adsheat, with mpmath.

Nothing here imports adsheat.  Each function rebuilds a quantity from its
defining formula in multiprecision arithmetic:

* ``hyperbolic_q``: q_t(x) on H^(2n+1) for every n up to ``n_max`` at once,
  as ``e^{-n^2 t} / ((2 pi)^n sqrt(4 pi t)) * M^n exp(-x^2/4t)`` with
  ``M f = -(1/sinh x) f'(x)`` (equivalently ``(-d/dc)^n`` in c = cosh x),
  applied to truncated Taylor series in multiprecision arithmetic.
* ``maass_direct``: the spin-weighted ball kernel on the axis from its
  direct integral formula ``2 int_d^inf sinh x T_m(cosh x / cosh d) /
  sqrt(cosh^2 x - cosh^2 d) q_t(x) dx`` (m = 2 kappa), by mpmath quadrature.
* ``ads_theorem``: the fibered kernel at base point 0 from its
  shifted-Gaussian integral, i.e. the mode series divided by 2 pi.
"""

from __future__ import annotations

import math

import mpmath as mp

# working precision of the q_t oracle; raised further where the series
# step divides by a small sinh
Q_DIGITS = 60
# below this x the Taylor expansion around 0 (in xi = x^2) is used
_EVEN_SERIES_MAX_X = 0.5
# terms kept in the expansion around 0; the truncation error is of order
# (x^2 / pi^2)^(terms - n), far below double precision for x <= 0.5
_EVEN_SERIES_TERMS = 32


def _series_mul(a, b, size):
    out = [mp.mpf(0)] * size
    for i, ai in enumerate(a[:size]):
        if ai == 0:
            continue
        for j in range(min(len(b), size - i)):
            out[i + j] += ai * b[j]
    return out


def _series_inv(a, size):
    inv = [mp.mpf(0)] * size
    inv[0] = 1 / a[0]
    for k in range(1, size):
        acc = mp.mpf(0)
        for j in range(1, min(k, len(a) - 1) + 1):
            acc += a[j] * inv[k - j]
        inv[k] = -acc * inv[0]
    return inv


def _series_exp_poly(p, size):
    """Taylor series in h of exp(p(h)) for a polynomial p (coefficient list)."""
    e = [mp.mpf(0)] * size
    e[0] = mp.exp(p[0])
    for k in range(1, size):
        acc = mp.mpf(0)
        for j in range(1, min(k, len(p) - 1) + 1):
            acc += j * p[j] * e[k - j]
        e[k] = acc / k
    return e


def _millson_at(x0, t, n_max):
    """[M^n G](x0) for n = 0..n_max, G = exp(-x^2/4t), via a shifted expansion."""
    size = n_max + 1
    # G(x0 + h) = exp(-(x0^2 + 2 x0 h + h^2) / 4t)
    g = _series_exp_poly([-(x0 * x0) / (4 * t), -x0 / (2 * t), -1 / (4 * t)], size)
    sh, ch = mp.sinh(x0), mp.cosh(x0)
    sinh_series = [
        (sh if k % 2 == 0 else ch) / mp.factorial(k) for k in range(size)
    ]
    csch = _series_inv(sinh_series, size)
    out = [g[0]]
    for _ in range(n_max):
        deriv = [k * g[k] for k in range(1, len(g))]
        g = [-c for c in _series_mul(csch, deriv, len(deriv))]
        out.append(g[0])
    return out


def _millson_even(x0, t, n_max):
    """[M^n G](x0) for n = 0..n_max from the expansion in xi = x^2 around 0.

    For an even f = sum f_k xi^k, M f = -(sum 2 (k+1) f_{k+1} xi^k) / S(xi)
    with S(xi) = sinh(x) / x = sum xi^k / (2k+1)!, so no cancellation occurs
    near x = 0.
    """
    size = _EVEN_SERIES_TERMS
    g = [(-1 / (4 * t)) ** k / mp.factorial(k) for k in range(size)]
    inv_s = _series_inv([1 / mp.factorial(2 * k + 1) for k in range(size)], size)
    xi = x0 * x0
    out = [mp.polyval(g[::-1], xi)]
    for _ in range(n_max):
        deriv = [2 * (k + 1) * g[k + 1] for k in range(len(g) - 1)]
        g = [-c for c in _series_mul(deriv, inv_s, len(deriv))]
        out.append(mp.polyval(g[::-1], xi))
    return out


def hyperbolic_q(t: float, x: float, n_max: int) -> list[float]:
    """q_t(x) on H^(2n+1) for n = 1..n_max (index n - 1), rounded to double."""
    if n_max < 1:
        raise ValueError("n_max must be >= 1")
    extra = 0
    if _EVEN_SERIES_MAX_X <= x < 1.0:
        # the shifted expansion divides by sinh(x) once per order
        extra = int((2 * n_max + 2) * math.log10(1.0 / x)) + 1
    with mp.workdps(Q_DIGITS + extra):
        t_mp, x_mp = mp.mpf(t), mp.mpf(x)
        if x < _EVEN_SERIES_MAX_X:
            vals = _millson_even(x_mp, t_mp, n_max)
        else:
            vals = _millson_at(x_mp, t_mp, n_max)
        out = []
        for n in range(1, n_max + 1):
            pref = mp.exp(-n * n * t_mp) / ((2 * mp.pi) ** n * mp.sqrt(4 * mp.pi * t_mp))
            out.append(float(pref * vals[n]))
    return out


def _q_closed(t, n, x):
    """q_t(x) for n = 1, 2 in closed form (mpmath numbers)."""
    g = mp.exp(-x * x / (4 * t))
    sh = mp.sinh(x)
    if n == 1:
        return mp.exp(-t) * x * g / ((4 * mp.pi * t) ** 1.5 * sh)
    if n == 2:
        # M^2 G = G / (2t sinh^2 x) * (x coth x - 1 + x^2 / 2t)
        m2 = g / (2 * t * sh * sh) * (x * mp.cosh(x) / sh - 1 + x * x / (2 * t))
        return mp.exp(-4 * t) / ((2 * mp.pi) ** 2 * mp.sqrt(4 * mp.pi * t)) * m2
    raise ValueError("closed form only for n = 1, 2")


def maass_direct(t: float, n: int, kappa: float, d: float, digits: int = 25) -> float:
    """Spin-weighted ball kernel at points on one axis (the phase is 1).

    ``2 int_0^inf 2 r sinh(x) T_m(cosh x / cosh d) / sqrt(cosh^2 x -
    cosh^2 d) q_t(x) dr`` with ``x = d + r^2`` and ``T_m(z) = cosh(m
    arccosh z)``, by Gauss-Legendre quadrature on a split interval.
    """
    m = int(round(2 * abs(kappa)))
    with mp.workdps(digits):
        t_mp, d_mp = mp.mpf(t), mp.mpf(d)
        cosh_d = mp.cosh(d_mp)

        def integrand(r):
            x = d_mp + r * r
            cheb = mp.cosh(m * mp.acosh(max(mp.cosh(x) / cosh_d, 1)))
            root = mp.sqrt(mp.sinh(r * r) * mp.sinh(x + d_mp))
            return 4 * r * mp.sinh(x) * cheb / root * _q_closed(t_mp, n, x)

        # the integrand peaks near x = 2 t m and falls off like
        # exp(-(x - 2tm)^2 / 4t): cover ten Gaussian widths on either side
        peak, width = 2 * t * m, math.sqrt(2 * t)
        lo, hi = max(d, peak - 10 * width), peak + 10 * width + 2
        xs = sorted({d, *(lo + (hi - lo) * k / 6 for k in range(7))})
        rs = [math.sqrt(x - d) for x in xs]
        # near the diagonal the factor r / sqrt(sinh(r^2) sinh(x + d)) turns
        # over at r ~ sqrt(2d); refine geometrically down to that scale
        r_edge = rs[1]
        while 0.0 < d < 0.1 and r_edge > 0.1 * math.sqrt(d):
            r_edge *= 0.5
            rs.insert(1, r_edge)
        return float(mp.quad(integrand, rs, method="gauss-legendre"))


def ads_theorem(t: float, d: float, theta: float, digits: int = 15) -> float:
    """Fibered kernel (n = 1) at base point 0, in the theorem normalization.

    ``(4 pi t)^(-1/2) sum_k int_R exp((u - i theta_k)^2 / 4t) q_t(x(u)) du``
    with ``theta_k = theta + 2 pi k`` and ``x(u) = arccosh(cosh u cosh d)``;
    by symmetry in u each copy is ``2 e^{-theta_k^2/4t} int_0^inf
    e^{(u^2 - x^2)/4t} cos(u theta_k / 2t) q_t(x) e^{x^2/4t} du``.
    Copies are summed while ``e^{-theta_k^2/4t}`` exceeds 1e-30.
    """
    with mp.workdps(digits):
        t_mp, d_mp = mp.mpf(t), mp.mpf(d)
        cosh_d = mp.cosh(d_mp)
        scale = mp.exp(-t_mp) / (4 * mp.pi * t_mp) ** 1.5

        def copy(theta_k):
            freq = theta_k / (2 * t_mp)

            def integrand(u):
                x = mp.acosh(mp.cosh(u) * cosh_d)
                ratio = x / mp.sinh(x) if x != 0 else mp.mpf(1)
                return scale * ratio * mp.exp((u * u - x * x) / (4 * t_mp)) * mp.cos(freq * u)

            # |integrand| <= scale * 2u * exp(-u (1 + log(cosh d) / 2t)): stop near 1e-16
            rate = 1.0 + math.log(math.cosh(d)) / (2.0 * t)
            u_max = 42.0 / rate
            step = min(1.0, math.pi / max(float(abs(freq)), 1e-9))
            pieces = max(2, int(math.ceil(u_max / step)))
            return 2 * mp.exp(-theta_k**2 / (4 * t_mp)) * mp.quad(
                integrand, mp.linspace(0, u_max, pieces + 1), method="gauss-legendre"
            )

        total = mp.mpf(0)
        k_max = int(math.sqrt(4.0 * t * 69.1) / (2.0 * math.pi)) + 2
        for k in range(-k_max, k_max + 1):
            theta_k = mp.mpf(theta) + 2 * mp.pi * k
            if theta_k**2 / (4 * t_mp) > 69.1:
                continue
            total += copy(theta_k)
        return float(total / mp.sqrt(4 * mp.pi * t_mp))
