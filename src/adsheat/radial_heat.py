"""Radial heat kernel on odd-dimensional real hyperbolic space.

The heat kernel of the full Laplace-Beltrami operator Delta on H^{2n+1}
(curvature -1; the spectrum of Delta is (-inf, -n^2]), as a function of
geodesic distance x, is obtained by applying the first-order operator

    M f(x) = -(1 / sinh x) * f'(x)

n times to the flat Gaussian ``exp(-x^2 / 4t)`` and multiplying by
``exp(-n^2 t) / ((2 pi)^n * sqrt(4 pi t))``.  For n = 1 (three-space) this
collapses to the classical closed form

    q_t(x) = exp(-t) * x * exp(-x^2/(4t)) / ((4 pi t)^(3/2) * sinh x).

Iterating M by symbolic differentiation is done once per n, exactly, on a
small closed family of terms

    coeff * t^(-tpow) * x^xpow * cosh(x)^coshpow * sinh(x)^(-sinhinvpow)
          * exp(-x^2 / 4t)

with rational coefficients.  One application of M maps such a term to at
most four others:

    (c, a, p, b, e)  ->  (-c*p, a,   p-1, b,   e+1)   [from (x^p)']
                         (-c*b, a,   p,   b-1, e  )   [from (cosh^b)']
                         (+c*e, a,   p,   b+1, e+2)   [from (sinh^-e)']
                         (+c/2, a+1, p+1, b,   e+1)   [from the Gaussian]

so the order-n sum stays small (at most (n+1)(n+2)/2 terms after merging)
and its coefficients stay exact.  Two structural facts follow by induction
and are enforced in tests: every order-n term has ``sinhinvpow - coshpow
== n``, and ``xpow + sinhinvpow`` is even (the sum is an even function
of x).

Numerical evaluation rewrites each term as
``coeff * t^-a * x^p * coth(x)^b * sinh(x)^-(e-b)`` with ``coth = 1/tanh``
so nothing overflows at large x.  Near x = 0 the terms diverge like
x^(1 - 2n) while their sum P_n = M^n G / G (G the Gaussian) stays finite,
so below a switch point P_n comes from an even series instead.  With
xi = x^2 and S = sinh x / x = sum xi^k / (2k+1)!, M (G P) = G (P/2t -
2 dP/dxi) / S, so Q_n = S^(2n) P_n obeys

    Q_0 = 1,    Q_(n+1) = S Q_n / 2t - 2 S dQ_n/dxi + 4n Q_n dS/dxi.

Q_n is entire, with coefficients >= 0 at every power of 1/t, so summing
its terms adds no cancellation; P_n = Q_n / S^(2n).  Masks split the
points only when some x is below the switch point, has a sinh that
overflows or, unscaled, a Gaussian that underflows; otherwise the whole
array is summed directly.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .geometry import require_int

# exp(-x^2/4t) underflows anyway once the exponent passes ~745; cut early
GAUSS_EXP_CUTOFF = 700.0

_LN2 = math.log(2.0)

# sinh x overflows past this x; every term carries a net negative sinh power
_SINH_FINITE_MAX = math.asinh(sys.float_info.max)

# terms built of the even series in xi = x^2 (n = 12 keeps 52 of them)
SERIES_TERMS = 64

# above every order's floor on t (the largest, scaled at n = 12, is 1.1e-23), so a
# larger t skips computing the floor, which builds the order's even series
_T_FLOOR_BOUND = 1e-20


def small_x_threshold(n: int) -> float:
    """Below this x the order-n kernel is summed from its even series in x^2.

    Direct summation loses about eps * x^(1 - 2n) to cancellation near 0
    (at n = 12 still ~2e-12 at x = 2); the series cancels nowhere.  The
    switch is (n - 1) / 3; at n = 1 the sum is the single term
    x / (2t sinh x) and switches at 1e-3.
    """
    return max((n - 1) / 3.0, 1e-3)


@dataclass(frozen=True, order=True)
class GaussianTerm:
    """One monomial ``coeff * t^-tpow * x^xpow * cosh^coshpow * sinh^-sinhinvpow``
    multiplying the Gaussian ``exp(-x^2/4t)``."""

    tpow: int
    xpow: int
    coshpow: int
    sinhinvpow: int
    coeff: Fraction

    def __post_init__(self) -> None:
        for name in ("tpow", "xpow", "coshpow", "sinhinvpow"):
            object.__setattr__(self, name, require_int(getattr(self, name), name, 0))
        if not isinstance(self.coeff, Fraction):
            object.__setattr__(self, "coeff", Fraction(self.coeff))


@dataclass(frozen=True)
class GaussianTermSum:
    """A finite sum of :class:`GaussianTerm`, tagged with the number of
    applications of the sinh-derivative operator that produced it."""

    terms: tuple[GaussianTerm, ...]
    order: int

    @classmethod
    def gaussian_seed(cls) -> "GaussianTermSum":
        """The bare Gaussian: one term with all powers 0 and coefficient 1."""
        return cls((GaussianTerm(0, 0, 0, 0, Fraction(1)),), 0)


def millson_apply(s: GaussianTermSum) -> GaussianTermSum:
    """Apply ``f -> -(1/sinh x) f'(x)`` once, exactly, merging like terms."""
    acc: dict[tuple[int, int, int, int], Fraction] = {}

    def add(a: int, p: int, b: int, e: int, c: Fraction) -> None:
        key = (a, p, b, e)
        acc[key] = acc.get(key, Fraction(0)) + c

    for term in s.terms:
        c, a, p, b, e = term.coeff, term.tpow, term.xpow, term.coshpow, term.sinhinvpow
        if p > 0:
            add(a, p - 1, b, e + 1, -c * p)
        if b > 0:
            add(a, p, b - 1, e, -c * b)
        if e > 0:
            add(a, p, b + 1, e + 2, c * e)
        add(a + 1, p + 1, b, e + 1, c / 2)

    terms = tuple(
        GaussianTerm(a, p, b, e, c)
        for (a, p, b, e), c in sorted(acc.items())
        if c != 0
    )
    return GaussianTermSum(terms, s.order + 1)


@lru_cache(maxsize=None)
def millson_term_sum(n: int) -> GaussianTermSum:
    """Exact term sum for n applications of the sinh-derivative operator
    to the Gaussian."""
    n = require_int(n, "order", 0)
    if n == 0:
        return GaussianTermSum.gaussian_seed()
    return millson_apply(millson_term_sum(n - 1))


@lru_cache(maxsize=None)
def _term_arrays(n: int) -> tuple[np.ndarray, np.ndarray, tuple]:
    """Float arrays (coeff, -tpow) and the (base, exponents) factors for order n.

    The factors are x^xpow, coth^coshpow and sinh^-(sinhinvpow - coshpow),
    the sinh power left after pairing each cosh with a sinh to form coth.
    Exact shortcuts: a factor whose exponent is 0 on every term is dropped
    (y**0 == 1); exponents that are all 1 become None, for no pow (y**1 == y).
    """
    ts = millson_term_sum(n).terms
    coeff = np.array([float(t.coeff) for t in ts])
    neg_tpow = -np.array([t.tpow for t in ts], dtype=float)
    xpow = np.array([t.xpow for t in ts], dtype=float)
    cothpow = np.array([t.coshpow for t in ts], dtype=float)
    net = np.array([t.sinhinvpow - t.coshpow for t in ts], dtype=float)
    if np.any(net < 0):
        raise AssertionError("term algebra produced sinhinvpow < coshpow")
    bases = (lambda y: y, lambda y: 1.0 / np.tanh(y), np.sinh)
    powers = (xpow, cothpow, -net)
    factors = tuple((b, None if np.all(p == 1.0) else p) for b, p in zip(bases, powers) if p.any())
    return coeff, neg_tpow, factors


def _heat_norm(t: float, n: int) -> float:
    """``(2 pi)^n * sqrt(4 pi t)``, the divisor of :func:`heat_prefactor`."""
    return (2.0 * math.pi) ** n * math.sqrt(4.0 * math.pi * t)


def heat_prefactor(t: float, n: int) -> float:
    """``exp(-n^2 t) / ((2 pi)^n * sqrt(4 pi t))``."""
    return math.exp(-n * n * t) / _heat_norm(t, n)


def _term_sum_values(n: int, t: float, x: np.ndarray) -> np.ndarray:
    """Evaluate the order-n term sum (without Gaussian or prefactor) at x > 0."""
    coeff, neg_tpow, factors = _term_arrays(n)
    xc = x[:, None]
    parts = coeff * t**neg_tpow
    with np.errstate(over="ignore"):
        for base, power in factors:
            b = base(xc)
            parts = parts * (b if power is None else b**power)
    return parts.sum(axis=1)


@lru_cache(maxsize=None)
def _series_coeffs(n: int) -> np.ndarray:
    """Coefficients g[a, j] of Q_n = S^(2n) P_n = sum_a t^-a sum_j g[a, j] xi^j.

    Built in floats, one order at a time over SERIES_TERMS terms (the
    derivative drops one top coefficient per order, far below the kept
    ones), then cut after the last term above 2^-60 of its row's sum at the
    switch point: all terms are >= 0, so the cut holds at every t and x below.
    """
    k = np.arange(1, SERIES_TERMS)
    s = np.array([1.0 / math.factorial(2 * i + 1) for i in range(SERIES_TERMS)])
    ds = np.append(k * s[1:], 0.0)
    q = np.eye(1, SERIES_TERMS)
    for m in range(n):
        dq = np.zeros_like(q)
        dq[:, :-1] = k * q[:, 1:]
        nxt = np.zeros((m + 2, SERIES_TERMS))
        for a, (row, drow) in enumerate(zip(q, dq)):
            nxt[a + 1] += np.convolve(s, row)[:SERIES_TERMS] / 2.0
            nxt[a] += np.convolve(4 * m * ds, row)[:SERIES_TERMS]
            nxt[a] -= 2.0 * np.convolve(s, drow)[:SERIES_TERMS]
        q = nxt
    terms = q * small_x_threshold(n) ** (2.0 * np.arange(SERIES_TERMS))
    tails = np.cumsum(terms[:, ::-1], axis=1)[:, ::-1]  # tails[a, j]: sum of terms[a, j:]
    return q[:, : np.count_nonzero(np.any(tails > 2.0**-60 * tails[:, :1], axis=0))]


def _series_values(n: int, t: float, x: np.ndarray) -> np.ndarray:
    """The order-n sum (without Gaussian or prefactor) as Q_n / S^(2n).

    Each point's terms g_j xi^j are summed along its own row, as in
    :func:`_term_sum_values`, so every point gets its scalar bits."""
    g = ((t ** -np.arange(n + 1.0))[:, None] * _series_coeffs(n)).sum(axis=0)
    q = (g * (x * x)[:, None] ** np.arange(g.size)).sum(axis=1)
    s = np.divide(np.sinh(x), x, out=np.ones_like(x), where=x > 0.0)
    return q / s ** (2 * n)


def _validate_t(t: float) -> float:
    """Return ``t`` as a float, or raise ``ValueError`` unless finite and > 0."""
    t = float(t)
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"time must be finite and > 0, got {t!r}")
    return t


def _validate_n(n: int) -> int:
    """Return ``n`` as an int, or raise ``ValueError`` unless an integer in
    [1, 12], the orders the accuracy tests cover."""
    n = require_int(n, "dimension parameter n", 1)
    if n > 12:
        raise ValueError(f"dimension parameter n must be <= 12, got {n}")
    return n


@lru_cache(maxsize=None)
def _t_floor(n: int, scaled: bool) -> float:
    """Smallest t at which every quantity the order-n evaluation forms fits a double.

    Each is bounded by some c t^-a (c, a > 0): t^-n itself; the peak q_t(0)
    <= (n+1) max_a g[a, 0] t^-a / ((2 pi)^n sqrt(4 pi t)); the t-powers of
    the even series summed to the switch point x_s; and, scaled only, every
    term of the direct sum, its factors taken at their largest on [x_s,
    710.5], times the number of terms.  The plain kernel forms no direct
    sum below t = 1e-20: its live points have x^2 <= 4t * 700 < x_s^2.
    Each c t^-a stays below the largest double for t >= (c / max)^(1/a).
    """
    switch = small_x_threshold(n)
    g = _series_coeffs(n)
    powers = np.arange(n + 1.0)
    series = (n + 1) * (g * switch ** (2.0 * np.arange(g.shape[1]))).sum(axis=1)
    peak = (n + 1) * g[:, 0] / ((2.0 * math.pi) ** n * math.sqrt(4.0 * math.pi))
    bounds = [(1.0, n), *zip(series, powers), *zip(peak, powers + 0.5)]
    if scaled:
        coth, csch = 1.0 / math.tanh(switch), max(1.0, 1.0 / math.sinh(switch))
        ts = millson_term_sum(n).terms
        bounds += [
            (len(ts) * abs(float(term.coeff)) * _SINH_FINITE_MAX**term.xpow * coth**term.coshpow
             * csch ** (term.sinhinvpow - term.coshpow), term.tpow)
            for term in ts
        ]
    log_max = math.log(sys.float_info.max)
    return max(math.exp((math.log(c) - log_max) / a) for c, a in bounds if c > 0.0 and a > 0)


def _eval_kernel(t: float, n: int, x, scaled: bool):
    t, n = _validate_t(t), _validate_n(n)
    if t < _T_FLOOR_BOUND and t < (floor := _t_floor(n, scaled)):
        raise ValueError(
            f"time t={t!r} is below {floor:.3g}, where the order-{n} kernel or its "
            "terms leave double-precision range"
        )
    x_arr = np.asarray(x, dtype=float)
    flat = x_arr.reshape(-1)
    # NaN propagates through min and max, so it fails this test as well
    lo, hi = (float(flat.min()), float(flat.max())) if flat.size else (math.inf, 0.0)
    if not (lo >= 0.0 and hi < math.inf):
        raise ValueError("distance x must be finite and >= 0")

    switch = small_x_threshold(n)

    # dead points are exact zeros, skipped instead of computing inf * 0: the
    # Gaussian underflows well before the exponent hits the cutoff, and past
    # the sinh overflow every term is 0 (or inf * 0 where x^p overflows too)
    def live(y):
        ok = y <= _SINH_FINITE_MAX
        if scaled:
            return ok
        with np.errstate(over="ignore"):  # an exponent past double range is dead too
            return ok & (y * y / (4.0 * t) <= GAUSS_EXP_CUTOFF)

    # the same test on the largest point, in floats: an overflow there is inf, dead
    all_live = hi <= _SINH_FINITE_MAX and (scaled or hi * hi / (4.0 * t) <= GAUSS_EXP_CUTOFF)
    if lo >= switch and all_live:
        vals = _term_sum_values(n, t, flat)
    else:
        vals = np.zeros_like(flat)
        small = flat < switch
        regular = ~small if all_live else ~small & live(flat)
        if hi >= switch:
            vals[regular] = _term_sum_values(n, t, flat[regular])
        if lo < switch:
            vals[small] = _series_values(n, t, flat[small])
    prefactor = heat_prefactor(t, n)
    if prefactor >= sys.float_info.min:
        if not scaled:
            with np.errstate(over="ignore"):  # dead points: 0 * exp(-inf)
                vals = vals * np.exp(-(flat * flat) / (4.0 * t))
        out = prefactor * vals
    else:
        # a subnormal prefactor keeps few bits (27% off at n^2 t = 720, n = 12):
        # fold -n^2 t and the sum's binary exponent into the Gaussian's
        # exponent, so that only the last product can land below the normal
        # range and the result rounds there once
        mantissa, exponent = np.frexp(vals)
        log_rest = exponent * _LN2 - n * n * t
        if not scaled:
            with np.errstate(over="ignore"):  # dead points have mantissa 0
                log_rest = log_rest - (flat * flat) / (4.0 * t)
        out = mantissa / _heat_norm(t, n) * np.exp(log_rest)

    if x_arr.ndim == 0:
        return float(out[0])
    return out.reshape(x_arr.shape)


def hyperbolic_heat_kernel(t: float, n: int, x):
    """Heat kernel q_t at geodesic distance x on H^(2n+1).

    Radial profile of ``exp(t Delta)``, Delta the full Laplace-Beltrami
    operator (spectral bottom -n^2, hence the factor ``e^{-n^2 t}``), normalized
    so that ``integral q_t dvol = 1``: q solves ``dq/dt = q'' + 2n coth(x) q'`` for x > 0.
    ``x`` may be a scalar or array, entries >= 0; n runs from 1 to 12.  t
    has a floor that grows with n: 4e-207 at n = 1, 6.2e-125 at n = 2,
    1e-89 at n = 3, 4e-49 at n = 6 and 6.8e-26 at n = 12.  Below it t^-n,
    the kernel or one of its terms leaves double range, and ``ValueError``
    is raised (one test on (t, n), not on the points).

    A point with x^2 / 4t > 700 returns exactly 0, by design: its Gaussian
    factor is below e^-700 ~ 1e-304, and the true value is that factor
    times the rest of the kernel (1.2e-305 at t = 0.01, n = 1, x = 5.3;
    5.7e-317 at t = 0.05, n = 1, x = 12).  Where the prefactor
    ``e^{-n^2 t} / ((2 pi)^n sqrt(4 pi t))`` is itself below the normal
    range (n^2 t above ~684 at n = 12, ~702 at n = 1), its exponent joins
    the Gaussian's, so that a subnormal result (this kernel's or the scaled
    one's) rounds once, to within one subnormal spacing of the exact value.

    Worst relative error against a 60-digit reference over t in [0.05, 5]
    and x in [0, 4]: 1e-14 for n <= 2, 5e-14 for n <= 6, 2.5e-13 for
    n <= 10 and 6.5e-13 for n = 11, 12.  The Gaussian's own rounding,
    ~eps x^2 / 4t, sets the n = 1, 2 figure and grows past x = 4.
    """
    return _eval_kernel(t, n, x, scaled=False)


def hyperbolic_heat_kernel_scaled(t: float, n: int, x):
    """``q_t(x) * exp(+x^2 / 4t)``: the kernel with its Gaussian factored off.

    The growing factor is never formed; the polynomial-in-(x, coth, 1/sinh)
    part is evaluated directly, so this stays finite (and eventually decays
    like exp(-n x) times powers) for arbitrarily large x.  Integrands that
    multiply q_t by growing exponentials should combine exponents
    analytically and call this.  The floor on t is the plain kernel's up
    to n = 6 and higher from n = 7 on, where the direct sum's terms at large
    x set it: 5.5e-42 at n = 7 and 1.1e-23 at n = 12.
    """
    return _eval_kernel(t, n, x, scaled=True)
