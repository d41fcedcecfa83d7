"""Radial heat kernel on odd-dimensional real hyperbolic space.

The heat kernel of (one half of) the Laplace-Beltrami operator on
H^{2n+1}, as a function of geodesic distance x, is obtained by applying
the first-order operator

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
so nothing overflows at large x.  Near x = 0 individual terms diverge like
x^(1 - 2n) while the (even, finite) sum cancels them, so direct summation
drowns in rounding noise; below a per-order threshold the sum is instead
interpolated in the even variable xi = x^2 through seven sample nodes
placed just outside the noisy zone.  The node scale grows with n because
the cancellation gets one power of x worse per order, while the degree-6
interpolation error over the widened window stays negligible (the nearest
singularity of the interpolated function sits at xi = -pi^2).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

# exp(-x^2/4t) underflows anyway once the exponent passes ~745; cut early
GAUSS_EXP_CUTOFF = 700.0


def small_x_threshold(n: int) -> float:
    """Below this x the order-n term sum is evaluated by interpolation.

    At the first sample node (placed exactly at the threshold) the
    cancellation noise of direct summation, which scales like
    eps * x^(1 - 2n), must stay small next to the sum.  Accuracy still
    falls with n: against a 60-digit mpmath oracle over t in [0.3, 3] and
    x in [0, 3 * threshold], the worst relative errors found were 1.4e-15
    (n = 1), 3.0e-11 (n = 2), 5.4e-10 (n = 3), 1.9e-8 (n = 4) and 5.9e-7
    (n = 5).
    """
    if n <= 1:
        return 1e-3
    if n == 2:
        return 5e-3
    return 0.05 * (n - 2)


def _small_x_nodes(n: int) -> np.ndarray:
    return small_x_threshold(n) * np.arange(1.0, 8.0)


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
            v = getattr(self, name)
            if not isinstance(v, int) or v < 0:
                raise ValueError(f"{name} must be a nonnegative int, got {v!r}")
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
    if not isinstance(n, int) or n < 0:
        raise ValueError(f"order must be a nonnegative int, got {n!r}")
    if n == 0:
        return GaussianTermSum.gaussian_seed()
    return millson_apply(millson_term_sum(n - 1))


@lru_cache(maxsize=None)
def _term_arrays(n: int) -> tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Float arrays (coeff, tpow, xpow, cothpow, sinh_net_pow) for order n.

    cothpow is the cosh power; sinh_net_pow = sinhinvpow - coshpow >= 0 is
    what remains of the sinh power after pairing each cosh with a sinh to
    form coth.
    """
    ts = millson_term_sum(n).terms
    coeff = np.array([float(t.coeff) for t in ts])
    tpow = np.array([t.tpow for t in ts], dtype=float)
    xpow = np.array([t.xpow for t in ts], dtype=float)
    cothpow = np.array([t.coshpow for t in ts], dtype=float)
    net = np.array([t.sinhinvpow - t.coshpow for t in ts], dtype=float)
    if np.any(net < 0):
        raise AssertionError("term algebra produced sinhinvpow < coshpow")
    return coeff, tpow, xpow, cothpow, net


def heat_prefactor(t: float, n: int) -> float:
    """``exp(-n^2 t) / ((2 pi)^n * sqrt(4 pi t))``."""
    return math.exp(-n * n * t) / ((2.0 * math.pi) ** n * math.sqrt(4.0 * math.pi * t))


def _term_sum_values(n: int, t: float, x: np.ndarray) -> np.ndarray:
    """Evaluate the order-n term sum (without Gaussian or prefactor) at x > 0."""
    coeff, tpow, xpow, cothpow, net = _term_arrays(n)
    xc = x[:, None]
    with np.errstate(over="ignore"):
        coth = 1.0 / np.tanh(xc)
        sinh = np.sinh(xc)
        parts = (
            coeff
            * t ** (-tpow)
            * xc**xpow
            * coth**cothpow
            * sinh ** (-net)
        )
    return parts.sum(axis=1)


def _interp_small_x(n: int, t: float, x: np.ndarray, scaled: bool) -> np.ndarray:
    """Degree-6 interpolation in xi = x^2 through the seven sample nodes.

    Individual terms blow up like x^(1-2n) at 0 while the (even) sum stays
    finite, so direct summation loses all precision there; the sample nodes
    are far enough out to be clean and close enough in that the polynomial
    error in xi is negligible over [0, threshold].
    """
    nodes = _small_x_nodes(n)
    vals = _term_sum_values(n, t, nodes)
    if not scaled:
        vals = vals * np.exp(-(nodes * nodes) / (4.0 * t))
    xi_nodes = nodes * nodes
    xi = x * x
    out = np.zeros_like(x)
    for j in range(len(nodes)):
        lj = np.ones_like(x)
        for i in range(len(nodes)):
            if i != j:
                lj *= (xi - xi_nodes[i]) / (xi_nodes[j] - xi_nodes[i])
        out += vals[j] * lj
    return out


def _validate_t(t: float) -> float:
    """Return ``t`` as a float, or raise ``ValueError`` unless finite and > 0."""
    t = float(t)
    if not (math.isfinite(t) and t > 0.0):
        raise ValueError(f"time must be finite and > 0, got {t!r}")
    return t


def _validate_n(n: int) -> int:
    """Return ``n`` as an int, or raise ``ValueError`` unless an integer >= 1."""
    if not isinstance(n, (int, np.integer)) or isinstance(n, bool) or n < 1:
        raise ValueError(f"dimension parameter n must be an integer >= 1, got {n!r}")
    return int(n)


def _eval_kernel(t: float, n: int, x, scaled: bool):
    t, n = _validate_t(t), _validate_n(n)
    x_arr = np.asarray(x, dtype=float)
    scalar_in = x_arr.ndim == 0
    flat = np.atleast_1d(x_arr).ravel()
    if flat.size and (np.any(~np.isfinite(flat)) or np.any(flat < 0.0)):
        raise ValueError("distance x must be finite and >= 0")

    pref = heat_prefactor(t, n)
    out = np.zeros_like(flat)
    small = flat < small_x_threshold(n)
    if scaled:
        regular = ~small
    else:
        # the Gaussian underflows to an exact 0 well before the exponent
        # hits the cutoff, so skip those points instead of computing inf * 0
        dead = (flat * flat) / (4.0 * t) > GAUSS_EXP_CUTOFF
        regular = ~small & ~dead
    if np.any(regular):
        xr = flat[regular]
        vals = _term_sum_values(n, t, xr)
        if not scaled:
            vals = vals * np.exp(-(xr * xr) / (4.0 * t))
        out[regular] = pref * vals
    if np.any(small):
        out[small] = pref * _interp_small_x(n, t, flat[small], scaled)

    if scalar_in:
        return float(out[0])
    return out.reshape(x_arr.shape)


def hyperbolic_heat_kernel(t: float, n: int, x):
    """Heat kernel q_t at geodesic distance x on H^(2n+1).

    Radial profile of ``exp(t * Delta / ... )`` normalized so that
    ``integral q_t dvol = 1``; the generator is half the Laplace-Beltrami
    operator, i.e. q solves ``dq/dt = q'' + 2n coth(x) q'`` away from 0.
    ``x`` may be a scalar or array, entries >= 0.
    """
    return _eval_kernel(t, n, x, scaled=False)


def hyperbolic_heat_kernel_scaled(t: float, n: int, x):
    """``q_t(x) * exp(+x^2 / 4t)``: the kernel with its Gaussian factored off.

    The growing factor is never formed; the polynomial-in-(x, coth, 1/sinh)
    part is evaluated directly, so this stays finite (and eventually decays
    like exp(-n x) times powers) for arbitrarily large x.  Integrands that
    multiply q_t by growing exponentials should combine exponents
    analytically and call this.
    """
    return _eval_kernel(t, n, x, scaled=True)
