"""Chebyshev polynomials and the terminating Gauss sum behind them.

The fiber modes of the twisted kernels enter through the degree-m Chebyshev
polynomial of the first kind evaluated at a ratio of hyperbolic cosines.
Two independent evaluation routes are provided so they can be played against
each other in tests:

* ``chebyshev_T``: the three-term recurrence, numerically stable on the
  whole real line;
* ``gauss_2f1_terminating``: the terminating hypergeometric sum
  ``sum_j (-m)_j (m)_j / (1/2)_j / j! * x^j``, which equals
  ``chebyshev_T(m, 1 - 2x)``.

The hypergeometric sum suffers catastrophic cancellation in floating point
(at m = 12 individual terms reach ~1e8 while the sum is O(1)), so it is
accumulated in exact rational arithmetic and rounded once at the end.  Terms
are rationals because the input float is promoted to the exact binary
rational it represents.
"""

from __future__ import annotations

from fractions import Fraction

import numpy as np

from .geometry import require_half_integer, require_int


def chebyshev_T(m: int, z):
    """Chebyshev polynomial ``T_m(z)`` by the three-term recurrence.

    ``z`` may be a float or a numpy array; the return type matches.
    Satisfies ``T_m(cosh u) = cosh(m u)`` and ``T_m(cos u) = cos(m u)``.
    """
    m = require_int(m, "polynomial degree", 0)
    if m == 0:
        if isinstance(z, np.ndarray):
            return np.ones_like(z, dtype=float)
        return 1.0
    t_prev, t_cur = 1.0, z
    for _ in range(m - 1):
        t_prev, t_cur = t_cur, 2.0 * z * t_cur - t_prev
    if isinstance(z, np.ndarray):
        return np.asarray(t_cur, dtype=float)
    return float(t_cur)


def gauss_2f1_terminating(m: int, x_arg: float) -> float:
    """Terminating Gauss sum ``2F1(-m, m; 1/2; x)`` for integer ``m >= 0``.

    Evaluated in exact rational arithmetic with a single final rounding, so
    the result is the correctly rounded value of the polynomial at the exact
    binary rational ``x_arg`` represents.  Agrees with
    ``chebyshev_T(m, 1 - 2*x_arg)`` to full precision.
    """
    m = require_int(m, "polynomial degree", 0)
    x = Fraction(float(x_arg))
    total = Fraction(1)
    term = Fraction(1)
    for j in range(m):
        # ratio of consecutive terms: (j - m)(j + m) x / ((j + 1/2)(j + 1))
        term *= Fraction(2 * (j - m) * (j + m), (2 * j + 1) * (j + 1)) * x
        total += term
    return float(total)


def spectral_cosh_factor(x, d, kappa: float):
    """Radial weight ``T_{2|kappa|}(cosh x / cosh d) / sqrt(cosh^2 x - cosh^2 d)``.

    Defined for ``x > d >= 0``.  ``x`` and ``d`` may be floats or numpy
    arrays that broadcast against each other (a column of distances against
    a row of nodes, say), with every x strictly greater than its d; a float
    comes back when both are scalars.  The denominator is computed as
    ``sqrt(sinh(x - d) * sinh(x + d))``, which is exactly
    ``sqrt(cosh^2 x - cosh^2 d)`` but avoids the cancellation of the naive
    difference for x near d.

    For ``kappa = 0`` this reduces to ``1 / sqrt(cosh^2 x - cosh^2 d)``; for
    ``d = 0`` it is ``cosh(2|kappa| x) / sinh x``.
    """
    kappa = require_half_integer(kappa)
    d = np.asarray(d, dtype=float)
    if not (d.min(initial=0.0) >= 0.0 and d.max(initial=0.0) < np.inf):  # NaN fails too
        raise ValueError("offset distances must be finite and >= 0")
    m = int(round(2.0 * abs(kappa)))

    x = np.asarray(x, dtype=float)
    if np.any(x <= d):
        raise ValueError("spectral_cosh_factor requires x > d everywhere")

    numer = chebyshev_T(m, np.cosh(x) / np.cosh(d))
    out = numer / np.sqrt(np.sinh(x - d) * np.sinh(x + d))
    return float(out) if np.ndim(out) == 0 else out
