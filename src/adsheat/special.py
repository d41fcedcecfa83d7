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

import math
from fractions import Fraction

import numpy as np

from .geometry import require_half_integer, require_int


def chebyshev_T(m, z):
    """Chebyshev polynomial ``T_m(z)`` by the three-term recurrence.

    ``z`` may be a float or a numpy array; the return type matches.
    Satisfies ``T_m(cosh u) = cosh(m u)`` and ``T_m(cos u) = cos(m u)``.
    A 1-D sequence of degrees ``m`` gives an array of shape (len(m),) +
    z.shape: every degree from one recurrence up to the largest.  A single
    degree is the one-element case, unwrapped.
    """
    degrees = [require_int(k, "polynomial degree", 0) for k in (m if np.ndim(m) else [m])]
    arr = np.asarray(z, dtype=float)
    table = [np.ones_like(arr), arr]
    while len(table) <= max(degrees, default=0):
        table.append(2.0 * arr * table[-1] - table[-2])
    out = np.array([table[k] for k in degrees]).reshape((len(degrees),) + arr.shape)
    if np.ndim(m):
        return out
    return out[0, ...] if isinstance(z, np.ndarray) else float(out[0])


def gauss_2f1_terminating(m: int, x_arg: float) -> float:
    """Terminating Gauss sum ``2F1(-m, m; 1/2; x)`` for integer ``m >= 0``.

    Evaluated in exact rational arithmetic with a single final rounding, so
    the result is the correctly rounded value of the polynomial at the exact
    binary rational ``x_arg`` represents.  Agrees with
    ``chebyshev_T(m, 1 - 2*x_arg)`` to full precision.  Raises ValueError
    for a non-finite ``x_arg`` and for a value outside double range.
    """
    m = require_int(m, "polynomial degree", 0)
    if not math.isfinite(x_arg := float(x_arg)):
        raise ValueError(f"argument must be finite, got {x_arg!r}")
    x = Fraction(x_arg)
    total = Fraction(1)
    term = Fraction(1)
    for j in range(m):
        # ratio of consecutive terms: (j - m)(j + m) x / ((j + 1/2)(j + 1))
        term *= Fraction(2 * (j - m) * (j + m), (2 * j + 1) * (j + 1)) * x
        total += term
    try:
        return float(total)
    except OverflowError:
        raise ValueError(
            f"2F1(-{m}, {m}; 1/2; {x_arg!r}) is outside double range (|value| > 1.8e308)"
        ) from None


def spectral_cosh_factor(x, d, kappa):
    """Radial weight ``T_{2|kappa|}(cosh x / cosh d) / sqrt(cosh^2 x - cosh^2 d)``.

    Defined for ``x > d >= 0``.  ``x`` and ``d`` may be floats or numpy
    arrays that broadcast against each other (a column of distances against
    a row of nodes, say), with every x strictly greater than its d; a float
    comes back when both are scalars.  The denominator is computed as
    ``sqrt(sinh(x - d) * sinh(x + d))``, which is exactly
    ``sqrt(cosh^2 x - cosh^2 d)`` but avoids the cancellation of the naive
    difference for x near d.

    For ``kappa = 0`` this reduces to ``1 / sqrt(cosh^2 x - cosh^2 d)``; for
    ``d = 0`` it is ``cosh(2|kappa| x) / sinh x``.  A 1-D array of weights
    stacks one factor per weight on a new leading axis, all from one
    Chebyshev recurrence over one denominator.
    """
    m = [int(round(2.0 * abs(require_half_integer(k)))) for k in np.ravel(kappa).tolist()]
    d = np.asarray(d, dtype=float)
    if not (d.min(initial=0.0) >= 0.0 and d.max(initial=0.0) < np.inf):  # NaN fails too
        raise ValueError("offset distances must be finite and >= 0")

    x = np.asarray(x, dtype=float)
    if np.any(x <= d):
        raise ValueError("spectral_cosh_factor requires x > d everywhere")

    out = chebyshev_T(m, np.cosh(x) / np.cosh(d)) / np.sqrt(np.sinh(x - d) * np.sinh(x + d))
    if np.ndim(kappa):
        return out
    return float(out[0]) if out.ndim == 1 else out[0]
