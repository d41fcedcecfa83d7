"""Chebyshev polynomials and the radial weight of the direct Maass route.

The fiber modes of the twisted kernels enter through the degree-m Chebyshev
polynomial of the first kind evaluated at a ratio of hyperbolic cosines.

* ``chebyshev_T``: the three-term recurrence, numerically stable on the
  whole real line, for one degree or every degree of a list at once;
* ``spectral_cosh_factor``: ``T_{2|kappa|}(cosh x / cosh d)`` over
  ``sqrt(cosh^2 x - cosh^2 d)``, the weight of
  :func:`adsheat.kernels.maass_direct_profile`, with the denominator
  formed without cancellation near x = d.
"""

from __future__ import annotations

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
