"""Geometry of the unit ball in C^n with the Bergman metric.

Points live in the open unit ball ``{w in C^n : |w| < 1}`` carrying the
Bergman metric normalized so that the holomorphic sectional curvature is -4
(for n = 1 this is the Poincare disc of curvature -4, where the distance to
the origin is ``arctanh|w|``).  The circle fiber of the associated unit
circle bundle is parametrized by an angle theta, stored canonically in
``[0, 2*pi)``.

The quantities every kernel in this package consumes are computed here:
the Bergman hyperbolic distance and twist angle of a pair (formed together
by :func:`bergman_pairing`, for ball points and arrays of points alike) and
the unimodular twist factor of a half-integer spin weight.
:func:`hermitian_inner` gives the pairing <w, y> itself.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

TWO_PI = 2.0 * math.pi

# cosh^2(distance) values this close below 1 are treated as rounding noise
# and clamped; anything is >= 1 in exact arithmetic.
_COSH_SQ_FLOOR = 1.0 - 1e-12

# Spin weights must sit on the half-integer lattice; inputs within this
# distance of a lattice point are snapped onto it.
_HALF_INT_TOL = 1e-9


def require_half_integer(kappa: float) -> float:
    """Snap ``kappa`` onto the half-integer lattice or raise ``ValueError``.

    Returns the exact lattice value ``round(2*kappa)/2`` as a float.
    """
    kappa = float(kappa)
    if not math.isfinite(kappa):
        raise ValueError(f"spin weight must be finite, got {kappa!r}")
    doubled = round(2.0 * kappa)
    if abs(2.0 * kappa - doubled) > 2.0 * _HALF_INT_TOL:
        raise ValueError(
            f"spin weight must be a half-integer (multiple of 0.5), got {kappa!r}"
        )
    return doubled / 2.0


def require_int(value, name: str, minimum: int) -> int:
    """``value`` as an int, or ``ValueError`` unless an integer (not a bool) >= ``minimum``."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < minimum:
        raise ValueError(f"{name} must be an integer >= {minimum}, got {value!r}")
    return int(value)


@dataclass(frozen=True)
class BallPoint:
    """A point of the open unit ball in C^n.

    Parameters
    ----------
    coords
        Complex coordinates.  Any sequence of numbers is accepted and
        coerced to a tuple of ``complex``.  The Euclidean norm must be
        strictly below 1.
    """

    coords: tuple[complex, ...]

    def __post_init__(self) -> None:
        coords = tuple(complex(c) for c in self.coords)
        if len(coords) == 0:
            raise ValueError("BallPoint needs at least one coordinate")
        norm_sq = sum((c * c.conjugate()).real for c in coords)
        if not norm_sq < 1.0:
            raise ValueError(
                f"BallPoint must lie strictly inside the unit ball, |w|^2 = {norm_sq}"
            )
        object.__setattr__(self, "coords", coords)

    @classmethod
    def origin(cls, n: int = 1) -> "BallPoint":
        return cls((0j,) * require_int(n, "dimension", 1))

    @property
    def n(self) -> int:
        """Complex dimension of the ambient ball."""
        return len(self.coords)

    @property
    def norm_sq(self) -> float:
        return sum((c * c.conjugate()).real for c in self.coords)

    @property
    def norm(self) -> float:
        return math.sqrt(self.norm_sq)


@dataclass(frozen=True)
class FiberAngle:
    """Angle on the circle fiber, stored canonically in ``[0, 2*pi)``."""

    theta: float

    def __post_init__(self) -> None:
        theta = float(self.theta)
        if not math.isfinite(theta):
            raise ValueError(f"fiber angle must be finite, got {theta!r}")
        theta = theta % TWO_PI
        # Python's float modulo may round a tiny negative input up to 2*pi
        # itself; fold that corner case back to 0.
        if theta >= TWO_PI:
            theta = 0.0
        object.__setattr__(self, "theta", theta)


def point_at_distance(d: float, n: int = 1) -> BallPoint:
    """The point at hyperbolic distance ``d`` from the origin along the
    first real coordinate axis: ``(tanh d, 0, ..., 0)``."""
    d = float(d)
    if not (math.isfinite(d) and d >= 0.0):
        raise ValueError(f"distance must be finite and >= 0, got {d!r}")
    n = require_int(n, "dimension", 1)
    return BallPoint((complex(math.tanh(d)),) + (0j,) * (n - 1))


def _require_same_dim(n_w: int, n_y: int) -> None:
    if n_w != n_y:
        raise ValueError(f"ball points live in different dimensions: {n_w} versus {n_y}")


def hermitian_inner(w: BallPoint, y: BallPoint) -> complex:
    """Hermitian pairing ``sum_i w_i * conj(y_i)`` (antilinear in ``y``)."""
    _require_same_dim(w.n, y.n)
    return sum(
        (wc * yc.conjugate() for wc, yc in zip(w.coords, y.coords)),
        start=0j,
    )


def bergman_pairing(w, y) -> tuple[np.ndarray, np.ndarray]:
    """``(d, twist)`` of point pairs: Bergman distance and ``Arg(1 - <w,y>)``.

    ``w`` and ``y`` hold the n complex coordinates of each point, each a
    number or an array (arrays broadcast; the pairing is elementwise, in
    real arithmetic, so a pair gives the same bits alone and in an array).
    With cosh^2 d = num / den, num = |1 - <w,y>|^2, den = (1 - |w|^2)(1 -
    |y|^2): pairs with cosh^2 < 2 (d < 0.88) take atanh(sqrt((num - den) /
    num)), with num - den = |e|^2 - sum_{i<j} |w_i e_j - w_j e_i|^2, e = y -
    w (Lagrange's identity), formed without subtracting from 1 so d keeps
    its relative precision as d -> 0; farther pairs take acosh(sqrt(cosh^2)),
    where atanh would magnify the rounding of tanh by cosh^2 d.  cosh^2 just
    below 1 is rounding; further below raises ``ValueError``.  The twist lies
    in (-pi/2, pi/2), as Re(1 - <w,y>) > 0 on the ball.
    """
    _require_same_dim(len(w), len(y))
    w_sq = y_sq = z_re = z_im = gap = 0.0  # z: conj <w,y>, then 1 - <w,y>; gap = num - den
    coords = [(p.real, p.imag, q.real, q.imag) for p, q in zip(w, y)]
    for i, (a, b, c, g) in enumerate(coords):
        w_sq, y_sq = w_sq + (a * a + b * b), y_sq + (c * c + g * g)
        z_re, z_im = z_re + (a * c + b * g), z_im + (a * g - b * c)
        e, f = c - a, g - b  # e_i = y_i - w_i
        gap = gap + (e * e + f * f)
        for a2, b2, c2, g2 in coords[:i]:  # less |w_i e_j - w_j e_i|^2
            e2, f2 = c2 - a2, g2 - b2
            x = (a * e2 - b * f2) - (a2 * e - b2 * f)
            v = (a * f2 + b * e2) - (a2 * f + b2 * e)
            gap = gap - (x * x + v * v)
    z_re = 1.0 - z_re
    num = z_re * z_re + z_im * z_im
    cosh_sq = num / ((1.0 - w_sq) * (1.0 - y_sq))
    if np.less(cosh_sq, _COSH_SQ_FLOOR).any():
        raise ValueError(
            f"cosh^2(distance) evaluated to {np.min(cosh_sq)}, far below its lower bound 1; "
            "inputs are likely corrupt"
        )
    far = cosh_sq >= 2.0  # each branch gets an argument in its domain where not taken
    tanh = np.sqrt(np.where(far, 0.0, np.maximum(gap, 0.0) / num))
    d = np.where(far, np.arccosh(np.sqrt(np.where(far, cosh_sq, 1.0))), np.arctanh(tanh))
    return d, np.arctan2(z_im, z_re)


def twist_phase(twist, kappa: float):
    """``exp(-2i * kappa * twist)``, elementwise: the factor of spin weight
    ``kappa`` for pairs of the given twist (see :func:`bergman_pairing`).

    This is ``((1 - <w,y>) / (1 - <y,w>))^(-kappa)`` through the principal
    argument; the twist lies in (-pi/2, pi/2), so the power is single valued.
    """
    return np.exp(-2j * require_half_integer(kappa) * twist)
