"""Geometry of the unit ball in C^n with the Bergman metric.

Points live in the open unit ball ``{w in C^n : |w| < 1}`` carrying the
Bergman metric normalized so that the holomorphic sectional curvature is -4
(for n = 1 this is the Poincare disc of curvature -4, where the distance to
the origin is ``arctanh|w|``).  The circle fiber of the associated unit
circle bundle is parametrized by an angle theta, stored canonically in
``[0, 2*pi)``.

The quantities every kernel in this package consumes are computed here:
the Hermitian pairing of two ball points, the Bergman hyperbolic distance
(also for arrays of disc points), the twist angle of a pair, and the
unimodular twist factor attached to a half-integer spin weight.
"""

from __future__ import annotations

import cmath
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
        return cls((0j,) * n)

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
    if n < 1:
        raise ValueError(f"dimension must be >= 1, got {n!r}")
    return BallPoint((complex(math.tanh(d)),) + (0j,) * (n - 1))


def _require_same_dim(w: BallPoint, y: BallPoint) -> None:
    if w.n != y.n:
        raise ValueError(
            f"ball points live in different dimensions: {w.n} versus {y.n}"
        )


def hermitian_inner(w: BallPoint, y: BallPoint) -> complex:
    """Hermitian pairing ``sum_i w_i * conj(y_i)`` (antilinear in ``y``)."""
    _require_same_dim(w, y)
    return sum(
        (wc * yc.conjugate() for wc, yc in zip(w.coords, y.coords)),
        start=0j,
    )


def cosh_sq_distance(w: BallPoint, y: BallPoint) -> float:
    """``cosh^2`` of the Bergman distance between ``w`` and ``y``.

    Computed as ``|1 - <w,y>|^2 / ((1 - |w|^2)(1 - |y|^2))``, which is
    >= 1 in exact arithmetic; values caught just below 1 by rounding are
    clamped back to 1.
    """
    _require_same_dim(w, y)
    z = 1.0 - hermitian_inner(w, y)
    num = (z * z.conjugate()).real
    den = (1.0 - w.norm_sq) * (1.0 - y.norm_sq)
    val = num / den
    if val < 1.0:
        if val < _COSH_SQ_FLOOR:
            raise ValueError(
                f"cosh^2(distance) evaluated to {val}, far below its lower bound 1; "
                "inputs are likely corrupt"
            )
        return 1.0
    return val


def hyperbolic_distance(w: BallPoint, y: BallPoint) -> float:
    """Bergman hyperbolic distance between two ball points.

    For n = 1 this is the curvature -4 Poincare distance, e.g.
    ``hyperbolic_distance(origin, y) == arctanh|y|``.
    """
    c2 = cosh_sq_distance(w, y)
    if c2 <= 1.0:
        return 0.0
    return math.acosh(math.sqrt(c2))


def disc_distance(w: np.ndarray, y: complex) -> np.ndarray:
    """Bergman distances from an array of disc points ``w`` (n = 1) to ``y``.

    The elementwise form of :func:`hyperbolic_distance`: ``cosh^2`` is
    ``|1 - w conj(y)|^2 / ((1 - |w|^2)(1 - |y|^2))``, clamped up to 1.
    Every ``w`` must lie inside the disc.
    """
    z = 1.0 - w * np.conjugate(y)
    cosh_sq = (z * z.conjugate()).real / (
        (1.0 - (w * w.conjugate()).real) * (1.0 - abs(y) ** 2)
    )
    return np.arccosh(np.sqrt(np.maximum(cosh_sq, 1.0)))


def twist_angle(w: BallPoint, y: BallPoint) -> float:
    """``Arg(1 - <w,y>)``, the angle by which the pair twists the fiber.

    ``Re(1 - <w,y>) > 0`` on the ball, so the angle lies in ``(-pi/2, pi/2)``.
    """
    z = 1.0 - hermitian_inner(w, y)
    return math.atan2(z.imag, z.real)


def phase_factor(w: BallPoint, y: BallPoint, kappa: float) -> complex:
    """Unimodular twist attached to spin weight ``kappa``.

    Equals ``((1 - <w,y>) / (1 - <y,w>))^(-kappa)`` evaluated through the
    principal argument: ``exp(-2i * kappa * Arg(1 - <w,y>))``.  The
    argument lies in ``(-pi/2, pi/2)`` (see :func:`twist_angle`), so the
    half-integer power is single valued.
    """
    kappa = require_half_integer(kappa)
    return cmath.exp(complex(0.0, -2.0 * kappa * twist_angle(w, y)))
