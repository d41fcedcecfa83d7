"""Adaptive Gauss-Kronrod quadrature for smooth (possibly complex) integrands.

A 15-point Kronrod rule with embedded 7-point Gauss rule is applied per
panel; the Gauss/Kronrod difference is the panel error estimate.  Panels
are kept in a max-heap by estimated error and the worst one is bisected
until the summed estimate meets the requested tolerance or the node budget
runs out.

Integrands must be vectorized: they are called with a numpy array of 15
nodes and must return an array of matching length (real or complex).
"""

from __future__ import annotations

import cmath
import heapq
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = [
    "QuadratureConfig",
    "IntegrationResult",
    "ConvergenceError",
    "adaptive_gauss_kronrod",
    "gauss_legendre_rule",
]


@dataclass(frozen=True)
class QuadratureConfig:
    """Tolerances and budget for the adaptive integrator.

    The target is ``max(abs_tol, rel_tol * |value|)`` on the summed error
    estimate.  ``u_max_override`` lets callers pin the truncation point of
    an integral over an unbounded domain instead of the automatic choice.
    """

    abs_tol: float = 1e-11
    rel_tol: float = 1e-9
    max_nodes: int = 100_000
    u_max_override: float | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.abs_tol < 1.0):
            raise ValueError(f"abs_tol must be in (0, 1), got {self.abs_tol!r}")
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError(f"rel_tol must be in (0, 1), got {self.rel_tol!r}")
        if not (isinstance(self.max_nodes, int) and self.max_nodes >= 60):
            raise ValueError(f"max_nodes must be an int >= 60, got {self.max_nodes!r}")
        if self.u_max_override is not None:
            u = float(self.u_max_override)
            if not (math.isfinite(u) and u > 0.0):
                raise ValueError(f"u_max_override must be finite and > 0, got {u!r}")


@dataclass(frozen=True)
class IntegrationResult:
    value: complex
    error_estimate: float
    n_evals: int
    n_panels: int


class ConvergenceError(RuntimeError):
    """Raised when the node budget is exhausted before the tolerance is met,
    or when the integrand yields a non-finite value.

    Carries the best available estimate so callers can report partial
    results instead of losing them.
    """

    def __init__(self, message: str, *, value=None, error_estimate=None):
        super().__init__(message)
        self.value = value
        self.error_estimate = error_estimate


# 15-point Kronrod extension of 7-point Gauss-Legendre on [-1, 1]
# (positive abscissae; the rule is symmetric).
_XK = np.array(
    [
        0.991455371120812639206854697526329,
        0.949107912342758524526189684047851,
        0.864864423359769072789712788640926,
        0.741531185599394439863864773280788,
        0.586087235467691130294144838258730,
        0.405845151377397166906606412076961,
        0.207784955007898467600689403773245,
    ]
)
_WK = np.array(
    [
        0.022935322010529224963732008058970,
        0.063092092629978553290700663189204,
        0.104790010322250183839876322541518,
        0.140653259715525918745189590510238,
        0.169004726639267902826583426598550,
        0.190350578064785409913256402421014,
        0.204432940075298892414161999234649,
    ]
)
_WK0 = 0.209482141084727828012999174891714
_WG = np.array(
    [
        0.129484966168869693270611432679082,
        0.279705391489276667901467771423780,
        0.381830050505118944950369775488975,
    ]
)
_WG0 = 0.417959183673469387755102040816327

# full 15-node layout, ascending; Gauss nodes sit at odd indices
KRONROD_NODES = np.concatenate((-_XK, [0.0], _XK[::-1]))
KRONROD_WEIGHTS = np.concatenate((_WK, [_WK0], _WK[::-1]))
GAUSS_EMBEDDED_WEIGHTS = np.zeros(15)
GAUSS_EMBEDDED_WEIGHTS[[1, 3, 5]] = _WG
GAUSS_EMBEDDED_WEIGHTS[7] = _WG0
GAUSS_EMBEDDED_WEIGHTS[[9, 11, 13]] = _WG[::-1]

_NODES_PER_PANEL = 15


def _panel_estimate(f: Callable, a: float, b: float):
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    nodes = mid + half * KRONROD_NODES
    fv = np.asarray(f(nodes))
    if fv.shape != (15,):
        raise ValueError(
            f"integrand must map 15 nodes to 15 values, got shape {fv.shape}"
        )
    i15 = half * (KRONROD_WEIGHTS @ fv)
    i7 = half * (GAUSS_EMBEDDED_WEIGHTS @ fv)
    return i15, abs(i15 - i7)


def adaptive_gauss_kronrod(
    f: Callable,
    a: float,
    b: float,
    config: QuadratureConfig | None = None,
    *,
    initial_panels: int = 8,
) -> IntegrationResult:
    """Integrate a vectorized integrand over [a, b] to the configured tolerance.

    Raises :class:`ConvergenceError` (with the best estimate attached) if
    ``config.max_nodes`` evaluations are not enough or the running value or
    error estimate stops being finite.
    """
    cfg = config or QuadratureConfig()
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration endpoints must be finite")
    if a == b:
        return IntegrationResult(0.0, 0.0, 0, 0)
    if initial_panels < 1:
        raise ValueError("initial_panels must be >= 1")

    heap: list[tuple[float, int, float, float, complex]] = []
    total = 0.0 + 0.0j
    total_err = 0.0
    evaluated = 0  # panels evaluated so far; also the heap's tie-breaker

    def add_panel(lo: float, hi: float) -> None:
        nonlocal total, total_err, evaluated
        val, err = _panel_estimate(f, lo, hi)
        total += val
        total_err += err
        heapq.heappush(heap, (-err, evaluated, lo, hi, val))
        evaluated += 1

    edges = np.linspace(a, b, initial_panels + 1)
    for lo, hi in zip(edges[:-1], edges[1:]):
        add_panel(lo, hi)

    while True:
        # a NaN estimate compares False against any tolerance and would be
        # accepted as converged; a non-finite total never recovers either
        if not (cmath.isfinite(total) and math.isfinite(total_err)):
            raise ConvergenceError(
                f"integrand produced a non-finite value (running value {total}, "
                f"error estimate {total_err})",
                value=total,
                error_estimate=total_err,
            )
        target = max(cfg.abs_tol, cfg.rel_tol * abs(total))
        if total_err <= target:
            break
        if _NODES_PER_PANEL * (evaluated + 2) > cfg.max_nodes:
            raise ConvergenceError(
                f"quadrature budget of {cfg.max_nodes} nodes exhausted at "
                f"error estimate {total_err:.3e} (target {target:.3e})",
                value=total,
                error_estimate=total_err,
            )
        neg_err, _, lo, hi, val = heapq.heappop(heap)
        total -= val
        total_err += neg_err  # neg_err is -err
        mid = 0.5 * (lo + hi)
        add_panel(lo, mid)
        add_panel(mid, hi)

    value = total if total.imag != 0.0 else total.real
    return IntegrationResult(value, total_err, _NODES_PER_PANEL * evaluated, len(heap))


def gauss_legendre_rule(
    a: float, b: float, n_panels: int, order: int = 15
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on [a, b].

    Fixed (non-adaptive) rule for vectorized batch evaluation: the
    interval is split into equal panels, each carrying an order-point
    Gauss-Legendre rule.  Returns flat arrays of ``n_panels * order``
    nodes and weights.
    """
    if n_panels < 1 or order < 2:
        raise ValueError("need n_panels >= 1 and order >= 2")
    x, w = np.polynomial.legendre.leggauss(order)
    edges = np.linspace(float(a), float(b), n_panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights
