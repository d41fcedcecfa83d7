"""Adaptive Gauss-Kronrod quadrature for smooth (possibly complex) integrands.

A 15-point Kronrod rule with embedded 7-point Gauss rule is applied per
panel; the Gauss/Kronrod difference is the panel error estimate.  Panels
are kept in a max-heap by estimated error and the worst one is bisected
until the summed estimate meets the requested tolerance or the node budget
runs out.

Integrands must be vectorized: they are called once per panel with a numpy
array of 15 nodes and return a (C, 15) array (real or complex) for C
components on shared panels, or 15 values for one component.  One loop
serves both: each component must meet its own target, max(abs_tol,
rel_tol * |I_c|), and a panel ranks by its worst component error in units
of the targets after the starting panels.  A one-component integrand of
shape (15,) gets scalars back.
"""

from __future__ import annotations

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
    estimate.
    """

    abs_tol: float = 1e-11
    rel_tol: float = 1e-9
    max_nodes: int = 100_000

    def __post_init__(self) -> None:
        if not (0.0 < self.abs_tol < 1.0):
            raise ValueError(f"abs_tol must be in (0, 1), got {self.abs_tol!r}")
        if not (0.0 < self.rel_tol < 1.0):
            raise ValueError(f"rel_tol must be in (0, 1), got {self.rel_tol!r}")
        if not (isinstance(self.max_nodes, int) and self.max_nodes >= 60):
            raise ValueError(f"max_nodes must be an int >= 60, got {self.max_nodes!r}")


@dataclass(frozen=True)
class IntegrationResult:
    value: complex | np.ndarray
    error_estimate: float | np.ndarray
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


def adaptive_gauss_kronrod(
    f: Callable,
    a: float,
    b: float,
    config: QuadratureConfig | None = None,
    points=(),
) -> IntegrationResult:
    """Integrate a vectorized integrand over [a, b] to the configured tolerance.

    ``points`` (in order, strictly inside) split [a, b] into the starting
    panels, eight equal ones by default; all are evaluated before any is
    bisected.  A vector integrand gives arrays of value and error estimate,
    zeros over an empty interval (a == b), where the integrand is called
    once to learn its shape.
    Raises :class:`ConvergenceError` (with the best estimate attached) if
    ``config.max_nodes`` evaluations are not enough or the running value or
    error estimate stops being finite.
    """
    cfg = config or QuadratureConfig()
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration endpoints must be finite")
    if a == b:  # one call at the coincident nodes learns the components' shape
        with np.errstate(all="ignore"):  # the values themselves are not used
            components = np.shape(f(np.full(_NODES_PER_PANEL, a)))[:-1]
        if not components:
            return IntegrationResult(0.0, 0.0, _NODES_PER_PANEL, 0)
        return IntegrationResult(np.zeros(components), np.zeros(components), _NODES_PER_PANEL, 0)
    edges = np.array([a, *points, b], dtype=float) if len(points) else np.linspace(a, b, 9)
    if not (np.all(np.diff(edges) > 0.0) or np.all(np.diff(edges) < 0.0)):
        raise ValueError("points must lie strictly between a and b, in order")

    shape = None  # the first panel fixes the integrand's shape for all later ones
    evaluated = 0  # panels evaluated so far; also the heap's tie-breaker

    def panel(lo: float, hi: float) -> tuple:
        nonlocal shape, evaluated
        half = 0.5 * (hi - lo)
        fv = np.asarray(f(0.5 * (lo + hi) + half * KRONROD_NODES))
        if fv.shape != shape and (shape or fv.shape[-1:] != (15,) or fv.ndim > 2):
            raise ValueError(
                f"integrand must give shape (15,) or (C, 15) on every panel, got {fv.shape}"
            )
        shape, fv = fv.shape, fv.reshape(-1, 15)
        val = half * (fv @ KRONROD_WEIGHTS)
        evaluated += 1
        return evaluated - 1, lo, hi, val, abs(val - half * (fv @ GAUSS_EMBEDDED_WEIGHTS))

    def unwrap(x: np.ndarray):
        return x.item() if len(shape) == 1 else x  # one (15,) component gives scalars

    def failure(message: str) -> ConvergenceError:
        c = int(np.argmax(total_err / target))  # the worst component, or a NaN
        text = message.format(cfg=cfg, v=complex(total[c]), e=total_err[c], tgt=target[c],
                              where=f" in component {c}" if len(shape) == 2 else "")
        return ConvergenceError(text, value=unwrap(total), error_estimate=unwrap(total_err))

    # overflow and NaN in the integrand surface as a non-finite total,
    # which raises below; numpy's own warnings for them would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        panels = [panel(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]
        total = sum(p[-2] for p in panels)
        total_err = sum(p[-1] for p in panels)
        # a panel ranks by its worst component error in units of the targets
        scale = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total))
        heap = [(-float((p[-1] / scale).max()), *p) for p in panels]
        heapq.heapify(heap)

        while True:
            target = np.maximum(cfg.abs_tol, cfg.rel_tol * np.abs(total))
            worst = (total_err / target).max()
            # converged, or not finite: NaN and inf/inf land here, and neither a
            # NaN estimate nor a non-finite total may pass as converged
            if not 1.0 < worst < math.inf:
                if not (np.isfinite(total).all() and np.isfinite(total_err).all()):
                    raise failure(
                        "integrand produced a non-finite value{where} "
                        "(running value {v}, error estimate {e})"
                    )
                if worst <= 1.0:
                    break
            if _NODES_PER_PANEL * (evaluated + 2) > cfg.max_nodes:
                raise failure(
                    "quadrature budget of {cfg.max_nodes} nodes exhausted at "
                    "error estimate {e:.3e}{where} (target {tgt:.3e})"
                )
            _, _, lo, hi, val, err = heapq.heappop(heap)
            total, total_err = total - val, total_err - err
            mid = 0.5 * (lo + hi)
            for p in (panel(lo, mid), panel(mid, hi)):
                total, total_err = total + p[-2], total_err + p[-1]
                heapq.heappush(heap, (-float((p[-1] / scale).max()), *p))

    value = unwrap(total if np.any(total.imag != 0.0) else total.real)
    return IntegrationResult(value, unwrap(total_err), _NODES_PER_PANEL * evaluated, len(heap))


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
