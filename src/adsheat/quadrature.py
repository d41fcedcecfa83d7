"""Adaptive Gauss-Kronrod quadrature for smooth (possibly complex) integrands.

A 15-point Kronrod rule with embedded 7-point Gauss rule is applied per
panel; the Gauss/Kronrod difference is the panel error estimate.  Panels
are kept in a max-heap by estimated error and refined in waves, after
scipy's ``quad_vec``: the worst panels are popped until their summed
estimates cover each component's excess over its target, and all of them
are bisected.  The starting panels form the first wave.

Integrands must be vectorized: called with the N nodes of a whole wave, they
return a (C, N) array (real or complex) for C components on shared panels,
or N values for one component.  One call holds at most 512 (component,
panel) rows of 15 values, and one panel at least, so a wave of a large C
takes several calls.  The caller states C, and the first call holds one
panel more than that allows: a quadrature whose starting panels fit makes
one call, and the shape it returns fixes C for all later ones.  Each
component must meet its own target, max(abs_tol, rel_tol * |I_c|), and a
panel ranks by its worst component error in units of the targets after the
starting panels.  A one-component integrand of shape (N,) gets scalars back.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable

import numpy as np

from .geometry import require_int

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
        object.__setattr__(self, "max_nodes", require_int(self.max_nodes, "max_nodes", 60))


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
# the Kronrod and embedded Gauss weights side by side: one matmul gives both
_RULES = np.stack([KRONROD_WEIGHTS, GAUSS_EMBEDDED_WEIGHTS], axis=1)
# (component, panel) rows of 15 values in one integrand call (the first may hold
# one panel more), and the block of distances or angles the kernels pass the
# engine: it bounds the (rows, nodes) temporaries, which waves of every popped
# panel would let grow with the block
_CALL_ROWS = 512


def adaptive_gauss_kronrod(
    f: Callable,
    a: float,
    b: float,
    config: QuadratureConfig | None = None,
    points=(),
    *,
    components: int = 1,
) -> IntegrationResult:
    """Integrate a vectorized integrand over [a, b] to the configured tolerance.

    ``points`` (in order, strictly inside) split [a, b] into the starting
    panels, eight equal ones by default; they form the first wave.  A vector
    integrand gives arrays of value and error estimate, zeros over an empty
    interval (a == b), where the integrand is called once to learn its shape.
    Raises :class:`ConvergenceError` (with the best estimate attached) if
    ``config.max_nodes`` evaluations are not enough or the running value or
    error estimate stops being finite.

    ``components`` states the integrand's C and only sizes calls: the first
    holds one panel more than the 512 // C of each later call, so that a
    quadrature whose starting panels fit makes one call.  A C stated too
    small only makes the first call larger.  The shape the first call
    returns fixes C, and every call is checked against it.  The first panel
    is reduced by a matmul of its own and the rest of the first call by
    another, so every Kronrod/Gauss reduction keeps the row groups of a lone
    first panel followed by full calls: BLAS rounds a lone row, and the odd
    last row of a group, differently from the rows of a larger group.
    """
    cfg = config or QuadratureConfig()
    a = float(a)
    b = float(b)
    if not (math.isfinite(a) and math.isfinite(b)):
        raise ValueError("integration endpoints must be finite")
    if a == b:  # one call at the coincident nodes learns the components' shape
        with np.errstate(all="ignore"):  # the values themselves are not used
            shape = np.shape(f(np.full(_NODES_PER_PANEL, a)))[:-1]
        if not shape:
            return IntegrationResult(0.0, 0.0, _NODES_PER_PANEL, 0)
        return IntegrationResult(np.zeros(shape), np.zeros(shape), _NODES_PER_PANEL, 0)
    if len(points):
        edges = [a, *map(float, points), b]
    else:  # the bits of np.linspace(a, b, 9)
        step = (b - a) / 8.0
        edges = [a + i * step for i in range(8)] + [b]
    pairs = list(zip(edges, edges[1:]))
    if not (all(x < y for x, y in pairs) or all(x > y for x, y in pairs)):
        raise ValueError("points must lie strictly between a and b, in order")

    shape = None  # the first call fixes the components for all later ones
    # panels of the first call: at least 2, as there are at least 2 starting panels
    panels = max(1, _CALL_ROWS // max(1, components)) + 1
    evaluated = 0  # panels evaluated so far; also numbers them for the heap's ties

    def evaluate(lo: list, hi: list) -> tuple:
        """Kronrod values and error estimates, (P, C) each, of the P panels [lo, hi]."""
        nonlocal shape, panels, evaluated
        lo, hi = np.array(lo), np.array(hi)
        half = 0.5 * (hi - lo)[:, None]
        nodes = 0.5 * (lo + hi)[:, None] + half * KRONROD_NODES
        rules, i = [], 0
        while i < lo.size:  # _CALL_ROWS (component, panel) rows a call, the first one panel more
            x = nodes[i : i + panels].ravel()
            fv = np.asarray(f(x))
            if fv.shape[-1:] != x.shape or fv.ndim > 2 or shape not in (None, fv.shape[:-1]):
                raise ValueError(
                    f"integrand must give shape (N,) or (C, N) for its N nodes, the same C "
                    f"on every call; got {fv.shape} for N = {x.size}"
                )
            # the first call's first panel is reduced alone, as when it was a call of its own
            for part in (fv[..., :15], fv[..., 15:]) if shape is None else (fv,):
                rows = (part.reshape(-1, 15) @ _RULES).reshape(-1, part.shape[-1] // 15, 2)
                rules.append(np.ascontiguousarray(rows.T))  # (2, p, C): strided rows reduce slowly
            shape = fv.shape[:-1]
            evaluated, i = evaluated + x.size // 15, i + panels
            panels = max(1, _CALL_ROWS // math.prod(shape))
        kronrod, gauss = rules[0] if len(rules) == 1 else np.concatenate(rules, axis=1)
        val = half * kronrod
        return val, abs(val - half * gauss)

    def unwrap(x: np.ndarray):
        return x.item() if not shape else x  # one (N,) component gives scalars

    def failure(message: str) -> ConvergenceError:
        c = int(np.argmax(total_err / target))  # the worst component, or a NaN
        text = message.format(cfg=cfg, v=complex(total[c]), e=total_err[c], tgt=target[c],
                              where=f" in component {c}" if shape else "")
        return ConvergenceError(text, value=unwrap(total), error_estimate=unwrap(total_err))

    # overflow and NaN in the integrand surface as a non-finite total,
    # which raises below; numpy's own warnings for them would only repeat it
    with np.errstate(over="ignore", invalid="ignore"):
        lo, hi, heap, scale = edges[:-1], edges[1:], [], None
        total = total_err = 0.0
        while True:
            val, err = evaluate(lo, hi)  # one wave: the starting panels, then the children
            total, total_err = total + val.sum(axis=0), total_err + err.sum(axis=0)
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
                    break  # the last wave's panels are counted, never ranked
            if scale is None:  # a panel ranks by its worst component error in units of these
                scale = target
            keys = (-(err / scale).max(axis=1)).tolist()
            for entry in zip(keys, range(evaluated - len(lo), evaluated), lo, hi, val, err):
                heapq.heappush(heap, entry)
            room = cfg.max_nodes // _NODES_PER_PANEL - evaluated  # panels the budget allows
            if room < 2:
                raise failure(
                    "quadrature budget of {cfg.max_nodes} nodes exhausted at "
                    "error estimate {e:.3e}{where} (target {tgt:.3e})"
                )
            # pop the worst panels until their errors cover every component's excess
            # over its target, no more than one call can hold the children of
            excess, wave = total_err - target, []
            limit = min(max(1, _CALL_ROWS // (2 * math.prod(shape))), room // 2)
            while heap and len(wave) < limit and (excess > 0.0).any():
                wave.append(heapq.heappop(heap))
                excess = excess - wave[-1][-1]
            total = total - np.array([p[-2] for p in wave]).sum(axis=0)
            total_err = total_err - np.array([p[-1] for p in wave]).sum(axis=0)
            lo = [x for p in wave for x in (p[2], 0.5 * (p[2] + p[3]))]
            hi = [x for p in wave for x in (0.5 * (p[2] + p[3]), p[3])]

    if total.dtype.kind == "c" and not total.imag.any():
        total = total.real
    n_evals, n_panels = _NODES_PER_PANEL * evaluated, len(heap) + len(lo)
    return IntegrationResult(unwrap(total), unwrap(total_err), n_evals, n_panels)


@lru_cache(maxsize=None)
def _legendre_rule(order: int) -> tuple[np.ndarray, np.ndarray]:
    """The order-point Gauss-Legendre rule on [-1, 1], built once per order (read-only)."""
    x, w = np.polynomial.legendre.leggauss(order)
    x.flags.writeable = w.flags.writeable = False
    return x, w


def gauss_legendre_rule(
    a: float, b: float, n_panels: int, order: int = 15
) -> tuple[np.ndarray, np.ndarray]:
    """Composite Gauss-Legendre nodes and weights on [a, b].

    Fixed (non-adaptive) rule for vectorized batch evaluation: the
    interval is split into equal panels, each carrying an order-point
    Gauss-Legendre rule.  Returns flat arrays of ``n_panels * order``
    nodes and weights.
    """
    n_panels = require_int(n_panels, "n_panels", 1)
    order = require_int(order, "order", 2)
    x, w = _legendre_rule(order)
    edges = np.linspace(float(a), float(b), n_panels + 1)
    half = 0.5 * np.diff(edges)
    mid = 0.5 * (edges[:-1] + edges[1:])
    nodes = (mid[:, None] + half[:, None] * x[None, :]).ravel()
    weights = (half[:, None] * w[None, :]).ravel()
    return nodes, weights
