"""Independent verification procedures for every kernel in the package.

Each check recomputes a defining property of a kernel by a route sharing as
little code as possible with the production evaluator:

* finite-difference residuals of the generating PDEs (the spin-weighted
  ball operator on a disc lattice, the radial hyperbolic heat operator on
  a (t, x) grid);
* total-mass (stochastic completeness) and Chapman-Kolmogorov semigroup
  identities against the Bergman volume measure;
* the wave-to-heat subordination identity ``e^{tL} = (4 pi t)^{-1/2}
  int e^{-x^2/(4t)} cos(x sqrt(-L)) dx`` on seeded random
  negative-semidefinite matrices, where the matrix exponential is an
  exact oracle.

Checks return a :class:`ResidualReport`; thresholds live with the callers
(the CLI's verify command and the acceptance suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Any

import numpy as np

from .geometry import BallPoint, disc_distance, require_half_integer
from .kernels import _mode_u_max, maass_radial_profile
from .quadrature import QuadratureConfig, adaptive_gauss_kronrod, gauss_legendre_rule
from .radial_heat import _validate_t, hyperbolic_heat_kernel

__all__ = [
    "ResidualReport",
    "DiscGrid",
    "SymmetricOperatorSample",
    "ConfigurationError",
    "random_negative_semidefinite",
    "discrete_maass_operator",
    "check_maass_pde",
    "check_radial_heat_pde",
    "check_subordination",
    "check_semigroup_k0",
    "check_normalization_k0",
    "CheckOutcome",
    "run_default_suite",
    "DEFAULT_SUITES",
]


class ConfigurationError(ValueError):
    """A check was configured inconsistently (e.g. grid too coarse for the
    requested tolerance); carries a suggested fix when one exists."""

    def __init__(self, message: str, *, suggested_step: float | None = None):
        super().__init__(message)
        self.suggested_step = suggested_step


@dataclass(frozen=True)
class ResidualReport:
    max_abs_residual: float
    max_rel_residual: float
    grid_spec: str
    config_echo: dict[str, Any] = field(default_factory=dict)

    def __post_init__(self) -> None:
        for name in ("max_abs_residual", "max_rel_residual"):
            v = getattr(self, name)
            if not (math.isfinite(v) and v >= 0.0):
                raise ValueError(f"{name} must be finite and >= 0, got {v!r}")


@dataclass(frozen=True)
class DiscGrid:
    """Square lattice on the unit disc for the spin-weighted PDE check.

    Lattice points w = (i*step, j*step); the residual is reported on
    |w| <= radius, with one extra ring kept so every reported point has
    all four stencil neighbors.  ``y_base`` (on the real axis, off-lattice
    by default so the kernel is never sampled at distance exactly 0) is
    the fixed second argument of the kernel; ``t_step`` is the central
    time-difference step.
    """

    radius: float = 0.8
    step: float = 0.02
    y_base: float = 0.35
    t_step: float = 1e-3

    def __post_init__(self) -> None:
        if not (0.0 < self.radius < 1.0):
            raise ValueError(f"radius must be in (0, 1), got {self.radius!r}")
        if not (0.0 < self.step <= self.radius / 4.0):
            raise ValueError(f"step must be in (0, radius/4], got {self.step!r}")
        if not (0.0 <= abs(self.y_base) < 1.0):
            raise ValueError(f"y_base must satisfy |y_base| < 1, got {self.y_base!r}")
        if self.radius + 2.0 * self.step >= 1.0:
            raise ValueError("radius + 2*step must stay inside the unit disc")
        if not (0.0 < self.t_step < 0.1):
            raise ValueError(f"t_step must be in (0, 0.1), got {self.t_step!r}")


@dataclass(frozen=True)
class SymmetricOperatorSample:
    """A real symmetric negative-semidefinite matrix at desk scale."""

    matrix: np.ndarray

    def __post_init__(self) -> None:
        m = np.asarray(self.matrix, dtype=float)
        if m.ndim != 2 or m.shape[0] != m.shape[1] or m.shape[0] < 1:
            raise ValueError(f"matrix must be square, got shape {m.shape}")
        scale = max(1.0, float(np.abs(m).max()))
        if float(np.abs(m - m.T).max()) > 1e-14 * scale:
            raise ValueError("matrix is not symmetric to 1e-14")
        if float(np.linalg.eigvalsh(m).max()) > 1e-12:
            raise ValueError("matrix has an eigenvalue above 1e-12; not negative-semidefinite")
        object.__setattr__(self, "matrix", m)

    @property
    def dim(self) -> int:
        return self.matrix.shape[0]


def random_negative_semidefinite(dim: int, seed: int = 42, scale: float = 1.0) -> SymmetricOperatorSample:
    """Seeded random sample ``-scale * A A^T / dim`` with standard normal A."""
    if dim < 1:
        raise ValueError(f"dim must be >= 1, got {dim!r}")
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    m = -scale * (a @ a.T) / dim
    m = 0.5 * (m + m.T)
    return SymmetricOperatorSample(m)


def discrete_maass_operator(
    values: np.ndarray, coords: np.ndarray, step: float, kappa: float
) -> np.ndarray:
    """Second-order stencil for the spin-weighted ball operator (n = 1).

    Applies ``(1-|w|^2)^2 (v_xx + v_yy) + 4 kappa (1-|w|^2) i (Im(w) v_x -
    Re(w) v_y) + 4 kappa^2 (1-|w|^2) v`` by central differences on a square
    lattice.  ``values`` and ``coords`` are 2-D arrays over the lattice
    (axis 0 = Re w, axis 1 = Im w); returns the operator on the interior
    (both shapes shrink by 2).  The first-derivative block is the Wirtinger
    combination ``4 kappa (1-|w|^2)(w d - conj(w) dbar)`` written out in
    real coordinates with d = (d_x - i d_y)/2.
    """
    kappa = require_half_integer(kappa)
    v = np.asarray(values)
    w = np.asarray(coords)
    if v.shape != w.shape or v.ndim != 2:
        raise ValueError("values and coords must be 2-D arrays of equal shape")
    h = float(step)
    c = v[1:-1, 1:-1]
    vxx = (v[2:, 1:-1] - 2.0 * c + v[:-2, 1:-1]) / (h * h)
    vyy = (v[1:-1, 2:] - 2.0 * c + v[1:-1, :-2]) / (h * h)
    vx = (v[2:, 1:-1] - v[:-2, 1:-1]) / (2.0 * h)
    vy = (v[1:-1, 2:] - v[1:-1, :-2]) / (2.0 * h)
    wi = w[1:-1, 1:-1]
    one_m = 1.0 - (wi * wi.conjugate()).real
    return (
        one_m * one_m * (vxx + vyy)
        + 4.0 * kappa * one_m * 1j * (wi.imag * vx - wi.real * vy)
        + 4.0 * kappa * kappa * one_m * c
    )


# stencil-error budgets: measured residual / step^2 on the default grids
# with a little headroom; used only to reject configurations that cannot
# reach a requested tolerance.  The disc budget grows with the spin weight
# because the phase factor makes the field more oscillatory.
def _maass_stencil_budget(kappa: float) -> float:
    return 6.0 + 14.0 * kappa * kappa


def _radial_stencil_budget(n: int) -> float:
    return 25.0 + 35.0 * (n - 1)


def _coarse_grid_guard(step: float, budget: float, target_rel: float | None) -> None:
    if target_rel is None:
        return
    predicted = budget * step * step
    if predicted > target_rel:
        suggested = 0.9 * math.sqrt(target_rel / budget)
        raise ConfigurationError(
            f"grid step {step:g} predicts a stencil residual ~{predicted:.2e}, "
            f"above the requested {target_rel:.2e}; use step <= {suggested:.2e}",
            suggested_step=suggested,
        )


def check_maass_pde(
    t: float,
    kappa: float,
    grid: DiscGrid | None = None,
    *,
    target_rel: float | None = None,
) -> ResidualReport:
    """Finite-difference residual of d/dt v = D_kappa v on the unit disc.

    Evaluates the spin-weighted kernel (substituted route, by far the
    smoothest) with second argument fixed at ``grid.y_base``, applies
    :func:`discrete_maass_operator` in space and a central difference in
    time, and reports the worst absolute residual plus the same normalized
    by max |d/dt v| over the grid (d/dt v changes sign inside any
    reasonable grid, so pointwise relative error is not a usable metric).
    """
    g = grid or DiscGrid()
    kappa = require_half_integer(kappa)
    if not (t > g.t_step):
        raise ConfigurationError("need t > t_step for the central time stencil")
    _coarse_grid_guard(g.step, _maass_stencil_budget(kappa), target_rel)

    m = int(math.floor((g.radius + g.step) / g.step + 1e-9))
    axis = g.step * np.arange(-m, m + 1)
    wx, wy = np.meshgrid(axis, axis, indexing="ij")
    w = wx + 1j * wy

    # corners of the square lattice leave the unit disc; those points are
    # never read (stencils only touch |w| <= radius + step) but must not
    # poison the vectorized distance computation, so they get distance 0
    valid = (w * w.conjugate()).real < 0.9
    y0 = complex(g.y_base)
    dists = np.where(valid, disc_distance(np.where(valid, w, 0.0), y0), 0.0)
    phase = np.exp(-2j * kappa * np.angle(1.0 - w * np.conjugate(y0)))

    levels = {}
    for tl in (t - g.t_step, t, t + g.t_step):
        prof = maass_radial_profile(tl, 1, kappa, dists.ravel()).reshape(dists.shape)
        levels[tl] = phase * prof

    dt_v = (levels[t + g.t_step] - levels[t - g.t_step]) / (2.0 * g.t_step)
    op_v = discrete_maass_operator(levels[t], w, g.step, kappa)

    inner = (np.abs(w) <= g.radius)[1:-1, 1:-1]
    resid = np.abs(dt_v[1:-1, 1:-1] - op_v)[inner]
    dt_scale = float(np.abs(dt_v[1:-1, 1:-1][inner]).max())
    max_abs = float(resid.max())
    return ResidualReport(
        max_abs_residual=max_abs,
        max_rel_residual=max_abs / dt_scale,
        grid_spec=(
            f"disc |w| <= {g.radius}, step {g.step}, y = {g.y_base}, "
            f"{int(inner.sum())} points"
        ),
        config_echo={
            "t": t,
            "kappa": kappa,
            "radius": g.radius,
            "step": g.step,
            "y_base": g.y_base,
            "t_step": g.t_step,
        },
    )


def check_radial_heat_pde(
    t_range: tuple[float, float] = (0.3, 2.0),
    x_range: tuple[float, float] = (0.2, 4.0),
    n: int = 1,
    *,
    h: float = 1e-3,
    n_t: int = 8,
    n_x: int = 24,
    target_rel: float | None = None,
) -> ResidualReport:
    """Finite-difference residual of d/dt q = q'' + 2n coth(x) q' on H^(2n+1).

    Central differences with step ``h`` in both variables.  The x range
    must stay >= 0.2: closer to the removable singularity at 0 the stencil
    would need the even extension.  Relative residual is normalized by
    max |d/dt q| over the grid (d/dt q has a zero curve inside the default
    grid, so a pointwise quotient is not meaningful).
    """
    t_lo, t_hi = float(t_range[0]), float(t_range[1])
    x_lo, x_hi = float(x_range[0]), float(x_range[1])
    if x_lo < 0.2:
        raise ConfigurationError(
            "x range must start at 0.2 or above (stencil stability near the "
            "removable singularity at x = 0)"
        )
    if not (0.0 < h < 0.1 * min(x_lo, t_lo)):
        raise ConfigurationError(f"step h = {h!r} too large for the requested ranges")
    if not (0.0 < t_lo - h and t_lo < t_hi and x_lo < x_hi):
        raise ConfigurationError("invalid t/x ranges")
    _coarse_grid_guard(h, _radial_stencil_budget(n), target_rel)

    ts = np.linspace(t_lo, t_hi, n_t)
    xs = np.linspace(x_lo, x_hi, n_x)
    coth = 1.0 / np.tanh(xs)
    max_abs = 0.0
    dt_scale = 0.0
    for t in ts:
        q_c = hyperbolic_heat_kernel(t, n, xs)
        q_xp = hyperbolic_heat_kernel(t, n, xs + h)
        q_xm = hyperbolic_heat_kernel(t, n, xs - h)
        q_tp = hyperbolic_heat_kernel(t + h, n, xs)
        q_tm = hyperbolic_heat_kernel(t - h, n, xs)
        dt_q = (q_tp - q_tm) / (2.0 * h)
        dxx_q = (q_xp - 2.0 * q_c + q_xm) / (h * h)
        dx_q = (q_xp - q_xm) / (2.0 * h)
        resid = np.abs(dt_q - (dxx_q + 2.0 * n * coth * dx_q))
        max_abs = max(max_abs, float(resid.max()))
        dt_scale = max(dt_scale, float(np.abs(dt_q).max()))
    return ResidualReport(
        max_abs_residual=max_abs,
        max_rel_residual=max_abs / dt_scale,
        grid_spec=f"t in [{t_lo}, {t_hi}] x [{x_lo}, {x_hi}], {n_t} x {n_x} points, h = {h:g}",
        config_echo={"n": n, "h": h, "n_t": n_t, "n_x": n_x},
    )


def check_subordination(
    sample: SymmetricOperatorSample,
    t: float,
    config: QuadratureConfig | None = None,
    *,
    n_nodes: int = 64,
) -> ResidualReport:
    """Wave-to-heat subordination against the matrix-exponential oracle.

    Evaluates ``(4 pi t)^{-1/2} int_R e^{-x^2/(4t)} cos(x sqrt(-L)) dx``
    through the eigendecomposition of L and a fixed Gauss-Legendre rule,
    and compares to ``e^{tL}`` in the spectral norm.  At t = 1 the Gaussian
    weight is ``e^{-x^2/4}``; for other t the weight must scale as
    ``e^{-x^2/(4t)}`` for both sides to match (the closed form of the
    Gaussian cosine transform is exp(-s^2 t)).
    """
    cfg = config or QuadratureConfig()
    t = _validate_t(t)
    lam, u = np.linalg.eigh(sample.matrix)
    s = np.sqrt(np.clip(-lam, 0.0, None))

    x_max = 2.0 * math.sqrt(t * (math.log(1.0 / cfg.abs_tol) + 10.0))
    x, wts = gauss_legendre_rule(0.0, x_max, 1, order=int(n_nodes))
    weight = np.exp(-x * x / (4.0 * t))
    # cos table: (n_nodes, dim); factor 2 for the even half-line reduction
    g = (2.0 / math.sqrt(4.0 * math.pi * t)) * (
        (wts * weight) @ np.cos(np.outer(x, s))
    )
    rhs = (u * g) @ u.T
    lhs = (u * np.exp(t * lam)) @ u.T
    diff = float(np.linalg.norm(rhs - lhs, 2))
    return ResidualReport(
        max_abs_residual=diff,
        max_rel_residual=diff / float(np.linalg.norm(lhs, 2)),
        grid_spec=f"Gauss-Legendre {n_nodes} nodes on [0, {x_max:.3f}]",
        config_echo={"t": t, "dim": sample.dim, "n_nodes": n_nodes},
    )


def check_semigroup_k0(
    t: float,
    s: float,
    z: BallPoint,
    *,
    n_rho: int = 200,
    n_phi: int = 128,
) -> ResidualReport:
    """Chapman-Kolmogorov identity for the k = 0 ball kernel (n = 1).

    Computes ``int_disc v_t(0, y) v_s(y, z) dvol(y)`` by a tensor
    Gauss-Legendre rule in geodesic polar coordinates (the Bergman volume
    element is sinh(rho) cosh(rho) drho dphi) and compares with
    ``v_{t+s}(0, z)``.
    """
    if z.n != 1:
        raise ValueError("semigroup check runs on the 1-dimensional ball")
    if z.norm > 0.6:
        raise ValueError("base point must satisfy |z| <= 0.6")
    t, s = _validate_t(t), _validate_t(s)

    z0 = z.coords[0]
    d_z = math.atanh(abs(z0))
    rho_max = math.sqrt(160.0 * max(t, s)) + d_z + 1.0
    rho, w_rho = gauss_legendre_rule(0.0, rho_max, 1, order=int(n_rho))
    phi, w_phi = gauss_legendre_rule(0.0, 2.0 * math.pi, 1, order=int(n_phi))

    v_t = maass_radial_profile(t, 1, 0.0, rho)

    # nodes run out to |y| -> 1, so the distances are taken unmasked
    y = np.tanh(rho)[:, None] * np.exp(1j * phi)[None, :]
    d2 = disc_distance(y, z0)
    v_s = maass_radial_profile(s, 1, 0.0, d2.ravel()).reshape(d2.shape)

    jac = (np.sinh(rho) * np.cosh(rho) * w_rho)[:, None] * w_phi[None, :]
    conv = float((v_t[:, None] * v_s * jac).sum())
    direct = float(maass_radial_profile(t + s, 1, 0.0, np.array([d_z]))[0])
    diff = abs(conv - direct)
    return ResidualReport(
        max_abs_residual=diff,
        max_rel_residual=diff / abs(direct),
        grid_spec=f"polar tensor rule {n_rho} x {n_phi}, rho_max = {rho_max:.3f}",
        config_echo={"t": t, "s": s, "z": [z0.real, z0.imag], "n_rho": n_rho, "n_phi": n_phi},
    )


def check_normalization_k0(t: float, n: int) -> ResidualReport:
    """Total mass of the k = 0 ball kernel against the Bergman measure.

    Radial reduction: ``int v_t(0, y) dvol(y) = c_n int_0^inf V_t(rho)
    sinh^(2n-1)(rho) cosh(rho) drho`` with ``c_n = 2 pi^n / (n-1)!``
    (for n = 1 this is the classical pi sinh(2 rho) element); the mass of
    a stochastically complete heat kernel is exactly 1.
    """
    t = _validate_t(t)
    if n not in (1, 2):
        raise ValueError("normalization check supports n in {1, 2}")
    c_n = 2.0 * math.pi**n / math.factorial(n - 1)
    rho_max = _mode_u_max(t, n, 1e-12)

    def integrand(rho: np.ndarray) -> np.ndarray:
        v = maass_radial_profile(t, n, 0.0, rho)
        return c_n * v * np.sinh(rho) ** (2 * n - 1) * np.cosh(rho)

    res = adaptive_gauss_kronrod(
        integrand, 0.0, rho_max, QuadratureConfig(abs_tol=1e-9, rel_tol=1e-9)
    )
    mass = float(np.real(res.value))
    diff = abs(mass - 1.0)
    return ResidualReport(
        max_abs_residual=diff,
        max_rel_residual=diff,
        grid_spec=f"adaptive radial quadrature on [0, {rho_max:.3f}]",
        config_echo={"t": t, "n": n, "mass": mass},
    )


@dataclass(frozen=True)
class CheckOutcome:
    """One row of the verification report."""

    name: str
    passed: bool
    max_abs_residual: float
    max_rel_residual: float
    config_echo: dict[str, Any]


DEFAULT_SUITES = ("maass-pde", "radial-pde", "subordination", "semigroup", "normalization")


def run_default_suite(
    suites: tuple[str, ...] | list[str] = DEFAULT_SUITES, seed: int = 42
) -> list[CheckOutcome]:
    """Run the canonical check battery and grade each against its threshold.

    Deterministic given ``seed`` (used only by the subordination samples).
    Thresholds are the acceptance-level ones: spin-weighted PDE 5e-3
    relative, radial PDE 1e-4 relative, subordination 1e-8 spectral-norm,
    semigroup 1e-3 relative, mass 1e-6 (n = 1) / 1e-5 (n = 2).
    """
    unknown = set(suites) - set(DEFAULT_SUITES)
    if unknown:
        raise ValueError(f"unknown suite names: {sorted(unknown)}")
    rows: list[CheckOutcome] = []

    def add(name: str, report: ResidualReport, metric: float, threshold: float) -> None:
        echo = dict(report.config_echo)
        echo["threshold"] = threshold
        echo["grid_spec"] = report.grid_spec
        rows.append(
            CheckOutcome(
                name=name,
                passed=bool(metric <= threshold),
                max_abs_residual=report.max_abs_residual,
                max_rel_residual=report.max_rel_residual,
                config_echo=echo,
            )
        )

    if "maass-pde" in suites:
        for kappa in (0.0, 0.5, 1.0):
            for t in (0.8, 1.0):
                # the weight-1 field oscillates faster; refine the lattice
                # so the O(h^2) stencil error keeps the same headroom
                grid = DiscGrid(step=0.01) if kappa == 1.0 else DiscGrid()
                rep = check_maass_pde(t, kappa, grid)
                add(
                    f"maass_pde_kappa{kappa:g}_t{t:g}",
                    rep,
                    rep.max_rel_residual,
                    5e-3,
                )
    if "radial-pde" in suites:
        for n in (1, 2, 3):
            rep = check_radial_heat_pde(n=n)
            add(f"radial_heat_pde_n{n}", rep, rep.max_rel_residual, 1e-4)
    if "subordination" in suites:
        for t in (0.5, 1.0):
            rep = check_subordination(random_negative_semidefinite(5, seed), t)
            add(f"subordination_t{t:g}", rep, rep.max_abs_residual, 1e-8)
    if "semigroup" in suites:
        for t, s, z0 in ((0.5, 0.5, 0.0), (0.3, 0.7, 0.4)):
            rep = check_semigroup_k0(t, s, BallPoint((complex(z0),)))
            add(f"semigroup_t{t:g}_s{s:g}_z{z0:g}", rep, rep.max_rel_residual, 1e-3)
    if "normalization" in suites:
        for t, n, thr in ((1.0, 1, 1e-6), (0.25, 1, 1e-6), (1.0, 2, 1e-5)):
            rep = check_normalization_k0(t, n)
            add(f"normalization_n{n}_t{t:g}", rep, rep.max_abs_residual, thr)
    return rows
