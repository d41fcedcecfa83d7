"""Independent verification procedures for every kernel in the package.

Each check recomputes a defining property of a kernel by a route sharing as
little code as possible with the production evaluator:

* finite-difference residuals of the generating PDEs (the spin-weighted
  ball operator on a disc lattice, by a fourth-order stencil at one
  lattice step for every spin weight; the radial hyperbolic heat operator
  on a (t, x) grid);
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

from .geometry import BallPoint, bergman_pairing, require_half_integer, require_int, twist_phase
from .kernels import _mode_u_max, maass_radial_profile
from .quadrature import QuadratureConfig, adaptive_gauss_kronrod, gauss_legendre_rule
from .radial_heat import _validate_t, hyperbolic_heat_kernel

__all__ = [
    "ResidualReport",
    "SymmetricOperatorSample",
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
    dim = require_int(dim, "dim", 1)
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim))
    m = -scale * (a @ a.T) / dim
    m = 0.5 * (m + m.T)
    return SymmetricOperatorSample(m)


def discrete_maass_operator(
    values: np.ndarray, coords: np.ndarray, step: float, kappa: float
) -> np.ndarray:
    """Fourth-order stencil for the spin-weighted ball operator (n = 1).

    Applies ``(1-|w|^2)^2 (v_xx + v_yy) + 4 kappa (1-|w|^2) i (Im(w) v_x -
    Re(w) v_y) + 4 kappa^2 (1-|w|^2) v`` by fourth-order central
    differences on a square lattice: ``v_xx ~ (-v[+2] + 16 v[+1] - 30 v[0]
    + 16 v[-1] - v[-2]) / (12 h^2)`` and ``v_x ~ (-v[+2] + 8 v[+1] - 8 v[-1]
    + v[-2]) / (12 h)``, the same along y.  The operator has no mixed
    derivative, so the stencil is a plus of reach 2.  ``values`` and
    ``coords`` are 2-D arrays over the lattice (axis 0 = Re w, axis 1 =
    Im w); returns the operator on the interior (both shapes shrink by 4).
    The first-derivative block is the Wirtinger combination ``4 kappa
    (1-|w|^2)(w d - conj(w) dbar)`` written out in real coordinates with
    d = (d_x - i d_y)/2.
    """
    kappa = require_half_integer(kappa)
    v = np.asarray(values)
    w = np.asarray(coords)
    if v.shape != w.shape or v.ndim != 2:
        raise ValueError("values and coords must be 2-D arrays of equal shape")
    h = float(step)
    nx, ny = v.shape

    def at(i: int, j: int) -> np.ndarray:
        # v shifted by (i, j) lattice steps, over the interior
        return v[2 + i : nx - 2 + i, 2 + j : ny - 2 + j]

    c = at(0, 0)
    vxx = (16.0 * (at(1, 0) + at(-1, 0)) - (at(2, 0) + at(-2, 0)) - 30.0 * c) / (12.0 * h * h)
    vyy = (16.0 * (at(0, 1) + at(0, -1)) - (at(0, 2) + at(0, -2)) - 30.0 * c) / (12.0 * h * h)
    vx = (8.0 * (at(1, 0) - at(-1, 0)) - (at(2, 0) - at(-2, 0))) / (12.0 * h)
    vy = (8.0 * (at(0, 1) - at(0, -1)) - (at(0, 2) - at(0, -2))) / (12.0 * h)
    wi = w[2:-2, 2:-2]
    one_m = 1.0 - (wi * wi.conjugate()).real
    return (
        one_m * one_m * (vxx + vyy)
        + 4.0 * kappa * one_m * 1j * (wi.imag * vx - wi.real * vy)
        + 4.0 * kappa * kappa * one_m * c
    )


# disc PDE check: report radius, the kernel's second argument (off the
# lattice, so no point sits at distance exactly 0) and the time step
_DISC_RADIUS = 0.8
_DISC_Y_BASE = 0.35
_DISC_T_STEP = 1e-3


def check_maass_pde(t: float, kappa: float, *, step: float = 0.03) -> ResidualReport:
    """Finite-difference residual of d/dt v = D_kappa v on the unit disc.

    Evaluates the spin-weighted kernel (substituted route, by far the
    smoothest) on the square lattice w = (i*step, j*step) with second
    argument fixed at y = 0.35, applies :func:`discrete_maass_operator` in
    space and a central difference in time, and reports, on |w| <= 0.8,
    the worst absolute residual plus the same normalized by max |d/dt v|
    over the grid (d/dt v changes sign inside any reasonable grid, so
    pointwise relative error is not a usable metric).  The stencil error
    is O(step^4) and grows with |kappa|; one step serves every kappa, and
    step must be in (0, 0.1).  Each time level is evaluated only at the
    points read: the level at t on the points the plus stencil reads
    around |w| <= 0.8 (the inner disc dilated by two lattice steps along
    each axis), the levels at t -/+ 1e-3 on |w| <= 0.8.  Mirror points
    (Im w -> -Im w) repeat distances, so each distinct distance of a level
    is evaluated once (1143, 1299 and 1143 of 3249 lattice points at step
    0.03, where the residual covers 2233 points).
    """
    kappa = require_half_integer(kappa)
    if not (t > _DISC_T_STEP):
        raise ValueError("need t > t_step for the central time stencil")
    if not (0.0 < step < 0.1):
        raise ValueError(f"step must be in (0, 0.1), got {step!r}")

    # two lattice steps beyond the report radius hold the stencil's reach
    m = int(math.floor(_DISC_RADIUS / step + 1e-9)) + 2
    axis = step * np.arange(-m, m + 1)
    wx, wy = np.meshgrid(axis, axis, indexing="ij")
    w = wx + 1j * wy

    # the stencil reads the level at t on the inner disc dilated by its
    # plus of reach 2 (the inner disc keeps two lattice points from each
    # edge, so no shift wraps round), the residual the levels at t -/+
    # t_step on the inner disc; the lattice corners leave the unit disc.
    # Unread entries stay NaN, so a read outside these sets would void the
    # report, not skew it.
    inner = np.abs(w) <= _DISC_RADIUS
    read = inner.copy()
    for shift in (-2, -1, 1, 2):
        read |= np.roll(inner, shift, axis=0) | np.roll(inner, shift, axis=1)
    dists = np.full(w.shape, np.nan)
    phase = np.full(w.shape, np.nan, dtype=complex)
    d_read, twist = bergman_pairing((w[read],), (_DISC_Y_BASE,))
    dists[read], phase[read] = d_read, twist_phase(twist, kappa)

    levels = {}
    for tl, mask in ((t - _DISC_T_STEP, inner), (t, read), (t + _DISC_T_STEP, inner)):
        distinct, where = np.unique(dists[mask], return_inverse=True)
        levels[tl] = np.full(w.shape, np.nan, dtype=complex)
        levels[tl][mask] = phase[mask] * maass_radial_profile(tl, 1, kappa, distinct)[where]

    dt_v = (levels[t + _DISC_T_STEP] - levels[t - _DISC_T_STEP]) / (2.0 * _DISC_T_STEP)
    dt_v = dt_v[2:-2, 2:-2]
    op_v = discrete_maass_operator(levels[t], w, step, kappa)

    core = inner[2:-2, 2:-2]
    resid = np.abs(dt_v - op_v)[core]
    dt_scale = float(np.abs(dt_v[core]).max())
    max_abs = float(resid.max())
    return ResidualReport(
        max_abs_residual=max_abs,
        max_rel_residual=max_abs / dt_scale,
        grid_spec=(
            f"disc |w| <= {_DISC_RADIUS}, step {step}, y = {_DISC_Y_BASE}, "
            f"{int(core.sum())} points"
        ),
        config_echo={
            "t": t,
            "kappa": kappa,
            "radius": _DISC_RADIUS,
            "step": step,
            "y_base": _DISC_Y_BASE,
            "t_step": _DISC_T_STEP,
        },
    )


def check_radial_heat_pde(n: int = 1) -> ResidualReport:
    """Finite-difference residual of d/dt q = q'' + 2n coth(x) q' on H^(2n+1).

    Central differences with step h = 1e-3 in both variables on an 8 x 24
    grid over t in [0.3, 2] and x in [0.2, 4].  The x range stays >= 0.2:
    closer to the removable singularity at 0 the stencil would need the
    even extension.  Relative residual is normalized by max |d/dt q| over
    the grid (d/dt q has a zero curve inside the grid, so a pointwise
    quotient is not meaningful).
    """
    t_lo, t_hi, n_t, n_x = 0.3, 2.0, 8, 24
    x_lo, x_hi, h = 0.2, 4.0, 1e-3
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
    t = _validate_t(t)
    lam, u = np.linalg.eigh(sample.matrix)
    s = np.sqrt(np.clip(-lam, 0.0, None))

    # cut the Gaussian weight where it falls below ~1e-11 * e^-10
    x_max = 2.0 * math.sqrt(t * (math.log(1e11) + 10.0))
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


def check_semigroup_k0(t: float, s: float, z: BallPoint) -> ResidualReport:
    """Chapman-Kolmogorov identity for the k = 0 ball kernel (n = 1).

    Computes ``int_disc v_t(0, y) v_s(y, z) dvol(y)`` by a tensor
    Gauss-Legendre rule in geodesic polar coordinates (the Bergman volume
    element is sinh(rho) cosh(rho) drho dphi) and compares with
    ``v_{t+s}(0, z)``.  The rule stops by rho = 16, where tanh rho < 1 still
    and the profile at t = 2 is e^-32 of its peak, so t and s must be <= 2.
    The rule is placed on z's ray (phi = 0 along z), where v_s(y, z) is
    even in phi; the mirrored half of the angles is profiled once, on its
    distinct distances.
    """
    if z.n != 1:
        raise ValueError("semigroup check runs on the 1-dimensional ball")
    if z.norm > 0.6:
        raise ValueError("base point must satisfy |z| <= 0.6")
    t, s = _validate_t(t), _validate_t(s)
    if max(t, s) > 2.0:
        raise ValueError(f"semigroup check needs t, s <= 2, got t={t!r}, s={s!r}")

    z0 = z.coords[0]
    d_z = float(bergman_pairing((0.0,), z.coords)[0])
    rho_max = min(16.0, math.sqrt(160.0 * max(t, s)) + d_z + 1.0)
    n_rho, n_phi = 200, 128
    rho, w_rho = gauss_legendre_rule(0.0, rho_max, 1, order=n_rho)
    phi, w_phi = gauss_legendre_rule(0.0, 2.0 * math.pi, 1, order=n_phi)

    v_t = maass_radial_profile(t, 1, 0.0, rho)

    # phi = 0 lies on z's ray, so the symmetric nodes j and n_phi - 1 - j sit
    # at one distance from z: pair and profile the first half, mirror the
    # rest.  tanh rho < 1 keeps every node inside the disc.
    ray = z0 / abs(z0) if z0 else 1.0
    y = np.tanh(rho)[:, None] * (np.exp(1j * phi[: n_phi // 2]) * ray)[None, :]
    distinct, where = np.unique(bergman_pairing((y,), z.coords)[0], return_inverse=True)
    half = maass_radial_profile(s, 1, 0.0, distinct)[where].reshape(y.shape)
    v_s = np.hstack([half, half[:, ::-1]])

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
    n = require_int(n, "dimension parameter n", 1)
    if n > 2:
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
    """Run the named check suites and grade each against its threshold.

    Suites run in the order given, each once, at its first position; a name
    outside :data:`DEFAULT_SUITES` raises ``ValueError``, as do a bare string
    in place of the sequence and a ``seed`` that is not an integer >= 0,
    whatever the suites.  Deterministic given
    ``seed`` (used only by the subordination samples).  Thresholds
    are the acceptance-level ones: spin-weighted PDE 1e-3 relative, radial
    PDE 1e-4 relative, subordination 1e-8 spectral-norm, semigroup 1e-3
    relative, mass 1e-6 (n = 1) / 1e-5 (n = 2).
    """
    seed = require_int(seed, "seed", 0)
    if isinstance(suites, str):
        raise ValueError(f"suites must be a sequence of suite names, got the string {suites!r}")
    unknown = sorted(set(suites) - set(DEFAULT_SUITES))
    if unknown:
        raise ValueError(f"unknown suite(s) {unknown}; choose from {', '.join(DEFAULT_SUITES)}")
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

    for suite in dict.fromkeys(suites):
        if suite == "maass-pde":
            for kappa in (0.0, 0.5, 1.0):
                for t in (0.8, 1.0):
                    rep = check_maass_pde(t, kappa)
                    add(f"maass_pde_kappa{kappa:g}_t{t:g}", rep, rep.max_rel_residual, 1e-3)
        elif suite == "radial-pde":
            for n in (1, 2, 3):
                rep = check_radial_heat_pde(n=n)
                add(f"radial_heat_pde_n{n}", rep, rep.max_rel_residual, 1e-4)
        elif suite == "subordination":
            for t in (0.5, 1.0):
                rep = check_subordination(random_negative_semidefinite(5, seed), t)
                add(f"subordination_t{t:g}", rep, rep.max_abs_residual, 1e-8)
        elif suite == "semigroup":
            for t, s, z0 in ((0.5, 0.5, 0.0), (0.3, 0.7, 0.4)):
                rep = check_semigroup_k0(t, s, BallPoint((complex(z0),)))
                add(f"semigroup_t{t:g}_s{s:g}_z{z0:g}", rep, rep.max_rel_residual, 1e-3)
        elif suite == "normalization":
            for t, n, thr in ((1.0, 1, 1e-6), (0.25, 1, 1e-6), (1.0, 2, 1e-5)):
                rep = check_normalization_k0(t, n)
                add(f"normalization_n{n}_t{t:g}", rep, rep.max_abs_residual, thr)
    return rows
