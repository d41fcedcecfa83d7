"""Heat kernels on the Bergman ball and its circle-fibered AdS extension.

Three kernels are evaluated here.

* The spin-weighted (generalized Maass) heat kernel ``v_{t,n,kappa}(w, y)``
  on the ball, by two independent quadrature routes:

  - ``maass_kernel_substituted``: phase * 2 * int_0^inf q_t(x(u)) *
    cosh(2 kappa u) du with x(u) = arccosh(cosh u * cosh d), the form the
    cosh-product change of variables produces.  Smooth everywhere,
    including u = 0 and d = 0; this is the production route.
  - ``maass_kernel_direct``: phase * 2 * int_d^inf sinh(x) * N(x) * q_t(x)
    dx with N the Chebyshev-over-square-root factor from
    :func:`adsheat.special.spectral_cosh_factor`.  The integrable
    1/sqrt(x - d) endpoint singularity is removed by x = d + r^2.  Kept as
    independent validation hardware; near the diagonal (d < 1e-8) it
    delegates to the substituted route.

  Here q_t is the radial heat kernel of H^(2n+1) and d the Bergman
  distance; the two routes share nothing past q_t itself.

* The subelliptic heat kernel of the fibered AdS space over the ball,
  again by two routes: the Fourier series over fiber modes
  ``sum_k v_{t,n,k/2}(w,y) e^{-ik theta} e^{-t k^2}`` (density against the
  reference measure ``dy/(1-|y|^2)^(n+1) * dtheta/(2 pi)``), and the
  shifted-Gaussian integral representation
  ``(4 pi t)^(-1/2) sum_k int_R exp((u - i theta - 2 i k pi)^2 / 4t)
  q_t(x(u)) du`` stated at base point w = 0.  The integral form equals the
  series divided by 2 pi; their agreement is the central cross-check of
  this package.

* ``theta_identity_lhs`` / ``theta_identity_rhs``: the two sides of the
  Poisson-summation bridge between those routes,
  ``sum_k exp((u - i theta - 2 i k pi)^2/(4t)) = sqrt(t/pi) sum_k
  e^{-t k^2} e^{k(u - i theta)}``.

Numerical strategy: every integrand that pairs the Gaussian core of q_t
with exponential growth (cosh modes, shifted complex squares) is evaluated
through :func:`hyperbolic_heat_kernel_scaled` with the exponents combined
analytically, so no inf * 0 can form; damped series modes fold the
``e^{-t k^2}`` factor into the same exponent, which makes the combined
exponent globally <= 0 and mode evaluation stable for every k.
"""

from __future__ import annotations

import math
import warnings
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from .geometry import (
    BallPoint,
    FiberAngle,
    hyperbolic_distance,
    phase_factor,
    require_half_integer,
    twist_angle,
)
from .quadrature import (
    ConvergenceError,
    QuadratureConfig,
    adaptive_gauss_kronrod,
    gauss_legendre_rule,
)
from .radial_heat import (
    _validate_n,
    _validate_t,
    hyperbolic_heat_kernel,
    hyperbolic_heat_kernel_scaled,
)
from .special import spectral_cosh_factor

__all__ = [
    "MaassKernelQuery",
    "AdsKernelQuery",
    "SeriesConfig",
    "AdsSeriesResult",
    "maass_kernel_substituted",
    "maass_kernel_direct",
    "maass_radial_profile",
    "ads_kernel_series",
    "ads_kernel_series_detail",
    "ads_kernel_integral",
    "theta_identity_lhs",
    "theta_identity_rhs",
]

# below this distance the direct route's endpoint substitution is noise
DIRECT_ROUTE_MIN_DISTANCE = 1e-8

# hard stop for the fiber-mode sum; generous: damped modes die like e^(-2ntk)
MAX_FIBER_MODES = 256

# t * (2 kappa)^2 beyond which the undamped kernel overflows double range
_UNDAMPED_EXP_LIMIT = 690.0


def _undamped_mode(t: float, kappa: float) -> int:
    """Mode number m = 2|kappa|, after checking e^{t m^2} fits in a double."""
    m = int(round(2.0 * abs(kappa)))
    if t * m * m > _UNDAMPED_EXP_LIMIT:
        raise ValueError(
            f"kernel magnitude ~exp(t (2 kappa)^2) = exp({t * m * m:.3g}) "
            "exceeds double-precision range; only the damped fiber series "
            "is computable this deep"
        )
    return m


@contextmanager
def _labelled(label: str) -> Iterator[None]:
    """Prefix a ConvergenceError raised inside the block with ``label``."""
    try:
        yield
    except ConvergenceError as exc:
        raise ConvergenceError(
            f"{label}: {exc}", value=exc.value, error_estimate=exc.error_estimate
        ) from exc


def _validate_query(query) -> None:
    """Coerce and check the (t, n, w, y) fields every kernel query carries."""
    object.__setattr__(query, "t", _validate_t(query.t))
    object.__setattr__(query, "n", _validate_n(query.n))
    if not isinstance(query.w, BallPoint) or not isinstance(query.y, BallPoint):
        raise ValueError("w and y must be BallPoint instances")
    if query.w.n != query.n or query.y.n != query.n:
        raise ValueError(
            f"points have dimension {query.w.n}/{query.y.n}, query says n={query.n}"
        )


@dataclass(frozen=True)
class MaassKernelQuery:
    """Arguments (t, n, kappa, w, y) of the spin-weighted ball kernel."""

    t: float
    n: int
    kappa: float
    w: BallPoint
    y: BallPoint

    def __post_init__(self) -> None:
        _validate_query(self)
        object.__setattr__(self, "kappa", require_half_integer(self.kappa))


@dataclass(frozen=True)
class AdsKernelQuery:
    """Arguments (t, n, w, y, theta) of the fibered subelliptic kernel."""

    t: float
    n: int
    w: BallPoint
    y: BallPoint
    theta: FiberAngle

    def __post_init__(self) -> None:
        _validate_query(self)
        if not isinstance(self.theta, FiberAngle):
            object.__setattr__(self, "theta", FiberAngle(self.theta))

    @property
    def theta_eff(self) -> float:
        """``theta + Arg(1 - <w,y>)``: the fiber angle the mode phases see."""
        return self.theta.theta + twist_angle(self.w, self.y)


@dataclass(frozen=True)
class SeriesConfig:
    """Truncation control for the fiber-mode series.

    ``eps_tail`` bounds the absolute size of the first omitted damped mode
    pair; ``k_max_override`` pins the largest |k| instead (no adaptivity).
    """

    eps_tail: float = 1e-9
    k_max_override: int | None = None

    def __post_init__(self) -> None:
        if not (0.0 < self.eps_tail < 1.0):
            raise ValueError(f"eps_tail must be in (0, 1), got {self.eps_tail!r}")
        if self.k_max_override is not None:
            k = self.k_max_override
            if not isinstance(k, int) or isinstance(k, bool) or k < 0:
                raise ValueError(f"k_max_override must be an int >= 0, got {k!r}")


@dataclass(frozen=True)
class AdsSeriesResult:
    """Series value plus truncation diagnostics.

    ``modes_used`` is the largest |k| summed (2*modes_used + 1 terms);
    ``tail_estimate`` bounds the dropped tail by geometric extrapolation of
    the last included pair; ``envelope_violated`` flags that some mode
    magnitude |v_k| exceeded |v_0| + 1, i.e. the heuristic bound behind the
    baseline truncation formula failed and the adaptive extension did the
    real work.  Undamped modes grow like e^{t k^2 - 2 n t k}, so the flag
    fires at essentially every t once three or more modes are summed; see
    ads_kernel_series_detail.
    """

    value: complex
    modes_used: int
    tail_estimate: float
    envelope_violated: bool


def _mode_u_max(t: float, m: int, abs_tol: float) -> float:
    """Truncation point for int_0^inf q_t(x(u)) cosh(m u) du style tails.

    Solves u^2/(4t) - m*u = log(1/abs_tol) + 20 exactly (quadratic), which
    bounds the true decay since x(u) >= u makes the Gaussian factor of
    q_t(x(u)) at most exp(-u^2/4t).
    """
    r = math.log(1.0 / abs_tol) + 20.0
    return 2.0 * t * m + 2.0 * math.sqrt(t * (t * m * m + r))


def _fiber_distance(cosh_u, cosh_d):
    """x(u) = arccosh(cosh u * cosh d), the distance along the substitution."""
    return np.arccosh(cosh_u * cosh_d)


def _cosh_modes(t: float, m: int, u, x, shift: float = 0.0):
    """``exp(m u - g) + exp(-m u - g)`` with ``g = x^2/(4t) + shift``.

    Times ``hyperbolic_heat_kernel_scaled(t, n, x)`` this is
    ``q_t(x) * 2 cosh(m u) * exp(-shift)``, formed so the Gaussian of q_t
    and the growing cosh never meet as separate factors.  Callers form the
    q_scaled factor themselves: when this helper also formed and freed it,
    each chunk of :func:`maass_radial_profile` faulted its large
    temporaries in anew (1.6x the page faults of the semigroup check) and
    ``adsheat verify`` ran 15-25% slower on one CPU of a 2-vCPU VM.
    """
    g = x * x / (4.0 * t) + shift
    return np.exp(m * u - g) + np.exp(-m * u - g)


def _cosh_mode_integral(
    t: float, n: int, m: int, d: float, cfg: QuadratureConfig, *, damp: bool
) -> float:
    """2 * int_0^u_max q_t(x(u)) cosh(m u) du, optionally times e^{-t m^2}.

    x(u) = arccosh(cosh u * cosh d).  Damping shifts the exponents of
    :func:`_cosh_modes` by t m^2, which makes them globally <= 0
    [m u - x^2/4t - t m^2 = -(u - 2tm)^2/4t - (x^2 - u^2)/4t], so nothing
    overflows for any mode.
    """
    shift = t * m * m if damp else 0.0
    cosh_d = math.cosh(d)
    u_max = cfg.u_max_override or _mode_u_max(t, m, cfg.abs_tol)

    def integrand(u: np.ndarray) -> np.ndarray:
        x = _fiber_distance(np.cosh(u), cosh_d)
        return hyperbolic_heat_kernel_scaled(t, n, x) * _cosh_modes(t, m, u, x, shift)

    res = adaptive_gauss_kronrod(integrand, 0.0, u_max, cfg)
    return float(np.real(res.value))


def maass_kernel_substituted(
    query: MaassKernelQuery, config: QuadratureConfig | None = None
) -> complex:
    """Spin-weighted ball heat kernel via the cosh-product substitution.

    Returns ``phase * 2 * int_0^inf q_t(x(u)) cosh(2 kappa u) du`` with
    ``x(u) = arccosh(cosh u * cosh d)``; the integrand is smooth on
    [0, inf) including u = 0 and the diagonal d = 0.  ``phase`` is the
    unit-modulus spin twist of :func:`adsheat.geometry.phase_factor`.
    """
    cfg = config or QuadratureConfig()
    t, n = query.t, query.n
    m = _undamped_mode(t, query.kappa)
    d = hyperbolic_distance(query.w, query.y)
    phase = phase_factor(query.w, query.y, query.kappa)
    return phase * _cosh_mode_integral(t, n, m, d, cfg, damp=False)


def maass_kernel_direct(
    query: MaassKernelQuery, config: QuadratureConfig | None = None
) -> complex:
    """Spin-weighted ball heat kernel straight from its integral formula.

    Returns ``phase * 2 * int_d^inf sinh(x) N(x) q_t(x) dx`` where N is the
    Chebyshev-over-square-root factor; the ``(x - d)^{-1/2}`` endpoint
    singularity is removed by ``x = d + r^2``.  Independent of the
    substituted route in everything past q_t, which is the point: their
    agreement validates both.  For d < 1e-8 the factor N degenerates and
    the call delegates to :func:`maass_kernel_substituted`.
    """
    cfg = config or QuadratureConfig()
    t, n, kappa = query.t, query.n, query.kappa
    d = hyperbolic_distance(query.w, query.y)
    if d < DIRECT_ROUTE_MIN_DISTANCE:
        return maass_kernel_substituted(query, config)
    m = _undamped_mode(t, kappa)
    phase = phase_factor(query.w, query.y, kappa)
    x_max = d + _mode_u_max(t, m, cfg.abs_tol)
    r_max = math.sqrt(x_max - d)

    def integrand(r: np.ndarray) -> np.ndarray:
        x = d + r * r
        return (
            2.0
            * r
            * np.sinh(x)
            * spectral_cosh_factor(x, d, kappa)
            * hyperbolic_heat_kernel(t, n, x)
        )

    res = adaptive_gauss_kronrod(integrand, 0.0, r_max, cfg)
    return phase * 2.0 * float(np.real(res.value))


def maass_radial_profile(
    t: float,
    n: int,
    kappa: float,
    d_values,
    *,
    nodes_per_unit: float = 40.0,
    u_max_override: float | None = None,
    chunk_rows: int = 512,
) -> np.ndarray:
    """Radial factor V(d) of the kernel, batched over many distances.

    ``v_{t,n,kappa}(w,y) = phase_factor(w,y,kappa) * V(hyperbolic_distance
    (w,y))``; this evaluates V on an array of distances with one fixed
    composite Gauss-Legendre rule shared by all of them (the adaptive
    scalar route would be needlessly slow inside finite-difference grids).
    The rule density is far inside the overkill regime for these entire
    integrands, so accuracy is limited by the kernel evaluation itself
    (~1e-12 relative).
    """
    t = _validate_t(t)
    n = _validate_n(n)
    m = _undamped_mode(t, require_half_integer(kappa))
    d = np.asarray(d_values, dtype=float)
    scalar_in = d.ndim == 0
    d = np.atleast_1d(d)
    if d.size and (np.any(~np.isfinite(d)) or np.any(d < 0.0)):
        raise ValueError("distances must be finite and >= 0")

    u_max = u_max_override or _mode_u_max(t, m, 1e-13)
    n_panels = max(24, int(math.ceil(u_max * nodes_per_unit / 15.0)))
    u, wts = gauss_legendre_rule(0.0, u_max, n_panels, order=15)
    cosh_u = np.cosh(u)

    out = np.empty(d.shape)
    for lo in range(0, d.size, chunk_rows):
        dc = d[lo : lo + chunk_rows]
        x = _fiber_distance(cosh_u[None, :], np.cosh(dc)[:, None])
        s = hyperbolic_heat_kernel_scaled(t, n, x)
        modes = _cosh_modes(t, m, u[None, :], x)
        out[lo : lo + chunk_rows] = (s * modes) @ wts
    if scalar_in:
        return float(out[0])
    return out


def _baseline_mode_count(t: float, v0: float, eps_tail: float) -> int:
    """First-cut K from pure Gaussian damping: e^{-t K^2} C < eps_tail."""
    c = abs(v0) + 1.0
    return math.ceil(math.sqrt(max(0.0, math.log(c / eps_tail)) / t)) + 2


def ads_kernel_series_detail(
    query: AdsKernelQuery,
    series_config: SeriesConfig | None = None,
    quad_config: QuadratureConfig | None = None,
) -> AdsSeriesResult:
    """Fiber-mode series for the subelliptic kernel, with diagnostics.

    Computes ``sum_k v_{t,n,k/2}(w,y) e^{-ik theta} e^{-t k^2}``.  Each
    mode's phase factor is ``e^{-ik Arg(1 - <w,y>)}``, so conjugate mode
    pairs combine to ``2 cos(k theta') * e^{-t k^2} V_k(d)`` with
    ``theta' = theta + Arg(1 - <w,y>)`` and V_k real: the sum is real for
    every query, as it must be (it is the kernel of a real operator).

    Truncation: the baseline K assumes mode magnitudes are bounded by the
    k = 0 mode; that bound provably fails (cosh(2 kappa u) >= 1 makes
    |v_k| >= v_0 at w = 0, growing like e^{t k^2 / 4}), so it is monitored
    (``envelope_violated``) and the sum is extended adaptively until the
    last damped pair falls below ``eps_tail``.  Damped modes decay like
    e^{-2 n t k}, so the extension always terminates; MAX_FIBER_MODES is a
    safety stop that raises ConvergenceError.
    """
    s_cfg = series_config or SeriesConfig()
    q_cfg = quad_config or QuadratureConfig()
    t, n = query.t, query.n
    d = hyperbolic_distance(query.w, query.y)
    theta_eff = query.theta_eff

    with _labelled("fiber mode k=0"):
        v0 = _cosh_mode_integral(t, n, 0, d, q_cfg, damp=False)
    log_c = math.log(abs(v0) + 1.0)

    k_base = _baseline_mode_count(t, v0, s_cfg.eps_tail)
    k_cap = s_cfg.k_max_override if s_cfg.k_max_override is not None else MAX_FIBER_MODES
    pinned = s_cfg.k_max_override is not None

    total = v0
    violated = False
    last_pair = 0.0
    k = 0
    while k < k_cap:
        k += 1
        with _labelled(f"fiber mode k={k}"):
            damped = _cosh_mode_integral(t, n, k, d, q_cfg, damp=True)
        pair = 2.0 * math.cos(k * theta_eff) * damped
        total += pair
        last_pair = 2.0 * abs(damped)
        # |v_k| <= |v_0| + 1 would mean log|damped| + t k^2 <= log_c
        if damped != 0.0 and math.log(abs(damped)) + t * k * k > log_c:
            violated = True
        if not pinned and k >= k_base and last_pair < s_cfg.eps_tail:
            break
    else:
        if not pinned:
            raise ConvergenceError(
                f"fiber-mode series not converged after {MAX_FIBER_MODES} modes "
                f"(last damped pair {last_pair:.3e} vs eps_tail {s_cfg.eps_tail:.3e})",
                value=total,
                error_estimate=last_pair,
            )

    if violated:
        warnings.warn(
            "fiber-mode magnitudes exceeded the |v_0| + 1 envelope assumed by "
            "the baseline truncation count; the adaptive tail extension "
            "determined the actual cutoff",
            RuntimeWarning,
            stacklevel=2,
        )
    ratio = math.exp(-2.0 * n * t)
    tail = last_pair * ratio / (1.0 - ratio)
    return AdsSeriesResult(complex(total, 0.0), k, tail, violated)


def ads_kernel_series(
    query: AdsKernelQuery,
    series_config: SeriesConfig | None = None,
    quad_config: QuadratureConfig | None = None,
) -> complex:
    """Fiber-mode series value; see :func:`ads_kernel_series_detail`."""
    return ads_kernel_series_detail(query, series_config, quad_config).value


def ads_kernel_integral(
    t: float,
    n: int,
    d: float,
    theta: FiberAngle | float,
    series_config: SeriesConfig | None = None,
    quad_config: QuadratureConfig | None = None,
) -> complex:
    """Shifted-Gaussian integral form of the subelliptic kernel at base w = 0.

    Returns ``(4 pi t)^(-1/2) * sum_k int exp((u - i theta_k)^2/(4t)) *
    q_t(x(u)) du`` with ``theta_k = theta + 2 pi k`` and
    ``x(u) = arccosh(cosh u * cosh d)``.  Equals the fiber-mode series
    divided by 2 pi.

    The integrand modulus is ``exp((u^2 - theta_k^2 - x^2)/(4t)) *
    q_t_scaled(x)`` whose exponent is <= 0 (x >= |u|), so evaluation never
    overflows; wings are truncated where that envelope at theta = 0 drops
    below abs_tol * 1e-2, and shifted copies are included while their
    ``exp(-theta_k^2/4t)`` prefactor times the envelope integral still
    matters at the eps_tail scale.
    """
    t = _validate_t(t)
    n = _validate_n(n)
    d = float(d)
    if not (math.isfinite(d) and d >= 0.0):
        raise ValueError(f"distance must be finite and >= 0, got {d!r}")
    if not isinstance(theta, FiberAngle):
        theta = FiberAngle(theta)
    s_cfg = series_config or SeriesConfig()
    q_cfg = quad_config or QuadratureConfig()
    cosh_d = math.cosh(d)
    inv_norm = 1.0 / math.sqrt(4.0 * math.pi * t)

    def envelope(u: np.ndarray) -> np.ndarray:
        x = _fiber_distance(np.cosh(u), cosh_d)
        return hyperbolic_heat_kernel_scaled(t, n, x) * np.exp(
            (u * u - x * x) / (4.0 * t)
        )

    if q_cfg.u_max_override is not None:
        u_max = q_cfg.u_max_override
    else:
        u_max = 2.0 * math.sqrt(t * (math.log(1.0 / q_cfg.abs_tol) + 20.0))
        while float(envelope(np.array([u_max]))[0]) > 0.01 * q_cfg.abs_tol and u_max < 400.0:
            u_max += 1.0

    env_int = adaptive_gauss_kronrod(envelope, 0.0, u_max, q_cfg)
    j_bound = 2.0 * abs(env_int.value)

    def mode_term(k: int) -> complex:
        theta_k = theta.theta + 2.0 * math.pi * k

        def integrand(u: np.ndarray) -> np.ndarray:
            x = _fiber_distance(np.cosh(u), cosh_d)
            expo = ((u - 1j * theta_k) ** 2 - x * x) / (4.0 * t)
            return hyperbolic_heat_kernel_scaled(t, n, x) * np.exp(expo)

        with _labelled(f"shifted copy k={k}"):
            return adaptive_gauss_kronrod(integrand, -u_max, u_max, q_cfg).value

    def mode_bound(k: int) -> float:
        theta_k = theta.theta + 2.0 * math.pi * k
        return math.exp(-theta_k * theta_k / (4.0 * t)) * j_bound

    threshold = 0.05 * min(s_cfg.eps_tail, 1e-6)
    total = 0.0 + 0.0j
    # theta canonical in [0, 2pi) puts the two nearest shifted copies at
    # k = 0 and k = -1; always include those, then extend outward
    for k_start, step in ((0, 1), (-1, -1)):
        k = k_start
        while True:
            if mode_bound(k) < threshold and k not in (0, -1):
                break
            total += mode_term(k)
            k += step
            if abs(k) > 64:
                raise ConvergenceError(
                    "shifted-copy sum did not converge within 64 copies",
                    value=inv_norm * total,
                    error_estimate=mode_bound(k),
                )
    return inv_norm * total


def theta_identity_lhs(t: float, u: float, theta: float, k_terms: int) -> complex:
    """Sum of imaginary-shifted Gaussians: sum_{|k|<=K} e^{(u - i theta - 2ik pi)^2/(4t)}."""
    t = _validate_t(t)
    k_terms = _validate_k_terms(k_terms)
    ks = np.arange(-k_terms, k_terms + 1)
    z = (u - 1j * theta - 2j * math.pi * ks) ** 2 / (4.0 * t)
    return complex(np.exp(z).sum())


def theta_identity_rhs(t: float, u: float, theta: float, k_terms: int) -> complex:
    """Damped exponential series: sqrt(t/pi) sum_{|k|<=K} e^{-t k^2} e^{k(u - i theta)}."""
    t = _validate_t(t)
    k_terms = _validate_k_terms(k_terms)
    ks = np.arange(-k_terms, k_terms + 1)
    z = -t * ks * ks + ks * (u - 1j * theta)
    return complex(math.sqrt(t / math.pi) * np.exp(z).sum())


def _validate_k_terms(k_terms: int) -> int:
    if not isinstance(k_terms, (int, np.integer)) or isinstance(k_terms, bool) or k_terms < 1:
        raise ValueError(f"k_terms must be an integer >= 1, got {k_terms!r}")
    return int(k_terms)
