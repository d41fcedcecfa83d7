"""Heat kernels on the Bergman ball and its circle-fibered AdS extension.

Three kernels are evaluated here.

* The spin-weighted (generalized Maass) heat kernel on the ball,
  ``v_{t,n,kappa}(w, y) = phase * V(d)`` (d the Bergman distance, phase
  from :func:`adsheat.geometry.phase_factor`), by two independent routes
  to V, each batched over (kappa, d) rows, at most 512 a block
  (``maass_kernel_*`` take one query):

  - :func:`maass_radial_profile`: ``2 int_0^inf q_t(x(u)) cosh(2 kappa u)
    du`` with x(u) = arccosh(cosh u * cosh d); smooth everywhere, including
    u = 0 and d = 0.  The production route.
  - :func:`maass_direct_profile`: ``2 int_d^inf sinh(x) N(x) q_t(x) dx``
    with N from :func:`adsheat.special.spectral_cosh_factor`, its endpoint
    singularity removed by x = d + r^2.  Validation hardware; it takes the
    substituted value near the diagonal (d < 1e-8).

  q_t is the radial heat kernel of H^(2n+1); the routes share nothing else.

* The subelliptic heat kernel of the fibered AdS space over the ball,
  again by two routes: the Fourier series over fiber modes
  ``sum_k v_{t,n,k/2}(w,y) e^{-ik theta} e^{-t k^2}`` (density against the
  reference measure ``dy/(1-|y|^2)^(n+1) * dtheta/(2 pi)``), and the
  shifted-Gaussian integral representation
  ``(4 pi t)^(-1/2) sum_k int_R exp((u - i theta - 2 i k pi)^2 / 4t)
  q_t(x(u)) du`` stated at base point w = 0, evaluated as one real cosine
  transform per copy.  The integral form equals the series divided by
  2 pi; their agreement is the central cross-check of this package.  Both
  take (t, n, d, theta, configs); :func:`ads_kernel_series` pairs ball points.

* ``theta_identity_lhs`` / ``theta_identity_rhs``: the two sides of the
  Poisson-summation bridge between those routes,
  ``sum_k exp((u - i theta - 2 i k pi)^2/(4t)) = sqrt(t/pi) sum_k
  e^{-t k^2} e^{k(u - i theta)}``.

Numerical strategy: every integrand that pairs the Gaussian core of q_t
with exponential growth (cosh modes, the shifted-Gaussian envelope) is
evaluated through :func:`hyperbolic_heat_kernel_scaled` with the exponents
combined analytically, so no inf * 0 can form; damped series modes fold the
``e^{-t k^2}`` factor into the same exponent, which makes the combined
exponent globally <= 0 and mode evaluation stable for every k.  One adaptive
vector Gauss-Kronrod quadrature serves each batch: the series integrates a
block of modes at one distance, each Maass profile a block of (kappa, d)
rows and the integral route every (angle, shifted copy) pair of a theta
block, each sharing its panels and, across modes, weights and copies, x(u)
and q_t(x(u)); the series and the substituted profile are one (mode x
distance) integral.  Neither the modes nor the wing truncation depends on
theta, so a theta sweep reuses them.
"""

from __future__ import annotations

import math
from contextlib import contextmanager
from dataclasses import dataclass, replace
from typing import Iterator

import numpy as np

from .geometry import (
    BallPoint,
    FiberAngle,
    bergman_pairing,
    require_half_integer,
    require_int,
    twist_phase,
)
from .quadrature import (
    _CALL_ROWS,
    ConvergenceError,
    QuadratureConfig,
    adaptive_gauss_kronrod,
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
    "maass_direct_profile",
    "ads_kernel_series",
    "ads_kernel_series_detail",
    "ads_kernel_integral",
    "theta_identity_lhs",
    "theta_identity_rhs",
]

# below this distance the direct route's endpoint substitution is noise
DIRECT_ROUTE_MIN_DISTANCE = 1e-8

# hard stop for the fiber-mode sum; it binds at small t near d = 0, e.g. t <= 0.05 at n = 1
MAX_FIBER_MODES = 256

# t * (2 kappa)^2 beyond which the undamped kernel overflows double range
_UNDAMPED_EXP_LIMIT = 690.0

# u + d stays below this, short of where cosh u * cosh d overflows (~711)
_U_CAP = 700.0

# tolerances of the radial profile; abs_tol also sets its truncation point
_PROFILE_QUAD = QuadratureConfig(abs_tol=1e-13, rel_tol=1e-12)


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
            k = require_int(self.k_max_override, "k_max_override", 0)
            object.__setattr__(self, "k_max_override", k)


@dataclass(frozen=True)
class AdsSeriesResult:
    """Series value plus truncation diagnostics.

    ``modes_used`` is the largest |k| summed (2*modes_used + 1 terms);
    ``tail_estimate`` bounds the dropped tail by geometric extrapolation of
    the last included pair.  Both are absolute: compare ``tail_estimate``
    with ``|value|`` before trusting a value near or below ``eps_tail``.
    ``damped_modes`` are the angle-free ``e^{-t k^2} V_k(d)``, k = 0..modes_used.
    """

    value: complex
    modes_used: int
    tail_estimate: float
    damped_modes: tuple[float, ...]

    def at_angle(self, theta_eff: float) -> AdsSeriesResult:
        """The same truncated series at effective fiber angle ``theta_eff``."""
        total = self.damped_modes[0]
        for k, mode in enumerate(self.damped_modes[1:], 1):
            total += 2.0 * math.cos(k * theta_eff) * mode
        return replace(self, value=complex(total, 0.0))


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


def _cosh_mode_integral(t: float, n: int, m, d, cfg: QuadratureConfig, shift=0.0):
    """2 * int_0^u_max q_t(x(u)) cosh(m u) du * e^{-shift}, x(u) = arccosh(cosh u cosh d).

    One row per (mode, distance) pair of a 1-D ``m`` (with a scalar ``shift`` or
    one per mode) and a 1-D ``d``, all rows sharing one vector quadrature; the
    (modes, distances) array of values comes back.  x(u) and q_t(x(u)) are
    evaluated once per distance, the exponentials once per row.  The
    integrand is ``q_scaled(x) * (e^{mu-g} + e^{-mu-g})`` with ``g = x^2/4t +
    shift``, so the Gaussian of q_t and the growing cosh never meet as
    separate factors.  Damping (shift = t m^2) makes both exponents globally
    <= 0 [m u - x^2/4t - t m^2 = -(u - 2tm)^2/4t - (x^2 - u^2)/4t], so
    nothing overflows for any mode.  Each row is 0 past its own u = 700 - d,
    short of where cosh u cosh d overflows; the integrand is negligible there.
    """
    m = np.asarray(m)
    rows = (m.size, np.size(d))
    col = m[:, None, None]
    shift = np.reshape(shift, (-1, 1, 1)) if np.ndim(shift) else shift
    d = np.asarray(d, dtype=float)[:, None]
    cosh_d, u_stop = np.cosh(d), _U_CAP - d
    u_max = min(_mode_u_max(t, int(np.max(m)), cfg.abs_tol), float(np.max(u_stop)))
    cut = float(np.min(u_stop)) < u_max
    radial = m.tolist() == [0]  # one mode, 0: the two exponentials coincide

    def integrand(u: np.ndarray) -> np.ndarray:
        if cut:
            live, u = u <= u_stop, np.minimum(u, u_stop)
        x = _fiber_distance(np.cosh(u), cosh_d)
        g = x * x / (4.0 * t) + shift
        modes = 2.0 * np.exp(-g) if radial else np.exp(col * u - g) + np.exp(-col * u - g)
        v = hyperbolic_heat_kernel_scaled(t, n, x) * modes
        if cut:
            v = np.where(live, v, 0.0)
        return v.reshape(-1, x.shape[-1])

    return adaptive_gauss_kronrod(integrand, 0.0, u_max, cfg).value.reshape(rows)


def _direct_integral(t: float, n: int, m: np.ndarray, d: np.ndarray, cfg: QuadratureConfig):
    """2 * int_d^inf sinh(x) N_m(x) q_t(x) dx per (mode, distance) row, x = d + r^2.

    Rows pair each mode of a 1-D ``m`` with each distance of a 1-D ``d`` as in
    :func:`_cosh_mode_integral`.  r_max = sqrt(u_max) does not depend on d, so
    all rows share one vector quadrature; x, q_t(x), the Jacobian and N's
    denominator are evaluated once per distance, and one Chebyshev recurrence
    gives every mode's numerator.  dx = 2r dr is taken as 2 sqrt(x - d) of
    the rounded x, which N's 1/sqrt(sinh(x - d)) cancels exactly; a node
    whose r^2 is below the last bit of d moves up to x = nextafter(d).  The
    integrand turns over at r ~ sqrt(2d), which the eight equal starting
    panels miss for small d, so the one holding r_turn = 16 sqrt(2d)
    (smallest d) is split there when r_turn < r_max.  Each row is 0 past its
    own x = 700, short of where sinh x overflows.  Distances below 1e-8,
    where N degenerates, take the substituted route's value.
    """
    near, rows = d < DIRECT_ROUTE_MIN_DISTANCE, (m.size, d.size)
    if np.all(near):
        return _cosh_mode_integral(t, n, m, d, cfg)
    if np.any(near):
        out = np.empty(rows)
        out[:, near] = _cosh_mode_integral(t, n, m, d[near], cfg)
        out[:, ~near] = _direct_integral(t, n, m, d[~near], cfg)
        return out
    far = d[:, None]
    floor = np.nextafter(far, np.inf)
    u_max = min(_mode_u_max(t, int(m.max()), cfg.abs_tol), _U_CAP - float(np.min(far)))
    cut = float(np.max(far)) + u_max > _U_CAP
    r_max, r_turn = math.sqrt(u_max), 16.0 * math.sqrt(2.0 * float(np.min(far)))

    def integrand(r: np.ndarray) -> np.ndarray:
        x = np.maximum(far + r * r, floor)
        if cut:
            live, x = x <= _U_CAP, np.minimum(x, _U_CAP)
        jacobian_sinh = 2.0 * np.sqrt(x - far) * np.sinh(x)
        v = jacobian_sinh * spectral_cosh_factor(x, far, m / 2) * hyperbolic_heat_kernel(t, n, x)
        if cut:
            v = np.where(live, v, 0.0)
        return v.reshape(-1, x.shape[-1])

    points = sorted({*np.linspace(0.0, r_max, 9)[1:-1], r_turn}) if r_turn < r_max else ()
    return 2.0 * adaptive_gauss_kronrod(integrand, 0.0, r_max, cfg, points).value.reshape(rows)


def _validate_distances(d_values) -> np.ndarray:
    """``d_values`` as a float array, each finite, >= 0 and < 700."""
    d = np.asarray(d_values, dtype=float)
    if d.size and not (d.min() >= 0.0 and d.max() < _U_CAP):  # NaN fails too
        raise ValueError(f"distances must be finite, >= 0 and < {_U_CAP:g}")
    return d


def _profile(integral, t: float, n: int, kappa, d_values, config):
    """``integral(t, n, m, d, cfg)`` on validated weights and distances, m = 2|kappa|.

    ``kappa`` is a half-integer or a 1-D array of them, each with e^{t m^2}
    inside double range; distances pass :func:`_validate_distances`.  Rows
    pair each distinct m with each distance, in blocks of at most
    ``_CALL_ROWS`` rows (a chunk of up to ``_CALL_ROWS`` distances, with as
    many modes as fit) that bound the (rows, nodes) temporaries.  The result
    has shape kappa.shape + d.shape; scalars in both give a float.
    """
    t, n = _validate_t(t), _validate_n(n)
    if np.ndim(kappa) > 1:
        raise ValueError(f"kappa must be a half-integer or a 1-D array of them, not {np.ndim(kappa)}-D")
    ms = []
    for k in np.ravel(kappa).tolist():
        m = int(round(2.0 * abs(require_half_integer(k))))
        if t * m * m > _UNDAMPED_EXP_LIMIT:
            raise ValueError(
                f"kernel magnitude ~exp(t (2 kappa)^2) = exp({t * m * m:.3g}) "
                "exceeds double-precision range; only the damped fiber series "
                "is computable this deep"
            )
        ms.append(m)
    modes, which = np.unique(np.array(ms, dtype=int), return_inverse=True)
    d = _validate_distances(d_values)
    cfg, flat = config or _PROFILE_QUAD, d.ravel()
    out = np.empty((modes.size, flat.size))
    for lo in range(0, flat.size, _CALL_ROWS):
        chunk = flat[lo : lo + _CALL_ROWS]
        step = max(1, _CALL_ROWS // chunk.size)
        for k in range(0, modes.size, step):
            out[k : k + step, lo : lo + chunk.size] = integral(t, n, modes[k : k + step], chunk, cfg)
    out = out[which].reshape(np.shape(kappa) + d.shape)
    return float(out) if out.ndim == 0 else out


def maass_radial_profile(
    t: float, n: int, kappa, d_values, config: QuadratureConfig | None = None
) -> np.ndarray:
    """Radial factor V(d) of the kernel, batched over weights and distances.

    ``v_{t,n,kappa}(w,y) = phase_factor(w,y,kappa) * V(hyperbolic_distance
    (w,y))``; this evaluates V = 2 int_0^inf q_t(x(u)) cosh(2 kappa u) du for
    a half-integer ``kappa`` or a 1-D array of them, on an array of
    distances (each < 700): shape kappa.shape + d.shape.  Every (kappa, d)
    row of a block of at most 512 rows shares one vector quadrature, its
    panels and, across weights, x(u) and q_t(x(u)).  Each row is held to
    max(abs_tol, rel_tol |V|) of ``config`` (default 1e-13 and 1e-12) by its
    own Gauss-Kronrod error estimate; a block that misses it raises
    :class:`ConvergenceError`.  The integral for d stops by u = 700 - d,
    whatever else shares its block.
    """
    return _profile(_cosh_mode_integral, t, n, kappa, d_values, config)


def maass_direct_profile(
    t: float, n: int, kappa, d_values, config: QuadratureConfig | None = None
) -> np.ndarray:
    """The same V(d) as :func:`maass_radial_profile`, by the direct route.

    V = 2 int_d^inf sinh(x) N(x) q_t(x) dx with N from
    :func:`adsheat.special.spectral_cosh_factor`, with the same shapes,
    (kappa, d) rows, blocks, tolerances and errors; across weights a block
    shares x, q_t(x) and N's denominator.  The integral for d stops by
    x = 700, whatever else shares its block; below d = 1e-8 it gives the
    substituted value.
    """
    return _profile(_direct_integral, t, n, kappa, d_values, config)


def maass_kernel_substituted(
    query: MaassKernelQuery, config: QuadratureConfig | None = None
) -> complex:
    """Spin-weighted ball heat kernel via the cosh-product substitution.

    ``phase_factor(w, y, kappa) * V(d)`` with V from
    :func:`maass_radial_profile`, at the tolerances of :class:`QuadratureConfig`.
    """
    d, twist = bergman_pairing(query.w.coords, query.y.coords)
    v = maass_radial_profile(query.t, query.n, query.kappa, d, config or QuadratureConfig())
    return complex(twist_phase(twist, query.kappa)) * v


def maass_kernel_direct(
    query: MaassKernelQuery, config: QuadratureConfig | None = None
) -> complex:
    """Spin-weighted ball heat kernel straight from its integral formula.

    As :func:`maass_kernel_substituted`, with V from :func:`maass_direct_profile`:
    the two routes share nothing past q_t, so their agreement validates both.
    """
    d, twist = bergman_pairing(query.w.coords, query.y.coords)
    v = maass_direct_profile(query.t, query.n, query.kappa, d, config or QuadratureConfig())
    return complex(twist_phase(twist, query.kappa)) * v


def _baseline_mode_count(t: float, eps_tail: float) -> int:
    """Floor on the number of fiber modes: the K with e^{-t K^2} < eps_tail, plus 2.

    Without it a kernel below eps_tail stops at its first damped pair: n = 3,
    t = 1.5, d = 0 would sum 1 mode instead of 6, 2.7e-3 relative off an
    eps_tail = 1e-15 reference (0 with the floor).  It takes no |v_0|: the
    stop test bounds that term (see :func:`ads_kernel_series_detail`).
    """
    return math.ceil(math.sqrt(math.log(1.0 / eps_tail) / t)) + 2


def ads_kernel_series_detail(
    t: float,
    n: int,
    d: float,
    theta: float,
    series_config: SeriesConfig | None = None,
    quad_config: QuadratureConfig | None = None,
) -> AdsSeriesResult:
    """Fiber-mode series for the subelliptic kernel, with diagnostics.

    Computes ``sum_k e^{-t k^2} V_k(d) e^{-ik theta}`` at distance 0 <= d <
    700 and effective fiber angle ``theta``, used as given: a pair (w, y)
    moves the fiber angle by Arg(1 - <w,y>) (see :func:`ads_kernel_series`).
    Conjugate modes pair to ``2 cos(k theta) e^{-t k^2} V_k(d)`` with V_k
    real, so the sum is real (the kernel of a real operator).  No damped
    mode depends on theta: :meth:`AdsSeriesResult.at_angle` re-sums them.

    Truncation: V_k = 2 int q_t(x(u)) cosh(k u) du >= V_0 > 0, so every damped
    mode is positive and at least e^{-t k^2} v_0: a damped pair ``2 e^{-t k^2}
    V_k(d)`` below ``eps_tail`` bounds the |v_0| term too.  The sum stops at
    the first such pair from the floor of :func:`_baseline_mode_count` on.
    Modes come in blocks, one vector quadrature each, searched as they come:
    the first ends at the floor (short at large t, where high modes overflow
    cosh u), each later one at twice the previous end.  At MAX_FIBER_MODES the
    sum raises ConvergenceError; that cap binds at small t near the diagonal
    (n = 1, eps_tail 1e-9: t <= 0.05 at d = 0, t <= 0.025 at d = 0.3), and
    before any quadrature when the floor alone exceeds it (t below 3.2e-4).
    ``k_max_override`` pins the count: the blocks then end at it,
    MAX_FIBER_MODES + 1 modes at most.

    Accuracy is absolute, about ``eps_tail``: a kernel value below that can
    come out negative (t = 0.2, d = 0.5, theta = 3.14159 gives -2.7e-10 with
    ``tail_estimate`` 1.4e-9).  Compare ``tail_estimate`` with ``|value|``.
    """
    t, n, d = _validate_t(t), _validate_n(n), float(_validate_distances(d))
    if not math.isfinite(theta_eff := float(theta)):
        raise ValueError(f"fiber angle must be finite, got {theta!r}")
    s_cfg, q_cfg = series_config or SeriesConfig(), quad_config or QuadratureConfig()
    eps, pinned = s_cfg.eps_tail, s_cfg.k_max_override is not None
    k_cap = s_cfg.k_max_override if pinned else MAX_FIBER_MODES

    floor = _baseline_mode_count(t, eps)
    if not pinned and floor > k_cap:
        raise ConvergenceError(
            f"fiber-mode series cannot converge: its floor of {floor} modes at t={t!r}, "
            f"eps_tail {eps:.3e} exceeds the cap of {MAX_FIBER_MODES} modes"
        )

    modes: list[float] = []
    hi = first = k_cap if pinned else floor  # the first mode the sum may stop at
    while True:
        lo = len(modes)
        hi = min(hi, lo + MAX_FIBER_MODES)  # binds only a pinned count: bounds the arrays
        ks = np.arange(lo, hi + 1)
        with _labelled(f"fiber modes k={lo}..{hi}"):
            modes += _cosh_mode_integral(t, n, ks, [d], q_cfg, shift=t * ks * ks)[:, 0].tolist()
        stops = [j for j in range(max(lo, first), hi + 1) if pinned or 2.0 * abs(modes[j]) < eps]
        if stops:
            break
        if hi == k_cap:
            raise ConvergenceError(
                f"fiber-mode series not converged after {MAX_FIBER_MODES} modes "
                f"(last damped pair {2.0 * abs(modes[-1]):.3e} vs eps_tail {eps:.3e})",
                value=AdsSeriesResult(0j, k_cap, 0.0, tuple(modes)).at_angle(theta_eff).value,
                error_estimate=2.0 * abs(modes[-1]),
            )
        hi = min(k_cap, 2 * hi)

    k = stops[0]
    modes = modes[: k + 1]
    ratio = math.exp(-2.0 * n * t)
    tail = 2.0 * abs(modes[k]) * ratio / (1.0 - ratio) if k else 0.0
    return AdsSeriesResult(0j, k, tail, tuple(modes)).at_angle(theta_eff)


def ads_kernel_series(
    query: AdsKernelQuery,
    series_config: SeriesConfig | None = None,
    quad_config: QuadratureConfig | None = None,
) -> complex:
    """Fiber-mode series value at a point pair, paired once for its distance and
    twist; see :func:`ads_kernel_series_detail`."""
    d, twist = bergman_pairing(query.w.coords, query.y.coords)
    theta = query.theta.theta + float(twist)
    return ads_kernel_series_detail(query.t, query.n, d, theta, series_config, quad_config).value


def ads_kernel_integral(
    t: float,
    n: int,
    d: float,
    theta,
    series_config: SeriesConfig | None = None,
    quad_config: QuadratureConfig | None = None,
):
    """Shifted-Gaussian integral form of the subelliptic kernel at base w = 0.

    Returns ``(4 pi t)^(-1/2) * sum_k int exp((u - i theta_k)^2/(4t)) *
    q_t(x(u)) du`` with ``theta_k = theta + 2 pi k``, ``x(u) = arccosh(cosh u
    * cosh d)`` and 0 <= d < 700: the fiber-mode series divided by 2 pi.  By
    u -> -u symmetry each copy is ``2 e^{-theta_k^2/4t} int_0^inf F(u)
    cos(u theta_k/2t) du``, ``F = q_t_scaled(x) e^{(u^2 - x^2)/4t}`` (exponent
    <= 0 as x >= u).  One vector quadrature serves up to 512 angles of an array
    ``theta`` (real array result; a float for a scalar), each (angle, copy)
    pair a component held to max(a, rel_tol |component|), weight included, with
    a = abs_tol * min(1, sqrt(4 pi t)): after the (4 pi t)^(-1/2) factor each
    copy of the returned value is within max(abs_tol, rel_tol |copy|), or
    :class:`ConvergenceError` is raised.  Wings are cut where F drops below
    abs_tol * 1e-2, and copies are included while their ``exp(-theta_k^2/4t)``
    times the integral of F still matters at the eps_tail scale.
    """
    t = _validate_t(t)
    n = _validate_n(n)
    d = float(_validate_distances(d))
    theta = getattr(theta, "theta", theta)  # a FiberAngle's angle
    angles = np.array([FiberAngle(a).theta for a in np.atleast_1d(theta).tolist()])
    s_cfg = series_config or SeriesConfig()
    q_cfg = quad_config or QuadratureConfig()
    # below t = 1/4pi the (4 pi t)^(-1/2) factor magnifies what the cosine pass leaves
    pass_cfg = replace(q_cfg, abs_tol=q_cfg.abs_tol * min(1.0, math.sqrt(4.0 * math.pi * t)))
    cosh_d, u_stop = math.cosh(d), _U_CAP - d

    def envelope(u: np.ndarray) -> np.ndarray:
        x = _fiber_distance(np.cosh(u), cosh_d)
        return hyperbolic_heat_kernel_scaled(t, n, x) * np.exp(
            (u * u - x * x) / (4.0 * t)
        )

    # the first of u0, u0 + 1, (u0 + 1) + 1, ... (rounded stepwise) past 400 or with
    # a negligible envelope; all stop by u = 700 - d, short of where cosh u cosh d overflows
    u0 = _mode_u_max(t, 0, q_cfg.abs_tol)
    steps = [u0] + [1.0] * (max(0, math.ceil(min(400.0, u_stop) - u0)) + 1)
    candidates = np.minimum(np.cumsum(steps), u_stop)
    above = (envelope(candidates[:-1]) > 0.01 * q_cfg.abs_tol) & (candidates[:-1] < 400.0)
    u_max = float(candidates[np.argmin(np.append(above, False))])

    env_int = adaptive_gauss_kronrod(envelope, 0.0, u_max, q_cfg)
    j_bound = 2.0 * abs(env_int.value)
    threshold = 0.05 * min(s_cfg.eps_tail, 1e-6)

    ks = np.arange(-65, 66)

    def cosine_pass(block: np.ndarray) -> np.ndarray:
        # copies k = 0, -1 (the nearest of each angle in [0, 2pi)) and, up to |k| = 64,
        # every other whose weight times the integral of F matters; |k| = 65 bounds the rest
        theta_k = block[:, None] + 2.0 * math.pi * ks
        gauss = np.exp(-theta_k * theta_k / (4.0 * t))
        keep = ((gauss * j_bound >= threshold) | (ks == 0) | (ks == -1)) & (abs(ks) < 65)
        freq, weight = (theta_k[keep] / (2.0 * t))[:, None], (2.0 * gauss[keep])[:, None]
        # starting panels no wider than a period of the fastest cosine whose component
        # may pass abs_tol: on wider ones Gauss and Kronrod can miss it alike
        fast = np.abs(freq[gauss[keep] * j_bound > 0.5 * pass_cfg.abs_tol]).max(initial=0.0)
        edges = np.linspace(0.0, u_max, max(8, math.ceil(u_max * fast / (2.0 * math.pi))) + 1)

        def integrand(u: np.ndarray) -> np.ndarray:
            return envelope(u) * weight * np.cos(freq * u)

        shown = ", ".join(map(repr, block[:3].tolist())) + (", ..." if block.size > 3 else "")
        with _labelled(f"shifted copies at theta={shown}"):
            res = adaptive_gauss_kronrod(integrand, 0.0, u_max, pass_cfg, edges[1:-1])
        values = np.bincount(np.nonzero(keep)[0], res.value) / math.sqrt(4.0 * math.pi * t)
        if (bad := np.flatnonzero(keep[:, 1] | keep[:, -2])).size:
            i = bad[0]
            raise ConvergenceError(
                "shifted-copy sum did not converge within 64 copies",
                value=float(values[i]),
                error_estimate=j_bound * (gauss[i, -1] if keep[i, -2] else gauss[i, 0]),
            )
        return values

    # blocks of _CALL_ROWS angles bound the (pairs, nodes) temporaries and the stored
    # panels; an angle has a row per copy, so a call may hold one panel of more rows
    blocks = [angles[i : i + _CALL_ROWS] for i in range(0, angles.size, _CALL_ROWS)]
    values = np.concatenate([cosine_pass(block) for block in blocks]) if blocks else angles
    return float(values[0]) if np.ndim(theta) == 0 else values


def _exp_sum(z: np.ndarray, log_scale: float, exponent: str) -> complex:
    """``sum(e^z)``; ValueError unless ``e^log_scale * len(z) * e^max(Re z)`` stays in range."""
    peak = float(z.real.max())
    if not log_scale + math.log(z.size) + peak <= 709.0:  # doubles end at e^709.78; NaN fails
        raise ValueError(
            f"theta identity out of double range: {exponent} reaches {peak:.6g}; the sum "
            f"of {z.size} terms stays finite only while it is below about 709"
        )
    return np.exp(z).sum()


def theta_identity_lhs(t: float, u: float, theta: float, k_terms: int) -> complex:
    """Sum of imaginary-shifted Gaussians: sum_{|k|<=K} e^{(u - i theta - 2ik pi)^2/(4t)}.

    Raises ValueError where the real exponents take the sum out of double range.
    """
    t = _validate_t(t)
    k_terms = require_int(k_terms, "k_terms", 1)
    ks = np.arange(-k_terms, k_terms + 1)
    with np.errstate(over="ignore", invalid="ignore"):  # +inf or NaN fails the check below
        z = (u - 1j * theta - 2j * math.pi * ks) ** 2 / (4.0 * t)
    return complex(_exp_sum(z, 0.0, "(u^2 - (theta + 2k pi)^2)/(4t)"))


def theta_identity_rhs(t: float, u: float, theta: float, k_terms: int) -> complex:
    """Damped exponential series: sqrt(t/pi) sum_{|k|<=K} e^{-t k^2} e^{k(u - i theta)}.

    Raises ValueError where the real exponents take the sum out of double range.
    """
    t = _validate_t(t)
    k_terms = require_int(k_terms, "k_terms", 1)
    ks = np.arange(-k_terms, k_terms + 1)
    with np.errstate(invalid="ignore"):  # NaN fails the check below
        z = -t * ks * ks + ks * (u - 1j * theta)
    scale = math.sqrt(t / math.pi)
    return complex(scale * _exp_sum(z, math.log(scale), "-t k^2 + k u"))
