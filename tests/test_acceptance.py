"""Acceptance battery: eight go/no-go criteria, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the lines as they
print; each test also asserts its criterion and its runtime budget, so a
plain pytest run grades them all the same.
"""

import math
import time

import numpy as np
import pytest

from adsheat import verify
from adsheat.geometry import BallPoint, bergman_pairing, point_at_distance, twist_phase
from adsheat.kernels import (
    ads_kernel_integral,
    ads_kernel_series_detail,
    maass_direct_profile,
    maass_radial_profile,
)
from adsheat.quadrature import QuadratureConfig, adaptive_gauss_kronrod
from adsheat.radial_heat import hyperbolic_heat_kernel
from adsheat.verify import (
    check_maass_pde,
    discrete_maass_operator,
    check_normalization_k0,
    check_radial_heat_pde,
    check_semigroup_k0,
    check_subordination,
    random_negative_semidefinite,
)

TWO_PI = 2.0 * math.pi


def _grade(num, label, metric, tol, start, budget, extra=""):
    elapsed = time.perf_counter() - start
    passed = metric <= tol and elapsed < budget
    status = "PASS" if passed else "FAIL"
    note = f" {extra}" if extra else ""
    print(
        f"ACCEPTANCE {num:2d} [{status}] {label}: "
        f"metric {metric:.3e} (tol {tol:.0e}){note} "
        f"[{elapsed:.2f}s < {budget:.0f}s]"
    )
    assert metric <= tol, f"criterion {num}: {metric:.3e} > {tol:.0e}"
    assert elapsed < budget, f"criterion {num}: {elapsed:.2f}s >= {budget}s"


def test_criterion_02_h3_closed_form():
    start = time.perf_counter()
    worst = 0.0
    for t in (0.25, 1.0, 4.0):
        for x in np.linspace(0.05, 5.0, 100):
            x = float(x)
            closed = (
                math.exp(-t)
                * x
                * math.exp(-x * x / (4.0 * t))
                / ((4.0 * math.pi * t) ** 1.5 * math.sinh(x))
            )
            got = hyperbolic_heat_kernel(t, 1, x)
            worst = max(worst, abs(got - closed) / closed)
    _grade(2, "H^3 kernel matches its closed form", worst, 1e-12, start, 1.0)


def test_criterion_03_radial_heat_equation():
    start = time.perf_counter()
    worst = 0.0
    for n in (1, 2, 3):
        worst = max(worst, check_radial_heat_pde(n=n).max_rel_residual)
    _grade(3, "radial heat equation on H^(2n+1), n=1..3", worst, 1e-4, start, 10.0)


def test_criterion_04_hyperbolic_mass():
    start = time.perf_counter()
    worst = 0.0
    for n in (1, 2):
        sphere_area = 2.0 * math.pi ** (n + 0.5) / math.gamma(n + 0.5)
        for t in (0.5, 1.0):
            x_max = 2.0 * n * t + 2.0 * math.sqrt(t * (math.log(1e12) + 20.0))

            def integrand(x):
                return (
                    hyperbolic_heat_kernel(t, n, x)
                    * sphere_area
                    * np.sinh(x) ** (2 * n)
                )

            mass = adaptive_gauss_kronrod(
                integrand, 0.0, x_max, QuadratureConfig(abs_tol=1e-10)
            ).value
            worst = max(worst, abs(mass - 1.0))
    _grade(4, "stochastic completeness of q_t", worst, 1e-6, start, 5.0)


def test_criterion_05_maass_route_equivalence():
    start = time.perf_counter()
    worst_ratio = 0.0
    kappas, cfg = [0.0, 0.5, 1.0], QuadratureConfig()
    for t in (0.5, 1.0, 2.0):
        for n in (1, 2):
            # the 9 (kappa, point pair) points of one (t, n), one batch per route
            pairs = [(point_at_distance(d, n), BallPoint.origin(n)) for d in (0.3, 1.0, 2.0)]
            w = [np.array([p.coords[i] for p, _ in pairs]) for i in range(n)]
            y = [np.array([q.coords[i] for _, q in pairs]) for i in range(n)]
            d, twist = bergman_pairing(w, y)
            phase = np.array([twist_phase(twist, kappa) for kappa in kappas])
            direct = phase * maass_direct_profile(t, n, kappas, d, cfg)
            substituted = phase * maass_radial_profile(t, n, kappas, d, cfg)
            allowed = np.maximum(1e-8, 1e-6 * np.abs(substituted))
            worst_ratio = max(worst_ratio, float(np.max(np.abs(direct - substituted) / allowed)))
    # metric normalized so tolerance is 1: each point's budget is
    # max(1e-8, 1e-6 |value|)
    _grade(
        5,
        "spin-weighted kernel route equivalence (54 queries)",
        worst_ratio,
        1.0,
        start,
        30.0,
        extra="(metric = discrepancy / per-point allowance)",
    )


def test_criterion_06_maass_pde_residual():
    start = time.perf_counter()
    worst = 0.0
    for kappa in (0.0, 0.5, 1.0):
        for t in (0.8, 1.0):
            worst = max(worst, check_maass_pde(t, kappa).max_rel_residual)
    _grade(6, "disc-grid heat equation for D_kappa", worst, 5e-3, start, 60.0)


def _without_kappa_squared(values, coords, step, kappa):
    interior = (slice(2, -2), slice(2, -2))
    one_m = 1.0 - np.abs(coords[interior]) ** 2
    return (
        discrete_maass_operator(values, coords, step, kappa)
        - 4.0 * kappa * kappa * one_m * values[interior]
    )


@pytest.mark.parametrize("kappa", [0.5, 1.0])
@pytest.mark.parametrize(
    "control",
    [
        # the twist term with its sign flipped: the operator at -kappa keeps
        # the kappa^2 term and negates the first-derivative block
        (
            "discrete_maass_operator",
            lambda v, w, h, kappa: discrete_maass_operator(v, w, h, -kappa),
        ),
        ("discrete_maass_operator", _without_kappa_squared),
        # the n = 2 profile on the n = 1 disc
        ("maass_radial_profile", lambda t, n, kappa, d: maass_radial_profile(t, 2, kappa, d)),
    ],
    ids=["twist-sign-flipped", "kappa-squared-dropped", "n2-profile"],
)
def test_criterion_06_controls_read_far_above_threshold(monkeypatch, kappa, control):
    # each wrong operator or profile must read orders above the stencil's own
    # error; a control calls the unpatched function it wraps
    name, wrong = control
    monkeypatch.setattr(verify, name, wrong)
    for t in (0.8, 1.0):
        assert check_maass_pde(t, kappa).max_rel_residual > 0.1


def test_criterion_06_perturbed_profile_fails_the_battery_threshold(monkeypatch):
    # a relative error of 1e-4 d^2 in the profile: the stencil's own error
    # stays under the battery's 1e-3 threshold, the perturbed profile's above
    clean = [check_maass_pde(t, 1.0).max_rel_residual for t in (0.8, 1.0)]
    monkeypatch.setattr(
        verify,
        "maass_radial_profile",
        lambda t, n, kappa, d: maass_radial_profile(t, n, kappa, d) * (1.0 + 1e-4 * d * d),
    )
    perturbed = [check_maass_pde(t, 1.0).max_rel_residual for t in (0.8, 1.0)]
    assert max(clean) <= 1e-3 < min(perturbed)


def test_criterion_07_ball_normalization_and_semigroup():
    start = time.perf_counter()
    mass_n1 = check_normalization_k0(1.0, 1).max_abs_residual
    mass_n2 = check_normalization_k0(1.0, 2).max_abs_residual
    semi = max(
        check_semigroup_k0(0.5, 0.5, BallPoint.origin(1)).max_rel_residual,
        check_semigroup_k0(0.3, 0.7, point_at_distance(0.4)).max_rel_residual,
    )
    # normalized: each piece against its own tolerance
    metric = max(mass_n1 / 1e-6, mass_n2 / 1e-5, semi / 1e-3)
    _grade(
        7,
        "ball kernel mass + Chapman-Kolmogorov",
        metric,
        1.0,
        start,
        60.0,
        extra=f"(mass n=1 {mass_n1:.1e}, n=2 {mass_n2:.1e}, semigroup {semi:.1e})",
    )


def test_criterion_08_ads_central_identity():
    start = time.perf_counter()
    worst = 0.0
    reality_ok = True
    for t in (0.7, 1.5):
        for d in (0.0, 0.8):
            for theta in (0.0, 1.0, math.pi):
                series = ads_kernel_series_detail(t, 1, d, theta).value
                integral = ads_kernel_integral(t, 1, d, theta)
                worst = max(worst, abs(complex(integral) - series / TWO_PI))
                if not (series.real > 0.0 and abs(series.imag) <= 1e-9 * series.real):
                    reality_ok = False
    assert reality_ok, "series value must be real positive at the base point"
    _grade(8, "fiber series equals shifted-Gaussian integral", worst, 1e-6, start, 60.0)


def test_criterion_10_subordination():
    start = time.perf_counter()
    worst = 0.0
    for seed in (42, 43):
        sample = random_negative_semidefinite(5, seed=seed)
        for t in (0.5, 1.0):
            # at t = 1 the Gaussian weight reduces to the plain e^{-x^2/4}
            # display, so that case reproduces the stated identity verbatim
            worst = max(worst, check_subordination(sample, t).max_rel_residual)
    _grade(10, "wave-to-heat subordination on 5x5 operators", worst, 1e-8, start, 1.0)
