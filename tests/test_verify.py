import cmath
import math

import numpy as np
import pytest

from adsheat import verify
from adsheat.geometry import BallPoint, point_at_distance
from adsheat.kernels import maass_radial_profile
from adsheat.verify import (
    CheckOutcome,
    DEFAULT_SUITES,
    ResidualReport,
    SymmetricOperatorSample,
    check_maass_pde,
    check_normalization_k0,
    check_radial_heat_pde,
    check_semigroup_k0,
    check_subordination,
    random_negative_semidefinite,
    run_default_suite,
)


class TestSamples:
    def test_random_sample_is_reproducible(self):
        a = random_negative_semidefinite(5, seed=7)
        b = random_negative_semidefinite(5, seed=7)
        assert np.array_equal(a.matrix, b.matrix)
        c = random_negative_semidefinite(5, seed=8)
        assert not np.array_equal(a.matrix, c.matrix)

    @pytest.mark.parametrize("dim", [0, 2.5, True])
    def test_dim_must_be_an_integer(self, dim):
        with pytest.raises(ValueError, match="dim must be an integer >= 1"):
            random_negative_semidefinite(dim)

    def test_sample_invariants(self):
        s = random_negative_semidefinite(6, seed=3)
        assert s.dim == 6
        assert float(np.abs(s.matrix - s.matrix.T).max()) == 0.0
        assert float(np.linalg.eigvalsh(s.matrix).max()) <= 1e-12

    def test_rejects_asymmetric(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValueError, match="symmetric"):
            SymmetricOperatorSample(m)

    def test_rejects_positive_eigenvalue(self):
        with pytest.raises(ValueError, match="eigenvalue"):
            SymmetricOperatorSample(np.array([[1.0]]))

    def test_accepts_diagonal_nsd(self):
        s = SymmetricOperatorSample(np.diag([0.0, -1.0, -4.0]))
        assert s.dim == 3


class TestResidualReport:
    def test_rejects_negative_residual(self):
        with pytest.raises(ValueError):
            ResidualReport(-1e-3, 0.0, "g")

    def test_rejects_nan(self):
        with pytest.raises(ValueError):
            ResidualReport(float("nan"), 0.0, "g")


class TestDiscGrid:
    def test_validation(self):
        # the lattice plus its stencil ring must stay inside the unit disc
        with pytest.raises(ValueError):
            check_maass_pde(1.0, 0.0, step=0.5)


class TestSubordination:
    def test_diagonal_matrix_is_machine_exact(self):
        # eigenvectors are trivial, so the check reduces to the scalar
        # identity int (4 pi t)^{-1/2} e^{-x^2/4t} cos(x s) dx = e^{-t s^2}
        sample = SymmetricOperatorSample(np.diag([0.0, -1.0, -4.0]))
        report = check_subordination(sample, 1.0)
        assert report.max_abs_residual <= 1e-12

    @pytest.mark.parametrize("t", [0.25, 0.5, 1.0])
    def test_random_sample_meets_threshold(self, t):
        sample = random_negative_semidefinite(5, seed=42)
        report = check_subordination(sample, t)
        assert report.max_rel_residual <= 1e-8

    def test_node_refinement_is_monotone(self):
        # spectral convergence of the Gauss rule against the fixed
        # eigendecomposition oracle
        sample = random_negative_semidefinite(5, seed=42)
        residuals = [
            check_subordination(sample, 1.0, n_nodes=n).max_abs_residual
            for n in (8, 16, 32)
        ]
        assert residuals[0] > residuals[1] > residuals[2]
        assert residuals[2] <= 1e-12

    def test_scaled_spectrum(self):
        sample = random_negative_semidefinite(5, seed=11, scale=3.0)
        report = check_subordination(sample, 0.5)
        assert report.max_rel_residual <= 1e-8


class TestSemigroup:
    def test_chapman_kolmogorov_at_origin(self):
        report = check_semigroup_k0(0.5, 0.5, point_at_distance(0.0))
        assert report.max_rel_residual <= 1e-3

    def test_chapman_kolmogorov_off_origin(self):
        report = check_semigroup_k0(0.3, 0.7, point_at_distance(0.4))
        assert report.max_rel_residual <= 1e-3

    def test_time_swap_symmetry(self):
        z = point_at_distance(0.4)
        a = check_semigroup_k0(0.3, 0.7, z)
        b = check_semigroup_k0(0.7, 0.3, z)
        # p_{t+s} = p_t * p_s = p_s * p_t: both orders must verify equally
        assert a.max_rel_residual <= 1e-3
        assert b.max_rel_residual <= 1e-3


    @pytest.mark.parametrize(
        "z", [0.4j, 0.4 * cmath.exp(0.7j), -0.4, 0.6 * cmath.exp(2.1j)], ids=str
    )
    def test_complex_base_point(self, z):
        report = check_semigroup_k0(0.3, 0.7, BallPoint((z,)))
        assert report.max_rel_residual <= 1e-12

    @pytest.mark.parametrize("z, most", [(0.0, 999), (0.4, 12800)])
    def test_mirrored_half_profiled_once(self, monkeypatch, z, most):
        # 200 x 128 polar nodes: node j and node 127 - j sit at one distance
        # from z, and at z = 0 each ring of nodes shares a handful of them
        calls = []

        def spy(t, n, kappa, d_values):
            d = np.asarray(d_values)
            assert np.unique(d).size == d.size
            calls.append((t, d.size))
            return maass_radial_profile(t, n, kappa, d_values)

        monkeypatch.setattr(verify, "maass_radial_profile", spy)
        check_semigroup_k0(0.3, 0.7, BallPoint((complex(z),)))
        assert [t for t, _ in calls] == [0.3, 0.7, 1.0]
        assert calls[1][1] <= most

    @pytest.mark.parametrize("t, s, r", [(2.0, 2.0, 0.4), (1.9, 0.1, 0.6)])
    def test_longest_times_stay_inside_the_disc(self, t, s, r):
        # past rho ~ 19 tanh rho rounds to 1 and the nodes land on the boundary
        report = check_semigroup_k0(t, s, point_at_distance(math.atanh(r)))
        assert report.max_rel_residual <= 1e-12
        assert "rho_max = 16.000" in report.grid_spec

    @pytest.mark.parametrize("t, s", [(2.5, 0.5), (0.5, 2.5)])
    def test_times_past_two_rejected(self, t, s):
        with pytest.raises(ValueError, match="t, s <= 2"):
            check_semigroup_k0(t, s, point_at_distance(0.4))


class TestNormalization:
    @pytest.mark.parametrize("t,n,tol", [(1.0, 1, 1e-6), (0.25, 1, 1e-6), (1.0, 2, 1e-5)])
    def test_unit_mass(self, t, n, tol):
        report = check_normalization_k0(t, n)
        assert report.max_abs_residual <= tol

    @pytest.mark.parametrize("n", [0, 3, 1.0, True])
    def test_rejects_other_dimensions(self, n):
        with pytest.raises(ValueError, match="dimension parameter n must be an integer|supports n in"):
            check_normalization_k0(1.0, n)


class TestRadialPde:
    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_residual_within_threshold(self, n):
        report = check_radial_heat_pde(n=n)
        assert report.max_rel_residual <= 1e-4


class TestMaassPde:
    def test_weight_zero_default_grid(self):
        report = check_maass_pde(1.0, 0.0)
        assert report.max_rel_residual <= 5e-3

    def test_weight_one_refined_grid(self):
        report = check_maass_pde(1.0, 1.0, step=0.01)
        assert report.max_rel_residual <= 5e-3

    def test_stencil_is_fourth_order(self):
        # halving the step divides the O(h^4) truncation by ~16; the time
        # difference's own error sits far below either reading
        coarse = check_maass_pde(1.0, 1.0, step=0.06).max_rel_residual
        default = check_maass_pde(1.0, 1.0).max_rel_residual
        assert 10.0 <= coarse / default <= 25.0

    @pytest.mark.parametrize(
        "t, kappa, max_abs, max_rel",
        [
            (0.8, 0.0, 7.043758804052558e-06, 7.866149029252165e-05),
            (1.0, 0.5, 6.944819974617361e-06, 9.094696044396493e-05),
        ],
    )
    def test_residuals_frozen(self, t, kappa, max_abs, max_rel):
        # the parametrized values are those of the fixed composite rule the
        # adaptive profile replaced, to be kept to six significant digits;
        # the adaptive profile's own values are frozen to the bit
        frozen = {
            (0.8, 0.0): (7.043758806182798e-06, 7.86614903163173e-05),
            (1.0, 0.5): (6.944819996135995e-06, 9.094696072578204e-05),
        }
        report = check_maass_pde(t, kappa)
        residuals = (report.max_abs_residual, report.max_rel_residual)
        assert residuals == frozen[t, kappa]
        assert residuals == pytest.approx((max_abs, max_rel), rel=1e-6)

    def test_each_distinct_distance_evaluated_once(self, monkeypatch):
        sizes = []

        def spy(t, n, kappa, d_values):
            d = np.asarray(d_values)
            assert np.unique(d).size == d.size
            sizes.append(d.size)
            return maass_radial_profile(t, n, kappa, d_values)

        monkeypatch.setattr(verify, "maass_radial_profile", spy)
        check_maass_pde(1.0, 0.5)
        # one call per time level at step 0.03: the levels at t -/+ t_step on
        # |w| <= 0.8, the level at t on the points the plus stencil reads
        assert sizes == [1143, 1299, 1143]

    def test_config_echo_reports_grid(self):
        report = check_maass_pde(0.8, 0.5)
        assert report.config_echo == {
            "t": 0.8,
            "kappa": 0.5,
            "radius": 0.8,
            "step": 0.03,
            "y_base": 0.35,
            "t_step": 1e-3,
        }


class TestSuiteRunner:
    def test_unknown_suite_rejected(self):
        with pytest.raises(ValueError, match=r"unknown suite\(s\) \['nonsense'\]; choose from "):
            run_default_suite(("nonsense",))

    @pytest.mark.parametrize("suites", ["maass-pde", "", "nonsense"])
    def test_bare_string_rejected(self, suites):
        # a string iterates by character: "maass-pde" read as suites ['-', 'a', ...]
        with pytest.raises(ValueError, match="suites must be a sequence of suite names"):
            run_default_suite(suites)

    def test_single_suite_rows(self):
        rows = run_default_suite(("subordination",))
        assert len(rows) == 2
        for row in rows:
            assert isinstance(row, CheckOutcome)
            assert row.name.startswith("subordination")
            assert row.passed
            assert "threshold" in row.config_echo
            assert "grid_spec" in row.config_echo

    def test_suites_run_in_the_order_given_each_once(self):
        rows = run_default_suite(("semigroup", "subordination", "semigroup"), seed=7)
        assert [r.name for r in rows] == [
            "semigroup_t0.5_s0.5_z0",
            "semigroup_t0.3_s0.7_z0.4",
            "subordination_t0.5",
            "subordination_t1",
        ]

    def test_seed_flows_to_samples(self):
        a = run_default_suite(("subordination",), seed=1)
        b = run_default_suite(("subordination",), seed=1)
        assert [r.max_abs_residual for r in a] == [r.max_abs_residual for r in b]

    @pytest.mark.parametrize("suites", [("radial-pde",), ("subordination",)])
    @pytest.mark.parametrize("seed", [-3, 2.5, True])
    def test_seed_checked_whatever_the_suites(self, suites, seed):
        with pytest.raises(ValueError, match="seed must be an integer >= 0"):
            run_default_suite(suites, seed=seed)

    def test_default_suite_names(self):
        assert DEFAULT_SUITES == (
            "maass-pde",
            "radial-pde",
            "subordination",
            "semigroup",
            "normalization",
        )
