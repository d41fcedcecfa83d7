"""Property tests over a box of the parameter space.

Every evaluator returns a finite value or refuses with ``ConvergenceError``
or ``ValueError``, and the CLI never prints ``nan`` or ``inf`` in a row.
The box: t in [0.05, 2], n <= 4, half-integer kappa with t (2 kappa)^2 <=
690 (the undamped kernel's range), d in [0, 30] with 0 and d below 1e-8
drawn on purpose, theta in [0, 2 pi].
"""

from __future__ import annotations

import contextlib
import io
import math

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from adsheat.cli import main
from adsheat.kernels import (
    ads_kernel_integral,
    ads_kernel_series_detail,
    maass_direct_profile,
    maass_radial_profile,
)
from adsheat.quadrature import ConvergenceError
from adsheat.radial_heat import hyperbolic_heat_kernel


@st.composite
def boxes(draw):
    t = draw(st.floats(min_value=0.05, max_value=2.0))
    n = draw(st.integers(min_value=1, max_value=4))
    two_kappa = draw(st.integers(min_value=0, max_value=math.isqrt(int(690.0 / t))))
    kappa = draw(st.sampled_from([1.0, -1.0])) * two_kappa / 2.0
    d = draw(
        st.one_of(
            st.just(0.0),
            st.floats(min_value=0.0, max_value=1e-8),
            st.floats(min_value=0.0, max_value=30.0),
        )
    )
    theta = draw(st.floats(min_value=0.0, max_value=2.0 * math.pi))
    return t, n, kappa, d, theta


EVALUATORS = {
    "hyperbolic": lambda t, n, kappa, d, theta: hyperbolic_heat_kernel(t, n, d),
    "maass-substituted": lambda t, n, kappa, d, theta: maass_radial_profile(t, n, kappa, d),
    "maass-direct": lambda t, n, kappa, d, theta: maass_direct_profile(t, n, kappa, d),
    "ads-series": lambda t, n, kappa, d, theta: ads_kernel_series_detail(t, n, d, theta).value,
    "ads-integral": lambda t, n, kappa, d, theta: ads_kernel_integral(t, n, d, theta),
}


@pytest.mark.parametrize("name", EVALUATORS)
@given(box=boxes())
def test_finite_or_refused(name, box):
    try:
        value = EVALUATORS[name](*box)
    except (ConvergenceError, ValueError):
        return
    assert np.isfinite(value), f"{name}{box} = {value!r}"


@given(box=boxes())
def test_cli_prints_no_non_finite_cell(box):
    t, n, kappa, d, theta = map(repr, box)
    for argv in (
        ["eval-hyperbolic", "--t", t, "--n", n, "--x", d],
        ["eval-maass", "--t", t, "--n", n, "--kappa", kappa, "--d", d],
        ["eval-ads", "--t", t, "--n", n, "--d", d, "--theta", theta],
    ):
        out = io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
        assert rc in (0, 2, 3)
        cells = [cell for line in out.getvalue().splitlines()[1:] for cell in line.split(",")]
        assert not {"nan", "inf", "-inf"} & set(cells), (argv, out.getvalue())
