"""Tests of the benchmark itself: generators, oracles, checks and tracing.

    PYTHONPATH=src python3 -m pytest benchmarks -q
"""

from __future__ import annotations

import json
import math
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import adsheat.cli as cli  # noqa: E402
import adsheat.kernels  # noqa: E402
import adsheat.quadrature  # noqa: E402

import checks  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import tracer  # noqa: E402
import workloads  # noqa: E402
from workloads import Invocation  # noqa: E402


@pytest.fixture(autouse=True)
def _at_root(monkeypatch):
    monkeypatch.chdir(ROOT)


def _call(argv):
    return run.Client(cli).call(argv)


def _tiny(workload: str) -> list[Invocation]:
    """A few cheap seeded invocations of the workload plus all its fault rows."""
    full = workloads.make_round(workload, 11)
    seeded = [inv for inv in full if not inv.fault]
    if workload == "verify-battery":
        names = [n for n in workloads.VERIFY_CHECKS if n.startswith(("subord", "semigroup", "normal"))]
        argv = ("verify", "--suite", "subordination,semigroup,normalization", "--seed", "7")
        return [Invocation(argv, tuple((n,) for n in names))]
    if workload == "ads-theta":
        seeded = [inv for inv in seeded if float(inv.argv[2]) > 0.5]
    # a one-row invocation and one a third of the way up the size schedule
    return [seeded[0], seeded[len(seeded) // 3]] + list(workloads.FAULT_INVOCATIONS[workload])


def _oracle_for(invocations):
    oracle = checks.Oracles()
    spot = {"eval-maass": set(), "eval-ads": set()}
    for inv in invocations:
        if inv.command in spot:
            spot[inv.command].update(inv.rows)
    oracle.prepare(invocations, spot)
    return oracle


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_tiny_run_passes_and_fault_rows_fail(workload):
    invocations = _tiny(workload)
    oracle = _oracle_for(invocations)
    for inv in invocations:
        rc, text = _call(inv.argv)
        verdict = checks.check_output(inv, rc, text, oracle)
        expected = len(inv.rows) if inv.fault else 0
        assert verdict.failed == expected, (inv.argv, verdict.reasons)


def _corrupt(text: str, command: str, how: str) -> str:
    lines = text.split("\n")
    rec = lines[1].split(",")
    col = len(workloads.PARAM_ORDER[command])  # first value column
    if how == "negate":
        rec[col] = repr(-float(rec[col]))
    elif how == "nan":
        rec[col] = "nan"
    elif how == "drop":
        return "\n".join(lines[:1] + lines[2:])
    lines[1] = ",".join(rec)
    return "\n".join(lines)


@pytest.mark.parametrize("workload", ["maass-grid", "ads-theta", "hyperbolic-grid"])
@pytest.mark.parametrize("how", ["negate", "nan", "drop"])
def test_corrupted_eval_output_fails(workload, how):
    inv = next(i for i in _tiny(workload) if not i.fault and len(i.rows) >= 2)
    oracle = _oracle_for([inv])
    rc, text = _call(inv.argv)
    assert checks.check_output(inv, rc, text, oracle).failed == 0
    assert checks.check_output(inv, rc, _corrupt(text, inv.command, how), oracle).failed >= 1


@pytest.mark.parametrize("how", ["drop", "residual", "flag", "exit"])
def test_corrupted_verify_report_fails(how):
    (inv,) = _tiny("verify-battery")
    rc, text = _call(inv.argv)
    oracle = checks.Oracles()
    assert checks.check_output(inv, rc, text, oracle).failed == 0
    report = json.loads(text)
    if how == "drop":
        report["checks"].pop(1)
    elif how == "residual":
        report["checks"][0]["max_abs_residual"] = 1.0
        report["checks"][0]["max_rel_residual"] = 1.0
    elif how == "flag":
        report["checks"][0]["passed"] = False
    else:
        rc = 3
    assert checks.check_output(inv, rc, json.dumps(report), oracle).failed >= 1


def test_round_shape_does_not_depend_on_seed():
    for workload in workloads.WORKLOADS:
        shapes = set()
        for seed in range(12):
            rnd = workloads.make_round(workload, seed)
            assert rnd == workloads.make_round(workload, seed)
            shapes.add(tuple((inv.command, len(inv.rows), inv.fault) for inv in rnd))
        assert len(shapes) == 1, workload


def test_seeded_rows_stay_in_their_documented_ranges():
    for seed in range(12):
        for inv in workloads.make_round("maass-grid", seed):
            for t, n, kappa, d in inv.rows:
                assert inv.fault or (0.1 <= t <= 2.0 and t * (2 * kappa) ** 2 <= workloads.MAASS_TM2_MAX)
                assert n in (1, 2) and 0.0 <= d <= 2.5
        for inv in workloads.make_round("ads-theta", seed):
            for t, n, d, theta in inv.rows:
                assert inv.fault or (0.07 <= t <= 2.0 and 0.0 <= d <= 2.5)
                assert 0.0 <= theta < 2 * math.pi
        for inv in workloads.make_round("hyperbolic-grid", seed):
            for t, n, x in inv.rows:
                floor = workloads.HYPERBOLIC_X_FLOOR.get(n, 0.0)
                assert inv.fault or (0.3 <= t <= 3.0 and 1 <= n <= 10 and floor <= x <= 6.0)


# frozen 50-digit values from tests/test_radial_heat.py and tests/test_kernels.py
FROZEN_Q = {
    (1.0, 1, 1.0): 5.4727407763734001907e-3,
    (0.5, 2, 2.0): 7.1402769171822423573e-5,
    (2.0, 3, 0.7): 1.2532886266558120628e-12,
    (1.0, 3, 1e-4): 7.1343384984359824642e-8,
    (1.0, 3, 0.049): 7.120302658519800218e-8,
    (0.25, 2, 0.004): 2.4533996267498456391e-2,
    (4.0, 1, 5.0): 7.2590446754806501904e-7,
}


def test_hyperbolic_oracle_matches_frozen_values():
    for (t, n, x), value in FROZEN_Q.items():
        assert oracles.hyperbolic_q(t, x, n)[n - 1] == pytest.approx(value, rel=1e-15)


def test_hyperbolic_oracle_expansions_agree():
    import mpmath as mp

    # the expansion around 0 is used below x = 0.5, the shifted one above
    with mp.workdps(80):
        for x in (0.2, 0.35, 0.49):
            a = oracles._millson_even(mp.mpf(x), mp.mpf(0.3), 10)
            b = oracles._millson_at(mp.mpf(x), mp.mpf(0.3), 10)
            assert all(abs(p / q - 1) < 1e-18 for p, q in zip(a[1:], b[1:]))


def test_maass_and_ads_oracles_match_frozen_values():
    assert oracles.maass_direct(1.0, 1, 0.0, 0.0) == pytest.approx(2.3122264071497805365e-2, rel=1e-12)
    assert oracles.maass_direct(1.0, 1, 1.0, 0.5) == pytest.approx(2.6594274373114986646e-1, rel=1e-12)
    assert oracles.maass_direct(0.5, 2, 0.5, 1.0) == pytest.approx(1.7625142470743216315e-3, rel=1e-12)
    series = 4.5471085325594677283e-2
    assert oracles.ads_theorem(1.0, 0.3, 0.7) == pytest.approx(series / (2 * math.pi), rel=1e-12)


def test_tracer_partitions_cli_wall_and_restores_functions():
    quad = adsheat.kernels.adaptive_gauss_kronrod
    tr = tracer.Tracer()
    tr.install()
    try:
        assert adsheat.kernels.adaptive_gauss_kronrod is not quad
        _call(["eval-hyperbolic", "--t", "1", "--grid", "n=1,2,3", "--x", "0.5"])
        _call(["eval-maass", "--t", "1", "--kappa", "0.5", "--grid", "d=0,0.5"])
    finally:
        tr.uninstall()
    assert adsheat.kernels.adaptive_gauss_kronrod is quad is adsheat.quadrature.adaptive_gauss_kronrod
    m = tracer.layer_metrics(tr.spans, cli_rows=5, overhead_s=0.0)
    layers = ("cli", "verify", "kernels", "special", "quadrature", "radial_heat")
    total = sum(m[f"{layer}.self_s"] for layer in layers) + m["kernels.integrand_s"]
    assert total == pytest.approx(m["trace.cli_wall_s"], rel=1e-9)
    assert m["cli.invocations"] == 2
    # 3 scalar q_t calls, then per maass row one q_t call per integrand call
    assert m["radial_heat.calls"] == 3 + m["quadrature.evals"] / 15
    assert m["kernels.maass_direct_calls"] == 2
    assert m["kernels.maass_substituted_calls"] == 3  # d = 0 delegates
    assert m["quadrature.calls"] == 4  # one per route and row


@pytest.mark.parametrize("trace", [0, 1])
def test_printed_metrics_match_benchmark_json(trace):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    section = spec["per_layer"] if trace else spec["end_to_end"]
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "hyperbolic-grid",
         "--seed", "5", "--seconds", "1", "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=170,
    )
    assert proc.returncode == 0, proc.stderr
    result = json.loads(proc.stdout.strip().split("\n")[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    round_ = workloads.make_round("hyperbolic-grid", 5)
    per_round = sum(len(inv.rows) for inv in round_)
    fault_rows = sum(len(inv.rows) for inv in round_ if inv.fault)
    assert result["attempted"] % per_round == 0
    assert result["failed"] == fault_rows * result["attempted"] // per_round
    assert {k: v["unit"] for k, v in result["metrics"].items()} == {m["name"]: m["unit"] for m in section}


def test_fails_without_a_source_tree(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for path in (ROOT / "benchmarks").glob("*.py"):
        (bench / path.name).write_text(path.read_text())
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "maass-grid",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
