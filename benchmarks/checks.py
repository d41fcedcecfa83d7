"""Correctness checks of CLI output, row by row.

Every expected row is checked against a value computed apart from the
program (``oracles``), against the program's second route, or against a
property the method must have.  A row that is missing, malformed or outside
its tolerance counts as failed.  Tolerances:

* eval-hyperbolic: |q - oracle| <= 1e-8 |oracle| (60-digit oracle), q >= 0.
* eval-maass: finite, re(v) > 0, im(v) == 0 on the axis, the route the CLI
  documents for d, route_discrepancy <= max(1e-8, 1e-6 |v|); on the mpmath
  subset |v - oracle| <= max(1e-8, 1e-6 |oracle|).
* eval-ads (series normalization): finite, im == 0, an odd term count of at
  most 2 * 256 + 1, re(s) >= -2 pi (eps_tail + abs_tol), route_discrepancy
  <= eps_tail + abs_tol + 1e-6 |s / 2 pi|; on the mpmath subset
  |s / 2 pi - oracle| within the same bound.
* verify: exit code 0, the report validates against the shipped schema, the
  seed is echoed, every expected check is present in order, and each passes
  both its own flag and the threshold fixed here.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
from dataclasses import dataclass, field

from workloads import PARAM_ORDER, Invocation

HYPERBOLIC_RTOL = 1e-8
MAASS_ATOL, MAASS_RTOL = 1e-8, 1e-6
# the CLI's defaults for eval-ads: series eps_tail and quadrature abs_tol
ADS_EPS_TAIL, ADS_ABS_TOL, ADS_RTOL = 1e-9, 1e-11, 1e-6
ADS_ATOL = ADS_EPS_TAIL + ADS_ABS_TOL
ADS_MAX_TERMS = 2 * 256 + 1
DIRECT_ROUTE_MIN_DISTANCE = 1e-8
# verify thresholds as documented by run_default_suite: (prefix, metric, bound)
VERIFY_THRESHOLDS = (
    ("maass_pde_", "max_rel_residual", 5e-3),
    ("radial_heat_pde_", "max_rel_residual", 1e-4),
    ("subordination_", "max_abs_residual", 1e-8),
    ("semigroup_", "max_rel_residual", 1e-3),
    ("normalization_n1_", "max_abs_residual", 1e-6),
    ("normalization_n2_", "max_abs_residual", 1e-5),
)

CSV_HEADERS = {
    "eval-hyperbolic": ["t", "n", "x", "q"],
    "eval-maass": ["t", "n", "kappa", "d", "re(v)", "im(v)", "route", "route_discrepancy"],
    "eval-ads": ["t", "n", "d", "theta", "re(s)", "im(s)", "series_terms_used", "route_discrepancy"],
}


@dataclass
class Verdict:
    """Outcome of checking one invocation's output."""

    failed: int = 0
    # worst ratio of observed error to its tolerance, per named quantity
    worst: dict[str, float] = field(default_factory=dict)
    reasons: list[str] = field(default_factory=list)

    def fail(self, reason: str) -> None:
        self.failed += 1
        if len(self.reasons) < 5:
            self.reasons.append(reason)

    def note(self, name: str, value: float) -> None:
        if math.isfinite(value):
            self.worst[name] = max(self.worst.get(name, 0.0), value)


class Oracles:
    """Reference values for the rows of a round, computed once per run."""

    def __init__(self) -> None:
        self.hyperbolic: dict[tuple[float, float], list[float]] = {}
        self.maass: dict[tuple, float] = {}
        self.ads: dict[tuple, float] = {}

    def prepare(self, invocations: list[Invocation], spot_rows: dict[str, set]) -> None:
        import oracles

        need: dict[tuple[float, float], int] = {}
        for inv in invocations:
            if inv.command == "eval-hyperbolic":
                for t, n, x in inv.rows:
                    need[(t, x)] = max(need.get((t, x), 0), n)
        for (t, x), n_max in need.items():
            self.hyperbolic[(t, x)] = oracles.hyperbolic_q(t, x, n_max)
        for row in sorted(spot_rows.get("eval-maass", ())):
            t, n, kappa, d = row
            self.maass[row] = oracles.maass_direct(t, n, kappa, d)
        for row in sorted(spot_rows.get("eval-ads", ())):
            t, n, d, theta = row
            self.ads[row] = oracles.ads_theorem(t, d, theta)


def _parse_csv(command: str, text: str):
    reader = csv.reader(io.StringIO(text))
    header = next(reader, None)
    if header != CSV_HEADERS[command]:
        raise ValueError(f"unexpected header {header!r}")
    n_params = len(PARAM_ORDER[command])
    rows = {}
    for rec in reader:
        if len(rec) != len(header):
            raise ValueError(f"malformed row {rec!r}")
        key = tuple(int(v) if name == "n" else float(v) for name, v in zip(header, rec[:n_params]))
        if key in rows:
            raise ValueError(f"duplicate row {key!r}")
        rows[key] = dict(zip(header, rec))
    return rows


def _finite(*values: float) -> bool:
    return all(math.isfinite(v) for v in values)


def _check_hyperbolic(row, key, oracle: Oracles, v: Verdict) -> None:
    t, n, x = key
    q = float(row["q"])
    ref = oracle.hyperbolic[(t, x)][n - 1]
    err = abs(q - ref) / abs(ref)
    v.note("q_rel_err", err)
    if not (math.isfinite(q) and q >= 0.0 and err <= HYPERBOLIC_RTOL):
        v.fail(f"q{key} = {q!r}, oracle {ref!r}")


def _check_maass(row, key, oracle: Oracles, v: Verdict) -> None:
    t, n, kappa, d = key
    re, im, disc = float(row["re(v)"]), float(row["im(v)"]), float(row["route_discrepancy"])
    route = "direct" if d >= DIRECT_ROUTE_MIN_DISTANCE else "substituted"
    ok = _finite(re, im, disc) and re > 0.0 and im == 0.0 and row["route"] == route
    allowance = max(MAASS_ATOL, MAASS_RTOL * abs(re))
    if ok:
        v.note("route_discrepancy/allowance", disc / allowance)
        ok = disc <= allowance
    ref = oracle.maass.get(key)
    if ref is not None and ok:
        err = abs(re - ref) / max(MAASS_ATOL, MAASS_RTOL * abs(ref))
        v.note("mpmath_err/allowance", err)
        ok = err <= 1.0
    if not ok:
        v.fail(f"v{key} = {re!r}{im:+}j route {row['route']} disc {disc!r} oracle {ref!r}")


def _check_ads(row, key, oracle: Oracles, v: Verdict) -> None:
    re, im, disc = float(row["re(s)"]), float(row["im(s)"]), float(row["route_discrepancy"])
    terms = int(row["series_terms_used"])
    theorem = re / (2.0 * math.pi)
    bound = ADS_ATOL + ADS_RTOL * abs(theorem)
    ok = (
        _finite(re, im, disc)
        and im == 0.0
        and terms % 2 == 1
        and 1 <= terms <= ADS_MAX_TERMS
        and theorem >= -ADS_ATOL
    )
    if ok:
        v.note("route_discrepancy/bound", disc / bound)
        ok = disc <= bound
    ref = oracle.ads.get(key)
    if ref is not None and ok:
        err = abs(theorem - ref) / (ADS_ATOL + ADS_RTOL * abs(ref))
        v.note("mpmath_err/bound", err)
        ok = err <= 1.0
    if not ok:
        v.fail(f"s{key} = {re!r}{im:+}j terms {terms} disc {disc!r} oracle {ref!r}")


_ROW_CHECKS = {
    "eval-hyperbolic": _check_hyperbolic,
    "eval-maass": _check_maass,
    "eval-ads": _check_ads,
}


def _schema():
    path = os.path.join("src", "adsheat", "schemas", "verify_report.schema.json")
    with open(path, encoding="utf-8") as handle:
        return json.load(handle)


def _check_verify(inv: Invocation, rc: int, text: str, v: Verdict) -> None:
    import jsonschema

    try:
        report = json.loads(text)
        jsonschema.validate(report, _schema())
    except (ValueError, jsonschema.ValidationError) as exc:
        for _ in inv.rows:
            v.fail(f"report rejected: {str(exc)[:200]}")
        return
    checks = {c["name"]: c for c in report["checks"]}
    names_ok = [c["name"] for c in report["checks"]] == [name for (name,) in inv.rows]
    seed = int(inv.argv[inv.argv.index("--seed") + 1])
    seed_ok = report.get("seed") == seed and report.get("all_passed") is True
    for (name,) in inv.rows:
        check = checks.get(name)
        if check is None:
            v.fail(f"check {name} missing")
            continue
        metric, bound = next((m, b) for p, m, b in VERIFY_THRESHOLDS if name.startswith(p))
        ratio = check[metric] / bound
        v.note(f"{name}/threshold", ratio)
        if not (rc == 0 and names_ok and seed_ok and check["passed"] is True and ratio <= 1.0):
            v.fail(f"check {name}: rc {rc}, passed {check['passed']}, {metric} {check[metric]!r}")


def check_output(inv: Invocation, rc: int, text: str, oracle: Oracles) -> Verdict:
    """Check one invocation's exit code and output against its expected rows."""
    v = Verdict()
    if inv.command == "verify":
        _check_verify(inv, rc, text, v)
        return v
    try:
        rows = _parse_csv(inv.command, text)
    except ValueError as exc:
        for _ in inv.rows:
            v.fail(f"output rejected: {exc}")
        return v
    in_grid_order = [key for key in inv.rows if key in rows] == list(rows)
    complete = len(rows) == len(inv.rows)
    if rc not in (0, 3) or not in_grid_order or (rc == 0) != complete:
        for _ in inv.rows:
            v.fail(f"exit code {rc}, {len(rows)} of {len(inv.rows)} rows, grid order {in_grid_order}")
        return v
    row_check = _ROW_CHECKS[inv.command]
    for key in inv.rows:
        row = rows.get(key)
        if row is None:
            v.fail(f"row {key} missing (exit code {rc})")
            continue
        try:
            row_check(row, key, oracle, v)
        except ValueError as exc:
            v.fail(f"row {key} unreadable: {exc}")
    return v
