"""Command line front end.

Subcommands
-----------
eval-hyperbolic   radial heat kernel rows  (t, n, x, q)
eval-maass        spin-weighted ball kernel rows, both integral routes
eval-ads          fibered subelliptic kernel rows, series + integral routes
identity          both sides of the two cross-check identities
verify            residual check battery as a JSON report

Shared conventions: every value flag can also come from a ``--config`` file
of ``key = value`` lines (explicit flags win); ``--grid name=lo:hi:count``
(inclusive linspace) or ``--grid name=v1,v2,...`` sweeps a parameter, and
multiple ``--grid`` flags form a cartesian product in column order.  CSV
output carries 17 significant digits, LF line endings and UTF-8; rows are
emitted in grid order and repeated runs are byte-identical.  Eval rows that
differ only in the innermost column (x, d, theta), or for eval-maass only in
kappa and d, form one group: one q_t call, one quadrature per route, so a
quadrature row's last digits can depend on its group; the ``--max-nodes``
budget holds per integral, that is per group, and a group that fails is
retried one kappa at a time (eval-maass), then row by row.  A ``--d`` row is
evaluated at exactly its d (0 <= d < 700) with no twist; only a ``--w/--y``
pair is paired, once per group, and its rows print the pair's distance.

Exit status: 0 on success, 2 on a usage or configuration error, 3 when a
computation failed to converge (completed rows are still written and the
failures are listed on stderr) or a verification check did not pass.  A bad
value's message leads with its source: ``--t``, ``--grid t=0.5,abc`` or
``run.cfg: max_nodes``.  An unwritable ``--output`` and an ``identity`` row
outside double range also exit 2.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import asdict, dataclass
from datetime import datetime, timezone
from functools import lru_cache
from typing import Any, Callable, Iterator, Sequence, TextIO

import numpy as np

from .geometry import (
    TWO_PI,
    BallPoint,
    FiberAngle,
    bergman_pairing,
    require_int,
    twist_phase,
)
from .kernels import (
    DIRECT_ROUTE_MIN_DISTANCE,
    SeriesConfig,
    ads_kernel_integral,
    ads_kernel_series_detail,
    maass_direct_profile,
    maass_radial_profile,
    theta_identity_lhs,
    theta_identity_rhs,
)
from .quadrature import ConvergenceError, QuadratureConfig
from .radial_heat import hyperbolic_heat_kernel
from .special import chebyshev_T, gauss_2f1_terminating
from .verify import DEFAULT_SUITES, run_default_suite


class UsageError(ValueError):
    """Bad flag value, bad config line, or contradictory options."""


# ---------------------------------------------------------------------------
# value converters (shared by flags and config-file entries)


def _conv_float(raw: str | float) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise UsageError(f"expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"expected a finite number, got {raw!r}")
    return value


def _conv_int(raw: str | float) -> int:
    """A number within 1e-9 of an integer: ``2``, ``2.0`` or a grid range's point."""
    value = _conv_float(raw)
    if abs(value - round(value)) > 1e-9:
        raise UsageError(f"expected an integer, got {raw!r}")
    # digits alone stay exact past 2**53 (a seed)
    return int(raw) if isinstance(raw, str) and raw.strip().isdecimal() else round(value)


def _conv_point(raw: str) -> tuple[complex, ...]:
    try:
        return tuple(complex(tok.strip()) for tok in raw.split(","))
    except ValueError:
        raise UsageError(
            f"expected comma-separated complex coordinates, got {raw!r}"
        ) from None


def _choice(*allowed: str) -> Callable[[str], str]:
    def convert(raw: str) -> str:
        if raw not in allowed:
            raise UsageError(f"expected one of {', '.join(allowed)}; got {raw!r}")
        return raw

    return convert


def _convert(convert: Callable[[Any], Any], raw: Any, source: str) -> Any:
    """``convert(raw)``, its error led by ``source``: a flag, grid entry or config key."""
    try:
        return convert(raw)
    except UsageError as exc:
        raise UsageError(f"{source}: {exc}") from None


@dataclass(frozen=True)
class _Param:
    """One mergeable value option of a subcommand."""

    convert: Callable[[str], Any]
    default: Any
    gridable: bool = False
    help: str = ""


_TOL_PARAMS: dict[str, _Param] = {
    "abs_tol": _Param(_conv_float, QuadratureConfig.abs_tol, help="quadrature absolute tolerance"),
    "rel_tol": _Param(_conv_float, QuadratureConfig.rel_tol, help="quadrature relative tolerance"),
    "max_nodes": _Param(
        _conv_int,
        QuadratureConfig.max_nodes,
        help="quadrature node budget per integral; one may serve a row group",
    ),
}

# the records several subcommands share
_T = _Param(_conv_float, 1.0, gridable=True, help="diffusion time")
_N = _Param(_conv_int, 1, gridable=True, help="complex dimension n (H^(2n+1) for eval-hyperbolic)")
_D = _Param(_conv_float, 0.5, gridable=True, help="hyperbolic distance")
_W = _Param(_conv_point, None, help="first ball point, e.g. 0.3+0.1j,0.2")
_Y = _Param(_conv_point, None, help="second ball point")
_OUTPUT_PARAMS: dict[str, _Param] = {
    "output": _Param(str, None, help="output path ('-' = stdout)"),
    "format": _Param(_choice("csv", "json"), None, help="csv (default) or json; verify: json"),
}

_COMMAND_PARAMS: dict[str, dict[str, _Param]] = {
    "eval-hyperbolic": {
        "t": _T,
        "n": _N,
        "x": _Param(_conv_float, 1.0, gridable=True, help="geodesic distance"),
        **_OUTPUT_PARAMS,
    },
    "eval-maass": {
        "t": _T,
        "n": _N,
        "kappa": _Param(_conv_float, 0.0, gridable=True, help="spin weight (half-integer)"),
        "d": _D,
        "w": _W,
        "y": _Y,
        **_TOL_PARAMS,
        **_OUTPUT_PARAMS,
    },
    "eval-ads": {
        "t": _T,
        "n": _N,
        "d": _D,
        "theta": _Param(_conv_float, 0.0, gridable=True, help="fiber angle"),
        "w": _W,
        "y": _Y,
        "eps_tail": _Param(_conv_float, SeriesConfig.eps_tail, help="series tail cutoff"),
        "k_max": _Param(_conv_int, None, help="pin the series at |k| <= k_max"),
        "normalization": _Param(
            _choice("series", "theorem"),
            "series",
            help="report the plain mode sum or the sum divided by 2 pi",
        ),
        **_TOL_PARAMS,
        **_OUTPUT_PARAMS,
    },
    "identity": {
        "m": _Param(_conv_int, None, gridable=True, help="polynomial degree"),
        "t": _T,
        "u": _Param(_conv_float, 0.5, gridable=True, help="evaluation abscissa"),
        "theta": _Param(_conv_float, 0.7, gridable=True, help="fiber angle"),
        "k_max": _Param(_conv_int, 12, help="shifted-copy count for the theta identity"),
        "which": _Param(
            _choice("both", "gauss-cosh", "theta"),
            "both",
            help="which identity family to tabulate",
        ),
        **_OUTPUT_PARAMS,
    },
    "verify": {
        "suite": _Param(
            str, "all", help="'all' or comma list of " + ", ".join(DEFAULT_SUITES)
        ),
        "seed": _Param(_conv_int, 42, help="seed for the randomized operator samples"),
        **_OUTPUT_PARAMS,
    },
}

# the gridable parameters in declaration order: the leading columns, and
# the grid (cartesian product) order
_GRID_ORDER: dict[str, tuple[str, ...]] = {
    command: tuple(name for name, param in params.items() if param.gridable)
    for command, params in _COMMAND_PARAMS.items()
}

_CSV_HEADERS: dict[str, tuple[str, ...]] = {
    "eval-hyperbolic": _GRID_ORDER["eval-hyperbolic"] + ("q",),
    "eval-maass": _GRID_ORDER["eval-maass"] + ("re(v)", "im(v)", "route", "route_discrepancy"),
    "eval-ads": _GRID_ORDER["eval-ads"]
    + ("re(s)", "im(s)", "series_terms_used", "route_discrepancy"),
    "identity": ("identity",)
    + _GRID_ORDER["identity"]
    + ("k_terms", "re(lhs)", "im(lhs)", "re(rhs)", "im(rhs)", "abs_diff"),
}


# ---------------------------------------------------------------------------
# config file + grid handling


def _read_config_file(path: str) -> dict[str, str]:
    """Parse ``key = value`` lines; '#' starts a comment, blanks are skipped."""
    entries: dict[str, str] = {}
    try:
        with open(path, "r", encoding="utf-8") as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise UsageError(f"cannot read config file {path!r}: {exc}") from None
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"{path}:{lineno}: expected 'key = value', got {line!r}")
        key, value = line.split("=", 1)
        entries[key.strip().replace("-", "_")] = value.strip()
    return entries


def _parse_grid_entry(entry: str, params: dict[str, _Param]) -> tuple[str, list[Any]]:
    if "=" not in entry:
        raise UsageError("expected name=spec")
    name, spec = entry.split("=", 1)
    name = name.strip().replace("-", "_")
    spec = spec.strip()
    param = params.get(name)
    if param is None or not param.gridable:
        allowed = ", ".join(k for k, v in params.items() if v.gridable)
        raise UsageError(f"parameter {name!r} cannot be gridded (choose from {allowed})")
    if ":" in spec:
        parts = spec.split(":")
        if len(parts) != 3:
            raise UsageError(f"grid range must be lo:hi:count, got {spec!r}")
        lo, hi, count = _conv_float(parts[0]), _conv_float(parts[1]), _conv_int(parts[2])
        if count < 1:
            raise UsageError(f"grid count must be >= 1, got {count}")
        raw_values: list[Any] = [float(v) for v in np.linspace(lo, hi, count)]
    else:
        raw_values = [tok for tok in spec.split(",") if tok.strip()]
        if not raw_values:
            raise UsageError("empty grid value list")
    return name, [param.convert(v) for v in raw_values]


def _merge_options(args: argparse.Namespace, command: str) -> dict[str, list[Any]]:
    """Resolve each parameter once: its flag, else its config entry, else its default.

    Every value, grid value and grid range part is converted once, through
    :func:`_convert`.  Returns the per-column value lists (singletons unless
    gridded) and leaves the resolved scalars on ``args``.
    """
    params = _COMMAND_PARAMS[command]
    config = _read_config_file(args.config) if args.config else {}
    config_grid = [s.strip() for s in config.pop("grid", "").split(";") if s.strip()]
    known_anywhere = {k for table in _COMMAND_PARAMS.values() for k in table}
    for key in config:
        # keys for other subcommands are tolerated so one config file can
        # serve a whole pipeline; typos are still caught
        if key not in known_anywhere:
            raise UsageError(f"unknown config key {key!r}")

    grids: dict[str, list[Any]] = {}
    grid_source = "--grid" if args.grid else f"{args.config}: grid"
    for entry in args.grid or config_grid:
        name, values = _convert(
            lambda e: _parse_grid_entry(e, params), entry, f"{grid_source} {entry}"
        )
        if name in grids:
            raise UsageError(f"duplicate grid for {name!r}")
        grids[name] = values

    sources: dict[str, str] = {}  # the flag or config entry each given value came from
    for name, param in params.items():
        flag = "--" + name.replace("_", "-")
        raw = getattr(args, name)
        if raw is not None:
            if name in grids:
                raise UsageError(f"{flag} conflicts with --grid {name}=...")
            sources[name] = flag
        elif name in config:
            raw, sources[name] = config[name], f"{args.config}: {name}"
        value = param.default if raw is None else _convert(param.convert, raw, sources[name])
        setattr(args, name, value)
    if sources.keys() & {"w", "y"} and "d" in sources.keys() | grids.keys():
        raise UsageError("--w/--y fix the geometry; they conflict with --d and a grid over d")

    return {
        name: grids.get(name, [getattr(args, name)]) for name in _GRID_ORDER[command]
    }


def _grid_product(value_lists: dict[str, list[Any]]) -> list[dict[str, Any]]:
    """Cartesian product of the value lists, first column outermost."""
    combos = itertools.product(*value_lists.values())
    return [dict(zip(value_lists, combo)) for combo in combos]


# ---------------------------------------------------------------------------
# output plumbing


@contextmanager
def _out_stream(path: str | None) -> Iterator[TextIO]:
    if path in (None, "-"):
        yield sys.stdout
        return
    try:
        handle = open(path, "w", encoding="utf-8", newline="")
    except OSError as exc:
        raise UsageError(f"cannot write output file {path!r}: {exc}") from None
    with handle:
        yield handle


def _write_json(payload: dict[str, Any], path: str | None) -> None:
    with _out_stream(path) as out:
        out.write(json.dumps(payload, indent=2))
        out.write("\n")


def _emit_rows(command: str, rows: list[dict[str, Any]], fmt: str, path: str | None) -> None:
    if fmt == "json":
        _write_json({"command": command, "rows": rows}, path)
        return
    header = _CSV_HEADERS[command]
    with _out_stream(path) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            cells = (row[name] for name in header)
            # floats (np.float64 included) at 17 digits; csv writes None as ""
            writer.writerow([format(v, ".17g") if isinstance(v, float) else v for v in cells])


# ---------------------------------------------------------------------------
# eval subcommands: one pipeline, one row builder per command


def _paired_points(args: argparse.Namespace, n: int, d: Any) -> tuple[np.ndarray, np.ndarray]:
    """Distances and twists of a row group, shaped like its ``d``.

    Without --w/--y each row's d is its distance, with twist 0.  Otherwise
    the one --w/--y pair is paired once, and its distance and twist serve
    every row (d is then not given).
    """
    if args.w is None and args.y is None:
        d = np.asarray(d, dtype=float)
        return d, np.zeros_like(d)
    w = BallPoint(args.w) if args.w is not None else BallPoint.origin(len(args.y))
    y = BallPoint(args.y) if args.y is not None else BallPoint.origin(w.n)
    if w.n != n or y.n != n:
        raise UsageError(f"--w/--y have dimension {w.n}/{y.n} but n={n}; pass matching --n")
    dist, twist = bergman_pairing(w.coords, y.coords)
    return np.full(np.shape(d), dist), np.full(np.shape(d), twist)


def _hyperbolic_rows(args: argparse.Namespace) -> Callable[..., list[dict[str, Any]]]:
    def rows(group: list[dict[str, Any]]) -> list[dict[str, Any]]:
        qs = hyperbolic_heat_kernel(group[0]["t"], group[0]["n"], [p["x"] for p in group])
        return [{**p, "q": float(q)} for p, q in zip(group, qs)]

    return rows


def _maass_rows(args: argparse.Namespace) -> Callable[..., list[dict[str, Any]]]:
    quad = QuadratureConfig(args.abs_tol, args.rel_tol, args.max_nodes)

    def rows(group: list[dict[str, Any]]) -> list[dict[str, Any]]:
        t, n = group[0]["t"], group[0]["n"]
        kappas = {k: i for i, k in enumerate(dict.fromkeys(p["kappa"] for p in group))}
        ds = {d: j for j, d in enumerate(dict.fromkeys(p["d"] for p in group))}
        dists, twists = _paired_points(args, n, list(ds))
        phases = [twist_phase(twists, kappa) for kappa in kappas]
        substituted = maass_radial_profile(t, n, list(kappas), dists, config=quad)
        far = dists >= DIRECT_ROUTE_MIN_DISTANCE  # else the direct route delegates
        direct = substituted.copy()
        direct[:, far] = maass_direct_profile(t, n, list(kappas), dists[far], config=quad)

        def row(p: dict[str, Any]) -> dict[str, Any]:
            i, j = kappas[p["kappa"]], ds[p["d"]]
            phase = complex(phases[i][j])
            v = phase * float(direct[i, j])
            return {
                **p,
                "d": float(dists[j]),
                "re(v)": v.real,
                "im(v)": v.imag,
                "route": "direct" if far[j] else "substituted",
                "route_discrepancy": abs(v - phase * float(substituted[i, j])),
            }

        return [row(p) for p in group]

    return rows


def _ads_rows(args: argparse.Namespace) -> Callable[..., list[dict[str, Any]]]:
    quad = QuadratureConfig(args.abs_tol, args.rel_tol, args.max_nodes)
    series_cfg = SeriesConfig(eps_tail=args.eps_tail, k_max_override=args.k_max)
    report_theorem = args.normalization == "theorem"

    def rows(group: list[dict[str, Any]]) -> list[dict[str, Any]]:
        t, n = group[0]["t"], group[0]["n"]
        dist, twist = map(float, _paired_points(args, n, group[0]["d"]))
        fibers = [FiberAngle(p["theta"]).theta for p in group]
        angles = [f + twist for f in fibers]
        detail = ads_kernel_series_detail(t, n, dist, angles[0], series_cfg, quad)
        integrals = ads_kernel_integral(t, n, dist, angles, series_cfg, quad)

        def row(p: dict[str, Any], fiber: float, angle: float, integral: float) -> dict[str, Any]:
            series = detail.at_angle(angle).value
            s = series / TWO_PI if report_theorem else series
            return {
                **p,
                "d": dist,
                "theta": fiber,
                "re(s)": s.real,
                "im(s)": s.imag,
                "series_terms_used": 2 * detail.modes_used + 1,
                "route_discrepancy": abs(integral - series / TWO_PI),
            }

        return [row(*r) for r in zip(group, fibers, angles, integrals)]

    return rows


_ROW_BUILDERS: dict[str, Callable[[argparse.Namespace], Callable[..., list[dict[str, Any]]]]] = {
    "eval-hyperbolic": _hyperbolic_rows,
    "eval-maass": _maass_rows,
    "eval-ads": _ads_rows,
}


def _handle_eval(args: argparse.Namespace) -> int:
    """Merge options, build the grid, evaluate rows in order, emit them.

    Rows differing only in the innermost column (x, d or theta; kappa and d
    for eval-maass) are evaluated as one group, each at the d it prints: a
    --d row at its d as given, a --w/--y row at the distance of the pair,
    paired once per group.  A group that fails is retried one kappa at a
    time (eval-maass), then row by row; a row that does not converge on its
    own is left out and listed on stderr, and the exit code is then 3.
    """
    command = args.command
    value_lists = _merge_options(args, command)
    group_rows = _ROW_BUILDERS[command](args)
    params_list = _grid_product(value_lists)
    shared = _GRID_ORDER[command][:-1]
    rows: list[dict[str, Any]] = []
    failures: list[tuple[dict[str, Any], ConvergenceError]] = []

    def runs(group: list[dict[str, Any]], columns: tuple[str, ...]) -> list[list[dict[str, Any]]]:
        """The runs of ``group`` that agree on ``columns``."""
        same_columns = itertools.groupby(group, key=lambda p: [p[c] for c in columns])
        return [list(same) for _, same in same_columns]

    def evaluate(group: list[dict[str, Any]]) -> None:
        try:
            rows.extend(group_rows(group))
        except ConvergenceError as exc:
            if len(group) == 1:
                failures.append((group[0], exc))
                return
            # an eval-maass group of several kappa is retried one kappa at a
            # time, any other group row by row: only the rows that fail by
            # themselves are left out
            parts = runs(group, shared)
            for part in parts if len(parts) > 1 else [[p] for p in group]:
                evaluate(part)

    # eval-maass rows that differ only in kappa and d share one quadrature per route
    for group in runs(params_list, shared[:-1] if command == "eval-maass" else shared):
        evaluate(group)
    _emit_rows(command, rows, args.format or "csv", args.output)
    if not failures:
        return 0
    for p, exc in failures:
        spec = ", ".join(f"{k}={v}" for k, v in p.items())
        print(f"warning: row ({spec}) did not converge: {exc}", file=sys.stderr)
    total = len(params_list)
    print(
        f"warning: {len(failures)} of {total} rows failed; "
        f"output holds the {total - len(failures)} completed rows",
        file=sys.stderr,
    )
    return 3


def _handle_identity(args: argparse.Namespace) -> int:
    value_lists = _merge_options(args, "identity")
    k_terms = require_int(args.k_max, "--k-max", 1)

    m_values = value_lists["m"]
    if m_values == [None]:
        m_values = list(range(13))
    if min(m_values) < 0:
        raise UsageError(f"polynomial degree m must be >= 0, got {min(m_values)}")

    def row(identity: str, lhs: complex, rhs: complex, **params: Any) -> dict[str, Any]:
        return {
            **dict.fromkeys(_CSV_HEADERS["identity"]),
            **params,
            "identity": identity,
            "re(lhs)": lhs.real,
            "im(lhs)": lhs.imag,
            "re(rhs)": rhs.real,
            "im(rhs)": rhs.imag,
            "abs_diff": abs(lhs - rhs),
        }

    rows: list[dict[str, Any]] = []
    if args.which in ("both", "gauss-cosh"):
        for p in _grid_product({"m": m_values, "u": value_lists["u"]}):
            m, u = p["m"], p["u"]
            if max(m, 1) * abs(u) > 709.0:  # past it cosh(m u) leaves double range
                raise ValueError(f"gauss-cosh needs max(m, 1)*|u| <= 709, got m={m}, u={u}")
            lhs = gauss_2f1_terminating(m, (1.0 - math.cosh(u)) / 2.0)
            rows.append(row("gauss-cosh", lhs, chebyshev_T(m, math.cosh(u)), **p))
    if args.which in ("both", "theta"):
        for p in _grid_product({name: value_lists[name] for name in ("t", "u", "theta")}):
            lhs = theta_identity_lhs(k_terms=k_terms, **p)
            rhs = theta_identity_rhs(k_terms=k_terms, **p)
            rows.append(row("theta", lhs, rhs, **p, k_terms=k_terms))
    _emit_rows("identity", rows, args.format or "csv", args.output)
    return 0


def _handle_verify(args: argparse.Namespace) -> int:
    _merge_options(args, "verify")
    if args.format == "csv":
        raise UsageError("verify emits a JSON report; --format csv is not available")
    if args.suite == "all":
        suites: tuple[str, ...] = DEFAULT_SUITES
    else:
        suites = tuple(s.strip() for s in args.suite.split(",") if s.strip())
        if not suites:
            raise UsageError("empty --suite selection")
    outcomes = run_default_suite(suites, args.seed)

    report: dict[str, Any] = {"suite": args.suite}
    if args.timestamp:
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    report["seed"] = args.seed
    report["all_passed"] = all(o.passed for o in outcomes)
    report["checks"] = [asdict(o) for o in outcomes]
    _write_json(report, args.output)
    if not report["all_passed"]:
        failed = [o.name for o in outcomes if not o.passed]
        print(f"verification failed: {', '.join(failed)}", file=sys.stderr)
        return 3
    return 0


# ---------------------------------------------------------------------------
# parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="adsheat",
        description=(
            "Heat kernels of the fibered AdS space, the spin-weighted ball "
            "Laplacian, and odd-dimensional hyperbolic space, with built-in "
            "cross-checks."
        ),
    )
    subparsers = parser.add_subparsers(dest="command", required=True)

    descriptions = {
        "eval-hyperbolic": "radial heat kernel q_t(x) on H^(2n+1)",
        "eval-maass": "spin-weighted ball heat kernel by two independent routes",
        "eval-ads": "fibered subelliptic heat kernel: mode series vs shifted Gaussians",
        "identity": "tabulate both sides of the built-in cross-check identities",
        "verify": "run the residual check battery and emit a JSON report",
    }
    handlers = {
        **dict.fromkeys(_ROW_BUILDERS, _handle_eval),
        "identity": _handle_identity,
        "verify": _handle_verify,
    }

    for command, params in _COMMAND_PARAMS.items():
        sub = subparsers.add_parser(command, description=descriptions[command])
        for name, param in params.items():
            flag = "--" + name.replace("_", "-")
            sub.add_argument(flag, type=str, default=None, help=param.help, metavar="V")
        if _GRID_ORDER[command]:
            sub.add_argument(
                "--grid",
                action="append",
                metavar="NAME=SPEC",
                help="sweep a parameter: lo:hi:count (inclusive) or v1,v2,...",
            )
        else:
            sub.set_defaults(grid=None)
        sub.add_argument("--config", metavar="PATH", help="key=value file; flags win")
        if command == "verify":
            sub.add_argument(
                "--timestamp",
                action="store_true",
                help="include a UTC timestamp (omitted by default so reports are reproducible)",
            )
        sub.set_defaults(handler=handlers[command])
    return parser


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:  # built on first use, then reused
    return build_parser()


def main(argv: Sequence[str] | None = None) -> int:
    args = _parser().parse_args(argv)
    try:
        return args.handler(args)
    except ConvergenceError as exc:
        print(f"error: computation did not converge: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return 2

