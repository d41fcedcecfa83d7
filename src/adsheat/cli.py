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
computed one after another and emitted in grid order, so repeated runs are
byte-identical.  ``--jobs`` (and the config key ``jobs``) is accepted for
old command lines and ignored.

Exit status: 0 on success, 2 on a usage or configuration error, 3 when a
computation failed to converge (completed rows are still written and the
failures are listed on stderr) or a verification check did not pass.
"""

from __future__ import annotations

import argparse
import csv
import itertools
import json
import math
import sys
from contextlib import contextmanager
from dataclasses import dataclass
from datetime import datetime, timezone
from typing import Any, Callable, Iterator, Sequence, TextIO

import numpy as np

from .geometry import BallPoint, FiberAngle, hyperbolic_distance, point_at_distance
from .kernels import (
    DIRECT_ROUTE_MIN_DISTANCE,
    AdsKernelQuery,
    MaassKernelQuery,
    SeriesConfig,
    ads_kernel_integral,
    ads_kernel_series_detail,
    maass_kernel_direct,
    maass_kernel_substituted,
    theta_identity_lhs,
    theta_identity_rhs,
)
from .quadrature import ConvergenceError, QuadratureConfig
from .radial_heat import hyperbolic_heat_kernel
from .special import gauss_2f1_terminating
from .verify import DEFAULT_SUITES, ConfigurationError, run_default_suite

TWO_PI = 2.0 * math.pi


class UsageError(ValueError):
    """Bad flag value, bad config line, or contradictory options."""


# ---------------------------------------------------------------------------
# value converters (shared by flags and config-file entries)


def _conv_float(raw: str) -> float:
    try:
        value = float(raw)
    except ValueError:
        raise UsageError(f"expected a number, got {raw!r}") from None
    if not math.isfinite(value):
        raise UsageError(f"expected a finite number, got {raw!r}")
    return value


def _conv_int(raw: str) -> int:
    try:
        return int(raw)
    except ValueError:
        raise UsageError(f"expected an integer, got {raw!r}") from None


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


@dataclass(frozen=True)
class _Param:
    """One mergeable value option of a subcommand."""

    convert: Callable[[str], Any]
    default: Any
    gridable: bool = False
    integral: bool = False
    help: str = ""


_TOL_PARAMS: dict[str, _Param] = {
    "abs_tol": _Param(_conv_float, 1e-11, help="quadrature absolute tolerance"),
    "rel_tol": _Param(_conv_float, 1e-9, help="quadrature relative tolerance"),
    "max_nodes": _Param(_conv_int, 100_000, help="quadrature node budget per integral"),
}

_COMMAND_PARAMS: dict[str, dict[str, _Param]] = {
    "eval-hyperbolic": {
        "t": _Param(_conv_float, 1.0, gridable=True, help="diffusion time"),
        "n": _Param(_conv_int, 1, gridable=True, integral=True, help="space is H^(2n+1)"),
        "x": _Param(_conv_float, 1.0, gridable=True, help="geodesic distance"),
    },
    "eval-maass": {
        "t": _Param(_conv_float, 1.0, gridable=True, help="diffusion time"),
        "n": _Param(_conv_int, 1, gridable=True, integral=True, help="complex dimension"),
        "kappa": _Param(
            _conv_float, 0.0, gridable=True, help="spin weight (half-integer)"
        ),
        "d": _Param(_conv_float, 0.5, gridable=True, help="hyperbolic distance"),
        "w": _Param(_conv_point, None, help="first ball point, e.g. 0.3+0.1j,0.2"),
        "y": _Param(_conv_point, None, help="second ball point"),
        **_TOL_PARAMS,
    },
    "eval-ads": {
        "t": _Param(_conv_float, 1.0, gridable=True, help="diffusion time"),
        "n": _Param(_conv_int, 1, gridable=True, integral=True, help="complex dimension"),
        "d": _Param(_conv_float, 0.5, gridable=True, help="hyperbolic distance"),
        "theta": _Param(_conv_float, 0.0, gridable=True, help="fiber angle"),
        "w": _Param(_conv_point, None, help="first ball point"),
        "y": _Param(_conv_point, None, help="second ball point"),
        "eps_tail": _Param(_conv_float, 1e-9, help="series tail cutoff"),
        "k_max": _Param(_conv_int, None, help="pin the series at |k| <= k_max"),
        "normalization": _Param(
            _choice("series", "theorem"),
            "series",
            help="report the plain mode sum or the sum divided by 2 pi",
        ),
        **_TOL_PARAMS,
    },
    "identity": {
        "t": _Param(_conv_float, 1.0, gridable=True, help="diffusion time"),
        "u": _Param(_conv_float, 0.5, gridable=True, help="evaluation abscissa"),
        "theta": _Param(_conv_float, 0.7, gridable=True, help="fiber angle"),
        "m": _Param(_conv_int, None, gridable=True, integral=True, help="polynomial degree"),
        "k_max": _Param(_conv_int, 12, help="shifted-copy count for the theta identity"),
        "which": _Param(
            _choice("both", "gauss-cosh", "theta"),
            "both",
            help="which identity family to tabulate",
        ),
    },
    "verify": {
        "suite": _Param(
            str, "all", help="'all' or comma list of " + ", ".join(DEFAULT_SUITES)
        ),
        "seed": _Param(_conv_int, 42, help="seed for the randomized operator samples"),
    },
}

# column order doubles as grid (cartesian product) order
_GRID_ORDER: dict[str, tuple[str, ...]] = {
    "eval-hyperbolic": ("t", "n", "x"),
    "eval-maass": ("t", "n", "kappa", "d"),
    "eval-ads": ("t", "n", "d", "theta"),
    "identity": ("m", "t", "u", "theta"),
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
        raise UsageError(f"--grid expects name=spec, got {entry!r}")
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
        lo = _conv_float(parts[0])
        hi = _conv_float(parts[1])
        count = _conv_int(parts[2])
        if count < 1:
            raise UsageError(f"grid count must be >= 1, got {count}")
        raw_values = [float(v) for v in np.linspace(lo, hi, count)]
    else:
        raw_values = [_conv_float(tok) for tok in spec.split(",") if tok.strip()]
        if not raw_values:
            raise UsageError(f"empty grid value list in {entry!r}")
    if param.integral:
        values: list[Any] = []
        for v in raw_values:
            if abs(v - round(v)) > 1e-9:
                raise UsageError(f"grid for {name!r} needs integers, got {v!r}")
            values.append(int(round(v)))
        return name, values
    return name, raw_values


def _merge_options(args: argparse.Namespace, command: str) -> dict[str, list[Any]]:
    """Resolve flags < config < defaults and expand grids.

    Returns the per-parameter value lists (singletons unless gridded) and
    leaves merged scalars on ``args``.
    """
    params = _COMMAND_PARAMS[command]
    explicit = {k for k in params if getattr(args, k) is not None}
    grid_entries: list[str] = list(args.grid or [])

    config = _read_config_file(args.config) if args.config else {}
    if "grid" in config:
        if not grid_entries:
            grid_entries = [s.strip() for s in config["grid"].split(";") if s.strip()]
        del config["grid"]
    config.pop("jobs", None)  # deprecated and ignored, like --jobs
    for key in ("output", "format"):
        if key in config:
            raw = config.pop(key)
            if getattr(args, key, None) is None:
                setattr(args, key, _choice("csv", "json")(raw) if key == "format" else raw)
    known_anywhere = {k for table in _COMMAND_PARAMS.values() for k in table}
    for key, raw in config.items():
        if key not in params:
            # keys for other subcommands are tolerated so one config file
            # can serve a whole pipeline; typos are still caught
            if key in known_anywhere:
                continue
            raise UsageError(f"unknown config key {key!r}")
        if key not in explicit:
            setattr(args, key, params[key].convert(raw))

    for key, param in params.items():
        value = getattr(args, key)
        if value is None:
            setattr(args, key, param.default)
        elif isinstance(value, str):
            setattr(args, key, param.convert(value))

    grids: dict[str, list[Any]] = {}
    for entry in grid_entries:
        name, values = _parse_grid_entry(entry, params)
        if name in explicit:
            raise UsageError(f"--{name.replace('_', '-')} conflicts with --grid {name}=...")
        if name in grids:
            raise UsageError(f"duplicate grid for {name!r}")
        grids[name] = values

    return {
        name: grids.get(name, [getattr(args, name)]) for name in _GRID_ORDER.get(command, ())
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
    else:
        handle = open(path, "w", encoding="utf-8", newline="")
        try:
            yield handle
        finally:
            handle.close()


def _fmt_cell(value: Any) -> str:
    if value is None:
        return ""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return format(float(value), ".17g")
    return str(value)


def _json_default(obj: Any) -> Any:
    if isinstance(obj, (np.floating, np.integer)):
        return obj.item()
    if isinstance(obj, np.bool_):
        return bool(obj)
    raise TypeError(f"not JSON serializable: {type(obj).__name__}")


def _write_json(payload: dict[str, Any], path: str | None) -> None:
    with _out_stream(path) as out:
        out.write(json.dumps(payload, indent=2, default=_json_default))
        out.write("\n")


def _emit_rows(
    command: str, rows: list[dict[str, Any]], fmt: str, path: str | None
) -> None:
    if fmt == "json":
        _write_json({"command": command, "rows": rows}, path)
        return
    header = _CSV_HEADERS[command]
    with _out_stream(path) as out:
        writer = csv.writer(out, lineterminator="\n")
        writer.writerow(header)
        for row in rows:
            writer.writerow([_fmt_cell(row[name]) for name in header])


def _report_failures(
    failures: list[tuple[dict[str, Any], ConvergenceError]], total: int
) -> None:
    for p, exc in failures:
        spec = ", ".join(f"{k}={v}" for k, v in p.items())
        print(f"warning: row ({spec}) did not converge: {exc}", file=sys.stderr)
    print(
        f"warning: {len(failures)} of {total} rows failed; "
        f"output holds the {total - len(failures)} completed rows",
        file=sys.stderr,
    )


# ---------------------------------------------------------------------------
# eval subcommands: one pipeline, one row builder per command


def _quad_config(args: argparse.Namespace) -> QuadratureConfig:
    return QuadratureConfig(
        abs_tol=args.abs_tol, rel_tol=args.rel_tol, max_nodes=args.max_nodes
    )


def _resolve_points(
    args: argparse.Namespace, n: int, d: float
) -> tuple[BallPoint, BallPoint, float]:
    """The point pair from --w/--y, or at distance d along axis 1.

    The third item is the distance a row reports: d as given, or the
    distance of the --w/--y pair.
    """
    w_raw, y_raw = args.w, args.y
    if w_raw is None and y_raw is None:
        return point_at_distance(d, n), BallPoint.origin(n), d
    w = BallPoint(w_raw) if w_raw is not None else BallPoint.origin(len(y_raw))
    y = BallPoint(y_raw) if y_raw is not None else BallPoint.origin(w.n)
    if w.n != n or y.n != n:
        raise UsageError(
            f"--w/--y have dimension {w.n}/{y.n} but n={n}; pass matching --n"
        )
    return w, y, hyperbolic_distance(w, y)


def _hyperbolic_rows(args: argparse.Namespace) -> Callable[..., dict[str, Any]]:
    def row(t: float, n: int, x: float) -> dict[str, Any]:
        return {"t": t, "n": n, "x": x, "q": float(hyperbolic_heat_kernel(t, n, x))}

    return row


def _maass_rows(args: argparse.Namespace) -> Callable[..., dict[str, Any]]:
    quad = _quad_config(args)

    def row(t: float, n: int, kappa: float, d: float) -> dict[str, Any]:
        w, y, shown_d = _resolve_points(args, n, d)
        query = MaassKernelQuery(t, n, kappa, w, y)
        dist = hyperbolic_distance(w, y)
        direct = maass_kernel_direct(query, quad)
        substituted = maass_kernel_substituted(query, quad)
        route = "direct" if dist >= DIRECT_ROUTE_MIN_DISTANCE else "substituted"
        v = direct if route == "direct" else substituted
        return {
            "t": t,
            "n": n,
            "kappa": kappa,
            "d": shown_d,
            "re(v)": v.real,
            "im(v)": v.imag,
            "route": route,
            "route_discrepancy": abs(direct - substituted),
        }

    return row


def _ads_rows(args: argparse.Namespace) -> Callable[..., dict[str, Any]]:
    quad = _quad_config(args)
    series_cfg = SeriesConfig(eps_tail=args.eps_tail, k_max_override=args.k_max)
    report_theorem = args.normalization == "theorem"

    def row(t: float, n: int, d: float, theta: float) -> dict[str, Any]:
        w, y, shown_d = _resolve_points(args, n, d)
        query = AdsKernelQuery(t, n, w, y, FiberAngle(theta % TWO_PI))
        dist = hyperbolic_distance(w, y)
        detail = ads_kernel_series_detail(query, series_cfg, quad)
        integral = ads_kernel_integral(
            t, n, dist, query.theta_eff % TWO_PI, series_cfg, quad
        )
        series_over_2pi = detail.value / TWO_PI
        s = series_over_2pi if report_theorem else detail.value
        return {
            "t": t,
            "n": n,
            "d": shown_d,
            "theta": query.theta.theta,
            "re(s)": s.real,
            "im(s)": s.imag,
            "series_terms_used": 2 * detail.modes_used + 1,
            "route_discrepancy": abs(complex(integral) - series_over_2pi),
        }

    return row


_ROW_BUILDERS: dict[str, Callable[[argparse.Namespace], Callable[..., dict[str, Any]]]] = {
    "eval-hyperbolic": _hyperbolic_rows,
    "eval-maass": _maass_rows,
    "eval-ads": _ads_rows,
}


def _handle_eval(args: argparse.Namespace) -> int:
    """Merge options, build the grid, evaluate rows in order, emit them.

    A row that does not converge is left out and listed on stderr; the
    exit code is then 3.
    """
    command = args.command
    value_lists = _merge_options(args, command)
    points_given = getattr(args, "w", None) is not None or getattr(args, "y", None) is not None
    if points_given and len(value_lists["d"]) > 1:
        raise UsageError("--w/--y fix the geometry; they conflict with a grid over d")
    row = _ROW_BUILDERS[command](args)
    params_list = _grid_product(value_lists)
    rows: list[dict[str, Any]] = []
    failures: list[tuple[dict[str, Any], ConvergenceError]] = []
    for p in params_list:
        try:
            rows.append(row(**p))
        except ConvergenceError as exc:
            failures.append((p, exc))
    _emit_rows(command, rows, args.format or "csv", args.output)
    if failures:
        _report_failures(failures, len(params_list))
        return 3
    return 0


def _handle_identity(args: argparse.Namespace) -> int:
    value_lists = _merge_options(args, "identity")
    which = args.which
    k_terms = args.k_max
    if k_terms is None or k_terms < 0:
        raise UsageError("--k-max must be a non-negative integer for identity")

    m_values = value_lists["m"]
    if m_values == [None]:
        m_values = list(range(13))
    for m in m_values:
        if m is None or m < 0:
            raise UsageError(f"polynomial degree m must be >= 0, got {m}")

    rows: list[dict[str, Any]] = []
    blank = dict.fromkeys(("identity", "m", "t", "u", "theta", "k_terms"))
    if which in ("both", "gauss-cosh"):
        for m in m_values:
            for u in value_lists["u"]:
                lhs = gauss_2f1_terminating(m, (1.0 - math.cosh(u)) / 2.0)
                rhs = math.cosh(m * u)
                rows.append(
                    {
                        **blank,
                        "identity": "gauss-cosh",
                        "m": m,
                        "u": u,
                        "re(lhs)": lhs,
                        "im(lhs)": 0.0,
                        "re(rhs)": rhs,
                        "im(rhs)": 0.0,
                        "abs_diff": abs(lhs - rhs),
                    }
                )
    if which in ("both", "theta"):
        for t in value_lists["t"]:
            for u in value_lists["u"]:
                for theta in value_lists["theta"]:
                    lhs = theta_identity_lhs(t, u, theta, k_terms)
                    rhs = theta_identity_rhs(t, u, theta, k_terms)
                    rows.append(
                        {
                            **blank,
                            "identity": "theta",
                            "t": t,
                            "u": u,
                            "theta": theta,
                            "k_terms": k_terms,
                            "re(lhs)": lhs.real,
                            "im(lhs)": lhs.imag,
                            "re(rhs)": rhs.real,
                            "im(rhs)": rhs.imag,
                            "abs_diff": abs(lhs - rhs),
                        }
                    )
    _emit_rows("identity", rows, args.format or "csv", args.output)
    return 0


def _handle_verify(args: argparse.Namespace) -> int:
    _merge_options(args, "verify")
    if args.format == "csv":
        raise UsageError("verify emits a JSON report; --format csv is not available")
    suite_label = args.suite
    if suite_label == "all":
        suites: tuple[str, ...] = DEFAULT_SUITES
    else:
        suites = tuple(s.strip() for s in suite_label.split(",") if s.strip())
        unknown = set(suites) - set(DEFAULT_SUITES)
        if unknown:
            raise UsageError(
                f"unknown suite(s) {sorted(unknown)}; choose from {', '.join(DEFAULT_SUITES)}"
            )
        if not suites:
            raise UsageError("empty --suite selection")

    # one suite at a time, in the order given
    outcomes = [o for s in suites for o in run_default_suite((s,), args.seed)]

    report: dict[str, Any] = {"suite": suite_label}
    if args.timestamp:
        report["timestamp"] = datetime.now(timezone.utc).isoformat()
    report["seed"] = args.seed
    report["all_passed"] = all(o.passed for o in outcomes)
    report["checks"] = [
        {
            "name": o.name,
            "passed": bool(o.passed),
            "max_abs_residual": float(o.max_abs_residual),
            "max_rel_residual": float(o.max_rel_residual),
            "config_echo": o.config_echo,
        }
        for o in outcomes
    ]
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
        if command in _GRID_ORDER:
            sub.add_argument(
                "--grid",
                action="append",
                metavar="NAME=SPEC",
                help="sweep a parameter: lo:hi:count (inclusive) or v1,v2,...",
            )
        else:
            sub.set_defaults(grid=None)
        sub.add_argument("--config", metavar="PATH", help="key=value file; flags win")
        sub.add_argument("--output", metavar="PATH", help="output path ('-' = stdout)")
        sub.add_argument(
            "--format",
            choices=("csv", "json"),
            default=None,
            help="csv (default) or json" if command != "verify" else "json only",
        )
        sub.add_argument(
            "--jobs", type=int, default=None, help="ignored (deprecated); rows run in order"
        )
        if command == "verify":
            sub.add_argument(
                "--timestamp",
                action="store_true",
                help="include a UTC timestamp (omitted by default so reports are reproducible)",
            )
        sub.set_defaults(handler=handlers[command])
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.handler(args)
    except ConfigurationError as exc:
        hint = ""
        if exc.suggested_step is not None:
            hint = f" (suggested step: {exc.suggested_step:.4g})"
        print(f"error: {exc}{hint}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"error: computation did not converge: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
