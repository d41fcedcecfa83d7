"""Command line front end.

Subcommands
-----------
eval-hyperbolic   radial heat kernel rows  (t, n, x, q)
eval-maass        spin-weighted ball kernel rows, both integral routes
eval-ads          fibered subelliptic kernel rows, series + integral routes
verify            residual check battery as a JSON report

Shared conventions: every value flag can also come from a ``--config`` file
of ``key = value`` lines (explicit flags win); ``--grid name=lo:hi:count``
(inclusive linspace) or ``--grid name=v1,v2,...`` sweeps a parameter, and
multiple ``--grid`` flags form a cartesian product in column order.  CSV
output carries 17 significant digits, LF line endings and UTF-8; rows are
emitted in grid order and repeated runs are byte-identical.  Eval rows that
differ only in the innermost column (x, d, theta), or for eval-maass only in
kappa and d, form one group: one kernel call per group (one q_t call, one
quadrature per route), so a quadrature row's last digits can depend on its
group; the ``--max-nodes`` budget holds per integral, that is per group, and
a group that fails is retried one kappa at a time (eval-maass), then row by
row.  A ``--d`` row is evaluated at exactly its d (0 <= d < 700) with no
twist; only a ``--w/--y`` pair is paired, once per group, and its rows print
the pair's distance.

The pipeline is column-wise: a group is a block of the grid's cartesian
product, its builder returns result columns, and each grid value is
formatted once, by position, so a signed zero is kept (``--grid x=-0.0,0``
prints ``-0`` and ``0``) and a value repeated in an outer column starts a
group of its own.  The output is written in one piece, after the last group.

Exit status: 0 on success, 2 on a usage or configuration error, 3 when a
computation failed to converge (completed rows are still written and the
failures are listed on stderr) or a verification check did not pass.  A bad
value's message leads with its source: ``--t``, ``--grid t=0.5,abc`` or
``run.cfg: max_nodes``.  An unwritable ``--output`` also exits 2.
"""

from __future__ import annotations

import argparse
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
    twist_phase,
)
from .kernels import (
    DIRECT_ROUTE_MIN_DISTANCE,
    SeriesConfig,
    ads_kernel_integral,
    ads_kernel_series_detail,
    maass_direct_profile,
    maass_radial_profile,
)
from .quadrature import ConvergenceError, QuadratureConfig
from .radial_heat import hyperbolic_heat_kernel
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


def _checked(convert: Callable[[Any], Any], check: Callable[[Any], Any]) -> Callable[[Any], Any]:
    """``convert``, then the library's range ``check``, whose ValueError becomes a UsageError."""

    def convert_and_check(raw: Any) -> Any:
        value = convert(raw)
        try:
            check(value)
        except ValueError as exc:
            raise UsageError(str(exc)) from None
        return value

    return convert_and_check


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


# range errors are raised at conversion, so that they too are led by their source
_TOL_PARAMS: dict[str, _Param] = {
    "abs_tol": _Param(
        _checked(_conv_float, lambda v: QuadratureConfig(abs_tol=v)),
        QuadratureConfig.abs_tol,
        help="quadrature absolute tolerance",
    ),
    "rel_tol": _Param(
        _checked(_conv_float, lambda v: QuadratureConfig(rel_tol=v)),
        QuadratureConfig.rel_tol,
        help="quadrature relative tolerance",
    ),
    "max_nodes": _Param(
        _checked(_conv_int, lambda v: QuadratureConfig(max_nodes=v)),
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
        "eps_tail": _Param(
            _checked(_conv_float, lambda v: SeriesConfig(eps_tail=v)),
            SeriesConfig.eps_tail,
            help="series tail cutoff",
        ),
        "k_max": _Param(
            _checked(_conv_int, lambda v: SeriesConfig(k_max_override=v)),
            None,
            help="pin the series at |k| <= k_max",
        ),
        "normalization": _Param(
            _choice("series", "theorem"),
            "series",
            help="report the plain mode sum or the sum divided by 2 pi",
        ),
        **_TOL_PARAMS,
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

# config keys some subcommand reads
_KNOWN_KEYS = {name for params in _COMMAND_PARAMS.values() for name in params}

_CSV_HEADERS: dict[str, tuple[str, ...]] = {
    "eval-hyperbolic": _GRID_ORDER["eval-hyperbolic"] + ("q",),
    "eval-maass": _GRID_ORDER["eval-maass"] + ("re(v)", "im(v)", "route", "route_discrepancy"),
    "eval-ads": _GRID_ORDER["eval-ads"]
    + ("re(s)", "im(s)", "series_terms_used", "route_discrepancy"),
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
    for key in config:
        # keys for other subcommands are tolerated so one config file can
        # serve a whole pipeline; typos are still caught
        if key not in _KNOWN_KEYS:
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


def _cells(values: Sequence[Any]) -> list[str]:
    """The CSV cells of one column, whose values share one type: floats
    (np.float64 included) at 17 digits, other values by ``str``."""
    if values and isinstance(values[0], float):
        return [format(v, ".17g") for v in values]
    return [str(v) for v in values]


class _Grid:
    """The cartesian product of per-column value lists, first column outermost.

    Each value's CSV cell is formatted once, by position, so ``-0.0`` and
    ``0`` keep their own cells.  A block holds one range of positions per
    column; its rows are a contiguous run of the product, in product order.
    """

    def __init__(self, value_lists: dict[str, list[Any]]) -> None:
        self.names = tuple(value_lists)
        self.values = tuple(value_lists.values())
        self.cells = tuple(_cells(values) for values in self.values)

    def blocks(self, inner: int) -> Iterator[tuple[range, ...]]:
        """The blocks that fix every column but the last ``inner``, in row order."""
        fixed = [[range(i, i + 1) for i in range(len(v))] for v in self.values[:-inner]]
        whole = tuple(range(len(v)) for v in self.values[-inner:])
        return (lead + whole for lead in itertools.product(*fixed))

    def columns(
        self, block: tuple[range, ...], results: dict[str, list[Any]], csv: bool
    ) -> dict[str, list[Any]]:
        """The columns of ``block``'s rows: the grid's, then ``results``, which
        replace a grid column of the same name; as CSV cells, or as values."""
        out: dict[str, list[Any]] = {}
        outer, inner = 1, math.prod(map(len, block))
        for name, column, span in zip(self.names, self.cells if csv else self.values, block):
            inner //= len(span)
            if name not in results:
                part = column[span.start : span.stop]
                if len(part) == 1:
                    part *= inner
                elif inner > 1:
                    repeated = (itertools.repeat(v, inner) for v in part)
                    part = list(itertools.chain.from_iterable(repeated))
                out[name] = part * outer
            outer *= len(span)
        out.update({name: _cells(column) for name, column in results.items()} if csv else results)
        return out


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


def _emit_rows(
    command: str, blocks: list[dict[str, list[Any]]], fmt: str, path: str | None
) -> None:
    """Write the rows of ``blocks`` in order, their columns in header order.

    A block maps column names to equal-length columns: CSV cells for csv,
    values for json; it holds every header column.  No cell holds a
    delimiter, quote or line break, so a CSV line is its cells joined by
    commas.
    """
    header = _CSV_HEADERS[command]
    rows = [row for block in blocks for row in zip(*(block[name] for name in header))]
    if fmt == "json":
        _write_json({"command": command, "rows": [dict(zip(header, row)) for row in rows]}, path)
        return
    text = "".join(f"{line}\n" for line in map(",".join, [header, *rows]))
    with _out_stream(path) as out:
        out.write(text)


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


def _hyperbolic_rows(args: argparse.Namespace) -> Callable[..., dict[str, list[Any]]]:
    def columns(t: float, n: int, xs: list[float]) -> dict[str, list[Any]]:
        return {"q": hyperbolic_heat_kernel(t, n, xs).tolist()}

    return columns


def _maass_rows(args: argparse.Namespace) -> Callable[..., dict[str, list[Any]]]:
    quad = QuadratureConfig(args.abs_tol, args.rel_tol, args.max_nodes)

    def columns(t: float, n: int, kappas: list[float], ds: list[float]) -> dict[str, list[Any]]:
        # each distinct kappa and d is evaluated once
        kappa_at = {k: i for i, k in enumerate(dict.fromkeys(kappas))}
        d_at = {d: j for j, d in enumerate(dict.fromkeys(ds))}
        dists, twists = _paired_points(args, n, list(d_at))
        phases = np.array([twist_phase(twists, kappa) for kappa in kappa_at])
        substituted = maass_radial_profile(t, n, list(kappa_at), dists, config=quad)
        far = dists >= DIRECT_ROUTE_MIN_DISTANCE  # else the direct route delegates
        direct = substituted.copy()
        direct[:, far] = maass_direct_profile(t, n, list(kappa_at), dists[far], config=quad)

        js = [d_at[d] for d in ds]
        rows = np.ix_([kappa_at[k] for k in kappas], js)  # kappa outer, d inner
        phase = phases[rows].ravel()
        v = phase * direct[rows].ravel()
        out = {
            "re(v)": v.real.tolist(),
            "im(v)": v.imag.tolist(),
            "route": ["direct" if f else "substituted" for f in far[js]] * len(kappas),
            "route_discrepancy": np.abs(v - phase * substituted[rows].ravel()).tolist(),
        }
        if args.w is not None or args.y is not None:
            # a --w/--y row prints the pair's distance; any other row keeps
            # its grid cell, since d_at merges -0.0 and 0
            out["d"] = dists[js].tolist() * len(kappas)
        return out

    return columns


def _ads_rows(args: argparse.Namespace) -> Callable[..., dict[str, list[Any]]]:
    quad = QuadratureConfig(args.abs_tol, args.rel_tol, args.max_nodes)
    series_cfg = SeriesConfig(eps_tail=args.eps_tail, k_max_override=args.k_max)
    report_theorem = args.normalization == "theorem"

    def columns(t: float, n: int, d: float, thetas: list[float]) -> dict[str, list[Any]]:
        dist, twist = map(float, _paired_points(args, n, d))
        fibers = [FiberAngle(theta).theta for theta in thetas]
        angles = [f + twist for f in fibers]
        detail = ads_kernel_series_detail(t, n, dist, angles[0], series_cfg, quad)
        integrals = ads_kernel_integral(t, n, dist, angles, series_cfg, quad)
        series = [detail.at_angle(angle).value for angle in angles]
        s = [z / TWO_PI for z in series] if report_theorem else series
        return {
            "d": [dist] * len(thetas),
            "theta": fibers,
            "re(s)": [z.real for z in s],
            "im(s)": [z.imag for z in s],
            "series_terms_used": [2 * detail.modes_used + 1] * len(thetas),
            "route_discrepancy": [abs(i - z / TWO_PI) for i, z in zip(integrals, series)],
        }

    return columns


_ROW_BUILDERS: dict[str, Callable[[argparse.Namespace], Callable[..., dict[str, list[Any]]]]] = {
    "eval-hyperbolic": _hyperbolic_rows,
    "eval-maass": _maass_rows,
    "eval-ads": _ads_rows,
}


def _handle_eval(args: argparse.Namespace) -> int:
    """Merge options, evaluate the grid group by group, emit the rows in grid order.

    A group fixes every column but the innermost (x, d or theta; kappa and d
    for eval-maass) and is one call of its row builder, which gets the
    group's fixed values and inner value lists and returns its result
    columns.  Each row is evaluated at the d it prints: a --d row at its d
    as given, a --w/--y row at the distance of the pair, paired once per
    group.  A group that fails is retried one kappa at a time (eval-maass),
    then row by row; a row that does not converge on its own is left out
    and listed on stderr, and the exit code is then 3.
    """
    command = args.command
    grid = _Grid(_merge_options(args, command))
    group_columns = _ROW_BUILDERS[command](args)
    inner = 2 if command == "eval-maass" else 1
    csv = (args.format or "csv") == "csv"
    blocks: list[dict[str, list[Any]]] = []
    failures: list[tuple[tuple[range, ...], ConvergenceError]] = []

    def evaluate(block: tuple[range, ...]) -> None:
        spans = zip(grid.values, block)
        fixed = [values[span.start] for values, span in itertools.islice(spans, len(block) - inner)]
        lists = [values[span.start : span.stop] for values, span in spans]
        try:
            results = group_columns(*fixed, *lists)
        except ConvergenceError as exc:
            # split the outermost column that spans several values: an
            # eval-maass group of several kappa is retried one kappa at a
            # time, any other group row by row, so only the rows that fail
            # by themselves are left out
            wide = next((c for c, span in enumerate(block) if len(span) > 1), None)
            if wide is None:
                failures.append((block, exc))
                return
            for i in block[wide]:
                evaluate(block[:wide] + (range(i, i + 1),) + block[wide + 1 :])
            return
        blocks.append(grid.columns(block, results, csv))

    for block in grid.blocks(inner):
        evaluate(block)
    _emit_rows(command, blocks, args.format or "csv", args.output)
    if not failures:
        return 0
    for block, exc in failures:
        spec = ", ".join(
            f"{name}={values[span.start]}"
            for name, values, span in zip(grid.names, grid.values, block)
        )
        print(f"warning: row ({spec}) did not converge: {exc}", file=sys.stderr)
    total = math.prod(map(len, grid.values))
    print(
        f"warning: {len(failures)} of {total} rows failed; "
        f"output holds the {total - len(failures)} completed rows",
        file=sys.stderr,
    )
    return 3


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
        "verify": "run the residual check battery and emit a JSON report",
    }
    handlers = {
        **dict.fromkeys(_ROW_BUILDERS, _handle_eval),
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
def _parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    """The parser, built on first use and then reused, and each subcommand's own parser."""
    parser = build_parser()
    (commands,) = (action.choices for action in parser._actions if action.dest == "command")
    return parser, commands


def _parse_args(argv: Sequence[str] | None) -> argparse.Namespace:
    """``build_parser().parse_args(argv)``, through the subcommand's own parser where it can.

    The top-level parser scans and converts every argument before it hands
    them to the subcommand's parser, which then parses them again.  Anything
    that is not a subcommand with arguments it knows (no argv, ``-h``, an
    unknown command or option) goes through the top-level parser, which
    gives the usage text, error and exit code.
    """
    argv = sys.argv[1:] if argv is None else list(argv)
    parser, commands = _parser()
    if argv and argv[0] in commands:
        args, unknown = commands[argv[0]].parse_known_args(argv[1:])
        if not unknown:
            args.command = argv[0]
            return args
    return parser.parse_args(argv)


def main(argv: Sequence[str] | None = None) -> int:
    args = _parse_args(argv)
    try:
        return args.handler(args)
    except ConvergenceError as exc:
        print(f"error: computation did not converge: {exc}", file=sys.stderr)
        return 3
    except ValueError as exc:  # UsageError included
        print(f"error: {exc}", file=sys.stderr)
        return 2
