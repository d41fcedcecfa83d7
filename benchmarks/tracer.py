"""Per-layer tracing of the adsheat package from outside it.

``Tracer.install`` replaces every public function of a layer module with a
timing wrapper *in each module namespace that holds it*, because callers look
functions up in their own namespace (``adsheat.kernels.adaptive_gauss_kronrod``
is a different binding from ``adsheat.quadrature.adaptive_gauss_kronrod``).
The integrand handed to a quadrature function is wrapped too, so that time in
the integrand is split from the quadrature's own time.  Each span records its
thread; spans stay in memory until ``write``.

``layer_metrics`` turns the spans into per-layer counts and times.  Times
below ``cli`` are CPU times of the span's own thread: the CLI's worker
threads share one interpreter lock, and a thread that waits for it is not
working in the layer it waits in.  A span's self time is its thread CPU time
minus that of the spans it directly contains.  ``cli.self_s`` is what is left
of the ``cli.main`` wall time: argument handling, output, and the time the
main thread and the pool spend handing rows between threads.  The self times
of all layers therefore add up to the traced ``cli.main`` wall time.  This
holds while the process runs on one CPU, which ``run.py`` arranges.
"""

from __future__ import annotations

import gzip
import importlib
import inspect
import threading
import time

import numpy as np

# adsheat module -> layer name; geometry is not a layer, its time stays
# with the caller
LAYERS = {
    "adsheat.cli": "cli",
    "adsheat.verify": "verify",
    "adsheat.kernels": "kernels",
    "adsheat.special": "special",
    "adsheat.quadrature": "quadrature",
    "adsheat.radial_heat": "radial_heat",
}
# argument (position, name) whose size counts the points a call evaluates
_POINT_ARGS = {
    "hyperbolic_heat_kernel": (2, "x"),
    "hyperbolic_heat_kernel_scaled": (2, "x"),
    "maass_radial_profile": (3, "d_values"),
}

# per-layer metrics reported from spans: name -> (unit, better)
PER_LAYER = {
    "quadrature.calls": ("count", "lower"),
    "quadrature.evals": ("count", "lower"),
    "quadrature.panels": ("count", "lower"),
    "quadrature.self_s": ("s", "lower"),
    "kernels.maass_direct_calls": ("count", "lower"),
    "kernels.maass_direct_s": ("s", "lower"),
    "kernels.maass_substituted_calls": ("count", "lower"),
    "kernels.maass_substituted_s": ("s", "lower"),
    "special.calls": ("count", "lower"),
    "special.self_s": ("s", "lower"),
    "kernels.series_calls": ("count", "lower"),
    "kernels.series_s": ("s", "lower"),
    "kernels.fiber_modes": ("count", "lower"),
    "kernels.integral_calls": ("count", "lower"),
    "kernels.integral_s": ("s", "lower"),
    "kernels.integrand_s": ("s", "lower"),
    "kernels.radial_profile_calls": ("count", "lower"),
    "kernels.radial_profile_distances": ("count", "lower"),
    "kernels.radial_profile_s": ("s", "lower"),
    "kernels.self_s": ("s", "lower"),
    "verify.maass_pde_s": ("s", "lower"),
    "verify.radial_pde_s": ("s", "lower"),
    "verify.subordination_s": ("s", "lower"),
    "verify.semigroup_s": ("s", "lower"),
    "verify.normalization_s": ("s", "lower"),
    "verify.self_s": ("s", "lower"),
    "radial_heat.calls": ("count", "lower"),
    "radial_heat.points": ("count", "lower"),
    "radial_heat.self_s": ("s", "lower"),
    "radial_heat.ns_per_point": ("ns", "lower"),
    "cli.invocations": ("count", "higher"),
    "cli.rows": ("count", "higher"),
    "cli.self_s": ("s", "lower"),
    "trace.cli_wall_s": ("s", "lower"),
    "trace.overhead_s": ("s", "lower"),
}

# function whose inclusive time and call count a named metric reports
_FUNCTION_METRICS = {
    "maass_kernel_direct": "kernels.maass_direct",
    "maass_kernel_substituted": "kernels.maass_substituted",
    "ads_kernel_series_detail": "kernels.series",
    "ads_kernel_integral": "kernels.integral",
    "maass_radial_profile": "kernels.radial_profile",
    "check_maass_pde": "verify.maass_pde",
    "check_radial_heat_pde": "verify.radial_pde",
    "check_subordination": "verify.subordination",
    "check_semigroup_k0": "verify.semigroup",
    "check_normalization_k0": "verify.normalization",
}


class Tracer:
    """Wraps the package's public functions and records one span per call.

    A span is ``(thread id, wall start, wall end, thread CPU seconds, layer,
    function name, count)``; the count is the number of points for q_t and
    profile calls, panels for an adaptive quadrature, fiber modes for the
    series, and nodes for an integrand.
    """

    def __init__(self) -> None:
        self.spans: list[tuple[int, float, float, float, str, str, int]] = []
        self._patched: list[tuple[object, str, object]] = []

    # -- installation -------------------------------------------------
    def install(self) -> None:
        modules = {name: importlib.import_module(name) for name in LAYERS}
        wrappers: dict[tuple[int, str], object] = {}
        for ns_name, ns in modules.items():
            for attr, obj in list(vars(ns).items()):
                if attr.startswith("_") or not inspect.isfunction(obj):
                    continue
                layer = LAYERS.get(obj.__module__)
                if layer is None or (layer == "cli" and attr != "main"):
                    continue
                caller = LAYERS[ns_name]
                key = (id(obj), caller)
                if key not in wrappers:
                    wrappers[key] = self._wrap(obj, layer, caller)
                self._patched.append((ns, attr, obj))
                setattr(ns, attr, wrappers[key])

    def uninstall(self) -> None:
        for ns, attr, obj in reversed(self._patched):
            setattr(ns, attr, obj)
        self._patched.clear()

    def _wrap(self, fn, layer: str, caller: str):
        spans = self.spans
        clock = time.perf_counter
        cpu = time.thread_time
        get_ident = threading.get_ident
        name = fn.__name__
        point_arg = _POINT_ARGS.get(name)
        # integrands belong to the module that wrote them; only kernels'
        # integrands get a bucket of their own
        integrand_layer = "kernels.integrand" if caller == "kernels" else caller

        def wrap_integrand(f):
            def integrand(x):
                t0, c0 = clock(), cpu()
                try:
                    return f(x)
                finally:
                    c1, t1 = cpu(), clock()
                    spans.append((get_ident(), t0, t1, c1 - c0, integrand_layer, "integrand", len(x)))

            return integrand

        def wrapper(*args, **kwargs):
            # quadrature functions take the integrand as first argument
            if layer == "quadrature" and args and callable(args[0]):
                args = (wrap_integrand(args[0]),) + args[1:]
            count = 0
            if point_arg is not None:
                pos, kw = point_arg
                count = int(np.size(args[pos] if len(args) > pos else kwargs[kw]))
            t0, c0 = clock(), cpu()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            finally:
                c1, t1 = cpu(), clock()
                if point_arg is None:
                    count = getattr(result, "n_panels", None) or getattr(result, "modes_used", 0)
                spans.append((get_ident(), t0, t1, c1 - c0, layer, name, count))

        wrapper.__wrapped__ = fn
        return wrapper

    # -- output -------------------------------------------------------
    def write(self, path: str) -> None:
        """Write all spans as gzip'd CSV, one line per span."""
        with gzip.open(path, "wt", compresslevel=1, encoding="utf-8") as out:
            out.write("thread,start_s,end_s,cpu_s,layer,function,count\n")
            for tid, t0, t1, cpu_s, layer, name, count in self.spans:
                out.write(f"{tid},{t0:.9f},{t1:.9f},{cpu_s:.9f},{layer},{name},{count}\n")


def layer_metrics(spans, cli_rows: int, overhead_s: float) -> dict[str, float]:
    """Aggregate spans into the PER_LAYER metrics (see module docstring)."""
    out = {name: 0.0 for name in PER_LAYER}

    # per-thread nesting: parent index of every span on the same thread
    order = sorted(range(len(spans)), key=lambda i: (spans[i][0], spans[i][1], -spans[i][2]))
    parent = [-1] * len(spans)
    stack: list[int] = []
    current_tid = None
    for i in order:
        tid, t0 = spans[i][0], spans[i][1]
        if tid != current_tid:
            stack, current_tid = [], tid
        while stack and spans[stack[-1]][2] <= t0:
            stack.pop()
        parent[i] = stack[-1] if stack else -1
        stack.append(i)

    self_cpu = [span[3] for span in spans]
    for i, p in enumerate(parent):
        if p >= 0:
            self_cpu[p] -= spans[i][3]

    below_cli = 0.0
    for i, (_tid, t0, t1, cpu_s, layer, name, count) in enumerate(spans):
        if layer == "cli":
            out["cli.invocations"] += 1
            out["trace.cli_wall_s"] += t1 - t0
            continue
        below_cli += self_cpu[i]
        key = "kernels.integrand_s" if layer == "kernels.integrand" else f"{layer}.self_s"
        out[key] += self_cpu[i]
        # calls into a layer: spans whose parent is in another layer
        p_layer = spans[parent[i]][4] if parent[i] >= 0 else None
        if name == "integrand":
            out["quadrature.evals"] += count
        elif layer in ("quadrature", "special", "radial_heat") and p_layer != layer:
            out[f"{layer}.calls"] += 1
            if layer == "radial_heat":
                out["radial_heat.points"] += count
            if layer == "quadrature":
                out["quadrature.panels"] += count
        metric = _FUNCTION_METRICS.get(name)
        if metric is not None:
            out[f"{metric}_s"] = out.get(f"{metric}_s", 0.0) + cpu_s
            out[f"{metric}_calls"] = out.get(f"{metric}_calls", 0) + 1
            if name == "ads_kernel_series_detail":
                out["kernels.fiber_modes"] += count
            if name == "maass_radial_profile":
                out["kernels.radial_profile_distances"] += count

    out["cli.self_s"] = out["trace.cli_wall_s"] - below_cli
    points = out["radial_heat.points"]
    out["radial_heat.ns_per_point"] = out["radial_heat.self_s"] / points * 1e9 if points else 0.0
    out["cli.rows"] = float(cli_rows)
    out["trace.overhead_s"] = overhead_s
    return {name: out[name] for name in PER_LAYER}
