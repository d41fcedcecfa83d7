"""End-to-end and per-layer benchmark of the adsheat CLI.

    python3 benchmarks/run.py --workload W --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the program is imported from
``src/``.  One closed-loop client calls ``adsheat.cli.main(argv)`` in process,
one invocation after another, at the CLI's default settings.  The client runs
in a child process of its own so that its peak memory is the workload's, and
the whole run is pinned to one CPU (see README.md).

``--trace 0`` warms up, then repeats whole rounds of the workload's
invocations for about S seconds (at least 100 invocations on the eval
workloads), timing each invocation, and reports the end-to-end metrics.
``--trace 1`` runs a fixed number of rounds untraced and the same rounds
traced, and reports the per-layer metrics.  Either way every output row is
then checked (see ``checks.py``), and the last line of standard output is one
JSON object: ``{"correct": ..., "attempted": ..., "failed": ..., "metrics":
{...}}``.  Results and spans are also written under ``benchmarks/out/``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import random
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402

SRC = "src"
OUT_DIR = os.path.join(HERE, "out")
CHILD_TIMEOUT_S = 160
SETUP_LAUNCHES = 7
# eval workloads time enough invocations for a 90th percentile with ten
# samples above it
MIN_INVOCATIONS = {"verify-battery": 1}
DEFAULT_MIN_INVOCATIONS = 100
# rounds of a traced run: fixed, so that per-layer counts repeat exactly
TRACE_ROUNDS = {"maass-grid": 1, "ads-theta": 2, "hyperbolic-grid": 5, "verify-battery": 1}
# mpmath spot checks per run: seeded rows drawn per command
SPOT_ROWS = {"eval-maass": 4, "eval-ads": 2}

END_TO_END = {
    "rows_per_s": "1/s",
    "call_p50_ms": "ms",
    "peak_rss_mb": "MB",
    "setup_s": "s",
}

SETUP_CODE = """
import contextlib, io, json, sys
sys.path.insert(0, "src")
from adsheat.cli import main
with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
    codes = [main(argv) for argv in json.loads(sys.argv[1])]
sys.exit(max(codes))
"""


# ---------------------------------------------------------------------------
# child: the client


def _count_rows(command: str, text: str) -> int:
    if command == "verify":
        try:
            return len(json.loads(text)["checks"])
        except (ValueError, KeyError, TypeError):
            return 0
    return max(0, text.count("\n") - 1)


class Client:
    """Calls ``adsheat.cli.main`` in process and keeps each distinct output once."""

    def __init__(self, cli) -> None:
        self.cli = cli
        self.outputs: dict[tuple[int, int, str], int] = {}
        self.records: list[tuple[int, int, float, int]] = []

    def call(self, argv) -> tuple[int, str]:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = self.cli.main(list(argv))
        return rc, out.getvalue()

    def run_round(self, invocations) -> None:
        clock = time.perf_counter
        for idx, inv in enumerate(invocations):
            t0 = clock()
            rc, text = self.call(inv.argv)
            dt = clock() - t0
            out_id = self.outputs.setdefault((idx, rc, text), len(self.outputs))
            self.records.append((idx, rc, dt, out_id))

    def payload(self) -> dict:
        outputs = [None] * len(self.outputs)
        for (idx, rc, text), out_id in self.outputs.items():
            outputs[out_id] = {"idx": idx, "rc": rc, "text": text}
        return {"records": self.records, "outputs": outputs}


def child_main(args) -> None:
    import resource

    sys.path.insert(0, os.path.abspath(SRC))
    import adsheat.cli as cli

    if not os.path.abspath(cli.__file__).startswith(os.path.abspath(SRC) + os.sep):
        raise SystemExit(f"adsheat imported from {cli.__file__}, not from ./src")
    invocations = workloads.make_round(args.workload, args.seed)
    client = Client(cli)
    for argv in workloads.WARMUP_ARGV[args.workload]:
        if client.call(argv)[0] != 0:
            raise SystemExit(f"warm-up invocation failed: {argv}")

    result: dict = {}
    if not args.trace:
        min_calls = MIN_INVOCATIONS.get(args.workload, DEFAULT_MIN_INVOCATIONS)
        start = time.perf_counter()
        rounds = 0
        while True:
            client.run_round(invocations)
            rounds += 1
            elapsed = time.perf_counter() - start
            enough = len(client.records) >= min_calls
            if enough and elapsed + elapsed / rounds > args.seconds:
                break
        result["wall_s"] = time.perf_counter() - start
        result["rounds"] = rounds
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    else:
        from tracer import Tracer, layer_metrics

        rounds = TRACE_ROUNDS[args.workload]
        start = time.perf_counter()
        for _ in range(rounds):
            client.run_round(invocations)
        untraced = time.perf_counter() - start
        n_untraced = len(client.records)
        tracer = Tracer()
        tracer.install()
        try:
            start = time.perf_counter()
            for _ in range(rounds):
                client.run_round(invocations)
            traced = time.perf_counter() - start
        finally:
            tracer.uninstall()
        texts = {out_id: (idx, text) for (idx, _rc, text), out_id in client.outputs.items()}
        rows = sum(
            _count_rows(invocations[texts[oid][0]].command, texts[oid][1])
            for _idx, _rc, _dt, oid in client.records[n_untraced:]
        )
        result["per_layer"] = layer_metrics(tracer.spans, rows, traced - untraced)
        result["untraced_s"] = untraced
        os.makedirs(OUT_DIR, exist_ok=True)
        tracer.write(os.path.join(OUT_DIR, f"trace-{args.workload}-seed{args.seed}.csv.gz"))
    result.update(client.payload())
    json.dump(result, sys.stdout)


# ---------------------------------------------------------------------------
# parent: set-up timing, the child, checks and the report


def measure_setup(workload: str) -> list[float]:
    """Wall time of fresh interpreters that import the CLI and evaluate once per n."""
    argv_json = json.dumps(workloads.WARMUP_ARGV[workload])
    times = []
    for _ in range(SETUP_LAUNCHES):
        t0 = time.perf_counter()
        proc = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, argv_json],
            stdout=subprocess.DEVNULL,
            stderr=subprocess.PIPE,
            timeout=60,
        )
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            raise SystemExit(f"set-up launch failed: {proc.stderr.decode()[-500:]}")
    return times


def run_child(args) -> dict:
    cmd = [
        sys.executable,
        os.path.abspath(__file__),
        "--child",
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
    ]
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=CHILD_TIMEOUT_S)
    if proc.returncode != 0:
        raise SystemExit(f"benchmark client failed:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout)


def spot_rows(invocations, seed: int) -> dict[str, set]:
    """Rows given an mpmath check: a seeded sample plus every fault row."""
    rng = random.Random(f"spot:{seed}")
    chosen: dict[str, set] = {}
    for command, count in SPOT_ROWS.items():
        seeded = [row for inv in invocations if inv.command == command and not inv.fault for row in inv.rows]
        faults = [row for inv in invocations if inv.command == command and inv.fault for row in inv.rows]
        if seeded:
            chosen[command] = set(rng.sample(seeded, min(count, len(seeded)))) | set(faults)
    return chosen


def check_all(invocations, child: dict, seed: int):
    import checks

    oracle = checks.Oracles()
    oracle.prepare(invocations, spot_rows(invocations, seed))
    verdicts = {}
    for out_id, out in enumerate(child["outputs"]):
        inv = invocations[out["idx"]]
        verdicts[out_id] = checks.check_output(inv, out["rc"], out["text"], oracle)
    attempted = failed = unexpected = 0
    worst: dict[str, float] = {}
    reasons: list[str] = []
    for idx, _rc, _dt, out_id in child["records"]:
        inv, v = invocations[idx], verdicts[out_id]
        attempted += len(inv.rows)
        failed += v.failed
        if not inv.fault:
            unexpected += v.failed
            if v.failed and len(reasons) < 10:
                reasons += v.reasons
            for name, value in v.worst.items():
                worst[name] = max(worst.get(name, 0.0), value)
    return attempted, failed, unexpected, worst, reasons


def percentile(values, q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "adsheat", "cli.py")):
        print("error: run from the root of an adsheat checkout (no src/adsheat/cli.py)", file=sys.stderr)
        return 2
    if args.child:
        child_main(args)
        return 0
    # one CPU for the whole run, inherited by every process it starts; see
    # "One CPU" in README.md
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})

    invocations = workloads.make_round(args.workload, args.seed)
    setup = [] if args.trace else measure_setup(args.workload)
    child = run_child(args)
    attempted, failed, unexpected, worst, reasons = check_all(invocations, child, args.seed)

    times = [dt for _idx, _rc, dt, _oid in child["records"]]
    print(f"# workload {args.workload}, seed {args.seed}, {len(invocations)} invocations per round")
    if args.trace:
        from tracer import PER_LAYER

        metrics = {
            name: {"value": child["per_layer"][name], "unit": unit}
            for name, (unit, _better) in PER_LAYER.items()
        }
        layers = ("cli", "verify", "kernels", "special", "quadrature", "radial_heat")
        self_sum = sum(child["per_layer"][f"{layer}.self_s"] for layer in layers)
        self_sum += child["per_layer"]["kernels.integrand_s"]
        print(
            f"# traced cli wall {child['per_layer']['trace.cli_wall_s']:.4f} s, "
            f"layer self times sum {self_sum:.4f} s, untraced {child['untraced_s']:.4f} s"
        )
    else:
        written = {}
        for oid, out in enumerate(child["outputs"]):
            written[oid] = _count_rows(invocations[out["idx"]].command, out["text"])
        rows = sum(written[oid] for _idx, _rc, _dt, oid in child["records"])
        values = {
            "rows_per_s": rows / child["wall_s"],
            "call_p50_ms": statistics.median(times) * 1e3,
            "peak_rss_mb": child["peak_rss_mb"],
            "setup_s": statistics.median(setup),
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END.items()}
        print(
            f"# {child['rounds']} rounds, {len(times)} invocations, {rows} rows in "
            f"{child['wall_s']:.3f} s; set-up launches {[round(s, 3) for s in setup]}"
        )
        if len(times) >= 100:
            print(f"# reference: call_p90_ms {percentile(times, 90) * 1e3:.4f} over {len(times)} invocations")
    for name, value in sorted(worst.items()):
        print(f"# reference: worst {name} {value:.3e}")
    for reason in reasons:
        print(f"# unexpected failure: {reason}")
    result = {
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
    os.makedirs(OUT_DIR, exist_ok=True)
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT_DIR, name), "w", encoding="utf-8") as handle:
        json.dump(result, handle, indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
