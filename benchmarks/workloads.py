"""Seeded workload generators.

A workload is one *round*: a fixed list of CLI invocations that a run
repeats whole.  The seed picks the parameter values; the shape of a round
(the number of invocations and the number of rows in each) does not depend
on it, so every round of every run attempts the same number of rows.
Parameters are drawn stratified (one jittered draw per stratum) so that the
mix of cheap and expensive rows, and with it the cost of a round, varies
little from seed to seed.

The rows listed in ``FAULT_INVOCATIONS`` fail every time because of known
faults in the program.  They are the same for every seed.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass

WORKLOADS = ("maass-grid", "ads-theta", "hyperbolic-grid", "verify-battery")

# CSV column order of each command's parameters; several --grid flags form
# a cartesian product in this order
PARAM_ORDER = {
    "eval-hyperbolic": ("t", "n", "x"),
    "eval-maass": ("t", "n", "kappa", "d"),
    "eval-ads": ("t", "n", "d", "theta"),
}

VERIFY_CHECKS = (
    "maass_pde_kappa0_t0.8",
    "maass_pde_kappa0_t1",
    "maass_pde_kappa0.5_t0.8",
    "maass_pde_kappa0.5_t1",
    "maass_pde_kappa1_t0.8",
    "maass_pde_kappa1_t1",
    "radial_heat_pde_n1",
    "radial_heat_pde_n2",
    "radial_heat_pde_n3",
    "subordination_t0.5",
    "subordination_t1",
    "semigroup_t0.5_s0.5_z0",
    "semigroup_t0.3_s0.7_z0.4",
    "normalization_n1_t1",
    "normalization_n1_t0.25",
    "normalization_n2_t1",
)

# hyperbolic-grid: below these distances q_t loses accuracy for n >= 4 (a
# named fault), so seeded rows with that n start here; n <= 3 starts at 0
HYPERBOLIC_X_FLOOR = {4: 0.25, 5: 0.4, 6: 0.6, 7: 0.8, 8: 1.0, 9: 1.2, 10: 1.5}
# maass-grid: the direct route turns NaN once t (2 kappa)^2 passes ~160 (a
# named fault); seeded rows stay below this
MAASS_TM2_MAX = 120.0


@dataclass(frozen=True)
class Invocation:
    """One CLI call: its argv and the parameter rows it must produce, in order."""

    argv: tuple[str, ...]
    rows: tuple[tuple, ...]
    fault: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]


def _num(v: float) -> str:
    return repr(float(v))


def _grid_invocation(command: str, values: dict[str, list], fault: bool = False) -> Invocation:
    """Build argv (scalars as flags, lists of two or more as --grid) and its rows."""
    argv = [command]
    for name in PARAM_ORDER[command]:
        vals = values[name]
        text = ",".join(str(v) if isinstance(v, int) else _num(v) for v in vals)
        if len(vals) == 1:
            argv += [f"--{name}", text]
        else:
            argv += ["--grid", f"{name}={text}"]
    rows = tuple(itertools.product(*(values[name] for name in PARAM_ORDER[command])))
    return Invocation(tuple(argv), rows, fault)


def _strata_order(count: int, tag: str) -> list[int]:
    """A fixed permutation of ``count`` strata, the same for every seed."""
    order = list(range(count))
    random.Random(f"layout:{tag}:{count}").shuffle(order)
    return order


def _stratified(
    rng: random.Random, count: int, lo: float, hi: float, *, log: bool = False, tag: str = ""
) -> list[float]:
    """One jittered draw inside each of ``count`` equal strata of [lo, hi].

    Entry i lies in stratum ``_strata_order(count, tag)[i]``: which stratum
    goes with which invocation is fixed, and only the position inside the
    stratum depends on the seed.
    """
    a, b = (math.log(lo), math.log(hi)) if log else (lo, hi)
    vals = [a + (b - a) * (k + rng.random()) / count for k in _strata_order(count, tag)]
    return [math.exp(v) for v in vals] if log else vals


def _stratified_ints(rng: random.Random, count: int, stop: int) -> list[int]:
    """``count`` distinct integers in [0, stop), one from each of count strata."""
    edges = [round(stop * k / count) for k in range(count + 1)]
    return [rng.randrange(lo, hi) for lo, hi in zip(edges[:-1], edges[1:])]


def _size_schedule(count: int, largest: int) -> list[int]:
    """Row counts spread geometrically from 1 to ``largest``."""
    return [max(1, round(largest ** (i / (count - 1)))) for i in range(count)]


def _shape(size: int, max_a: int, max_b: int) -> tuple[int, int]:
    """Split a row count into (a, b) with a * b close to size, a <= max_a."""
    a = min(max_a, max(1, round(math.sqrt(size / 2.0))))
    b = min(max_b, max(1, round(size / a)))
    return a, b


FAULT_INVOCATIONS = {
    # maass_kernel_direct: Chebyshev overflow -> NaN accepted as converged
    "maass-grid": (
        _grid_invocation("eval-maass", {"t": [1.0], "n": [1], "kappa": [6.5, 7.0], "d": [0.5]}, True),
        _grid_invocation("eval-maass", {"t": [2.0], "n": [1], "kappa": [5.5], "d": [0.5]}, True),
    ),
    # ads_kernel_series_detail: ConvergenceError after 256 modes, row left out
    "ads-theta": (
        _grid_invocation("eval-ads", {"t": [0.05], "n": [1], "d": [0.0], "theta": [0.0]}, True),
        _grid_invocation("eval-ads", {"t": [0.03], "n": [1], "d": [0.1], "theta": [0.0]}, True),
    ),
    # hyperbolic_heat_kernel: small-x accuracy loss for n >= 5
    "hyperbolic-grid": (
        _grid_invocation(
            "eval-hyperbolic", {"t": [1.0], "n": [5, 6, 8, 10], "x": [0.0, 0.1]}, True
        ),
    ),
    "verify-battery": (),
}


def _maass_round(rng: random.Random) -> list[Invocation]:
    count = 60
    sizes = _size_schedule(count, 200)
    ts = _stratified(rng, count, 0.1, 2.0, log=True, tag="maass-t")
    out = []
    for i, (size, t) in enumerate(zip(sizes, ts)):
        m_max = min(10, int(math.sqrt(MAASS_TM2_MAX / t)))  # >= 7 since t <= 2
        a, b = _shape(size, 8, 40)
        ms = _stratified_ints(rng, a, m_max + 1)
        ds = sorted(_stratified(rng, b, 0.0, 2.5))
        if i % 4 == 0:
            ds[0] = 0.0  # the diagonal, where the direct route delegates
        n = 1 + i % 2
        out.append(
            _grid_invocation("eval-maass", {"t": [t], "n": [n], "kappa": [m / 2 for m in ms], "d": ds})
        )
    return out


def _ads_round(rng: random.Random) -> list[Invocation]:
    count = 48
    sizes = _size_schedule(count, 6)
    ts = _stratified(rng, count, 0.07, 2.0, log=True, tag="ads-t")
    ds = _stratified(rng, count, 0.0, 2.5, tag="ads-d")
    out = []
    for size, t, d in zip(sizes, ts, ds):
        thetas = sorted(_stratified(rng, size, 0.0, 2.0 * math.pi))
        out.append(_grid_invocation("eval-ads", {"t": [t], "n": [1], "d": [d], "theta": thetas}))
    return out


def _hyperbolic_round(rng: random.Random) -> list[Invocation]:
    count = 80
    sizes = _size_schedule(count, 200)
    t_pool = sorted(_stratified(rng, 4, 0.3, 3.0, log=True))
    # distances: 0, points inside the small-x interpolation zone of n <= 3
    # (thresholds 1e-3, 5e-3, 0.05) and a stratified spread out to 6
    x_pool = sorted(
        [0.0, 1e-3 * rng.random(), 5e-3 * rng.random(), 0.05 * rng.random()]
        + _stratified(rng, 24, 0.05, 6.0)
    )
    out = []
    for i, size in enumerate(sizes):
        a, b = _shape(size, 10, 16)
        ns = [n + 1 for n in _stratified_ints(rng, a, 10)]
        floor = HYPERBOLIC_X_FLOOR.get(ns[-1], 0.0)
        allowed = [x for x in x_pool if x >= floor]
        xs = sorted(rng.sample(allowed, b))
        out.append(
            _grid_invocation("eval-hyperbolic", {"t": [t_pool[i % 4]], "n": ns, "x": xs})
        )
    return out


def _verify_round(rng: random.Random) -> list[Invocation]:
    seed = rng.randrange(2**31)
    rows = tuple((name,) for name in VERIFY_CHECKS)
    return [Invocation(("verify", "--seed", str(seed)), rows)]


_GENERATORS = {
    "maass-grid": _maass_round,
    "ads-theta": _ads_round,
    "hyperbolic-grid": _hyperbolic_round,
    "verify-battery": _verify_round,
}


def make_round(workload: str, seed: int) -> list[Invocation]:
    """The invocations of one round: seeded ones first, then the fault rows."""
    rng = random.Random(f"{workload}:{seed}")
    return _GENERATORS[workload](rng) + list(FAULT_INVOCATIONS[workload])


# evaluations that build the exact term algebra for every n a workload uses
WARMUP_ARGV = {
    "maass-grid": [["eval-maass", "--n", str(n), "--kappa", "0.5"] for n in (1, 2)],
    "ads-theta": [["eval-ads", "--t", "1"]],
    "hyperbolic-grid": [["eval-hyperbolic", "--n", str(n)] for n in range(1, 11)],
    "verify-battery": [["eval-hyperbolic", "--n", str(n)] for n in (1, 2, 3)],
}
