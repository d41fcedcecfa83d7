"""Golden CLI outputs: exact stdout bytes and exit codes for fixed invocations.

Each entry of ``golden_cli.json`` holds an argv, the exit code and the
stdout text the CLI produced for it.  Refactors of the evaluation pipeline
must reproduce every entry byte for byte.  Stderr is not compared: warning
messages carry source line numbers.

An argv token ``{config}`` stands for a temporary file holding the entry's
``config`` text.

Regenerate the data file (only when an output change is intended) with::

    PYTHONPATH=src python tests/test_golden.py
"""

from __future__ import annotations

import contextlib
import io
import json
import pathlib
import sys
import tempfile

import pytest

from adsheat.cli import main

DATA = pathlib.Path(__file__).with_name("golden_cli.json")

# (argv, config file text or None)
INVOCATIONS: list[tuple[list[str], str | None]] = [
    (["eval-hyperbolic", "--grid", "t=0.5,1,2", "--grid", "x=0.1:3:7", "--n", "2"], None),
    (["eval-hyperbolic", "--grid", "n=1,2,3", "--x", "0.7", "--format", "json"], None),
    # x = 0 and points below each order's small-x switch point
    (["eval-hyperbolic", "--t", "0.8", "--grid", "n=1,2,3", "--grid", "x=0,0.0005,0.003,0.02"], None),
    (["eval-hyperbolic", "--config", "{config}"], "t = 0.8\ngrid = x=0.5,1,2 ; n=1,2\n"),
    (["eval-maass", "--t", "1", "--kappa", "0.5", "--grid", "d=0,0.1,0.5,1.5"], None),
    (["eval-maass", "--d", "0.7", "--grid", "kappa=0,0.5,1", "--grid", "n=1,2", "--format", "json"], None),
    (["eval-maass", "--w", "0.3+0.1j", "--y", "0.2", "--kappa", "1"], None),
    (["eval-maass", "--w", "0.3", "--grid", "d=0.1,0.2"], None),
    (["eval-ads", "--t", "0.8", "--d", "0.5", "--grid", "theta=0:6.283185307179586:7"], None),
    (["eval-ads", "--t", "1", "--d", "0.3", "--normalization", "theorem"], None),
    (["eval-ads", "--w", "0.3+0.1j", "--y", "0.2j", "--t", "0.9", "--theta", "0.4"], None),
    (["eval-ads", "--t", "1", "--d", "0.5", "--theta", "0.2", "--k-max", "3"], None),
    (["eval-ads", "--grid", "t=0.005,1", "--d", "0.3"], None),
    # a signed zero prints as given: -0 and 0
    (["eval-hyperbolic", "--grid", "x=-0.0,0"], None),
    # the printed angle is the normalized one, not the input
    (["eval-ads", "--t", "0.8", "--d", "0.5", "--grid", "theta=-1,7,6.283185307179586"], None),
    # the direct route overflows at kappa 6.5 and 7: the group is retried one
    # kappa at a time, then row by row; exit 3 with the 2 rows of kappa 0.5
    (["eval-maass", "--t", "1", "--grid", "kappa=0.5,6.5,7", "--grid", "d=0.5,1"], None),
    (["eval-ads", "--t", "0.8", "--d", "0.5", "--grid", "theta=0,1", "--format", "json"], None),
    (["verify", "--suite", "subordination,semigroup,normalization", "--seed", "42"], None),
    (["verify", "--suite", "radial-pde"], None),
    (["verify", "--suite", "maass-pde"], None),
    # a repeated suite runs once, at its first position; order is as given
    (["verify", "--suite", "semigroup,subordination,semigroup", "--seed", "7"], None),
]


def run(argv: list[str], config: str | None) -> tuple[int, str]:
    """Run the CLI in process; return (exit code, stdout text)."""
    out = io.StringIO()
    with tempfile.TemporaryDirectory() as tmp:
        if config is not None:
            path = pathlib.Path(tmp) / "golden.cfg"
            path.write_text(config, encoding="utf-8")
            argv = [str(path) if a == "{config}" else a for a in argv]
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            rc = main(argv)
    return rc, out.getvalue()


@pytest.fixture(scope="module")
def golden() -> list[dict]:
    return json.loads(DATA.read_text(encoding="utf-8"))


@pytest.mark.parametrize(
    "index", range(len(INVOCATIONS)), ids=[" ".join(argv) for argv, _ in INVOCATIONS]
)
def test_golden_output(golden, index):
    argv, config = INVOCATIONS[index]
    entry = golden[index]
    assert (entry["argv"], entry["config"]) == (argv, config)
    rc, stdout = run(argv, config)
    assert rc == entry["exit_code"]
    assert stdout.encode("utf-8") == entry["stdout"].encode("utf-8")


def test_data_covers_every_invocation(golden):
    assert len(golden) == len(INVOCATIONS)


def regenerate() -> None:
    entries = []
    for argv, config in INVOCATIONS:
        rc, stdout = run(argv, config)
        entries.append({"argv": argv, "config": config, "exit_code": rc, "stdout": stdout})
    DATA.write_text(json.dumps(entries, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {len(entries)} entries to {DATA}", file=sys.stderr)


if __name__ == "__main__":
    regenerate()
