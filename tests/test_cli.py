import csv
import io
import json
import math
import subprocess
import sys
from importlib import resources

import jsonschema
import numpy as np
import pytest

from adsheat import cli, geometry, kernels
from adsheat.cli import build_parser, main
from adsheat.geometry import BallPoint
from adsheat.kernels import (
    DIRECT_ROUTE_MIN_DISTANCE,
    SeriesConfig,
    ads_kernel_integral,
    ads_kernel_series_detail,
    maass_direct_profile,
    maass_radial_profile,
)
from adsheat.quadrature import ConvergenceError, QuadratureConfig
from adsheat.radial_heat import hyperbolic_heat_kernel

TWO_PI = 2.0 * math.pi


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def assert_json_rows_are_csv_rows(capsys, argv):
    """The JSON rows of ``argv`` hold the CSV row of the same call, value for value."""
    rc_csv, out_csv, _ = run_cli(capsys, argv)
    rc_json, out_json, _ = run_cli(capsys, argv + ["--format", "json"])
    assert rc_csv == rc_json == 0
    header, *csv_rows = list(csv.reader(io.StringIO(out_csv)))
    json_rows = json.loads(out_json)["rows"]
    assert len(json_rows) == len(csv_rows) > 0
    for json_row, cells in zip(json_rows, csv_rows):
        assert list(json_row) == header
        for value, cell in zip(json_row.values(), cells):
            if value is None:
                assert cell == ""
            elif isinstance(value, float):
                assert format(value, ".17g") == cell and float(cell) == value
            else:
                assert str(value) == cell
    return json_rows


@pytest.fixture
def geometry_calls(monkeypatch):
    """Record each pairing, ``point_at_distance`` and ``BallPoint`` made anywhere."""
    calls = []

    def spy(name, real):
        def wrapper(*args):
            calls.append(name)
            return real(*args)

        return wrapper

    for module in (cli, geometry, kernels):
        for name in ("bergman_pairing", "point_at_distance"):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, spy(name, getattr(module, name)))
    monkeypatch.setattr(BallPoint, "__post_init__", spy("BallPoint", BallPoint.__post_init__))
    return calls


# no ball point stands for these d: 1.5e-8 comes back as 0.0 through tanh and
# acosh, and past d = 19.06 tanh^2 d rounds to 1
EXACT_DISTANCES = ["0", "1.5e-8", "0.5", "2.5", "25"]


@pytest.mark.parametrize("n", [1, 2])
@pytest.mark.parametrize("d", EXACT_DISTANCES)
class TestDistanceRows:
    """A --d row is the library's value at exactly d, by every route it reports."""

    def test_maass_row_is_both_profiles_at_d(self, capsys, n, d):
        argv = ["eval-maass", "--t", "0.8", "--n", str(n), "--kappa", "0.5", "--d", d]
        rc, out, _ = run_cli(capsys, argv)
        assert rc == 0
        cells = out.splitlines()[1].split(",")
        assert float(cells[3]) == float(d)
        substituted = maass_radial_profile(0.8, n, 0.5, [float(d)], QuadratureConfig())[0]
        far = float(d) >= DIRECT_ROUTE_MIN_DISTANCE
        direct = maass_direct_profile(0.8, n, 0.5, [float(d)], QuadratureConfig())[0] if far else substituted
        assert (float(cells[4]), float(cells[5])) == (direct, 0.0)
        assert cells[6] == ("direct" if far else "substituted")
        assert float(cells[7]) == abs(direct - substituted)

    def test_ads_row_is_both_routes_at_d(self, capsys, n, d):
        argv = ["eval-ads", "--t", "0.8", "--n", str(n), "--d", d, "--theta", "1.3"]
        rc, out, _ = run_cli(capsys, argv)
        assert rc == 0
        cells = out.splitlines()[1].split(",")
        assert float(cells[2]) == float(d)
        series = ads_kernel_series_detail(0.8, n, float(d), 1.3, SeriesConfig(), QuadratureConfig())
        integral = ads_kernel_integral(0.8, n, float(d), [1.3], SeriesConfig(), QuadratureConfig())[0]
        assert (float(cells[4]), float(cells[5])) == (series.value.real, series.value.imag)
        assert int(cells[6]) == 2 * series.modes_used + 1
        assert float(cells[7]) == abs(integral - series.value / TWO_PI)


class TestDistanceInput:
    @pytest.mark.parametrize("command", ["eval-maass", "eval-ads"])
    @pytest.mark.parametrize("d", ["700", "-0.5"])
    def test_distance_outside_kernel_range_rejected(self, capsys, command, d):
        rc, out, err = run_cli(capsys, [command, "--d", d])
        assert rc == 2
        assert out == ""
        assert "distances must be finite, >= 0 and < 700" in err

    @pytest.mark.parametrize("command", ["eval-maass", "eval-ads"])
    @pytest.mark.parametrize("source", ["flag", "config", "one-value grid"])
    def test_points_conflict_with_any_given_distance(self, capsys, tmp_path, command, source):
        # the pair fixes d, so any d given beside it is a conflict
        argv = [command, "--w", "0.3"]
        if source == "flag":
            argv += ["--d", "0.7"]
        elif source == "config":
            (tmp_path / "run.cfg").write_text("d = 0.7\n", encoding="utf-8")
            argv += ["--config", str(tmp_path / "run.cfg")]
        else:
            argv += ["--grid", "d=0.7"]
        rc, out, err = run_cli(capsys, argv)
        assert rc == 2
        assert out == ""
        assert "--w/--y fix the geometry" in err

    @pytest.mark.parametrize("command", ["eval-maass", "eval-ads"])
    def test_points_from_config_without_distance(self, capsys, tmp_path, command):
        # without a d, --w/--y run as before
        (tmp_path / "run.cfg").write_text("w = 0.3\n", encoding="utf-8")
        rc, out, _ = run_cli(capsys, [command, "--config", str(tmp_path / "run.cfg")])
        assert rc == 0
        assert len(out.splitlines()) == 2


class TestEvalHyperbolic:
    def test_header_and_roundtrip(self, capsys):
        rc, out, _ = run_cli(capsys, ["eval-hyperbolic", "--t", "1", "--n", "1", "--x", "1.5"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "t,n,x,q"
        cells = lines[1].split(",")
        # 17 significant digits round-trip the double exactly
        assert float(cells[3]) == hyperbolic_heat_kernel(1.0, 1, 1.5)

    def test_grid_order_and_count(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            ["eval-hyperbolic", "--grid", "t=0.5,1", "--grid", "x=1:2:3", "--n", "1"],
        )
        assert rc == 0
        rows = out.splitlines()[1:]
        assert len(rows) == 6
        # t is the outer loop, x the inner
        assert [r.split(",")[0] for r in rows] == ["0.5"] * 3 + ["1"] * 3
        assert [r.split(",")[2] for r in rows[:3]] == ["1", "1.5", "2"]

    def test_one_kernel_call_per_group(self, capsys, monkeypatch):
        calls = []
        real = cli.hyperbolic_heat_kernel

        def spy(t, n, x):
            calls.append((t, n, len(x)))
            return real(t, n, x)

        monkeypatch.setattr(cli, "hyperbolic_heat_kernel", spy)
        rc, out, _ = run_cli(capsys, ["eval-hyperbolic", "--grid", "n=1,2", "--grid", "x=0,0.5,1"])
        assert rc == 0
        assert calls == [(1.0, 1, 3), (1.0, 2, 3)]
        # each row carries the bits of its own scalar call
        for line in out.splitlines()[1:]:
            t, n, x, q = line.split(",")
            assert float(q) == real(float(t), int(n), float(x))

    def test_jobs_flag_and_config_key_are_rejected(self, capsys, tmp_path):
        # --jobs and the config key jobs are not options: usage errors
        argv = ["eval-hyperbolic", "--grid", "x=0.1:3:7", "--grid", "t=0.5,1,2"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("jobs = 3\n")
        for extra in (["--jobs", "1"], ["--jobs", "0"]):
            with pytest.raises(SystemExit) as exc:  # argparse exits itself
                main(argv + extra)
            assert exc.value.code == 2
            assert "unrecognized arguments: --jobs" in capsys.readouterr().err
        rc, out, err = run_cli(capsys, argv + ["--config", str(cfg)])
        assert (rc, out) == (2, "")
        assert "unknown config key 'jobs'" in err

    def test_json_format(self, capsys):
        rc, out, _ = run_cli(
            capsys, ["eval-hyperbolic", "--x", "2", "--format", "json"]
        )
        assert rc == 0
        payload = json.loads(out)
        assert payload["command"] == "eval-hyperbolic"
        assert payload["rows"][0]["q"] == hyperbolic_heat_kernel(1.0, 1, 2.0)

    def test_output_file(self, capsys, tmp_path):
        target = tmp_path / "rows.csv"
        rc, out, _ = run_cli(
            capsys, ["eval-hyperbolic", "--x", "1", "--output", str(target)]
        )
        assert rc == 0
        assert out == ""
        content = target.read_bytes()
        assert content.startswith(b"t,n,x,q\n")
        assert b"\r" not in content

    @pytest.mark.parametrize("target", ["missing/dir/rows.csv", "."])
    def test_unwritable_output_is_a_usage_error(self, capsys, tmp_path, target):
        # ended in a FileNotFoundError / IsADirectoryError traceback, exit 1
        path = str(tmp_path / target)
        rc, out, err = run_cli(capsys, ["eval-hyperbolic", "--x", "1", "--output", path])
        assert (rc, out) == (2, "")
        assert f"cannot write output file {path!r}" in err

    def test_usage_error_bad_grid(self, capsys):
        rc, _, err = run_cli(capsys, ["eval-hyperbolic", "--grid", "x=bad"])
        assert rc == 2
        assert "error:" in err

    def test_usage_error_grid_conflicts_with_scalar(self, capsys):
        rc, _, err = run_cli(
            capsys, ["eval-hyperbolic", "--x", "1", "--grid", "x=1,2"]
        )
        assert rc == 2
        assert "conflicts" in err

    @pytest.mark.parametrize("command", ["eval-hyperbolic", "eval-maass", "eval-ads"])
    def test_order_past_12_exits_2(self, capsys, command):
        # every kernel rests on q_t, which is stated and tested for n <= 12
        rc, out, err = run_cli(capsys, [command, "--grid", "n=12,13"])
        assert rc == 2
        assert out == ""
        assert "n must be <= 12, got 13" in err

    def test_domain_error_is_usage_error(self, capsys):
        rc, _, err = run_cli(capsys, ["eval-hyperbolic", "--t", "-1"])
        assert rc == 2

    def test_time_below_floor_is_a_usage_error(self, capsys):
        # printed nan with exit 0 while t^-12 overflowed inside q_t
        rc, out, err = run_cli(capsys, ["eval-hyperbolic", "--t", "1e-27", "--n", "12", "--x", "0"])
        assert rc == 2
        assert out == ""
        assert "leave double-precision range" in err


class TestParserReuse:
    def test_parser_built_once_across_calls(self, capsys, monkeypatch):
        calls = []

        def spy():
            calls.append(1)
            return build_parser()

        cli._parser.cache_clear()
        monkeypatch.setattr(cli, "build_parser", spy)
        try:
            for _ in range(2):
                rc, _, _ = run_cli(capsys, ["eval-hyperbolic", "--x", "1"])
                assert rc == 0
        finally:
            cli._parser.cache_clear()
        assert len(calls) == 1

    def test_no_state_leaks_between_calls(self, capsys):
        grid = ["eval-hyperbolic", "--grid", "x=0.5,1", "--grid", "t=1,2"]
        plain = ["eval-hyperbolic", "--x", "1"]

        def alone(argv):
            cli._parser.cache_clear()
            return run_cli(capsys, argv)

        expected = [alone(grid), alone(plain)]
        cli._parser.cache_clear()
        assert [run_cli(capsys, grid), run_cli(capsys, plain)] == expected
        assert [run_cli(capsys, plain), run_cli(capsys, grid)] == expected[::-1]

    # main parses through the subcommand's own parser; usage text, errors
    # and exit codes must stay those of the full parser
    @pytest.mark.parametrize(
        "argv",
        [
            [],
            ["-h"],
            ["nope"],
            ["identity"],
            ["eval-ads", "--bogus"],
            ["eval-ads", "--t"],
            ["eval-maass", "-h"],
            ["verify", "--timestamp", "x"],
        ],
    )
    def test_parse_exits_as_the_full_parser(self, capsys, argv):
        def outcome(parse):
            with pytest.raises(SystemExit) as exc:
                parse(argv)
            captured = capsys.readouterr()
            return exc.value.code, captured.out, captured.err

        assert outcome(main) == outcome(build_parser().parse_args)

    @pytest.mark.parametrize(
        "argv",
        [
            ["eval-ads", "--t", "1", "--grid", "theta=0,1", "--grid=t=1,2"],
            ["eval-maass", "--kappa=0.5", "--config", "run.cfg"],
            ["eval-hyperbolic", "--grid", "n=1,2", "--format", "json"],
            ["verify", "--timestamp"],
        ],
    )
    def test_parse_gives_the_full_parsers_namespace(self, argv):
        assert vars(cli._parse_args(argv)) == vars(build_parser().parse_args(argv))


class TestEvalMaass:
    def test_header_and_routes(self, capsys):
        rc, out, _ = run_cli(
            capsys, ["eval-maass", "--t", "1", "--kappa", "0.5", "--d", "0.8"]
        )
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == "t,n,kappa,d,re(v),im(v),route,route_discrepancy"
        cells = lines[1].split(",")
        assert cells[6] == "direct"
        assert float(cells[7]) < 1e-8
        expected = maass_direct_profile(1.0, 1, 0.5, 0.8, QuadratureConfig())
        assert float(cells[4]) == pytest.approx(expected, rel=1e-15)

    def test_diagonal_uses_substituted_route(self, capsys):
        rc, out, _ = run_cli(capsys, ["eval-maass", "--d", "0"])
        assert rc == 0
        assert out.splitlines()[1].split(",")[6] == "substituted"

    def test_row_is_evaluated_at_the_distance_it_prints(self, capsys):
        # 1.5e-8 is above the direct route's cut; the round trip through a
        # ball point (tanh, then atanh) would turn it into 0.0
        rc, out, _ = run_cli(capsys, ["eval-maass", "--t", "0.5", "--d", "1.5e-8"])
        assert rc == 0
        cells = out.splitlines()[1].split(",")
        assert float(cells[3]) == 1.5e-8
        assert cells[6] == "direct"
        expected = maass_direct_profile(0.5, 1, 0, [1.5e-8], QuadratureConfig())[0]
        assert float(cells[4]) == expected

    @pytest.mark.parametrize("w, y", [("0.3", "0.3000001"), ("0.3+0.1j", "0.3000001+0.1j")])
    def test_close_pair_is_evaluated_at_the_distance_it_prints(self, capsys, w, y):
        # 1e-7 apart: d = atanh(|w - y| / |1 - w conj(y)|), to 17 digits
        mpmath = pytest.importorskip("mpmath")
        rc, out, _ = run_cli(capsys, ["eval-maass", "--t", "0.5", "--w", w, "--y", y])
        assert rc == 0
        cells = out.splitlines()[1].split(",")
        with mpmath.workdps(40):
            wm, ym = mpmath.mpc(complex(w)), mpmath.mpc(complex(y))
            exact = float(mpmath.atanh(abs(wm - ym) / abs(1 - wm * mpmath.conj(ym))))
        assert float(cells[3]) == pytest.approx(exact, rel=1e-15)
        expected = maass_direct_profile(0.5, 1, 0, [float(cells[3])], QuadratureConfig())[0]
        assert abs(complex(float(cells[4]), float(cells[5]))) == pytest.approx(expected, rel=1e-15)

    def test_explicit_points(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            ["eval-maass", "--w", "0.3+0.1j", "--y", "0.2", "--kappa", "1"],
        )
        assert rc == 0
        cells = out.splitlines()[1].split(",")
        assert float(cells[3]) > 0.0  # computed distance
        assert float(cells[5]) != 0.0  # complex twist

    def test_points_conflict_with_distance_grid(self, capsys):
        rc, _, err = run_cli(
            capsys, ["eval-maass", "--w", "0.3", "--grid", "d=0.1,0.2"]
        )
        assert rc == 2
        assert "conflict" in err

    def test_non_finite_row_fails_instead_of_printing_nan(self, capsys):
        rc, out, err = run_cli(
            capsys, ["eval-maass", "--t", "1", "--kappa", "7", "--d", "0.5"]
        )
        assert rc == 3
        assert "nan" not in out.lower()
        assert out.splitlines() == ["t,n,kappa,d,re(v),im(v),route,route_discrepancy"]
        assert "1 of 1 rows failed" in err

    def test_point_outside_ball_rejected(self, capsys):
        rc, _, err = run_cli(capsys, ["eval-maass", "--w", "1.5"])
        assert rc == 2

    def test_non_half_integer_weight_rejected(self, capsys):
        rc, _, err = run_cli(capsys, ["eval-maass", "--kappa", "0.3"])
        assert rc == 2

    def test_grouped_rows_match_rows_alone_within_tolerance(self, capsys):
        # a row's last digits may depend on the distances sharing its group,
        # never by more than its own target max(abs_tol, rel_tol |v|)
        ds = ["0", "0.05", "0.4", "1.2", "2.5"]
        base = ["eval-maass", "--t", "0.7", "--n", "2", "--abs-tol", "1e-12", "--rel-tol", "1e-10"]
        rc, out, _ = run_cli(capsys, base + ["--grid", "kappa=0,1.5", "--grid", "d=" + ",".join(ds)])
        assert rc == 0
        grouped = [line.split(",") for line in out.splitlines()[1:]]
        assert len(grouped) == 10
        for cells in grouped:
            rc, out, _ = run_cli(capsys, base + ["--kappa", cells[2], "--d", cells[3]])
            assert rc == 0
            alone = out.splitlines()[1].split(",")
            assert cells[:4] + cells[6:7] == alone[:4] + alone[6:7]
            v, v_alone = complex(float(cells[4]), float(cells[5])), complex(float(alone[4]), float(alone[5]))
            assert abs(v - v_alone) <= max(1e-12, 1e-10 * abs(v_alone))

    @pytest.mark.parametrize(
        "geometry, expected",
        [(["--grid", "d=0,0.5,25"], []), (["--w", "0.3+0.1j", "--y", "0.2"], ["BallPoint"] * 2 + ["bergman_pairing"])],
        ids=["axis", "twisted"],
    )
    def test_each_group_is_paired_once(self, capsys, geometry_calls, geometry, expected):
        # a --d group goes straight to the profiles; a --w/--y group pairs once,
        # and every kappa of a (t, n) group is in one group
        rc, out, _ = run_cli(capsys, ["eval-maass", "--grid", "kappa=0,0.5"] + geometry)
        assert rc == 0
        assert len(out.splitlines()) == (7 if geometry[0] == "--grid" else 3)
        assert geometry_calls == expected

    def test_one_profile_call_per_route_and_group(self, capsys, monkeypatch):
        calls = []

        def spy(name):
            real = getattr(cli, name)

            def wrapper(t, n, kappa, d_values, config=None):
                calls.append((name, n, list(kappa), len(d_values)))
                return real(t, n, kappa, d_values, config=config)

            return wrapper

        for name in ("maass_radial_profile", "maass_direct_profile"):
            monkeypatch.setattr(cli, name, spy(name))
        argv = ["eval-maass", "--grid", "n=1,2", "--grid", "kappa=0,0.5", "--grid", "d=0.2,0.4,0.8"]
        rc, out, _ = run_cli(capsys, argv)
        assert rc == 0
        assert len(out.splitlines()) == 13
        assert calls == [
            ("maass_radial_profile", 1, [0.0, 0.5], 3),
            ("maass_direct_profile", 1, [0.0, 0.5], 3),
            ("maass_radial_profile", 2, [0.0, 0.5], 3),
            ("maass_direct_profile", 2, [0.0, 0.5], 3),
        ]

    def test_failed_group_leaves_other_weights_as_alone(self, capsys):
        # kappa = 7 overflows the direct route; the group is retried one kappa at
        # a time, so the kappa = 0.5 row is the one a lone --kappa 0.5 prints
        base = ["eval-maass", "--t", "1", "--d", "0.5"]
        rc, out, err = run_cli(capsys, base + ["--grid", "kappa=0.5,7"])
        assert rc == 3
        assert "kappa=7.0, d=0.5) did not converge" in err
        assert "1 of 2 rows failed" in err
        rc_alone, alone, _ = run_cli(capsys, base + ["--kappa", "0.5"])
        assert rc_alone == 0
        assert out == alone

    def test_failed_group_is_retried_one_weight_at_a_time(self, capsys, monkeypatch):
        # the (t, n) group fails on kappa = 7; each weight is then one group, so
        # the others print what a run of that weight alone prints, and only
        # kappa = 7 goes on row by row
        calls = []
        real = cli.maass_direct_profile

        def spy(t, n, kappa, d_values, config=None):
            calls.append((list(kappa), len(d_values)))
            return real(t, n, kappa, d_values, config=config)

        monkeypatch.setattr(cli, "maass_direct_profile", spy)
        base = ["eval-maass", "--t", "1"]
        rc, out, err = run_cli(capsys, base + ["--grid", "kappa=0.5,1,7", "--grid", "d=0.3,0.6"])
        assert rc == 3
        assert "2 of 6 rows failed" in err
        assert calls == [([0.5, 1.0, 7.0], 2), ([0.5], 2), ([1.0], 2), ([7.0], 2), ([7.0], 1), ([7.0], 1)]
        alone = []
        for kappa in ("0.5", "1"):
            rc_alone, text, _ = run_cli(capsys, base + ["--kappa", kappa, "--grid", "d=0.3,0.6"])
            assert rc_alone == 0
            alone += text.splitlines()[1:]
        assert out.splitlines()[1:] == alone

    def test_repeated_weights_keep_grid_order(self, capsys):
        rc, out, _ = run_cli(capsys, ["eval-maass", "--grid", "kappa=0.5,0.5", "--grid", "d=0,0.3"])
        assert rc == 0
        rows = [line.split(",") for line in out.splitlines()[1:]]
        assert [(r[2], r[3]) for r in rows] == [("0.5", "0"), ("0.5", "0.29999999999999999")] * 2
        assert rows[:2] == rows[2:]

    def test_signed_zero_distance_prints_as_given(self, capsys):
        # -0.0 == 0.0, so the two rows share one profile value, not one d
        argv = ["eval-maass", "--grid", "kappa=0,1", "--grid", "d=-0.0,0,0.5"]
        rows = assert_json_rows_are_csv_rows(capsys, argv)
        assert [format(row["d"], "g") for row in rows] == ["-0", "0", "0.5"] * 2

    def test_failure_at_one_distance_drops_only_its_row(self, capsys, monkeypatch):
        base = ["eval-maass", "--t", "0.8", "--kappa", "1"]
        alone = {}
        for d in ("0.2", "0.9"):
            rc, out, _ = run_cli(capsys, base + ["--d", d])
            assert rc == 0
            header, alone[d] = out.splitlines()
        real = cli.maass_direct_profile

        def flaky(t, n, kappa, d_values, config=None):
            if np.any(np.isclose(d_values, 0.5)):
                raise ConvergenceError("synthetic failure")
            return real(t, n, kappa, d_values, config=config)

        monkeypatch.setattr(cli, "maass_direct_profile", flaky)
        rc, out, err = run_cli(capsys, base + ["--grid", "d=0.2,0.5,0.9"])
        assert rc == 3
        # the group fails as a whole, then each row is evaluated alone
        assert out.splitlines() == [header, alone["0.2"], alone["0.9"]]
        assert "d=0.5) did not converge: synthetic failure" in err
        assert "1 of 3 rows failed" in err

    def test_overflowing_weights_fail_row_by_row(self, capsys):
        rc, out, err = run_cli(capsys, ["eval-maass", "--t", "1", "--grid", "kappa=6.5,7", "--d", "0.5"])
        assert rc == 3
        assert out.splitlines() == ["t,n,kappa,d,re(v),im(v),route,route_discrepancy"]
        assert "kappa=6.5, d=0.5) did not converge" in err
        assert "kappa=7.0, d=0.5) did not converge" in err
        assert "2 of 2 rows failed" in err


class TestEvalAds:
    def test_header_and_normalization(self, capsys):
        argv = ["eval-ads", "--t", "1", "--d", "0.3", "--theta", "0.7"]
        rc, out_series, _ = run_cli(capsys, argv)
        assert rc == 0
        assert (
            out_series.splitlines()[0]
            == "t,n,d,theta,re(s),im(s),series_terms_used,route_discrepancy"
        )
        rc, out_theorem, _ = run_cli(capsys, argv + ["--normalization", "theorem"])
        assert rc == 0
        s = float(out_series.splitlines()[1].split(",")[4])
        v = float(out_theorem.splitlines()[1].split(",")[4])
        assert v == pytest.approx(s / TWO_PI, rel=1e-15)

    def test_both_routes_take_the_distance_it_prints(self, capsys, monkeypatch):
        # the series and the integral each get d itself, not the distance of
        # ball points standing for it
        seen = []

        def spy(name):
            real = getattr(cli, name)

            def wrapper(t, n, d, *args):
                seen.append(float(d))
                return real(t, n, d, *args)

            return wrapper

        for name in ("ads_kernel_series_detail", "ads_kernel_integral"):
            monkeypatch.setattr(cli, name, spy(name))
        rc, out, _ = run_cli(capsys, ["eval-ads", "--t", "1", "--d", "1.5e-8", "--theta", "0.3"])
        assert rc == 0
        assert float(out.splitlines()[1].split(",")[2]) == 1.5e-8
        assert seen == [1.5e-8, 1.5e-8]

    @pytest.mark.parametrize(
        "geometry, expected",
        [(["--d", "0.5"], []), (["--w", "0.3+0.1j", "--y", "0.2j"], ["BallPoint"] * 2 + ["bergman_pairing"])],
        ids=["axis", "twisted"],
    )
    def test_each_group_is_paired_once(self, capsys, geometry_calls, geometry, expected):
        # a --d group goes straight to both routes; a --w/--y group pairs once
        argv = ["eval-ads", "--grid", "t=0.8,1", "--grid", "theta=0,1,2"] + geometry
        rc, out, _ = run_cli(capsys, argv)
        assert rc == 0
        assert len(out.splitlines()) == 7
        assert geometry_calls == expected * 2

    def test_json_rows_are_the_csv_rows(self, capsys, monkeypatch):
        # route_discrepancy is an np.float64, which json writes as a float
        payloads = []
        real = cli._write_json

        def spy(payload, path):
            payloads.append(payload)
            real(payload, path)

        monkeypatch.setattr(cli, "_write_json", spy)
        argv = ["eval-ads", "--t", "0.8", "--d", "0.5", "--grid", "theta=0,1.3"]
        rows = assert_json_rows_are_csv_rows(capsys, argv)
        assert all(isinstance(r["route_discrepancy"], np.float64) for r in payloads[0]["rows"])
        assert [r["theta"] for r in rows] == [0.0, 1.3]

    def test_route_discrepancy_small(self, capsys):
        rc, out, _ = run_cli(capsys, ["eval-ads", "--t", "0.8", "--d", "0.5"])
        assert rc == 0
        cells = out.splitlines()[1].split(",")
        assert float(cells[7]) <= 1e-6
        assert int(cells[6]) % 2 == 1  # 2k+1 terms

    def test_large_time_modes_stay_below_cosh_overflow(self, capsys):
        # modes k >= 3 at t = 100 reach u_max ~ 4tk past 710 unless capped
        rc, out, err = run_cli(capsys, ["eval-ads", "--t", "100", "--d", "0.5"])
        assert rc == 0, err
        cells = out.splitlines()[1].split(",")
        assert float(cells[4]) > 0.0
        # |s / 2 pi - integral| within eps_tail + abs_tol (the defaults)
        assert float(cells[7]) <= 1e-9 + 1e-11

    def test_partial_failure_flags_exit_code(self, capsys):
        # t = 0.005 exceeds the fiber-mode cap; t = 1 succeeds
        rc, out, err = run_cli(
            capsys,
            ["eval-ads", "--grid", "t=0.005,1", "--d", "0.3"],
        )
        assert rc == 3
        rows = out.splitlines()[1:]
        assert len(rows) == 1
        assert rows[0].startswith("1,")
        assert "did not converge" in err
        assert "1 of 2 rows failed" in err

    @pytest.mark.parametrize(
        "geometry", [["--d", "0.5"], ["--w", "0.3+0.1j", "--y", "0.2j"]], ids=["axis", "twisted"]
    )
    def test_theta_sweep_rows_match_single_angle_runs(self, capsys, geometry):
        base = ["eval-ads", "--t", "0.8"] + geometry
        thetas = ["0", "1.3", "4", "6.2"]
        rc, out, _ = run_cli(capsys, base + ["--grid", "theta=" + ",".join(thetas)])
        assert rc == 0
        swept = out.splitlines()[1:]
        singles = []
        for theta in thetas:
            rc, out, _ = run_cli(capsys, base + ["--theta", theta])
            assert rc == 0
            singles += out.splitlines()[1:]
        # the sweep shares one integral quadrature: route_discrepancy matches
        # within abs_tol, every other column byte for byte
        assert len(swept) == len(singles)
        for a, b in zip(swept, singles):
            *cells_a, disc_a = a.split(",")
            *cells_b, disc_b = b.split(",")
            assert cells_a == cells_b
            assert abs(float(disc_a) - float(disc_b)) <= 1e-11

    def test_series_failure_lists_every_angle(self, capsys):
        rc, out, err = run_cli(capsys, ["eval-ads", "--t", "0.03", "--d", "0.1", "--grid", "theta=0,1"])
        assert rc == 3
        assert out.splitlines()[1:] == []
        assert "theta=0.0) did not converge" in err
        assert "theta=1.0) did not converge" in err
        assert "2 of 2 rows failed" in err

    def test_integral_failure_drops_only_its_angle(self, capsys, monkeypatch):
        import adsheat.cli as cli

        base = ["eval-ads", "--t", "0.8", "--d", "0.5"]
        argv = base + ["--grid", "theta=0,1,2"]
        alone = []
        for theta in ("0", "2"):
            rc, out, _ = run_cli(capsys, base + ["--theta", theta])
            assert rc == 0
            alone += out.splitlines()[1:]
        real = cli.ads_kernel_integral

        def flaky(t, n, d, theta, *rest):
            if 1.0 in np.atleast_1d(theta):
                raise ConvergenceError("synthetic failure")
            return real(t, n, d, theta, *rest)

        monkeypatch.setattr(cli, "ads_kernel_integral", flaky)
        rc, out, err = run_cli(capsys, argv)
        assert rc == 3
        # the group fails, so the rows that remain are each computed alone
        assert out.splitlines()[1:] == alone
        assert "theta=1.0) did not converge: synthetic failure" in err
        assert "1 of 3 rows failed" in err


class TestVerifyCommand:
    def test_report_matches_schema(self, capsys):
        rc, out, _ = run_cli(
            capsys, ["verify", "--suite", "subordination,normalization"]
        )
        assert rc == 0
        report = json.loads(out)
        schema = json.loads(
            resources.files("adsheat.schemas")
            .joinpath("verify_report.schema.json")
            .read_text()
        )
        jsonschema.validate(report, schema)
        assert report["suite"] == "subordination,normalization"
        assert report["all_passed"] is True
        assert "timestamp" not in report
        names = [c["name"] for c in report["checks"]]
        assert len(names) == len(set(names))

    def test_timestamp_flag(self, capsys):
        rc, out, _ = run_cli(
            capsys, ["verify", "--suite", "subordination", "--timestamp"]
        )
        assert rc == 0
        assert "timestamp" in json.loads(out)

    def test_csv_format_rejected(self, capsys):
        rc, _, err = run_cli(capsys, ["verify", "--format", "csv"])
        assert rc == 2
        assert "JSON" in err

    def test_unknown_suite_rejected(self, capsys):
        rc, _, err = run_cli(capsys, ["verify", "--suite", "bogus"])
        assert rc == 2

    def test_repeated_suite_runs_once(self, capsys):
        rc, out, _ = run_cli(
            capsys, ["verify", "--suite", "subordination,normalization,subordination"]
        )
        assert rc == 0
        names = [c["name"] for c in json.loads(out)["checks"]]
        assert names[:2] == ["subordination_t0.5", "subordination_t1"]
        assert len(names) == len(set(names)) == 5

    @pytest.mark.parametrize("suite", ["radial-pde", "subordination"])
    def test_negative_seed_exits_2_for_every_suite(self, capsys, suite):
        # the seed feeds only subordination, but it is checked for any selection
        rc, out, err = run_cli(capsys, ["verify", "--suite", suite, "--seed", "-3"])
        assert (rc, out) == (2, "")
        assert "seed must be an integer >= 0, got -3" in err

    def test_seed_past_2_to_the_53_stays_exact(self, capsys):
        # integer options are read through float, but digits alone keep every digit
        rc, out, _ = run_cli(capsys, ["verify", "--suite", "subordination", "--seed", str(2**53 + 1)])
        assert rc == 0
        assert json.loads(out)["seed"] == 2**53 + 1

    def test_output_to_a_directory_is_a_usage_error(self, capsys, tmp_path):
        # the report was computed, then open() raised IsADirectoryError: exit 1
        argv = ["verify", "--suite", "radial-pde", "--output", str(tmp_path)]
        rc, out, err = run_cli(capsys, argv)
        assert (rc, out) == (2, "")
        assert f"cannot write output file {str(tmp_path)!r}" in err

    def test_deterministic_for_seed(self, capsys):
        argv = ["verify", "--suite", "subordination", "--seed", "9"]
        rc1, out1, _ = run_cli(capsys, argv)
        rc2, out2, _ = run_cli(capsys, argv)
        assert rc1 == rc2 == 0
        assert out1 == out2


class TestConfigFile:
    def test_flags_beat_config(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("t = 2.0\nx = 3.0  # comment\n")
        rc, out, _ = run_cli(
            capsys, ["eval-hyperbolic", "--config", str(cfg), "--t", "1"]
        )
        assert rc == 0
        cells = out.splitlines()[1].split(",")
        assert cells[0] == "1"  # flag wins
        assert cells[2] == "3"  # config fills the rest

    def test_config_grid(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("grid = x=1,2 ; t=0.5,1\n")
        rc, out, _ = run_cli(capsys, ["eval-hyperbolic", "--config", str(cfg)])
        assert rc == 0
        assert len(out.splitlines()) == 5

    def test_foreign_keys_tolerated(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("kappa = 0.5\nx = 1.0\n")
        rc, _, _ = run_cli(capsys, ["eval-hyperbolic", "--config", str(cfg)])
        assert rc == 0

    def test_typo_key_rejected(self, capsys, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("xx = 1.0\n")
        rc, _, err = run_cli(capsys, ["eval-hyperbolic", "--config", str(cfg)])
        assert rc == 2
        assert "unknown config key" in err

    def test_missing_config_file(self, capsys):
        rc, _, err = run_cli(capsys, ["eval-hyperbolic", "--config", "/no/such/file"])
        assert rc == 2

    def test_one_integer_rule_for_flag_grid_and_config(self, capsys, tmp_path):
        # a whole number written as a float is that integer wherever it comes from
        (tmp_path / "run.cfg").write_text("n = 2.0\n", encoding="utf-8")
        base = ["eval-hyperbolic", "--x", "0.5"]
        outputs = []
        for extra in (["--n", "2"], ["--n", "2.0"], ["--grid", "n=2.0"], ["--config", str(tmp_path / "run.cfg")]):
            rc, out, _ = run_cli(capsys, base + extra)
            assert rc == 0
            outputs.append(out)
        assert outputs[1:] == outputs[:1] * 3
        assert outputs[0].splitlines()[1].split(",")[1] == "2"
        for extra in (["--n", "2.5"], ["--grid", "n=2.5"], ["--grid", "n=1:2:3"]):
            rc, out, err = run_cli(capsys, base + extra)
            assert (rc, out) == (2, "")
            assert "expected an integer" in err


class TestValueSources:
    """A bad value's message names the flag, grid entry or config key it came from."""

    @pytest.mark.parametrize(
        "argv, config, message",
        [
            (["eval-ads", "--t", "abc"], None, "--t: expected a number, got 'abc'"),
            (["eval-hyperbolic", "--format", "xml"], None, "--format: expected one of csv, json; got 'xml'"),
            (["eval-ads", "--grid", "t=0.5,abc"], None, "--grid t=0.5,abc: expected a number, got 'abc'"),
            (["eval-hyperbolic", "--grid", "x=0:abc:3"], None, "--grid x=0:abc:3: expected a number, got 'abc'"),
            (["eval-hyperbolic", "--grid", "x=0:1:abc"], None, "--grid x=0:1:abc: expected a number, got 'abc'"),
            (["eval-maass"], "max_nodes = 1.5\n", "{cfg}: max_nodes: expected an integer, got '1.5'"),
            (["eval-hyperbolic"], "format = JSON\n", "{cfg}: format: expected one of csv, json; got 'JSON'"),
            (["eval-hyperbolic"], "grid = n=1,2 ; x=0,bad\n", "{cfg}: grid x=0,bad: expected a number"),
            # range errors of the library's configs, raised after conversion
            (["eval-ads", "--k-max", "-1"], None, "--k-max: k_max_override must be an integer >= 0, got -1"),
            (["eval-maass", "--abs-tol", "2"], None, "--abs-tol: abs_tol must be in (0, 1), got 2.0"),
            (["eval-maass"], "abs_tol = 2\n", "{cfg}: abs_tol: abs_tol must be in (0, 1), got 2.0"),
            (["eval-ads", "--rel-tol", "0"], None, "--rel-tol: rel_tol must be in (0, 1), got 0.0"),
            (["eval-ads"], "max_nodes = 10\n", "{cfg}: max_nodes: max_nodes must be an integer >= 60, got 10"),
            (["eval-ads", "--eps-tail", "1.5"], None, "--eps-tail: eps_tail must be in (0, 1), got 1.5"),
        ],
        ids=["flag", "format flag", "grid value", "grid endpoint", "grid count", "config line",
             "config format", "config grid", "k_max range", "abs_tol range", "abs_tol config range",
             "rel_tol range", "max_nodes config range", "eps_tail range"],
    )
    def test_bad_value_is_named_by_its_source(self, capsys, tmp_path, argv, config, message):
        cfg = tmp_path / "run.cfg"
        if config is not None:
            cfg.write_text(config, encoding="utf-8")
            argv = argv + ["--config", str(cfg)]
        rc, out, err = run_cli(capsys, argv)
        assert (rc, out) == (2, "")
        assert f"error: {message.format(cfg=cfg)}" in err


class TestSubprocessEntry:
    def test_python_dash_m(self):
        proc = subprocess.run(
            [sys.executable, "-m", "adsheat", "eval-hyperbolic", "--x", "1"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stdout.splitlines()[0] == "t,n,x,q"
        assert proc.stdout.endswith("\n")

    def test_eval_ads_writes_nothing_to_stderr(self):
        # the fiber series reports truncation as data, not as a warning
        proc = subprocess.run(
            [sys.executable, "-m", "adsheat", "eval-ads", "--t", "0.7", "--d", "0", "--theta", "0"],
            capture_output=True,
            timeout=120,
        )
        assert proc.returncode == 0
        assert proc.stderr == b""

    def test_failed_row_stderr_holds_only_the_failure(self):
        proc = subprocess.run(
            [sys.executable, "-m", "adsheat", "eval-maass", "--t", "1", "--kappa", "7", "--d", "0.5"],
            capture_output=True,
            text=True,
            timeout=120,
        )
        assert proc.returncode == 3
        lines = proc.stderr.splitlines()
        assert len(lines) == 2
        assert all(line.startswith("warning: ") for line in lines)
