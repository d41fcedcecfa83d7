import json
import math
import subprocess
import sys
from importlib import resources

import jsonschema
import pytest

from adsheat.cli import main
from adsheat.geometry import BallPoint, point_at_distance
from adsheat.kernels import MaassKernelQuery, maass_kernel_direct
from adsheat.radial_heat import hyperbolic_heat_kernel

TWO_PI = 2.0 * math.pi


def run_cli(capsys, argv):
    rc = main(argv)
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


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

    def test_byte_determinism_across_jobs(self, capsys, tmp_path):
        # --jobs and the config key jobs are ignored, kept so old command
        # lines and config files still run
        argv = ["eval-hyperbolic", "--grid", "x=0.1:3:7", "--grid", "t=0.5,1,2"]
        cfg = tmp_path / "run.cfg"
        cfg.write_text("jobs = 3\n")
        runs = [
            run_cli(capsys, argv + extra)
            for extra in (["--jobs", "1"], ["--jobs", "4"], ["--jobs", "0"], ["--config", str(cfg)])
        ]
        assert [rc for rc, _, _ in runs] == [0, 0, 0, 0]
        assert len({out for _, out, _ in runs}) == 1

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

    def test_domain_error_is_usage_error(self, capsys):
        rc, _, err = run_cli(capsys, ["eval-hyperbolic", "--t", "-1"])
        assert rc == 2


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
        w, y = point_at_distance(0.8), BallPoint.origin(1)
        expected = maass_kernel_direct(MaassKernelQuery(1.0, 1, 0.5, w, y))
        assert float(cells[4]) == pytest.approx(expected.real, rel=1e-15)

    def test_diagonal_uses_substituted_route(self, capsys):
        rc, out, _ = run_cli(capsys, ["eval-maass", "--d", "0"])
        assert rc == 0
        assert out.splitlines()[1].split(",")[6] == "substituted"

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

    def test_route_discrepancy_small(self, capsys):
        rc, out, _ = run_cli(capsys, ["eval-ads", "--t", "0.8", "--d", "0.5"])
        assert rc == 0
        cells = out.splitlines()[1].split(",")
        assert float(cells[7]) <= 1e-6
        assert int(cells[6]) % 2 == 1  # 2k+1 terms

    def test_partial_failure_flags_exit_code(self, capsys):
        # t = 0.005 exceeds the fiber-mode cap; t = 1 succeeds
        rc, out, err = run_cli(
            capsys,
            ["eval-ads", "--grid", "t=0.005,1", "--d", "0.3", "--jobs", "1"],
        )
        assert rc == 3
        rows = out.splitlines()[1:]
        assert len(rows) == 1
        assert rows[0].startswith("1,")
        assert "did not converge" in err
        assert "1 of 2 rows failed" in err


class TestIdentityCommand:
    def test_both_families_default(self, capsys):
        rc, out, _ = run_cli(capsys, ["identity"])
        assert rc == 0
        lines = out.splitlines()
        assert lines[0] == (
            "identity,m,t,u,theta,k_terms,re(lhs),im(lhs),re(rhs),im(rhs),abs_diff"
        )
        families = {line.split(",")[0] for line in lines[1:]}
        assert families == {"gauss-cosh", "theta"}

    def test_sides_agree(self, capsys):
        rc, out, _ = run_cli(
            capsys,
            ["identity", "--grid", "m=0:12:13", "--grid", "u=0:5:11", "--k-max", "14"],
        )
        assert rc == 0
        for line in out.splitlines()[1:]:
            cells = line.split(",")
            scale = max(1.0, abs(float(cells[8])))
            assert float(cells[10]) / scale < 1e-9

    def test_gauss_only_filter(self, capsys):
        rc, out, _ = run_cli(capsys, ["identity", "--which", "gauss-cosh"])
        assert rc == 0
        assert all(
            line.split(",")[0] == "gauss-cosh" for line in out.splitlines()[1:]
        )


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
