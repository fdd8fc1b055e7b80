import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

SCHEMA_PATH = Path(__file__).resolve().parent.parent / "schema" / "report.schema.json"


def run_cli(*args, env_extra=None):
    env = dict(os.environ)
    if env_extra:
        env.update(env_extra)
    proc = subprocess.run(
        [sys.executable, "-m", "smale_lab", *args],
        capture_output=True,
        text=True,
        env=env,
        timeout=300,
    )
    return proc


def load_schema_validator():
    import jsonschema

    schema = json.loads(SCHEMA_PATH.read_text())
    return lambda payload: jsonschema.validate(payload, schema)


def assert_finite_numbers(obj):
    if isinstance(obj, float):
        assert math.isfinite(obj)
    elif isinstance(obj, dict):
        for v in obj.values():
            assert_finite_numbers(v)
    elif isinstance(obj, list):
        for v in obj:
            assert_finite_numbers(v)


def canonical(report_text: str) -> str:
    data = json.loads(report_text)
    data.pop("wall_time_s", None)
    return json.dumps(data, sort_keys=True)


def strip_wall_time(report_text: str) -> str:
    return re.sub(r'"wall_time_s":[0-9eE+.\-]+,?', "", report_text)


class TestAnalyze:
    def test_quadratic_roots(self):
        proc = run_cli("analyze", "--poly", '{"roots":[[0,0],[2,0]]}', "--samples", "40")
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert data["kind"] == "analyze"
        assert data["report"]["all_theorems_pass"]
        load_schema_validator()(data)
        assert_finite_numbers(data)

    def test_normalized_flag(self):
        proc = run_cli(
            "analyze",
            "--poly",
            '{"coeffs":[[0,0],[1,0],[-0.5,0]]}',
            "--normalized",
            "--samples",
            "40",
        )
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert data["report"]["s0"] == pytest.approx(0.5)
        assert data["report"]["ds0"] == pytest.approx(0.5)

    def test_normalized_flag_rejects_general_poly(self):
        proc = run_cli("analyze", "--poly", '{"roots":[[0,0],[2,0]]}', "--normalized")
        assert proc.returncode == 1
        assert "normalized" in proc.stderr

    def test_malformed_json_exit_1(self):
        proc = run_cli("analyze", "--poly", "{bad json}")
        assert proc.returncode == 1
        assert "--poly" in proc.stderr

    def test_malformed_pair_names_field(self):
        proc = run_cli("analyze", "--poly", '{"roots":[[0,0],[1]]}')
        assert proc.returncode == 1
        assert "roots[1]" in proc.stderr


class TestCStar:
    def test_degree2_clean(self):
        proc = run_cli(
            "cstar", "--degree", "2", "--dim", "4", "--trials", "100", "--seed", "7"
        )
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert data["model"] == "C(4 points)"
        assert data["certificates"] == []
        assert data["stats"]["worst_min_ratio"] == pytest.approx(0.5, abs=1e-9)
        load_schema_validator()(data)

    def test_strong_flag(self):
        proc = run_cli(
            "cstar", "--degree", "2", "--dim", "2", "--trials", "50", "--strong"
        )
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["strong"] is True

    def test_critical_product_beyond_a_million_elements(self):
        # 2^24 critical elements per trial: the extremes come from the
        # per-coordinate tables, so no size is refused
        proc = run_cli(
            "cstar", "--degree", "3", "--dim", "24", "--trials", "10", "--strong"
        )
        assert proc.returncode in (0, 2), proc.stderr
        data = json.loads(proc.stdout)
        assert data["model"] == "C(24 points)"
        assert data["stats"]["trials_run"] + data["stats"]["trials_skipped"] == 10
        load_schema_validator()(data)

    @pytest.mark.parametrize("argv,message", [
        (["--degree", "1", "--dim", "2", "--trials", "5"], "degree >= 2"),
        (["--degree", "3", "--dim", "0", "--trials", "5"], "dim >= 1"),
        (["--degree", "3", "--dim", "-1", "--trials", "5"], "dim >= 1"),
        (["--degree", "3", "--dim", "2", "--trials", "20", "--max-iters", "1",
          "--seed", "1"], "root iteration did not converge"),
    ])
    def test_trial_errors_exit_1_with_no_report(self, argv, message):
        # no trial error is turned into a skip: the run fails, writes nothing
        proc = run_cli("cstar", *argv)
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert message in proc.stderr


class TestSearch:
    def test_s0_degree3(self):
        proc = run_cli(
            "search", "--mode", "s0", "--degree", "3", "--seed", "1",
            "--restarts", "16",
        )
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert data["state"]["objective"] == pytest.approx(2 / 3, abs=1e-3)
        load_schema_validator()(data)

    def test_csv_format(self):
        proc = run_cli(
            "search", "--mode", "ds0", "--degree", "2", "--restarts", "6",
            "--format", "csv",
        )
        assert proc.returncode == 0, proc.stderr
        lines = proc.stdout.strip().splitlines()
        assert lines[0] == "n,k,best_value,bound,pass"
        fields = lines[1].split(",")
        assert fields[0] == "2"
        assert float(fields[2]) == pytest.approx(0.5, abs=1e-6)

    def test_cstar_mode(self):
        proc = run_cli(
            "search", "--mode", "cstar", "--degree", "2", "--dim", "2",
            "--trials", "50",
        )
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert data["certificates"] == []
        load_schema_validator()(data)


class TestDynamics:
    def test_single_poly(self):
        proc = run_cli("dynamics", "--poly", '{"coeffs":[[0,0],[1,0],[-0.5,0]]}')
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert data["mlp_pass"] is True
        assert data["orbits"][0]["verdict"] == "converged_to_zero"
        load_schema_validator()(data)

    def test_sweep(self):
        proc = run_cli("dynamics", "--random-sweep", "2,40")
        assert proc.returncode == 0, proc.stderr
        data = json.loads(proc.stdout)
        assert data["passed"] == 40
        load_schema_validator()(data)

    def test_bad_sweep_argument(self):
        proc = run_cli("dynamics", "--random-sweep", "nope")
        assert proc.returncode == 1

    def test_poly_without_witness_carries_its_mlp_certificate(self, monkeypatch, capsys):
        # with no orbit steps no critical orbit is proven to fall to 0, so
        # the run reports the failure as a certificate, as the sweep does
        from smale_lab import cli
        from smale_lab.dynamics import OrbitConfig, mlp_check
        from smale_lab.polycore import from_coeffs
        from smale_lab.report import dumps
        from smale_lab.search import mlp_certificate

        no_steps = OrbitConfig(max_iters=0)
        monkeypatch.setattr(cli, "OrbitConfig", lambda: no_steps)
        code = cli.run(
            ["dynamics", "--poly", '{"coeffs":[[0,0],[1,0],[-0.5,0]]}', "--seed", "5"]
        )
        data = json.loads(capsys.readouterr().out)
        assert code == 2
        assert data["mlp_pass"] is False
        load_schema_validator()(data)
        p = from_coeffs([0, 1, -0.5])
        ok, res = mlp_check(p, no_steps)
        assert not ok
        expected = json.loads(dumps(mlp_certificate(p, res, 0, 5).to_json()))
        assert data["certificates"] == [expected]
        assert expected["kind"] == "mlp"


class TestContract:
    def test_usage_error_is_exit_1(self):
        proc = run_cli("analyze")
        assert proc.returncode == 1

    def test_unknown_subcommand(self):
        proc = run_cli("frobnicate")
        assert proc.returncode == 1

    @pytest.mark.parametrize("argv", [
        ["analyze", "--poly", '{"roots":[[0,0],[2,0]]}', "--max-iters", "1"],
        ["dynamics", "--random-sweep", "2,3", "--jobs", "4"],
        ["analyze", "--poly", '{"roots":[[0,0],[2,0]]}', "--format", "csv"],
        ["cstar", "--degree", "2", "--dim", "2", "--trials", "3", "--format", "csv"],
        ["dynamics", "--random-sweep", "2,3", "--format", "csv"],
    ])
    def test_root_knobs_only_where_they_reach_code(self, argv, capsys):
        # --step-tol, --max-iters, --cluster-tol and --jobs reach run_hunt
        # only, so only cstar and search accept them; only search has a
        # csv form, so only search accepts --format
        from smale_lab import cli

        assert cli.run(argv) == 1
        assert "unrecognized arguments" in capsys.readouterr().err

    @pytest.mark.parametrize("flag,value,mode", [
        *((flag, value, mode) for flag, value in [
            ("--step-tol", "1e-6"),
            ("--max-iters", "1"),
            ("--cluster-tol", "0.1"),
            ("--jobs", "4"),
            ("--dim", "5"),
            ("--trials", "7"),
        ] for mode in ("ds0", "s0")),
        ("--restarts", "99", "cstar"),
    ])
    def test_extremal_search_rejects_hunt_knobs(self, flag, value, mode, capsys):
        # the extremal searches never run the hunt and the hunt never
        # restarts, so a flag the mode does not read would be silently
        # ignored
        from smale_lab import cli

        argv = ["search", "--mode", mode, "--degree", "3", flag, value]
        if mode != "cstar":
            argv += ["--restarts", "2"]  # a fast search if the flag were accepted
        assert cli.run(argv) == 1
        assert capsys.readouterr().err == f"error: --mode {mode} does not take {flag}\n"

    def test_search_defaults_apply_where_read(self, tmp_path):
        # unset, --restarts is SearchConfig's 64 for s0/ds0 and the hunt
        # runs --dim 1 with --trials 1000
        from smale_lab import cli

        out = tmp_path / "r.json"
        assert cli.run(["search", "--mode", "s0", "--degree", "2", "--out", str(out)]) == 0
        assert json.loads(out.read_text())["restarts"] == 64
        assert cli.run(["search", "--mode", "cstar", "--degree", "2", "--out", str(out)]) == 0
        body = json.loads(out.read_text())
        assert (body["dim"], body["trials"]) == (1, 1000)

    @pytest.mark.parametrize("argv,flag", [
        (["analyze", "--poly", '{"roots":[[0,0],[2,0]]}', "--samples", "0"], "--samples"),
        (["analyze", "--poly", '{"roots":[[0,0],[2,0]]}', "--samples", "-5"], "--samples"),
        (["cstar", "--degree", "3", "--dim", "2", "--trials", "-4"], "--trials"),
        (["cstar", "--degree", "2", "--dim", "2", "--trials", "3", "--jobs", "0"], "--jobs"),
        (["search", "--mode", "s0", "--degree", "3", "--restarts", "0"], "--restarts"),
        (["search", "--mode", "ds0", "--degree", "3", "--restarts", "-2"], "--restarts"),
        (["search", "--mode", "cstar", "--degree", "2", "--trials", "0"], "--trials"),
        (["dynamics", "--random-sweep", "3,-2"], "--random-sweep"),
        (["dynamics", "--random-sweep", "3,0"], "--random-sweep"),
    ])
    def test_counts_below_one_are_usage_errors(self, argv, flag, capsys):
        # a zero or negative count would otherwise run nothing and report
        # a clean result, or fail later with a message that hides the cause
        from smale_lab import cli

        assert cli.run(argv) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert flag in captured.err

    def test_theorem_violation_exits_1_after_the_report(self, monkeypatch, capsys):
        # a failed theorem-status check can only be a software bug: the
        # report is still written, then the run exits 1
        from smale_lab import cli, smale

        monkeypatch.setattr(smale, "s_upper_bounds", lambda n: [("smale_theorem", 0.0)])
        code = cli.run(
            ["analyze", "--poly", '{"roots":[[0,0],[2,0]]}', "--samples", "30", "--seed", "1"]
        )
        captured = capsys.readouterr()
        assert code == 1
        assert json.loads(captured.out)["report"]["all_theorems_pass"] is False
        assert captured.err == "theorem-status bound violated: software bug\n"

    def test_env_seed_respected(self, tmp_path):
        out1 = tmp_path / "a.json"
        out2 = tmp_path / "b.json"
        run_cli(
            "cstar", "--degree", "2", "--dim", "2", "--trials", "20",
            "--out", str(out1), env_extra={"SMALE_LAB_SEED": "123"},
        )
        run_cli(
            "cstar", "--degree", "2", "--dim", "2", "--trials", "20",
            "--seed", "123", "--out", str(out2),
        )
        assert canonical(out1.read_text()) == canonical(out2.read_text())

    def test_report_written_to_file(self, tmp_path):
        out = tmp_path / "r.json"
        argv = ["analyze", "--poly", '{"roots":[[1,0],[-1,0]]}', "--samples", "30"]
        proc = run_cli(*argv, "--out", str(out))
        assert proc.returncode == 0
        assert proc.stdout == ""
        text = out.read_text()
        assert text.endswith("\n")
        data = json.loads(text)
        assert data["kind"] == "analyze"
        assert_finite_numbers(data)
        # the file holds the text the same command writes to stdout
        assert strip_wall_time(text) == strip_wall_time(run_cli(*argv).stdout)

    @pytest.mark.parametrize("where", ["missing directory", "directory itself"])
    def test_unwritable_out_is_an_error_line(self, tmp_path, where):
        # a missing directory is caught before the run, a path that cannot
        # be opened for writing when the report is written
        out = tmp_path / "missing" / "x.json" if where == "missing directory" else tmp_path
        proc = run_cli(
            "analyze", "--poly", '{"roots":[[0,0],[2,0]]}', "--samples", "10",
            "--out", str(out),
        )
        assert proc.returncode == 1
        assert proc.stdout == ""
        assert proc.stderr.startswith(f"error: cannot write --out {out}: ")
        assert proc.stderr.count("\n") == 1
        assert "Traceback" not in proc.stderr
        assert not (tmp_path / "missing").exists()

    def test_floats_have_17_significant_digits(self, tmp_path):
        out = tmp_path / "r.json"
        run_cli(
            "analyze", "--poly", '{"roots":[[0,0],[2,0]]}', "--samples", "30",
            "--out", str(out),
        )
        text = out.read_text()
        # a third (irrational in binary) must print with full precision
        assert "1.3333333333333333" in text

    def test_commands_load_no_array_libraries(self):
        # the package has no runtime dependency: refinement and search run
        # on plain floats, so neither numpy nor scipy is ever imported
        script = "\n".join([
            "import json, sys",
            "from smale_lab import cli",
            "codes = [",
            "    cli.run(['analyze', '--poly', '{\"roots\":[[0,0],[2,0],[1,1]]}',",
            "             '--samples', '30', '--seed', '1']),",
            "    cli.run(['search', '--mode', 's0', '--degree', '3',",
            "             '--restarts', '2', '--seed', '1']),",
            "]",
            "loaded = [m for m in ('scipy', 'numpy') if m in sys.modules]",
            "print(json.dumps({'codes': codes, 'loaded': loaded}))",
        ])
        proc = subprocess.run(
            [sys.executable, "-c", script], capture_output=True, text=True, timeout=300
        )
        assert proc.returncode == 0, proc.stderr
        result = json.loads(proc.stdout.splitlines()[-1])
        assert result == {"codes": [0, 0], "loaded": []}
