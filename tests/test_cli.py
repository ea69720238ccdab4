import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import hardydirac
from hardydirac import cli, extension, potentials
from hardydirac.cli import main
from hardydirac.numerics import QuadratureError


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out


class TestConstantsCommand:
    def test_coulomb_values(self, capsys):
        code, out = run_cli(capsys, "constants", "--v1", "coulomb:1", "--v2", "coulomb:1")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["a_plus"] == pytest.approx(1.0, abs=1e-9)
        assert report["result"]["a_minus"] == pytest.approx(1.0, abs=1e-9)
        assert report["tool"] == "hardy-dirac"
        assert report["config"]["v1"] == "coulomb:1"

    def test_shell_values(self, capsys):
        code, out = run_cli(capsys, "constants", "--v1", "shell:1@2", "--v2", "coulomb:1")
        assert code == 0
        report = json.loads(out)
        assert report["result"]["a_plus"] == pytest.approx(1.5, abs=1e-9)
        assert report["result"]["a_minus"] == pytest.approx(1.5, abs=1e-9)

    def test_not_in_class_exits_2(self, capsys):
        code, out = run_cli(capsys, "constants", "--v1", "power:1,0", "--v2", "zero")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "NotInClassAError"

    def test_quadrature_failure_exits_1(self, capsys, monkeypatch):
        def fail(g, slope, candidates=()):
            raise QuadratureError("did not converge", 0.0, 1.0)

        monkeypatch.setattr(potentials, "sup_over_r", fail)
        potentials._a_exponent_cached.cache_clear()
        code, out = run_cli(capsys, "constants", "--v1", "coulomb:0.25", "--v2", "zero")
        assert code == 1
        assert json.loads(out)["error"]["type"] == "QuadratureError"


def test_falling_count_exits_2(capsys, monkeypatch):
    # a count that falls as E grows is refused with exit 2, as invalid input is
    def gap_counts(fem, problem):
        return lambda shifts: (np.arange(len(shifts))[::-1], np.zeros(len(shifts)))

    monkeypatch.setattr(extension, "_gap_counts", gap_counts)
    code, out = run_cli(capsys, "spectrum", "--v1", "coulomb:1", "--v2", "coulomb:1",
                        "--c1", "0.5", "--c2", "0.5", "--k", "0", "--count", "2")
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == "ValueError" and "inertia count fell" in error["message"]


def test_level_only_on_doubled_grid_reported_as_inf(capsys, monkeypatch):
    # a level that only the doubled grid finds has an infinite estimate,
    # which the JSON report writes as "inf" (strict JSON has no Infinity)
    levels = {50: [0.2], 99: [0.2, 0.5]}

    def gap_counts(fem, problem):
        eigs = np.array(levels[fem.n_nodes])
        return lambda shifts: (np.array([np.sum(eigs < E) for E in shifts]),
                               np.array([np.sum(np.log(np.abs(eigs - E))) for E in shifts]))

    monkeypatch.setattr(extension, "_gap_counts", gap_counts)
    args = ["spectrum", "--v1", "coulomb:1", "--v2", "coulomb:1", "--c1", "0.5", "--c2", "0.5",
            "--k", "0", "--count", "2", "--grid-n", "50"]
    code, out = run_cli(capsys, *args)
    assert code == 0
    rows = json.loads(out, parse_constant=lambda name: pytest.fail(f"non-strict JSON {name}"))[
        "result"]["eigenvalues"]
    assert [row["index"] for row in rows] == [0, 1]
    assert rows[0]["error_estimate"] < 1e-9 and rows[1]["error_estimate"] == "inf"
    code, out = run_cli(capsys, *args, "--format", "csv")
    assert code == 0
    assert out.strip().splitlines()[2].endswith(",inf")


def test_import_leaves_scipy_out():
    # scipy serves only as a test oracle: importing the cli module (which
    # every command does), extremizing and weak solving all run without it
    src = os.path.dirname(os.path.dirname(hardydirac.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    for run in ("import hardydirac.cli",
                "from hardydirac import extremize_ratio, parse_pair; "
                "extremize_ratio(parse_pair('coulomb:1', 'coulomb:1'), 0.5, k_set=(0,))",
                "from hardydirac import Channel, DiracChannelProblem, RadialGrid, exp_profile, "
                "parse_pair, weak_solve; weak_solve(DiracChannelProblem(parse_pair('coulomb:1', "
                "'coulomb:1', 0.5, 0.5), Channel(0), grid=RadialGrid.log_uniform(200, 1e-7, 50.0)), "
                "exp_profile(0, 1.0))"):
        code = f"import sys; {run}; print(any(m.split('.')[0] == 'scipy' for m in sys.modules))"
        out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                             text=True, check=True, timeout=120)
        assert out.stdout.strip() == "False", run


class TestVerifyCommand:
    def test_hypothesis_violation_exit_2(self, capsys):
        code, out = run_cli(capsys, "verify", "--v1", "coulomb:1", "--v2", "coulomb:1",
                            "--c1", "2", "--c2", "1", "--field", "k=0:exp:0,1")
        assert code == 2
        assert json.loads(out)["error"]["type"] == "HypothesisViolationError"

    def test_theorem_and_corollary_reported(self, capsys):
        code, out = run_cli(capsys, "verify", "--v1", "coulomb:1", "--v2", "coulomb:1",
                            "--c1", "0.9", "--c2", "0.9", "--field", "k=0:exp:0,1",
                            "--gamma", "0.5")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["theorem"]["satisfied"] is True
        assert result["corollary"]["satisfied"] is True
        assert result["corollary"]["lambda"] == pytest.approx(0.5)

    def test_parse_error_exit_2(self, capsys):
        code, out = run_cli(capsys, "verify", "--v1", "coulomb:oops", "--v2", "zero")
        assert code == 2


@pytest.mark.parametrize("argv, error_type, needle", [
    ("verify --v1 coulomb:0.5 --v2 coulomb:1 --c1 0 --gamma -0.5", "ValueError",
     "gamma must be >= 0, got -0.5"),
    ("verify --v1 coulomb:0.5 --v2 coulomb:1 --c1 0 --gamma nan", "ValueError",
     "gamma must be >= 0, got nan"),
    ("extremize --v1 coulomb:1 --v2 coulomb:1 --kset 0 --gamma -0.5", "ValueError",
     "gamma must be >= 0"),
    ("constants --v1 mshell:1,0.5@nan --v2 coulomb:1", "ValueError", "R=nan"),
    ("constants --v1 shell:1@nan --v2 coulomb:1", "ValueError", "R=nan, a=1.0"),
    ("experiment --R 0", "ValueError", "shell radius R must be positive, got 0.0"),
    ("experiment --R -1", "ValueError", "shell radius R must be positive, got -1.0"),
    ("constants --v1 coulomb:1 --v2 coulomb:1 --c2 nan", "PotentialParseError",
     "coupling constants must be nonnegative, got c1=1.0, c2=nan"),
    ("verify --v1 coulomb:1 --v2 coulomb:1 --c1 nan --gamma 0.5", "PotentialParseError",
     "coupling constants must be nonnegative, got c1=nan, c2=1.0"),
    ("experiment --c1 nan", "ValueError",
     "coupling constants must be nonnegative, got c1=nan, c2=0.25"),
    ("experiment --eps 0.5 --eps nan", "ValueError", "eps must be positive, got nan"),
    ("constants --v1 coulomb:nan --v2 coulomb:1", "PotentialParseError",
     "coulomb strength must be nonnegative in a weight slot, got nan"),
    ("constants --v1 power:1,nan --v2 coulomb:1", "PotentialParseError",
     "power exponent must be a number, got nan"),
    ("solve --rmax inf", "ValueError", "need 0 < r_min < r_max < inf, got 1e-07, inf"),
    ("constants --v1 table:/nonexistent.csv --v2 coulomb:1", "FileNotFoundError",
     "/nonexistent.csv"),
    ("constants --v1 coulomb:1 --v2 coulomb:1 --out /nonexistent/x.json",
     "FileNotFoundError", "/nonexistent/"),
    ("spectrum --count 0 --grid-n 50", "ValueError", "count must be at least 1, got 0"),
    ("spectrum --count -1 --grid-n 50", "ValueError", "count must be at least 1, got -1"),
    ("channel-constants --v1 coulomb:1 --v2 coulomb:1 --kmin 3 --kmax -3", "ValueError",
     "no channel k != -1 in kmin=3 .. kmax=-3"),
    ("channel-constants --v1 coulomb:1 --v2 coulomb:1 --kmin -1 --kmax -1", "ValueError",
     "no channel k != -1 in kmin=-1 .. kmax=-1"),
    ("spectrum --v1 coulomb:1 --v2 coulomb:1 --c1 0.5 --c2 inf --grid-n 100", "ValueError",
     "c2 must be finite and nonnegative, got inf"),
    ("spectrum --v1 coulomb:1 --v2 coulomb:1 --c1 inf --c2 0.5 --grid-n 100", "ValueError",
     "c1 must be finite, got inf"),
    ("spectrum --m nan --grid-n 100", "ValueError", "mass must be positive and finite, got nan"),
], ids=["gamma-negative", "gamma-nan", "extremize-gamma", "mshell-R-nan", "shell-R-nan",
        "experiment-R-0", "experiment-R-negative", "constants-c2-nan", "verify-c1-nan",
        "experiment-c1-nan", "experiment-eps-nan", "coulomb-nan", "power-p-nan",
        "solve-rmax-inf", "table-unreadable", "out-unwritable", "spectrum-count-0",
        "spectrum-count-negative", "kmin-above-kmax", "k-range-only-minus-1",
        "spectrum-c2-inf", "spectrum-c1-inf", "spectrum-m-nan"])
def test_invalid_input_exits_2_naming_it(capsys, argv, error_type, needle):
    # each of these once exited 0 (the empty requests and --c2 inf, which gave levels
    # of a form with no gradient weight), failed later with a message about something
    # else, or (the two file errors) ended in a traceback with exit 1
    code, out = run_cli(capsys, *argv.split())
    assert code == 2
    error = json.loads(out)["error"]
    assert error["type"] == error_type and needle in error["message"]


class TestIdempotence:
    def test_byte_identical_reports(self, capsys):
        args = ("verify", "--v1", "coulomb:1", "--v2", "coulomb:1",
                "--field", "k=0:exp:0,1", "--gamma", "0.1")
        _, first = run_cli(capsys, *args)
        _, second = run_cli(capsys, *args)
        assert first == second

    def test_out_file_atomic(self, capsys, tmp_path):
        target = tmp_path / "report.json"
        code, _ = run_cli(capsys, "constants", "--v1", "coulomb:1", "--v2",
                          "coulomb:1", "--out", str(target))
        assert code == 0
        first = target.read_bytes()
        run_cli(capsys, "constants", "--v1", "coulomb:1", "--v2", "coulomb:1",
                "--out", str(target))
        assert target.read_bytes() == first


class TestTabularCommands:
    def test_channel_constants_csv(self, capsys):
        code, out = run_cli(capsys, "channel-constants", "--v1", "coulomb:1",
                            "--v2", "coulomb:1", "--kmin", "-3", "--kmax", "2",
                            "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,A_k"
        ks = [int(line.split(",")[0]) for line in lines[1:]]
        assert -1 not in ks
        assert ks == sorted(ks)

    def test_channel_constants_one_a_k_per_channel(self, capsys, monkeypatch):
        calls = []

        def a_k(pair, k, inner=cli.a_k):
            calls.append(k)
            return inner(pair, k)

        monkeypatch.setattr(cli, "a_k", a_k)
        code, out = run_cli(capsys, "channel-constants", "--v1", "coulomb:1",
                            "--v2", "coulomb:1", "--kmin", "-3", "--kmax", "2",
                            "--format", "csv")
        assert code == 0
        assert calls == [-3, -2, 0, 1, 2]
        assert [float(line.split(",")[1]) for line in out.strip().splitlines()[1:]] == [
            pytest.approx(1.0 / abs(k + 1), rel=1e-9) for k in calls]

    def test_spectrum_csv_columns(self, capsys):
        code, out = run_cli(capsys, "spectrum", "--v1", "coulomb:1", "--v2",
                            "coulomb:1", "--c1", "0.5", "--c2", "0.5",
                            "--k", "0", "--count", "1", "--grid-n", "300",
                            "--rmin", "1e-6", "--rmax", "50", "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "k,index,E,error_estimate"
        row = lines[1].split(",")
        assert abs(float(row[2]) - 0.8660254) < 1e-4

    def test_experiment_csv(self, capsys):
        code, out = run_cli(capsys, "experiment", "--c1", "1", "--c2", "0.25",
                            "--R", "2", "--eps", "0.8", "--eps", "0.4",
                            "--format", "csv", "--lambda", "0")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0].startswith("eps,lhs,bulk_term,annulus_term")
        eps_col = [float(line.split(",")[0]) for line in lines[1:]]
        assert eps_col == [0.8, 0.4]


class TestSolveCommand:
    def test_solve_diagnostics(self, capsys):
        code, out = run_cli(capsys, "solve", "--v1", "coulomb:1", "--v2", "coulomb:1",
                            "--c1", "0.5", "--c2", "0.5", "--k", "0",
                            "--grid-n", "500", "--f1", "exp:0,1")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["residual_upper"] < 1e-6
        assert result["regime"] == "nonnegative"
        assert 0.0 < result["lambda"] < 1.0

    def test_f2_with_singular_derivative(self, capsys):
        # F2 = r^-0.5 e^-r is square integrable with weight r^2 but F2' is
        # not; the strong form samples F2' on the grid only, so it solves
        code, out = run_cli(capsys, "solve", "--v1", "coulomb:1", "--v2", "coulomb:1",
                            "--c1", "0.5", "--c2", "0.5", "--k", "0",
                            "--f1", "exp:0,1", "--f2", "exp:-0.5,1")
        assert code == 0
        result = json.loads(out)["result"]
        for key in ("residual_upper", "residual_lower", "h_norm_phi"):
            assert math.isfinite(result[key])
        assert result["residual_upper"] < 1e-6 and result["residual_lower"] < 1e-6

    def test_solve_csv_table(self, capsys):
        code, out = run_cli(capsys, "solve", "--v1", "zero", "--v2", "zero",
                            "--c1", "0", "--c2", "0", "--k", "0",
                            "--grid-n", "300", "--f1", "gauss:0,1",
                            "--format", "csv")
        assert code == 0
        lines = out.strip().splitlines()
        assert lines[0] == "r,phi,chi"
        assert len(lines) == 301

    def test_extremize_runs(self, capsys):
        code, out = run_cli(capsys, "extremize", "--v1", "coulomb:1", "--v2",
                            "coulomb:1", "--kset", "0")
        assert code == 0
        result = json.loads(out)["result"]
        assert result["best_ratio"] <= 1.0 + 1e-6


def _readme_commands():
    """The ``hardy-dirac ...`` lines of the README's command-line block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    return [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("hardy-dirac ")]


README_COMMANDS = _readme_commands()


def test_readme_lists_every_subcommand():
    assert sorted(argv[0] for argv in README_COMMANDS) == sorted(
        ["constants", "channel-constants", "verify", "extremize", "solve",
         "spectrum", "experiment"])


@pytest.mark.parametrize("argv", README_COMMANDS, ids=[argv[0] for argv in README_COMMANDS])
def test_readme_command_runs(capsys, argv):
    # the README's examples run as printed, so they cannot drift from the API
    code, out = run_cli(capsys, *argv)
    assert code == 0, out
    assert out
