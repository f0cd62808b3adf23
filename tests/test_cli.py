"""Command-line interface: exit codes, output files, and determinism."""

import csv
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cliffsde
from cliffsde.cli import ENV_SEED, main


def _run(capsys, *argv):
    code = main(list(argv))
    cap = capsys.readouterr()
    return code, cap.out, cap.err


# -- bihari ------------------------------------------------------------------


def test_bihari_linear_prints_the_exponential(capsys):
    code, out, _ = _run(capsys, "bihari", "--rho", "linear", "--u0", "1.0",
                        "--horizon", "1.0")
    assert code == 0
    assert out == "2.718282\n"


def test_python_dash_m_runs_without_warnings():
    proc = subprocess.run(
        [sys.executable, "-W", "error", "-m", "cliffsde", "bihari", "--rho",
         "linear", "--u0", "1", "--horizon", "1"],
        capture_output=True, text=True,
        env=dict(os.environ,
                 PYTHONPATH=str(Path(cliffsde.__file__).parents[1])))
    assert proc.returncode == 0
    assert proc.stdout == "2.718282\n"
    assert proc.stderr == ""


def test_bihari_zero_start(capsys):
    code, out, _ = _run(capsys, "bihari", "--rho", "linear", "--u0", "0.0",
                        "--horizon", "2.0")
    assert code == 0
    assert out == "0.000000\n"


def test_bihari_rejects_sqrt_modulus(capsys):
    code, _, err = _run(capsys, "bihari", "--rho", "sqrt", "--u0", "1.0",
                        "--horizon", "1.0")
    assert code == 2
    assert err.startswith("config error (--rho)")


def test_bihari_rejects_unknown_modulus(capsys):
    code, _, err = _run(capsys, "bihari", "--rho", "cubic", "--u0", "1.0",
                        "--horizon", "1.0")
    assert code == 2
    assert "config error (--rho)" in err


def test_bihari_rejects_negative_start(capsys):
    code, _, err = _run(capsys, "bihari", "--rho", "linear", "--u0", "-1.0",
                        "--horizon", "1.0")
    assert code == 2
    assert "config error (--u0)" in err


# -- verify ------------------------------------------------------------------


def test_verify_single_suite_with_outputs(capsys, tmp_path):
    out_csv = tmp_path / "stats.csv"
    vio_csv = tmp_path / "violations.csv"
    code, out, _ = _run(capsys, "verify", "--suite", "car_identity",
                        "--trials", "4", "--n", "4", "--seed", "5",
                        "--out", str(out_csv),
                        "--violations-out", str(vio_csv))
    assert code == 0
    assert out.startswith("car_identity PASS worst=")
    assert re.fullmatch(r"car_identity PASS worst=\S+ wall_s=\d+\.\d{3}\n", out)
    stats = out_csv.read_text(encoding="utf-8")
    assert stats.startswith("suite,cell,statistic,value\n")
    assert "wall" not in stats
    assert vio_csv.read_text(encoding="utf-8") == "suite,cell,trial,seed,message\n"
    assert b"\r" not in out_csv.read_bytes()


def test_verify_unknown_suite(capsys):
    code, _, err = _run(capsys, "verify", "--suite", "telepathy")
    assert code == 2
    assert "config error (--suite)" in err


def test_verify_runs_are_byte_identical(capsys, tmp_path):
    paths = []
    for tag in ("a", "b"):
        out_csv = tmp_path / f"stats_{tag}.csv"
        code, _, _ = _run(capsys, "verify", "--suite", "norm_exchange",
                          "--trials", "6", "--n", "4", "--seed", "11",
                          "--out", str(out_csv))
        assert code == 0
        paths.append(out_csv)
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_verify_refinement_summary_line(capsys):
    code, out, _ = _run(capsys, "verify", "--suite", "bihari", "--refinement")
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("bihari PASS")
    assert lines[1].startswith("refinement PASS")
    assert all(re.search(r" wall_s=\d+\.\d{3}$", line) for line in lines)


def test_seeded_verify_output_matches_the_committed_bytes(capsys, tmp_path):
    # the fixture pins the seeded statistics; a change that means to alter
    # them must say so and rewrite the file
    out_csv = tmp_path / "stats.csv"
    code, out, _ = _run(capsys, "verify", "--suite", "bg_ratio",
                        "--suite", "norm_exchange", "--suite", "parity_lemma",
                        "--trials", "20", "--seed", "3", "--out", str(out_csv))
    assert code == 0
    fixture = Path(__file__).parent / "data" / "verify_seed3_trials20.csv"
    assert out_csv.read_bytes() == fixture.read_bytes()
    assert [line.split(" wall_s=")[0] for line in out.splitlines()] == [
        "bg_ratio PASS worst=1.0000000000000002",
        "norm_exchange PASS worst=1.0000000000000002",
        "parity_lemma PASS worst=0.0",
    ]


# -- solve -------------------------------------------------------------------


def test_solve_constant_problem(capsys, tmp_path):
    cfg = tmp_path / "prob.cfg"
    cfg.write_text("grid.n = 4\n")
    out_dir = tmp_path / "run"
    code, out, _ = _run(capsys, "solve", "--config", str(cfg),
                        "--out", str(out_dir))
    assert code == 0
    assert "converged in 1 iterations" in out
    traj = (out_dir / "trajectory.csv").read_text(encoding="utf-8")
    rows = list(csv.DictReader(traj.splitlines()))
    assert len(rows) == 5
    assert all(float(r["lp_norm"]) == 1.0 for r in rows)
    assert all(float(r["residual"]) == 0.0 for r in rows)
    iters = (out_dir / "iterations.csv").read_text(encoding="utf-8")
    assert iters.startswith(
        "iteration,delta,inner_iterations,adapted_defect,selfadjoint_defect\n")


def test_solve_outputs_are_reproducible(capsys, tmp_path):
    cfg = tmp_path / "prob.cfg"
    cfg.write_text("grid.n = 4\nF.name = scale\nF.c = 0.5\n"
                   "R.name = scale\nR.c = 0.25\n")
    blobs = []
    for tag in ("a", "b"):
        out_dir = tmp_path / tag
        code, _, _ = _run(capsys, "solve", "--config", str(cfg),
                          "--out", str(out_dir))
        assert code == 0
        blobs.append((out_dir / "trajectory.csv").read_bytes())
    assert blobs[0] == blobs[1]
    assert b"\r" not in blobs[0]


def test_solve_missing_config_file(capsys, tmp_path):
    code, _, err = _run(capsys, "solve", "--config",
                        str(tmp_path / "absent.cfg"))
    assert code == 2
    assert "config error (--config)" in err


def test_solve_reports_the_offending_key(capsys, tmp_path):
    cfg = tmp_path / "prob.cfg"
    cfg.write_text("grid.n = twelve\n")
    code, _, err = _run(capsys, "solve", "--config", str(cfg))
    assert code == 2
    assert "config error (grid.n)" in err


def test_solve_rejects_an_infinite_exponent(capsys, tmp_path):
    cfg = tmp_path / "prob.cfg"
    cfg.write_text("grid.n = 4\np = inf\n")
    code, _, err = _run(capsys, "solve", "--config", str(cfg))
    assert code == 2
    assert err.startswith("config error (p)")


def test_solve_overflow_prints_one_error_line(tmp_path):
    cfg = tmp_path / "prob.cfg"
    cfg.write_text("grid.n = 4\nF.name = scale\nF.c = 1e308\n")
    proc = subprocess.run(
        [sys.executable, "-m", "cliffsde", "solve", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
        env=dict(os.environ,
                 PYTHONPATH=str(Path(cliffsde.__file__).parents[1])))
    assert proc.returncode == 2
    assert proc.stderr.startswith("config error (solve)")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("line, key", [
    ("Z.e = nan", "Z.e"),
    ("grid.n = 0", "grid.n"),
    ("solve.tol = nan", "solve.tol"),
    ("solve.max_outer = 0", "solve.max_outer"),
    ("R.name = conditional_scale\nR.level = 0.7", "R.level"),
    ("R.name = conditional_scale\nR.level = 99", "R.level"),
    ("R.name = conditional_scale\nR.level = -1", "R.level"),
])
def test_solve_rejects_a_bad_value_under_its_key(capsys, tmp_path, line,
                                                 key):
    cfg = tmp_path / "prob.cfg"
    cfg.write_text(line + "\n")
    code, _, err = _run(capsys, "solve", "--config", str(cfg),
                        "--out", str(tmp_path))
    assert code == 2
    assert err.startswith(f"config error ({key})")


def test_solve_nonconvergence_writes_delta_trace(capsys, tmp_path):
    cfg = tmp_path / "prob.cfg"
    cfg.write_text("grid.n = 6\nF.name = scale\nF.c = 1.0\n"
                   "solve.max_outer = 2\n")
    out_dir = tmp_path / "run"
    code, out, err = _run(capsys, "solve", "--config", str(cfg),
                          "--out", str(out_dir))
    assert code == 3
    assert "did not converge" in err
    trace = out_dir / "deltas.csv"
    assert str(trace) in out
    lines = trace.read_text(encoding="utf-8").splitlines()
    assert lines[0] == "iteration,delta"
    assert len(lines) == 3


# -- bench-constants -----------------------------------------------------------


def test_bench_constants_prints_both_forms(capsys, tmp_path):
    out_csv = tmp_path / "bench.csv"
    code, out, _ = _run(capsys, "bench-constants", "--p", "3", "--trials",
                        "8", "--n", "4", "--seed", "2", "--out", str(out_csv))
    assert code == 0
    lines = out.splitlines()
    assert lines[0].startswith("p=3 driver=fermion form=hp beta_hat=")
    assert lines[1].startswith("p=3 driver=fermion form=l2lp beta_hat=")
    text = out_csv.read_text(encoding="utf-8")
    assert text.startswith("p,driver,form,trials,estimate\n")
    assert len(text.splitlines()) == 3


def test_bench_constants_rejects_small_exponent(capsys):
    code, _, err = _run(capsys, "bench-constants", "--p", "1.5", "--seed", "0")
    assert code == 2
    assert "config error (--p)" in err


def test_bench_constants_rejects_unknown_driver(capsys):
    # linear_combination is registered, but there are no --alpha flags
    for kind in ("bosonic", "linear_combination"):
        code, _, err = _run(capsys, "bench-constants", "--p", "3",
                            "--driver", kind, "--seed", "0")
        assert code == 2
        assert err == f"config error (--driver): unknown driver {kind!r}\n"


def test_bench_constants_pair_budget(capsys):
    code, _, err = _run(capsys, "bench-constants", "--p", "3",
                        "--driver", "annihilation", "--n", "7", "--seed", "0")
    assert code == 2
    assert "config error (--n)" in err


# -- environment seed ------------------------------------------------------------


def test_env_seed_applies_when_flag_absent(capsys, monkeypatch):
    monkeypatch.setenv(ENV_SEED, "123")
    runs = []
    for _ in range(2):
        code, out, _ = _run(capsys, "bench-constants", "--p", "2",
                            "--trials", "6", "--n", "4")
        assert code == 0
        runs.append(out)
    assert runs[0] == runs[1]
    monkeypatch.setenv(ENV_SEED, "124")
    _, other, _ = _run(capsys, "bench-constants", "--p", "2",
                       "--trials", "6", "--n", "4")
    assert other != runs[0]


def test_env_seed_must_be_an_integer(capsys, monkeypatch):
    monkeypatch.setenv(ENV_SEED, "abc")
    code, _, err = _run(capsys, "bench-constants", "--p", "2", "--n", "4")
    assert code == 2
    assert f"config error ({ENV_SEED})" in err


def test_explicit_seed_overrides_environment(capsys, monkeypatch):
    monkeypatch.setenv(ENV_SEED, "abc")  # invalid, but never consulted
    code, _, _ = _run(capsys, "bench-constants", "--p", "2", "--n", "4",
                      "--trials", "6", "--seed", "9")
    assert code == 0
