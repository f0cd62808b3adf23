"""Command-line interface: exit codes, output files, and determinism."""

import contextlib
import csv
import inspect
import io
import math
import os
import re
import subprocess
import sys
import tempfile
import warnings
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import cliffsde
from cliffsde.cli import ENV_SEED, main
from cliffsde.coefficients import COEFFICIENTS, NONLOCAL_MAPS
from cliffsde.config import _SCHEMA
from cliffsde.process import DRIVER_KINDS
from cliffsde.solver import NONLOCAL_MODES


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


@pytest.mark.parametrize("argv,flag", [
    (("--horizon", "nan"), "--horizon"), (("--horizon", "inf"), "--horizon"),
    (("--phi", "nan"), "--phi"), (("--phi", "-1"), "--phi"),
    (("--t0", "nan"), "--t0"), (("--u0", "inf"), "--u0"),
    (("--scale", "nan"), "--scale"), (("--scale", "inf"), "--scale"),
    (("--rho", "log", "--scale", "nan"), "--scale"),
])
def test_bihari_out_of_domain_values_exit_2_naming_the_flag(capsys, argv,
                                                             flag):
    # NaN horizons, phis, t0s and scales printed a bound and exited 0;
    # infinite ones exited 3 ("could not bracket"); a negative phi was
    # reported as --u0 and a NaN log scale as --rho
    code, out, err = _run(capsys, "bihari", "--rho", "linear", "--u0", "1",
                          "--horizon", "1", *argv)
    assert code == 2
    assert err.startswith(f"config error ({flag}): ")
    assert out == ""


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


@pytest.mark.parametrize("argv,flag", [
    (("--suite", "bg_ratio", "--trials", "0"), "--trials"),
    (("--suite", "norm_exchange", "--trials", "-2"), "--trials"),
    (("--suite", "bihari", "--workers", "-2"), "--workers"),
    (("--suite", "bihari", "--workers", "0"), "--workers"),
    (("--n", "0"), "--n"),
    (("--n", "30"), "--n"),
    (("--suite", "bihari", "--seed", "-1"), "--seed"),
    (("--suite", "car_identity", "--n", "15"), "--n"),
])
def test_verify_out_of_range_sizes_exit_2_naming_the_flag(capsys, argv, flag):
    code, out, err = _run(capsys, "verify", *argv)
    assert code == 2
    assert err.startswith(f"config error ({flag}): ")
    assert err.count("\n") == 1
    # --n's message named the suite field's size tuple: "n_grid ...: (15,)"
    assert "n_grid" not in err
    assert out == ""


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


@pytest.mark.parametrize("argv, flag", [
    (("solve", "--config", "{dir}"), "--config"),
    (("solve", "--config", "{latin1}"), "--config"),
    (("solve", "--config", "{cfg}", "--out", "{cfg}"), "--out"),
    (("verify", "--suite", "car_identity", "--trials", "1", "--out", "{dir}"),
     "--out"),
    (("verify", "--suite", "car_identity", "--trials", "1",
      "--violations-out", "{dir}"), "--violations-out"),
    (("bench-constants", "--p", "4", "--n", "2", "--trials", "2", "--out",
      "{dir}"), "--out"),
], ids=["config-dir", "config-not-utf8", "solve-out-file", "verify-out-dir",
        "violations-out-dir", "bench-out-dir"])
def test_an_unusable_file_exits_2_naming_its_flag(capsys, tmp_path, argv,
                                                  flag):
    # each ended in a traceback and exit 1, the failed-suite status; an
    # unusable verify or bench-constants output failed only after the
    # suite's PASS line or every beta_hat row was printed
    (tmp_path / "dir").mkdir()
    (tmp_path / "latin1.cfg").write_bytes(b"grid.n = 2\n\xff\n")
    (tmp_path / "prob.cfg").write_text("grid.n = 2\n")
    paths = {"dir": tmp_path / "dir", "latin1": tmp_path / "latin1.cfg",
             "cfg": tmp_path / "prob.cfg"}
    code, out, err = _run(capsys, *(a.format(**paths) for a in argv))
    assert code == 2
    assert err.startswith(f"config error ({flag}): ")
    assert err.count("\n") == 1
    assert out == ""


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


@pytest.mark.parametrize("text, key", [
    ("grid.n = 4\nF.name = scale\nF.c = 1e308\n", "solve"),
    # T - t0 overflows to inf: numpy's linspace warnings came first
    ("grid.t0 = -1e308\ngrid.T = 1e308\n", "grid.T"),
])
def test_solve_overflow_prints_one_error_line(tmp_path, text, key):
    cfg = tmp_path / "prob.cfg"
    cfg.write_text(text)
    proc = subprocess.run(
        [sys.executable, "-m", "cliffsde", "solve", "--config", str(cfg),
         "--out", str(tmp_path / "out")],
        capture_output=True, text=True,
        env=dict(os.environ,
                 PYTHONPATH=str(Path(cliffsde.__file__).parents[1])))
    assert proc.returncode == 2
    assert proc.stderr.startswith(f"config error ({key})")
    assert proc.stderr.count("\n") == 1


@pytest.mark.parametrize("line, key", [
    ("Z.e = nan", "Z.e"),
    ("grid.n = 0", "grid.n"),
    ("solve.tol = nan", "solve.tol"),
    ("solve.max_outer = 0", "solve.max_outer"),
    ("R.name = conditional_scale\nR.level = 0.7", "R.level"),
    ("R.name = conditional_scale\nR.level = 99", "R.level"),
    ("R.name = conditional_scale\nR.level = -1", "R.level"),
    # an empty interval names the end the file sets, not the default T
    ("grid.t0 = 2", "grid.t0"),
])
def test_solve_rejects_a_bad_value_under_its_key(capsys, tmp_path, line,
                                                 key):
    cfg = tmp_path / "prob.cfg"
    cfg.write_text(line + "\n")
    code, _, err = _run(capsys, "solve", "--config", str(cfg),
                        "--out", str(tmp_path))
    assert code == 2
    assert err.startswith(f"config error ({key})")


@pytest.mark.parametrize("scale", ["0", "1e-300", "-1e-300", "1e154"])
def test_an_osgood_scale_that_fails_its_certificate_exits_2(capsys, tmp_path,
                                                            scale):
    # the declared modulus 4 scale^2 is 0 or overflows: the factory's
    # Osgood certificate raised, and escaped as a traceback with exit 1
    cfg = tmp_path / "prob.cfg"
    cfg.write_text(f"grid.n = 2\nF.name = radial_osgood\nF.scale = {scale}\n")
    code, out, err = _run(capsys, "solve", "--config", str(cfg),
                          "--out", str(tmp_path / "out"))
    assert code == 2 and out == ""
    assert err.startswith("config error (F): radial_rho(")
    assert err.count("\n") == 1


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


@pytest.mark.parametrize("data", (
    "p = 2.5\nF.name = scale\nF.c = 1e100",
    "p = 3\nF.name = scale\nF.c = 1e300",
    "p = 3\nH.name = scale\nH.c = 1e200",
    "p = 4\nF.name = scale\nF.c = 1e300",
    "F.name = cos_scale\nF.c = 1e300",
), ids=("p2.5-F", "p3-F", "p3-H", "p4-F", "cos-F"))
def test_solve_overflow_exits_3_naming_the_non_finite_delta(
        capsys, tmp_path, data):
    # at p = 2.5 and 3 the norms take the eigvalsh path, which must give
    # NaN on an overflowed Gram matrix as the trace path at p = 4 does; the
    # time-dependent map builds: its continuity jumps, finite matrices whose
    # Gram products overflow, take finite norms, and its squared increments
    # overflow to inf, not to OverflowError
    cfg = tmp_path / "prob.cfg"
    cfg.write_text("grid.n = 4\n" + data + "\n")
    # numpy's RuntimeWarnings would reach stderr ahead of the error line
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, _, err = _run(capsys, "solve", "--config", str(cfg),
                            "--out", str(tmp_path))
    assert code == 3
    assert [str(w.message) for w in caught] == []
    assert err.startswith("did not converge: ") and err.count("\n") == 1
    assert re.search(r"non-finite delta \(nan\) at node \d", err)


def test_solve_picard_failure_rows_are_sweep_numbers(capsys, tmp_path):
    cfg = tmp_path / "prob.cfg"
    cfg.write_text("grid.n = 6\nF.name = scale\nF.c = 1.0\n"
                   "solve.max_outer = 3\n")
    code, _, _ = _run(capsys, "solve", "--config", str(cfg),
                      "--out", str(tmp_path))
    assert code == 3
    rows = list(csv.DictReader(
        (tmp_path / "deltas.csv").read_text(encoding="utf-8").splitlines()))
    assert [r["iteration"] for r in rows] == ["1", "2", "3"]


def test_solve_inner_budget_failure_lists_the_measured_iterations(
        capsys, tmp_path):
    # a contraction this close to 1 asks for the inner tolerance
    # tol (1 - C) / 10 = 1e-17, below the rounding floor: the mixed steps
    # stall, and the trace holds the measured steps, those within the
    # tolerance's L^2 reach and the last one
    cfg = tmp_path / "prob.cfg"
    cfg.write_text("grid.n = 4\nF.name = scale\nF.c = 0.5\n"
                   "G.name = scale\nG.c = 0.25\nH.name = scale\n"
                   "H.c = 0.5\nR.name = scale\nR.c = 0.999999\n")
    code, _, err = _run(capsys, "solve", "--config", str(cfg),
                        "--out", str(tmp_path))
    assert code == 3
    assert "within 200 iterations" in err
    rows = list(csv.DictReader(
        (tmp_path / "deltas.csv").read_text(encoding="utf-8").splitlines()))
    assert [int(r["iteration"]) for r in rows] == [200]
    assert 1e-17 < float(rows[0]["delta"]) < math.inf


# -- generated configurations ------------------------------------------------------


_HOSTILE = st.sampled_from([
    "0", "-0.0", "-1", "-2.5", "1e-300", "5e-324", "1e300", "1e154", "-1e300",
    "inf", "-inf", "nan", "1+2j", "-0.5j", "abc", "1,5"])
# values that build, per fixed key, factory parameter and Z coefficient
_PLAUSIBLE = {
    "p": ["3", "4", "2.5", "6"], "grid.t0": ["0", "0.5", "-1"],
    "grid.T": ["1", "2", "0.25"], "grid.max_generators": ["14", "12", "16"],
    "driver.kind": list(DRIVER_KINDS), "driver.alpha1": ["1", "0.5", "-2"],
    "driver.alpha2": ["0", "0.5", "1"], "solve.tol": ["1e-10", "1e-6"],
    "solve.max_outer": ["60", "8", "2"], "solve.max_inner": ["200", "4"],
    "solve.start_node": ["0", "1", "2"],
    "solve.nonlocal_mode": list(NONLOCAL_MODES),
    "c": ["0.5", "0.25", "-0.5", "1", "2"], "omega": ["1", "3"],
    "scale": ["0.5", "1", "2"], "level": ["0", "1", "3", "4"],
    "bogus": ["1"], "Z": ["1", "0.5", "0.5j", "-2"]}


def _value(kind: str):
    """A value that builds three times in four, else a hostile one."""
    return st.integers(0, 3).flatmap(
        lambda i: st.sampled_from(_PLAUSIBLE[kind]) if i else _HOSTILE)


@st.composite
def _configs(draw) -> dict:
    """grid.n in 1..5, up to four other fixed keys, registry maps with
    their parameters (and one they do not take), and Z monomials whose
    labels may repeat, fall out of order or exceed the generators."""
    n = draw(st.integers(1, 5))
    raw = {"grid.n": str(n)}
    fixed = sorted(set(_SCHEMA) - {"grid.n"})
    for key in draw(st.sets(st.sampled_from(fixed), max_size=4)):
        raw[key] = draw(_value(key))
    for section in draw(st.sets(st.sampled_from("FGHR"))):
        registry = NONLOCAL_MAPS if section == "R" else COEFFICIENTS
        name = draw(st.sampled_from([*registry, "unknown"]))
        raw[f"{section}.name"] = name
        params = ["c"] if name not in registry else [
            param for param in inspect.signature(registry[name]).parameters
            if param != "p"] + ["bogus"]
        for param in draw(st.sets(st.sampled_from(params))):
            raw[f"{section}.{param}"] = draw(_value(param))
    labels = st.lists(st.integers(0, 2 * n + 1), max_size=3).map(
        lambda idx: "e" + "_".join(map(str, idx)))
    for label in draw(st.sets(labels, max_size=3)):
        raw[f"Z.{label}"] = draw(_value("Z"))
    return raw


def _names_a_held_key(line: str, raw: dict) -> bool:
    """``config error (<k>): ...`` names a key of ``raw`` or its section
    as k, or, for k = solve (the problem's own checks), in the message."""
    held = set(raw) | {key.partition(".")[0] for key in raw}
    head, _, message = line.partition(": ")
    key = head.removeprefix("config error (").removesuffix(")")
    return key in held or key == "solve" and any(
        re.search(rf"(?<![\w.]){re.escape(name)}(?![\w.])", message)
        for name in held)


@settings(deadline=None)
@given(raw=_configs())
def test_every_generated_config_exits_0_2_or_3_with_one_line(raw):
    with tempfile.TemporaryDirectory() as tmp:
        cfg, out_dir = os.path.join(tmp, "prob.cfg"), os.path.join(tmp, "out")
        with open(cfg, "w", encoding="utf-8") as fh:
            fh.writelines(f"{key} = {value}\n" for key, value in raw.items())
        err = io.StringIO()
        with warnings.catch_warnings(record=True) as caught, \
                contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(err):
            warnings.simplefilter("always")
            code = main(["solve", "--config", cfg, "--out", out_dir])
        line = err.getvalue()
        assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]
        assert code in (0, 2, 3)
        if code == 0:
            assert line == ""
            for name in ("trajectory.csv", "iterations.csv"):
                assert os.path.isfile(os.path.join(out_dir, name))
        else:
            assert line.count("\n") == 1 and line.endswith("\n")
            if code == 2:
                assert _names_a_held_key(line, raw), line
            else:
                assert line.startswith("did not converge")
                assert os.path.isfile(os.path.join(out_dir, "deltas.csv"))


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


def test_seeded_bench_constants_match_the_committed_bytes(capsys, tmp_path):
    # every trial's generator is SeedSequence(seed, spawn_key=(t,)); the
    # estimates pin their streams, draws and norms to the bit
    out_csv = tmp_path / "constants.csv"
    code, _, _ = _run(capsys, "bench-constants", "--p", "3", "--p", "4",
                      "--n", "8", "--trials", "200", "--seed", "1729",
                      "--out", str(out_csv))
    assert code == 0
    fixture = (Path(__file__).parent / "data"
               / "bench_constants_seed1729_n8_trials200.csv")
    assert out_csv.read_bytes() == fixture.read_bytes()


def test_bench_constants_rejects_small_exponent(capsys):
    code, _, err = _run(capsys, "bench-constants", "--p", "1.5", "--seed", "0")
    assert code == 2
    assert "config error (--p)" in err


@pytest.mark.parametrize("p", ["nan", "inf"])
def test_bench_constants_rejects_a_non_finite_exponent(capsys, p):
    # NaN and inf passed the p >= 2 test, and the norm kernels raised a
    # ValueError traceback after the finite p's rows were printed
    code, out, err = _run(capsys, "bench-constants", "--p", "4", "--p", p,
                          "--n", "2", "--trials", "2")
    assert code == 2
    assert err.startswith("config error (--p): ")
    assert "beta_hat" not in out


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


@pytest.mark.parametrize("argv,flag", [
    (("--trials", "0"), "--trials"),
    (("--trials", "-2"), "--trials"),
    (("--n", "0"), "--n"),
    (("--n", "20"), "--n"),
    (("--seed", "-1"), "--seed"),
])
def test_bench_constants_out_of_range_sizes_exit_2(capsys, argv, flag):
    code, out, err = _run(capsys, "bench-constants", "--p", "4", *argv)
    assert code == 2
    assert f"config error ({flag})" in err
    assert "beta_hat" not in out


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
    # a non-negative one: SeedSequence rejects a negative seed
    for value in ("abc", "-5"):
        monkeypatch.setenv(ENV_SEED, value)
        code, _, err = _run(capsys, "bench-constants", "--p", "2", "--n", "4")
        assert code == 2
        assert f"config error ({ENV_SEED})" in err


def test_explicit_seed_overrides_environment(capsys, monkeypatch):
    monkeypatch.setenv(ENV_SEED, "abc")  # invalid, but never consulted
    code, _, _ = _run(capsys, "bench-constants", "--p", "2", "--n", "4",
                      "--trials", "6", "--seed", "9")
    assert code == 0
