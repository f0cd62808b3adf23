"""Tests of the benchmark harness.

    PYTHONPATH=src python -m pytest -q perfbench

They run tiny versions of the workloads (n = 4 solves, two-trial suites)
through the same measurement and tracing code as the benchmark.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import bench
import cliffsde
from cliffsde import coefficients
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
SRC = ROOT / "src"

TINY = {
    "solve-nonlocal": bench.SolveWorkload("nonlocal_linear", n=4),
    "solve-osgood": bench.SolveWorkload("osgood_radial", n=4),
    "verify-inequalities": bench.SuiteWorkload(trials=2),
}


def _bindings():
    """Every value reachable from a package module's namespace or from a
    module-level dict, and every attribute of the package's classes."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if name != "cliffsde" and not name.startswith("cliffsde."):
            continue
        for key, obj in vars(module).items():
            seen[(name, key)] = obj
            if isinstance(obj, dict) and not key.startswith("__"):
                for k, v in obj.items():
                    seen[(name, key, k)] = v
            if isinstance(obj, type):
                for attr, raw in vars(obj).items():
                    seen[(name, key, "." + attr)] = raw
    return seen


def _counting_scale(calls):
    """The built-in R(x) = c x, counting its own evaluations."""
    base = coefficients.NONLOCAL_MAPS["scale"]

    def factory(c=0.5):
        rmap = base(c)
        fn = rmap.fn

        def counted(x):
            if hasattr(coefficients.NonlocalMap.__call__, "__wrapped__"):
                calls.append(1)  # only while a tracer is installed
            return fn(x)

        return coefficients.NonlocalMap(
            fn=counted, contraction=rmap.contraction,
            selfadjoint_preserving=rmap.selfadjoint_preserving,
            name=rmap.name)

    return factory


def test_traced_solve_restores_bindings_and_matches_the_report(monkeypatch):
    r_calls = []
    monkeypatch.setitem(coefficients.NONLOCAL_MAPS, "scale",
                        _counting_scale(r_calls))
    before = _bindings()
    metrics, log, _ = bench.trace(TINY["solve-nonlocal"], seed=3, seconds=0.0)
    after = _bindings()

    assert before.keys() == after.keys()
    changed = [key for key in before if before[key] is not after[key]]
    assert changed == []
    assert log.failed == 0 and log.attempted == 2

    report = log.last
    assert metrics["solver.inner_steps"][0] == sum(report.inner_iterations)
    assert metrics["solver.picard_sweeps"][0] == report.picard_iterations
    assert metrics["solver.inner_fixed_point.calls"][0] == \
        report.picard_iterations * len(report.trajectory)
    assert metrics["coefficients.NonlocalMap.calls"][0] == len(r_calls)
    assert metrics["coefficients.NonlocalMap.calls"][0] > \
        sum(report.inner_iterations)


def test_lp_norm_calls_are_classified_by_p():
    assert bench.lp_norm_class(None, 2.0) == "p2"
    assert bench.lp_norm_class(None, 4) == "p_even"
    assert bench.lp_norm_class(None, p=6.0) == "p_even"
    assert bench.lp_norm_class(None, 3.0) == "p_other"
    assert bench.lp_norm_class(None, 2.5) == "p_other"


def test_tracer_rebinds_every_import_site_and_counts_self_time():
    original = cliffsde.element.lp_norm
    sites = [name for name, module in sys.modules.items()
             if name.startswith("cliffsde")
             and vars(module).get("lp_norm") is original]
    assert {"cliffsde"} | {f"cliffsde.{m}" for m in (
        "element", "space", "process", "integrals", "coefficients", "solver",
        "experiments")} <= set(sites)

    space = cliffsde.make_space(cliffsde.TimeGrid.uniform(0.0, 1.0, 4))
    x = cliffsde.random_level_element(space, np.random.default_rng(0), 4)
    with Tracer() as tracer:
        for name in sites:
            assert sys.modules[name].lp_norm is not original
        x.norm(4.0)
        cliffsde.lp_norm(x, 3.0)
    for name in sites:
        assert sys.modules[name].lp_norm is original

    assert tracer.calls("element.lp_norm") == 2
    assert tracer.calls("element.CliffordElement.norm") == 1
    norm_total = tracer.total_s("element.CliffordElement.norm")
    norm_self = tracer.self_s("element.CliffordElement.norm")
    assert 0 <= norm_self <= norm_total
    assert tracer.layer_self_s("element") >= tracer.self_s("element.lp_norm")


def test_tracer_counts_operators_towards_their_class():
    add = cliffsde.CliffordElement.__add__
    space = cliffsde.make_space(cliffsde.TimeGrid.uniform(0.0, 1.0, 2))
    x = space.identity()
    with Tracer() as tracer:
        y = -(x + x) @ x
        z = 2.0 * y
    assert cliffsde.CliffordElement.__add__ is add
    assert np.allclose(z.mat, -4.0 * x.mat)
    for op in ("__add__", "__neg__", "__matmul__", "__rmul__"):
        assert tracer.calls(f"element.CliffordElement.{op}") == 1
    # each operator builds its result through the constructor span
    assert tracer.calls("element.CliffordElement") == 4


def test_every_span_read_by_a_metric_is_wrapped():
    with Tracer() as tracer:
        pass
    spans = {span for _, span, _ in bench.SPAN_METRICS}
    assert spans <= set(tracer.spans)
    assert {f"{layer}.self_s" for layer in bench.TIMED_LAYERS} <= \
        {m["name"] for m in SPEC["per_layer"]}


def test_tracer_restores_after_an_exception():
    before = _bindings()
    with pytest.raises(ValueError):
        with Tracer():
            cliffsde.lp_norm(None, 0.5)
    assert all(before[k] is v for k, v in _bindings().items())


@pytest.mark.parametrize("name", sorted(TINY))
def test_outputs_carry_every_declared_metric(name, monkeypatch):
    monkeypatch.setattr(bench, "IMPORT_SAMPLES", 1)
    workload = TINY[name]
    e2e, log, _ = bench.measure(workload, seed=5, seconds=0.0, src=SRC)
    assert log.failed == 0
    assert {m["name"]: m["unit"] for m in SPEC["end_to_end"]} == \
        {k: unit for k, (_, unit) in e2e.items()}
    assert all(value > 0 for value, _ in e2e.values())

    layers, log, _ = bench.trace(workload, seed=5, seconds=0.0)
    assert log.failed == 0
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == \
        {k: unit for k, (_, unit) in layers.items()}

    line = json.loads(bench.result_line(e2e, log))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert line["correct"] is True


def test_solver_counters_repeat_for_a_seed():
    workload = TINY["solve-osgood"]
    first, _, _ = bench.trace(workload, seed=11, seconds=0.0)
    second, _, _ = bench.trace(workload, seed=11, seconds=0.0)
    counts = [k for k, (_, unit) in first.items() if unit == "count"]
    assert counts and all(first[k] == second[k] for k in counts)


def test_committed_suite_keys_cover_the_default_grid():
    keys = bench.suite_keys()
    cells = {(suite, cell) for suite, cell, _ in keys}

    def count(suite, items):
        return sum(1 for item in items if item[0] == suite)

    # bg_ratio: 2 drivers x 4 p x 2 sides, 8 statistics each
    assert (count("bg_ratio", cells), count("bg_ratio", keys)) == (16, 128)
    # norm_exchange: 3 (q, p) pairs + 4 q = p cells, 3 statistics each
    assert (count("norm_exchange", cells), count("norm_exchange", keys)) \
        == (7, 21)
    assert count("parity_lemma", cells) == 1
    assert {suite for suite, _ in cells} == \
        set(cliffsde.experiments.INEQUALITY_SUITES)
    assert bench.SuiteWorkload(trials=200).trial_count() == \
        16 * 200 + 7 * 200 + 200 // 8


def test_suite_table_missing_a_cell_fails_the_check():
    workload = TINY["verify-inequalities"]
    config = workload.setup(4)
    table = workload.run(config)
    workload.check(config, table)

    dropped = "p=2 n=4 driver=annihilation side=left"
    partial = cliffsde.SweepTable()
    for suite, cell, statistic, value in table.rows:
        if cell != dropped:
            partial.add(suite, cell, statistic, value)
    with pytest.raises(bench.CheckFailed, match="missing"):
        workload.check(config, partial)
    log = bench.OpLog()
    assert not log.record(workload, config, partial, 1.0, [], None)
    assert log.failed == 1


def test_failed_check_counts_as_failed_operation():
    class Wrong(bench.SolveWorkload):
        def check(self, problem, report):
            raise bench.CheckFailed("always")

    workload = Wrong("zero", n=2)
    problem = workload.inputs(workload.setup(0), 0)
    log = bench.run_ops(workload, problem, 0.0, bench.OpLog())
    assert (log.attempted, log.failed, log.last) == (1, 1, None)


def test_import_timing_loads_nothing_before_the_package():
    """speed.time_import must leave numpy's import inside the timed one."""
    code = ("import sys, speed; print('numpy' in sys.modules); "
            "t, ref = speed.time_import('cliffsde'); print(t > 0, ref > 0)")
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True,
        env={"PYTHONPATH": f"{SRC}:{ROOT / 'perfbench'}"}, timeout=120,
        check=True)
    assert proc.stdout.split() == ["False", "True", "True"]


def test_run_refuses_a_tree_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, *SPEC["command"][1:], "--workload", "solve-osgood",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
