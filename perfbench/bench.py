"""The cliffsde benchmark: workloads, measurement, output checks and metrics.

Run it through ``run.py``, which pins the BLAS thread count before numpy
is imported and puts the checkout's ``src`` first on the import path.
Each run is one process and one closed-loop caller: an operation starts
after the previous one has finished and been checked.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` repeats the
untraced measurement as a reference, then traces one set-up and one
operation with :class:`tracer.Tracer` and reports the per-layer metrics.
The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np
import scipy

# Library calls go through the package namespace at call time, so the
# tracer's rebinding of cliffsde.<name> sees them.
import cliffsde

import kernels
import speed
from speed import SpeedProbe, normalized_mean
from tracer import LAYERS, Tracer

#: Fresh-interpreter imports timed per run; their normalized median is
#: import_s.
IMPORT_SAMPLES = 10
#: Imports run and discarded before those: the first imports after the
#: workload process started run up to 1.5x slower than later ones.
IMPORT_WARMUPS = 1
#: Set-ups timed per run; their normalized mean is setup_s.
SETUP_SAMPLES = 3
#: The solve tolerance passed to picard_solve.
TOL = 1e-10
#: The repository's Euler-agreement gate for R = 0 problems.
EULER_GATE = 1e-10
#: The (suite, cell, statistic) keys of every inequality-suite table.
SUITE_KEYS = Path(__file__).resolve().parent / "suite_keys.csv"


class CheckFailed(Exception):
    """An operation returned, but its output failed the benchmark's check."""


# -- workloads -----------------------------------------------------------------


@dataclass(frozen=True)
class SolveWorkload:
    """Build a built-in problem, set ``Z = z I`` from the seed, solve it.

    ``setup`` is the validated problem build (coefficient and nonlocal
    validation, and the Osgood certificate where the problem has one).
    """

    problem: str
    n: int
    #: set-ups per timed sample
    setup_batch = 1
    #: the reference kernel that slows down as these solves do
    kernel = staticmethod(kernels.mixed_kernel)

    def setup(self, seed: int):
        return cliffsde.make_problem(self.problem, n=self.n)

    def inputs(self, built, seed: int):
        z = float(np.random.default_rng(seed).uniform(0.5, 2.0))
        return built.replace(Z=z * built.space.identity(), validate=False)

    def run(self, problem):
        return cliffsde.picard_solve(problem, tol=TOL)

    def check(self, problem, report):
        """Raise CheckFailed unless the residual recomputed from the
        trajectory is below tol (1 + C) / (1 - C), and, for R = 0, the
        trajectory matches the explicit Euler oracle.  Returns the
        solver's counters, which must repeat exactly."""
        cr = problem.R.contraction
        bound = TOL * (1.0 + cr) / (1.0 - cr)
        res = cliffsde.residual(report.trajectory, problem)
        if not res < bound:
            raise CheckFailed(f"residual {res!r} not below {bound!r}")
        if problem.R.is_zero:
            oracle = cliffsde.forward_euler_oracle(problem)
            gap = max(cliffsde.lp_norm(a - b, problem.p)
                      for a, b in zip(report.trajectory.values, oracle.values))
            if not gap <= EULER_GATE:
                raise CheckFailed(f"Euler gap {gap!r} above {EULER_GATE!r}")
        return (report.picard_iterations, tuple(report.inner_iterations))

    def counters(self, report) -> dict:
        sweeps = report.picard_iterations
        steps = sum(report.inner_iterations)
        nodes = len(report.trajectory)
        return {
            "solver.picard_sweeps": (sweeps, "count"),
            "solver.inner_steps": (steps, "count"),
            "solver.inner_steps_per_node": (steps / (sweeps * nodes),
                                            "steps/node"),
        }

    def describe(self, report, op_s: float) -> dict:
        return {"solve_s (= op_s)": (op_s, "s"),
                "picard_sweeps": (report.picard_iterations, "count"),
                "inner_steps": (sum(report.inner_iterations), "count")}


#: Solver counters of a workload, or of a failed operation, with no solve.
NO_SOLVE = {"solver.picard_sweeps": (0, "count"),
            "solver.inner_steps": (0, "count"),
            "solver.inner_steps_per_node": (0.0, "steps/node")}

#: Suites whose cells run random trials, with the trial-count divisor the
#: suite applies to ``SuiteConfig.trials``.
TRIAL_SUITES = {"bg_ratio": 1, "norm_exchange": 1, "parity_lemma": 8}


def suite_keys() -> list:
    """The committed (suite, cell, statistic) keys, in table order."""
    lines = SUITE_KEYS.read_text().splitlines()
    return [tuple(line.split(",")) for line in lines[1:]]


@dataclass(frozen=True)
class SuiteWorkload:
    """The inequality suites with ``master_seed`` from the seed, one
    worker thread.  ``setup`` builds the :class:`SuiteConfig`; it takes
    microseconds, so each timed sample averages ``setup_batch`` builds."""

    trials: int
    setup_batch = 10000
    #: the reference kernel that slows down as the suites do
    kernel = staticmethod(kernels.small_kernel)

    def setup(self, seed: int):
        return cliffsde.SuiteConfig(trials=self.trials, master_seed=seed,
                                    max_workers=1)

    def inputs(self, built, seed: int):
        return built

    def run(self, config):
        return cliffsde.run_inequality_suite(config)

    def check(self, config, table):
        """Raise CheckFailed on any violation, a (suite, cell, statistic)
        key set other than the committed one, or a non-finite statistic.
        Returns the table's CSV, which repeats byte for byte for one
        configuration."""
        if not table.passed:
            first = table.violations[0]
            raise CheckFailed(
                f"{len(table.violations)} violations, first "
                f"{first.suite}/{first.cell}: {first.message}")
        keys = [tuple(row[:3]) for row in table.rows]
        expected = suite_keys()
        if keys != expected:
            missing = sorted(set(expected) - set(keys))
            extra = sorted(set(keys) - set(expected))
            raise CheckFailed(f"table keys differ from {SUITE_KEYS.name}: "
                              f"missing {missing[:3]}, extra {extra[:3]}")
        bad = [key for *key, v in table.rows if not math.isfinite(v)]
        if bad:
            raise CheckFailed(f"non-finite statistics: {bad[:3]}")
        return table.to_csv()

    def counters(self, table) -> dict:
        return NO_SOLVE

    def trial_count(self) -> int:
        """Random-integrand trials per operation: cells of the committed
        keys times the trials each cell runs."""
        cells = {(suite, cell) for suite, cell, _ in suite_keys()}
        return sum(sum(1 for s, _ in cells if s == suite)
                   * max(1, self.trials // div)
                   for suite, div in TRIAL_SUITES.items())

    def describe(self, table, op_s: float) -> dict:
        trials = self.trial_count()
        return {"trials_per_op": (trials, "count"),
                "trials_per_s": (trials / op_s, "1/s")}


WORKLOADS = {
    "solve-nonlocal": SolveWorkload("nonlocal_linear", n=14),
    "solve-osgood": SolveWorkload("osgood_radial", n=14),
    "verify-inequalities": SuiteWorkload(trials=200),
}


# -- measurement -----------------------------------------------------------------


def timed(fn, kernel=None):
    """(result, seconds, reference samples, exception) of one call of
    ``fn``.  With a ``kernel`` it is sampled during the call and the
    sampling time is taken out of the call's wall time."""
    result = error = None
    with SpeedProbe(kernel) if kernel else contextlib.nullcontext() as probe:
        start = time.perf_counter()
        try:
            result = fn()
        except Exception as exc:
            error = exc
        seconds = time.perf_counter() - start
    if not kernel:
        return result, seconds, [], error
    return result, seconds - probe.busy_s, probe.samples, error


@dataclass
class OpLog:
    """Outcome of a closed loop of operations.  Every operation gets the
    same inputs, so every check signature must equal the first one."""

    times: list = field(default_factory=list)
    #: reference-kernel seconds sampled during the timed operations
    refs: list = field(default_factory=list)
    failed: int = 0
    last: object = None
    signature: object = None

    @property
    def attempted(self) -> int:
        return len(self.times)

    def record(self, workload, inputs, out, seconds: float, refs,
               error) -> bool:
        """Count one operation and check its output.  A raised exception,
        a failed check or a changed signature counts as a failure."""
        self.times.append(seconds)
        self.refs.extend(refs)
        try:
            if error is not None:
                raise error
            signature = workload.check(inputs, out)
            if self.signature is None:
                self.signature = signature
            elif signature != self.signature:
                raise CheckFailed("output differs from the first operation's")
        except Exception:
            self.failed += 1
            traceback.print_exc()
            return False
        self.last = out
        return True


def run_ops(workload, inputs, seconds: float, log: OpLog) -> OpLog:
    """Run and check operations until ``seconds`` have passed (at least
    one)."""
    start = time.perf_counter()
    while True:
        log.record(workload, inputs,
                   *timed(lambda: workload.run(inputs), workload.kernel))
        if time.perf_counter() - start >= seconds:
            return log


def time_setup(workload, seed: int):
    """(seconds of each set-up sample, reference samples, last object
    built) over SETUP_SAMPLES timed samples of ``setup_batch`` set-ups."""
    times, refs = [], []
    for _ in range(SETUP_SAMPLES):
        built, seconds, sampled, error = timed(
            lambda: [workload.setup(seed)
                     for _ in range(workload.setup_batch)][-1],
            workload.kernel)
        if error is not None:
            raise error
        times.append(seconds / workload.setup_batch)
        refs.extend(sampled)
    return times, refs, built


def import_times(src: Path) -> list:
    """(seconds, reference seconds) of ``import cliffsde`` in fresh
    interpreters, run one after another, each checked to import the
    package from ``src``.  Each interpreter samples the Python reference
    kernel during its import, on the same core (see speed.time_import)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(src), str(Path(__file__).resolve().parent)]
        + ([env["PYTHONPATH"]] if env.get("PYTHONPATH") else []))
    code = ("import speed, sys; t, ref = speed.time_import('cliffsde'); "
            "print(t, ref, sys.modules['cliffsde'].__file__)")
    out = []
    for i in range(IMPORT_WARMUPS + IMPORT_SAMPLES):
        proc = subprocess.run([sys.executable, "-c", code], env=env,
                              cwd=src.parent, capture_output=True, text=True,
                              timeout=60, check=True)
        seconds, ref_s, path = proc.stdout.split()
        if not Path(path).resolve().is_relative_to(src.resolve()):
            raise RuntimeError(f"fresh interpreter imported {path}, not {src}")
        if i >= IMPORT_WARMUPS:
            out.append((float(seconds), float(ref_s)))
    return out


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def measure(workload, seed: int, seconds: float, src: Path):
    """Untraced run: returns (metrics, OpLog, extra human-readable lines).
    Times in the metrics are normalized to the reference speed, measured
    with the workload's kernel (see speed.py); the wall times are among
    the extra lines."""
    imports = import_times(src)
    setup_times, setup_refs, built = time_setup(workload, seed)
    inputs = workload.inputs(built, seed)
    log = run_ops(workload, inputs, seconds, OpLog())
    metrics = {
        "setup_s": (normalized_mean(setup_times, setup_refs), "s"),
        "op_s": (normalized_mean(log.times, log.refs), "s"),
        # each import has its own kernel timing, so normalize one by one
        "import_s": (statistics.median(speed.REF_S * t / ref
                                       for t, ref in imports), "s"),
        "pass_frac": (1.0 - log.failed / log.attempted, "frac"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }
    extra = {
        "ops": (log.attempted, "count"),
        "setup_wall_s": (statistics.median(setup_times), "s"),
        "op_wall_s": (statistics.median(log.times), "s"),
        "import_wall_s": (statistics.median(t for t, _ in imports), "s"),
        "reference_ms": (1e3 * statistics.fmean(log.refs), "ms"),
    }
    if log.last is not None:
        extra.update(workload.describe(log.last, metrics["op_s"][0]))
    return metrics, log, extra


def lp_norm_class(x, p, *args, **kwargs) -> str:
    """Which path of lp_norm a call takes: p = 2, even integer p, other."""
    if p == 2:
        return "p2"
    if float(p).is_integer() and int(p) % 2 == 0:
        return "p_even"
    return "p_other"


#: (metric, span, field) for the per-layer metrics read off a span.
SPAN_METRICS = (
    ("element.lp_norm.calls", "element.lp_norm", "calls"),
    ("element.lp_norm.self_s", "element.lp_norm", "self_s"),
    ("element.psd_power_lp_norm.calls", "element.psd_power_lp_norm", "calls"),
    ("element.psd_power_lp_norm.self_s", "element.psd_power_lp_norm", "self_s"),
    ("element.CliffordElement.calls", "element.CliffordElement", "calls"),
    ("element.CliffordElement.self_s", "element.CliffordElement", "self_s"),
    ("space.conditional_expect.calls", "space.conditional_expect", "calls"),
    ("space.conditional_expect.self_s", "space.conditional_expect", "self_s"),
    ("space.random_level_element.calls", "space.random_level_element", "calls"),
    ("space.random_level_element.self_s", "space.random_level_element", "self_s"),
    ("process.AdaptedProcess.calls", "process.AdaptedProcess", "calls"),
    ("process.AdaptedProcess.self_s", "process.AdaptedProcess", "self_s"),
    ("process.AdaptedProcess.random.total_s", "process.AdaptedProcess.random", "total_s"),
    ("process.Driver.increment.calls", "process.Driver.increment", "calls"),
) + tuple(
    (f"integrals.{fn}.{field}", f"integrals.{fn}", field)
    for fn in ("driver_integral", "hp_norm", "lqlp_norm", "check_bg",
               "check_norm_exchange")
    for field in ("calls", "self_s")
) + (
    ("coefficients.validate_coefficient.total_s", "coefficients.validate_coefficient", "total_s"),
    ("coefficients.validate_nonlocal.total_s", "coefficients.validate_nonlocal", "total_s"),
    ("coefficients.CoefficientMap.calls", "coefficients.CoefficientMap", "calls"),
    ("coefficients.NonlocalMap.calls", "coefficients.NonlocalMap", "calls"),
    ("modulus.certify_osgood.total_s", "modulus.certify_osgood", "total_s"),
    ("solver.picard_solve.self_s", "solver.picard_solve", "self_s"),
    ("solver.inner_fixed_point.calls", "solver.inner_fixed_point", "calls"),
    ("solver.inner_fixed_point.self_s", "solver.inner_fixed_point", "self_s"),
    ("experiments.bg_ratio.total_s", "experiments._bg_ratio_suite", "total_s"),
    ("experiments.norm_exchange.total_s", "experiments._norm_exchange_suite", "total_s"),
)

#: Layers whose summed self time is reported; grid, config and cli are
#: negligible in every workload and covered end to end by import_s.
TIMED_LAYERS = tuple(layer for layer in LAYERS
                     if layer not in ("grid", "config", "cli"))

LP_NORM_CLASSES = ("p2", "p_even", "p_other")


def layer_metrics(tracer: Tracer, counters: dict, lp_norm_op_self_s: float,
                  op_s: float, overhead_frac: float) -> dict:
    """Per-layer metrics from a finished trace, as name -> (value, unit).
    ``lp_norm_op_self_s`` is lp_norm's self time within the traced
    operation; its share is taken of the untraced median ``op_s``."""
    out = {}
    for metric, span, field in SPAN_METRICS:
        value = getattr(tracer, field)(span)
        out[metric] = (value, "count" if field == "calls" else "s")
    for label in LP_NORM_CLASSES:
        out[f"element.lp_norm.{label}.calls"] = (
            tracer.counts.get(f"element.lp_norm.{label}", 0), "count")
    out["element.lp_norm.op_share"] = (lp_norm_op_self_s / op_s, "frac")
    for layer in TIMED_LAYERS:
        out[f"{layer}.self_s"] = (tracer.layer_self_s(layer), "s")
    out.update(counters)
    out["trace.overhead_frac"] = (overhead_frac, "frac")
    return out


def trace(workload, seed: int, seconds: float):
    """Traced run: an untraced reference, then one traced set-up and one
    traced operation; the output check runs after the tracer is removed.
    Returns (metrics, OpLog, extra lines).  Times here are wall times."""
    setup_times, _, built = time_setup(workload, seed)
    setup_s = statistics.median(setup_times)
    inputs = workload.inputs(built, seed)
    log = run_ops(workload, inputs, seconds, OpLog())
    op_s = statistics.median(log.times)

    with Tracer(classifiers={"element.lp_norm": lp_norm_class}) as tracer:
        start = time.perf_counter()
        traced_inputs = workload.inputs(workload.setup(seed), seed)
        traced_setup_s = time.perf_counter() - start
        lp_before = tracer.self_s("element.lp_norm")
        out, traced_op_s, _, error = timed(
            lambda: workload.run(traced_inputs))
        lp_op = tracer.self_s("element.lp_norm") - lp_before
    ok = log.record(workload, traced_inputs, out, traced_op_s, [], error)
    counters = workload.counters(out) if ok else NO_SOLVE
    overhead = (traced_setup_s + traced_op_s) / (setup_s + op_s) - 1.0
    metrics = layer_metrics(tracer, counters, lp_op, op_s, overhead)
    extra = {"ops": (log.attempted, "count"),
             "setup_wall_s": (setup_s, "s"),
             "op_wall_s": (op_s, "s"),
             "traced_setup_wall_s": (traced_setup_s, "s"),
             "traced_op_wall_s": (traced_op_s, "s")}
    return metrics, log, extra


# -- output ----------------------------------------------------------------------


def environment() -> dict:
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (KeyError, TypeError, ValueError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas,
        "threads": {var: value for var, value in sorted(os.environ.items())
                    if var.endswith("_NUM_THREADS")},
        "cpu_affinity": sorted(os.sched_getaffinity(0)),
        "max_workers": 1,
    }


def result_line(metrics: dict, log: OpLog) -> str:
    return json.dumps({
        "correct": log.failed == 0,
        "attempted": log.attempted,
        "failed": log.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    })


def parse_args(argv):
    parser = argparse.ArgumentParser(prog="perfbench/run.py",
                                     description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main(argv, src: Path) -> int:
    args = parse_args(argv)
    package = Path(cliffsde.__file__).resolve()
    if not package.is_relative_to(src.resolve()):
        print(f"error: imported cliffsde from {package}, not from {src}",
              file=sys.stderr)
        return 2
    workload = WORKLOADS[args.workload]
    print(f"cliffsde benchmark: workload={args.workload} seed={args.seed} "
          f"seconds={args.seconds:g} trace={args.trace}")
    print("env: " + json.dumps(environment()))
    if args.trace:
        metrics, log, extra = trace(workload, args.seed, args.seconds)
    else:
        metrics, log, extra = measure(workload, args.seed, args.seconds, src)
    for name, (value, unit) in {**metrics, **extra}.items():
        print(f"  {name:<42} {value!r:>24} {unit}")
    print(result_line(metrics, log))
    return 0
