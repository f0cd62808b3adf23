"""Command-line front end: verify / solve / bench-constants / bihari.

Exit status contract: 0 success, 1 a requested verification suite failed,
2 bad configuration (the offending key or flag is printed), 3 the solver
did not converge (the delta trace is written and its path printed).

The default master seed comes from the ``CLIFFSDE_SEED`` environment
variable when set.  All file outputs are UTF-8 CSV with ``\\n`` line
endings.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .config import load_problem
from .errors import (ArgumentError, ConfigError, ConfigurationError,
                     ContractViolationError, ConvergenceError,
                     OsgoodViolationError)
from .experiments import (
    SUITE_NAMES,
    SuiteConfig,
    grid_refinement_study,
    run_suites,
)
from .grid import TimeGrid
from .integrals import measure_bg_constant
from .modulus import bihari_bound, make_modulus
from .process import DRIVER_KINDS, Driver
from .solver import picard_solve
from .space import DEFAULT_MAX_GENERATORS, make_space

ENV_SEED = "CLIFFSDE_SEED"
DEFAULT_SEED = 1729

#: The flag that sets each field a ConfigurationError can name
_FLAGS = {"trials": "--trials", "max_workers": "--workers", "n_grid": "--n"}
#: The flag that sets each argument of make_modulus and bihari_bound
_BIHARI_FLAGS = {"scale": "--scale", "u0": "--u0", "phi": "--phi",
                 "t": "--horizon", "t0": "--t0"}


def _master_seed(flag) -> int:
    """``--seed``, else $CLIFFSDE_SEED, else DEFAULT_SEED.  numpy's
    SeedSequence takes only a non-negative integer."""
    if flag is None and ENV_SEED not in os.environ:
        return DEFAULT_SEED
    key, raw = (ENV_SEED, os.environ[ENV_SEED]) if flag is None \
        else ("--seed", flag)
    try:
        if int(raw) >= 0:
            return int(raw)
    except ValueError:
        pass
    raise ConfigError(f"{key} must be a non-negative integer, got {raw!r}",
                      key=key)


def _write_text(path: str, text: str) -> None:
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(text)


def _print_summaries(table, names) -> None:
    for name in names:
        status = "PASS" if table.suite_passed(name) else "FAIL"
        worst = table.worst(name)
        worst_s = "n/a" if math.isnan(worst) else repr(worst)
        wall = table.wall_s.get(name)
        wall_s = "" if wall is None else f" wall_s={wall:.3f}"
        print(f"{name} {status} worst={worst_s}{wall_s}")


def _cmd_verify(args) -> int:
    names = args.suite or list(SUITE_NAMES)
    for name in names:
        if name not in SUITE_NAMES:
            print(f"config error (--suite): unknown suite {name!r}; "
                  f"known: {', '.join(SUITE_NAMES)}", file=sys.stderr)
            return 2
    config = SuiteConfig(
        master_seed=args.seed,
        trials=args.trials,
        n_grid=(args.n,),
        max_workers=args.workers,
    )
    table = run_suites(config, names)
    if args.refinement:
        table.merge(grid_refinement_study())
        names = list(names) + ["refinement"]
    _print_summaries(table, names)
    if args.out:
        _write_text(args.out, table.to_csv())
    if args.violations_out:
        _write_text(args.violations_out, table.violations_to_csv())
    return 0 if all(table.suite_passed(n) for n in names) else 1


def _cmd_solve(args) -> int:
    try:
        problem, settings = load_problem(args.config)
    except FileNotFoundError:
        print(f"config error (--config): no such file: {args.config}",
              file=sys.stderr)
        return 2
    except ConfigError as exc:
        print(f"config error ({exc.key}): {exc}", file=sys.stderr)
        return 2

    out_dir = args.out or "."
    os.makedirs(out_dir, exist_ok=True)
    try:
        report = picard_solve(problem, tol=settings.tol,
                              max_outer=settings.max_outer,
                              max_inner=settings.max_inner)
    except ConvergenceError as exc:
        trace_path = os.path.join(out_dir, "deltas.csv")
        lines = ["iteration,delta"]
        for it, d in zip(exc.iterations, exc.deltas):
            lines.append(f"{it},{d!r}")
        _write_text(trace_path, "\n".join(lines) + "\n")
        print(f"did not converge: {exc}", file=sys.stderr)
        print(f"delta trace written to {trace_path}")
        return 3
    except ContractViolationError as exc:
        print(f"config error (solve): {exc}", file=sys.stderr)
        return 2

    traj_path = os.path.join(out_dir, "trajectory.csv")
    iter_path = os.path.join(out_dir, "iterations.csv")
    _write_text(traj_path, report.trajectory_csv())
    _write_text(iter_path, report.iteration_csv())
    print(f"converged in {report.picard_iterations} iterations, "
          f"residual={report.residual!r}")
    print(f"trajectory written to {traj_path}")
    print(f"iteration trace written to {iter_path}")
    return 0


def _cmd_bench_constants(args) -> int:
    # linear_combination needs alpha1/alpha2, which this command has no
    # flags for
    if args.driver not in DRIVER_KINDS or args.driver == "linear_combination":
        print(f"config error (--driver): unknown driver {args.driver!r}",
              file=sys.stderr)
        return 2
    driver = Driver(args.driver)
    n = args.n
    most = 6 if driver.required_layout == "pair" else DEFAULT_MAX_GENERATORS
    if not 1 <= n <= most:
        print(f"config error (--n): n={n} is outside the desk-scale envelope "
              f"1..{most} of the {driver.required_layout} layout",
              file=sys.stderr)
        return 2
    for p in args.p:
        if not 2 <= p < math.inf:
            print(f"config error (--p): estimates need a finite p >= 2, "
                  f"got {p}", file=sys.stderr)
            return 2
    space = make_space(TimeGrid.uniform(0.0, 1.0, n),
                       layout=driver.required_layout)
    rows = []
    for p in sorted(args.p):
        forms = ("hp", "l2lp") if driver.label == "fermion" else ("l2lp",)
        for form in forms:
            est = measure_bg_constant(space, p, driver=driver,
                                      trials=args.trials, seed=args.seed,
                                      form=form)
            rows.append((p, driver.label, form, args.trials, est))
            print(f"p={p:g} driver={driver.label} form={form} "
                  f"beta_hat={est!r}")
    if args.out:
        lines = ["p,driver,form,trials,estimate"]
        for p, lab, form, trials, est in rows:
            lines.append(f"{p!r},{lab},{form},{trials},{est!r}")
        _write_text(args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_bihari(args) -> int:
    try:
        modulus = make_modulus(args.rho, scale=args.scale)
        bound = bihari_bound(args.u0, args.phi, modulus, args.horizon,
                             t0=args.t0)
    except ArgumentError as exc:
        print(f"config error ({_BIHARI_FLAGS[exc.key]}): {exc}",
              file=sys.stderr)
        return 2
    except (OsgoodViolationError, ValueError) as exc:
        print(f"config error (--rho): {exc}", file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return 3
    print(f"{bound:.6f}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cliffsde",
        description="Verification suites and a Picard solver for operator "
                    "stochastic differential equations over anticommuting "
                    "noise, at finite mode counts.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser(
        "verify", help="run verification suites and report pass/fail"
    )
    p_verify.add_argument("--suite", action="append", default=None,
                          help=f"suite to run (repeatable); default all. "
                               f"Known: {', '.join(SUITE_NAMES)}")
    p_verify.add_argument("--trials", type=int, default=200,
                          help="trials per cell (default 200)")
    p_verify.add_argument("--seed", type=int, default=None,
                          help=f"master seed (default ${ENV_SEED} or "
                               f"{DEFAULT_SEED})")
    p_verify.add_argument("--n", type=int, default=8,
                          help="fermion increment count (default 8)")
    p_verify.add_argument("--workers", type=int, default=1,
                          help="worker threads per cell (default 1)")
    p_verify.add_argument("--refinement", action="store_true",
                          help="also run the grid refinement study")
    p_verify.add_argument("--out", default=None,
                          help="write the statistics table CSV here")
    p_verify.add_argument("--violations-out", default=None,
                          help="write the violation log CSV here")
    p_verify.set_defaults(func=_cmd_verify)

    p_solve = sub.add_parser("solve", help="solve a configured equation")
    p_solve.add_argument("--config", required=True,
                         help="path to a dotted-key problem file")
    p_solve.add_argument("--out", default=None,
                         help="output directory (default .)")
    p_solve.set_defaults(func=_cmd_solve)

    p_bench = sub.add_parser(
        "bench-constants",
        help="estimate the empirical martingale inequality constants",
    )
    p_bench.add_argument("--p", type=float, action="append", required=True,
                         help="norm exponent (repeatable)")
    p_bench.add_argument("--trials", type=int, default=200)
    p_bench.add_argument("--seed", type=int, default=None)
    p_bench.add_argument("--n", type=int, default=8,
                         help="increment count (default 8)")
    p_bench.add_argument("--driver", default="fermion_field",
                         help="fermion_field, annihilation, or creation")
    p_bench.add_argument("--out", default=None, help="CSV output path")
    p_bench.set_defaults(func=_cmd_bench_constants)

    p_bihari = sub.add_parser(
        "bihari", help="evaluate the nonlinear integral-inequality bound"
    )
    p_bihari.add_argument("--rho", required=True,
                          help="modulus name: linear, log, or sqrt")
    p_bihari.add_argument("--scale", type=float, default=1.0)
    p_bihari.add_argument("--u0", type=float, required=True)
    p_bihari.add_argument("--phi", type=float, default=1.0,
                          help="constant forcing term (default 1.0)")
    p_bihari.add_argument("--horizon", type=float, required=True)
    p_bihari.add_argument("--t0", type=float, default=0.0)
    p_bihari.set_defaults(func=_cmd_bihari)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if hasattr(args, "seed"):
        try:
            args.seed = _master_seed(args.seed)
        except ConfigError as exc:
            print(f"config error ({exc.key}): {exc}", file=sys.stderr)
            return 2
    try:
        return args.func(args)
    except ConfigurationError as exc:
        if exc.key not in _FLAGS:
            raise
        print(f"config error ({_FLAGS[exc.key]}): {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
