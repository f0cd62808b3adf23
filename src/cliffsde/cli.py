"""Command-line front end: verify / solve / bench-constants / bihari.

Exit status contract, kept by :func:`main` alone: 0 success, 1 a requested
verification suite failed, 2 bad configuration (a command raises a keyed
:class:`ConfigurationError`, printed as one ``config error (<flag or key>)``
line; a file that cannot be read, ``--config``, or written, ``--out`` or
``--violations-out``, is one under its flag), 3 the solver did not converge
(a solve writes its delta trace and prints its path first).

The default master seed comes from the ``CLIFFSDE_SEED`` environment
variable when set.  All file outputs are UTF-8 CSV with ``\\n`` line
endings.
"""

from __future__ import annotations

import argparse
import math
import os
import sys
from contextlib import contextmanager

from .config import load_problem
from .errors import (ArgumentError, ConfigurationError, ContractViolationError,
                     ConvergenceError, OsgoodViolationError)
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

#: The flag that sets each field or argument a ConfigurationError can name
_FLAGS = dict(trials="--trials", max_workers="--workers", n="--n",
              scale="--scale", u0="--u0", phi="--phi", t="--horizon",
              t0="--t0")


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
    raise ConfigurationError(f"{key} must be a non-negative integer, "
                             f"got {raw!r}", key=key)


@contextmanager
def _file_of(flag: str, path: str):
    """A failure to read or write ``path`` inside, as ``flag``'s error."""
    try:
        yield
    except (OSError, UnicodeDecodeError) as exc:
        reason = getattr(exc, "strerror", None) or exc
        raise ConfigurationError(f"{path}: {reason}", key=flag) from None


def _writable(flag: str, path) -> None:
    """Open ``path``, if given, without truncating it: an output that
    cannot be written fails before the work that fills it."""
    if path:
        with _file_of(flag, path), open(path, "a"):
            pass


def _write_text(flag: str, path: str, text: str) -> None:
    with _file_of(flag, path), open(path, "w", encoding="utf-8",
                                    newline="") as fh:
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
            raise ConfigurationError(f"unknown suite {name!r}; known: "
                                     + ", ".join(SUITE_NAMES), key="--suite")
    config = SuiteConfig(
        master_seed=args.seed,
        trials=args.trials,
        n=args.n,
        max_workers=args.workers,
    )
    _writable("--out", args.out)
    _writable("--violations-out", args.violations_out)
    table = run_suites(config, names)
    if args.refinement:
        table.merge(grid_refinement_study())
        names = list(names) + ["refinement"]
    _print_summaries(table, names)
    if args.out:
        _write_text("--out", args.out, table.to_csv())
    if args.violations_out:
        _write_text("--violations-out", args.violations_out,
                    table.violations_to_csv())
    return 0 if all(table.suite_passed(n) for n in names) else 1


def _cmd_solve(args) -> int:
    with _file_of("--config", args.config):
        problem, settings = load_problem(args.config)
    out_dir = args.out or "."
    with _file_of("--out", out_dir):
        os.makedirs(out_dir, exist_ok=True)
    try:
        report = picard_solve(problem, tol=settings.tol,
                              max_outer=settings.max_outer,
                              max_inner=settings.max_inner)
    except ConvergenceError as exc:
        trace_path = os.path.join(out_dir, "deltas.csv")
        rows = [f"{it},{d!r}\n" for it, d in zip(exc.iterations, exc.deltas)]
        _write_text("--out", trace_path, "".join(["iteration,delta\n", *rows]))
        print(f"delta trace written to {trace_path}")
        raise
    except ContractViolationError as exc:
        raise ConfigurationError(str(exc), key="solve") from None

    traj_path = os.path.join(out_dir, "trajectory.csv")
    iter_path = os.path.join(out_dir, "iterations.csv")
    _write_text("--out", traj_path, report.trajectory_csv())
    _write_text("--out", iter_path, report.iteration_csv())
    print(f"converged in {report.picard_iterations} iterations, "
          f"residual={report.residual!r}")
    print(f"trajectory written to {traj_path}")
    print(f"iteration trace written to {iter_path}")
    return 0


def _cmd_bench_constants(args) -> int:
    # linear_combination needs alpha1/alpha2, which this command has no
    # flags for
    if args.driver not in DRIVER_KINDS or args.driver == "linear_combination":
        raise ConfigurationError(f"unknown driver {args.driver!r}",
                                 key="--driver")
    driver = Driver(args.driver)
    n = args.n
    most = 6 if driver.required_layout == "pair" else DEFAULT_MAX_GENERATORS
    if not 1 <= n <= most:
        raise ConfigurationError(
            f"n={n} is outside the desk-scale envelope 1..{most} of the "
            f"{driver.required_layout} layout", key="--n")
    for p in args.p:
        if not 2 <= p < math.inf:
            raise ConfigurationError(
                f"estimates need a finite p >= 2, got {p}", key="--p")
    space = make_space(TimeGrid.uniform(0.0, 1.0, n),
                       layout=driver.required_layout)
    _writable("--out", args.out)
    lines = ["p,driver,form,trials,estimate"]
    for p in sorted(args.p):
        forms = ("hp", "l2lp") if driver.label == "fermion" else ("l2lp",)
        for form in forms:
            est = measure_bg_constant(space, p, driver=driver,
                                      trials=args.trials, seed=args.seed,
                                      form=form)
            lines.append(f"{p!r},{driver.label},{form},{args.trials},{est!r}")
            print(f"p={p:g} driver={driver.label} form={form} "
                  f"beta_hat={est!r}")
    if args.out:
        _write_text("--out", args.out, "\n".join(lines) + "\n")
    return 0


def _cmd_bihari(args) -> int:
    try:
        modulus = make_modulus(args.rho, scale=args.scale)
        bound = bihari_bound(args.u0, args.phi, modulus, args.horizon,
                             t0=args.t0)
    except ArgumentError:  # keyed by the argument: main names its flag
        raise
    except (OsgoodViolationError, ValueError) as exc:
        raise ConfigurationError(str(exc), key="--rho") from None
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
    """Run one command; the exit status contract is kept here alone."""
    args = build_parser().parse_args(argv)
    try:
        if hasattr(args, "seed"):
            args.seed = _master_seed(args.seed)
        return args.func(args)
    except ConfigurationError as exc:
        if exc.key is None:
            raise
        print(f"config error ({_FLAGS.get(exc.key, exc.key)}): {exc}",
              file=sys.stderr)
        return 2
    except ConvergenceError as exc:
        print(f"did not converge: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
