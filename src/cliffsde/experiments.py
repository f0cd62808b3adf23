"""Randomized verification suites and parameter sweeps.

Each suite checks one family of identities or bounds (inequality ratios,
algebraic exactness, solver behaviour, stability estimates) over a grid of
cells (parameter combinations) and a number of trials per cell, and folds
the outcomes into a :class:`SweepTable` of (suite, cell, statistic, value)
rows.  Failing trials are never skipped silently: each failure is recorded
as a :class:`Violation` carrying the cell and the derived seed for replay.

Determinism: every random trial draws its generator from
``SeedSequence(master_seed, spawn_key=(suite_index, cell_index, trial))``.
Two runs with an identical :class:`SuiteConfig` therefore produce
byte-identical CSV output, regardless of the number of worker threads —
aggregation sorts before emission and statistics are order-independent.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass

import numpy as np

from .element import lp_norm, op_norm
from .errors import OsgoodViolationError
from .integrals import (
    _bg_ratio,
    _running_sums,
    check_norm_exchange,
    driver_integral,
    hp_norm,
    lqlp_norm,
    parity_commutation_defect,
)
from .grid import TimeGrid
from .modulus import bihari_bound, make_modulus
from .problems import make_problem
from .process import AdaptedProcess, Driver
from .solver import (
    coefficient_stability_experiment,
    forward_euler_oracle,
    perturb_problem,
    picard_solve,
    selfadjoint_solve_check,
    stability_experiment,
    uniqueness_probe,
)
from .space import make_space, parity_decompose, random_level_element

#: Stable suite identifiers; the position doubles as the seed-split index.
SUITE_NAMES = (
    "bg_ratio",
    "norm_exchange",
    "car_identity",
    "parity_lemma",
    "picard",
    "uniqueness",
    "gronwall",
    "coeff_stability",
    "selfadjoint",
    "bihari",
)

INEQUALITY_SUITES = ("bg_ratio", "norm_exchange", "car_identity",
                     "parity_lemma", "bihari")
SOLVER_SUITES = ("picard", "uniqueness", "gronwall", "coeff_stability",
                 "selfadjoint")

RATIO_TOL = 1e-9
EXACTNESS_TOL = 1e-12

#: suite -> (statistic substring, aggregate) of its summary worst value
_WORST = {
    "bg_ratio": ("bp1_max", max),
    "norm_exchange": ("ratio_max", max),
    "car_identity": ("defect_max", max),
    "parity_lemma": ("defect_max", max),
    "picard": ("residual", max),
    "uniqueness": ("gap", max),
    "gronwall": ("margin_min", min),
    "coeff_stability": ("dist@delta=2^-8", max),
    "selfadjoint": ("defect_max", max),
    "bihari": ("abs_err_max", max),
    "refinement": ("adapted_defect_max", max),
}


@dataclass(frozen=True)
class SuiteConfig:
    """Knobs shared by all suites.  The defaults stay inside the desk-scale
    envelope (n <= 12 fermion increments, n <= 6 pair increments)."""

    master_seed: int = 1729
    trials: int = 200
    p_grid: tuple = (2.0, 3.0, 4.0, 6.0)
    qp_pairs: tuple = ((1.0, 2.0), (2.0, 4.0), (2.0, 7.0))
    n_grid: tuple = (8,)
    pair_n_grid: tuple = (4,)
    drivers: tuple = ("fermion_field", "annihilation")
    t0: float = 0.0
    horizon: float = 1.0
    solver_tol: float = 1e-10
    ratio_tol: float = RATIO_TOL
    max_outer: int = 60
    max_workers: int = 1


@dataclass(frozen=True)
class Violation:
    suite: str
    cell: str
    trial: int
    seed: int
    message: str

    def csv_row(self) -> str:
        msg = self.message.replace(",", ";").replace("\n", " ")
        return f"{self.suite},{self.cell},{self.trial},{self.seed},{msg}"


class SweepTable:
    """Rows of (suite, cell, statistic, value) plus the violation log.

    One row per key triple; NaN values are rejected at insertion so a
    corrupt statistic can never hide in the output.  ``wall_s`` maps each
    suite run to its wall time in seconds; it is kept outside the rows, so
    the CSV outputs stay byte-identical from run to run.
    """

    CSV_HEADER = "suite,cell,statistic,value"
    VIOLATIONS_HEADER = "suite,cell,trial,seed,message"

    def __init__(self):
        self._rows = {}
        self.violations = []
        self.wall_s = {}

    def add(self, suite: str, cell: str, statistic: str, value) -> None:
        v = float(value)
        if math.isnan(v):
            raise ValueError(
                f"NaN statistic for ({suite}, {cell}, {statistic})"
            )
        key = (suite, cell, statistic)
        if key in self._rows:
            raise ValueError(f"duplicate row for {key}")
        self._rows[key] = v

    def violate(self, suite, cell, message, trial=0, seed=0) -> None:
        self.violations.append(Violation(suite, cell, trial, seed, message))

    def merge(self, other: "SweepTable") -> None:
        for key, v in other._rows.items():
            if key in self._rows:
                raise ValueError(f"duplicate row for {key}")
            self._rows[key] = v
        self.violations.extend(other.violations)
        self.wall_s.update(other.wall_s)

    @property
    def rows(self):
        return sorted((s, c, st, v) for (s, c, st), v in self._rows.items())

    def suites(self):
        return sorted({s for (s, _, _) in self._rows} |
                      {v.suite for v in self.violations})

    def suite_passed(self, suite: str) -> bool:
        return not any(v.suite == suite for v in self.violations)

    @property
    def passed(self) -> bool:
        return not self.violations

    def worst(self, suite: str,
              statistic_substring: str | None = None) -> float:
        """Worst of the suite's statistics containing the substring (by
        default its summary statistic): the min for margins, else the max;
        NaN when none matches."""
        substring, agg = _WORST.get(suite, ("", max))
        if statistic_substring is not None:
            substring = statistic_substring
        vals = [v for (s, _, st, v) in self.rows
                if s == suite and substring in st]
        return agg(vals) if vals else float("nan")

    def to_csv(self) -> str:
        lines = [self.CSV_HEADER]
        for s, c, st, v in self.rows:
            lines.append(f"{s},{c},{st},{v!r}")
        return "\n".join(lines) + "\n"

    def violations_to_csv(self) -> str:
        lines = [self.VIOLATIONS_HEADER]
        for v in sorted(self.violations,
                        key=lambda x: (x.suite, x.cell, x.trial)):
            lines.append(v.csv_row())
        return "\n".join(lines) + "\n"


def trial_seed(master_seed: int, suite: str, cell_index: int,
               trial: int) -> int:
    """The derived 64-bit seed for one trial; recording it makes any failed
    trial replayable with ``numpy.random.default_rng(seed)`` alone."""
    ss = np.random.SeedSequence(
        master_seed, spawn_key=(SUITE_NAMES.index(suite), cell_index, trial)
    )
    return int(ss.generate_state(1, np.uint64)[0])


def _map_trials(worker, trials: int, max_workers: int):
    if max_workers > 1:
        with ThreadPoolExecutor(max_workers=max_workers) as ex:
            return list(ex.map(worker, range(trials)))
    return [worker(t) for t in range(trials)]


def _space(config: SuiteConfig, n: int, layout: str = "fermion"):
    grid = TimeGrid.uniform(config.t0, config.t0 + config.horizon, n)
    return make_space(grid, layout=layout)


# -- individual suites ---------------------------------------------------------


def _bg_ratio_suite(config: SuiteConfig) -> SweepTable:
    """Martingale-vs-square-function ratio sweep.

    Per cell (p, n, driver, side): min/median/max of the ratio
    ||int f dxi||_p / denom, where denom is the H^p norm for the
    self-adjoint field driver and (sum ||f||_p^2 delta)^(1/2) for
    pair drivers.  beta_hat is the max ratio (the empirical upper
    constant), alpha_hat the min.  The p = 2 field cells must sit at
    ratio 1 (isometry); the constant-free upper bound
    hp <= (sum ||f||_p^2 delta)^(1/2) must hold in every trial; and the
    left/right ratios of an even-valued integrand must agree exactly.
    """
    table = SweepTable()
    suite = "bg_ratio"
    cells = []
    for driver in map(Driver, config.drivers):
        fermion = driver.required_layout == "fermion"
        for n in config.n_grid if fermion else config.pair_n_grid:
            for p in config.p_grid:
                for side in ("right", "left"):
                    cells.append((p, n, driver, side))

    for cell_index, (p, n, driver, side) in enumerate(cells):
        space = _space(config, n, driver.required_layout)
        cell = f"p={p:g} n={n} driver={driver.label} side={side}"

        def worker(t, p=p, space=space, driver=driver, side=side,
                   cell=cell, cell_index=cell_index):
            seed = trial_seed(config.master_seed, suite, cell_index, t)
            rng = np.random.default_rng(seed)
            f = AdaptedProcess.random(space, rng)
            left = lp_norm(driver_integral(f, driver, side="left"), p)
            right = lp_norm(driver_integral(f, driver, side="right"), p)
            hp, l2 = hp_norm(f, p), lqlp_norm(f, 2.0, p)
            ratio = _bg_ratio(p, left if side == "left" else right,
                              hp if driver.kind == "fermion_field" else l2)
            return seed, ratio, hp / l2, left / right

        out = _map_trials(worker, config.trials, config.max_workers)
        ratios = np.array([r for _, r, _, _ in out])
        bp1s = np.array([b for _, _, b, _ in out])
        lrs = np.array([x for _, _, _, x in out])

        table.add(suite, cell, "ratio_min", ratios.min())
        table.add(suite, cell, "ratio_median", float(np.median(ratios)))
        table.add(suite, cell, "beta_hat", ratios.max())
        table.add(suite, cell, "alpha_hat", ratios.min())
        table.add(suite, cell, "bp1_max", bp1s.max())
        table.add(suite, cell, "lr_ratio_min", lrs.min())
        table.add(suite, cell, "lr_ratio_max", lrs.max())

        for t, (seed, r, b, lr) in enumerate(out):
            if not (math.isfinite(r) and math.isfinite(b) and math.isfinite(lr)):
                table.violate(suite, cell, "non-finite ratio", t, seed)
            if b > 1.0 + config.ratio_tol:
                table.violate(
                    suite, cell,
                    f"hp norm exceeds the l2-in-time bound: ratio {b!r}",
                    t, seed,
                )
            if p == 2 and driver.label == "fermion" and \
                    abs(r - 1.0) > config.ratio_tol:
                table.violate(
                    suite, cell, f"isometry ratio {r!r} off 1", t, seed
                )

        # even integrand: left and right integrals agree exactly
        seed = trial_seed(config.master_seed, suite, cell_index, config.trials)
        rng = np.random.default_rng(seed)
        f = AdaptedProcess.random(space, rng)
        even_vals = [parity_decompose(x)[0] for x in f.values]
        f_even = AdaptedProcess(space, even_vals)
        gap = op_norm(driver_integral(f_even, driver, side="left")
                      - driver_integral(f_even, driver, side="right"))
        table.add(suite, cell, "even_lr_gap", gap)
        if gap > EXACTNESS_TOL:
            table.violate(suite, cell,
                          f"even-integrand left/right gap {gap!r}",
                          config.trials, seed)
    return table


def _norm_exchange_suite(config: SuiteConfig) -> SweepTable:
    """(int ||f||^q)^(1/q)-vs-||(int |f|^q)^(1/q)||_p ratio sweep; the ratio
    must never exceed 1, and q = p cells must sit at 1 (Fubini)."""
    table = SweepTable()
    suite = "norm_exchange"
    pairs = list(config.qp_pairs) + [(p, p) for p in config.p_grid]
    cells = [(q, p, n) for q, p in pairs for n in config.n_grid]

    for cell_index, (q, p, n) in enumerate(cells):
        space = _space(config, n)
        cell = f"q={q:g} p={p:g} n={n}"

        def worker(t, q=q, p=p, space=space, cell_index=cell_index):
            seed = trial_seed(config.master_seed, suite, cell_index, t)
            rng = np.random.default_rng(seed)
            f = AdaptedProcess.random(space, rng)
            rep = check_norm_exchange(f, q, p, trial=t, seed=seed)
            return seed, rep.ratio

        out = _map_trials(worker, config.trials, config.max_workers)
        ratios = np.array([r for _, r in out])
        table.add(suite, cell, "ratio_min", ratios.min())
        table.add(suite, cell, "ratio_median", float(np.median(ratios)))
        table.add(suite, cell, "ratio_max", ratios.max())
        for t, (seed, r) in enumerate(out):
            if r > 1.0 + config.ratio_tol:
                table.violate(suite, cell,
                              f"norm exchange ratio {r!r} above 1", t, seed)
            if q == p and abs(r - 1.0) > config.ratio_tol:
                table.violate(suite, cell,
                              f"q = p ratio {r!r} off 1", t, seed)
    return table


def _car_identity_suite(config: SuiteConfig) -> SweepTable:
    """Exact algebra of increments: generator anticommutation relations,
    nilpotent annihilation increments, the per-increment relation
    dA dA* + dA* dA = delta, and its running form A A* + A* A = (t - t0)."""
    table = SweepTable()
    suite = "car_identity"

    # Clifford relations on the largest fermion space
    n = max(config.n_grid)
    space = _space(config, n)
    cell = f"layout=fermion n={n}"
    worst = 0.0
    m = space.n_gen
    for i in range(m):
        ei = space.generator(i)
        for j in range(i, m):
            ej = space.generator(j)
            target = 2.0 * space.identity() if i == j else space.zero()
            worst = max(worst, op_norm(ei @ ej + ej @ ei - target))
    table.add(suite, cell, "clifford_defect_max", worst)
    if worst > EXACTNESS_TOL:
        table.violate(suite, cell, f"anticommutation defect {worst!r}")

    for n_pair in config.pair_n_grid:
        space = _space(config, n_pair, "pair")
        cell = f"layout=pair n={n_pair}"
        inc_worst = nil_worst = 0.0
        for k in range(n_pair):
            da = space.annihilation_increment(k)
            ds = space.creation_increment(k)
            delta = space.grid.delta(k)
            inc_worst = max(inc_worst, op_norm(
                da @ ds + ds @ da - delta * space.identity()))
            nil_worst = max(nil_worst, op_norm(da @ da))
        run_worst = 0.0
        running = _running_sums(space, ((space.annihilation_increment(k),)
                                        for k in range(n_pair)))
        for k, acc in enumerate(running[1:]):
            accs = acc.adjoint()
            elapsed = space.grid.node(k + 1) - space.grid.t0
            run_worst = max(run_worst, op_norm(
                acc @ accs + accs @ acc - elapsed * space.identity()))
        table.add(suite, cell, "increment_defect_max", inc_worst)
        table.add(suite, cell, "nilpotent_defect_max", nil_worst)
        table.add(suite, cell, "running_defect_max", run_worst)
        for label, val in (("increment", inc_worst), ("nilpotent", nil_worst),
                           ("running", run_worst)):
            if val > EXACTNESS_TOL:
                table.violate(suite, cell, f"{label} defect {val!r}")
    return table


def _parity_lemma_suite(config: SuiteConfig) -> SweepTable:
    """Even parts of adapted elements commute with later increments, odd
    parts anticommute — both exactly — and even integrands have exactly
    equal left and right integrals."""
    table = SweepTable()
    suite = "parity_lemma"
    cells = list(config.n_grid)
    trials = max(1, config.trials // 8)

    for cell_index, n in enumerate(cells):
        space = _space(config, n)
        cell = f"layout=fermion n={n}"

        def worker(t, space=space, n=n, cell_index=cell_index):
            seed = trial_seed(config.master_seed, suite, cell_index, t)
            rng = np.random.default_rng(seed)
            k = int(rng.integers(0, n))
            level = space.level_of_node(k)
            h = random_level_element(space, rng, level)
            j = int(rng.integers(k, n))
            return seed, parity_commutation_defect(h, j)

        out = _map_trials(worker, trials, config.max_workers)
        even_worst = max(d[0] for _, d in out)
        odd_worst = max(d[1] for _, d in out)
        table.add(suite, cell, "even_defect_max", even_worst)
        table.add(suite, cell, "odd_defect_max", odd_worst)
        for t, (seed, (de, do)) in enumerate(out):
            if de > EXACTNESS_TOL or do > EXACTNESS_TOL:
                table.violate(
                    suite, cell,
                    f"parity commutation defects ({de!r}, {do!r})", t, seed,
                )
    return table


_PICARD_LIPSCHITZ_FREE = ("zero", "linear_field", "linear_left",
                          "linear_drift", "linear_full", "linear_pair")
_PICARD_NONLOCAL = ("nonlocal_linear", "nonlocal_conditional")


def _picard_suite(config: SuiteConfig) -> SweepTable:
    """Solver correctness: exact agreement with the explicit recursion for
    R = 0, residuals below tolerance for the nonlocal and Osgood problems,
    and non-increasing deltas after the first two sweeps (Lipschitz data)."""
    table = SweepTable()
    suite = "picard"
    tol = config.solver_tol

    for name in _PICARD_LIPSCHITZ_FREE + _PICARD_NONLOCAL:
        prob = make_problem(name, t0=config.t0, horizon=config.horizon)
        rep = picard_solve(prob, tol=tol, max_outer=config.max_outer)
        cell = f"problem={name}"
        table.add(suite, cell, "iterations", rep.picard_iterations)
        table.add(suite, cell, "residual", rep.residual)
        table.add(suite, cell, "delta_final", rep.deltas[-1])
        if name in _PICARD_NONLOCAL:
            table.add(suite, cell, "inner_iterations_last",
                      rep.inner_iterations[-1])
        else:
            oracle = forward_euler_oracle(prob)
            gap = max(lp_norm(a - b, prob.p)
                      for a, b in zip(rep.trajectory.values, oracle.values))
            table.add(suite, cell, "euler_gap", gap)
            if gap > 1e-10:
                table.violate(suite, cell, f"euler gap {gap!r}")
        if rep.residual > 1e-8:
            table.violate(suite, cell, f"residual {rep.residual!r}")
        tail = rep.deltas[2:]
        if any(b > a for a, b in zip(tail, tail[1:])):
            table.violate(suite, cell, "delta trace not non-increasing")
        if name == "zero" and rep.picard_iterations != 1:
            table.violate(suite, cell,
                          f"zero problem took {rep.picard_iterations} sweeps")

    prob = make_problem("osgood_radial", t0=config.t0, horizon=config.horizon)
    rep = picard_solve(prob, tol=min(tol, 1e-8), max_outer=config.max_outer)
    cell = "problem=osgood_radial"
    table.add(suite, cell, "iterations", rep.picard_iterations)
    table.add(suite, cell, "residual", rep.residual)
    table.add(suite, cell, "delta_final", rep.deltas[-1])
    if rep.residual > 1e-6:
        table.violate(suite, cell, f"residual {rep.residual!r}")
    return table


def _uniqueness_suite(config: SuiteConfig) -> SweepTable:
    """Two Picard runs from different initial trajectories must land within
    2 * tol of each other."""
    table = SweepTable()
    suite = "uniqueness"
    tol = config.solver_tol
    names = ("linear_full", "nonlocal_linear", "nonlocal_conditional",
             "osgood_radial")
    for cell_index, name in enumerate(names):
        prob = make_problem(name, t0=config.t0, horizon=config.horizon)
        seed = trial_seed(config.master_seed, suite, cell_index, 0)
        gap = uniqueness_probe(prob, tol=tol, max_outer=config.max_outer,
                               seed=seed)
        cell = f"problem={name}"
        table.add(suite, cell, "gap", gap)
        if gap >= 2 * tol:
            table.violate(suite, cell, f"uniqueness gap {gap!r}", 0, seed)
    return table


def _gronwall_suite(config: SuiteConfig) -> SweepTable:
    """Initial-data stability: the squared distance of two solutions stays
    below the exponential envelope at every node, for perturbation sizes
    1e-1 and 1e-3."""
    table = SweepTable()
    suite = "gronwall"
    names = ("linear_full", "nonlocal_linear")
    sizes = (1e-1, 1e-3)
    cell_index = 0
    for name in names:
        prob = make_problem(name, t0=config.t0, horizon=config.horizon)
        for dz in sizes:
            seed = trial_seed(config.master_seed, suite, cell_index, 0)
            cell = f"problem={name} dz={dz:g}"
            z_alt = prob.Z + dz * prob.space.identity()
            try:
                res = stability_experiment(
                    prob, z_alt, tol=config.solver_tol,
                    max_outer=config.max_outer, seed=seed,
                    trials=min(config.trials, 64),
                )
            except Exception as exc:  # dominance failure carries the node
                table.violate(suite, cell, str(exc), 0, seed)
                cell_index += 1
                continue
            table.add(suite, cell, "margin_min", res.min_margin)
            table.add(suite, cell, "c_p_hat", res.c_p)
            table.add(suite, cell, "rate", res.rate)
            table.add(suite, cell, "lhs_final", res.lhs[-1])
            table.add(suite, cell, "rhs_final", res.rhs[-1])
            if res.min_margin < 0:
                table.violate(suite, cell,
                              f"negative margin {res.min_margin!r}", 0, seed)
            cell_index += 1
    return table


def _coeff_stability_suite(config: SuiteConfig) -> SweepTable:
    """Shrinking coefficient perturbations delta_n = 2^-n must move the
    solution by strictly decreasing amounts."""
    table = SweepTable()
    suite = "coeff_stability"
    name = "nonlocal_linear"
    prob = make_problem(name, t0=config.t0, horizon=config.horizon)
    sizes = [2.0 ** -m for m in range(1, 9)]
    perturbed = [perturb_problem(prob, d) for d in sizes]
    dists = coefficient_stability_experiment(
        prob, perturbed, tol=config.solver_tol, max_outer=config.max_outer
    )
    cell = f"problem={name}"
    for m, (d, dist) in enumerate(zip(sizes, dists), start=1):
        table.add(suite, cell, f"dist@delta=2^-{m}", dist)
    if not all(b < a for a, b in zip(dists, dists[1:])):
        table.violate(suite, cell, "perturbation distances not decreasing")
    return table


def _selfadjoint_suite(config: SuiteConfig) -> SweepTable:
    """Self-adjointness preservation along the whole iteration."""
    table = SweepTable()
    suite = "selfadjoint"
    prob = make_problem("selfadjoint_nonlocal", t0=config.t0,
                        horizon=config.horizon)
    cell = "problem=selfadjoint_nonlocal"
    try:
        worst = selfadjoint_solve_check(prob, tol=config.solver_tol,
                                        max_outer=config.max_outer)
    except Exception as exc:
        table.violate(suite, cell, str(exc))
        return table
    table.add(suite, cell, "defect_max", worst)
    if worst > 1e-10:
        table.violate(suite, cell, f"self-adjointness defect {worst!r}")
    return table


def _bihari_suite(config: SuiteConfig) -> SweepTable:
    """Nonlinear Gronwall utility: the linear modulus reproduces the
    exponential bound, u0 = 0 propagates to exactly 0, the logarithmic
    modulus dominates the linear one, and the square-root modulus fails
    the divergence certificate."""
    table = SweepTable()
    suite = "bihari"
    horizons = (0.25, 0.5, 1.0, 2.0)
    linear = make_modulus("linear")

    for u0 in (1.0, 0.5):
        cell = f"rho=linear u0={u0:g}"
        worst = 0.0
        for t in horizons:
            bound = bihari_bound(u0, 1.0, linear, t)
            err = abs(bound - u0 * math.exp(t))
            worst = max(worst, err)
            table.add(suite, cell, f"bound@t={t:g}", bound)
        table.add(suite, cell, "abs_err_max", worst)
        if worst > 1e-6:
            table.violate(suite, cell, f"exponential mismatch {worst!r}")

    cell = "rho=linear u0=0"
    zero_bound = bihari_bound(0.0, 1.0, linear, 1.0)
    table.add(suite, cell, "bound@t=1", zero_bound)
    if zero_bound != 0.0:
        table.violate(suite, cell, f"zero start leaked to {zero_bound!r}")

    cell = "rho=log u0=1"
    log_mod = make_modulus("log")
    margin = min(
        bihari_bound(1.0, 1.0, log_mod, t) - bihari_bound(1.0, 1.0, linear, t)
        for t in horizons
    )
    table.add(suite, cell, "margin_vs_linear_min", margin)
    if margin < -1e-12:
        table.violate(suite, cell, f"log modulus bound below linear ({margin!r})")

    cell = "rho=sqrt"
    try:
        make_modulus("sqrt")
    except OsgoodViolationError:
        table.add(suite, cell, "rejected", 1.0)
    else:
        table.add(suite, cell, "rejected", 0.0)
        table.violate(suite, cell,
                      "sqrt modulus passed the divergence certificate")
    return table


_SUITE_RUNNERS = {
    "bg_ratio": _bg_ratio_suite,
    "norm_exchange": _norm_exchange_suite,
    "car_identity": _car_identity_suite,
    "parity_lemma": _parity_lemma_suite,
    "picard": _picard_suite,
    "uniqueness": _uniqueness_suite,
    "gronwall": _gronwall_suite,
    "coeff_stability": _coeff_stability_suite,
    "selfadjoint": _selfadjoint_suite,
    "bihari": _bihari_suite,
}


def run_suites(config: SuiteConfig, names) -> SweepTable:
    """Run the named suites (any subset of SUITE_NAMES) into one table,
    recording each suite's wall time in ``table.wall_s``."""
    table = SweepTable()
    for name in names:
        if name not in _SUITE_RUNNERS:
            raise ValueError(
                f"unknown suite {name!r}; known: {list(SUITE_NAMES)}"
            )
        start = time.perf_counter()
        part = _SUITE_RUNNERS[name](config)
        part.wall_s[name] = time.perf_counter() - start
        table.merge(part)
    return table


def run_inequality_suite(config: SuiteConfig, names=None) -> SweepTable:
    """All inequality/exactness suites (or a subset of them)."""
    return run_suites(config, names or INEQUALITY_SUITES)


def run_solver_suite(config: SuiteConfig, names=None) -> SweepTable:
    """All solver-behaviour suites (or a subset of them)."""
    return run_suites(config, names or SOLVER_SUITES)


def grid_refinement_study(problem_name: str = "linear_drift",
                          n_values=(2, 4, 8, 12), tol: float = 1e-10,
                          t0: float = 0.0, horizon: float = 1.0,
                          max_outer: int = 60) -> SweepTable:
    """Node-norm trajectories of one built-in problem across increment
    counts.  Asserts finiteness and adaptedness only — no convergence rate
    is claimed."""
    start = time.perf_counter()
    table = SweepTable()
    suite = "refinement"
    for n in n_values:
        prob = make_problem(problem_name, n=n, t0=t0, horizon=horizon)
        rep = picard_solve(prob, tol=tol, max_outer=max_outer)
        cell = f"problem={problem_name} n={n}"
        for node, t, nrm, _, _ in rep.node_records():
            table.add(suite, cell, f"norm@t={t:g}", nrm)
            if not math.isfinite(nrm):
                table.violate(suite, cell, f"non-finite norm at node {node}")
        defect = rep.trajectory.max_adaptedness_defect()
        table.add(suite, cell, "adapted_defect_max", defect)
        if defect > 1e-8:
            table.violate(suite, cell, f"adaptedness defect {defect!r}")
    table.wall_s[suite] = time.perf_counter() - start
    return table
