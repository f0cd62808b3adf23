"""Randomized verification suites and parameter sweeps.

Each suite checks one family of identities or bounds (inequality ratios,
algebraic exactness, solver behaviour, stability estimates) over a grid of
cells (parameter combinations) and a number of trials per cell, and writes
the outcomes into the run's one :class:`SweepTable` of (suite, cell,
statistic, value) rows.  Failing trials are never skipped silently: each
failure is recorded as a :class:`Violation` carrying the cell and the
derived seed for replay.

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
from itertools import accumulate

import numpy as np

# unused lp_norm: perfbench/test_bench.py pins this module as an import site
from .element import lp_norm, op_norm  # noqa: F401
from .errors import ConfigurationError, OsgoodViolationError
from .integrals import (
    _bg_norms,
    _bg_ratio,
    _norm_exchange_sides,
    _total,
    _trial_chunks,
    parity_commutation_defect,
)
from .grid import TimeGrid
from .modulus import bihari_bound, make_modulus
from .problems import make_problem
from .process import Driver, _random_stack
from .solver import (
    _sup_gap,
    coefficient_stability_experiment,
    forward_euler_oracle,
    perturb_problem,
    picard_solve,
    selfadjoint_solve_check,
    stability_experiment,
    uniqueness_probe,
)
from .space import (DEFAULT_MAX_GENERATORS, make_space, parity_decompose,
                    random_level_element)

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
#: The tolerance of the solver suites' Picard solves and of their gates
SOLVER_TOL = 1e-10
#: The exponents of the bg_ratio cells and of norm_exchange's q = p cells
P_GRID = (2.0, 3.0, 4.0, 6.0)
#: norm_exchange's (q, p) cells with q < p
QP_PAIRS = ((1.0, 2.0), (2.0, 4.0), (2.0, 7.0))
#: The drivers of the bg_ratio cells, and the pair-layout increment counts
#: of its pair-driver cells and of car_identity
DRIVERS = ("fermion_field", "annihilation")
PAIR_N_GRID = (4,)

#: The increment counts a suite space may have: the generator budget
_NS = frozenset(range(1, DEFAULT_MAX_GENERATORS + 1))
_INTEGER = (int, np.integer)


def _has_bool(sizes) -> bool:
    """Whether a size is a bool, which passes ``_counts_ok`` as 0 or 1."""
    return any(isinstance(s, (bool, np.bool_)) for s in sizes)


def _counts_ok(counts, allowed: frozenset) -> bool:
    """8.0 passes the set test; a sum is an integer only if each count is"""
    return allowed.issuperset(counts) and isinstance(sum(counts), _INTEGER)


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
    """Knobs shared by all suites, which run on the unit interval over the
    cells of :data:`P_GRID`, :data:`QP_PAIRS`, :data:`PAIR_N_GRID` and
    :data:`DRIVERS`, gate ratios at :data:`RATIO_TOL` and solve to
    :data:`SOLVER_TOL`.  ``n_grid`` takes fermion increment counts 1..14:
    the generator budget."""

    master_seed: int = 1729
    trials: int = 200
    n_grid: tuple = (8,)
    max_workers: int = 1

    def __post_init__(self):
        # the common path is one chained test, keeping construction cheap
        # (_counts_ok's calls cost 5% more); the loop only names the field.
        # trials_ok and seed_ok are grid.is_count inlined: its two calls
        # cost 12% more
        trials, seed = self.trials, self.master_seed
        trials_ok = (isinstance(trials, _INTEGER) and trials >= 1
                     and trials is not True)
        seed_ok = (isinstance(seed, _INTEGER) and seed >= 0
                   and seed is not True and seed is not False)
        if not (trials_ok and seed_ok and self.max_workers >= 1
                and _NS.issuperset(self.n_grid)
                and isinstance(sum(self.n_grid), _INTEGER)):
            for key, ok, domain in (
                    ("master_seed", seed_ok, "a non-negative integer"),
                    ("trials", trials_ok, "an integer, at least 1"),
                    ("max_workers", self.max_workers >= 1, "at least 1"),
                    ("n_grid", _counts_ok(self.n_grid, _NS),
                     f"integer counts 1..{len(_NS)}")):
                if not ok:
                    raise ConfigurationError(f"{key} out of range ({domain}): "
                                             f"{getattr(self, key)!r}", key=key)


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
            self.add(*key, v)
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


def _run_trials(config: SuiteConfig, suite: str, cell_index: int,
                trials: int, space, batch) -> list:
    """``(seed, result)`` for each trial of a cell, in trial order.
    ``batch(rngs)`` maps the generators of a chunk of consecutive trials
    (:func:`~.integrals._trial_chunks` of ``space``), each drawn from its
    trial's derived seed, to their results; chunks map onto
    ``config.max_workers`` threads."""
    seeds = [trial_seed(config.master_seed, suite, cell_index, t)
             for t in range(trials)]

    def worker(chunk):
        return batch([np.random.default_rng(seeds[t]) for t in chunk])

    chunks = _trial_chunks(space, trials)
    if config.max_workers > 1:
        with ThreadPoolExecutor(max_workers=config.max_workers) as ex:
            results = list(ex.map(worker, chunks))
    else:
        results = [worker(chunk) for chunk in chunks]
    return list(zip(seeds, (r for chunk in results for r in chunk)))


def _add_ratio_spread(table: SweepTable, suite: str, cell: str, ratios,
                      max_name: str = "ratio_max") -> None:
    """The ratio_min, ratio_median and max rows of a cell's ratios."""
    table.add(suite, cell, "ratio_min", ratios.min())
    table.add(suite, cell, "ratio_median", float(np.median(ratios)))
    table.add(suite, cell, max_name, ratios.max())


def _space(spaces: dict, n: int, layout: str = "fermion"):
    """The run's space for ``(n, layout)`` on [0, 1], built on first use: the
    suites of one run share it, with its cached increment gathers."""
    space = spaces.get((n, layout))
    if space is None:
        space = spaces[(n, layout)] = make_space(
            TimeGrid.uniform(0.0, 1.0, n), layout=layout)
    return space


# -- individual suites ---------------------------------------------------------


def _bg_ratio_suite(config: SuiteConfig, spaces: dict, table: SweepTable):
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
    suite = "bg_ratio"
    cells = [(p, n, driver, side) for driver in map(Driver, DRIVERS)
             for n in (config.n_grid if driver.required_layout == "fermion"
                       else PAIR_N_GRID)
             for p in P_GRID for side in ("right", "left")]

    for cell_index, (p, n, driver, side) in enumerate(cells):
        space = _space(spaces, n, driver.required_layout)
        cell = f"p={p:g} n={n} driver={driver.label} side={side}"

        def batch(rngs, p=p, space=space, driver=driver, side=side):
            lefts, rights, hps, l2s = _bg_norms(
                space, 0, len(rngs), _random_stack(space, rngs), driver, p,
                ("left", "right"), ("hp", "l2lp"))
            return [(_bg_ratio(p, left if side == "left" else right,
                               hp if driver.kind == "fermion_field" else l2),
                     hp / l2, left / right)
                    for left, right, hp, l2 in zip(lefts, rights, hps, l2s)]

        out = _run_trials(config, suite, cell_index, config.trials, space,
                          batch)
        ratios, bp1s, lrs = np.array([r for _, r in out]).T

        _add_ratio_spread(table, suite, cell, ratios, "beta_hat")
        table.add(suite, cell, "alpha_hat", ratios.min())
        table.add(suite, cell, "bp1_max", bp1s.max())
        table.add(suite, cell, "lr_ratio_min", lrs.min())
        table.add(suite, cell, "lr_ratio_max", lrs.max())

        for t, (seed, (r, b, lr)) in enumerate(out):
            if not (math.isfinite(r) and math.isfinite(b) and math.isfinite(lr)):
                table.violate(suite, cell, "non-finite ratio", t, seed)
            if b > 1.0 + RATIO_TOL:
                table.violate(
                    suite, cell,
                    f"hp norm exceeds the l2-in-time bound: ratio {b!r}",
                    t, seed,
                )
            if p == 2 and driver.label == "fermion" and \
                    abs(r - 1.0) > RATIO_TOL:
                table.violate(
                    suite, cell, f"isometry ratio {r!r} off 1", t, seed
                )

        # even integrand: left and right integrals agree exactly; the even
        # part of a (x) I is P(a) (x) I, taken on the factor's level space
        seed = trial_seed(config.master_seed, suite, cell_index, config.trials)
        evens = [parity_decompose(space.level_space(k).element(a[0]))[0].mat[None]
                 for k, a in enumerate(_random_stack(
                     space, [np.random.default_rng(seed)]))]
        left, right = (_total(space, 0, 1, evens, driver, side)
                       for side in ("left", "right"))
        gap = float(np.linalg.norm(left[0] - right[0], 2))
        table.add(suite, cell, "even_lr_gap", gap)
        if gap > EXACTNESS_TOL:
            table.violate(suite, cell,
                          f"even-integrand left/right gap {gap!r}",
                          config.trials, seed)


def _norm_exchange_suite(config: SuiteConfig, spaces: dict, table: SweepTable):
    """(int ||f||^q)^(1/q)-vs-||(int |f|^q)^(1/q)||_p ratio sweep; the ratio
    must never exceed 1, and q = p cells must sit at 1 (Fubini)."""
    suite = "norm_exchange"
    pairs = list(QP_PAIRS) + [(p, p) for p in P_GRID]
    cells = [(q, p, n) for q, p in pairs for n in config.n_grid]

    for cell_index, (q, p, n) in enumerate(cells):
        space = _space(spaces, n)
        cell = f"q={q:g} p={p:g} n={n}"

        def batch(rngs, q=q, p=p, space=space):
            return _norm_exchange_sides(
                space, 0, len(rngs), _random_stack(space, rngs), q, p)[2]

        out = _run_trials(config, suite, cell_index, config.trials, space,
                          batch)
        _add_ratio_spread(table, suite, cell, np.array([r for _, r in out]))
        for t, (seed, r) in enumerate(out):
            if r > 1.0 + RATIO_TOL:
                table.violate(suite, cell,
                              f"norm exchange ratio {r!r} above 1", t, seed)
            if q == p and abs(r - 1.0) > RATIO_TOL:
                table.violate(suite, cell,
                              f"q = p ratio {r!r} off 1", t, seed)


def _car_identity_suite(config: SuiteConfig, spaces: dict, table: SweepTable):
    """Exact algebra of increments: generator anticommutation relations,
    nilpotent annihilation increments, the per-increment relation
    dA dA* + dA* dA = delta, and its running form A A* + A* A = (t - t0)."""
    suite = "car_identity"

    # Clifford relations on the largest fermion space
    n = max(config.n_grid)
    space = _space(spaces, n)
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

    for n_pair in PAIR_N_GRID:
        space = _space(spaces, n_pair, "pair")
        cell = f"layout=pair n={n_pair}"
        inc_worst = nil_worst = 0.0
        for k in range(n_pair):
            da = Driver.annihilation().increment(space, k)
            ds = Driver.creation().increment(space, k)
            delta = space.grid.delta(k)
            inc_worst = max(inc_worst, op_norm(
                da @ ds + ds @ da - delta * space.identity()))
            nil_worst = max(nil_worst, op_norm(da @ da))
        run_worst = 0.0
        running = accumulate((Driver.annihilation().increment(space, k)
                              for k in range(n_pair)), initial=space.zero())
        next(running)
        for k, acc in enumerate(running):
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


def _parity_lemma_suite(config: SuiteConfig, spaces: dict, table: SweepTable):
    """Even parts of adapted elements commute with later increments, odd
    parts anticommute — both exactly — and even integrands have exactly
    equal left and right integrals."""
    suite = "parity_lemma"
    cells = list(config.n_grid)
    trials = max(1, config.trials // 8)

    for cell_index, n in enumerate(cells):
        space = _space(spaces, n)
        cell = f"layout=fermion n={n}"

        def trial(rng, space=space, n=n):
            k = int(rng.integers(0, n))
            h = random_level_element(space, rng, space.level_of_node(k))
            return parity_commutation_defect(h, int(rng.integers(k, n)))

        out = _run_trials(config, suite, cell_index, trials, space,
                          lambda rngs, trial=trial: list(map(trial, rngs)))
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


_PICARD_LIPSCHITZ_FREE = ("zero", "linear_field", "linear_left",
                          "linear_drift", "linear_full", "linear_pair")
_PICARD_NONLOCAL = ("nonlocal_linear", "nonlocal_conditional")


def _picard_suite(config: SuiteConfig, spaces: dict, table: SweepTable):
    """Solver correctness: exact agreement with the explicit recursion for
    R = 0, residuals below tolerance for the nonlocal and Osgood problems,
    and non-increasing deltas after the first two sweeps (Lipschitz data)."""
    suite = "picard"
    for name in _PICARD_LIPSCHITZ_FREE + _PICARD_NONLOCAL:
        prob = make_problem(name)
        rep = picard_solve(prob, tol=SOLVER_TOL)
        cell = f"problem={name}"
        table.add(suite, cell, "iterations", rep.picard_iterations)
        table.add(suite, cell, "residual", rep.residual)
        table.add(suite, cell, "delta_final", rep.deltas[-1])
        if name in _PICARD_NONLOCAL:
            table.add(suite, cell, "inner_iterations_total",
                      sum(rep.inner_iterations))
        else:
            gap = _sup_gap(rep.factors, forward_euler_oracle(prob).factors,
                           prob.p)
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

    rep = picard_solve(make_problem("osgood_radial"), tol=SOLVER_TOL)
    cell = "problem=osgood_radial"
    table.add(suite, cell, "iterations", rep.picard_iterations)
    table.add(suite, cell, "residual", rep.residual)
    table.add(suite, cell, "delta_final", rep.deltas[-1])
    if rep.residual > 1e-6:
        table.violate(suite, cell, f"residual {rep.residual!r}")


def _uniqueness_suite(config: SuiteConfig, spaces: dict, table: SweepTable):
    """Two Picard runs from different initial trajectories must land within
    2 * tol of each other."""
    suite = "uniqueness"
    names = ("linear_full", "nonlocal_linear", "nonlocal_conditional",
             "osgood_radial")
    for cell_index, name in enumerate(names):
        seed = trial_seed(config.master_seed, suite, cell_index, 0)
        gap = uniqueness_probe(make_problem(name), tol=SOLVER_TOL, seed=seed)
        cell = f"problem={name}"
        table.add(suite, cell, "gap", gap)
        if gap >= 2 * SOLVER_TOL:
            table.violate(suite, cell, f"uniqueness gap {gap!r}", 0, seed)


def _gronwall_suite(config: SuiteConfig, spaces: dict, table: SweepTable):
    """Initial-data stability: the squared distance of two solutions stays
    below the exponential envelope at every node, for perturbation sizes
    1e-1 and 1e-3."""
    suite = "gronwall"
    problems = {name: make_problem(name)
                for name in ("linear_full", "nonlocal_linear")}
    cells = [(name, dz) for name in problems for dz in (1e-1, 1e-3)]
    for cell_index, (name, dz) in enumerate(cells):
        prob = problems[name]
        seed = trial_seed(config.master_seed, suite, cell_index, 0)
        cell = f"problem={name} dz={dz:g}"
        z_alt = prob.Z + dz * prob.space.identity()
        try:
            res = stability_experiment(prob, z_alt, tol=SOLVER_TOL, seed=seed,
                                       trials=min(config.trials, 64))
        except Exception as exc:  # dominance failure carries the node
            table.violate(suite, cell, str(exc), 0, seed)
            continue
        # it raises at the first node with lhs > rhs: no margin is negative
        table.add(suite, cell, "margin_min", res.min_margin)
        table.add(suite, cell, "c_p_hat", res.c_p)
        table.add(suite, cell, "rate", res.rate)
        table.add(suite, cell, "lhs_final", res.lhs[-1])
        table.add(suite, cell, "rhs_final", res.rhs[-1])


def _coeff_stability_suite(config: SuiteConfig, spaces: dict,
                           table: SweepTable):
    """Shrinking coefficient perturbations delta_n = 2^-n must move the
    solution by strictly decreasing amounts."""
    suite = "coeff_stability"
    name = "nonlocal_linear"
    prob = make_problem(name)
    sizes = [2.0 ** -m for m in range(1, 9)]
    perturbed = [perturb_problem(prob, d) for d in sizes]
    dists = coefficient_stability_experiment(prob, perturbed, tol=SOLVER_TOL)
    cell = f"problem={name}"
    for m, (d, dist) in enumerate(zip(sizes, dists), start=1):
        table.add(suite, cell, f"dist@delta=2^-{m}", dist)
    if not all(b < a for a, b in zip(dists, dists[1:])):
        table.violate(suite, cell, "perturbation distances not decreasing")


def _selfadjoint_suite(config: SuiteConfig, spaces: dict, table: SweepTable):
    """Self-adjointness preservation along the whole iteration."""
    suite = "selfadjoint"
    cell = "problem=selfadjoint_nonlocal"
    try:
        worst = selfadjoint_solve_check(make_problem("selfadjoint_nonlocal"),
                                        tol=SOLVER_TOL)
    except Exception as exc:
        table.violate(suite, cell, str(exc))
        return
    table.add(suite, cell, "defect_max", worst)
    if worst > 1e-10:
        table.violate(suite, cell, f"self-adjointness defect {worst!r}")


def _bihari_suite(config: SuiteConfig, spaces: dict, table: SweepTable):
    """Nonlinear Gronwall utility: the linear modulus reproduces the
    exponential bound, u0 = 0 propagates to exactly 0, the logarithmic
    modulus dominates the linear one, and the square-root modulus fails
    the divergence certificate."""
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
    recording each suite's wall time in ``table.wall_s``.  The suites
    share one space per ``(n, layout)``; ``spaces`` holds them for this
    run only.  That no increment count is a bool is checked here, not in
    the (cheap) SuiteConfig build, before any suite runs."""
    if _has_bool(config.n_grid):
        raise ConfigurationError(f"n_grid out of range (integer counts "
                                 f"1..{len(_NS)}): {config.n_grid!r}", key="n_grid")
    table = SweepTable()
    spaces = {}
    for name in names:
        if name not in _SUITE_RUNNERS:
            raise ValueError(
                f"unknown suite {name!r}; known: {list(SUITE_NAMES)}"
            )
        start = time.perf_counter()
        _SUITE_RUNNERS[name](config, spaces, table)
        table.wall_s[name] = time.perf_counter() - start
    return table


def run_inequality_suite(config: SuiteConfig, names=None) -> SweepTable:
    """All inequality/exactness suites (or a subset of them)."""
    return run_suites(config, names or INEQUALITY_SUITES)


def run_solver_suite(config: SuiteConfig, names=None) -> SweepTable:
    """All solver-behaviour suites (or a subset of them)."""
    return run_suites(config, names or SOLVER_SUITES)


def grid_refinement_study(problem_name: str = "linear_drift",
                          n_values=(2, 4, 8, 12)) -> SweepTable:
    """Node-norm trajectories of one built-in problem across increment
    counts.  Asserts finiteness only, and records the largest adaptedness
    defect the solve measured (it rejects one above 1e-8 itself) — no
    convergence rate is claimed."""
    start = time.perf_counter()
    table = SweepTable()
    suite = "refinement"
    for n in n_values:
        rep = picard_solve(make_problem(problem_name, n=n), tol=SOLVER_TOL)
        cell = f"problem={problem_name} n={n}"
        for node, t, nrm, _, _ in rep.node_records():
            table.add(suite, cell, f"norm@t={t:g}", nrm)
            if not math.isfinite(nrm):
                table.violate(suite, cell, f"non-finite norm at node {node}")
        table.add(suite, cell, "adapted_defect_max", rep.adapted_defects[-1])
    table.wall_s[suite] = time.perf_counter() - start
    return table
