"""Picard solver for operator SDEs with nonlocal initial data.

The problem solved on a grid is the fixed-point equation

    X_t = Z + R(X_t) + int_t0^t F(X_s, s) dxi_s
                     + int_t0^t dxi_s G(X_s, s)
                     + int_t0^t H(X_s, s) ds

with all integrals left-endpoint sums, R a strict L^p contraction and
F, G, H coefficient maps with certified (Lipschitz or Osgood) moduli.
Successive approximation replaces the integrand by the previous iterate;
each node value is then solved for the implicit R term by a Banach
fixed-point loop.  With R = 0 the scheme telescopes to the explicit
Euler recursion and terminates exactly after one sweep per node.

``nonlocal_mode="pointwise"`` applies R to X_t at every node (the default,
matching the iteration equation); ``"initial"`` applies it only inside the
initial condition, i.e. X_t = Z + R(X_{t0}) + integrals.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass, field

import numpy as np

from .coefficients import (
    CoefficientMap,
    NonlocalMap,
    validate_coefficient,
    validate_nonlocal,
)
from .element import CliffordElement, lp_norm, op_norm
from .errors import (
    AdaptednessError,
    ConfigurationError,
    ContractViolationError,
    ConvergenceError,
    DriverMismatchError,
)
from .integrals import _running_sums, driver_integral, measure_bg_constant
from .process import AdaptedProcess, Driver
from .space import CliffordSpace, adaptedness_defect

NONLOCAL_MODES = ("pointwise", "initial")

#: Internal seed for the construction-time spot checks (deterministic).
_VALIDATION_SEED = 0x5DE


@dataclass(frozen=True)
class QsdeProblem:
    """A fully specified equation instance.

    ``Z`` must be measurable at the level of ``start_node`` (level 0, the
    scalars, in the default case).  ``p`` must be finite and exceed 2 — the
    martingale estimates behind the scheme need it.
    """

    space: CliffordSpace
    F: CoefficientMap
    G: CoefficientMap
    H: CoefficientMap
    R: NonlocalMap
    Z: CliffordElement
    driver: Driver
    p: float
    start_node: int = 0
    nonlocal_mode: str = "pointwise"
    validate: bool = True

    def __post_init__(self):
        if not 2 < self.p < math.inf:
            raise ValueError(f"the solver needs a finite p > 2, got p={self.p!r}")
        if self.nonlocal_mode not in NONLOCAL_MODES:
            raise ValueError(
                f"nonlocal_mode must be one of {NONLOCAL_MODES}, "
                f"got {self.nonlocal_mode!r}"
            )
        if self.driver.required_layout != self.space.layout:
            raise DriverMismatchError(
                f"driver {self.driver.kind!r} needs layout "
                f"{self.driver.required_layout!r}, space has {self.space.layout!r}"
            )
        n = self.space.grid.n
        if not 0 <= self.start_node < n:
            raise ValueError(f"start_node {self.start_node} outside 0..{n - 1}")
        if self.Z.space != self.space:
            raise ConfigurationError("Z belongs to a different space")
        level = self.space.level_of_node(self.start_node)
        defect = adaptedness_defect(self.Z, level, self.p)
        if not defect <= 1e-10:
            raise AdaptednessError(
                f"Z must be level-{level} measurable at the start node "
                f"(defect {defect:.3e})"
            )
        if not self.R.contraction < 1.0:
            raise ContractViolationError(
                f"nonlocal contraction must be < 1, got {self.R.contraction}"
            )
        if self.validate:
            for cmap in (self.F, self.G, self.H):
                validate_coefficient(cmap, self.space, self.p,
                                     seed=_VALIDATION_SEED,
                                     start_node=self.start_node)
            validate_nonlocal(self.R, self.space, self.p,
                              seed=_VALIDATION_SEED,
                              start_node=self.start_node)

    @property
    def is_lipschitz(self) -> bool:
        return all(c.is_lipschitz for c in (self.F, self.G, self.H))

    def combined_lipschitz(self) -> float:
        """L with ||dF||^2 + ||dG||^2 + ||dH||^2 <= L ||dx||^2."""
        if not self.is_lipschitz:
            raise ContractViolationError(
                "combined Lipschitz constant undefined: a coefficient has an "
                "Osgood (non-Lipschitz) modulus"
            )
        return float(sum(c.modulus.lipschitz_constant ** 2
                         for c in (self.F, self.G, self.H)))

    def replace(self, **kw) -> "QsdeProblem":
        return dataclasses.replace(self, **kw)


@dataclass(frozen=True)
class InnerResult:
    value: CliffordElement
    iterations: int
    residual: float
    steps: tuple = ()


def inner_fixed_point(M: CliffordElement, R: NonlocalMap, Z: CliffordElement,
                      p: float, tol: float, max_inner: int = 200,
                      guess: CliffordElement | None = None,
                      node: int | None = None) -> InnerResult:
    """Solve Y = Z + R(Y) + M by Banach iteration.

    Starts from Y0 = Z + R(guess) + M, one step off ``guess``, or from
    Y0 = Z + M without one; for R = 0 both are the fixed point.  Stops
    when the step falls below tol (the residual is then below
    C(R) * tol < tol).  Detects stalls: two successive non-contracting
    steps above tol mean the declared contraction is wrong.  A non-finite
    step raises at once; ``node`` names the grid node in that message.
    """
    y = Z + M if guess is None else Z + R(guess) + M
    steps = []
    grew = 0
    for it in range(1, max_inner + 1):
        y_next = Z + R(y) + M
        step = lp_norm(y_next - y, p)
        steps.append(step)
        y = y_next
        if not math.isfinite(step):
            where = "" if node is None else f" at node {node}"
            raise ConvergenceError(
                f"inner iteration{where} produced a non-finite step "
                f"({step!r})", deltas=steps)
        if step <= tol:
            res = lp_norm(y - (Z + R(y) + M), p)
            return InnerResult(y, it, res, tuple(steps))
        if len(steps) >= 2 and step > steps[-2] * (1 + 1e-9):
            grew += 1
            if grew >= 2:
                rate = step / steps[-2]
                raise ContractViolationError(
                    f"inner iteration expands (measured rate {rate:.3f} >= 1); "
                    f"the nonlocal map is not the declared contraction"
                )
        else:
            grew = 0
    raise ConvergenceError(
        f"inner fixed point did not reach tol={tol:.1e} within "
        f"{max_inner} iterations",
        deltas=steps,
    )


@dataclass
class SolveReport:
    """Outcome of a converged Picard run, plus per-iteration traces."""

    problem: QsdeProblem
    trajectory: AdaptedProcess
    deltas: list = field(default_factory=list)
    inner_iterations: list = field(default_factory=list)
    adapted_defects: list = field(default_factory=list)
    selfadjoint_defects: list = field(default_factory=list)
    residual: float = 0.0

    @property
    def picard_iterations(self) -> int:
        return len(self.deltas)

    def node_records(self):
        """Rows (node, time, lp_norm, residual, selfadjoint_defect)."""
        prob = self.problem
        res = _node_residuals(self.trajectory.values, prob)
        rows = []
        for off, x in enumerate(self.trajectory.values):
            node = self.trajectory.start_node + off
            rows.append((
                node,
                prob.space.grid.node(node),
                lp_norm(x, prob.p),
                res[off],
                x.selfadjoint_defect(prob.p),
            ))
        return rows

    def trajectory_csv(self) -> str:
        lines = ["node,time,lp_norm,residual,selfadjoint_defect"]
        for node, t, nrm, res, sad in self.node_records():
            lines.append(f"{node},{t!r},{nrm!r},{res!r},{sad!r}")
        return "\n".join(lines) + "\n"

    def iteration_csv(self) -> str:
        lines = ["iteration,delta,inner_iterations,adapted_defect,selfadjoint_defect"]
        for i, d in enumerate(self.deltas):
            lines.append(
                f"{i + 1},{d!r},{self.inner_iterations[i]},"
                f"{self.adapted_defects[i]!r},{self.selfadjoint_defects[i]!r}"
            )
        return "\n".join(lines) + "\n"


def _integrator_state(problem: QsdeProblem):
    sp = problem.space
    grid = sp.grid
    k0 = problem.start_node
    incs = [problem.driver.increment(sp, j) for j in range(k0, grid.n)]
    times = [grid.node(j) for j in range(k0, grid.n)]
    deltas = [grid.delta(j) for j in range(k0, grid.n)]
    return incs, times, deltas


def _cumulative_integrals(problem: QsdeProblem, values, incs, times, deltas):
    """M_k for all nodes k0..n, from integrand values at k0..n-1."""
    steps = ((problem.F(x, t) @ inc, inc @ problem.G(x, t),
              d * problem.H(x, t))
             for x, inc, t, d in zip(values, incs, times, deltas))
    return _running_sums(problem.space, steps)


def picard_solve(problem: QsdeProblem, tol: float = 1e-10,
                 max_outer: int = 60, max_inner: int = 200,
                 initial: AdaptedProcess | None = None) -> SolveReport:
    """Successive approximation until the sup-node L^p delta falls below
    ``tol`` and the defect of the integral equation confirms it.

    The inner (nonlocal) solves run at tol * (1 - C(R)) / 10, each
    warm-started from the previous iterate at its node (the previous head
    in initial mode).  Raises ConvergenceError with the delta trace after
    ``max_outer`` sweeps, or at once, naming the node, on a non-finite
    value.
    """
    sp = problem.space
    grid = sp.grid
    k0 = problem.start_node
    n_nodes = grid.n - k0 + 1
    cr = problem.R.contraction
    inner_tol = tol * (1.0 - cr) / 10.0
    residual_bound = tol * (1.0 + cr) / (1.0 - cr)

    if initial is None:
        current = [problem.Z] * n_nodes
    else:
        if initial.start_node != k0 or len(initial) != n_nodes:
            raise ValueError(
                f"initial trajectory must cover nodes {k0}..{grid.n}"
            )
        current = list(initial.values)

    incs, times, deltas = _integrator_state(problem)
    trace_delta, trace_inner, trace_adapt, trace_sa = [], [], [], []

    for _ in range(max_outer):
        integrals = _cumulative_integrals(problem, current, incs, times, deltas)
        inner_count = 0
        if problem.nonlocal_mode == "pointwise":
            nxt = []
            for i, m_k in enumerate(integrals):
                sol = inner_fixed_point(m_k, problem.R, problem.Z,
                                        problem.p, inner_tol, max_inner,
                                        guess=current[i], node=k0 + i)
                nxt.append(sol.value)
                inner_count += sol.iterations
        else:
            sol = inner_fixed_point(sp.zero(), problem.R, problem.Z,
                                    problem.p, inner_tol, max_inner,
                                    guess=current[0], node=k0)
            head = sol.value
            inner_count = sol.iterations
            nxt = [head + m_k for m_k in integrals]

        node_deltas = [lp_norm(a - b, problem.p) for a, b in zip(nxt, current)]
        for i, d in enumerate(node_deltas):
            if not math.isfinite(d):
                raise ConvergenceError(
                    f"Picard sweep {len(trace_delta) + 1} produced a "
                    f"non-finite delta ({d!r}) at node {k0 + i}",
                    deltas=trace_delta + [d])
        delta = max(node_deltas)
        trace_delta.append(delta)
        trace_inner.append(inner_count)
        trace_adapt.append(max(
            adaptedness_defect(x, sp.level_of_node(k0 + i), 2)
            for i, x in enumerate(nxt)
        ))
        trace_sa.append(max(x.selfadjoint_defect(problem.p) for x in nxt))
        current = nxt

        if delta < tol:
            res = max(_node_residuals(current, problem,
                                      (incs, times, deltas)))
            if res < residual_bound:
                trajectory = AdaptedProcess(sp, current, start_node=k0)
                return SolveReport(
                    problem=problem,
                    trajectory=trajectory,
                    deltas=trace_delta,
                    inner_iterations=trace_inner,
                    adapted_defects=trace_adapt,
                    selfadjoint_defects=trace_sa,
                    residual=res,
                )
    raise ConvergenceError(
        f"no convergence to tol={tol:.1e} within {max_outer} Picard "
        f"iterations (last delta {trace_delta[-1]:.3e})",
        deltas=trace_delta,
    )


def _node_residuals(values, problem: QsdeProblem, precomputed=None):
    """|| X_k - Z - R(X) - M_k[X] ||_p at every node of ``values``."""
    incs, times, deltas = precomputed or _integrator_state(problem)
    integrals = _cumulative_integrals(problem, values, incs, times, deltas)
    if problem.nonlocal_mode == "pointwise":
        heads = [problem.Z + problem.R(x) for x in values]
    else:
        head = problem.Z + problem.R(values[0])
        heads = [head] * len(values)
    return [
        lp_norm(x - h - m, problem.p)
        for x, h, m in zip(values, heads, integrals)
    ]


def residual(trajectory: AdaptedProcess, problem: QsdeProblem) -> float:
    """sup over nodes of || X_k - Z - R(X) - M_k[X] ||_p, with the
    integrals recomputed from the trajectory itself."""
    if trajectory.start_node != problem.start_node or \
            trajectory.last_node != problem.space.grid.n:
        raise ValueError("trajectory does not cover the problem's node range")
    return max(_node_residuals(trajectory.values, problem))


def forward_euler_oracle(problem: QsdeProblem) -> AdaptedProcess:
    """Explicit one-pass recursion; only defined for R = 0, where it is
    the exact fixed point of the discrete equation."""
    if not problem.R.is_zero:
        raise ConfigurationError(
            "the explicit Euler oracle needs R = 0; the nonlocal term makes "
            "every node implicit"
        )
    incs, times, deltas = _integrator_state(problem)
    x = problem.Z
    values = [x]
    for inc, t, d in zip(incs, times, deltas):
        x = x + problem.F(x, t) @ inc + inc @ problem.G(x, t) \
            + d * problem.H(x, t)
        values.append(x)
    return AdaptedProcess(problem.space, values, start_node=problem.start_node)


def uniqueness_probe(problem: QsdeProblem, tol: float = 1e-10,
                     max_outer: int = 60, seed: int = 0) -> float:
    """Distance between the fixed points reached from the zero process and
    from a random adapted trajectory; should be below 2 * tol."""
    sp = problem.space
    k0 = problem.start_node
    n_nodes = sp.grid.n - k0 + 1
    zero_init = AdaptedProcess(sp, [sp.zero()] * n_nodes, start_node=k0)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0x31,)))
    rand_init = AdaptedProcess.random(sp, rng, num=n_nodes, start_node=k0)
    a = picard_solve(problem, tol=tol, max_outer=max_outer, initial=zero_init)
    b = picard_solve(problem, tol=tol, max_outer=max_outer, initial=rand_init)
    return _sup_gap(a, b, problem.p)


def _sup_gap(a: SolveReport, b: SolveReport, p: float) -> float:
    """sup over nodes of ||X_k - Y_k||_p between two solutions."""
    return max(lp_norm(x - y, p)
               for x, y in zip(a.trajectory.values, b.trajectory.values))


# -- stability experiments ----------------------------------------------------


@dataclass(frozen=True)
class StabilityResult:
    times: tuple
    lhs: tuple      # ||X_t - Y_t||_p^2
    rhs: tuple      # prefactor * exp(rate (t - t0)) * ||Z - Z'||_p^2
    c_p: float
    rate: float

    @property
    def min_margin(self) -> float:
        return min(r - l for l, r in zip(self.lhs, self.rhs))


def stability_experiment(problem: QsdeProblem, z_alt: CliffordElement,
                         c_p: float | None = None, tol: float = 1e-10,
                         max_outer: int = 60, seed: int = 0,
                         trials: int = 64) -> StabilityResult:
    """Solve with Z and with z_alt and check the exponential bound

        ||X_t - Y_t||_p^2 <= 4 / (1 - C(R))^2 * exp(C (t - t0)) * ||Z - Z'||_p^2

    with C = 4 / (1 - C(R))^2 * max(c_p^2, T - t0) * L.  ``c_p`` defaults to
    the measured empirical martingale constant of the space.  Raises if any
    node violates the bound.
    """
    L = problem.combined_lipschitz()
    if c_p is None:
        c_p = measure_bg_constant(problem.space, problem.p,
                                  driver=problem.driver, trials=trials,
                                  seed=seed, form="l2lp")
    grid = problem.space.grid
    t0 = grid.node(problem.start_node)
    span = grid.T - t0
    cr = problem.R.contraction
    pref = 4.0 / (1.0 - cr) ** 2
    rate = pref * max(c_p ** 2, span) * L
    dz2 = lp_norm(problem.Z - z_alt, problem.p) ** 2

    a = picard_solve(problem, tol=tol, max_outer=max_outer)
    b = picard_solve(problem.replace(Z=z_alt, validate=False),
                     tol=tol, max_outer=max_outer)
    times, lhs, rhs = [], [], []
    for off, (x, y) in enumerate(zip(a.trajectory.values, b.trajectory.values)):
        t = grid.node(problem.start_node + off)
        l = lp_norm(x - y, problem.p) ** 2
        r = pref * np.exp(rate * (t - t0)) * dz2
        times.append(t)
        lhs.append(l)
        rhs.append(r)
        if l > r:
            raise ContractViolationError(
                f"stability bound violated at t={t}: lhs {l:.6e} > rhs {r:.6e}"
            )
    return StabilityResult(tuple(times), tuple(lhs), tuple(rhs),
                           c_p=float(c_p), rate=float(rate))


def perturb_problem(problem: QsdeProblem, delta: float,
                    parts=("F", "G", "H")) -> QsdeProblem:
    """Shift the selected coefficients by delta * I (a level-0, hence
    adapted, constant); Lipschitz constants are unchanged.  'R' shifts the
    nonlocal map the same way (contraction unchanged), 'Z' shifts the
    initial value."""
    delta = float(delta)
    kw = {}
    for part in parts:
        if part in ("F", "G", "H"):
            base: CoefficientMap = getattr(problem, part)
            fn = base.fn
            kw[part] = dataclasses.replace(
                base,
                fn=(lambda f: lambda x, t: f(x, t) + delta * x.space.identity())(fn),
                name=f"{base.name}+{delta}*I",
            )
        elif part == "R":
            rbase = problem.R
            rfn = rbase.fn
            kw["R"] = dataclasses.replace(
                rbase,
                fn=(lambda f: lambda x: f(x) + delta * x.space.identity())(rfn),
                name=f"{rbase.name}+{delta}*I",
            )
        elif part == "Z":
            kw["Z"] = problem.Z + delta * problem.space.identity()
        else:
            raise ValueError(f"unknown part {part!r}")
    return problem.replace(validate=False, **kw)


def coefficient_stability_experiment(problem: QsdeProblem, perturbed,
                                     tol: float = 1e-10,
                                     max_outer: int = 60):
    """Solve the base problem and each perturbed one; returns the list of
    sup-node L^p distances, in the order given."""
    base = picard_solve(problem, tol=tol, max_outer=max_outer)
    return [_sup_gap(base, picard_solve(prob_n, tol=tol, max_outer=max_outer),
                     problem.p)
            for prob_n in perturbed]


def selfadjoint_solve_check(problem: QsdeProblem, tol: float = 1e-10,
                            max_outer: int = 60) -> float:
    """Run the solver on a problem whose data preserve self-adjointness and
    return the worst self-adjointness defect over all iterates.

    Preconditions: F and G declared parity_even + selfadjoint_preserving,
    H selfadjoint_preserving, R selfadjoint_preserving, Z self-adjoint.
    Also verifies that the even integrand F(X) has exactly equal left and
    right integrals along the solution (they commute with every later
    increment bit-for-bit).
    """
    for cname in ("F", "G"):
        cmap: CoefficientMap = getattr(problem, cname)
        if not (cmap.parity_even and cmap.selfadjoint_preserving):
            raise ContractViolationError(
                f"{cname} must be declared parity_even and "
                f"selfadjoint_preserving for the self-adjointness check"
            )
    if not problem.H.selfadjoint_preserving:
        raise ContractViolationError(
            "H must be declared selfadjoint_preserving"
        )
    if not problem.R.selfadjoint_preserving:
        raise ContractViolationError(
            "R must be declared selfadjoint_preserving"
        )
    if problem.Z.selfadjoint_defect(problem.p) > 1e-12:
        raise ContractViolationError("Z must be self-adjoint")

    report = picard_solve(problem, tol=tol, max_outer=max_outer)
    worst = max(report.selfadjoint_defects)

    grid = problem.space.grid
    phi_vals = [
        problem.F(report.trajectory.value(j), grid.node(j))
        for j in range(problem.start_node, grid.n)
    ]
    phi = AdaptedProcess(problem.space, phi_vals,
                         start_node=problem.start_node)
    lr_gap = op_norm(
        driver_integral(phi, problem.driver, side="right")
        - driver_integral(phi, problem.driver, side="left")
    )
    if lr_gap != 0.0:
        raise ContractViolationError(
            f"left and right integrals of the even integrand differ by "
            f"{lr_gap:.3e}; expected exact equality"
        )
    return worst
