"""Picard solver for operator SDEs with nonlocal initial data.

The problem solved on a grid is the fixed-point equation

    X_t = Z + R(X_t) + int_t0^t F(X_s, s) dxi_s
                     + int_t0^t dxi_s G(X_s, s)
                     + int_t0^t H(X_s, s) ds

with all integrals left-endpoint sums, R a strict L^p contraction and
F, G, H coefficient maps with certified (Lipschitz or Osgood) moduli.
Successive approximation replaces the integrand by the previous iterate;
each node value, held as its level factor (see
:meth:`CliffordSpace.level_space`), is then solved for the implicit R
term by a fixed-point loop: three plain steps, then safeguarded secant
(depth-one Anderson) steps (:func:`inner_fixed_point`).  The sums are
lower triangular: M_k reads only nodes below k, so node k's equation is
final once nodes k0..k-1 are, and sweep s re-solves only nodes
k0 + s - 1 .. n, holding the others at their values, integrals and
diagnostics of the sweep that solved them.  A run therefore ends by sweep
n - k0 + 2, which holds every node.  With R = 0 the scheme telescopes to
the explicit Euler recursion.

``nonlocal_mode="pointwise"`` applies R to X_t at every node (the default,
matching the iteration equation); ``"initial"`` applies it only inside the
initial condition, i.e. X_t = Z + R(X_{t0}) + integrals.
"""

from __future__ import annotations

import dataclasses
import math
import sys
from dataclasses import dataclass, field
from functools import cached_property, partial

import numpy as np

from .coefficients import (
    CoefficientMap,
    NonlocalMap,
    _is_proven,
    _is_zero_map,
    draw_probes,
    validate_coefficient,
    validate_nonlocal,
)
from .element import CliffordElement, _lp_over_l2_bound, lp_norm, op_norm
from .errors import (
    ArgumentError,
    ConfigurationError,
    ContractViolationError,
    ConvergenceError,
    DriverMismatchError,
)
from .grid import is_count
from .integrals import _driver_step, driver_integral, measure_bg_constant
from .process import AdaptedProcess, Driver, _require_node_adapted
from .space import (CliffordSpace, _at_size, adaptedness_defect, expand,
                    require_adapted, restrict)

NONLOCAL_MODES = ("pointwise", "initial")
_BOUND_MARGIN = 1e-6  # of picard_solve's bounds: far above lp_norm's rounding


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
        # huge finite data overflow to inf/NaN in these checks; their
        # NaN-safe comparisons reject it without numpy's warnings
        with np.errstate(over="ignore", invalid="ignore"):
            level = self.space.level_of_node(self.start_node)
            require_adapted(self.Z, level, self.p, 1e-10,
                            f"Z must be level-{level} measurable at the "
                            f"start node")
            if not self.R.contraction < 1.0:
                raise ContractViolationError(
                    f"nonlocal contraction must be < 1, got "
                    f"{self.R.contraction}"
                )
            todo = [r for r in "FGHR"
                    if not _is_proven(getattr(self, r), self.p)]
            if self.validate and todo:
                # one draw of level-factor probes serves every unproven map
                probes = draw_probes(self.space, self.p, self.start_node)
                for role in todo:
                    check = (validate_nonlocal if role == "R"
                             else validate_coefficient)
                    check(getattr(self, role), self.space, self.p,
                          start_node=self.start_node, probes=probes, role=role)

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
    """A converged inner solve.  ``steps`` is ``measured``, the L^p steps
    the loop took, in order (for p >= 2 only those that could stop it; see
    :func:`inner_fixed_point`), then ||d||_p of a stop whose step d is
    ``certified``, formed on first read.  ``equation`` is (M, R, Z, p)."""

    value: CliffordElement
    iterations: int
    measured: tuple
    equation: tuple
    certified: CliffordElement | None = None

    @cached_property
    def steps(self) -> tuple:
        d, p = self.certified, self.equation[3]
        return self.measured + (() if d is None else (lp_norm(d, p),))

    @property
    def residual(self) -> float:
        """||Y - (Z + R(Y) + M)||_p, computed on access: the solver skips it."""
        M, R, Z, p = self.equation
        return lp_norm(self.value - (Z + R(self.value) + M), p)


def _check_solve_args(tol: float, **budgets) -> None:
    """Name the parameter of a budget not an integer >= 1 or a bad tol."""
    for name, n in budgets.items():
        if not is_count(n, 1):
            raise ValueError(f"{name} must be an integer >= 1, got {n!r}")
    if isinstance(tol, bool) or not 0 < tol < math.inf:
        raise ValueError(f"tol must be finite and > 0, got {tol!r}")


def _norm_range(dim: int, p: float) -> tuple:
    """(tiny, safe): lp_norm of a dim x dim x is relative-accurate where
    ||x||_p >= tiny (its sums exceed dim^2 min / eps; 1 / eps: safety) and
    forms nothing above (dim ||x||_2^2)^(p/2) <= max / 2^p at ||x||_2 <= safe."""
    tiny = (dim * dim * sys.float_info.min / sys.float_info.epsilon) ** (1.0 / p)
    return tiny, sys.float_info.max ** (1.0 / p) / (2.0 * math.sqrt(dim))


def _moved_bound(b: float, d: float, tiny: float, safe: float) -> float:
    """(max(b, tiny) + 2 max(d, tiny) g) g >= ||x' - x'*||_p (g = 1 + margin)
    if b >= ||x - x*||_p and d = ||x' - x||_p (an isometric *); inf > safe."""
    grow = 1 + _BOUND_MARGIN
    b = (max(b, tiny) + 2 * max(d, tiny) * grow) * grow
    return b if b <= safe else math.inf


def inner_fixed_point(M: CliffordElement, R: NonlocalMap, Z: CliffordElement,
                      p: float, tol: float, max_inner: int = 200,
                      guess: CliffordElement | None = None,
                      node: int | None = None) -> InnerResult:
    """Solve Y = Z + R(Y) + M by safeguarded depth-one Anderson mixing of
    g(y) = Z + R(y) + M (Walker & Ni 2011).

    Starts from Y0 = Z + R(guess) + M, one plain step off ``guess``, or
    from Y0 = Z + M without one; for R = 0 both are the fixed point.  Two
    more plain steps y <- g(y) follow; from then on each step is the secant
    step g(y) - gamma (g(y) - g_b) off b, the last point kept: with the
    step d = g(y) - y, a = d - d_b and <u, v> = Re tr(u* v), gamma =
    <a, d> / ((1 + 1e-14) <a, a>), the real coefficient that minimises
    ||d - gamma a||_2 up to a ridge.  A mixed point whose ||d||_2 exceeds
    the last plain point's is dropped for g_b, the plain step from the
    point it was mixed from.  The loop stops at the first ||d||_p <= tol
    and returns g(y), whose residual is then at most C(R) * tol.

    For p >= 2, ||d||_2 <= ||d||_p <= r ||d||_2, r = M.space.dim^(1/2 - 1/p)
    (Hoelder), so a step with r ||d||_2 (1 + 1e-9) <= tol stops without the
    exact ||d||_p (a Gram product), which ``steps`` forms on first read.
    Else it is taken only where ||d||_2 <= tol * (1 + 1e-9) (1e-9: rounding),
    where the product could overflow and at ``max_inner``; for p < 2, always.

    Two successive growths of ||d||_2 between plain points raise
    ContractViolationError with the per-step rate; a growth counts only
    where the new ||d||_2 exceeds 16 eps ||g(y)||_2, as steps at the
    rounding floor are noise of about eps ||g(y)||_2.  A non-finite step
    raises ConvergenceError, ``node`` naming the grid node; it and the
    budget failure carry the measured steps with their iteration numbers.
    """
    _check_solve_args(tol, max_inner=max_inner)
    y = Z + M if guess is None else Z + R(guess) + M
    safe = _norm_range(M.space.dim, p)[1]  # ||d||_p cannot overflow below
    bound = _lp_over_l2_bound(M.space.dim, p)
    steps, measured_at = [], []
    grew, plain, mixed = 0, math.inf, False
    for it in range(1, max_inner + 1):
        gy = Z + R(y) + M
        d = gy - y
        d2 = lp_norm(d, 2)
        if d2 * bound <= tol:  # ||d||_p <= tol without its Gram product
            return InnerResult(gy, it, tuple(steps), (M, R, Z, p), d)
        if p < 2 or not tol * (1 + 1e-9) < d2 <= safe or it == max_inner:
            step = lp_norm(d, p) if p != 2 and math.isfinite(d2) else d2
            steps.append(step)
            measured_at.append(it)
            if not math.isfinite(step):
                raise _non_finite_step(node, steps, measured_at)
            if step <= tol:
                return InnerResult(gy, it, tuple(steps), (M, R, Z, p))
        if mixed and d2 > plain:  # the safeguard: g at the point mixed from
            y, mixed = base[1], False
            continue
        if not mixed:
            rose = d2 > plain * (1 + 1e-9) and \
                d2 > 16 * sys.float_info.epsilon * lp_norm(gy, 2)
            grew = grew + 1 if rose else 0
            if grew >= 2:
                raise ContractViolationError(
                    f"inner iteration expands (measured rate "
                    f"{d2 / plain:.3f} >= 1); the nonlocal map is not the "
                    f"declared contraction")
            plain = d2
        y, mixed = gy, False
        if it >= 3:  # the secant step off base, the last point kept: a
            # real gamma keeps self-adjointness exact; one buffer holds the
            # difference of d, then that of g
            diff = d.mat - base[0].mat
            a = diff.ravel().view(float)
            gram = float(a @ a)
            ridge = 1e-14 * gram
            if 0 < ridge < math.inf:
                gamma = float(a @ d.mat.ravel().view(float)) / (gram + ridge)
                if math.isfinite(gamma):
                    np.subtract(gy.mat, base[1].mat, out=diff)
                    diff *= gamma
                    y, mixed = CliffordElement(gy.space, np.subtract(
                        gy.mat, diff, out=diff), _fresh=True), True
        base = d, gy
    raise ConvergenceError(
        f"inner fixed point did not reach tol={tol:.1e} within "
        f"{max_inner} iterations",
        deltas=steps, iterations=measured_at,
    )


def _non_finite_step(node, steps, at) -> ConvergenceError:
    where = "" if node is None else f" at node {node}"
    return ConvergenceError(f"inner iteration{where} produced a non-finite "
                            f"step ({steps[-1]!r})", deltas=steps, iterations=at)


@dataclass
class SolveReport:
    """Outcome of a converged Picard run: the final level factor and the
    residual at each node k0, k0 + 1, ..., plus per-iteration traces."""

    problem: QsdeProblem
    factors: list
    node_residuals: list
    deltas: list = field(default_factory=list)
    inner_iterations: list = field(default_factory=list)
    adapted_defects: list = field(default_factory=list)
    selfadjoint_defects: list = field(default_factory=list)

    @property
    def picard_iterations(self) -> int:
        return len(self.deltas)

    @property
    def residual(self) -> float:
        """sup over nodes of || X_k - Z - R(X) - M_k[X] ||_p."""
        return max(self.node_residuals)

    @cached_property
    def trajectory(self) -> AdaptedProcess:
        """The factors as a process, wrapped on first read: the solve has
        checked them as ``AdaptedProcess.from_factors`` would."""
        return AdaptedProcess._trusted(self.problem.space, self.factors,
                                       self.problem.start_node)

    @np.errstate(over="ignore", invalid="ignore")  # as picard_solve
    def node_records(self):
        """Rows (node, time, lp_norm, residual, selfadjoint_defect)."""
        prob = self.problem
        return [(node, prob.space.grid.node(node), lp_norm(x, prob.p), res,
                 x.selfadjoint_defect(prob.p))
                for node, (x, res) in enumerate(
                    zip(self.factors, self.node_residuals), prob.start_node)]

    def trajectory_csv(self) -> str:
        return _csv("node,time,lp_norm,residual,selfadjoint_defect",
                    self.node_records())

    def iteration_csv(self) -> str:
        return _csv("iteration,delta,inner_iterations,adapted_defect,"
                    "selfadjoint_defect",
                    zip(range(1, len(self.deltas) + 1), self.deltas,
                        self.inner_iterations, self.adapted_defects,
                        self.selfadjoint_defects))


def _csv(header: str, rows) -> str:
    return "\n".join([header] + [",".join(map(repr, r)) for r in rows]) + "\n"


def _factors(problem: QsdeProblem, values) -> list:
    """The level factor of each full-space value at nodes k0, k0 + 1, ..."""
    sp = problem.space
    return [restrict(x, sp.level_space(k))
            for k, x in enumerate(values, problem.start_node)]


def _image(label: str, fn, node: int, x: CliffordElement, *t) -> CliffordElement:
    """fn(x, *t) for the map ``label`` at ``node``, which must lie in x's space."""
    y = fn(x, *t)
    if y.space is not x.space and y.space != x.space:
        raise ConfigurationError(
            f"{label} ({fn.name or 'unnamed'}) returned an element of "
            f"another space than its argument's at node {node}", key=label)
    return y


def _cumulative_integrals(problem: QsdeProblem, values, known=()):
    """M_k for all nodes k0..n from the level factors of the integrand at
    k0..n-1, no zero map's term formed: step k is ``_driver_step``'s, in
    node k+1's level space with increment k's gather there.  ``known``
    holds M_k0, M_k0+1, ... summed from these values; the sum goes on."""
    sp, grid = problem.space, problem.space.grid
    sums = list(known) or [sp.level_space(problem.start_node).zero()]
    acc, done = sums[-1], len(sums) - 1
    live = [r for r in "FGH" if not _is_zero_map(getattr(problem, r))]

    def image(r, k, x):  # F, G or delta_k H at node k, as a matrix
        y = _image(r, getattr(problem, r), k, x, grid.node(k))
        return (grid.delta(k) * y if r == "H" else y).mat

    for k, x in zip(range(problem.start_node + done, grid.n), values[done:]):
        nsp, g, *mats = _driver_step(sp, problem.driver, k,
                                     *[image(r, k, x) for r in live])
        # the first add makes a new array (m may be acc's own); np.add, not
        # +, whose temporary elision nearly doubles nonlocal_linear's faults
        m = _at_size(acc.mat, nsp.dim)
        for j, r in enumerate(live):
            term = {"F": g.right, "G": g.left}.get(r, lambda a: a)
            m = np.add(m, term(mats[j]), out=m if j else None)
        del mats  # not held while the next step forms its images
        acc = CliffordElement(nsp, m, _fresh=True)
        sums.append(acc)
    return sums


# overflowing data turn to inf/NaN in the sweeps; the named non-finite
# checks below report them, so numpy's warnings would only repeat them
@np.errstate(over="ignore", invalid="ignore")
def picard_solve(problem: QsdeProblem, tol: float = 1e-10,
                 max_outer: int = 60, max_inner: int = 200,
                 initial: AdaptedProcess | None = None) -> SolveReport:
    """Successive approximation until the sup-node L^p delta falls below
    ``tol`` and the defect of the integral equation confirms it.

    Sweep s re-solves nodes k0 + s - 1 .. n and holds the rest (a held
    node's delta is 0); ``inner_iterations`` counts the inner steps of the
    re-solved nodes, so the all-held sweep n - k0 + 2, the last a run can
    take, reads 0.  Initial mode solves the head once, in sweep 1.  The
    inner (nonlocal) solves run at tol * (1 - C(R)) / 10, each warm-started
    from the previous iterate at its node.  Raises ConvergenceError with the
    delta trace after ``max_outer`` sweeps, or at once, naming the sweep and
    the node, on a non-finite value; an inner solve's failure is re-raised
    with its sweep and its own trace.

    Node k's self-adjointness defect keeps a bound b_k (inf, then the exact
    value where measured), which re-solving k moves by ``_moved_bound``; a
    sweep measures by descending b_k until a defect reaches every bound
    left.  At even levels >= 2 adaptedness is 0.0.
    """
    _check_solve_args(tol, max_outer=max_outer, max_inner=max_inner)
    sp, grid, k0 = problem.space, problem.space.grid, problem.start_node
    n_nodes = grid.n - k0 + 1
    cr, zero_r = problem.R.contraction, _is_zero_map(problem.R)
    inner_tol = tol * (1.0 - cr) / 10.0
    residual_bound = tol * (1.0 + cr) / (1.0 - cr)

    zs = _factors(problem, [problem.Z] * n_nodes)
    if initial is None:
        current = zs
    else:
        if initial.space != sp:
            raise ConfigurationError(
                "initial trajectory belongs to a different space",
                key="initial")
        if initial.start_node != k0 or len(initial) != n_nodes:
            raise ValueError(
                f"initial trajectory must cover nodes {k0}..{grid.n}")
        current = list(initial.factors)

    trace_delta, trace_inner, trace_adapt, trace_sa = [], [], [], []
    # per node, from the sweep that last solved it
    integrals, defects, sa_bounds = [], [], [math.inf] * n_nodes
    tiny, safe = _norm_range(sp.dim, problem.p)  # the top dim: tightest

    for sweep in range(1, max_outer + 1):
        held = min(sweep - 1, n_nodes)
        integrals = _cumulative_integrals(problem, current, integrals[:held])
        inner_count = 0
        nxt = current[:held]
        try:
            if problem.nonlocal_mode == "pointwise":
                for i in range(held, n_nodes):
                    if zero_r:  # the inner solve's value at step 1 (d = 0)
                        nxt.append(zs[i] + integrals[i])
                        inner_count += 1
                        if not np.isfinite(nxt[-1].mat).all():
                            raise _non_finite_step(k0 + i, [math.nan], [1])
                        continue
                    r_map = partial(_image, "R", problem.R, k0 + i)
                    sol = inner_fixed_point(integrals[i], r_map, zs[i],
                                            problem.p, inner_tol, max_inner,
                                            guess=current[i], node=k0 + i)
                    nxt.append(sol.value)
                    inner_count += sol.iterations
                    del sol  # free its certified d before the next solve
            else:
                if sweep == 1:  # the head's equation (M = 0) never changes
                    head = inner_fixed_point(
                        zs[0].space.zero(),
                        partial(_image, "R", problem.R, k0), zs[0],
                        problem.p, inner_tol, max_inner, guess=current[0],
                        node=k0)
                    inner_count = head.iterations
                nxt += [expand(head.value, m_k.space) + m_k
                        for m_k in integrals[held:]]
        except ConvergenceError as exc:
            raise ConvergenceError(f"Picard sweep {sweep}: {exc}",
                                   deltas=exc.deltas,
                                   iterations=exc.iterations) from exc

        node_deltas = [lp_norm(a - b, problem.p)
                       for a, b in zip(nxt[held:], current[held:])]
        for i, d in enumerate(node_deltas, held):
            if not math.isfinite(d):
                raise ConvergenceError(
                    f"Picard sweep {sweep} produced a non-finite delta "
                    f"({d!r}) at node {k0 + i}",
                    deltas=trace_delta + [d])
            sa_bounds[i] = _moved_bound(sa_bounds[i], d, tiny, safe)
        delta = max(node_deltas, default=0.0)
        trace_delta.append(delta)
        trace_inner.append(inner_count)
        # at an even level >= 2, E(x) = x: lp_norm(x - x) = 0.0 (x finite)
        levels = map(sp.level_of_node, range(k0 + held, grid.n + 1))
        defects[held:] = [adaptedness_defect(x, lv, 2) if lv < 2 or lv % 2
                          else 0.0 for lv, x in zip(levels, nxt[held:])]
        trace_adapt.append(max(defects))
        best = -math.inf  # as max(): NaN iff node k0's is (it sorts first)
        for j in sorted(range(n_nodes), key=lambda j: -sa_bounds[j]):
            if best >= sa_bounds[j]:  # no defect left can exceed best
                break
            v = nxt[j].selfadjoint_defect(problem.p)
            sa_bounds[j] = v if v == v else math.inf  # keeps the sort total
            best = v if j == 0 and v != v else max(best, v)
        trace_sa.append(best)
        current = nxt

        if delta < tol:
            res = _node_residuals(current, problem, integrals[:held + 1])
            if max(res) < residual_bound:
                # the check AdaptedProcess makes of every value it holds
                for node, d in enumerate(defects, k0):
                    _require_node_adapted(sp, node, d)
                return SolveReport(problem, current, res, trace_delta,
                                   trace_inner, trace_adapt, trace_sa)
    raise ConvergenceError(
        f"no convergence to tol={tol:.1e} within {max_outer} Picard "
        f"iterations (last delta {trace_delta[-1]:.3e})",
        deltas=trace_delta,
    )


def _node_residuals(values, problem: QsdeProblem, known=()):
    """|| X_k - Z - R(X) - M_k[X] ||_p at every node, from level factors;
    ``known`` as for :func:`_cumulative_integrals`."""
    integrals = _cumulative_integrals(problem, values, known)
    zs, k0 = _factors(problem, [problem.Z] * len(values)), problem.start_node
    if problem.nonlocal_mode == "pointwise":
        heads = [z + _image("R", problem.R, k, x)
                 for k, (z, x) in enumerate(zip(zs, values), k0)]
    else:
        head = zs[0] + _image("R", problem.R, k0, values[0])
        heads = [expand(head, x.space) for x in values]
    return [
        lp_norm(x - h - m, problem.p)
        for x, h, m in zip(values, heads, integrals)
    ]


def residual(trajectory: AdaptedProcess, problem: QsdeProblem) -> float:
    """sup over nodes of || X_k - Z - R(X) - M_k[X] ||_p, with the
    integrals recomputed from the trajectory's level factors."""
    if trajectory.space != problem.space:
        raise ConfigurationError("trajectory belongs to a different space",
                                 key="trajectory")
    if trajectory.start_node != problem.start_node or \
            trajectory.last_node != problem.space.grid.n:
        raise ValueError("trajectory does not cover the problem's node range")
    return max(_node_residuals(trajectory.factors, problem))


def forward_euler_oracle(problem: QsdeProblem) -> AdaptedProcess:
    """Explicit one-pass recursion; only defined for R = 0, where it is
    the exact fixed point of the discrete equation.  A map of contraction
    0 is a constant, so R = 0 also needs R(0) = 0."""
    sp = problem.space
    if not problem.R.is_zero or np.any(problem.R(sp.zero()).mat):
        raise ConfigurationError(
            "the explicit Euler oracle needs R = 0; the nonlocal term makes "
            "every node implicit"
        )
    grid = sp.grid
    x = problem.Z
    values = [x]
    for j in range(problem.start_node, grid.n):
        inc, t = problem.driver.increment(sp, j), grid.node(j)
        x = x + problem.F(x, t) @ inc + inc @ problem.G(x, t) \
            + grid.delta(j) * problem.H(x, t)
        values.append(x)
    return AdaptedProcess(problem.space, values, start_node=problem.start_node)


def uniqueness_probe(problem: QsdeProblem, tol: float = 1e-10,
                     seed: int = 0) -> float:
    """Distance between the fixed points reached from the zero process and
    from a random adapted trajectory; should be below 2 * tol."""
    if not is_count(seed):
        raise ConfigurationError(f"seed out of range (a non-negative integer): "
                                 f"{seed!r}", key="seed")
    sp = problem.space
    k0 = problem.start_node
    n_nodes = sp.grid.n - k0 + 1
    zero_init = AdaptedProcess._trusted(
        sp, [sp.level_space(k).zero() for k in range(k0, sp.grid.n + 1)], k0)
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0x31,)))
    rand_init = AdaptedProcess.random(sp, rng, num=n_nodes, start_node=k0)
    a = picard_solve(problem, tol=tol, initial=zero_init)
    b = picard_solve(problem, tol=tol, initial=rand_init)
    return _sup_gap(a.factors, b.factors, problem.p)


def _sup_gap(xs, ys, p: float) -> float:
    """sup over nodes of ||X_k - Y_k||_p between two processes, read off
    their level factors ``xs`` and ``ys``: the norm does not see the (x) I."""
    return max(lp_norm(x - y, p) for x, y in zip(xs, ys))


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
                         seed: int = 0, trials: int = 64) -> StabilityResult:
    """Solve with Z and with z_alt and check the exponential bound

        ||X_t - Y_t||_p^2 <= 4 / (1 - C(R))^2 * exp(C (t - t0)) * ||Z - Z'||_p^2

    with C = 4 / (1 - C(R))^2 * max(c_p^2, T - t0) * L.  ``c_p`` defaults to
    the measured empirical martingale constant of the space; a given one
    must be finite and >= 0.  Raises if any node violates the bound.
    """
    if c_p is not None and not 0 <= c_p < math.inf:
        raise ArgumentError(f"c_p must be finite and >= 0, got {c_p!r}",
                            key="c_p")
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

    a = picard_solve(problem, tol=tol)
    b = picard_solve(problem.replace(Z=z_alt, validate=False), tol=tol)
    times, lhs, rhs = [], [], []
    for off, (x, y) in enumerate(zip(a.factors, b.factors)):
        t = grid.node(problem.start_node + off)
        l = lp_norm(x - y, problem.p) ** 2
        r = float(pref * np.exp(rate * (t - t0)) * dz2)
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
    if not math.isfinite(delta := float(delta)):
        raise ArgumentError(f"delta must be finite, got {delta!r}", key="delta")

    def shifted(base):  # a coefficient map (x, t) or the nonlocal map (x)
        f = base.fn
        return dataclasses.replace(
            base, fn=lambda x, *t: f(x, *t) + delta * x.space.identity(),
            name=f"{base.name}+{delta}*I")

    kw = {}
    for part in parts:
        if part in ("F", "G", "H", "R"):
            kw[part] = shifted(getattr(problem, part))
        elif part == "Z":
            kw["Z"] = problem.Z + delta * problem.space.identity()
        else:
            raise ValueError(f"unknown part {part!r}")
    return problem.replace(validate=False, **kw)


def coefficient_stability_experiment(problem: QsdeProblem, perturbed,
                                     tol: float = 1e-10):
    """Solve the base problem and each perturbed one; returns the list of
    sup-node L^p distances, in the order given."""
    base = picard_solve(problem, tol=tol)
    return [_sup_gap(base.factors, picard_solve(prob_n, tol=tol).factors,
                     problem.p) for prob_n in perturbed]


def selfadjoint_solve_check(problem: QsdeProblem,
                            tol: float = 1e-10) -> float:
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
    for name in ("H", "R"):
        if not getattr(problem, name).selfadjoint_preserving:
            raise ContractViolationError(
                f"{name} must be declared selfadjoint_preserving")
    if problem.Z.selfadjoint_defect(problem.p) > 1e-12:
        raise ContractViolationError("Z must be self-adjoint")

    report = picard_solve(problem, tol=tol)
    worst = max(report.selfadjoint_defects)

    k0, grid = problem.start_node, problem.space.grid
    phi = AdaptedProcess.from_factors(
        problem.space, [problem.F(x, grid.node(j))
                        for j, x in enumerate(report.factors[:-1], k0)],
        start_node=k0)
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
