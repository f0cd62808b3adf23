"""Picard solver: exact oracles, convergence contracts, and error paths.

Closed-form oracles used below:
  * dX = X dt on a uniform n-step grid compounds to (1 + 1/n)^n * Z.
  * dX = X dW compounds to the ordered product Z (I+dW_0) ... (I+dW_{n-1}).
  * Y = Z + R(Y) + M with R = 0.5 * E(.|0), Z = I, M = e0 has the unique
    solution Y = 2 I + e0 (take the state of both sides to pin the scalar
    part, then substitute back).
"""

import csv
import dataclasses
import io
import math
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from cliffsde import (
    AdaptedProcess,
    AdaptednessError,
    CoefficientMap,
    ConfigurationError,
    ContractViolationError,
    ConvergenceError,
    Driver,
    DriverMismatchError,
    NonlocalMap,
    OsgoodModulus,
    QsdeProblem,
    TimeGrid,
    forward_euler_oracle,
    inner_fixed_point,
    lp_norm,
    make_coefficient,
    make_nonlocal,
    make_problem,
    make_space,
    perturb_problem,
    picard_solve,
    residual,
    selfadjoint_solve_check,
    uniqueness_probe,
)
from cliffsde import solver as solver_module
from cliffsde.coefficients import _is_zero_map
from cliffsde.config import build_problem
from cliffsde.problems import PROBLEMS
from cliffsde.solver import NONLOCAL_MODES
from cliffsde.space import CliffordSpace, adaptedness_defect, expand

TOL = 1e-10
DATA = Path(__file__).parent / "data"
EULER_GAP = 1e-10

_LIPSCHITZ_FREE = ("zero", "linear_field", "linear_left", "linear_drift",
                   "linear_full", "osgood_radial")


def _sup_dist(a: AdaptedProcess, b: AdaptedProcess, p: float) -> float:
    return max(lp_norm(x - y, p) for x, y in zip(a.values, b.values))


# -- agreement with the explicit recursion ------------------------------------


@pytest.mark.parametrize("name", _LIPSCHITZ_FREE)
def test_picard_matches_euler(name):
    prob = make_problem(name, n=6)
    report = picard_solve(prob, tol=TOL)
    euler = forward_euler_oracle(prob)
    assert _sup_dist(report.trajectory, euler, prob.p) <= EULER_GAP


def test_picard_matches_euler_pair_layout():
    prob = make_problem("linear_pair", n=4)
    report = picard_solve(prob, tol=TOL)
    euler = forward_euler_oracle(prob)
    assert _sup_dist(report.trajectory, euler, prob.p) <= EULER_GAP


def test_zero_problem_converges_immediately():
    report = picard_solve(make_problem("zero", n=4))
    assert report.picard_iterations == 1
    assert report.residual == 0.0
    for x in report.trajectory:
        assert x.is_close(report.problem.Z, tol=0.0)


def test_drift_compounding_oracle():
    n = 8
    prob = make_problem("linear_drift", n=n)
    report = picard_solve(prob)
    final = report.trajectory.value(n)
    target = (1.0 + 1.0 / n) ** n
    assert abs(target - 2.565784513950348) < 1e-15
    assert lp_norm(final - target * prob.space.identity(), prob.p) < 1e-12


def test_field_ordered_product_oracle():
    n = 6
    prob = make_problem("linear_field", n=n)
    report = picard_solve(prob)
    x = prob.Z
    for k in range(n):
        x = x @ (prob.space.identity() + prob.driver.increment(prob.space, k))
    assert lp_norm(report.trajectory.value(n) - x, prob.p) < 1e-12


def test_warm_start_from_the_fixed_point():
    prob = make_problem("linear_full", n=4)
    euler = forward_euler_oracle(prob)
    report = picard_solve(prob, initial=euler)
    assert report.picard_iterations == 1


@pytest.mark.parametrize("mode", NONLOCAL_MODES)
def test_local_problem_takes_one_inner_step_per_node(mode):
    # sweep s re-solves nodes s - 1 .. n, one step each for R = 0; initial
    # mode solves only the head, once
    prob = make_problem("linear_full", n=6).replace(nonlocal_mode=mode)
    report = picard_solve(prob, tol=TOL)
    sweeps, n_nodes = report.picard_iterations, len(report.factors)
    if mode == "pointwise":
        assert report.inner_iterations == [n_nodes - s for s in range(sweeps)]
    else:
        assert report.inner_iterations == [1] + [0] * (sweeps - 1)


@pytest.mark.parametrize("mode", NONLOCAL_MODES)
@pytest.mark.parametrize("name", ["nonlocal_linear", "nonlocal_conditional"])
def test_warm_and_cold_inner_starts_reach_the_same_fixed_point(
        name, mode, monkeypatch):
    prob = make_problem(name, n=8, nonlocal_mode=mode)
    warm = picard_solve(prob, tol=TOL)

    def cold(M, R, Z, p, tol, max_inner=200, guess=None, node=None):
        return inner_fixed_point(M, R, Z, p, tol, max_inner)

    monkeypatch.setattr(solver_module, "inner_fixed_point", cold)
    cold_report = picard_solve(prob, tol=TOL)
    assert _sup_dist(warm.trajectory, cold_report.trajectory, prob.p) \
        <= 2 * TOL
    # every re-solved node takes 4 steps from either start: 45 node solves
    # over the 10 sweeps pointwise, the one head solve in initial mode
    steps = {"pointwise": 180, "initial": 4}[mode]
    assert sum(warm.inner_iterations) == steps
    assert sum(cold_report.inner_iterations) == steps


# -- the triangular sweep schedule ---------------------------------------------


def _resolve_every_node(prob, max_outer=60):
    """Picard's iteration as picard_solve runs it, but re-solving every node
    in every sweep, warm from its previous value, with the same inner solve
    and the same stopping rule.  Returns (sweeps, factors)."""
    cr = prob.R.contraction
    inner_tol = TOL * (1 - cr) / 10
    zs = solver_module._factors(
        prob, [prob.Z] * (prob.space.grid.n - prob.start_node + 1))
    current = zs
    for sweep in range(1, max_outer + 1):
        integrals = solver_module._cumulative_integrals(prob, current)
        if prob.nonlocal_mode == "pointwise":
            nxt = [inner_fixed_point(m, prob.R, z, prob.p, inner_tol,
                                     guess=x).value
                   for m, z, x in zip(integrals, zs, current)]
        else:
            head = inner_fixed_point(zs[0].space.zero(), prob.R, zs[0],
                                     prob.p, inner_tol, guess=current[0])
            nxt = [expand(head.value, m.space) + m for m in integrals]
        delta = max(lp_norm(a - b, prob.p) for a, b in zip(nxt, current))
        current = nxt
        if delta < TOL and max(solver_module._node_residuals(current, prob)) \
                < TOL * (1 + cr) / (1 - cr):
            return sweep, current
    raise AssertionError("the reference loop did not converge")


@pytest.mark.parametrize("name, mode, n", [
    (name, mode, n) for name in sorted(PROBLEMS) for mode in NONLOCAL_MODES
    for n in ((4, 6) if name == "linear_pair" else (4, 8))])
def test_held_nodes_reach_the_fixed_point_of_re_solving_every_node(
        name, mode, n):
    # node k's integral reads nodes below k only, so a node held from sweep
    # k - k0 + 2 on keeps a value certified for its final equation
    prob = make_problem(name, n=n, nonlocal_mode=mode)
    report = picard_solve(prob, tol=TOL)
    sweeps, factors = _resolve_every_node(prob)
    assert report.picard_iterations == sweeps
    for a, b in zip(report.factors, factors, strict=True):
        assert lp_norm(a - b, prob.p) <= 2 * TOL
        if prob.R.is_zero:
            assert a.mat.tobytes() == b.mat.tobytes()


@pytest.mark.parametrize("mode", NONLOCAL_MODES)
def test_coefficient_runs_once_on_each_new_node_value(mode, monkeypatch):
    # a sweep's integrals evaluate F at the nodes below n that the previous
    # sweep re-solved (sweep 1: at every initial value), and the final
    # residual at those the last sweep re-solved; sweep s re-solves s - 1..n
    prob = make_problem("nonlocal_linear", n=6, nonlocal_mode=mode)
    n, F = prob.space.grid.n, prob.F
    sums, log = solver_module._cumulative_integrals, []

    def counted(x, t):
        log[-1].append(round(t * n))
        return F(x, t)

    def marked(*args):
        log.append([])
        return sums(*args)

    monkeypatch.setattr(solver_module, "_cumulative_integrals", marked)
    report = picard_solve(prob.replace(F=dataclasses.replace(F, fn=counted),
                                       validate=False), tol=TOL)
    first = [0] + list(range(report.picard_iterations))
    assert log == [list(range(s, n)) for s in first]


def _nan_drift_from(prob, t_bad):
    """prob with H = 0 before t_bad and NaN * x from t_bad on."""
    nan_h = CoefficientMap(
        fn=lambda x, t: (math.nan if t >= t_bad else 0.0) * x,
        modulus=prob.H.modulus, name="nan_drift")
    return prob.replace(H=nan_h, validate=False)


@pytest.mark.parametrize("mode", NONLOCAL_MODES)
def test_picard_names_the_node_of_a_non_finite_value(mode):
    # H(x, 0.5) is NaN, so M_3 (node 3 of 0..4) is the first NaN integral
    prob = make_problem("nonlocal_linear", n=4, nonlocal_mode=mode)
    with pytest.raises(ConvergenceError, match="non-finite") as exc:
        picard_solve(_nan_drift_from(prob, 0.5), tol=TOL)
    assert "node 3" in str(exc.value)


def test_initial_trajectory_must_cover_node_range():
    prob = make_problem("linear_full", n=4)
    short = AdaptedProcess(prob.space, [prob.Z] * 3)
    with pytest.raises(ValueError, match="cover"):
        picard_solve(prob, initial=short)


def test_initial_trajectory_from_another_space_is_rejected():
    # an n = 8 space's process on nodes 0..6 covers an n = 6 problem's node
    # range; its dimension-16 values were strided down to dimension 8
    prob = make_problem("nonlocal_linear", n=6)
    other = make_problem("nonlocal_linear", n=8)
    foreign = AdaptedProcess(other.space, [other.Z] * 7)
    with pytest.raises(ConfigurationError, match="initial") as exc:
        picard_solve(prob, initial=foreign)
    assert exc.value.key == "initial"


# -- the inner (nonlocal) fixed point ------------------------------------------


def test_inner_zero_map_returns_in_one_step():
    sp = make_space(TimeGrid.uniform(0.0, 1.0, 4))
    m = sp.generator(0) + 0.5 * sp.identity()
    res = inner_fixed_point(m, make_nonlocal("zero"), sp.identity(), 4.0, 1e-12)
    assert res.iterations == 1
    assert res.value.is_close(sp.identity() + m, tol=0.0)
    assert res.residual == 0.0


def test_inner_scale_fixed_point():
    sp = make_space(TimeGrid.uniform(0.0, 1.0, 4))
    res = inner_fixed_point(sp.zero(), make_nonlocal("scale", c=0.5),
                            sp.identity(), 4.0, 1e-12)
    assert lp_norm(res.value - 2.0 * sp.identity(), 4.0) <= 1e-11
    assert res.residual <= 0.5 * 1e-12 * (1 + 1e-9)


def test_inner_conditional_fixed_point_oracle():
    sp = make_space(TimeGrid.uniform(0.0, 1.0, 4))
    rmap = make_nonlocal("conditional_scale", c=0.5, level=0)
    m = sp.generator(0)
    res = inner_fixed_point(m, rmap, sp.identity(), 4.0, 1e-13)
    target = 2.0 * sp.identity() + sp.generator(0)
    assert lp_norm(res.value - target, 4.0) <= 1e-12
    # brute-force the same fixed point without the solver
    y = sp.identity() + m
    for _ in range(200):
        y = sp.identity() + rmap(y) + m
    assert lp_norm(res.value - y, 4.0) <= 1e-12


def test_inner_iteration_count_and_contraction_rate():
    # the rate is read off the every-step plain reference; the mixed loop
    # stops no later than plain iteration would
    sp = make_space(TimeGrid.uniform(0.0, 1.0, 4))
    c, tol = 0.5, 1e-10
    args = (sp.zero(), make_nonlocal("scale", c=c), sp.identity(), 4.0, tol)
    res = inner_fixed_point(*args)
    steps = _unscreened_inner(*args, 200)[2]
    bound = math.ceil(math.log(tol / steps[0]) / math.log(c)) + 1
    assert res.iterations <= bound
    for s0, s1 in zip(steps, steps[1:]):
        assert s1 <= c * s0 * (1 + 1e-6)
    assert res.iterations <= len(steps)
    assert res.steps[-1] <= tol


def test_inner_detects_expanding_map():
    sp = make_space(TimeGrid.uniform(0.0, 1.0, 4))
    liar = NonlocalMap(fn=lambda x: 1.25 * x, contraction=0.5, name="liar")
    with pytest.raises(ContractViolationError, match="expands"):
        inner_fixed_point(sp.zero(), liar, sp.identity(), 4.0, 1e-12)


def test_inner_warm_start_is_one_step_off_the_guess():
    sp = make_space(TimeGrid.uniform(0.0, 1.0, 4))
    rmap = make_nonlocal("scale", c=0.5)
    cold = inner_fixed_point(sp.zero(), rmap, sp.identity(), 4.0, 1e-12)
    warm = inner_fixed_point(sp.zero(), rmap, sp.identity(), 4.0, 1e-12,
                             guess=cold.value)
    assert warm.iterations == 1
    assert lp_norm(warm.value - cold.value, 4.0) <= 2e-12


def test_inner_stops_at_a_non_finite_step():
    sp = make_space(TimeGrid.uniform(0.0, 1.0, 4))
    m = sp.element(np.full((sp.dim, sp.dim), np.nan))
    with pytest.raises(ConvergenceError, match="non-finite") as exc:
        inner_fixed_point(m, make_nonlocal("scale", c=0.5), sp.identity(),
                          4.0, 1e-12, node=2)
    assert "node 2" in str(exc.value)
    assert len(exc.value.deltas) == 1


def test_inner_iteration_budget():
    # the budget's last step is measured: here the third, a plain step, so
    # it is the plain reference's third step bit for bit
    sp = make_space(TimeGrid.uniform(0.0, 1.0, 4))
    args = (sp.zero(), make_nonlocal("scale", c=0.5), sp.identity(), 4.0,
            1e-30)
    with pytest.raises(ConvergenceError, match="within 3 iterations") as exc:
        inner_fixed_point(*args, max_inner=3)
    assert exc.value.iterations == [3]
    assert exc.value.deltas == [_unscreened_inner(*args, 3)[2][2]]


# -- the mixed inner loop against plain Banach iteration -------------------------
#
# The reference below iterates y <- Z + R(y) + M and measures every step's
# L^p norm, as the loop did before mixing, with its failure rules: two
# successive growths and a non-finite step.  The mixed loop's first three
# iterates are the reference's bit for bit, so a stop among them is too;
# later it stops no later, within 2 C tol / (1 - C) of the reference.

SCREEN_P = (1.5, 2.0, 2.5, 3.0, 4.0, 6.0)
SCREEN_SPACE = make_space(TimeGrid.uniform(0.0, 1.0, 6))


def _unscreened_inner(M, R, Z, p, tol, max_inner, guess=None):
    """(value, iterations, steps): plain Banach iteration with every step
    measured; value None when the budget runs out."""
    y = Z + M if guess is None else Z + R(guess) + M
    steps = []
    for it in range(1, max_inner + 1):
        y_next = Z + R(y) + M
        steps.append(lp_norm(y_next - y, p))
        y = y_next
        if not math.isfinite(steps[-1]):
            raise ConvergenceError(f"non-finite step {steps[-1]!r}")
        if steps[-1] <= tol:
            return y, it, steps
        if len(steps) >= 3 and steps[-1] > steps[-2] * (1 + 1e-9) and \
                steps[-2] > steps[-3] * (1 + 1e-9):
            raise ContractViolationError("expands")
    return None, max_inner, steps


def _screen_case(seed, flat):
    sp = SCREEN_SPACE
    rng = np.random.default_rng(seed)
    if flat:
        z, m, g = rng.normal(size=3) + 1j * rng.normal(size=3)
        return z * sp.identity(), m * sp.identity(), g * sp.identity()
    z = rng.normal()
    M, G = (sp.element(rng.normal(size=(sp.dim, sp.dim))
                       + 1j * rng.normal(size=(sp.dim, sp.dim)))
            for _ in range(2))
    return z * sp.identity(), M, G


def _retraction(c, p):
    """c times the radial retraction onto the unit L^p ball, which is at
    most 2-Lipschitz: a contraction for c < 1/2 that is not affine."""
    def fn(x):
        r = lp_norm(x, p)
        return c * x if r <= 1.0 else (c / r) * x
    return NonlocalMap(fn=fn, contraction=2.0 * c, name="retraction")


def _recording(rmap, calls):
    """rmap, also appending the bytes of each argument to ``calls``."""
    def fn(x):
        calls.append(x.mat.tobytes())
        return rmap(x)
    return NonlocalMap(fn=fn, contraction=rmap.contraction, name=rmap.name)


@settings(max_examples=150, deadline=None)
@given(c=st.floats(min_value=0.0, max_value=0.95),
       rname=st.sampled_from(["scale", "conditional_scale"]),
       level=st.integers(min_value=0, max_value=6),
       p=st.sampled_from(SCREEN_P),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       flat=st.booleans(), warm=st.booleans(),
       max_inner=st.sampled_from([3, 37, 200]),
       data=st.data())
def test_screened_inner_loop_matches_the_unscreened_reference(
        c, rname, level, p, seed, flat, warm, max_inner, data):
    params = {"c": c, "level": level} if rname == "conditional_scale" \
        else {"c": c}
    rmap = make_nonlocal(rname, **params)
    Z, M, G = _screen_case(seed, flat)
    guess = G if warm else None
    if data.draw(st.booleans(), label="tol_is_a_step"):
        # tol equal to one of the reference's own steps (all above 1e-11,
        # far from the rounding floor of these magnitudes, or exactly 0 for
        # c = 0, which takes the least positive tol: a tol must be > 0)
        steps = _unscreened_inner(M, rmap, Z, p, 1e-11, max_inner, guess)[2]
        tol = steps[data.draw(st.integers(0, len(steps) - 1), label="i")] \
            or math.ulp(0.0)
    else:
        tol = 10.0 ** data.draw(st.floats(-11.0, -1.0), label="log_tol")
    value, iterations, steps = _unscreened_inner(M, rmap, Z, p, tol,
                                                 max_inner, guess)
    try:
        res = inner_fixed_point(M, rmap, Z, p, tol, max_inner, guess=guess)
    except ConvergenceError as exc:  # only where plain iteration ran out
        assert value is None
        assert exc.iterations[-1] == max_inner
        if max_inner == 3:  # three plain steps
            assert exc.deltas[-1] == steps[2]
        return
    assert res.steps[-1] <= tol
    assert res.residual <= c * tol * (1 + 1e-6) + 1e-14
    if value is None:  # plain iteration ran out, mixing did not
        assert max_inner > 3
    elif iterations <= 3:  # a stop among the plain steps is the reference's
        assert res.value.mat.tobytes() == value.mat.tobytes()
        assert res.iterations == iterations
        assert res.steps[-1] == steps[-1]
    else:
        assert res.iterations <= iterations


def _inner_map(rname, c, a, level, p):
    if rname == "liar":
        return NonlocalMap(fn=lambda x: a * x, contraction=0.5, name="liar")
    if rname == "retraction":
        return _retraction(c / 2.0, p)
    params = {"c": c, "level": level} if rname == "conditional_scale" \
        else {"c": c}
    return make_nonlocal(rname, **params)


@settings(max_examples=200, deadline=None)
@given(rname=st.sampled_from(["scale", "conditional_scale", "liar",
                              "retraction"]),
       c=st.floats(min_value=0.0, max_value=0.95),
       a=st.floats(min_value=1.0, max_value=1.5),
       level=st.integers(min_value=0, max_value=6),
       p=st.sampled_from(SCREEN_P),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       flat=st.booleans(), warm=st.booleans(),
       size=st.sampled_from([0.01, 0.3, 1.0, 1e160]),
       log_tol=st.floats(-11.0, -1.0),
       max_inner=st.sampled_from([3, 37, 200]))
@np.errstate(over="ignore", invalid="ignore")  # size 1e160 overflows
def test_inner_outcome_agrees_with_plain_banach(
        rname, c, a, level, p, seed, flat, warm, size, log_tol, max_inner):
    # where plain iteration stops, the mixed loop stops near it, no later
    # on the affine maps; where plain iteration fails, the mixed loop fails
    # the same way; the iterates of the three plain steps are the
    # reference's bytes.  On the retraction a plain step can land on an
    # exact fixed point (a step of 0.0, seen on flat data) that the mixed
    # point misses: one more step then
    rmap = _inner_map(rname, c, a, level, p)
    Z, M, G = (size * x for x in _screen_case(seed, flat))
    tol, guess = 10.0 ** log_tol, G if warm else None
    ref_calls, calls = [], []
    args = (M, _recording(rmap, ref_calls), Z, p, tol, max_inner)
    try:
        value, iterations, _ = _unscreened_inner(*args, guess)
    except (ContractViolationError, ConvergenceError) as exc:
        with pytest.raises(type(exc)):
            inner_fixed_point(M, _recording(rmap, calls), Z, p, tol,
                              max_inner, guess=guess)
        value = None
    else:
        try:
            res = inner_fixed_point(M, _recording(rmap, calls), Z, p, tol,
                                    max_inner, guess=guess)
        except ConvergenceError as exc:  # only where plain iteration ran out
            assert value is None and "within" in str(exc)
            res = None
    plain = warm + 3  # R(guess), then R at the iterates y0, y1, y2
    assert calls[:plain] == ref_calls[:plain]
    if value is not None:
        cr = rmap.contraction
        assert res.iterations <= iterations + (rname == "retraction")
        assert lp_norm(res.value - value, p) <= 2 * cr * tol / (1 - cr)


@settings(max_examples=100, deadline=None)
@given(c=st.floats(min_value=0.0, max_value=0.999999),
       rname=st.sampled_from(["scale", "conditional_scale"]),
       p=st.sampled_from(SCREEN_P),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       flat=st.booleans(), warm=st.booleans(),
       log_tol=st.floats(-20.0, -16.0))
# two rises of noise at the floor, 0.6-1.2 eps ||g(y)||_2, once read as growth
@example(c=0.99999, rname="conditional_scale", p=1.5, seed=3469, flat=False,
         warm=False, log_tol=-16.0)
def test_inner_stall_below_the_rounding_floor_is_the_budget_failure(
        c, rname, p, seed, flat, warm, log_tol):
    # below the rounding floor the steps stall at noise, which must end in
    # the budget failure, not in a false expansion; a mixed step may also
    # land on an exact floating-point fixed point, a step of 0
    Z, M, G = _screen_case(seed, flat)
    tol = 10.0 ** log_tol
    try:
        res = inner_fixed_point(M, make_nonlocal(rname, c=c), Z, p, tol,
                                guess=G if warm else None)
    except ConvergenceError as exc:
        assert "within 200 iterations" in str(exc)
    else:
        assert res.steps[-1] <= tol


def test_near_one_contraction_stalls_into_the_budget_failure():
    # R.c = 0.999999 asks for the inner tol 1e-10 (1 - c) / 10 = 1e-17
    Z, M, _ = _screen_case(11, flat=False)
    for p in SCREEN_P:
        with pytest.raises(ConvergenceError, match="within 200 iterations"):
            inner_fixed_point(M, make_nonlocal("scale", c=0.999999), Z, p,
                              1e-17, guess=SCREEN_SPACE.identity())


def test_converging_inner_solve_measures_only_the_steps_that_can_stop_it():
    Z, M, _ = _screen_case(5, flat=False)
    rmap = make_nonlocal("conditional_scale", c=0.5, level=3)
    p, tol = 4.0, 1e-10
    bound = SCREEN_SPACE.dim ** (0.5 - 1.0 / p) * (1 + 1e-9)
    calls = []

    def counting(x, q):
        calls.append((q, lp_norm(x, q)))
        return calls[-1][1]

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_module, "lp_norm", counting)
        res = inner_fixed_point(M, rmap, Z, p, tol)
        solve, steps = calls[:], res.steps
    # one ||d||_2 per step; ||d||_p only after one within tol that the
    # L^2 bound leaves open; the stop, certified by the bound, takes its
    # ||d||_p only when ``steps`` is read
    assert [q for q, _ in solve].count(2) == res.iterations
    exact = [i for i, (q, _) in enumerate(solve) if q != 2]
    assert all(tol < solve[i - 1][1] * bound and
               solve[i - 1][1] <= tol * (1 + 1e-9) for i in exact)
    assert solve[-1][0] == 2 and solve[-1][1] * bound <= tol
    assert [q for q, _ in calls[len(solve):]] == [p]
    assert steps == tuple(solve[i][1] for i in exact) + (calls[-1][1],)
    assert steps[-1] <= tol
    assert 4 <= res.iterations < _unscreened_inner(M, rmap, Z, p, tol, 200)[1]


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0])
@pytest.mark.parametrize("m", [0.3, 1.7 - 0.2j, 1e-3])
def test_flat_step_at_exactly_tol_still_stops(p, m):
    # d = a * I has ||d||_2 == ||d||_p up to rounding in either norm; a tol
    # equal to one of the reference's plain steps must stop there even if
    # the rounded L^2 bound lands just above it, on its exact ||d||_p, as
    # dim^(1/2 - 1/p) ||d||_2 exceeds tol; a later step's tol stops the
    # mixed loop no later
    sp = SCREEN_SPACE
    rmap = make_nonlocal("scale", c=0.5)
    Z, M = 1.3 * sp.identity(), m * sp.identity()
    steps = _unscreened_inner(M, rmap, Z, p, 1e-11, 200)[2]
    for i, tol in enumerate(steps):
        res = inner_fixed_point(M, rmap, Z, p, tol)
        if i < 3:
            assert (res.iterations, res.steps[-1]) == (i + 1, tol)
            assert res.certified is None
        else:
            assert res.iterations <= i + 1 and res.steps[-1] <= tol


@pytest.mark.parametrize("name", ["nonlocal_linear", "nonlocal_conditional",
                                  "selfadjoint_nonlocal"])
def test_converging_solves_certify_every_inner_stop_from_the_l2_norm(
        name, monkeypatch):
    # every stop of these solves has ||d||_2 far below tol / dim^(1/2 - 1/p),
    # so no inner solve forms a Gram product for ||d||_p
    counter = _GramNormCounter()
    grams = []
    real_inner = solver_module.inner_fixed_point

    def inner(*args, **kwargs):
        before = counter.gram
        res = real_inner(*args, **kwargs)
        grams.append(counter.gram - before)
        return res

    monkeypatch.setattr(solver_module, "lp_norm", counter)
    monkeypatch.setattr(solver_module, "inner_fixed_point", inner)
    picard_solve(make_problem(name, n=8), tol=TOL)
    assert grams and sum(grams) == 0


def _inner_outcome(*args, **kwargs):
    """inner_fixed_point's value bytes, iterations and steps (read after
    the solve), or its failure's class, message and trace."""
    try:
        res = inner_fixed_point(*args, **kwargs)
    except (ContractViolationError, ConvergenceError) as exc:
        return (type(exc), str(exc), getattr(exc, "deltas", None),
                getattr(exc, "iterations", None))
    return res.value.mat.tobytes(), res.iterations, res.steps


@settings(max_examples=150, deadline=None)
@given(c=st.floats(min_value=0.0, max_value=0.95),
       rname=st.sampled_from(["scale", "conditional_scale", "liar"]),
       p=st.sampled_from([2.5, 3.0, 4.0, 6.0]),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       flat=st.booleans(), warm=st.booleans(),
       max_inner=st.sampled_from([3, 37, 200]),
       data=st.data())
def test_l2_certified_stop_matches_the_exact_stop_rule(
        c, rname, p, seed, flat, warm, max_inner, data):
    # with the L^2 bound's factor forced to inf every stop is decided on
    # the exact ||d||_p, as before the certificate; the certified loop must
    # give the same value bytes, iterations, steps and failure
    rmap = _inner_map(rname, c, 1.25, 3, p)
    Z, M, G = _screen_case(seed, flat)
    guess = G if warm else None
    if data.draw(st.booleans(), label="tol_is_a_step"):
        # a plain step of the map (of R = c x for the liar, which expands)
        ref = make_nonlocal("scale", c=c) if rname == "liar" else rmap
        steps = _unscreened_inner(M, ref, Z, p, 1e-11, max_inner, guess)[2]
        tol = steps[data.draw(st.integers(0, len(steps) - 1), label="i")] \
            or math.ulp(0.0)
    else:
        tol = 10.0 ** data.draw(st.floats(-11.0, -1.0), label="log_tol")
    args = (M, rmap, Z, p, tol, max_inner)
    got = _inner_outcome(*args, guess=guess)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_module, "_lp_over_l2_bound", lambda dim, q: math.inf)
        assert got == _inner_outcome(*args, guess=guess)


@pytest.mark.parametrize("p", [2.5, 3.0, 4.0, 6.0])
@pytest.mark.parametrize("m", [0.3, 1.7 - 0.2j, 1e-3])
def test_rank_one_step_at_exactly_tol_is_not_certified(p, m):
    # a rank-one d meets ||d||_p <= dim^(1/2 - 1/p) ||d||_2 with equality,
    # and only the bound's margin keeps it from certifying a step at
    # exactly tol: that step stops on its exact ||d||_p, taken in the loop
    sp = SCREEN_SPACE
    unit = np.zeros((sp.dim, sp.dim))
    unit[0, 0] = 1.0
    rmap = make_nonlocal("scale", c=0.5)
    Z, M = sp.zero(), m * sp.element(unit)  # every plain step is c^k M
    for i, tol in enumerate(_unscreened_inner(M, rmap, Z, p, 1e-11, 200)[2]):
        res = inner_fixed_point(M, rmap, Z, p, tol)
        if i < 3:
            assert (res.iterations, res.steps[-1]) == (i + 1, tol)
            assert res.certified is None


def test_inner_mixing_keeps_a_selfadjoint_solve_exactly_selfadjoint():
    # real mixing coefficients combine self-adjoint differences into a
    # self-adjoint point, bit for bit
    sp = SCREEN_SPACE
    rng = np.random.default_rng(3)
    a = rng.normal(size=(sp.dim, sp.dim)) + 1j * rng.normal(size=(sp.dim,
                                                                   sp.dim))
    M = sp.element(a + a.conj().T)
    for rname in ("scale", "conditional_scale"):
        rmap = make_nonlocal(rname, c=0.7)
        assert rmap.selfadjoint_preserving
        for guess in (None, sp.identity()):
            res = inner_fixed_point(M, rmap, 0.5 * sp.identity(), 4.0,
                                    1e-12, guess=guess)
            assert res.iterations > 3  # the solve mixed
            assert res.value.selfadjoint_defect(4.0) == 0.0


def _classified_inner(M, rmap, Z, p, tol):
    """(result, kinds): the inner solve, each step after the first named by
    its R argument's bytes: g of the last point ("plain"), g of the point
    before ("safeguard") or neither ("mixed")."""
    args, gs = [], []

    def fn(x):
        args.append(x.mat.tobytes())
        r = rmap(x)
        gs.append((Z + r + M).mat.tobytes())
        return r

    res = inner_fixed_point(M, NonlocalMap(fn=fn, contraction=rmap.contraction,
                                           name=rmap.name), Z, p, tol)
    kinds = ["plain" if a == gs[i - 1] else
             "safeguard" if i >= 2 and a == gs[i - 2] else "mixed"
             for i, a in enumerate(args[1:], 1)]
    return res, kinds


#: the values of the two solves below, as the m-general mixing loop that
#: the closed-form secant step replaced returned them
_MIXED_VALUES = np.load(DATA / "inner_mixed_values.npy")


@pytest.mark.parametrize("i, rmap, scale, seed, flat, tol, iterations, "
                         "steps, safeguards", [
    (0, _retraction(0.45, 4.0), 0.1, 26, False, 1e-12, 6,
     (6.607875443905681e-17,), 0),
    # R = 1.0 x has no fixed point: the secant steps overshoot until Z + M
    # is absorbed by the size of y, a step of exactly 0
    (1, NonlocalMap(fn=lambda x: 1.0 * x, contraction=0.5, name="liar"),
     0.01, 0, True, 1e-8, 36, (0.0,), 3),
])
def test_mixed_inner_iterates_are_pinned(i, rmap, scale, seed, flat, tol,
                                         iterations, steps, safeguards):
    # past the three plain steps, bit for bit up to the sign of a zero
    Z, M, _ = (scale * x for x in _screen_case(seed, flat))
    res, kinds = _classified_inner(M, rmap, Z, 4.0, tol)
    assert (res.iterations, res.steps) == (iterations, steps)
    assert np.array_equal(res.value.mat, _MIXED_VALUES[i])
    assert kinds[:2] == ["plain", "plain"] and "mixed" in kinds
    assert kinds.count("safeguard") == safeguards


@pytest.mark.parametrize("bad", [math.inf, -math.inf, complex(0, math.inf)])
@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0, 6.0])
@pytest.mark.parametrize("rname", ["scale", "conditional_scale"])
def test_inner_infinite_entry_raises_at_the_first_iteration(bad, p, rname):
    sp = SCREEN_SPACE
    mat = np.zeros((sp.dim, sp.dim), dtype=complex)
    mat[2, 5] = bad
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(ConvergenceError, match="non-finite") as exc:
            inner_fixed_point(sp.element(mat), make_nonlocal(rname, c=0.5),
                              sp.identity(), p, 1e-12, node=3)
    assert "at node 3" in str(exc.value)
    assert exc.value.iterations == [1]


@pytest.mark.parametrize("scale", [1e100, 1e154, 1e200])
@pytest.mark.parametrize("p", [4.0, 6.0])
@pytest.mark.parametrize("warm", [False, True])
def test_inner_overflowing_step_norm_never_returns(scale, p, warm):
    # ||d||_2 may be finite while the trace power behind ||d||_p overflows;
    # the screen must not let such a step pass as converged
    sp = SCREEN_SPACE
    rng = np.random.default_rng(7)
    M = scale * sp.element(rng.choice([-1.0, 1.0], size=(sp.dim, sp.dim)))
    guess = sp.identity() if warm else None
    with np.errstate(invalid="ignore", over="ignore"):
        with pytest.raises(ConvergenceError, match="non-finite"):
            inner_fixed_point(M, make_nonlocal("scale", c=0.5),
                              sp.identity(), p, 1e-12, guess=guess)


@pytest.mark.parametrize("p", [2.0, 2.5, 3.0, 4.0, 6.0])
def test_inner_expansion_reports_the_per_step_rate(p):
    sp = SCREEN_SPACE
    liar = NonlocalMap(fn=lambda x: 1.25 * x, contraction=0.5, name="liar")
    with pytest.raises(ContractViolationError,
                       match=r"expands \(measured rate 1\.250 >= 1\)"):
        inner_fixed_point(sp.generator(1), liar, sp.identity(), p, 1e-12)


def _gram_norm_budget(iterations, dim, p, c):
    """Exact (p != 2) norms a converged inner solve may take: checkpoints
    1, 2, 4, ... up to ``iterations`` (taken only by a replay), the
    stopping step and the residual, plus the misses, steps with
    ||d||_2 <= tol < ||d||_p.  On dimension ``dim`` the two norms differ
    by at most r = dim^(1/2 - 1/p) and each step shrinks ||d||_p by c, so
    after the first miss at most log(r) / log(1/c) more follow.  A flat
    spectrum has r = 1: no misses beyond rounding."""
    misses = 0
    if c > 0:
        r = dim ** (0.5 - 1.0 / p) * (1 + 1e-9)
        misses = 1 + math.floor(math.log(r) / math.log(1.0 / c))
    return math.floor(math.log2(iterations)) + 3 + misses


class _GramNormCounter:
    """Wraps solver.lp_norm: ``gram`` counts the calls with p != 2."""

    def __init__(self):
        self.gram = 0

    def __call__(self, x, p):
        self.gram += p != 2
        return lp_norm(x, p)


@pytest.mark.parametrize("name, mode", [
    ("nonlocal_linear", "pointwise"), ("nonlocal_linear", "initial"),
    ("nonlocal_conditional", "pointwise"),
    ("nonlocal_conditional", "initial"), ("osgood_radial", "pointwise")])
def test_inner_solves_take_logarithmically_many_exact_norms(
        name, mode, monkeypatch):
    prob = make_problem(name, n=8, nonlocal_mode=mode)
    counter = _GramNormCounter()
    counts = []
    real_inner = solver_module.inner_fixed_point

    def inner(*args, **kwargs):
        before = counter.gram
        res = real_inner(*args, **kwargs)
        counts.append((res.iterations, counter.gram - before))
        return res

    monkeypatch.setattr(solver_module, "lp_norm", counter)
    monkeypatch.setattr(solver_module, "inner_fixed_point", inner)
    picard_solve(prob, tol=TOL)
    if name == "osgood_radial":  # R is the zero map: no inner solve runs
        assert counts == []
        return
    assert counts
    c = prob.R.contraction
    for iterations, gram_norms in counts:
        assert gram_norms <= _gram_norm_budget(iterations, prob.space.dim,
                                               prob.p, c)
    if name == "nonlocal_conditional":
        # after one step R's output is a scalar: flat spectrum, no misses
        for iterations, gram_norms in counts:
            assert gram_norms <= math.floor(math.log2(iterations)) + 3


@settings(max_examples=60, deadline=None)
@given(c=st.floats(min_value=0.0, max_value=0.95),
       rname=st.sampled_from(["scale", "conditional_scale"]),
       p=st.sampled_from([2.5, 3.0, 4.0, 6.0]),
       seed=st.integers(min_value=0, max_value=2**32 - 1),
       flat=st.booleans(), warm=st.booleans(),
       log_tol=st.floats(-11.0, -1.0))
def test_inner_exact_norm_count_is_logarithmic(c, rname, p, seed, flat, warm,
                                               log_tol):
    sp = SCREEN_SPACE
    rmap = make_nonlocal(rname, c=c)
    Z, M, G = _screen_case(seed, flat)
    counter = _GramNormCounter()
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(solver_module, "lp_norm", counter)
        res = inner_fixed_point(M, rmap, Z, p, 10.0 ** log_tol,
                                max_inner=1000, guess=G if warm else None)
    budget = (math.floor(math.log2(res.iterations)) + 3 if flat
              else _gram_norm_budget(res.iterations, sp.dim, p, c))
    assert counter.gram <= budget


@pytest.mark.parametrize("fixture, name, mode", [
    ("solve_n8_nonlocal_linear_pointwise.csv", "nonlocal_linear",
     "pointwise"),
    ("solve_n8_nonlocal_conditional_pointwise.csv", "nonlocal_conditional",
     "pointwise"),
    ("solve_n8_nonlocal_conditional_initial.csv", "nonlocal_conditional",
     "initial"),
    ("solve_n8_osgood_radial_pointwise.csv", "osgood_radial", "pointwise"),
    ("solve_n8_linear_drift_pointwise.csv", "linear_drift", "pointwise"),
])
def test_solve_output_matches_the_committed_bytes(fixture, name, mode,
                                                  monkeypatch):
    # the fixtures pin trajectory_csv() + iteration_csv() of the default
    # solve; a change that means to alter them must say so and rewrite them.
    # Both CSVs come from the stored level factors: no dense trajectory
    def no_dense(*args, **kw):
        raise AssertionError("the solve built a dense trajectory")

    monkeypatch.setattr(AdaptedProcess, "from_factors", no_dense)
    report = picard_solve(make_problem(name, n=8, nonlocal_mode=mode))
    text = report.trajectory_csv() + report.iteration_csv()
    assert text.encode() == (DATA / fixture).read_bytes()


def test_a_level_3_conditional_solve_matches_the_committed_bytes():
    # R = 0.5 E(x | 3) takes a partial trace on the solve's larger factor
    # spaces; the fixture is the output of CI's n8-level3.cfg
    raw = {**PROBLEMS["nonlocal_linear"], "R.name": "conditional_scale",
           "R.level": 3}
    report = picard_solve(build_problem(raw)[0])
    text = report.trajectory_csv() + report.iteration_csv()
    assert text.encode() == (
        DATA / "solve_n8_conditional_level3_pointwise.csv").read_bytes()


# -- the built-in zero map's terms are not formed ---------------------------------

_WITH_ZERO_MAP = [name for name, raw in PROBLEMS.items()
                  if any(raw.get(f"{r}.name", "zero") == "zero" for r in "FGHR")]


def _full_path(problem):
    """``problem`` with each built-in zero map swapped for a map that
    returns 0 from another function, which the solve does not skip."""
    return problem.replace(validate=False, **{
        r: dataclasses.replace(m, fn=lambda x, *t: x.space.zero())
        for r in "FGHR" if _is_zero_map(m := getattr(problem, r))})


@pytest.mark.parametrize("n", [4, 8])
@pytest.mark.parametrize("mode", NONLOCAL_MODES)
@pytest.mark.parametrize("name", _WITH_ZERO_MAP)
def test_skipping_the_zero_maps_keeps_every_output_byte(name, mode, n):
    prob = make_problem(name, n=n, nonlocal_mode=mode, max_generators=16)
    full = _full_path(prob)
    assert not any(_is_zero_map(getattr(full, r)) for r in "FGHR")
    got, want = picard_solve(prob), picard_solve(full)
    assert got.trajectory_csv() + got.iteration_csv() == \
        want.trajectory_csv() + want.iteration_csv()
    assert got.picard_iterations == want.picard_iterations
    assert got.inner_iterations == want.inner_iterations


def test_an_osgood_sweep_forms_no_zero_image(monkeypatch):
    # only F, the radial map, is live: the sweeps form no zero image of G,
    # H or R and run no inner solve against R = 0; one zero starts the
    # sum, and the residual check forms R's image at each of the n + 1
    # nodes.  Maps that return 0 from another function are all formed,
    # 188 zeros at n = 8
    prob = make_problem("osgood_radial", n=8)
    bound = 1 + prob.space.grid.n + 1
    calls = []
    real_zero = CliffordSpace.zero

    def counted(space):
        calls.append(space.dim)
        return real_zero(space)

    monkeypatch.setattr(CliffordSpace, "zero", counted)
    picard_solve(prob)
    assert len(calls) <= bound
    calls.clear()
    picard_solve(_full_path(prob))
    assert len(calls) > bound


# -- nonlocal problems ----------------------------------------------------------


@pytest.mark.parametrize("name", ["nonlocal_linear", "nonlocal_conditional"])
def test_nonlocal_problems_converge(name):
    prob = make_problem(name, n=6)
    report = picard_solve(prob, tol=TOL)
    cr = prob.R.contraction
    assert report.residual < TOL * (1 + cr) / (1 - cr)
    assert residual(report.trajectory, prob) < 1e-8


@pytest.mark.parametrize("name", ["nonlocal_linear", "nonlocal_conditional"])
def test_uniqueness_from_distinct_starts(name):
    prob = make_problem(name, n=4)
    assert uniqueness_probe(prob, tol=TOL) < 2 * TOL


def test_uniqueness_probe_zero_problem():
    assert uniqueness_probe(make_problem("zero", n=4)) == 0.0


@pytest.mark.parametrize("seed", [-1, 1.5, True, False, "3", None])
def test_uniqueness_probe_rejects_a_bad_seed_before_any_solve(seed,
                                                             monkeypatch):
    # -1 and 1.5 surfaced numpy's ValueError and TypeError; True ran as 1
    def no_solve(*args, **kwargs):
        raise AssertionError("the probe solved")

    monkeypatch.setattr(solver_module, "picard_solve", no_solve)
    with pytest.raises(ConfigurationError, match="seed out of range") as exc:
        uniqueness_probe(make_problem("zero", n=4), seed=seed)
    assert exc.value.key == "seed"


def test_uniqueness_probe_takes_a_numpy_integer_seed():
    prob = make_problem("nonlocal_linear", n=4)
    assert uniqueness_probe(prob, seed=np.int64(5)) == \
        uniqueness_probe(prob, seed=5)


def test_initial_mode_converges_and_differs_from_pointwise():
    point = picard_solve(make_problem("nonlocal_linear", n=6), tol=TOL)
    init = picard_solve(
        make_problem("nonlocal_linear", n=6, nonlocal_mode="initial"), tol=TOL)
    assert init.residual < TOL * 3.0
    # pointwise feeds R(X_t) at every node; anchoring R at the start node
    # changes the trajectory by an order-one amount on this instance
    gap = _sup_dist(point.trajectory, init.trajectory, 4.0)
    assert gap > 1.0


def test_picard_iteration_budget():
    with pytest.raises(ConvergenceError) as exc:
        picard_solve(make_problem("nonlocal_linear", n=4), tol=1e-12,
                     max_outer=2)
    assert len(exc.value.deltas) == 2


# -- residual diagnostics -------------------------------------------------------


def test_residual_zero_on_exact_solution():
    prob = make_problem("zero", n=4)
    report = picard_solve(prob)
    assert residual(report.trajectory, prob) == 0.0


def test_residual_detects_a_perturbed_node():
    prob = make_problem("zero", n=4)
    values = list(picard_solve(prob).trajectory.values)
    values[3] = values[3] + 0.1 * prob.space.generator(0)
    bent = AdaptedProcess(prob.space, values)
    assert abs(residual(bent, prob) - 0.1) < 1e-12


@pytest.mark.parametrize("node, generator", [(2, 2), (1, 1)])
def test_residual_counts_a_non_adapted_term_in_full(node, generator):
    # e_1 at node 1 lies on the pattern A (x) I of the node's level factor:
    # the term is not adapted but within the defect threshold, so it is
    # held, and the residual must see all of it (R = 0 here); e_2 at node 2
    # lies off the pattern, which the process rejects, naming the node
    prob = make_problem("linear_full", n=4)
    values = list(picard_solve(prob).trajectory.values)
    term = 1e-9 * prob.space.generator(generator)
    values[node] = values[node] + term
    if node == 2:
        with pytest.raises(AdaptednessError, match="value at node 2 has a "
                           "non-zero entry off the level-2 pattern"):
            AdaptedProcess(prob.space, values)
        return
    bent = AdaptedProcess(prob.space, values)
    assert residual(bent, prob) >= lp_norm(term, prob.p) * (1 - 1e-6)


def test_residual_rejects_a_trajectory_from_another_space():
    # an n = 8 solve's trajectory on nodes 0..6 covers an n = 6 problem's
    # node range; strided down to dimension 8 it gave a residual of 0.696
    prob = make_problem("nonlocal_linear", n=6)
    other = make_problem("nonlocal_linear", n=8)
    values = picard_solve(other, tol=TOL).trajectory.values[:7]
    foreign = AdaptedProcess(other.space, values)
    with pytest.raises(ConfigurationError, match="trajectory") as exc:
        residual(foreign, prob)
    assert exc.value.key == "trajectory"


def test_residual_rejects_wrong_node_range():
    prob = make_problem("zero", n=4)
    stub = AdaptedProcess(prob.space, [prob.Z] * 4, start_node=1)
    with pytest.raises(ValueError, match="node range"):
        residual(stub, prob)


def test_euler_oracle_requires_local_equation():
    with pytest.raises(ConfigurationError, match="R = 0"):
        forward_euler_oracle(make_problem("nonlocal_linear", n=4))


def test_euler_oracle_rejects_a_constant_nonlocal_map():
    # R(x) = 0.5 I keeps contraction 0, so R.is_zero holds; the oracle's
    # trajectory ended 0.927 from the Picard solve's in L^4
    prob = perturb_problem(make_problem("linear_field", n=4), 0.5,
                           parts=("R",))
    assert prob.R.is_zero
    with pytest.raises(ConfigurationError, match="R = 0"):
        forward_euler_oracle(prob)


# -- problem construction contracts ---------------------------------------------


def _bare(space, p=4.0, **kw):
    args = dict(
        space=space,
        F=make_coefficient("zero", p),
        G=make_coefficient("zero", p),
        H=make_coefficient("zero", p),
        R=make_nonlocal("zero"),
        Z=space.identity(),
        driver=Driver.fermion_field(),
        p=p,
    )
    args.update(kw)
    return QsdeProblem(**args)


def test_problem_needs_p_above_two():
    sp = make_space(TimeGrid.uniform(0.0, 1.0, 4))
    with pytest.raises(ValueError, match="p > 2"):
        _bare(sp, p=2.0)


@pytest.mark.parametrize("p", (math.inf, math.nan))
def test_problem_needs_finite_p(p):
    sp = make_space(TimeGrid.uniform(0.0, 1.0, 4))
    with pytest.raises(ValueError, match="p > 2"):
        _bare(sp, p=p)


def test_problem_rejects_unknown_nonlocal_mode():
    sp = make_space(TimeGrid.uniform(0.0, 1.0, 4))
    with pytest.raises(ValueError, match="nonlocal_mode"):
        _bare(sp, nonlocal_mode="terminal")


def test_problem_rejects_driver_layout_mismatch():
    pair = make_space(TimeGrid.uniform(0.0, 1.0, 4), layout="pair")
    with pytest.raises(DriverMismatchError):
        _bare(pair)


def test_problem_rejects_non_measurable_initial_value():
    sp = make_space(TimeGrid.uniform(0.0, 1.0, 4))
    with pytest.raises(AdaptednessError, match="level-0"):
        _bare(sp, Z=sp.generator(0))


def test_problem_rejects_foreign_initial_value():
    sp = make_space(TimeGrid.uniform(0.0, 1.0, 4))
    other = make_space(TimeGrid.uniform(0.0, 1.0, 2))
    with pytest.raises(ConfigurationError, match="different space"):
        _bare(sp, Z=other.identity())


def test_problem_rejects_out_of_range_start_node():
    sp = make_space(TimeGrid.uniform(0.0, 1.0, 4))
    with pytest.raises(ValueError, match="start_node"):
        _bare(sp, start_node=4)


def test_start_node_shifts_the_solve_window():
    sp = make_space(TimeGrid.uniform(0.0, 1.0, 4))
    emap = CoefficientMap(fn=lambda x, t: x.space.generator(0),
                          modulus=OsgoodModulus.from_lipschitz(0.0),
                          name="const_e0")
    f_side = _bare(sp, F=emap, start_node=1)
    g_side = _bare(sp, G=emap, start_node=1)
    fr = picard_solve(f_side)
    gr = picard_solve(g_side)
    assert fr.trajectory.start_node == 1 and len(fr.trajectory) == 4
    assert _sup_dist(fr.trajectory, forward_euler_oracle(f_side), 4.0) <= EULER_GAP
    assert _sup_dist(gr.trajectory, forward_euler_oracle(g_side), 4.0) <= EULER_GAP
    # e0 anticommutes with the later increments, so the two placements
    # genuinely differ
    assert _sup_dist(fr.trajectory, gr.trajectory, 4.0) > 1.0


def test_combined_lipschitz_constant():
    prob = make_problem("linear_full", n=4)
    assert prob.is_lipschitz
    assert abs(prob.combined_lipschitz() - 0.5625) < 1e-15


def test_combined_lipschitz_undefined_for_osgood():
    prob = make_problem("osgood_radial", n=4)
    assert not prob.is_lipschitz
    with pytest.raises(ContractViolationError, match="Osgood"):
        prob.combined_lipschitz()


def test_replace_builds_a_new_problem():
    prob = make_problem("linear_full", n=4)
    other = prob.replace(p=6.0)
    assert other.p == 6.0 and prob.p == 4.0
    assert other.space is prob.space


def test_unknown_problem_name():
    with pytest.raises(KeyError):
        make_problem("heat_equation")


# -- reports ---------------------------------------------------------------------


def test_report_csv_shapes():
    prob = make_problem("nonlocal_linear", n=4)
    report = picard_solve(prob, tol=TOL)
    traj = report.trajectory_csv()
    iters = report.iteration_csv()
    assert traj.startswith("node,time,lp_norm,residual,selfadjoint_defect\n")
    assert iters.startswith(
        "iteration,delta,inner_iterations,adapted_defect,selfadjoint_defect\n")
    traj_rows = list(csv.DictReader(io.StringIO(traj)))
    assert len(traj_rows) == 5
    assert [int(r["node"]) for r in traj_rows] == [0, 1, 2, 3, 4]
    for row in traj_rows:
        assert float(row["residual"]) < 1e-8
    iter_rows = list(csv.DictReader(io.StringIO(iters)))
    assert len(iter_rows) == report.picard_iterations
    # the last sweep holds every node: it solves none
    inner = [int(r["inner_iterations"]) for r in iter_rows]
    assert min(inner[:-1]) >= 1 and inner[-1] == 0


def test_iterates_stay_adapted():
    report = picard_solve(make_problem("nonlocal_conditional", n=6), tol=TOL)
    assert max(report.adapted_defects) < 1e-10
    # measured again on the level factors, each at its node's level
    sp = report.problem.space
    assert max(adaptedness_defect(a, sp.level_of_node(k), 2)
               for k, a in enumerate(report.factors)) < 1e-10


# -- self-adjointness preservation ------------------------------------------------


def test_selfadjoint_problem_stays_selfadjoint():
    prob = make_problem("selfadjoint_nonlocal", n=6)
    worst = selfadjoint_solve_check(prob, tol=TOL)
    assert worst <= 1e-10


def test_selfadjoint_check_requires_even_coefficients():
    with pytest.raises(ContractViolationError, match="parity_even"):
        selfadjoint_solve_check(make_problem("linear_full", n=4))


def test_selfadjoint_check_requires_selfadjoint_start():
    prob = make_problem("selfadjoint_nonlocal", n=4)
    skew = prob.replace(Z=1j * prob.space.identity(), validate=False)
    with pytest.raises(ContractViolationError, match="self-adjoint"):
        selfadjoint_solve_check(skew)


@pytest.mark.parametrize("kwargs, name", [
    ({"max_outer": 0}, "max_outer"), ({"max_outer": -3}, "max_outer"),
    ({"max_inner": 0}, "max_inner"), ({"tol": 0.0}, "tol"),
    ({"tol": -1e-10}, "tol"), ({"tol": math.nan}, "tol"),
    ({"tol": math.inf}, "tol"), ({"max_outer": 2.5}, "max_outer"),
    ({"max_outer": True}, "max_outer"), ({"max_inner": True}, "max_inner"),
    ({"max_inner": 3.0}, "max_inner"), ({"tol": True}, "tol"),
])
def test_picard_solve_rejects_bad_arguments_before_any_sweep(
        monkeypatch, kwargs, name):
    def no_sweep(*args):
        raise AssertionError("a sweep ran")

    prob = make_problem("nonlocal_linear", n=4)
    monkeypatch.setattr(solver_module, "_cumulative_integrals", no_sweep)
    with pytest.raises(ValueError, match=name):
        picard_solve(prob, **kwargs)


@pytest.mark.parametrize("kwargs, name", [
    ({"max_inner": 0}, "max_inner"), ({"max_inner": -1}, "max_inner"),
    ({"max_inner": True}, "max_inner"), ({"max_inner": 2.5}, "max_inner"),
    ({"tol": 0.0}, "tol"), ({"tol": -1e-10}, "tol"),
    ({"tol": math.nan}, "tol"), ({"tol": math.inf}, "tol"),
])
def test_inner_fixed_point_rejects_bad_arguments_before_any_step(
        kwargs, name):
    sp = make_space(TimeGrid.uniform(0.0, 1.0, 4))

    def no_step(x):
        raise AssertionError("a step ran")

    rmap = NonlocalMap(fn=no_step, contraction=0.5, name="no_step")
    args = {"M": sp.zero(), "R": rmap, "Z": sp.identity(), "p": 4.0,
            "tol": 1e-10, **kwargs}
    with pytest.raises(ValueError, match=name):
        inner_fixed_point(**args)
