"""Picard solver: exact oracles, convergence contracts, and error paths.

Closed-form oracles used below:
  * dX = X dt on a uniform n-step grid compounds to (1 + 1/n)^n * Z.
  * dX = X dW compounds to the ordered product Z (I+dW_0) ... (I+dW_{n-1}).
  * Y = Z + R(Y) + M with R = 0.5 * E(.|0), Z = I, M = e0 has the unique
    solution Y = 2 I + e0 (take the state of both sides to pin the scalar
    part, then substitute back).
"""

import csv
import io
import math

import numpy as np
import pytest

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
    picard_solve,
    residual,
    selfadjoint_solve_check,
    uniqueness_probe,
)
from cliffsde import solver as solver_module
from cliffsde.solver import NONLOCAL_MODES

TOL = 1e-10
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
    prob = make_problem("linear_full", n=6).replace(nonlocal_mode=mode)
    report = picard_solve(prob, tol=TOL)
    per_sweep = len(report.trajectory) if mode == "pointwise" else 1
    assert report.inner_iterations == [per_sweep] * report.picard_iterations


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
    assert sum(warm.inner_iterations) < sum(cold_report.inner_iterations)


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
    sp = make_space(TimeGrid.uniform(0.0, 1.0, 4))
    c, tol = 0.5, 1e-10
    res = inner_fixed_point(sp.zero(), make_nonlocal("scale", c=c),
                            sp.identity(), 4.0, tol)
    bound = math.ceil(math.log(tol / res.steps[0]) / math.log(c)) + 1
    assert res.iterations <= bound
    for s0, s1 in zip(res.steps, res.steps[1:]):
        assert s1 <= c * s0 * (1 + 1e-6)


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
    sp = make_space(TimeGrid.uniform(0.0, 1.0, 4))
    with pytest.raises(ConvergenceError) as exc:
        inner_fixed_point(sp.zero(), make_nonlocal("scale", c=0.5),
                          sp.identity(), 4.0, 1e-30, max_inner=3)
    assert len(exc.value.deltas) == 3


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


def test_residual_rejects_wrong_node_range():
    prob = make_problem("zero", n=4)
    stub = AdaptedProcess(prob.space, [prob.Z] * 4, start_node=1)
    with pytest.raises(ValueError, match="node range"):
        residual(stub, prob)


def test_euler_oracle_requires_local_equation():
    with pytest.raises(ConfigurationError, match="R = 0"):
        forward_euler_oracle(make_problem("nonlocal_linear", n=4))


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
    assert all(int(r["inner_iterations"]) >= 1 for r in iter_rows)


def test_iterates_stay_adapted():
    report = picard_solve(make_problem("nonlocal_conditional", n=6), tol=TOL)
    assert max(report.adapted_defects) < 1e-10
    assert report.trajectory.max_adaptedness_defect() < 1e-10


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
