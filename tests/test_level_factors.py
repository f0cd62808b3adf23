"""The Picard solve on level factors, against dense references.

The solver holds each node's value as the factor A of its level's
``A (x) I``, on the node's level space.  These properties hold the
factored solve to the dense oracle (R = 0), to a residual recomputed
with dense increment products (R != 0), and check that expansion keeps
every L^p norm and that a map must stay in its argument's space.  The
solve needs no dense increment stack; its report keeps the factors, and
its trajectory is a process over those factors, wrapped once on request.
"""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffsde import (
    AdaptedProcess,
    AdaptednessError,
    CoefficientMap,
    ConfigurationError,
    Driver,
    NonlocalMap,
    OsgoodModulus,
    QsdeProblem,
    TimeGrid,
    forward_euler_oracle,
    lp_norm,
    make_coefficient,
    make_nonlocal,
    make_problem,
    make_space,
    picard_solve,
    random_level_element,
)
from cliffsde import solver as solver_module
from cliffsde.space import MonomialGather, expand, restrict

TOL = 1e-10
EPS = np.finfo(float).eps
_COEFFICIENTS = ("zero", "scale", "constant", "cos_scale", "even_sa",
                 "sa_scale", "radial_osgood")
_PAIR_DRIVERS = (Driver.annihilation(), Driver.creation(),
                 Driver.linear_combination(0.5, 1.0),
                 Driver.linear_combination(0.5 + 1.5j, -0.75 + 0.25j))


@st.composite
def _problems(draw, r_names):
    """A random problem with n <= 6 on either layout, in either nonlocal
    mode, from a random start node, with its nonlocal map one of
    ``r_names`` (contraction c in [0, 0.95])."""
    layout = draw(st.sampled_from(["fermion", "pair"]))
    n = draw(st.integers(1, 6))
    sp = make_space(TimeGrid.uniform(0.0, 1.0, n), layout=layout)
    p = draw(st.sampled_from([2.5, 3.0, 4.0]))
    driver = Driver.fermion_field() if layout == "fermion" \
        else draw(st.sampled_from(_PAIR_DRIVERS))

    def coefficient():
        name = draw(st.sampled_from(_COEFFICIENTS))
        c = draw(st.floats(-1.0, 1.0))
        # a zero radial scale has no Osgood certificate
        params = {} if name == "zero" else \
            {"scale": max(abs(c), 0.05)} if name == "radial_osgood" \
            else {"c": c}
        return make_coefficient(name, p, **params)

    r_name = draw(st.sampled_from(r_names))
    R = make_nonlocal(r_name) if r_name == "zero" \
        else make_nonlocal(r_name, c=draw(st.floats(0.0, 0.95)))
    start = draw(st.integers(0, n - 1))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    Z = draw(st.floats(0.25, 2.0)) * random_level_element(
        sp, rng, sp.level_of_node(start))
    return QsdeProblem(sp, coefficient(), coefficient(), coefficient(), R, Z,
                       driver, p, start_node=start,
                       nonlocal_mode=draw(st.sampled_from(["pointwise",
                                                           "initial"])),
                       validate=False)


def _dense_residual(trajectory, problem) -> float:
    """sup_k ||X_k - Z - R(X) - M_k[X]||_p at full size, with M_k the
    left-endpoint sums of dense products by the driver increments."""
    sp, k0 = problem.space, problem.start_node
    xs = trajectory.values
    m, worst = sp.zero(), 0.0
    for off, x in enumerate(xs):
        if off:
            j, y = k0 + off - 1, xs[off - 1]
            inc, t = problem.driver.increment(sp, j), sp.grid.node(j)
            m = m + problem.F(y, t) @ inc + inc @ problem.G(y, t) \
                + sp.grid.delta(j) * problem.H(y, t)
        head = xs[0] if problem.nonlocal_mode == "initial" else x
        worst = max(worst, lp_norm(x - problem.Z - problem.R(head) - m,
                                   problem.p))
    return worst


@settings(max_examples=40, deadline=None)
@given(prob=_problems(("zero",)))
def test_factored_solve_matches_the_dense_euler_oracle(prob):
    report = picard_solve(prob, tol=TOL)
    oracle = forward_euler_oracle(prob)
    assert max(lp_norm(a - b, prob.p) for a, b in
               zip(report.trajectory.values, oracle.values)) <= TOL


@settings(max_examples=40, deadline=None)
@given(prob=_problems(("scale", "conditional_scale")))
def test_factored_solve_meets_the_residual_bound_at_full_size(prob):
    cr = prob.R.contraction
    report = picard_solve(prob, tol=TOL, max_inner=2000)
    assert _dense_residual(report.trajectory, prob) < TOL * (1 + cr) / (1 - cr)


@settings(max_examples=60, deadline=None)
@given(layout=st.sampled_from(["fermion", "pair"]), n=st.integers(1, 7),
       data=st.data(), seed=st.integers(0, 2**32 - 1),
       p=st.sampled_from([2.0, 2.5, 3.0, 4.0]))
def test_expansion_keeps_the_lp_norm_and_restriction_undoes_it(
        layout, n, data, seed, p):
    sp = make_space(TimeGrid.uniform(0.0, 1.0, n), layout=layout)
    sub = sp.level_space(data.draw(st.integers(0, n), label="node"))
    rng = np.random.default_rng(seed)
    a = sub.element(rng.normal(size=(sub.dim, sub.dim))
                    + 1j * rng.normal(size=(sub.dim, sub.dim)))
    full = expand(a, sp)
    assert abs(lp_norm(full, p) / lp_norm(a, p) - 1) <= 4 * EPS
    assert restrict(full, sub).mat.tobytes() == a.mat.tobytes()


@pytest.mark.parametrize("part", ["F", "G", "H", "R"])
def test_a_map_leaving_its_arguments_space_is_named_with_the_node(part):
    # a custom map that closes over a full-space element returns it for a
    # level factor's argument too
    prob = make_problem("nonlocal_linear", n=4)
    full = 0.1 * prob.Z
    if part == "R":
        bad = NonlocalMap(fn=lambda x: full, contraction=0.1, name="closure")
    else:
        bad = CoefficientMap(fn=lambda x, t: full, name="closure",
                             modulus=OsgoodModulus.from_lipschitz(0.0))
    with pytest.raises(ConfigurationError,
                       match=rf"^{part} \(closure\) .* at node 0$") as exc:
        picard_solve(prob.replace(validate=False, **{part: bad}))
    assert exc.value.key == part


@pytest.mark.parametrize("mode", ["pointwise", "initial"])
def test_picard_solve_builds_no_dense_increment(monkeypatch, mode):
    want = picard_solve(make_problem("nonlocal_linear", n=8,
                                     nonlocal_mode=mode))

    def no_dense(self):
        raise AssertionError("the solve built a dense increment")

    # a fresh problem: its spaces hold no cached gathers yet
    fresh = make_problem("nonlocal_linear", n=8, nonlocal_mode=mode)
    monkeypatch.setattr(MonomialGather, "dense", no_dense)
    report = picard_solve(fresh)
    assert [a.mat.tobytes() for a in report.trajectory.factors] == \
        [a.mat.tobytes() for a in want.trajectory.factors]
    assert report.trajectory_csv() == want.trajectory_csv()


def test_a_written_solve_computes_the_node_residuals_once(monkeypatch):
    calls = []
    real = solver_module._node_residuals

    def counted(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(solver_module, "_node_residuals", counted)
    report = picard_solve(make_problem("nonlocal_linear", n=6))
    report.trajectory_csv()
    report.iteration_csv()
    assert len(calls) == 1


@pytest.mark.parametrize("mode", ["pointwise", "initial"])
def test_the_solve_rejects_a_final_factor_that_is_not_adapted(mode):
    # R pulls in the level space's top generator, above node 0's level;
    # the sweeps converge, and the final factors must still be rejected
    R = NonlocalMap(
        fn=lambda x: 0.5 * x @ x.space.generator(x.space.n_gen - 1),
        contraction=0.5, name="top_generator")
    prob = make_problem("nonlocal_linear", n=4, nonlocal_mode=mode)
    with pytest.raises(AdaptednessError) as exc:
        picard_solve(prob.replace(validate=False, R=R))
    assert str(exc.value) == ("value at node 0 is not level-0 measurable "
                              "(defect 6.667e-01)")


def test_the_solve_rejects_a_final_factor_that_is_not_adapted_at_an_odd_level():
    # nodes 0..2 share a two-generator level space, where R is 0.5 x; on
    # the four-generator space of nodes 3 and 4, R pulls in generator 3,
    # above node 3's level and inside node 4's
    R = NonlocalMap(
        fn=lambda x: 0.5 * (x @ x.space.generator(3) if x.space.n_gen >= 4
                            else x),
        contraction=0.5, name="generator_3")
    prob = make_problem("nonlocal_linear", n=4)
    with pytest.raises(AdaptednessError) as exc:
        picard_solve(prob.replace(validate=False, R=R))
    assert str(exc.value) == ("value at node 3 is not level-3 measurable "
                              "(defect 1.900e+00)")


def test_the_trajectory_wraps_the_factors_once(monkeypatch):
    # the solve has checked its factors: the wrap neither checks nor copies
    report = picard_solve(make_problem("nonlocal_conditional", n=6)
                          .replace(start_node=1))
    want = AdaptedProcess.from_factors(report.problem.space, report.factors,
                                       start_node=1)

    def no_check(*args):
        raise AssertionError("the trajectory checked its factors again")

    monkeypatch.setattr(solver_module.AdaptedProcess, "from_factors", no_check)
    monkeypatch.setattr("cliffsde.process.adaptedness_defect", no_check)
    traj = report.trajectory
    assert traj.start_node == 1
    assert all(a is b for a, b in zip(traj.factors, report.factors, strict=True))
    assert [v.mat.tobytes() for v in traj.values] == \
        [v.mat.tobytes() for v in want.values]
    assert report.trajectory is traj


@settings(max_examples=40, deadline=None)
@given(layout=st.sampled_from(["fermion", "pair"]), n=st.integers(1, 7),
       data=st.data(), seed=st.integers(0, 2**32 - 1))
def test_from_factors_stores_the_constructors_factors(layout, n, data, seed):
    sp = make_space(TimeGrid.uniform(0.0, 1.0, n), layout=layout)
    start = data.draw(st.integers(0, n), label="start")
    rng = np.random.default_rng(seed)
    factors = [random_level_element(sp.level_space(k), rng,
                                    sp.level_of_node(k))
               for k in range(start, n + 1)]
    got = AdaptedProcess.from_factors(sp, factors, start)
    want = AdaptedProcess(sp, [expand(a, sp) for a in factors], start)
    assert got.start_node == start
    assert all(a is b for a, b in zip(got.factors, factors, strict=True))
    assert [a.mat.tobytes() for a in want.factors] == \
        [a.mat.tobytes() for a in factors]
    assert [v.mat.tobytes() for v in got.values] == \
        [v.mat.tobytes() for v in want.values]
    # and, up to the sign of zeros, np.kron(a, I)
    assert np.array_equal([v.mat for v in got.values], [
        np.kron(a.mat, np.eye(sp.dim // a.space.dim)) for a in factors])


def test_from_factors_rejects_a_generator_k_part_at_node_k():
    # at an odd fermion level k the level space also holds generator k
    sp = make_space(TimeGrid.uniform(0.0, 1.0, 4))
    factors = [sp.level_space(k).identity() for k in range(5)]
    sub = sp.level_space(3)
    factors[3] = sub.identity() + 0.5 * sub.generator(3)
    with pytest.raises(AdaptednessError) as dense:
        AdaptedProcess(sp, [expand(a, sp) for a in factors])
    with pytest.raises(AdaptednessError) as factored:
        AdaptedProcess.from_factors(sp, factors)
    assert str(factored.value) == str(dense.value)
    assert "value at node 3 is not level-3 measurable" in str(dense.value)


def test_from_factors_rejects_a_factor_off_its_level_space():
    sp = make_space(TimeGrid.uniform(0.0, 1.0, 4))
    with pytest.raises(ConfigurationError, match="different space"):
        AdaptedProcess.from_factors(sp, [sp.identity()] * 5)
