"""Continuity in the initial value and in the coefficients.

The exponential bound is checked node by node; with R = 0 and c_p = 1 the
prefactor is exactly 4 and both sides are computable by hand at t = t0:
lhs(t0) = ||Z - Z'||^2, rhs(t0) = 4 ||Z - Z'||^2.
"""

import math
import warnings

import pytest

from cliffsde import (
    ArgumentError,
    ContractViolationError,
    coefficient_stability_experiment,
    lp_norm,
    make_problem,
    perturb_problem,
    picard_solve,
    stability_experiment,
)
from cliffsde import solver as solver_module


@pytest.mark.parametrize("dz", [1e-1, 1e-3])
def test_initial_value_bound_holds_nonlocal(dz):
    prob = make_problem("nonlocal_linear", n=6)
    z_alt = prob.Z + dz * prob.space.identity()
    res = stability_experiment(prob, z_alt)
    assert res.min_margin > 0.0
    assert res.lhs[0] <= res.rhs[0]
    assert len(res.times) == 7


def test_identical_initial_values_give_zero_gap():
    prob = make_problem("linear_full", n=4)
    res = stability_experiment(prob, prob.Z)
    assert all(l == 0.0 for l in res.lhs)


def test_bound_endpoints_against_hand_values():
    dz = 1e-2
    prob = make_problem("linear_full", n=4)
    z_alt = prob.Z + dz * prob.space.identity()
    res = stability_experiment(prob, z_alt, c_p=1.0)
    assert res.c_p == 1.0
    # at the start node the two solutions differ by exactly dz * I
    assert abs(res.lhs[0] - dz ** 2) < 1e-9 * dz ** 2
    assert abs(res.rhs[0] - 4.0 * dz ** 2) < 1e-12 * dz ** 2
    # rate = 4 / (1 - 0)^2 * max(1, T - t0) * L with L = 0.5625
    assert abs(res.rate - 4.0 * 0.5625) < 1e-12


def test_bound_sides_are_python_floats():
    prob = make_problem("linear_full", n=4)
    res = stability_experiment(prob, prob.Z + 1e-2 * prob.space.identity(),
                               c_p=1.0)
    for side in (res.lhs, res.rhs):
        assert [type(v) for v in side] == [float] * len(res.times)
    assert "np.float64" not in repr(res)


@pytest.mark.parametrize("c_p", [float("nan"), float("inf"), -1.0])
def test_bound_rejects_a_non_finite_or_negative_c_p(c_p, monkeypatch):
    # named before any solve: a NaN c_p would make the rate and bound NaN
    def no_solve(*args, **kw):
        raise AssertionError("solved with a bad c_p")

    monkeypatch.setattr(solver_module, "picard_solve", no_solve)
    prob = make_problem("linear_full", n=4)
    with pytest.raises(ArgumentError, match="c_p") as exc:
        stability_experiment(prob, prob.Z, c_p=c_p)
    assert exc.value.key == "c_p"


def test_bound_needs_lipschitz_coefficients():
    prob = make_problem("osgood_radial", n=4)
    with pytest.raises(ContractViolationError, match="Osgood"):
        stability_experiment(prob, prob.Z)


# -- coefficient perturbation ladder ---------------------------------------------


def test_coefficient_ladder_decreases_linearly():
    prob = make_problem("nonlocal_linear", n=6)
    deltas = [2.0 ** -k for k in range(1, 9)]
    perturbed = [perturb_problem(prob, d) for d in deltas]
    dists = coefficient_stability_experiment(prob, perturbed)
    assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))
    for d1, d2 in zip(dists, dists[1:]):
        assert 1.8 < d1 / d2 < 2.2


def test_coefficient_ladder_vanishes_with_the_perturbation():
    prob = make_problem("linear_full", n=4)
    tiny, zero = coefficient_stability_experiment(
        prob, [perturb_problem(prob, 1e-11), perturb_problem(prob, 0.0)])
    assert tiny < 1e-9
    assert zero == 0.0


@pytest.mark.parametrize("part", ["R", "Z"])
def test_single_part_ladders_decrease(part):
    prob = make_problem("nonlocal_linear", n=4)
    deltas = [2.0 ** -k for k in range(1, 5)]
    perturbed = [perturb_problem(prob, d, parts=(part,)) for d in deltas]
    dists = coefficient_stability_experiment(prob, perturbed)
    assert all(d > 0 for d in dists)
    assert all(d2 < d1 for d1, d2 in zip(dists, dists[1:]))


def test_perturb_unknown_part():
    prob = make_problem("zero", n=4)
    with pytest.raises(ValueError, match="unknown part"):
        perturb_problem(prob, 0.1, parts=("Q",))


@pytest.mark.parametrize("delta", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("parts", [("F", "G", "H"), ("R",), ("Z",)])
def test_perturb_rejects_a_non_finite_delta_by_name(delta, parts,
                                                    monkeypatch):
    # NaN used to fail deep in the solve, inf on Z with a numpy warning
    prob = make_problem("nonlocal_linear", n=4)

    def no_build(*args, **kwargs):
        raise AssertionError("a problem was built")

    monkeypatch.setattr(type(prob), "replace", no_build)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ArgumentError, match="delta must be finite") as exc:
            perturb_problem(prob, delta, parts=parts)
    assert exc.value.key == "delta"


def test_perturbation_shifts_the_solution():
    prob = make_problem("zero", n=4)
    bumped = perturb_problem(prob, 0.5, parts=("Z",))
    base = picard_solve(prob).trajectory
    moved = picard_solve(bumped).trajectory
    gaps = [lp_norm(x - y, prob.p) for x, y in zip(base.values, moved.values)]
    assert all(abs(g - 0.5) < 1e-12 for g in gaps)
