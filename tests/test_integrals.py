"""Discrete stochastic integrals, square-function norms, and the
martingale/parity structure they depend on."""

import math

import pytest

from cliffsde import (
    AdaptedProcess,
    AdaptednessError,
    ContractViolationError,
    Driver,
    TimeGrid,
    conditional_expect,
    driver_integral,
    hp_norm,
    left_integral,
    lqlp_norm,
    lp_norm,
    make_space,
    martingale_check,
    op_norm,
    parity_commutation_defect,
    parity_decompose,
    right_integral,
    time_integral,
)

import numpy as np

ISOMETRY_RTOL = 1e-12
MARTINGALE_TOL = 1e-10


def _field(space):
    w = space.zero()
    for k in range(space.grid.n):
        w = w + Driver.fermion_field().increment(space, k)
    return w


# -- driver integrals ----------------------------------------------------------


def test_integral_of_unit_integrand_is_the_field(space4):
    f = AdaptedProcess.constant(space4, space4.identity())
    assert right_integral(f).is_close(_field(space4), tol=0.0)
    assert left_integral(f).is_close(_field(space4), tol=0.0)


def test_integral_of_zero_is_zero(space4):
    f = AdaptedProcess.constant(space4, space4.zero())
    assert right_integral(f).is_close(space4.zero(), tol=0.0)


def test_isometry_on_mixed_integrand(space4):
    # f = 1 at node 0 and e0 afterwards; both are L^2-unit, so
    # ||int f dW||_2^2 = sum ||f_j||_2^2 delta_j = 1
    e0 = space4.generator(0)
    f = AdaptedProcess(space4, [space4.identity(), e0, e0, e0])
    val = lp_norm(right_integral(f), 2.0)
    assert abs(val - 1.0) < ISOMETRY_RTOL


def test_isometry_random(space4, rng):
    for _ in range(25):
        f = AdaptedProcess.random(space4, rng)
        lhs = lp_norm(right_integral(f), 2.0) ** 2
        rhs = sum(lp_norm(v, 2.0) ** 2 * space4.grid.delta(j)
                  for j, v in enumerate(f.values))
        assert abs(lhs - rhs) <= ISOMETRY_RTOL * rhs


def test_partial_integral_is_level_measurable(space4, rng):
    f = AdaptedProcess.random(space4, rng)
    for k in range(5):
        x = right_integral(f, upto=k)
        assert lp_norm(x - conditional_expect(x, k), 2.0) < 1e-12


def test_even_integrand_left_equals_right(space4, rng):
    f = AdaptedProcess.random(space4, rng)
    evens = [parity_decompose(v)[0] for v in f.values]
    g = AdaptedProcess(space4, evens)
    assert op_norm(left_integral(g) - right_integral(g)) == 0.0


def test_odd_integrand_left_is_minus_right(space4):
    e0 = space4.generator(0)
    f = AdaptedProcess(space4, [space4.zero(), e0, e0, e0])
    assert op_norm(left_integral(f) + right_integral(f)) == 0.0


def test_integral_side_and_range_validation(space4):
    f = AdaptedProcess.constant(space4, space4.identity())
    with pytest.raises(ValueError):
        driver_integral(f, Driver.fermion_field(), side="middle")
    with pytest.raises(ValueError):
        right_integral(f, upto=5)
    with pytest.raises(ValueError):
        right_integral(f, upto=-1)


def test_non_integral_upto_is_rejected_not_truncated(space4, rng):
    f = AdaptedProcess.random(space4, rng)
    assert hp_norm(f, 3.0, upto=2.0) == hp_norm(f, 3.0, upto=2)
    for call in (lambda: hp_norm(f, 3.0, upto=2.7),
                 lambda: right_integral(f, upto=1.5),
                 lambda: lqlp_norm(f, 2.0, 4.0, upto=0.5),
                 # a bool ran as upto=1
                 lambda: driver_integral(f, Driver.fermion_field(),
                                         upto=True)):
        with pytest.raises(ValueError, match="upto .* is not an integer"):
            call()


def test_pair_driver_integral(pair_space4, rng):
    f = AdaptedProcess.random(pair_space4, rng)
    x = driver_integral(f, Driver.annihilation())
    y = driver_integral(f, Driver.creation())
    z = driver_integral(f, Driver.linear_combination(1.0, 1.0))
    assert op_norm(x + y - z) < 1e-14


# -- time integral ---------------------------------------------------------------


def test_time_integral_of_identity(space4):
    f = AdaptedProcess.constant(space4, space4.identity())
    for k in range(5):
        target = space4.grid.node(k) * space4.identity()
        assert time_integral(f, upto=k).is_close(target, tol=1e-15)


def test_time_integral_of_constant_generator(space4):
    e0 = space4.generator(0)
    f = AdaptedProcess(space4, [e0, e0, e0], start_node=1)
    # sum over nodes 1..3 of delta * e0 = 0.75 e0
    assert time_integral(f).is_close(0.75 * e0, tol=1e-15)


def test_time_integral_triangle_bound(space4, rng):
    f = AdaptedProcess.random(space4, rng)
    for p in (2.0, 4.0):
        assert lp_norm(time_integral(f), p) <= lqlp_norm(f, 1.0, p) * (1 + 1e-12)


# -- square-function norms ---------------------------------------------------------


def test_hp_norm_of_identity(space4):
    f = AdaptedProcess.constant(space4, space4.identity())
    for p in (2.0, 3.0, 6.0):
        assert abs(hp_norm(f, p) - 1.0) < 1e-12


def test_hp_norm_of_unitary_integrand(space4):
    # unitary at every node => both square functions are sqrt(T - t0) * I
    x = space4.generator(0) @ space4.generator(1)
    f = AdaptedProcess(space4, [space4.identity(), space4.generator(0), x, x])
    assert abs(hp_norm(f, 4.0) - 1.0) < 1e-12


def test_hp_norm_p2_matches_isometry_formula(space4, rng):
    f = AdaptedProcess.random(space4, rng)
    rhs = np.sqrt(sum(lp_norm(v, 2.0) ** 2 * space4.grid.delta(j)
                      for j, v in enumerate(f.values)))
    assert abs(hp_norm(f, 2.0) - rhs) < 1e-12 * rhs


def test_hp_norm_rejects_bad_exponent(space4):
    f = AdaptedProcess.constant(space4, space4.identity())
    with pytest.raises(ValueError):
        hp_norm(f, 0.5)


def test_lqlp_norm_of_identity(space4):
    f = AdaptedProcess.constant(space4, space4.identity())
    for q in (1.0, 2.0, 4.0):
        assert abs(lqlp_norm(f, q, 3.0) - 1.0) < 1e-12  # (T - t0)^(1/q) = 1


def test_lqlp_matches_hp_at_two_two(space4, rng):
    f = AdaptedProcess.random(space4, rng)
    assert abs(lqlp_norm(f, 2.0, 2.0) - hp_norm(f, 2.0)) < 1e-12


def test_lqlp_monotone_in_upto(space4, rng):
    f = AdaptedProcess.random(space4, rng)
    vals = [lqlp_norm(f, 2.0, 4.0, upto=k) for k in range(5)]
    assert vals[0] == 0.0
    for a, b in zip(vals, vals[1:]):
        assert b >= a


@pytest.mark.parametrize("p", (1.0, 2.5, 3.0, 4.0, 7.0))
def test_lqlp_norm_of_a_process_with_a_nan_node_is_nan(space4, rng, p):
    # construction rejects the NaN node, so the process is built unchecked
    factors = list(AdaptedProcess.random(space4, rng).factors)
    sub = factors[2].space
    factors[2] = sub.element(np.full((sub.dim, sub.dim), np.nan))
    f = AdaptedProcess._trusted(space4, factors, 0)
    with np.errstate(invalid="ignore"):
        assert math.isnan(lqlp_norm(f, 2.0, p))
    assert math.isfinite(lqlp_norm(f, 2.0, p, upto=2))


def test_lqlp_rejects_bad_exponents(space4):
    f = AdaptedProcess.constant(space4, space4.identity())
    with pytest.raises(ValueError):
        lqlp_norm(f, 0.5, 2.0)
    with pytest.raises(ValueError):
        lqlp_norm(f, 2.0, 0.5)


# -- martingale property ------------------------------------------------------------


def test_martingale_defect_of_unit_integrand(space4):
    f = AdaptedProcess.constant(space4, space4.identity())
    assert martingale_check(f) < 1e-13


def test_martingale_defect_random(space8, rng):
    f = AdaptedProcess.random(space8, rng)
    for side in ("right", "left"):
        assert martingale_check(f, side=side) < MARTINGALE_TOL


def test_martingale_defect_pair_driver(pair_space4, rng):
    f = AdaptedProcess.random(pair_space4, rng)
    assert martingale_check(f, driver=Driver.annihilation()) < MARTINGALE_TOL


def test_martingale_check_input_cannot_be_made_nonadapted(space4):
    # martingale_check trusts its input: a non-adapted process can be
    # neither built nor made by replacing the values of an adapted one
    with pytest.raises(AdaptednessError):
        AdaptedProcess(space4, (space4.generator(3),) * 4)
    f = AdaptedProcess.constant(space4, space4.identity())
    with pytest.raises(AttributeError):
        f.values = (space4.generator(3),) * 4
    assert martingale_check(f) < 1e-13


# -- parity commutation ---------------------------------------------------------------


def test_parity_commutation_exact(space4, rng):
    from cliffsde import random_level_element
    for k in range(3):
        h = random_level_element(space4, rng, space4.level_of_node(k))
        for j in range(k, 4):
            even_defect, odd_defect = parity_commutation_defect(h, j)
            assert even_defect == 0.0
            assert odd_defect == 0.0


def test_parity_commutation_needs_earlier_element(space4):
    late = space4.generator(3)
    with pytest.raises(ContractViolationError):
        parity_commutation_defect(late, 1)


def test_parity_commutation_rejects_a_nan_element(space4):
    h = space4.element(np.full((space4.dim, space4.dim), np.nan))
    with np.errstate(invalid="ignore"), \
            pytest.raises(AdaptednessError, match="level-2 measurable"):
        parity_commutation_defect(h, 2)
