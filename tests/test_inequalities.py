"""Randomized checks of the norm-exchange and martingale inequalities.

The p = 2 fermion cells sit exactly on the isometry (ratio 1); the pair
driver at p = 2 sits at 1/sqrt(2) because each increment carries
m(dA* dA) = delta / 2.  Everything else is one-sided.
"""

import numpy as np
import pytest

from cliffsde import (
    AdaptedProcess,
    ConfigurationError,
    Driver,
    TimeGrid,
    ZeroProcessError,
    check_bg,
    check_norm_exchange,
    driver_integral,
    hp_norm,
    lqlp_norm,
    make_space,
    martingale_check,
    measure_bg_constant,
)

RATIO_TOL = 1e-9
TRIALS = 80

_SP = make_space(TimeGrid.uniform(0.0, 1.0, 8))
_PAIR = make_space(TimeGrid.uniform(0.0, 1.0, 4), layout="pair")


# -- norm exchange -----------------------------------------------------------


def test_norm_exchange_unit_integrand(space4):
    f = AdaptedProcess.constant(space4, space4.identity())
    rep = check_norm_exchange(f, 1.0, 2.0)
    assert abs(rep.lhs - 1.0) < 1e-12
    assert abs(rep.rhs - 1.0) < 1e-12
    assert abs(rep.ratio - 1.0) < 1e-12


@pytest.mark.parametrize("q,p", [(1.0, 2.0), (2.0, 4.0), (2.0, 7.0)])
def test_norm_exchange_never_exceeds_one(q, p):
    for t in range(TRIALS):
        rng = np.random.default_rng(5000 + t)
        f = AdaptedProcess.random(_SP, rng)
        rep = check_norm_exchange(f, q, p)
        assert rep.ratio <= 1.0 + RATIO_TOL
        assert rep.q == q


@pytest.mark.parametrize("p", [2.0, 4.0, 6.0])
def test_norm_exchange_equality_at_q_equals_p(p, rng):
    for _ in range(10):
        f = AdaptedProcess.random(_SP, rng)
        rep = check_norm_exchange(f, p, p)
        assert abs(rep.ratio - 1.0) <= RATIO_TOL


def test_norm_exchange_rejects_bad_exponents(space4):
    f = AdaptedProcess.constant(space4, space4.identity())
    with pytest.raises(ValueError):
        check_norm_exchange(f, 3.0, 2.0)  # q > p
    with pytest.raises(ValueError):
        check_norm_exchange(f, 0.5, 2.0)


# -- martingale bounds ---------------------------------------------------------


def test_isometry_ratio_is_one(rng):
    for _ in range(50):
        f = AdaptedProcess.random(_SP, rng)
        rep = check_bg(f, 2.0)
        assert abs(rep.ratio - 1.0) <= RATIO_TOL


def test_bg_unit_integrand(space4):
    f = AdaptedProcess.constant(space4, space4.identity())
    rep = check_bg(f, 4.0)
    assert abs(rep.lhs - 1.0) < 1e-12   # ||W_T||_p = sqrt(T - t0)
    assert abs(rep.rhs - 1.0) < 1e-12
    assert rep.suite == "bg_ratio"


def test_pair_driver_halves_the_second_moment(rng):
    for _ in range(25):
        f = AdaptedProcess.random(_PAIR, rng)
        rep = check_bg(f, 2.0, driver=Driver.annihilation())
        assert abs(rep.ratio - 2.0 ** -0.5) < 1e-12


def test_bg_rejects_p_below_two(space4):
    f = AdaptedProcess.constant(space4, space4.identity())
    with pytest.raises(ValueError):
        check_bg(f, 1.5)


def test_bg_rejects_zero_process(space4):
    f = AdaptedProcess.constant(space4, space4.zero())
    with pytest.raises(ZeroProcessError):
        check_bg(f, 3.0)


@pytest.mark.parametrize("p", [2.0, 3.0, 4.0, 6.0])
def test_square_function_below_l2_in_time(p, rng):
    # constant-free one-sided bound used by the solver estimates
    for _ in range(TRIALS // 2):
        f = AdaptedProcess.random(_SP, rng)
        assert hp_norm(f, p) <= lqlp_norm(f, 2.0, p) * (1 + RATIO_TOL) + 1e-9


def test_ratios_finite_both_sides(rng):
    for side in ("right", "left"):
        for _ in range(10):
            f = AdaptedProcess.random(_SP, rng)
            rep = check_bg(f, 7.0, side=side)
            assert np.isfinite(rep.ratio) and rep.ratio > 0


# -- empirical constants ----------------------------------------------------------


def test_measure_constant_deterministic():
    a = measure_bg_constant(_SP, 4.0, trials=20, seed=11)
    b = measure_bg_constant(_SP, 4.0, trials=20, seed=11)
    assert a == b


def test_measure_constant_isometry_case():
    c = measure_bg_constant(_SP, 2.0, trials=30, seed=1, form="hp")
    assert abs(c - 1.0) <= RATIO_TOL


def test_measure_constant_form_validation():
    with pytest.raises(ValueError):
        measure_bg_constant(_SP, 4.0, form="l4lp")


# -- exponent checks ---------------------------------------------------------------

_NAN, _INF = float("nan"), float("inf")


@pytest.mark.parametrize("fn,args,name", [
    (hp_norm, (_NAN,), "p"), (hp_norm, (_INF,), "p"),
    (lqlp_norm, (_NAN, 4.0), "q"), (lqlp_norm, (_INF, 4.0), "q"),
    (lqlp_norm, (2.0, _NAN), "p"), (lqlp_norm, (2.0, _INF), "p"),
    (check_norm_exchange, (2.0, _INF), "p"),
    (check_norm_exchange, (_NAN, 4.0), "q"),
    (check_bg, (_NAN,), "p"), (check_bg, (_INF,), "p"),
], ids=lambda v: getattr(v, "__name__", None))
def test_a_non_finite_exponent_is_rejected_by_name(space4, fn, args, name):
    f = AdaptedProcess.constant(space4, space4.identity())
    with pytest.raises(ValueError, match=rf"\b{name}=(nan|inf)"):
        fn(f, *args)


@pytest.mark.parametrize("p", [1.5, 1.0, _NAN, _INF])
def test_measure_constant_rejects_p_outside_the_estimates_before_drawing(
        monkeypatch, p):
    def no_draw(*args, **kwargs):
        raise AssertionError("drew an integrand")

    monkeypatch.setattr("cliffsde.integrals._random_stack", no_draw)
    with pytest.raises(ValueError, match=f"got p={p!r}"):
        measure_bg_constant(_SP, p)


def _no_draw(*args, **kwargs):
    raise AssertionError("drew an integrand")


# -- side and seed checks ------------------------------------------------------------

_SIDE = "side must be 'right' or 'left', got 'middle'"


@pytest.mark.parametrize("sp,fn", [
    (_SP, lambda f: check_bg(f, 4.0, side="middle")),
    (_PAIR, lambda f: check_bg(f, 4.0, Driver.annihilation(), side="middle")),
    (_SP, lambda f: martingale_check(f, side="middle")),
    (_SP, lambda f: driver_integral(f, Driver.fermion_field(), side="middle")),
], ids=["check_bg", "check_bg-pair", "martingale_check", "driver_integral"])
def test_an_unknown_side_is_rejected_not_read_as_left(sp, fn):
    f = AdaptedProcess.random(sp, np.random.default_rng(3))
    with pytest.raises(ValueError, match=f"^{_SIDE}$"):
        fn(f)


def test_measure_constant_rejects_an_unknown_side_before_drawing(monkeypatch):
    monkeypatch.setattr("cliffsde.integrals._random_stack", _no_draw)
    with pytest.raises(ValueError, match=f"^{_SIDE}$"):
        measure_bg_constant(_SP, 4.0, side="middle")


@pytest.mark.parametrize("seed", [-1, 1.5, True, False, "3"])
def test_measure_constant_rejects_a_bad_seed_by_name_before_drawing(
        monkeypatch, seed):
    monkeypatch.setattr("cliffsde.integrals._random_stack", _no_draw)
    with pytest.raises(ConfigurationError, match="^seed out of range") as exc:
        measure_bg_constant(_SP, 4.0, seed=seed)
    assert exc.value.key == "seed"


def test_measure_constant_takes_a_numpy_integer_seed():
    assert measure_bg_constant(_PAIR, 4.0, Driver.annihilation(), trials=3,
                               seed=np.int64(5)) == \
        measure_bg_constant(_PAIR, 4.0, Driver.annihilation(), trials=3, seed=5)
