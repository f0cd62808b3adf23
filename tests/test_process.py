"""Driver increments and adapted simple processes.

Exactness notes: on dyadic uniform grids every sqrt(delta) is an exact
binary float, so squared-increment identities hold bit-for-bit and the
defects below are compared against literal zero.
"""

import pytest

from cliffsde import (
    AdaptedProcess,
    AdaptednessError,
    ConfigurationError,
    Driver,
    DriverMismatchError,
    TimeGrid,
    lp_norm,
    make_space,
    op_norm,
    state,
)
from cliffsde.process import DRIVER_KINDS

NORM_TOL = 1e-12


# -- fermion-field increments -------------------------------------------------


def test_increment_squares_to_delta(space4):
    dw = space4.fermion_increment(0)
    assert op_norm(dw @ dw - 0.25 * space4.identity()) == 0.0


def test_disjoint_increments_anticommute(space4):
    for i in range(4):
        for j in range(i + 1, 4):
            a = space4.fermion_increment(i)
            b = space4.fermion_increment(j)
            assert op_norm(a @ b + b @ a) == 0.0


def test_increments_selfadjoint(space4):
    for k in range(4):
        assert space4.fermion_increment(k).selfadjoint_defect() == 0.0


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 7.5])
def test_total_field_norm_is_sqrt_horizon(space8, p):
    # W^2 = sum(delta) = T - t0 exactly, so every L^p norm is sqrt(T - t0)
    w = space8.zero()
    for k in range(8):
        w = w + space8.fermion_increment(k)
    assert w.selfadjoint_defect() == 0.0
    assert abs(lp_norm(w, p) - 1.0) < NORM_TOL


def test_increment_index_bounds(space4):
    with pytest.raises(IndexError):
        space4.fermion_increment(4)


def test_increment_layout_guard(space4, pair_space4):
    with pytest.raises(DriverMismatchError):
        pair_space4.fermion_increment(0)
    with pytest.raises(DriverMismatchError):
        space4.annihilation_increment(0)


# -- pair increments ------------------------------------------------------------


def test_annihilation_increment_nilpotent(pair_space4):
    for k in range(4):
        da = pair_space4.annihilation_increment(k)
        assert op_norm(da @ da) == 0.0


def test_increment_anticommutation_relation(pair_space4):
    for k in range(4):
        da = pair_space4.annihilation_increment(k)
        ds = pair_space4.creation_increment(k)
        target = 0.25 * pair_space4.identity()
        assert op_norm(da @ ds + ds @ da - target) == 0.0


def test_annihilation_second_moments(pair_space4):
    da = pair_space4.annihilation_increment(0)
    assert state(da.adjoint() @ da) == 0.125  # delta / 2
    assert state(da @ da.adjoint()) == 0.125
    assert state(da) == 0.0


def test_running_anticommutation(pair_space4):
    acc = pair_space4.zero()
    for k in range(4):
        acc = acc + pair_space4.annihilation_increment(k)
        accs = acc.adjoint()
        elapsed = pair_space4.grid.node(k + 1)
        target = elapsed * pair_space4.identity()
        assert op_norm(acc @ accs + accs @ acc - target) < 1e-15


# -- drivers ---------------------------------------------------------------------


def test_driver_factories():
    assert Driver.fermion_field().required_layout == "fermion"
    for d in (Driver.annihilation(), Driver.creation(),
              Driver.linear_combination(0.5, 1.0)):
        assert d.required_layout == "pair"
    # labels appear in the suites' cell names
    labels = {kind: Driver(kind).label for kind in DRIVER_KINDS}
    assert labels == {"fermion_field": "fermion",
                      "annihilation": "annihilation",
                      "creation": "creation",
                      "linear_combination": "linear"}


def test_driver_unknown_kind_rejected():
    with pytest.raises(ConfigurationError) as e:
        Driver("poisson")
    assert all(repr(kind) in str(e.value) for kind in DRIVER_KINDS)


def test_driver_increment_dispatch(space4, pair_space4):
    assert Driver.fermion_field().increment(space4, 1).is_close(
        space4.fermion_increment(1), tol=0.0)
    assert Driver.annihilation().increment(pair_space4, 1).is_close(
        pair_space4.annihilation_increment(1), tol=0.0)
    assert Driver.creation().increment(pair_space4, 1).is_close(
        pair_space4.creation_increment(1), tol=0.0)


def test_driver_layout_mismatch(space4, pair_space4):
    with pytest.raises(DriverMismatchError):
        Driver.fermion_field().increment(pair_space4, 0)
    with pytest.raises(DriverMismatchError):
        Driver.annihilation().increment(space4, 0)


def _pair_space():
    return make_space(TimeGrid.uniform(0.0, 1.0, 4), layout="pair")


def test_increment_is_cached_read_only():
    sp = _pair_space()
    for driver in (Driver.annihilation(), Driver.linear_combination(1, 2j)):
        for k in range(sp.grid.n):
            inc = driver.increment(sp, k)
            assert driver.increment(sp, k) is inc
            assert not inc.mat.flags.writeable
    # a fresh space starts with its own cache
    assert Driver.annihilation().increment(_pair_space(), 0) is not \
        Driver.annihilation().increment(sp, 0)


def test_combinations_with_different_alphas_do_not_collide():
    sp = _pair_space()
    a = Driver.linear_combination(1.0, 0.5)
    b = Driver.linear_combination(1.0, -0.5)
    for k in range(sp.grid.n):
        inc_a, inc_b = a.increment(sp, k), b.increment(sp, k)
        assert not inc_a.is_close(inc_b, tol=0.1)
        assert inc_a.is_close(sp.annihilation_increment(k)
                              + 0.5 * sp.creation_increment(k), tol=0.0)
        assert inc_b.is_close(sp.annihilation_increment(k)
                              - 0.5 * sp.creation_increment(k), tol=0.0)


@pytest.mark.parametrize("kind", list(DRIVER_KINDS))
def test_cached_increment_is_bitwise_a_fresh_one(kind):
    driver = Driver(kind, 0.75 + 0.25j, -1.5j)
    layout = driver.required_layout
    sp = make_space(TimeGrid.uniform(0.0, 1.0, 3), layout=layout)
    build = DRIVER_KINDS[kind][2]
    for _ in range(2):  # the first pass fills the cache, the second reads it
        for k in range(sp.grid.n):
            assert driver.increment(sp, k).mat.tobytes() == \
                build(driver, sp, k).mat.tobytes()


def test_cached_increment_keeps_the_layout_guard(space4, pair_space4):
    Driver.annihilation().increment(pair_space4, 0)
    with pytest.raises(DriverMismatchError):
        Driver.annihilation().increment(space4, 0)


def test_symmetric_combination_is_selfadjoint(pair_space4):
    d = Driver.linear_combination(1.0, 1.0)
    for k in range(4):
        assert d.increment(pair_space4, k).selfadjoint_defect() == 0.0


# -- adapted processes -------------------------------------------------------------


def test_constant_process(space4):
    f = AdaptedProcess.constant(space4, space4.identity())
    assert len(f) == 4
    assert f.start_node == 0
    assert f.last_node == 3
    assert f.value(2).is_close(space4.identity(), tol=0.0)


def test_random_process_is_adapted(space4, rng):
    f = AdaptedProcess.random(space4, rng)
    assert f.max_adaptedness_defect() < 1e-12
    assert len(f) == 4


def test_nonadapted_value_rejected(space4):
    # generator 3 is not level-0 measurable
    with pytest.raises(AdaptednessError, match="node 0"):
        AdaptedProcess(space4, [space4.generator(3)] * 4)


def test_adaptedness_defect_of_values_replaced_after_construction(space4):
    f = AdaptedProcess.constant(space4, space4.identity())
    f.values = (space4.generator(3),) * 4
    assert abs(f.max_adaptedness_defect() - 1.0) < 1e-12


def test_start_node_shifts_levels(space4):
    # e0 is level-1 measurable: allowed from node 1 on, not at node 0
    vals = [space4.generator(0)] * 3
    f = AdaptedProcess(space4, vals, start_node=1)
    assert f.last_node == 3
    with pytest.raises(AdaptednessError):
        AdaptedProcess(space4, vals, start_node=0)


def test_value_lookup_bounds(space4):
    f = AdaptedProcess.constant(space4, space4.identity(), num=2, start_node=1)
    assert f.value(2).is_close(space4.identity(), tol=0.0)
    with pytest.raises(IndexError):
        f.value(0)
    with pytest.raises(IndexError):
        f.value(3)


def test_process_construction_errors(space4):
    with pytest.raises(ValueError):
        AdaptedProcess(space4, [])
    with pytest.raises(ValueError):
        AdaptedProcess(space4, [space4.identity()] * 6)  # overruns 5 nodes
    with pytest.raises(ValueError):
        AdaptedProcess(space4, [space4.identity()], start_node=9)
    other = make_space(TimeGrid.uniform(0.0, 1.0, 2))
    with pytest.raises(ConfigurationError):
        AdaptedProcess(space4, [other.identity()])


def test_process_iteration(space4):
    f = AdaptedProcess.constant(space4, space4.identity(), num=3)
    assert [v.is_close(space4.identity(), tol=0.0) for v in f] == [True] * 3
