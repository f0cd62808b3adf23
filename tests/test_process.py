"""Driver increments and adapted simple processes.

Exactness notes: on dyadic uniform grids every sqrt(delta) is an exact
binary float, so squared-increment identities hold bit-for-bit and the
defects below are compared against literal zero.
"""

import gc
import tracemalloc
import weakref

import numpy as np
import pytest

from cliffsde import (
    AdaptedProcess,
    AdaptednessError,
    ConfigurationError,
    Driver,
    DriverMismatchError,
    TimeGrid,
    lp_norm,
    make_problem,
    make_space,
    op_norm,
    picard_solve,
    random_level_element,
    state,
)
from cliffsde.process import DRIVER_KINDS
from cliffsde.space import adaptedness_defect

NORM_TOL = 1e-12


# -- fermion-field increments -------------------------------------------------


def test_increment_squares_to_delta(space4):
    dw = Driver.fermion_field().increment(space4, 0)
    assert op_norm(dw @ dw - 0.25 * space4.identity()) == 0.0


def test_disjoint_increments_anticommute(space4):
    for i in range(4):
        for j in range(i + 1, 4):
            a = Driver.fermion_field().increment(space4, i)
            b = Driver.fermion_field().increment(space4, j)
            assert op_norm(a @ b + b @ a) == 0.0


def test_increments_selfadjoint(space4):
    for k in range(4):
        inc = Driver.fermion_field().increment(space4, k)
        assert inc.selfadjoint_defect() == 0.0


@pytest.mark.parametrize("p", [1.0, 2.0, 3.0, 7.5])
def test_total_field_norm_is_sqrt_horizon(space8, p):
    # W^2 = sum(delta) = T - t0 exactly, so every L^p norm is sqrt(T - t0)
    w = space8.zero()
    for k in range(8):
        w = w + Driver.fermion_field().increment(space8, k)
    assert w.selfadjoint_defect() == 0.0
    assert abs(lp_norm(w, p) - 1.0) < NORM_TOL


def test_increment_index_bounds(space4):
    with pytest.raises(IndexError):
        Driver.fermion_field().increment(space4, 4)


def test_increment_layout_guard(space4, pair_space4):
    with pytest.raises(DriverMismatchError):
        Driver.fermion_field().increment(pair_space4, 0)
    with pytest.raises(DriverMismatchError):
        Driver.annihilation().increment(space4, 0)


# -- pair increments ------------------------------------------------------------


def test_annihilation_increment_nilpotent(pair_space4):
    for k in range(4):
        da = Driver.annihilation().increment(pair_space4, k)
        assert op_norm(da @ da) == 0.0


def test_increment_anticommutation_relation(pair_space4):
    for k in range(4):
        da = Driver.annihilation().increment(pair_space4, k)
        ds = Driver.creation().increment(pair_space4, k)
        target = 0.25 * pair_space4.identity()
        assert op_norm(da @ ds + ds @ da - target) == 0.0


def test_annihilation_second_moments(pair_space4):
    da = Driver.annihilation().increment(pair_space4, 0)
    assert state(da.adjoint() @ da) == 0.125  # delta / 2
    assert state(da @ da.adjoint()) == 0.125
    assert state(da) == 0.0


def test_running_anticommutation(pair_space4):
    acc = pair_space4.zero()
    for k in range(4):
        acc = acc + Driver.annihilation().increment(pair_space4, k)
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


@pytest.mark.parametrize("field, alphas", [
    ("alpha1", (np.nan, 1.0)), ("alpha2", (1.0, np.inf)),
    ("alpha1", (complex(0, np.nan), 0.0)), ("alpha2", (0.5, -np.inf * 1j)),
])
def test_driver_rejects_non_finite_alphas(field, alphas):
    with pytest.raises(ConfigurationError, match=field) as e:
        Driver.linear_combination(*alphas)
    assert e.value.key == field
    with pytest.raises(ConfigurationError, match=field):
        Driver("linear_combination", *alphas)


def test_driver_unknown_kind_rejected():
    with pytest.raises(ConfigurationError) as e:
        Driver("poisson")
    assert all(repr(kind) in str(e.value) for kind in DRIVER_KINDS)


def test_driver_increment_dispatch(space4, pair_space4):
    # each kind's increment is its formula in the generators (delta = 1/4)
    e, f = pair_space4.generator(2), pair_space4.generator(3)
    da = 0.5 * (e + 1j * f) * 0.5
    assert Driver.fermion_field().increment(space4, 1).is_close(
        space4.generator(1) * 0.5, tol=0.0)
    assert Driver.annihilation().increment(pair_space4, 1).is_close(
        da, tol=0.0)
    assert Driver.creation().increment(pair_space4, 1).is_close(
        da.adjoint(), tol=0.0)


def test_driver_layout_mismatch(space4, pair_space4):
    with pytest.raises(DriverMismatchError):
        Driver.fermion_field().increment(pair_space4, 0)
    with pytest.raises(DriverMismatchError):
        Driver.annihilation().increment(space4, 0)


def _pair_space():
    return make_space(TimeGrid.uniform(0.0, 1.0, 4), layout="pair")


def test_increment_is_cached_read_only():
    # an increment is a read-only dense copy of its cached gather
    sp = _pair_space()
    for driver in (Driver.annihilation(), Driver.linear_combination(1, 2j)):
        for k in range(sp.grid.n):
            inc = driver.increment(sp, k)
            assert not inc.mat.flags.writeable
            assert driver.gather(sp, k) is sp._gathers[(driver, k)]
            assert not np.shares_memory(inc.mat, driver.increment(sp, k).mat)


def test_increment_index_does_not_wrap():
    sp = _pair_space()
    for k in (-1, sp.grid.n):
        with pytest.raises(IndexError, match=f"increment index {k}"):
            Driver.annihilation().increment(sp, k)


def test_space_with_filled_increments_is_freed_without_the_collector():
    # the cache holds arrays only, so it makes no reference cycle
    gc.disable()
    try:
        sp = _pair_space()
        for driver in (Driver.annihilation(), Driver.creation()):
            driver.increment(sp, 0)
            driver.gather(sp, 1)
        ref = weakref.ref(sp)
        del sp
        assert ref() is None
    finally:
        gc.enable()


def test_combinations_with_different_alphas_do_not_collide():
    sp = _pair_space()
    a = Driver.linear_combination(1.0, 0.5)
    b = Driver.linear_combination(1.0, -0.5)
    for k in range(sp.grid.n):
        inc_a, inc_b = a.increment(sp, k), b.increment(sp, k)
        assert not inc_a.is_close(inc_b, tol=0.1)
        assert inc_a.is_close(Driver.annihilation().increment(sp, k)
                              + 0.5 * Driver.creation().increment(sp, k), tol=0.0)
        assert inc_b.is_close(Driver.annihilation().increment(sp, k)
                              - 0.5 * Driver.creation().increment(sp, k), tol=0.0)


@pytest.mark.parametrize("kind", list(DRIVER_KINDS))
def test_cached_increment_is_bitwise_a_fresh_one(kind):
    driver = Driver(kind, 0.75 + 0.25j, -1.5j)
    layout = driver.required_layout
    sp = make_space(TimeGrid.uniform(0.0, 1.0, 3), layout=layout)
    build = DRIVER_KINDS[kind][2]
    for _ in range(2):  # the first pass fills the cache, the second reads it
        for k in range(sp.grid.n):
            assert driver.increment(sp, k).mat.tobytes() == \
                build(driver, sp, k).dense().tobytes()


@pytest.mark.parametrize("kind", list(DRIVER_KINDS))
def test_every_increment_is_read_only_and_bitwise_its_gather(kind):
    driver = Driver(kind, 0.75 + 0.25j, -1.5j)
    sp = make_space(TimeGrid.uniform(0.0, 1.0, 3),
                    layout=driver.required_layout)
    for k in range(3):
        inc = driver.increment(sp, k).mat
        assert inc.shape == (sp.dim, sp.dim)
        assert not inc.flags.writeable
        assert inc.tobytes() == driver.gather(sp, k).dense().tobytes()
    other = "fermion" if driver.required_layout == "pair" else "pair"
    with pytest.raises(DriverMismatchError):
        driver.increment(make_space(TimeGrid.uniform(0.0, 1.0, 3),
                                    layout=other), 0)


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


def _factor_defect(f):
    """The largest L^2 adaptedness defect of f's level factors, each at its
    node's level."""
    return max(adaptedness_defect(a, f.space.level_of_node(k), 2)
               for k, a in enumerate(f.factors, f.start_node))


def test_random_process_is_adapted(space4, pair_space4, rng):
    f = AdaptedProcess.random(space4, rng)
    assert _factor_defect(f) < 1e-12
    assert len(f) == 4
    # the draw skips the construction check: every level must still hold,
    # from a later start node and in the pair layout too
    for sp in (space4, pair_space4):
        for start in range(sp.grid.n + 1):
            f = AdaptedProcess.random(sp, rng, start_node=start,
                                      num=sp.grid.n + 1 - start)
            assert (f.start_node, f.last_node) == (start, sp.grid.n)
            assert _factor_defect(f) < 1e-12
            # a value one level lower would fail the check
            for node in range(max(start, 1), sp.grid.n + 1):
                level = sp.level_of_node(node) - 1
                assert adaptedness_defect(f.value(node), level, 2) > 1e-3


def test_nonadapted_value_rejected(space4):
    # generator 3 is not level-0 measurable
    with pytest.raises(AdaptednessError, match="node 0"):
        AdaptedProcess(space4, [space4.generator(3)] * 4)


def test_a_value_off_its_level_factors_pattern_is_rejected(space4):
    # e_2 lies off node 2's pattern a (x) I, a on e_0 and e_1; a 1e-10 part
    # is far inside the defect threshold, 1e-8, so only the pattern rejects it
    vals = [space4.identity()] * 4
    vals[2] = space4.identity() + 1e-10 * space4.generator(2)
    with pytest.raises(AdaptednessError) as exc:
        AdaptedProcess(space4, vals)
    assert str(exc.value) == ("value at node 2 has a non-zero entry off the "
                              "level-2 pattern a (x) I")


@pytest.mark.parametrize("bad", [np.nan, np.inf])
@pytest.mark.parametrize("node", range(4))
def test_nonfinite_value_rejected(space4, bad, node):
    # the defect of a non-finite value is NaN, which no threshold exceeds
    vals = [space4.identity()] * 4
    vals[node] = space4.element(np.full((space4.dim, space4.dim), bad))
    with np.errstate(invalid="ignore"), \
            pytest.raises(AdaptednessError, match=f"node {node} "):
        AdaptedProcess(space4, vals)


def test_values_cannot_be_replaced_after_construction(space4, rng):
    f = AdaptedProcess.constant(space4, space4.identity())
    with pytest.raises(AttributeError):
        f.values = (space4.generator(3),) * 4
    for name in ("space", "factors", "start_node", "_values", "other"):
        with pytest.raises(AttributeError):
            setattr(f, name, None)
        with pytest.raises(AttributeError):
            delattr(f, name)
    for g in (f, AdaptedProcess.random(space4, rng)):
        assert isinstance(g.factors, tuple)
        assert all(not a.mat.flags.writeable for a in g.factors)
        assert all(not v.mat.flags.writeable for v in g.values)
        with pytest.raises(ValueError):
            g.factors[0].mat[0, 0] = 1.0
    assert _factor_defect(f) == 0.0


def test_values_expand_the_stored_level_factors(space4, rng):
    # each factor a contiguous copy at its level space's size, holding no
    # full-size value alive (the top node's level space is the full space)
    vals = [random_level_element(space4, rng, space4.level_of_node(k))
            for k in range(1, 4)]
    f = AdaptedProcess(space4, vals, start_node=1)
    assert len(f.factors) == 3
    assert f.values is f.values  # built once
    for k, (a, v) in enumerate(zip(f.factors, vals), start=1):
        sub = space4.level_space(k)
        assert a.space is sub and a.mat.flags.c_contiguous
        assert a is v if sub is space4 else not np.shares_memory(a.mat, v.mat)
        assert a.mat.tobytes() == v.mat[::space4.dim // sub.dim,
                                        ::space4.dim // sub.dim].tobytes()
        assert f.value(k).mat.tobytes() == v.mat.tobytes()


def test_value_expands_its_own_node_only():
    # node 0 of the n = 14 nonlocal_linear trajectory (dim 128): one
    # full-size value, 262,144 B, and not every node's expansion
    traj = picard_solve(make_problem("nonlocal_linear", n=14)).trajectory
    tracemalloc.start()
    try:
        v = traj.value(0)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert v.mat.nbytes == 262_144
    assert held <= 1.1 * v.mat.nbytes


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


@pytest.mark.parametrize("kw,what", [
    ({"start_node": 0.5}, "start_node 0.5"),
    ({"num": 2.5}, "num 2.5"),
    ({"num": 2, "start_node": 1.5}, "start_node 1.5"),
])
def test_random_and_constant_reject_non_integral_node_arguments(space4, rng, kw,
                                                               what):
    with pytest.raises(ValueError, match=f"{what} is not an integer"):
        AdaptedProcess.random(space4, rng, **kw)
    with pytest.raises(ValueError, match=f"{what} is not an integer"):
        AdaptedProcess.constant(space4, space4.identity(), **kw)


@pytest.mark.parametrize("num,start", [(2, 1), (np.int64(2), np.int64(1)),
                                       (2.0, 1.0)])
def test_integral_valued_node_arguments_keep_working(space4, rng, num, start):
    f = AdaptedProcess.random(space4, rng, num=num, start_node=start)
    assert (len(f), f.start_node, f.last_node) == (2, 1, 2)
    assert type(f.start_node) is int


@pytest.mark.parametrize("node", [2, np.int64(2), 2.0])
def test_value_takes_an_integral_node(space4, rng, node):
    f = AdaptedProcess.random(space4, rng)
    assert np.array_equal(f.value(node).mat,
                          np.kron(f.factors[2].mat, np.eye(space4.dim // 2)))


@pytest.mark.parametrize("node", [1.5, 0.5, float("nan")])
def test_value_rejects_a_non_integral_node(space4, rng, node):
    f = AdaptedProcess.random(space4, rng)
    with pytest.raises(ValueError, match=f"node {node!r} is not an integer"):
        f.value(node)
