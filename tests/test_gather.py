"""Products by monomial matrices as gathers, against the dense products.

The generators, Gamma, the phantom generator and every driver increment
have at most one non-zero entry in each row and column, so the library
multiplies by them with :class:`MonomialGather` index-and-weight gathers.
Each gathered entry is one product where the dense matmul adds exact
zeros to it, so with real or purely imaginary weights the two agree bit
for bit on finite input, apart from the sign of zero entries.  A complex
weight with both components non-zero (a complex-alpha linear combination)
is the one exception: BLAS and numpy's complex product may round the
two-term real and imaginary parts differently, so that case is held to
4 ulp of the product's size.

A space forms the generators, Gamma and the phantom as gathers from
their Pauli factors on first read, and the driver increments from those,
so both are checked against a Jordan-Wigner construction built here with
``np.kron``, which the library's gathers were not derived from.
"""

import dataclasses
import re
import threading
import tracemalloc
from functools import reduce

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffsde import (
    ConvergenceError,
    Driver,
    QsdeProblem,
    TimeGrid,
    conditional_expect,
    make_coefficient,
    make_nonlocal,
    make_problem,
    make_space,
    parity_automorphism,
    picard_solve,
)
from cliffsde import space as space_module
from cliffsde.problems import PROBLEMS
from cliffsde.process import DRIVER_KINDS
from cliffsde.space import MonomialGather

GEN_COUNTS = (3, 4, 7, 8, 14)
# entry scales: ordinary, huge, subnormal and the smallest subnormal
SCALES = (1.0, 1e300, 1e-310, 5e-324)


def _nonuniform(n: int, seed: int) -> TimeGrid:
    rng = np.random.default_rng(seed)
    return TimeGrid(np.concatenate(([0.0], np.cumsum(
        rng.uniform(0.05, 1.0, n)))))


_FERMION = {n: make_space(TimeGrid.uniform(0.0, 1.0, n)) for n in GEN_COUNTS}
_SPACES = {
    "fermion": [_FERMION[3], _FERMION[8], make_space(_nonuniform(5, 1))],
    "pair": [make_space(TimeGrid.uniform(0.0, 1.0, 3), layout="pair"),
             make_space(_nonuniform(4, 2), layout="pair")],
}
_DRIVERS = [Driver(kind) for kind in DRIVER_KINDS if kind != "linear_combination"]
_DRIVERS += [Driver.linear_combination(0.5, 1.0),
             Driver.linear_combination(-2.0j, 0.25j)]
_COMPLEX_ALPHA = Driver.linear_combination(0.5 + 1.5j, -0.75 + 0.25j)


def _jordan_wigner(n_gen: int):
    """The reference ``(generators, gamma)`` of an ``n_gen``-generator
    space, built here with ``np.kron`` apart from the library: e_{2q} is
    Z^(x q) (x) X (x) I..., e_{2q+1} the same with Y, Gamma is Z^(x f).
    An odd count gets its phantom generator (index n_gen) appended."""
    f = (n_gen + 1) // 2
    x = np.array([[0, 1], [1, 0]], dtype=complex)
    y = np.array([[0, -1j], [1j, 0]], dtype=complex)
    z = np.diag([1, -1]).astype(complex)
    eye = np.eye(2, dtype=complex)
    gens = [reduce(np.kron, [z] * (i // 2) + [y if i % 2 else x]
                   + [eye] * (f - i // 2 - 1))
            for i in range(n_gen + n_gen % 2)]
    return gens, reduce(np.kron, [z] * f)


_JW = {n: _jordan_wigner(n) for n in GEN_COUNTS}


def _matrix(dim: int, seed: int, scales=SCALES) -> np.ndarray:
    """Finite complex entries at mixed scales, some exactly zero."""
    rng = np.random.default_rng(seed)
    parts = rng.standard_normal((2, dim, dim)) * rng.choice(scales, (2, dim, dim))
    parts[rng.random((2, dim, dim)) < 0.1] = 0.0
    return parts[0] + 1j * parts[1]


def _assert_bitwise_but_zero_signs(got: np.ndarray, want: np.ndarray):
    assert np.array_equal(got, want)
    g = np.ascontiguousarray(got).view(float)
    w = np.ascontiguousarray(want).view(float)
    nz = w != 0
    assert g[nz].tobytes() == w[nz].tobytes()


@settings(max_examples=8, deadline=None)
@given(n=st.sampled_from(GEN_COUNTS), seed=st.integers(0, 2**32 - 1))
def test_generator_gamma_phantom_gathers_equal_dense_products(n, seed):
    # the space's gathers (phantom included) against products by the
    # reference matrices they were not derived from
    sp = _FERMION[n]
    x = _matrix(sp.dim, seed)
    gens, gamma = _JW[n]
    read = [sp._gen(i) for i in range(len(gens))] + [sp._gen(None)]
    for gather, m in zip(read, gens + [gamma], strict=True):
        _assert_bitwise_but_zero_signs(gather.right(x), x @ m)
        _assert_bitwise_but_zero_signs(gather.left(x), m @ x)


@pytest.mark.parametrize("n", GEN_COUNTS)
def test_dense_scatters_equal_the_reference_matrices(n):
    sp = _FERMION[n]
    gens, gamma = _JW[n]
    for i in range(sp.n_gen):
        _assert_bitwise_but_zero_signs(sp.generator(i).mat, gens[i])
    # Gamma, then the phantom of an odd count
    _assert_bitwise_but_zero_signs(sp._gen(None).dense(), gamma)
    assert len(gens) == sp.n_gen + n % 2
    if n % 2 == 1:
        _assert_bitwise_but_zero_signs(sp._gen(n).dense(), gens[n])


def test_a_space_stores_its_generators_in_o_of_dim():
    # 15 gathers of dim 128 take about 100 KB; dense generators and Gamma
    # would take 3.75 MB
    grid = TimeGrid.uniform(0.0, 1.0, 14)
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        sp = make_space(grid)
        for i in [*range(sp.n_gen), None]:
            sp._gen(i)
        held = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert sp.dim == 128
    assert held < 0.25 * 2**20


@settings(max_examples=10, deadline=None)
@given(layout=st.sampled_from(sorted(_SPACES)), which=st.integers(0, 2),
       d=st.integers(0, len(_DRIVERS) - 1), seed=st.integers(0, 2**32 - 1))
def test_driver_increment_gathers_equal_dense_products(layout, which, d, seed):
    sp = _SPACES[layout][which % len(_SPACES[layout])]
    drivers = [dr for dr in _DRIVERS if dr.required_layout == layout]
    driver = drivers[d % len(drivers)]
    x = _matrix(sp.dim, seed)
    for k in range(sp.grid.n):
        m, gather = driver.increment(sp, k).mat, driver.gather(sp, k)
        _assert_bitwise_but_zero_signs(gather.right(x), x @ m)
        _assert_bitwise_but_zero_signs(gather.left(x), m @ x)


@settings(max_examples=10, deadline=None)
@given(which=st.integers(0, 1), seed=st.integers(0, 2**32 - 1))
def test_complex_alpha_gathers_agree_within_4_ulp(which, seed):
    sp = _SPACES["pair"][which]
    # no huge entries: the rounding of a two-term sum is what differs here
    x = _matrix(sp.dim, seed, scales=(1.0, 1e-310, 5e-324))
    for k in range(sp.grid.n):
        m = _COMPLEX_ALPHA.increment(sp, k).mat
        gather = _COMPLEX_ALPHA.gather(sp, k)
        for got, want, size in (
                (gather.right(x), x @ m, np.abs(x[:, gather.cols] * gather.wc)),
                (gather.left(x), m @ x,
                 np.abs(gather.wr[:, None] * x[gather.rows]))):
            bound = 4 * np.spacing(size)
            assert np.all(np.abs(got.real - want.real) <= bound)
            assert np.all(np.abs(got.imag - want.imag) <= bound)


def test_gathers_are_built_on_first_use():
    # each gather is built by its kind when first asked for and cached by
    # (driver, k): asking for one builds no other gather
    for kind in DRIVER_KINDS:
        driver = Driver(kind, 0.75 + 0.25j, -1.5j)
        sp = make_space(TimeGrid.uniform(0.0, 1.0, 3),
                        layout=driver.required_layout)
        g = driver.gather(sp, 1)
        assert driver.gather(sp, 1) is g
        assert list(sp._gathers) == [(driver, 1)]
        # and only the generators increment 1 is made of
        assert set(sp._gens) == ({1} if sp.layout == "fermion" else {2, 3})
        # O(dim) vectors, not dim x dim weights
        assert {a.shape for a in (g.cols, g.wc, g.rows, g.wr)} == {(sp.dim,)}
        for k in range(sp.grid.n):
            assert driver.gather(sp, k).dense().tobytes() == \
                driver.increment(sp, k).mat.tobytes()
        assert driver.gather(sp, 1) is g


def _reference_increment(driver, sp, k):
    """Increment k by the driver's formula in the ``np.kron`` generators."""
    gens = _jordan_wigner(sp.n_gen)[0]
    s = complex(np.sqrt(sp.grid.delta(k)))
    if driver.kind == "fermion_field":
        return gens[k] * s
    da = (gens[2 * k] + gens[2 * k + 1] * 1j) * 0.5 * s
    return {"annihilation": da, "creation": da.conj().T,
            "linear_combination": da * complex(driver.alpha1)
            + da.conj().T * complex(driver.alpha2)}[driver.kind]


@pytest.mark.parametrize("driver", _DRIVERS + [
    Driver.linear_combination(0.75 + 0.25j, -1.5j)], ids=repr)
def test_dense_increments_equal_the_reference_formulas(driver):
    for sp in _SPACES[driver.required_layout]:
        for k in range(sp.grid.n):
            want = _reference_increment(driver, sp, k)
            _assert_bitwise_but_zero_signs(driver.increment(sp, k).mat, want)


def test_a_space_is_built_without_dense_matrices():
    # one dense dim-1024 matrix is 16 MB; the 21 gathers take about 1 MB
    grid = TimeGrid.uniform(0.0, 1.0, 20)
    tracemalloc.start()
    try:
        sp = make_space(grid, max_generators=20)
        for i in [*range(sp.n_gen), None]:
            sp._gen(i)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert sp.dim == 1024
    assert peak < 2 * 2**20


@pytest.mark.parametrize("start_node", [0, 3])
def test_a_solve_builds_only_the_gathers_it_reads(start_node, monkeypatch):
    # step k of the cumulative integrals reads increment k's gather in
    # node k + 1's level space, and no other; a space forms the generator
    # gathers its increments are made of and those its odd-level flips
    # read, plus Gamma where a flip ran, and no other
    prob = make_problem("nonlocal_linear", n=8).replace(start_node=start_node)
    flips = []
    project = space_module._project

    def recording(sp, mat, k):
        if k % 2 == 1:
            flips.append((sp, k))
        return project(sp, mat, k)

    monkeypatch.setattr(space_module, "_project", recording)
    picard_solve(prob)
    sp = prob.space
    want, gens = {}, {}
    for k in range(start_node, sp.grid.n):
        want.setdefault(id(sp.level_space(k + 1)), set()).add(k)
        gens.setdefault(id(sp.level_space(k + 1)), set()).add(k)
    for space, k in flips:
        gens.setdefault(id(space), set()).update({k, None})
    # the sweeps flip every odd level from the start node's on
    assert {k for _, k in flips} == set(range(start_node | 1, sp.grid.n + 1, 2))
    for space in (sp, *sp._levels.values()):
        got = {k for (driver, k) in space._gathers}
        assert got == want.get(id(space), set())
        assert all(driver == prob.driver for driver, _ in space._gathers)
        assert set(space._gens) == gens.get(id(space), set())


_BUILDS = [(name, n) for name in PROBLEMS
           for n in ((4, 8, 14) if name != "linear_pair" else range(1, 8))]


@pytest.mark.parametrize("name,n", _BUILDS, ids=[f"{a}-{b}" for a, b in _BUILDS])
def test_a_build_forms_no_generator_gather(name, n, monkeypatch):
    # a build reads no generator or Gamma: no Kronecker factors are
    # multiplied out, and no space or level space caches a gather
    calls = []
    kron = MonomialGather.kron
    monkeypatch.setattr(MonomialGather, "kron",
                        lambda factors: calls.append(1) or kron(factors))
    sp = make_problem(name, n=n).space
    assert calls == []
    for space in (sp, *sp._levels.values()):
        assert space._gens == {} and space._gathers == {}


def _pauli_factors(sp, i):
    """The 2x2 factors of generator i (the phantom at n_gen) or, at
    i = None, of Gamma: Z^(x i//2) (x) X or Y (x) I..., and Z^(x f)."""
    f = sp.factors
    if i is None:
        return [space_module._Z] * f
    return ([space_module._Z] * (i // 2)
            + [space_module._Y if i % 2 else space_module._X]
            + [space_module._I] * (f - i // 2 - 1))


@settings(max_examples=40, deadline=None)
@given(layout=st.sampled_from(["fermion", "pair"]), n=st.integers(1, 14),
       data=st.data())
def test_every_formed_gather_is_the_kron_of_its_factors(layout, n, data):
    # read in a drawn order, each gather is byte for byte (zero signs
    # included) the product of its own Pauli factors, and a second read
    # returns the cached object
    n = n if layout == "fermion" else (n + 1) // 2
    sp = make_space(TimeGrid.uniform(0.0, 1.0, n), layout=layout)
    order = data.draw(st.permutations([*range(sp.n_gen + sp.n_gen % 2), None]),
                      label="order")
    for i in order:
        got, want = sp._gen(i), MonomialGather.kron(_pauli_factors(sp, i))
        for name in ("cols", "wc", "rows", "wr"):
            a, b = getattr(got, name), getattr(want, name)
            assert a.dtype == b.dtype and a.shape == b.shape == (sp.dim,)
            assert a.tobytes() == b.tobytes()
    assert set(sp._gens) == set(order)
    assert all(sp._gen(i) is sp._gens[i] for i in order)


def test_two_threads_reading_one_gather_get_one_object(monkeypatch):
    # both threads are inside kron at once, so both form the gather; the
    # cache hands each the one that was stored first
    both_in = threading.Barrier(2, timeout=5)
    kron = MonomialGather.kron

    def meeting(factors):
        try:
            both_in.wait()
        except threading.BrokenBarrierError:  # a cache that serializes
            pass
        return kron(factors)

    monkeypatch.setattr(MonomialGather, "kron", meeting)
    for i in (0, 3, None):
        both_in.reset()
        sp = make_space(TimeGrid.uniform(0.0, 1.0, 8))
        got = [None, None]

        def read(j):
            got[j] = sp._gen(i)

        threads = [threading.Thread(target=read, args=(j,)) for j in range(2)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert got[0] is got[1] is sp._gens[i]


def test_partial_monomial_matrix_has_zero_weights():
    g = MonomialGather(np.array([1, 0]), np.array([0, 2], dtype=complex))
    m = np.array([[0, 2], [0, 0]], dtype=complex)
    assert np.array_equal(g.dense(), m)
    assert g.wc.tolist() == [0, 2] and g.wr.tolist() == [2, 0]
    x = np.arange(4, dtype=complex).reshape(2, 2) + 1
    assert np.array_equal(g.right(x), x @ m)
    assert np.array_equal(g.left(x), m @ x)
    assert np.array_equal(g.adjoint().dense(), m.conj().T)


def test_gather_keeps_a_nan_in_its_own_entry():
    sp = _FERMION[4]
    x = np.ones((sp.dim, sp.dim), dtype=complex)
    x[1, 2] = np.nan
    g = sp._gen(1)
    assert np.isnan(g.right(x)).sum() == 1
    assert np.isnan(x @ _JW[4][0][1]).sum() > 1


@settings(max_examples=8, deadline=None)
@given(n=st.sampled_from(GEN_COUNTS), seed=st.integers(0, 2**32 - 1),
       level=st.integers(0, 14))
def test_conditional_expect_and_parity_match_the_dense_formulas(n, seed, level):
    sp = _FERMION[n]
    k = level % (sp.n_gen + 1)
    x = sp.element(_matrix(sp.dim, seed, scales=(1.0, 1e-310)))
    gens, gam = _JW[n]
    _assert_bitwise_but_zero_signs(parity_automorphism(x).mat, gam @ x.mat @ gam)
    got = conditional_expect(x, k).mat
    if k % 2 == 1:
        # the projection before the odd-level average is the level k + 1 one
        mat = conditional_expect(x, k + 1).mat if k < sp.n_gen else x.mat
        g = gens[k]  # the phantom at k = n_gen
        _assert_bitwise_but_zero_signs(got, 0.5 * (mat + g @ (gam @ mat @ gam) @ g))


def test_monomial_matches_the_dense_product():
    sp = _FERMION[7]
    subset = (0, 2, 3, 6)
    want = np.eye(sp.dim, dtype=complex)
    for i in subset:
        want = want @ _JW[7][0][i]
    _assert_bitwise_but_zero_signs(sp.monomial(subset).mat, want)


# -- non-finite coefficient values stop the solve where they enter ------------


def _poisoned_problem(sweep, node, entry, value, mode, r_name):
    """An n = 4 linear problem whose F puts ``value`` at ``entry`` (modulo
    the size of F's output, a level factor) of its output on the given
    sweep at the given node.  Sweep 1 evaluates F at every node below 4,
    sweep s > 1 at the values sweep s - 1 re-solved there, nodes s - 2 .. 3;
    so the j-th call at a node is sweep j's.  ``calls`` counts them per
    node."""
    sp = make_space(TimeGrid.uniform(0.0, 1.0, 4))
    base = make_coefficient("scale", 4.0, c=0.5)
    calls = [0] * sp.grid.n

    def fn(x, t):
        out = base(x, t)
        k = round(t * sp.grid.n)
        calls[k] += 1
        if (calls[k], k) != (sweep, node):
            return out
        mat = out.mat.copy()
        dim = mat.shape[0]
        mat[entry[0] % dim, entry[1] % dim] = value
        return out.space.element(mat)

    F = type(base)(fn=fn, modulus=base.modulus, name="poisoned")
    zero = make_coefficient("zero", 4.0)
    R = make_nonlocal(r_name, **({"c": 0.5} if r_name == "scale" else {}))
    prob = QsdeProblem(sp, F, make_coefficient("scale", 4.0, c=0.25), zero, R,
                       1.3 * sp.identity(), Driver.fermion_field(), 4.0,
                       nonlocal_mode=mode, validate=False)
    return prob, calls


@settings(max_examples=12, deadline=None)
@given(at=st.sampled_from([(s, k) for s in (1, 2, 3)
                           for k in range(max(s - 2, 0), 4)]),
       entry=st.tuples(st.integers(0, 3), st.integers(0, 3)),
       value=st.sampled_from([np.nan, np.inf, -np.inf, complex(0, np.nan),
                              complex(np.inf, 1.0)]),
       mode=st.sampled_from(["pointwise", "initial"]),
       r_name=st.sampled_from(["zero", "scale"]))
def test_non_finite_coefficient_stops_at_the_poisoned_sweep_and_node(
        at, entry, value, mode, r_name):
    # ``at`` is a (sweep, node) where the solve evaluates F.  F(X_node)
    # feeds the integral from node + 1 on: the pointwise inner solve there
    # takes a non-finite first step, after all of the sweep's calls of F; in
    # initial mode the sweep's delta at node + 1 is the first non-finite
    # value
    sweep, node = at
    prob, calls = _poisoned_problem(sweep, node, entry, value, mode, r_name)
    with pytest.raises(ConvergenceError) as info:
        picard_solve(prob, tol=1e-10, max_outer=6)
    got = re.sub(r"\(-?(nan|inf)\)", "(X)", str(info.value))
    if mode == "pointwise":
        assert got == (f"Picard sweep {sweep}: inner iteration at node "
                       f"{node + 1} produced a non-finite step (X)")
        assert calls == [min(sweep, k + 2) for k in range(4)]
    else:
        assert got == (f"Picard sweep {sweep} produced a non-finite delta "
                       f"(X) at node {node + 1}")


@pytest.mark.parametrize("mode", ["pointwise", "initial"])
@pytest.mark.parametrize("value", [np.nan, np.inf, complex(np.inf, 1.0)])
def test_a_skipped_zero_map_fails_as_the_solved_one_does(mode, value):
    # R and H are the built-in zero map, whose terms the solve skips; a map
    # returning 0 from another function takes the inner solve: the message,
    # deltas and iterations of the error are the same
    errors = []
    for swap in (False, True):
        prob, _ = _poisoned_problem(2, 1, (0, 0), value, mode, "zero")
        if swap:
            prob = prob.replace(**{r: dataclasses.replace(
                getattr(prob, r), fn=lambda x, *t: x.space.zero())
                for r in "HR"})
        with pytest.raises(ConvergenceError) as info:
            picard_solve(prob, tol=1e-10, max_outer=6)
        errors.append((str(info.value), repr(info.value.deltas),
                       info.value.iterations))
    assert errors[0] == errors[1]


@pytest.mark.parametrize("mode", ["pointwise", "initial"])
@pytest.mark.parametrize("r_name", ["zero", "scale"])
def test_a_poison_at_a_settled_node_is_never_read(mode, r_name):
    # node 0's equation is final from sweep 1 on, so F(X_0) is integrated in
    # sweeps 1 and 2 only: a NaN on a third call there would stop the solve
    prob, calls = _poisoned_problem(3, 0, (0, 0), np.nan, mode, r_name)
    clean, _ = _poisoned_problem(7, 0, (0, 0), np.nan, mode, r_name)
    report = picard_solve(prob, tol=1e-10, max_outer=6)
    assert calls[0] == 2
    want = picard_solve(clean, tol=1e-10, max_outer=6)
    assert [x.mat.tobytes() for x in report.factors] == \
        [x.mat.tobytes() for x in want.factors]
