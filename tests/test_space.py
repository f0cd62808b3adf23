"""Generator representation, filtration, conditional expectation, parity,
and the monomial transform."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cliffsde import (
    AdaptednessError,
    Driver,
    ResourceLimitError,
    TimeGrid,
    conditional_expect,
    lp_norm,
    make_problem,
    make_space,
    monomial_expand,
    op_norm,
    parity_automorphism,
    parity_decompose,
    random_level_element,
    reconstruct,
    state,
)
from cliffsde import space as space_module

EXACT = 1e-12
ROUNDTRIP_TOL = 1e-10

_SP6 = make_space(TimeGrid.uniform(0.0, 1.0, 6))


# -- representation ----------------------------------------------------------


@pytest.mark.parametrize("n,layout,n_gen,dim", [
    (2, "fermion", 2, 2),
    (1, "fermion", 1, 2),
    (4, "fermion", 4, 4),
    (12, "fermion", 12, 64),
    (2, "pair", 4, 4),
    (6, "pair", 12, 64),
])
def test_dimensions(n, layout, n_gen, dim):
    sp = make_space(TimeGrid.uniform(0.0, 1.0, n), layout=layout)
    assert sp.n_gen == n_gen
    assert sp.dim == dim


def test_generators_anticommute_exactly():
    sp = _SP6
    for i in range(sp.n_gen):
        ei = sp.generator(i)
        for j in range(i, sp.n_gen):
            ej = sp.generator(j)
            target = 2.0 * sp.identity() if i == j else sp.zero()
            assert op_norm(ei @ ej + ej @ ei - target) == 0.0


def test_generators_selfadjoint_unitary():
    sp = _SP6
    for i in range(sp.n_gen):
        e = sp.generator(i)
        assert e.selfadjoint_defect() == 0.0
        assert op_norm(e @ e - sp.identity()) == 0.0


def test_single_generator_space():
    sp = make_space(TimeGrid.uniform(0.0, 1.0, 1))
    assert sp.dim == 2
    e = sp.generator(0)
    assert op_norm(e @ e - sp.identity()) == 0.0


def test_generator_index_bounds(space4):
    with pytest.raises(IndexError):
        space4.generator(4)
    with pytest.raises(IndexError):
        space4.generator(-1)
    with pytest.raises(IndexError):
        space4.monomial((0, 7))


def test_monomial_builds_ordered_product(space4):
    e0, e2 = space4.generator(0), space4.generator(2)
    assert space4.monomial((2, 0)).is_close(e0 @ e2, tol=0.0)
    assert space4.monomial(()).is_close(space4.identity(), tol=0.0)


def test_generator_budget_enforced():
    grid = TimeGrid.uniform(0.0, 1.0, 15)
    with pytest.raises(ResourceLimitError, match="14"):
        make_space(grid)
    sp = make_space(grid, max_generators=16)
    assert sp.n_gen == 15


def test_unknown_layout_rejected():
    with pytest.raises(ValueError):
        make_space(TimeGrid.uniform(0.0, 1.0, 2), layout="bosonic")


def test_space_equality(space4):
    twin = make_space(TimeGrid.uniform(0.0, 1.0, 4))
    assert space4 == twin
    assert hash(space4) == hash(twin)
    assert space4 != make_space(TimeGrid.uniform(0.0, 1.0, 4), layout="pair")


# -- filtration --------------------------------------------------------------


def test_level_of_node_fermion(space8):
    assert [space8.level_of_node(k) for k in range(9)] == list(range(9))
    with pytest.raises(IndexError):
        space8.level_of_node(9)


def test_level_of_node_pair(pair_space4):
    assert [pair_space4.level_of_node(k) for k in range(5)] == [0, 2, 4, 6, 8]


@pytest.mark.parametrize("node", [2, np.int64(2), 2.0])
def test_level_of_node_takes_integral_nodes(pair_space4, node):
    level = pair_space4.level_of_node(node)
    assert level == 4 and type(level) is int


# a bool ran as node 1
@pytest.mark.parametrize("node", [1.5, 0.5, float("nan"), "2", b"2", True,
                                  np.True_])
def test_level_of_node_rejects_a_non_integral_node(space4, node):
    with pytest.raises(ValueError, match=f"node index {node!r} is not an integer"):
        space4.level_of_node(node)


# -- conditional expectation ---------------------------------------------------


def test_conditional_expect_frozen_example(space4):
    e0, e1 = space4.generator(0), space4.generator(1)
    x = 2.0 * space4.identity() + 3.0 * e0 + 5.0 * (e0 @ e1)
    ce = conditional_expect(x, 1)
    assert ce.is_close(2.0 * space4.identity() + 3.0 * e0, tol=EXACT)


def test_conditional_expect_kills_later_generators(space4):
    assert conditional_expect(space4.generator(1), 1).is_close(space4.zero(), tol=EXACT)
    assert conditional_expect(space4.generator(3), 2).is_close(space4.zero(), tol=EXACT)


def test_conditional_expect_level_zero_is_state(space4, rng):
    x = space4.element(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    ce = conditional_expect(x, 0)
    assert ce.is_close(state(x) * space4.identity(), tol=EXACT)


def test_conditional_expect_full_level_fixes_everything(space4, rng):
    # even generator count: the matrix algebra IS the monomial span
    x = space4.element(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert conditional_expect(x, space4.n_gen).is_close(x, tol=0.0)


def test_conditional_expect_level_bounds(space4):
    with pytest.raises(ValueError):
        conditional_expect(space4.identity(), 5)
    with pytest.raises(ValueError):
        conditional_expect(space4.identity(), -1)


@pytest.mark.parametrize("level", [0.7, 1.9, float("nan"), float("inf")])
def test_non_integer_levels_are_rejected(space4, rng, level):
    # 0.7 used to project onto level 0 and 1.9 to draw at level 1
    with pytest.raises(ValueError, match=f"filtration level {level!r}"):
        conditional_expect(space4.generator(0), level)
    with pytest.raises(ValueError, match=f"filtration level {level!r}"):
        random_level_element(space4, rng, level)


def test_huge_integer_level_is_out_of_range(space4, rng):
    with pytest.raises(ValueError, match="outside 0..4"):
        conditional_expect(space4.identity(), 10 ** 400)
    with pytest.raises(ValueError, match="outside 0..4"):
        random_level_element(space4, rng, 10 ** 400)


@pytest.mark.parametrize("level", [2, np.int64(2), 2.0])
def test_integral_levels_of_any_type_are_accepted(space4, level):
    e0, e1, e2 = (space4.generator(i) for i in range(3))
    x = e0 @ e1 + e2
    assert conditional_expect(x, level).is_close(e0 @ e1, tol=EXACT)
    rng = np.random.default_rng(5)
    assert random_level_element(space4, rng, level).is_close(
        random_level_element(space4, np.random.default_rng(5), 2), tol=0.0)


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       k=st.integers(min_value=0, max_value=6))
def test_conditional_expect_idempotent_and_state_preserving(seed, k):
    rng = np.random.default_rng(seed)
    d = _SP6.dim
    x = _SP6.element(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    ce = conditional_expect(x, k)
    assert conditional_expect(ce, k).is_close(ce, tol=EXACT)
    assert abs(state(ce) - state(x)) < EXACT * 10


def test_conditional_expect_tower(rng):
    d = _SP6.dim
    for _ in range(5):
        x = _SP6.element(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        for j, k in ((4, 2), (2, 4), (5, 3), (3, 5), (6, 1)):
            a = conditional_expect(conditional_expect(x, j), k)
            b = conditional_expect(x, min(j, k))
            assert a.is_close(b, tol=EXACT * 10)


def test_conditional_expect_module_property(rng):
    """E(a x b | k) = a E(x | k) b for a, b measurable at level k."""
    d = _SP6.dim
    for k in (2, 3, 5):
        a = random_level_element(_SP6, rng, k)
        b = random_level_element(_SP6, rng, k)
        x = _SP6.element(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
        lhs = conditional_expect(a @ x @ b, k)
        rhs = a @ conditional_expect(x, k) @ b
        assert lp_norm(lhs - rhs, 2.0) < 1e-10


def test_conditional_expect_contracts(rng):
    d = _SP6.dim
    x = _SP6.element(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))
    for k in range(7):
        for p in (1.0, 2.0, 4.0):
            assert lp_norm(conditional_expect(x, k), p) <= lp_norm(x, p) * (1 + 1e-12)


def test_odd_full_level_lands_in_monomial_span(rng):
    """With an odd generator count, the 2^k-dimensional matrix algebra is
    twice the monomial span; E(x | n_gen) must project onto the span."""
    sp = make_space(TimeGrid.uniform(0.0, 1.0, 1))  # one generator, dim 2
    x = sp.element(rng.standard_normal((2, 2)) + 1j * rng.standard_normal((2, 2)))
    ce = conditional_expect(x, 1)
    coeffs = monomial_expand(ce)
    assert set(coeffs) <= {(), (0,)}
    assert reconstruct(sp, coeffs).is_close(ce, tol=ROUNDTRIP_TOL)
    # idempotent, state-preserving, and fixes span elements
    assert conditional_expect(ce, 1).is_close(ce, tol=EXACT)
    assert abs(state(ce) - state(x)) < EXACT
    y = 1.5 * sp.identity() + (0.25 - 1j) * sp.generator(0)
    assert conditional_expect(y, 1).is_close(y, tol=EXACT)


def test_odd_intermediate_level(space4, rng):
    """Level 3 of a 4-generator space: monomials over {e0, e1, e2}."""
    x = space4.element(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    ce = conditional_expect(x, 3)
    assert all(max(s, default=-1) <= 2 for s in monomial_expand(ce, tol=1e-13))


# -- parity --------------------------------------------------------------------


def test_parity_negates_generators(space4):
    for i in range(space4.n_gen):
        e = space4.generator(i)
        assert parity_automorphism(e).is_close(-e, tol=0.0)


def test_parity_fixes_even_monomials(space4):
    x = space4.monomial((0, 2))
    assert parity_automorphism(x).is_close(x, tol=0.0)


def test_parity_is_involution(space4, rng):
    x = space4.element(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    assert parity_automorphism(parity_automorphism(x)).is_close(x, tol=0.0)


def test_parity_decompose_splits_exactly(space4, rng):
    x = space4.element(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    even, odd = parity_decompose(x)
    assert (even + odd).is_close(x, tol=0.0)
    assert parity_automorphism(even).is_close(even, tol=EXACT)
    assert parity_automorphism(odd).is_close(-odd, tol=EXACT)


def test_parity_decompose_examples(space4):
    e0, e1 = space4.generator(0), space4.generator(1)
    even, odd = parity_decompose(e0)
    assert even.is_close(space4.zero(), tol=0.0)
    assert odd.is_close(e0, tol=0.0)
    even, odd = parity_decompose(e0 @ e1)
    assert even.is_close(e0 @ e1, tol=0.0)
    assert odd.is_close(space4.zero(), tol=0.0)


def test_parity_parts_of_selfadjoint_are_selfadjoint(space4, rng):
    x = space4.element(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
    sa = 0.5 * (x + x.adjoint())
    even, odd = parity_decompose(sa)
    assert even.selfadjoint_defect() < EXACT
    assert odd.selfadjoint_defect() < EXACT


# -- monomial transform ----------------------------------------------------------


def test_expand_identity(space4):
    assert monomial_expand(space4.identity()) == {(): 1.0}


def test_expand_fermion_increment(space4):
    co = monomial_expand(Driver.fermion_field().increment(space4, 2))
    assert set(co) == {(2,)}
    assert abs(co[(2,)] - 0.5) < EXACT  # sqrt(0.25)


def test_expand_product_monomial(space4):
    co = monomial_expand(space4.generator(0) @ space4.generator(1))
    assert set(co) == {(0, 1)}
    assert abs(co[(0, 1)] - 1.0) < EXACT


def test_expand_reconstruct_roundtrip(space4, rng):
    for _ in range(5):
        x = space4.element(rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4)))
        back = reconstruct(space4, monomial_expand(x))
        assert op_norm(back - x) < ROUNDTRIP_TOL


def test_expand_tol_drops_small_terms(space4):
    x = space4.identity() + 1e-9 * space4.generator(0)
    assert set(monomial_expand(x, tol=1e-6)) == {()}


# -- random level elements -------------------------------------------------------


def test_random_level_element_is_measurable(rng):
    for level in range(_SP6.n_gen + 1):
        x = random_level_element(_SP6, rng, level)
        assert lp_norm(x - conditional_expect(x, level), 2.0) < EXACT
        assert abs(lp_norm(x, 2.0) - 1.0) < EXACT


def test_random_level_element_deterministic():
    a = random_level_element(_SP6, np.random.default_rng(7), 3)
    b = random_level_element(_SP6, np.random.default_rng(7), 3)
    assert a.is_close(b, tol=0.0)


def test_random_level_element_level_bounds(rng):
    with pytest.raises(ValueError):
        random_level_element(_SP6, rng, 7)


def test_zero_peaks_at_one_matrix():
    # zero() owns the array it builds; a copy of it peaks at 2.00x
    sp = make_space(TimeGrid.uniform(0.0, 1.0, 14))
    tracemalloc.start()
    try:
        z = sp.zero()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert z.mat.shape == (128, 128)
    assert peak <= 1.05 * z.mat.nbytes


@pytest.mark.parametrize("level,bound", [(7, 3.5), (8, 2.5)])
def test_a_chunk_draw_holds_no_normals_through_the_flip_and_the_norm(level,
                                                                     bound):
    # the float normals take the bytes of the complex factors they fill;
    # held through an odd level's flip and the normalisation, a 10-trial
    # draw at n = 8 peaked at 4.05x (level 7) and 3.05x (level 8) the
    # factors' bytes under tracemalloc, against 3.04x and 2.05x without
    sp = make_space(TimeGrid.uniform(0.0, 1.0, 8))
    space_module._draw_levels(sp, [np.random.default_rng(0)], [level])  # caches
    rngs = [np.random.default_rng(t) for t in range(10)]
    tracemalloc.start()
    try:
        a = space_module._draw_levels(sp, rngs, [level])[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert a.shape == (10, 16, 16)
    assert peak <= bound * a.nbytes


# -- E(x | k) against a dense reference ---------------------------------------------


_PROJECTION_SPACES = {(layout, n): make_space(TimeGrid.uniform(0.0, 1.0, n),
                                              layout=layout)
                      for layout, ns in (("fermion", range(1, 8)),
                                         ("pair", range(1, 4)))
                      for n in ns}


def _dense_projection(sp, mat, k):
    """E(x | k) by dense products: np.kron(pt, I) of the partial trace pt
    over the unused factors, then at an odd k the average with its
    conjugate by e_k Gamma (e_k the phantom when k = n_gen)."""
    r = (k + 1) // 2
    lo, hi = 2 ** r, sp.dim // 2 ** r
    pt = np.einsum("ajbj->ab", mat.reshape(lo, hi, lo, hi)) / hi
    out = np.kron(pt, np.eye(hi, dtype=complex))
    if k % 2 == 1:
        u = sp._gen(k).dense() @ sp._gen(None).dense()
        out = (u @ out @ u.conj().T + out) * 0.5
    return out


@settings(max_examples=150, deadline=None)
@given(key=st.sampled_from(sorted(_PROJECTION_SPACES)), data=st.data(),
       stack=st.integers(0, 3))
def test_projections_are_the_dense_kron_and_flip_up_to_zero_signs(key, data,
                                                                   stack):
    # stack 0: one element through conditional_expect; else a stack of
    # that many matrices through the kernel.  Entries are finite at mixed
    # scales, so each dense product by a signed permutation is exact
    sp = _PROJECTION_SPACES[key]
    k = data.draw(st.integers(0, sp.n_gen), label="level")
    entries = st.complex_numbers(max_magnitude=1e300, allow_infinity=False,
                                 allow_nan=False, allow_subnormal=True)
    mats = data.draw(arrays(complex, (max(stack, 1), sp.dim, sp.dim),
                            elements=entries), label="mats")
    if stack:
        got = space_module._project(sp, mats, k)
    else:
        got = conditional_expect(sp.element(mats[0]), k).mat[None]
    assert got.shape == mats.shape
    for g, m in zip(got, mats):
        assert np.array_equal(g, _dense_projection(sp, m, k))


def test_projections_leave_no_allocation_behind():
    # E(x | k) at every level of an n = 12 space holds nothing afterwards
    # through space.py once the first pass has formed the odd levels'
    # generator gathers and Gamma, which the space keeps; a cache of one
    # identity per size held about 20 KiB here and 5.34 MiB at n = 20
    sp = make_space(TimeGrid.uniform(0.0, 1.0, 12), max_generators=12)
    src = np.random.default_rng(12)
    x = sp.element(src.standard_normal((sp.dim, sp.dim))
                   + 1j * src.standard_normal((sp.dim, sp.dim)))
    for level in range(sp.n_gen + 1):
        conditional_expect(x, level)
    assert set(sp._gens) == {*range(1, sp.n_gen, 2), None}
    tracemalloc.start(25)
    try:
        for level in range(sp.n_gen + 1):
            conditional_expect(x, level)
        snap = tracemalloc.take_snapshot()
    finally:
        tracemalloc.stop()
    held = sum(t.size for t in snap.traces
               if any(f.filename == space_module.__file__ for f in t.traceback))
    assert held < 16 * 1024


def test_projection_results_are_read_only(space4, rng):
    x = random_level_element(space4, rng)
    for level in range(space4.n_gen + 1):
        assert not conditional_expect(x, level).mat.flags.writeable


# -- the adaptedness check's bound ----------------------------------------------


def _adapted_verdict(x, level, p, tol):
    try:
        space_module.require_adapted(x, level, p, tol, "x")
    except AdaptednessError as exc:
        return str(exc)
    return None


@settings(max_examples=80, deadline=None)
@given(n=st.integers(1, 10), data=st.data())
def test_the_adaptedness_bound_gives_the_exact_checks_verdicts(n, data):
    # with the Hoelder factor patched to inf every bound is inf, so every
    # check takes the exact defect, as it did before the bound
    sp = make_space(TimeGrid.uniform(0.0, 1.0, n))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    x = data.draw(st.sampled_from([1.0, 1e-9, 1e3]), label="scale") * \
        random_level_element(sp, rng, data.draw(st.integers(0, sp.n_gen)))
    if data.draw(st.booleans(), label="perturbed"):
        x = x + data.draw(st.sampled_from([1e-14, 1e-11, 1e-10, 1e-9])) * \
            random_level_element(sp, rng)
    level = data.draw(st.integers(0, sp.n_gen), label="level")
    p = data.draw(st.sampled_from([2.0, 2.5, 4.0, 30.0]), label="p")
    tol = data.draw(st.sampled_from([1e-10, 1e-8]), label="tol")
    got = _adapted_verdict(x, level, p, tol)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(space_module, "_lp_over_l2_bound", lambda dim, q: math.inf)
        assert got == _adapted_verdict(x, level, p, tol)


def test_an_even_level_check_of_an_adapted_value_peaks_at_one_copy(
        monkeypatch):
    # the exact defect forms E(x | 0), a cached identity, x - E(x | 0) and
    # a Gram product: at n = 22 the build's check of Z = I peaked at four
    # full-size matrices, 258 MiB under tracemalloc
    exact = []
    monkeypatch.setattr(space_module, "adaptedness_defect",
                        lambda *args: exact.append(args) or 0.0)
    z = make_space(TimeGrid.uniform(0.0, 1.0, 14)).identity()
    tracemalloc.start()
    try:
        space_module.require_adapted(z, 0, 4.0, 1e-10, "Z")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert exact == [] and peak <= 1.05 * z.mat.nbytes
    # an odd level adds the flip of Z's 2 x 2 partial trace
    space_module.require_adapted(z, 1, 4.0, 1e-10, "Z")
    assert exact == []
    # e_1 is not level-1 measurable: its bound exceeds tol
    space_module.require_adapted(z.space.generator(1), 1, 4.0, 1e-10, "e1")
    assert len(exact) == 1


def test_a_build_from_an_odd_start_node_peaks_as_one_from_node_0():
    # Z's check at level 1 takes one copy of Z and a factor-size flip; the
    # exact defect's E(Z | 1), Z - E and Gram product took it to 3x
    prob = make_problem("nonlocal_linear", n=14)
    peaks = []
    for start in (0, 1):
        tracemalloc.start()
        try:
            prob.replace(start_node=start)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert peaks[1] <= 1.2 * peaks[0]
