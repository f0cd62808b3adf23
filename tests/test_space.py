"""Generator representation, filtration, conditional expectation, parity,
and the monomial transform."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from cliffsde import (
    FiltrationLevel,
    ResourceLimitError,
    TimeGrid,
    conditional_expect,
    lp_norm,
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


def test_filtration_level_validation():
    assert FiltrationLevel(0).k == 0
    with pytest.raises(ValueError):
        FiltrationLevel(-1)


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


def test_conditional_expect_accepts_level_object(space4):
    e0 = space4.generator(0)
    assert conditional_expect(e0, FiltrationLevel(1)).is_close(e0, tol=EXACT)


def test_conditional_expect_level_bounds(space4):
    with pytest.raises(ValueError):
        conditional_expect(space4.identity(), 5)
    with pytest.raises(ValueError):
        conditional_expect(space4.identity(), -1)


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
    co = monomial_expand(space4.fermion_increment(2))
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


# -- the kron helper ---------------------------------------------------------------


_ENTRIES = st.complex_numbers(allow_nan=True, allow_infinity=True,
                              allow_subnormal=True)


@settings(max_examples=200, deadline=None)
@given(a=arrays(complex, st.tuples(st.integers(1, 4), st.integers(1, 4)),
                elements=_ENTRIES),
       b=arrays(complex, st.tuples(st.integers(1, 4), st.integers(1, 4)),
                elements=_ENTRIES))
def test_kron_helper_is_np_kron(a, b):
    with np.errstate(all="ignore"):  # inf * 0 and overflow are expected
        ours, ref = space_module._kron(a, b), np.kron(a, b)
    assert ours.shape == ref.shape and ours.dtype == ref.dtype
    assert np.array_equal(ours, ref, equal_nan=True)
    assert ours.tobytes() == ref.tobytes()


@pytest.mark.parametrize("n", [3, 4, 7, 8])  # dim 4 and 16, odd and even n_gen
def test_projections_and_draws_are_bitwise_those_of_np_kron(n, monkeypatch):
    sp = make_space(TimeGrid.uniform(0.0, 1.0, n))
    src = np.random.default_rng(n)
    x = sp.element(src.standard_normal((sp.dim, sp.dim))
                   + 1j * src.standard_normal((sp.dim, sp.dim)))

    def outputs():
        out = []
        for level in range(sp.n_gen + 1):
            out.append(conditional_expect(x, level).mat.tobytes())
            draw = random_level_element(sp, np.random.default_rng(level), level)
            out.append(draw.mat.tobytes())
        return out

    ours = outputs()
    monkeypatch.setattr(space_module, "_kron", np.kron)
    assert ours == outputs()


def test_projection_results_are_read_only(space4, rng):
    x = random_level_element(space4, rng)
    for level in range(space4.n_gen + 1):
        assert not conditional_expect(x, level).mat.flags.writeable
