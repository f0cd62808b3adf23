"""Element arithmetic, the tracial state, and the L^p norm family.

The norm oracle used below: for x = 1 + e0, the Gram matrix x* x = 2(1 + e0)
has eigenvalues {4, 0} with equal multiplicity, so

    ||1 + e0||_p = (mean lam^(p/2))^(1/p) = (4^(p/2) / 2)^(1/p) = 2 * 2^(-1/p).
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffsde import (
    ConfigurationError,
    TimeGrid,
    lp_norm,
    make_space,
    op_norm,
    random_level_element,
    state,
)
from cliffsde import element as element_module
from cliffsde.element import CliffordElement, psd_power_lp_norm

EXACT = 1e-12
P_GRID = (1.0, 2.0, 3.0, 7.5)

_SP = make_space(TimeGrid.uniform(0.0, 1.0, 4))
_SP16 = make_space(TimeGrid.uniform(0.0, 1.0, 8))


def _random_element(sp, rng):
    d = sp.dim
    return sp.element(rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d)))


# -- state -------------------------------------------------------------------


def test_state_of_identity(space4):
    assert state(space4.identity()) == 1.0


def test_state_kills_generators(space4):
    for i in range(space4.n_gen):
        assert state(space4.generator(i)) == 0.0


def test_state_of_monomial_times_adjoint(space4):
    e0, e1 = space4.generator(0), space4.generator(1)
    assert state((e0 @ e1) @ (e1 @ e0)) == 1.0


def test_state_is_tracial(space4, rng):
    for _ in range(25):
        x = _random_element(space4, rng)
        y = _random_element(space4, rng)
        assert abs(state(x @ y) - state(y @ x)) < EXACT * 100


def test_state_linear(space4, rng):
    x = _random_element(space4, rng)
    y = _random_element(space4, rng)
    lhs = state(2.0 * x + (1 - 0.5j) * y)
    assert abs(lhs - (2.0 * state(x) + (1 - 0.5j) * state(y))) < EXACT


# -- lp_norm -----------------------------------------------------------------


@pytest.mark.parametrize("p", P_GRID)
def test_norm_of_unitary_monomial(space4, p):
    x = space4.generator(0) @ space4.generator(1)
    assert abs(lp_norm(x, p) - 1.0) < EXACT


@pytest.mark.parametrize("p", P_GRID)
def test_norm_of_one_plus_generator(space4, p):
    x = space4.identity() + space4.generator(0)
    assert abs(lp_norm(x, p) - 2.0 * 2.0 ** (-1.0 / p)) < EXACT


def test_norm_of_zero(space4):
    for p in P_GRID:
        assert lp_norm(space4.zero(), p) == 0.0


ZERO_SHORTCUT_P = (1.0, 2.5, 3.0, 4.0, 6.0)


def _gram_path(x, p):
    """lp_norm's full Gram-matrix path, the value an all-zero check must
    reproduce; an exception is returned, not raised."""
    try:
        with np.errstate(all="ignore"):
            return psd_power_lp_norm(x.mat.conj().T @ x.mat, 2.0, p)
    except np.linalg.LinAlgError as exc:
        return exc


@pytest.mark.parametrize("fill", (0.0, -0.0, complex(-0.0, -0.0)))
@pytest.mark.parametrize("p", ZERO_SHORTCUT_P)
def test_zero_matrix_norm_skips_the_gram_product(space4, monkeypatch, p,
                                                 fill):
    x = CliffordElement(space4, np.full((space4.dim, space4.dim), fill))
    full = _gram_path(x, p)

    def no_gram(*args):
        raise AssertionError("formed the Gram product of a zero matrix")

    monkeypatch.setattr(element_module, "psd_power_lp_norm", no_gram)
    got = lp_norm(x, p)
    assert got == full == 0.0
    assert math.copysign(1.0, got) == math.copysign(1.0, full) == 1.0


@pytest.mark.parametrize("bad", (math.nan, math.inf, -math.inf,
                                 complex(0.0, math.nan), 1e200))
@pytest.mark.parametrize("p", ZERO_SHORTCUT_P)
def test_non_finite_or_overflowing_matrices_take_the_full_norm_path(
        space4, monkeypatch, p, bad):
    mat = np.zeros((space4.dim, space4.dim), dtype=complex)
    mat[1, 2] = bad
    x = CliffordElement(space4, mat)
    full = _gram_path(x, p)
    calls = []

    def counted(*args):
        calls.append(args)
        return psd_power_lp_norm(*args)

    monkeypatch.setattr(element_module, "psd_power_lp_norm", counted)
    try:
        with np.errstate(all="ignore"):
            got = lp_norm(x, p)
    except np.linalg.LinAlgError as exc:
        got = exc
    assert len(calls) == 1
    if isinstance(full, Exception):
        assert type(got) is type(full)
    else:
        assert repr(got) == repr(full)


@pytest.mark.parametrize("bad", (math.nan, math.inf, complex(0.0, -math.inf)))
@pytest.mark.parametrize("p", (1.0, 2.5, 3.0, 7.0))
def test_spectral_path_gives_nan_for_a_non_finite_matrix(p, bad):
    # eigvalsh raises on such input; the trace paths return NaN or inf
    psd = np.eye(4, dtype=complex)
    psd[0, 1] = bad
    assert math.isnan(psd_power_lp_norm(psd, 2.0, p))


def test_norm_rejects_p_below_one(space4):
    for p in (0.99, 0.5, 0.0, -1.0):
        with pytest.raises(ValueError):
            lp_norm(space4.identity(), p)


@pytest.mark.parametrize("p", (math.inf, -math.inf, math.nan))
def test_norm_rejects_non_finite_p(space4, p):
    with pytest.raises(ValueError, match="p="):
        lp_norm(3.0 * space4.identity(), p)
    with pytest.raises(ValueError, match="p="):
        psd_power_lp_norm(np.eye(space4.dim), 2.0, p)


def _spectral_power_norm(psd, root, p):
    """Reference: m(S^(p/root))^(1/p) from the clipped spectrum of S."""
    lam = np.clip(np.linalg.eigvalsh(psd), 0.0, None)
    return float(np.mean(lam ** (p / root)) ** (1.0 / p))


def _scaled_low_rank(seed, rank, log_scale, d):
    """A d x d complex matrix of the given rank (d = full) and size."""
    rng = np.random.default_rng(seed)
    left = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    right = rng.standard_normal((rank, d)) + 1j * rng.standard_normal((rank, d))
    return 10.0 ** log_scale * (left @ right) / rank


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       p=st.sampled_from((3.0, 4.0, 6.0, 8.0)),
       rank=st.sampled_from((1, 2, 3, 16)),
       log_scale=st.floats(min_value=-14.0, max_value=3.0))
def test_lp_norm_matches_the_spectral_reference(seed, p, rank, log_scale):
    x = _SP16.element(_scaled_low_rank(seed, rank, log_scale, _SP16.dim))
    ref = _spectral_power_norm(x.mat.conj().T @ x.mat, 2.0, p)
    assert abs(lp_norm(x, p) - ref) <= 1e-12 * ref


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       root_p=st.sampled_from(((1.0, 3.0), (2.0, 4.0), (2.0, 6.0),
                               (1.5, 4.5), (3.0, 6.0), (2.0, 8.0),
                               (2.0, 3.0), (2.0, 7.0), (4.0, 6.0))),
       rank=st.sampled_from((1, 2, 3, 16)),
       log_scale=st.floats(min_value=-14.0, max_value=3.0))
def test_psd_power_norm_matches_the_spectral_reference(seed, root_p, rank,
                                                       log_scale):
    root, p = root_p
    a = _scaled_low_rank(seed, rank, log_scale, 16)
    psd = a.conj().T @ a
    ref = _spectral_power_norm(psd, root, p)
    assert abs(psd_power_lp_norm(psd, root, p) - ref) <= 1e-12 * ref


def test_norm_monotone_in_p(space4, rng):
    ps = (1.0, 1.5, 2.0, 3.0, 5.0, 9.0)
    for _ in range(10):
        x = _random_element(space4, rng)
        norms = [lp_norm(x, p) for p in ps]
        for a, b in zip(norms, norms[1:]):
            assert a <= b * (1 + 1e-12)


def test_norm_dominated_by_op_norm(space4, rng):
    x = _random_element(space4, rng)
    for p in P_GRID:
        assert lp_norm(x, p) <= op_norm(x) * (1 + 1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       p=st.sampled_from(P_GRID))
def test_triangle_inequality(seed, p):
    rng = np.random.default_rng(seed)
    x = _random_element(_SP, rng)
    y = _random_element(_SP, rng)
    assert lp_norm(x + y, p) <= (lp_norm(x, p) + lp_norm(y, p)) * (1 + 1e-10)


@settings(max_examples=25, deadline=None)
@given(seed=st.integers(min_value=0, max_value=2**32 - 1),
       p=st.sampled_from(P_GRID))
def test_norm_adjoint_invariant(seed, p):
    rng = np.random.default_rng(seed)
    x = _random_element(_SP, rng)
    assert abs(lp_norm(x, p) - lp_norm(x.adjoint(), p)) < 1e-10 * (1 + lp_norm(x, p))


def test_norm_scales_homogeneously(space4, rng):
    x = _random_element(space4, rng)
    for p in P_GRID:
        assert abs(lp_norm(3.5 * x, p) - 3.5 * lp_norm(x, p)) < 1e-10


# -- arithmetic --------------------------------------------------------------


def test_scalar_arithmetic(space4):
    x = space4.generator(0)
    assert ((2.0 * x) / 2.0).is_close(x, tol=0.0)
    assert (x - x).is_close(space4.zero(), tol=0.0)
    assert (-x + x).is_close(space4.zero(), tol=0.0)


def test_star_multiplication_is_scalar_only(space4):
    x = space4.generator(0)
    with pytest.raises(TypeError):
        x * x  # noqa: B018 - the operator itself is under test


def test_matmul_requires_elements(space4):
    x = space4.generator(0)
    with pytest.raises(TypeError):
        x @ 2.0


def test_mixing_spaces_rejected(space4):
    other = make_space(TimeGrid.uniform(0.0, 2.0, 2))
    with pytest.raises(ConfigurationError):
        _ = space4.identity() + other.identity()


def test_shape_mismatch_rejected(space4):
    with pytest.raises(ValueError):
        space4.element(np.eye(3))


def test_matrix_is_read_only(space4):
    x = space4.generator(0)
    with pytest.raises(ValueError):
        x.mat[0, 0] = 9.0


def test_caller_array_is_copied(space4):
    raw = np.eye(space4.dim, dtype=complex)
    x = CliffordElement(space4, raw)
    y = space4.element(raw)
    raw[0, 0] = 9.0
    assert x.mat[0, 0] == 1.0
    assert y.mat[0, 0] == 1.0


def test_operator_results_are_read_only(space4, rng):
    x = _random_element(space4, rng)
    y = _random_element(space4, rng)
    before = x.mat.copy()
    results = (x + y, x - y, -x, 2.0 * x, x * 2.0, x / 2.0, x @ y,
               x.adjoint())
    for r in results:
        assert r.mat.shape == (space4.dim, space4.dim)
        assert not np.shares_memory(r.mat, x.mat)
        with pytest.raises(ValueError):
            r.mat[0, 0] = 9.0
    np.testing.assert_array_equal(x.mat, before)
    np.testing.assert_array_equal(x.adjoint().mat, x.mat.conj().T)


def test_adjoint_involution(space4, rng):
    x = _random_element(space4, rng)
    assert x.adjoint().adjoint().is_close(x, tol=0.0)


def test_selfadjoint_defect(space4):
    assert space4.generator(0).selfadjoint_defect() == 0.0
    skew = 1j * space4.generator(0)
    assert abs(skew.selfadjoint_defect(2.0) - 2.0) < EXACT


def test_is_close(space4):
    x = space4.identity()
    assert x.is_close(x + 1e-14 * space4.generator(0), tol=1e-12)
    assert not x.is_close(x + space4.generator(0), tol=1e-12)
