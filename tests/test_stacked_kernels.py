"""The stacked integral and norm kernels against per-element loops.

Processes hold their values as one ``(nodes, dim, dim)`` stack, and the
kernels in ``integrals`` and ``element.lp_norms`` work on it with stacked
matmul, ``eigvalsh`` and ``eigh`` calls.  The references below are the
per-element loops those kernels replaced; every comparison is on the
bytes of the returned floats and matrices.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffsde import (
    AdaptedProcess,
    Driver,
    SuiteConfig,
    TimeGrid,
    check_norm_exchange,
    driver_integral,
    hp_norm,
    lqlp_norm,
    make_space,
    random_level_element,
)
from cliffsde.element import lp_norms

P_VALUES = (1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 7.0)
_CONFIG = SuiteConfig()
QP_PAIRS = tuple(_CONFIG.qp_pairs) + tuple((p, p) for p in _CONFIG.p_grid)

_FERMION = make_space(TimeGrid.uniform(0.0, 1.0, 5))   # odd generator count
_FERMION4 = make_space(TimeGrid.uniform(0.0, 1.0, 4))
_FERMION8 = make_space(TimeGrid.uniform(0.0, 1.0, 8))  # the suites' sizes
_PAIR = make_space(TimeGrid.uniform(0.0, 1.0, 3), layout="pair")
_PAIR4 = make_space(TimeGrid.uniform(0.0, 1.0, 4), layout="pair")
_DRIVERS = {
    "fermion": (Driver.fermion_field(),),
    "pair": (Driver.annihilation(), Driver.creation(),
             Driver.linear_combination(0.75 + 0.25j, -1.5j)),
}


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


# -- per-element references -----------------------------------------------------


def _ref_psd_power_lp_norm(psd_mat, root, p):
    k = p / root
    dim = psd_mat.shape[0]
    if k == int(k) and k >= 1:
        k = int(k)
        if k == 1:
            return float((np.trace(psd_mat).real / dim) ** (1.0 / p))
        half = np.linalg.matrix_power(psd_mat, k // 2)
        other = half if k % 2 == 0 else half @ psd_mat
        return float((np.vdot(half, other).real / dim) ** (1.0 / p))
    lam = np.clip(np.linalg.eigvalsh(psd_mat), 0.0, None)
    return float(np.mean(lam ** k) ** (1.0 / p))


def _ref_lp_norm(mat, p):
    if p == 2:
        return float(np.sqrt(np.vdot(mat, mat).real / mat.shape[0]))
    if not mat.any():
        return 0.0
    return _ref_psd_power_lp_norm(mat.conj().T @ mat, 2.0, p)


def _ref_driver_integral(f, driver, upto, side):
    sp = f.space
    acc = sp.zero()
    for j in range(f.start_node, upto):
        inc, fj = driver.increment(sp, j), f.value(j)
        acc = acc + (fj @ inc if side == "right" else inc @ fj)
    return acc


def _ref_hp_norm(f, p, upto):
    sp = f.space
    s_right = np.zeros((sp.dim, sp.dim), dtype=complex)
    s_left = np.zeros((sp.dim, sp.dim), dtype=complex)
    for j in range(f.start_node, upto):
        mat = f.value(j).mat
        dj = sp.grid.delta(j)
        s_right += dj * (mat.conj().T @ mat)
        s_left += dj * (mat @ mat.conj().T)
    return max(_ref_psd_power_lp_norm(s_right, 2.0, p),
               _ref_psd_power_lp_norm(s_left, 2.0, p))


def _ref_lqlp_norm(f, q, p, upto):
    total = 0.0
    for j in range(f.start_node, upto):
        total += _ref_lp_norm(f.value(j).mat, p) ** q * f.space.grid.delta(j)
    return float(total ** (1.0 / q))


def _ref_norm_exchange(f, q, p, upto):
    sp = f.space
    acc = np.zeros((sp.dim, sp.dim), dtype=complex)
    for j in range(f.start_node, upto):
        mat = f.value(j).mat
        gram = mat.conj().T @ mat
        if q == 2:
            powed = gram
        else:
            lam, vec = np.linalg.eigh(gram)
            lam = np.clip(lam, 0.0, None)
            powed = (vec * lam ** (q / 2.0)) @ vec.conj().T
        acc += sp.grid.delta(j) * powed
    lhs = _ref_psd_power_lp_norm(acc, q, p)
    rhs = _ref_lqlp_norm(f, q, p, upto)
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else float("inf"))
    return lhs, rhs, ratio


# -- generated processes ---------------------------------------------------------


@st.composite
def _processes(draw, spaces=(_FERMION, _FERMION4, _FERMION8, _PAIR, _PAIR4)):
    """A random process on a later start node and a shorter range, some
    rows set to zero, and an ``upto`` at or below the integrable limit."""
    sp = draw(st.sampled_from(spaces))
    n = sp.grid.n
    start = draw(st.integers(0, n - 1))
    num = draw(st.integers(1, n + 1 - start))
    seed = draw(st.integers(0, 2**32 - 1))
    f = AdaptedProcess.random(sp, np.random.default_rng(seed), num=num,
                              start_node=start)
    zeros = draw(st.sets(st.integers(0, num - 1), max_size=num))
    if zeros:
        vals = [sp.zero() if i in zeros else v for i, v in enumerate(f.values)]
        f = AdaptedProcess(sp, vals, start_node=start)
    upto = draw(st.integers(start, min(start + num, n)))
    return f, upto


_SETTINGS = settings(max_examples=80, deadline=None)


@_SETTINGS
@given(fu=_processes(), side=st.sampled_from(("right", "left")),
       data=st.data())
def test_driver_integral_matches_the_element_loop(fu, side, data):
    f, upto = fu
    driver = data.draw(st.sampled_from(_DRIVERS[f.space.layout]))
    got = driver_integral(f, driver, upto=upto, side=side)
    assert got.mat.tobytes() == \
        _ref_driver_integral(f, driver, upto, side).mat.tobytes()
    assert not got.mat.flags.writeable


@_SETTINGS
@given(fu=_processes(), p=st.sampled_from(P_VALUES))
def test_hp_norm_matches_the_element_loop(fu, p):
    f, upto = fu
    assert _bits(hp_norm(f, p, upto=upto)) == _bits(_ref_hp_norm(f, p, upto))


@_SETTINGS
@given(fu=_processes(), p=st.sampled_from(P_VALUES),
       q=st.sampled_from(sorted({q for q, _ in QP_PAIRS})))
def test_lqlp_norm_matches_the_element_loop(fu, p, q):
    f, upto = fu
    assert _bits(lqlp_norm(f, q, p, upto=upto)) == \
        _bits(_ref_lqlp_norm(f, q, p, upto))


@_SETTINGS
@given(fu=_processes(), qp=st.sampled_from(QP_PAIRS + ((1.5, 2.5), (1.0, 7.0))))
def test_norm_exchange_matches_the_element_loop(fu, qp):
    f, upto = fu
    q, p = qp
    rep = check_norm_exchange(f, q, p, upto=upto)
    lhs, rhs, ratio = _ref_norm_exchange(f, q, p, upto)
    assert [_bits(v) for v in (rep.lhs, rep.rhs, rep.ratio)] == \
        [_bits(v) for v in (lhs, rhs, ratio)]


@_SETTINGS
@given(fu=_processes(), p=st.sampled_from(P_VALUES))
def test_lp_norms_match_lp_norm_row_by_row(fu, p):
    f, _ = fu
    got = lp_norms(f.mats, p)
    assert all(type(v) is float for v in got)
    assert [_bits(v) for v in got] == \
        [_bits(_ref_lp_norm(m, p)) for m in f.mats]


@pytest.mark.parametrize("p", P_VALUES)
def test_lp_norms_of_a_non_finite_row_spare_the_others(p):
    rng = np.random.default_rng(11)
    mats = np.array(AdaptedProcess.random(_FERMION4, rng).mats)
    good = [_ref_lp_norm(m, p) for m in mats]
    mats[1, 0, 1] = np.inf
    mats[3, 2, 2] = np.nan
    with np.errstate(invalid="ignore", over="ignore"):
        got = lp_norms(mats, p)
    assert not math.isfinite(got[1]) and not math.isfinite(got[3])
    assert [_bits(got[i]) for i in (0, 2)] == [_bits(good[i]) for i in (0, 2)]


@pytest.mark.parametrize("sp", (_FERMION, _PAIR), ids=("fermion", "pair"))
@pytest.mark.parametrize("start", (0, 2))
def test_random_process_draws_the_random_level_element_stream(sp, start):
    num = sp.grid.n + 1 - start
    rng_f = np.random.default_rng(5)
    f = AdaptedProcess.random(sp, rng_f, num=num, start_node=start)
    rng = np.random.default_rng(5)
    for node in range(start, start + num):
        x = random_level_element(sp, rng, sp.level_of_node(node))
        assert f.value(node).mat.tobytes() == x.mat.tobytes()
    # and both left the generator in the same state
    assert rng_f.bit_generator.state == rng.bit_generator.state
