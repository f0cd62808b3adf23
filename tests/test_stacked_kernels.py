"""The stacked integral and norm kernels against per-element loops.

Processes hold their values as level factors: node j's value is
``a (x) I``, stored as ``a``.  The kernels in ``integrals`` and
``element.lp_norms`` work on one ``(trials, d, d)`` stack per node of
those factors with stacked matmul, ``eigvalsh`` and ``eigh`` calls: a
batch of one for the per-process functions, a chunk of random trials for
the suites.  The per-node norm work runs on the factors, and the driver
integrals, the time integral and the ``hp`` Gram sums are running sums
that grow with the level.  The per-element references below work on the
full-size values one at a time, and every comparison with them is on the
bytes of the returned floats and matrices, but for the ``hp`` norms: their
Gram sums round apart at level size, within ``FULL_SIZE_RTOL``.  The
full-size references (``_full_*``, ``_dense_sums``) are the algorithm the
factor-size kernels replaced: they must agree within ``FULL_SIZE_RTOL``,
the driver integrals of drivers with real or purely imaginary weights bit
for bit.
"""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from cliffsde import (
    AdaptedProcess,
    ConfigurationError,
    Driver,
    TimeGrid,
    check_bg,
    check_norm_exchange,
    conditional_expect,
    driver_integral,
    hp_norm,
    lqlp_norm,
    make_space,
    martingale_check,
    measure_bg_constant,
    random_level_element,
    time_integral,
)
from cliffsde import experiments
from cliffsde.element import _grams, lp_norm, lp_norms, psd_power_lp_norms
from cliffsde.integrals import (_bg_norms, _hp_norms, _last, _lqlp_norms,
                                _norm_exchange_sides, _running_sums,
                                _trial_chunks)
from cliffsde.process import _random_stack
from cliffsde.space import _at_size, expand, restrict

P_VALUES = (1.0, 1.5, 2.0, 2.5, 3.0, 4.0, 6.0, 7.0)
#: How far the factor-size kernels and draws may sit from the full-size ones
FULL_SIZE_RTOL = 1e-13
QP_PAIRS = experiments.QP_PAIRS + tuple((p, p) for p in experiments.P_GRID)

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
#: The drivers whose gathers are the dense products bit for bit
_REAL_DRIVERS = {
    "fermion": (Driver.fermion_field(),),
    "pair": (Driver.annihilation(), Driver.creation(),
             Driver.linear_combination(0.75, -1.5)),
}


def _bits(x: float) -> bytes:
    return np.float64(x).tobytes()


def _full_size(sp, nodes) -> np.ndarray:
    """Node stacks as one ``(trials, nodes, dim, dim)`` array of full-size
    values."""
    return np.stack([_at_size(m, sp.dim) for m in nodes], axis=1)


def _values(f) -> np.ndarray:
    """A process's full-size values as one ``(nodes, dim, dim)`` array."""
    return np.stack([v.mat for v in f.values])


def _zero_signed(mat) -> bytes:
    """A matrix's bytes with every zero made +0."""
    return (mat + 0.0).tobytes()


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
    """The per-element loop of increment gathers on the full space."""
    sp = f.space
    acc = sp.zero()
    for j in range(f.start_node, upto):
        g, fj = driver.gather(sp, j), f.value(j).mat
        acc = acc + sp.element(g.right(fj) if side == "right" else g.left(fj))
    return acc


def _dense_driver_integral(f, driver, upto, side):
    """The per-element loop of dense increment products."""
    sp = f.space
    acc = sp.zero()
    for j in range(f.start_node, upto):
        inc, fj = driver.increment(sp, j), f.value(j)
        acc = acc + (fj @ inc if side == "right" else inc @ fj)
    return acc


def _ref_time_integral(f, upto):
    """The per-element loop of delta-weighted full-size values."""
    sp = f.space
    acc = sp.zero()
    for j in range(f.start_node, upto):
        acc = acc + sp.grid.delta(j) * f.value(j)
    return acc


def _ref_martingale_check(f, driver, side, p, upto):
    """The per-element martingale defect of ``_ref_driver_integral``'s
    partial sums."""
    sp = f.space
    partial = [_ref_driver_integral(f, driver, s, side)
               for s in range(f.start_node, upto + 1)]
    return max(lp_norm(conditional_expect(partial[-1], sp.level_of_node(s))
                       - m_s, p)
               for s, m_s in enumerate(partial, f.start_node))


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


def _factor(f, j):
    """The level factor a of the value a (x) I at node j."""
    return restrict(f.value(j), f.space.level_space(j)).mat


def _ref_lqlp_norm(f, q, p, upto):
    total = 0.0
    for j in range(f.start_node, upto):
        total += _ref_lp_norm(_factor(f, j), p) ** q * f.space.grid.delta(j)
    return float(total ** (1.0 / q))


def _ref_norm_exchange(f, q, p, upto):
    sp = f.space
    acc = np.zeros((sp.dim, sp.dim), dtype=complex)
    for j in range(f.start_node, upto):
        mat = _factor(f, j)
        gram = mat.conj().T @ mat
        if q == 2:
            powed = gram
        else:
            lam, vec = np.linalg.eigh(gram)
            lam = np.clip(lam, 0.0, None)
            powed = (vec * lam ** (q / 2.0)) @ vec.conj().T
        acc += np.kron(sp.grid.delta(j) * powed, np.eye(sp.dim // len(mat)))
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
@given(fu=_processes(), side=st.sampled_from(("right", "left")),
       data=st.data())
def test_driver_integral_matches_the_dense_element_loop(fu, side, data):
    # bit for bit but for a complex-alpha combination, whose gathers round
    # apart from BLAS's complex product: there within 4 ulp of the sum of
    # the terms' moduli, entry by entry
    f, upto = fu
    driver = data.draw(st.sampled_from(_DRIVERS[f.space.layout]))
    got = driver_integral(f, driver, upto=upto, side=side).mat
    want = _dense_driver_integral(f, driver, upto, side).mat
    if driver.kind != "linear_combination":
        assert got.tobytes() == want.tobytes()
        return
    size = sum((np.abs(f.value(j).mat) @ np.abs(driver.increment(f.space, j).mat)
                if side == "right" else
                np.abs(driver.increment(f.space, j).mat) @ np.abs(f.value(j).mat))
               for j in range(f.start_node, upto))
    bound = 4 * np.spacing(np.asarray(size, float))
    assert np.all(np.abs(got.real - want.real) <= bound)
    assert np.all(np.abs(got.imag - want.imag) <= bound)


@_SETTINGS
@given(fu=_processes(), p=st.sampled_from(P_VALUES))
def test_hp_norm_matches_the_element_loop(fu, p):
    # the Gram sums run at level size, as a suite chunk's do
    f, upto = fu
    assert _close([hp_norm(f, p, upto=upto)], [_ref_hp_norm(f, p, upto)])


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
    got = lp_norms(_values(f), p)
    assert all(type(v) is float for v in got)
    assert [_bits(v) for v in got] == \
        [_bits(_ref_lp_norm(m, p)) for m in _values(f)]


@pytest.mark.parametrize("p", P_VALUES)
def test_lp_norms_of_a_non_finite_row_spare_the_others(p):
    rng = np.random.default_rng(11)
    mats = _values(AdaptedProcess.random(_FERMION4, rng))
    good = [_ref_lp_norm(m, p) for m in mats]
    mats[1, 0, 1] = np.inf
    mats[3, 2, 2] = np.nan
    with np.errstate(invalid="ignore", over="ignore"):
        got = lp_norms(mats, p)
    assert not math.isfinite(got[1]) and not math.isfinite(got[3])
    assert [_bits(got[i]) for i in (0, 2)] == [_bits(good[i]) for i in (0, 2)]


def _ref_spectral_nan(ref, psd_mat, root, p):
    """``ref(psd_mat, root, p)``, but NaN where a non-finite matrix would
    reach ``eigvalsh`` (the stacked spectra give such a row NaN)."""
    k = p / root
    if not (k == int(k) and k >= 1) and not np.isfinite(psd_mat).all():
        return math.nan
    return ref(psd_mat, root, p)


def _ref_rescaled_lp_norm(mat, p):
    """``_ref_lp_norm``, or for a finite matrix whose Gram product
    overflows, that of the matrix over its largest entry part, scaled back."""
    if p != 2 and not np.isfinite(mat).all():
        return _ref_spectral_nan(lambda *a: _ref_lp_norm(mat, p),
                                 mat.conj().T @ mat, 2.0, p)
    got = _ref_lp_norm(mat, p)
    if math.isfinite(got) or not np.isfinite(mat).all():
        return got
    s = float(np.abs(mat.view(float)).max())
    return _ref_lp_norm((mat.view(float) / s).view(complex), p) * s


@settings(max_examples=60, deadline=None)
@given(p=st.sampled_from((2.0, 3.0, 4.0, 6.0, 7.0)), data=st.data(),
       dim=st.integers(1, 128), log_scale=st.floats(-150.0, 150.0),
       seed=st.integers(0, 2 ** 32 - 1))
def test_stacked_norms_match_the_per_matrix_references(p, data, dim,
                                                        log_scale, seed):
    # one stacked trace, vdot-by-matmul or spectrum sum per stack, bit for
    # bit the per-matrix vdot, trace and eigvalsh references where those
    # are finite; NaN and inf rows stay non-finite beside the others, a
    # finite row's norm is finite, and nothing warns
    trials = data.draw(st.integers(1, max(1, min(60, 2 ** 17 // dim ** 2))))
    rng = np.random.default_rng(seed)
    mats = 10.0 ** log_scale * (rng.standard_normal((trials, dim, dim))
                                + 1j * rng.standard_normal((trials, dim, dim)))
    bad = data.draw(st.lists(st.integers(0, trials - 1), max_size=3))
    for i, value in zip(bad, (np.nan, np.inf, complex(0.0, -np.inf))):
        mats[i, rng.integers(dim), rng.integers(dim)] = value
    root = data.draw(st.sampled_from((2.0, 1.0, p)))
    with np.errstate(all="ignore"):  # the references' products may warn
        want = [_ref_rescaled_lp_norm(m, p) for m in mats]
        grams = _grams(mats)
        want_psd = [_ref_spectral_nan(_ref_psd_power_lp_norm, g, root, p)
                    for g in grams]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = lp_norms(mats, p)
        got_psd = psd_power_lp_norms(grams, root, p)
    for i in range(trials):  # a non-finite value: NaN or inf, either way
        if i in bad:
            assert not math.isfinite(got[i]) and not math.isfinite(want[i])
        else:
            assert math.isfinite(got[i])
            assert _bits(got[i]) == _bits(want[i])
        if math.isfinite(want_psd[i]):
            assert _bits(got_psd[i]) == _bits(want_psd[i])
        else:  # an overflowing power of a finite Gram matrix, too
            assert not math.isfinite(got_psd[i])


@pytest.mark.parametrize("p", (2.0, 3.0, 4.0))
def test_a_finite_stack_whose_gram_products_overflow_has_finite_norms(p):
    mats = np.stack([1e300 * np.eye(4), 1e300j * np.eye(4), np.eye(4)])
    got = lp_norms(mats.astype(complex), p)
    assert got[2] == 1.0
    assert all(abs(v - 1e300) <= 1e-15 * 1e300 for v in got[:2])


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


_ENTRY_SPACES = (_FERMION, _PAIR4)


@pytest.mark.parametrize("where", ("start", "middle", "end"))
@pytest.mark.parametrize("sp", _ENTRY_SPACES,
                         ids=[sp.layout for sp in _ENTRY_SPACES])
def test_every_entry_point_on_stored_factors_matches_the_full_size_loops(sp,
                                                                         where):
    # a process from node 1 whose stored factors include a zero one, every
    # per-process entry point cut at its start, a middle node or its end:
    # the driver and time integrals bit for bit up to the sign of zeros,
    # the hp norms within FULL_SIZE_RTOL, the rest bit for bit
    n = sp.grid.n
    f = AdaptedProcess.random(sp, np.random.default_rng(41), num=n, start_node=1)
    factors = list(f.factors)
    factors[1] = factors[1].space.zero()
    f = AdaptedProcess.from_factors(sp, factors, start_node=1)
    upto = {"start": 1, "middle": (n + 2) // 2, "end": n}[where]
    assert _zero_signed(time_integral(f, upto=upto).mat) == \
        _zero_signed(_ref_time_integral(f, upto).mat)
    for driver in _DRIVERS[sp.layout]:
        for side in ("right", "left"):
            got = driver_integral(f, driver, upto=upto, side=side).mat
            assert _zero_signed(got) == \
                _zero_signed(_ref_driver_integral(f, driver, upto, side).mat)
            if driver in _REAL_DRIVERS[sp.layout]:
                assert _zero_signed(got) == _zero_signed(
                    _dense_driver_integral(f, driver, upto, side).mat)
            for p in (2.0, 3.0, 4.0):
                assert _bits(martingale_check(f, driver, side, p, upto)) == \
                    _bits(_ref_martingale_check(f, driver, side, p, upto))
                rhs = (_ref_hp_norm(f, p, upto) if driver.kind == "fermion_field"
                       else _ref_lqlp_norm(f, 2.0, p, upto))
                if rhs == 0:
                    continue
                rep = check_bg(f, p, driver, side=side, upto=upto)
                assert _bits(rep.lhs) == _bits(_ref_lp_norm(
                    _ref_driver_integral(f, driver, upto, side).mat, p))
                assert _close([rep.rhs], [rhs])
    for p in P_VALUES:
        assert _close([hp_norm(f, p, upto=upto)], [_ref_hp_norm(f, p, upto)])
    for q, p in QP_PAIRS:
        assert _bits(lqlp_norm(f, q, p, upto=upto)) == \
            _bits(_ref_lqlp_norm(f, q, p, upto))
        rep = check_norm_exchange(f, q, p, upto=upto)
        assert [_bits(v) for v in (rep.lhs, rep.rhs, rep.ratio)] == \
            [_bits(v) for v in _ref_norm_exchange(f, q, p, upto)]


# -- chunks of trials: stacked draws and kernels with a leading trial axis -------


def _ref_draw(sp, rng, k):
    """The per-node draw of a level-k value on its level factor: a Ginibre
    block of size 2^ceil(k/2); for odd k, the average of it and its flip
    by generator k, which sits on the block's last factor, so that the flip
    is conjugation by I (x) X; one division by its L^2 norm; then np.kron
    with the identity (+ 0.0 clears the sign np.kron gives the zeros off
    the pattern)."""
    lo = 2 ** ((k + 1) // 2)
    a = rng.standard_normal((lo, lo)) + 1j * rng.standard_normal((lo, lo))
    if k % 2 == 1:
        x = np.kron(np.eye(lo // 2), [[0, 1], [1, 0]])
        a = (a + x @ a @ x) * 0.5
    a = a / complex(np.sqrt(np.vdot(a, a).real / lo))
    return np.kron(a, np.eye(sp.dim // lo)) + 0.0


def _full_size_draw(sp, rng, k):
    """The same draw made at full size: np.kron, the projection, one
    division per matrix."""
    lo = 2 ** ((k + 1) // 2)
    a = rng.standard_normal((lo, lo)) + 1j * rng.standard_normal((lo, lo))
    mat = np.kron(a, np.eye(sp.dim // lo)) if lo < sp.dim else a
    if k % 2 == 1:
        mat = conditional_expect(sp.element(mat), k).mat
    return mat / complex(np.sqrt(np.vdot(mat, mat).real / sp.dim))


_DRAW_SPACES = [make_space(TimeGrid.uniform(0.0, 1.0, n), layout=layout)
                for layout, ns in (("fermion", (3, 5, 7, 9, 12)),
                                   ("pair", (2, 3, 4, 5, 6)))
                for n in ns]


@pytest.mark.parametrize("sp", _DRAW_SPACES,
                         ids=[f"{sp.layout}-dim{sp.dim}" for sp in _DRAW_SPACES])
def test_chunked_draws_equal_random_processes_row_for_row(sp):
    chunk = len(_trial_chunks(sp, 10 ** 6)[0])
    for trials in sorted({1, chunk - 1, chunk, chunk + 1} - {0}):
        chunks = _trial_chunks(sp, trials)
        assert [len(c) for c in chunks] == \
            [chunk] * (trials // chunk) + [trials % chunk] * (trials % chunk > 0)
        seeds = [100 * trials + t for t in range(trials)]
        rngs = [np.random.default_rng(s) for s in seeds]
        stacks = [_random_stack(sp, [rngs[t] for t in c]) for c in chunks]
        for nodes, c in zip(stacks, chunks):
            for k, m in enumerate(nodes):
                d = sp.level_space(k).dim
                assert m.shape == (len(c), d, d) and not m.flags.writeable
        rows = [row for nodes in stacks for row in _full_size(sp, nodes)]
        factors = [[m[t] for m in nodes] for nodes in stacks
                   for t in range(len(nodes[0]))]
        for seed, row, rng, fac in zip(seeds, rows, rngs, factors):
            ref_rng = np.random.default_rng(seed)
            f = AdaptedProcess.random(sp, ref_rng)
            assert row.tobytes() == _values(f).tobytes()
            assert [a.tobytes() for a in fac] == \
                [a.mat.tobytes() for a in f.factors]
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            ref_rng = np.random.default_rng(seed)
            ref = [_ref_draw(sp, ref_rng, sp.level_of_node(k))
                   for k in range(sp.grid.n)]
            assert row.tobytes() == np.stack(ref).tobytes()
            assert rng.bit_generator.state == ref_rng.bit_generator.state
            for k, mat in enumerate(row):
                _assert_drawn_value(sp, sp.element(mat), sp.level_of_node(k))


def _assert_drawn_value(sp, x, k):
    """x = a (x) I for its level factor a, bitwise; an odd level's flip
    (conjugation by e_k gamma) fixes x exactly; ||x||_2 is 1 to 2 ulp."""
    sub = sp._factor_space(max(1, (k + 1) // 2))
    assert expand(restrict(x, sub), sp).mat.tobytes() == x.mat.tobytes()
    if k % 2 == 1:
        u = sp._gen(k).dense() @ sp._gen(None).dense()
        assert np.array_equal(u @ x.mat @ u.conj().T, x.mat)
    assert abs(lp_norm(x, 2) - 1.0) <= 2 * np.finfo(float).eps


@pytest.mark.parametrize("sp", _DRAW_SPACES,
                         ids=[f"{sp.layout}-dim{sp.dim}" for sp in _DRAW_SPACES])
def test_every_level_draws_an_embedded_unit_level_element(sp):
    # every level, also the odd ones of a pair space and the level past an
    # odd generator count (the phantom generator's), and each draw is the
    # full-size draw from the same stream up to rounding
    for k in range(sp.n_gen + 1):
        rng, full_rng = np.random.default_rng(k), np.random.default_rng(k)
        for _ in range(3):
            x = random_level_element(sp, rng, k)
            _assert_drawn_value(sp, x, k)
            full = _full_size_draw(sp, full_rng, k)
            # x has unit L^2 norm, so an entry bound is one relative to it
            assert np.max(np.abs(x.mat - full)) <= FULL_SIZE_RTOL
        assert rng.bit_generator.state == full_rng.bit_generator.state


class _ZeroFirstDraw:
    """A generator whose first draw is all zeros: a degenerate draw."""

    def __init__(self, seed):
        self.rng, self.calls = np.random.default_rng(seed), 0

    def standard_normal(self, *args, out=None):
        self.calls += 1
        if self.calls == 1:
            out[...] = 0.0
            return out
        return self.rng.standard_normal(*args, out=out)


def test_a_degenerate_draw_is_redrawn_from_its_own_generator():
    stack = _full_size(_FERMION4, _random_stack(_FERMION4, [
        np.random.default_rng(1), _ZeroFirstDraw(2), np.random.default_rng(3)]))
    for row, seed in zip(stack, (1, 2, 3)):
        f = AdaptedProcess.random(_FERMION4, np.random.default_rng(seed))
        assert row.tobytes() == _values(f).tobytes()


class _ZeroedRange:
    """A generator whose normals at stream positions lo..hi-1 are zeros."""

    def __init__(self, seed, lo, hi):
        self.rng, self.pos, self.lo, self.hi = np.random.default_rng(seed), 0, lo, hi

    def standard_normal(self, size=None, out=None):
        out = self.rng.standard_normal(size, out=out)
        flat = out.reshape(-1)  # a view: the draws are contiguous
        flat[max(self.lo - self.pos, 0):max(self.hi - self.pos, 0)] = 0.0
        self.pos += flat.size
        return out


def _node_by_node(sp, rng) -> np.ndarray:
    """:func:`_ref_draw` node by node from rng, a zero draw (NaN once
    normalised) redrawn straight after, the later nodes read on."""
    rows = []
    with np.errstate(all="ignore"):
        for k in range(sp.grid.n):
            mat = _ref_draw(sp, rng, sp.level_of_node(k))
            while np.isnan(mat).any():
                mat = _ref_draw(sp, rng, sp.level_of_node(k))
            rows.append(mat)
    return np.stack(rows)


@pytest.mark.parametrize("sp", [_FERMION4, _FERMION, _PAIR],
                         ids=["fermion-n4", "fermion-n5", "pair-n3"])
@pytest.mark.parametrize("blocks", [1, 2])
def test_a_degenerate_block_at_any_node_is_redrawn_from_its_stream(sp, blocks):
    # node j's block zeroed (and, with two blocks, its redraw too): the
    # redraw is the next block of the trial's own stream and the later
    # nodes read on after it, as when each node drew on its own; at the
    # last node the redraw comes from the generator
    sizes = [2 * 4 ** ((sp.level_of_node(k) + 1) // 2) for k in range(sp.grid.n)]
    for node in range(sp.grid.n):
        lo = sum(sizes[:node])
        hi = lo + blocks * sizes[node]
        rngs = [np.random.default_rng(1), _ZeroedRange(2, lo, hi),
                np.random.default_rng(3)]
        refs = [np.random.default_rng(1), _ZeroedRange(2, lo, hi),
                np.random.default_rng(3)]
        stack = _full_size(sp, _random_stack(sp, rngs))
        for row, rng, ref in zip(stack, rngs, refs):
            assert row.tobytes() == _node_by_node(sp, ref).tobytes()
            rng, ref = getattr(rng, "rng", rng), getattr(ref, "rng", ref)
            assert rng.bit_generator.state == ref.bit_generator.state


@st.composite
def _trial_stacks(draw, spaces=(_FERMION, _FERMION4, _FERMION8, _PAIR, _PAIR4)):
    """Node stacks of random processes on a later start node, some rows set
    to zero, cut at an ``upto`` (perhaps to no node), their number, and
    each trial as a process."""
    sp = draw(st.sampled_from(spaces))
    n = sp.grid.n
    start = draw(st.integers(0, n - 1))
    num = draw(st.integers(1, n + 1 - start))
    seeds = draw(st.lists(st.integers(0, 2**32 - 1), min_size=1, max_size=4))
    nodes = [np.array(m) for m in _random_stack(
        sp, [np.random.default_rng(s) for s in seeds], num, start)]
    for t in range(len(seeds)):
        for k in draw(st.sets(st.integers(0, num - 1), max_size=num)):
            nodes[k][t] = 0
    upto = draw(st.integers(start, min(start + num, n)))
    procs = [AdaptedProcess(sp, [sp.element(m) for m in rows], start_node=start)
             for rows in _full_size(sp, nodes)]
    return sp, start, len(seeds), nodes[:upto - start], procs, upto


@_SETTINGS
@given(stack=_trial_stacks(), p=st.sampled_from(P_VALUES), data=st.data())
def test_trial_stacked_integrals_and_norms_match_the_element_loops(stack, p, data):
    # the hp norms sum their Gram products at level size, which rounds
    # apart from the full-size loop
    sp, start, trials, nodes, procs, upto = stack
    driver = data.draw(st.sampled_from(_DRIVERS[sp.layout]))
    q = data.draw(st.sampled_from(sorted({q for q, _ in QP_PAIRS})))
    hps = _hp_norms(sp, start, trials, nodes, p)
    lqlps = _lqlp_norms(sp, start, trials, nodes, q, p)
    sums = {side: [_at_size(s, sp.dim)
                   for s in _running_sums(sp, start, trials, nodes, driver, side)]
            for side in ("right", "left")}
    norms = _bg_norms(sp, start, trials, nodes, driver, max(p, 2.0),
                      ("left", "right"), ("hp", "l2lp"))
    for t, f in enumerate(procs):
        assert _close([hps[t]], [_ref_hp_norm(f, p, upto)])
        assert _bits(lqlps[t]) == _bits(_ref_lqlp_norm(f, q, p, upto))
        refs = [_ref_driver_integral(f, driver, upto, side).mat
                for side in ("left", "right")]
        for side, ref in zip(("left", "right"), refs):
            assert len(sums[side]) == len(nodes) + 1
            assert sums[side][-1][t].tobytes() == ref.tobytes()
        pb = max(p, 2.0)
        want = (_ref_lp_norm(refs[0], pb), _ref_lp_norm(refs[1], pb),
                _ref_hp_norm(f, pb, upto), _ref_lqlp_norm(f, 2.0, pb, upto))
        got = [v[t] for v in norms]
        assert [_bits(v) for i, v in enumerate(got) if i != 2] == \
            [_bits(v) for i, v in enumerate(want) if i != 2]
        assert _close([got[2]], [want[2]])


@_SETTINGS
@given(stack=_trial_stacks(),
       qp=st.sampled_from(QP_PAIRS + ((1.5, 2.5), (1.0, 7.0))))
def test_trial_stacked_norm_exchange_matches_the_element_loop(stack, qp):
    sp, start, trials, nodes, procs, upto = stack
    q, p = qp
    sides = _norm_exchange_sides(sp, start, trials, nodes, q, p)
    for t, f in enumerate(procs):
        assert [_bits(v[t]) for v in sides] == \
            [_bits(v) for v in _ref_norm_exchange(f, q, p, upto)]


def test_a_chunk_cut_to_no_node_has_a_result_per_trial():
    """Three processes with an ``upto`` at their start node: every kernel
    gives three zero norms (and the zero ratio), not one."""
    driver = Driver.fermion_field()
    assert _hp_norms(_FERMION4, 1, 3, [], 4.0) == [0.0] * 3
    assert _lqlp_norms(_FERMION4, 1, 3, [], 2.0, 4.0) == [0.0] * 3
    assert _bg_norms(_FERMION4, 1, 3, [], driver, 4.0, ("left", "right"),
                     ("hp", "l2lp")) == [[0.0] * 3] * 4
    assert _norm_exchange_sides(_FERMION4, 1, 3, [], 2.0, 4.0) == ([0.0] * 3,) * 3
    d = _FERMION4.level_space(1).dim
    assert _last(_running_sums(_FERMION4, 1, 3, [], driver, "right")).shape \
        == (3, d, d)


@_SETTINGS
@given(fu=_processes(), p=st.sampled_from((2.0, 3.0, 4.0, 6.0, 7.0)),
       side=st.sampled_from(("right", "left")), data=st.data())
def test_check_bg_matches_the_element_loop(fu, p, side, data):
    f, upto = fu
    driver = data.draw(st.sampled_from(_DRIVERS[f.space.layout]))
    integral = _ref_driver_integral(f, driver, upto, side).mat
    hp = driver.kind == "fermion_field"
    rhs = _ref_hp_norm(f, p, upto) if hp else _ref_lqlp_norm(f, 2.0, p, upto)
    if rhs == 0:
        return
    rep = check_bg(f, p, driver, side=side, upto=upto)
    assert _bits(rep.lhs) == _bits(_ref_lp_norm(integral, p))
    assert _close([rep.rhs], [rhs]) if hp else _bits(rep.rhs) == _bits(rhs)


@pytest.mark.parametrize("sp,driver", [
    (_FERMION8, Driver.fermion_field()), (_FERMION, Driver.fermion_field()),
    (_PAIR4, Driver.annihilation()), (_PAIR, Driver.creation()),
])
@pytest.mark.parametrize("form", ["hp", "l2lp"])
def test_measure_bg_constant_is_the_per_trial_maximum(sp, driver, form):
    # a trial's hp norm is its one-trial chunk's, which sums the Gram
    # products at level size: within FULL_SIZE_RTOL of the full-size loop
    trials = len(_trial_chunks(sp, 10 ** 6)[0]) + 1
    n = sp.grid.n
    for side in ("right", "left"):
        for p in (2.0, 3.0, 6.0):
            worst = 0.0
            for t in range(trials):
                ss = np.random.SeedSequence(5, spawn_key=(t,))
                f = AdaptedProcess.random(sp, np.random.default_rng(ss))
                lhs = _ref_lp_norm(_ref_driver_integral(f, driver, n, side).mat, p)
                if form == "hp":
                    ss = np.random.SeedSequence(5, spawn_key=(t,))
                    rhs = _hp_norms(sp, 0, 1, _random_stack(
                        sp, [np.random.default_rng(ss)]), p)[0]
                    assert _close([rhs], [_ref_hp_norm(f, p, n)])
                else:
                    rhs = _ref_lqlp_norm(f, 2.0, p, n)
                worst = max(worst, lhs / rhs)
            got = measure_bg_constant(sp, p, driver=driver, side=side,
                                      trials=trials, seed=5, form=form)
            assert _bits(got) == _bits(worst)


# np.True_ ran as one trial: only the Python bool was caught
@pytest.mark.parametrize("trials", [0, -2, True, False, np.True_])
def test_measure_bg_constant_rejects_a_trial_count_below_one(trials):
    with pytest.raises(ConfigurationError, match="trials out of range") as exc:
        measure_bg_constant(_FERMION4, 4.0, trials=trials)
    assert exc.value.key == "trials"


# -- the full-size algorithm the factor-size kernels replaced --------------------


def _full_lqlp_norms(mats, deltas, q, p, grams=None):
    grams = [None] * mats.shape[1] if grams is None else grams.swapaxes(0, 1)
    norms = [lp_norms(m, p, g) for m, g in zip(mats.swapaxes(0, 1), grams)]
    out = []
    for t in range(len(mats)):
        total = 0.0
        for delta, row in zip(deltas, norms):
            total += delta * row[t] ** q
        out.append(float(total ** (1.0 / q)))
    return out


def _dense_sums(sp, start, mats, driver=None, side="right"):
    """The full-size running sums of a ``(trials, nodes, dim, dim)`` array
    from ``start``, each partial sum a new stack: each node's dense product
    with its increment on ``side``, or without a driver its delta-weighted
    Gram product (m* m right, m m* left), added in node order up to the
    last increment."""
    acc = np.zeros((len(mats), sp.dim, sp.dim), complex)
    out = [acc.copy()]
    for k, m in zip(range(start, sp.grid.n), mats.swapaxes(0, 1)):
        if driver is None:
            adj = m.conj().swapaxes(-1, -2)
            acc += sp.grid.deltas[k] * (adj @ m if side == "right" else m @ adj)
        else:
            inc = driver.increment(sp, k).mat
            acc += m @ inc if side == "right" else inc @ m
        out.append(acc.copy())
    return out


def _full_norm_exchange_sides(mats, deltas, q, p):
    acc, grams = np.zeros((len(mats), *mats.shape[2:]), complex), _grams(mats)
    for delta, powed in zip(deltas, grams.swapaxes(0, 1)):
        if q != 2:
            lam, vec = np.linalg.eigh(powed)
            lam = np.clip(lam, 0.0, None)
            powed = (vec * lam[:, None, :] ** (q / 2.0)) @ vec.conj().transpose(0, 2, 1)
        acc += delta * powed
    lhs = psd_power_lp_norms(acc, q, p)
    rhs = _full_lqlp_norms(mats, deltas, q, p, grams)
    return lhs, rhs, [a / b if b > 0 else (0.0 if a == 0 else float("inf"))
                      for a, b in zip(lhs, rhs)]


@st.composite
def _chunk_stacks(draw, spaces=(_FERMION, _FERMION4, _FERMION8, _PAIR, _PAIR4)):
    """Node stacks of one random process or of a suite chunk of them
    (``_trial_chunks`` size) on a later start node, some nodes set to zero,
    and the same processes as a ``(trials, nodes, dim, dim)`` array."""
    sp = draw(st.sampled_from(spaces))
    n = sp.grid.n
    start = draw(st.integers(0, n - 1))
    num = draw(st.integers(1, n + 1 - start))
    trials = draw(st.sampled_from((1, len(_trial_chunks(sp, 10 ** 6)[0]))))
    seed = draw(st.integers(0, 2**32 - 1))
    nodes = [np.array(m) for m in _random_stack(
        sp, [np.random.default_rng([seed, t]) for t in range(trials)], num, start)]
    for k in draw(st.sets(st.integers(0, num - 1), max_size=num)):
        nodes[k][...] = 0
    return (sp, start, trials, nodes, _full_size(sp, nodes),
            sp.grid.deltas[start:start + num].tolist())


def _close(got, want):
    return all(math.isclose(a, b, rel_tol=FULL_SIZE_RTOL, abs_tol=0.0)
               for a, b in zip(got, want, strict=True))


@_SETTINGS
@given(stack=_chunk_stacks(), p=st.sampled_from(experiments.P_GRID + (1.5, 7.0)),
       qp=st.sampled_from(QP_PAIRS), data=st.data())
def test_factor_size_kernels_agree_with_the_full_size_algorithm(stack, p, qp,
                                                                 data):
    sp, start, trials, nodes, mats, deltas = stack
    q = qp[0]
    assert _close(_lqlp_norms(sp, start, trials, nodes, q, p),
                  _full_lqlp_norms(mats, deltas, q, p))
    for got, want in zip(_norm_exchange_sides(sp, start, trials, nodes, *qp),
                         _full_norm_exchange_sides(mats, deltas, *qp),
                         strict=True):
        assert _close(got, want)
    driver = data.draw(st.sampled_from(_DRIVERS[sp.layout]))
    want = [lp_norms(_dense_sums(sp, start, mats, driver, side)[-1], p)
            for side in ("left", "right")]
    want += [list(map(max, *(psd_power_lp_norms(
        _dense_sums(sp, start, mats, side=side)[-1], 2.0, p)
        for side in ("right", "left")))),
        _full_lqlp_norms(mats, deltas, 2.0, p)]
    for got, ref in zip(_bg_norms(sp, start, trials, nodes, driver, p,
                                  ("left", "right"), ("hp", "l2lp")), want,
                        strict=True):
        assert _close(got, ref)


@_SETTINGS
@given(stack=_chunk_stacks(), side=st.sampled_from(("right", "left")),
       data=st.data())
def test_level_growing_sums_match_the_dense_full_size_loop(stack, side, data):
    # every partial sum, embedded at full size: the driver integrals bit
    # for bit (real weights, so a gather is the dense product up to the
    # sign of zeros, which a sum from +0 does not keep), the Gram sums of
    # hp_norm within 1e-15 of their largest entry
    sp, start, trials, nodes, mats, _ = stack
    driver = data.draw(st.sampled_from(_REAL_DRIVERS[sp.layout]))
    got = [_at_size(s, sp.dim).copy()
           for s in _running_sums(sp, start, trials, nodes, driver, side)]
    want = _dense_sums(sp, start, mats, driver, side)
    assert [g.tobytes() for g in got] == [w.tobytes() for w in want]
    got = [_at_size(s, sp.dim).copy()
           for s in _running_sums(sp, start, trials, nodes, side=side)]
    for g, w in zip(got, _dense_sums(sp, start, mats, side=side), strict=True):
        assert np.max(np.abs(g - w), initial=0.0) <= \
            1e-15 * np.max(np.abs(w), initial=0.0)
