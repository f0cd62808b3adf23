"""Discrete Ito integrals against fermionic drivers, and the norm toolkit.

All integrals are left-endpoint sums over whole increments:

    right:  sum_j f(tau_j) dxi_j        left:  sum_j dxi_j f(tau_j)
    time:   sum_j f(tau_j) delta_j

with j running over the increments below ``upto``.  Because the integrand
value at node j commutes with nothing later than level j, these sums are
martingales under the conditional expectations, and the p = 2 case
satisfies the isometry  ||int f dW||_2^2 = sum_j ||f_j||_2^2 delta_j
to roundoff.

The square-function norm is

    hp_norm(f, p) = max( || (sum |f_j|^2 d_j)^(1/2) ||_p ,
                         || (sum |f_j*|^2 d_j)^(1/2) ||_p )

and ``lqlp_norm`` is the iterated norm (sum ||f_j||_p^q d_j)^(1/q).

The kernels work on a ``(T, nodes, dim, dim)`` stack of processes from a
start node: a batch of one for the per-process functions, a chunk of
random trials for the suites and ``measure_bg_constant``.  Per node they
make one stacked product with the driver's cached increment and stacked
Gram products, at full size for ``hp_norm``, else on the level factors
``a`` of the values ``a (x) I`` (and ``eigh`` where the norm exchange
powers them, embedded in its full-size sum), then sum over the nodes in
node order: the partial sums of ``_running_sums`` for the integrals, the
delta-weighted loop ``_delta_sum`` for the time integral and the norms.
The increment product stays a dense matmul, not a gather: with the
complex weights of a ``linear_combination`` driver a gather rounds apart
from BLAS's complex product (by up to about 1e-15), and the driver
integral is pinned bit for bit to the dense per-element loop.
Stacked products, ``eigh``/``eigvalsh`` and elementwise accumulation
equal the per-matrix calls bit for bit.  The reductions whose rounding
depends on the shape they reduce stay per matrix or per process: the
``vdot`` of an L^2 or trace-power norm, the mean of a spectrum, and the
Python-float delta-sum of ``lqlp_norm``.  So the results are those of a
per-element loop on the level factors.  The processes are immutable and
adapted by construction, so no kernel re-checks adaptedness or reads off
the ``a (x) I`` pattern.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .element import (CliffordElement, _check_exponent, _grams, lp_norm,
                      lp_norms, op_norm, psd_power_lp_norms)
from .errors import ConfigurationError, ZeroProcessError
from .process import AdaptedProcess, Driver, _random_stack, _trial_chunks
from .space import as_int, conditional_expect, parity_decompose, require_adapted


def _resolve_upto(f: AdaptedProcess, upto) -> int:
    n = f.space.grid.n
    limit = min(f.start_node + len(f), n)
    if upto is None:
        return limit
    upto = as_int(upto, "upto")
    if not f.start_node <= upto <= limit:
        raise ValueError(
            f"upto={upto} outside integrable range {f.start_node}..{limit}"
        )
    return upto


def _stack(f: AdaptedProcess, upto, driver: Driver | None = None) -> tuple:
    """f as a batch of one up to the checked ``upto``: its space, start
    node, values at nodes start_node..upto-1 as a ``(1, nodes, dim, dim)``
    stack and (with a driver) the driver's increments there."""
    upto = _resolve_upto(f, upto)
    incs = None if driver is None else driver.increments(f.space)[f.start_node:upto]
    return f.space, f.start_node, f.mats[None, :upto - f.start_node], incs


def _nodes(space, start: int, mats: np.ndarray) -> tuple:
    """The deltas of a stack's nodes from ``start`` and, from their level
    spaces, the strides hi of the level factors ``m[:, ::hi, ::hi]``, which
    the kernels copy contiguous, as :func:`~.space.restrict` does."""
    nodes = range(start, start + mats.shape[1])
    return (space.grid.deltas[start:nodes.stop].tolist(),
            [space.dim // space.level_space(k).dim for k in nodes])


def _running_sums(start, steps):
    """Yield the partial sums start, start + s_0, start + s_0 + s_1, ...
    of an integral, accumulated left to right.  Each step is a tuple of
    terms added one at a time, so ``acc + a + b`` keeps its rounding.  The
    terms are elements (``start`` the space's zero) or arrays (zeros)."""
    acc = start
    yield acc
    for step in steps:
        for term in step:
            acc = acc + term
        yield acc


def _delta_sum(deltas, terms, acc):
    """acc + sum_j deltas[j] * terms[j], added in node order; an array
    ``acc`` is updated in place."""
    for delta, term in zip(deltas, terms):
        acc += delta * term
    return acc


def _driver_partial_sums(mats: np.ndarray, incs: np.ndarray, side: str):
    """Yield the partial sums of a driver integral for each process of a
    ``(T, nodes, dim, dim)`` stack, each a ``(T, dim, dim)`` stack: per
    node one stacked product with the node's increment, summed in node
    order."""
    terms = ((m @ inc if side == "right" else inc @ m,)
             for m, inc in zip(mats.swapaxes(0, 1), incs))
    return _running_sums(np.zeros((len(mats), *mats.shape[2:]), complex), terms)


def _driver_sums(mats: np.ndarray, incs: np.ndarray, side: str) -> np.ndarray:
    """The last of :func:`_driver_partial_sums`, keeping no earlier one."""
    for total in _driver_partial_sums(mats, incs, side):
        pass
    return total


def _hp_norms(space, start: int, mats: np.ndarray, p: float) -> list:
    """:func:`hp_norm` of each process of a stack from node ``start``: per
    node the stacked full-size Gram products, delta-summed in node order."""
    right, left = np.zeros((2, len(mats), *mats.shape[2:]), complex)
    for delta, m in zip(_nodes(space, start, mats)[0], mats.swapaxes(0, 1)):
        right += delta * _grams(m)
        left += delta * (m @ m.conj().transpose(0, 2, 1))
    return list(map(max, *(psd_power_lp_norms(s, 2.0, p) for s in (right, left))))


def _lqlp_norms(space, start: int, mats: np.ndarray, q: float, p: float,
                grams=None) -> list:
    """:func:`lqlp_norm` of each process of a stack from node ``start``: the
    level factors' norms (from ``grams`` when given), delta-summed as floats."""
    deltas, his = _nodes(space, start, mats)
    grams = [None] * len(his) if grams is None else grams
    norms = [lp_norms(np.ascontiguousarray(m[:, ::hi, ::hi]), p, g)
             for m, hi, g in zip(mats.swapaxes(0, 1), his, grams)]
    return [float(_delta_sum(deltas, [row[t] ** q for row in norms], 0.0)
                  ** (1.0 / q)) for t in range(len(mats))]


def _bg_norms(space, start: int, mats: np.ndarray, incs: np.ndarray, p: float,
              sides, refs) -> list:
    """Per process of a stack from node ``start``, the L^p norm of its driver
    integral on each of ``sides``, then each reference norm of ``refs``:
    ``'hp'`` (:func:`hp_norm`) or ``'l2lp'`` ((sum ||f_j||_p^2 d_j)^(1/2))."""
    out = [lp_norms(_driver_sums(mats, incs, side), p) for side in sides]
    return out + [_hp_norms(space, start, mats, p) if ref == "hp"
                  else _lqlp_norms(space, start, mats, 2.0, p) for ref in refs]


def _norm_exchange_sides(space, start: int, mats: np.ndarray, q: float,
                         p: float) -> tuple:
    """The lhs, rhs and ratio lists of :func:`check_norm_exchange` for a
    stack from node ``start``: per node the level factors' Gram products,
    ``eigh``-powered, delta-summed in node order on the blocks of a (x) I."""
    deltas, his = _nodes(space, start, mats)
    acc, grams = np.zeros((len(mats), *mats.shape[2:]), complex), []
    for delta, hi, m in zip(deltas, his, mats.swapaxes(0, 1)):
        powed = _grams(np.ascontiguousarray(m[:, ::hi, ::hi]))
        grams.append(powed)
        if q != 2:
            lam, vec = np.linalg.eigh(powed)
            lam = np.clip(lam, 0.0, None)
            powed = (vec * lam[:, None, :] ** (q / 2.0)) @ vec.conj().transpose(0, 2, 1)
        powed = delta * powed
        for j in range(hi):  # powed (x) I
            acc[:, j::hi, j::hi] += powed
    lhs, rhs = psd_power_lp_norms(acc, q, p), _lqlp_norms(space, start, mats, q, p, grams)
    return lhs, rhs, [a / b if b > 0 else (0.0 if a == 0 else float("inf"))
                      for a, b in zip(lhs, rhs)]


def driver_integral(f: AdaptedProcess, driver: Driver, upto=None,
                    side: str = "right") -> CliffordElement:
    """sum f(tau_j) dxi_j (side='right') or sum dxi_j f(tau_j) (side='left')."""
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    *_, mats, incs = _stack(f, upto, driver)
    total = _driver_sums(mats, incs, side)[0]
    return CliffordElement(f.space, total, _fresh=True)


def right_integral(f: AdaptedProcess, upto=None) -> CliffordElement:
    """Fermion-field integral with the integrand to the left of dW."""
    return driver_integral(f, Driver.fermion_field(), upto=upto, side="right")


def left_integral(f: AdaptedProcess, upto=None) -> CliffordElement:
    """Fermion-field integral with the integrand to the right of dW."""
    return driver_integral(f, Driver.fermion_field(), upto=upto, side="left")


def time_integral(f: AdaptedProcess, upto=None) -> CliffordElement:
    """sum f(tau_j) delta_j; obeys ||.||_p <= sum ||f_j||_p delta_j."""
    sp, start, mats, _ = _stack(f, upto)
    total = _delta_sum(_nodes(sp, start, mats)[0], mats[0],
                       np.zeros(mats.shape[2:], complex))
    return CliffordElement(f.space, total, _fresh=True)


def hp_norm(f: AdaptedProcess, p: float, upto=None) -> float:
    """Square-function norm, symmetrized over f and f*."""
    _check_exponent(p)
    return _hp_norms(*_stack(f, upto)[:3], p)[0]


def lqlp_norm(f: AdaptedProcess, q: float, p: float, upto=None) -> float:
    """(sum_j ||f_j||_p^q delta_j)^(1/q)."""
    _check_exponent(q, "q")
    _check_exponent(p)
    return _lqlp_norms(*_stack(f, upto)[:3], q, p)[0]


def martingale_check(f: AdaptedProcess, driver: Driver | None = None,
                     side: str = "right", p: float = 2.0, upto=None) -> float:
    """Max over s of || E(M_t | level s) - M_s ||_p for M the integral.

    Zero up to roundoff for any adapted integrand; every process is
    adapted, because its construction checks the values it is given and
    nothing can replace them afterwards.
    """
    if driver is None:
        driver = Driver.fermion_field()
    sp = f.space
    *_, mats, incs = _stack(f, upto, driver)
    partial = [CliffordElement(sp, s[0], _fresh=True)
               for s in _driver_partial_sums(mats, incs, side)]
    m_t = partial[-1]
    worst = 0.0
    for off, m_s in enumerate(partial):
        proj = conditional_expect(m_t, sp.level_of_node(f.start_node + off))
        worst = max(worst, lp_norm(proj - m_s, p))
    return worst


def parity_commutation_defect(h: CliffordElement, increment_index: int):
    """Op-norm defects of the grading commutation rule against a later
    fermion increment: the even part must commute and the odd part must
    anticommute, both exactly.

    ``h`` has to be measurable before the increment, i.e. lie in the
    level-j algebra for j = increment_index.
    """
    sp = h.space
    level = sp.level_of_node(increment_index)
    require_adapted(h, level, 2, 1e-8,
                    f"h is not level-{level} measurable; the commutation "
                    f"rule only applies to earlier elements")
    inc = Driver.fermion_field().increment(sp, increment_index)
    even, odd = parity_decompose(h)
    even_defect = op_norm(even @ inc - inc @ even)
    odd_defect = op_norm(odd @ inc + inc @ odd)
    return even_defect, odd_defect


# -- inequality reports ------------------------------------------------------


@dataclass(frozen=True)
class InequalityReport:
    """One checked inequality instance; ratio = lhs / rhs."""

    suite: str
    p: float
    lhs: float
    rhs: float
    ratio: float
    q: float | None = None


def check_norm_exchange(f: AdaptedProcess, q: float, p: float,
                        upto=None) -> InequalityReport:
    """|| (int |f|^q)^(1/q) ||_p <= (int ||f||_p^q)^(1/q) for 1 <= q <= p.

    Equality holds at q = p; the report records both sides and their ratio.
    """
    if not 1 <= q <= p < np.inf:
        raise ValueError(f"need 1 <= q <= p < inf, got q={q!r}, p={p!r}")
    lhs, rhs, ratio = (part[0] for part in _norm_exchange_sides(
        *_stack(f, upto)[:3], q, p))
    return InequalityReport("norm_exchange", p, lhs, rhs, ratio, q=q)


def check_bg(f: AdaptedProcess, p: float, driver: Driver | None = None,
             side: str = "right", upto=None) -> InequalityReport:
    """Martingale-vs-square-function ratio for one integrand.

    For the fermion driver the reference norm is ``hp_norm``; for the
    creation/annihilation family it is (sum ||f_j||_p^2 delta_j)^(1/2).
    The two-sided comparability constants are exactly what the sweep
    suites estimate empirically, so only finiteness is asserted here.
    """
    _check_exponent(p, least=2)
    if driver is None:
        driver = Driver.fermion_field()
    ref = "hp" if driver.kind == "fermion_field" else "l2lp"
    lhs, rhs = (norms[0] for norms in _bg_norms(*_stack(f, upto, driver), p,
                                                (side,), (ref,)))
    return InequalityReport("bg_ratio", p, lhs, rhs, _bg_ratio(p, lhs, rhs))


def _bg_ratio(p: float, lhs: float, rhs: float) -> float:
    """lhs / rhs of the martingale estimate: ||integral||_p over its
    reference norm, defined for p >= 2 and a non-zero reference."""
    _check_exponent(p, least=2)
    if rhs == 0.0:
        raise ZeroProcessError("inequality ratio undefined for the zero process")
    return lhs / rhs


def measure_bg_constant(space, p: float, driver: Driver | None = None,
                        side: str = "right", trials: int = 100,
                        seed: int = 0, form: str = "l2lp") -> float:
    """Empirical upper constant: max over random unit integrands of
    ||integral||_p over the chosen reference norm.

    ``form='l2lp'`` compares against (sum ||f_j||_p^2 d_j)^(1/2) — the
    constant the stability bound consumes; ``form='hp'`` compares against
    the square-function norm.
    """
    _check_exponent(p, least=2)  # before any draw
    if driver is None:
        driver = Driver.fermion_field()
    if form not in ("l2lp", "hp"):
        raise ValueError(f"form must be 'l2lp' or 'hp', got {form!r}")
    trials = as_int(trials, "trials")
    if trials < 1:
        raise ConfigurationError(f"trials out of range (at least 1): {trials}",
                                 key="trials")
    incs = driver.increments(space)
    worst = 0.0
    for chunk in _trial_chunks(space, trials):
        rngs = [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,)))
                for t in chunk]
        norms = _bg_norms(space, 0, _random_stack(space, rngs), incs, p, (side,), (form,))
        for lhs, rhs in zip(*norms):
            if rhs > 0:
                worst = max(worst, lhs / rhs)
    return worst
