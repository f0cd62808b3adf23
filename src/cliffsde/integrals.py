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

The kernels work on T processes from a start node as one ``(T, d, d)``
stack per node of the level factors ``a`` of their values ``a (x) I``,
with T given: a batch of one (a process's ``factors``) for the per-process
functions, a chunk of random trials for the suites and
``measure_bg_constant``.  The per-node norm work of ``lqlp_norm`` and the
norm exchange (Gram products, ``eigh`` powers, node norms) runs on the
factors.  The driver integrals and ``hp_norm``'s Gram sums are one running
sum (``_running_sums``) that grows with the level, as the time integral's
and the norm exchange's powered sums do; increments multiply as gathers,
bitwise the dense products up to the sign of zeros on finite input, but
for the complex weights of a ``linear_combination`` driver (about 1e-16
apart).
The sums run over the nodes in node order: in place for the integrals and
the square function, the delta-weighted loop ``_delta_sum`` for the
norms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .element import (CliffordElement, _check_exponent, _grams, lp_norm,
                      lp_norms, op_norm, psd_power_lp_norms)
from .errors import ConfigurationError, ZeroProcessError
from .grid import is_count
from .process import AdaptedProcess, Driver, _random_stack
from .space import (_at_size, as_int, conditional_expect, parity_decompose,
                    require_adapted)


#: Bytes of a chunk of random trials (:func:`_trial_chunks`): their level
#: factors and ``_STEP_MATRICES`` full-size matrices each; 10 trials at
#: n = 8 and 13 at pair n = 4 (both dim 16), one from dim 64 up.  Under
#: tracemalloc a chunk's whole :func:`_bg_norms` call, its draw included,
#: peaks within it (205 KB at n = 8); the norm exchange's ``eigh`` powers,
#: which it does not count, peak at 258 KB there.
_CHUNK_BYTES = 240 * 1024
#: Matrices per trial, each at most of the largest step size (the full
#: size), that a running-sum step holds at once: the sum, the node embedded
#: at the step's size or a Gram step's conjugate, the term, and the buffer
#: of the broadcast product that scales a gathered term
_STEP_MATRICES = 4


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


def _stack(f: AdaptedProcess, upto) -> tuple:
    """f as a batch of one up to the checked ``upto``: its space, start
    node, one process, and its factors at nodes start_node..upto-1 as
    ``(1, d, d)`` stacks."""
    upto = _resolve_upto(f, upto)
    return (f.space, f.start_node, 1,
            [a.mat[None] for a in f.factors[:upto - f.start_node]])


def _deltas(space, start: int, nodes) -> list:
    """The deltas of the nodes of node stacks from ``start``, as floats."""
    return space.grid.deltas[start:start + len(nodes)].tolist()


def _check_side(side: str) -> None:
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")


def _last(items):
    """The last item of an iterator, keeping no earlier one."""
    for item in items:
        pass
    return item


def _delta_sum(deltas, terms, acc):
    """acc + sum_j deltas[j] * terms[j], added in node order; an array
    ``acc`` is updated in place."""
    for delta, term in zip(deltas, terms):
        acc += delta * term
    return acc


def _driver_step(space, driver: Driver, k: int, *mats) -> tuple:
    """Driver step k of a running sum: node k+1's level space, increment
    k's gather there, and ``mats`` (node k's factors, matrices or stacks)
    at that size."""
    sub = space.level_space(k + 1)
    return (sub, driver.gather(sub, k), *(_at_size(m, sub.dim) for m in mats))


def _term(space, driver: Driver | None, side: str, k: int, delta: float,
          m) -> np.ndarray:
    """Step k's term of :func:`_running_sums` for the node stack ``m``."""
    if driver is not None:
        _, g, m = _driver_step(space, driver, k, m)
        return g.right(m) if side == "right" else g.left(m)
    adj = m.conj().swapaxes(-1, -2)
    term = adj @ m if side == "right" else m @ adj
    return np.multiply(delta, term, out=term)


def _running_sums(space, start: int, trials: int, nodes,
                  driver: Driver | None = None, side: str = "right"):
    """Yield the running sum of one product of the ``trials`` processes of
    node stacks from ``start``, a ``(T, d, d)`` stack, first for no node,
    then after each node in node order, updated in place until it grows
    (keep a copy): with a driver its integral on ``side`` (the gather on the
    node's right or left, at :func:`_driver_step`'s size), or else the
    delta-weighted Gram sum of :func:`hp_norm` on ``side`` (m* m right,
    m m* left) at the node's size.  A term is formed before the sum grows
    to its size, so that the sum's two sizes never meet a node's embedded
    copy or conjugate."""
    _check_side(side)
    size = space.level_space(start).dim
    acc = np.zeros((trials, size, size), complex)
    yield acc
    for k, (delta, m) in enumerate(zip(_deltas(space, start, nodes), nodes),
                                   start):
        term = _term(space, driver, side, k, delta, m)
        acc = _at_size(acc, term.shape[-1])
        acc += term
        del term  # not held while the next one is formed
        yield acc


def _total(space, start: int, trials: int, nodes,
           driver: Driver | None = None, side: str = "right") -> np.ndarray:
    """The last of :func:`_running_sums`, at full size: the norms are taken
    there, so that only the sums round apart from a full-size loop."""
    return _at_size(_last(_running_sums(space, start, trials, nodes, driver,
                                        side)), space.dim)


def _hp_norms(space, start: int, trials: int, nodes, p: float) -> list:
    """:func:`hp_norm` of each process of node stacks from ``start``: the
    larger norm of its two Gram sums, each formed and reduced in turn."""
    return list(map(max, *(psd_power_lp_norms(
        _total(space, start, trials, nodes, side=side), 2.0, p)
        for side in ("right", "left"))))


def _lqlp_norms(space, start: int, trials: int, nodes, q: float, p: float,
                norms=None) -> list:
    """:func:`lqlp_norm` of each process of node stacks from ``start``: the
    level factors' norms (``norms``, per node, when given), delta-summed as
    floats."""
    deltas = _deltas(space, start, nodes)
    if norms is None:
        norms = [lp_norms(a, p) for a in nodes]
    return [float(_delta_sum(deltas, [row[t] ** q for row in norms], 0.0)
                  ** (1.0 / q)) for t in range(trials)]


def _bg_norms(space, start: int, trials: int, nodes, driver: Driver,
              p: float, sides, refs) -> list:
    """Per process of node stacks from ``start``, the L^p norm of its driver
    integral on each of ``sides``, then each reference norm of ``refs``:
    ``'hp'`` (:func:`hp_norm`) or ``'l2lp'`` ((sum ||f_j||_p^2 d_j)^(1/2)).
    Each running sum is formed and reduced in turn."""
    out = [lp_norms(_total(space, start, trials, nodes, driver, side), p)
           for side in sides]
    return out + [_hp_norms(space, start, trials, nodes, p) if ref == "hp"
                  else _lqlp_norms(space, start, trials, nodes, 2.0, p)
                  for ref in refs]


def _norm_exchange_sides(space, start: int, trials: int, nodes, q: float,
                         p: float) -> tuple:
    """The lhs, rhs and ratio lists of :func:`check_norm_exchange` for node
    stacks from ``start``: per node the level factors' Gram products, their
    norms, then ``eigh``-powered in the Gram products' buffer and
    delta-summed in node order into a sum that grows with the level, as
    :func:`_running_sums`' does."""
    acc, norms = np.zeros((trials, 1, 1), complex), []
    for delta, a in zip(_deltas(space, start, nodes), nodes):
        powed = _grams(a)
        norms.append(lp_norms(a, p, powed))
        if q != 2:
            lam, vec = np.linalg.eigh(powed)
            adj = vec.conj().transpose(0, 2, 1)
            vec *= np.clip(lam, 0.0, None)[:, None, :] ** (q / 2.0)
            np.matmul(vec, adj, out=powed)
        np.multiply(delta, powed, out=powed)
        acc = _at_size(acc, powed.shape[-1])
        acc += powed
    lhs = psd_power_lp_norms(_at_size(acc, space.dim), q, p)
    rhs = _lqlp_norms(space, start, trials, nodes, q, p, norms)
    return lhs, rhs, [a / b if b > 0 else (0.0 if a == 0 else float("inf"))
                      for a, b in zip(lhs, rhs)]


def _trial_chunks(space, trials: int) -> list:
    """Consecutive ranges of trials that fit one chunk of ``_CHUNK_BYTES``:
    per trial its random process as level factors (one value per
    increment) and the running sums' matrices at the largest step size,
    the full size."""
    dims = [space.level_space(k).dim for k in range(space.grid.n)]
    per_trial = sum(d * d for d in dims) + _STEP_MATRICES * space.dim ** 2
    size = max(1, _CHUNK_BYTES // (16 * per_trial))
    return [range(lo, min(lo + size, trials)) for lo in range(0, trials, size)]


def driver_integral(f: AdaptedProcess, driver: Driver, upto=None,
                    side: str = "right") -> CliffordElement:
    """sum f(tau_j) dxi_j (side='right') or sum dxi_j f(tau_j) (side='left')."""
    total = _total(*_stack(f, upto), driver, side)
    return CliffordElement(f.space, total[0], _fresh=True)


def right_integral(f: AdaptedProcess, upto=None) -> CliffordElement:
    """Fermion-field integral with the integrand to the left of dW."""
    return driver_integral(f, Driver.fermion_field(), upto=upto, side="right")


def left_integral(f: AdaptedProcess, upto=None) -> CliffordElement:
    """Fermion-field integral with the integrand to the right of dW."""
    return driver_integral(f, Driver.fermion_field(), upto=upto, side="left")


def time_integral(f: AdaptedProcess, upto=None) -> CliffordElement:
    """sum f(tau_j) delta_j; obeys ||.||_p <= sum ||f_j||_p delta_j."""
    space, start, _, nodes = _stack(f, upto)
    total = np.zeros((1, 1, 1), complex)
    for delta, m in zip(_deltas(space, start, nodes), nodes):
        total = _at_size(total, m.shape[-1])  # grows with the level
        total += delta * m
    return CliffordElement(space, _at_size(total, space.dim)[0], _fresh=True)


def hp_norm(f: AdaptedProcess, p: float, upto=None) -> float:
    """Square-function norm, symmetrized over f and f*."""
    _check_exponent(p)
    return _hp_norms(*_stack(f, upto), p)[0]


def lqlp_norm(f: AdaptedProcess, q: float, p: float, upto=None) -> float:
    """(sum_j ||f_j||_p^q delta_j)^(1/q)."""
    _check_exponent(q, "q")
    _check_exponent(p)
    return _lqlp_norms(*_stack(f, upto), q, p)[0]


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
    partial = [CliffordElement(sp, _at_size(s[0], sp.dim))
               for s in _running_sums(*_stack(f, upto), driver, side)]
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
        *_stack(f, upto), q, p))
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
    lhs, rhs = (norms[0] for norms in _bg_norms(*_stack(f, upto), driver, p,
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
    _check_exponent(p, least=2)  # before any draw, as side and seed are
    _check_side(side)
    if not is_count(seed):
        raise ConfigurationError(f"seed out of range (a non-negative integer): "
                                 f"{seed!r}", key="seed")
    if driver is None:
        driver = Driver.fermion_field()
    if form not in ("l2lp", "hp"):
        raise ValueError(f"form must be 'l2lp' or 'hp', got {form!r}")
    if isinstance(trials, bool) or as_int(trials, "trials") < 1:  # a bool is 0 or 1
        raise ConfigurationError(f"trials out of range (at least 1): {trials!r}",
                                 key="trials")
    trials = int(trials)
    worst = 0.0
    for chunk in _trial_chunks(space, trials):
        rngs = [np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,)))
                for t in chunk]
        norms = _bg_norms(space, 0, len(rngs), _random_stack(space, rngs),
                          driver, p, (side,), (form,))
        for lhs, rhs in zip(*norms):
            if rhs > 0:
                worst = max(worst, lhs / rhs)
    return worst
