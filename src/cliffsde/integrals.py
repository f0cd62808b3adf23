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

The kernels work on a process's stacked values ``f.mats``: one stacked
matmul against the driver's cached increment stack per integral, one
stacked Gram product (and ``eigh`` or ``eigvalsh`` where a norm needs a
spectrum) per norm, then sums over the nodes in node order: the partial
sums of ``_running_sums`` for the integrals, and the one delta-weighted
loop ``_delta_sum`` for the time integral and the norms.  Stacked
products and decompositions equal the per-matrix calls bit for bit, so
the results are those of a per-element loop.  The processes are
immutable and adapted by construction, so no kernel re-checks
adaptedness.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .element import CliffordElement, lp_norm, lp_norms, op_norm, psd_power_lp_norm
from .errors import ZeroProcessError
from .process import AdaptedProcess, Driver
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


def _rows(f: AdaptedProcess, upto: int) -> np.ndarray:
    """The stacked values at nodes start_node..upto-1."""
    return f.mats[:upto - f.start_node]


def _running_sums(start, steps) -> list:
    """Partial sums [start, start + s_0, start + s_0 + s_1, ...] of an
    integral, accumulated left to right.  Each step is a tuple of terms
    added one at a time, so ``acc + a + b`` keeps its rounding.  The terms
    are elements (``start`` the space's zero) or matrices (a zero
    matrix)."""
    acc = start
    out = [acc]
    for step in steps:
        for term in step:
            acc = acc + term
        out.append(acc)
    return out


def _delta_sum(f: AdaptedProcess, terms, acc):
    """acc + sum_j delta_j * term_j over the nodes j = start_node, ... of
    ``terms``, added in node order; an array ``acc`` is updated in place."""
    deltas = f.space.grid.deltas[f.start_node:].tolist()
    for delta, term in zip(deltas, terms):
        acc += delta * term
    return acc


def _driver_partial_sums(f: AdaptedProcess, driver: Driver, upto: int,
                         side: str) -> list:
    """Matrices of the partial sums of a driver integral: one stacked
    product of the values with the cached increments, summed in node
    order."""
    sp = f.space
    vals = _rows(f, upto)
    incs = driver.increments(sp)[f.start_node:upto]
    terms = vals @ incs if side == "right" else incs @ vals
    zero = np.zeros((sp.dim, sp.dim), dtype=complex)
    return _running_sums(zero, ((t,) for t in terms))


def driver_integral(f: AdaptedProcess, driver: Driver, upto=None,
                    side: str = "right") -> CliffordElement:
    """sum f(tau_j) dxi_j (side='right') or sum dxi_j f(tau_j) (side='left')."""
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    upto = _resolve_upto(f, upto)
    total = _driver_partial_sums(f, driver, upto, side)[-1]
    return CliffordElement(f.space, total, _fresh=True)


def right_integral(f: AdaptedProcess, upto=None) -> CliffordElement:
    """Fermion-field integral with the integrand to the left of dW."""
    return driver_integral(f, Driver.fermion_field(), upto=upto, side="right")


def left_integral(f: AdaptedProcess, upto=None) -> CliffordElement:
    """Fermion-field integral with the integrand to the right of dW."""
    return driver_integral(f, Driver.fermion_field(), upto=upto, side="left")


def time_integral(f: AdaptedProcess, upto=None) -> CliffordElement:
    """sum f(tau_j) delta_j; obeys ||.||_p <= sum ||f_j||_p delta_j."""
    upto = _resolve_upto(f, upto)
    vals = _rows(f, upto)
    total = _delta_sum(f, vals, np.zeros(vals.shape[1:], dtype=complex))
    return CliffordElement(f.space, total, _fresh=True)


def hp_norm(f: AdaptedProcess, p: float, upto=None) -> float:
    """Square-function norm, symmetrized over f and f*."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p!r}")
    upto = _resolve_upto(f, upto)
    mats = _rows(f, upto)
    adj = mats.conj().transpose(0, 2, 1)
    sums = (_delta_sum(f, grams, np.zeros(mats.shape[1:], dtype=complex))
            for grams in (adj @ mats, mats @ adj))
    return max(psd_power_lp_norm(s, 2.0, p) for s in sums)


def lqlp_norm(f: AdaptedProcess, q: float, p: float, upto=None) -> float:
    """(sum_j ||f_j||_p^q delta_j)^(1/q)."""
    if q < 1 or p < 1:
        raise ValueError(f"exponents must be >= 1, got q={q!r}, p={p!r}")
    upto = _resolve_upto(f, upto)
    norms = lp_norms(_rows(f, upto), p)
    total = _delta_sum(f, [nrm ** q for nrm in norms], 0.0)
    return float(total ** (1.0 / q))


def martingale_check(f: AdaptedProcess, driver: Driver | None = None,
                     side: str = "right", p: float = 2.0, upto=None) -> float:
    """Max over s of || E(M_t | level s) - M_s ||_p for M the integral.

    Zero up to roundoff for any adapted integrand; every process is
    adapted, because its construction checks the values it is given and
    nothing can replace them afterwards.
    """
    if driver is None:
        driver = Driver.fermion_field()
    upto = _resolve_upto(f, upto)
    sp = f.space
    partial = [CliffordElement(sp, s, _fresh=True)
               for s in _driver_partial_sums(f, driver, upto, side)]
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
    inc = sp.fermion_increment(increment_index)
    even, odd = parity_decompose(h)
    even_defect = op_norm(even @ inc - inc @ even)
    odd_defect = op_norm(odd @ inc + inc @ odd)
    return even_defect, odd_defect


# -- inequality reports ------------------------------------------------------

CSV_HEADER = "suite,p,q,trial,seed,lhs,rhs,ratio"


@dataclass(frozen=True)
class InequalityReport:
    """One checked inequality instance; ratio = lhs / rhs."""

    suite: str
    p: float
    lhs: float
    rhs: float
    ratio: float
    q: float | None = None
    trial: int = 0
    seed: int = 0

    def csv_row(self) -> str:
        qtxt = "" if self.q is None else repr(float(self.q))
        return (
            f"{self.suite},{float(self.p)!r},{qtxt},{self.trial},{self.seed},"
            f"{self.lhs!r},{self.rhs!r},{self.ratio!r}"
        )


def check_norm_exchange(f: AdaptedProcess, q: float, p: float, upto=None,
                        trial: int = 0, seed: int = 0) -> InequalityReport:
    """|| (int |f|^q)^(1/q) ||_p <= (int ||f||_p^q)^(1/q) for 1 <= q <= p.

    Equality holds at q = p; the report records both sides and their ratio.
    """
    if not 1 <= q <= p:
        raise ValueError(f"need 1 <= q <= p, got q={q!r}, p={p!r}")
    upto = _resolve_upto(f, upto)
    mats = _rows(f, upto)
    grams = mats.conj().transpose(0, 2, 1) @ mats
    if q == 2:
        powed = grams
    else:
        lam, vec = np.linalg.eigh(grams)
        lam = np.clip(lam, 0.0, None)
        powed = (vec * lam[:, None, :] ** (q / 2.0)) @ vec.conj().transpose(0, 2, 1)
    acc = _delta_sum(f, powed, np.zeros(mats.shape[1:], dtype=complex))
    lhs = psd_power_lp_norm(acc, q, p)
    rhs = lqlp_norm(f, q, p, upto=upto)
    ratio = lhs / rhs if rhs > 0 else (0.0 if lhs == 0 else float("inf"))
    return InequalityReport("norm_exchange", p, lhs, rhs, ratio,
                            q=q, trial=trial, seed=seed)


def check_bg(f: AdaptedProcess, p: float, driver: Driver | None = None,
             side: str = "right", upto=None, trial: int = 0,
             seed: int = 0) -> InequalityReport:
    """Martingale-vs-square-function ratio for one integrand.

    For the fermion driver the reference norm is ``hp_norm``; for the
    creation/annihilation family it is (sum ||f_j||_p^2 delta_j)^(1/2).
    The two-sided comparability constants are exactly what the sweep
    suites estimate empirically, so only finiteness is asserted here.
    """
    if driver is None:
        driver = Driver.fermion_field()
    upto = _resolve_upto(f, upto)
    lhs = lp_norm(driver_integral(f, driver, upto=upto, side=side), p)
    if driver.kind == "fermion_field":
        rhs = hp_norm(f, p, upto=upto)
    else:
        rhs = lqlp_norm(f, 2.0, p, upto=upto)
    return InequalityReport("bg_ratio", p, lhs, rhs, _bg_ratio(p, lhs, rhs),
                            q=None, trial=trial, seed=seed)


def _bg_ratio(p: float, lhs: float, rhs: float) -> float:
    """lhs / rhs of the martingale estimate: ||integral||_p over its
    reference norm, defined for p >= 2 and a non-zero reference."""
    if p < 2:
        raise ValueError(f"the martingale estimates need p >= 2, got {p!r}")
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
    if driver is None:
        driver = Driver.fermion_field()
    if form not in ("l2lp", "hp"):
        raise ValueError(f"form must be 'l2lp' or 'hp', got {form!r}")
    worst = 0.0
    for t in range(trials):
        rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t,)))
        f = AdaptedProcess.random(space, rng)
        lhs = lp_norm(driver_integral(f, driver, side=side), p)
        rhs = hp_norm(f, p) if form == "hp" else lqlp_norm(f, 2.0, p)
        if rhs > 0:
            worst = max(worst, lhs / rhs)
    return worst
