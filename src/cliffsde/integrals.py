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
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .element import CliffordElement, lp_norm, op_norm, psd_power_lp_norm
from .errors import AdaptednessError, ContractViolationError, ZeroProcessError
from .process import ADAPTEDNESS_REJECT_TOL, AdaptedProcess, Driver
from .space import adaptedness_defect, conditional_expect, parity_decompose


def _resolve_upto(f: AdaptedProcess, upto) -> int:
    n = f.space.grid.n
    limit = min(f.start_node + len(f.values), n)
    if upto is None:
        return limit
    upto = int(upto)
    if not f.start_node <= upto <= limit:
        raise ValueError(
            f"upto={upto} outside integrable range {f.start_node}..{limit}"
        )
    return upto


def _running_sums(space, steps) -> list:
    """Partial sums [0, s_0, s_0 + s_1, ...] of an integral, accumulated
    left to right from ``space.zero()``.  Each step is a tuple of terms
    added one at a time, so ``acc + a + b`` keeps its rounding."""
    acc = space.zero()
    out = [acc]
    for step in steps:
        for term in step:
            acc = acc + term
        out.append(acc)
    return out


def _driver_steps(f: AdaptedProcess, driver: Driver, upto: int, side: str):
    sp = f.space
    for j in range(f.start_node, upto):
        inc, fj = driver.increment(sp, j), f.value(j)
        yield (fj @ inc if side == "right" else inc @ fj,)


def driver_integral(f: AdaptedProcess, driver: Driver, upto=None,
                    side: str = "right") -> CliffordElement:
    """sum f(tau_j) dxi_j (side='right') or sum dxi_j f(tau_j) (side='left')."""
    if side not in ("right", "left"):
        raise ValueError(f"side must be 'right' or 'left', got {side!r}")
    upto = _resolve_upto(f, upto)
    return _running_sums(f.space, _driver_steps(f, driver, upto, side))[-1]


def right_integral(f: AdaptedProcess, upto=None) -> CliffordElement:
    """Fermion-field integral with the integrand to the left of dW."""
    return driver_integral(f, Driver.fermion_field(), upto=upto, side="right")


def left_integral(f: AdaptedProcess, upto=None) -> CliffordElement:
    """Fermion-field integral with the integrand to the right of dW."""
    return driver_integral(f, Driver.fermion_field(), upto=upto, side="left")


def time_integral(f: AdaptedProcess, upto=None) -> CliffordElement:
    """sum f(tau_j) delta_j; obeys ||.||_p <= sum ||f_j||_p delta_j."""
    upto = _resolve_upto(f, upto)
    sp = f.space
    steps = ((sp.grid.delta(j) * f.value(j),)
             for j in range(f.start_node, upto))
    return _running_sums(sp, steps)[-1]


def hp_norm(f: AdaptedProcess, p: float, upto=None) -> float:
    """Square-function norm, symmetrized over f and f*."""
    if p < 1:
        raise ValueError(f"p must be >= 1, got {p!r}")
    upto = _resolve_upto(f, upto)
    sp = f.space
    s_right = np.zeros((sp.dim, sp.dim), dtype=complex)
    s_left = np.zeros((sp.dim, sp.dim), dtype=complex)
    for j in range(f.start_node, upto):
        mat = f.value(j).mat
        dj = sp.grid.delta(j)
        s_right += dj * (mat.conj().T @ mat)
        s_left += dj * (mat @ mat.conj().T)
    return max(
        psd_power_lp_norm(s_right, 2.0, p),
        psd_power_lp_norm(s_left, 2.0, p),
    )


def lqlp_norm(f: AdaptedProcess, q: float, p: float, upto=None) -> float:
    """(sum_j ||f_j||_p^q delta_j)^(1/q)."""
    if q < 1 or p < 1:
        raise ValueError(f"exponents must be >= 1, got q={q!r}, p={p!r}")
    upto = _resolve_upto(f, upto)
    total = 0.0
    for j in range(f.start_node, upto):
        total += lp_norm(f.value(j), p) ** q * f.space.grid.delta(j)
    return float(total ** (1.0 / q))


def martingale_check(f: AdaptedProcess, driver: Driver | None = None,
                     side: str = "right", p: float = 2.0, upto=None) -> float:
    """Max over s of || E(M_t | level s) - M_s ||_p for M the integral.

    Zero up to roundoff for any adapted integrand.  The adaptedness
    contract is re-checked up front (values replaced after construction
    skip its check), so a non-adapted integrand fails loudly before any
    values are summed.
    """
    defect = f.max_adaptedness_defect()
    if defect > ADAPTEDNESS_REJECT_TOL:
        raise AdaptednessError(
            f"martingale property is only defined for adapted integrands; "
            f"worst projection defect {defect:.3e}"
        )
    if driver is None:
        driver = Driver.fermion_field()
    upto = _resolve_upto(f, upto)
    sp = f.space
    partial = _running_sums(sp, _driver_steps(f, driver, upto, side))
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
    gap = adaptedness_defect(h, level, 2)
    if gap > 1e-8:
        raise ContractViolationError(
            f"h is not level-{level} measurable (defect {gap:.3e}); the "
            f"commutation rule only applies to earlier elements"
        )
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
