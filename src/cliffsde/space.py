"""Finite-mode Clifford probability space over a time grid.

Generators e_0, ..., e_{n_gen-1} are self-adjoint unitaries satisfying
``e_i e_j + e_j e_i = 2 delta_ij``.  They are realized by the standard
pairing construction: generator ``2q`` acts as a bit flip on two-level
factor ``q`` and generator ``2q+1`` as the conjugate flip, both dressed
with sign operators on factors ``0..q-1``.  All generator matrices are
signed permutation matrices with entries in {0, +-1, +-i}, so the defining
relations hold to the last bit, and the vacuum state (which is tracial
here) is the normalized matrix trace.

Layouts
-------
``fermion``
    One generator per grid increment; increment k carries sqrt(delta_k) e_k,
    a fermion-field (Brownian) increment.  Filtration level of node k is k.
``pair``
    Two generators per increment; increment k carries the annihilator
    a_k = (e_{2k} + i e_{2k+1}) / 2 scaled by sqrt(delta_k).  Filtration
    level of node k is 2k.

The conditional expectation onto the first ``k`` generators is the
trace-orthogonal projection onto the monomials e_S with S inside
{0..k-1}; it is computed by a normalized partial trace over the unused
tensor factors, followed (for odd k) by averaging out the half of the
level algebra that contains generator k.

Kronecker products go through ``_kron``, the broadcast product that
``np.kron`` computes internally, so the results are bitwise those of
``np.kron`` without its generic-shape overhead.  Each space also keeps a
cache of driver increments, filled by :meth:`Driver.increment` and keyed
by ``(driver, k)``; the cached elements are read-only and the cache lives
as long as the space.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, reduce

import numpy as np

from .element import CliffordElement, lp_norm, state
from .errors import DriverMismatchError, ResourceLimitError
from .grid import TimeGrid

_X = np.array([[0, 1], [1, 0]], dtype=complex)
_Y = np.array([[0, -1j], [1j, 0]], dtype=complex)
_Z = np.array([[1, 0], [0, -1]], dtype=complex)

#: Default budget: 14 generators = 128x128 matrices, comfortably desk-scale.
DEFAULT_MAX_GENERATORS = 14

LAYOUTS = ("fermion", "pair")


@dataclass(frozen=True)
class FiltrationLevel:
    """Number of leading generators visible at a point of the filtration."""

    k: int

    def __post_init__(self):
        if self.k < 0:
            raise ValueError(f"filtration level must be >= 0, got {self.k}")


def _kron(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """np.kron of two matrices: the same broadcast product, bit for bit."""
    (m, n), (p, q) = a.shape, b.shape
    return np.multiply(a[:, None, :, None], b[None, :, None, :]).reshape(m * p, n * q)


@cache
def _eye(size: int) -> np.ndarray:
    eye = np.eye(size, dtype=complex)
    eye.setflags(write=False)
    return eye


def _kron_chain(mats):
    return reduce(_kron, mats)


class CliffordSpace:
    """A time grid plus its generator matrices and bookkeeping.

    Use :func:`make_space`; the constructor is not meant to be called
    directly.
    """

    def __init__(self, grid: TimeGrid, layout: str, max_generators: int):
        if layout not in LAYOUTS:
            raise ValueError(f"unknown layout {layout!r}, expected one of {LAYOUTS}")
        gens_per_increment = 1 if layout == "fermion" else 2
        n_gen = grid.n * gens_per_increment
        if n_gen > max_generators:
            raise ResourceLimitError(
                f"{n_gen} generators requested ({grid.n} increments, layout "
                f"{layout!r}) but the limit is {max_generators}; the matrix "
                f"dimension doubles with every generator pair — pass a larger "
                f"max_generators only if you can afford 2^{(n_gen + 1) // 2} "
                f"dimensions"
            )
        self.grid = grid
        self.layout = layout
        self.gens_per_increment = gens_per_increment
        self.n_gen = n_gen
        self.factors = (n_gen + 1) // 2
        self.dim = 2 ** self.factors

        gens = []
        eye2 = np.eye(2, dtype=complex)
        for i in range(n_gen):
            q = i // 2
            letter = _X if i % 2 == 0 else _Y
            mats = [_Z] * q + [letter] + [eye2] * (self.factors - q - 1)
            g = _kron_chain(mats)
            g.setflags(write=False)
            gens.append(g)
        self._generators = tuple(gens)
        self._increments = {}
        gamma = _kron_chain([_Z] * self.factors) if self.factors else np.eye(1, dtype=complex)
        gamma.setflags(write=False)
        self._gamma = gamma
        # With an odd generator count the matrix algebra is twice as large
        # as the span of the monomials; the "phantom" next Jordan-Wigner
        # generator lets conditional_expect average away the excess half.
        if n_gen % 2 == 1:
            q = n_gen // 2
            ph = _kron_chain([_Z] * q + [_Y] + [eye2] * (self.factors - q - 1))
            ph.setflags(write=False)
            self._phantom = ph
        else:
            self._phantom = None

    # -- basic elements -------------------------------------------------

    def element(self, mat) -> CliffordElement:
        return CliffordElement(self, mat)

    def identity(self) -> CliffordElement:
        return CliffordElement(self, np.eye(self.dim, dtype=complex))

    def zero(self) -> CliffordElement:
        return CliffordElement(self, np.zeros((self.dim, self.dim), dtype=complex))

    def scalar(self, c) -> CliffordElement:
        return CliffordElement(self, complex(c) * np.eye(self.dim, dtype=complex))

    def generator(self, i: int) -> CliffordElement:
        if not 0 <= i < self.n_gen:
            raise IndexError(f"generator index {i} outside 0..{self.n_gen - 1}")
        return CliffordElement(self, self._generators[i])

    def monomial(self, subset) -> CliffordElement:
        """Ordered product e_S for an iterable of distinct generator indices."""
        idx = sorted(set(int(i) for i in subset))
        mat = np.eye(self.dim, dtype=complex)
        for i in idx:
            if not 0 <= i < self.n_gen:
                raise IndexError(f"generator index {i} outside 0..{self.n_gen - 1}")
            mat = mat @ self._generators[i]
        return CliffordElement(self, mat)

    # -- filtration ------------------------------------------------------

    def level_of_node(self, k: int) -> int:
        """Generators visible at grid node k."""
        if not 0 <= k <= self.grid.n:
            raise IndexError(f"node index {k} outside 0..{self.grid.n}")
        return k * self.gens_per_increment

    # -- driver increments -------------------------------------------------

    def fermion_increment(self, k: int) -> CliffordElement:
        """sqrt(delta_k) e_k; squares to delta_k and anticommutes with
        every other increment."""
        if self.layout != "fermion":
            raise DriverMismatchError(
                "fermion-field increments need a space with layout='fermion'"
            )
        dk = self.grid.delta(k)
        return CliffordElement(self, np.sqrt(dk) * self._generators[k])

    def annihilation_increment(self, k: int) -> CliffordElement:
        """sqrt(delta_k) (e_{2k} + i e_{2k+1}) / 2; nilpotent of order two."""
        if self.layout != "pair":
            raise DriverMismatchError(
                "creation/annihilation increments need a space with layout='pair'"
            )
        dk = self.grid.delta(k)
        a = 0.5 * (self._generators[2 * k] + 1j * self._generators[2 * k + 1])
        return CliffordElement(self, np.sqrt(dk) * a)

    def creation_increment(self, k: int) -> CliffordElement:
        return self.annihilation_increment(k).adjoint()

    def __eq__(self, other):
        return (
            isinstance(other, CliffordSpace)
            and self.layout == other.layout
            and self.grid == other.grid
        )

    def __hash__(self):
        return hash((self.layout, self.grid))

    def __repr__(self):
        return (
            f"CliffordSpace(n_gen={self.n_gen}, dim={self.dim}, "
            f"layout={self.layout!r}, grid={self.grid!r})"
        )


def make_space(
    grid: TimeGrid,
    layout: str = "fermion",
    max_generators: int = DEFAULT_MAX_GENERATORS,
) -> CliffordSpace:
    """Build the Clifford probability space attached to a grid."""
    return CliffordSpace(grid, layout, max_generators)


# -- conditional expectation, parity, monomial transforms -------------------


def _level_int(level) -> int:
    return level.k if isinstance(level, FiltrationLevel) else int(level)


def conditional_expect(x: CliffordElement, level) -> CliffordElement:
    """Trace-orthogonal projection onto monomials in the first k generators.

    Idempotent, an L^p contraction, state-preserving, and a module map over
    the level algebra; E(x | full level) recovers any x in the algebra.
    """
    k = _level_int(level)
    sp = x.space
    if not 0 <= k <= sp.n_gen:
        raise ValueError(f"filtration level {k} outside 0..{sp.n_gen}")
    m = sp.factors
    r = (k + 1) // 2
    mat = x.mat
    if r < m:
        lo = 2 ** r
        hi = 2 ** (m - r)
        t = mat.reshape(lo, hi, lo, hi)
        pt = np.einsum("ajbj->ab", t) / hi
        mat = _kron(pt, _eye(hi))
    if k % 2 == 1:
        # the partial trace kept the whole algebra of the first r factors;
        # average out the half that contains generator k (0-based), i.e.
        # conjugate by e_k * gamma, which flips e_k and fixes e_0..e_{k-1}
        g = sp._generators[k] if k < sp.n_gen else sp._phantom
        gam = sp._gamma
        flipped = g @ (gam @ mat @ gam) @ g
        mat = 0.5 * (mat + flipped)
    # a projected matrix is freshly computed; the element may own it
    return CliffordElement(sp, mat, _fresh=mat is not x.mat)


def adaptedness_defect(x: CliffordElement, level, p: float) -> float:
    """||x - E(x | level)||_p: zero exactly when x is level-measurable."""
    return lp_norm(x - conditional_expect(x, level), p)


def parity_automorphism(x: CliffordElement) -> CliffordElement:
    """P(x) = Gamma x Gamma, the grading that sends every generator to
    its negative.  An isometric *-automorphism with P^2 = id."""
    gam = x.space._gamma
    return CliffordElement(x.space, gam @ x.mat @ gam)


def parity_decompose(x: CliffordElement):
    """Split x = x_even + x_odd along the grading.

    Returns ``(even, odd)`` with ``even = (x + P x) / 2``; both parts of a
    self-adjoint element are self-adjoint, and each projection is a
    contraction in every L^p.
    """
    px = parity_automorphism(x)
    even = 0.5 * (x + px)
    odd = 0.5 * (x - px)
    return even, odd


def monomial_expand(x: CliffordElement, tol: float = 0.0) -> dict:
    """Coefficients c_S = m(e_S* x) of x over the monomial basis.

    Keys are ascending tuples of 0-based generator indices; the empty tuple
    is the identity component.  Entries with |c_S| <= tol are dropped
    (exact zeros always are).  The monomials are orthonormal for
    <a, b> = m(a* b), so ``reconstruct`` inverts this exactly up to
    roundoff.
    """
    sp = x.space
    dim = sp.dim
    out = {}
    xmat = x.mat

    # depth-first subset enumeration; P carries e_S* for the current subset
    def visit(start, P, subset):
        c = np.einsum("ij,ji->", P, xmat) / dim
        if abs(c) > tol:
            out[subset] = complex(c)
        for j in range(start, sp.n_gen):
            # e_{S u {j}}* = e_j* e_S* = e_j e_S*
            visit(j + 1, sp._generators[j] @ P, subset + (j,))

    visit(0, np.eye(dim, dtype=complex), ())
    return out


def reconstruct(space: CliffordSpace, coeffs: dict) -> CliffordElement:
    """Sum c_S e_S for a coefficient map as produced by monomial_expand."""
    mat = np.zeros((space.dim, space.dim), dtype=complex)
    for subset, c in coeffs.items():
        mat = mat + complex(c) * space.monomial(subset).mat
    return CliffordElement(space, mat)


def random_level_element(
    space: CliffordSpace,
    rng: np.random.Generator,
    level=None,
) -> CliffordElement:
    """Random element of the level-k subalgebra.

    The monomials below the level form a trace-orthonormal basis, so a
    complex Ginibre draw on the spanned factors (projected, for odd levels)
    has i.i.d. standard complex normal monomial coefficients; the result is
    normalized to unit L^2 norm.
    """
    k = space.n_gen if level is None else _level_int(level)
    if not 0 <= k <= space.n_gen:
        raise ValueError(f"filtration level {k} outside 0..{space.n_gen}")
    r = (k + 1) // 2
    lo = 2 ** r
    a = rng.standard_normal((lo, lo)) + 1j * rng.standard_normal((lo, lo))
    if lo < space.dim:
        mat = _kron(a, _eye(space.dim // lo))
    else:
        mat = a
    x = CliffordElement(space, mat, _fresh=True)
    if k % 2 == 1:
        x = conditional_expect(x, k)
    nrm = lp_norm(x, 2)
    if nrm < 1e-12:  # pragma: no cover - measure-zero draw
        return random_level_element(space, rng, level)
    return x / nrm


__all__ = [
    "DEFAULT_MAX_GENERATORS",
    "CliffordSpace",
    "FiltrationLevel",
    "adaptedness_defect",
    "conditional_expect",
    "make_space",
    "monomial_expand",
    "parity_automorphism",
    "parity_decompose",
    "random_level_element",
    "reconstruct",
    "state",
]
