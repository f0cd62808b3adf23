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

The package forms no Kronecker product: :func:`_at_size` is the one
writer of a factor ``a (x) I``, with ``a`` on its pattern and +0 off it.
Each space caches each driver increment's gather once it is asked for
(arrays only, so no reference cycle; see :meth:`Driver.gather`).  Levels
are plain integers; :func:`require_adapted` is the one adaptedness
rejection.

A space holds the generators, Gamma and the phantom only as gathers
(:class:`MonomialGather`; ``dense()`` is the one way back to a matrix),
each formed on first read (:meth:`CliffordSpace._gen`), so a build forms
none, in O(dim) from its 2x2 Pauli factors with the weights of their
Kronecker product.  Products by them and the driver
increments are gathers: one product per entry, so bitwise the dense
product on finite input up to the sign of zeros, but for the complex
weights of a linear-combination driver (about 1e-16 apart).  Dense
products stay only as checks (Euler oracle, parity commutation, the
suites' algebra identities).
"""

from __future__ import annotations

import math
from itertools import accumulate

import numpy as np

from .element import (CliffordElement, _l2_norm, _lp_over_l2_bound, lp_norm,
                      lp_norms, state)
from .errors import AdaptednessError, ResourceLimitError
from .grid import TimeGrid, as_int

# the 2x2 Pauli factors X, Y, Z and I as ``(cols, wc)``: column j's entry
# wc[j] sits in row cols[j]
_X, _Y, _Z, _I = ((np.array(c, np.intp), np.array(w, complex)) for c, w in (
    ([1, 0], [1, 1]), ([1, 0], [1j, -1j]), ([0, 1], [1, -1]), ([0, 1], [1, 1])))

#: Default budget: 14 generators = 128x128 matrices, comfortably desk-scale.
DEFAULT_MAX_GENERATORS = 14

LAYOUTS = ("fermion", "pair")


class MonomialGather:
    """A monomial matrix m (one entry, possibly zero, in each row and
    column) as vectors: column j's entry ``wc[j]`` sits in row ``cols[j]``,
    a permutation, and row i's ``wr[i]`` in column ``rows[i]``.  The
    products take a matrix or a stack and scale the gathered copy in
    place: a second temporary costs more."""

    __slots__ = ("cols", "wc", "rows", "wr")

    def __init__(self, cols: np.ndarray, wc: np.ndarray):
        self.cols, self.wc = cols, wc
        self.rows = np.argsort(cols)  # the inverse permutation
        self.wr = wc[self.rows]

    @classmethod
    def kron(cls, factors) -> "MonomialGather":
        """The gather of the Kronecker product of 2x2 ``(cols, wc)``
        factors, each weight the left-to-right product of the factor
        entries; no matrix is formed."""
        (cols, wc), *rest = factors
        for c, w in rest:
            cols = (2 * cols[:, None] + c).ravel()
            wc = (wc[:, None] * w).ravel()
        return cls(cols.copy(), wc.copy())  # no gather shares a factor's arrays

    def adjoint(self) -> "MonomialGather":
        """The gather of m*: column j of m* holds conj(wr[j]) in row rows[j]"""
        return MonomialGather(self.rows, self.wr.conj())

    def right(self, x: np.ndarray) -> np.ndarray:
        """x @ m as x[..., cols] * wc, a new array"""
        out = x.take(self.cols, axis=-1)
        out *= self.wc
        return out

    def left(self, x: np.ndarray) -> np.ndarray:
        """m @ x as wr[:, None] * x[..., rows, :], a new array"""
        out = x.take(self.rows, axis=-2)
        out *= self.wr[:, None]
        return out

    def dense(self) -> np.ndarray:
        """m as a new matrix, with +0 off its pattern"""
        m = np.zeros((self.wc.size,) * 2, dtype=self.wc.dtype)
        m[self.cols, np.arange(self.wc.size)] = self.wc
        return m


class CliffordSpace:
    """A time grid plus its generators' gathers and bookkeeping.

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

        self._gathers = {}
        self._gens = {}
        self._levels = {}

    def _gen(self, i) -> MonomialGather:
        """The gather of Jordan-Wigner generator i, or of Gamma at i = None
        (its row weights are its signs), formed from its Pauli factors on
        first read and cached.  With an odd generator count the matrix
        algebra is twice the span of the monomials, and the "phantom" next
        generator (i = n_gen) lets conditional_expect average it away."""
        g = self._gens.get(i)
        if g is None:
            m = self.factors
            g = self._gens.setdefault(i, MonomialGather.kron(
                [_Z] * m if i is None else
                [_Z] * (i // 2) + [_Y if i % 2 else _X] + [_I] * (m - i // 2 - 1)))
        return g

    # -- basic elements -------------------------------------------------

    def element(self, mat) -> CliffordElement:
        return CliffordElement(self, mat)

    def identity(self) -> CliffordElement:
        return CliffordElement(self, np.eye(self.dim, dtype=complex), _fresh=True)

    def zero(self) -> CliffordElement:
        return CliffordElement(self, np.zeros((self.dim,) * 2, complex), _fresh=True)

    def generator(self, i: int) -> CliffordElement:
        if not 0 <= i < self.n_gen:
            raise IndexError(f"generator index {i} outside 0..{self.n_gen - 1}")
        return CliffordElement(self, self._gen(i).dense(), _fresh=True)

    def monomial(self, subset) -> CliffordElement:
        """Ordered product e_S for an iterable of distinct generator indices."""
        idx = sorted(set(int(i) for i in subset))
        mat = np.eye(self.dim, dtype=complex)
        for i in idx:
            if not 0 <= i < self.n_gen:
                raise IndexError(f"generator index {i} outside 0..{self.n_gen - 1}")
            mat = self._gen(i).right(mat)
        return CliffordElement(self, mat)

    # -- filtration ------------------------------------------------------

    def level_of_node(self, k: int) -> int:
        """Generators visible at grid node k."""
        k = as_int(k, "node index")
        if not 0 <= k <= self.grid.n:
            raise IndexError(f"node index {k} outside 0..{self.grid.n}")
        return k * self.gens_per_increment

    def level_space(self, k: int) -> "CliffordSpace":
        """Node k's level-factor space (see :func:`restrict`): the first
        2 ceil(level / 2) >= 2 generators on the grid's prefix, or this
        space when that is all of it; cached."""
        return self._factor_space(max(1, (self.level_of_node(k) + 1) // 2))

    def _factor_space(self, f: int) -> "CliffordSpace":
        """The space of the first 2f generators (1 <= f <= factors)."""
        if f == self.factors:
            return self
        if f not in self._levels:
            nodes = self.grid.nodes[:2 * f // self.gens_per_increment + 1]
            self._levels.setdefault(f, CliffordSpace(TimeGrid(nodes), self.layout, 2 * f))
        return self._levels[f]

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


def restrict(x: CliffordElement, sub: CliffordSpace) -> CliffordElement:
    """The factor A of x = A (x) I on ``sub``, a level space of x's space
    (a level-measurable x is exactly that); a part off the pattern is lost."""
    hi = x.space.dim // sub.dim
    return x if sub is x.space else CliffordElement(sub, x.mat[::hi, ::hi])


def expand(a: CliffordElement, space: CliffordSpace) -> CliffordElement:
    """a (x) I on ``space``, for a factor on one of its level spaces, with
    +0 off the pattern (:func:`_at_size` writes it)."""
    if a.space is space:
        return a
    return CliffordElement(space, _at_size(a.mat, space.dim), _fresh=True)


# -- conditional expectation, parity, monomial transforms -------------------


def _level_index(sp: CliffordSpace, level) -> int:
    """``level`` as an int in 0..n_gen; a non-integral level raises."""
    k = as_int(level, "filtration level")
    if not 0 <= k <= sp.n_gen:
        raise ValueError(f"filtration level {k} outside 0..{sp.n_gen}")
    return k


def conditional_expect(x: CliffordElement, level) -> CliffordElement:
    """Trace-orthogonal projection onto monomials in the first k generators.

    Idempotent, an L^p contraction, state-preserving, and a module map over
    the level algebra; E(x | full level) recovers any x in the algebra.
    """
    sp = x.space
    mat = _project(sp, x.mat, _level_index(sp, level))
    # a projected matrix is freshly computed; the element may own it
    return CliffordElement(sp, mat, _fresh=mat is not x.mat)


def _project(sp: CliffordSpace, mat: np.ndarray, k: int) -> np.ndarray:
    """The matrix of E(x | level k) for x's matrix ``mat``, or for each
    matrix of a stack: pt (x) I of the partial trace pt over the unused
    factors, then at an odd k the flip; ``mat`` itself when the projection
    has nothing to do."""
    m = sp.factors
    r = (k + 1) // 2
    if r < m:
        lo, hi = 2 ** r, 2 ** (m - r)
        t = mat.reshape(*mat.shape[:-2], lo, hi, lo, hi)
        mat = _at_size(np.einsum("...ajbj->...ab", t) / hi, sp.dim)
    if k % 2 == 1:
        # the partial trace kept the whole algebra of the first r factors;
        # average out the half that contains generator k (0-based), i.e.
        # conjugate by e_k * gamma, which flips e_k and fixes e_0..e_{k-1};
        # entry (i, j) of g (gamma mat gamma) g is one entry of mat times
        # unit row and column weights
        g, d = sp._gen(k), sp._gen(None).wr
        flipped = mat.take(g.rows, axis=-2).take(g.cols, axis=-1)
        flipped *= (g.wr * d[g.rows])[:, None]
        flipped *= d[g.cols] * g.wc
        flipped += mat
        mat = np.multiply(flipped, 0.5, out=flipped)
    return mat


def adaptedness_defect(x: CliffordElement, level, p: float) -> float:
    """||x - E(x | level)||_p: zero exactly when x is level-measurable."""
    return lp_norm(x - conditional_expect(x, level), p)


def require_adapted(x: CliffordElement, level, p: float, tol: float,
                    what: str) -> None:
    """Raise :class:`AdaptednessError` ``"<what> (defect d)"`` unless the
    L^p adaptedness defect d of x at ``level`` is at most ``tol``; a NaN
    defect (a non-finite x) fails.  E(x | level) is E(pt | level) (x) I
    for x's partial trace pt over the factors past the level's (pt itself
    at an even level), so d is taken only where one copy of x and the flip
    of pt bound it, by dim^(1/2 - 1/p) (||x - pt (x) I||_2
    + ||pt - E(pt | level)||_2) (1 + dim^2 eps), above tol."""
    sp, k = x.space, _level_index(x.space, level)
    r = (k + 1) // 2
    dim, hi = sp.dim, 2 ** max(sp.factors - r, 0)
    pt, l2 = x.mat, 0.0  # no factor is traced out
    if hi > 1:
        diff = x.mat.reshape(dim // hi, hi, -1, hi).copy()
        pt = np.einsum("ajbj->ab", diff) / hi
        blocks = np.einsum("ajbj->ajb", diff)  # a writeable view
        blocks -= pt[:, None]
        l2 = _l2_norm(diff.reshape(dim, dim))
        del diff, blocks
    if k % 2 == 1:  # the flip, on the factor space of pt's size
        flip = _project(sp._factor_space(r), pt, k)
        l2 += _l2_norm(np.subtract(pt, flip, out=flip))
        del flip
    bound = l2 * _lp_over_l2_bound(dim, p)
    if bound * (1 + dim * dim * np.finfo(float).eps) <= tol:
        return
    d = adaptedness_defect(x, level, p)
    if not d <= tol:
        raise AdaptednessError(f"{what} (defect {d:.3e})")


def parity_automorphism(x: CliffordElement) -> CliffordElement:
    """P(x) = Gamma x Gamma, the grading that sends every generator to
    its negative.  An isometric *-automorphism with P^2 = id."""
    d = x.space._gen(None).wr
    return CliffordElement(x.space, d[:, None] * x.mat * d, _fresh=True)


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
            visit(j + 1, sp._gen(j).left(P), subset + (j,))

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
    k = space.n_gen if level is None else _level_index(space, level)
    return CliffordElement(space, _at_size(_draw_levels(space, [rng], [k])[0],
                                           space.dim)[0], _fresh=True)


def _at_size(a: np.ndarray, dim: int) -> np.ndarray:
    """A factor ``a``, or a stack of them, as the ``a (x) I`` of size
    ``dim``: ``a`` itself when it has that size, else a new zeroed array
    with a copy of ``a`` on each of its strided diagonal blocks."""
    if a.shape[-1] == dim:
        return a
    out = np.zeros((*a.shape[:-2], dim, dim), complex)
    hi = dim // a.shape[-1]
    for j in range(hi):
        out[..., j::hi, j::hi] = a
    return out


def _draw_levels(space: CliffordSpace, rngs, levels) -> list:
    """The level factors a of :func:`random_level_element`'s values a (x) I at
    each checked level k of ``levels`` in turn, one new ``(len(rngs), 2^r, 2^r)``
    stack per level, r = ceil(k/2).  Each generator draws its whole stream in one
    call, two (2^r, 2^r) blocks of normals per level in order; a degenerate draw
    is redrawn from the next block of its own stream, and the later levels read
    on after it.  The draw, odd-level flip and norm run on the factors, one level
    at a time for all generators; the float normals are freed before the last
    level's flip and norm."""
    sizes = [2 * 4 ** ((k + 1) // 2) for k in levels]  # normals per level
    ends = list(accumulate(sizes))
    row = np.empty((len(rngs), ends[-1]))
    for i, rng in enumerate(rngs):
        rng.standard_normal(out=row[i])
    out = []
    for k, size, end in zip(levels, sizes, ends):
        a = _complex_draw(row[:, end - size:end])
        if end == ends[-1]:
            row = None  # not held through the flip and the norm
        a, degenerate = _unit_levels(space, a, k)
        for i in degenerate:  # a measure-zero draw
            # the rest of its stream moves up one block, topped up from its
            # generator (a new block when the normals are freed)
            tail = np.empty(size) if row is None else row[i, end - size:]
            while True:
                tail[:-size] = tail[size:]
                rngs[i].standard_normal(out=tail[-size:])
                b, bad = _unit_levels(space, _complex_draw(tail[None, :size]), k)
                if not bad.size:
                    break
            a[i] = b[0]
        out.append(a)
    return out


def _complex_draw(normals: np.ndarray) -> np.ndarray:
    """A new ``(T, d, d)`` complex stack of the ``(T, 2 d^2)`` normals: per
    row, the real parts of its draw, then the imaginary parts."""
    d = math.isqrt(normals.shape[-1] // 2)
    parts = normals.reshape(-1, 2, d, d)
    a = parts[:, 0].astype(complex)
    a.imag = parts[:, 1]
    return a


def _unit_levels(space: CliffordSpace, a: np.ndarray, k: int) -> tuple:
    """``(a, degenerate)``: the drawn stack ``a`` flipped into the level-k
    algebra at an odd k and scaled to unit L^2 norm in place, but for the
    rows ``degenerate`` (indices), whose norm is below 1e-12."""
    if k % 2 == 1:
        a = _project(space._factor_space((k + 1) // 2), a, k)
    nrms = np.array(lp_norms(a, 2.0))
    degenerate = np.flatnonzero(nrms < 1e-12)
    nrms[degenerate] = 1.0
    a /= nrms.astype(complex)[:, None, None]
    return a, degenerate


__all__ = [
    "DEFAULT_MAX_GENERATORS",
    "CliffordSpace",
    "MonomialGather",
    "adaptedness_defect",
    "conditional_expect",
    "make_space",
    "monomial_expand",
    "parity_automorphism",
    "parity_decompose",
    "random_level_element",
    "reconstruct",
    "require_adapted",
    "state",
]
