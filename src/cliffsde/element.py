"""Elements of a finite-dimensional Clifford algebra and their L^p norms.

An element is a dense complex matrix in the generator representation,
together with a reference to the space it belongs to.  The tracial state
is the normalized matrix trace, and ``||x||_p = m(|x|^p)^(1/p)`` is
computed from the Gram matrix ``x* x``: as a trace of its matrix powers
when ``p/2`` is a positive integer, from its eigenvalues otherwise.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import ConfigurationError


class CliffordElement:
    """Immutable matrix wrapper tied to a :class:`CliffordSpace`.

    Supports ``+``, ``-``, scalar ``*`` / ``/`` and the operator product
    ``@``.  Mixing elements of different spaces raises.

    The caller's matrix is copied.  ``_fresh=True`` marks a complex array
    the element may own as it is (an operator's result): it is frozen in
    place, not copied.
    """

    __slots__ = ("space", "mat")

    def __init__(self, space, mat, *, _fresh: bool = False):
        if not _fresh:
            mat = np.array(mat, dtype=complex, order="C")
        if mat.shape != (space.dim, space.dim):
            raise ValueError(
                f"matrix shape {mat.shape} does not match space dimension {space.dim}"
            )
        mat.setflags(write=False)
        self.space = space
        self.mat = mat

    def _check_space(self, other: "CliffordElement"):
        if self.space is not other.space and self.space != other.space:
            raise ConfigurationError("elements belong to different spaces")

    def __add__(self, other):
        if not isinstance(other, CliffordElement):
            return NotImplemented
        self._check_space(other)
        return CliffordElement(self.space, self.mat + other.mat, _fresh=True)

    def __sub__(self, other):
        if not isinstance(other, CliffordElement):
            return NotImplemented
        self._check_space(other)
        return CliffordElement(self.space, self.mat - other.mat, _fresh=True)

    def __neg__(self):
        return CliffordElement(self.space, -self.mat, _fresh=True)

    def __mul__(self, scalar):
        if isinstance(scalar, CliffordElement):
            raise TypeError("use @ for the operator product, * is scalar-only")
        return CliffordElement(self.space, self.mat * complex(scalar), _fresh=True)

    __rmul__ = __mul__

    def __truediv__(self, scalar):
        return CliffordElement(self.space, self.mat / complex(scalar), _fresh=True)

    def __matmul__(self, other):
        if not isinstance(other, CliffordElement):
            return NotImplemented
        self._check_space(other)
        return CliffordElement(self.space, self.mat @ other.mat, _fresh=True)

    def adjoint(self) -> "CliffordElement":
        adj = np.conjugate(self.mat.T, out=np.empty_like(self.mat))
        return CliffordElement(self.space, adj, _fresh=True)

    def norm(self, p: float) -> float:
        return lp_norm(self, p)

    def selfadjoint_defect(self, p: float = 2.0) -> float:
        return lp_norm(self - self.adjoint(), p)

    def is_close(self, other: "CliffordElement", tol: float = 1e-12) -> bool:
        self._check_space(other)
        return bool(np.max(np.abs(self.mat - other.mat)) <= tol)

    def __repr__(self):
        return f"CliffordElement(dim={self.space.dim})"


def state(x: CliffordElement) -> complex:
    """Tracial vacuum state: the normalized matrix trace."""
    return complex(np.trace(x.mat)) / x.space.dim


def lp_norm(x: CliffordElement, p: float) -> float:
    """||x||_p = m(|x|^p)^(1/p) with |x|^2 = x* x.

    p = 2 is the mean squared entry magnitude; other exponents go through
    :func:`psd_power_lp_norm` of the Gram matrix, except that an all-zero
    matrix returns 0.0 (the same value) without forming it.
    """
    _check_exponent(p)
    if p == 2:
        return _l2_norm(x.mat)
    if not x.mat.any():
        return 0.0
    return psd_power_lp_norm(x.mat.conj().T @ x.mat, 2.0, p)


@np.errstate(over="ignore", invalid="ignore")  # NaN and inf rows: silent
def lp_norms(mats: np.ndarray, p: float, grams=None) -> list:
    """:func:`lp_norm` of every matrix of a ``(nodes, dim, dim)`` stack.

    Bit for bit lp_norm's finite values: p = 2 takes one stacked
    :func:`_row_dots`; other exponents take :func:`psd_power_lp_norms` of
    the stack's :func:`_grams` (passed in, or formed here).  A row with a
    non-finite entry reads NaN or inf without failing the others; one with
    finite entries whose Gram product overflows is taken again on the
    matrix over its largest entry part, the norm multiplied back, where
    lp_norm keeps the inf or NaN that the solve's overflow checks read.
    """
    _check_exponent(p)
    norms = _plain_norms(mats, p, grams)
    for i in [i for i, nrm in enumerate(norms) if not math.isfinite(nrm)]:
        parts = np.ascontiguousarray(mats[i]).view(float)
        if np.isfinite(parts).all():
            s = float(np.abs(parts).max())
            norms[i] = _plain_norms((parts / s).view(complex)[None], p)[0] * s
    return norms


def _plain_norms(mats: np.ndarray, p: float, grams=None) -> list:
    if p == 2:
        return np.sqrt(np.divide(_row_dots(mats, mats), mats.shape[-1])).tolist()
    return psd_power_lp_norms(_grams(mats) if grams is None else grams, 2.0, p)


def _grams(mats: np.ndarray) -> np.ndarray:
    """x* x for every matrix of a stack: one stacked product, bit for bit
    the per-matrix products."""
    return mats.conj().swapaxes(-1, -2) @ mats


def _check_exponent(p: float, name: str = "p", least: float = 1) -> None:
    if not least <= p < math.inf:
        raise ValueError(f"{name} must be finite and >= {least}, got {name}={p!r}")


def _l2_norm(mat: np.ndarray) -> float:
    # m(x* x) is just the mean squared entry magnitude
    return float(np.sqrt(np.vdot(mat, mat).real / mat.shape[0]))


def _row_dots(a: np.ndarray, b: np.ndarray, own_a: bool = False):
    """``vdot(a[t], b[t]).real`` for the matrices of two stacks, bit for
    bit: a (1, N) by (N, 1) product per row of a's conjugate (formed in
    ``a`` if the caller gives it up) and b takes vdot's BLAS dot; one
    matrix takes vdot, in a list (no conjugate copy, no array)."""
    if len(a) == 1:
        return [np.vdot(a[0], b[0]).real]
    t, size = len(a), a.shape[-2] * a.shape[-1]
    conj = np.conjugate(a, out=a if own_a else None)
    return (conj.reshape(t, 1, size) @ b.reshape(t, size, 1)).real.reshape(t)


def _lp_over_l2_bound(dim: int, p: float) -> float:
    """dim^(1/2 - 1/p) (1 + 1e-9) >= ||d||_p / ||d||_2 for p >= 2; else inf."""
    return dim ** (0.5 - 1.0 / p) * (1 + 1e-9) if p >= 2 else math.inf


def _psd_spectra(psd_mats: np.ndarray) -> np.ndarray:
    """Eigenvalues of each PSD matrix of a stack, clipped at zero.

    ``eigvalsh`` raises for a whole stack when one matrix holds NaN or
    inf, so such a matrix gets a row of NaN instead.
    """
    finite = np.isfinite(psd_mats).all(axis=(1, 2))
    if finite.all():
        lam = np.linalg.eigvalsh(psd_mats)
    else:
        lam = np.full(psd_mats.shape[:2], np.nan)
        if finite.any():
            lam[finite] = np.linalg.eigvalsh(psd_mats[finite])
    return np.clip(lam, 0.0, None)


def psd_power_lp_norm(psd_mat: np.ndarray, root: float, p: float) -> float:
    """L^p norm of S^(1/root) for a PSD matrix S: m(S^k)^(1/p), k = p/root.

    For a positive integer k, m(S^k) is a trace of matrix powers: the trace
    for k = 1, else vdot(S^j, S^(k-j)) with j = k // 2 (for even k a sum of
    squared moduli).  Other k use the spectrum, clipped at zero; a
    non-finite S then gives NaN, as the trace paths give NaN or inf.
    """
    if not math.isfinite(p):
        raise ValueError(f"p must be finite, got p={p!r}")
    return psd_power_lp_norms(psd_mat[None], root, p)[0]


@np.errstate(over="ignore", invalid="ignore")  # NaN and inf: silent
def psd_power_lp_norms(psd_mats: np.ndarray, root: float, p: float) -> list:
    """:func:`psd_power_lp_norm` of every matrix of a ``(T, dim, dim)``
    stack, bit for bit: one stacked trace, :func:`_row_dots` or spectrum
    sum, then a scalar power per matrix (numpy's array power rounds apart
    from libm's)."""
    k = p / root
    if k != int(k) or k < 1:
        sums = np.add.reduce(_psd_spectra(psd_mats) ** k, axis=-1)
    elif k == 1:
        sums = np.trace(psd_mats, axis1=-2, axis2=-1).real
    else:
        half = np.linalg.matrix_power(psd_mats, int(k) // 2)
        sums = _row_dots(half, half) if k % 2 == 0 else \
            _row_dots(half @ psd_mats, half, own_a=True)  # Re: symmetric
    dim = psd_mats.shape[-1]
    return [float((s / dim) ** (1.0 / p)) for s in sums]


def op_norm(x: CliffordElement) -> float:
    """Operator (spectral) norm."""
    return float(np.linalg.norm(x.mat, 2))
