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

    def op_norm(self) -> float:
        return op_norm(self)

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
    :func:`psd_power_lp_norm` of the Gram matrix.
    """
    if not 1 <= p < math.inf:
        raise ValueError(f"p must be finite and >= 1, got p={p!r}")
    if p == 2:
        # m(x* x) is just the mean squared entry magnitude
        return float(np.sqrt(np.vdot(x.mat, x.mat).real / x.space.dim))
    return psd_power_lp_norm(x.mat.conj().T @ x.mat, 2.0, p)


def psd_power_lp_norm(psd_mat: np.ndarray, root: float, p: float) -> float:
    """L^p norm of S^(1/root) for a PSD matrix S: m(S^k)^(1/p), k = p/root.

    For a positive integer k, m(S^k) is a trace of matrix powers: the trace
    for k = 1, else vdot(S^j, S^(k-j)) with j = k // 2 (for even k a sum of
    squared moduli).  Other k use the spectrum, clipped at zero.
    """
    if not math.isfinite(p):
        raise ValueError(f"p must be finite, got p={p!r}")
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


def op_norm(x: CliffordElement) -> float:
    """Operator (spectral) norm."""
    return float(np.linalg.norm(x.mat, 2))


def dumps_element(x: CliffordElement) -> str:
    """Debug dump: row-major text, one matrix row per line.

    Format: first line ``dim <d>``; then d lines, each d whitespace-separated
    ``re,im`` pairs (shortest round-trip reprs).
    """
    lines = [f"dim {x.space.dim}"]
    for row in x.mat:
        lines.append(" ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row))
    return "\n".join(lines) + "\n"


def loads_matrix(text: str) -> np.ndarray:
    """Inverse of :func:`dumps_element`, returning the raw matrix."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    head = lines[0].split()
    if len(head) != 2 or head[0] != "dim":
        raise ValueError("dump must start with 'dim <d>'")
    d = int(head[1])
    if len(lines) != d + 1:
        raise ValueError(f"expected {d} matrix rows, got {len(lines) - 1}")
    out = np.empty((d, d), dtype=complex)
    for i, ln in enumerate(lines[1:]):
        pairs = ln.split()
        if len(pairs) != d:
            raise ValueError(f"row {i} has {len(pairs)} entries, expected {d}")
        for j, pair in enumerate(pairs):
            re, im = pair.split(",")
            out[i, j] = complex(float(re), float(im))
    return out
