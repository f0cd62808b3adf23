"""Partition of a time interval into finitely many increments.

Every object in this package lives over such a grid: one algebra generator
(or generator pair) is attached to each increment, integrals are finite sums
over increments, and trajectories are indexed by grid nodes.
"""

from __future__ import annotations

import math
from functools import cached_property

import numpy as np


def as_int(value, what: str) -> int:
    """``value`` as an int; a non-integral one, text or a bool raises
    naming ``what``."""
    if isinstance(value, (str, bytes, bool, np.bool_)) or not (
            isinstance(value, (int, np.integer)) or float(value).is_integer()):
        raise ValueError(f"{what} {value!r} is not an integer")
    return int(value)


def is_count(value, least: int = 0) -> bool:
    """Whether ``value`` is an integer (Python or numpy) of at least
    ``least``; a bool is an int that passes as 0 or 1, so it is not one."""
    return (isinstance(value, (int, np.integer)) and value >= least
            and value is not True and value is not False)


class TimeGrid:
    """Strictly increasing nodes t0 = tau_0 < tau_1 < ... < tau_n = T."""

    def __init__(self, nodes):
        nodes = np.asarray(nodes, dtype=float)
        if nodes.ndim != 1 or nodes.size < 2:
            raise ValueError("a grid needs at least two nodes (n >= 1)")
        # finite positive increments (a non-finite node makes one inf or
        # NaN) tile [t0, T] up to a few ulps each, so no sum is checked
        d = np.diff(nodes)
        if not np.all((0 < d) & (d < np.inf)):
            raise ValueError("grid nodes must be finite and strictly increasing")
        nodes = nodes.copy()
        nodes.setflags(write=False)
        self.nodes = nodes

    @classmethod
    def uniform(cls, t0: float, T: float, n: int) -> "TimeGrid":
        n = as_int(n, "n")
        if n < 1:
            raise ValueError(f"need at least one increment, got n={n}")
        if not T > t0:
            raise ValueError(f"degenerate interval: T={T} must exceed t0={t0}")
        if not math.isfinite(float(T) - float(t0)):  # linspace would warn
            raise ValueError("grid nodes must be finite and strictly increasing")
        return cls(np.linspace(t0, T, n + 1))

    @property
    def t0(self) -> float:
        return float(self.nodes[0])

    @property
    def T(self) -> float:
        return float(self.nodes[-1])

    @property
    def n(self) -> int:
        """Number of increments."""
        return len(self.nodes) - 1

    @cached_property
    def deltas(self) -> np.ndarray:
        d = np.diff(self.nodes)
        d.setflags(write=False)
        return d

    def node(self, k: int) -> float:
        k = as_int(k, "node index")
        if not 0 <= k <= self.n:
            raise IndexError(f"node index {k} outside 0..{self.n}")
        return float(self.nodes[k])

    def delta(self, k: int) -> float:
        k = as_int(k, "increment index")
        if not 0 <= k < self.n:
            raise IndexError(f"increment index {k} outside 0..{self.n - 1}")
        return float(self.deltas[k])

    def __eq__(self, other):
        return isinstance(other, TimeGrid) and np.array_equal(self.nodes, other.nodes)

    def __hash__(self):
        return hash(self.nodes.tobytes())

    def __repr__(self):
        return f"TimeGrid(t0={self.t0}, T={self.T}, n={self.n})"
