"""Adapted simple processes and the stochastic drivers they integrate against.

A process holds one algebra element per grid node, starting at
``start_node``; the value at node k must lie in the level-k subalgebra
(level 2k for pair layouts), which it stores as what that value is, a
level factor: ``factors[i]`` is the read-only element a on
``space.level_space(start_node + i)`` of the value ``a (x) I``.  The
integral and norm kernels work on the factors; ``value(k)`` expands node
k's to a read-only full-size element, and ``values`` expands them all on
first read and keeps them.

A process is immutable.  Adaptedness is enforced eagerly on every value a
caller supplies — a projection defect above the rejection threshold, or a
NaN one from a non-finite value, raises instead of being silently
projected away, and so does any non-zero entry off the pattern ``a (x) I``
of the node's level factor — and, because nothing can replace the values
afterwards, never re-checked.  :meth:`AdaptedProcess.random` draws each
value inside its level algebra, so it skips the check; ``from_factors``
checks level factors at their own size.

A driver's increment k is a :class:`~.space.MonomialGather` that its kind
in :data:`DRIVER_KINDS` builds from the space's generator gathers, cached
on the space once asked for; the integral kernels multiply by it.
:meth:`Driver.increment` hands out its dense matrix, for checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# unused lp_norm: perfbench/test_bench.py pins this module as an import site
from .element import CliffordElement, lp_norm  # noqa: F401
from .errors import AdaptednessError, ConfigurationError, DriverMismatchError
from .space import (CliffordSpace, MonomialGather, _at_size, _draw_levels,
                    adaptedness_defect, as_int, expand, restrict)

#: Construction rejects values whose projection defect exceeds this or is NaN.
ADAPTEDNESS_REJECT_TOL = 1e-8


def _fermion(driver, space, k) -> MonomialGather:
    """sqrt(delta_k) e_k; squares to delta_k and anticommutes with every
    other increment."""
    s = complex(np.sqrt(space.grid.delta(k)))  # grid.delta checks k
    e = space._gen_gathers[k]
    return MonomialGather(e.cols, e.wc * s)


def _annihilation(driver, space, k) -> MonomialGather:
    """sqrt(delta_k) (e_{2k} + i e_{2k+1}) / 2, nilpotent of order two: both
    generators flip one factor, so share ``cols``; half the weights cancel."""
    s = complex(np.sqrt(space.grid.delta(k)))  # grid.delta checks k
    e, f = space._gen_gathers[2 * k:2 * k + 2]
    return MonomialGather(e.cols, (e.wc + f.wc * complex(1j)) * complex(0.5) * s)


def _combined(driver, space, k) -> MonomialGather:
    """alpha1 dA + alpha2 dA*: dA and dA* share ``cols``, a flip."""
    da = _annihilation(driver, space, k)
    return MonomialGather(da.cols, da.wc * complex(driver.alpha1)
                          + da.adjoint().wc * complex(driver.alpha2))


#: The driver registry, the one place an increment's formula appears: kind ->
#: (layout, label in the suites' cell names, gather(driver, space, k)).
DRIVER_KINDS = {
    "fermion_field": ("fermion", "fermion", _fermion),
    "annihilation": ("pair", "annihilation", _annihilation),
    "creation": ("pair", "creation", lambda *args: _annihilation(*args).adjoint()),
    "linear_combination": ("pair", "linear", _combined),
}


@dataclass(frozen=True)
class Driver:
    """Which martingale increments an integral runs against.

    ``fermion_field`` uses the self-adjoint field increments dW (fermion
    layout); the other three use the creation/annihilation pair layout,
    with ``linear_combination`` meaning d(xi) = alpha1 dA + alpha2 dA*.
    """

    kind: str
    alpha1: complex = 1.0
    alpha2: complex = 0.0

    def __post_init__(self):
        if self.kind not in DRIVER_KINDS:
            raise ConfigurationError(
                f"unknown driver kind {self.kind!r}, expected one of "
                f"{tuple(DRIVER_KINDS)}"
            )
        for name in ("alpha1", "alpha2"):
            if not np.isfinite(complex(getattr(self, name))):
                raise ConfigurationError(f"driver {name} must be finite", key=name)

    @classmethod
    def fermion_field(cls) -> "Driver":
        return cls("fermion_field")

    @classmethod
    def annihilation(cls) -> "Driver":
        return cls("annihilation")

    @classmethod
    def creation(cls) -> "Driver":
        return cls("creation")

    @classmethod
    def linear_combination(cls, alpha1, alpha2) -> "Driver":
        return cls("linear_combination", complex(alpha1), complex(alpha2))

    @property
    def required_layout(self) -> str:
        return DRIVER_KINDS[self.kind][0]

    @property
    def label(self) -> str:
        return DRIVER_KINDS[self.kind][1]

    def increment(self, space: CliffordSpace, k: int) -> CliffordElement:
        """The driver's increment over grid increment k: the dense matrix
        of :meth:`gather`."""
        return CliffordElement(space, self.gather(space, k).dense(), _fresh=True)

    def gather(self, space: CliffordSpace, k: int) -> MonomialGather:
        """Increment k's :class:`MonomialGather`, built by the driver's
        kind on first use and cached on the space by ``(driver, k)``."""
        key = (self, k)
        if key not in space._gathers:
            if space.layout != self.required_layout:
                raise DriverMismatchError(f"{self.kind} increments need a space "
                                          f"with layout={self.required_layout!r}")
            space._gathers.setdefault(key, DRIVER_KINDS[self.kind][2](self, space, k))
        return space._gathers[key]


def _node_range(space, num, start_node) -> tuple:
    """Checked int ``(num, start_node)``; ``num=None`` runs to node n - 1."""
    start_node = as_int(start_node, "start_node")
    num = space.grid.n - start_node if num is None else as_int(num, "num")
    if num < 1:
        raise ValueError("a process needs at least one value")
    n = space.grid.n
    if not 0 <= start_node <= n:
        raise ValueError(f"start_node {start_node} outside 0..{n}")
    if start_node + num > n + 1:
        raise ValueError(
            f"{num} values from node {start_node} overrun the "
            f"grid ({n + 1} nodes)"
        )
    return num, start_node


def _require_node_adapted(space, node: int, defect: float) -> None:
    """Raise AdaptednessError for the value at ``node`` unless its L^2
    adaptedness defect at the node's level is at most
    ADAPTEDNESS_REJECT_TOL; a NaN defect (a non-finite value) fails."""
    if not defect <= ADAPTEDNESS_REJECT_TOL:
        raise AdaptednessError(
            f"value at node {node} is not level-{space.level_of_node(node)} "
            f"measurable (defect {defect:.3e})")


def _adapted_factors(space, values, start_node, home) -> tuple:
    """``(factors, start_node)``: the level factors of values on the spaces
    ``home(node)`` (checked ``start_node``), each value checked adapted at
    its node's level at its own size and, for a larger value, on its
    factor's pattern ``a (x) I``."""
    values = tuple(values)
    _, start_node = _node_range(space, len(values), start_node)
    factors = []
    for node, v in enumerate(values, start_node):
        sub = home(node)
        if v.space is not sub and v.space != sub:
            raise ConfigurationError("process values belong to a different space")
        level = space.level_of_node(node)
        _require_node_adapted(space, node, adaptedness_defect(v, level, 2))
        a = restrict(v, space.level_space(node))
        if not np.array_equal(_at_size(a.mat, sub.dim), v.mat):
            raise AdaptednessError(
                f"value at node {node} has a non-zero entry off the level-"
                f"{level} pattern a (x) I")
        factors.append(a)
    return tuple(factors), start_node


def _random_stack(space, rngs, num=None, start_node: int = 0) -> list:
    """The values :meth:`AdaptedProcess.random` draws from each of
    ``rngs`` (checked ``num`` and ``start_node``): each generator draws its
    whole process in one call, and each node is finished for all
    generators at once.  Per node a read-only ``(len(rngs), d, d)`` stack
    of their level factors, d the node's ``level_space`` dim."""
    num = space.grid.n if num is None else num
    nodes = range(start_node, start_node + num)
    stacks = _draw_levels(space, rngs, [space.level_of_node(k) for k in nodes])
    for i, node in enumerate(nodes):
        stacks[i] = _at_size(stacks[i], space.level_space(node).dim)
        stacks[i].setflags(write=False)
    return stacks


class AdaptedProcess:
    """Node-indexed values f(tau_k), each measurable at its own level.

    ``factors[i]`` is the level factor of the value at node
    ``start_node + i``.  Assigning any attribute raises ``AttributeError``.
    """

    __slots__ = ("space", "factors", "start_node", "_values")

    def __init__(self, space, values, start_node: int = 0):
        self._init(space, *_adapted_factors(space, values, start_node,
                                            lambda node: space))

    def _init(self, space, factors: tuple, start_node: int) -> None:
        object.__setattr__(self, "space", space)
        object.__setattr__(self, "factors", factors)
        object.__setattr__(self, "start_node", start_node)
        object.__setattr__(self, "_values", None)

    @classmethod
    def _trusted(cls, space, factors, start_node: int) -> "AdaptedProcess":
        """A process over level factors that are adapted by construction;
        the adaptedness check is skipped."""
        f = cls.__new__(cls)
        f._init(space, tuple(factors), start_node)
        return f

    @classmethod
    def from_factors(cls, space, factors, start_node: int = 0) -> "AdaptedProcess":
        """The process of the values ``a (x) I`` for factors ``a`` on their
        nodes' level spaces, each checked as the constructor checks a value
        but at its own size, and stored as it is."""
        return cls._trusted(space, *_adapted_factors(space, factors, start_node,
                                                     space.level_space))

    def __setattr__(self, name, value):
        raise AttributeError(f"AdaptedProcess is immutable: cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"AdaptedProcess is immutable: cannot delete {name!r}")

    @classmethod
    def constant(cls, space, x: CliffordElement, num: int | None = None,
                 start_node: int = 0) -> "AdaptedProcess":
        num, start_node = _node_range(space, num, start_node)
        return cls(space, [x] * num, start_node=start_node)

    @classmethod
    def random(cls, space, rng: np.random.Generator, num: int | None = None,
               start_node: int = 0) -> "AdaptedProcess":
        """Unit-L^2 random values, each drawn in its own level algebra.

        Node by node, each factor is the one ``random_level_element``
        draws at the node's level, from the same stream of ``rng``.
        """
        num, start_node = _node_range(space, num, start_node)
        return cls._trusted(space, [
            CliffordElement(space.level_space(node), a[0], _fresh=True)
            for node, a in enumerate(_random_stack(space, [rng], num,
                                                   start_node), start_node)],
            start_node)

    @property
    def values(self) -> tuple:
        """The values ``a (x) I`` as read-only full-size elements, expanded
        from ``factors`` on first use."""
        if self._values is None:
            object.__setattr__(self, "_values", tuple(
                expand(a, self.space) for a in self.factors))
        return self._values

    def value(self, node: int) -> CliffordElement:
        """The value at ``node``, expanded from its factor alone."""
        off = as_int(node, "node") - self.start_node
        if not 0 <= off < len(self):
            raise IndexError(
                f"node {node} outside covered range "
                f"{self.start_node}..{self.last_node}"
            )
        return expand(self.factors[off], self.space)

    @property
    def last_node(self) -> int:
        return self.start_node + len(self) - 1

    def __len__(self):
        return len(self.factors)

    def __iter__(self):
        return iter(self.values)

    def __repr__(self):
        return (
            f"AdaptedProcess(nodes {self.start_node}..{self.last_node}, "
            f"dim={self.space.dim})"
        )
