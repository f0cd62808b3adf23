"""Adapted simple processes and the stochastic drivers they integrate against.

A process holds one algebra element per grid node, starting at
``start_node``; the value at node k must lie in the level-k subalgebra
(level 2k for pair layouts).  Adaptedness is enforced eagerly at
construction — a projection defect above the rejection threshold raises
instead of being silently projected away.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

# unused lp_norm: perfbench/test_bench.py pins this module as an import site
from .element import CliffordElement, lp_norm  # noqa: F401
from .errors import AdaptednessError, ConfigurationError, DriverMismatchError
from .space import CliffordSpace, adaptedness_defect, random_level_element

#: Construction rejects values whose projection defect exceeds this.
ADAPTEDNESS_REJECT_TOL = 1e-8


def _combined_increment(driver, space, k):
    da = space.annihilation_increment(k)
    return driver.alpha1 * da + driver.alpha2 * da.adjoint()


#: The driver registry: kind -> (required layout, label used in the suites'
#: cell names, increment(driver, space, k)).
DRIVER_KINDS = {
    "fermion_field": ("fermion", "fermion",
                      lambda driver, space, k: space.fermion_increment(k)),
    "annihilation": ("pair", "annihilation",
                     lambda driver, space, k: space.annihilation_increment(k)),
    "creation": ("pair", "creation",
                 lambda driver, space, k: space.creation_increment(k)),
    "linear_combination": ("pair", "linear", _combined_increment),
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
        """The driver's increment over grid increment k.

        Built once per space: the read-only element is cached on the
        space, keyed by ``(driver, k)``, and dies with it.  Drivers that
        compare equal (same kind and alphas) share their entries.
        """
        key = (self, k)
        inc = space._increments.get(key)
        if inc is None:
            if space.layout != self.required_layout:
                raise DriverMismatchError(
                    f"driver {self.kind!r} needs layout "
                    f"{self.required_layout!r}, space has {space.layout!r}"
                )
            # setdefault: concurrent callers all get the first stored element
            inc = space._increments.setdefault(
                key, DRIVER_KINDS[self.kind][2](self, space, k))
        return inc


class AdaptedProcess:
    """Node-indexed values f(tau_k), each measurable at its own level."""

    def __init__(self, space, values, start_node: int = 0):
        values = tuple(values)
        if not values:
            raise ValueError("a process needs at least one value")
        n = space.grid.n
        if not 0 <= start_node <= n:
            raise ValueError(f"start_node {start_node} outside 0..{n}")
        if start_node + len(values) > n + 1:
            raise ValueError(
                f"{len(values)} values from node {start_node} overrun the "
                f"grid ({n + 1} nodes)"
            )
        for off, v in enumerate(values):
            if v.space is not space and v.space != space:
                raise ConfigurationError("process values belong to a different space")
            node = start_node + off
            level = space.level_of_node(node)
            defect = adaptedness_defect(v, level, 2)
            if defect > ADAPTEDNESS_REJECT_TOL:
                raise AdaptednessError(
                    f"value at node {node} is not level-{level} measurable "
                    f"(projection defect {defect:.3e} > "
                    f"{ADAPTEDNESS_REJECT_TOL:.0e})"
                )
        self.space = space
        self.values = values
        self.start_node = start_node

    @classmethod
    def constant(cls, space, x: CliffordElement, num: int | None = None,
                 start_node: int = 0) -> "AdaptedProcess":
        if num is None:
            num = space.grid.n - start_node
        return cls(space, [x] * num, start_node=start_node)

    @classmethod
    def random(cls, space, rng: np.random.Generator, num: int | None = None,
               start_node: int = 0) -> "AdaptedProcess":
        """Unit-L^2 random values, each drawn in its own level algebra."""
        n = space.grid.n
        if num is None:
            num = n - start_node
        vals = []
        for off in range(num):
            node = start_node + off
            vals.append(random_level_element(space, rng, space.level_of_node(node)))
        return cls(space, vals, start_node=start_node)

    def value(self, node: int) -> CliffordElement:
        off = node - self.start_node
        if not 0 <= off < len(self.values):
            raise IndexError(
                f"node {node} outside covered range "
                f"{self.start_node}..{self.last_node}"
            )
        return self.values[off]

    @property
    def last_node(self) -> int:
        return self.start_node + len(self.values) - 1

    def __len__(self):
        return len(self.values)

    def __iter__(self):
        return iter(self.values)

    def max_adaptedness_defect(self, p: float = 2.0) -> float:
        worst = 0.0
        for off, v in enumerate(self.values):
            level = self.space.level_of_node(self.start_node + off)
            worst = max(worst, adaptedness_defect(v, level, p))
        return worst

    def __repr__(self):
        return (
            f"AdaptedProcess(nodes {self.start_node}..{self.last_node}, "
            f"dim={self.space.dim})"
        )
