"""Coefficient maps, nonlocal initial-condition maps, and their registries.

A coefficient map sends (element, time) to an element, carries a certified
modulus for its squared increments, and declares whether it maps
self-adjoint inputs to even / self-adjoint outputs (the flags the
self-adjointness theorem consumes).  A nonlocal map is a strict
L^p contraction applied to the unknown inside the initial condition.

Registries map names (usable in configuration files) to factories.  Every
factory takes the problem's norm exponent ``p`` first — most ignore it,
but radial maps need it to measure their argument.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .element import CliffordElement, lp_norm
from .errors import ContractViolationError
from .modulus import OsgoodModulus
from .space import (
    CliffordSpace,
    adaptedness_defect,
    conditional_expect,
    parity_decompose,
    random_level_element,
)


@dataclass(frozen=True)
class CoefficientMap:
    """A drift/diffusion coefficient together with its declared contract."""

    fn: Callable[[CliffordElement, float], CliffordElement]
    modulus: OsgoodModulus
    parity_even: bool = False
    selfadjoint_preserving: bool = False
    name: str = ""

    def __call__(self, x: CliffordElement, t: float) -> CliffordElement:
        return self.fn(x, t)

    @property
    def is_lipschitz(self) -> bool:
        return self.modulus.is_lipschitz


@dataclass(frozen=True)
class NonlocalMap:
    """Map R with ||R(x) - R(y)||_p <= contraction * ||x - y||_p.

    The contraction constant must sit strictly below 1 (or be exactly 0
    for the zero map); problem construction spot-checks this on sampled
    pairs and refuses maps that measurably exceed their declaration.
    """

    fn: Callable[[CliffordElement], CliffordElement]
    contraction: float
    selfadjoint_preserving: bool = False
    name: str = ""

    def __post_init__(self):
        if not 0.0 <= self.contraction < 1.0:
            raise ValueError(
                f"contraction constant must lie in [0, 1), got {self.contraction}"
            )

    def __call__(self, x: CliffordElement) -> CliffordElement:
        return self.fn(x)

    @property
    def is_zero(self) -> bool:
        return self.contraction == 0.0


# -- spot-check validators ---------------------------------------------------


def _sample_pair(space, rng, level):
    x = random_level_element(space, rng, level)
    y = random_level_element(space, rng, level)
    scale = 10.0 ** rng.uniform(-3, 0.5)
    return scale * x, scale * y


def validate_coefficient(cmap: CoefficientMap, space: CliffordSpace, p: float,
                         seed: int = 0, trials: int = 6,
                         start_node: int = 0) -> None:
    """Spot-check adaptedness, the declared modulus, the parity /
    self-adjointness flags, and continuity in time.

    Only nodes from ``start_node`` on are sampled — a coefficient whose
    values sit above level 0 is fine for a problem that starts later.

    Continuity is a desk-scale heuristic: on a 4x refinement of the grid the
    largest jump between adjacent samples must fall to at most 0.75 of the
    coarse-grid jump (with a 1e-9 floor); genuine jump discontinuities keep
    their size under refinement and get rejected.
    """
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0xC0EF,)))
    grid = space.grid
    label = cmap.name or "coefficient"
    for trial in range(trials):
        # levels are nested, so the first node is the binding adaptedness
        # case: probe it deterministically, then sample the rest
        if trial == 0:
            k = start_node
        else:
            k = int(rng.integers(start_node, grid.n + 1))
        level = space.level_of_node(k)
        t = grid.node(k)
        x, y = _sample_pair(space, rng, level)
        fx = cmap(x, t)
        # adapted: the image must stay at the argument's level
        defect = adaptedness_defect(fx, level, p)
        if not defect <= 1e-10:
            raise ContractViolationError(
                f"{label}: image of a level-{level} element leaves the level "
                f"algebra (defect {defect:.3e})"
            )
        # declared modulus on the sampled pair
        gap2 = lp_norm(x - y, p) ** 2
        if gap2 > 0:
            lhs2 = lp_norm(fx - cmap(y, t), p) ** 2
            bound = cmap.modulus(gap2)
            if lhs2 > bound * (1 + 1e-9) + 1e-15:
                raise ContractViolationError(
                    f"{label}: squared increment {lhs2:.6e} exceeds the "
                    f"declared modulus bound {bound:.6e} at gap^2 {gap2:.3e}"
                )
        if cmap.selfadjoint_preserving or cmap.parity_even:
            xs = 0.5 * (x + x.adjoint())
            img = cmap(xs, t)
            if cmap.selfadjoint_preserving and img.selfadjoint_defect(p) > 1e-10:
                raise ContractViolationError(
                    f"{label}: declared selfadjoint_preserving but breaks "
                    f"self-adjointness"
                )
            if cmap.parity_even:
                _, odd = parity_decompose(img)
                if lp_norm(odd, p) > 1e-10:
                    raise ContractViolationError(
                        f"{label}: declared parity_even but the image of a "
                        f"self-adjoint element has an odd part"
                    )
    # continuity in t along a refinement, at a fixed argument
    x = random_level_element(space, rng, 0)
    jumps = []
    for refine in (2, 8):
        ts = np.linspace(grid.t0, grid.T, refine * grid.n + 1)
        vals = [cmap(x, float(t)) for t in ts]
        jump = max(
            (lp_norm(b - a, p) for a, b in zip(vals, vals[1:])),
            default=0.0,
        )
        jumps.append(jump)
    if jumps[1] > 0.75 * jumps[0] + 1e-9:
        raise ContractViolationError(
            f"{label}: largest jump does not shrink under grid refinement "
            f"({jumps[0]:.3e} -> {jumps[1]:.3e}); t-continuity looks violated"
        )


def validate_nonlocal(rmap: NonlocalMap, space: CliffordSpace, p: float,
                      seed: int = 0, trials: int = 8,
                      start_node: int = 0) -> None:
    """Spot-check the declared contraction constant on sampled pairs."""
    rng = np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(0x4A0C,)))
    label = rmap.name or "nonlocal map"
    for trial in range(trials):
        if trial == 0:
            k = start_node
        else:
            k = int(rng.integers(start_node, space.grid.n + 1))
        level = space.level_of_node(k)
        x, y = _sample_pair(space, rng, level)
        img = rmap(x)
        defect = adaptedness_defect(img, level, p)
        if not defect <= 1e-10:
            raise ContractViolationError(
                f"{label}: image leaves the level-{level} algebra "
                f"(defect {defect:.3e})"
            )
        gap = lp_norm(x - y, p)
        moved = lp_norm(img - rmap(y), p)
        if rmap.is_zero:
            if moved > 1e-12 or lp_norm(img, p) > 1e-12:
                raise ContractViolationError(
                    f"{label}: declared zero but moves points"
                )
        elif gap > 0 and moved > rmap.contraction * gap * (1 + 1e-9) + 1e-15:
            raise ContractViolationError(
                f"{label}: moved {moved:.6e} on a gap of {gap:.6e}, beyond "
                f"the declared contraction {rmap.contraction}"
            )


# -- built-in coefficient factories -----------------------------------------

#: Floor protecting the radial direction x / ||x|| at the origin.
RADIAL_EPS0 = 1e-14
#: Certified margin for the radial map's squared-increment modulus
#: (max sampled ratio is about 1.16; see the declared rho below).
RADIAL_MODULUS_MARGIN = 4.0


def _zero(p: float) -> CoefficientMap:
    return CoefficientMap(
        fn=lambda x, t: x.space.zero(),
        modulus=OsgoodModulus.from_lipschitz(0.0),
        parity_even=True,
        selfadjoint_preserving=True,
        name="zero",
    )


def _scale(p: float, c: float = 1.0) -> CoefficientMap:
    c = float(c)
    return CoefficientMap(
        fn=lambda x, t: c * x,
        modulus=OsgoodModulus.from_lipschitz(abs(c)),
        parity_even=False,
        selfadjoint_preserving=True,
        name=f"scale({c})",
    )


def _constant(p: float, c: float = 1.0) -> CoefficientMap:
    c = complex(c)
    return CoefficientMap(
        fn=lambda x, t: c * x.space.identity(),
        modulus=OsgoodModulus.from_lipschitz(0.0),
        parity_even=True,
        selfadjoint_preserving=(c.imag == 0.0),
        name=f"constant({c})",
    )


def _cos_scale(p: float, c: float = 1.0, omega: float = 1.0) -> CoefficientMap:
    c, omega = float(c), float(omega)
    return CoefficientMap(
        fn=lambda x, t: (c * math.cos(omega * t)) * x,
        modulus=OsgoodModulus.from_lipschitz(abs(c)),
        selfadjoint_preserving=True,
        name=f"cos_scale({c},{omega})",
    )


def _even_sa(p: float, c: float = 1.0) -> CoefficientMap:
    """c * even part of the self-adjoint part — the map the
    self-adjointness theorem wants, and a contraction times |c|."""
    c = float(c)

    def fn(x, t):
        sa = 0.5 * (x + x.adjoint())
        even, _ = parity_decompose(sa)
        return c * even

    return CoefficientMap(
        fn=fn,
        modulus=OsgoodModulus.from_lipschitz(abs(c)),
        parity_even=True,
        selfadjoint_preserving=True,
        name=f"even_sa({c})",
    )


def _sa_scale(p: float, c: float = 1.0) -> CoefficientMap:
    c = float(c)
    return CoefficientMap(
        fn=lambda x, t: c * (0.5 * (x + x.adjoint())),
        modulus=OsgoodModulus.from_lipschitz(abs(c)),
        selfadjoint_preserving=True,
        name=f"sa_scale({c})",
    )


def _radial_osgood(p: float, scale: float = 1.0,
                   eps0: float = RADIAL_EPS0) -> CoefficientMap:
    """scale * s(||x||_p) / max(||x||_p, eps0) * x with
    s(u) = u sqrt(ln(e + 1/u)): continuous, Osgood, not Lipschitz —
    the radial slope sqrt(ln(e + 1/u)) blows up at the origin."""
    scale, eps0 = float(scale), float(eps0)

    def fn(x, t):
        u = lp_norm(x, p)
        s = 0.0 if u <= 0 else u * math.sqrt(math.log(math.e + 1.0 / u))
        return (scale * s / max(u, eps0)) * x

    c_rho = RADIAL_MODULUS_MARGIN * scale * scale

    def rho(r):
        return 0.0 if r <= 0 else c_rho * r * math.log(math.e + 1.0 / r)

    return CoefficientMap(
        fn=fn,
        modulus=OsgoodModulus.osgood(rho, name=f"radial_rho({c_rho})"),
        selfadjoint_preserving=True,
        name=f"radial_osgood({scale})",
    )


COEFFICIENTS = {
    "zero": _zero,
    "scale": _scale,
    "constant": _constant,
    "cos_scale": _cos_scale,
    "even_sa": _even_sa,
    "sa_scale": _sa_scale,
    "radial_osgood": _radial_osgood,
}


def make_coefficient(name: str, p: float, **params) -> CoefficientMap:
    if name not in COEFFICIENTS:
        raise KeyError(
            f"unknown coefficient {name!r}; known: {sorted(COEFFICIENTS)}"
        )
    return COEFFICIENTS[name](p, **params)


# -- built-in nonlocal factories ---------------------------------------------


def _r_zero() -> NonlocalMap:
    return NonlocalMap(
        fn=lambda x: x.space.zero(),
        contraction=0.0,
        selfadjoint_preserving=True,
        name="zero",
    )


def _r_scale(c: float = 0.5) -> NonlocalMap:
    c = float(c)
    if not 0 <= abs(c) < 1:
        raise ValueError(f"|c| must be < 1 for a contraction, got {c}")
    return NonlocalMap(
        fn=lambda x: c * x,
        contraction=abs(c),
        selfadjoint_preserving=True,
        name=f"scale({c})",
    )


def _r_conditional_scale(c: float = 0.5, level: int = 0) -> NonlocalMap:
    """c * E(x | level): composes a scale with the (contractive)
    conditional expectation."""
    c = float(c)
    if not 0 <= abs(c) < 1:
        raise ValueError(f"|c| must be < 1 for a contraction, got {c}")
    if not (float(level).is_integer() and level >= 0):
        raise ValueError(f"level must be an integer >= 0, got {level!r}")
    level = int(level)
    return NonlocalMap(
        fn=lambda x: c * conditional_expect(x, level),
        contraction=abs(c),
        selfadjoint_preserving=True,
        name=f"conditional_scale({c},{level})",
    )


NONLOCAL_MAPS = {
    "zero": _r_zero,
    "scale": _r_scale,
    "conditional_scale": _r_conditional_scale,
}


def make_nonlocal(name: str, **params) -> NonlocalMap:
    if name not in NONLOCAL_MAPS:
        raise KeyError(
            f"unknown nonlocal map {name!r}; known: {sorted(NONLOCAL_MAPS)}"
        )
    return NONLOCAL_MAPS[name](**params)
