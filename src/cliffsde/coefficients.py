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
import weakref
from dataclasses import dataclass
from itertools import pairwise
from typing import Callable

import numpy as np

from .element import (CliffordElement, _l2_norm, _lp_over_l2_bound, lp_norm,
                      lp_norms)
from .errors import ContractViolationError
from .integrals import _CHUNK_BYTES
from .modulus import OsgoodModulus, _rho_log
from .space import (
    CliffordSpace,
    conditional_expect,
    expand,
    parity_decompose,
    random_level_element,
    require_adapted,
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
    for the zero map); a build spot-checks it on sampled pairs unless the
    map is proven (:func:`_is_proven`), refusing measurable excess.
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
        """A declared contraction of 0 (R constant), not ``_is_zero_map``."""
        return self.contraction == 0.0


# -- spot-check validators (of maps that are not proven) --------------------

#: The seed of every validation's probe draw (deterministic)
_VALIDATION_SEED = 0x5DE


def draw_probes(space: CliffordSpace, p: float, start_node: int = 0) -> tuple:
    """The probes of one validation, drawn from :data:`_VALIDATION_SEED`
    and shared by every map checked with them, as ``(pairs, scalar,
    boundaries)``: a problem build and a standalone validator draw the
    same ones.

    ``pairs`` holds eight ``(node, level, x, y, ||x - y||_p, h)``: x and y
    level elements of the node's level space, where the solve evaluates the
    maps, at one random scale, and the self-adjoint probe h = (x + x*) / 2.
    Levels are nested, so the first node is the binding adaptedness case: it
    is probed first, deterministically, then nodes from start_node on are
    sampled.  ``scalar`` is the level-0 argument of the continuity check, on
    ``level_space(start_node)``.
    ``boundaries`` holds ``(node, a, larger)`` for every step from one level
    space to the next larger one, the last to the full space, with ``a`` a
    level element of the smaller space at the last node it serves.
    """
    rng = np.random.default_rng(
        np.random.SeedSequence(_VALIDATION_SEED, spawn_key=(0xC0EF,)))
    n = space.grid.n
    pairs = []
    for trial in range(8):
        k = start_node if trial == 0 else int(rng.integers(start_node, n + 1))
        level, sub = space.level_of_node(k), space.level_space(k)
        scale = 10.0 ** rng.uniform(-3, 0.5)
        x, y = (scale * random_level_element(sub, rng, level) for _ in range(2))
        pairs.append((k, level, x, y, lp_norm(x - y, p),
                      0.5 * (x + x.adjoint())))
    scalar = random_level_element(space.level_space(start_node), rng, 0)
    chain = [(k, space.level_space(k)) for k in range(start_node, n + 1)]
    boundaries = [
        (k, random_level_element(sub, rng, space.level_of_node(k)), nxt)
        for (k, sub), (_, nxt) in pairwise(chain) if nxt is not sub]
    return pairs, scalar, boundaries


def _label(role: str, m, default: str) -> str:
    """The map's name in messages: "F (name)" in a problem, else its name."""
    return f"{role} ({m.name or 'unnamed'})" if role else m.name or default


def _evaluate(label: str, fn, k, x: CliffordElement, at: str = "node "):
    """fn(x, k) at node k (time k for ``at="t="``), where a failure, or an
    image outside x's space, breaks the contract the factored solve needs."""
    try:
        y = fn(x, k)
    except Exception as exc:
        raise ContractViolationError(
            f"{label}: raised {type(exc).__name__} ({exc}) on a level "
            f"factor of dimension {x.space.dim} at {at}{k}") from exc
    if y.space is not x.space and y.space != x.space:
        raise ContractViolationError(
            f"{label}: returned an element of another space than its level "
            f"factor's at {at}{k}")
    return y


def _increment_norm(w, x, y, gap: float, p: float, ok) -> float:
    """||w = f(x) - f(y)||_p, or its bound b = |g| gap + r ||w - g u||_2 if
    ``ok(b)`` (u = x - y, g = <u, w> / <u, u>, r: Hoelder), tight for a
    scalar multiple of x, padded by dim^2 eps for rounding (NaN: exact)."""
    r = np.subtract(x.mat, y.mat)  # u, then w - g u in place
    g = np.vdot(r, w.mat) / (np.vdot(r, r).real or 1.0)  # u = 0: any g
    np.subtract(w.mat, np.multiply(r, g, out=r), out=r)
    bound = float(abs(g) * gap + _lp_over_l2_bound(len(r), p) * _l2_norm(r)) \
        * (1 + len(r) ** 2 * np.finfo(float).eps)
    del r
    return bound if ok(bound) else lp_norm(w, p)


def _require_embedding(label: str, fn, boundaries) -> None:
    """fn(a (x) I, k) must equal fn(a, k) (x) I elementwise, within 1e-12
    of the image's largest entry, at each of the ``boundaries`` of
    :func:`draw_probes`: the solve evaluates fn on level factors and embeds
    the images."""
    for k, a, nxt in boundaries:
        want = expand(_evaluate(label, fn, k, a), nxt).mat
        got = _evaluate(label, fn, k, expand(a, nxt)).mat
        gap = np.abs(got - want)
        if not np.all(gap <= 1e-12 * np.abs(want).max()):
            raise ContractViolationError(
                f"{label}: the image of a level factor embedded in "
                f"dimension {nxt.dim} is not its image's embedding at node "
                f"{k} (largest entry gap {gap.max():.3e})")


def _require_level(label: str, image: CliffordElement, level: int,
                   p: float) -> None:
    """The image of a level-``level`` factor must stay at that level; only
    a factor space with generators above the level can hold one that does
    not (odd levels, level 0, and the top node of an odd count)."""
    if level < 2 * image.space.factors:
        require_adapted(image, level, p, 1e-10,
                        f"{label}: image of a level-{level} element leaves "
                        f"the level algebra")


def _require_selfadjoint(label: str, image: CliffordElement, p: float) -> None:
    """A declared self-adjointness keeper's image of a self-adjoint probe."""
    if not image.selfadjoint_defect(p) <= 1e-10:
        raise ContractViolationError(
            f"{label}: declared selfadjoint_preserving but breaks "
            f"self-adjointness")


def validate_coefficient(cmap: CoefficientMap, space: CliffordSpace, p: float,
                         start_node: int = 0, *, probes: tuple | None = None,
                         role: str = "") -> None:
    """Spot-check adaptedness, the declared modulus, the parity /
    self-adjointness flags, continuity in time, and the embedding contract.

    The probes run where the level-factored solve evaluates the map: on
    the level factors of nodes from ``start_node`` on (a coefficient whose
    values sit above level 0 is fine for a problem that starts later).
    L^p norms are invariant under ``(x) I``, so they hold at full size
    when they hold there if the map keeps the embedding contract
    ``cmap(a (x) I, t) = cmap(a, t) (x) I``, checked at every step to a
    larger level space and from the largest to the full space.  A map that
    raises on a level factor or returns another space's element fails it.
    A proven map (:func:`_is_proven`) returns at once.

    Continuity is a desk-scale heuristic: on a 4x refinement of the grid the
    largest jump between adjacent samples must fall to at most 0.75 of the
    coarse-grid jump (with a 1e-9 floor); genuine jump discontinuities keep
    their size under refinement and get rejected.  It is checked at a scalar
    on ``space.level_space(start_node)``.  A NaN fails every check.

    ``probes``, a :func:`draw_probes` draw, is shared by a problem's F, G,
    H and R; without it the call draws the same probes itself.  ``role``
    ("F", "G", "H") names the map in the messages.
    """
    if _is_proven(cmap, p):
        return
    if probes is None:
        probes = draw_probes(space, p, start_node)
    grid = space.grid
    label = _label(role, cmap, "coefficient")

    def fn(x, k):
        return cmap(x, grid.node(k))

    pairs, scalar, boundaries = probes
    for k, level, x, y, gap, h in pairs:
        img = _evaluate(label, fn, k, x)  # f(x), then f(x) - f(y), then f(h)
        _require_level(label, img, level, p)
        # declared modulus on the sampled pair
        gap2 = gap * gap  # inf on overflow, where ** 2 raises
        if gap2 > 0:
            img = img - _evaluate(label, fn, k, y)
            bound = cmap.modulus(gap2)
            limit = bound * (1 + 1e-9) + 1e-15
            lhs = _increment_norm(img, x, y, gap, p,
                                  lambda b: b * b <= limit)
            lhs2 = lhs * lhs
            if not (lhs2 <= limit or limit == math.inf):  # inf: vacuous
                raise ContractViolationError(
                    f"{label}: squared increment {lhs2:.6e} exceeds the "
                    f"declared modulus bound {bound:.6e} at gap^2 {gap2:.3e}"
                )
        if cmap.selfadjoint_preserving or cmap.parity_even:
            img = _evaluate(label, fn, k, h)
            if cmap.selfadjoint_preserving:
                _require_selfadjoint(label, img, p)
            if cmap.parity_even:
                _, odd = parity_decompose(img)
                if not lp_norm(odd, p) <= 1e-10:
                    raise ContractViolationError(
                        f"{label}: declared parity_even but the image of a "
                        f"self-adjoint element has an odd part"
                    )
    _require_embedding(label, fn, boundaries)
    # continuity in t along a refinement, at a fixed scalar argument
    jumps, size = [], max(2, _CHUNK_BYTES // scalar.mat.nbytes)
    for refine in (2, 8):
        ts = np.linspace(grid.t0, grid.T, refine * grid.n + 1).tolist()
        norms, last = [], []
        for i in range(0, len(ts), size):  # up to _CHUNK_BYTES of samples
            vals = np.stack(last + [_evaluate(label, cmap, t, scalar, "t=")
                                    .mat for t in ts[i:i + size]])
            norms += lp_norms(vals[1:] - vals[:-1], p)
            last = [vals[-1]]
        jumps.append(np.max(norms))  # keeps a NaN
    if not jumps[1] <= 0.75 * jumps[0] + 1e-9:
        raise ContractViolationError(
            f"{label}: largest jump does not shrink under grid refinement "
            f"({jumps[0]:.3e} -> {jumps[1]:.3e}); t-continuity looks violated"
        )


def validate_nonlocal(rmap: NonlocalMap, space: CliffordSpace, p: float,
                      start_node: int = 0, *, probes: tuple | None = None,
                      role: str = "") -> None:
    """Spot-check a declared contraction on sampled pairs, adaptedness, the
    self-adjointness flag and the embedding contract, on level factors as
    :func:`validate_coefficient` does (a proven map holds)."""
    if _is_proven(rmap, p):
        return
    if probes is None:
        probes = draw_probes(space, p, start_node)
    label = _label(role, rmap, "nonlocal map")

    def fn(x, k):
        return rmap(x)

    pairs, _, boundaries = probes
    for k, level, x, y, gap, h in pairs:
        img = _evaluate(label, fn, k, x)
        _require_level(label, img, level, p)
        limit = 1e-12 if rmap.is_zero else \
            rmap.contraction * gap * (1 + 1e-9) + 1e-15
        moved = _increment_norm(img - _evaluate(label, fn, k, y), x, y, gap,
                                p, lambda b: b <= limit)
        if rmap.is_zero and not (moved <= 1e-12 and lp_norm(img, p) <= 1e-12):
            raise ContractViolationError(
                f"{label}: declared zero but moves points")
        if not rmap.is_zero and gap > 0 and not moved <= limit:
            raise ContractViolationError(
                f"{label}: moved {moved:.6e} on a gap of {gap:.6e}, beyond "
                f"the declared contraction {rmap.contraction}"
            )
        if rmap.selfadjoint_preserving:
            _require_selfadjoint(label, _evaluate(label, fn, k, h), p)
    _require_embedding(label, fn, boundaries)


# -- built-in coefficient factories -----------------------------------------

#: Floor protecting the radial direction x / ||x|| at the origin.
RADIAL_EPS0 = 1e-14
#: c in the radial map's declared modulus c scale^2 r ln(e + 1/r), which
#: holds with room: ||f(x) - f(y)||_p^2 <= 0.623 of it at every gap.
#: Proof, in the factory's L^p norm.  f(x) = scale phi(||x||) x with
#: h(u) = sqrt(ln(e + 1/u)) and s(u) = u h(u); phi = h at u >= eps =
#: RADIAL_EPS0, phi = s / eps below (phi <= h, increasing).  h >= 1 falls,
#: |h'| falls, and u |h'(u)| = 1 / (2 h(u) (e u + 1)) <= 1/2; s rises and
#: is concave (s'' has the sign of -1 - 1 / (2 h^2)), so s(v) - s(w) <=
#: s(v - w) for v >= w >= 0.  Take a = ||x|| >= b = ||y|| and d = ||x - y||
#: <= 2a; then f(x) - f(y) = scale [phi(a) (x - y) + (phi(a) - phi(b)) y]
#: with phi(a) <= h(a) <= h(d/2), and T = b |phi(a) - phi(b)| is at most:
#: - b >= eps: b (h(b) - h(a)) <= b |h'(b)| (a - b) <= d/2;
#: - a < eps (d < 2 eps): (b / eps) (s(a) - s(b)) <= s(d) <= d h(d/2);
#: - b < eps <= a: phi(a) - phi(b) = (h(a) - h(eps)) + (h(eps) - phi(b)),
#:   terms of opposite signs, with b (h(eps) - h(a)) <= eps |h'(eps)|
#:   (a - eps) <= d/2 and b (h(eps) - phi(b)) <= s(eps) - s(b) <=
#:   s(min(d, eps)), which is below d/2 at d >= 2 s(eps) (about 1.1e-13)
#:   and at most d h(d/2) below.
#: So ||f(x) - f(y)|| <= |scale| d (h(d/2) + 1/2), or 2 |scale| d h(d/2)
#: at d < 2 s(eps).  Against 4 ln(e + 1/d^2) = 4 L, with L >= 1: (h(d/2)
#: + 1/2)^2 <= 2 ln(e + 2/d) + 1/2 <= 2 L + 2 <= 4 L, as e + 2/d <=
#: e^(3/4) (e + 1/d^2) by AM-GM (the ratio peaks at 0.623, at d = 2.15),
#: and 4 h(d/2)^2 = 4 ln(e + 2/d) <= 0.52 * 4 L at d < 2 s(eps).
RADIAL_MODULUS_MARGIN = 4.0


def _zero_image(x, *t):
    """0 in x's space: the solve forms no term of a map with this ``fn``."""
    return x.space.zero()


def _is_zero_map(m) -> bool:
    return m.fn is _zero_image  # a map that returns 0 takes the full path


#: The maps a factory proved, by id; an entry dies with its map
_PROVEN = weakref.WeakValueDictionary()


def _proven(m, holds: bool = True, p: float | None = None):
    """m, proven if ``holds`` (at every exponent, or at ``p`` alone): a
    linear map of L^p norm <= |c| (|c| times a contraction: Pisier & Xu
    2003) has modulus |c|, the radial map its declared one (see
    :data:`RADIAL_MODULUS_MARGIN`), and one that keeps each level, commutes
    with ``(x) I`` and reads no t passes every probe."""
    if holds:
        _PROVEN[id(m) if p is None else (id(m), p)] = m
    return m


def _is_proven(m, p: float) -> bool:
    """m is the object a factory proved, at every exponent or at ``p``:
    not a replace, copy or same-fn map."""
    return any(_PROVEN.get(key) is m for key in (id(m), (id(m), p)))


def _zero(p: float) -> CoefficientMap:
    """0: modulus 0, image 0 at every level; proved."""
    return _proven(CoefficientMap(
        fn=_zero_image,
        modulus=OsgoodModulus.from_lipschitz(0.0),
        parity_even=True,
        selfadjoint_preserving=True,
        name="zero",
    ))


def _scale(p: float, c: float = 1.0) -> CoefficientMap:
    """c x: modulus |c|, keeps levels and adjoints; proved if |c| <= 1."""
    c = float(c)
    return _proven(CoefficientMap(
        fn=lambda x, t: c * x,
        modulus=OsgoodModulus.from_lipschitz(abs(c)),
        parity_even=False,
        selfadjoint_preserving=True,
        name=f"scale({c})",
    ), abs(c) <= 1)


def _constant(p: float, c: float = 1.0) -> CoefficientMap:
    """c I: modulus 0, level 0, self-adjoint iff real; proved if |c| <= 1."""
    c = complex(c)
    return _proven(CoefficientMap(
        fn=lambda x, t: c * x.space.identity(),
        modulus=OsgoodModulus.from_lipschitz(0.0),
        parity_even=True,
        selfadjoint_preserving=(c.imag == 0.0),
        name=f"constant({c})",
    ), abs(c) <= 1)


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
    self-adjointness theorem wants, and a level-keeping contraction times
    |c|; proved if |c| <= 1."""
    c = float(c)

    def fn(x, t):
        sa = 0.5 * (x + x.adjoint())
        even, _ = parity_decompose(sa)
        return c * even

    return _proven(CoefficientMap(
        fn=fn,
        modulus=OsgoodModulus.from_lipschitz(abs(c)),
        parity_even=True,
        selfadjoint_preserving=True,
        name=f"even_sa({c})",
    ), abs(c) <= 1)


def _sa_scale(p: float, c: float = 1.0) -> CoefficientMap:
    """c (x + x*) / 2: |c| times a level-keeping contraction; proved if
    |c| <= 1."""
    c = float(c)
    return _proven(CoefficientMap(
        fn=lambda x, t: c * (0.5 * (x + x.adjoint())),
        modulus=OsgoodModulus.from_lipschitz(abs(c)),
        selfadjoint_preserving=True,
        name=f"sa_scale({c})",
    ), abs(c) <= 1)


def _radial_osgood(p: float, scale: float = 1.0) -> CoefficientMap:
    """scale * s(||x||_p) / max(||x||_p, RADIAL_EPS0) * x with
    s(u) = u sqrt(ln(e + 1/u)): continuous, Osgood, not Lipschitz —
    the radial slope sqrt(ln(e + 1/u)) blows up at the origin.  Its image
    is a real multiple of x; proved at this p if |scale| <= 1."""
    scale = float(scale)

    def fn(x, t):
        u = lp_norm(x, p)
        s = 0.0 if u <= 0 else u * math.sqrt(math.log(math.e + 1.0 / u))
        return (scale * s / max(u, RADIAL_EPS0)) * x

    c_rho = RADIAL_MODULUS_MARGIN * scale * scale
    return _proven(CoefficientMap(
        fn=fn,
        modulus=OsgoodModulus.osgood(_rho_log(c_rho),
                                     name=f"radial_rho({c_rho})"),
        selfadjoint_preserving=True,
        name=f"radial_osgood({scale})",
    ), abs(scale) <= 1, p)


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
    """R = 0: proved."""
    return _proven(NonlocalMap(
        fn=_zero_image,
        contraction=0.0,
        selfadjoint_preserving=True,
        name="zero",
    ))


def _r_scale(c: float = 0.5) -> NonlocalMap:
    """c x: contraction |c| < 1, keeps levels; proved."""
    c = float(c)
    if not 0 <= abs(c) < 1:
        raise ValueError(f"|c| must be < 1 for a contraction, got {c}")
    return _proven(NonlocalMap(
        fn=lambda x: c * x,
        contraction=abs(c),
        selfadjoint_preserving=True,
        name=f"scale({c})",
    ))


def _r_conditional_scale(c: float = 0.5, level: int = 0) -> NonlocalMap:
    """c * E(x | level): composes a scale with the (contractive,
    level-keeping) conditional expectation; proved."""
    c = float(c)
    if not 0 <= abs(c) < 1:
        raise ValueError(f"|c| must be < 1 for a contraction, got {c}")
    if not (float(level).is_integer() and level >= 0):
        raise ValueError(f"level must be an integer >= 0, got {level!r}")
    level = int(level)
    # a level factor's space may hold fewer than ``level`` generators
    return _proven(NonlocalMap(
        fn=lambda x: c * conditional_expect(x, min(level, x.space.n_gen)),
        contraction=abs(c),
        selfadjoint_preserving=True,
        name=f"conditional_scale({c},{level})",
    ))


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
