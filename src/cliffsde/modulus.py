"""Osgood moduli of continuity and the nonlinear Gronwall (Bihari) bound.

A modulus rho acts on squared distances: a coefficient map F admits rho if

    || F(x, t) - F(y, t) ||_p^2  <=  rho( ||x - y||_p^2 ).

``Lipschitz(L)`` means rho(r) = L^2 r.  A general rho must be continuous,
non-decreasing, vanish only at zero, and satisfy the Osgood divergence
condition  int_0+ dr / rho(r) = infinity — which no finite computation can
certify, so construction runs a decade-sweep certificate: the quadrature
increments of 1/rho over [1e-10, 1e-2] must not decay geometrically
(successive per-decade increments must keep at least ``ratio_floor`` of the
previous one).  This accepts rho(r) = r and rho(r) = r ln(e + 1/r) and
rejects rho(r) = sqrt(r), whose increments shrink by 10^(-1/2) per decade.

Quadrature is a 32-point Gauss-Legendre rule.  Integrals in r (the decade
increments and U(r) = int_{u0}^{r} ds / rho(s)) substitute r = 10^s and
apply it on each whole or partial decade of s, where 1/rho is smooth for
every modulus here; the int phi of a callable forcing term is one panel in
t.  The Bihari inverse bisects the last doubling of r that brackets it
until the midpoint stops moving.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from .errors import ConvergenceError, OsgoodViolationError

#: Decade sweep for the divergence certificate.
CERT_EPS_HI = 1e-2
CERT_EPS_LO = 1e-10
CERT_RATIO_FLOOR = 0.5

_GL_NODES, _GL_WEIGHTS = (
    a.tolist() for a in np.polynomial.legendre.leggauss(32))


def _gauss(f, a: float, b: float) -> float:
    """int_a^b f by the 32-point Gauss-Legendre rule on one panel."""
    half, mid = 0.5 * (b - a), 0.5 * (a + b)
    return half * math.fsum(w * f(mid + half * x)
                            for x, w in zip(_GL_NODES, _GL_WEIGHTS))


def _inverse_quad(rho, a: float, b: float) -> float:
    """int_a^b dr / rho(r) for 0 < a <= b, one panel per decade of log10 r
    (with r = 10^s, dr = ln(10) r ds)."""
    lo, hi = math.log10(a), math.log10(b)
    cuts = [lo, *range(math.floor(lo) + 1, math.ceil(hi)), hi]
    return math.log(10.0) * math.fsum(
        _gauss(lambda s: 10.0 ** s / rho(10.0 ** s), s0, s1)
        for s0, s1 in zip(cuts, cuts[1:]))


@dataclass(frozen=True)
class OsgoodModulus:
    """A certified modulus.  ``kind`` is "lipschitz" or "osgood"."""

    rho: Callable[[float], float]
    kind: str
    lipschitz_constant: float | None = None
    name: str = ""

    @classmethod
    def from_lipschitz(cls, L: float, name: str = "") -> "OsgoodModulus":
        L = float(L)
        if L < 0:
            raise ValueError(f"Lipschitz constant must be >= 0, got {L}")
        return cls(rho=lambda r: L * L * r, kind="lipschitz",
                   lipschitz_constant=L, name=name or f"lipschitz({L})")

    @classmethod
    def osgood(cls, rho: Callable[[float], float], name: str = "",
               eps_hi: float = CERT_EPS_HI, eps_lo: float = CERT_EPS_LO,
               ratio_floor: float = CERT_RATIO_FLOOR) -> "OsgoodModulus":
        certify_osgood(rho, name=name, eps_hi=eps_hi, eps_lo=eps_lo,
                       ratio_floor=ratio_floor)
        return cls(rho=rho, kind="osgood", lipschitz_constant=None,
                   name=name or "osgood")

    @property
    def is_lipschitz(self) -> bool:
        return self.kind == "lipschitz"

    def __call__(self, r: float) -> float:
        return float(self.rho(r))


def certify_osgood(rho, name: str = "", eps_hi: float = CERT_EPS_HI,
                   eps_lo: float = CERT_EPS_LO,
                   ratio_floor: float = CERT_RATIO_FLOOR) -> list:
    """Raise OsgoodViolationError unless rho passes the shape checks and
    the decade-sweep divergence certificate.  Returns the decade increments
    for inspection."""
    label = name or "modulus"
    v0 = float(rho(0.0))
    if not v0 == 0.0:
        raise OsgoodViolationError(f"{label}: rho(0) = {v0!r}, must be 0")
    samples = [eps_lo, 1e-6, eps_hi, 0.1, 1.0]
    vals = [float(rho(r)) for r in samples]
    for r, v in zip(samples, vals):
        if not (v > 0 and math.isfinite(v)):
            raise OsgoodViolationError(
                f"{label}: rho({r!r}) = {v!r}, must be finite and > 0"
            )
    for (r1, v1), (r2, v2) in zip(zip(samples, vals), zip(samples[1:], vals[1:])):
        if v2 < v1 * (1 - 1e-12):
            raise OsgoodViolationError(
                f"{label}: rho decreases between {r1!r} and {r2!r}"
            )
    # quadrature of 1/rho over each decade [10^-(k+1), 10^-k] of the sweep
    incs = [_inverse_quad(rho, 10.0 ** -(k + 1), 10.0 ** -k)
            for k in range(round(-math.log10(eps_hi)),
                           round(-math.log10(eps_lo)))]
    for k, (d1, d2) in enumerate(zip(incs, incs[1:])):
        if not d2 > 0 or d2 < ratio_floor * d1:
            raise OsgoodViolationError(
                f"{label}: divergence certificate failed — quadrature of "
                f"1/rho gains {d2:.3e} over decade {k + 1} after {d1:.3e} "
                f"over decade {k} (floor ratio {ratio_floor}); the integral "
                f"int_0+ dr/rho(r) looks convergent"
            )
    return incs


def bihari_bound(u0: float, phi, modulus: OsgoodModulus, t: float,
                 t0: float = 0.0) -> float:
    """Upper bound U^{-1}( U(u0) + int_t0^t phi ) for u' <= phi * rho(u).

    ``phi`` may be a callable of time or a constant.  With u0 = 0 the bound
    is identically zero (the uniqueness mechanism); with rho(r) = r it
    reduces to the classical exponential bound u0 * exp(int phi).
    """
    u0 = float(u0)
    if u0 < 0:
        raise ValueError(f"u0 must be >= 0, got {u0}")
    if t < t0:
        raise ValueError(f"t={t} before t0={t0}")
    if u0 == 0.0:
        return 0.0
    if modulus.is_lipschitz and modulus.lipschitz_constant == 0.0:
        return u0  # rho == 0: no growth at all
    if t == t0:
        return u0
    if callable(phi):
        big_phi = _gauss(phi, t0, t)
    else:
        big_phi = float(phi) * (t - t0)
    if big_phi < 0:
        raise ValueError("int phi must be >= 0 for an upper bound")
    if big_phi == 0.0:
        return u0

    # U(r) = int_{u0}^{r} ds / rho(s), the baseline drops out of the bound;
    # double r until U(r) reaches int phi, accumulating U one doubling at a
    # time, then bisect that doubling [a, 2a] until the midpoint stops
    # moving (a relative stop: lo and hi are adjacent floats)
    rho, a, u_a = modulus.rho, u0, 0.0
    while (2.0 * a < math.inf
           and (u_b := u_a + _inverse_quad(rho, a, 2.0 * a)) < big_phi):
        a, u_a = 2.0 * a, u_b
    if 2.0 * a == math.inf:
        raise ConvergenceError(
            "could not bracket the Bihari inverse; int dr/rho grows too "
            "slowly for this phi"
        )
    lo, hi = a, 2.0 * a
    while (mid := 0.5 * (lo + hi)) not in (lo, hi):
        if u_a + _inverse_quad(rho, a, mid) >= big_phi:
            hi = mid
        else:
            lo = mid
    return mid


# -- small registry used by the CLI and config files ------------------------


def _rho_log(scale: float):
    def rho(r):
        return 0.0 if r <= 0 else scale * r * math.log(math.e + 1.0 / r)
    return rho


def make_modulus(name: str, scale: float = 1.0) -> OsgoodModulus:
    """Built-in moduli: 'linear' (Lipschitz), 'log' (r ln(e + 1/r), Osgood
    but not Lipschitz), 'sqrt' (sqrt(r); rejected by the certificate)."""
    if name == "linear":
        return OsgoodModulus.from_lipschitz(scale, name=f"linear({scale})")
    if name == "log":
        return OsgoodModulus.osgood(_rho_log(scale), name=f"log({scale})")
    if name == "sqrt":
        return OsgoodModulus.osgood(
            lambda r: scale * math.sqrt(r), name=f"sqrt({scale})"
        )
    raise ValueError(f"unknown modulus {name!r}, expected linear/log/sqrt")
