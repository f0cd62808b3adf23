"""Declarative problem configuration: flat text files with dotted keys.

Format: one ``key = value`` pair per line; blank lines and lines starting
with ``#`` are ignored.  No expressions — coefficient functions are chosen
by registered name plus numeric parameters.  Example::

    grid.t0 = 0.0
    grid.T = 1.0
    grid.n = 8
    driver.kind = fermion_field
    p = 4.0
    F.name = scale
    F.c = 0.5
    R.name = scale
    R.c = 0.5
    Z.e = 1.0
    solve.tol = 1e-10
    solve.nonlocal_mode = pointwise

Initial values are sums of monomials: ``Z.e`` is the identity coefficient,
``Z.e2`` the coefficient of the second generator, ``Z.e1_3`` of the product
of generators 1 and 3 (labels are 1-based and strictly increasing).
Coefficient values may be complex (``0.5+0.25j``).

Every parse or build failure raises :class:`ConfigError` carrying the
offending key.  Numeric values must be finite; ``grid.n``, ``solve.tol``,
``solve.max_outer`` and ``solve.max_inner`` must be positive.
"""

from __future__ import annotations

import cmath
import math
import re
from dataclasses import dataclass

from .coefficients import make_coefficient, make_nonlocal
from .errors import CliffsdeError, ConfigError, ConfigurationError
from .grid import TimeGrid
from .process import Driver
from .solver import NONLOCAL_MODES, QsdeProblem
from .space import DEFAULT_MAX_GENERATORS, make_space

_MONOMIAL_RE = re.compile(r"^e(\d+(_\d+)*)?$")

#: key -> converter for the fixed (non-free-form) part of the schema
_FIXED_KEYS = {
    "p": float,
    "grid.t0": float,
    "grid.T": float,
    "grid.n": int,
    "grid.max_generators": int,
    "driver.kind": str,
    "driver.alpha1": float,
    "driver.alpha2": float,
    "solve.tol": float,
    "solve.max_outer": int,
    "solve.max_inner": int,
    "solve.start_node": int,
    "solve.nonlocal_mode": str,
}

_DEFAULTS = {
    "p": 4.0,
    "grid.t0": 0.0,
    "grid.T": 1.0,
    "grid.n": 8,
    "grid.max_generators": DEFAULT_MAX_GENERATORS,
    "driver.kind": "fermion_field",
    "driver.alpha1": 1.0,
    "driver.alpha2": 0.0,
    "solve.tol": 1e-10,
    "solve.max_outer": 60,
    "solve.max_inner": 200,
    "solve.start_node": 0,
    "solve.nonlocal_mode": "pointwise",
}

#: fixed keys whose value must be > 0
_POSITIVE_KEYS = ("grid.n", "solve.tol", "solve.max_outer", "solve.max_inner")


@dataclass(frozen=True)
class SolveSettings:
    tol: float = 1e-10
    max_outer: int = 60
    max_inner: int = 200


def parse_config(text: str) -> dict:
    """Raw ``key -> string value`` mapping with key-shape validation."""
    out = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(
                f"line {lineno}: expected 'key = value', got {line!r}",
                key=line,
            )
        key, _, value = line.partition("=")
        key, value = key.strip(), value.strip()
        if not key or not value:
            raise ConfigError(f"line {lineno}: empty key or value", key=key)
        if key in out:
            raise ConfigError(f"duplicate key {key!r}", key=key)
        _check_key_shape(key)
        out[key] = value
    return out


def _check_key_shape(key: str) -> None:
    if key in _FIXED_KEYS:
        return
    head, _, tail = key.partition(".")
    if head in ("F", "G", "H", "R") and tail:
        return  # <section>.name or a numeric factory parameter
    if head == "Z" and _MONOMIAL_RE.match(tail or ""):
        return
    raise ConfigError(f"unknown configuration key {key!r}", key=key)


def _finite(key: str, number):
    """``number`` (real or complex) if it is finite; else a ConfigError."""
    if not cmath.isfinite(number):
        raise ConfigError(f"{key!r} must be finite, got {number!r}", key=key)
    return number


def _convert(key: str, value: str):
    conv = _FIXED_KEYS[key]
    try:
        out = conv(value)
    except ValueError:
        raise ConfigError(
            f"cannot read {key!r}: {value!r} is not a valid {conv.__name__}",
            key=key,
        ) from None
    if conv is float:
        _finite(key, out)
    if key in _POSITIVE_KEYS and not out > 0:
        raise ConfigError(f"{key!r} must be > 0, got {out!r}", key=key)
    return out


def _monomial_subset(key: str, label: str):
    if label == "e":
        return ()
    parts = label[1:].split("_")
    idx = [int(s) for s in parts]
    if any(i < 1 for i in idx) or sorted(set(idx)) != idx:
        raise ConfigError(
            f"{key!r}: monomial indices must be 1-based, distinct and "
            f"increasing",
            key=key,
        )
    return tuple(i - 1 for i in idx)


def _coefficient_section(raw: dict, section: str, p: float):
    name = raw.get(f"{section}.name", "zero")
    params = {}
    for key, value in raw.items():
        head, _, tail = key.partition(".")
        if head != section or tail == "name":
            continue
        try:
            params[tail] = _finite(key, float(value))
        except ValueError:
            raise ConfigError(
                f"{key!r}: parameter must be numeric, got {value!r}", key=key
            ) from None
    try:
        if section == "R":
            return make_nonlocal(name, **params)
        return make_coefficient(name, p, **params)
    except KeyError as exc:
        raise ConfigError(str(exc.args[0]), key=f"{section}.name") from None
    except TypeError as exc:
        raise ConfigError(
            f"bad parameters for {section}.name={name}: {exc}", key=section
        ) from None
    except ValueError as exc:
        raise ConfigError(str(exc), key=section) from None


def build_problem(raw: dict):
    """(QsdeProblem, SolveSettings) from a raw mapping as returned by
    :func:`parse_config`."""
    fixed = dict(_DEFAULTS)
    for key in _FIXED_KEYS:
        if key in raw:
            fixed[key] = _convert(key, raw[key])

    try:
        driver = Driver(fixed["driver.kind"], complex(fixed["driver.alpha1"]),
                        complex(fixed["driver.alpha2"]))
    except ConfigurationError as exc:
        raise ConfigError(str(exc), key="driver.kind") from None

    mode = fixed["solve.nonlocal_mode"]
    if mode not in NONLOCAL_MODES:
        raise ConfigError(
            f"solve.nonlocal_mode must be one of {NONLOCAL_MODES}, "
            f"got {mode!r}",
            key="solve.nonlocal_mode",
        )

    try:
        grid = TimeGrid.uniform(fixed["grid.t0"], fixed["grid.T"],
                                fixed["grid.n"])
    except ValueError as exc:
        raise ConfigError(str(exc), key="grid.T") from None
    try:
        space = make_space(grid, layout=driver.required_layout,
                           max_generators=fixed["grid.max_generators"])
    except CliffsdeError as exc:
        raise ConfigError(str(exc), key="grid.n") from None

    p = fixed["p"]
    if not 2 < p < math.inf:
        raise ConfigError(f"p must be finite and > 2, got p={p!r}", key="p")
    F = _coefficient_section(raw, "F", p)
    G = _coefficient_section(raw, "G", p)
    H = _coefficient_section(raw, "H", p)
    R = _coefficient_section(raw, "R", p)

    z = None
    for key, value in raw.items():
        head, _, tail = key.partition(".")
        if head != "Z":
            continue
        subset = _monomial_subset(key, tail)
        if subset and max(subset) >= space.n_gen:
            raise ConfigError(
                f"{key!r}: generator index exceeds the {space.n_gen} "
                f"generators of this grid",
                key=key,
            )
        try:
            c = _finite(key, complex(value))
        except ValueError:
            raise ConfigError(
                f"{key!r}: coefficient must be a (complex) number, "
                f"got {value!r}",
                key=key,
            ) from None
        term = c * space.monomial(subset)
        z = term if z is None else z + term
    if z is None:
        z = space.identity()

    try:
        problem = QsdeProblem(
            space=space, F=F, G=G, H=H, R=R, Z=z, driver=driver, p=p,
            start_node=fixed["solve.start_node"], nonlocal_mode=mode,
        )
    except (CliffsdeError, ValueError) as exc:
        raise ConfigError(str(exc), key="solve") from None

    settings = SolveSettings(
        tol=fixed["solve.tol"],
        max_outer=fixed["solve.max_outer"],
        max_inner=fixed["solve.max_inner"],
    )
    return problem, settings


def load_problem(path: str):
    """Parse + build in one step from a file path."""
    with open(path, "r", encoding="utf-8") as fh:
        raw = parse_config(fh.read())
    return build_problem(raw)
