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
offending key.  Numeric values must be finite, and each fixed key must lie
in the domain its ``_SCHEMA`` entry names.  :func:`build_problem` also
accepts typed values, as the built-in problems of :mod:`.problems` use.
"""

from __future__ import annotations

import cmath
import re
from dataclasses import dataclass

from .coefficients import make_coefficient, make_nonlocal
from .errors import CliffsdeError, ConfigError
from .grid import TimeGrid
from .process import DRIVER_KINDS, Driver
from .solver import NONLOCAL_MODES, QsdeProblem
from .space import DEFAULT_MAX_GENERATORS, make_space

_MONOMIAL_RE = re.compile(r"^e(\d+(_\d+)*)?$")
_POSITIVE = (lambda v, fixed: v > 0, "> 0")

#: The fixed (non-free-form) keys: key -> (converter, default, domain).  A
#: domain is (test, words); the test sees the value and the keys above it.
_SCHEMA = {
    "p": (float, 4.0, (lambda v, fixed: v > 2, "> 2")),
    "grid.t0": (float, 0.0, None),
    "grid.T": (float, 1.0, None),
    "grid.n": (int, 8, _POSITIVE),
    "grid.max_generators": (int, DEFAULT_MAX_GENERATORS,
                            (lambda v, fixed: v >= 1, ">= 1")),
    "driver.kind": (str, "fermion_field",
                    (lambda v, fixed: v in DRIVER_KINDS,
                     f"one of {tuple(DRIVER_KINDS)}")),
    "driver.alpha1": (float, 1.0, None),
    "driver.alpha2": (float, 0.0, None),
    "solve.tol": (float, 1e-10, _POSITIVE),
    "solve.max_outer": (int, 60, _POSITIVE),
    "solve.max_inner": (int, 200, _POSITIVE),
    "solve.start_node": (int, 0, (lambda v, fixed: 0 <= v < fixed["grid.n"],
                                  "in 0..grid.n - 1")),
    "solve.nonlocal_mode": (str, "pointwise",
                            (lambda v, fixed: v in NONLOCAL_MODES,
                             f"one of {NONLOCAL_MODES}")),
}


@dataclass(frozen=True)
class SolveSettings:
    tol: float
    max_outer: int
    max_inner: int


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
    if key in _SCHEMA:
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


def _fixed_value(key: str, raw: dict, fixed: dict):
    """The converted, domain-checked value of a schema key."""
    conv, default, domain = _SCHEMA[key]
    if key not in raw:
        return default
    # non-text values (built-in problems, make_problem's arguments) take
    # the same text parse as file values, so 6.5 is not an int
    value = str(raw[key])
    try:
        out = conv(value)
    except ValueError:
        raise ConfigError(
            f"cannot read {key!r}: {value!r} is not a valid {conv.__name__}",
            key=key,
        ) from None
    if conv is float:
        _finite(key, out)
    if domain is not None and not domain[0](out, fixed):
        raise ConfigError(f"{key!r} must be {domain[1]}, got {out!r}",
                          key=key)
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


def _coefficient_section(raw: dict, section: str, p: float, n_gen: int):
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
    if section == "R" and "level" in params:
        level = params["level"]
        if not (level.is_integer() and 0 <= level <= n_gen):
            raise ConfigError(f"'R.level' must be an integer in 0..{n_gen}, "
                              f"got {level!r}", key="R.level")
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
    :func:`parse_config`, or one with typed values such as a built-in
    problem's."""
    fixed = {}
    for key in _SCHEMA:
        fixed[key] = _fixed_value(key, raw, fixed)
    driver = Driver(fixed["driver.kind"], complex(fixed["driver.alpha1"]),
                    complex(fixed["driver.alpha2"]))

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
    F, G, H, R = (_coefficient_section(raw, section, p, space.n_gen)
                  for section in "FGHR")

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
            start_node=fixed["solve.start_node"],
            nonlocal_mode=fixed["solve.nonlocal_mode"],
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
