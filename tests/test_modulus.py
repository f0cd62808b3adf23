"""Osgood moduli: the divergence certificate and the nonlinear
Gronwall/Bihari bound.

Certificate logic: the quadrature of 1/rho over successive decades
[10^-(k+1), 10^-k] must not decay geometrically.  For rho(r) = r each
decade contributes ln(10); for rho(r) = sqrt(r) the contributions shrink
by 10^(-1/2) per decade, which the certificate rejects.
"""

import math
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

import cliffsde
from cliffsde import (
    ArgumentError,
    ConvergenceError,
    OsgoodModulus,
    OsgoodViolationError,
    bihari_bound,
    certify_osgood,
    make_coefficient,
    make_modulus,
)

BIHARI_TOL = 1e-6


# -- certificate ------------------------------------------------------------


def test_linear_modulus_accepted():
    m = make_modulus("linear")
    assert m.is_lipschitz
    assert m.lipschitz_constant == 1.0
    assert m(2.0) == 2.0


def test_log_modulus_accepted():
    m = make_modulus("log")
    assert not m.is_lipschitz
    assert m(0.0) == 0.0
    assert m(1.0) == 1.0 * math.log(math.e + 1.0)


def test_sqrt_modulus_rejected():
    with pytest.raises(OsgoodViolationError, match="certificate"):
        make_modulus("sqrt")


def test_unknown_modulus_name():
    with pytest.raises(ValueError):
        make_modulus("quadratic")


def test_quadratic_rho_accepted():
    # rho(r) = r^2: int dr / r^2 diverges even faster than linearly
    incs = certify_osgood(lambda r: r * r, name="square")
    assert all(b > a for a, b in zip(incs, incs[1:]))


def test_linear_decade_increments_are_flat():
    incs = certify_osgood(lambda r: r, name="lin")
    for d in incs:
        assert abs(d - math.log(10.0)) < 1e-9


def test_rho_must_vanish_at_zero():
    with pytest.raises(OsgoodViolationError, match="rho\\(0\\)"):
        certify_osgood(lambda r: r + 1.0)


def test_rho_must_be_positive():
    with pytest.raises(OsgoodViolationError):
        certify_osgood(lambda r: 0.0)
    with pytest.raises(OsgoodViolationError):
        certify_osgood(lambda r: -r)


def test_rho_must_be_nondecreasing():
    # positive everywhere but decreasing between r = 0.1 and r = 1
    with pytest.raises(OsgoodViolationError, match="decreases"):
        certify_osgood(lambda r: r / (1.0 + 100.0 * r * r))


@pytest.mark.parametrize("dip, message", [
    (0.0, "dip: rho(1.0031550622234703e-05) = 0.0, so 1/rho is not finite"),
    (math.nan, "dip: divergence certificate failed — quadrature of 1/rho "
               "over decade 2 [1e-5, 1e-4] is nan, not finite"),
    (-1.0, "dip: divergence certificate failed — quadrature of 1/rho gains "
           "-9.000e-05 over decade 2"),
])
def test_a_rho_that_dips_between_the_samples_fails_under_its_label(dip,
                                                                   message):
    # rho(r) = r at the five shape samples; only the decade quadrature
    # reads the dip on (1e-5, 1e-4).  A 0 there raised ZeroDivisionError
    with pytest.raises(OsgoodViolationError, match=re.escape(message)):
        certify_osgood(lambda r: dip if 1e-5 < r < 1e-4 else r, name="dip")


@pytest.mark.parametrize("c, decade", [(1e-299, "7 [1e-10, 1e-9]"),
                                       (1e-300, "6 [1e-9, 1e-8]")])
def test_a_decade_quadrature_that_is_not_finite_fails_naming_it(c, decade):
    # 1/rho = 1/(c r^2) near the float limit on the sweep's last decades:
    # math.fsum's intermediate overflow, or an inf integrand
    with pytest.raises(OsgoodViolationError,
                       match=re.escape(f"decade {decade} is inf, not finite")):
        certify_osgood(lambda r: c * r * r)


@pytest.mark.parametrize("scale", [1e-157, 1.4e-155])
def test_a_radial_scale_near_the_float_floor_raises_the_named_error(scale):
    # its declared modulus 4 scale^2 r ln(e + 1/r) is about 1e-309
    with pytest.raises(OsgoodViolationError,
                       match=re.escape("decade 0 [1e-3, 1e-2] is inf")):
        make_coefficient("radial_osgood", 4.0, scale=scale)


def test_lipschitz_factory_validation():
    with pytest.raises(ValueError):
        OsgoodModulus.from_lipschitz(-1.0)
    m = OsgoodModulus.from_lipschitz(3.0)
    assert m(1.0) == 9.0  # L^2 r


@pytest.mark.parametrize("value", [math.nan, math.inf, -1.0])
def test_lipschitz_constant_and_scale_must_be_finite_and_non_negative(value):
    # a NaN constant was accepted and made every modulus bound NaN
    with pytest.raises(ArgumentError, match="^Lipschitz constant") as exc:
        OsgoodModulus.from_lipschitz(value)
    assert exc.value.key == "L"
    for name in ("linear", "log"):
        with pytest.raises(ArgumentError, match="^scale") as exc:
            make_modulus(name, scale=value)
        assert exc.value.key == "scale"


# -- Bihari bound -------------------------------------------------------------


def test_linear_case_matches_exponential():
    m = make_modulus("linear")
    for t in (0.25, 0.5, 1.0, 2.0):
        for u0 in (1.0, 0.5, 1e-8):
            bound = bihari_bound(u0, 1.0, m, t)
            exact = u0 * math.exp(t)
            assert abs(bound - exact) < BIHARI_TOL
            # the inverse stops on a relative, not an absolute, tolerance
            assert abs(bound - exact) <= 1e-12 * exact


def test_linear_case_with_constant_forcing():
    m = make_modulus("linear")
    assert abs(bihari_bound(3.0, 2.0, m, 1.0) - 3.0 * math.exp(2.0)) < BIHARI_TOL


def test_callable_forcing():
    m = make_modulus("linear")
    bound = bihari_bound(1.0, lambda s: s, m, 2.0)  # int phi = 2
    assert abs(bound - math.exp(2.0)) < BIHARI_TOL


def test_zero_start_propagates_exactly():
    m = make_modulus("linear")
    assert bihari_bound(0.0, 1.0, m, 1.0) == 0.0


def test_negative_start_rejected():
    m = make_modulus("linear")
    with pytest.raises(ValueError):
        bihari_bound(-0.1, 1.0, m, 1.0)


def test_time_ordering_enforced():
    m = make_modulus("linear")
    with pytest.raises(ValueError):
        bihari_bound(1.0, 1.0, m, 0.0, t0=0.5)


def test_negative_forcing_rejected():
    m = make_modulus("linear")
    with pytest.raises(ValueError):
        bihari_bound(1.0, -1.0, m, 1.0)


@pytest.mark.parametrize("args, key", [
    ({"u0": math.nan}, "u0"), ({"u0": math.inf}, "u0"), ({"u0": -0.1}, "u0"),
    ({"phi": math.nan}, "phi"), ({"phi": math.inf}, "phi"),
    ({"phi": -1.0}, "phi"), ({"phi": lambda s: -s}, "phi"),
    ({"t": math.nan}, "t"), ({"t": math.inf}, "t"),
    ({"t": 0.0, "t0": 0.5}, "t"), ({"t0": math.nan}, "t0"),
    ({"t0": -math.inf}, "t0"), ({"t": 1e308, "t0": -1e308}, "t"),
    ({"t": 1e308, "t0": -1e308, "phi": 0.0}, "t"),
])
def test_bihari_arguments_out_of_domain_are_named(args, key):
    # a NaN phi, t or t0 returned a bound (2.0 here), an infinite u0 or t
    # failed to bracket, a NaN u0 raised from inside the quadrature, and a
    # negative phi was not told apart from a negative u0; a span t - t0
    # that overflows failed to bracket, or with phi = 0 returned 2.0
    args = {"u0": 1.0, "phi": 1.0, "modulus": make_modulus("linear"),
            "t": 1.0, **args}
    with pytest.raises(ArgumentError, match=rf"^{key}\b") as exc:
        bihari_bound(**args)
    assert exc.value.key == key


def test_zero_horizon_returns_start():
    m = make_modulus("linear")
    assert bihari_bound(0.7, 1.0, m, 0.5, t0=0.5) == 0.7


def test_zero_lipschitz_never_grows():
    m = OsgoodModulus.from_lipschitz(0.0)
    assert bihari_bound(0.3, 5.0, m, 10.0) == 0.3


@pytest.mark.parametrize("modulus, u0, r", [
    (make_modulus("linear", 1e-155), 1e-300, "1.0009487229755075e-300"),
    (make_modulus("log", 1e-160), 1e-300, "1.0009487229755075e-300"),
    (make_modulus("linear", 5e-324), 1.0, "1.000948722975531"),
])
def test_a_rho_that_underflows_to_0_raises_naming_the_r(modulus, u0, r):
    # rho(r) underflowed to 0 inside the bracket, and 10^s / rho(10^s)
    # raised a bare ZeroDivisionError
    with pytest.raises(OsgoodViolationError, match=re.escape(
            f"{modulus.name}: rho({r}) = 0.0, so 1/rho is not finite")):
        bihari_bound(u0, 1.0, modulus, 1.0)


@pytest.mark.parametrize("scale", [9e-155, 1e-154, 1.05e-154])
def test_an_inverse_quadrature_that_overflows_bounds_at_the_start(scale):
    # 1/rho = 1 / scale^2 near the float limit: math.fsum's intermediate
    # overflow escaped; U(r) then grows past any finite int phi at once
    assert bihari_bound(1.0, 1.0, make_modulus("linear", scale), 1.0) == 1.0


def test_log_bound_dominates_linear():
    lin = make_modulus("linear")
    log = make_modulus("log")
    for t in (0.25, 1.0, 2.0):
        assert bihari_bound(1.0, 1.0, log, t) >= bihari_bound(1.0, 1.0, lin, t) - 1e-12


def test_unbracketed_inverse_raises():
    # the bound overflows before U(r) reaches int phi
    with pytest.raises(ConvergenceError, match="bracket"):
        bihari_bound(1e308, 1.0, make_modulus("linear"), 1.0)


def test_import_leaves_scipy_unloaded():
    code = "import sys, cliffsde; print('scipy' in sys.modules)"
    env = dict(os.environ,
               PYTHONPATH=str(Path(cliffsde.__file__).parents[1]))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env).stdout
    assert out == "False\n"


def test_log_bound_still_finite_from_small_start():
    log = make_modulus("log")
    b = bihari_bound(1e-8, 1.0, log, 1.0)
    assert math.isfinite(b)
    assert b > 1e-8
