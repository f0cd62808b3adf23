"""Coefficient maps, nonlocal maps, and the construction-time spot checks."""

import numpy as np
import pytest

from cliffsde import (
    COEFFICIENTS,
    CoefficientMap,
    ContractViolationError,
    NONLOCAL_MAPS,
    NonlocalMap,
    OsgoodModulus,
    TimeGrid,
    conditional_expect,
    lp_norm,
    make_coefficient,
    make_nonlocal,
    make_space,
    parity_decompose,
    random_level_element,
    validate_coefficient,
    validate_nonlocal,
)

P = 4.0

_SP = make_space(TimeGrid.uniform(0.0, 1.0, 4))


# -- registries ---------------------------------------------------------------


@pytest.mark.parametrize("name", sorted(COEFFICIENTS))
def test_builtin_coefficients_pass_their_own_contract(name):
    cmap = make_coefficient(name, P)
    validate_coefficient(cmap, _SP, P, seed=3, trials=8)


@pytest.mark.parametrize("name", sorted(NONLOCAL_MAPS))
def test_builtin_nonlocal_maps_pass_their_own_contract(name):
    rmap = make_nonlocal(name)
    validate_nonlocal(rmap, _SP, P, seed=3, trials=8)


def test_unknown_names_rejected():
    with pytest.raises(KeyError):
        make_coefficient("fourier", P)
    with pytest.raises(KeyError):
        make_nonlocal("fourier")


def test_scale_map_values(space4):
    cmap = make_coefficient("scale", P, c=0.5)
    x = space4.generator(0)
    assert cmap(x, 0.3).is_close(0.5 * x, tol=0.0)
    assert cmap.is_lipschitz
    assert cmap.modulus.lipschitz_constant == 0.5


def test_constant_map_ignores_input(space4):
    cmap = make_coefficient("constant", P, c=2.0)
    assert cmap(space4.generator(1), 0.1).is_close(2.0 * space4.identity(), tol=0.0)
    assert cmap.modulus.lipschitz_constant == 0.0


def test_even_sa_map_flags(space4, rng):
    cmap = make_coefficient("even_sa", P, c=1.0)
    assert cmap.parity_even and cmap.selfadjoint_preserving
    x = random_level_element(space4, rng)
    img = cmap(0.5 * (x + x.adjoint()), 0.0)
    assert img.selfadjoint_defect() < 1e-12
    _, odd = parity_decompose(img)
    assert lp_norm(odd, 2.0) < 1e-12


def test_radial_map_is_osgood_not_lipschitz():
    cmap = make_coefficient("radial_osgood", P, scale=0.5)
    assert not cmap.is_lipschitz
    assert cmap.modulus.kind == "osgood"


def test_radial_map_fixes_zero(space4):
    cmap = make_coefficient("radial_osgood", P)
    assert cmap(space4.zero(), 0.0).is_close(space4.zero(), tol=0.0)


def test_radial_map_respects_declared_modulus(space4, rng):
    cmap = make_coefficient("radial_osgood", P, scale=1.0)
    worst = 0.0
    for _ in range(200):
        scale = 10.0 ** rng.uniform(-6, 1)
        x = scale * random_level_element(space4, rng)
        y = scale * random_level_element(space4, rng)
        gap2 = lp_norm(x - y, P) ** 2
        if gap2 == 0.0:
            continue
        moved2 = lp_norm(cmap(x, 0.0) - cmap(y, 0.0), P) ** 2
        worst = max(worst, moved2 / cmap.modulus(gap2))
    assert worst <= 1.0


# -- validator rejections --------------------------------------------------------


def test_validator_rejects_wrong_lipschitz_declaration():
    liar = CoefficientMap(fn=lambda x, t: 2.0 * x,
                          modulus=OsgoodModulus.from_lipschitz(1.0),
                          name="liar")
    with pytest.raises(ContractViolationError, match="modulus"):
        validate_coefficient(liar, _SP, P)


def test_validator_rejects_level_violation():
    late = CoefficientMap(fn=lambda x, t: x.space.generator(3),
                          modulus=OsgoodModulus.from_lipschitz(0.0),
                          name="late")
    with pytest.raises(ContractViolationError, match="level"):
        validate_coefficient(late, _SP, P)


def test_validator_start_node_relaxes_levels():
    # constant e0 is level-1 measurable: fine for problems starting at node 1
    emap = CoefficientMap(fn=lambda x, t: x.space.generator(0),
                          modulus=OsgoodModulus.from_lipschitz(0.0),
                          name="const_e0")
    with pytest.raises(ContractViolationError):
        validate_coefficient(emap, _SP, P, start_node=0)
    validate_coefficient(emap, _SP, P, start_node=1)


def test_validator_rejects_time_discontinuity():
    step = CoefficientMap(
        fn=lambda x, t: x if t < 0.4 else 2.0 * x,
        modulus=OsgoodModulus.from_lipschitz(2.0),
        name="step",
    )
    with pytest.raises(ContractViolationError, match="refinement"):
        validate_coefficient(step, _SP, P)


def test_validator_accepts_smooth_time_dependence():
    validate_coefficient(make_coefficient("cos_scale", P, c=0.5, omega=3.0),
                         _SP, P)


def test_validator_rejects_false_selfadjoint_flag():
    liar = CoefficientMap(fn=lambda x, t: 1j * x,
                          modulus=OsgoodModulus.from_lipschitz(1.0),
                          selfadjoint_preserving=True,
                          name="skew")
    with pytest.raises(ContractViolationError, match="self-adjoint"):
        validate_coefficient(liar, _SP, P)


def test_validator_rejects_false_parity_flag():
    liar = CoefficientMap(fn=lambda x, t: x,
                          modulus=OsgoodModulus.from_lipschitz(1.0),
                          parity_even=True,
                          selfadjoint_preserving=True,
                          name="odd")
    with pytest.raises(ContractViolationError, match="odd part"):
        validate_coefficient(liar, _SP, P)


def test_nonlocal_contraction_range_enforced():
    with pytest.raises(ValueError):
        NonlocalMap(fn=lambda x: x, contraction=1.0)
    with pytest.raises(ValueError):
        NonlocalMap(fn=lambda x: x, contraction=-0.1)
    with pytest.raises(ValueError):
        make_nonlocal("scale", c=1.5)


def test_nonlocal_validator_rejects_false_contraction():
    liar = NonlocalMap(fn=lambda x: 0.9 * x, contraction=0.5, name="liar")
    with pytest.raises(ContractViolationError, match="contraction"):
        validate_nonlocal(liar, _SP, P)


def test_nonlocal_validator_rejects_nonzero_zero_map(space4):
    liar = NonlocalMap(fn=lambda x: 0.5 * x, contraction=0.0, name="fake_zero")
    with pytest.raises(ContractViolationError, match="zero"):
        validate_nonlocal(liar, _SP, P)


def test_nonlocal_validator_rejects_level_violation():
    late = NonlocalMap(fn=lambda x: 0.1 * x.space.generator(3),
                       contraction=0.5, name="late")
    with pytest.raises(ContractViolationError, match="level"):
        validate_nonlocal(late, _SP, P)


def test_conditional_scale_contracts(space4, rng):
    rmap = make_nonlocal("conditional_scale", c=0.5, level=0)
    x = random_level_element(space4, rng)
    assert rmap(x).is_close(0.5 * conditional_expect(x, 0), tol=1e-14)
    assert rmap.contraction == 0.5
    assert not rmap.is_zero


@pytest.mark.parametrize("level", [0.7, -1, -0.5, float("nan"), float("inf")])
def test_conditional_scale_rejects_a_non_level(level):
    with pytest.raises(ValueError, match="level"):
        make_nonlocal("conditional_scale", c=0.5, level=level)


def test_conditional_scale_takes_an_integral_float_level(space4, rng):
    rmap = make_nonlocal("conditional_scale", c=0.5, level=2.0)
    assert rmap.name == "conditional_scale(0.5,2)"
    x = random_level_element(space4, rng)
    assert rmap(x).is_close(0.5 * conditional_expect(x, 2), tol=0.0)


def test_zero_nonlocal_map(space4):
    rmap = make_nonlocal("zero")
    assert rmap.is_zero
    assert rmap(space4.identity()).is_close(space4.zero(), tol=0.0)
