"""Coefficient maps, nonlocal maps, and the construction-time spot checks."""

import dataclasses
import math
import re
from itertools import pairwise

import numpy as np
import pytest
from hypothesis import given, reject, settings
from hypothesis import strategies as st

from cliffsde import (
    COEFFICIENTS,
    PROBLEMS,
    CoefficientMap,
    ConfigurationError,
    ContractViolationError,
    Driver,
    NONLOCAL_MAPS,
    NonlocalMap,
    OsgoodModulus,
    OsgoodViolationError,
    QsdeProblem,
    TimeGrid,
    build_problem,
    conditional_expect,
    forward_euler_oracle,
    lp_norm,
    make_coefficient,
    make_nonlocal,
    make_problem,
    make_space,
    parity_decompose,
    picard_solve,
    random_level_element,
    residual,
    validate_coefficient,
    validate_nonlocal,
)
from cliffsde import coefficients, solver
from cliffsde.element import lp_norms

P = 4.0

_SP = make_space(TimeGrid.uniform(0.0, 1.0, 4))


# -- registries ---------------------------------------------------------------


def _twin(m):
    """m's unproven twin: the same fields under a new identity, which the
    validators check in full."""
    return dataclasses.replace(m)


@pytest.mark.parametrize("name", sorted(COEFFICIENTS))
def test_builtin_coefficients_pass_their_own_contract(name):
    cmap = _twin(make_coefficient(name, P))
    validate_coefficient(cmap, _SP, P)


@pytest.mark.parametrize("name", sorted(NONLOCAL_MAPS))
def test_builtin_nonlocal_maps_pass_their_own_contract(name):
    rmap = _twin(make_nonlocal(name))
    validate_nonlocal(rmap, _SP, P)


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


def test_validation_evaluates_where_the_solve_does():
    # the probes run on each node's level space; the embedding check adds
    # one evaluation in the next larger space per boundary, the full space
    # after the largest level space; the 2n + 1 and 8n + 1 continuity
    # samples see a scalar on level_space(start_node)
    sp = make_space(TimeGrid.uniform(0.0, 1.0, 6))
    n = sp.grid.n
    node_of = {t: k for k, t in enumerate(sp.grid.nodes)}
    seen = []

    def fn(x, t):
        seen.append((x.space, t))
        return 0.5 * x

    rec = CoefficientMap(fn=fn, modulus=OsgoodModulus.from_lipschitz(0.5),
                         name="recording")
    samples = 10 * n + 2
    for start_node in (0, 3):
        seen.clear()
        validate_coefficient(rec, sp, P, start_node=start_node)
        probes, continuity = seen[:-samples], seen[-samples:]
        assert sp.level_space(start_node) is not sp
        assert all(s is sp.level_space(start_node) for s, _ in continuity)
        chain = [(k, sp.level_space(k)) for k in range(start_node, n + 1)]
        up = [(k, b) for (k, a), (_, b) in pairwise(chain) if b is not a]
        lifted = [(node_of[t], s) for s, t in probes
                  if s is not sp.level_space(node_of[t])]
        assert lifted == up and up[-1][1] is sp
        # the full space: at the nodes whose level space it is, and at the
        # top boundary
        full = {node_of[t] for s, t in probes if s is sp}
        top = {k for k in range(n + 1) if sp.level_space(k) is sp}
        assert up[-1][0] in full <= top | {up[-1][0]}
        assert len(probes) > 2 * len(up)


def test_continuity_check_space_follows_the_start_node():
    # constant e2 is level-3 measurable; level_space(0) has no e2 to give
    e2 = CoefficientMap(fn=lambda x, t: x.space.generator(2),
                        modulus=OsgoodModulus.from_lipschitz(0.0),
                        name="const_e2")
    sp = make_space(TimeGrid.uniform(0.0, 1.0, 6))
    validate_coefficient(e2, sp, P, start_node=3)
    with pytest.raises(ContractViolationError):
        validate_coefficient(e2, sp, P, start_node=0)


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


def test_nonlocal_validator_rejects_false_selfadjoint_flag():
    # R's flag went unchecked: this problem built, and its solve broke
    # self-adjointness (selfadjoint_solve_check read a defect of 1.19)
    skew = NonlocalMap(fn=lambda x: 0.3j * x, contraction=0.3,
                       selfadjoint_preserving=True)
    with pytest.raises(ContractViolationError,
                       match=r"^R \(unnamed\): declared selfadjoint_preserving"):
        make_problem("selfadjoint_nonlocal").replace(R=skew)
    with pytest.raises(ContractViolationError, match="self-adjointness"):
        validate_nonlocal(skew, _SP, P)
    validate_nonlocal(dataclasses.replace(skew, selfadjoint_preserving=False),
                      _SP, P)


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


# -- the embedding contract of the level-factored solve -------------------------


def _dim_dependent_scale(consts: dict, name: str = "by_dim") -> CoefficientMap:
    """x -> c * x with c looked up by the dimension of x's space."""
    return CoefficientMap(fn=lambda x, t: consts[x.space.dim] * x,
                          modulus=OsgoodModulus.from_lipschitz(
                              max(consts.values())),
                          name=name)


@pytest.mark.parametrize("seed", [0, 1, 7, 0x5DE, 2**32 - 1])
def test_a_map_that_differs_only_at_full_size_is_rejected(monkeypatch, seed):
    # F = 0.5 x on the full space, 0.25 x on every level space: Lipschitz
    # 0.5 everywhere, but the factored solve evaluates the 0.25 branch and
    # lands 0.283 away from the Euler oracle, which residual() cannot see
    prob = make_problem("linear_field", n=6)
    full = prob.space.dim
    consts = {2 ** f: 0.25 for f in range(1, prob.space.factors)}
    bad = _dim_dependent_scale({**consts, full: 0.5}, name="half_on_full")
    unchecked = prob.replace(F=bad, validate=False)
    report = picard_solve(unchecked)
    oracle = forward_euler_oracle(unchecked)
    assert max(lp_norm(a - b, P) for a, b in zip(
        report.trajectory.values, oracle.values)) > 0.28
    assert residual(report.trajectory, unchecked) < 1e-12
    monkeypatch.setattr(coefficients, "_VALIDATION_SEED", seed)
    with pytest.raises(ContractViolationError,
                       match=r"^F \(half_on_full\): the image of a level "
                             r"factor embedded in dimension 8 "):
        prob.replace(F=bad)


def test_a_standalone_validator_draws_the_probes_of_a_problem_build():
    # one probe draw: on its own and in the build, the check fails at the
    # same boundary with the same gap, and only the label differs
    prob = make_problem("linear_field", n=6)
    consts = {2 ** f: 0.25 for f in range(1, prob.space.factors)}
    bad = _dim_dependent_scale({**consts, prob.space.dim: 0.5},
                               name="half_on_full")
    with pytest.raises(ContractViolationError) as alone:
        validate_coefficient(bad, prob.space, prob.p)
    with pytest.raises(ContractViolationError) as built:
        prob.replace(F=bad)
    message = str(alone.value).removeprefix("half_on_full: ")
    assert message.startswith("the image of a level factor embedded in ")
    assert str(built.value) == f"F (half_on_full): {message}"


@pytest.mark.parametrize("role", ["F", "G", "H", "R"])
def test_a_map_that_raises_on_a_level_space_is_named(role):
    # generator 3 exists on the full n = 4 space, not on level_space(0)
    prob = make_problem("linear_field", n=4)
    if role == "R":
        late = NonlocalMap(fn=lambda x: 0.1 * x.space.generator(3),
                           contraction=0.5, name="late")
    else:
        late = CoefficientMap(fn=lambda x, t: x.space.generator(3),
                              modulus=OsgoodModulus.from_lipschitz(0.0),
                              name="late")
    with pytest.raises(ContractViolationError,
                       match=rf"^{role} \(late\): raised IndexError "
                             r"\(generator index 3 outside 0\.\.1\) on a "
                             r"level factor of dimension 2 at node 0$"):
        prob.replace(**{role: late})


@pytest.mark.parametrize("role", ["F", "G", "H", "R"])
def test_a_map_that_returns_another_space_is_named(role):
    prob = make_problem("linear_field", n=4)
    full = prob.space.identity()
    if role == "R":
        closure = NonlocalMap(fn=lambda x: 0.1 * full, contraction=0.5,
                              name="closure")
    else:
        closure = CoefficientMap(fn=lambda x, t: full, name="closure",
                                 modulus=OsgoodModulus.from_lipschitz(0.0))
    with pytest.raises(ContractViolationError,
                       match=rf"^{role} \(closure\): returned an element of "
                             r"another space than its level factor's at "
                             r"node 0$"):
        prob.replace(**{role: closure})


def _off_the_grid(prob, off) -> CoefficientMap:
    """0.5 x at the grid's nodes; ``off(x)`` between them, where only the
    continuity samples run."""
    nodes = set(prob.space.grid.nodes.tolist())
    return CoefficientMap(fn=lambda x, t: 0.5 * x if t in nodes else off(x),
                          modulus=OsgoodModulus.from_lipschitz(0.5),
                          name="off_grid")


@pytest.mark.parametrize("role", ["F", "G", "H"])
def test_a_map_that_raises_off_the_grid_is_named(role):
    # the continuity samples called the map bare: this escaped as a
    # ValueError with no map named
    prob = make_problem("linear_field", n=4)

    def off(x):
        raise ValueError("between the nodes")

    with pytest.raises(ContractViolationError,
                       match=rf"^{role} \(off_grid\): raised ValueError "
                             r"\(between the nodes\) on a level factor of "
                             r"dimension 2 at t=0\.125$"):
        prob.replace(**{role: _off_the_grid(prob, off)})


@pytest.mark.parametrize("role", ["F", "G", "H"])
def test_a_map_that_returns_another_space_off_the_grid_is_named(role):
    # this escaped as ConfigurationError("elements belong to different
    # spaces"), with no key and no map named
    prob = make_problem("linear_field", n=4)
    full = prob.space.identity()
    with pytest.raises(ContractViolationError,
                       match=rf"^{role} \(off_grid\): returned an element of "
                             r"another space than its level factor's at "
                             r"t=0\.125$"):
        prob.replace(**{role: _off_the_grid(prob, lambda x: full)})


# -- certified validation: the zero map is proved, scalar maps are bounded ----


def test_validation_forms_no_image_of_the_zero_map(monkeypatch):
    calls = []

    def counted(x, *t):
        calls.append(x.space.dim)
        return x.space.zero()

    monkeypatch.setattr(coefficients, "_zero_image", counted)
    prob = make_problem("osgood_radial", n=8, max_generators=8)
    assert [coefficients._is_zero_map(getattr(prob, r)) for r in "FGHR"] \
        == [False, True, True, True]
    assert calls == []
    prob.replace(start_node=3)
    assert calls == []


def test_the_zero_maps_declared_modulus_is_still_read():
    # its image is 0, so the squared increment is 0.0 at every gap, and a
    # modulus below 0 there fails with the message of a formed image
    prob = make_problem("linear_field", n=4)
    negative = CoefficientMap(
        fn=coefficients._zero_image,
        modulus=OsgoodModulus(rho=lambda r: -r, kind="osgood"),
        name="negative")
    gap2 = coefficients.draw_probes(prob.space, prob.p)[0][0][4] ** 2
    want = (f"G (negative): squared increment {0.0:.6e} exceeds the declared "
            f"modulus bound {-gap2:.6e} at gap^2 {gap2:.3e}")
    with pytest.raises(ContractViolationError, match=f"^{re.escape(want)}$"):
        prob.replace(G=negative)


@pytest.mark.parametrize("c", [0.5, -1.25, 3.0])
def test_an_exactly_declared_scale_map_takes_no_exact_norm(monkeypatch, c):
    # the bound |g| gap + r ||w - g u||_2 is tight for w = c u, so neither
    # the modulus nor the contraction check forms a Gram product
    sp = make_space(TimeGrid.uniform(0.0, 1.0, 8))
    probes = coefficients.draw_probes(sp, P)
    exact = []
    monkeypatch.setattr(coefficients, "lp_norm",
                        lambda x, p: exact.append(x) or lp_norm(x, p))
    validate_coefficient(_twin(make_coefficient("scale", P, c=c)), sp, P,
                         probes=probes)
    validate_nonlocal(_twin(make_nonlocal("scale", c=c / 4)), sp, P,
                      probes=probes)
    assert exact == []


def test_a_nan_bound_takes_the_exact_norm():
    x, y = _SP.identity(), _SP.zero()
    w = _SP.element(np.full((_SP.dim, _SP.dim), np.nan))
    with np.errstate(invalid="ignore"):
        got = coefficients._increment_norm(w, x, y, 1.0, P,
                                           lambda b: b <= 1.0)
    assert math.isnan(got)


def _verdict(check) -> str | None:
    try:
        check()
    except ContractViolationError as exc:
        return str(exc)
    return None


@settings(max_examples=60, deadline=None)
@given(n=st.integers(2, 10), data=st.data())
def test_the_increment_bound_gives_the_exact_checks_verdicts(n, data):
    # with the Hoelder factor patched to inf every bound is inf or NaN, so
    # every check takes the exact norm, as it did before the bound
    sp = make_space(TimeGrid.uniform(0.0, 1.0, n))
    start_node = data.draw(st.integers(0, n - 1), label="start_node")
    kind = data.draw(st.sampled_from(["scale", "cos_scale", "R"]),
                     label="kind")
    c = data.draw(st.floats(-0.99, 0.99) if kind == "R"
                  else st.floats(-4.0, 4.0), label="c")
    s = data.draw(st.sampled_from([-1e-6, -1e-10, 0.0, 1e-12, 1e-6]),
                  label="s")
    declared = abs(c) * (1 + s)
    if kind == "R":
        rmap = NonlocalMap(fn=lambda x: c * x, contraction=declared,
                           name="scaled")

        def check():
            validate_nonlocal(rmap, sp, P, start_node, role="R")
    else:
        params = {"omega": data.draw(st.sampled_from([0.0, 1.0, 3.0]),
                                     label="omega")} \
            if kind == "cos_scale" else {}
        cmap = dataclasses.replace(
            make_coefficient(kind, P, c=c, **params),
            modulus=OsgoodModulus.from_lipschitz(declared))

        def check():
            validate_coefficient(cmap, sp, P, start_node, role="F")
    got = _verdict(check)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(coefficients, "_lp_over_l2_bound", lambda dim, q: math.inf)
        assert got == _verdict(check)


def test_continuity_takes_one_lp_norms_call_per_refinement(monkeypatch):
    # each refinement's samples are stacked and their steps measured in
    # one call; stacks capped at a few samples (as a late start node's
    # large level space caps them) evaluate each sample once and give the
    # same jumps
    seen, stacks = [], []

    def fn(x, t):
        seen.append(t)
        return x if t < 0.4 else 2.0 * x

    step = CoefficientMap(fn=fn, modulus=OsgoodModulus.from_lipschitz(2.0),
                          name="step")
    probes = coefficients.draw_probes(_SP, P)
    monkeypatch.setattr(coefficients, "lp_norms",
                        lambda m, p: stacks.append(len(m)) or lp_norms(m, p))
    outcomes = []
    for chunk in (coefficients._CHUNK_BYTES, 1):
        monkeypatch.setattr(coefficients, "_CHUNK_BYTES", chunk)
        seen.clear()
        with pytest.raises(ContractViolationError, match="refinement") as exc:
            validate_coefficient(step, _SP, P, probes=probes)
        outcomes.append((str(exc.value), seen[-(10 * _SP.grid.n + 2):]))
    assert outcomes[0] == outcomes[1]
    n = _SP.grid.n
    assert stacks[:2] == [2 * n, 8 * n]
    assert sum(stacks[2:]) == 10 * n and max(stacks[2:]) == 2


def test_a_nan_image_at_the_end_time_is_rejected():
    # nan compares False with everything: `lhs2 > bound` and the continuity
    # check's `>` let this map through, and max() of the jumps dropped the
    # NaN of its last step
    prob = make_problem("linear_field", n=4)
    T = prob.space.grid.T
    nan_at_T = CoefficientMap(
        fn=lambda x, t: (math.nan if t == T else 0.5) * x,
        modulus=OsgoodModulus.from_lipschitz(0.5), name="nan_at_T")
    with pytest.raises(ContractViolationError, match=r"^F \(nan_at_T\): "):
        prob.replace(F=nan_at_T)


def test_a_nan_image_off_the_grid_is_rejected():
    # the probes see 0.5 x at the nodes; every continuity jump is NaN
    prob = make_problem("linear_field", n=4)
    off_grid = _off_the_grid(prob, lambda x: math.nan * x)
    with pytest.raises(ContractViolationError,
                       match=r"^F \(off_grid\): largest jump does not shrink "
                             r"under grid refinement \(nan -> nan\)"):
        prob.replace(F=off_grid)


def _sizes(name: str) -> st.SearchStrategy:
    # the pair layout has two generators per step: n <= 7 keeps it inside
    # the default budget
    return st.integers(2, 7 if name == "linear_pair" else 10)


@settings(max_examples=40, deadline=None)
@given(data=st.data(), name=st.sampled_from(sorted(PROBLEMS)))
def test_every_builtin_problem_is_accepted_at_every_start_node(data, name):
    n = data.draw(_sizes(name), label="n")
    prob = make_problem(name, n=n)
    prob = prob.replace(**{r: _twin(getattr(prob, r)) for r in "FGHR"})
    for start_node in range(1, n):
        assert prob.replace(start_node=start_node).start_node == start_node


@settings(max_examples=40, deadline=None)
@given(n=st.integers(2, 10), data=st.data())
def test_a_dimension_dependent_scale_is_rejected_iff_its_constants_differ(
        n, data):
    sp = make_space(TimeGrid.uniform(0.0, 1.0, n))
    start_node = data.draw(st.integers(0, n - 1), label="start_node")
    consts = {2 ** f: data.draw(st.sampled_from([0.25, 0.5]), label=f"c{f}")
              for f in range(1, sp.factors + 1)}
    seen = {consts[2 ** f]
            for f in range(sp.level_space(start_node).factors, sp.factors + 1)}
    prob = make_problem("linear_field", n=n).replace(start_node=start_node)
    if len(seen) == 1:
        prob.replace(F=_dim_dependent_scale(consts))
    else:
        with pytest.raises(ContractViolationError, match=r"^F \(by_dim\): "):
            prob.replace(F=_dim_dependent_scale(consts))


# -- the proven registry: linear maps with |c| <= 1 are not probed ------------

#: |c| <= 1 with its edges: +-1, signed zeros and subnormals
_UNIT = st.one_of(st.sampled_from([1.0, -1.0, 0.0, -0.0, 5e-324, -5e-324]),
                  st.floats(-1.0, 1.0))
#: |c| < 1, the nonlocal factories' own domain
_OPEN_UNIT = st.one_of(st.sampled_from([0.0, -0.0, 5e-324, -5e-324]),
                       st.floats(-1.0, 1.0, exclude_min=True,
                                 exclude_max=True))
_PROVEN_COEFFICIENTS = ["zero", "scale", "constant", "even_sa", "sa_scale"]


def _proven_coefficient(data, p: float) -> CoefficientMap:
    name = data.draw(st.sampled_from(_PROVEN_COEFFICIENTS + ["radial_osgood"]),
                     label="name")
    if name == "zero":
        return make_coefficient(name, p)
    c = data.draw(_UNIT, label="c")
    if name == "radial_osgood":
        try:
            return make_coefficient(name, p, scale=c)
        except (OsgoodViolationError, OverflowError):  # the certificate
            reject()  # fails at 0 and at |c| up to about 2e-155
    if name == "constant":
        c *= data.draw(st.sampled_from([1.0, 1j, -1j]), label="phase")
    return make_coefficient(name, p, c=c)


def _proven_nonlocal(data, n_gen: int) -> NonlocalMap:
    name = data.draw(st.sampled_from(sorted(NONLOCAL_MAPS)), label="R")
    if name == "zero":
        return make_nonlocal(name)
    params = {"c": data.draw(_OPEN_UNIT, label="R.c")}
    if name == "conditional_scale":
        params["level"] = data.draw(st.integers(0, n_gen + 1), label="level")
    return make_nonlocal(name, **params)


@settings(max_examples=200, deadline=None)
@given(n=st.integers(1, 12), data=st.data())
def test_the_unchanged_validators_accept_every_proven_maps_twin(n, data):
    # the proof behind the skip, checked by the probes it skips: every
    # linear registry map with |c| <= 1 and the radial map with |scale| <= 1,
    # under a new identity, pass the full validation of a problem build
    sp = make_space(TimeGrid.uniform(0.0, 1.0, n))
    p = data.draw(st.sampled_from([2.5, 3.0, 4.0, 6.0, 30.0]), label="p")
    F, G, H = (_proven_coefficient(data, p) for _ in "FGH")
    R = _proven_nonlocal(data, sp.n_gen)
    QsdeProblem(space=sp, F=_twin(F), G=_twin(G), H=_twin(H), R=_twin(R),
                Z=sp.identity(), driver=Driver.fermion_field(), p=p,
                start_node=data.draw(st.integers(0, n - 1), label="start"),
                nonlocal_mode=data.draw(st.sampled_from(["pointwise",
                                                         "initial"])))


@pytest.mark.parametrize("role, forged, message", [
    ("F", dataclasses.replace(make_coefficient("scale", P, c=0.5),
                              modulus=OsgoodModulus.from_lipschitz(0.25)),
     "F (scale(0.5)): squared increment 7.040408e-02 exceeds the declared "
     "modulus bound 1.760102e-02 at gap^2 2.816e-01"),
    ("F", dataclasses.replace(make_coefficient("sa_scale", P, c=0.5),
                              parity_even=True),
     "F (sa_scale(0.5)): declared parity_even but the image of a "
     "self-adjoint element has an odd part"),
    ("F", dataclasses.replace(make_coefficient("constant", P, c=0.5j),
                              selfadjoint_preserving=True),
     "F (constant(0.5j)): declared selfadjoint_preserving but breaks "
     "self-adjointness"),
    ("R", dataclasses.replace(make_nonlocal("scale", c=0.5), contraction=0.25),
     "R (scale(0.5)): moved 2.653377e-01 on a gap of 5.306753e-01, beyond "
     "the declared contraction 0.25"),
    ("R", dataclasses.replace(make_nonlocal("conditional_scale", c=0.5),
                              contraction=0.25),
     "R (conditional_scale(0.5,0)): moved 2.653377e-01 on a gap of "
     "5.306753e-01, beyond the declared contraction 0.25"),
])
def test_a_forged_twin_of_a_proven_map_is_rejected(role, forged, message):
    # a replace with an under-declared constant or a false flag is a new
    # object: it is probed, and fails with the message it always had
    prob = make_problem("nonlocal_linear", n=4)
    with pytest.raises(ContractViolationError, match=f"^{re.escape(message)}$"):
        prob.replace(**{role: forged})


@pytest.mark.parametrize("name, c, n, p, message", [
    ("sa_scale", 1e10, 6, 30.0,
     "F (sa_scale(10000000000.0)): squared increment nan exceeds the "
     "declared modulus bound 2.122145e+21 at gap^2 2.122e+01"),
    ("scale", 1.7e308, 3, 4.0,
     "F (scale(1.7e+308)): image of a level-1 element leaves the level "
     "algebra (defect nan)"),
    ("scale", 1.7e308, 8, 4.0, None),
])
def test_a_registry_map_outside_the_proven_domain_keeps_its_verdict(
        name, c, n, p, message):
    # beyond |c| <= 1 the verdict depends on the probes, n and p, so these
    # maps keep their probes
    prob = make_problem("linear_field", n=n).replace(p=p)
    cmap = make_coefficient(name, p, c=c)
    if message is None:
        prob.replace(F=cmap)
        return
    with pytest.raises(ContractViolationError, match=f"^{re.escape(message)}$"):
        prob.replace(F=cmap)


def test_the_registry_proves_exactly_its_linear_maps_with_unit_c():
    # at every p; the radial map's proof holds at its own p alone (below)
    proven = [make_coefficient("zero", P), make_nonlocal("zero"),
              *(make_coefficient(name, P, c=c)
                for name in _PROVEN_COEFFICIENTS[1:] for c in (1.0, -1.0, 0.0)),
              make_coefficient("constant", P, c=1j),
              make_nonlocal("scale", c=-0.5),
              make_nonlocal("conditional_scale", c=0.5, level=3)]
    assert all(coefficients._is_proven(m, p) for m in proven
               for p in (P, 3.0))
    unproven = [
        *(make_coefficient(name, P, c=c) for name in _PROVEN_COEFFICIENTS[1:]
          for c in (math.nextafter(1.0, 2.0), -3.0)),
        make_coefficient("cos_scale", P, c=0.5),
        # a twin, a copy and a hand-built map with a proven map's fn
        _twin(proven[2]), dataclasses.replace(proven[2], name="renamed"),
        CoefficientMap(fn=proven[2].fn, modulus=proven[2].modulus),
        NonlocalMap(fn=proven[-1].fn, contraction=0.5)]
    assert not any(coefficients._is_proven(m, P) for m in unproven)


def test_a_validator_returns_at_once_for_a_proven_map(monkeypatch):
    def no_probes(*args):
        raise AssertionError("a proven map drew probes")

    monkeypatch.setattr(coefficients, "draw_probes", no_probes)
    validate_coefficient(make_coefficient("even_sa", P, c=0.5), _SP, P)
    validate_nonlocal(make_nonlocal("conditional_scale"), _SP, P)
    with pytest.raises(AssertionError, match="drew probes"):
        validate_coefficient(make_coefficient("cos_scale", P), _SP, P)


def test_a_proven_build_draws_no_probes_and_runs_no_validator(monkeypatch):
    calls = []
    for name in ("draw_probes", "validate_coefficient", "validate_nonlocal"):
        def counted(*args, _name=name, _real=getattr(solver, name), **kw):
            calls.append(_name)
            return _real(*args, **kw)
        monkeypatch.setattr(solver, name, counted)
    # every built-in problem's maps are proven, osgood_radial's radial F
    # among them
    for name in sorted(PROBLEMS):
        make_problem(name, n=4)
    assert calls == []


# -- the radial map: proven at its own p with |scale| <= 1 -----------------------


def test_the_radial_map_is_proven_at_its_own_p_with_unit_scale():
    for p in (2.5, P, 30.0):
        for scale in (1.0, -1.0, 0.5, 1e-150):
            radial = make_coefficient("radial_osgood", p, scale=scale)
            assert coefficients._is_proven(radial, p)
            assert not coefficients._is_proven(radial, 3.0)
            assert not coefficients._is_proven(_twin(radial), p)
        for scale in (math.nextafter(1.0, 2.0), -1.5, 1e150):
            radial = make_coefficient("radial_osgood", p, scale=scale)
            assert not coefficients._is_proven(radial, p)


def test_the_radial_map_outside_its_proven_domain_keeps_its_probes(
        monkeypatch):
    # an identity-only proof would skip these three builds' probes
    draws = []

    def counted(*args, _real=solver.draw_probes, **kw):
        draws.append(args[1])  # the probes' p
        return _real(*args, **kw)

    monkeypatch.setattr(solver, "draw_probes", counted)
    prob = make_problem("osgood_radial", n=4)
    assert draws == []
    # a map measured at p = 3 in a p = 4 problem
    prob.replace(F=make_coefficient("radial_osgood", 3.0, scale=0.5))
    # the problem moved to p = 3, its F still measuring at p = 4
    prob.replace(p=3.0)
    # |scale| > 1
    build_problem({"grid.n": 4, "F.name": "radial_osgood", "F.scale": 1.5})
    assert draws == [P, 3.0, P]


_RADIAL_SCALES = [1.0, -1.0, 0.5, 1.5, -3.0, 1e10, 1e153, 5e153,
                  # rejected by the Osgood certificate: 4 scale^2 is 0 or
                  # underflows, or it overflows
                  0.0, 1e-300, -1e-300, 1e154, -1e200]


def _build_verdict(raw: dict) -> str | None:
    try:
        with np.errstate(all="ignore"):
            build_problem(raw)
    except ConfigurationError as exc:
        return f"{exc.key}: {exc}"
    return None


@pytest.mark.parametrize("scale", _RADIAL_SCALES)
def test_the_radial_proof_changes_no_builds_verdict(monkeypatch, scale):
    # the probes reject no radial_osgood configuration of this grid: each
    # build that exits 2 (config error) is rejected by the factory's
    # certificate, with or without the proof
    raws = [{"grid.n": n, "p": p, "F.name": "radial_osgood", "F.scale": scale,
             "solve.start_node": start}
            for n in (1, 2, 3) for p in (2.5, 3.0, P, 6.0, 30.0)
            for start in range(n)]
    proven = [_build_verdict(raw) for raw in raws]
    monkeypatch.setattr(solver, "_is_proven", lambda m, p: False)
    assert proven == [_build_verdict(raw) for raw in raws]
    rejected = {v for v in proven if v is not None}
    assert bool(rejected) == (scale in _RADIAL_SCALES[8:])
    assert all(v.startswith("F: radial_rho(") for v in rejected)


def _unit(sp, rng, p: float):
    u = random_level_element(sp, rng)
    return u * (1.0 / lp_norm(u, p))


#: Norms and gaps of the radial pairs: 0, either side of the floor, and
#: 1e-17 to 1e3
_RADIAL_NORMS = st.one_of(
    st.sampled_from([0.0, coefficients.RADIAL_EPS0,
                     math.nextafter(coefficients.RADIAL_EPS0, 0.0),
                     0.5 * coefficients.RADIAL_EPS0,
                     2.0 * coefficients.RADIAL_EPS0]),
    st.floats(-17.0, 3.0).map(lambda e: 10.0 ** e))


@settings(max_examples=300, deadline=None)
@given(data=st.data())
def test_the_radial_maps_increments_stay_inside_its_proof(data):
    # the proof bounds ||f(x) - f(y)||_p^2 by 0.623 of the declared modulus
    # (0.52 where the floor binds); checked on collinear, antipodal, zero
    # and floor-straddling pairs.  The gap stays above 1e-9 of the larger
    # norm, where the norms' own rounding is far below the bound
    p = data.draw(st.sampled_from([2.5, 3.0, 4.0, 6.0, 30.0]), label="p")
    sp = make_space(TimeGrid.uniform(0.0, 1.0, data.draw(st.integers(1, 6))))
    rng = np.random.default_rng(data.draw(st.integers(0, 2 ** 32 - 1)))
    radial = make_coefficient("radial_osgood", p,
                              scale=data.draw(st.sampled_from([1.0, -0.5])))
    kind = data.draw(st.sampled_from(["collinear", "antipodal", "zero",
                                      "general"]), label="kind")
    a, u = data.draw(_RADIAL_NORMS, label="norm"), _unit(sp, rng, p)
    x = a * u
    if kind == "zero":
        y = sp.zero()
    elif kind == "general":
        gap = 10.0 ** data.draw(st.floats(-16.0, 3.0), label="log gap")
        y = x + gap * _unit(sp, rng, p)
    else:
        b = data.draw(_RADIAL_NORMS, label="other norm")
        y = (b if kind == "collinear" else -b) * u
    gap = lp_norm(x - y, p)
    if not gap > 1e-9 * max(lp_norm(x, p), lp_norm(y, p)):
        reject()
    moved = lp_norm(radial(x, 0.0) - radial(y, 0.0), p)
    assert moved * moved <= 0.65 * radial.modulus(gap * gap)

