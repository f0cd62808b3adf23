"""Flat-file configuration: parsing, schema errors, and problem assembly."""

import re
import warnings
from pathlib import Path

import pytest

from cliffsde import (
    PROBLEMS,
    ConfigurationError,
    build_problem,
    load_problem,
    make_problem,
    parse_config,
    picard_solve,
)
from cliffsde.process import DRIVER_KINDS

README = Path(__file__).resolve().parents[1] / "README.md"

FULL = """
# full example exercising every section
p = 6.0
grid.t0 = 0.5
grid.T = 1.5
grid.n = 4
driver.kind = fermion_field

F.name = scale
F.c = 0.5
G.name = cos_scale
G.c = 0.25
G.omega = 2.0
H.name = constant
H.c = 1.0
R.name = scale
R.c = 0.5

Z.e = 1.0
Z.e2 = 0.5+0.25j

solve.tol = 1e-9
solve.max_outer = 40
solve.nonlocal_mode = pointwise
solve.start_node = 2
"""


def test_full_roundtrip():
    prob, settings = build_problem(parse_config(FULL))
    assert prob.p == 6.0
    assert prob.space.grid.t0 == 0.5 and prob.space.grid.T == 1.5
    assert prob.space.grid.n == 4
    assert prob.F.name == "scale(0.5)"
    assert prob.G.name == "cos_scale(0.25,2.0)"
    assert prob.R.contraction == 0.5
    assert prob.start_node == 2
    assert prob.nonlocal_mode == "pointwise"
    z = prob.space.identity() + (0.5 + 0.25j) * prob.space.generator(1)
    assert prob.Z.is_close(z, tol=0.0)
    assert settings.tol == 1e-9
    assert settings.max_outer == 40
    assert settings.max_inner == 200


def test_defaults_from_empty_text():
    prob, settings = build_problem(parse_config("# nothing\n\n"))
    assert prob.p == 4.0
    assert prob.space.grid.n == 8
    assert prob.R.is_zero
    assert prob.Z.is_close(prob.space.identity(), tol=0.0)
    assert settings.tol == 1e-10


def test_pair_driver_config():
    text = "driver.kind = linear_combination\ndriver.alpha1 = 0.5\n" \
           "driver.alpha2 = 1.0\ngrid.n = 3\n"
    prob, _ = build_problem(parse_config(text))
    assert prob.space.layout == "pair"
    assert prob.space.n_gen == 6


def test_initial_nonlocal_mode_accepted():
    text = "R.name = scale\nR.c = 0.3\nsolve.nonlocal_mode = initial\ngrid.n = 4\n"
    prob, _ = build_problem(parse_config(text))
    assert prob.nonlocal_mode == "initial"


def test_load_problem_from_file(tmp_path):
    path = tmp_path / "prob.cfg"
    path.write_text("grid.n = 4\nF.name = scale\nF.c = 0.5\n")
    prob, settings = load_problem(str(path))
    assert prob.space.grid.n == 4
    assert settings.max_inner == 200


# -- parse errors ------------------------------------------------------------


def _key_of(excinfo):
    return excinfo.value.key


def test_line_without_equals():
    with pytest.raises(ConfigurationError) as e:
        parse_config("grid.n 8\n")
    assert _key_of(e) == "grid.n 8"


def test_empty_value():
    with pytest.raises(ConfigurationError) as e:
        parse_config("grid.n = \n")
    assert _key_of(e) == "grid.n"


def test_duplicate_key():
    with pytest.raises(ConfigurationError, match="duplicate") as e:
        parse_config("grid.n = 4\ngrid.n = 8\n")
    assert _key_of(e) == "grid.n"


def test_unknown_key():
    with pytest.raises(ConfigurationError, match="unknown") as e:
        parse_config("grid.steps = 8\n")
    assert _key_of(e) == "grid.steps"


def test_unknown_z_subkey():
    with pytest.raises(ConfigurationError) as e:
        parse_config("Z.foo = 1.0\n")
    assert _key_of(e) == "Z.foo"


# -- build errors ------------------------------------------------------------


def test_non_integer_step_count():
    with pytest.raises(ConfigurationError, match="int") as e:
        build_problem(parse_config("grid.n = eight\n"))
    assert _key_of(e) == "grid.n"


@pytest.mark.parametrize("value", ["inf", "-inf", "nan", "2.0", "1.5"])
def test_exponent_must_be_finite_and_above_two(value):
    with pytest.raises(ConfigurationError, match="p") as e:
        build_problem(parse_config(f"p = {value}\n"))
    assert _key_of(e) == "p"


#: config lines -> the key their build failure names
_BAD_DATA = {
    "Z.e = nan\n": "Z.e",
    "Z.e = inf\n": "Z.e",
    "Z.e = 1+nanj\n": "Z.e",
    "F.name = scale\nF.c = nan\n": "F.c",
    "F.name = scale\nF.c = inf\n": "F.c",
    "H.name = cos_scale\nH.omega = nan\n": "H.omega",
    "driver.alpha1 = nan\n": "driver.alpha1",
    "grid.T = inf\n": "grid.T",
    # finite, but it overflows the build's adaptedness spot checks
    "F.name = scale\nF.c = 1e308\n": "solve",
}


@pytest.mark.parametrize("text", list(_BAD_DATA))
@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_non_finite_data_fail_the_build(text):
    # a NaN norm compares false against every tolerance: the build must
    # still reject these values instead of handing them to the solver,
    # and a non-finite value is named by its own key
    with pytest.raises(ConfigurationError) as e:
        build_problem(parse_config("grid.n = 4\n" + text))
    assert _key_of(e) == _BAD_DATA[text]


@pytest.mark.parametrize("text, key", [
    ("grid.n = 0\n", "grid.n"),
    ("grid.n = -3\n", "grid.n"),
    ("solve.tol = nan\n", "solve.tol"),
    ("solve.tol = 0\n", "solve.tol"),
    ("solve.tol = -1\n", "solve.tol"),
    ("solve.max_outer = 0\n", "solve.max_outer"),
    ("solve.max_inner = 0\n", "solve.max_inner"),
    ("solve.start_node = -1\n", "solve.start_node"),
    ("solve.start_node = 99\n", "solve.start_node"),
    ("grid.n = 4\nsolve.start_node = 4\n", "solve.start_node"),
    ("grid.max_generators = 0\n", "grid.max_generators"),
    ("R.name = conditional_scale\nR.level = 0.7\n", "R.level"),
    ("R.name = conditional_scale\nR.level = -1\n", "R.level"),
    ("R.name = conditional_scale\nR.level = 99\n", "R.level"),
    ("grid.n = 4\nR.name = conditional_scale\nR.level = 5\n", "R.level"),
])
def test_out_of_domain_values_are_named(text, key):
    with pytest.raises(ConfigurationError) as e:
        build_problem(parse_config(text))
    assert _key_of(e) == key


@pytest.mark.parametrize("level, name", [("0", "conditional_scale(0.5,0)"),
                                         ("4", "conditional_scale(0.5,4)"),
                                         ("2.0", "conditional_scale(0.5,2)")])
def test_every_filtration_level_is_a_valid_r_level(level, name):
    problem, _ = build_problem(parse_config(
        f"grid.n = 4\nR.name = conditional_scale\nR.level = {level}\n"))
    assert problem.R.name == name


def test_overflowing_data_fail_the_build_without_warnings():
    # the NaN-safe construction checks reject it on their own
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigurationError) as e:
            build_problem(parse_config("grid.n = 4\nF.name = scale\n"
                                       "F.c = 1e308\n"))
    assert _key_of(e) == "solve"


@pytest.mark.parametrize("kind", sorted(DRIVER_KINDS))
def test_every_registered_driver_builds(kind):
    prob, _ = build_problem(parse_config(f"driver.kind = {kind}\n"
                                         f"grid.n = 3\n"))
    assert prob.driver.kind == kind
    assert prob.space.layout == DRIVER_KINDS[kind][0]


def test_unknown_driver_kind():
    with pytest.raises(ConfigurationError) as e:
        build_problem(parse_config("driver.kind = brownian\n"))
    assert _key_of(e) == "driver.kind"
    assert all(repr(kind) in str(e.value) for kind in DRIVER_KINDS)


def test_unknown_nonlocal_mode():
    with pytest.raises(ConfigurationError) as e:
        build_problem(parse_config("solve.nonlocal_mode = final\n"))
    assert _key_of(e) == "solve.nonlocal_mode"


def test_degenerate_horizon():
    with pytest.raises(ConfigurationError) as e:
        build_problem(parse_config("grid.t0 = 1.0\ngrid.T = 1.0\n"))
    assert _key_of(e) == "grid.T"


def test_step_count_beyond_generator_budget():
    with pytest.raises(ConfigurationError, match="14") as e:
        build_problem(parse_config("grid.n = 20\n"))
    assert _key_of(e) == "grid.n"


def test_unknown_coefficient_name():
    with pytest.raises(ConfigurationError) as e:
        build_problem(parse_config("F.name = mystery\n"))
    assert _key_of(e) == "F.name"


def test_bad_factory_parameter_name():
    with pytest.raises(ConfigurationError) as e:
        build_problem(parse_config("F.name = scale\nF.slope = 2.0\n"))
    assert _key_of(e) == "F"


def test_non_numeric_factory_parameter():
    with pytest.raises(ConfigurationError) as e:
        build_problem(parse_config("F.name = scale\nF.c = fast\n"))
    assert _key_of(e) == "F.c"


def test_nonlocal_contraction_must_stay_below_one():
    with pytest.raises(ConfigurationError, match="contraction") as e:
        build_problem(parse_config("R.name = scale\nR.c = 1.5\n"))
    assert _key_of(e) == "R"


def test_monomial_labels_are_one_based():
    with pytest.raises(ConfigurationError, match="1-based") as e:
        build_problem(parse_config("Z.e0 = 1.0\n"))
    assert _key_of(e) == "Z.e0"


def test_monomial_labels_must_increase():
    with pytest.raises(ConfigurationError) as e:
        build_problem(parse_config("Z.e3_2 = 1.0\n"))
    assert _key_of(e) == "Z.e3_2"
    with pytest.raises(ConfigurationError):
        build_problem(parse_config("Z.e2_2 = 1.0\n"))


def test_monomial_index_beyond_grid():
    with pytest.raises(ConfigurationError, match="generators") as e:
        build_problem(parse_config("grid.n = 4\nZ.e5 = 1.0\n"))
    assert _key_of(e) == "Z.e5"


def test_bad_complex_coefficient():
    with pytest.raises(ConfigurationError) as e:
        build_problem(parse_config("Z.e = one\n"))
    assert _key_of(e) == "Z.e"


def test_nonscalar_initial_value_needs_a_later_start():
    # Z = I + e1 sits at level 1: rejected at the default start node,
    # under its own section
    text = "grid.n = 4\nZ.e = 1.0\nZ.e1 = 1.0\n"
    with pytest.raises(ConfigurationError) as e:
        build_problem(parse_config(text))
    assert _key_of(e) == "Z"
    prob, _ = build_problem(parse_config(text + "solve.start_node = 1\n"))
    assert prob.start_node == 1


# -- the README example and the built-in problems ----------------------------


def _write_config(path, mapping):
    path.write_text("".join(f"{key} = {value}\n"
                            for key, value in mapping.items()))
    return str(path)


def test_readme_config_example_builds_and_solves(tmp_path):
    text = README.read_text(encoding="utf-8")
    block = re.search(r"```ini\n(.*?)```", text, re.S).group(1)
    cfg = tmp_path / "readme.cfg"
    cfg.write_text(block)
    prob, settings = load_problem(str(cfg))
    report = picard_solve(prob, tol=settings.tol,
                          max_outer=settings.max_outer,
                          max_inner=settings.max_inner)
    assert report.residual < settings.tol


@pytest.mark.parametrize("name", sorted(PROBLEMS))
def test_builtin_problem_loads_as_a_config_file(tmp_path, name):
    path = _write_config(tmp_path / f"{name}.cfg",
                         {**PROBLEMS[name], "grid.n": 4})
    loaded, _ = load_problem(path)
    built = make_problem(name, n=4)
    assert picard_solve(loaded).trajectory_csv() == \
        picard_solve(built).trajectory_csv()


def test_builtin_problem_beyond_the_generator_budget_names_grid_n():
    with pytest.raises(ConfigurationError, match="16 generators.*limit is 14") as e:
        make_problem("linear_pair", n=8)
    assert _key_of(e) == "grid.n"
