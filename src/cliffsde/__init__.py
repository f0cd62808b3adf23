"""cliffsde: Ito-style stochastic calculus over anticommuting noise at
finite mode counts, with noncommutative L^p norms, a Picard solver for
operator SDEs under nonlocal initial conditions, and randomized
verification suites for every inequality the solver relies on."""

from .errors import (
    AdaptednessError,
    ArgumentError,
    CliffsdeError,
    ConfigurationError,
    ContractViolationError,
    ConvergenceError,
    DriverMismatchError,
    OsgoodViolationError,
    ResourceLimitError,
    ZeroProcessError,
)
from .grid import TimeGrid
from .element import (
    CliffordElement,
    lp_norm,
    op_norm,
    state,
)
from .space import (
    DEFAULT_MAX_GENERATORS,
    CliffordSpace,
    conditional_expect,
    make_space,
    monomial_expand,
    parity_automorphism,
    parity_decompose,
    random_level_element,
    reconstruct,
)
from .process import AdaptedProcess, Driver
from .integrals import (
    InequalityReport,
    check_bg,
    check_norm_exchange,
    driver_integral,
    hp_norm,
    left_integral,
    lqlp_norm,
    martingale_check,
    measure_bg_constant,
    parity_commutation_defect,
    right_integral,
    time_integral,
)
from .modulus import OsgoodModulus, bihari_bound, certify_osgood, make_modulus
from .coefficients import (
    COEFFICIENTS,
    NONLOCAL_MAPS,
    CoefficientMap,
    NonlocalMap,
    make_coefficient,
    make_nonlocal,
    validate_coefficient,
    validate_nonlocal,
)
from .solver import (
    InnerResult,
    QsdeProblem,
    SolveReport,
    StabilityResult,
    coefficient_stability_experiment,
    forward_euler_oracle,
    inner_fixed_point,
    perturb_problem,
    picard_solve,
    residual,
    selfadjoint_solve_check,
    stability_experiment,
    uniqueness_probe,
)
from .problems import PROBLEMS, make_problem
from .experiments import (
    SUITE_NAMES,
    SuiteConfig,
    SweepTable,
    Violation,
    grid_refinement_study,
    run_inequality_suite,
    run_solver_suite,
    run_suites,
    trial_seed,
)
from .config import SolveSettings, build_problem, load_problem, parse_config
from .cli import main

__version__ = "0.1.0"

# the public names are the ones imported above, listed once
__all__ = sorted(name for name, value in globals().items()
                 if not name.startswith("_") and not isinstance(value, type(errors)))
