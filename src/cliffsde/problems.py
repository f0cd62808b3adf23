"""Built-in, ready-to-solve equation instances.

Each built-in problem is a mapping in the configuration schema of
:mod:`.config`, so a problem file holding the same ``key = value`` lines
builds the same problem.  Keys left out take the schema defaults: n = 8
steps on [0, 1], p = 4, the fermion-field driver, zero coefficients.
``linear_pair`` runs on the pair layout (two generators per step) and
defaults to n = 6, staying inside the default generator budget.
"""

from __future__ import annotations

from .config import build_problem
from .solver import QsdeProblem
from .space import DEFAULT_MAX_GENERATORS

#: dX = 0.5 X dW + 0.25 dW X + 0.5 X dt
_LINEAR_FULL = {"F.name": "scale", "F.c": 0.5, "G.name": "scale",
                "G.c": 0.25, "H.name": "scale", "H.c": 0.5}

PROBLEMS = {
    # dX = 0 with X_0 = I; the solution is constant
    "zero": {},
    # dX = X dW (right-driven linear equation)
    "linear_field": {"F.name": "scale", "F.c": 1.0},
    # dX = dW X (left-driven linear equation)
    "linear_left": {"G.name": "scale", "G.c": 1.0},
    # dX = X dt; the discrete solution is prod_k (1 + delta_k) * Z
    "linear_drift": {"H.name": "scale", "H.c": 1.0},
    "linear_full": _LINEAR_FULL,
    # linear_full with the nonlocal term R(x) = 0.5 x
    "nonlocal_linear": {**_LINEAR_FULL, "R.name": "scale", "R.c": 0.5},
    # linear_full with R(x) = 0.5 E(x | level 0): the nonlocal term reads
    # off a coarse functional of the unknown
    "nonlocal_conditional": {**_LINEAR_FULL, "R.name": "conditional_scale",
                             "R.c": 0.5, "R.level": 0},
    # dX = F(X) dW with the radial map F(x) = 0.5 s(||x||)/||x|| x,
    # s(u) = u sqrt(ln(e + 1/u)): continuous with an Osgood, non-Lipschitz
    # modulus
    "osgood_radial": {"F.name": "radial_osgood", "F.scale": 0.5},
    # all data preserve self-adjointness and the stochastic coefficients
    # land in the even subalgebra, so the solution stays self-adjoint
    "selfadjoint_nonlocal": {"F.name": "even_sa", "F.c": 0.5,
                             "G.name": "even_sa", "G.c": 0.25,
                             "H.name": "sa_scale", "H.c": 0.5,
                             "R.name": "scale", "R.c": 0.3},
    # dX = 0.5 X dxi with dxi = 0.5 dA + dA* on the pair layout
    "linear_pair": {"grid.n": 6, "driver.kind": "linear_combination",
                    "driver.alpha1": 0.5, "driver.alpha2": 1.0,
                    "F.name": "scale", "F.c": 0.5},
}


def make_problem(name: str, n=None, nonlocal_mode="pointwise",
                 max_generators=DEFAULT_MAX_GENERATORS) -> QsdeProblem:
    """The built-in problem ``name`` on [0, 1] at p = 4 with n steps (None:
    the problem's own default).  Bad values raise :class:`ConfigurationError`
    naming their configuration key."""
    if name not in PROBLEMS:
        raise KeyError(f"unknown problem {name!r}; known: {sorted(PROBLEMS)}")
    raw = {**PROBLEMS[name], "grid.max_generators": max_generators,
           "solve.nonlocal_mode": nonlocal_mode}
    if n is not None:
        raw["grid.n"] = n
    return build_problem(raw)[0]
