"""gaugecut: cutting-plane and supporting-hyperplane solver for convex
programs (optionally with integer variables) given by differentiable
constraint expressions, plus a toolkit for verifying when gradient cuts
support the feasible set and how boundary cuts relate to gradient cuts of the
gauge function."""

from .errors import (
    EvalDomainError,
    GaugeCutError,
    InteriorPointError,
    ParseError,
    PreconditionError,
    ProblemFormatError,
    SeparationError,
    SimplexNumericalError,
    SolveStallError,
)
from .expr import EvalResult, Expr, eval_grad, eval_value, parse, render
from .lp import Cut, LpModel, LpSolution, add_cut, lp_solve
from .model import (
    Constraint,
    Problem,
    QuadraticForm,
    SolverConfig,
    epsilon_relax,
    find_interior_point,
    load_problem,
    problem_to_json,
    resolve_interior_point,
    save_problem,
)
from .separation import (
    GaugeResult,
    SupportVerdict,
    affine_on_segment,
    check_supporting,
    classify_quadratic,
    esh_cut,
    gauge_subgradient_check,
    gauge_values,
    kelley_cut,
    line_search_boundary,
)
from .solve import (
    EquivalenceReport,
    IterationRecord,
    SolveTrace,
    check_esh_kcp_equivalence,
    solve_bnb,
    solve_esh,
    solve_kelley,
)

__version__ = "0.1.0"

__all__ = [
    "GaugeCutError",
    "ParseError",
    "EvalDomainError",
    "ProblemFormatError",
    "PreconditionError",
    "InteriorPointError",
    "SimplexNumericalError",
    "SeparationError",
    "SolveStallError",
    "Expr",
    "EvalResult",
    "parse",
    "render",
    "eval_grad",
    "eval_value",
    "Constraint",
    "Problem",
    "SolverConfig",
    "QuadraticForm",
    "load_problem",
    "save_problem",
    "problem_to_json",
    "epsilon_relax",
    "find_interior_point",
    "resolve_interior_point",
    "Cut",
    "LpModel",
    "LpSolution",
    "add_cut",
    "lp_solve",
    "GaugeResult",
    "SupportVerdict",
    "kelley_cut",
    "line_search_boundary",
    "esh_cut",
    "check_supporting",
    "affine_on_segment",
    "classify_quadratic",
    "gauge_subgradient_check",
    "gauge_values",
    "IterationRecord",
    "SolveTrace",
    "EquivalenceReport",
    "solve_kelley",
    "solve_esh",
    "solve_bnb",
    "check_esh_kcp_equivalence",
]
