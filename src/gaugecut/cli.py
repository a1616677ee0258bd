"""Command line front end.

Subcommands are thin adapters over the library:

* ``solve``              run Kelley / ESH (branch and bound when integer
                         variables are present), print a one-line summary,
                         optionally write the trace as JSON or CSV
* ``separate``           generate cuts for one point of a problem file
* ``check-support``      probe whether a cut touches the feasible set
* ``classify-quadratic`` decide supportingness for a convex quadratic
* ``equivalence``        run the ESH / Kelley-on-the-gauge certification

Exit codes: 0 solver success (including an iteration limit with incumbent),
1 infeasible, 2 usage or input error, 3 numerical or algorithmic error.
"""

from __future__ import annotations

import argparse
import json
import sys

import numpy as np

from .errors import (
    EvalDomainError,
    InteriorPointError,
    ParseError,
    PreconditionError,
    ProblemFormatError,
    SeparationError,
    SimplexNumericalError,
    SolveStallError,
)
from .lp import Cut
from .model import (
    QuadraticForm,
    SolverConfig,
    epsilon_relax,
    load_problem,
    resolve_interior_point,
)
from .separation import (
    check_supporting,
    classify_quadratic,
    esh_cut,
    kelley_separator,
    line_search_boundary,
)
from .solve import check_esh_kcp_equivalence, solve_bnb

_USAGE_ERRORS = (ProblemFormatError, ParseError, PreconditionError, ValueError)
_NUMERIC_ERRORS = (
    SimplexNumericalError,
    SeparationError,
    InteriorPointError,
    EvalDomainError,
    SolveStallError,
)


def _parse_point(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.split(",")], dtype=float)
    except ValueError as err:
        raise ValueError(f"invalid point {text!r}: expected comma-separated numbers") from err


def _parse_vector(text: str) -> np.ndarray:
    try:
        return np.array([float(v) for v in text.replace(",", " ").split()], dtype=float)
    except ValueError as err:
        raise ValueError(f"invalid vector {text!r}") from err


def _parse_matrix(text: str) -> np.ndarray:
    # rows separated by ';', entries by spaces; '.' decimal separator always
    try:
        rows = [[float(v) for v in row.split()] for row in text.split(";")]
    except ValueError as err:
        raise ValueError(f"invalid matrix {text!r}") from err
    if not rows or any(len(r) != len(rows[0]) for r in rows):
        raise ValueError(f"invalid matrix {text!r}: ragged rows")
    return np.array(rows, dtype=float)


def _build_config(args) -> SolverConfig:
    kwargs = {}
    if getattr(args, "eps_feas", None) is not None:
        kwargs["eps_feas"] = args.eps_feas
    if getattr(args, "line_search_tol", None) is not None:
        kwargs["line_search_tol"] = args.line_search_tol
    if getattr(args, "activity_tol", None) is not None:
        kwargs["activity_tol"] = args.activity_tol
    if getattr(args, "max_iters", None) is not None:
        kwargs["max_iters"] = args.max_iters
    if getattr(args, "interior_point", None) is not None:
        kwargs["interior_point"] = _parse_point(args.interior_point)
    return SolverConfig(**kwargs)


def _load(args):
    p = load_problem(args.problem)
    if getattr(args, "epsilon_relax", None) is not None:
        p = epsilon_relax(p, args.epsilon_relax)
    return p


def _add_common(sub: argparse.ArgumentParser, interior: bool = True) -> None:
    sub.add_argument("problem", help="problem JSON file")
    sub.add_argument("--eps-feas", type=float, dest="eps_feas", help="feasibility tolerance")
    sub.add_argument("--line-search-tol", type=float, dest="line_search_tol")
    sub.add_argument("--activity-tol", type=float, dest="activity_tol")
    sub.add_argument("--max-iters", type=int, dest="max_iters")
    sub.add_argument(
        "--epsilon-relax", type=float, dest="epsilon_relax",
        help="explicitly relax every constraint to g - eps <= 0 before solving",
    )
    if interior:
        sub.add_argument(
            "--interior-point", dest="interior_point",
            help="comma-separated point; overrides the problem file's",
        )


def _make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="gaugecut",
        description="Cutting-plane / supporting-hyperplane solver and verification toolkit",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    solve = subs.add_parser("solve", help="run a solver on a problem file")
    _add_common(solve)
    solve.add_argument("--algorithm", choices=("kelley", "esh"), default="kelley")
    solve.add_argument("--trace", help="write the trace here (.json or .csv)")

    separate = subs.add_parser("separate", help="generate cuts for one point")
    _add_common(separate)
    separate.add_argument("--point", required=True, help="comma-separated point to separate")
    separate.add_argument("--method", choices=("kelley", "esh"), default="kelley")

    support = subs.add_parser("check-support", help="probe whether a cut touches the set")
    _add_common(support)
    support.add_argument("--alpha", required=True, help="cut normal, e.g. '1,1'")
    support.add_argument("--beta", required=True, type=float)

    quad = subs.add_parser("classify-quadratic",
                           help="supportingness of gradient cuts of x^T A x + b^T x + c0")
    quad.add_argument("--A", required=True, help="matrix, rows ';'-separated, e.g. '1 0; 0 1'")
    quad.add_argument("--b", required=True, help="vector, e.g. '0 0'")
    quad.add_argument("--c0", required=True, type=float)

    equiv = subs.add_parser("equivalence",
                            help="certify the ESH cut at a point as a gauge gradient cut")
    _add_common(equiv)
    equiv.add_argument("--point", required=True, help="infeasible point, comma-separated")
    equiv.add_argument("--grid-points", type=int, default=21)
    equiv.add_argument("--grid-halfwidth", type=float, default=2.0)

    return parser


def _cmd_solve(args) -> int:
    p = _load(args)
    cfg = _build_config(args)
    # without integer variables solve_bnb runs the inner loop alone
    trace = solve_bnb(p, cfg, inner=args.algorithm)
    n_cuts = len(trace.cuts)
    obj = "none" if trace.objective is None else f"{trace.objective:.6f}"
    print(f"status={trace.status} objective={obj} "
          f"iterations={len(trace.iterations)} cuts={n_cuts}")
    if args.trace:
        if args.trace.endswith(".csv"):
            trace.to_csv(args.trace)
        else:
            trace.to_json(args.trace)
    if trace.status == "infeasible":
        return 1
    return 0


def _cmd_separate(args) -> int:
    p = _load(args)
    cfg = _build_config(args)
    xbar = _parse_point(args.point)
    if args.method == "kelley":
        fmax, cuts = kelley_separator(p.constraints)(xbar, 0.0)
        if not cuts:
            raise PreconditionError(
                f"point does not violate any constraint (max_j g_j = {fmax:.6g})"
            )
        out = {"cuts": [cut.to_json() for cut in cuts]}
    else:
        x0 = resolve_interior_point(p, cfg.interior_point)
        gr = line_search_boundary(p.constraints, x0, xbar, cfg)
        cuts = esh_cut(p.constraints, gr)
        out = {
            "gauge": {
                "lambda_star": gr.lambda_star,
                "gauge_value": gr.gauge_value,
                "boundary_point": [float(v) for v in gr.boundary_point],
                "active_set": list(gr.active_set),
            },
            "cuts": [cut.to_json() for cut in cuts],
        }
    print(json.dumps(out, indent=2))
    return 0


def _cmd_check_support(args) -> int:
    p = _load(args)
    cfg = _build_config(args)
    cut = Cut(_parse_point(args.alpha), args.beta, origin="user")
    verdict = check_supporting(p, cut, interior_point=cfg.interior_point)
    out = {
        "supporting": verdict.supporting,
        "witness": None if verdict.witness is None else [float(v) for v in verdict.witness],
        "max_violation_gap": verdict.max_violation_gap,
    }
    print(json.dumps(out, indent=2))
    return 0


def _cmd_classify_quadratic(args) -> int:
    q = QuadraticForm(_parse_matrix(args.A), _parse_vector(args.b), args.c0)
    verdict = classify_quadratic(q)
    if verdict == "never_supporting_from_infeasible":
        print("never supporting from infeasible points (b in range(A))")
    else:
        print("always supporting (b not in range(A))")
    return 0


def _cmd_equivalence(args) -> int:
    p = _load(args)
    cfg = _build_config(args)
    report = check_esh_kcp_equivalence(
        p, cfg, _parse_point(args.point),
        grid_points=args.grid_points, grid_halfwidth=args.grid_halfwidth,
    )
    print(json.dumps(report.to_json_dict(), indent=2))
    if not report.passed:
        print("equivalence check FAILED", file=sys.stderr)
        return 3
    return 0


_COMMANDS = {
    "solve": _cmd_solve,
    "separate": _cmd_separate,
    "check-support": _cmd_check_support,
    "classify-quadratic": _cmd_classify_quadratic,
    "equivalence": _cmd_equivalence,
}


def main(argv=None) -> int:
    parser = _make_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as err:
        return int(err.code) if err.code else 0
    try:
        return _COMMANDS[args.command](args)
    except _USAGE_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except _NUMERIC_ERRORS as err:
        print(f"error: {err}", file=sys.stderr)
        return 3
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
