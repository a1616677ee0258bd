"""Problem definition, JSON problem files, epsilon-relaxation, interior points.

A :class:`Problem` is ``min c^T x`` over a finite box ``[lower, upper]``
intersected with the region ``g_j(x) <= 0`` for every named constraint, with
an optional integrality mask.  Finite bounds on every variable are required:
the first LP relaxation is the box alone and must be bounded.
"""

from __future__ import annotations

import json
import keyword
import math
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Sequence

import numpy as np

from . import expr as ex
from .errors import EvalDomainError, InteriorPointError, ParseError, ProblemFormatError

__all__ = [
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
]


@dataclass(frozen=True)
class Constraint:
    """One inequality ``expr <= 0``."""

    name: str
    expr: ex.Expr


def _frozen_array(values, dtype=float) -> np.ndarray:
    a = np.array(values, dtype=dtype)
    a.setflags(write=False)
    return a


@dataclass(frozen=True, eq=False)
class Problem:
    """Immutable optimization problem; validated on construction."""

    names: tuple[str, ...]
    lower: np.ndarray
    upper: np.ndarray
    integrality: np.ndarray
    objective: np.ndarray
    constraints: tuple[Constraint, ...]
    interior_point: np.ndarray | None = None

    def __post_init__(self):
        names = tuple(self.names)
        object.__setattr__(self, "names", names)
        n = len(names)
        if n == 0:
            raise ProblemFormatError("a problem needs at least one variable")
        if len(set(names)) != n:
            raise ProblemFormatError("duplicate variable names")
        for name in names:
            if not name.isidentifier() or keyword.iskeyword(name):
                raise ProblemFormatError(f"invalid variable name {name!r}")
            if name in ex.FUNCTION_NAMES:
                raise ProblemFormatError(f"variable name {name!r} collides with a function name")
        lower = _frozen_array(self.lower)
        upper = _frozen_array(self.upper)
        integrality = _frozen_array(self.integrality, dtype=bool)
        objective = _frozen_array(self.objective)
        for label, arr in (("lower", lower), ("upper", upper),
                           ("integrality", integrality), ("objective", objective)):
            if arr.shape != (n,):
                raise ProblemFormatError(f"{label} must have length {n}, got shape {arr.shape}")
        if not (np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))):
            raise ProblemFormatError("all variable bounds must be finite")
        if not np.all(np.isfinite(objective)):
            raise ProblemFormatError("objective coefficients must be finite")
        bad = np.nonzero(lower > upper)[0]
        if bad.size:
            j = int(bad[0])
            raise ProblemFormatError(
                f"lower bound exceeds upper bound for variable {names[j]!r} "
                f"({lower[j]} > {upper[j]})"
            )
        constraints = tuple(self.constraints)
        if not constraints:
            raise ProblemFormatError("constraint list must be nonempty")
        for con in constraints:
            if ex.max_var_index(con.expr) >= n:
                raise ProblemFormatError(
                    f"constraint {con.name!r} references a variable index out of range"
                )
        interior = self.interior_point
        if interior is not None:
            interior = _frozen_array(interior)
            if interior.shape != (n,):
                raise ProblemFormatError(f"interior_point must have length {n}")
            if not np.all(np.isfinite(interior)):
                raise ProblemFormatError("interior_point must be finite")
            if np.any(interior < lower) or np.any(interior > upper):
                raise ProblemFormatError("interior_point lies outside the variable bounds")
        object.__setattr__(self, "lower", lower)
        object.__setattr__(self, "upper", upper)
        object.__setattr__(self, "integrality", integrality)
        object.__setattr__(self, "objective", objective)
        object.__setattr__(self, "constraints", constraints)
        object.__setattr__(self, "interior_point", interior)

    @property
    def n(self) -> int:
        return len(self.names)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Problem):
            return NotImplemented
        if self.names != other.names or self.constraints != other.constraints:
            return False
        if (self.interior_point is None) != (other.interior_point is None):
            return False
        arrays_equal = (
            np.array_equal(self.lower, other.lower)
            and np.array_equal(self.upper, other.upper)
            and np.array_equal(self.integrality, other.integrality)
            and np.array_equal(self.objective, other.objective)
        )
        if self.interior_point is not None:
            arrays_equal = arrays_equal and np.array_equal(
                self.interior_point, other.interior_point
            )
        return arrays_equal


@dataclass(frozen=True, eq=False)
class SolverConfig:
    """Tolerances and limits for the solver loops.

    ``eps_feas`` terminates the cutting-plane loops (max constraint violation
    allowed at the answer); ``line_search_tol`` is the relative bracket width
    of the boundary line search.  Relaxing a problem to create interior is an
    explicit step of its own: :func:`epsilon_relax` takes its ``eps``.
    """

    eps_feas: float = 1e-6
    line_search_tol: float = 1e-9
    activity_tol: float = 1e-7
    max_iters: int = 10000
    interior_point: np.ndarray | None = None

    def __post_init__(self):
        for label in ("eps_feas", "line_search_tol", "activity_tol"):
            v = getattr(self, label)
            if not (isinstance(v, (int, float)) and math.isfinite(v) and v > 0):
                raise ValueError(f"{label} must be strictly positive, got {v!r}")
        if self.max_iters < 1:
            raise ValueError(f"max_iters must be >= 1, got {self.max_iters}")
        if self.interior_point is not None:
            object.__setattr__(self, "interior_point", _frozen_array(self.interior_point))


@dataclass(frozen=True, eq=False)
class QuadraticForm:
    """``g(x) = x^T A x + b^T x + c0`` with symmetric ``A`` (symmetrised on
    construction)."""

    A: np.ndarray
    b: np.ndarray
    c0: float

    def __post_init__(self):
        A = np.array(self.A, dtype=float)
        if A.ndim != 2 or A.shape[0] != A.shape[1]:
            raise ValueError(f"A must be square, got shape {A.shape}")
        A = 0.5 * (A + A.T)
        A.setflags(write=False)
        b = _frozen_array(self.b)
        if b.shape != (A.shape[0],):
            raise ValueError(f"b must have length {A.shape[0]}, got shape {b.shape}")
        object.__setattr__(self, "A", A)
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "c0", float(self.c0))

    @property
    def n(self) -> int:
        return self.A.shape[0]

    def value(self, x) -> float:
        x = np.asarray(x, dtype=float)
        return float(x @ self.A @ x + self.b @ x + self.c0)

    def to_expr(self, names: Sequence[str] | None = None) -> ex.Expr:
        """Build the polynomial expression tree for ``g`` (used to feed
        quadratics through the same pipeline as parsed constraints)."""
        n = self.n
        if names is None:
            names = [f"x{i}" for i in range(n)]
        terms: list[ex.Expr] = []
        for i in range(n):
            if self.A[i, i] != 0.0:
                terms.append(ex.Mul(ex.Const(float(self.A[i, i])), ex.Pow(ex.Var(i, names[i]), 2.0)))
            for j in range(i + 1, n):
                coeff = 2.0 * self.A[i, j]
                if coeff != 0.0:
                    terms.append(
                        ex.Mul(ex.Const(float(coeff)),
                               ex.Mul(ex.Var(i, names[i]), ex.Var(j, names[j])))
                    )
        for i in range(n):
            if self.b[i] != 0.0:
                terms.append(ex.Mul(ex.Const(float(self.b[i])), ex.Var(i, names[i])))
        e: ex.Expr = ex.Const(self.c0)
        for term in terms:
            e = ex.Add(e, term)
        return e


# ---------------------------------------------------------------------------
# Problem files
# ---------------------------------------------------------------------------

_TOP_KEYS = {"variables", "objective", "constraints", "interior_point"}
_VAR_KEYS = {"name", "lb", "ub", "integer"}
_CON_KEYS = {"name", "expr"}


def _require_number(value, where: str) -> float:
    if isinstance(value, bool) or not isinstance(value, (int, float)):
        raise ProblemFormatError(f"{where} must be a number, got {value!r}")
    return float(value)


def _check_keys(obj: dict, allowed: set[str], required: set[str], where: str) -> None:
    unknown = set(obj) - allowed
    if unknown:
        raise ProblemFormatError(f"unknown key(s) {sorted(unknown)} in {where}")
    missing = required - set(obj)
    if missing:
        raise ProblemFormatError(f"missing key(s) {sorted(missing)} in {where}")


def load_problem(source: str | Path | dict) -> Problem:
    """Load a problem from a JSON file path, a JSON string, or a parsed dict.

    A ``str`` whose first non-space character is ``{`` is treated as JSON
    text; any other ``str`` (and any ``Path``) is treated as a file path.
    """
    if isinstance(source, dict):
        data = source
    else:
        if isinstance(source, str) and source.lstrip().startswith("{"):
            text = source
        else:
            text = Path(source).read_text(encoding="utf-8")
        try:
            data = json.loads(text)
        except json.JSONDecodeError as err:
            raise ProblemFormatError(f"invalid JSON: {err}") from err
    if not isinstance(data, dict):
        raise ProblemFormatError("problem file must contain a JSON object")
    _check_keys(data, _TOP_KEYS, {"variables", "objective", "constraints"}, "problem")

    variables = data["variables"]
    if not isinstance(variables, list) or not variables:
        raise ProblemFormatError("'variables' must be a nonempty list")
    names, lower, upper, integrality = [], [], [], []
    for k, var in enumerate(variables):
        if not isinstance(var, dict):
            raise ProblemFormatError(f"variable entry {k} must be an object")
        _check_keys(var, _VAR_KEYS, {"name", "lb", "ub"}, f"variable entry {k}")
        if not isinstance(var["name"], str):
            raise ProblemFormatError(f"variable entry {k}: 'name' must be a string")
        names.append(var["name"])
        lower.append(_require_number(var["lb"], f"variable {var['name']!r} lb"))
        upper.append(_require_number(var["ub"], f"variable {var['name']!r} ub"))
        integer = var.get("integer", False)
        if not isinstance(integer, bool):
            raise ProblemFormatError(f"variable {var['name']!r}: 'integer' must be a boolean")
        integrality.append(integer)

    objective = data["objective"]
    if not isinstance(objective, list):
        raise ProblemFormatError("'objective' must be a list of numbers")
    objective = [_require_number(v, f"objective[{i}]") for i, v in enumerate(objective)]

    raw_constraints = data["constraints"]
    if not isinstance(raw_constraints, list) or not raw_constraints:
        raise ProblemFormatError("'constraints' must be a nonempty list")
    constraints = []
    for k, con in enumerate(raw_constraints):
        if not isinstance(con, dict):
            raise ProblemFormatError(f"constraint entry {k} must be an object")
        _check_keys(con, _CON_KEYS, _CON_KEYS, f"constraint entry {k}")
        if not isinstance(con["name"], str) or not isinstance(con["expr"], str):
            raise ProblemFormatError(f"constraint entry {k}: 'name' and 'expr' must be strings")
        try:
            tree = ex.parse(con["expr"], names)
        except ParseError as err:
            raise ProblemFormatError(f"constraint {con['name']!r}: {err}") from err
        constraints.append(Constraint(con["name"], tree))

    interior = data.get("interior_point")
    if interior is not None:
        if not isinstance(interior, list):
            raise ProblemFormatError("'interior_point' must be a list of numbers")
        interior = [_require_number(v, f"interior_point[{i}]") for i, v in enumerate(interior)]

    return Problem(
        names=tuple(names),
        lower=np.array(lower),
        upper=np.array(upper),
        integrality=np.array(integrality, dtype=bool),
        objective=np.array(objective),
        constraints=tuple(constraints),
        interior_point=None if interior is None else np.array(interior),
    )


def problem_to_json(p: Problem) -> dict:
    data = {
        "variables": [
            {
                "name": p.names[i],
                "lb": float(p.lower[i]),
                "ub": float(p.upper[i]),
                "integer": bool(p.integrality[i]),
            }
            for i in range(p.n)
        ],
        "objective": [float(c) for c in p.objective],
        "constraints": [
            {"name": con.name, "expr": ex.render(con.expr)} for con in p.constraints
        ],
    }
    if p.interior_point is not None:
        data["interior_point"] = [float(v) for v in p.interior_point]
    return data


def save_problem(p: Problem, path: str | Path | None = None) -> str:
    """Serialize ``p`` to JSON text; also write it to ``path`` when given.
    ``load_problem(save_problem(p)) == p``."""
    text = json.dumps(problem_to_json(p), indent=2)
    if path is not None:
        Path(path).write_text(text, encoding="utf-8")
    return text


# ---------------------------------------------------------------------------
# Epsilon relaxation and interior points
# ---------------------------------------------------------------------------


def epsilon_relax(p: Problem, eps: float) -> Problem:
    """Shift every constraint to ``g_j - eps <= 0``, enlarging the region so
    that it gains interior.  Never applied implicitly: relaxing moves the
    optimum by up to ``eps``, and that must stay a visible caller choice.
    """
    if not (isinstance(eps, (int, float)) and math.isfinite(eps) and eps > 0):
        raise ValueError(f"eps must be strictly positive, got {eps!r}")
    relaxed = tuple(
        Constraint(con.name, ex.Sub(con.expr, ex.Const(float(eps)))) for con in p.constraints
    )
    return replace(p, constraints=relaxed)


def constraint_values(constraints: Sequence[Constraint], x) -> np.ndarray:
    """Stack ``g_j`` values: shape ``(J,)`` for one point, ``(J, N)`` for a
    batch of points.  One :func:`~gaugecut.expr.eval_value` call evaluates
    the whole set, and raises the first constraint's error in order."""
    return ex.eval_value([con.expr for con in constraints], x)


def max_violation(constraints: Sequence[Constraint], x) -> tuple[float, int]:
    """``max_j g_j(x)`` and the lowest attaining index (deterministic
    subgradient choice for the nonsmooth max)."""
    values = constraint_values(constraints, np.asarray(x, dtype=float))
    j = int(np.argmax(values))
    return float(values[j]), j


def find_interior_point(p: Problem, start=None, max_steps: int = 500) -> np.ndarray:
    """Best-effort search for a strict interior (Slater) point: normalised
    subgradient descent on ``max_j g_j`` with diminishing steps, projected
    onto the box, stopping at the first strictly interior iterate.

    On failure an :class:`InteriorPointError` is raised; callers can relax the
    problem with :func:`epsilon_relax` and retry, or supply a point.
    """
    if start is None:
        start = 0.5 * (p.lower + p.upper)
    x = np.array(start, dtype=float)
    if x.shape != (p.n,):
        raise ValueError(f"start must have length {p.n}")
    if np.any(x < p.lower) or np.any(x > p.upper):
        raise ValueError("start must lie within the variable bounds")
    f, j = max_violation(p.constraints, x)
    if f < 0.0:
        return x
    best = f
    # hypot scales where the sum of squares overflows; clipping ends a longer step
    with np.errstate(over="ignore"):
        span = p.upper - p.lower
        width = float(np.linalg.norm(span))
    step0 = max(1.0, 0.1 * (width if width < math.inf else min(math.hypot(*span), 1e308)))
    for k in range(max_steps):
        grad = ex.eval_grad(p.constraints[j].expr, x).gradient
        norm = float(np.linalg.norm(grad))
        if norm == 0.0:
            break  # flat attaining constraint: no descent direction
        x = np.clip(x - (step0 / math.sqrt(k + 1.0)) * grad / norm, p.lower, p.upper)
        f, j = max_violation(p.constraints, x)
        if f < 0.0:
            return x
        best = min(best, f)
    raise InteriorPointError(
        f"no strict interior point found within {max_steps} steps "
        f"(best max-constraint value {best:.3e}); relax the constraints with "
        "epsilon_relax or supply interior_point explicitly"
    )


def resolve_interior_point(p: Problem, point=None) -> np.ndarray:
    """The interior point that fixes the gauge of ``p``: the explicit
    ``point`` (a solver config's or a caller's), else the problem file's,
    else :func:`find_interior_point`.  Supplied points are validated, not
    trusted: :class:`InteriorPointError` names the source of a bad one."""
    for source, cand in (("config/argument", point), ("problem file", p.interior_point)):
        if cand is None:
            continue
        cand = np.asarray(cand, dtype=float)
        if cand.shape != (p.n,) or np.any(cand < p.lower) or np.any(cand > p.upper):
            raise InteriorPointError(
                f"interior point from {source} lies outside the variable bounds"
            )
        try:
            f, _ = max_violation(p.constraints, cand)
        except EvalDomainError as err:
            raise InteriorPointError(
                f"interior point from {source} lies outside a constraint's domain ({err})"
            ) from err
        if f >= 0.0:
            raise InteriorPointError(
                f"interior point from {source} is not strictly interior "
                f"(max_j g_j = {f:.6g}); relax the constraints with "
                "epsilon_relax or supply a different point"
            )
        return cand
    return find_interior_point(p)
