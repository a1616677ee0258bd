"""Shared test utilities: fixture problems, random quadratic generators, and
independent brute-force oracles."""

from __future__ import annotations

import itertools
import json

import numpy as np

from gaugecut import (
    Cut,
    EvalDomainError,
    LpModel,
    Problem,
    QuadraticForm,
    SolverConfig,
    add_cut,
    eval_grad,
    eval_value,
    line_search_boundary,
    load_problem,
    lp_solve,
)
from gaugecut.separation import _BISECTIONS, _DOUBLINGS, BOUNDARY_TOL
from gaugecut.separation import _fmax_rows as _REFERENCE_FMAX


def circle_dict(integer=(False, False), interior=True) -> dict:
    d = {
        "variables": [
            {"name": "x", "lb": -10.0, "ub": 10.0, "integer": integer[0]},
            {"name": "y", "lb": -10.0, "ub": 10.0, "integer": integer[1]},
        ],
        "objective": [-1.0, -1.0],
        "constraints": [{"name": "ball", "expr": "x^2 + y^2 - 1"}],
    }
    if interior:
        d["interior_point"] = [0.0, 0.0]
    return d


def make_circle(**kwargs) -> Problem:
    return load_problem(json.dumps(circle_dict(**kwargs)))


def make_nonconvex_circle() -> Problem:
    """Same feasible set as the unit disk, represented by a non-convex
    function: 1 - exp(1 - x^2 - y^2) <= 0  <=>  x^2 + y^2 <= 1."""
    return load_problem(json.dumps({
        "variables": [
            {"name": "x", "lb": -10.0, "ub": 10.0, "integer": False},
            {"name": "y", "lb": -10.0, "ub": 10.0, "integer": False},
        ],
        "objective": [-1.0, -1.0],
        "constraints": [{"name": "shell", "expr": "1 - exp(1 - x^2 - y^2)"}],
        "interior_point": [0.0, 0.0],
    }))


def make_log(integer: bool = False) -> Problem:
    """{1 - log(x) - log(y) <= 0} = {xy >= e} over [0, 10]^2: the box holds
    points outside log's domain, the feasible set does not."""
    return load_problem(json.dumps({
        "variables": [
            {"name": "x", "lb": 0.0, "ub": 10.0, "integer": integer},
            {"name": "y", "lb": 0.0, "ub": 10.0, "integer": integer},
        ],
        "objective": [1.0, 1.0],
        "constraints": [{"name": "log", "expr": "1 - log(x) - log(y)"}],
        "interior_point": [5.0, 5.0],
    }))


def make_ball_exp(n: int = 7) -> Problem:
    """{sum x_i^2 <= 1} ∩ {sum exp(0.5 x_i) <= n + 0.5} on [-5, 5]^n: two
    constraints, both active somewhere on the boundary."""
    names = [f"x{i}" for i in range(n)]
    return load_problem(json.dumps({
        "variables": [{"name": v, "lb": -5.0, "ub": 5.0, "integer": False} for v in names],
        "objective": [1.0] * n,
        "constraints": [
            {"name": "ball", "expr": " + ".join(f"{v}^2" for v in names) + " - 1"},
            {"name": "exp", "expr": " + ".join(f"exp(0.5*{v})" for v in names) + f" - {n + 0.5}"},
        ],
        "interior_point": [0.0] * n,
    }))


def make_annulus() -> Problem:
    """{(x^2 + y^2 - 1)(x^2 + y^2 - 4) <= 0}, the ring 1 <= |(x, y)| <= 2,
    seen from (1.5, 0): rays toward the hole leave the set and re-enter it."""
    return load_problem(json.dumps({
        "variables": [
            {"name": "x", "lb": -10.0, "ub": 10.0, "integer": False},
            {"name": "y", "lb": -10.0, "ub": 10.0, "integer": False},
        ],
        "objective": [1.0, 0.0],
        "constraints": [{"name": "ring", "expr": "(x^2 + y^2 - 1) * (x^2 + y^2 - 4)"}],
        "interior_point": [1.5, 0.0],
    }))


def make_thin() -> Problem:
    """{x <= 0} ∩ {-x <= 0}: a single point, no interior."""
    return load_problem(json.dumps({
        "variables": [{"name": "x", "lb": -10.0, "ub": 10.0, "integer": False}],
        "objective": [1.0],
        "constraints": [{"name": "le", "expr": "x"}, {"name": "ge", "expr": "-x"}],
    }))


def sample_unit_disk(rng: np.random.Generator, count: int) -> np.ndarray:
    """Uniform points of the closed unit disk by rejection."""
    out = []
    while len(out) < count:
        cand = rng.uniform(-1.0, 1.0, size=(2 * count, 2))
        keep = np.sum(cand**2, axis=1) <= 1.0
        out.extend(cand[keep])
    return np.array(out[:count])


def random_orthogonal(rng: np.random.Generator, n: int) -> np.ndarray:
    q, r = np.linalg.qr(rng.standard_normal((n, n)))
    return q * np.sign(np.diag(r))


def random_psd_quadratic(
    rng: np.random.Generator,
    n: int,
    singular: bool,
    b_in_range: bool,
) -> QuadraticForm:
    """PSD quadratic with 0 strictly interior to {g <= 0}.  When
    ``b_in_range`` is False the matrix is forced singular and b gets a kernel
    component of size >= 0.5, so the range-membership decision is never
    borderline."""
    eigs = rng.uniform(0.5, 3.0, size=n)
    kernel_dim = 0
    if singular or not b_in_range:
        kernel_dim = int(rng.integers(1, n)) if n > 1 else 1
        eigs[:kernel_dim] = 0.0
    Q = random_orthogonal(rng, n)
    A = Q @ np.diag(eigs) @ Q.T
    z = rng.uniform(-1.0, 1.0, size=n)
    b = A @ z
    if not b_in_range:
        coeffs = rng.uniform(0.5, 1.5, size=kernel_dim) * rng.choice([-1.0, 1.0], size=kernel_dim)
        b = b + Q[:, :kernel_dim] @ coeffs
    c0 = -float(rng.uniform(0.5, 2.0))
    return QuadraticForm(A, b, c0)


def brute_force_lp(lower, upper, cuts, c, tol=1e-7):
    """Vertex-enumeration oracle for small LPs: every choice of n active
    constraints among bound rows and cut rows, solved and filtered.  Returns
    (value, x) or (None, None) when no feasible vertex exists (which for a
    bounded nonempty polytope means the set is empty)."""
    lower = np.asarray(lower, float)
    upper = np.asarray(upper, float)
    c = np.asarray(c, float)
    n = lower.shape[0]
    rows = []
    for j in range(n):
        e = np.zeros(n)
        e[j] = 1.0
        rows.append((e, lower[j]))
        rows.append((e, upper[j]))
    for cut in cuts:
        rows.append((np.asarray(cut.alpha, float), float(cut.beta)))

    def feasible(x):
        if np.any(x < lower - tol) or np.any(x > upper + tol):
            return False
        return all(cut.alpha @ x <= cut.beta + tol for cut in cuts)

    best, bestx = None, None
    for combo in itertools.combinations(range(len(rows)), n):
        A = np.array([rows[i][0] for i in combo])
        b = np.array([rows[i][1] for i in combo])
        if abs(np.linalg.det(A)) < 1e-10:
            continue
        x = np.linalg.solve(A, b)
        if not feasible(x):
            continue
        val = float(c @ x)
        if best is None or val < best:
            best, bestx = val, x
    return best, bestx


def supporting_oracle_quadratic(
    q: QuadraticForm, xbar: np.ndarray, affine_on_segment, eval_value
) -> bool:
    """Independent oracle for the quadratic classifier: a linearization cut at
    the infeasible ``xbar`` supports {g <= 0} iff some segment from ``xbar``
    into the set keeps g affine.  For quadratics the affine directions are the
    kernel of A, so probe kernel basis directions (and random combinations)
    with a wide range of step lengths, confirm affineness with
    affine_on_segment, and look for a feasible endpoint."""
    w, V = np.linalg.eigh(q.A)
    kernel = V[:, np.abs(w) <= 1e-9]
    if kernel.shape[1] == 0:
        return False
    g = q.to_expr()
    rng = np.random.default_rng(7)
    directions = [kernel[:, i] for i in range(kernel.shape[1])]
    for _ in range(4):
        combo = kernel @ rng.standard_normal(kernel.shape[1])
        norm = np.linalg.norm(combo)
        if norm > 1e-12:
            directions.append(combo / norm)
    for v in directions:
        for t in np.concatenate([np.geomspace(1e-2, 1e4, 25), -np.geomspace(1e-2, 1e4, 25)]):
            endpoint = xbar + t * v
            if float(eval_value(g, endpoint)) <= 0.0:
                if affine_on_segment(g, endpoint, xbar, samples=17):
                    return True
    return False


def reference_boundary_crossings(cons, x0, D, tol=1e-13, settle=False):
    """Test-only reference for ``separation._boundary_crossings``: the same
    doubling, then bisection with one midpoint per row per evaluation.  The
    kernel must return the same ``ok`` and, where ``ok``, bit-identical
    ``t*``.  It evaluates through ``_REFERENCE_FMAX`` so that tests counting
    the kernel's own evaluations do not count these."""
    k = D.shape[0]
    t_lo = np.zeros(k)
    t_hi = np.ones(k)
    f_hi = _REFERENCE_FMAX(cons, x0 + t_hi[:, None] * D)
    need = f_hi <= 0.0
    for _ in range(_DOUBLINGS):
        if not np.any(need):
            break
        t_lo[need] = t_hi[need]
        t_hi[need] *= 2.0
        idx = np.nonzero(need)[0]
        f_new = _REFERENCE_FMAX(cons, x0 + t_hi[idx, None] * D[idx])
        need[idx] = f_new <= 0.0
    ok = ~need
    rows = np.nonzero(ok)[0]
    lo, hi, Dr = t_lo[rows], t_hi[rows], D[rows]
    f_lo = np.full(rows.size, -np.inf)  # unknown until a bisection lands inside
    for _ in range(_BISECTIONS):
        if rows.size == 0:
            break
        mid = 0.5 * (lo + hi)
        fm = _REFERENCE_FMAX(cons, x0 + mid[:, None] * Dr)
        above = fm > 0.0
        hi = np.where(above, mid, hi)
        lo = np.where(above, lo, mid)
        still_open = hi - lo > tol * hi
        if settle:
            f_lo = np.where(above, f_lo, fm)
            still_open |= f_lo < -BOUNDARY_TOL
        if not still_open.all():
            t_lo[rows] = lo
            rows, lo, hi = rows[still_open], lo[still_open], hi[still_open]
            Dr, f_lo = Dr[still_open], f_lo[still_open]
    ok[rows] = False
    return t_lo, ok


def assert_same_crossings(got, expect):
    """The same ``ok`` and, where ``ok``, bit-identical crossings."""
    t, ok = got
    t_ref, ok_ref = expect
    assert np.array_equal(ok, ok_ref)
    assert t[ok].tobytes() == t_ref[ok].tobytes()


def kelley_on_gauge(p: Problem, cfg: SolverConfig) -> tuple[int, int, float]:
    """Kelley's loop on the single constraint ``phi(y) - 1 <= 0``, ``phi`` the
    gauge of the feasible set about the problem's interior point ``x0``,
    written with the public pieces and a loop of its own.

    At an LP point ``x`` the line search gives the boundary point ``xhat``
    with ``phi(x) = 1 / lambda*``.  For each active gradient ``v`` there,
    ``s = v / (v^T (xhat - x0))`` is a subgradient of ``phi`` at ``x`` with
    ``s^T (x - x0) = phi(x)``, so Kelley's cut ``phi(x) + s^T (y - x) <= 1``
    is ``s^T (y - x0) <= 1``.  The loop stops, like ESH, once ``max_j g_j <=
    eps_feas``.  Returns the LP solves, the cuts added and the objective."""
    x0 = p.interior_point
    model = LpModel(p.lower, p.upper, p.objective)
    cuts = 0
    for solves in range(1, cfg.max_iters + 1):
        sol = lp_solve(model)
        try:
            fmax = max(float(eval_value(c.expr, sol.x)) for c in p.constraints)
        except EvalDomainError:
            fmax = np.inf
        if fmax <= cfg.eps_feas:
            return solves, cuts, sol.objective_value
        gr = line_search_boundary(p.constraints, x0, sol.x, cfg)
        xhat = gr.boundary_point
        for j in gr.active_set:
            v = eval_grad(p.constraints[j].expr, xhat).gradient
            s = v / float(v @ (xhat - x0))
            cuts += add_cut(model, Cut(s, 1.0 + float(s @ x0), origin="kelley"))
    raise AssertionError(f"no eps_feas-feasible iterate in {cfg.max_iters} LP solves")
