"""Instance generators, the timed operations and their correctness checks.

Every workload turns ``(seed, seconds)`` into a fixed list of items; the
number of items grows with ``seconds`` by a per-workload constant, never with
measured speed, so the same arguments always give the same inputs.  The
random choices that set an item's cost are drawn as a Latin hypercube over
the run's items (``_stratified``): each item keeps its generator's
distribution, and the run covers that distribution evenly, so a run's mean
cost moves less from seed to seed.  An item
runs its gaugecut calls back to back and times only those calls; the checks
against independent references run outside the timed region and evaluate the
constraints with their own numpy code, not with gaugecut.

The module builds the Problems through the public gaugecut API only.
"""

from __future__ import annotations

import itertools
import math
import time
from dataclasses import dataclass, field

import numpy as np

import gaugecut as gc
from gaugecut import Constraint, Problem, QuadraticForm, SolverConfig

OBJ_TOL = 1e-3  # answer objective vs reference
FEAS_SLACK = 1e-12  # numpy vs gaugecut evaluation of the same constraint
BOUNDARY_TOL = 1e-7  # |g| at a gauge boundary point or a support witness


@dataclass
class Outcome:
    """What one item did: timed seconds, checked operations, failures and
    the solver counts that must not depend on tracing."""

    seconds: float = 0.0
    attempted: int = 0
    failed: int = 0
    wrong: list[str] = field(default_factory=list)
    errors: list[str] = field(default_factory=list)
    solve: tuple[int, int] | None = None  # (iterations, cuts) of the item's solve
    bnb_records: int = 0
    signature: list = field(default_factory=list)
    phases: dict[str, list[float]] = field(default_factory=dict)

    def call(self, phase: str, fn, *args, **kwargs):
        """Run one gaugecut call and add its wall time to the item and to
        ``phase``."""
        t = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            dt = time.perf_counter() - t
            self.seconds += dt
            self.phases.setdefault(phase, []).append(dt)

    def check(self, ok: bool, what: str) -> None:
        """One checked operation whose result is a claim: a failed check is a
        wrong answer."""
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong.append(what)

    def fail(self, what: str) -> None:
        """One operation that gave no answer, without claiming a false one."""
        self.attempted += 1
        self.failed += 1
        self.errors.append(what)

    def error(self, exc: Exception, what: str) -> None:
        """One operation that raised instead of answering."""
        self.fail(f"{what}: {type(exc).__name__}: {exc}")

    def record_solve(self, trace, bnb: bool = False) -> None:
        cuts = len(trace.cuts)
        self.solve = (len(trace.iterations), cuts)
        if bnb:
            self.bnb_records = len(trace.iterations)
        obj = None if trace.objective is None else float(trace.objective).hex()
        self.signature.append((trace.status, len(trace.iterations), cuts, obj))


def _stratified(rng, k: int, n: int) -> np.ndarray:
    """``k`` points in ``[0, 1)^n``, one in each of ``k`` equal slices of
    every coordinate.  Each point on its own is uniform on the cube."""
    return (np.argsort(rng.random((k, n)), axis=0) + rng.random((k, n))) / k


def _orthant_stratified(rng, k: int, n: int) -> np.ndarray:
    """``k`` points in ``[-1, 1)^n`` that use every sign pattern equally
    often (up to the last, partial round of patterns) and, within the
    points of each sign of each coordinate, put one magnitude in each equal
    slice of ``[0, 1)``.  Each point on its own is uniform on the cube."""
    patterns = (np.arange(2**n)[:, None] >> np.arange(n)) & 1
    rounds = -(-k // 2**n)
    order = np.concatenate([rng.permutation(2**n) for _ in range(rounds)])[:k]
    positive = patterns[order[rng.permutation(k)]] == 1
    out = np.empty((k, n))
    for j in range(n):
        for sign in (True, False):
            rows = np.flatnonzero(positive[:, j] == sign)
            mag = (rng.permutation(len(rows)) + rng.random(len(rows))) / len(rows)
            out[rows, j] = mag if sign else -mag
    return out


def _names(n: int) -> tuple[str, ...]:
    return tuple(f"x{i}" for i in range(n))


def _problem(names, lower, upper, objective, constraints, interior, integer=False):
    n = len(names)
    return Problem(
        names=names,
        lower=np.full(n, float(lower)),
        upper=np.full(n, float(upper)),
        integrality=np.full(n, integer),
        objective=np.asarray(objective, dtype=float),
        constraints=tuple(Constraint(name, gc.parse(src, names)) for name, src in constraints),
        interior_point=np.full(n, float(interior)),
    )


# ---------------------------------------------------------------------------
# Independent constraint evaluation (numpy only) and references
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Family:
    """One constraint family in numpy: ``values`` are the ``g_j(x)`` of
    ``g_j <= 0``; ``slsqp_constraints`` give SLSQP's ``c(x) >= 0`` form of the
    same set."""

    kind: str
    n: int
    rhs: float = 0.0
    r2: float = 1.0

    def values(self, x: np.ndarray) -> np.ndarray:
        if self.kind == "ball_exp":
            return np.array([x @ x - self.r2, np.exp(0.5 * x).sum() - self.rhs])
        if self.kind == "shell":
            return np.array([1.0 - math.exp(1.0 - x @ x)])
        if self.kind == "log":
            if np.any(x <= 0.0):
                return np.array([math.inf])
            return np.array([1.0 - math.log(x[0]) - math.log(x[1])])
        raise ValueError(self.kind)

    def slsqp_constraints(self) -> list[dict]:
        if self.kind == "ball_exp":
            return [
                {"type": "ineq", "fun": lambda x: self.r2 - x @ x, "jac": lambda x: -2.0 * x},
                {"type": "ineq", "fun": lambda x: self.rhs - np.exp(0.5 * x).sum(),
                 "jac": lambda x: -0.5 * np.exp(0.5 * x)},
            ]
        if self.kind == "shell":  # the same disk, written convexly
            return [{"type": "ineq", "fun": lambda x: 1.0 - x @ x, "jac": lambda x: -2.0 * x}]
        if self.kind == "log":
            return [{"type": "ineq", "fun": lambda x: math.log(x[0]) + math.log(x[1]) - 1.0,
                     "jac": lambda x: np.array([1.0 / x[0], 1.0 / x[1]])}]
        raise ValueError(self.kind)


def slsqp_reference(fam: Family, p: Problem) -> float:
    """Continuous optimum by scipy's SLSQP from the interior point."""
    from scipy.optimize import minimize

    lower = np.maximum(p.lower, 1e-9) if fam.kind == "log" else p.lower
    c = np.asarray(p.objective)
    res = minimize(
        lambda x: float(c @ x), np.asarray(p.interior_point), jac=lambda x: c,
        method="SLSQP", bounds=list(zip(lower, p.upper)),
        constraints=fam.slsqp_constraints(), options={"ftol": 1e-10, "maxiter": 500},
    )
    # near the optimum SLSQP may stop on "positive directional derivative";
    # its point is still good to far better than OBJ_TOL when it is feasible
    if not (res.success or res.status == 8) or np.max(fam.values(res.x)) > 1e-7:
        raise RuntimeError(f"SLSQP reference failed: {res.message}")
    return float(res.fun)


def lattice_reference(fam: Family, p: Problem) -> float:
    """Integer optimum by enumerating every lattice point of the box."""
    axes = [np.arange(math.ceil(lo), math.floor(hi) + 1) for lo, hi in zip(p.lower, p.upper)]
    X = np.array(list(itertools.product(*axes)), dtype=float)
    feasible = (np.sum(X * X, axis=1) <= fam.r2) & (np.exp(0.5 * X).sum(axis=1) <= fam.rhs)
    return float(np.min(X[feasible] @ np.asarray(p.objective)))


# ---------------------------------------------------------------------------
# Workloads
# ---------------------------------------------------------------------------


@dataclass
class SolveItem:
    problem: Problem
    family: Family
    cfg: SolverConfig
    reference: float | None = None


class EshSolve:
    """``solve_esh`` on the ball+exp family at n = 5, 6, 7, the criterion-7
    shell and the log-domain instance, in blocks of five."""

    name = "esh-solve"
    block_seconds = 3.75
    bnb = False

    def __init__(self, seed: int, seconds: float):
        rng = np.random.default_rng([seed, 1])
        blocks = max(1, round(seconds / self.block_seconds))
        ball_exp = {n: 2.0 * _stratified(rng, blocks, n) - 1.0 for n in (5, 6, 7)}
        shell = 2.0 * _stratified(rng, blocks, 2) - 1.0
        # positive costs put the first LP vertex at the origin, outside the
        # domain of log
        log = 0.2 + 0.8 * _stratified(rng, blocks, 2)
        self.items: list[SolveItem] = []
        for b in range(blocks):
            for n in (5, 6, 7):
                self._add(Family("ball_exp", n, rhs=n + 0.5), ball_exp[n][b])
            self._add(Family("shell", 2), shell[b])
            self._add(Family("log", 2), log[b])

    def _add(self, fam: Family, objective) -> None:
        names = _names(fam.n)
        if fam.kind == "ball_exp":
            sq = " + ".join(f"{v}^2" for v in names)
            es = " + ".join(f"exp(0.5*{v})" for v in names)
            p = _problem(names, -5, 5, objective,
                         [("ball", f"{sq} - {fam.r2}"), ("expsum", f"{es} - {fam.rhs}")], 0.0)
        elif fam.kind == "shell":
            p = _problem(names, -10, 10, objective, [("shell", "1 - exp(1 - x0^2 - x1^2)")], 0.0)
        else:
            p = _problem(names, 0, 10, objective, [("log", "1 - log(x0) - log(x1)")], 5.0)
        self.items.append(SolveItem(p, fam, SolverConfig(eps_feas=1e-4, max_iters=300)))

    def prepare(self) -> None:
        for item in self.items:
            item.reference = slsqp_reference(item.family, item.problem)

    def solve(self, item: SolveItem, out: Outcome):
        return out.call("solve", gc.solve_esh, item.problem, item.cfg)

    def run(self, item: SolveItem) -> Outcome:
        out = Outcome()
        try:
            trace = self.solve(item, out)
        except Exception as exc:  # a typed solver error is a failed operation
            out.error(exc, f"{item.family.kind} n={item.family.n}")
            out.signature.append(type(exc).__name__)
            return out
        out.record_solve(trace, self.bnb)
        what = f"{item.family.kind} n={item.family.n}"
        ok = (
            trace.status == "optimal_eps"
            and self.point_ok(item, trace.x)
            and abs(trace.objective - item.reference) <= OBJ_TOL
        )
        out.check(ok, f"{what}: status={trace.status} objective={trace.objective} "
                      f"reference={item.reference}")
        return out

    def point_ok(self, item: SolveItem, x) -> bool:
        x = np.asarray(x, dtype=float)
        return bool(np.max(item.family.values(x)) <= item.cfg.eps_feas + FEAS_SLACK)


class BnbKelley(EshSolve):
    """``solve_bnb(inner="kelley")`` on the all-integer ball+exp variant at
    n = 3 with a wider ball and exp budget so that nodes branch."""

    name = "bnb-kelley"
    block_seconds = 0.625
    bnb = True

    def __init__(self, seed: int, seconds: float):
        rng = np.random.default_rng([seed, 2])
        count = max(1, round(seconds / self.block_seconds))
        self.items = []
        n = 3
        fam = Family("ball_exp", n, rhs=n + 3.0, r2=6.5)
        names = _names(n)
        sq = " + ".join(f"{v}^2" for v in names)
        es = " + ".join(f"exp(0.5*{v})" for v in names)
        # all-negative costs give the largest trees, so the sign patterns are
        # balanced as well
        for objective in _orthant_stratified(rng, count, n):
            p = _problem(names, -5, 5, objective,
                         [("ball", f"{sq} - {fam.r2}"), ("expsum", f"{es} - {fam.rhs}")],
                         0.0, integer=True)
            self.items.append(SolveItem(p, fam, SolverConfig(eps_feas=1e-4, max_iters=300)))

    def prepare(self) -> None:
        for item in self.items:
            item.reference = lattice_reference(item.family, item.problem)

    def solve(self, item: SolveItem, out: Outcome):
        return out.call("solve", gc.solve_bnb, item.problem, item.cfg, inner="kelley")

    def point_ok(self, item: SolveItem, x) -> bool:
        x = np.asarray(x, dtype=float)
        return super().point_ok(item, x) and bool(np.all(np.abs(x - np.round(x)) <= 1e-6))


@dataclass
class Fixture:
    problem: Problem
    quad: QuadraticForm
    grid: np.ndarray
    probe_point: np.ndarray | None


class Verify:
    """The gauge toolkit on the criterion-4 fixtures: the unit circle plus
    seeded random PSD quadratics with n cycling through 1..4."""

    name = "verify"
    block_seconds = 3.75  # one quadratic of each n
    cfg = SolverConfig(max_iters=25)

    def __init__(self, seed: int, seconds: float):
        rng = np.random.default_rng([seed, 3])
        blocks = max(1, round(seconds / self.block_seconds))
        kinds = _stratified(rng, blocks, 4)  # column n - 1 picks the kinds for n
        circle = QuadraticForm(np.eye(2), np.zeros(2), -1.0)
        self.items = [self._fixture(rng, circle, np.array([-1.0, -1.0]), 10.0)]
        for k in range(4 * blocks):
            n = 1 + k % 4
            q = _random_psd_quadratic(rng, n, kinds[k // 4, n - 1])
            c = rng.uniform(-1.0, 1.0, size=n)
            c[np.abs(c) < 0.2] = 0.5
            self.items.append(self._fixture(rng, q, c, 5.0))

    @staticmethod
    def _fixture(rng, q: QuadraticForm, objective, box: float) -> Fixture:
        n = q.n
        names = _names(n)
        p = Problem(
            names=names, lower=np.full(n, -box), upper=np.full(n, box),
            integrality=np.zeros(n, dtype=bool), objective=objective,
            constraints=(Constraint("quad", q.to_expr(names)),), interior_point=np.zeros(n),
        )
        axes = [np.linspace(-2.0, 2.0, 21)] * n
        grid = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
        # a clearly infeasible point on a random ray, as in criterion 5; a
        # fixture whose set is the whole space (A = 0, b = 0) has none
        for _ in range(20):
            d = rng.standard_normal(n)
            d /= np.linalg.norm(d)
            for t in np.geomspace(0.5, 64.0, 20):
                if q.value(t * d) > 0.1:
                    return Fixture(p, q, grid, t * d)
        return Fixture(p, q, grid, None)

    def prepare(self) -> None:
        pass

    def run(self, fx: Fixture) -> Outcome:
        out = Outcome()
        p, q = fx.problem, fx.quad
        x0 = p.interior_point
        cons = p.constraints
        try:
            trace = out.call("solve", gc.solve_esh, p, self.cfg)
        except Exception as exc:
            out.error(exc, "solve")
            out.signature.append(type(exc).__name__)
            return out
        out.record_solve(trace)
        # 25 iterations may end before eps_feas, as in criterion 4
        out.check(
            trace.status == "iteration_limit"
            or (trace.status == "optimal_eps"
                and q.value(trace.x) <= self.cfg.eps_feas + FEAS_SLACK),
            f"solve n={q.n}: status={trace.status}",
        )
        try:
            phi, ok = out.call("grid", gc.gauge_values, cons, x0, fx.grid)
        except Exception as exc:
            out.error(exc, "gauge_values")
            return out
        out.check(self._gauges_ok(q, x0, fx.grid, phi, ok), f"gauge_values n={q.n}")
        out.signature.append(float(np.sum(phi[ok])).hex())
        for cut in trace.cuts:
            try:
                good = out.call("subgrad", gc.gauge_subgradient_check, cons, x0, cut, fx.grid,
                                sample_gauges=(phi, ok))
                out.check(good, f"gauge_subgradient_check n={q.n}")
                verdict = out.call("esh_probe", gc.check_supporting, p, cut)
                out.check(verdict.supporting, f"check_supporting on an ESH cut n={q.n}")
            except Exception as exc:
                out.error(exc, "ESH cut check")
        if fx.probe_point is None:
            return out
        try:
            kcut = out.call("kelley_cut", gc.kelley_cut, cons[0].expr, fx.probe_point, "quad")
            verdict = out.call("probe", gc.check_supporting, p, kcut)
            always = out.call("classify", gc.classify_quadratic, q) == "always_supporting"
        except Exception as exc:
            out.error(exc, "Kelley probe")
            return out
        out.signature.append(verdict.supporting)
        if verdict.supporting:
            # a True verdict is a proof: its witness must be feasible and tight
            w = verdict.witness
            tight = abs(float(kcut.alpha @ w) - kcut.beta) <= BOUNDARY_TOL * max(1.0, abs(kcut.beta))
            out.check(always and q.value(w) <= BOUNDARY_TOL + FEAS_SLACK and tight,
                      f"check_supporting True on a Kelley cut n={q.n}, classifier "
                      f"{'agrees' if always else 'disagrees'}")
        elif always:
            # a False verdict is heuristic evidence: a miss is a failed probe,
            # not a false claim
            out.fail(f"check_supporting missed a supporting Kelley cut n={q.n}")
        else:
            out.attempted += 1
        return out

    @staticmethod
    def _gauges_ok(q: QuadraticForm, x0, grid, phi, ok) -> bool:
        """Every bracketed ray's crossing ``x0 + (x - x0) / phi`` lies on the
        boundary."""
        if not np.all(np.isfinite(phi)) or np.any(phi < 0.0):
            return False
        sel = ok & (phi > 0.0)
        Y = x0 + (grid[sel] - x0) / phi[sel, None]
        g = np.einsum("ij,jk,ik->i", Y, q.A, Y) + Y @ q.b + q.c0
        return bool(np.all(np.abs(g) <= BOUNDARY_TOL * np.maximum(1.0, np.abs(Y).sum(axis=1) ** 2)))


def _random_psd_quadratic(rng, n: int, kind: float) -> QuadraticForm:
    """Criterion 4's generator: PSD with 0 strictly inside ``{g <= 0}``;
    singular with probability 0.4, linear term outside the range of ``A``
    with probability 0.4.  ``kind``, uniform on ``[0, 1)``, makes both
    choices: ``b`` is in the range of ``A`` when ``kind < 0.6``, and then
    ``A`` is singular when ``kind < 0.24`` (0.4 of 0.6).  ``singular`` does
    not matter when ``b`` is outside the range."""
    b_in_range = kind < 0.6
    singular = kind < 0.24
    eigs = rng.uniform(0.5, 3.0, size=n)
    kernel_dim = 0
    if singular or not b_in_range:
        kernel_dim = int(rng.integers(1, n)) if n > 1 else 1
        eigs[:kernel_dim] = 0.0
    Q, R = np.linalg.qr(rng.standard_normal((n, n)))
    Q = Q * np.sign(np.diag(R))
    A = Q @ np.diag(eigs) @ Q.T
    b = A @ rng.uniform(-1.0, 1.0, size=n)
    if not b_in_range:
        coeffs = rng.uniform(0.5, 1.5, size=kernel_dim) * rng.choice([-1.0, 1.0], size=kernel_dim)
        b = b + Q[:, :kernel_dim] @ coeffs
    return QuadraticForm(A, b, -float(rng.uniform(0.5, 2.0)))


WORKLOADS = {w.name: w for w in (EshSolve, BnbKelley, Verify)}
