"""Linear relaxations: a cut pool over box bounds and a bounded dual simplex
that re-optimises from the previous basis.

The relaxation solved at every cutting-plane iteration is

    min c^T x   s.t.   lower <= x <= upper,   alpha_k^T x <= beta_k  (pool)

Cuts are stored normalized (max-norm of alpha equal to one) so that
deduplication is scale-invariant: cuts that differ only by a positive factor
are the same half-space.  The model also keeps the pool as one growing row
array, so deduplication is one numpy comparison and a solve stacks nothing.

Each cut row k gets a slack ``s_k = beta_k - alpha_k^T x`` in ``[0, inf)``.
Every structural variable is boxed and slacks cost nothing, so the all-slack
basis with each structural at its cost-favourable bound is dual feasible: the
dual simplex needs no phase 1.  A model keeps the basis of its last solve.
A new cut's slack enters that basis as basic and a tighter box leaves the
reduced costs unchanged, so the next solve starts dual feasible from there
and typically needs one or two pivots.  A start basis that fails the
dual-feasibility check is replaced by the all-slack basis.

Pivoting is deterministic: leave on the most infeasible basic variable, enter
on the smallest dual ratio, ties to the largest |pivot| and then the lowest
index.  After ``10*(rows+cols)`` pivots both choices switch to the lowest
index, which prevents cycling.  A basic variable leaves once it is outside
its bounds by more than 1e-12, far below :data:`FEAS_TOL`, so a cut that cuts
the iterate off by less than ``FEAS_TOL`` still moves it; basic values get
one step of iterative refinement to make that resolution meaningful.
``"infeasible"`` is returned only with a checked Farkas row ``rho``:
``rho^T b`` must lie outside the range of ``rho^T [A I] z`` over the variable
bounds.  If that check fails, the solve restarts from the all-slack basis; it
never reports infeasibility unchecked.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import SimplexNumericalError

__all__ = ["Cut", "LpBasis", "LpModel", "LpSolution", "add_cut", "lp_solve"]

DEDUP_TOL = 1e-9
FEAS_TOL = 1e-9
_PRIMAL_TOL = 1e-12  # a basic variable this far outside its bounds leaves
_PIVOT_TOL = 1e-10  # smallest |pivot| a column may enter with
_RATIO_TIE_TOL = 1e-12  # dual ratios this close count as tied
# basis inverse is recomputed from scratch after this many product-form updates
_REFACTOR_EVERY = 50


@dataclass(frozen=True, eq=False)
class Cut:
    """Linear inequality ``alpha^T x <= beta`` with provenance.

    ``origin`` is one of ``"kelley"`` (linearized at the separated point),
    ``"esh"`` (linearized at a boundary point found by line search) or
    ``"user"``.  ``constraint`` names the generating constraint and ``point``
    is where the cut was generated.  The stored form is normalized:
    ``max|alpha| == 1``.
    """

    alpha: np.ndarray
    beta: float
    origin: str = "user"
    constraint: str | None = None
    point: np.ndarray | None = None

    def __post_init__(self):
        alpha = np.array(self.alpha, dtype=float)
        if alpha.ndim != 1:
            raise ValueError(f"alpha must be a vector, got shape {alpha.shape}")
        scale = float(np.max(np.abs(alpha)))
        if scale == 0.0:
            raise ValueError("cut normal must be nonzero")
        alpha = alpha / scale
        beta = float(self.beta) / scale
        if not (np.all(np.isfinite(alpha)) and np.isfinite(beta)):
            raise ValueError("cut coefficients are not finite after normalization")
        if self.origin not in ("kelley", "esh", "user"):
            raise ValueError(f"unknown cut origin {self.origin!r}")
        alpha.setflags(write=False)
        object.__setattr__(self, "alpha", alpha)
        object.__setattr__(self, "beta", beta)
        point = self.point
        if point is not None:
            point = np.array(point, dtype=float)
            point.setflags(write=False)
        object.__setattr__(self, "point", point)

    def violation(self, x) -> float:
        """``alpha^T x - beta``; positive means ``x`` is cut off."""
        return float(self.alpha @ np.asarray(x, dtype=float) - self.beta)

    def to_json(self) -> dict:
        origin: dict = {"method": self.origin}
        if self.constraint is not None:
            origin["constraint"] = self.constraint
        if self.point is not None:
            origin["point"] = [float(v) for v in self.point]
        return {"alpha": [float(a) for a in self.alpha], "beta": self.beta, "origin": origin}


@dataclass(frozen=True, eq=False)
class LpBasis:
    """A simplex basis of an :class:`LpModel`.  ``columns[i]`` is the variable
    basic in row ``i``: ``j < n`` is structural ``j`` and ``n + k`` the slack
    of cut ``k``.  ``at_upper`` marks the structurals that sit at their upper
    bound when nonbasic.  Rows added after the basis was taken enter with
    their slacks basic."""

    columns: np.ndarray
    at_upper: np.ndarray


@dataclass
class LpModel:
    """Box bounds, linear objective, the accumulating cut pool, and the basis
    the next solve starts from (``None``: the all-slack basis).  Add cuts
    with :func:`add_cut`; the pool only grows."""

    lower: np.ndarray
    upper: np.ndarray
    objective: np.ndarray
    cuts: list[Cut] = field(default_factory=list)
    basis: LpBasis | None = None
    _alpha: np.ndarray = field(init=False, repr=False)
    _beta: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        self.lower = np.asarray(self.lower, dtype=float)
        self.upper = np.asarray(self.upper, dtype=float)
        self.objective = np.asarray(self.objective, dtype=float)
        n = self.lower.shape[0]
        if self.upper.shape != (n,) or self.objective.shape != (n,):
            raise ValueError("lower, upper, objective must have equal lengths")
        if not (np.all(np.isfinite(self.lower)) and np.all(np.isfinite(self.upper))):
            raise ValueError("bounds must be finite")
        if np.any(self.lower > self.upper):
            raise ValueError("lower bound exceeds upper bound")
        self._alpha = np.empty((0, n))
        self._beta = np.empty(0)

    @property
    def n(self) -> int:
        return self.lower.shape[0]

    def rows(self) -> tuple[np.ndarray, np.ndarray]:
        """The pool as ``(A, b)``, one row per cut in pool order; cuts
        appended to ``cuts`` directly are picked up here."""
        new = self.cuts[self._beta.shape[0]:]
        if new:
            self._alpha = np.concatenate([self._alpha, [cut.alpha for cut in new]])
            self._beta = np.concatenate([self._beta, [cut.beta for cut in new]])
        return self._alpha, self._beta


@dataclass(frozen=True, eq=False)
class LpSolution:
    status: str  # "optimal" | "infeasible"
    x: np.ndarray | None
    objective_value: float | None
    pivots: int  # dual simplex pivots of this solve


def add_cut(m: LpModel, cut: Cut) -> bool:
    """Append ``cut`` to the pool unless an equal normalized cut is already
    there: ``beta`` and every entry of ``alpha`` within :data:`DEDUP_TOL`.
    Both are normalized, so this is scale-invariant equality of the
    half-spaces.  Returns True iff the pool grew."""
    if cut.alpha.shape != (m.n,):
        raise ValueError(f"cut dimension {cut.alpha.shape[0]} does not match model ({m.n})")
    A, b = m.rows()
    near = np.flatnonzero(np.abs(b - cut.beta) <= DEDUP_TOL)
    if near.size and np.any(np.max(np.abs(A[near] - cut.alpha), axis=1) <= DEDUP_TOL):
        return False
    m.cuts.append(cut)
    return True


def lp_solve(m: LpModel) -> LpSolution:
    """Solve the relaxation to an optimal vertex, or report with a checked
    Farkas certificate that the cuts exclude the whole box.  Starts from
    ``m.basis`` and leaves the final basis there for the next solve."""
    A, b = m.rows()
    simplex = _DualSimplex(A, b, m.lower, m.upper, m.objective)
    sol = simplex.run() if m.basis is not None and simplex.load(m.basis) else None
    if sol is None:
        simplex.load(LpBasis(np.zeros(0, dtype=int), np.zeros(m.n, dtype=bool)))
        sol = simplex.run()
    if sol is None:
        raise SimplexNumericalError(
            "no entering column, but the Farkas row does not certify infeasibility"
        )
    m.basis = simplex.basis()
    return sol


class _DualSimplex:
    """Dense bounded dual simplex on ``[A I] (x, s) = b`` with an explicit
    basis inverse, updated in product form and recomputed periodically.

    Columns ``0..n-1`` are structural (boxed), ``n..n+m-1`` the row slacks
    (``[0, inf)``, so nonbasic slacks sit at zero).
    """

    def __init__(self, A, b, lower, upper, c):
        self.A, self.b, self.c = A, b, c
        m, n = A.shape
        self.m, self.n = m, n
        self.lo = np.concatenate([lower, np.zeros(m)])
        self.hi = np.concatenate([upper, np.full(m, np.inf)])
        self.cost = np.concatenate([c, np.zeros(m)])
        self.movable = self.hi > self.lo  # fixed variables never enter
        self.pivots = 0
        self.lowest_index_after = 10 * (2 * m + n)
        self.pivot_limit = 100 * (2 * m + n) + 1000

    # -- basis -----------------------------------------------------------

    def load(self, start: LpBasis) -> bool:
        """Install ``start`` extended by basic slacks for newer rows (all
        slacks for an empty ``start``).  Returns False when ``start`` is not
        a usable dual feasible basis of this model."""
        m, n = self.m, self.n
        k = start.columns.shape[0]
        if k > m or start.at_upper.shape != (n,):
            return False
        self.columns = np.concatenate([start.columns, n + np.arange(k, m)])
        self.is_basic = np.zeros(n + m, dtype=bool)
        self.is_basic[self.columns] = True
        self.at_upper = np.zeros(n + m, dtype=bool)
        self.at_upper[:n] = start.at_upper
        try:
            self._factor()
        except SimplexNumericalError:
            return False
        # boxed structurals are dual feasible at the bound their reduced cost
        # favours; a nonbasic slack with negative reduced cost is not
        d = self._reduced_costs()
        struct = ~self.is_basic[:n]
        self.at_upper[:n] = np.where(struct & (d[:n] != 0.0), d[:n] < 0.0, self.at_upper[:n])
        slack_d = d[n:][~self.is_basic[n:]]
        return not np.any(slack_d < -FEAS_TOL)

    def basis(self) -> LpBasis:
        return LpBasis(self.columns.copy(), self.at_upper[: self.n].copy())

    def _factor(self) -> None:
        B = np.zeros((self.m, self.m))
        struct = self.columns < self.n
        B[:, struct] = self.A[:, self.columns[struct]]
        B[self.columns[~struct] - self.n, np.flatnonzero(~struct)] = 1.0
        try:
            self.Binv = np.linalg.inv(B)
        except np.linalg.LinAlgError as err:
            raise SimplexNumericalError(f"singular basis matrix: {err}") from err

    # -- core loop -------------------------------------------------------

    def _reduced_costs(self) -> np.ndarray:
        y = self.cost[self.columns] @ self.Binv
        d = self.cost - np.concatenate([y @ self.A, y])
        d[self.columns] = 0.0
        return d

    def _primal(self) -> tuple[np.ndarray, np.ndarray]:
        """Structural values and basic values of the current basis.  One step
        of iterative refinement against ``[A I]`` keeps them accurate on the
        ill-conditioned bases that nearly parallel cuts produce."""
        n = self.n
        z = np.zeros(n + self.m)
        z[:n] = np.where(self.at_upper[:n], self.hi[:n], self.lo[:n])
        z[self.columns] = 0.0
        xB = self.Binv @ (self.b - self.A @ z[:n])
        z[self.columns] = xB
        xB = xB + self.Binv @ (self.b - self.A @ z[:n] - z[n:])
        z[self.columns] = xB
        return z[:n], xB

    def run(self) -> LpSolution | None:
        """Pivot to optimality or to a certified infeasible row.  Returns
        None when a row without an entering column fails its certificate."""
        while True:
            x, xB = self._primal()
            loB, hiB = self.lo[self.columns], self.hi[self.columns]
            infeas = np.maximum(loB - xB, xB - hiB)
            worst = float(infeas.max(initial=0.0))
            if worst <= _PRIMAL_TOL:
                return LpSolution("optimal", x, float(self.c @ x), self.pivots)
            if self.pivots >= self.pivot_limit:
                raise SimplexNumericalError(
                    f"pivot limit exceeded after {self.pivots} pivots; "
                    "numerical cycling suspected"
                )
            lowest_index = self.pivots >= self.lowest_index_after
            if lowest_index:
                rows = np.flatnonzero(infeas > _PRIMAL_TOL)
                r = int(rows[np.argmin(self.columns[rows])])
            else:
                r = int(np.argmax(infeas))
            to_upper = bool(xB[r] > hiB[r])
            rho = self.Binv[r]
            alpha = np.concatenate([rho @ self.A, rho])
            # +1 for a nonbasic at its lower bound (may increase), -1 at upper
            side = np.where(self.at_upper, -1.0, 1.0)
            toward = side * alpha if to_upper else -side * alpha
            eligible = np.flatnonzero((toward > _PIVOT_TOL) & ~self.is_basic & self.movable)
            if eligible.size == 0:
                if worst <= FEAS_TOL:  # infeasible by less than the tolerance
                    return LpSolution("optimal", x, float(self.c @ x), self.pivots)
                if self._certifies_infeasible(rho, r, alpha):
                    return LpSolution("infeasible", None, None, self.pivots)
                return None
            d = self._reduced_costs()
            ratio = np.maximum(side[eligible] * d[eligible], 0.0) / np.abs(alpha[eligible])
            tied = eligible[ratio <= ratio.min() + _RATIO_TIE_TOL]
            if lowest_index:
                q = int(tied[0])
            else:
                q = int(tied[np.argmax(np.abs(alpha[tied]))])
            self._pivot(r, q, to_upper)

    def _pivot(self, r: int, q: int, to_upper: bool) -> None:
        if q < self.n:
            w = self.Binv @ self.A[:, q]
        else:
            w = self.Binv[:, q - self.n].copy()
        row = self.Binv[r] / w[r]
        self.Binv -= np.outer(w, row)
        self.Binv[r] = row
        leaving = self.columns[r]
        self.is_basic[leaving] = False
        self.at_upper[leaving] = to_upper
        self.columns[r] = q
        self.is_basic[q] = True
        self.at_upper[q] = False
        self.pivots += 1
        if self.pivots % _REFACTOR_EVERY == 0:
            self._factor()

    def _certifies_infeasible(self, rho: np.ndarray, r: int, alpha: np.ndarray) -> bool:
        """Farkas check of row ``r``: no z within the bounds has
        ``rho^T [A I] z = rho^T b``.  A slack is bounded above by what the box
        allows, ``b - min over the box of A x``, so a roundoff-size
        coefficient on a slack cannot make the range infinite.  Basic columns
        other than the leaving one get coefficient 0 (they do in exact
        arithmetic)."""
        n = self.n
        coef = alpha.copy()
        coef[self.columns] = 0.0
        coef[self.columns[r]] = 1.0
        lo, hi = self.lo, self.hi.copy()
        row_min = np.minimum(self.A * lo[:n], self.A * hi[:n]).sum(axis=1)
        hi[n:] = np.maximum(self.b - row_min, 0.0)
        pos, neg = coef > 0.0, coef < 0.0
        low = coef[pos] @ lo[pos] + coef[neg] @ hi[neg]
        high = coef[pos] @ hi[pos] + coef[neg] @ lo[neg]
        target = float(rho @ self.b)
        return max(low - target, target - high) > 0.5 * FEAS_TOL


def check_solution(m: LpModel, sol: LpSolution, tol: float = FEAS_TOL) -> None:
    """Assert the optimality-side invariants of a solution: bounds and every
    pool cut satisfied to ``tol``.  Used by tests after each solve."""
    if sol.status != "optimal":
        return
    x = sol.x
    assert np.all(x >= m.lower - tol), "solution violates a lower bound"
    assert np.all(x <= m.upper + tol), "solution violates an upper bound"
    for cut in m.cuts:
        assert cut.violation(x) <= tol, "solution violates a pool cut"
