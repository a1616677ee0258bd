import math

import numpy as np
import pytest

from gaugecut import Cut, LpModel, SolverConfig, add_cut, lp_solve, solve_esh
from gaugecut.lp import _REFACTOR_EVERY, check_solution

from helpers import brute_force_lp


def box_model(c=(-1.0, -1.0)):
    return LpModel(np.array([-10.0, -10.0]), np.array([10.0, 10.0]), np.array(c))


# ---------------------------------------------------------------------------
# Cut normalization and dedup
# ---------------------------------------------------------------------------


def test_cut_is_normalized_to_unit_max_norm():
    cut = Cut(np.array([3.0, 3.0]), 5.5)
    assert np.array_equal(cut.alpha, [1.0, 1.0])
    assert cut.beta == 5.5 / 3.0
    cut2 = Cut(np.array([-4.0, 2.0]), 8.0)
    assert np.max(np.abs(cut2.alpha)) == 1.0
    assert np.array_equal(cut2.alpha, [-1.0, 0.5])


def test_zero_alpha_rejected():
    with pytest.raises(ValueError, match="nonzero"):
        Cut(np.array([0.0, 0.0]), 1.0)


def test_add_cut_deduplicates_scaled_copies():
    m = box_model()
    assert add_cut(m, Cut(np.array([3.0, 3.0]), 5.5)) is True
    assert add_cut(m, Cut(np.array([6.0, 6.0]), 11.0)) is False
    assert len(m.cuts) == 1


def test_parallel_cuts_with_different_beta_both_kept():
    m = box_model()
    assert add_cut(m, Cut(np.array([1.0, 1.0]), 11.0 / 6.0)) is True
    assert add_cut(m, Cut(np.array([1.0, 1.0]), math.sqrt(2.0))) is True
    assert len(m.cuts) == 2


# ---------------------------------------------------------------------------
# lp_solve examples
# ---------------------------------------------------------------------------


def test_box_vertex_without_cuts():
    sol = lp_solve(box_model())
    assert sol.status == "optimal"
    assert np.array_equal(sol.x, [10.0, 10.0])
    assert sol.objective_value == -20.0


def test_single_cut_optimum():
    m = box_model()
    add_cut(m, Cut(np.array([1.0, 1.0]), 11.0 / 6.0))
    sol = lp_solve(m)
    assert sol.status == "optimal"
    assert abs(sol.objective_value + 11.0 / 6.0) <= 1e-9
    assert abs(sol.x[0] + sol.x[1] - 11.0 / 6.0) <= 1e-9
    check_solution(m, sol)


def test_contradictory_cuts_infeasible():
    m = LpModel(np.array([-10.0]), np.array([10.0]), np.array([0.0]))
    add_cut(m, Cut(np.array([1.0]), -1.0))   # x <= -1
    add_cut(m, Cut(np.array([-1.0]), -2.0))  # x >= 2
    sol = lp_solve(m)
    assert sol.status == "infeasible"
    assert sol.x is None


def test_cut_outside_box_is_harmless():
    m = box_model()
    add_cut(m, Cut(np.array([1.0, 0.0]), 100.0))
    sol = lp_solve(m)
    assert np.array_equal(sol.x, [10.0, 10.0])


def test_equality_like_pair_of_cuts():
    m = box_model(c=(1.0, 0.0))
    add_cut(m, Cut(np.array([1.0, 0.0]), 3.0))    # x <= 3
    add_cut(m, Cut(np.array([-1.0, 0.0]), -3.0))  # x >= 3
    sol = lp_solve(m)
    assert sol.status == "optimal"
    assert abs(sol.x[0] - 3.0) <= 1e-9
    check_solution(m, sol)


def test_objective_monotone_as_cuts_accumulate():
    m = box_model()
    values = [lp_solve(m).objective_value]
    for beta in (15.0, 8.0, 3.0, 11.0 / 6.0, math.sqrt(2.0)):
        add_cut(m, Cut(np.array([1.0, 1.0]), beta))
        values.append(lp_solve(m).objective_value)
    for prev, nxt in zip(values, values[1:]):
        assert nxt >= prev - 1e-9


# ---------------------------------------------------------------------------
# oracle: dense vertex enumeration on random instances
# ---------------------------------------------------------------------------


def test_against_vertex_enumeration_oracle():
    rng = np.random.default_rng(11)
    feasible_count = 0
    infeasible_count = 0
    for trial in range(60):
        n = int(rng.integers(1, 4))
        lower = rng.uniform(-5.0, 0.0, size=n)
        upper = lower + rng.uniform(0.5, 8.0, size=n)
        c = rng.uniform(-2.0, 2.0, size=n)
        m = LpModel(lower, upper, c)
        n_cuts = int(rng.integers(0, 7))
        for _ in range(n_cuts):
            alpha = rng.uniform(-1.0, 1.0, size=n)
            if np.max(np.abs(alpha)) < 1e-3:
                continue
            # anchor most cuts through a random box point so many instances stay feasible
            anchor = rng.uniform(lower, upper)
            beta = float(alpha @ anchor) + float(rng.uniform(-0.5, 1.5))
            add_cut(m, Cut(alpha, beta))
        sol = lp_solve(m)
        best, _ = brute_force_lp(lower, upper, m.cuts, c)
        if best is None:
            assert sol.status == "infeasible", f"trial {trial}"
            infeasible_count += 1
        else:
            assert sol.status == "optimal", f"trial {trial}"
            assert abs(sol.objective_value - best) <= 1e-6, f"trial {trial}"
            check_solution(m, sol)
            feasible_count += 1
    assert feasible_count >= 30
    assert infeasible_count >= 3


def test_solutions_satisfy_bounds_and_cuts_posthoc():
    rng = np.random.default_rng(5)
    for _ in range(25):
        n = int(rng.integers(2, 5))
        lower = -rng.uniform(1.0, 5.0, size=n)
        upper = rng.uniform(1.0, 5.0, size=n)
        c = rng.uniform(-1.0, 1.0, size=n)
        m = LpModel(lower, upper, c)
        for _ in range(int(rng.integers(1, 9))):
            alpha = rng.standard_normal(n)
            add_cut(m, Cut(alpha, float(alpha @ rng.uniform(lower, upper) * 0.5) + 0.3))
        sol = lp_solve(m)
        if sol.status == "optimal":
            check_solution(m, sol)


# ---------------------------------------------------------------------------
# dual simplex: HiGHS oracle, warm starts, pivot counts
# ---------------------------------------------------------------------------


def _random_pool(rng, n, rows, lower, upper, through=None):
    """Random cuts; with ``through`` given, about 40% pass exactly through
    that point, which makes the LPs degenerate."""
    cuts = []
    for _ in range(rows):
        alpha = rng.uniform(-1.0, 1.0, size=n)
        if np.max(np.abs(alpha)) < 1e-3:
            continue
        if through is not None and rng.random() < 0.4:
            cuts.append(Cut(alpha, float(alpha @ through)))
            continue
        anchor = rng.uniform(lower, upper)
        cuts.append(Cut(alpha, float(alpha @ anchor) + float(rng.uniform(-1.0, 2.0))))
    return cuts


def test_against_highs_on_random_cut_pools():
    optimize = pytest.importorskip("scipy.optimize")
    rng = np.random.default_rng(23)
    statuses = {"optimal": 0, "infeasible": 0}
    for trial in range(120):
        n = int(rng.integers(1, 7))
        # integer bounds, some of them fixed, as branch and bound makes them
        lower = np.round(rng.uniform(-5.0, 0.0, size=n))
        upper = lower + np.round(rng.uniform(0.0, 8.0, size=n))
        c = rng.uniform(-2.0, 2.0, size=n)
        m = LpModel(lower, upper, c)
        through = rng.uniform(lower, upper)
        for cut in _random_pool(rng, n, int(rng.integers(0, 25)), lower, upper, through):
            add_cut(m, cut)
            sol = lp_solve(m)  # the last solve is warm-started from the others
        sol = lp_solve(m)
        A, b = m.rows()
        ref = optimize.linprog(
            c,
            A_ub=A if len(b) else None,
            b_ub=b if len(b) else None,
            bounds=list(zip(lower, upper)),
            method="highs",
        )
        statuses[sol.status] += 1
        if ref.status == 2:
            assert sol.status == "infeasible", f"trial {trial}"
        else:
            assert ref.status == 0, f"trial {trial}: {ref.message}"
            assert sol.status == "optimal", f"trial {trial}"
            assert abs(sol.objective_value - ref.fun) <= 1e-7 * (1.0 + abs(ref.fun)), f"trial {trial}"
            check_solution(m, sol)
    assert statuses["optimal"] >= 20
    assert statuses["infeasible"] >= 20


def test_infeasible_with_roundoff_entries_on_slacks_is_certified():
    # degenerate cuts: the Farkas row ends with entries of about 1e-16 on
    # nonbasic slacks, which must not make rho^T [A I] z range to infinity
    m = LpModel(np.array([-1.0, -1.0, -2.0, -1.0]), np.array([0.0, 1.0, 0.0, 5.0]),
                np.array([-1.0, 0.0, 0.0, 1.0]))
    for alpha, beta in [
        ((-1.0, -0.75, 0.0, 0.75), 0.0),
        ((-1.0, -1.0, 0.5, 0.5), 0.0),
        ((1.0, 0.5, -0.5, 0.0), 0.0),
        ((-0.5, 0.5, 0.5, -1.0), -1.0),
        ((1 / 3, 2 / 3, -1 / 3, -1.0), 1 / 3),
    ]:
        add_cut(m, Cut(np.array(alpha), beta))
    assert lp_solve(m).status == "infeasible"
    best, _ = brute_force_lp(m.lower, m.upper, m.cuts, m.objective)
    assert best is None


def _assert_same_as_fresh(m):
    warm = lp_solve(m)
    fresh = lp_solve(LpModel(m.lower, m.upper, m.objective, cuts=list(m.cuts)))
    assert warm.status == fresh.status
    if warm.status == "optimal":
        assert abs(warm.objective_value - fresh.objective_value) <= 1e-9
    return warm


def test_warm_and_cold_solves_agree():
    rng = np.random.default_rng(3)
    for _ in range(15):
        n = int(rng.integers(2, 6))
        lower = np.full(n, -5.0)
        upper = np.full(n, 5.0)
        m = LpModel(lower, upper, rng.uniform(-1.0, 1.0, size=n))
        for cut in _random_pool(rng, n, 20, lower, upper):
            add_cut(m, cut)
            _assert_same_as_fresh(m)
        # branch the way B&B does: the child takes a tighter box, starts from
        # its parent's final basis, and may meet cuts added since
        parent_basis, box = m.basis, (m.lower, m.upper)
        for _ in range(6):
            sol = lp_solve(m)
            if sol.status == "infeasible":
                m.lower, m.upper = box
                m.basis = parent_basis
                continue
            j = int(rng.integers(n))
            lower, upper = m.lower.copy(), m.upper.copy()
            if rng.random() < 0.5:
                upper[j] = math.floor(sol.x[j])
            else:
                lower[j] = math.ceil(sol.x[j])
            if lower[j] > upper[j]:
                continue
            parent_basis, box = m.basis, (m.lower, m.upper)
            m.lower, m.upper = lower, upper
            for cut in _random_pool(rng, n, int(rng.integers(0, 3)), lower, upper):
                add_cut(m, cut)
            _assert_same_as_fresh(m)


@pytest.mark.parametrize(
    "cuts, new_objective",
    [
        # a cut's dual changes sign: the start basis is rejected, cold restart
        ((((1.0, 1.0), 1.0), ((1.0, -1.0), 1.0)), (1.0, 1.0)),
        # only a nonbasic structural's reduced cost changes sign: it moves to
        # its other bound and the start basis is kept
        ((((1.0, 0.0), 3.0),), (-1.0, 1.0)),
    ],
)
def test_warm_start_after_the_objective_changes(cuts, new_objective):
    m = box_model()
    for alpha, beta in cuts:
        add_cut(m, Cut(np.array(alpha), beta))
    assert lp_solve(m).status == "optimal"
    m.objective = np.array(new_objective)
    assert _assert_same_as_fresh(m).status == "optimal"


def test_one_added_cut_costs_at_most_three_pivots_on_the_esh_circle(circle):
    trace = solve_esh(circle, SolverConfig(eps_feas=1e-6))
    assert len(trace.cuts) >= 10
    m = LpModel(circle.lower, circle.upper, circle.objective)
    lp_solve(m)
    for cut in trace.cuts:
        assert add_cut(m, cut)
        assert lp_solve(m).pivots <= 3


# ---------------------------------------------------------------------------
# the basis inverse carried across solves
# ---------------------------------------------------------------------------


def _basis_matrix(m, columns):
    A, _ = m.rows()
    k = columns.shape[0]
    B = np.zeros((k, k))
    struct = columns < m.n
    B[:, struct] = A[:k, columns[struct]]
    B[columns[~struct] - m.n, np.flatnonzero(~struct)] = 1.0
    return B


def test_carried_inverse_inverts_the_basis_after_every_solve():
    rng = np.random.default_rng(11)
    for _ in range(10):
        n = int(rng.integers(2, 6))
        lower, upper = np.full(n, -5.0), np.full(n, 5.0)
        m = LpModel(lower, upper, rng.uniform(-1.0, 1.0, size=n))
        for cut in _random_pool(rng, n, 30, lower, upper, rng.uniform(lower, upper)):
            add_cut(m, cut)
            lp_solve(m)
            basis = m.basis
            assert not basis.inverse.flags.writeable
            with pytest.raises(ValueError):
                basis.inverse[0, 0] = 1.0
            k = basis.columns.shape[0]
            assert np.allclose(basis.inverse @ _basis_matrix(m, basis.columns), np.eye(k),
                               rtol=0.0, atol=1e-9)


@pytest.mark.parametrize("new_cut", [False, True])
def test_children_leave_their_parents_inverse_alone(new_cut):
    # one parent basis, two children with different boxes, as branch and bound
    # hands them out; without a new cut the children start on the parent's
    # own inverse
    m = box_model(c=(-1.0, -2.0))
    add_cut(m, Cut(np.array([1.0, 1.0]), 2.5))
    add_cut(m, Cut(np.array([-1.0, 2.0]), 3.5))
    x = lp_solve(m).x
    assert abs(x[0] - 0.5) <= 1e-12  # fractional: both children pivot
    parent = m.basis
    saved = parent.inverse.copy()
    for lower, upper in (([-10.0, -10.0], [0.0, 10.0]), ([1.0, -10.0], [10.0, 10.0])):
        m.lower, m.upper, m.basis = np.array(lower), np.array(upper), parent
        if new_cut:
            add_cut(m, Cut(np.array([1.0, -1.0]), 4.0 + len(m.cuts)))
        sol = _assert_same_as_fresh(m)
        assert sol.status == "optimal" and sol.pivots >= 1
        assert np.array_equal(parent.inverse, saved)
        assert m.basis.inverse is not parent.inverse


def test_inverse_age_counts_across_solves_until_the_refactor():
    # Kelley on the unit ball: each cut is tangent at the direction of the
    # last LP point, so every solve pivots
    rng = np.random.default_rng(5)
    n = 4
    m = LpModel(np.full(n, -2.0), np.full(n, 2.0), rng.uniform(-1.0, 1.0, size=n))
    x = lp_solve(m).x
    carried, reset = False, False
    for _ in range(80):
        assert add_cut(m, Cut(x / np.linalg.norm(x), 1.0))
        before = m.basis.age
        sol = lp_solve(m)
        x = sol.x
        after = m.basis.age
        assert after < _REFACTOR_EVERY
        if sol.pivots and after == before + sol.pivots:
            carried |= before > 0
        elif before + sol.pivots >= _REFACTOR_EVERY:
            reset = True
            assert after == before + sol.pivots - _REFACTOR_EVERY
    assert carried and reset
