import math
import re
import warnings

import numpy as np
import pytest

from gaugecut import (
    Cut,
    EvalDomainError,
    PreconditionError,
    QuadraticForm,
    SeparationError,
    affine_on_segment,
    check_supporting,
    classify_quadratic,
    esh_cut,
    eval_value,
    gauge_subgradient_check,
    gauge_values,
    kelley_cut,
    line_search_boundary,
    load_problem,
    parse,
)
from gaugecut import separation
from gaugecut.model import SolverConfig, constraint_values, max_violation
from gaugecut.separation import _boundary_crossings  # bound before any test patches it

from helpers import (
    assert_same_crossings,
    assert_values_at_crossings,
    make_annulus,
    make_ball_exp,
    make_circle,
    make_log,
    make_nonconvex_circle,
    random_psd_quadratic,
    reference_boundary_crossings,
    sample_unit_disk,
)

XY = ("x", "y")
CIRCLE = parse("x^2 + y^2 - 1", XY)
SHELL = parse("1 - exp(1 - x^2 - y^2)", XY)
ORIGIN = np.zeros(2)
SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# kelley_cut
# ---------------------------------------------------------------------------


def test_kelley_cut_circle_example():
    cut = kelley_cut(CIRCLE, [1.5, 1.5], "ball")
    assert np.array_equal(cut.alpha, [1.0, 1.0])
    assert abs(cut.beta - 11.0 / 6.0) <= 1e-15
    assert cut.origin == "kelley"
    assert cut.constraint == "ball"
    assert np.array_equal(cut.point, [1.5, 1.5])


def test_kelley_cut_requires_violation():
    with pytest.raises(PreconditionError, match="does not violate"):
        kelley_cut(CIRCLE, [0.0, 0.0])


def test_kelley_cut_linear_variable_example():
    cut = kelley_cut(parse("x^2 - y", XY), [1.0, 0.0])
    # 2x - y <= 1, normalized by max-norm 2
    assert np.array_equal(cut.alpha, [1.0, -0.5])
    assert cut.beta == 0.5


def test_kelley_cut_vanishing_gradient():
    bad = parse("x^2 + y^2 + 1", XY)  # infeasible everywhere, flat at 0
    with pytest.raises(SeparationError, match="cannot separate"):
        kelley_cut(bad, [0.0, 0.0])


# ---------------------------------------------------------------------------
# line_search_boundary
# ---------------------------------------------------------------------------


def test_line_search_circle_diagonal():
    gr = line_search_boundary(make_circle().constraints, ORIGIN, [1.5, 1.5])
    lam = 1.0 / (1.5 * SQRT2)
    assert abs(gr.lambda_star - lam) <= 2e-9
    assert abs(gr.gauge_value - math.sqrt(4.5)) <= 1e-7
    assert np.max(np.abs(gr.boundary_point - 1.0 / SQRT2)) <= 1e-8
    assert gr.active_set == (0,)
    f, _ = max_violation(make_circle().constraints, gr.boundary_point)
    assert -1e-9 <= f <= 1e-9


def test_line_search_circle_axis():
    gr = line_search_boundary(make_circle().constraints, ORIGIN, [2.0, 0.0])
    assert abs(gr.lambda_star - 0.5) <= 2e-9
    assert abs(gr.gauge_value - 2.0) <= 1e-7
    assert np.max(np.abs(gr.boundary_point - [1.0, 0.0])) <= 1e-8


def test_line_search_nonconvex_representation_same_boundary():
    from gaugecut.model import Constraint

    # 1 - exp(1 - t) has the same zero-sublevel set as t - 1
    gr = line_search_boundary((Constraint("shell", SHELL),), ORIGIN, [1.5, 1.5])
    assert np.max(np.abs(gr.boundary_point - 1.0 / SQRT2)) <= 1e-8


def test_line_search_preconditions():
    cons = make_circle().constraints
    with pytest.raises(PreconditionError, match="not strictly interior"):
        line_search_boundary(cons, [2.0, 2.0], [3.0, 3.0])
    with pytest.raises(PreconditionError, match="feasible"):
        line_search_boundary(cons, ORIGIN, [0.5, 0.5])
    # the ray from (5, 5) through (6, 6) never leaves {xy >= e}
    with pytest.raises(PreconditionError, match=r"point to separate is feasible \(max_j g_j = -"):
        line_search_boundary(make_log().constraints, [5.0, 5.0], [6.0, 6.0])


_E_ROOT = math.exp(0.5)  # (e^(1/2), e^(1/2)) lies on the boundary xy = e of the log set
_OFF_DOMAIN_CALLS = {
    "line_search_boundary": lambda cons, x0: line_search_boundary(cons, x0, [1.0, 1.0]),
    "gauge_values": lambda cons, x0: gauge_values(cons, x0, [[3.0, 3.0]]),
    "gauge_values_at_x0": lambda cons, x0: gauge_values(cons, x0, [x0]),
    "gauge_subgradient_check": lambda cons, x0: gauge_subgradient_check(
        cons, x0, Cut(np.ones(2), 2.0 * _E_ROOT, point=np.full(2, _E_ROOT)), [[3.0, 3.0]]),
    "check_supporting": lambda cons, x0: check_supporting(
        cons, Cut(np.ones(2), 1.0), interior_point=x0),
}


@pytest.mark.parametrize("call", _OFF_DOMAIN_CALLS.values(), ids=_OFF_DOMAIN_CALLS.keys())
def test_interior_point_outside_the_domain_is_not_strictly_interior(call):
    # log(0) is undefined: every entry point reads max_j g_j(x0) = inf
    with pytest.raises(PreconditionError, match=r"not strictly interior \(max_j g_j = inf\)"):
        call(make_log().constraints, ORIGIN)


def test_line_search_respects_tolerance_config():
    cons = make_circle().constraints
    cfg = SolverConfig(line_search_tol=1e-12)
    gr = line_search_boundary(cons, ORIGIN, [1.5, 1.5], cfg)
    assert abs(gr.lambda_star - 1.0 / (1.5 * SQRT2)) <= 2e-12


def test_line_search_evaluation_budget(monkeypatch):
    calls = []

    def counting(fn):
        def counted(cons, x):
            calls.append(np.atleast_2d(x).shape[0])
            return fn(cons, x)
        return counted

    # the test-mode reference check evaluates on its own; the crossing is
    # pinned bit for bit below instead
    monkeypatch.setattr(separation, "_boundary_crossings", _boundary_crossings)
    monkeypatch.setattr(separation, "constraint_values", counting(separation.constraint_values))
    monkeypatch.setattr(separation, "max_violation", counting(separation.max_violation))
    gr = line_search_boundary(make_circle().constraints, ORIGIN, [1.5, 1.5])
    # xbar, x0 and the 31-point tree of the first five halvings together,
    # then about 25 halvings in two rounds of at most _ROUND_POINTS
    # midpoints; one constraint needs no evaluation for the active set
    assert len(calls) <= 3
    assert calls[0] == 33 and max(calls) <= separation._ROUND_POINTS
    assert gr.lambda_star.hex() == "0x1.e2b7dddc00000p-2"


def _count_evaluations(monkeypatch, name):
    """The batches ``separation.<name>`` evaluates from now on, with the
    kernel's test-mode reference check, which evaluates on its own, off."""
    batches = []
    fn = getattr(separation, name)

    def counted(cons, x):
        batches.append(np.atleast_2d(x).copy())
        return fn(cons, x)

    monkeypatch.setattr(separation, "_boundary_crossings", _boundary_crossings)
    monkeypatch.setattr(separation, name, counted)
    return batches


def test_gauge_values_checks_x0_in_the_first_evaluation(monkeypatch):
    p = make_circle()
    x0 = np.array([0.25, -0.5])
    points = np.array([[1.5, 1.5], [0.0, 0.1], [-3.0, 2.0]])
    batches = _count_evaluations(monkeypatch, "constraint_values")
    phi, ok = gauge_values(p.constraints, x0, points)
    # the first ends x0 + 1.0 * d, then x0 as one more row, then each ray's
    # tree of four halvings of [0, 1], at the points t * d + x0
    first = batches[0]
    assert first.shape == (4 + 3 * 15, 2)
    assert np.array_equal(first[:3], (points - x0) + x0) and np.array_equal(first[3], x0)
    tree = np.arange(1, 16) / 16  # the halvings' midpoints, all exact
    expect = tree[None, :, None] * (points - x0)[:, None, :] + x0
    assert np.array_equal(first[4:], expect.reshape(-1, 2))
    assert ok.all() and np.all((phi > 1.0) == [True, False, True])

    batches.clear()
    phi, ok = gauge_values(p.constraints, x0, [x0, x0])
    assert [b.tolist() for b in batches] == [[x0.tolist()]]
    assert phi.tolist() == [0.0, 0.0] and ok.all()


def test_check_supporting_evaluates_only_the_cut_point(monkeypatch):
    cons = make_circle().constraints
    cut = kelley_cut(CIRCLE, [1.5, 1.5])  # valid, does not touch the disk
    batches = _count_evaluations(monkeypatch, "max_violation")
    verdict = check_supporting(cons, cut, interior_point=ORIGIN)
    assert not verdict.supporting
    assert abs(verdict.max_violation_gap - (11.0 / 6.0 - SQRT2)) <= 1e-6
    assert [b.tolist() for b in batches] == [[[1.5, 1.5]]]


def test_line_search_takes_the_active_set_from_the_kernel(monkeypatch):
    # ball+exp has two constraints: the values at the boundary point come
    # from the kernel's own evaluation of it, and nothing evaluates after it
    p = make_ball_exp()
    cfg = SolverConfig()
    batches = _count_evaluations(monkeypatch, "constraint_values")
    at_return = []

    def kernel(*args, **kwargs):
        got = _boundary_crossings(*args, **kwargs)
        at_return.append(len(batches))
        return got

    monkeypatch.setattr(separation, "_boundary_crossings", kernel)
    actives = set()
    for xbar in _rays(p, 20, seed=9):
        batches.clear()
        at_return.clear()
        gr = line_search_boundary(p.constraints, p.interior_point, xbar, cfg)
        assert at_return == [len(batches)]
        g = constraint_values(p.constraints, gr.boundary_point)
        assert gr.active_set == tuple(j for j in range(2) if g[j] >= -cfg.activity_tol)
        actives.add(gr.active_set)
    assert actives == {(0,), (1,)}


@pytest.mark.parametrize("xbar", [[math.nan, 0.0], [math.inf, 0.0]])
def test_line_search_rejects_a_point_to_separate_that_is_not_finite(xbar):
    with pytest.raises(PreconditionError, match="point to separate is not finite"):
        line_search_boundary(make_circle().constraints, ORIGIN, xbar)


def test_every_line_search_round_runs_on_the_blocked_tape():
    # a narrow round evaluates up to _ROUND_POINTS midpoints in one call
    from gaugecut import expr

    assert separation._ROUND_POINTS <= expr._BLOCKED_ROWS


# ---------------------------------------------------------------------------
# the ray-crossing kernel: batched bisection against one halving per evaluation
# ---------------------------------------------------------------------------

KERNEL_SETS = {
    "circle": make_circle,
    "shell": make_nonconvex_circle,
    "log": make_log,  # rays leave log's domain; rays toward (+, +) never leave
    "ball_exp7": make_ball_exp,
    "annulus": make_annulus,  # rays leave the set and re-enter it
}


def _rays(p, rows, seed=0):
    rng = np.random.default_rng(seed)
    return rng.standard_normal((rows, p.n)) * rng.uniform(0.05, 8.0, size=(rows, 1))


# Up to 21 rows take several halvings per evaluation (2 rows five, 21 rows
# two), 22 and more one; 20000 rows span three blocks.  A batch with a row
# outside log's domain is evaluated again in halves.
KERNEL_CASES = [
    (name, rows)
    for name in sorted(KERNEL_SETS)
    for rows in (1, 2, 5, 21, 22, 33, 64, 65, 20000)
]


@pytest.mark.parametrize("settle", [False, True])
@pytest.mark.parametrize("name,rows", KERNEL_CASES)
def test_boundary_crossings_match_one_halving_per_evaluation(name, rows, settle):
    p = KERNEL_SETS[name]()
    x0 = p.interior_point
    D = _rays(p, rows)
    tol = 1e-9 if settle else 1e-13  # the line search's and the grids' settings
    got = _boundary_crossings(p.constraints, x0, D, tol=tol, settle=settle)
    assert_same_crossings(got, reference_boundary_crossings(p.constraints, x0, D, tol, settle))
    assert got[1].any()


@pytest.mark.parametrize("settle", [False, True])
@pytest.mark.parametrize("rows,first", [(0, 1), (21, 43)])
def test_boundary_crossings_at_the_ends_of_the_narrow_range(monkeypatch, rows, first, settle):
    # no rows: x0 alone, with no tree; 21 rows: the first ends, x0 and a
    # tree of one halving per row
    p = make_ball_exp()
    x0 = p.interior_point
    D = _rays(p, rows, seed=2)
    tol = 1e-9 if settle else 1e-13
    ref = reference_boundary_crossings(p.constraints, x0, D, tol, settle)
    sizes = _count_kernel_evaluations(monkeypatch)  # after the reference's evaluations
    got = _boundary_crossings(p.constraints, x0, D, tol=tol, settle=settle)
    assert_same_crossings(got, ref)
    assert_values_at_crossings(p.constraints, x0, D, got)
    assert sizes[0] == first and len(got[0]) == rows and got[1].all()


@pytest.mark.parametrize("settle", [False, True])
def test_boundary_crossings_rays_that_never_leave(settle):
    p = make_log()
    D = np.vstack([[1.0, 1.0], [0.5, 2.0], _rays(p, 63, seed=3)])
    got = _boundary_crossings(p.constraints, p.interior_point, D, tol=1e-9, settle=settle)
    ref = reference_boundary_crossings(p.constraints, p.interior_point, D, 1e-9, settle)
    assert_same_crossings(got, ref)
    assert not got[1][0] and not got[1][1]


@pytest.mark.parametrize("rows", [1, 65])
@pytest.mark.parametrize("settle", [False, True])
def test_boundary_crossings_rows_open_after_the_budget_are_not_ok(settle, rows):
    p = make_annulus()
    D = _rays(p, rows, seed=5)
    got = _boundary_crossings(p.constraints, p.interior_point, D, tol=0.0, settle=settle)
    ref = reference_boundary_crossings(p.constraints, p.interior_point, D, 0.0, settle)
    assert_same_crossings(got, ref)
    assert not got[1].any()


@pytest.mark.parametrize("settle", [False, True])
def test_boundary_crossings_budget_counts_halvings(settle):
    # crossings at t = 1e-15 and 1e-20 from the bracket [0, 1]: about 93 and
    # 109 halvings to a relative width of 1e-13, against a budget of 100
    p = make_circle()
    D = np.array([[1e15, 0.0], [1e20, 0.0]])
    got = _boundary_crossings(p.constraints, ORIGIN, D, tol=1e-13, settle=settle)
    ref = reference_boundary_crossings(p.constraints, ORIGIN, D, 1e-13, settle)
    assert_same_crossings(got, ref)
    assert got[1].tolist() == [True, False]


def _unit_rays(count, seed, spread=math.pi, toward=0.0):
    """``count`` unit directions at angles within ``spread`` of ``toward``."""
    angle = toward + np.random.default_rng(seed).uniform(-spread, spread, count)
    return np.stack([np.cos(angle), np.sin(angle)], axis=1)


def _wide_doubling():
    # crossings at t = 1 / |d| between 2^30 and 2^40: 31 to 41 doublings
    D = _unit_rays(24, 11) * 2.0 ** -np.random.default_rng(12).uniform(30.5, 40.0, (24, 1))
    return make_circle(), D, 1e-13, lambda t, ok: ok.all() and (t > 2.0 ** 30).all()


def _wide_tiny():
    # crossings at t = 1e-15 (93 halvings to a relative width of 1e-13) and
    # about 1e-20 (109, over the budget of 100)
    D = _unit_rays(26, 13) * np.r_[[1e15] * 4, np.geomspace(1e19, 1e21, 22)][:, None]
    return make_circle(), D, 1e-13, lambda t, ok: ok.tolist() == [True] * 4 + [False] * 22


def _wide_log():
    # every first end lies outside log's domain; so do many midpoints
    rng = np.random.default_rng(14)
    D = -rng.uniform(5.5, 40.0, (30, 2)) * np.where(rng.random((30, 1)) < 0.5, [1.0, -0.2], 1.0)
    p = make_log()
    ends = separation._fmax_rows(p.constraints, p.interior_point + D)
    return p, D, 1e-13, lambda t, ok: np.isinf(ends).all() and ok.all()


def _wide_annulus():
    # from (1.5, 0) across the hole: the first end lies in the far side of
    # the ring, so the ray left the set, re-entered it and doubles past it
    D = _unit_rays(24, 15, spread=0.3, toward=math.pi) * 3.0
    p = make_annulus()
    far = p.interior_point + D
    return p, D, 1e-13, lambda t, ok: ok.all() and (t > 1.0).all() and (far[:, 0] < 0).all()


def _wide_tol0():
    # tol = 0: the brackets shrink to adjacent floats within about 55
    # halvings; each midpoint after that rounds onto one of its ends, which
    # keeps its side, so no row closes within the budget
    D = _unit_rays(40, 16) * np.random.default_rng(17).uniform(1.5, 8.0, (40, 1))
    return make_circle(), D, 0.0, lambda t, ok: not ok.any()


WIDE_EXTREMES = {"doubling": _wide_doubling, "tiny": _wide_tiny, "log": _wide_log,
                 "annulus": _wide_annulus, "tol0": _wide_tol0}


@pytest.mark.parametrize("settle", [False, True])
@pytest.mark.parametrize("name", sorted(WIDE_EXTREMES))
def test_wide_calls_at_the_bracket_extremes(name, settle):
    # 22 or more rays, so the kernel halves them on arrays, with lo <= mid <=
    # hi as the only premise of its branch-free bracket update
    p, D, tol, expected = WIDE_EXTREMES[name]()
    x0 = p.interior_point
    assert 3 * D.shape[0] > separation._ROUND_POINTS
    got = _boundary_crossings(p.constraints, x0, D, tol=tol, settle=settle)
    assert_same_crossings(got, reference_boundary_crossings(p.constraints, x0, D, tol, settle))
    assert expected(got[0], got[1])


# ---------------------------------------------------------------------------
# narrow rounds: a predicted path saves evaluations, never moves a crossing
# ---------------------------------------------------------------------------


def _count_kernel_evaluations(monkeypatch):
    """The number of points of each evaluation the kernel makes from now on,
    with its test-mode reference check off; a batch that a domain error
    splits counts once."""
    sizes = []
    fn = separation._constraint_rows
    nested = [False]

    def counted(cons, P):
        if nested[0]:
            return fn(cons, P)
        sizes.append(P.shape[0])
        nested[0] = True
        try:
            return fn(cons, P)
        finally:
            nested[0] = False

    monkeypatch.setattr(separation, "_boundary_crossings", _boundary_crossings)
    monkeypatch.setattr(separation, "_constraint_rows", counted)
    return sizes


# mean evaluations per ray of a kernel whose every narrow round is the full
# dyadic tree, on the rays below (settle on, settle off)
_FULL_TREE_MEANS = {"circle": (7.06, 9.13), "ball_exp7": (7.07, 9.14), "annulus": (7.26, 9.24)}


@pytest.mark.parametrize("settle", [True, False])
@pytest.mark.parametrize("name", sorted(KERNEL_SETS))
def test_single_rays_gain_five_halvings_a_round_and_save_evaluations(monkeypatch, name, settle):
    # one ray per call: a round evaluates 64 points, the full tree of six
    # halvings for a row without a prediction, five and a predicted path for
    # one with it, so every round takes at least five of the reference's
    # halvings
    p = KERNEL_SETS[name]()
    x0 = p.interior_point
    D = _rays(p, 200)
    tol = 1e-9 if settle else 1e-13
    counts = np.zeros((2, len(D)), dtype=int)
    t_ref, ok_ref = reference_boundary_crossings(p.constraints, x0, D, tol, settle, counts)
    sizes = _count_kernel_evaluations(monkeypatch)  # after the reference's evaluations
    evaluations = []
    for r, (doublings, halvings) in enumerate(counts.T):
        sizes.clear()
        got = _boundary_crossings(p.constraints, x0, D[r:r + 1], tol=tol, settle=settle)
        assert_same_crossings(got, (t_ref[r:r + 1], ok_ref[r:r + 1]))
        rounds = len(sizes) - 1 - doublings
        assert rounds <= math.ceil(halvings / 5)
        evaluations.append(len(sizes))
    if name in _FULL_TREE_MEANS:
        assert np.mean(evaluations) <= _FULL_TREE_MEANS[name][not settle] - 2.0


@pytest.mark.parametrize("settle", [True, False])
@pytest.mark.parametrize("end", [0, 1])
@pytest.mark.parametrize("name", ["circle", "annulus"])
def test_a_prediction_at_a_bracket_end_still_gains_five_halvings_a_round(
        monkeypatch, name, end, settle):
    # a predicted crossing at lo or hi sends the path down the tree's first
    # or last leaf, where the crossing rarely lies: the tree alone must then
    # take five halvings a round
    p = KERNEL_SETS[name]()
    x0 = p.interior_point
    D = _rays(p, 50, seed=8)
    tol = 1e-9 if settle else 1e-13
    counts = np.zeros((2, len(D)), dtype=int)
    t_ref, ok_ref = reference_boundary_crossings(p.constraints, x0, D, tol, settle, counts)
    sizes = _count_kernel_evaluations(monkeypatch)  # after the reference's evaluations
    monkeypatch.setattr(separation, "_predict", lambda a, b, *values: (a, b)[end])
    for r, (doublings, halvings) in enumerate(counts.T):
        sizes.clear()
        got = _boundary_crossings(p.constraints, x0, D[r:r + 1], tol=tol, settle=settle)
        assert_same_crossings(got, (t_ref[r:r + 1], ok_ref[r:r + 1]))
        assert len(sizes) - 1 - doublings <= math.ceil(halvings / 5)


@pytest.mark.parametrize("settle", [False, True])
def test_a_domain_edge_end_gets_the_full_tree(monkeypatch, settle):
    # from (5, 5) toward (-1, -1): xy = e at t = 0.559, and log's domain
    # ends at t = 5/6, so the first bracket end reads +inf
    p = make_log()
    D = np.array([[-6.0, -6.0]])
    tol = 1e-9 if settle else 1e-13
    ref = reference_boundary_crossings(p.constraints, p.interior_point, D, tol, settle)
    sizes = _count_kernel_evaluations(monkeypatch)  # after the reference's evaluations
    got = _boundary_crossings(p.constraints, p.interior_point, D, tol=tol, settle=settle)
    assert_same_crossings(got, ref)
    # the first evaluation's tree of five halvings, as every first round
    # from [0, 1], after which both ends are finite and predict
    assert sizes[:3] == [33, 64, 64]


@pytest.mark.parametrize("settle", [False, True])
def test_a_domain_edge_end_reached_by_doubling_gets_the_full_tree(monkeypatch, settle):
    # from (5, 5) toward (-0.7, -0.7) times t: feasible at t = 1, 2 and 4,
    # outside log's domain at t = 8, where the bracket [4, 8] has no
    # prediction and its first round is the full tree of six halvings
    p = make_log()
    D = np.array([[-0.7, -0.7]])
    tol = 1e-9 if settle else 1e-13
    ref = reference_boundary_crossings(p.constraints, p.interior_point, D, tol, settle)
    sizes = _count_kernel_evaluations(monkeypatch)  # after the reference's evaluations
    got = _boundary_crossings(p.constraints, p.interior_point, D, tol=tol, settle=settle)
    assert_same_crossings(got, ref)
    assert 4.0 < got[0][0] < 8.0
    assert sizes[:6] == [33, 1, 1, 1, 63, 64]


@pytest.mark.parametrize("settle", [False, True])
@pytest.mark.parametrize("rows", [1, 5, 21])
def test_the_attaining_constraint_switches_inside_the_bracket(settle, rows):
    # exp attains max_j g_j at x0 = 0 (-0.5 against -1), but rays into the
    # negative orthant leave the set through the ball
    p = make_ball_exp()
    rng = np.random.default_rng(4)
    D = -np.abs(rng.standard_normal((rows, p.n)))
    tol = 1e-9 if settle else 1e-13
    got = _boundary_crossings(p.constraints, p.interior_point, D, tol=tol, settle=settle)
    ref = reference_boundary_crossings(p.constraints, p.interior_point, D, tol, settle)
    assert_same_crossings(got, ref)
    assert np.argmax(constraint_values(p.constraints, p.interior_point)) == 1
    at_crossing = constraint_values(p.constraints, got[0][:, None] * D + p.interior_point)
    assert got[1].all() and np.all(np.argmax(at_crossing, axis=0) == 0)


@pytest.mark.parametrize("settle", [False, True])
@pytest.mark.parametrize("rows", [1, 21])
def test_rays_that_double_predict_from_the_doubling_values(monkeypatch, settle, rows):
    # 0.005 <= |d| <= 0.05: the crossing lies at t = 20 to 200, where the
    # bracket is [16, 32] or beyond, five or more doublings out
    p = make_circle()
    rng = np.random.default_rng(6)
    D = rng.standard_normal((rows, 2))
    D *= rng.uniform(0.005, 0.05, size=(rows, 1)) / np.linalg.norm(D, axis=1, keepdims=True)
    tol = 1e-9 if settle else 1e-13
    ref = reference_boundary_crossings(p.constraints, ORIGIN, D, tol, settle)
    sizes = _count_kernel_evaluations(monkeypatch)
    got = _boundary_crossings(p.constraints, ORIGIN, D, tol=tol, settle=settle)
    assert_same_crossings(got, ref)
    assert np.all(got[0] > 16.0)
    if rows == 1:  # the first round already follows a predicted path
        # the first evaluation's tree goes unused: the first end is feasible
        doublings = sizes.count(1)
        assert doublings >= 5
        assert sizes[:2 + doublings] == [33] + [1] * doublings + [separation._ROUND_POINTS]


@pytest.mark.parametrize("settle", [False, True])
def test_a_row_out_of_halvings_inside_a_path_round_is_not_ok(monkeypatch, settle):
    # the crossing at t = 1e-20 needs about 109 halvings from [0, 1]; the
    # last round has fewer than 64 points because its path stops at the
    # 100th halving, and there the row is still open
    p = make_circle()
    D = np.array([[1e20, 0.0]])
    ref = reference_boundary_crossings(p.constraints, ORIGIN, D, 1e-13, settle)
    sizes = _count_kernel_evaluations(monkeypatch)
    got = _boundary_crossings(p.constraints, ORIGIN, D, tol=1e-13, settle=settle)
    assert_same_crossings(got, ref)
    assert not got[1][0]
    assert 31 < sizes[-1] < separation._ROUND_POINTS


# ---------------------------------------------------------------------------
# esh_cut
# ---------------------------------------------------------------------------


def test_esh_cut_circle_diagonal():
    cons = make_circle().constraints
    gr = line_search_boundary(cons, ORIGIN, [1.5, 1.5])
    cuts = esh_cut(cons, gr)
    assert len(cuts) == 1
    cut = cuts[0]
    assert np.array_equal(cut.alpha, [1.0, 1.0])
    assert abs(cut.beta - SQRT2) <= 1e-7
    assert cut.origin == "esh"
    assert np.array_equal(cut.point, gr.boundary_point)


def test_esh_cut_circle_axis_tangent():
    cons = make_circle().constraints
    gr = line_search_boundary(cons, ORIGIN, [2.0, 0.0])
    cut = esh_cut(cons, gr)[0]
    assert np.allclose(cut.alpha, [1.0, 0.0], atol=1e-8)
    assert abs(cut.beta - 1.0) <= 1e-7


def test_esh_cut_nonconvex_representation():
    from gaugecut.model import Constraint

    cons = (Constraint("shell", SHELL),)
    gr = line_search_boundary(cons, ORIGIN, [1.5, 1.5])
    cut = esh_cut(cons, gr)[0]
    # gradient e^(1-t) * (2x, 2y) = (sqrt2, sqrt2) at the boundary
    assert np.array_equal(cut.alpha, [1.0, 1.0])
    assert abs(cut.beta - SQRT2) <= 1e-7


def test_esh_cut_vanishing_gradient_rejected():
    from gaugecut.model import Constraint

    # ((x^2+y^2) - 1)^2 <= 0 pinches the gradient to zero on the boundary... but
    # it has empty interior; use (x^2+y^2-1)^3 <= 0 instead: disk, flat boundary.
    flat = Constraint("flat", parse("(x^2 + y^2 - 1) ^ 3", XY))
    gr = line_search_boundary((flat,), ORIGIN, [1.5, 1.5])
    with pytest.raises(SeparationError, match="vanish"):
        esh_cut((flat,), gr)


# ---------------------------------------------------------------------------
# separation + validity properties on the fixtures
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("gexpr", [CIRCLE, SHELL], ids=["circle", "shell"])
def test_cut_separation_and_validity(gexpr):
    from gaugecut.model import Constraint

    cons = (Constraint("g", gexpr),)
    rng = np.random.default_rng(17)
    feasible = sample_unit_disk(rng, 1000)
    for _ in range(50):
        direction = rng.standard_normal(2)
        direction /= np.linalg.norm(direction)
        xbar = direction * rng.uniform(1.2, 6.0)
        cuts = []
        if eval_value(gexpr, xbar) > 0:
            if gexpr is CIRCLE:  # Kelley cuts need convexity for validity
                cuts.append(kelley_cut(gexpr, xbar))
            gr = line_search_boundary(cons, ORIGIN, xbar)
            cuts.extend(esh_cut(cons, gr))
        for cut in cuts:
            # strict separation of the generating point
            assert cut.alpha @ xbar > cut.beta + 1e-9
            # validity at 1000 random feasible points
            assert np.all(feasible @ cut.alpha <= cut.beta + 1e-9)


def test_gauge_positive_homogeneity():
    cons = make_circle().constraints
    cfg = SolverConfig(line_search_tol=1e-12)
    xbar = np.array([1.5, 1.5])
    base = line_search_boundary(cons, ORIGIN, xbar, cfg).gauge_value
    for t in (0.5, 2.0, 10.0):
        scaled = line_search_boundary(cons, ORIGIN, t * xbar, cfg).gauge_value
        assert abs(scaled - t * base) <= 1e-7


@pytest.mark.parametrize("factory", ["circle", "shell"])
def test_boundary_membership_of_gauge_scaled_point(factory):
    from helpers import make_nonconvex_circle

    p = make_circle() if factory == "circle" else make_nonconvex_circle()
    cons = p.constraints
    rng = np.random.default_rng(23)
    for _ in range(20):
        xbar = rng.uniform(-4.0, 4.0, size=2)
        fbar, _ = max_violation(cons, xbar)
        if fbar <= 0:
            continue
        gr = line_search_boundary(cons, ORIGIN, xbar)
        scaled = xbar / gr.gauge_value
        f, _ = max_violation(cons, scaled)
        assert abs(f) <= 1e-7


def test_gauge_values_extends_to_feasible_points():
    cons = make_circle().constraints
    pts = np.array([[0.5, 0.0], [0.0, 0.0], [2.0, 0.0], [1.5, 1.5]])
    phi, ok = gauge_values(cons, ORIGIN, pts)
    assert np.all(ok)
    expect = [0.5, 0.0, 2.0, math.sqrt(4.5)]
    assert np.allclose(phi, expect, rtol=0, atol=1e-7)


def test_gauge_values_reports_unbracketable_rays():
    from gaugecut.model import Constraint

    halfspace = (Constraint("h", parse("x - 1", XY)),)
    pts = np.array([[2.0, 0.0], [-1.0, 0.0]])  # second ray never exits
    phi, ok = gauge_values(halfspace, ORIGIN, pts)
    assert ok[0] and not ok[1]
    assert abs(phi[0] - 2.0) <= 1e-7


def test_gauge_values_rows_outside_the_domain_leave_the_others_intact():
    # {xy >= e} seen from (5, 5); rows 1 and 3 lie outside log's domain
    cons = make_log().constraints
    x0 = np.array([5.0, 5.0])
    pts = np.array([[1.0, 1.0], [-1.0, -1.0], [3.0, 3.0], [5.0, -3.0], [5.0, 1.0]])
    r = 5.0 - math.sqrt(math.e)  # diagonal distance to the boundary
    s = 5.0 - math.e / 5.0  # vertical distance to the boundary
    expect = [4.0 / r, 6.0 / r, 2.0 / r, 8.0 / s, 4.0 / s]
    phi, ok = gauge_values(cons, x0, pts)
    assert np.all(ok)
    assert np.allclose(phi, expect, rtol=1e-12, atol=0)
    assert phi[1] > 1.0 and phi[3] > 1.0
    for i in (0, 2, 4):  # in-domain rows match their evaluation on their own
        alone, _ = gauge_values(cons, x0, pts[i:i + 1])
        assert phi[i] == alone[0]


@pytest.mark.parametrize("factory", ["circle", "shell", "log"])
def test_line_search_gauge_agrees_with_gauge_values(factory):
    from helpers import make_nonconvex_circle

    p = {"circle": make_circle, "shell": make_nonconvex_circle, "log": make_log}[factory]()
    x0 = p.interior_point
    rng = np.random.default_rng(31)

    def infeasible(x):
        try:
            return max_violation(p.constraints, x)[0] > 0.0
        except EvalDomainError:
            return True

    pts = np.array([x for x in x0 + rng.uniform(-6.0, 6.0, size=(120, 2)) if infeasible(x)])
    assert len(pts) >= 30
    phi, ok = gauge_values(p.constraints, x0, pts)
    assert np.all(ok)
    for x, expect in zip(pts, phi):
        got = line_search_boundary(p.constraints, x0, x).gauge_value
        assert abs(got - expect) <= 1e-9 * expect


# ---------------------------------------------------------------------------
# check_supporting
# ---------------------------------------------------------------------------


def test_check_supporting_esh_cut_on_circle():
    p = make_circle()
    gr = line_search_boundary(p.constraints, ORIGIN, [1.5, 1.5])
    cut = esh_cut(p.constraints, gr)[0]
    verdict = check_supporting(p, cut, interior_point=ORIGIN)
    assert verdict.supporting
    assert np.max(np.abs(verdict.witness - 1.0 / SQRT2)) <= 1e-7
    assert abs(verdict.max_violation_gap) <= 1e-7


def test_check_supporting_kelley_cut_gap():
    p = make_circle()
    cut = kelley_cut(CIRCLE, [1.5, 1.5], "ball")
    verdict = check_supporting(p, cut, interior_point=ORIGIN)
    assert not verdict.supporting
    assert verdict.witness is None
    # max of x + y over the disk is sqrt(2): gap = 11/6 - sqrt(2)
    assert abs(verdict.max_violation_gap - (11.0 / 6.0 - SQRT2)) <= 1e-6


@pytest.mark.filterwarnings("ignore:check_supporting")
def test_check_supporting_halfspace():
    from gaugecut.model import Constraint

    halfspace = (Constraint("h", parse("x - 1", XY)),)
    verdict = check_supporting(halfspace, Cut(np.array([1.0, 0.0]), 1.0),
                               interior_point=ORIGIN)
    assert verdict.supporting
    assert abs(verdict.witness[0] - 1.0) <= 1e-7
    f, _ = max_violation(halfspace, verdict.witness)
    assert f <= 1e-7


def test_check_supporting_explicit_probe_segment():
    # with the search switched off, the caller-supplied segment finds the witness
    p = make_circle()
    cut = Cut(np.array([1.0, 1.0]), SQRT2, origin="user")
    verdict = check_supporting(p, cut, interior_point=ORIGIN, ascent_iters=0,
                               probe_segment=(ORIGIN, np.array([2.0, 2.0])))
    assert verdict.supporting
    assert np.max(np.abs(verdict.witness - 1.0 / SQRT2)) <= 1e-7


def test_check_supporting_resolves_a_problems_interior_point_by_search():
    p = make_circle(interior=False)
    assert p.interior_point is None
    verdict = check_supporting(p, Cut(np.array([1.0, 1.0]), SQRT2, origin="user"))
    assert verdict.supporting
    assert np.max(np.abs(verdict.witness - 1.0 / SQRT2)) <= 1e-6
    verdict = check_supporting(p, kelley_cut(CIRCLE, [1.5, 1.5]))
    assert not verdict.supporting
    assert abs(verdict.max_violation_gap - (11.0 / 6.0 - SQRT2)) <= 1e-6


def test_check_supporting_bare_constraints_need_an_interior_point():
    cut = Cut(np.array([1.0, 1.0]), SQRT2, origin="user")
    with pytest.raises(PreconditionError, match="interior_point"):
        check_supporting(make_circle().constraints, cut)


def test_check_supporting_witness_invariant():
    p = make_circle()
    for point in ([1.5, 1.5], [2.0, 0.0], [0.3, 3.0]):
        gr = line_search_boundary(p.constraints, ORIGIN, point)
        for cut in esh_cut(p.constraints, gr):
            verdict = check_supporting(p, cut, interior_point=ORIGIN)
            assert verdict.supporting
            assert abs(cut.alpha @ verdict.witness - cut.beta) <= 1e-7
            f, _ = max_violation(p.constraints, verdict.witness)
            assert f <= 1e-7


def test_check_supporting_finds_a_witness_outside_the_problem_box():
    # 6x - y <= 9 touches {y >= x^2} at (3, 9), above the box [-5, 5]^2
    p = load_problem({
        "variables": [{"name": v, "lb": -5.0, "ub": 5.0} for v in XY],
        "objective": [0.0, 1.0],
        "constraints": [{"name": "parabola", "expr": "x^2 - y"}],
        "interior_point": [0.0, 1.0],
    })
    cut = kelley_cut(p.constraints[0].expr, [3.0, 0.0])
    verdict = check_supporting(p, cut)
    assert verdict.supporting
    assert np.max(np.abs(verdict.witness - [3.0, 9.0])) <= 1e-2
    assert abs(cut.violation(verdict.witness)) <= 1e-7
    f, _ = max_violation(p.constraints, verdict.witness)
    assert f <= 1e-7


def test_check_supporting_cylinder_stops_when_doubling_is_flat():
    # {x^2 <= 1} is a slab along y: the LP maximizer of x stays on a y face
    # of every box, and doubling the box no longer raises max x
    from gaugecut.model import Constraint

    slab = (Constraint("slab", parse("x^2 - 1", XY)),)
    cut = kelley_cut(slab[0].expr, [2.0, 0.0])  # x <= 1.25
    verdict = check_supporting(slab, cut, interior_point=ORIGIN)
    assert not verdict.supporting
    assert abs(verdict.max_violation_gap - 0.25) <= 1e-6


def test_check_supporting_lp_solves_are_checked(monkeypatch):
    from gaugecut import lp as lp_mod

    checked = []
    original = lp_mod.check_solution

    def counted(m, sol):
        checked.append(sol)
        original(m, sol)

    monkeypatch.setattr(lp_mod, "check_solution", counted)
    check_supporting(make_circle(), kelley_cut(CIRCLE, [1.5, 1.5]), interior_point=ORIGIN)
    assert checked


def _probe_point(rng, q: QuadraticForm) -> np.ndarray | None:
    """A clearly infeasible point on a random ray from the origin; None when
    the set is the whole space (A = 0 and b = 0)."""
    for _ in range(20):
        d = rng.standard_normal(q.n)
        d /= np.linalg.norm(d)
        for t in np.geomspace(0.5, 64.0, 20):
            if q.value(t * d) > 0.1:
                return t * d
    return None


def test_check_supporting_agrees_with_the_quadratic_classifier():
    from gaugecut.model import Constraint

    rng = np.random.default_rng(2024)
    verdicts = {"always_supporting": 0, "never_supporting_from_infeasible": 0}
    for k in range(40):
        n = 1 + k % 4
        # b in the range of a regular A, of a singular A, or outside the range
        singular, b_in_range = [(False, True), (True, True), (False, False)][k % 3]
        q = random_psd_quadratic(rng, n, singular, b_in_range)
        xbar = _probe_point(rng, q)
        if xbar is None:
            continue
        cons = (Constraint("q", q.to_expr()),)
        cut = kelley_cut(cons[0].expr, xbar)
        verdict = check_supporting(cons, cut, interior_point=np.zeros(n))
        expected = classify_quadratic(q)
        verdicts[expected] += 1
        assert verdict.supporting == (expected == "always_supporting"), (k, n)
        if verdict.supporting:
            assert q.value(verdict.witness) <= 1e-7
            assert abs(cut.violation(verdict.witness)) <= 1e-7
    assert min(verdicts.values()) >= 10


# ---------------------------------------------------------------------------
# affine_on_segment
# ---------------------------------------------------------------------------


def test_affine_on_segment_quadratic_is_false():
    assert affine_on_segment(CIRCLE, [0.0, 0.0], [1.5, 1.5], samples=33) is False


def test_affine_on_segment_linear_variable_is_true():
    g = parse("x^2 - y", XY)
    assert affine_on_segment(g, [1.0, 2.0], [1.0, -1.0], samples=33) is True


def test_affine_on_segment_strictly_convex_all_directions():
    rng = np.random.default_rng(31)
    for _ in range(25):
        x0 = rng.uniform(-2.0, 2.0, size=2)
        d = rng.standard_normal(2)
        d /= np.linalg.norm(d)
        assert affine_on_segment(CIRCLE, x0, x0 + d, samples=33) is False


def test_affine_on_segment_validates_endpoints():
    with pytest.raises(ValueError, match="differ"):
        affine_on_segment(CIRCLE, [1.0, 1.0], [1.0, 1.0])


# ---------------------------------------------------------------------------
# classify_quadratic
# ---------------------------------------------------------------------------


def test_classify_circle_never_supporting():
    q = QuadraticForm(np.eye(2), np.zeros(2), -1.0)
    assert classify_quadratic(q) == "never_supporting_from_infeasible"


def test_classify_linear_variable_always_supporting():
    q = QuadraticForm(np.diag([1.0, 0.0]), np.array([0.0, -1.0]), 0.0)
    assert classify_quadratic(q) == "always_supporting"


def test_classify_b_in_range_of_singular_matrix():
    q = QuadraticForm(np.diag([1.0, 0.0]), np.array([1.0, 0.0]), -1.0)
    assert classify_quadratic(q) == "never_supporting_from_infeasible"


def test_classify_rejects_indefinite_matrix():
    q = QuadraticForm(np.diag([1.0, -1.0]), np.zeros(2), -1.0)
    with pytest.raises(ValueError, match="positive semi-definite"):
        classify_quadratic(q)


def test_classify_rejects_empty_sublevel_set():
    q = QuadraticForm(np.eye(2), np.zeros(2), 1.0)
    with pytest.raises(ValueError, match="empty"):
        classify_quadratic(q)


def test_classifier_agrees_with_segment_oracle():
    from helpers import supporting_oracle_quadratic

    rng = np.random.default_rng(2024)
    agree = 0
    for trial in range(50):
        n = int(rng.integers(2, 5))
        singular = bool(rng.random() < 0.7)
        b_in_range = bool(rng.random() < 0.5)
        q = random_psd_quadratic(rng, n, singular, b_in_range)
        # random infeasible point: walk outward from 0 until g > 0
        direction = rng.standard_normal(n)
        direction /= np.linalg.norm(direction)
        xbar = None
        for t in np.geomspace(0.5, 64.0, 20):
            cand = t * direction
            if q.value(cand) > 0.1:
                xbar = cand
                break
        if xbar is None:
            # the ray is a recession direction; any point far along another axis
            xbar = np.full(n, 8.0)
            if q.value(xbar) <= 0.1:
                continue  # skip rare unbounded-in-all-probes case
        verdict = classify_quadratic(q)
        oracle = supporting_oracle_quadratic(q, xbar, affine_on_segment, eval_value)
        expected = "always_supporting" if oracle else "never_supporting_from_infeasible"
        assert verdict == expected, f"trial {trial}: {verdict} vs oracle {expected}"
        agree += 1
    assert agree >= 45  # at most a few skipped draws


# ---------------------------------------------------------------------------
# gauge_subgradient_check
# ---------------------------------------------------------------------------


def _grid2d(halfwidth=2.0, count=21):
    axis = np.linspace(-halfwidth, halfwidth, count)
    gx, gy = np.meshgrid(axis, axis, indexing="ij")
    return np.stack([gx.ravel(), gy.ravel()], axis=1)


def test_gauge_subgradient_check_supporting_cut():
    cons = make_circle().constraints
    xhat = np.array([1.0, 1.0]) / SQRT2
    cut = Cut(np.array([1.0, 1.0]), SQRT2, origin="esh", point=xhat)
    assert gauge_subgradient_check(cons, ORIGIN, cut, _grid2d()) is True


def test_gauge_subgradient_check_rejects_nonsupporting_cut():
    cons = make_circle().constraints
    cut = Cut(np.array([1.0, 1.0]), 11.0 / 6.0, origin="kelley", point=np.array([1.5, 1.5]))
    with pytest.raises(PreconditionError, match="equality"):
        gauge_subgradient_check(cons, ORIGIN, cut, _grid2d())


def test_gauge_subgradient_check_axis_cut_small_samples():
    cons = make_circle().constraints
    cut = Cut(np.array([1.0, 0.0]), 1.0, origin="esh", point=np.array([1.0, 0.0]))
    samples = np.array([[0.0, 1.0], [0.0, -1.0], [1.0, 0.0], [-1.0, 0.0], [2.0, 0.0]])
    assert gauge_subgradient_check(cons, ORIGIN, cut, samples) is True


def test_gauge_subgradient_check_skips_unbracketable_samples():
    from gaugecut.model import Constraint

    halfspace = (Constraint("h", parse("x - 1", XY)),)
    cut = Cut(np.array([1.0, 0.0]), 1.0, origin="esh", point=np.array([1.0, 0.0]))
    samples = np.array([[2.0, 0.0], [-3.0, 0.0]])
    with pytest.warns(UserWarning, match="skipped"):
        assert gauge_subgradient_check(halfspace, ORIGIN, cut, samples) is True


def test_gauge_subgradient_check_fails_an_invalid_cut():
    # x <= 1/2 touches the circle at (1/2, sqrt(3)/2) so the support-equality
    # precondition passes, but the half-space slices through the disk: the
    # normal cannot be a gauge subgradient and the inequality must fail
    cons = make_circle().constraints
    xhat = np.array([0.5, math.sqrt(0.75)])
    fake = Cut(np.array([1.0, 0.0]), 0.5, origin="user", point=xhat)
    assert gauge_subgradient_check(cons, ORIGIN, fake, _grid2d()) is False


def test_gauge_subgradient_check_shifted_frame():
    # full ESH pipeline with a nonzero interior point: the generated cut is a
    # subgradient cut of the gauge centered at that same point
    cons = make_circle().constraints
    x0 = np.array([0.2, -0.1])
    gr = line_search_boundary(cons, x0, [1.5, 1.5])
    cut = esh_cut(cons, gr)[0]
    grid = _grid2d() + x0
    assert gauge_subgradient_check(cons, x0, cut, grid) is True


@pytest.mark.parametrize("shape", [(3, 1), (2,), (4,)])
def test_gauge_subgradient_check_rejects_sample_gauges_of_another_shape(shape):
    # a (3, 1) phi would compare every sample with every gauge; a shorter
    # or longer one does not belong to the samples
    cons = make_circle().constraints
    cut = Cut(np.array([1.0, 0.0]), 1.0, origin="esh", point=np.array([1.0, 0.0]))
    samples = np.array([[0.0, 1.0], [1.0, 0.0], [-1.0, 0.0]])
    phi = np.ones(shape)
    with pytest.raises(ValueError, match=re.escape(f"phi has shape {shape} and ok (3,)")):
        gauge_subgradient_check(cons, ORIGIN, cut, samples, sample_gauges=(phi, np.ones(3, bool)))
    with pytest.raises(ValueError, match=re.escape(f"phi has shape (3,) and ok {shape}")):
        gauge_subgradient_check(cons, ORIGIN, cut, samples,
                                sample_gauges=(np.ones(3), np.ones(shape, bool)))


@pytest.mark.parametrize("ok_there", [True, False])
@pytest.mark.parametrize("where", [0, -3])  # the first block, the last, partial one
def test_gauge_subgradient_check_in_blocks(where, ok_there):
    cons = make_circle().constraints
    count = 2 * separation._BLOCK_ROWS + 5
    X = np.random.default_rng(18).uniform(-2.0, 2.0, (count, 2))
    xhat = np.array([1.0, 0.0])
    cut = Cut(np.array([1.0, 0.0]), 1.0, origin="esh", point=xhat)
    phi, ok = np.hypot(X[:, 0], X[:, 1]), np.ones(count, bool)  # the disk's gauge about 0
    phi[where] = X[where, 0] - 0.5  # the one sample below the cut's gauge bound
    ok[where] = ok_there
    with warnings.catch_warnings(record=True) as skipped:
        warnings.simplefilter("always")
        got = gauge_subgradient_check(cons, ORIGIN, cut, X, sample_gauges=(phi, ok))
    assert len(skipped) == (not ok_there)
    phi_hat = gauge_values(cons, ORIGIN, xhat[None, :])[0][0]
    lhs = phi_hat + X @ cut.alpha - float(cut.alpha @ xhat)  # alpha^T yhat = 1
    assert got is bool(np.all(lhs[ok] <= phi[ok] + 1e-7))
    assert got is (not ok_there)
