import math

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
    parse,
)
from gaugecut.model import SolverConfig, max_violation

from helpers import (
    make_circle,
    make_log,
    random_psd_quadratic,
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


def test_line_search_respects_tolerance_config():
    cons = make_circle().constraints
    cfg = SolverConfig(line_search_tol=1e-12)
    gr = line_search_boundary(cons, ORIGIN, [1.5, 1.5], cfg)
    assert abs(gr.lambda_star - 1.0 / (1.5 * SQRT2)) <= 2e-12


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
    # with no sampling at all, the caller-supplied segment finds the witness
    p = make_circle()
    cut = Cut(np.array([1.0, 1.0]), SQRT2, origin="user")
    verdict = check_supporting(p, cut, interior_point=ORIGIN, samples=0,
                               ascent_iters=0,
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
