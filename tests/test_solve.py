import itertools
import json
import math

import numpy as np
import pytest

from gaugecut import (
    EvalDomainError,
    InteriorPointError,
    PreconditionError,
    check_esh_kcp_equivalence,
    check_supporting,
    kelley_cut,
    load_problem,
    solve_bnb,
    solve_esh,
    solve_kelley,
)
from gaugecut.model import SolverConfig, max_violation

from helpers import make_circle, make_log, make_nonconvex_circle, make_thin, sample_unit_disk

SQRT2 = math.sqrt(2.0)


# ---------------------------------------------------------------------------
# Kelley loop
# ---------------------------------------------------------------------------


def test_kelley_circle_converges(circle):
    trace = solve_kelley(circle, SolverConfig(eps_feas=1e-6))
    assert trace.status == "optimal_eps"
    assert abs(trace.objective + SQRT2) <= 1e-3
    # first LP lands on the box vertex and is cut immediately
    assert np.array_equal(trace.iterations[0].x, [10.0, 10.0])
    assert len(trace.iterations[0].cuts) == 1
    f, _ = max_violation(circle.constraints, trace.x)
    assert f <= 1e-6


def test_kelley_midrun_cut_reproducible(circle):
    # any recorded cut must equal re-linearizing at the recorded iterate
    trace = solve_kelley(circle)
    for rec in trace.iterations:
        for cut in rec.cuts:
            again = kelley_cut(circle.constraints[0].expr, rec.x, "ball")
            assert np.array_equal(cut.alpha, again.alpha)
            assert cut.beta == again.beta


def test_kelley_box_inside_disk_needs_no_cuts():
    p = load_problem(json.dumps({
        "variables": [
            {"name": "x", "lb": -0.5, "ub": 0.5, "integer": False},
            {"name": "y", "lb": -0.5, "ub": 0.5, "integer": False},
        ],
        "objective": [-1.0, -1.0],
        "constraints": [{"name": "ball", "expr": "x^2 + y^2 - 1"}],
    }))
    trace = solve_kelley(p)
    assert trace.status == "optimal_eps"
    assert len(trace.iterations) == 1
    assert trace.iterations[0].cuts == ()
    assert np.array_equal(trace.x, [0.5, 0.5])


def test_kelley_detects_infeasible_pair():
    p = load_problem(json.dumps({
        "variables": [{"name": "x", "lb": -10.0, "ub": 10.0, "integer": False}],
        "objective": [1.0],
        "constraints": [
            {"name": "le", "expr": "x + 2"},    # x <= -2
            {"name": "ge", "expr": "3 - x"},    # x >= 3
        ],
    }))
    trace = solve_kelley(p)
    assert trace.status == "infeasible"
    assert trace.x is None


def test_kelley_iteration_limit():
    trace = solve_kelley(make_circle(), SolverConfig(max_iters=3))
    assert trace.status == "iteration_limit"
    assert len(trace.iterations) == 3


# ---------------------------------------------------------------------------
# ESH loop
# ---------------------------------------------------------------------------


def test_esh_circle_converges(circle):
    trace = solve_esh(circle, SolverConfig(eps_feas=1e-6))
    assert trace.status == "optimal_eps"
    assert abs(trace.objective + SQRT2) <= 1e-3
    first = trace.iterations[0]
    assert np.array_equal(first.x, [10.0, 10.0])
    cut = first.cuts[0]
    assert np.max(np.abs(cut.point - 1.0 / SQRT2)) <= 1e-8
    assert np.array_equal(cut.alpha, [1.0, 1.0])
    assert abs(cut.beta - SQRT2) <= 1e-7


@pytest.mark.parametrize("factory", [make_circle, make_nonconvex_circle],
                         ids=["circle", "shell"])
def test_esh_cuts_all_supporting(factory):
    p = factory()
    trace = solve_esh(p)
    assert len(trace.cuts) >= 3
    for cut in trace.cuts:
        verdict = check_supporting(p, cut, interior_point=[0.0, 0.0])
        assert verdict.supporting
        assert np.array_equal(verdict.witness, cut.point)


def test_esh_nonconvex_representation_converges(nonconvex_circle):
    trace = solve_esh(nonconvex_circle, SolverConfig(eps_feas=1e-6))
    assert trace.status == "optimal_eps"
    assert abs(trace.objective + SQRT2) <= 1e-3
    # validity of every cut at 1000 random feasible points
    feasible = sample_unit_disk(np.random.default_rng(5), 1000)
    for cut in trace.cuts:
        assert np.all(feasible @ cut.alpha <= cut.beta + 1e-9)


def test_esh_interior_point_resolution_order(circle):
    # config overrides the file's interior point; both must be validated
    cfg = SolverConfig(interior_point=[0.3, 0.0])
    trace = solve_esh(circle, cfg)
    assert trace.status == "optimal_eps"
    with pytest.raises(InteriorPointError, match="config"):
        solve_esh(circle, SolverConfig(interior_point=[5.0, 5.0]))


def test_esh_thin_set_advises_relaxation():
    with pytest.raises(InteriorPointError, match="epsilon_relax"):
        solve_esh(make_thin())


def test_esh_treats_out_of_domain_iterates_as_infeasible():
    # the first LP vertex (0, 0) lies outside log's domain: ESH separates it
    # from the interior point, Kelley needs a gradient there and cannot
    p = make_log()
    trace = solve_esh(p)
    assert trace.status == "optimal_eps"
    assert abs(trace.objective - 2.0 * math.exp(0.5)) <= 1e-3  # min x + y s.t. xy >= e
    assert np.array_equal(trace.iterations[0].x, [0.0, 0.0])
    assert trace.iterations[0].violation == math.inf
    data = json.loads(trace.to_json())
    assert data["iterations"][0]["violation"] == math.inf
    with pytest.raises(EvalDomainError, match="log"):
        solve_kelley(p)


@pytest.mark.parametrize("eps", [1e-10, 1e-12])
@pytest.mark.parametrize("solver", [solve_esh, solve_kelley])
def test_circle_converges_below_the_lp_feasibility_tolerance(solver, eps, circle):
    # near the end each new cut cuts the iterate off by less than the LP's
    # 1e-9 feasibility tolerance; the re-solve must still move the iterate,
    # and its value must stay a lower bound on the optimum -sqrt(2)
    trace = solver(circle, SolverConfig(eps_feas=eps))
    assert trace.status == "optimal_eps"
    assert -math.sqrt(2.0) - 1e-9 <= trace.objective <= -math.sqrt(2.0) + 1e-12


def test_esh_uses_at_most_kelley_iterations_on_circle(circle):
    kelley = solve_kelley(circle, SolverConfig(eps_feas=1e-6))
    esh = solve_esh(circle, SolverConfig(eps_feas=1e-6))
    assert len(esh.iterations) <= len(kelley.iterations)


# ---------------------------------------------------------------------------
# trace invariants
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("solver", [solve_kelley, solve_esh], ids=["kelley", "esh"])
def test_lp_values_nondecreasing_and_bounded_by_optimum(solver, circle):
    trace = solver(circle)
    values = [rec.objective for rec in trace.iterations]
    for prev, nxt in zip(values, values[1:]):
        assert nxt >= prev - 1e-9
    for v in values:
        assert v <= -SQRT2 + 1e-6  # lower bounds never cross the true optimum


@pytest.mark.parametrize("solver", [solve_kelley, solve_esh], ids=["kelley", "esh"])
@pytest.mark.parametrize("factory", [make_circle, make_nonconvex_circle],
                         ids=["circle", "shell"])
def test_every_trace_cut_strictly_separates_its_iterate(solver, factory):
    p = factory()
    if solver is solve_kelley and factory is make_nonconvex_circle:
        pytest.skip("Kelley cuts require convex constraint functions")
    trace = solver(p)
    for rec in trace.iterations:
        for cut in rec.cuts:
            assert cut.alpha @ rec.x > cut.beta + 1e-9


def test_traces_are_deterministic(circle):
    a = solve_esh(circle).to_json()
    b = solve_esh(circle).to_json()
    assert a == b
    c = solve_kelley(circle).to_json()
    d = solve_kelley(circle).to_json()
    assert c == d


def test_trace_serialization_schema(circle, tmp_path):
    trace = solve_esh(circle)
    data = json.loads(trace.to_json(tmp_path / "t.json"))
    assert set(data) == {"status", "objective", "x", "iterations"}
    rec = data["iterations"][0]
    assert set(rec) == {"x", "violation", "objective", "cuts"}
    cut = rec["cuts"][0]
    assert set(cut) == {"alpha", "beta", "origin"}
    csv_text = trace.to_csv(tmp_path / "t.csv")
    lines = csv_text.strip().splitlines()
    assert lines[0] == "iteration,objective,violation"
    assert len(lines) == len(trace.iterations) + 1


# ---------------------------------------------------------------------------
# equivalence harness
# ---------------------------------------------------------------------------


def test_equivalence_circle_diagonal(circle):
    rep = check_esh_kcp_equivalence(circle, None, [1.5, 1.5])
    assert rep.passed
    assert np.allclose(rep.subgradient, [SQRT2, SQRT2], atol=1e-7)
    assert abs(rep.subgradient_dot_shifted - 3.0 * SQRT2) <= 1e-6
    assert abs(rep.gauge_value - math.sqrt(4.5)) <= 1e-7
    assert np.allclose(rep.normalized_alpha, [1.0 / SQRT2, 1.0 / SQRT2], atol=1e-7)
    assert rep.samples_total == 21 * 21
    assert rep.samples_skipped == 0


def test_equivalence_circle_axis(circle):
    rep = check_esh_kcp_equivalence(circle, None, [2.0, 0.0])
    assert rep.passed
    assert np.allclose(rep.normalized_alpha, [1.0, 0.0], atol=1e-7)


def test_equivalence_feasible_point_rejected(circle):
    with pytest.raises(PreconditionError, match="feasible"):
        check_esh_kcp_equivalence(circle, None, [0.1, 0.1])


def test_equivalence_with_shifted_interior_point(circle):
    cfg = SolverConfig(interior_point=[0.2, -0.1])
    rep = check_esh_kcp_equivalence(circle, cfg, [1.5, 1.5])
    assert rep.passed
    assert abs(rep.normalized_alpha @ (rep.boundary_point - np.array([0.2, -0.1])) - 1.0) <= 1e-9


def test_equivalence_multiconstraint_attains_the_right_subgradient():
    # walking toward (3, 0) hits the half-plane part of the set first, so the
    # certified subgradient comes from that constraint
    p = load_problem(json.dumps({
        "variables": [
            {"name": "x", "lb": -5.0, "ub": 5.0, "integer": False},
            {"name": "y", "lb": -5.0, "ub": 5.0, "integer": False},
        ],
        "objective": [-1.0, -1.0],
        "constraints": [
            {"name": "ball", "expr": "x^2 + y^2 - 1"},
            {"name": "wall", "expr": "x - 0.5"},
        ],
        "interior_point": [0.0, 0.0],
    }))
    rep = check_esh_kcp_equivalence(p, None, [3.0, 0.0])
    assert rep.passed
    assert rep.active_constraint == "wall"
    assert abs(rep.gauge_value - 6.0) <= 1e-6
    cfg = SolverConfig(interior_point=[0.2, -0.1])
    rep = check_esh_kcp_equivalence(p, cfg, [3.0, 0.0])
    assert rep.passed


# ---------------------------------------------------------------------------
# branch and bound
# ---------------------------------------------------------------------------


def _integer_circle(mask=(True, True)):
    return load_problem(json.dumps({
        "variables": [
            {"name": "x", "lb": -10.0, "ub": 10.0, "integer": mask[0]},
            {"name": "y", "lb": -10.0, "ub": 10.0, "integer": mask[1]},
        ],
        "objective": [-1.0, -1.0],
        "constraints": [{"name": "ball", "expr": "x^2 + y^2 - 1"}],
        "interior_point": [0.0, 0.0],
    }))


def _enumerate_disk_lattice():
    best, bestx = math.inf, None
    for x, y in itertools.product(range(-1, 2), repeat=2):
        if x * x + y * y <= 1 and -x - y < best:
            best, bestx = -x - y, (x, y)
    return best, bestx


@pytest.mark.parametrize("inner", ["kelley", "esh"])
def test_bnb_integer_circle(inner):
    trace = solve_bnb(_integer_circle(), inner=inner)
    assert trace.status == "optimal_eps"
    best, _ = _enumerate_disk_lattice()
    assert abs(trace.objective - best) <= 1e-4
    rounded = tuple(int(round(v)) for v in trace.x)
    assert rounded in ((1, 0), (0, 1))
    assert np.max(np.abs(trace.x - np.array(rounded))) <= 1e-6


def test_bnb_mixed_integrality():
    # the oracle fixes each lattice value of x and hands the continuous y to
    # the inner solver, so both sides share the eps-feasibility semantics and
    # terminate in the same O(sqrt(eps)) band around the tangency
    cfg = SolverConfig()
    trace = solve_bnb(_integer_circle(mask=(True, False)), cfg)
    assert trace.status == "optimal_eps"
    best = math.inf
    for k in (-1, 0, 1):
        sub = load_problem(json.dumps({
            "variables": [
                {"name": "x", "lb": float(k), "ub": float(k), "integer": False},
                {"name": "y", "lb": -10.0, "ub": 10.0, "integer": False},
            ],
            "objective": [-1.0, -1.0],
            "constraints": [{"name": "ball", "expr": "x^2 + y^2 - 1"}],
        }))
        sub_trace = solve_kelley(sub, cfg)
        if sub_trace.status == "optimal_eps":
            best = min(best, sub_trace.objective)
    assert abs(trace.objective - best) <= 1e-4


def test_bnb_continuous_delegates(circle):
    direct = solve_kelley(circle)
    via_bnb = solve_bnb(circle, inner="kelley")
    assert via_bnb.to_json() == direct.to_json()


def test_bnb_bound_records_nondecreasing():
    trace = solve_bnb(_integer_circle())
    bounds = [rec.objective for rec in trace.iterations]
    for prev, nxt in zip(bounds, bounds[1:]):
        assert nxt >= prev - 1e-9


@pytest.mark.parametrize("inner", ["kelley", "esh"])
def test_bnb_matches_lattice_enumeration_on_random_boxes(inner):
    # shifted ellipses with integer variables; oracle enumerates the lattice
    rng = np.random.default_rng(9)
    for trial in range(6):
        cx, cy = rng.uniform(-2.0, 2.0, size=2)
        rad2 = float(rng.uniform(1.5, 6.0))
        c = rng.uniform(-1.5, 1.5, size=2)
        if np.max(np.abs(c)) < 0.1:
            c = np.array([1.0, 0.5])
        d = {
            "variables": [
                {"name": "x", "lb": -5.0, "ub": 5.0, "integer": True},
                {"name": "y", "lb": -5.0, "ub": 5.0, "integer": True},
            ],
            "objective": [float(c[0]), float(c[1])],
            "constraints": [{
                "name": "ball",
                "expr": f"(x - {cx})^2 + (y - {cy})^2 - {rad2}",
            }],
        }
        p = load_problem(d)
        trace = solve_bnb(p, inner=inner)
        best = math.inf
        for x, y in itertools.product(range(-5, 6), repeat=2):
            if (x - cx) ** 2 + (y - cy) ** 2 <= rad2:
                best = min(best, c[0] * x + c[1] * y)
        if best is math.inf:
            assert trace.status == "infeasible", f"trial {trial}"
        else:
            assert trace.status == "optimal_eps", f"trial {trial}"
            assert abs(trace.objective - best) <= 1e-4, f"trial {trial}"


def _integer_ball_exp(objective):
    # bnb-kelley's family: {sum x_i^2 <= 6.5} ∩ {sum exp(0.5 x_i) <= 6} on [-5, 5]^3
    names = ("x0", "x1", "x2")
    return load_problem(json.dumps({
        "variables": [{"name": v, "lb": -5.0, "ub": 5.0, "integer": True} for v in names],
        "objective": [float(c) for c in objective],
        "constraints": [
            {"name": "ball", "expr": " + ".join(f"{v}^2" for v in names) + " - 6.5"},
            {"name": "exp", "expr": " + ".join(f"exp(0.5*{v})" for v in names) + " - 6"},
        ],
        "interior_point": [0.0, 0.0, 0.0],
    }))


def _integer_ball_exp_lattice_optimum(objective) -> float:
    L = np.array(list(itertools.product(range(-5, 6), repeat=3)), dtype=float)
    feasible = (np.sum(L**2, axis=1) <= 6.5) & (np.sum(np.exp(0.5 * L), axis=1) <= 6.0)
    return float(np.min(L[feasible] @ np.asarray(objective, dtype=float)))


def test_bnb_fractional_nodes_branch_after_capped_rounds(monkeypatch):
    # separating every fractional LP point down to eps_feas takes 106 LP
    # solves here; branching at the second one takes 62
    import gaugecut.lp as lp_mod

    calls = []
    solve = lp_mod.lp_solve

    def counted(m):
        calls.append(1)
        return solve(m)

    monkeypatch.setattr(lp_mod, "lp_solve", counted)
    trace = solve_bnb(_integer_ball_exp((-1.0, -1.0, -1.0)), SolverConfig(eps_feas=1e-4))
    assert trace.status == "optimal_eps"
    assert abs(trace.objective + 3.0) <= 1e-9
    assert len(calls) <= 70


@pytest.mark.parametrize("inner", ["kelley", "esh"])
def test_bnb_integer_ball_exp_matches_lattice_enumeration(inner):
    cfg = SolverConfig(eps_feas=1e-4)
    rng = np.random.default_rng(7)
    for trial in range(8):
        c = rng.uniform(-1.0, 1.0, size=3)
        p = _integer_ball_exp(c)
        trace = solve_bnb(p, cfg, inner=inner)
        assert trace.status == "optimal_eps", f"trial {trial}"
        assert abs(trace.objective - _integer_ball_exp_lattice_optimum(c)) <= 1e-6, f"trial {trial}"
        assert np.max(np.abs(trace.x - np.round(trace.x))) <= 1e-6, f"trial {trial}"
        assert max_violation(p.constraints, trace.x)[0] <= cfg.eps_feas, f"trial {trial}"


def test_bnb_node_violation_is_read_from_its_last_record():
    # one iteration per node: the ESH root node stops at the LP vertex (0, 0),
    # outside log's domain, where the constraints cannot be evaluated again
    trace = solve_bnb(make_log(integer=True), SolverConfig(max_iters=1), inner="esh")
    assert trace.status == "iteration_limit"
    assert np.array_equal(trace.iterations[0].x, [0.0, 0.0])
    assert trace.iterations[0].violation == math.inf


def test_bnb_determinism():
    a = solve_bnb(_integer_circle(), inner="esh").to_json()
    b = solve_bnb(_integer_circle(), inner="esh").to_json()
    assert a == b


# ---------------------------------------------------------------------------
# first-cut quality contrast
# ---------------------------------------------------------------------------


def test_support_gap_contrast_at_box_vertex(circle):
    # closed-form support function of the unit disk: max alpha.x = ||alpha||_2
    kelley_trace = solve_kelley(circle, SolverConfig(max_iters=2))
    esh_trace = solve_esh(circle, SolverConfig(max_iters=2))
    kc = kelley_trace.iterations[0].cuts[0]
    ec = esh_trace.iterations[0].cuts[0]
    kelley_gap = kc.beta - float(np.linalg.norm(kc.alpha))
    esh_gap = ec.beta - float(np.linalg.norm(ec.alpha))
    assert kelley_gap >= 1e-3
    assert abs(esh_gap) <= 1e-7
