import json
import math

import numpy as np
import pytest

from gaugecut import (
    Cut,
    InteriorPointError,
    ProblemFormatError,
    check_supporting,
    epsilon_relax,
    eval_value,
    find_interior_point,
    load_problem,
    resolve_interior_point,
    save_problem,
    solve_esh,
)
from gaugecut.model import SolverConfig, constraint_values, max_violation

from helpers import circle_dict, make_circle, make_log, make_thin


def test_load_circle_fixture(tmp_path):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(circle_dict()))
    p = load_problem(path)
    assert p.n == 2
    assert p.names == ("x", "y")
    assert len(p.constraints) == 1
    assert p.constraints[0].name == "ball"
    assert np.array_equal(p.lower, [-10.0, -10.0])
    assert np.array_equal(p.objective, [-1.0, -1.0])
    assert np.array_equal(p.interior_point, [0.0, 0.0])


def test_load_from_json_text_and_dict():
    d = circle_dict()
    assert load_problem(json.dumps(d)) == load_problem(d)


def test_bad_bounds_rejected():
    d = circle_dict()
    d["variables"][0]["lb"] = 11.0
    with pytest.raises(ProblemFormatError, match="lower bound exceeds upper"):
        load_problem(d)


def test_nonfinite_bounds_rejected():
    d = circle_dict()
    d["variables"][0]["ub"] = math.inf
    with pytest.raises(ProblemFormatError, match="finite"):
        load_problem(d)


def test_undeclared_variable_rejected():
    d = circle_dict()
    d["constraints"][0]["expr"] = "x^2 + z^2 - 1"
    with pytest.raises(ProblemFormatError, match="'z'"):
        load_problem(d)


def test_unknown_keys_rejected():
    d = circle_dict()
    d["comment"] = "nope"
    with pytest.raises(ProblemFormatError, match="unknown key"):
        load_problem(d)
    d = circle_dict()
    d["variables"][0]["start"] = 1.0
    with pytest.raises(ProblemFormatError, match="unknown key"):
        load_problem(d)
    d = circle_dict()
    d["constraints"][0]["sense"] = "<="
    with pytest.raises(ProblemFormatError, match="unknown key"):
        load_problem(d)


def test_empty_constraints_rejected():
    d = circle_dict()
    d["constraints"] = []
    with pytest.raises(ProblemFormatError):
        load_problem(d)


def test_save_load_identity(tmp_path):
    p = make_circle(integer=(True, False))
    assert load_problem(save_problem(p)) == p
    path = tmp_path / "round.json"
    save_problem(p, path)
    assert load_problem(path) == p


def test_save_load_identity_without_interior():
    p = make_circle(interior=False)
    q = load_problem(save_problem(p))
    assert q == p and q.interior_point is None


# ---------------------------------------------------------------------------
# epsilon relaxation
# ---------------------------------------------------------------------------


def test_epsilon_relax_circle():
    p = make_circle()
    relaxed = epsilon_relax(p, 0.1)
    g = relaxed.constraints[0].expr
    r = math.sqrt(1.1)  # disk of radius sqrt(1.1)
    assert abs(eval_value(g, [r, 0.0])) <= 1e-12
    assert eval_value(g, [0.0, 0.0]) == -1.1
    # objective and bounds untouched
    assert np.array_equal(relaxed.objective, p.objective)
    assert np.array_equal(relaxed.lower, p.lower)


def test_epsilon_relax_requires_positive_eps():
    p = make_circle()
    with pytest.raises(ValueError):
        epsilon_relax(p, 0.0)
    with pytest.raises(ValueError):
        epsilon_relax(p, -1e-3)


def test_epsilon_relax_gives_thin_set_interior():
    # {x <= 0, -x <= 0} relaxed by 0.1 becomes the slab -0.1 <= x <= 0.1
    thin = make_thin()
    relaxed = epsilon_relax(thin, 0.1)
    f_mid, _ = max_violation(relaxed.constraints, [0.0])
    assert f_mid == -0.1
    f_edge, _ = max_violation(relaxed.constraints, [0.1])
    assert abs(f_edge) <= 1e-12
    f_out, _ = max_violation(relaxed.constraints, [0.2])
    assert f_out > 0


def test_epsilon_relax_region_contains_original():
    p = make_circle()
    relaxed = epsilon_relax(p, 0.05)
    rng = np.random.default_rng(3)
    pts = rng.uniform(-1.0, 1.0, size=(200, 2))
    pts = pts[np.sum(pts**2, axis=1) <= 1.0]
    orig = constraint_values(p.constraints, pts).max(axis=0)
    rel = constraint_values(relaxed.constraints, pts).max(axis=0)
    assert np.all(orig <= 1e-12)
    assert np.all(rel < 0.0)  # feasible points become strictly interior


# ---------------------------------------------------------------------------
# interior point search
# ---------------------------------------------------------------------------


def test_find_interior_point_circle():
    p = make_circle(interior=False)
    x0 = find_interior_point(p, start=np.array([2.0, 2.0]))
    f, _ = max_violation(p.constraints, x0)
    assert f < 0.0
    assert np.all(x0 >= p.lower) and np.all(x0 <= p.upper)


def test_find_interior_point_returns_interior_start_unchanged():
    p = make_circle(interior=False)
    x0 = find_interior_point(p, start=np.array([0.0, 0.0]))
    assert np.array_equal(x0, [0.0, 0.0])


def test_find_interior_point_fails_on_thin_set():
    thin = make_thin()
    with pytest.raises(InteriorPointError, match="epsilon_relax"):
        find_interior_point(thin, start=np.array([5.0]), max_steps=300)


def test_resolve_interior_point_precedence_and_validation():
    p = make_log()  # file point (5, 5)
    assert np.array_equal(resolve_interior_point(p, [2.0, 3.0]), [2.0, 3.0])
    assert np.array_equal(resolve_interior_point(p), [5.0, 5.0])
    searched = resolve_interior_point(make_circle(interior=False))
    assert max_violation(make_circle().constraints, searched)[0] < 0.0
    with pytest.raises(InteriorPointError, match="config/argument lies outside the variable bounds"):
        resolve_interior_point(p, [11.0, 5.0])
    with pytest.raises(InteriorPointError, match="config/argument is not strictly interior"):
        resolve_interior_point(p, [1.0, 1.0])


_OFF_DOMAIN_POINT_CALLS = {
    "resolve_interior_point": lambda p: resolve_interior_point(p, [0.0, 0.0]),
    "solve_esh": lambda p: solve_esh(p, SolverConfig(interior_point=(0.0, 0.0))),
    "check_supporting": lambda p: check_supporting(
        p, Cut(np.ones(2), 1.0), interior_point=[0.0, 0.0]),
}


@pytest.mark.parametrize("call", _OFF_DOMAIN_POINT_CALLS.values(),
                         ids=_OFF_DOMAIN_POINT_CALLS.keys())
def test_supplied_interior_point_outside_the_domain_names_its_source(call):
    # (0, 0) is inside the bounds of the log set but log(0) is undefined
    with pytest.raises(InteriorPointError, match="config/argument lies outside a constraint's domain"):
        call(make_log())


def test_find_interior_point_validates_start():
    p = make_circle(interior=False)
    with pytest.raises(ValueError, match="bounds"):
        find_interior_point(p, start=np.array([20.0, 0.0]))


# ---------------------------------------------------------------------------
# config validation
# ---------------------------------------------------------------------------


def test_solver_config_validation():
    with pytest.raises(ValueError):
        SolverConfig(eps_feas=0.0)
    with pytest.raises(ValueError):
        SolverConfig(line_search_tol=-1e-9)
    with pytest.raises(ValueError):
        SolverConfig(max_iters=0)
    cfg = SolverConfig(interior_point=[0.0, 0.0])
    assert np.array_equal(cfg.interior_point, [0.0, 0.0])
