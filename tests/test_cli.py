import json
import math
import warnings

import numpy as np
import pytest

from gaugecut import load_problem, solve_esh
from gaugecut.cli import main

from helpers import circle_dict


@pytest.fixture
def circle_path(tmp_path):
    path = tmp_path / "circle.json"
    path.write_text(json.dumps(circle_dict()))
    return str(path)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# solve
# ---------------------------------------------------------------------------


def test_solve_esh_summary_and_trace(capsys, circle_path, tmp_path):
    trace_path = tmp_path / "out.json"
    code, out, _ = run(capsys, "solve", "--algorithm", "esh", circle_path,
                       "--trace", str(trace_path))
    assert code == 0
    fields = dict(part.split("=") for part in out.split())
    assert fields["status"] == "optimal_eps"
    assert abs(float(fields["objective"]) + math.sqrt(2.0)) <= 1e-3
    assert int(fields["iterations"]) >= 2
    # golden comparison: the written trace equals the library's
    library = solve_esh(load_problem(circle_path))
    assert json.loads(trace_path.read_text()) == library.to_json_dict()


def test_solve_csv_trace(capsys, circle_path, tmp_path):
    trace_path = tmp_path / "out.csv"
    code, _, _ = run(capsys, "solve", circle_path, "--trace", str(trace_path))
    assert code == 0
    lines = trace_path.read_text().strip().splitlines()
    assert lines[0] == "iteration,objective,violation"


def test_solve_integer_problem_uses_bnb(capsys, tmp_path):
    d = circle_dict(integer=(True, True))
    path = tmp_path / "int.json"
    path.write_text(json.dumps(d))
    code, out, _ = run(capsys, "solve", "--algorithm", "esh", str(path))
    assert code == 0
    fields = dict(part.split("=") for part in out.split())
    assert abs(float(fields["objective"]) + 1.0) <= 1e-4


def test_solve_infeasible_exit_code(capsys, tmp_path):
    path = tmp_path / "inf.json"
    path.write_text(json.dumps({
        "variables": [{"name": "x", "lb": -10.0, "ub": 10.0, "integer": False}],
        "objective": [1.0],
        "constraints": [
            {"name": "le", "expr": "x + 2"},
            {"name": "ge", "expr": "3 - x"},
        ],
    }))
    code, out, _ = run(capsys, "solve", str(path))
    assert code == 1
    assert "status=infeasible" in out


def test_solve_epsilon_relax_flag(capsys, tmp_path):
    path = tmp_path / "thin.json"
    path.write_text(json.dumps({
        "variables": [{"name": "x", "lb": -10.0, "ub": 10.0, "integer": False}],
        "objective": [1.0],
        "constraints": [{"name": "le", "expr": "x"}, {"name": "ge", "expr": "-x"}],
    }))
    code, _, err = run(capsys, "solve", "--algorithm", "esh", str(path))
    assert code == 3  # no interior point obtainable
    assert "interior" in err
    code, out, _ = run(capsys, "solve", "--algorithm", "esh", str(path),
                       "--epsilon-relax", "0.1")
    assert code == 0
    assert "status=optimal_eps" in out


def test_solve_with_huge_bounds_ends_in_a_numeric_error(capsys, tmp_path):
    # the line search evaluates batches of points whose values are finite but
    # add up past the float range: no RuntimeWarning escapes, and the run
    # ends in exit code 3
    d = circle_dict()
    for v in d["variables"]:
        v["lb"], v["ub"] = -1e160, 1e160
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(d))
    code, _, err = run(capsys, "solve", "--algorithm", "esh", str(path))
    assert code == 3
    assert "line search" in err


def test_solve_with_huge_bounds_and_no_interior_point(capsys, tmp_path):
    # the interior point search starts at the box's midpoint, already interior
    d = circle_dict(interior=False)
    for v in d["variables"]:
        v["lb"], v["ub"] = -1e160, 1e160
    path = tmp_path / "huge.json"
    path.write_text(json.dumps(d))
    code, _, err = run(capsys, "solve", "--algorithm", "esh", str(path))
    assert code == 3
    assert "line search" in err


@pytest.mark.parametrize("algorithm", ["esh", "kelley"])
def test_solve_with_bounds_near_the_float_limit_ends_in_a_numeric_error(
        capsys, tmp_path, algorithm):
    # the box loads, but c^T x at the first LP vertex, about -2e308,
    # overflows: a typed error and exit code 3, and no RuntimeWarning
    d = circle_dict()
    d["objective"] = [1.0, 1.0]
    for v in d["variables"]:
        v["lb"], v["ub"] = -1e308, 1e308
    path = tmp_path / "edge.json"
    path.write_text(json.dumps(d))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        code, _, err = run(capsys, "solve", "--algorithm", algorithm, str(path))
    assert code == 3
    assert "overflows the float range" in err


def test_line_search_error_names_both_causes(capsys, tmp_path):
    # g(0) = -1, but the crossing x = 1 sits at t = 1e-160 of the segment
    # from 0 to the LP point 1e160
    path = tmp_path / "far.json"
    path.write_text(json.dumps({
        "variables": [{"name": "x", "lb": -1e160, "ub": 1e160, "integer": False}],
        "objective": [-1.0],
        "constraints": [{"name": "g", "expr": "x - 1"}],
        "interior_point": [0.0],
    }))
    code, _, err = run(capsys, "solve", "--algorithm", "esh", str(path))
    assert code == 3
    assert "the crossing lies within 7.9e-22 of the segment's length" in err
    assert "the point to separate lies that far outside" in err
    assert "too steep there to settle" in err


def test_usage_errors(capsys, tmp_path):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    code, _, _ = run(capsys, "solve", str(bad))
    assert code == 2
    code, _, _ = run(capsys, "solve", str(tmp_path / "missing.json"))
    assert code == 2
    # unknown flag and unknown subcommand are argparse usage errors
    assert main(["solve", "--nope", str(bad)]) == 2
    assert main(["frobnicate"]) == 2


# ---------------------------------------------------------------------------
# separate
# ---------------------------------------------------------------------------


def test_separate_kelley_cut(capsys, circle_path):
    code, out, _ = run(capsys, "separate", "--point", "1.5,1.5", circle_path,
                       "--method", "kelley")
    assert code == 0
    data = json.loads(out)
    cut = data["cuts"][0]
    alpha = np.array(cut["alpha"])
    assert np.array_equal(alpha, [1.0, 1.0])
    assert abs(cut["beta"] - 11.0 / 6.0) <= 1e-12
    assert cut["origin"]["method"] == "kelley"
    assert cut["origin"]["constraint"] == "ball"


def test_separate_esh_cut(capsys, circle_path):
    code, out, _ = run(capsys, "separate", "--point", "1.5,1.5", circle_path,
                       "--method", "esh")
    assert code == 0
    data = json.loads(out)
    s = 1.0 / math.sqrt(2.0)
    assert np.max(np.abs(np.array(data["gauge"]["boundary_point"]) - s)) <= 1e-8
    assert abs(data["gauge"]["gauge_value"] - math.sqrt(4.5)) <= 1e-7
    cut = data["cuts"][0]
    assert abs(cut["beta"] - math.sqrt(2.0)) <= 1e-7
    # golden comparison against the library path
    from gaugecut import esh_cut, line_search_boundary

    p = load_problem(circle_path)
    gr = line_search_boundary(p.constraints, [0.0, 0.0], [1.5, 1.5])
    assert data["cuts"] == [c.to_json() for c in esh_cut(p.constraints, gr)]


def test_separate_interior_point_override(capsys, circle_path):
    # CLI point takes precedence over the file's (0,0); a shifted center
    # lands the line search on a different boundary point
    code, out, _ = run(capsys, "separate", "--point", "1.5,1.5", circle_path,
                       "--method", "esh", "--interior-point", "0.5,0.0")
    assert code == 0
    data = json.loads(out)
    x = np.array(data["gauge"]["boundary_point"])
    assert abs(float(x @ x) - 1.0) <= 1e-7
    assert np.max(np.abs(x - 1.0 / math.sqrt(2.0))) > 1e-3
    code, _, err = run(capsys, "separate", "--point", "1.5,1.5", circle_path,
                       "--method", "esh", "--interior-point", "5.0,5.0")
    assert code == 3
    assert "interior" in err


def test_separate_feasible_point_is_usage_error(capsys, circle_path):
    code, _, err = run(capsys, "separate", "--point", "0.1,0.1", circle_path)
    assert code == 2
    assert "violate" in err


# ---------------------------------------------------------------------------
# check-support / classify-quadratic / equivalence
# ---------------------------------------------------------------------------


def test_check_support_cli(capsys, circle_path):
    code, out, _ = run(capsys, "check-support", circle_path,
                       "--alpha", "1,1", "--beta", str(math.sqrt(2.0)))
    assert code == 0
    data = json.loads(out)
    assert data["supporting"] is True
    code, out, _ = run(capsys, "check-support", circle_path,
                       "--alpha", "1,1", "--beta", str(11.0 / 6.0))
    data = json.loads(out)
    assert data["supporting"] is False
    assert abs(data["max_violation_gap"] - (11.0 / 6.0 - math.sqrt(2.0))) <= 1e-6


def test_check_support_validates_the_interior_point(capsys, circle_path):
    code, _, err = run(capsys, "check-support", circle_path, "--alpha", "1,1",
                       "--beta", "1", "--interior-point", "5,5")
    assert code == 3
    assert "interior point from config/argument is not strictly interior" in err


def test_classify_quadratic_cli(capsys):
    code, out, _ = run(capsys, "classify-quadratic",
                       "--A", "1 0; 0 1", "--b", "0 0", "--c0", "-1")
    assert code == 0
    assert "never supporting from infeasible points (b in range(A))" in out
    code, out, _ = run(capsys, "classify-quadratic",
                       "--A", "1 0; 0 0", "--b", "0 -1", "--c0", "0")
    assert code == 0
    assert "always supporting" in out


def test_classify_quadratic_bad_matrix(capsys):
    code, _, err = run(capsys, "classify-quadratic",
                       "--A", "1 0; 0", "--b", "0 0", "--c0", "-1")
    assert code == 2
    assert "matrix" in err


def test_equivalence_cli(capsys, circle_path):
    code, out, _ = run(capsys, "equivalence", circle_path, "--point", "1.5,1.5")
    assert code == 0
    data = json.loads(out)
    assert data["subgradient_ok"] is True
    assert abs(data["gauge_value"] - math.sqrt(4.5)) <= 1e-7
    assert np.allclose(data["normalized_alpha"], 1.0 / math.sqrt(2.0), atol=1e-7)


def test_equivalence_feasible_point_usage_error(capsys, circle_path):
    code, _, _ = run(capsys, "equivalence", circle_path, "--point", "0.2,0.2")
    assert code == 2
