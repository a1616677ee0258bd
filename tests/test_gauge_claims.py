"""The paper's two claims, checked on whole runs rather than single cuts:
ESH is Kelley's cutting-plane loop on ``gauge(x) <= 1``, and ESH does not
depend on how the feasible set is written."""

import dataclasses

import numpy as np
import pytest

from gaugecut import (
    Constraint,
    SolverConfig,
    check_esh_kcp_equivalence,
    gauge_values,
    parse,
    render,
    solve_esh,
)

from helpers import kelley_on_gauge, make_ball_exp, make_circle, make_log, make_nonconvex_circle


def _with_objectives(p, rng, count, low):
    return [dataclasses.replace(p, objective=rng.uniform(low, 1.0, size=p.lower.size))
            for _ in range(count)]


def _instances():
    rng = np.random.default_rng(5)
    out = []
    for factory, low in ((make_circle, -1.0), (make_nonconvex_circle, -1.0),
                         (make_log, 0.2), (lambda: make_ball_exp(5), -1.0)):
        out += _with_objectives(factory(), rng, 3, low)
    return out


def test_esh_run_is_kelley_on_the_gauge():
    """A whole ESH run and Kelley's loop on ``gauge(x) <= 1`` make the same
    iterations and cuts and reach the same objective.

    The comparison runs at ``eps_feas = 1e-4``.  ESH's cut ``v^T y <= v^T xhat
    - g(xhat)`` carries ``-g(xhat)``, which lies in ``[0, 1e-9]`` because the
    line search stops on the feasible side, while the gauge cut passes
    through ``xhat`` exactly.  At tighter tolerances the later LPs meet
    near-ties that this difference can break either way, and the two runs
    then part."""
    cfg = SolverConfig(eps_feas=1e-4, max_iters=300)
    for p in _instances():
        esh = solve_esh(p, cfg)
        assert esh.status == "optimal_eps"
        iterations, cuts, objective = kelley_on_gauge(p, cfg)
        assert (len(esh.iterations), len(esh.cuts)) == (iterations, cuts)
        assert abs(esh.objective - objective) <= 1e-8


def _transformed(p, template):
    """``p`` with every constraint ``g`` replaced by ``template`` applied to
    ``g``: the same feasible set when ``h`` in ``h(g) <= 0`` is increasing
    with ``h(0) = 0``."""
    cons = tuple(
        Constraint(c.name, parse(template.format(g=f"({render(c.expr)})"), p.names))
        for c in p.constraints
    )
    return dataclasses.replace(p, constraints=cons)


# h(g) with h(0) = 0 and h'(0) = 1: eps_feas keeps its meaning at the answer
SAME_SCALE = ("{g} + {g}^3", "1 - exp(-{g})")


@pytest.mark.parametrize("factory", [make_circle, lambda: make_ball_exp(3)],
                         ids=["circle", "ball_exp3"])
def test_esh_does_not_depend_on_the_representation(factory):
    """ESH reads ``g`` only through the sign of ``max_j g_j`` on the line
    search and through the direction of the active gradients at the
    boundary, and both are the same for ``h(g)``.  Kelley's loop is not:
    it linearizes ``h(g)`` far from the set, where ``1 - exp(-g)`` is flat."""
    p = factory()
    cfg = SolverConfig(eps_feas=1e-6)
    base = solve_esh(p, cfg)
    for template in SAME_SCALE:
        run = solve_esh(_transformed(p, template), cfg)
        assert run.status == base.status == "optimal_eps"
        assert (len(run.iterations), len(run.cuts)) == (len(base.iterations), len(base.cuts))
        assert abs(run.objective - base.objective) <= 1e-12


@pytest.mark.parametrize("factory", [make_circle, lambda: make_ball_exp(4), make_nonconvex_circle],
                         ids=["circle", "ball_exp4", "shell"])
def test_gauge_does_not_depend_on_the_representation(factory):
    """The gauge is a function of the set alone, and its bisection reads only
    the sign of ``max_j g_j``: ``phi`` and ``ok`` are bit-identical for every
    increasing ``h`` with ``h(0) = 0``, also one that rescales ``g``."""
    p = factory()
    points = np.random.default_rng(11).uniform(-2.0, 2.0, size=(2000, p.lower.size))
    phi, ok = gauge_values(p.constraints, p.interior_point, points)
    for template in SAME_SCALE + ("1000 * {g}",):
        phi_h, ok_h = gauge_values(_transformed(p, template).constraints, p.interior_point, points)
        assert np.array_equal(ok_h, ok)
        assert phi_h.tobytes() == phi.tobytes()


@pytest.mark.parametrize("factory", [make_circle, make_nonconvex_circle], ids=["circle", "shell"])
def test_equivalence_check_holds_for_every_representation(factory):
    p = factory()
    for template in SAME_SCALE:
        assert check_esh_kcp_equivalence(_transformed(p, template), None, [1.5, 1.5]).passed
