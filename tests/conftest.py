import inspect
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).parent))

from helpers import (
    assert_same_crossings,
    assert_values_at_crossings,
    make_circle,
    make_nonconvex_circle,
    make_thin,
    reference_boundary_crossings,
)


@pytest.fixture(autouse=True)
def _verify_every_lp_solve(monkeypatch):
    """Test mode: every optimal LP solution anywhere in the suite is checked
    against its bounds and cut pool post-hoc.  The check replaces
    ``lp_solve`` under every name a gaugecut module binds it to, so solves
    reached through ``gaugecut.lp`` (as ``check_supporting``'s are) or
    through a name imported from it are checked alike."""
    import gaugecut.lp as lp_mod

    original = lp_mod.lp_solve

    def checked(m):
        sol = original(m)
        lp_mod.check_solution(m, sol)
        return sol

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "gaugecut" and getattr(module, "lp_solve", None) is original:
            monkeypatch.setattr(module, "lp_solve", checked)


@pytest.fixture(autouse=True)
def _verify_every_boundary_crossing(monkeypatch):
    """Test mode: every call of the ray-crossing kernel anywhere in the suite
    is checked against one halving per evaluation, and the values it hands
    back at each first bracket end and each crossing against an evaluation
    of that point."""
    import gaugecut.separation as sep

    original = sep._boundary_crossings
    signature = inspect.signature(original)

    def checked(*args, **kwargs):
        got = original(*args, **kwargs)
        a = signature.bind(*args, **kwargs)
        a.apply_defaults()
        a = a.arguments
        cons, x0, D, ends = a["cons"], a["x0"], a["D"], a["ends"]
        expect = reference_boundary_crossings(cons, x0, D, a["tol"], a["settle"],
                                              ends=ends, stop=a["stop"])
        assert_same_crossings(got, expect)
        assert_values_at_crossings(cons, x0, D, got, ends)
        return got

    monkeypatch.setattr(sep, "_boundary_crossings", checked)


@pytest.fixture
def circle():
    return make_circle()


@pytest.fixture
def circle_no_interior():
    return make_circle(interior=False)


@pytest.fixture
def nonconvex_circle():
    return make_nonconvex_circle()


@pytest.fixture
def thin_problem():
    return make_thin()
