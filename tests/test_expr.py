import math
import tracemalloc
import warnings

import numpy as np
import pytest

from gaugecut import (
    Constraint,
    EvalDomainError,
    ParseError,
    eval_grad,
    eval_value,
    gauge_values,
    load_problem,
    parse,
    render,
)
from gaugecut.expr import (
    _CHECKED,
    _POW_FRAC,
    MAX_NESTING,
    Add,
    Const,
    Div,
    Func,
    Mul,
    Neg,
    Pow,
    Sub,
    Var,
    _postorder,
    _tape,
)
from helpers import make_ball_exp, random_psd_quadratic, reference_eval_grad, reference_eval_value

XY = ("x", "y")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_circle_tree():
    e = parse("x^2 + y^2 - 1", XY)
    expected = Sub(
        Add(Pow(Var(0, "x"), 2.0), Pow(Var(1, "y"), 2.0)),
        Const(1.0),
    )
    assert e == expected


def test_parse_exp_shell():
    e = parse("exp(1 - x^2 - y^2)", XY)
    assert isinstance(e, Func) and e.name == "exp"
    assert e.arg == Sub(Sub(Const(1.0), Pow(Var(0, "x"), 2.0)), Pow(Var(1, "y"), 2.0))


def test_variable_exponent_rejected():
    with pytest.raises(ParseError, match="exponent"):
        parse("x ^ y", XY)


def test_precedence():
    # ^ binds tighter than unary minus, which binds tighter than *
    assert parse("-x^2", XY) == Neg(Pow(Var(0, "x"), 2.0))
    assert parse("-x * y", XY) == Mul(Neg(Var(0, "x")), Var(1, "y"))
    assert parse("x - y - 1", XY) == Sub(Sub(Var(0, "x"), Var(1, "y")), Const(1.0))
    assert parse("x / y / 2", XY) == Div(Div(Var(0, "x"), Var(1, "y")), Const(2.0))
    assert parse("x^-2", XY) == Pow(Var(0, "x"), -2.0)


def test_parse_errors_carry_position():
    with pytest.raises(ParseError) as err:
        parse("x + ", XY)
    assert err.value.position == 4
    with pytest.raises(ParseError, match="unknown identifier 'z'"):
        parse("x + z", XY)
    with pytest.raises(ParseError, match="exactly one argument"):
        parse("exp(x, y)", XY)
    with pytest.raises(ParseError, match="unexpected character"):
        parse("x + $", XY)
    with pytest.raises(ParseError, match="unknown function"):
        parse("sin(x)", XY)


def test_function_name_needs_call():
    with pytest.raises(ParseError, match="argument list"):
        parse("exp + 1", XY)


# ---------------------------------------------------------------------------
# evaluation and gradients
# ---------------------------------------------------------------------------


def test_eval_circle_at_violating_point():
    e = parse("x^2 + y^2 - 1", XY)
    r = eval_grad(e, [1.5, 1.5])
    assert r.value == 3.5
    assert np.array_equal(r.gradient, [3.0, 3.0])


def test_eval_circle_at_center():
    e = parse("x^2 + y^2 - 1", XY)
    r = eval_grad(e, [0.0, 0.0])
    assert r.value == -1.0
    assert np.array_equal(r.gradient, [0.0, 0.0])


def test_eval_exp_shell_on_boundary():
    # hand chain rule: d/dx (1 - e^(1 - x^2 - y^2)) = e^(1 - t) * 2x = sqrt(2) at t = 1
    e = parse("1 - exp(1 - x^2 - y^2)", XY)
    s = 1.0 / math.sqrt(2.0)
    r = eval_grad(e, [s, s])
    assert abs(r.value) <= 1e-12
    assert np.allclose(r.gradient, [math.sqrt(2.0), math.sqrt(2.0)], rtol=0, atol=1e-12)


def test_eval_is_deterministic():
    e = parse("exp(x * y) / (1 + x^2) + sqrt(y)", XY)
    a = eval_grad(e, [0.3, 0.7])
    b = eval_grad(e, [0.3, 0.7])
    assert a.value == b.value
    assert np.array_equal(a.gradient, b.gradient)


def test_domain_errors_name_the_subexpression():
    with pytest.raises(EvalDomainError, match=r"log of a non-positive value in 'log\(x\)'"):
        eval_grad(parse("log(x)", XY), [0.0, 1.0])
    with pytest.raises(EvalDomainError, match="sqrt"):
        eval_grad(parse("sqrt(x)", XY), [-1.0, 0.0])
    with pytest.raises(EvalDomainError, match="division by zero"):
        eval_grad(parse("x / y", XY), [1.0, 0.0])
    with pytest.raises(EvalDomainError, match="negative base"):
        eval_grad(parse("x ^ 0.5", XY), [-2.0, 0.0])
    with pytest.raises(EvalDomainError, match="negative power"):
        eval_grad(parse("x ^ -1", XY), [0.0, 0.0])


def test_derivative_only_domain_errors():
    # the value exists at x = 0, the slope does not
    for source in ("sqrt(x)", "x ^ 0.5"):
        e = parse(source, XY)
        assert eval_value(e, [0.0, 1.0]) == 0.0
        with pytest.raises(EvalDomainError, match="in a derivative"):
            eval_grad(e, [0.0, 1.0])


def test_value_domain_errors_come_before_derivative_ones():
    # sqrt(x) has no slope at x = 0, but log(0) has no value
    with pytest.raises(EvalDomainError, match="log of a non-positive value"):
        eval_grad(parse("sqrt(x) + log(x)", XY), [0.0, 1.0])
    with pytest.raises(EvalDomainError, match="sqrt of a negative value"):
        eval_grad(parse("sqrt(x)", XY), [-1.0, 0.0])


def test_shared_subtree_gradient():
    # one subtree object used twice, as a rewrite that reuses a node builds it
    g = parse("x * y + exp(x)", XY)
    x = np.array([0.7, -1.3])
    v, dg = eval_value(g, x), eval_grad(g, x).gradient
    r = eval_grad(Add(g, Pow(g, 3.0)), x)
    assert r.value == eval_value(Add(g, Pow(g, 3.0)), x)
    assert np.allclose(r.gradient, (1.0 + 3.0 * v**2) * dg, rtol=1e-14, atol=0.0)


def test_batched_matches_pointwise():
    e = parse("exp(x * y) / (1 + x^2) + sqrt(y + 2)", XY)
    rng = np.random.default_rng(0)
    X = rng.uniform(-1.5, 1.5, size=(40, 2))
    batch = eval_value(e, X)
    for i in range(X.shape[0]):
        assert batch[i] == eval_value(e, X[i])


def test_constant_expressions_keep_their_shapes():
    e = parse("2 * 3 + exp(0)", XY)
    assert isinstance(eval_value(e, [0.3, 0.7]), float)
    assert eval_value(e, [0.3, 0.7]) == 7.0
    batch = eval_value(e, np.zeros((4, 2)))
    assert batch.shape == (4,)
    assert np.array_equal(batch, np.full(4, 7.0))


def test_constant_domain_errors_stay_typed():
    with pytest.raises(EvalDomainError, match="division by zero"):
        eval_value(parse("x + 1 / 0", XY), [1.0, 2.0])
    with pytest.raises(EvalDomainError, match="division by zero"):
        eval_value(parse("1 / (2 - 2)", XY), np.ones((3, 2)))
    with pytest.raises(EvalDomainError, match="negative power"):
        eval_value(parse("0 ^ -1", XY), [1.0, 2.0])
    with pytest.raises(EvalDomainError, match="non-finite"):
        eval_value(parse("y + exp(1000)", XY), [1.0, 2.0])


# ---------------------------------------------------------------------------
# properties: finite differences and round-trip
# ---------------------------------------------------------------------------

FD_FIXTURES = [
    ("x^2 + y^2 - 1", XY, (-3.0, 3.0)),
    ("1 - exp(1 - x^2 - y^2)", XY, (-2.0, 2.0)),
    ("log(x) + sqrt(y) - 1", XY, (0.5, 3.0)),
    ("x / y + y / 4", XY, (0.5, 3.0)),
    ("x ^ 1.5 * exp(-y) + x * y", XY, (0.5, 2.5)),
    ("(x - y) ^ 3 / (1 + x^2)", XY, (-2.0, 2.0)),
]


@pytest.mark.parametrize("source,names,box", FD_FIXTURES)
def test_gradient_matches_central_differences(source, names, box):
    e = parse(source, names)
    rng = np.random.default_rng(42)
    h = 1e-6
    for _ in range(100):
        x = rng.uniform(box[0] + 0.1, box[1] - 0.1, size=len(names))
        grad = eval_grad(e, x).gradient
        for j in range(len(names)):
            step = np.zeros(len(names))
            step[j] = h
            fd = (eval_value(e, x + step) - eval_value(e, x - step)) / (2 * h)
            assert abs(grad[j] - fd) <= max(1e-6 * abs(grad[j]), 1e-8)


def _random_tree(rng, names, depth):
    if depth == 0 or rng.random() < 0.3:
        if rng.random() < 0.5:
            return Const(round(float(rng.uniform(-9, 9)), 3))
        i = int(rng.integers(0, len(names)))
        return Var(i, names[i])
    kind = rng.choice(["add", "sub", "mul", "div", "neg", "pow", "func"])
    if kind == "neg":
        child = _random_tree(rng, names, depth - 1)
        if isinstance(child, Const):
            return Const(-child.value)  # the parser folds literal negation
        return Neg(child)
    if kind == "pow":
        exponent = float(rng.choice([2.0, 3.0, -1.0, 0.5, 1.5, -2.0]))
        return Pow(_random_tree(rng, names, depth - 1), exponent)
    if kind == "func":
        name = str(rng.choice(["exp", "log", "sqrt"]))
        return Func(name, _random_tree(rng, names, depth - 1))
    cls = {"add": Add, "sub": Sub, "mul": Mul, "div": Div}[kind]
    return cls(_random_tree(rng, names, depth - 1), _random_tree(rng, names, depth - 1))


def test_render_parse_roundtrip_random_trees():
    rng = np.random.default_rng(7)
    for _ in range(300):
        tree = _random_tree(rng, XY, depth=4)
        assert parse(render(tree), XY) == tree


def test_gradient_value_is_the_plain_value_random_trees():
    rng = np.random.default_rng(11)
    checked = 0
    for _ in range(1000):
        tree = _random_tree(rng, XY, depth=4)
        x = rng.uniform(-3.0, 3.0, size=2)
        try:
            value = eval_grad(tree, x).value
        except EvalDomainError:
            continue
        assert value.hex() == eval_value(tree, x).hex(), render(tree)
        checked += 1
    assert checked >= 700


def test_render_parse_roundtrip_fixture_sources():
    for source, names, _ in FD_FIXTURES:
        tree = parse(source, names)
        assert parse(render(tree), names) == tree


# ---------------------------------------------------------------------------
# the tape against the recursive reference evaluator
# ---------------------------------------------------------------------------


def _outcome(f, e, x):
    """The bytes of what ``f(e, x)`` returns, or the message of the
    :class:`EvalDomainError` it raises."""
    try:
        r = f(e, x)
    except EvalDomainError as err:
        return "error", str(err), err.subexpression
    if hasattr(r, "gradient"):
        return r.value.hex(), r.gradient.tobytes()
    return r.hex() if isinstance(r, float) else r.tobytes()


DOMAIN_FIXTURES = [
    ("log(x)", (0.0, 1.0)),
    ("sqrt(x)", (-1.0, 0.0)),
    ("x / y", (1.0, 0.0)),
    ("x ^ 0.5", (-2.0, 0.0)),
    ("x ^ -1", (0.0, 0.0)),
    ("sqrt(x)", (0.0, 1.0)),
    ("x ^ 0.5", (0.0, 1.0)),
    ("sqrt(x) + log(x)", (0.0, 1.0)),
    ("x ^ 0.5 * sqrt(y)", (0.0, 0.0)),
    ("sqrt(y) - x ^ 1.5 / sqrt(x)", (0.0, 0.0)),
    ("1 / x - log(x)", (0.0, 1.0)),
    ("sqrt(x) ^ 0 + y", (0.0, 1.0)),
    ("x + 1 / 0", (1.0, 2.0)),
    ("0 ^ -1", (1.0, 2.0)),
    ("y + exp(1000)", (1.0, 2.0)),
    ("exp(x) ^ 400", (3.0, 0.0)),
    # like terms of a sum (three or more run as one block): a later term fails
    # at an earlier node of the shared shape (sqrt(y) at y = -1) than the
    # first failing term (log(sqrt(x))), or a term after the first fails
    ("log(sqrt(x)) + log(sqrt(y))", (0.0, -1.0)),
    ("log(sqrt(x)) + log(sqrt(y)) + log(sqrt(x))", (0.0, -1.0)),
    ("1 - sqrt(x) - sqrt(y) - sqrt(x)", (1.0, -1.0)),
    ("x / y + y / x + x / x", (1.0, 0.0)),
    ("exp(x) + exp(2 * y) + exp(3 * x) - 1", (300.0, 1.0)),
]


@pytest.mark.parametrize("source,point", DOMAIN_FIXTURES)
def test_tape_matches_reference_on_domain_fixtures(source, point):
    e = parse(source, XY)
    X = np.array([point, (1.0, 1.0), point])
    for f, ref, x in ((eval_value, reference_eval_value, point),
                      (eval_value, reference_eval_value, X),
                      (eval_grad, reference_eval_grad, point)):
        assert _outcome(f, e, x) == _outcome(ref, e, x), (source, f.__name__)


def test_tape_matches_reference_random_trees():
    rng = np.random.default_rng(13)
    errors = 0
    for _ in range(600):
        tree = _random_tree(rng, XY, depth=5)
        X = rng.uniform(-3.0, 3.0, size=(5, 2))
        got = [_outcome(eval_grad, tree, X[0]), _outcome(eval_value, tree, X[0]),
               _outcome(eval_value, tree, X)]
        expect = [_outcome(reference_eval_grad, tree, X[0]),
                  _outcome(reference_eval_value, tree, X[0]),
                  _outcome(reference_eval_value, tree, X)]
        assert got == expect, render(tree)
        errors += got[0][0] == "error"
    assert 100 <= errors <= 500  # both outcomes are exercised


# ---------------------------------------------------------------------------
# no recursion on user-sized input
# ---------------------------------------------------------------------------


def test_long_sum_parses_evaluates_and_renders():
    n = 5000
    names = tuple(f"x{i}" for i in range(n))
    source = " + ".join(f"{v}^2" for v in names) + " - 1"
    e = parse(source, names)
    x = np.full(n, 0.01)
    assert abs(eval_value(e, x) - (n * 1e-4 - 1.0)) <= 1e-12
    X = np.stack([x, 2.0 * x])
    assert np.allclose(eval_value(e, X), [n * 1e-4 - 1.0, n * 4e-4 - 1.0], rtol=0, atol=1e-12)
    r = eval_grad(e, x)
    assert r.value == eval_value(e, x)
    assert np.array_equal(r.gradient, 2.0 * x)
    text = render(e)
    assert render(parse(text, names)) == text
    assert eval_value(parse(text, names), X).tobytes() == eval_value(e, X).tobytes()


def test_long_sum_compares_and_hashes():
    n = 1000
    names = tuple(f"x{i}" for i in range(n))
    source = " + ".join(f"{v}^2" for v in names) + " - 1"
    a, b = parse(source, names), parse(source, names)
    assert a == b and hash(a) == hash(b)
    assert a != parse(source[:-1] + "2", names)
    assert a != parse(source.replace("x7^2", "x7^3"), names)

    def problem(src):
        return load_problem({
            "variables": [{"name": v, "lb": -2.0, "ub": 2.0} for v in names],
            "objective": [1.0] * n,
            "constraints": [{"name": "ball", "expr": src}],
        })

    assert problem(source) == problem(source)
    assert problem(source) != problem(source[:-1] + "2")


def test_equality_keeps_the_dataclass_semantics():
    assert Const(0.0) == Const(-0.0) and hash(Const(0.0)) == hash(Const(-0.0))
    assert Add(Var(0, "x"), Const(1.0)) != Add(Const(1.0), Var(0, "x"))
    assert Add(Var(0, "x"), Var(1, "y")) != Sub(Var(0, "x"), Var(1, "y"))
    assert Var(0, "x") != Var(0, "y") and Pow(Var(0, "x"), 2.0) != Pow(Var(0, "x"), 3.0)
    assert Const(1.0) != 1.0
    assert len({parse("x^2 + y", XY), parse("x^2 + y", XY), parse("x^2 - y", XY)}) == 2


@pytest.mark.parametrize("opener,closer", [("(", ")"), ("exp(", ")"), ("-", "")])
def test_deep_nesting_is_a_parse_error(opener, closer):
    source = opener * 1000 + "x" + closer * 1000
    with pytest.raises(ParseError, match="nesting deeper than") as err:
        parse(source, XY)
    # the first nesting past the limit is named
    assert err.value.position == MAX_NESTING * len(opener)
    within = parse(opener * MAX_NESTING + "x" + closer * MAX_NESTING, XY)
    assert parse(render(within), XY) == within


def test_long_exponent_chain_is_a_parse_error():
    with pytest.raises(ParseError, match="nesting deeper than") as err:
        parse("x" + " ^ 2" * 1000, XY)
    assert err.value.position == 2 + 4 * MAX_NESTING  # the 101st "^"


def test_batched_evaluation_holds_few_row_arrays():
    # a tape that kept every node's value alive would hold about one row
    # array per node; the value stack keeps a handful
    rng = np.random.default_rng(3)
    q = random_psd_quadratic(rng, 4, singular=False, b_in_range=True)
    e = q.to_expr()
    assert sum(1 for _ in _postorder(e)) >= 40
    N = 100_000
    X = rng.uniform(-1.0, 1.0, size=(N, 4))
    eval_value(e, X[:2])  # the tape is built outside the measurement
    tracemalloc.start()
    try:
        v = eval_value(e, X)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.allclose(v[:5], [q.value(x) for x in X[:5]], rtol=1e-12, atol=1e-12)
    assert peak <= 8 * N * 8, f"peak {peak / (N * 8):.1f} row arrays"


# ---------------------------------------------------------------------------
# like-term blocks and constraint sets in one call
# ---------------------------------------------------------------------------

NAMES7 = tuple(f"x{i}" for i in range(7))
BLOCK_ROWS = (1, 2, 63, 64, 65)  # both sides of the blocked tape's row limit


def test_ball_exp_runs_twelve_blocked_instructions():
    tapes = [_tape(con.expr) for con in make_ball_exp(7).constraints]
    assert sum(len(t.plain) for t in tapes) == 58
    assert sum(len(t.blocked) for t in tapes) == 12


def _blocks(code) -> list[list[tuple]]:
    """The ``(op, arg)`` of each block's instructions in a blocked tape: a
    block instruction names one node per term, and its fold closes it."""
    blocks, block = [], []
    for op, arg, node, _ in code:
        if isinstance(node, tuple):
            block.append((op, arg))
        elif block:
            blocks.append(block)
            block = []
    return blocks


def _sum7(term: str, op: str = "+") -> str:
    return f" {op} ".join(term.format(v) for v in NAMES7)


def test_runs_with_one_domain_check_per_term_stay_blocked():
    log_sum = _tape(parse("1 - " + _sum7("log({} + 1)", "-"), NAMES7))
    assert (len(log_sum.plain), len(log_sum.blocked)) == (36, 6)
    entropy = _tape(parse(_sum7("{0} * log({0})"), NAMES7))
    assert (len(entropy.plain), len(entropy.blocked)) == (34, 5)


@pytest.mark.parametrize("term", [
    "{} ^ -0.5",  # 0 ^ -0.5 divides by zero after its check passes
    "log(sqrt({}))",  # two checks: a later term may fail at the earlier one
])
def test_runs_a_block_could_misreport_stay_unblocked(term):
    tape = _tape(parse(_sum7(term), NAMES7))
    assert tape.blocked is tape.plain


def test_a_block_names_the_first_term_that_fails_on_any_row():
    e = parse("log(x + 1) + log(y + 1) + log(x + 0.5)", XY)
    assert (len(_tape(e).plain), len(_tape(e).blocked)) == (14, 5)
    # row (-0.7, 1) fails in the third term, row (1, -2) in the second
    for X in ([[-0.7, 1.0], [1.0, -2.0]], [[1.0, -2.0], [-0.7, 1.0]]):
        with pytest.raises(EvalDomainError, match="log of a non-positive") as err:
            eval_value(e, X)
        assert err.value.subexpression == "log(y + 1.0)"
        assert _outcome(eval_value, e, X) == _outcome(reference_eval_value, e, X)
        for x in X:
            assert _outcome(eval_value, e, x) == _outcome(reference_eval_value, e, x)


def _like_term(rng, kind, v):
    i, j = (NAMES7[k] for k in rng.integers(0, 7, size=2))
    a = round(float(rng.uniform(-1.5, 1.5)), 2)
    s = round(float(rng.uniform(-0.5, 2.0)), 2)
    return {
        "pow": f"{i} ^ {v}",
        "exp": f"exp({a} * {i})",
        "log": f"log({i} + {s})",
        "sqrt": f"sqrt({i})",
        "div": f"{i} / {j}",
        "mul": f"{i} * {j}",
        "nest": f"sqrt({i} ^ 2 + {j} ^ 2 + {s})",
        # a subtree without variables: numpy's scalar and array powers can
        # differ in the last bit, so it must stay scalar
        "scaled": f"{i} * {round(float(rng.uniform(0.5, 3.0)), 2)} ^ 1.5",
    }[kind]


def _like_term_sum(rng) -> str:
    """A sum of runs of like terms, runs broken by a term of another shape
    or by a change between ``+`` and ``-``."""
    kinds = ("pow", "exp", "log", "sqrt", "div", "mul", "nest", "scaled")
    source = ""
    for _ in range(int(rng.integers(1, 5))):
        kind = str(rng.choice(kinds))
        v = float(rng.choice([2.0, 3.0, 0.5, -1.0, 1.5]))
        op = str(rng.choice(["+", "-"]))
        for _ in range(int(rng.integers(1, 6))):
            term = _like_term(rng, kind, v)
            source = term if not source else f"{source} {op} {term}"
        if rng.random() < 0.3:
            source += f" - {round(float(rng.uniform(0, 3)), 2)}"
    return source


def test_like_term_sums_match_reference():
    rng = np.random.default_rng(17)
    outcomes = {"value": 0, "error": 0}
    for _ in range(150):
        e = parse(_like_term_sum(rng), NAMES7)
        for rows in BLOCK_ROWS:
            lo = float(rng.choice([-0.3, 0.05]))  # domain errors at some rows, or none
            X = rng.uniform(lo, 2.5, size=(rows, 7))
            got, expect = _outcome(eval_value, e, X), _outcome(reference_eval_value, e, X)
            assert got == expect, (render(e), rows)
            outcomes["error" if got[0] == "error" else "value"] += 1
        x = X[0]
        assert _outcome(eval_value, e, x) == _outcome(reference_eval_value, e, x), render(e)
        if _outcome(eval_value, e, x)[0] != "error":
            try:
                assert eval_grad(e, x).value.hex() == eval_value(e, x).hex(), render(e)
            except EvalDomainError:
                pass  # a derivative-only domain error
    assert min(outcomes.values()) >= 100  # both outcomes are exercised
    assert sum(len(_tape(e).blocked) < len(_tape(e).plain)
               for e in (parse(_like_term_sum(rng), NAMES7) for _ in range(50))) >= 25


def test_every_block_holds_at_most_one_check_and_no_negative_fractional_power():
    rng = np.random.default_rng(23)
    checked = 0
    for _ in range(100):
        source = _like_term_sum(rng)
        for src in (source, source.replace("^ 0.5", "^ -0.5").replace("^ 1.5", "^ -1.5")):
            e = parse(src, NAMES7)
            for block in _blocks(_tape(e).blocked):
                checks = [(op, arg) for op, arg in block if op in _CHECKED]
                assert len(checks) <= 1, src
                assert not any(op == _POW_FRAC and arg < 0 for op, arg in checks), src
                checked += len(checks)
            X = rng.uniform(float(rng.choice([-0.3, 0.05])), 2.5, size=(3, 7))
            assert _outcome(eval_value, e, X) == _outcome(reference_eval_value, e, X), src
    assert checked >= 50  # blocks with a check are exercised


def _looped(exprs, x):
    return np.array([eval_value(e, x) for e in exprs])


def test_sequence_is_the_stack_of_single_calls():
    rng = np.random.default_rng(19)
    for _ in range(60):
        exprs = [parse(_like_term_sum(rng), NAMES7) for _ in range(int(rng.integers(1, 4)))]
        for rows in BLOCK_ROWS:
            X = rng.uniform(float(rng.choice([-0.3, 0.05])), 2.5, size=(rows, 7))
            assert _outcome(eval_value, exprs, X) == _outcome(_looped, exprs, X)
            assert _outcome(eval_value, exprs, X[0]) == _outcome(_looped, exprs, X[0])
    exprs = [con.expr for con in make_ball_exp(7).constraints]
    X = rng.uniform(-1.0, 1.0, size=(5, 7))
    assert eval_value(exprs, X).shape == (2, 5)
    assert eval_value(exprs, X[0]).shape == (2,)


def test_sequence_raises_the_first_error_in_order():
    # expression 0 overflows, expression 1 leaves its domain: the loop stops
    # at expression 0
    exprs = [parse("exp(x) + exp(y) + exp(x)", XY), parse("log(x) + log(y) + log(-y)", XY)]
    for x in ((1000.0, 1.0), np.array([[0.0, 1.0], [1000.0, 1.0]])):
        with pytest.raises(EvalDomainError, match="non-finite") as err:
            eval_value(exprs, x)
        assert err.value.subexpression == render(exprs[0])
        assert _outcome(eval_value, exprs, x) == _outcome(_looped, exprs, x)
    with pytest.raises(EvalDomainError, match="log of a non-positive") as err:
        eval_value(exprs[::-1], (1000.0, 1.0))
    assert err.value.subexpression == "log(-y)"


def test_finite_values_whose_sum_overflows_raise_no_warning():
    e = parse("x", ("x",))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert eval_value(e, [[1e308], [1e308]]).tolist() == [1e308, 1e308]
        assert eval_value([e, e], [[1e308], [1e308]]).tolist() == [[1e308, 1e308]] * 2
        assert eval_value([e, e], [1e308]).tolist() == [1e308, 1e308]


@pytest.mark.parametrize("source", [
    "x ^ -0.5 + y ^ -0.5 + (x + y) ^ -0.5",  # overflows to inf
    "exp(-(x ^ -0.5)) + exp(-(y ^ -0.5)) + exp(-(x ^ -0.5))",  # finite all the same
    "x ^ -0.5 + y ^ -0.5 + x ^ -0.5",  # like terms, left unblocked
])
def test_division_by_zero_warns_as_the_reference_does(source):
    e = parse(source, XY)
    X = np.array([[0.0, 1.0], [1.0, 1.0]])
    for x in (X, X[0]):
        with pytest.warns(RuntimeWarning, match="divide by zero"):
            got = _outcome(eval_value, e, x)
        with pytest.warns(RuntimeWarning, match="divide by zero"):
            assert got == _outcome(reference_eval_value, e, x)
        with np.errstate(divide="ignore"):
            assert _outcome(eval_value, e, x) == _outcome(reference_eval_value, e, x)


@pytest.mark.parametrize("call", [
    lambda e, x: eval_value(e, x),
    lambda e, x: eval_value([e], np.atleast_2d(x)),
    lambda e, x: eval_grad(e, x),
    lambda e, x: gauge_values([Constraint("c", e)], x, [np.ones(len(x))]),
])
def test_a_point_too_short_is_a_value_error(call):
    e = parse("x^2 + y^2 - 1", XY)
    with pytest.raises(ValueError, match="variable index 1, but the point has length 1"):
        call(e, [0.5])
    call(e, [0.5, 0.0, 7.0])  # a longer point is valid
