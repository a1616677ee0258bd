import math

import numpy as np
import pytest

from gaugecut import EvalDomainError, ParseError, eval_grad, eval_value, parse, render
from gaugecut.expr import Add, Const, Div, Func, Mul, Neg, Pow, Sub, Var

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
