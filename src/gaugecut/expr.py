"""Differentiable scalar expressions: parsing, rendering, evaluation, exact gradients.

An expression is an immutable tree over constants, variables (by index),
``+ - * / ^`` arithmetic, unary negation, and the functions ``exp``, ``log``,
``sqrt``.  Exponents of ``^`` must be numeric literals.  Gradients are exact,
by reverse-mode differentiation: a forward sweep computes and records the
value of every node, and a reverse sweep carries the derivative of the root
with respect to each node from the root down to the variables, applying only
derivative rules to the recorded values.  No finite-difference noise enters
cut coefficients, and a gradient's value is the one plain evaluation gives.

Evaluation is vectorised: a single point gives scalars, an ``(N, n)`` array of
points gives length-``N`` arrays.  Domain violations (log of a non-positive
value, sqrt of a negative value, division by zero) raise
:class:`~gaugecut.errors.EvalDomainError` rather than propagating NaNs, so
line-search code can treat "outside the domain" explicitly.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from typing import Iterator, Sequence

import numpy as np

from .errors import EvalDomainError, ParseError

__all__ = [
    "Expr",
    "Const",
    "Var",
    "Neg",
    "Add",
    "Sub",
    "Mul",
    "Div",
    "Pow",
    "Func",
    "EvalResult",
    "parse",
    "render",
    "eval_grad",
    "eval_value",
    "max_var_index",
]

FUNCTION_NAMES = ("exp", "log", "sqrt")

# Gradients below this max-norm count as vanishing: normalising such a cut
# would blow beta up past float range.
ZERO_GRADIENT_TOL = 1e-12


class Expr:
    """Base class of all expression nodes.  Immutable; safe to share."""

    __slots__ = ()

    def __str__(self) -> str:
        return render(self)


@dataclass(frozen=True)
class Const(Expr):
    value: float


@dataclass(frozen=True)
class Var(Expr):
    index: int
    name: str


@dataclass(frozen=True)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True)
class Pow(Expr):
    base: Expr
    exponent: float


@dataclass(frozen=True)
class Func(Expr):
    name: str  # one of FUNCTION_NAMES
    arg: Expr


@dataclass(frozen=True)
class EvalResult:
    """Value and exact gradient of an expression at one point."""

    value: float
    gradient: np.ndarray


# ---------------------------------------------------------------------------
# Tokenizer / parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<num>(\d+(\.\d*)?|\.\d+)([eE][+-]?\d+)?)
  | (?P<ident>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^(),])
  | (?P<ws>\s+)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class _Token:
    kind: str  # "num" | "ident" | "op" | "end"
    text: str
    pos: int


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", pos)
        if m.lastgroup != "ws":
            tokens.append(_Token(m.lastgroup, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", len(source)))
    return tokens


class _Parser:
    """Recursive descent with the precedence ladder
    ``^``  >  unary minus  >  ``* /``  >  ``+ -`` (``^`` right-associative,
    its exponent restricted to numeric literals)."""

    def __init__(self, source: str, var_indices: dict[str, int]):
        self.tokens = _tokenize(source)
        self.i = 0
        self.var_indices = var_indices

    def peek(self) -> _Token:
        return self.tokens[self.i]

    def advance(self) -> _Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, text: str) -> None:
        tok = self.peek()
        if tok.kind != "op" or tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text or 'end of input'!r}", tok.pos)
        self.advance()

    def parse(self) -> Expr:
        e = self.parse_sum()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.pos)
        return e

    def parse_sum(self) -> Expr:
        e = self.parse_term()
        while self.peek().kind == "op" and self.peek().text in "+-":
            op = self.advance().text
            rhs = self.parse_term()
            e = Add(e, rhs) if op == "+" else Sub(e, rhs)
        return e

    def parse_term(self) -> Expr:
        e = self.parse_unary()
        while self.peek().kind == "op" and self.peek().text in "*/":
            op = self.advance().text
            rhs = self.parse_unary()
            e = Mul(e, rhs) if op == "*" else Div(e, rhs)
        return e

    def parse_unary(self) -> Expr:
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            self.advance()
            operand = self.parse_unary()
            if isinstance(operand, Const):
                return Const(-operand.value)
            return Neg(operand)
        return self.parse_power()

    def parse_power(self) -> Expr:
        base = self.parse_atom()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "^":
            self.advance()
            exp_tok = self.peek()
            exponent = self.parse_unary()
            if not isinstance(exponent, Const):
                raise ParseError(
                    "exponent must be a numeric literal (variable exponents are unsupported)",
                    exp_tok.pos,
                )
            return Pow(base, exponent.value)
        return base

    def parse_atom(self) -> Expr:
        tok = self.advance()
        if tok.kind == "num":
            return Const(float(tok.text))
        if tok.kind == "ident":
            if self.peek().kind == "op" and self.peek().text == "(":
                return self.parse_call(tok)
            if tok.text in FUNCTION_NAMES:
                raise ParseError(f"function {tok.text!r} requires an argument list", tok.pos)
            index = self.var_indices.get(tok.text)
            if index is None:
                raise ParseError(f"unknown identifier {tok.text!r}", tok.pos)
            return Var(index, tok.text)
        if tok.kind == "op" and tok.text == "(":
            e = self.parse_sum()
            self.expect_op(")")
            return e
        raise ParseError(f"unexpected token {tok.text or 'end of input'!r}", tok.pos)

    def parse_call(self, name_tok: _Token) -> Expr:
        if name_tok.text not in FUNCTION_NAMES:
            raise ParseError(f"unknown function {name_tok.text!r}", name_tok.pos)
        self.expect_op("(")
        arg = self.parse_sum()
        if self.peek().kind == "op" and self.peek().text == ",":
            raise ParseError(
                f"function {name_tok.text!r} takes exactly one argument", self.peek().pos
            )
        self.expect_op(")")
        return Func(name_tok.text, arg)


def parse(source: str, variables: Sequence[str]) -> Expr:
    """Parse ``source`` over the declared variable names.

    Raises :class:`ParseError` with a position on syntax errors, unknown
    identifiers, wrong arity, and non-literal exponents.
    """
    var_indices = {name: i for i, name in enumerate(variables)}
    return _Parser(source, var_indices).parse()


# ---------------------------------------------------------------------------
# Rendering
# ---------------------------------------------------------------------------

# Precedence levels used to decide parenthesisation on re-render.
_LVL_ADD, _LVL_MUL, _LVL_UNARY, _LVL_POW, _LVL_ATOM = 1, 2, 3, 4, 5


def _fmt(v: float) -> str:
    return repr(float(v))


def _render(e: Expr) -> tuple[str, int]:
    if isinstance(e, Const):
        return _fmt(e.value), (_LVL_ATOM if e.value >= 0 else _LVL_UNARY)
    if isinstance(e, Var):
        return e.name, _LVL_ATOM
    if isinstance(e, Func):
        text, _ = _render(e.arg)
        return f"{e.name}({text})", _LVL_ATOM
    if isinstance(e, Neg):
        text, lvl = _render(e.operand)
        if lvl < _LVL_UNARY:
            text = f"({text})"
        return f"-{text}", _LVL_UNARY
    if isinstance(e, Pow):
        base, lvl = _render(e.base)
        if lvl < _LVL_ATOM:
            base = f"({base})"
        return f"{base} ^ {_fmt(e.exponent)}", _LVL_POW
    if isinstance(e, (Add, Sub)):
        op = "+" if isinstance(e, Add) else "-"
        left, _ = _render(e.left)
        right, rlvl = _render(e.right)
        if rlvl <= _LVL_ADD:
            right = f"({right})"
        return f"{left} {op} {right}", _LVL_ADD
    if isinstance(e, (Mul, Div)):
        op = "*" if isinstance(e, Mul) else "/"
        left, llvl = _render(e.left)
        right, rlvl = _render(e.right)
        if llvl < _LVL_MUL:
            left = f"({left})"
        if rlvl <= _LVL_MUL:
            right = f"({right})"
        return f"{left} {op} {right}", _LVL_MUL
    raise TypeError(f"not an expression node: {e!r}")


def render(e: Expr) -> str:
    """Format ``e`` so that re-parsing yields a structurally identical tree."""
    return _render(e)[0]


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------


def _nodes(e: Expr) -> Iterator[Expr]:
    stack = [e]
    while stack:
        node = stack.pop()
        yield node
        if isinstance(node, Neg):
            stack.append(node.operand)
        elif isinstance(node, (Add, Sub, Mul, Div)):
            stack.append(node.left)
            stack.append(node.right)
        elif isinstance(node, Pow):
            stack.append(node.base)
        elif isinstance(node, Func):
            stack.append(node.arg)


def max_var_index(e: Expr) -> int:
    """Largest variable index referenced, or -1 for constant expressions."""
    return max((n.index for n in _nodes(e) if isinstance(n, Var)), default=-1)


def _domain_check(ok: np.ndarray, message: str, node: Expr) -> None:
    if not np.all(ok):
        raise EvalDomainError(message, render(node))


def _is_integral(p: float) -> bool:
    return p == round(p) and abs(p) < 2**31


def _value(e: Expr, X: np.ndarray, vals: dict | None = None) -> np.ndarray:
    """Values at the rows of ``X``: an ``(N,)`` array, or a 0-d scalar where
    ``e`` holds no variable.  The forward sweep: given ``vals``, it also
    records each node's value there under ``id(node)``."""
    if isinstance(e, Const):
        v = np.float64(e.value)  # broadcasts against the (N,) columns
    elif isinstance(e, Var):
        v = X[:, e.index]
    elif isinstance(e, Neg):
        v = -_value(e.operand, X, vals)
    elif isinstance(e, Add):
        v = _value(e.left, X, vals) + _value(e.right, X, vals)
    elif isinstance(e, Sub):
        v = _value(e.left, X, vals) - _value(e.right, X, vals)
    elif isinstance(e, Mul):
        v = _value(e.left, X, vals) * _value(e.right, X, vals)
    elif isinstance(e, Div):
        num = _value(e.left, X, vals)
        den = _value(e.right, X, vals)
        _domain_check(den != 0.0, "division by zero", e)
        v = num / den
    elif isinstance(e, Pow):
        a = _value(e.base, X, vals)
        if not _is_integral(e.exponent):
            _domain_check(a >= 0.0, "negative base with a fractional exponent", e)
        elif e.exponent < 0:
            _domain_check(a != 0.0, "zero raised to a negative power", e)
        v = a ** e.exponent
    elif isinstance(e, Func):
        a = _value(e.arg, X, vals)
        if e.name == "exp":
            v = np.exp(a)
        elif e.name == "log":
            _domain_check(a > 0.0, "log of a non-positive value", e)
            v = np.log(a)
        else:
            _domain_check(a >= 0.0, "sqrt of a negative value", e)
            v = np.sqrt(a)
    else:
        raise TypeError(f"not an expression node: {e!r}")
    if vals is not None:
        vals[id(e)] = v
    return v


def _grad(e: Expr, vals: dict, bar, G: np.ndarray) -> None:
    """The reverse sweep: add ``bar * d e/dx`` into the rows of ``G``, reading
    node values from the ``vals`` of :func:`_value`.  That sweep has checked
    every value domain; only the derivative's own are checked here."""
    if isinstance(e, Var):
        G[:, e.index] += bar
    elif isinstance(e, Neg):
        _grad(e.operand, vals, -bar, G)
    elif isinstance(e, (Add, Sub)):
        _grad(e.left, vals, bar, G)
        _grad(e.right, vals, bar if isinstance(e, Add) else -bar, G)
    elif isinstance(e, Mul):
        _grad(e.left, vals, bar * vals[id(e.right)], G)
        _grad(e.right, vals, bar * vals[id(e.left)], G)
    elif isinstance(e, Div):
        bar_num = bar / vals[id(e.right)]
        _grad(e.left, vals, bar_num, G)
        _grad(e.right, vals, -bar_num * vals[id(e)], G)
    elif isinstance(e, Pow):
        p, a = e.exponent, vals[id(e.base)]
        if p == 0.0:
            return
        if not _is_integral(p):
            # fractional exponents need a strictly positive base for a finite slope
            _domain_check(a > 0.0, "fractional power of zero in a derivative", e)
        _grad(e.base, vals, bar * (p * a ** (p - 1.0)), G)
    elif isinstance(e, Func):
        a = vals[id(e.arg)]
        if e.name == "exp":
            _grad(e.arg, vals, bar * vals[id(e)], G)
        elif e.name == "log":
            _grad(e.arg, vals, bar / a, G)
        else:
            _domain_check(a > 0.0, "sqrt of a non-positive value in a derivative", e)
            _grad(e.arg, vals, bar * (0.5 / vals[id(e)]), G)
    elif not isinstance(e, Const):
        raise TypeError(f"not an expression node: {e!r}")


def _as_points(x) -> np.ndarray:
    X = np.asarray(x, dtype=float)
    if X.ndim == 1:
        return X[None, :]
    if X.ndim == 2:
        return X
    raise ValueError(f"expected a point or an (N, n) array of points, got shape {X.shape}")


def eval_value(e: Expr, x) -> float | np.ndarray:
    """Evaluate ``e`` at a point (returns float) or an ``(N, n)`` batch
    (returns an ``(N,)`` array)."""
    x_arr = np.asarray(x, dtype=float)
    single = x_arr.ndim == 1
    X = _as_points(x_arr)
    with np.errstate(over="ignore", invalid="ignore"):
        v = _value(e, X)
    if v.ndim == 0:  # a constant expression
        v = np.full(X.shape[0], v)
    if not np.all(np.isfinite(v)):
        raise EvalDomainError("evaluation overflowed to a non-finite value", render(e))
    return float(v[0]) if single else v


def eval_grad(e: Expr, x) -> EvalResult:
    """Value and exact gradient at a single point: the forward sweep
    :func:`_value` records every node's value, the reverse sweep :func:`_grad`
    carries ``d e/d node`` from the root down to the variables.  The value is
    the one :func:`eval_value` gives.

    Deterministic: identical inputs give bit-identical outputs.
    """
    x_arr = np.asarray(x, dtype=float)
    if x_arr.ndim != 1:
        raise ValueError(f"expected a single point, got shape {x_arr.shape}")
    vals: dict = {}
    g = np.zeros((1, x_arr.size))
    with np.errstate(over="ignore", invalid="ignore"):
        v = float(np.ravel(_value(e, x_arr[None, :], vals))[0])
        _grad(e, vals, 1.0, g)
    if not (np.isfinite(v) and np.all(np.isfinite(g[0]))):
        raise EvalDomainError("evaluation overflowed to a non-finite value", render(e))
    return EvalResult(value=v, gradient=g[0])
