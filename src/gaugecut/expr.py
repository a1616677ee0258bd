"""Differentiable scalar expressions: parsing, rendering, evaluation, exact gradients.

An expression is an immutable tree over constants, variables (by index),
``+ - * / ^`` arithmetic, unary negation, and the functions ``exp``, ``log``,
``sqrt``.  Exponents of ``^`` must be numeric literals.  Gradients are exact:
every node propagates a value together with its derivative vector
(forward-mode dual semantics), so no finite-difference noise enters cut
coefficients.

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


def _pow_value(a: np.ndarray, node: Pow) -> np.ndarray:
    p = node.exponent
    if _is_integral(p):
        if p < 0:
            _domain_check(a != 0.0, "zero raised to a negative power", node)
        return a ** p
    _domain_check(a >= 0.0, "negative base with a fractional exponent", node)
    return a ** p


def _value(e: Expr, X: np.ndarray) -> np.ndarray:
    """Values at the rows of ``X``: an ``(N,)`` array, or a 0-d scalar where
    ``e`` holds no variable."""
    if isinstance(e, Const):
        return np.float64(e.value)  # broadcasts against the (N,) columns
    if isinstance(e, Var):
        return X[:, e.index]
    if isinstance(e, Neg):
        return -_value(e.operand, X)
    if isinstance(e, Add):
        return _value(e.left, X) + _value(e.right, X)
    if isinstance(e, Sub):
        return _value(e.left, X) - _value(e.right, X)
    if isinstance(e, Mul):
        return _value(e.left, X) * _value(e.right, X)
    if isinstance(e, Div):
        num = _value(e.left, X)
        den = _value(e.right, X)
        _domain_check(den != 0.0, "division by zero", e)
        return num / den
    if isinstance(e, Pow):
        return _pow_value(_value(e.base, X), e)
    if isinstance(e, Func):
        a = _value(e.arg, X)
        if e.name == "exp":
            return np.exp(a)
        if e.name == "log":
            _domain_check(a > 0.0, "log of a non-positive value", e)
            return np.log(a)
        _domain_check(a >= 0.0, "sqrt of a negative value", e)
        return np.sqrt(a)
    raise TypeError(f"not an expression node: {e!r}")


def _value_grad(e: Expr, X: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    N, n = X.shape
    if isinstance(e, Const):
        return np.full(N, e.value), np.zeros((N, n))
    if isinstance(e, Var):
        g = np.zeros((N, n))
        g[:, e.index] = 1.0
        return X[:, e.index].copy(), g
    if isinstance(e, Neg):
        v, g = _value_grad(e.operand, X)
        return -v, -g
    if isinstance(e, Add):
        va, ga = _value_grad(e.left, X)
        vb, gb = _value_grad(e.right, X)
        return va + vb, ga + gb
    if isinstance(e, Sub):
        va, ga = _value_grad(e.left, X)
        vb, gb = _value_grad(e.right, X)
        return va - vb, ga - gb
    if isinstance(e, Mul):
        va, ga = _value_grad(e.left, X)
        vb, gb = _value_grad(e.right, X)
        return va * vb, va[:, None] * gb + vb[:, None] * ga
    if isinstance(e, Div):
        va, ga = _value_grad(e.left, X)
        vb, gb = _value_grad(e.right, X)
        _domain_check(vb != 0.0, "division by zero", e)
        return va / vb, (ga * vb[:, None] - va[:, None] * gb) / (vb * vb)[:, None]
    if isinstance(e, Pow):
        va, ga = _value_grad(e.base, X)
        p = e.exponent
        value = _pow_value(va, e)
        if p == 0.0:
            return value, np.zeros((N, n))
        if _is_integral(p) and p - 1 < 0:
            _domain_check(va != 0.0, "zero raised to a negative power in a derivative", e)
        if not _is_integral(p):
            # fractional exponents need a strictly positive base for a finite slope
            _domain_check(va > 0.0, "fractional power of zero in a derivative", e)
        dfactor = p * va ** (p - 1.0)
        return value, dfactor[:, None] * ga
    if isinstance(e, Func):
        va, ga = _value_grad(e.arg, X)
        if e.name == "exp":
            value = np.exp(va)
            return value, value[:, None] * ga
        if e.name == "log":
            _domain_check(va > 0.0, "log of a non-positive value", e)
            return np.log(va), ga / va[:, None]
        _domain_check(va > 0.0, "sqrt of a non-positive value in a derivative", e)
        value = np.sqrt(va)
        return value, (0.5 / value)[:, None] * ga
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
    """Value and exact gradient at a single point.

    Deterministic: identical inputs give bit-identical outputs.
    """
    x_arr = np.asarray(x, dtype=float)
    if x_arr.ndim != 1:
        raise ValueError(f"expected a single point, got shape {x_arr.shape}")
    with np.errstate(over="ignore", invalid="ignore"):
        v, g = _value_grad(e, x_arr[None, :])
    if not (np.isfinite(v[0]) and np.all(np.isfinite(g[0]))):
        raise EvalDomainError("evaluation overflowed to a non-finite value", render(e))
    return EvalResult(value=float(v[0]), gradient=g[0])
