"""Differentiable scalar expressions: parsing, rendering, evaluation, exact gradients.

An expression is an immutable tree over constants, variables (by index),
``+ - * / ^`` arithmetic, unary negation, and the functions ``exp``, ``log``,
``sqrt``.  Exponents of ``^`` must be numeric literals.

Evaluation runs on a tape, a flat post-order list of instructions, one per
node of the tree.  An explicit stack builds it on the first evaluation of an
expression, and it is cached on the root node; each ``^`` is classified by
its exponent then, once.  The forward sweep runs the tape on a value stack:
an operand is dropped as soon as its parent has used it, so a batch holds
only a few arrays at a time, however large the tree.  Nothing recurses, so
parsing (within ``MAX_NESTING``), rendering and evaluation handle sums of
any length.

Small batches run a second, blocked tape, built on first use and cached with
the first.  Consecutive like terms of a sum, ``x0^2 + ... + x6^2`` or
``exp(0.5*x0) + ... + exp(0.5*x6)``, differ only in variable indices and
constants, so a run of three or more of them is evaluated once on an
``(N, k)`` block of gathered columns and folded into the sum left to right,
with the same additions in the same order.  The ball+exp constraints at
n = 7 take 12 instructions instead of 58, and every value is the plain
tape's, bit for bit.  A run is blocked only if each term holds at most one
domain check (``/``, ``log``, ``sqrt``, a negative or fractional power) and
that check is no negative fractional power, so a block fails exactly where
one term at a time would, and emits no warning it would not.  Batches of
more than 64 rows (``_BLOCKED_ROWS``) keep the plain tape: there the
gathered copies cost more than the per-term numpy calls they save.  One
:func:`eval_value` call evaluates a whole sequence of expressions, such as a
constraint set, in one sweep, checking each as soon as it is computed, so
the error raised names the first failing expression and node, as one call
per expression would.

Gradients are exact, by reverse-mode differentiation: the forward sweep also
records the value of every node, and a reverse sweep carries the derivative
of the root with respect to each node from the root down to the variables,
applying only derivative rules to the recorded values.  It visits the nodes
in pre-order (node, left, right), as a recursive descent would, so the
contributions to each partial derivative add up in a fixed order and the
first derivative domain error is the leftmost.  No finite-difference noise
enters cut coefficients, and a gradient's value is the one plain evaluation
gives.

Evaluation is vectorised: a single point gives scalars, an ``(N, n)`` array of
points gives length-``N`` arrays.  Domain violations (log of a non-positive
value, sqrt of a negative value, division by zero) raise
:class:`~gaugecut.errors.EvalDomainError` rather than propagating NaNs, so
line-search code can treat "outside the domain" explicitly.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, fields
from itertools import zip_longest
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

# Parentheses, function calls, unary minus and exponents nest at most this
# deep in a parsed source; the parser descends one level of Python calls per
# nesting.
MAX_NESTING = 100


class Expr:
    """Base class of all expression nodes.  Immutable; safe to share.

    Two expressions are equal when their trees are: the same node types in
    the same places, with equal constants, names, indices and exponents
    (so ``Const(0.0) == Const(-0.0)``).  Equality and hashing walk the tree
    with an explicit stack, so they handle sums of any length."""

    __slots__ = ()
    _tape = None  # the evaluation tape, cached on the first evaluation

    def __str__(self) -> str:
        return render(self)

    def __eq__(self, other) -> bool:
        if not isinstance(other, Expr):
            return NotImplemented
        # post-order with each type's arity fixed determines the tree
        pairs = zip_longest(map(_node_key, _postorder(self)), map(_node_key, _postorder(other)))
        return self is other or all(a == b for a, b in pairs)

    def __hash__(self) -> int:
        return hash(tuple(map(_node_key, _postorder(self))))


@dataclass(frozen=True, eq=False)
class Const(Expr):
    value: float


@dataclass(frozen=True, eq=False)
class Var(Expr):
    index: int
    name: str


@dataclass(frozen=True, eq=False)
class Neg(Expr):
    operand: Expr


@dataclass(frozen=True, eq=False)
class Add(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False)
class Sub(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False)
class Mul(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False)
class Div(Expr):
    left: Expr
    right: Expr


@dataclass(frozen=True, eq=False)
class Pow(Expr):
    base: Expr
    exponent: float


@dataclass(frozen=True, eq=False)
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
    its exponent restricted to numeric literals).  Sums and products are
    loops; only nesting recurses, up to ``MAX_NESTING`` levels."""

    def __init__(self, source: str, var_indices: dict[str, int]):
        self.tokens = _tokenize(source)
        self.i = 0
        self.var_indices = var_indices
        self.depth = 0

    def nest(self, tok: _Token) -> None:
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(f"nesting deeper than {MAX_NESTING} levels", tok.pos)

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
            self.nest(tok)
            operand = self.parse_unary()
            self.depth -= 1
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
            self.nest(tok)
            exponent = self.parse_unary()
            self.depth -= 1
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
            self.nest(tok)
            e = self.parse_sum()
            self.expect_op(")")
            self.depth -= 1
            return e
        raise ParseError(f"unexpected token {tok.text or 'end of input'!r}", tok.pos)

    def parse_call(self, name_tok: _Token) -> Expr:
        if name_tok.text not in FUNCTION_NAMES:
            raise ParseError(f"unknown function {name_tok.text!r}", name_tok.pos)
        self.nest(name_tok)
        self.expect_op("(")
        arg = self.parse_sum()
        if self.peek().kind == "op" and self.peek().text == ",":
            raise ParseError(
                f"function {name_tok.text!r} takes exactly one argument", self.peek().pos
            )
        self.expect_op(")")
        self.depth -= 1
        return Func(name_tok.text, arg)


def parse(source: str, variables: Sequence[str]) -> Expr:
    """Parse ``source`` over the declared variable names.

    Raises :class:`ParseError` with a position on syntax errors, unknown
    identifiers, wrong arity, non-literal exponents, and nesting deeper than
    ``MAX_NESTING``.
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


def render(e: Expr) -> str:
    """Format ``e`` so that re-parsing yields a structurally identical tree."""
    done: list[tuple[str, int]] = []  # (text, precedence level) of rendered subtrees
    for node in _postorder(e):
        if isinstance(node, Const):
            done.append((_fmt(node.value), _LVL_ATOM if node.value >= 0 else _LVL_UNARY))
        elif isinstance(node, Var):
            done.append((node.name, _LVL_ATOM))
        elif isinstance(node, Func):
            done.append((f"{node.name}({done.pop()[0]})", _LVL_ATOM))
        elif isinstance(node, Neg):
            text, lvl = done.pop()
            done.append((f"-({text})" if lvl < _LVL_UNARY else f"-{text}", _LVL_UNARY))
        elif isinstance(node, Pow):
            base, lvl = done.pop()
            if lvl < _LVL_ATOM:
                base = f"({base})"
            done.append((f"{base} ^ {_fmt(node.exponent)}", _LVL_POW))
        else:
            (right, rlvl), (left, llvl) = done.pop(), done.pop()
            if isinstance(node, (Add, Sub)):
                op, lvl = ("+" if isinstance(node, Add) else "-"), _LVL_ADD
            else:
                op, lvl = ("*" if isinstance(node, Mul) else "/"), _LVL_MUL
                if llvl < _LVL_MUL:
                    left = f"({left})"
            if rlvl <= lvl:
                right = f"({right})"
            done.append((f"{left} {op} {right}", lvl))
    return done[0][0]


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

# Tape opcodes.  The three powers split by exponent when the tape is built:
# _POW for integral exponents >= 0, _POW_NEG for integral negative ones (the
# base must not be 0), _POW_FRAC for the rest (the base must not be negative).
# _FOLD appears only in blocked tapes.
(_VAR, _CONST, _ADD, _SUB, _MUL, _DIV, _NEG, _POW, _POW_NEG, _POW_FRAC, _EXP, _LOG,
 _SQRT, _FOLD) = range(14)
_CHECKED = (_DIV, _POW_NEG, _POW_FRAC, _LOG, _SQRT)  # the ops with a value domain check
_FUNC_OPS = {"exp": _EXP, "log": _LOG, "sqrt": _SQRT}
_BINARY_OPS = {Add: _ADD, Sub: _SUB, Mul: _MUL, Div: _DIV}

# Batches of at most this many rows run the blocked tape.  Every line-search
# round (63 points) and every single point is below it.  On larger batches,
# such as verify grids and bisection blocks of up to 8,192 rows, a block's
# gather copies and (N, k) temporaries cost more than the per-term numpy calls
# they save.
_BLOCKED_ROWS = 64
# Runs of fewer like terms stay unblocked: for two terms, the gather and
# the fold cost as much as the per-term calls they save.
_MIN_RUN = 3


def _children(e: Expr) -> tuple[Expr, ...]:
    if isinstance(e, (Add, Sub, Mul, Div)):
        return (e.left, e.right)
    if isinstance(e, Neg):
        return (e.operand,)
    if isinstance(e, Pow):
        return (e.base,)
    if isinstance(e, Func):
        return (e.arg,)
    if isinstance(e, (Const, Var)):
        return ()
    raise TypeError(f"not an expression node: {e!r}")


def _postorder(e: Expr) -> Iterator[Expr]:
    """The nodes of ``e`` children first, left to right, by an explicit
    stack: a shared subtree is visited once per place it occurs."""
    stack: list = [(e, False)]
    while stack:
        node, expanded = stack.pop()
        if expanded:
            yield node
        else:
            stack.append((node, True))
            stack.extend((c, False) for c in reversed(_children(node)))


def _node_key(node: Expr) -> tuple:
    """A node's type and its fields other than its operands."""
    return (type(node),) + tuple(
        v for f in fields(node) if not isinstance(v := getattr(node, f.name), Expr)
    )


def max_var_index(e: Expr) -> int:
    """Largest variable index referenced, or -1 for constant expressions."""
    return max((n.index for n in _postorder(e) if isinstance(n, Var)), default=-1)


class _Tape:
    """The instruction lists of one expression.  ``plain`` has one
    instruction ``(op, arg, node, kids)`` per node of the tree, in
    post-order: ``arg`` is the variable index, the constant or the exponent;
    ``node`` is the node the instruction computes, named in domain errors;
    ``kids`` are the positions of its operands' instructions.  ``blocked``,
    built on first use, runs each run of like terms of a sum once (see
    :func:`_blocked`).  ``width`` is one more than the largest variable index,
    the shortest point the expression can be evaluated at."""

    __slots__ = ("plain", "width", "_blocked")

    def __init__(self, plain: list[tuple]):
        self.plain = plain
        self.width = 1 + max((arg for op, arg, _, _ in plain if op == _VAR), default=-1)
        self._blocked = None

    @property
    def blocked(self) -> list[tuple]:
        if self._blocked is None:
            self._blocked = _blocked(self.plain)
        return self._blocked


def _tape(e: Expr) -> _Tape:
    """The tape of ``e``, built on first use and cached on the node."""
    if e._tape is not None:
        return e._tape
    code: list[tuple] = []
    done: list[int] = []  # positions of the subtrees emitted and not yet consumed
    for node in _postorder(e):
        arity = len(_children(node))
        kids = tuple(done[len(done) - arity:])
        del done[len(done) - arity:]
        if isinstance(node, Var):
            op, arg = _VAR, node.index
        elif isinstance(node, Const):
            op, arg = _CONST, np.float64(node.value)  # broadcasts against (N,) columns
        elif isinstance(node, Neg):
            op, arg = _NEG, None
        elif isinstance(node, Pow):
            p = node.exponent
            if not (float(p).is_integer() and abs(p) < 2**31):
                op = _POW_FRAC
            else:
                op = _POW_NEG if p < 0 else _POW
            arg = p
        elif isinstance(node, Func):
            op, arg = _FUNC_OPS[node.name], None
        else:
            op, arg = _BINARY_OPS[type(node)], None
        done.append(len(code))
        code.append((op, arg, node, kids))
    tape = _Tape(code)
    object.__setattr__(e, "_tape", tape)  # the nodes are frozen; the tape is no field
    return tape


def _blocked(code: list[tuple]) -> list[tuple]:
    """``code`` with the like terms of its sums run as blocks.

    Each left-leaning chain of ``+`` and ``-``, at any depth, is a list of
    terms.  Consecutive terms joined by the same operator (the chain's first
    term joins the operator after it) are alike when their instructions
    agree in everything but variable indices and the constants whose parent
    holds a variable; a subtree without variables is compared by value, so
    it still runs on scalars, as numpy's scalar and array powers can differ
    in the last bit.  Each run of ``_MIN_RUN`` or more like terms with a
    variable is emitted once: its ``_VAR`` instructions gather the terms'
    columns, its ``_CONST`` instructions carry the terms' constants as a
    vector where they differ, every other instruction runs on the ``(N, k)``
    block, and a ``_FOLD`` adds (or subtracts) the block's columns into the
    running sum left to right, the chain's own operations in its own order.
    So every value is the plain tape's, bit for bit.

    A run is blocked only if each term holds at most one domain-checked
    instruction (``_CHECKED``), none a fractional power with a negative
    exponent: after that check passes, ``0 ^ -0.5`` still divides by zero.
    Block instructions carry their terms' nodes, and :func:`_domain_check`
    names the first term that fails: between terms only ``+``, ``-`` and
    the fold run, so one term at a time fails there first.  Only the forward
    sweep runs a blocked tape, so its ``kids`` are left empty; without such
    runs it is ``code`` itself."""
    n = len(code)
    first = list(range(n))  # the first position of each instruction's subtree
    has_var = [op == _VAR for op, _, _, _ in code]
    parent = [-1] * n
    for p, (_, _, _, kids) in enumerate(code):
        if kids:
            first[p] = first[kids[0]]
            has_var[p] = any(has_var[k] for k in kids)
            for k in kids:
                parent[k] = p

    def shape(t: int) -> tuple:
        keys = []
        for i in range(first[t], t + 1):
            op, arg = code[i][0], code[i][1]
            if op == _VAR or (op == _CONST and has_var[parent[i]]):
                keys.append(op)
            else:
                keys.append((op, arg.hex() if op == _CONST else arg))  # -0.0 is not 0.0
        return tuple(keys)

    def one_check(t: int) -> bool:
        checks = [(op, arg) for op, arg, _, _ in code[first[t]:t + 1] if op in _CHECKED]
        return len(checks) < 2 and not any(op == _POW_FRAC and arg < 0 for op, arg in checks)

    def block(terms: list[int], sub: bool, head: bool) -> list[tuple]:
        out = []
        for off in range(terms[0] - first[terms[0]] + 1):
            op, arg, _, _ = code[first[terms[0]] + off]
            if op in (_VAR, _CONST):
                args = [code[first[t] + off][1] for t in terms]
                if op == _VAR or len({a.hex() for a in args}) > 1:
                    arg = np.array(args)
            out.append((op, arg, tuple(code[first[t] + off][2] for t in terms), ()))
        out.append((_FOLD, (np.subtract if sub else np.add, head), None, ()))
        return out

    runs: dict[int, tuple] = {}  # first position -> (last position, terms, sub, head)
    for top, (op, _, _, _) in enumerate(code):
        up = parent[top]
        if op not in (_ADD, _SUB) or (up >= 0 and code[up][0] in (_ADD, _SUB)
                                      and code[up][3][0] == top):
            continue  # not the top of a chain
        spine = []  # the chain's + and - nodes, bottom first
        p = top
        while code[p][0] in (_ADD, _SUB):
            spine.append(p)
            p = code[p][3][0]
        spine.reverse()
        terms = [p] + [code[s][3][1] for s in spine]
        ops = [None] + [code[s][0] for s in spine]
        sizes = [t - first[t] for t in terms]  # shapes are compared only at equal sizes
        i = 0
        while i < len(terms):
            joins = ops[max(i, 1)]
            j = i + 1
            while (j < len(terms) and ops[j] == joins and sizes[j] == sizes[i]
                   and shape(terms[j]) == shape(terms[i])):
                j += 1
            if j - i >= _MIN_RUN and has_var[terms[i]] and one_check(terms[i]):
                # a chain around this one comes later, and its run wins
                runs[first[terms[i]]] = (spine[j - 2], terms[i:j], joins == _SUB, i == 0)
            i = j
    if not runs:
        return code
    out: list[tuple] = []
    i = 0
    while i < n:
        if i in runs:  # a run inside this one's terms is skipped with them
            last, terms, sub, head = runs[i]
            out += block(terms, sub, head)
            i = last + 1
        else:
            op, arg, node, _ = code[i]
            out.append((op, arg, node, ()))
            i += 1
    return out


def _domain_check(ok, message: str, node) -> None:
    """Raise unless ``ok`` holds on every row, naming ``node``.  A block's
    ``node`` holds its terms' nodes, one per column of ``ok``: the first
    term that fails on any row is named."""
    if not ok.all():
        if isinstance(node, tuple):
            node = node[int(np.argmin(np.atleast_2d(ok).all(axis=0)))]
        raise EvalDomainError(message, render(node))


def _forward(code: list, X: np.ndarray, slots: list | None = None) -> np.ndarray:
    """The forward sweep: the value at the rows of ``X``, an ``(N,)`` array
    or a 0-d scalar where ``e`` holds no variable.  Operands live on a stack
    and are dropped as soon as their parent has used them; given ``slots``,
    every instruction's value is also appended there."""
    stack: list = []
    push, pop = stack.append, stack.pop
    for op, arg, node, _ in code:
        if op == _VAR:
            v = X[:, arg]
        elif op == _CONST:
            v = arg
        elif op <= _DIV:
            b = pop()
            a = pop()
            if op == _ADD:
                v = a + b
            elif op == _SUB:
                v = a - b
            elif op == _MUL:
                v = a * b
            else:
                _domain_check(b != 0.0, "division by zero", node)
                v = a / b
        elif op == _NEG:
            v = -pop()
        elif op <= _POW_FRAC:
            a = pop()
            if op == _POW_FRAC:
                _domain_check(a >= 0.0, "negative base with a fractional exponent", node)
            elif op == _POW_NEG:
                _domain_check(a != 0.0, "zero raised to a negative power", node)
            v = a ** arg
        elif op == _EXP:
            v = np.exp(pop())
        elif op == _LOG:
            a = pop()
            _domain_check(a > 0.0, "log of a non-positive value", node)
            v = np.log(a)
        elif op == _SQRT:
            a = pop()
            _domain_check(a >= 0.0, "sqrt of a negative value", node)
            v = np.sqrt(a)
        else:  # _FOLD: a block's columns into the running sum, left to right
            fold, head = arg
            v = pop()  # the block: a fresh array, no other instruction's value
            if not head:
                fold(pop(), v[:, 0], out=v[:, 0])
            v = fold.accumulate(v, axis=1)[:, -1]
        push(v)
        if slots is not None:
            slots.append(v)
    return stack[0]


def _reverse(code: list, vals: list, G: np.ndarray) -> None:
    """The reverse sweep: add ``d e/dx`` into the rows of ``G``, reading
    node values from the ``slots`` of :func:`_forward`.  Each node pushes
    its operands' adjoints on a stack, the left one on top, so the nodes are
    visited in pre-order (node, left subtree, right subtree): contributions
    reach ``G`` and derivative domain errors are raised in the order of a
    recursive descent.  The forward sweep has checked every value domain;
    only the derivative's own are checked here.  The base of ``^ 0`` gets no
    adjoint, and its subtree is not visited."""
    stack = [(len(code) - 1, 1.0)]
    push = stack.append
    while stack:
        k, bar = stack.pop()
        op, arg, node, kids = code[k]
        if op == _VAR:
            G[:, arg] += bar
        elif op == _CONST:
            pass
        elif op <= _DIV:
            left, right = kids
            if op == _ADD:
                bar_l, bar_r = bar, bar
            elif op == _SUB:
                bar_l, bar_r = bar, -bar
            elif op == _MUL:
                bar_l, bar_r = bar * vals[right], bar * vals[left]
            else:
                bar_l = bar / vals[right]
                bar_r = -bar_l * vals[k]
            push((right, bar_r))
            push((left, bar_l))
        else:
            (kid,) = kids
            if op == _NEG:
                push((kid, -bar))
            elif op <= _POW_FRAC:
                if arg != 0.0:
                    a = vals[kid]
                    if op == _POW_FRAC:
                        # fractional exponents need a strictly positive base for a finite slope
                        _domain_check(a > 0.0, "fractional power of zero in a derivative", node)
                    push((kid, bar * (arg * a ** (arg - 1.0))))
            elif op == _EXP:
                push((kid, bar * vals[k]))
            elif op == _LOG:
                push((kid, bar / vals[kid]))
            else:
                message = "sqrt of a non-positive value in a derivative"
                _domain_check(vals[kid] > 0.0, message, node)
                push((kid, bar * (0.5 / vals[k])))


def _check_width(width: int, n: int) -> None:
    if n < width:
        raise ValueError(f"the expression reads variable index {width - 1}, "
                         f"but the point has length {n}")


def _stack(codes: list, X: np.ndarray, exprs: Sequence[Expr]) -> np.ndarray:
    """The forward sweeps of ``codes`` at the rows of ``X``, one row of the
    result each.  Each row is checked as soon as it is computed, so an
    earlier expression's overflow comes before a later one's domain error:
    the first row that is not finite raises, naming its expression.  One
    sum checks a row; only when it is not finite, which finite values can
    also give, are the values checked one by one."""
    out = None
    for j, code in enumerate(codes):
        v = _forward(code, X)
        if out is None:  # allocated once the first sweep's temporaries are gone
            out = np.empty((len(codes), X.shape[0]))
        out[j] = v
        if not math.isfinite(out[j].sum()) and not np.isfinite(out[j]).all():
            raise EvalDomainError("evaluation overflowed to a non-finite value", render(exprs[j]))
    return np.empty((0, X.shape[0])) if out is None else out


def eval_value(e: Expr | Sequence[Expr], x) -> float | np.ndarray:
    """Evaluate ``e`` at a point (returns float) or an ``(N, n)`` batch
    (returns an ``(N,)`` array).

    Given a sequence of ``J`` expressions, returns their stacked values, of
    shape ``(J,)`` at a point or ``(J, N)`` on a batch: bit for bit
    ``np.array([eval_value(e_j, x) for e_j in e])``, and the error that loop
    raises first.  Each call sets the floating-point state, converts ``x``
    and checks finiteness once, however many expressions it evaluates.

    Batches of at most ``_BLOCKED_ROWS`` rows, such as a single point or a
    line-search round, run the blocked tape, on which each run of like terms
    of a sum costs one numpy call per node of its term rather than one per
    term; larger batches, on which gathering the blocks costs more than it
    saves, run the plain tape.  Either way the expressions are evaluated in
    one sweep, which raises the error one call per expression would: the
    first failing expression and node.

    A point too short for the largest variable index of an expression is a
    ``ValueError``, raised before anything is evaluated."""
    X = np.asarray(x, dtype=float)
    single = X.ndim == 1
    if single:
        X = X[None, :]
    elif X.ndim != 2:
        raise ValueError(f"expected a point or an (N, n) array of points, got shape {X.shape}")
    one = isinstance(e, Expr)
    exprs = (e,) if one else tuple(e)
    blocked = X.shape[0] <= _BLOCKED_ROWS
    codes = []
    for ej in exprs:
        tape = _tape(ej)
        _check_width(tape.width, X.shape[1])
        codes.append(tape.blocked if blocked else tape.plain)
    with np.errstate(over="ignore", invalid="ignore"):
        out = _stack(codes, X, exprs)
    if one:
        return float(out[0, 0]) if single else out[0]
    return out[:, 0] if single else out


def eval_grad(e: Expr, x) -> EvalResult:
    """Value and exact gradient at a single point: the forward sweep
    :func:`_forward` records every node's value, the reverse sweep
    :func:`_reverse` carries ``d e/d node`` from the root down to the
    variables.  The value is the one :func:`eval_value` gives.

    Deterministic: identical inputs give bit-identical outputs.
    """
    x_arr = np.asarray(x, dtype=float)
    if x_arr.ndim != 1:
        raise ValueError(f"expected a single point, got shape {x_arr.shape}")
    tape = _tape(e)
    _check_width(tape.width, x_arr.size)
    code = tape.plain
    vals: list = []
    g = np.zeros((1, x_arr.size))
    with np.errstate(over="ignore", invalid="ignore"):
        v = float(np.ravel(_forward(code, x_arr[None, :], vals))[0])
        _reverse(code, vals, g)
    if not (np.isfinite(v) and np.isfinite(g[0]).all()):
        raise EvalDomainError("evaluation overflowed to a non-finite value", render(e))
    return EvalResult(value=v, gradient=g[0])
