"""Analytic scalar fields on a chart: parsing, evaluation, symbolic derivatives.

Evaluation is vectorised: a point is an array whose last axis holds the
chart coordinates, and any leading axes form a batch of points evaluated
together.

Grammar (whitespace insensitive)::

    expr   := term (('+'|'-') term)*
    term   := factor (('*'|'/') factor)*
    factor := base ('^' factor)?
    base   := number | ident | ident '(' expr ')' | '(' expr ')' | '-' base

Identifiers ``x1 .. xn`` are chart variables; other identifiers are either
one of the supported functions (when followed by a call) or named parameters
resolved when a :class:`FieldProvider` is built.
"""

from __future__ import annotations

import operator
import re
from collections import namedtuple

import numpy as np

from .errors import EvalDomainError, ExprSyntaxError, UnknownIdentifierError

__all__ = ["Expr", "Num", "Var", "Param", "Neg", "BinOp", "Call", "parse", "evaluate", "diff",
           "pretty", "FieldProvider"]


# ---------------------------------------------------------------------------
# AST


class Expr:
    """Base of the AST nodes: immutable records that compare and hash by
    node type and fields, so that ``Var(0) != Num(0.0)``."""

    __slots__ = ()

    def __eq__(self, other):
        return type(self) is type(other) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash((type(self), tuple.__hash__(self)))


class Num(Expr, namedtuple("Num", "value")):
    __slots__ = ()


class Var(Expr, namedtuple("Var", "index")):
    """Chart variable x{index+1}; ``index`` is zero-based."""

    __slots__ = ()


class Param(Expr, namedtuple("Param", "name")):
    __slots__ = ()


class Neg(Expr, namedtuple("Neg", "arg")):
    __slots__ = ()


class BinOp(Expr, namedtuple("BinOp", "op left right")):
    """``op`` is one of + - * / ^."""

    __slots__ = ()


class Call(Expr, namedtuple("Call", "func arg")):
    __slots__ = ()


FUNCTIONS = {
    "sin": np.sin,
    "cos": np.cos,
    "tan": np.tan,
    "exp": np.exp,
    "log": np.log,
    "sqrt": np.sqrt,
    "sinh": np.sinh,
    "cosh": np.cosh,
}

# Leaves evaluate to numpy floats or arrays, so these follow numpy's error state
# and a fractional power of a negative base is NaN ("invalid"), not complex.
_BINOPS = {"+": operator.add, "-": operator.sub, "*": operator.mul, "/": operator.truediv,
           "^": operator.pow}

_VAR_RE = re.compile(r"x([0-9]+)$")


# ---------------------------------------------------------------------------
# Tokenizer / recursive descent parser

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<num>(?:[0-9]+(?:\.[0-9]*)?|\.[0-9]+)(?:[eE][+-]?[0-9]+)?)"
    r"|(?P<ident>[a-zA-Z_][a-zA-Z0-9_]*)"
    r"|(?P<op>[-+*/^()]))"
)


def _tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            # skip over trailing whitespace before declaring failure
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            bad = len(text) - len(stripped)
            raise ExprSyntaxError(f"unexpected character {text[bad]!r}", bad)
        kind = m.lastgroup
        value = m.group(kind)
        tokens.append((kind, value, m.start(kind)))
        pos = m.end()
    tokens.append(("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text):
        self.text = text
        self.tokens = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def fail(self, message):
        kind, value, offset = self.peek()
        shown = value if kind != "end" else "end of input"
        raise ExprSyntaxError(f"{message}, got {shown!r}", offset)

    def parse(self):
        node = self.expr()
        if self.peek()[0] != "end":
            self.fail("unexpected trailing input")
        return node

    def expr(self):
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            node = BinOp(op, node, self.term())
        return node

    def term(self):
        node = self.factor()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.advance()[1]
            node = BinOp(op, node, self.factor())
        return node

    def factor(self):
        node = self.base()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            node = BinOp("^", node, self.factor())  # right associative
        return node

    def base(self):
        kind, value, offset = self.peek()
        if kind == "num":
            self.advance()
            return Num(float(value))
        if kind == "ident":
            self.advance()
            if self.peek()[:2] == ("op", "("):
                if value not in FUNCTIONS:
                    raise UnknownIdentifierError(value)
                self.advance()
                arg = self.expr()
                if self.peek()[:2] != ("op", ")"):
                    self.fail("expected ')'")
                self.advance()
                return Call(value, arg)
            m = _VAR_RE.match(value)
            if m and not value.startswith("x0"):
                return Var(int(m.group(1)) - 1)
            return Param(value)
        if kind == "op" and value == "(":
            self.advance()
            node = self.expr()
            if self.peek()[:2] != ("op", ")"):
                self.fail("expected ')'")
            self.advance()
            return node
        if kind == "op" and value == "-":
            self.advance()
            return Neg(self.base())
        self.fail("expected a number, identifier or '('")


def parse(text: str) -> Expr:
    """Parse ``text`` into an expression tree."""
    return _Parser(text).parse()


# ---------------------------------------------------------------------------
# Evaluation


def evaluate(node: Expr, point, params=None):
    """Evaluate the tree at chart points: ``point[..., i]`` is coordinate i.

    A single point of shape ``(n,)`` gives a scalar; a batch of shape
    ``(..., n)`` gives an array of the batch shape.  Division by zero,
    overflow and arguments outside a function's real domain raise
    :class:`EvalDomainError`; underflow rounds to zero.
    """
    return _run(node, _compile(node, params or {}), point)


# errstate as a decorator costs far less than as a with-statement per call
@np.errstate(divide="raise", invalid="raise", over="raise", under="ignore")
def _run(node, fn, point):
    """Apply the compiled form ``fn`` of ``node`` under one numpy error state."""
    point = np.asarray(point, dtype=float)
    try:
        value = fn(point)
    except (FloatingPointError, ZeroDivisionError) as exc:
        raise EvalDomainError(f"{pretty(node)}: {exc}") from None
    return np.broadcast_to(value, point.shape[:-1]) if point.ndim > 1 else value


@np.errstate(divide="raise", invalid="raise", over="raise", under="ignore")
def run_into(calls, point, out):
    """``out[..., k] = fn(point)`` for each ``(fn, k)`` of ``calls``, under
    the error state of :func:`_run`: one error-state switch for all the
    closures, and numpy broadcasts each value as it is written.  Returns
    None, or ``(k, exc)`` for the first closure that leaves its domain, with
    the ``FloatingPointError`` or ``ZeroDivisionError`` numpy raised, for
    the caller to locate."""
    for fn, k in calls:
        try:
            out[..., k] = fn(point)
        except (FloatingPointError, ZeroDivisionError) as exc:
            return k, exc
    return None


def _compile(node, params):
    """The tree as nested closures ``fn(point)``, walked once; parameters and
    constants become numpy floats here, so evaluation does no dispatch."""
    if isinstance(node, Num):
        value = np.float64(node.value)
        return lambda point: value
    if isinstance(node, Var):
        index = node.index
        return lambda point: point[..., index]
    if isinstance(node, Param):
        try:
            value = np.float64(params[node.name])
        except KeyError:
            raise UnknownIdentifierError(node.name) from None
        return lambda point: value
    if isinstance(node, Neg):
        arg = _compile(node.arg, params)
        return lambda point: -arg(point)
    if isinstance(node, Call):
        func, arg = FUNCTIONS[node.func], _compile(node.arg, params)
        return lambda point: func(arg(point))
    if isinstance(node, BinOp):
        op = _BINOPS[node.op]
        left, right = _compile(node.left, params), _compile(node.right, params)
        return lambda point: op(left(point), right(point))
    raise TypeError(f"not an Expr node: {node!r}")


# ---------------------------------------------------------------------------
# Symbolic differentiation (with light constant folding)


def _is_num(node, value=None):
    return isinstance(node, Num) and (value is None or node.value == value)


def _add(a, b):
    if _is_num(a, 0.0):
        return b
    if _is_num(b, 0.0):
        return a
    if _is_num(a) and _is_num(b):
        return Num(a.value + b.value)
    return BinOp("+", a, b)


def _sub(a, b):
    if _is_num(b, 0.0):
        return a
    if _is_num(a) and _is_num(b):
        return Num(a.value - b.value)
    if _is_num(a, 0.0):
        return Neg(b)
    return BinOp("-", a, b)


def _mul(a, b):
    if _is_num(a, 0.0) or _is_num(b, 0.0):
        return Num(0.0)
    if _is_num(a, 1.0):
        return b
    if _is_num(b, 1.0):
        return a
    if _is_num(a) and _is_num(b):
        return Num(a.value * b.value)
    return BinOp("*", a, b)


def _div(a, b):
    if _is_num(a, 0.0):
        return Num(0.0)
    if _is_num(b, 1.0):
        return a
    return BinOp("/", a, b)


def _pow(a, b):
    if _is_num(b, 1.0):
        return a
    if _is_num(b, 0.0):
        return Num(1.0)
    return BinOp("^", a, b)


_CHAIN = {
    "sin": lambda u: Call("cos", u),
    "cos": lambda u: Neg(Call("sin", u)),
    "tan": lambda u: _div(Num(1.0), _pow(Call("cos", u), Num(2.0))),
    "exp": lambda u: Call("exp", u),
    "log": lambda u: _div(Num(1.0), u),
    "sqrt": lambda u: _div(Num(0.5), Call("sqrt", u)),
    "sinh": lambda u: Call("cosh", u),
    "cosh": lambda u: Call("sinh", u),
}


def diff(node: Expr, index: int) -> Expr:
    """Exact partial derivative with respect to the zero-based variable ``index``."""
    if isinstance(node, (Num, Param)):
        return Num(0.0)
    if isinstance(node, Var):
        return Num(1.0) if node.index == index else Num(0.0)
    if isinstance(node, Neg):
        d = diff(node.arg, index)
        return Num(0.0) if _is_num(d, 0.0) else Neg(d)
    if isinstance(node, Call):
        du = diff(node.arg, index)
        if _is_num(du, 0.0):
            return Num(0.0)
        return _mul(_CHAIN[node.func](node.arg), du)
    if isinstance(node, BinOp):
        da = diff(node.left, index)
        db = diff(node.right, index)
        if node.op == "+":
            return _add(da, db)
        if node.op == "-":
            return _sub(da, db)
        if node.op == "*":
            return _add(_mul(da, node.right), _mul(node.left, db))
        if node.op == "/":
            return _div(
                _sub(_mul(da, node.right), _mul(node.left, db)),
                _pow(node.right, Num(2.0)),
            )
        # power rule; general form only when the exponent actually varies
        u, v = node.left, node.right
        if _is_num(db, 0.0):
            if _is_num(v):
                return _mul(_mul(v, _pow(u, Num(v.value - 1.0))), da)
            return _mul(_mul(v, _pow(u, _sub(v, Num(1.0)))), da)
        return _mul(
            _pow(u, v),
            _add(_mul(db, Call("log", u)), _div(_mul(v, da), u)),
        )
    raise TypeError(f"not an Expr node: {node!r}")


# ---------------------------------------------------------------------------
# Pretty printer (round-trips through parse)

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def pretty(node: Expr) -> str:
    """Render a tree back to source text; ``parse(pretty(e))`` equals ``e``."""
    return _pretty(node, 0)


def _pretty(node, parent_prec):
    if isinstance(node, Num):
        v = node.value
        if v < 0:
            return _pretty(Neg(Num(-v)), parent_prec)
        text = repr(int(v)) if v == int(v) and abs(v) < 1e15 else repr(v)
        return text
    if isinstance(node, Var):
        return f"x{node.index + 1}"
    if isinstance(node, Param):
        return node.name
    if isinstance(node, Call):
        return f"{node.func}({_pretty(node.arg, 0)})"
    if isinstance(node, Neg):
        inner = _pretty(node.arg, _PREC["^"] + 1)  # '-' binds tighter than '^'
        text = f"-{inner}"
        return f"({text})" if parent_prec > _PREC["neg"] else text
    if isinstance(node, BinOp):
        prec = _PREC[node.op]
        if node.op == "^":
            left = _pretty(node.left, prec + 1)  # left operand binds tighter
            right = _pretty(node.right, prec)
        else:
            left = _pretty(node.left, prec)
            right = _pretty(node.right, prec + 1)  # left associative
        text = f"{left}{node.op}{right}"
        return f"({text})" if parent_prec > prec else text
    raise TypeError(f"not an Expr node: {node!r}")


def _free_params(node, out):
    if isinstance(node, Param):
        out.add(node.name)
    elif isinstance(node, Neg):
        _free_params(node.arg, out)
    elif isinstance(node, Call):
        _free_params(node.arg, out)
    elif isinstance(node, BinOp):
        _free_params(node.left, out)
        _free_params(node.right, out)


def _max_var(node):
    if isinstance(node, Var):
        return node.index
    if isinstance(node, Neg):
        return _max_var(node.arg)
    if isinstance(node, Call):
        return _max_var(node.arg)
    if isinstance(node, BinOp):
        return max(_max_var(node.left), _max_var(node.right))
    return -1


class FieldProvider:
    """An analytic scalar field with exact partial derivatives of any order.

    Parameters are bound at construction; an unresolved parameter raises
    :class:`UnknownIdentifierError` immediately rather than at evaluation.
    Instances are immutable apart from their caches of derivative trees and
    their compiled forms.
    """

    def __init__(self, expr, n=None, params=None):
        if isinstance(expr, str):
            expr = parse(expr)
        self.expr = expr
        self.params = dict(params or {})
        free = set()
        _free_params(expr, free)
        missing = free - set(self.params)
        if missing:
            raise UnknownIdentifierError(sorted(missing)[0])
        self.n = _max_var(expr) + 1 if n is None else n
        if _max_var(expr) + 1 > self.n:
            raise UnknownIdentifierError(f"x{_max_var(expr) + 1}")
        self._deriv_cache = {}
        self._compiled = {}

    @classmethod
    def constant(cls, value, n=0):
        return cls(Num(float(value)), n=n)

    def _derivative(self, multi):
        """AST of the mixed partial given by a sorted tuple of variable indices."""
        if multi in self._deriv_cache:
            return self._deriv_cache[multi]
        if not multi:
            return self.expr
        node = diff(self._derivative(multi[:-1]), multi[-1])
        self._deriv_cache[multi] = node
        return node

    def compiled(self, multi):
        """``(tree, fn)`` of the mixed partial given by a sorted tuple of
        variable indices, compiled on first use; ``fn(point)`` is the bare
        closure, without the error state and broadcasting of :meth:`evaluate`."""
        entry = self._compiled.get(multi)
        if entry is None:
            node = self._derivative(multi)
            entry = self._compiled[multi] = (node, _compile(node, self.params))
        return entry

    def _at(self, multi, point):
        """The mixed partial ``multi`` evaluated at ``point``."""
        return _run(*self.compiled(multi), point)

    def evaluate(self, point):
        return self._at((), point)

    __call__ = evaluate

    def partial(self, i, point):
        return self._at((i,), point)

    def partial2(self, i, j, point):
        return self._at(tuple(sorted((i, j))), point)

    def __repr__(self):
        return f"FieldProvider({pretty(self.expr)!r})"
