"""Infix expression language for metric components and potential functions.

GRAMMAR (whitespace insignificant, byte offsets reported on errors):

    expr     := term (('+' | '-') term)*
    term     := factor (('*' | '/') factor)*
    factor   := '-' factor | power
    power    := atom ('^' exponent)*          # '^' binds tighter than unary '-'
    exponent := '-' exponent | atom
    atom     := NUMBER | NAME | NAME '(' expr ')' | '(' expr ')'

Binary operators of equal precedence associate to the left, including '^'.
NAME resolves, at parse time, to a chart variable, a declared parameter, or
one of the functions sin, cos, exp, log, sqrt; anything else is an error
listing the valid names.  Chart variables are canonically x0..x{n-1}; "r" is
an alias for x0 (so a 3-chart reads naturally as r, x1, x2).

Parameters stay symbolic in the tree and are bound at evaluation time, which
lets a parameter search reuse one parse.  Evaluation is a pure structural
recursion, generic over the numeric semantics of the point entries: feed
floats to get a value, feed jets (see :mod:`skewdiv.jets`) to get exact
derivatives.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from typing import Mapping, Sequence, Union

from . import jets
from .errors import (
    EvalDomainError,
    MissingParameterError,
    ParseError,
    UnknownNameError,
)

ParamSet = Mapping[str, float]

FUNCTIONS = ("sin", "cos", "exp", "log", "sqrt")


# -- abstract syntax ----------------------------------------------------------
#
# Offsets locate nodes in the source for error reporting; they are excluded
# from equality so that parse/print round trips compare structurally.


@dataclass(frozen=True)
class Num:
    value: float
    offset: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Var:
    index: int
    name: str = field(compare=False)
    offset: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Param:
    name: str
    offset: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Unary:
    op: str  # 'neg' or a function name
    arg: "Expr"
    offset: int = field(default=-1, compare=False, repr=False)


@dataclass(frozen=True)
class Binary:
    op: str  # one of + - * / ^
    left: "Expr"
    right: "Expr"
    offset: int = field(default=-1, compare=False, repr=False)


Expr = Union[Num, Var, Param, Unary, Binary]


def chart_variables(dim: int) -> tuple:
    """Canonical variable naming for a ``dim``-dimensional chart."""
    if dim < 1:
        raise ValueError("chart dimension must be positive")
    names: list = [("x0", "r")]
    names.extend(f"x{i}" for i in range(1, dim))
    return tuple(names)


def _name_table(variables) -> dict[str, int]:
    table: dict[str, int] = {}
    for slot, entry in enumerate(variables):
        aliases = (entry,) if isinstance(entry, str) else tuple(entry)
        for name in aliases:
            if name in FUNCTIONS:
                raise ValueError(f"variable name {name!r} shadows a function")
            if name in table:
                raise ValueError(f"duplicate variable name {name!r}")
            table[name] = slot
    return table


_TOKEN_RE = re.compile(
    r"""
    (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
  | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
  | (?P<op>[-+*/^()])
  | (?P<ws>\s+)
    """,
    re.VERBOSE,
)


def _tokenize(source: str) -> list[tuple[str, str, int]]:
    tokens = []
    pos = 0
    while pos < len(source):
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", pos)
        kind = m.lastgroup
        if kind != "ws":
            tokens.append((kind, m.group(), pos))
        pos = m.end()
    tokens.append(("end", "", len(source)))
    return tokens


class _Parser:
    def __init__(self, tokens, var_table, params):
        self.tokens = tokens
        self.pos = 0
        self.vars = var_table
        self.params = params

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect_op(self, op: str):
        kind, text, off = self.peek()
        if kind != "op" or text != op:
            raise ParseError(f"expected {op!r}", off)
        return self.advance()

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while True:
            kind, text, off = self.peek()
            if kind == "op" and text in "+-":
                self.advance()
                node = Binary(text, node, self.parse_term(), off)
            else:
                return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while True:
            kind, text, off = self.peek()
            if kind == "op" and text in "*/":
                self.advance()
                node = Binary(text, node, self.parse_factor(), off)
            else:
                return node

    def parse_factor(self) -> Expr:
        kind, text, off = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Unary("neg", self.parse_factor(), off)
        return self.parse_power()

    def parse_power(self) -> Expr:
        node = self.parse_atom()
        while True:
            kind, text, off = self.peek()
            if kind == "op" and text == "^":
                self.advance()
                node = Binary("^", node, self.parse_exponent(), off)
            else:
                return node

    def parse_exponent(self) -> Expr:
        kind, text, off = self.peek()
        if kind == "op" and text == "-":
            self.advance()
            return Unary("neg", self.parse_exponent(), off)
        return self.parse_atom()

    def parse_atom(self) -> Expr:
        kind, text, off = self.advance()
        if kind == "num":
            return Num(float(text), off)
        if kind == "name":
            nxt_kind, nxt_text, _ = self.peek()
            if nxt_kind == "op" and nxt_text == "(":
                if text not in FUNCTIONS:
                    raise UnknownNameError(text, off, FUNCTIONS)
                self.advance()
                arg = self.parse_expr()
                self.expect_op(")")
                return Unary(text, arg, off)
            if text in self.vars:
                return Var(self.vars[text], text, off)
            if text in self.params:
                return Param(text, off)
            valid = tuple(self.vars) + tuple(sorted(self.params)) + FUNCTIONS
            raise UnknownNameError(text, off, valid)
        if kind == "op" and text == "(":
            node = self.parse_expr()
            self.expect_op(")")
            return node
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", off)


def parse(source: str, *, variables, params: Sequence[str] = ()) -> Expr:
    """Parse ``source`` against declared chart variables and parameter names.

    ``variables`` is a sequence with one entry per chart slot; an entry may
    be a single name or a tuple of aliases.  Use :func:`chart_variables` for
    the canonical chart naming.
    """
    if not source or not source.strip():
        raise ParseError("empty expression", 0)
    var_table = _name_table(variables)
    param_set = set(params)
    for p in param_set:
        if p in FUNCTIONS or p in var_table:
            raise ValueError(f"parameter name {p!r} collides with an existing name")
    parser = _Parser(_tokenize(source), var_table, param_set)
    node = parser.parse_expr()
    kind, text, off = parser.peek()
    if kind != "end":
        raise ParseError(f"trailing input {text!r}", off)
    return node


# -- printing -----------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


def _fmt_num(v: float) -> str:
    if v == int(v) and abs(v) < 1e16:
        return str(int(v))
    return repr(v)


def _fmt(e: Expr) -> tuple[str, int]:
    if isinstance(e, Num):
        s = _fmt_num(e.value)
        return s, (3 if s.startswith("-") else 5)
    if isinstance(e, Var):
        return e.name, 5
    if isinstance(e, Param):
        return e.name, 5
    if isinstance(e, Unary):
        if e.op == "neg":
            s, p = _fmt(e.arg)
            if p < _PREC["neg"]:
                s = f"({s})"
            return "-" + s, _PREC["neg"]
        s, _ = _fmt(e.arg)
        return f"{e.op}({s})", 5
    prec = _PREC[e.op]
    ls, lp = _fmt(e.left)
    rs, rp = _fmt(e.right)
    if lp < prec:
        ls = f"({ls})"
    if rp <= prec:
        rs = f"({rs})"
    return f"{ls}{e.op}{rs}" if e.op == "^" else f"{ls} {e.op} {rs}", prec


def to_source(e: Expr) -> str:
    """Render a tree back to source; reparsing yields a structurally equal tree."""
    return _fmt(e)[0]


# -- evaluation ---------------------------------------------------------------


def evaluate(e: Expr, point: Sequence, params: ParamSet | None = None):
    """Evaluate by structural recursion, generic over numeric semantics.

    ``point`` entries may be plain floats or jets; the result has the same
    semantics.  Evaluation is pure: identical inputs give bit-identical
    output.  Domain violations, and a function or power whose value
    overflows a float, are reported as :class:`EvalDomainError` with the
    offset of the offending subexpression.
    """
    pm = params if params is not None else {}
    return _ev(e, point, pm)


def _ev(e: Expr, pt, params):
    if isinstance(e, Num):
        return e.value
    if isinstance(e, Var):
        if e.index >= len(pt):
            raise EvalDomainError(
                f"variable {e.name} needs coordinate {e.index}, point has {len(pt)}",
                e.offset,
            )
        return pt[e.index]
    if isinstance(e, Param):
        try:
            return float(params[e.name])
        except KeyError:
            raise MissingParameterError(
                f"parameter {e.name!r} not bound at evaluation"
            ) from None
    if isinstance(e, Unary):
        v = _ev(e.arg, pt, params)
        if e.op == "neg":
            return -v
        try:
            return getattr(jets, e.op)(v)
        except _NUMERIC_ERRORS as err:
            raise _located(err, e.offset, e.op) from None
    # Binary
    left = _ev(e.left, pt, params)
    right = _ev(e.right, pt, params)
    op = e.op
    if op == "+":
        return left + right
    if op == "-":
        return left - right
    if op == "*":
        return left * right
    if op == "/":
        try:
            if not isinstance(right, jets.Jet) and right == 0:
                raise EvalDomainError("division by zero")
            return left / right
        except EvalDomainError as err:
            raise _located(err, e.offset) from None
    try:
        return jets.powop(left, right)
    except _NUMERIC_ERRORS as err:
        raise _located(err, e.offset, "power") from None


# Float arithmetic raises these where a result leaves the float range.
_NUMERIC_ERRORS = (EvalDomainError, OverflowError, ZeroDivisionError)


def _located(err: Exception, offset: int, what: str = "") -> EvalDomainError:
    """``err`` as an :class:`EvalDomainError` of the subexpression ``what`` at ``offset``."""
    if isinstance(err, EvalDomainError):
        return err if err.offset is not None else EvalDomainError(str(err), offset)
    if isinstance(err, OverflowError):
        return EvalDomainError(f"{what} overflows a float", offset)
    return EvalDomainError(f"{what} divides by zero", offset)


# -- small analyses used by validators ---------------------------------------


def variables_used(e: Expr) -> set[int]:
    if isinstance(e, Var):
        return {e.index}
    if isinstance(e, Unary):
        return variables_used(e.arg)
    if isinstance(e, Binary):
        return variables_used(e.left) | variables_used(e.right)
    return set()


def params_used(e: Expr) -> set[str]:
    if isinstance(e, Param):
        return {e.name}
    if isinstance(e, Unary):
        return params_used(e.arg)
    if isinstance(e, Binary):
        return params_used(e.left) | params_used(e.right)
    return set()
