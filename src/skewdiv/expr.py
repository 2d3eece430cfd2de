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

Representation.  A node is an immutable tuple of its fields with the source
offset last (``Binary`` is ``(op, left, right, offset)``); the named fields
are read-only properties over the tuple slots.  Equality and hashing compare
the structural fields only, so offsets and the alias a ``Var`` was written
with do not take part.  The scanner is a single ``finditer`` pass over the
source, and the parser a set of closures over its token list.  Evaluation and
printing look up a handler by ``type(node)`` in one table each (``_EVAL``,
``_FMT``) and recurse through the same tables, so each node costs one dict
lookup and one call.

Fields.  :func:`evaluate_entries` evaluates several trees on one point (a
metric's entries, say) as sums of terms coef * factor_1 * ... * factor_m:
variables read their point entries, other factors are walked once, and the
product of each prefix of factors is formed once for all the trees.
"""

from __future__ import annotations

import re
from operator import itemgetter
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


class _Node(tuple):
    """A tree node: the tuple of its ``fields``, ``offset`` last.

    Equality and hash use the first ``compared`` fields; the offset (and a
    variable's alias) only locate the node in the source.
    """

    __slots__ = ()

    def __init_subclass__(cls, fields: tuple, compared: int):
        cls._fields = fields
        cls._compared = compared
        for i, name in enumerate(fields):
            setattr(cls, name, property(itemgetter(i)))

    def __eq__(self, other):
        n = self._compared
        return type(other) is type(self) and self[:n] == other[:n]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[: self._compared])

    def __repr__(self):
        shown = ", ".join(f"{f}={v!r}" for f, v in zip(self._fields[:-1], self))
        return f"{type(self).__name__}({shown})"

    def __getnewargs__(self):
        return tuple(self)


class Num(_Node, fields=("value", "offset"), compared=1):
    __slots__ = ()
    def __new__(cls, value: float, offset: int = -1):
        return tuple.__new__(cls, (value, offset))


class Var(_Node, fields=("index", "name", "offset"), compared=1):
    __slots__ = ()
    def __new__(cls, index: int, name: str, offset: int = -1):
        return tuple.__new__(cls, (index, name, offset))


class Param(_Node, fields=("name", "offset"), compared=1):
    __slots__ = ()
    def __new__(cls, name: str, offset: int = -1):
        return tuple.__new__(cls, (name, offset))


class Unary(_Node, fields=("op", "arg", "offset"), compared=2):
    __slots__ = ()
    def __new__(cls, op: str, arg: "Expr", offset: int = -1):  # op: 'neg' or a function name
        return tuple.__new__(cls, (op, arg, offset))


class Binary(_Node, fields=("op", "left", "right", "offset"), compared=3):
    __slots__ = ()
    def __new__(cls, op: str, left: "Expr", right: "Expr", offset: int = -1):  # op: + - * / ^
        return tuple.__new__(cls, (op, left, right, offset))


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


# The catch-all group is \S, not '.': trailing whitespace then matches
# nothing, so ``finditer`` ends there instead of reporting a blank.
_TOKEN_RE = re.compile(
    r"""
    \s*(?:
        (?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)
      | (?P<name>[A-Za-z_][A-Za-z_0-9]*)
      | (?P<op>[-+*/^()])
      | (?P<bad>\S)
    )
    """,
    re.VERBOSE,
)


def _scan(source: str) -> list[tuple[str, str, int]]:
    """``(tag, text, offset)`` tokens, ``tag`` being num, name, the operator itself, or end."""
    tokens = []
    for m in _TOKEN_RE.finditer(source):
        kind = m.lastgroup
        text = m[kind]
        if kind == "op":
            kind = text
        elif kind == "bad":
            raise ParseError(f"unexpected character {text!r}", m.end() - 1)
        tokens.append((kind, text, m.end() - len(text)))
    tokens.append(("end", "", len(source)))
    return tokens


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
    toks = _scan(source)
    new = tuple.__new__  # the node constructors, without their Python frame
    pos = 0  # index of the next token

    def expr():
        nonlocal pos
        node = term()
        tag, _, off = toks[pos]
        while tag == "+" or tag == "-":
            pos += 1
            node = new(Binary, (tag, node, term(), off))
            tag, _, off = toks[pos]
        return node

    def term():
        nonlocal pos
        node = factor()
        tag, _, off = toks[pos]
        while tag == "*" or tag == "/":
            pos += 1
            node = new(Binary, (tag, node, factor(), off))
            tag, _, off = toks[pos]
        return node

    def factor():
        nonlocal pos
        tag, _, off = toks[pos]
        if tag == "-":
            pos += 1
            return new(Unary, ("neg", factor(), off))
        node = atom()
        tag, _, off = toks[pos]
        while tag == "^":
            pos += 1
            node = new(Binary, ("^", node, exponent(), off))
            tag, _, off = toks[pos]
        return node

    def exponent():
        nonlocal pos
        tag, _, off = toks[pos]
        if tag == "-":
            pos += 1
            return new(Unary, ("neg", exponent(), off))
        return atom()

    def atom():
        nonlocal pos
        tag, text, off = toks[pos]
        pos += 1
        if tag == "num":
            return new(Num, (float(text), off))
        if tag == "name":
            if toks[pos][0] == "(":
                if text not in FUNCTIONS:
                    raise UnknownNameError(text, off, FUNCTIONS)
                pos += 1
                return new(Unary, (text, parenthesized(), off))
            if text in var_table:
                return new(Var, (var_table[text], text, off))
            if text in param_set:
                return new(Param, (text, off))
            valid = tuple(var_table) + tuple(sorted(param_set)) + FUNCTIONS
            raise UnknownNameError(text, off, valid)
        if tag == "(":
            return parenthesized()
        raise ParseError(f"unexpected token {text!r}" if text else "unexpected end of input", off)

    def parenthesized():
        """The expression after a consumed '(', and its ')'."""
        nonlocal pos
        node = expr()
        tag, _, off = toks[pos]
        if tag != ")":
            raise ParseError("expected ')'", off)
        pos += 1
        return node

    node = expr()
    tag, text, off = toks[pos]
    if tag != "end":
        raise ParseError(f"trailing input {text!r}", off)
    return node


# -- printing -----------------------------------------------------------------

_PREC = {"+": 1, "-": 1, "*": 2, "/": 2, "neg": 3, "^": 4}


# Each printer returns the text and its binding strength (5 for atoms).


def _fmt_num(e: Num) -> tuple[str, int]:
    v = e[0]
    s = str(int(v)) if v == int(v) and abs(v) < 1e16 else repr(v)
    return s, (3 if s.startswith("-") else 5)


def _fmt_unary(e: Unary) -> tuple[str, int]:
    op, arg, _ = e
    s, p = _FMT[type(arg)](arg)
    if op != "neg":
        return f"{op}({s})", 5
    return ("-" + s if p >= 3 else f"-({s})"), 3


def _fmt_binary(e: Binary) -> tuple[str, int]:
    op, left, right, _ = e
    prec = _PREC[op]
    ls, lp = _FMT[type(left)](left)
    rs, rp = _FMT[type(right)](right)
    if lp < prec:
        ls = f"({ls})"
    if rp <= prec:
        rs = f"({rs})"
    return (f"{ls}^{rs}" if op == "^" else f"{ls} {op} {rs}"), prec


_FMT = {
    Num: _fmt_num,
    Var: lambda e: (e[1], 5),
    Param: lambda e: (e[0], 5),
    Unary: _fmt_unary,
    Binary: _fmt_binary,
}


def to_source(e: Expr) -> str:
    """Render a tree back to source; reparsing yields a structurally equal tree."""
    return _FMT[type(e)](e)[0]


# -- evaluation ---------------------------------------------------------------


def evaluate(e: Expr, point: Sequence, params: ParamSet | None = None):
    """Evaluate by structural recursion, generic over numeric semantics.

    ``point`` entries may be plain floats or jets; the result has the same
    semantics.  Evaluation is pure: identical inputs give bit-identical
    output.  Domain violations, and a function, sum, difference, product,
    quotient or power whose value overflows a float, are reported as
    :class:`EvalDomainError` with the offset of the offending subexpression.
    """
    params = params if params is not None else {}
    out = _EVAL[type(e)](e, point, params)
    # Arithmetic nodes are not checked as they go: only a non-finite result
    # from finite point entries walks the tree again to find where it arose.
    if not jets.finite(out) and all(map(jets.finite, point)):
        _raise_at_overflow(e, point, params)
    return out


def _ev_var(e: Var, pt, params):
    index, name, offset = e
    if index >= len(pt):
        raise EvalDomainError(
            f"variable {name} needs coordinate {index}, point has {len(pt)}", offset
        )
    return pt[index]


def _ev_param(e: Param, pt, params):
    try:
        return float(params[e[0]])
    except KeyError:
        raise MissingParameterError(f"parameter {e[0]!r} not bound at evaluation") from None


def _ev_unary(e: Unary, pt, params):
    op, arg, offset = e
    v = _EVAL[type(arg)](arg, pt, params)
    if op == "neg":
        return -v
    try:
        return getattr(jets, op)(v)
    except _NUMERIC_ERRORS as err:
        if not jets.finite(v):  # name the overflow that fed the function, if any
            _raise_at_overflow(arg, pt, params)
        raise _located(err, offset, op) from None


def _ev_binary(e: Binary, pt, params):
    op, left, right, offset = e
    a = _EVAL[type(left)](left, pt, params)
    b = _EVAL[type(right)](right, pt, params)
    if op == "*":
        return a * b
    if op == "+":
        return a + b
    if op == "-":
        return a - b
    if op == "/":
        try:
            if not isinstance(b, jets.Jet) and b == 0:
                raise EvalDomainError("division by zero")
            return a / b
        except _NUMERIC_ERRORS as err:
            raise _located(err, offset, "division") from None
    try:
        return jets.powop(a, b)
    except _NUMERIC_ERRORS as err:
        raise _located(err, offset, "power") from None


_EVAL = {
    Num: lambda e, pt, params: e[0],
    Var: _ev_var,
    Param: _ev_param,
    Unary: _ev_unary,
    Binary: _ev_binary,
}

_ARITHMETIC = {"+": "sum", "-": "difference", "*": "product", "/": "division"}


def _raise_at_overflow(e: Expr, pt, params) -> None:
    """Raise at the first + - * / node, in evaluation order, that leaves the float range.

    Such a node gives a non-finite value from finite operands; with none, return.
    """
    if type(e) is Unary:
        _raise_at_overflow(e[1], pt, params)
    elif type(e) is Binary:
        op, left, right, offset = e
        _raise_at_overflow(left, pt, params)
        _raise_at_overflow(right, pt, params)
        if (
            op in _ARITHMETIC
            and jets.finite(_EVAL[type(left)](left, pt, params))
            and jets.finite(_EVAL[type(right)](right, pt, params))
            and not jets.finite(_ev_binary(e, pt, params))
        ):
            raise EvalDomainError(f"{_ARITHMETIC[op]} overflows a float", offset)


# Float arithmetic raises these where a result leaves the float range.
_NUMERIC_ERRORS = (EvalDomainError, OverflowError, ZeroDivisionError)


def _located(err: Exception, offset: int, what: str) -> EvalDomainError:
    """``err`` as an :class:`EvalDomainError` of the subexpression ``what`` at ``offset``."""
    if isinstance(err, EvalDomainError):
        return err if err.offset is not None else EvalDomainError(str(err), offset)
    if isinstance(err, OverflowError):
        return EvalDomainError(f"{what} overflows a float", offset)
    return EvalDomainError(f"{what} divides by zero", offset)


# -- fields: trees on one point, sharing a product table -----------------------


def _terms(e: Expr) -> list[tuple[float, tuple]]:
    """The top level of ``e`` as signed terms ``(coef, factors)``, in source order.

    + - * neg and numbers fold in; other nodes, and products of two sums, are
    factors, a variable as its index.
    """
    kind = type(e)
    if kind is Num:
        return [(e[0], ())]
    if kind is Var:
        return [(1.0, (e[0],))]
    op = e[0]
    if kind is Unary and op == "neg":
        return [(-c, f) for c, f in _terms(e[1])]
    if kind is Binary and op in ("+", "-", "*"):
        left, right = _terms(e[1]), _terms(e[2])
        if op != "*":
            left.extend(right if op == "+" else [(-c, f) for c, f in right])
            return left
        if len(left) == 1 or len(right) == 1:
            return [(a * b, fa + fb) for a, fa in left for b, fb in right]
    return [(1.0, (e,))]


def evaluate_entries(exprs: Sequence[Expr], point: Sequence, params: ParamSet | None = None) -> list:
    """:func:`evaluate` of each tree on one ``point``, sharing factors and their products.

    A tree sums its terms (:func:`_terms`) with the walk's arithmetic, so it
    is the walk's value up to the products and sums that the lowering
    re-associates; one whose terms fail or are not finite is walked instead.
    """
    params = params if params is not None else {}
    table: dict[tuple, object] = {}  # factors -> their product, each formed once

    def product(factors: tuple):
        if factors not in table:
            f = factors[0]
            table[factors] = (
                product(factors[:-1]) * product(factors[-1:]) if len(factors) > 1
                else point[f] if type(f) is int else evaluate(f, point, params)
            )
        return table[factors]

    def value(e: Expr):
        try:
            acc = None
            for coef, factors in _terms(e):
                term = product(factors) if factors else coef
                if factors and coef != 1.0:  # a number times a jet, as in the walk
                    term = jets.Jet(term.space, term.c * coef, term.deg) if isinstance(term, jets.Jet) else coef * term
                acc = term if acc is None else acc + term
            if jets.finite(acc):
                return acc
        except (EvalDomainError, MissingParameterError, ArithmeticError, LookupError):
            pass
        return evaluate(e, point, params)

    return [value(e) for e in exprs]
