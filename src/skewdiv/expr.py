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

Fields.  Several entries on one point (a metric's entries, say) are sums of
lowered terms coef * factor_1 * ... * factor_m (:func:`_terms`), which
:func:`sum_terms` sums: variables read their point entries, other factors
are walked once, and the product of each prefix of factors is formed once
for all the entries.  The entries' jet terms are then summed by one gather:
each distinct product is a row of one table, each entry a row of indices
into it and a row of coefficients, and one vector add per term position sums
every entry.
"""

from __future__ import annotations

import re
from functools import reduce
from operator import add, itemgetter
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

    Equality uses the first ``compared`` fields; the offset (and a variable's
    alias) only locate the node in the source.  The hash reads the node's type
    and first field only, so a lookup keyed by a tree does not walk it.
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
        return hash((type(self), self[0]))

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


def number_source(v: float) -> str:
    """The text of a number: an integral one without its fraction, else its repr."""
    return str(int(v)) if v == int(v) and abs(v) < 1e16 else repr(v)


def _fmt_num(e: Num) -> tuple[str, int]:
    s = number_source(e[0])
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


def sum_terms(entries: Sequence[Sequence[tuple]], point: Sequence, params: ParamSet | None = None) -> list:
    """Each entry's lowered terms (:func:`_terms`) summed on one ``point``, sharing their products.

    Variables read their point entries, other factors are walked once, and
    the product of each prefix of factors is formed once for all the
    entries.  An entry sums its terms in source order with the walk's
    arithmetic, so it is the walk's value up to the products and sums that
    the lowering re-associates.  An entry whose terms fail or whose sum is
    not finite is ``None``: the caller walks its tree instead, for the
    walk's value or its located error.

    Entries with jet terms are summed together by one gather.  Each distinct
    product is a row of one table, each entry a row of indices into it and a
    row of coefficients, so ``table[index] * coefs`` scales every term at
    once.  A number term keeps its value slot alone, and padding is a row of
    -0.0: both add exactly nothing elsewhere.  One vector add per term
    position then sums every entry in source order.  Where every such entry
    is a single term there is nothing to sum: each is its scaled product.
    """
    params = params if params is not None else {}
    formed: dict[tuple, object] = {}  # factors -> their product, each formed once

    def product(factors: tuple):
        p = formed.get(factors)
        if p is None:
            f = factors[0]
            p = formed[factors] = (
                product(factors[:-1]) * product(factors[-1:]) if len(factors) > 1
                else point[f] if type(f) is int else evaluate(f, point, params)
            )
        return p

    rows: dict[tuple, int] = {}  # each distinct term's factors -> its table row
    index = [[rows.setdefault(factors, len(rows)) for _, factors in terms] for terms in entries]
    values: list = []  # row -> its product, or None where that fails
    for factors in rows:
        try:
            values.append(product(factors) if factors else 1.0)
        except (EvalDomainError, MissingParameterError, ArithmeticError, LookupError):
            values.append(None)
    is_jet = [isinstance(v, jets.Jet) for v in values]
    out: list = [None] * len(entries)
    summed = []  # the entries with a jet term
    for e, (terms, at) in enumerate(zip(entries, index)):
        if None in values and any(values[r] is None for r in at):
            continue
        if any(is_jet[r] for r in at):
            summed.append(e)
        else:
            value = reduce(add, [coef * values[r] for (coef, _), r in zip(terms, at)])
            out[e] = value if jets.finite(value) else None
    if not summed:
        return out

    import numpy as np  # here: imported ahead of jets, it raises the import's peak memory
    width = max(len(entries[e]) for e in summed)
    if width == 1:  # each entry is one jet term: nothing to gather or add
        for e in summed:
            p = values[index[e][0]]
            c = p.c * entries[e][0][0]
            out[e] = jets.Jet(p.space, c) if np.isfinite(c).all() else None
        return out
    like = values[is_jet.index(True)]
    table = np.full((len(values) + 1,) + like.c.shape, -0.0)  # the last row pads
    numbers = set()  # the rows of number products
    for r, v in enumerate(values):
        if is_jet[r]:
            table[r] = v.c
        elif v is not None:
            table[r, ..., 0] = v
            numbers.add(r)
    at, coefs = [], []
    for e in summed:
        pad = width - len(entries[e])
        at.append(index[e] + [-1] * pad)
        coefs.append([coef for coef, _ in entries[e]] + [1.0] * pad)
    at = np.array(list(zip(*at)))  # term-major: a term position is one block
    scaled = table[at]
    scaled *= np.array(list(zip(*coefs)))[(...,) + (None,) * like.c.ndim]
    if any(not numbers.isdisjoint(index[e]) for e in summed):  # a number adds to the value alone
        flag = np.zeros(len(table), bool)
        flag[list(numbers)] = True
        scaled[flag[at], ..., 1:] = -0.0
    sums = scaled[0]
    for t in range(1, width):  # term by term, as the walk adds
        sums += scaled[t]
    finite = np.isfinite(sums.reshape(len(summed), -1)).all(axis=1).tolist()
    for e, c, ok in zip(summed, sums, finite):
        out[e] = jets.Jet(like.space, c) if ok else None  # of degree at most the order
    return out
