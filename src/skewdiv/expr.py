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
lowered terms coef * factor_1 * ... * factor_m (:func:`_terms`).  A field
holds them as one :class:`TermTable`, built once: a row per distinct term,
and per entry a row of indices into it and a row of coefficients.
:func:`sum_terms` sums them on each call.  A term's leading variables are
one monomial, placed from the points by Taylor shift with no jet product
(:func:`skewdiv.jets.place_monomials`); any later factor is walked once and
multiplied in, in source order.  The entries' jet terms are then summed by
one gather, and one vector add per term position sums every entry.  A
table without tree factors gathers only the coefficients up to its
monomials' degree, and one slot for the signed zeros of all above it.
"""

from __future__ import annotations

import copy
import math
import re
from functools import reduce
from operator import add, itemgetter
from typing import Mapping, NamedTuple, Sequence, Union

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
    """The text of a number: an integral one without its fraction, an infinite one as 1e999, else its repr.

    A literal beyond the float range parses to inf, and 1e999 parses back to it.
    """
    if abs(v) == math.inf:
        return "-1e999" if v < 0 else "1e999"
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


class TermTable:
    """The lowered terms of a field's entries (:func:`_terms`), as the bookkeeping of their sum.

    Built once per field, and read by :func:`sum_terms` on every call.  Each
    distinct term is a row of one table.  A term's leading run of variables
    is a monomial x^alpha, and the monomials come first: ``monomials[k]``
    lists the variables of row k in increasing order.  A term with a
    further factor (a function, a quotient, a power, or a variable after
    one) is a row of ``trees``: its leading monomial, then the factors that
    multiply it in source order.  The number term ``()`` comes last, and
    then the row that pads.  ``at[e]`` holds the rows of entry e's terms in
    source order, padded by that last row, ``coefs[:, e]`` their
    coefficients, padded by 1.0 (term-major, as the gather reads them), and
    ``lengths[e]`` its number of terms.  ``degree`` is the highest degree of
    a row's nonzero coefficients, or None where a tree row may have any.
    """

    def __init__(self, factors: Sequence[tuple], index, coefs):
        """``factors[r]`` is a term's factors; entry e's terms are the rows ``index[e]`` (-1 pads) times ``coefs[e]``."""
        import numpy as np  # here: imported ahead of jets, it raises the import's peak memory
        split = []  # each row's leading variables and the factors after them
        for fs in factors:
            lead = 0
            while lead < len(fs) and type(fs[lead]) is int:
                lead += 1
            split.append((tuple(sorted(fs[:lead])), fs[lead:]))
        self.monomials = tuple(dict.fromkeys(v for v, _ in split if v))
        self.trees = tuple(dict.fromkeys((v, rest) for v, rest in split if rest))
        row = {(v, ()): k for k, v in enumerate(self.monomials)}
        row.update((tree, len(self.monomials) + k) for k, tree in enumerate(self.trees))
        self.number = len(row) if ((), ()) in split else None  # the row of the number term
        self.nrows = len(row) + (self.number is not None)
        row[(), ()] = self.number
        index = np.asarray(index)
        self.at = np.array([row[s] for s in split] + [self.nrows])[index]  # -1 picks the padding row
        self.coefs = np.ascontiguousarray(np.transpose(coefs), dtype=float)
        self.lengths = (index >= 0).sum(axis=1).tolist()
        self.nvars = 1 + max((v[-1] for v in self.monomials), default=-1)
        self.degree = None if self.trees else max(map(len, self.monomials), default=0)
        self._plans: dict[tuple, _SumPlan] = {}

    @classmethod
    def of(cls, entries: Sequence[Sequence[tuple]]) -> "TermTable":
        """The table of each entry's terms ``[(coef, factors), ...]``, a row per distinct factors."""
        rows: dict[tuple, int] = {}
        index = [[rows.setdefault(factors, len(rows)) for _, factors in terms] for terms in entries]
        width = max(map(len, index))
        return cls(
            list(rows),
            [at + [-1] * (width - len(at)) for at in index],
            [[coef for coef, _ in terms] + [1.0] * (width - len(terms)) for terms in entries],
        )

    def with_coefs(self, coefs) -> "TermTable":
        """The same terms with the coefficients ``coefs[e]``, sharing this table's bookkeeping and plans."""
        import numpy as np
        table = copy.copy(self)
        table.coefs = np.ascontiguousarray(coefs.T)
        return table

    def plan(self, kinds: tuple) -> "_SumPlan":
        """How the entries sum where each tree row is a jet (True), a number (False) or fails (None)."""
        plan = self._plans.get(kinds)
        if plan is None:
            plan = self._plans[kinds] = _sum_plan(self, kinds)
        return plan


def lower(trees: Sequence) -> TermTable:
    """The lowered form of the trees, an entry each."""
    return TermTable.of([_terms(e) for e in trees])


class _SumPlan(NamedTuple):
    """Which entries of a :class:`TermTable` sum how, for one kind of each tree row; no coefficient."""

    summed: object  # the entries with a jet term, summed by the gather: a list, or a slice of all
    at: object  # their rows, term-major: a term position is one block
    numbers: object  # the (term, entry) places of number rows: they add to the value alone; None if none is
    others: list  # (entry, its rows) of each entry of number terms alone
    failed: list  # the entries with a failing term


def _sum_plan(table: TermTable, kinds: tuple) -> _SumPlan:
    import numpy as np
    first = len(table.monomials)
    jet = set(range(first)) | {first + k for k, kind in enumerate(kinds) if kind is True}
    failing = {first + k for k, kind in enumerate(kinds) if kind is None}
    number = np.zeros(table.nrows + 1, bool)
    number[[first + k for k, kind in enumerate(kinds) if kind is False]] = True
    if table.number is not None:
        number[table.number] = True
    summed, others, failed = [], [], []
    for e, (rows, n) in enumerate(zip(table.at.tolist(), table.lengths)):
        rows = rows[:n]
        if not failing.isdisjoint(rows):
            failed.append(e)
        elif not jet.isdisjoint(rows):
            summed.append(e)
        else:
            others.append((e, rows))
    width = max((table.lengths[e] for e in summed), default=0)
    at = table.at[summed, :width].T
    numbers = np.nonzero(number[at]) if number[at].any() else None
    if summed == list(range(len(table.lengths))):
        summed = slice(None)
    return _SumPlan(summed, at, numbers, others, failed)


def sum_terms(table: TermTable, points, order: int, params: ParamSet | None = None):
    """Each entry of ``table`` summed on ``points``: the coefficient array [e, ..., :], and the entries left.

    ``points`` has shape ``batch_shape + (n,)``, and the array the shape
    ``(entries,) + batch_shape + (ncoef,)``.  A monomial row is placed from
    the points (:func:`jets.place_monomials`), with no jet product: one of
    degree 2 or less equals the product of its seeds bit for bit.  A tree
    row multiplies its monomial, or its first factor, by each later factor
    in source order, and each factor that is not a variable is walked once;
    a shared prefix of factors is multiplied once.  An entry sums its terms
    in source order with the walk's arithmetic, so it is the walk's value up
    to the products and sums that the lowering re-associates.  The entries
    whose terms fail or whose sum is not finite are left, in order, for the
    caller to walk: the walk gives its value or its located error.  So are
    all entries where the points lack a variable.

    Entries with jet terms are summed together by one gather.  Each row of
    the table is a product's coefficients, so ``rows[at] * coefs`` scales
    every term at once.  A number term keeps its value slot alone, and
    padding is a row of -0.0: both add exactly nothing elsewhere.  One
    vector add per term position then sums every entry in source order.  An
    entry of number terms alone is summed in floats.  A table without tree
    rows holds no jet coefficient above its ``degree``: each of those sums
    the same signed zeros, so one slot sums them for all.
    """
    import numpy as np
    params = params if params is not None else {}
    points = jets.seed_points(points, None, order)
    shape = points.shape[:-1] + (jets.jet_space(points.shape[-1], order).size,)
    entries, size = len(table.lengths), shape[-1]
    if table.nvars > points.shape[-1]:  # the walk names the missing coordinate
        return np.empty((entries,) + shape), list(range(entries))
    degree = order if table.degree is None else min(table.degree, order)
    held = jets.jet_space(points.shape[-1], degree).size
    rows = np.zeros((table.nrows + 1,) + shape[:-1] + (held + (held < size),))  # the last slot sums the rest
    if table.monomials:
        jets.place_monomials(rows[..., :held], points, table.monomials)
    values = _tree_rows(table, rows, points, order, params)
    plan = table.plan(tuple(None if v is None else isinstance(v, jets.Jet) for v in values))
    left = list(plan.failed)
    number = {} if table.number is None else {table.number: 1.0}  # the number rows and their values
    for r, v in enumerate(values, len(table.monomials)):
        if isinstance(v, jets.Jet):
            rows[r] = v.c
        elif v is not None:
            number[r] = v
    out = None
    if plan.at.size:
        rows[-1] = -0.0
        if plan.numbers is not None:
            for r, v in number.items():
                rows[r, ..., 0] = v
        scaled = rows[plan.at]
        coefs = table.coefs[: len(scaled), plan.summed]
        scaled *= coefs.reshape(coefs.shape + (1,) * len(shape))
        if plan.numbers is not None:
            scaled[plan.numbers + (..., slice(1, None))] = -0.0
        sums = scaled[0]
        for t in range(1, len(scaled)):  # term by term, as the walk adds
            sums += scaled[t]
        summed = range(entries)[plan.summed] if type(plan.summed) is slice else plan.summed
        finite = np.isfinite(sums.reshape(len(sums), -1)).all(axis=1).tolist()
        left.extend(e for e, ok in zip(summed, finite) if not ok)
        out = sums if len(summed) == entries and held == size else np.empty((entries,) + shape)
        if out is not sums:
            out[plan.summed, ..., :held] = sums[..., :held]
            out[plan.summed, ..., held:] = sums[..., held:]
    if plan.others:
        out = np.empty((entries,) + shape) if out is None else out
        others = [e for e, _ in plan.others]
        values = [reduce(add, [coef * number[r] for coef, r in zip(table.coefs[:, e].tolist(), at)]) for e, at in plan.others]
        left.extend(e for e, value in zip(others, values) if not jets.finite(value))
        out[others] = 0.0
        out[others, ..., 0] = np.reshape(values, (-1,) + (1,) * (len(shape) - 1))
    return (np.empty((entries,) + shape) if out is None else out), sorted(left)


def _tree_rows(table: TermTable, rows, points, order: int, params: ParamSet) -> list:
    """The value of each tree row of ``table``, or None where it fails; ``rows`` holds the placed monomials."""
    if not table.trees:
        return []
    seeds = jets.seed_variables(points, None, order)
    sp = seeds[0].space
    formed: dict[tuple, object] = {}  # (monomial, factors) -> their product, each formed once

    def factor(f):
        """A factor's value: a seed, or its tree walked once."""
        key = ((), (f,))
        p = formed.get(key)
        if p is None:
            p = formed[key] = seeds[f] if type(f) is int else evaluate(f, seeds, params)
        return p

    # No closure here calls itself: a cycle would keep each call's arrays until the collector runs.
    values = []
    for monomial, factors in table.trees:
        try:
            if monomial:
                p, first = jets.Jet(sp, rows[table.monomials.index(monomial)], min(len(monomial), order)), 0
            else:
                p, first = factor(factors[0]), 1
            for k in range(first, len(factors)):  # each prefix times its next factor, in source order
                q = formed.get((monomial, factors[: k + 1]))
                if q is None:
                    q = formed[monomial, factors[: k + 1]] = p * factor(factors[k])
                p = q
            values.append(p)
        except (EvalDomainError, MissingParameterError, ArithmeticError, LookupError):
            values.append(None)
    return values
