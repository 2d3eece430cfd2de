import copy
import json
import math
import pickle
import struct
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from skewdiv.errors import (
    EvalDomainError,
    MissingParameterError,
    ParseError,
    UnknownNameError,
)
from skewdiv import expr as expr_module
from skewdiv.expr import (
    Binary,
    Num,
    Param,
    TermTable,
    Unary,
    Var,
    _terms,
    chart_variables,
    evaluate,
    parse,
    sum_terms,
    to_source,
)
from skewdiv.jets import Jet, as_coefficients, seed_variables

from checks import expression_jets, extract_derivative
from exact_oracle import derivatives, to_sympy

VARS3 = chart_variables(3)


def test_parse_phi_family_shape():
    e = parse("(r+c)^(-1/k)", variables=VARS3, params=("k", "c"))
    assert isinstance(e, Binary) and e.op == "^"
    assert isinstance(e.left, Binary) and e.left.op == "+"
    assert isinstance(e.left.left, Var) and e.left.left.index == 0
    assert isinstance(e.left.right, Param) and e.left.right.name == "c"


def test_parse_zero_literal():
    assert parse("0", variables=VARS3) == Num(0.0)


def test_sin_product():
    e = parse("sin(r)*sin(r)", variables=VARS3)
    assert isinstance(e, Binary) and e.op == "*"
    assert isinstance(e.left, Unary) and e.left.op == "sin"
    val = evaluate(e, (math.pi / 6, 0.0, 0.0))
    assert val == pytest.approx(0.25, rel=1e-15)


def test_precedence_and_associativity():
    assert evaluate(parse("1+2*3^2", variables=VARS3), (0, 0, 0)) == 19.0
    assert evaluate(parse("-2^2", variables=VARS3), (0, 0, 0)) == -4.0  # pow > neg
    assert evaluate(parse("2-3-4", variables=VARS3), (0, 0, 0)) == -5.0
    assert evaluate(parse("2^3^2", variables=VARS3), (0, 0, 0)) == 64.0  # left-assoc
    assert evaluate(parse("2^(3^2)", variables=VARS3), (0, 0, 0)) == 512.0
    assert evaluate(parse("2^-2", variables=VARS3), (0, 0, 0)) == 0.25
    assert evaluate(parse("6/3/2", variables=VARS3), (0, 0, 0)) == 1.0


def test_variable_aliases():
    r = parse("r", variables=VARS3)
    x0 = parse("x0", variables=VARS3)
    assert r.index == x0.index == 0
    x1 = parse("x1", variables=VARS3)
    assert evaluate(x1, (7.0, 8.0, 9.0)) == 8.0  # second coordinate


def test_syntax_error_carries_offset():
    with pytest.raises(ParseError) as exc:
        parse("1 + ", variables=VARS3)
    assert str(exc.value).endswith("(at offset 4)")
    with pytest.raises(ParseError):
        parse("(1+2", variables=VARS3)
    with pytest.raises(ParseError):
        parse("1 ~ 2", variables=VARS3)
    with pytest.raises(ParseError):
        parse("   ", variables=VARS3)


def test_unknown_identifier_lists_valid_names():
    with pytest.raises(UnknownNameError) as exc:
        parse("q + 1", variables=VARS3, params=("k",))
    message = str(exc.value)
    assert message.startswith("unknown identifier 'q'; valid names: ")
    valid = message.split("valid names: ")[1].rsplit(" (at offset", 1)[0].split(", ")
    assert "x0" in valid and "k" in valid


def test_trailing_input_rejected():
    with pytest.raises(ParseError):
        parse("1 2", variables=VARS3)


def test_evaluate_phi_at_origin():
    e = parse("(r+c)^(-1/k)", variables=VARS3, params=("k", "c"))
    assert evaluate(e, (0.0, 0.0, 0.0), {"k": 4.0, "c": 1.0}) == 1.0


def test_evaluate_jet_semantics():
    e = parse("(r+c)^(-1/k)", variables=chart_variables(1), params=("k", "c"))
    j = evaluate(e, seed_variables((0.0,), 1, 2), {"k": 4.0, "c": 1.0})
    assert j.value == 1.0
    assert extract_derivative(j, (1,)) == pytest.approx(-0.25, abs=1e-15)
    assert extract_derivative(j, (2,)) == pytest.approx(0.3125, abs=1e-15)


def test_missing_parameter():
    e = parse("k*r", variables=VARS3, params=("k",))
    with pytest.raises(MissingParameterError):
        evaluate(e, (1.0, 0.0, 0.0), {})


def test_domain_error_reports_offset():
    e = parse("1 + log(r - 2)", variables=VARS3)
    with pytest.raises(EvalDomainError) as exc:
        evaluate(e, (0.0, 0.0, 0.0))
    assert exc.value.offset == 4
    e = parse("1/x1", variables=VARS3)
    with pytest.raises(EvalDomainError):
        evaluate(e, (0.0, 0.0, 0.0))


def test_fractional_power_requires_positive_base():
    e = parse("r^0.5", variables=VARS3)
    with pytest.raises(EvalDomainError):
        evaluate(e, (-1.0, 0.0, 0.0))
    cube = parse("r^3", variables=VARS3)
    assert evaluate(cube, (-2.0, 0.0, 0.0)) == -8.0


def test_evaluate_is_pure():
    e = parse("sin(r)*exp(x1/3) + (x2+2)^1.5", variables=VARS3)
    pt = (0.37, -1.2, 0.9)
    a = evaluate(e, pt)
    b = evaluate(e, pt)
    assert struct.pack("<d", a) == struct.pack("<d", b)
    ja = evaluate(e, seed_variables(pt, 3, 3))
    jb = evaluate(e, seed_variables(pt, 3, 3))
    assert np.array_equal(ja.c, jb.c)


# -- round-trip property -----------------------------------------------------------


def _exprs(leaf):
    unary = st.sampled_from(["neg", "sin", "cos", "exp", "log", "sqrt"])
    return st.recursive(
        leaf,
        lambda children: st.one_of(
            st.tuples(unary, children).map(lambda t: Unary(t[0], t[1])),
            st.tuples(
                st.sampled_from("+-*/^"), children, children
            ).map(lambda t: Binary(t[0], t[1], t[2])),
        ),
        max_leaves=12,
    )


leaves = st.one_of(
    st.floats(min_value=0.0, max_value=100.0, allow_nan=False).map(Num),
    st.sampled_from([Var(0, "r"), Var(0, "x0"), Var(1, "x1"), Var(2, "x2")]),
    st.sampled_from([Param("k"), Param("c")]),
)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(_exprs(leaves))
def test_print_parse_roundtrip(tree):
    src = to_source(tree)
    reparsed = parse(src, variables=VARS3, params=("k", "c"))
    assert reparsed == tree
    assert to_source(reparsed) == src
    assert parse(to_source(reparsed), variables=VARS3, params=("k", "c")) == reparsed


# -- jet derivatives vs sympy's -------------------------------------------------------

SMOOTH_SOURCES = [
    "r*x1 + x2^2",
    "sin(r)*cos(x1)",
    "exp(r/4) + x1*x2",
    "log(2 + r^2 + x1^2)",
    "sqrt(4 + r*x1)",
    "(r + 2)^1.7",
    "1/(3 + r + x1)",
    "r^3 - 2*r*x1 + x2",
    "sin(r*x1) + cos(x2/2)",
    "exp(-r^2/2)*sin(x1)",
    "(1 + r^2)^(-1/2)",
    "r*sin(x1)*cos(x2)",
]


def test_jet_derivatives_match_sympy_through_order_4():
    """24 randomized expression/point pairs, every derivative through order 4, 1e-12 relative."""
    rng = np.random.default_rng(3)
    xs = sympy.symbols("x0:3")
    pairs = 0
    for src in SMOOTH_SOURCES:
        e = parse(src, variables=VARS3)
        for _ in range(2):
            pt = tuple(rng.uniform(-0.7, 0.7, 3))
            j = evaluate(e, seed_variables(pt, 3, 4))
            for alpha, d in derivatives(to_sympy(e, xs), xs, pt, 4).items():
                exact = float(d.evalf(30))
                assert abs(extract_derivative(j, alpha) - exact) <= 1e-12 * max(1.0, abs(exact))
            pairs += 1
    assert pairs >= 20


@pytest.mark.parametrize(
    "source,offset",
    [("1 + exp(exp(7*r))", 4), ("x1 * 2.5^(r*1000.5)", 8), ("(r*1e-200)^(-2.5)", 10)],
)
def test_float_overflow_is_a_located_domain_error(source, offset):
    e = parse(source, variables=VARS3)
    for point in ((1.0, 0.5, 0.5), seed_variables((1.0, 0.5, 0.5), 3, 2)):
        with pytest.raises(EvalDomainError, match="overflows a float") as exc:
            evaluate(e, point)
        assert exc.value.offset == offset


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("source,offset", [("2.0^(r*2000)", 3), ("(r*1e200)^2", 9)])
def test_integer_power_overflow_is_a_located_domain_error(source, offset):
    """An integer power that leaves the float range raises, on floats and on jets."""
    e = parse(source, variables=VARS3)
    for point in ((1.0, 0.5, 0.5), seed_variables((1.0, 0.5, 0.5), 3, 2)):
        with pytest.raises(EvalDomainError, match="power overflows a float") as exc:
            evaluate(e, point)
        assert exc.value.offset == offset


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "source,r,message,offset",
    [
        ("(1e-300 + r)^-2", 0.0, "power overflows a float", 12),
        ("r*1e300*1e300", 1.0, "product overflows a float", 7),
        ("r/1e-310", 1e300, "division overflows a float", 1),
        ("1e308 + r*1e308", 1.0, "sum overflows a float", 6),
        ("-1e308 - r*1e308", 1.0, "difference overflows a float", 7),
    ],
)
def test_leaving_the_float_range_is_located(source, r, message, offset):
    """The first node whose finite operands give a non-finite value raises, on floats and jets."""
    e = parse(source, variables=VARS3)
    for point in (
        (r, 0.5, 0.5),
        seed_variables((r, 0.5, 0.5), 3, 2),
        seed_variables([(1.0, 0.5, 0.5), (r, 0.5, 0.5)], 3, 2),
    ):
        with pytest.raises(EvalDomainError, match=message) as exc:
            evaluate(e, point)
        assert exc.value.offset == offset


def test_non_finite_inputs_are_not_located_as_overflow():
    """Only arithmetic on finite operands overflows; inf in an input or a literal passes through."""
    assert evaluate(parse("r*2", variables=VARS3), (math.inf, 0.5, 0.5)) == math.inf
    assert evaluate(parse("r*1e999", variables=VARS3), (1.0, 0.5, 0.5)) == math.inf
    assert evaluate(parse("r*k", variables=VARS3, params=("k",)), (1.0, 0.5, 0.5), {"k": math.inf}) == math.inf


# -- parser goldens and the node contract --------------------------------------------

PARSE_GOLDEN = json.loads((Path(__file__).parent / "golden" / "parse_errors.json").read_text())
GOLDEN_VARS = tuple(v if isinstance(v, str) else tuple(v) for v in PARSE_GOLDEN["variables"])


def _dump(e):
    """A tree as nested lists, offsets included."""
    if isinstance(e, Num):
        return ["Num", e.value, e.offset]
    if isinstance(e, Var):
        return ["Var", e.index, e.name, e.offset]
    if isinstance(e, Param):
        return ["Param", e.name, e.offset]
    if isinstance(e, Unary):
        return ["Unary", e.op, _dump(e.arg), e.offset]
    return ["Binary", e.op, _dump(e.left), _dump(e.right), e.offset]


@pytest.mark.parametrize("case", PARSE_GOLDEN["errors"], ids=lambda c: repr(c["source"]))
def test_parse_error_matches_golden(case):
    with pytest.raises(ParseError) as exc:
        parse(case["source"], variables=GOLDEN_VARS, params=PARSE_GOLDEN["params"])
    assert type(exc.value).__name__ == case["error"]
    assert str(exc.value) == case["message"]
    assert str(exc.value).endswith(f"(at offset {case['offset']})")


@pytest.mark.parametrize("case", PARSE_GOLDEN["trees"], ids=lambda c: repr(c["source"]))
def test_parse_tree_matches_golden(case):
    tree = parse(case["source"], variables=GOLDEN_VARS, params=PARSE_GOLDEN["params"])
    assert _dump(tree) == case["tree"]


def test_a_node_hash_reads_its_top_node_only():
    """``sum_terms`` keys products by tree factors: a lookup must not walk the tree."""
    deep = Var(0, "r")
    for _ in range(5000):  # deeper than the recursion limit: a walk would raise
        deep = Unary("neg", deep)
    assert hash(deep) == hash(Unary("neg", Num(1.0)))
    assert {deep: 1}[deep] == 1


def test_node_equality_and_hash_ignore_offset_and_var_name():
    assert Num(1.5, 3) == Num(1.5) and hash(Num(1.5, 3)) == hash(Num(1.5))
    assert Var(0, "r", 2) == Var(0, "x0") and hash(Var(0, "r", 2)) == hash(Var(0, "x0"))
    assert Var(0, "r") != Var(1, "r")
    assert Param("k", 7) == Param("k") != Param("c")
    a = Binary("+", Unary("neg", Var(0, "r", 1), 0), Num(2.0, 5), 3)
    b = Binary("+", Unary("neg", Var(0, "x0")), Num(2.0))
    assert a == b and hash(a) == hash(b) and len({a, b}) == 1
    assert Binary("+", Num(1.0), Num(2.0)) != Binary("-", Num(1.0), Num(2.0))
    # Nodes of different classes never compare equal, whatever their fields.
    assert Num(1.0) != Param(1.0) and Unary("neg", Num(1.0)) != Num(1.0)
    assert Num(1.0) != (1.0, -1)


def test_node_constructors_and_fields():
    assert Num(value=2.0, offset=4) == Num(2.0) and Num(value=2.0, offset=4).offset == 4
    assert Num(2.0).offset == -1
    v = Var(index=1, name="x1", offset=9)
    assert (v.index, v.name, v.offset) == (1, "x1", 9)
    p = Param(name="k")
    assert (p.name, p.offset) == ("k", -1)
    u = Unary(op="sin", arg=p, offset=2)
    assert (u.op, u.arg, u.offset) == ("sin", p, 2)
    b = Binary(op="^", left=v, right=u, offset=5)
    assert (b.op, b.left, b.right, b.offset) == ("^", v, u, 5)
    assert repr(b) == (
        "Binary(op='^', left=Var(index=1, name='x1'), "
        "right=Unary(op='sin', arg=Param(name='k')))"
    )
    assert repr(Num(0.5, 3)) == "Num(value=0.5)"
    tree = parse("sin(r)^-2 + k*x1", variables=VARS3, params=("k",))
    for copied in (copy.deepcopy(tree), pickle.loads(pickle.dumps(tree))):
        assert type(copied) is Binary and _dump(copied) == _dump(tree)


@pytest.mark.parametrize(
    "node,field",
    [
        (Num(1.0), "value"),
        (Var(0, "r"), "index"),
        (Param("k"), "name"),
        (Unary("neg", Num(1.0)), "arg"),
        (Binary("+", Num(1.0), Num(2.0)), "offset"),
    ],
)
def test_nodes_are_immutable(node, field):
    with pytest.raises(AttributeError):
        setattr(node, field, None)
    with pytest.raises(AttributeError):
        node.extra = 1


# -- several trees on one product table ------------------------------------------

FIELD_PARAMS = {"a": 0.7, "b": -1.3}
FIELD_FACTORS = [
    parse(src, variables=VARS3, params=tuple(FIELD_PARAMS))
    for src in (
        "r", "x1", "x2", "a", "b", "sin(r + a)", "exp(x1/3)", "sqrt(2 + r*x2)",
        "(1 + x2)^2", "r/(2 + x1)", "(x1 + 1)^1.5", "b^2",
    )
]
FIELD_POINTS = [(0.3, 0.6, 0.2), (0.8, 0.1, 0.45)]


def _chain(nodes):
    tree = nodes[0]
    for node in nodes[1:]:
        tree = Binary("*", tree, node)
    return tree


def _term(coef, factors, place):
    """coef times the factors; ``place`` puts the number first, last, in the middle or nowhere."""
    nodes = [FIELD_FACTORS[i] for i in factors]
    if place == "none" and nodes:
        return _chain(nodes)
    at = {"first": 0, "last": len(nodes), "middle": len(nodes) // 2}.get(place, 0)
    return _chain(nodes[:at] + [Num(coef)] + nodes[at:])


def _sum(terms, signs, nested):
    """Terms joined by + and -, left to right, or with the rest nested in the right operand."""
    if nested and len(terms) > 2:
        return Binary(signs[1], terms[0], _sum(terms[1:], signs[1:], nested))
    tree = terms[0]
    for sign, term in zip(signs[1:], terms[1:]):
        tree = Binary(sign, tree, term)
    return tree


_factor_lists = st.lists(st.integers(0, len(FIELD_FACTORS) - 1), max_size=3)
_coefs = st.floats(0.125, 3.0)
_signs = st.lists(st.sampled_from("+-"), min_size=4, max_size=4)


@st.composite
def _entries(draw):
    """Trees over a shared pool of factors: terms re-associated, nested, distributed."""
    entries = []
    for _ in range(draw(st.integers(1, 4))):
        terms = [
            _term(draw(_coefs), draw(_factor_lists), draw(st.sampled_from(["first", "last", "middle", "none"])))
            for _ in range(draw(st.integers(1, 4)))
        ]
        tree = _sum(terms, draw(_signs), draw(st.booleans()))
        if draw(st.booleans()):
            tree = Binary("*", FIELD_FACTORS[draw(st.integers(0, len(FIELD_FACTORS) - 1))], tree)
        entries.append(Unary("neg", tree) if draw(st.booleans()) else tree)
    return entries


@st.composite
def _plain_entries(draw):
    """Trees whose lowering re-associates nothing: one number per term, last or alone."""
    entries = []
    for _ in range(draw(st.integers(1, 4))):
        terms = []
        for _ in range(draw(st.integers(1, 4))):
            factors = draw(_factor_lists)
            place = "last" if len(factors) > 1 else draw(st.sampled_from(["first", "last", "none"]))
            terms.append(_term(draw(_coefs), factors, place))
        entries.append(_sum(terms, draw(_signs), False))
    return entries


def _terms_scale(e, seeds, shape):
    """Sum over e's terms of |coef| times the product of its factors' |coefficients|."""
    def magnitude(node):
        v = evaluate(node, seeds, FIELD_PARAMS)
        return Jet(v.space, np.abs(v.c), v.deg) if isinstance(v, Jet) else abs(v)

    total = np.zeros(shape)
    for coef, factors in _terms(e):
        term = abs(coef)
        for f in factors:
            term = term * magnitude(Var(f, "x") if isinstance(f, int) else f)
        total = total + as_coefficients(term, shape)
    return total


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_entries())
def test_entries_match_the_walk_within_4_ulps_of_the_terms(entries):
    seeds = seed_variables(FIELD_POINTS, 3, 2)
    shape = (len(FIELD_POINTS), seeds[0].c.shape[-1])
    got = expression_jets(entries, FIELD_POINTS, 2, FIELD_PARAMS)
    for i, e in enumerate(entries):
        want = as_coefficients(evaluate(e, seeds, FIELD_PARAMS), shape)
        bound = 4 * np.spacing(_terms_scale(e, seeds, shape))
        assert np.all(np.abs(got[..., i, :] - want) <= bound), to_source(e)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(_plain_entries())
def test_entries_match_the_walk_bit_for_bit_where_nothing_is_reassociated(entries):
    for points in (FIELD_POINTS, FIELD_POINTS[0]):
        seeds = seed_variables(points, 3, 2)
        shape = seeds[0].c.shape
        got = expression_jets(entries, points, 2, FIELD_PARAMS)
        for i, e in enumerate(entries):
            want = as_coefficients(evaluate(e, seeds, FIELD_PARAMS), shape)
            assert got[..., i, :].tobytes() == want.tobytes(), to_source(e)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(_entries())
def test_entries_of_a_batch_are_its_points_alone(entries):
    batch = expression_jets(entries, FIELD_POINTS, 2, FIELD_PARAMS)
    for i, point in enumerate(FIELD_POINTS):
        alone = expression_jets(entries, point, 2, FIELD_PARAMS)
        assert batch[i].tobytes() == alone.tobytes()


def test_entries_share_factors_and_products(monkeypatch):
    """Each distinct non-variable factor is walked once, each shared product formed once, and no monomial is a product."""
    entries = [
        parse(src, variables=VARS3)
        for src in ("1 + 2*r*x1 - sin(x2)", "sin(x2)*r*x1", "3*r*x1*x2 + sin(x2)^2", "sin(x2)")
    ]
    assert _terms(entries[0]) == [(1.0, ()), (2.0, (0, 1)), (-1.0, (entries[3],))]
    walked, products = [], []

    def walk(e, point, params=None):
        walked.append(e)
        with monkeypatch.context() as inner:  # products inside a walk are the walk's own
            inner.setattr(Jet, "__mul__", real_mul)
            return evaluate(e, point, params)

    def mul(self, other):
        products.append(1)
        return real_mul(self, other)

    real_mul = Jet.__mul__
    monkeypatch.setattr(expr_module, "evaluate", walk)
    monkeypatch.setattr(Jet, "__mul__", mul)
    expression_jets(entries, FIELD_POINTS, 3, {})
    assert walked == [entries[3], parse("sin(x2)^2", variables=VARS3)]
    # sin(x2)*r and sin(x2)*r*x1; r*x1 and r*x1*x2 are placed.
    assert len(products) == 2


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_a_table_without_trees_sums_one_slot_for_the_coefficients_above_its_degree():
    """Those slots read as the full gather's, signed zeros included: -0.0 only where every term's zero is."""
    srcs = ("-r - x1*x2", "3 - r*x1", "x1 + 2", "-2*x2", "4 - 1", "-r*r - 0.5*x1", "1e308*r*x1 + 1e308*r*x1")
    table = TermTable.of([_terms(parse(src, variables=VARS3)) for src in srcs])
    full = copy.copy(table)
    full.degree = None  # as a table with a tree row: every slot is gathered
    points = np.array([[0.3, -0.0, 2.0], [0.0, 1.5, -0.25]])
    for order in (1, 2, 3, 4):
        for pts in (points, points[1]):
            (got, left), (want, want_left) = sum_terms(table, pts, order), sum_terms(full, pts, order)
            kept = [e for e in range(len(srcs)) if e not in left]
            assert (left, got[kept].tobytes()) == (want_left, want[kept].tobytes())
    assert left == [6]  # 1e308 + 1e308 overflows: the caller walks it
    assert np.signbit(got[:2, 10:]).all() and not np.signbit(got[2, 10:]).any()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
def test_entry_that_overflows_only_in_the_table_is_the_walks_value():
    """1e-300*r*r at r = 1e160: the walk scales first and stays finite, r*r alone overflows."""
    e = parse("1e-300*r*r", variables=VARS3)
    point = (1e160, 0.5, 0.5)
    assert sum_terms(TermTable.of([_terms(e)]), point, 2)[1] == [0]  # the caller walks the tree instead
    assert math.isfinite(evaluate(e, point))
    (got,) = expression_jets([e], point, 2, {})
    want = evaluate(e, seed_variables(point, 3, 2)).c
    assert np.all(np.isfinite(want)) and got.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "source,r,message",
    [
        ("r*r*1e300", 1e200, "product overflows a float (at offset 1)"),
        ("1e308 + r*1e308", 1.0, "sum overflows a float (at offset 6)"),
        ("r*r + log(r - 2)", 1.0, "log of nonpositive value -1.0 (at offset 6)"),
        ("2*sin(r*1e300*1e300)*x1", 1.0, "product overflows a float (at offset 13)"),
    ],
)
def test_entries_raise_the_walks_located_error(source, r, message):
    e = parse(source, variables=VARS3)
    point = (r, 0.5, 0.5)
    assert 1 in sum_terms(TermTable.of([_terms(parse("r*r", variables=VARS3)), _terms(e)]), point, 2)[1]
    for at in (point, seed_variables(point, 3, 2)):
        with pytest.raises(EvalDomainError) as walk:
            evaluate(e, at)
        assert str(walk.value) == message
    with pytest.raises(EvalDomainError) as table:
        expression_jets([parse("r*r", variables=VARS3), e], point, 2, {})
    assert str(table.value) == message


# -- functions of a non-finite argument ---------------------------------------------


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.parametrize("fn", ["sin", "cos"])
def test_sin_and_cos_of_an_overflow_name_the_product(fn):
    e = parse(f"{fn}(r*1e300*1e300)", variables=VARS3)
    for point in (
        (1.0, 0.5, 0.5),
        seed_variables((1.0, 0.5, 0.5), 3, 2),
        seed_variables([(0.0, 0.5, 0.5), (1.0, 0.5, 0.5)], 3, 2),
    ):
        with pytest.raises(EvalDomainError, match=r"^product overflows a float \(at offset 11\)$"):
            evaluate(e, point)


@pytest.mark.parametrize("fn", ["sin", "cos"])
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_sin_and_cos_of_a_non_finite_input_are_located(fn, value):
    e = parse(f"{fn}(r)", variables=VARS3)
    for point in ((value, 0.5, 0.5), seed_variables((value, 0.5, 0.5), 3, 2)):
        with pytest.raises(EvalDomainError, match=rf"^{fn} of non-finite value {value!r} \(at offset 0\)$"):
            evaluate(e, point)
