import math
import struct

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewdiv.errors import (
    EvalDomainError,
    MissingParameterError,
    ParseError,
    UnknownNameError,
)
from skewdiv.expr import (
    Binary,
    Num,
    Param,
    Unary,
    Var,
    chart_variables,
    evaluate,
    parse,
    to_source,
)
from skewdiv.jets import extract_derivative, finite_difference_oracle, seed_variables

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
    assert exc.value.offset == 4
    with pytest.raises(ParseError):
        parse("(1+2", variables=VARS3)
    with pytest.raises(ParseError):
        parse("1 ~ 2", variables=VARS3)
    with pytest.raises(ParseError):
        parse("   ", variables=VARS3)


def test_unknown_identifier_lists_valid_names():
    with pytest.raises(UnknownNameError) as exc:
        parse("q + 1", variables=VARS3, params=("k",))
    assert exc.value.name == "q"
    assert "x0" in exc.value.valid and "k" in exc.value.valid


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


# -- jet derivatives vs finite differences ------------------------------------------

FD_SOURCES = [
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


def test_jet_gradient_matches_finite_differences():
    """20+ randomized expression/point pairs, 1e-6 relative agreement."""
    rng = np.random.default_rng(3)
    pairs = 0
    for src in FD_SOURCES:
        e = parse(src, variables=VARS3)
        for _ in range(2):
            pt = tuple(rng.uniform(-0.7, 0.7, 3))
            j = evaluate(e, seed_variables(pt, 3, 2))

            def field(q, _e=e):
                return evaluate(_e, tuple(float(v) for v in q))

            for axis in range(3):
                alpha = [0, 0, 0]
                alpha[axis] = 1
                fd = finite_difference_oracle(field, pt, alpha, step=1e-4)
                exact = extract_derivative(j, alpha)
                assert abs(fd - exact) <= 1e-6 * max(1.0, abs(exact))
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
