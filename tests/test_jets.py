import ast
import math
import sys
import threading
from pathlib import Path

import numpy as np
import pytest
import sympy
from hypothesis import given, settings
from hypothesis import strategies as st

from skewdiv.errors import EvalDomainError, OrderExceededError
import skewdiv
from skewdiv import geometry, jets
from skewdiv.expr import chart_variables, evaluate, parse
from skewdiv.jets import (
    Jet,
    _exp_series,
    _reciprocal_series,
    _sin_series,
    contract,
    jet_space,
    partial_derivative,
    partials,
    powop,
    seed_variables,
)

from checks import extract_derivative
from exact_oracle import derivatives

coef = st.floats(min_value=-3.0, max_value=3.0, allow_nan=False)


def test_table_size_is_binomial():
    for n in (1, 2, 3, 4):
        for m in (0, 1, 2, 3, 4):
            assert jet_space(n, m).size == math.comb(n + m, m)


def test_seed_structure():
    seeds = seed_variables((0.0, 1.0, 2.0), 3, 2)
    for i, j in enumerate(seeds):
        assert j.value == float(i)
        grad = partials(j.c, 3)[..., 0]
        expected = np.zeros(3)
        expected[i] = 1.0
        assert np.array_equal(grad, expected)


def test_seed_order_must_be_positive():
    with pytest.raises(ValueError):
        seed_variables((0.0,), 1, 0)


def test_an_empty_batch_is_refused_at_seeding():
    with pytest.raises(ValueError, match="cannot seed an empty batch of points"):
        jets.exp(seed_variables(np.zeros((0, 1)), 1, 3)[0] + 1)


def test_product_of_seeds():
    x, y = seed_variables((2.0, 3.0), 2, 2)
    p = x * y
    assert p.value == 6.0
    assert extract_derivative(p, (1, 0)) == 3.0
    assert extract_derivative(p, (0, 1)) == 2.0
    assert extract_derivative(p, (1, 1)) == 1.0


def test_sine_maclaurin():
    (x,) = seed_variables((0.0,), 1, 3)
    s = jets.sin(x)
    assert s.c == pytest.approx([0.0, 1.0, 0.0, -1.0 / 6.0])


def test_extract_constant():
    j = Jet.constant(5.0, 3, 2)
    assert extract_derivative(j, (0, 0, 0)) == 5.0


def test_extract_exp_at_one():
    (x,) = seed_variables((1.0,), 1, 4)
    e = jets.exp(x)
    assert extract_derivative(e, (2,)) == pytest.approx(math.e, rel=1e-14)


def test_extract_quarter_power():
    (r,) = seed_variables((0.0,), 1, 4)
    f = (r + 1.0) ** (-0.25)
    assert f.value == 1.0
    assert extract_derivative(f, (1,)) == pytest.approx(-0.25, abs=1e-15)
    assert extract_derivative(f, (2,)) == pytest.approx(0.3125, abs=1e-15)


def test_extract_beyond_order_raises():
    (x,) = seed_variables((0.0,), 1, 2)
    with pytest.raises(OrderExceededError):
        extract_derivative(x, (3,))


def test_partial_derivative_lowers_order():
    x, y = seed_variables((1.0, 2.0), 2, 3)
    f = x * x * y
    fx = partial_derivative(f, 0)
    assert fx.order == 2
    assert fx.value == 4.0  # 2xy at (1,2)
    assert extract_derivative(fx, (1, 0)) == 4.0  # 2y
    with pytest.raises(OrderExceededError):
        partial_derivative(Jet.constant(1.0, 1, 0), 0)


def test_mixed_order_arithmetic_truncates():
    x, y = seed_variables((1.0, 2.0), 2, 4)
    a = x * y
    b = partial_derivative(a, 0)  # order 3
    c = a + b
    assert c.order == 3


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.lists(coef, min_size=6, max_size=6), st.lists(coef, min_size=6, max_size=6))
def test_polynomial_exactness(ca, cb):
    """Seeds composed through a degree-2 polynomial reproduce all derivatives."""
    x0, y0 = 0.7, -0.4

    def poly(c, x, y):
        return c[0] + c[1] * x + c[2] * y + c[3] * x * x + c[4] * x * y + c[5] * y * y

    x, y = seed_variables((x0, y0), 2, 4)
    p = poly(ca, x, y) * poly(cb, x, y)

    # Independent route: expand the quartic's coefficients numerically and
    # differentiate term by term.
    terms_a = {(0, 0): ca[0], (1, 0): ca[1], (0, 1): ca[2], (2, 0): ca[3], (1, 1): ca[4], (0, 2): ca[5]}
    terms_b = {(0, 0): cb[0], (1, 0): cb[1], (0, 1): cb[2], (2, 0): cb[3], (1, 1): cb[4], (0, 2): cb[5]}
    prod: dict = {}
    for ma, va in terms_a.items():
        for mb, vb in terms_b.items():
            key = (ma[0] + mb[0], ma[1] + mb[1])
            prod[key] = prod.get(key, 0.0) + va * vb

    def deriv(alpha):
        total = 0.0
        for (i, j), v in prod.items():
            if i < alpha[0] or j < alpha[1]:
                continue
            factor = v
            factor *= math.perm(i, alpha[0]) * math.perm(j, alpha[1])
            total += factor * x0 ** (i - alpha[0]) * y0 ** (j - alpha[1])
        return total

    for alpha in ((0, 0), (1, 0), (0, 1), (2, 0), (1, 1), (0, 2), (2, 2), (3, 1)):
        expected = deriv(alpha)
        got = extract_derivative(p, alpha)
        assert got == pytest.approx(expected, rel=1e-12, abs=1e-10)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(st.integers(min_value=0, max_value=10_000))
def test_leibniz_convolution(seed):
    """Product coefficients are the convolution of factor coefficients."""
    rng = np.random.default_rng(seed)
    sp = jet_space(3, 3)
    a = Jet(sp, rng.uniform(-1, 1, sp.size))
    b = Jet(sp, rng.uniform(-1, 1, sp.size))
    p = a * b
    monos = list(sp.index)  # graded order
    for idx, gamma in enumerate(monos):
        total = 0.0
        for ia, ma in enumerate(monos):
            rest = tuple(g - x for g, x in zip(gamma, ma))
            if any(v < 0 for v in rest):
                continue
            total += a.c[ia] * b.c[sp.index[rest]]
        assert p.c[idx] == pytest.approx(total, rel=1e-12, abs=1e-12)


def test_division_roundtrip():
    x, y = seed_variables((0.5, 1.5), 2, 4)
    a = 1.0 + x * y + x * x
    b = 2.0 + jets.sin(y)
    q = (a * b) / b
    assert np.allclose(q.c, a.c, atol=1e-13)


def test_reciprocal_of_zero_raises():
    (x,) = seed_variables((0.0,), 1, 2)
    with pytest.raises(EvalDomainError):
        1.0 / x


def test_log_sqrt_domains():
    (x,) = seed_variables((-1.0,), 1, 2)
    with pytest.raises(EvalDomainError):
        jets.log(x)
    with pytest.raises(EvalDomainError):
        jets.sqrt(x)
    with pytest.raises(EvalDomainError):
        powop(x, 0.5)


def test_integer_powers_allow_negative_base():
    (x,) = seed_variables((-2.0,), 1, 3)
    cube = powop(x, 3)
    assert cube.value == -8.0
    assert extract_derivative(cube, (1,)) == 12.0
    inv = powop(x, -2)
    assert inv.value == pytest.approx(0.25)


def test_power_results_are_finite():
    (x,) = seed_variables((0.3,), 1, 4)
    for p in (-2.5, -1.0, 0.0, 0.5, 3.0, 4.7):
        j = powop(x, p)
        assert np.all(np.isfinite(j.c))


def test_jets_match_sympy_on_smooth_fields():
    """Every derivative through order 4, against sympy's at the same points."""
    rng = np.random.default_rng(11)
    X, Y = sympy.symbols("x y")
    fields = [
        (sympy.sin(X) * sympy.exp(sympy.Rational(0.3) * Y), lambda x, y: jets.sin(x) * jets.exp(0.3 * y)),
        ((X + 2) ** sympy.Rational(1.7) + Y * X, lambda x, y: powop(x + 2.0, 1.7) + y * x),
        (1 / (2 + X * X + Y * Y), lambda x, y: 1.0 / (2.0 + x * x + y * y)),
    ]
    for field, jet_field in fields:
        for _ in range(8):
            pt = tuple(rng.uniform(-0.8, 0.8, 2))
            j = jet_field(*seed_variables(pt, 2, 4))
            for alpha, exact in derivatives(field, (X, Y), pt, 4).items():
                assert extract_derivative(j, alpha) == pytest.approx(float(exact.evalf(30)), rel=1e-12, abs=1e-12)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # inf and nan in the second case
def test_log_of_a_large_value_keeps_its_derivatives():
    """log(r*1e300) has tiny Taylor coefficients although r*1e300 is huge."""
    e = parse("log(r*1e300)", variables=chart_variables(2))
    j = evaluate(e, seed_variables((1.0, 0.5), 2, 4))
    assert j.value == evaluate(e, (1.0, 0.5)) == pytest.approx(690.7755278982137, rel=1e-15)
    assert extract_derivative(j, (1, 0)) == pytest.approx(1.0, rel=1e-15)  # 1/r
    assert extract_derivative(j, (2, 0)) == pytest.approx(-1.0, rel=1e-15)  # -1/r^2
    assert extract_derivative(j, (0, 1)) == 0.0
    # d^2/dr^2 log(1e-300 + r) = -1e600 at r = 0 leaves the float range.
    tiny = parse("log(1e-300 + r)", variables=chart_variables(2))
    with pytest.raises(EvalDomainError, match="log overflows a float") as exc:
        evaluate(tiny, seed_variables((0.0, 0.5), 2, 4))
    assert exc.value.offset == 0


def _reference_product(sp, a, b, keep=lambda ma, mb: True):
    """Each target's products a_i b_j summed from 0.0, ordered by a's monomial, then b's."""
    out = [0.0] * sp.size
    monos = list(sp.index)  # graded order
    for i, ma in enumerate(monos):
        for j, mb in enumerate(monos):
            if sum(ma) + sum(mb) <= sp.order and keep(ma, mb):
                out[sp.index[tuple(x + y for x, y in zip(ma, mb))]] += a[i] * b[j]
    return np.array(out)


def _same_bits(got, want):
    assert np.array_equal(np.signbit(got), np.signbit(want))
    assert got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None, derandomize=True)
@given(st.integers(min_value=1, max_value=3), st.integers(min_value=0, max_value=4), st.data())
def test_every_product_sums_its_pairs_like_the_plain_reference(nvars, order, data):
    """Scalar, batched and contracted products all equal one plain sum per target, bit for bit.

    The sums start from +0.0, so a target whose products are all -0.0 comes
    out +0.0.  A third of the inputs are zeros of either sign, and every
    input is zero above a random degree.
    """
    sp = jet_space(nvars, order)
    degs = [data.draw(st.integers(min_value=0, max_value=order)) for _ in range(2)]
    rng = np.random.default_rng(data.draw(st.integers(min_value=0, max_value=2**32)))
    a, b = rng.uniform(-3.0, 3.0, (2, 3, sp.size))
    for c, deg in zip((a, b), degs):
        c[(rng.random(c.shape) < 0.3) | (sp.degree > deg)] *= 0.0
    outer = np.array([[_reference_product(sp, x.tolist(), y.tolist()) for y in b] for x in a])
    pointwise = np.array([outer[e, e] for e in range(3)])
    ja, jb = Jet(sp, a), Jet(sp, b)
    for e in range(3):
        _same_bits((Jet(sp, a[e]) * Jet(sp, b[e])).c, pointwise[e])
    _same_bits((ja * jb).c, pointwise)
    _same_bits((ja * Jet(sp, b[0])).c, outer[:, 0])
    _same_bits(contract("i,j->ij", a, b, sp.pairs), outer)
    _same_bits(contract("i,i->i", a[:, None], b[:, None], sp.pairs)[:, 0], pointwise)
    for t in range(1, order + 1):

        def in_step(ma, mb):  # |a| >= 1 and a degree-t target
            return sum(ma) > 0 and sum(ma) + sum(mb) == t

        step = sp.step_pairs(t)
        targets = slice(step.lo, step.lo + step.size)
        assert np.all(sp.degree[targets] == t)
        want = [[_reference_product(sp, x.tolist(), y.tolist(), in_step) for y in b] for x in a]
        _same_bits(contract("i,j->ij", a, b, step), np.array(want)[..., targets])
    minus_zero = Jet(sp, np.full(sp.size, -0.0)) * Jet(sp, np.ones(sp.size))
    assert not np.signbit(minus_zero.c[0])


@pytest.mark.filterwarnings("ignore:overflow encountered:RuntimeWarning")
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize(
    "source,r,message,offset",
    [
        ("sqrt(1e-300 + r)", 0.0, "sqrt overflows a float", 0),
        ("exp(1e200*r)", 0.0, "exp overflows a float", 0),
        ("1 + sin(1e200*r)", 0.0, "sin overflows a float", 4),
        ("r/(1e-300 + r)", 0.0, "division overflows a float", 1),
        ("(1e-300 + r)^0.5", 0.0, "power overflows a float", 12),
        ("(1e-300 + r)^-1", 0.0, "power overflows a float", 12),
    ],
)
def test_composition_out_of_float_range_is_a_located_error(source, r, message, offset):
    """A composed jet whose coefficients leave the float range raises, never folds to NaN/inf."""
    e = parse(source, variables=("r",))
    with pytest.raises(EvalDomainError, match=message) as exc:
        evaluate(e, seed_variables((r,), 1, 4))
    assert exc.value.offset == offset


def test_reciprocal_composes_in_the_ratio():
    """1/(r*1e300) at r = 1: the series in t would underflow d/dr to 0."""
    j = evaluate(parse("1/(r*1e300)", variables=("r",)), seed_variables((1.0,), 1, 4))
    assert j.c.tolist() == [1e-300, -1e-300, 1e-300, -1e-300, 1e-300]
    assert extract_derivative(j, (1,)) == -1e-300


def _horner_by_products(j, coefs):
    """sum_k coefs[k] (j - value)^k by Horner's rule, a full jet product at every step."""
    value = 0 if j.c.ndim == 1 else (..., 0)
    tilde_c = j.c.copy()
    tilde_c[value] = 0.0
    tilde = Jet(j.space, tilde_c)
    acc = Jet(j.space, np.zeros(j.c.shape))
    acc.c[value] = coefs[-1]
    for k in range(len(coefs) - 2, -1, -1):
        acc = acc * tilde
        acc.c[value] += coefs[k]
    return acc


@settings(max_examples=60, deadline=None, derandomize=True)
@given(st.lists(coef, min_size=20, max_size=20), st.integers(min_value=0, max_value=3))
def test_composition_equals_horner_by_products_bit_for_bit(cs, deg):
    """Composition scales in its first Horner step; every bit, signed zeros included, is kept."""
    sp = jet_space(2, 3)
    c = np.array(cs).reshape(2, sp.size)
    c[:, sp.degree > deg] = 0.0
    c[:, 0] = [1.0 + abs(cs[0]), -1.0 - abs(cs[10])]  # a negative value gives -0.0s in t/v
    for j in (Jet(sp, c), Jet(sp, c[0]), Jet(sp, c[1])):
        ratio = Jet(sp, j.c / j.c[..., :1])
        for got, base, series in (
            (jets.exp(j), j, _exp_series),
            (jets.sin(j), j, _sin_series),
            (j._reciprocal(), ratio, _reciprocal_series),
        ):
            want = _horner_by_products(base, j._series(series))
            assert got.c.tobytes() == want.c.tobytes()


# Coefficients with both signed zeros, compared by ``tobytes`` so that they count.
signed = st.one_of(st.sampled_from([0.0, -0.0]), coef)


@st.composite
def jet_of(draw, nvars: int, order: int, batch: tuple = ()) -> Jet:
    """A jet whose coefficients are zero above a random degree."""
    sp = jet_space(nvars, order)
    deg = draw(st.integers(min_value=0, max_value=order))
    n = math.prod(batch) * sp.size
    c = np.array(draw(st.lists(signed, min_size=n, max_size=n))).reshape(batch + (sp.size,))
    c[..., sp.degree > deg] = 0.0
    return Jet(sp, c)


def _bits(j: Jet) -> tuple:
    return j.order, j.c.tobytes()


# f(x_i + a) for functions composed by their series; ``positive`` ones need x_i + a > 0.
SEED_FUNCTIONS = {
    "sin": (jets.sin, False),
    "cos": (jets.cos, False),
    "exp": (jets.exp, False),
    "log": (jets.log, True),
    "sqrt": (jets.sqrt, True),
    "x^1.7": (lambda x: powop(x, 1.7), True),
    "x^-0.25": (lambda x: powop(x, -0.25), True),
    "x^-2": (lambda x: powop(x, -2), False),
    "1/x": (lambda x: 1.0 / x, False),
}


def _with_horner_only(fn, *args):
    """``fn(*args)`` with every composition by Horner's rule (``Jet._horner``), none by placement."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Jet, "_seed_position", lambda self: None)
        return fn(*args)


def _counting_products(fn, *args) -> tuple:
    """``fn(*args)`` and the number of jet products it made."""
    products = []
    mul = Jet.__mul__

    def counted(self, other):
        if isinstance(other, Jet):
            products.append(1)
        return mul(self, other)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(Jet, "__mul__", counted)
        mp.setattr(Jet, "__rmul__", counted)
        return fn(*args), len(products)


def _outcome(fn, *args) -> tuple:
    """The bits of ``fn(*args)``, or the type and text of the error it raises."""
    try:
        with np.errstate(all="ignore"):
            return _bits(fn(*args))
    except (OverflowError, EvalDomainError) as err:
        return "error", type(err).__name__, str(err)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(st.data())
def test_a_function_of_a_seed_plus_a_constant_equals_horner_bit_for_bit(data):
    """f(x_i + a) placed from f's series is Horner's jet, every bit, in 1-4 variables at orders 1-4."""
    nvars = data.draw(st.integers(min_value=1, max_value=4), label="nvars")
    order = data.draw(st.integers(min_value=1, max_value=4), label="order")
    batch = data.draw(st.sampled_from([(), (3,)]), label="batch")
    i = data.draw(st.integers(min_value=0, max_value=nvars - 1), label="i")
    name = data.draw(st.sampled_from(sorted(SEED_FUNCTIONS)), label="f")
    fn, positive = SEED_FUNCTIONS[name]
    n = math.prod(batch) * nvars
    point = np.array(data.draw(st.lists(signed, min_size=n, max_size=n))).reshape(batch + (nvars,))
    a = data.draw(st.floats(min_value=3.25, max_value=6.0) if positive else signed, label="a")
    x = seed_variables(point, nvars, order)[i] + a
    got = _outcome(fn, x)
    assert got == _outcome(_with_horner_only, fn, x)
    if name not in ("log", "x^-2", "1/x") and got[0] != "error":  # those compose a ratio, not x
        assert _counting_products(fn, x)[1] == 0


def test_sine_and_cosine_at_zero_place_positive_zeros_as_horner_does():
    """The series of sin and cos at 0 holds -0.0s; placed with ``+ 0.0`` they read +0.0."""
    for batch in ((0.0,), [(0.0,), (0.0,)]):
        (x,) = seed_variables(batch, 1, 4)
        for fn, series in ((jets.sin, _sin_series), (jets.cos, jets._cos_series)):
            assert any(math.copysign(1.0, v) < 0 and v == 0.0 for v in series(0.0, 4))
            got = fn(x)
            assert not np.signbit(got.c[got.c == 0.0]).any()
            assert _bits(got) == _bits(_with_horner_only(fn, x))


@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
def test_a_seed_composition_out_of_range_raises_as_horner_does():
    (x,) = seed_variables((710.0,), 1, 4)
    for compose in (lambda fn, *args: fn(*args), _with_horner_only):
        with pytest.raises(OverflowError, match="^math range error$"):
            compose(jets.exp, x)
        with pytest.raises(EvalDomainError, match=r"^exp overflows a float \(at offset 0\)$"):
            compose(evaluate, parse("exp(r)", variables=("r",)), [x])
        with pytest.raises(OverflowError, match="^composed series overflows a float$"):
            compose(powop, seed_variables((0.0,), 1, 4)[0] + 1e-300, -0.5)


def _seed_product(seeds: list, variables: tuple) -> Jet:
    p = seeds[variables[0]]
    for v in variables[1:]:
        p = p * seeds[v]
    return p


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_placed_monomials_are_seed_products(data):
    """x^alpha placed by Taylor shift is the product of its seeds: every bit to degree 2, 1e-15 above.

    In 1-4 variables at orders 1-4, on one point and a batch, at points
    with signed zeros; a batch entry is its point placed alone, bit for bit.
    """
    nvars = data.draw(st.integers(min_value=1, max_value=4), label="nvars")
    order = data.draw(st.integers(min_value=1, max_value=4), label="order")
    batch = data.draw(st.sampled_from([(), (3,)]), label="batch")
    variable = st.integers(min_value=0, max_value=nvars - 1)
    monomials = tuple(
        tuple(sorted(m)) for m in data.draw(st.lists(st.lists(variable, min_size=1, max_size=4), min_size=1, max_size=5))
    )
    n = math.prod(batch) * nvars
    points = np.array(data.draw(st.lists(signed, min_size=n, max_size=n))).reshape(batch + (nvars,))
    size = jet_space(nvars, order).size
    out = np.zeros((len(monomials),) + batch + (size,))
    jets.place_monomials(out, points, monomials)
    seeds = seed_variables(points, nvars, order)
    for k, variables in enumerate(monomials):
        want = _seed_product(seeds, variables).c
        if len(variables) <= 2:
            assert out[k].tobytes() == want.tobytes(), variables
        else:
            assert np.all(np.abs(out[k] - want) <= 1e-15 * np.abs(want)), variables
    for i in np.ndindex(batch):
        alone = np.zeros((len(monomials), size))
        jets.place_monomials(alone, points[i], monomials)
        assert alone.tobytes() == out[(slice(None),) + i].tobytes()


@pytest.mark.parametrize("order", [2, 3, 4])
def test_other_arguments_compose_by_horner_products(order):
    """Only a seed plus a constant is placed: Horner makes order - 1 products for anything else."""
    x0, x1 = seed_variables((0.5, 0.25), 2, order)
    for arg in (2 * x0, x0 + x1, x0 * x0 + 1):
        assert _counting_products(jets.exp, arg)[1] == order - 1
    # 1/(x0 + 2) composes 1/(1 + u) in the ratio u = (x0 - 0.5)/2.5, not in a seed.
    assert _counting_products(lambda x: x._reciprocal(), x0 + 2.0)[1] == order - 1
    assert _counting_products(jets.exp, x0 + 2.0)[1] == 0
    # A batch of x0 + 2 and x1 + 2 is a seed at each entry, but not the same one.
    mixed = Jet(x0.space, np.stack([(x0 + 2.0).c, (x1 + 2.0).c]))
    got, products = _counting_products(jets.exp, mixed)
    assert products == order - 1
    assert [got.c[0].tobytes(), got.c[1].tobytes()] == [jets.exp(x0 + 2.0).c.tobytes(), jets.exp(x1 + 2.0).c.tobytes()]


def test_a_seed_is_recognised_by_its_coefficients():
    """Placed where the degree-1 block is e_p and every higher coefficient is 0 at every entry, else Horner."""
    x0, x1 = seed_variables((0.5, 0.0), 2, 3)
    curved = x0 + 0.5 * x1 * x1 + 2.0  # a unit degree-1 block at x1 = 0, and x1^2 above it
    mixed = Jet(x0.space, np.stack([(x0 + 2.0).c, curved.c]))  # entries that differ above degree 1
    for arg in (curved, mixed):
        assert arg._seed_position() is None
        got, products = _counting_products(jets.exp, arg)
        assert products == 2 and _bits(got) == _bits(_with_horner_only(jets.exp, arg))
    assert [got.c[0].tobytes(), got.c[1].tobytes()] == [jets.exp(x0 + 2.0).c.tobytes(), jets.exp(curved).c.tobytes()]
    for seed in (x0 + 2.0, x1 - 0.25, seed_variables([(0.5, 0.0), (-0.5, 1.0)], 2, 3)[1] + 2.0):
        rebuilt = Jet(seed.space, seed.c.copy())  # built from its coefficients alone
        got, products = _counting_products(jets.exp, rebuilt)
        assert products == 0 and _bits(got) == _bits(_with_horner_only(jets.exp, rebuilt))
        assert _bits(got) == _bits(jets.exp(seed))


def _power_by_products(j: Jet, k: int) -> Jet:
    """j^k by squaring, full products chained from the constant 1, then 1/x for k < 0.

    A nonzero value whose positive power underflows to 0 raises, as
    :func:`powop` does.
    """
    acc, sq, n = Jet.constant(1.0, j.nvars, j.order), j, abs(k)
    while n:
        if n & 1:
            acc = acc * sq
        n >>= 1
        if n:
            sq = sq * sq
    if k >= 0:
        return acc
    if np.any((acc.c[..., 0] == 0.0) & (j.c[..., 0] != 0.0)):
        raise OverflowError("integer power overflows a float")
    return acc._reciprocal()


@settings(max_examples=300, deadline=None, derandomize=True)
@given(st.data())
def test_integer_powers_equal_full_products_from_the_constant_one_bit_for_bit(data):
    """powop(j, k) for k in -3..5 starts from the first power it needs and keeps every bit.

    In 1-3 variables at orders 0-4, on one point and a batch, with both
    signed zeros: x^1 turns -0.0s into +0.0s as a product with 1 does.
    """
    nvars = data.draw(st.integers(min_value=1, max_value=3), label="nvars")
    order = data.draw(st.integers(min_value=0, max_value=4), label="order")
    batch = data.draw(st.sampled_from([(), (2,)]), label="batch")
    j = data.draw(jet_of(nvars, order, batch))
    k = data.draw(st.integers(min_value=-3, max_value=5), label="k")
    assert _outcome(powop, j, k) == _outcome(_power_by_products, j, k)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.data())
def test_subtraction_equals_the_difference_formulas_bit_for_bit(data):
    """a - b, a - s and s - a equal the aligned c_a - c_b, c[..., 0] - s and -c plus s."""
    nvars = data.draw(st.integers(min_value=1, max_value=3))
    batch = data.draw(st.sampled_from([(), (2,)]))
    a = data.draw(jet_of(nvars, data.draw(st.integers(min_value=0, max_value=4)), batch))
    b = data.draw(jet_of(nvars, data.draw(st.integers(min_value=0, max_value=4)), batch))
    s = data.draw(st.one_of(signed, st.integers(min_value=-3, max_value=3)))
    m = min(a.order, b.order)
    size = jet_space(nvars, m).size
    want = a.c[..., :size] - b.c[..., :size]
    assert _bits(a - b) == (m, want.tobytes())
    want = a.c.copy()
    want[..., 0] -= s
    assert _bits(a - s) == (a.order, want.tobytes())
    want = -a.c
    want[..., 0] += s
    assert _bits(s - a) == (a.order, want.tobytes())


@settings(max_examples=120, deadline=None, derandomize=True)
@given(st.data())
def test_a_batch_of_two_equals_each_entry_alone_bit_for_bit(data):
    """Pins the single-point fast paths against the batch code."""
    nvars = data.draw(st.integers(min_value=1, max_value=3))
    order = data.draw(st.integers(min_value=1, max_value=4))
    a = data.draw(jet_of(nvars, order, (2,)))
    b = data.draw(jet_of(nvars, data.draw(st.integers(min_value=0, max_value=4)), (2,)))
    pos = Jet(a.space, a.c.copy())
    pos.c[:, 0] = 0.5 + np.abs(a.c[:, 0])  # in the domain of log and sqrt
    s = data.draw(st.one_of(signed, st.integers(min_value=-3, max_value=3)))
    var = data.draw(st.integers(min_value=0, max_value=nvars - 1))
    ops = {
        "a + b": lambda a, b, p: a + b,
        "a - b": lambda a, b, p: a - b,
        "a * b": lambda a, b, p: a * b,
        "-a": lambda a, b, p: -a,
        "a + s": lambda a, b, p: a + s,
        "s + a": lambda a, b, p: s + a,
        "a - s": lambda a, b, p: a - s,
        "s - a": lambda a, b, p: s - a,
        "sin": lambda a, b, p: jets.sin(a),
        "exp": lambda a, b, p: jets.exp(a),
        "log": lambda a, b, p: jets.log(p),
        "sqrt": lambda a, b, p: jets.sqrt(p),
        "partial": lambda a, b, p: partial_derivative(a, var),
    }
    entries = [[Jet(j.space, j.c[i]) for j in (a, b, pos)] for i in range(2)]
    for name, op in ops.items():
        batched = op(a, b, pos)
        for i, entry in enumerate(entries):
            alone = op(*entry)
            assert alone.c.ndim == 1, name
            got = (batched.order, batched.c[i].tobytes())
            assert got == _bits(alone), name
    points = np.array(data.draw(st.lists(signed, min_size=2 * nvars, max_size=2 * nvars)))
    points = points.reshape(2, nvars)
    seeds = seed_variables(points, nvars, order)
    for i in range(2):
        for batched, alone in zip(seeds, seed_variables(points[i], nvars, order)):
            assert batched.c[i].tobytes() == alone.c.tobytes()
            assert alone.c.ndim == 1 and isinstance(alone.value, float)


# -- kernel plans -----------------------------------------------------------------


def _package_subscripts() -> list[str]:
    """Every subscripts string the package passes to ``contract``.

    The literals come from the source; ``cov_derivative`` builds its own,
    recorded here on tensors of rank 1 to 3.
    """
    found = set()
    for path in Path(skewdiv.__file__).parent.glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Call) and ast.unparse(node.func) == "contract":
                if isinstance(node.args[0], ast.Constant):
                    found.add(node.args[0].value)
    sp = jet_space(3, 2)

    def recorded(subscripts, A, B, pairs):
        found.add(subscripts)
        return contract(subscripts, A, B, pairs)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(geometry, "contract", recorded)
        mp.setattr(jets, "_PLANS", {})
        for rank in (1, 2, 3):
            geometry.cov_derivative(np.ones((3,) * rank + (sp.size,)), np.ones((3, 3, 3, sp.size)))
    return sorted(found)


def _coefficients(rng, shape):
    """Uniform coefficients, a third of them zeros of either sign."""
    c = rng.uniform(-3.0, 3.0, shape)
    c[rng.random(shape) < 0.3] *= 0.0
    return c


def _contract_cases() -> list[tuple]:
    """``(subscripts, A, B, pairs)`` for each package subscripts string, batch shape and table."""
    rng = np.random.default_rng(24)
    sp = jet_space(2, 3)
    p = sp.pairs
    tables = [p, jet_space(2, 2).pairs, p.where((sp.degree[p.ia] <= 1) & (sp.degree[p.ib] <= 2), 0, sp.size)]
    tables += [sp.step_pairs(t) for t in (1, 2, 3)]
    cases = []
    for subscripts in _package_subscripts():
        a, b = subscripts.split("->")[0].split(",")
        dims = {c: 2 + i % 2 for i, c in enumerate(dict.fromkeys(a + b))}
        for batch in ((), (2,), (1, 2)):
            for pairs in tables:
                A = _coefficients(rng, batch + tuple(dims[c] for c in a) + (sp.size,))
                B = _coefficients(rng, batch + tuple(dims[c] for c in b) + (sp.size,))
                cases.append((subscripts, A, B, pairs))
    return cases


def _cold(fn, *args):
    """``fn(*args)`` with an empty plan cache."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(jets, "_PLANS", {})
        return fn(*args)


def _plan_arrays(plan) -> list[np.ndarray]:
    return [plan] if isinstance(plan, np.ndarray) else [x for x in plan if isinstance(x, np.ndarray)]


def _assert_warm_equals_cold(calls, cold):
    """Two passes over ``calls`` in one cache: the first fills it, the second only reads it."""
    for warm_pass in range(2):
        before = dict(jets._PLANS)
        for (fn, args), want in zip(calls, cold):
            _same_bits(fn(*args), want)
        if warm_pass:
            assert jets._PLANS.keys() == before.keys()
            assert all(jets._PLANS[key] is plan for key, plan in before.items())
    assert jets._PLANS
    for plan in jets._PLANS.values():
        arrays = _plan_arrays(plan)
        assert arrays and not any(x.flags.writeable for x in arrays)


def test_the_plan_cases_cover_every_package_subscripts_string():
    subscripts = _package_subscripts()
    assert {",p->p", "a,a->", "mip,pjs->mijs", "lia,l->ia", "lic,abl->iabc"} <= set(subscripts)


def _entry(T: np.ndarray, rank: int) -> np.ndarray:
    """Batch entry 1 of ``T``, a batch of rank-``rank`` coefficient tensors."""
    return T.reshape((-1,) + T.shape[T.ndim - 1 - rank :])[1]


def test_contract_plans_give_the_cold_result_warm(monkeypatch):
    """Bit for bit, on batched and single operands, C and Fortran layouts, full and step tables.

    Every case shares one cache, so a key that missed what tells two cases
    apart would hand one the other's plan.  A batch entry also equals its
    point alone.
    """
    calls, cold = [], []
    for subscripts, A, B, pairs in _contract_cases():
        want = _cold(contract, subscripts, A, B, pairs)
        for layout in (np.ascontiguousarray, np.asfortranarray):
            calls.append((contract, (subscripts, layout(A), layout(B), pairs)))
            cold.append(want)
        (a, b), out = (x.split(",") for x in subscripts.split("->"))
        if A.ndim > len(a) + 1:
            calls.append((contract, (subscripts, _entry(A, len(a)), _entry(B, len(b)), pairs)))
            cold.append(_entry(want, len(out[0])))
    monkeypatch.setattr(jets, "_PLANS", {})
    _assert_warm_equals_cold(calls, cold)


def test_partials_plans_give_the_cold_result_warm(monkeypatch):
    """Bit for bit against ``np.moveaxis(T[..., src] * fac, -2, batch)``, cold and warm."""
    rng = np.random.default_rng(24)
    calls, cold = [], []
    for nvars in (1, 2, 3):
        for order in (1, 2, 4):
            sp = jet_space(nvars, order)
            for batch in ((), (2,), (2, 3)):
                for rank in (0, 1, 2):
                    T = _coefficients(rng, batch + (nvars,) * rank + (sp.size,))
                    want = np.moveaxis(T[..., sp.diff_src] * sp.diff_fac, -2, len(batch))
                    _same_bits(_cold(partials, T, nvars, len(batch)), want)
                    for layout in (np.ascontiguousarray, np.asfortranarray):
                        calls.append((partials, (layout(T), nvars, len(batch))))
                        cold.append(want)
    monkeypatch.setattr(jets, "_PLANS", {})
    _assert_warm_equals_cold(calls, cold)


def test_a_call_that_fails_its_plan_raises_every_time_and_keeps_nothing(monkeypatch):
    monkeypatch.setattr(jets, "_PLANS", {})
    sp = jet_space(2, 2)
    for _ in range(2):
        with pytest.raises(ValueError, match="batch shapes"):
            contract("i,i->i", np.ones((2, 3, sp.size)), np.ones((3, 3, sp.size)), sp.pairs)
        with pytest.raises(ValueError, match="batch shapes"):
            Jet(sp, np.ones((2, sp.size))) * Jet(sp, np.ones((3, sp.size)))
        with pytest.raises(OrderExceededError):
            partials(np.ones((2, 1)), 2)
        with pytest.raises(ValueError, match="fit no jet order"):
            partials(np.ones((2, 4)), 2)
        with pytest.raises(ValueError, match="batch axes"):
            partials(np.ones((2, sp.size)), 2, 2)
    assert jets._PLANS == {}


def _held() -> int:
    return sum(plan.nbytes for plan in jets._PLANS.values())


def test_plans_of_many_shapes_never_hold_more_than_the_bound(monkeypatch):
    """Misses that would pass 1 MiB empty the cache first; a plan over 1 MiB alone is not kept."""
    monkeypatch.setattr(jets, "_PLANS", {})
    sp = jet_space(4, 4)
    held, counts = [], []
    for k in range(1, 25):
        c = _coefficients(np.random.default_rng(k), (k, 4, sp.size))
        outer = contract("i,j->ij", c, c, sp.pairs)  # 62 KiB of index per batch entry
        _same_bits(outer, _cold(contract, "i,j->ij", c, c, sp.pairs))
        _same_bits(partials(c, 4, 1), np.moveaxis(c[..., sp.diff_src] * sp.diff_fac, -2, 1))
        _same_bits((Jet(sp, c[:, 0]) * Jet(sp, c[:, 1])).c, outer[:, 0, 1])
        held.append(_held())
        counts.append(len(jets._PLANS))
    assert 0 < max(held) <= jets._PLAN_BYTES == 2**20
    assert any(b < a for a, b in zip(counts, counts[1:])), "the cache was never emptied"
    kept = dict(jets._PLANS)
    big = np.ones((40, 4, sp.size))
    contract("i,j->ij", big, big, sp.pairs)  # a 2.4 MiB index: used, neither kept nor evicting
    assert jets._PLANS.keys() == kept.keys()
    for plan in jets._PLANS.values():
        assert not any(x.flags.writeable for x in _plan_arrays(plan))


def test_plans_shared_by_threads_keep_every_result_and_the_bound(monkeypatch):
    """The module docstring promises thread safety: 8 threads, more than the cores, with the
    cache bound cut to a few plans so that misses and clears interleave."""
    cases = _contract_cases()[::5]
    cold = [_cold(contract, *case).tobytes() for case in cases]
    monkeypatch.setattr(jets, "_PLANS", {})
    monkeypatch.setattr(jets, "_PLAN_BYTES", 2**14)
    errors = []

    def work(offset):
        try:
            for i in range(30 * len(cases)):
                j = (7 * i + offset) % len(cases)
                if contract(*cases[j]).tobytes() != cold[j]:
                    errors.append(f"case {j}")
                with jets._PLANS_LOCK:
                    if _held() > jets._PLAN_BYTES:
                        errors.append(f"held {_held()}")
        except Exception as err:  # a dead thread would otherwise pass unseen
            errors.append(repr(err))

    threads = [threading.Thread(target=work, args=(offset,)) for offset in range(8)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
