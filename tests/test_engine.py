"""Checks of the coefficient-array jet engine that need no timing.

* exact laws: constant rescaling of the metric, g g^-1 = I coefficientwise;
* the positive-definiteness check is scale-free and rejects non-finite input;
* the tensor pipeline performs no scalar ``Jet`` products of its own;
* a batch of points gives each point's single-point analysis, and analysis
  at the value order agrees with analysis at the default order;
* expressions walked once over a batch give each point's jets bit for bit,
  and a failing batch raises the first failing point's own error;
* op-count gate: a verify walks only lambda(f) and forms each field's
  monomials once;
* random polynomials are built as their sources parse, and g^-1 forms
  only each Horner step's new coefficients.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewdiv.cli import run_verify
from skewdiv.errors import EvalDomainError, NonPositiveDefiniteError, SkewdivError
from skewdiv.expr import Binary, Num, chart_variables, evaluate, parse, to_source
from skewdiv.geometry import MetricField, MetricJets, ScalarField
from skewdiv.identities import bochner_residual
from skewdiv.jets import Jet, contract, jet_space, seed_variables
from skewdiv.ptensor import VALUE_ORDER, PointAnalysis, PTensorSpec, analyze
from skewdiv.scenarios import BUILTIN_NAMES, builtin_scenario, random_scenario
from skewdiv.warped import WarpedSpec, ptensor_spec


def scaled_metric(metric: MetricField, s: float) -> MetricField:
    """The metric s*g, built on the same expression trees."""
    rows = [[Binary("*", Num(s), e) for e in row] for row in metric.exprs]
    return MetricField(metric.dim, rows, metric.params)


@settings(max_examples=30, deadline=None, derandomize=True)
@given(
    seed=st.integers(min_value=0, max_value=10**6),
    dim=st.sampled_from([3, 4]),
    s=st.floats(min_value=1e-5, max_value=1e3),
)
def test_norms_scale_as_inverse_fifth_power(seed, dim, s):
    """|grad P|^2 and |div P|^2 of s*g are s^-5 times those of g (s constant)."""
    sc = random_scenario(seed, dim)
    pt = sc.grid_points()[0]
    base = PointAnalysis(sc.spec(), pt)
    spec = PTensorSpec(
        lam=sc.lam, f=sc.f, metric=scaled_metric(sc.metric, s), lam_params=sc.params
    )
    scaled = PointAnalysis(spec, pt)
    factor = s**-5
    assert scaled.nabla_p_norm_sq == pytest.approx(factor * base.nabla_p_norm_sq, rel=1e-12)
    assert scaled.div_p_norm_sq == pytest.approx(factor * base.div_p_norm_sq, rel=1e-12)


@pytest.mark.parametrize("dim,seed,s", [(3, 4, 1.0), (4, 2, 1e-5), (3, 6, 1e3)])
def test_metric_times_inverse_is_identity(dim, seed, s):
    sc = random_scenario(seed, dim)
    mj = MetricJets(scaled_metric(sc.metric, s), sc.grid_points()[-1])
    ident = contract("il,lj->ij", mj.g, mj.ginv, jet_space(dim, mj.order))
    ident[..., 0] -= np.eye(dim)
    assert np.max(np.abs(ident)) < 1e-12


def test_positive_definiteness_is_scale_free():
    tiny = MetricField.parse([["1e-5", "0", "0"], ["0", "1e-5", "0"], ["0", "0", "1e-5"]])
    MetricJets(tiny, (0.5, 0.5, 0.5))
    indefinite = MetricField.parse([["1e-5", "0", "0"], ["0", "-1e-5", "0"], ["0", "0", "1e-5"]])
    with pytest.raises(NonPositiveDefiniteError):
        MetricJets(indefinite, (0.5, 0.5, 0.5))


@pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning")  # inf * 0 in jets
@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
def test_non_finite_metric_fails_and_names_the_point(value):
    m = MetricField.parse(
        [["a*(1 + r)", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], {"a": value}
    )
    for evaluate_at in (m.component_jets, m.component_values):
        with pytest.raises(NonPositiveDefiniteError, match=r"\(0\.5, 0\.25, 0\.125\)"):
            evaluate_at((0.5, 0.25, 0.125))


def test_metric_parse_shares_symmetric_entries():
    m = random_scenario(3, 4).metric
    assert all(m.exprs[i][j] is m.exprs[j][i] for i in range(4) for j in range(4))
    assert len({id(e) for row in m.exprs for e in row}) == 10
    src = m.sources()
    assert all(src[i][j] == src[j][i] for i in range(4) for j in range(4))


@pytest.mark.parametrize("dim", [3, 4])
def test_tensor_pipeline_makes_no_scalar_jet_products(dim, monkeypatch):
    """Only expression evaluation multiplies scalar jets; tensors use contract."""
    sc = random_scenario(7, dim)
    spec = sc.spec()
    pt = sc.grid_points()[0]
    calls = []
    mul = Jet.__mul__

    def counted(self, other):
        calls.append(1)
        return mul(self, other)

    monkeypatch.setattr(Jet, "__mul__", counted)
    monkeypatch.setattr(Jet, "__rmul__", counted)

    spec.metric.component_jets(pt)
    evaluate(spec.lam, [spec.f.jet(pt)], spec.lam_params)
    expression_products = len(calls)
    assert expression_products > 0

    calls.clear()
    an = PointAnalysis(spec, pt)
    an.violation
    bochner_residual(spec, pt, analysis=an)
    assert len(calls) == expression_products


BATCH_SCENARIOS = [
    builtin_scenario(name) for name in BUILTIN_NAMES if name != "random-curved"
] + [random_scenario(seed, dim) for dim in (3, 4) for seed in (0, 1, 7)]


def _rel_dev(got, want) -> float:
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    return float(np.max(np.abs(got - want) / np.maximum(1.0, np.abs(want)), initial=0.0))


@pytest.mark.parametrize("sc", BATCH_SCENARIOS, ids=lambda sc: sc.name)
def test_batched_analysis_equals_single_points(sc):
    """One batched PointAnalysis over the grid gives every point's own analysis."""
    spec = sc.spec()
    points = sc.grid_points()
    batch = PointAnalysis(spec, points)
    boch = bochner_residual(spec, points, analysis=batch)
    worst = {}
    for i, pt in enumerate(points):
        one = PointAnalysis(spec, pt)
        one_boch = bochner_residual(spec, pt, analysis=one)
        for name in ("P", "nabla_P", "div_P", "nabla_p_norm_sq", "div_p_norm_sq"):
            got = np.asarray(getattr(batch, name))[i]
            assert got.shape == np.shape(getattr(one, name))
            worst[name] = max(worst.get(name, 0.0), _rel_dev(got, getattr(one, name)))
        for name in ("lhs", "rhs", "rel_residual"):
            got = getattr(boch, name)[i]
            worst[name] = max(worst.get(name, 0.0), _rel_dev(got, getattr(one_boch, name)))
        assert boch.point[i] == one.point
    largest = max(worst, key=worst.get)
    assert worst[largest] <= 1e-13, f"largest deviation {worst[largest]:.3g} in {largest}"


def test_single_point_keeps_unbatched_shapes():
    sc = random_scenario(7, 4)
    an = PointAnalysis(sc.spec(), sc.grid_points()[0])
    assert an.P.shape == (4, 4, jet_space(4, 2).size)
    assert an.nabla_P_val.shape == (4, 4, 4)
    for value in (an.p_norm_sq, an.violation, an.mj.curvature.scalar):
        assert type(value) is float
    assert type(bochner_residual(sc.spec(), an.point, analysis=an).rel_residual) is float


def test_batch_names_the_first_non_positive_definite_point():
    m = MetricField.parse([["1", "0", "0"], ["0", "1 - r", "0"], ["0", "0", "1"]])
    points = [(0.5, 0.0, 0.0), (1.5, 0.25, 0.0), (2.5, 0.0, 0.0)]
    with pytest.raises(NonPositiveDefiniteError, match=r"\(1\.5, 0\.25, 0\.0\)"):
        MetricJets(m, points)


VALUE_ORDER_CASES = [
    (
        ptensor_spec(WarpedSpec.canonical(4.5, 0.7, lam="1 + f*f")),
        builtin_scenario("warped-canonical").grid_points(),
    ),
    *[(sc.spec(), sc.grid_points()) for sc in (random_scenario(s, 4) for s in (0, 1, 7))],
]


@pytest.mark.parametrize("spec,points", VALUE_ORDER_CASES)
def test_value_order_matches_default_order(spec, points):
    """analyze needs only order 3; order 4 gives the same values."""
    low = analyze(spec, points)
    high = analyze(spec, points, order=4)
    assert VALUE_ORDER == 3
    for name in ("P", "nabla_P", "div_P", "nabla_p_norm_sq", "div_p_norm_sq", "violation"):
        assert _rel_dev(getattr(low, name), getattr(high, name)) <= 1e-12, name


FUNCTIONS_SPEC = PTensorSpec(
    lam=parse("exp(f/4) + f^2 / (1 + f*f)", variables=("f",)),
    # At r = 0.2 the exponent's jet is the constant 2.5, at r = 0.8 it is not.
    f=ScalarField.parse("r^2.5 + x1*x2^3 - log(1 + r*x2) + x1^((r - 0.2)^5 + 2.5)", 3),
    metric=MetricField.parse(
        [
            ["2 + sin(r)*x1", "0.1*cos(x2)", "0"],
            ["0.1*cos(x2)", "exp(r/3)", "0.1/(2 + x1)"],
            ["0", "0.1/(2 + x1)", "sqrt(1 + r*r) + log(2 + x2)^2"],
        ]
    ),
)
EXPRESSION_CASES = [(sc.spec(), sc.grid_points()) for sc in BATCH_SCENARIOS] + [
    VALUE_ORDER_CASES[0],
    (FUNCTIONS_SPEC, [(r, x, y) for r in (0.2, 0.8) for x in (0.3, 0.9) for y in (0.1, 0.6)]),
]


@pytest.mark.parametrize("spec,points", EXPRESSION_CASES)
def test_batched_expressions_equal_single_points(spec, points):
    """Each expression walked once over the grid gives each point's jets, bit for bit."""
    one = [PointAnalysis(spec, pt) for pt in points]
    batch = PointAnalysis(spec, points)
    single = {
        "g": np.stack([spec.metric.component_jets(pt) for pt in points]),
        "f": np.stack([spec.f.jet(pt).c for pt in points]),
        "lam_f": np.stack([an.lam_f for an in one]),
    }
    batched = {
        "g": spec.metric.component_jets(points),
        "f": spec.f.jet(points).c,
        "lam_f": batch.lam_f,
    }
    for name, want in single.items():
        got = batched[name]
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    assert batch.mj.g.tobytes() == single["g"].tobytes()


def test_batch_error_is_the_first_failing_point():
    """A batch raises what the first failing point raises alone, never an array."""

    def error(fn, *args):
        with pytest.raises(SkewdivError) as exc:
            fn(*args)
        return type(exc.value), str(exc.value), getattr(exc.value, "offset", None)

    f = ScalarField.parse("log(r - 0.5)", 3)
    points = [(r, 0.0, 0.0) for r in (0.0, 0.5, 1.0)]  # r:0:1:3
    want = error(f.jet, points[0])
    assert want == (EvalDomainError, "log of nonpositive value -0.5 (at offset 0)", 0)
    assert error(f.jet, points) == want

    # Entry (0,1) fails only at point 2, entry (1,1) only at point 1.
    m = MetricField.parse(
        [["1", "0.1*log(1.5 - r)", "0"], ["0.1*log(1.5 - r)", "1 + log(x1)", "0"], ["0", "0", "1"]]
    )
    points = [(0.5, 1.0, 0.0), (0.5, 0.0, 0.0), (1.75, 1.0, 0.0)]
    want = error(m.component_jets, points[1])
    assert "log of nonpositive value 0.0" in want[1]
    assert error(m.component_jets, points) == want
    assert error(MetricJets, m, points) == want

    f = ScalarField.parse("sqrt(r + 1e-300)", 3)
    points = [(1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.5, 0.0, 0.0)]
    with np.errstate(all="ignore"):
        want = error(f.jet, points[1])
        assert want == (EvalDomainError, "sqrt overflows a float (at offset 0)", 0)
        assert error(f.jet, points) == want

    m = MetricField.parse([["1", "0", "0"], ["0", "1 - r", "0"], ["0", "0", "1"]])
    points = [(0.5, 0.0, 0.0), (0.25, 0.0, 0.0), (2.5, 0.0, 0.5)]
    want = error(m.component_jets, points[2])
    assert want[:2] == (
        NonPositiveDefiniteError,
        "metric is not positive definite at (2.5, 0.0, 0.5): Cholesky factorization fails",
    )
    assert error(MetricJets, m, points) == want


def test_verify_walks_each_expression_once(monkeypatch):
    """Op-count gate: one verify of a 4-point 4-D grid walks one tree and forms 20 field products.

    The 10 metric entries and f are polynomials in the x_i and x_i*x_j: their
    terms read the seeds, and each field forms its 10 monomials x_i*x_j once
    (a product of two seeds, degree 1 each, at (4 variables, order 4) forms
    25 coefficient pairs).  Only lambda(f) is walked; its own products
    (f*f, or three Horner steps of exp) come on top.
    """
    calls, products = [], []

    def counted(e, point, params=None):
        calls.append(e)
        return evaluate(e, point, params)

    def multiplied(self, other):
        products.append(1)
        return mul(self, other)

    for mod in [m for name, m in sys.modules.items() if name.startswith("skewdiv.")]:
        if getattr(mod, "evaluate", None) is evaluate:
            monkeypatch.setattr(mod, "evaluate", counted)
    mul = Jet.__mul__
    monkeypatch.setattr(Jet, "__mul__", multiplied)
    monkeypatch.setattr(Jet, "__rmul__", multiplied)
    for seed, lam, lam_products in [(0, "1", 0), (1, "f", 0), (2, "1 + f*f", 1), (3, "exp(f/4)", 3)]:
        calls.clear()
        products.clear()
        sc = random_scenario(seed, 4)
        assert len(sc.grid_points()) == 4 and sc.lam_src == lam
        run_verify(sc)
        assert calls == [sc.lam]
        assert len(products) == 20 + lam_products

    sp = jet_space(4, 4)
    x, y = seed_variables(sc.grid_points()[0], 4, 4)[:2]
    ia, ib, ic, deg = sp.product_pairs[x.deg][y.deg]
    assert (ia.size, deg) == (25, 2)


@pytest.mark.parametrize("dim", [3, 4])
def test_random_polynomials_are_their_parsed_sources(dim):
    """Every tree random_scenario builds is what parse gives for its printed source, offsets included."""

    def exact(e):
        return (type(e).__name__,) + tuple(exact(x) if isinstance(x, tuple) else x for x in e)

    names = chart_variables(dim)
    for seed in range(32):
        sc = random_scenario(seed, dim)
        for e in [e for row in sc.metric.exprs for e in row] + [sc.f.expr]:
            assert exact(parse(to_source(e), variables=names)) == exact(e)


def _ginv_every_coefficient(mj: MetricJets) -> np.ndarray:
    """The Neumann series with each Horner step run at its own order over all coefficients."""
    n = mj.dim
    g0inv = np.linalg.inv(mj.g_val)
    m = -np.einsum("...ijZ,...jk->...ikZ", mj.g, g0inv)
    m[..., 0] = 0.0
    eye = np.zeros_like(m)
    eye[..., 0] = np.eye(n)
    series = eye + m
    for t in range(2, mj.order + 1):
        sp = jet_space(n, t)
        series[..., : sp.size] = eye[..., : sp.size] + contract("ij,jk->ik", m, series, sp)
    return np.einsum("...ij,...jkZ->...ikZ", g0inv, series)


def test_ginv_forms_only_each_steps_new_coefficients():
    """Step t forms the degree-t coefficients alone, bit for bit as the full step, per batch entry."""
    assert [jet_space(4, 4).step_pairs(t).pair_a.size for t in (2, 3, 4)] == [26, 100, 295]
    assert jet_space(4, 4).mul_ia.size == 495
    for sc in BATCH_SCENARIOS:
        points = sc.grid_points()
        for order in (2, 3, 4):
            batch = MetricJets(sc.metric, points, order)
            assert batch.ginv.tobytes() == _ginv_every_coefficient(batch).tobytes()
            for i, pt in enumerate(points):
                assert MetricJets(sc.metric, pt, order).ginv.tobytes() == batch.ginv[i].tobytes()
