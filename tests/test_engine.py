"""Checks of the coefficient-array jet engine that need no timing.

* exact laws: constant rescaling of the metric, g g^-1 = I coefficientwise;
* the positive-definiteness check is scale-free and rejects non-finite input;
* the tensor pipeline performs no scalar ``Jet`` products of its own;
* a batch of points gives each point's single-point analysis, and analysis
  at the value order agrees with analysis at the default order;
* expressions walked once over a batch give each point's jets bit for bit,
  and a failing batch raises the first failing point's own error;
* op-count gate: a random verify parses only f and lambda, builds no metric
  tree, walks only lambda(f) and forms each field's monomials once;
* work gate: a verify-4d op forms a pinned number of ``contract`` pairs and
  builds g no higher than the order its readers use, and the cut jets give
  every value a check reads bit for bit as jets at f's order;
* random polynomials are built as their sources parse, a random metric
  carries its sources' lowered terms and gives their jets bit for bit, and
  g^-1 forms only each Horner step's new coefficients.
"""

import math
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewdiv.cli import run_verify
from skewdiv.identities import static_residual
from skewdiv.errors import EvalDomainError, NonPositiveDefiniteError, SkewdivError
from skewdiv.expr import Binary, Num, TermTable, _terms, chart_variables, evaluate, parse, to_source
from skewdiv.geometry import MetricField, MetricJets, ScalarField, upper_indices
from skewdiv.identities import bochner_residual
from skewdiv.jets import (
    DEFAULT_ORDER,
    Jet,
    as_coefficients,
    contract,
    jet_order,
    jet_space,
    seed_variables,
)
from skewdiv.ptensor import VALUE_ORDER, PointAnalysis, PTensorSpec, analyze, cyclic_residual
from skewdiv.report import report_to_json
from skewdiv.scenarios import BUILTIN_NAMES, builtin_scenario, random_scenario
from skewdiv.warped import WarpedSpec, ptensor_spec

from checks import cpe_residual, expression_jets, grad_f_val, grad_p_norm_sq_val, traceless_ricci


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
    spec = PTensorSpec(lam=sc.lam, f=sc.f, metric=scaled_metric(sc.metric, s))
    scaled = PointAnalysis(spec, pt)
    factor = s**-5
    assert scaled.nabla_p_norm_sq == pytest.approx(factor * base.nabla_p_norm_sq, rel=1e-12)
    assert scaled.div_p_norm_sq == pytest.approx(factor * base.div_p_norm_sq, rel=1e-12)


@pytest.mark.parametrize("dim,seed,s", [(3, 4, 1.0), (4, 2, 1e-5), (3, 6, 1e3)])
def test_metric_times_inverse_is_identity(dim, seed, s):
    sc = random_scenario(seed, dim)
    mj = MetricJets(scaled_metric(sc.metric, s), sc.grid_points()[-1])
    ident = contract("il,lj->ij", mj.g, mj.ginv, jet_space(dim, mj.order).pairs)
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
    with pytest.raises(NonPositiveDefiniteError, match=r"\(0\.5, 0\.25, 0\.125\)"):
        m.component_jets((0.5, 0.25, 0.125))


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

    # The analysis's orders: g one below f, lambda(f) two below.
    spec.metric.component_jets(pt, DEFAULT_ORDER - 1)
    f = Jet(jet_space(dim, DEFAULT_ORDER), expression_jets([spec.f.tree], pt, DEFAULT_ORDER, spec.params)[0])
    evaluate(spec.lam, [f.truncate(DEFAULT_ORDER - 2)], spec.params)
    expression_products = len(calls)
    assert expression_products > 0

    calls.clear()
    an = PointAnalysis(spec, pt)
    an.violation
    bochner_residual(an)
    assert len(calls) == expression_products
    assert (an.order, an.mj.order, jet_order(an.lam_f, dim)) == (4, 3, 2)


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
    boch = bochner_residual(batch)
    worst = {}
    for i, pt in enumerate(points):
        one = PointAnalysis(spec, pt)
        one_boch = bochner_residual(one)
        for name in ("P", "nabla_P", "div_P", "nabla_p_norm_sq", "div_p_norm_sq", "laplacian_p_norm_sq"):
            got = np.asarray(getattr(batch, name))[i]
            assert got.shape == np.shape(getattr(one, name))
            worst[name] = max(worst.get(name, 0.0), _rel_dev(got, getattr(one, name)))
        for name in ("abs_residual", "rel_residual"):
            got = getattr(boch, name)[i]
            worst[name] = max(worst.get(name, 0.0), _rel_dev(got, getattr(one_boch, name)))
    largest = max(worst, key=worst.get)
    assert worst[largest] <= 1e-13, f"largest deviation {worst[largest]:.3g} in {largest}"


def test_single_point_keeps_unbatched_shapes():
    sc = random_scenario(7, 4)
    an = PointAnalysis(sc.spec(), sc.grid_points()[0])
    assert an.P.shape == (4, 4, jet_space(4, 2).size)
    assert an.nabla_P_val.shape == (4, 4, 4)
    for value in (an.p_norm_sq, an.violation, an.mj.curvature.scalar):
        assert type(value) is float
    assert type(bochner_residual(an).rel_residual) is float


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
    for name in ("P_val", "nabla_P_val", "div_P_val", "nabla_p_norm_sq", "div_p_norm_sq", "violation"):
        assert _rel_dev(getattr(low, name), getattr(high, name)) <= 1e-12, name


FUNCTIONS_SPEC = PTensorSpec(
    lam=parse("exp(f/4) + f^2 / (1 + f*f)", variables=("f",)),
    # At r = 0.2 the exponent's jet is the constant 2.5, at r = 0.8 it is not.
    f=ScalarField(parse("r^2.5 + x1*x2^3 - log(1 + r*x2) + x1^((r - 0.2)^5 + 2.5)", variables=chart_variables(3))),
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
        "g": np.stack([spec.metric.component_jets(pt, batch.mj.order) for pt in points]),
        "f": np.stack([an.fjet for an in one]),
        "lam_f": np.stack([an.lam_f for an in one]),
    }
    batched = {
        "g": spec.metric.component_jets(points, batch.mj.order),
        "f": batch.fjet,
        "lam_f": batch.lam_f,
    }
    for name, want in single.items():
        got = batched[name]
        assert got.shape == want.shape and got.tobytes() == want.tobytes(), name
    assert batch.mj.g.tobytes() == single["g"].tobytes()


def f_jets(f_src: str):
    """The analysis's jets of f = ``f_src`` on the flat 3-chart, at a point or a batch of points."""
    flat = MetricField.parse([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    spec = PTensorSpec(parse("1", variables=("f",)), ScalarField(parse(f_src, variables=chart_variables(3))), flat)
    return lambda points: PointAnalysis(spec, points).fjet


def test_batch_error_is_the_first_failing_point():
    """A batch raises what the first failing point raises alone, never an array."""

    def error(fn, *args):
        with pytest.raises(SkewdivError) as exc:
            fn(*args)
        return type(exc.value), str(exc.value), getattr(exc.value, "offset", None)

    f = f_jets("log(r - 0.5)")
    points = [(r, 0.0, 0.0) for r in (0.0, 0.5, 1.0)]  # r:0:1:3
    want = error(f, points[0])
    assert want == (EvalDomainError, "log of nonpositive value -0.5 (at offset 0)", 0)
    assert error(f, points) == want

    # Entry (0,1) fails only at point 2, entry (1,1) only at point 1.
    m = MetricField.parse(
        [["1", "0.1*log(1.5 - r)", "0"], ["0.1*log(1.5 - r)", "1 + log(x1)", "0"], ["0", "0", "1"]]
    )
    points = [(0.5, 1.0, 0.0), (0.5, 0.0, 0.0), (1.75, 1.0, 0.0)]
    want = error(m.component_jets, points[1])
    assert "log of nonpositive value 0.0" in want[1]
    assert error(m.component_jets, points) == want
    assert error(MetricJets, m, points) == want

    f = f_jets("sqrt(r + 1e-300)")
    points = [(1.0, 0.0, 0.0), (0.0, 0.0, 0.0), (0.5, 0.0, 0.0)]
    with np.errstate(all="ignore"):
        want = error(f, points[1])
        assert want == (EvalDomainError, "sqrt overflows a float (at offset 0)", 0)
        assert error(f, points) == want

    m = MetricField.parse([["1", "0", "0"], ["0", "1 - r", "0"], ["0", "0", "1"]])
    points = [(0.5, 0.0, 0.0), (0.25, 0.0, 0.0), (2.5, 0.0, 0.5)]
    want = error(m.component_jets, points[2])
    assert want[:2] == (
        NonPositiveDefiniteError,
        "metric is not positive definite at (2.5, 0.0, 0.5): Cholesky factorization fails",
    )
    assert error(MetricJets, m, points) == want


def test_verify_walks_each_expression_once(monkeypatch):
    """Op-count gate: a verify of a 4-point 4-D grid parses lambda alone, walks one tree, forms no field product.

    The random metric and f are built as their texts and lowered forms, so
    neither the build nor the verify and its JSON report parses a metric
    entry or f.  The 10 metric entries and f are polynomials in the x_i and
    x_i*x_j: each monomial is placed from the points, with no jet product.
    Only lambda(f) is walked, at order 2; its own products (f*f, or the one
    Horner step of exp there) are the only ones.
    """
    parsed, calls, products = [], [], []

    def counted_parse(source, **kwargs):
        parsed.append(source)
        return parse(source, **kwargs)

    def counted(e, point, params=None):
        calls.append(e)
        return evaluate(e, point, params)

    def multiplied(self, other):
        products.append(1)
        return mul(self, other)

    for mod in [m for name, m in sys.modules.items() if name.startswith("skewdiv.")]:
        if getattr(mod, "evaluate", None) is evaluate:
            monkeypatch.setattr(mod, "evaluate", counted)
        if getattr(mod, "parse", None) is parse:
            monkeypatch.setattr(mod, "parse", counted_parse)
    mul = Jet.__mul__
    monkeypatch.setattr(Jet, "__mul__", multiplied)
    monkeypatch.setattr(Jet, "__rmul__", multiplied)
    for seed, lam, lam_products in [(0, "1", 0), (1, "f", 0), (2, "1 + f*f", 1), (3, "exp(f/4)", 1)]:
        parsed.clear()
        calls.clear()
        products.clear()
        sc = builtin_scenario("random-curved", seed=seed, dim=4)
        assert len(sc.grid_points()) == 4 and sc.lam_src == lam
        report_to_json(run_verify(sc))
        assert parsed == [lam]
        assert "exprs" not in vars(sc.metric) and "tree" not in vars(sc.f)  # parsed only when read
        assert calls == [sc.lam]
        assert len(products) == lam_products


@pytest.mark.parametrize("dim", [3, 4])
def test_random_polynomials_are_their_parsed_sources(dim):
    """Every tree random_scenario builds is what parse gives for its printed source, offsets included."""

    def exact(e):
        return (type(e).__name__,) + tuple(exact(x) if isinstance(x, tuple) else x for x in e)

    names = chart_variables(dim)
    for seed in range(32):
        sc = random_scenario(seed, dim)
        for e in [e for row in sc.metric.exprs for e in row] + [sc.f.tree]:
            assert exact(parse(to_source(e), variables=names)) == exact(e)
        # The echo keeps the text the builder wrote: the same as rendering the trees.
        echo = sc.echo()
        assert (echo["metric"], echo["f"]) == (sc.metric.sources(), to_source(sc.f.tree))


def _same_table(a: TermTable, b: TermTable) -> bool:
    """Two lowered forms hold the same rows and entries, their coefficients bit for bit."""
    def key(t):
        return t.monomials, t.trees, t.number, t.nrows, t.lengths, t.at.tolist(), t.coefs.tobytes()

    return key(a) == key(b)


@pytest.mark.parametrize("dim", [3, 4])
def test_random_metrics_carry_their_sources_terms(dim):
    """A random metric's and f's lowered forms are their texts' terms, and give the parsed texts' jets bit for bit.

    A term after a function is walked and multiplied in: an entry with
    x0*x1*sin(x2) added is the random entry plus that term's walk, and one
    with sqrt(x0 - 0.5)*x1 added raises the walk's located error at the
    first point where the square root fails.
    """
    names = chart_variables(dim)
    rows, cols = upper_indices(dim)
    mixed, failing = (parse(src, variables=names) for src in ("x0*x1*sin(x2)", "sqrt(x0 - 0.5)*x1"))
    for seed in range(8):
        sc = random_scenario(seed, dim)
        texts = sc.metric.sources()
        lowered = [_terms(parse(texts[i][j], variables=names)) for i, j in zip(rows, cols)]
        assert _same_table(sc.metric._lowered, TermTable.of(lowered))
        f_src = sc.f.source()
        f_parsed = parse(f_src, variables=names)
        assert _same_table(sc.f._lowered, TermTable.of([_terms(f_parsed)]))
        parsed = MetricField.parse(texts)
        points = np.array(sc.grid_points())
        for order in (2, 3, 4):
            for pts in [points, *points]:
                want = parsed.component_jets(pts, order)
                assert sc.metric.component_jets(pts, order).tobytes() == want.tobytes()
                f = sc.f.jets(pts, order, {})
                assert f.tobytes() == ScalarField(f_parsed).jets(pts, order, {}).tobytes()
                seeds = seed_variables(pts, dim, order)
                with_mixed = ScalarField(parse(f"{f_src} + {to_source(mixed)}", variables=names))
                want = f + evaluate(mixed, seeds).c
                assert with_mixed.jets(pts, order, {}).tobytes() == want.tobytes()
        assert "exprs" not in vars(sc.metric) and "tree" not in vars(sc.f)

        with_failing = ScalarField(parse(f"{f_src} + {to_source(failing)}", variables=names))
        bad = next(pt for pt in points if pt[0] < 0.5)
        with pytest.raises(EvalDomainError) as walk:
            evaluate(with_failing.tree, seed_variables(bad, dim, 4))
        assert str(walk.value).endswith(f"(at offset {len(f_src) + 3})")
        with pytest.raises(EvalDomainError) as got:
            with_failing.jets(points, 4, {})
        assert str(got.value) == str(walk.value)
        good = next(pt for pt in points if pt[0] > 0.5)
        want = sc.f.jets(good, 4, {}) + evaluate(failing, seed_variables(good, dim, 4)).c
        assert with_failing.jets(good, 4, {}).tobytes() == want.tobytes()


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
        series[..., : sp.size] = eye[..., : sp.size] + contract("ij,jk->ik", m, series, sp.pairs)
    return np.einsum("...ij,...jkZ->...ikZ", g0inv, series)


def test_ginv_forms_only_each_steps_new_coefficients():
    """Step t forms the degree-t coefficients alone, bit for bit as the full step, per batch entry."""
    assert [jet_space(4, 4).step_pairs(t).ia.size for t in (2, 3, 4)] == [26, 100, 295]
    assert jet_space(4, 4).pairs.ia.size == 495
    for sc in BATCH_SCENARIOS:
        points = sc.grid_points()
        for order in (2, 3, 4):
            batch = MetricJets(sc.metric, points, order)
            assert batch.ginv.tobytes() == _ginv_every_coefficient(batch).tobytes()
            for i, pt in enumerate(points):
                assert MetricJets(sc.metric, pt, order).ginv.tobytes() == batch.ginv[i].tobytes()


def test_verify_forms_a_pinned_number_of_contract_pairs(monkeypatch):
    """Work gate: a verify-4d op forms 756 contract pairs in 16 calls and builds g at order 3 at most.

    Built at f's order 4, g^-1 and Gamma carried a top layer that no check
    reads: the same op formed 1,170 pairs in 16 calls.  A reader that brings
    that layer back fails here.  The curvature's Gamma.Gamma term is one
    contraction of one pair (``MetricJets.riemann_up`` at order 0).
    """
    pairs, orders = [], []

    def counted(subscripts, A, B, table):
        pairs.append(table.ia.size)
        return contract(subscripts, A, B, table)

    def built(self, metric, points, order=DEFAULT_ORDER):
        orders.append(order)
        init(self, metric, points, order)

    for mod in [m for name, m in sys.modules.items() if name.startswith("skewdiv.")]:
        if getattr(mod, "contract", None) is contract:
            monkeypatch.setattr(mod, "contract", counted)
    init = MetricJets.__init__
    monkeypatch.setattr(MetricJets, "__init__", built)
    per_op = []
    for seed in range(8):
        pairs.clear()
        report_to_json(run_verify(builtin_scenario("random-curved", seed=seed, dim=4)))
        per_op.append((sum(pairs), len(pairs)))
    assert np.mean(per_op, axis=0).tolist() == [756, 16]
    assert max(orders) == 3


def _at_full_order(spec, points, order: int) -> PointAnalysis:
    """The analysis with g and lambda(f) built at f's order, as they were before the cut."""
    an = PointAnalysis(spec, points, order)
    an.mj = MetricJets(spec.metric, points, order)
    f = Jet(jet_space(spec.metric.dim, order), an.fjet)
    an.lam_f = as_coefficients(evaluate(spec.lam, [f], spec.params), an.fjet.shape)
    return an


def _read_values(an: PointAnalysis) -> dict:
    """Every value a check or a report reads from ``an``."""
    names = ["P_val", "nabla_P_val", "div_P_val", "P_up", "p_norm_sq"]
    names += ["nabla_p_norm_sq", "div_p_norm_sq", "violation", "sharp_margin"]
    if an.order >= 4:
        names += ["laplacian_p_norm_sq", "nabla_div_P_val"]
    values = {name: getattr(an, name) for name in names}
    values["grad_f_val"] = grad_f_val(an)
    if an.order >= 4:
        values["grad_p_norm_sq_val"] = grad_p_norm_sq_val(an)
    for name in ("g_val", "ginv_val"):
        values[name] = getattr(an.mj, name)
    curv = an.mj.curvature
    for name in ("riemann", "ricci", "scalar"):
        values[f"curvature.{name}"] = getattr(curv, name)
    values["traceless_ricci"] = traceless_ricci(an.mj)
    residuals = [cyclic_residual(an)] + ([bochner_residual(an)] if an.order >= 4 else [])
    residuals += [*static_residual(an)] if an.dim == 3 else []
    for res in residuals + [*cpe_residual(an)]:
        for field in ("abs_residual", "rel_residual"):
            values[f"{res.name}.{field}"] = getattr(res, field)
    return values


@pytest.mark.parametrize("order", [3, 4])
@pytest.mark.parametrize("sc", BATCH_SCENARIOS, ids=lambda sc: sc.name)
def test_cut_jets_read_as_jets_at_full_order(sc, order):
    """g one order below f and lambda(f) two below give every read value bit for bit."""
    spec, points = sc.spec(), sc.grid_points()
    an = PointAnalysis(spec, points, order)
    assert (an.mj.order, jet_order(an.lam_f, sc.dim)) == (max(order - 1, 2), order - 2)
    want = _read_values(_at_full_order(spec, points, order))
    got = _read_values(an)
    assert got.keys() == want.keys()
    for name, value in want.items():
        assert np.asarray(got[name]).tobytes() == np.asarray(value).tobytes(), name
