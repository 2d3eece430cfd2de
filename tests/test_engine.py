"""Checks of the coefficient-array jet engine that need no timing.

* exact laws: constant rescaling of the metric, g g^-1 = I coefficientwise;
* the positive-definiteness check is scale-free and rejects non-finite input;
* the tensor pipeline performs no scalar ``Jet`` products of its own;
* a batch of points gives each point's single-point analysis, and analysis
  at the value order agrees with analysis at the default order.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewdiv.errors import NonPositiveDefiniteError
from skewdiv.expr import Binary, Num, evaluate
from skewdiv.geometry import MetricField, MetricJets
from skewdiv.identities import bochner_residual
from skewdiv.jets import Jet, contract, jet_space
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
