import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from skewdiv.errors import NonPositiveDefiniteError, OrderExceededError
from skewdiv.geometry import (
    MetricField,
    MetricJets,
    cov_derivative,
    norm_sq,
    point_tuple,
)
from skewdiv.expr import chart_variables, parse
from skewdiv.jets import DEFAULT_ORDER, contract, jet_space, partials
from skewdiv.scenarios import random_scenario

from checks import expression_jets, second_bianchi_residual, traceless_ricci, weyl
from exact_oracle import exact_point, rel_error


def euclidean_metric():
    return MetricField.parse([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])


def warped_metric(k=4.0, c=1.0):
    phi2 = "((r+c)^(-1/k))^2"
    return MetricField.parse(
        [["1", "0", "0"], ["0", phi2, "0"], ["0", "0", phi2]], {"k": k, "c": c}
    )


def sphere_metric():
    return MetricField.parse(
        [["1", "0", "0"], ["0", "sin(r)^2", "0"], ["0", "0", "sin(r)^2*sin(x1)^2"]]
    )


def hessian_values(f_src, m, pt):
    """MetricJets at ``pt`` and the values of grad^2 f there."""
    mj = MetricJets(m, pt)
    f = expression_jets([parse(f_src, variables=chart_variables(3))], pt, DEFAULT_ORDER, m.params)[0]
    return mj, cov_derivative(partials(f, mj.dim), mj.gamma)[..., 0]


def laplacian_value(f, m, pt):
    mj, h = hessian_values(f, m, pt)
    return float(np.einsum("ij,ij->", mj.ginv_val, h))


def test_euclidean_is_flat():
    m = euclidean_metric()
    pt = (0.3, 0.4, 0.5)
    mj = MetricJets(m, pt)
    assert np.max(np.abs(mj.gamma[..., 0])) == 0.0
    cv = mj.curvature
    assert np.max(np.abs(cv.riemann)) == 0.0
    assert cv.scalar == 0.0
    assert np.max(np.abs(traceless_ricci(mj))) == 0.0
    assert np.max(np.abs(weyl(mj))) == 0.0


def test_warped_christoffel_closed_form():
    k, c = 4.0, 1.0
    m = warped_metric(k, c)
    for r in (0.0, 0.35, 0.9):
        pt = (r, 0.1, 0.7)
        gv = MetricJets(m, pt).gamma[..., 0]
        phi = (r + c) ** (-1 / k)
        dphi = -(1 / k) * (r + c) ** (-1 / k - 1)
        expected = np.zeros((3, 3, 3))
        for i in (1, 2):
            expected[0, i, i] = -phi * dphi
            expected[i, 0, i] = expected[i, i, 0] = dphi / phi
        assert np.allclose(gv, expected, atol=1e-13)


def test_sphere_christoffel_component():
    m = sphere_metric()
    r = 0.8
    mj = MetricJets(m, (r, 0.9, 0.2))
    gv = mj.gamma[..., 0]
    assert gv[0, 1, 1] == pytest.approx(-math.sin(r) * math.cos(r), rel=1e-12)
    exact = exact_point(m, (r, 0.9, 0.2))
    assert rel_error(gv, exact.gamma) <= 1e-12
    assert rel_error(mj.curvature.riemann, exact.riemann) <= 1e-12


def test_sphere_curvature():
    m = sphere_metric()
    pt = (0.9, 0.8, 0.3)
    mj = MetricJets(m, pt)
    cv = mj.curvature
    g = mj.g_val
    assert cv.scalar == pytest.approx(6.0, abs=1e-11)
    assert np.allclose(cv.ricci, 2.0 * g, atol=1e-11)
    gg = np.einsum("ik,js->ijks", g, g)
    assert np.allclose(cv.riemann, gg - np.swapaxes(gg, -1, -2), atol=1e-11)
    assert np.max(np.abs(traceless_ricci(mj))) < 1e-11
    assert np.max(np.abs(weyl(mj))) < 1e-11


def _curvature_invariants(R, tol=1e-10):
    scale = max(1.0, float(np.max(np.abs(R))))
    assert np.max(np.abs(R + R.transpose(1, 0, 2, 3))) < tol * scale
    assert np.max(np.abs(R + R.transpose(0, 1, 3, 2))) < tol * scale
    assert np.max(np.abs(R - R.transpose(2, 3, 0, 1))) < tol * scale
    bianchi = R + R.transpose(1, 2, 0, 3) + R.transpose(2, 0, 1, 3)
    assert np.max(np.abs(bianchi)) < tol * scale


def test_curvature_invariants_on_random_scenarios():
    count = 0
    for dim in (3, 4):
        for seed in range(13):
            sc = random_scenario(seed, dim)
            for pt in sc.grid_points():
                mj = MetricJets(sc.metric, pt)
                _curvature_invariants(mj.curvature.riemann)
                w = weyl(mj)
                trace = np.einsum("ik,ijks->js", mj.ginv_val, w)
                assert np.max(np.abs(trace)) < 1e-10
                if dim == 3:
                    assert np.max(np.abs(w)) < 1e-10
                count += 1
    assert count >= 100


def test_metric_compatibility():
    for seed in (0, 5):
        sc = random_scenario(seed, 3)
        pt = sc.grid_points()[1]
        mj = MetricJets(sc.metric, pt)
        grad_g = cov_derivative(mj.g, mj.gamma)
        assert np.max(np.abs(grad_g[..., 0])) < 1e-12


def test_contracted_second_bianchi():
    for seed in range(8):
        sc = random_scenario(seed, 3)
        res = second_bianchi_residual(MetricJets(sc.metric, sc.grid_points()[0]))
        assert res.rel_residual < 1e-8


def test_riemann_jets_start_with_the_curvature_values_and_stop_two_orders_below_g():
    sc = random_scenario(3, 4)
    mj = MetricJets(sc.metric, sc.grid_points()[0], 3)
    jets = mj.riemann_up(1)
    assert jets.shape == (4, 4, 4, 4, jet_space(4, 1).size)
    lowered = np.einsum("km,mijs->ijks", mj.g_val, jets[..., 0])
    assert rel_error(lowered, mj.curvature.riemann) <= 1e-15
    with pytest.raises(OrderExceededError, match="needs jet order >= 4"):
        mj.riemann_up(2)


def test_hessian_warped_closed_form():
    k, c = 4.0, 1.0
    m = warped_metric(k, c)
    f = "x1"
    r = 0.4
    _, h = hessian_values(f, m, (r, 0.2, 0.3))
    phi = (r + c) ** (-1 / k)
    dphi = -(1 / k) * (r + c) ** (-1 / k - 1)
    expected = np.zeros((3, 3))
    expected[1, 0] = expected[0, 1] = -dphi / phi  # psi' = 1, psi'' = 0
    assert np.allclose(h, expected, atol=1e-13)


def test_hessian_euclidean_quadratic():
    m = euclidean_metric()
    f = "x0^2/2"
    _, h = hessian_values(f, m, (0.2, 0.3, 0.4))
    assert np.allclose(h, np.diag([1.0, 0.0, 0.0]), atol=1e-14)


def test_hessian_sphere_cos_r():
    m = sphere_metric()
    f = "cos(r)"
    for pt in ((0.8, 0.7, 0.2), (1.1, 0.9, 0.4)):
        mj, h = hessian_values(f, m, pt)
        g = mj.g_val
        assert np.max(np.abs(h + math.cos(pt[0]) * g)) < 1e-10


def test_laplacians():
    m = euclidean_metric()
    f = "x0^2 + x1^2 + x2^2"
    assert laplacian_value(f, m, (0.1, 0.2, 0.3)) == pytest.approx(6.0, abs=1e-12)
    sph = sphere_metric()
    fc = "cos(r)"
    for pt in ((0.8, 0.7, 0.2), (1.0, 1.0, 0.4)):
        assert laplacian_value(fc, sph, pt) == pytest.approx(
            -3.0 * math.cos(pt[0]), abs=1e-11
        )


def test_norm_sq_of_metric_is_dimension():
    for seed in (1, 4):
        sc = random_scenario(seed, 3)
        pt = sc.grid_points()[0]
        mj = MetricJets(sc.metric, pt)
        gi = mj.ginv_val
        norm_sq = np.einsum("ia,jb,ij,ab->", gi, gi, mj.g_val, mj.g_val)
        assert norm_sq == pytest.approx(3.0, rel=1e-12)


def test_jet_matrix_inverse_exact():
    sc = random_scenario(2, 4)
    pt = sc.grid_points()[0]
    mj = MetricJets(sc.metric, pt)
    ident = contract("il,lj->ij", mj.g, mj.ginv, jet_space(4, mj.order).pairs)
    for i in range(4):
        for j in range(4):
            expected = 1.0 if i == j else 0.0
            coeffs = ident[i, j].copy()
            coeffs[0] -= expected
            assert np.max(np.abs(coeffs)) < 1e-12


def test_positive_definiteness_enforced():
    m = MetricField.parse([["1 - 2*r", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    with pytest.raises(NonPositiveDefiniteError):
        MetricJets(m, (0.9, 0.0, 0.0))
    # fine where the entry stays positive
    MetricJets(m, (0.1, 0.0, 0.0))


def test_metric_expressions_must_be_symmetric():
    with pytest.raises(ValueError):
        MetricField.parse([["1", "r", "0"], ["0", "1", "0"], ["0", "0", "1"]])


def test_christoffel_and_riemann_match_the_exact_oracle():
    worst_gamma = 0.0
    worst_riemann = 0.0
    for seed in range(20):
        sc = random_scenario(200 + seed, 3)
        pt = sc.grid_points()[0]
        mj = MetricJets(sc.metric, pt)
        exact = exact_point(sc.metric, pt)
        worst_gamma = max(worst_gamma, rel_error(mj.gamma[..., 0], exact.gamma))
        worst_riemann = max(worst_riemann, rel_error(mj.curvature.riemann, exact.riemann))
    assert worst_gamma <= 1e-12
    assert worst_riemann <= 1e-12


def test_covariant_derivative_of_scalar_is_gradient():
    sc = random_scenario(3, 3)
    pt = sc.grid_points()[0]
    fjet = expression_jets([sc.f.tree], pt, DEFAULT_ORDER, sc.params)[0]
    grad = cov_derivative(fjet, MetricJets(sc.metric, pt).gamma)
    expected = partials(fjet, 3)[..., 0]
    got = grad[..., 0]
    assert np.allclose(got, expected, atol=1e-14)


def test_commutation_rule_pins_curvature_sign():
    """grad_i grad_j s_a - grad_j grad_i s_a = R_ijas s^s for a 1-form s.

    Second covariant derivatives of df are computed jet-level; the curvature
    side uses the assembled Riemann tensor.  Agreement to rounding is an
    independent confirmation of the package's sign convention.
    """
    for seed in (21, 22):
        for dim in (3, 4):
            sc = random_scenario(seed, dim)
            pt = sc.grid_points()[0]
            mj = MetricJets(sc.metric, pt)
            fjet = expression_jets([sc.f.tree], pt, DEFAULT_ORDER, sc.params)[0]
            sigma = cov_derivative(fjet, mj.gamma)  # (a,)
            first = cov_derivative(sigma, mj.gamma)  # (j, a)
            second = cov_derivative(first, mj.gamma)  # (i, j, a)
            vals = second[..., 0]
            comm = vals - vals.transpose(1, 0, 2)
            sigma_up = mj.ginv_val @ sigma[..., 0]
            expected = np.einsum("ijas,s->ija", mj.curvature.riemann, sigma_up)
            scale = max(1.0, float(np.max(np.abs(expected))))
            assert np.max(np.abs(comm - expected)) < 1e-10 * scale



#: |T|^2 as one multi-operand einsum per rank: the textbook contraction.
TEXTBOOK_NORM_SQ = {
    0: "...,...->...",
    1: "...ia,...i,...a->...",
    2: "...ia,...jb,...ij,...ab->...",
    3: "...ia,...jb,...kc,...ijk,...abc->...",
}


@st.composite
def tensors_and_inverse_metrics(draw):
    """A batch of rank-0..3 tensors and SPD inverse metrics, n = 1..4."""
    n, rank, batch = draw(st.integers(1, 4)), draw(st.integers(0, 3)), draw(st.integers(1, 3))
    # Bounded away from 0 (or 0 itself), so that no product underflows.
    entries = st.one_of(st.just(0.0), st.floats(1e-3, 2.0), st.floats(-2.0, -1e-3))
    a = draw(arrays(np.float64, (batch, n, n), elements=entries))
    ginv = a @ np.swapaxes(a, -1, -2) + 0.1 * np.eye(n)
    return draw(arrays(np.float64, (batch,) + (n,) * rank, elements=entries)), ginv


@pytest.mark.skipif(
    np.finfo(np.longdouble).eps >= np.finfo(float).eps, reason="no extended precision"
)
@settings(max_examples=200, deadline=None, derandomize=True)
@given(tensors_and_inverse_metrics())
def test_norm_sq_is_within_a_few_ulps_of_the_textbook_contraction(case):
    """The reference sums in extended precision: in doubles, the one long
    multi-operand sum is itself off by up to ~300 ulps of sum |terms|."""
    T, ginv = case
    operands = [ginv] * (T.ndim - 1) + [T, T]
    spec = TEXTBOOK_NORM_SQ[T.ndim - 1]
    ref = np.einsum(spec, *(x.astype(np.longdouble) for x in operands))
    abs_terms = np.einsum(spec, *map(np.abs, operands))
    assert np.all(np.abs(norm_sq(T, ginv) - ref) <= 8 * np.finfo(float).eps * abs_terms)


@settings(max_examples=200, deadline=None, derandomize=True)
@given(tensors_and_inverse_metrics())
def test_norm_sq_of_a_batch_entry_is_that_of_its_point_alone(case):
    T, ginv = case
    batch = norm_sq(T, ginv)
    for i in range(len(T)):
        alone = norm_sq(T[i], ginv[i])
        assert isinstance(alone, float) and alone == batch[i]


def test_point_tuple_nests_python_floats_and_keeps_negative_zeros():
    a = np.linspace(-2.0, 3.0, 3)
    a[0] = -0.0
    assert repr(point_tuple(a)) == repr(point_tuple(a.tolist())) == repr(tuple(map(float, a)))
    assert "-0.0" in repr(point_tuple(a))
