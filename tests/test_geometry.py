import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from skewdiv.errors import NonPositiveDefiniteError
from skewdiv.geometry import (
    MetricField,
    MetricJets,
    ScalarField,
    christoffel_fd,
    cov_derivative,
    norm_sq,
    riemann_fd,
    second_bianchi_residual,
)
from skewdiv.jets import contract, jet_space, partials
from skewdiv.scenarios import random_scenario


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


def hessian_values(f, m, pt):
    """MetricJets at ``pt`` and the values of grad^2 f there."""
    mj = MetricJets(m, pt)
    return mj, cov_derivative(partials(f.jet(pt).c, mj.dim), mj.gamma)[..., 0]


def laplacian_value(f, m, pt):
    mj, h = hessian_values(f, m, pt)
    return float(np.einsum("ij,ij->", mj.ginv_val, h))


def test_euclidean_is_flat():
    m = euclidean_metric()
    pt = (0.3, 0.4, 0.5)
    mj = MetricJets(m, pt)
    assert np.max(np.abs(mj.gamma_val)) == 0.0
    cv = mj.curvature
    assert np.max(np.abs(cv.riemann)) == 0.0
    assert cv.scalar == 0.0
    assert np.max(np.abs(cv.traceless_ricci)) == 0.0
    assert np.max(np.abs(cv.weyl)) == 0.0


def test_warped_christoffel_closed_form():
    k, c = 4.0, 1.0
    m = warped_metric(k, c)
    for r in (0.0, 0.35, 0.9):
        pt = (r, 0.1, 0.7)
        gv = MetricJets(m, pt).gamma_val
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
    gv = MetricJets(m, (r, 0.9, 0.2)).gamma_val
    assert gv[0, 1, 1] == pytest.approx(-math.sin(r) * math.cos(r), rel=1e-12)
    fd = christoffel_fd(m, (r, 0.9, 0.2))
    assert np.allclose(fd, gv, atol=1e-7)


def test_sphere_curvature():
    m = sphere_metric()
    pt = (0.9, 0.8, 0.3)
    mj = MetricJets(m, pt)
    cv = mj.curvature
    g = mj.g_val
    assert cv.scalar == pytest.approx(6.0, abs=1e-11)
    assert np.allclose(cv.ricci, 2.0 * g, atol=1e-11)
    assert np.max(np.abs(cv.traceless_ricci)) < 1e-11
    assert np.max(np.abs(cv.weyl)) < 1e-11


def _curvature_invariants(cv, tol=1e-10):
    R = cv.riemann
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
                cv = mj.curvature
                _curvature_invariants(cv)
                trace = np.einsum("ik,ijks->js", mj.ginv_val, cv.weyl)
                assert np.max(np.abs(trace)) < 1e-10
                if dim == 3:
                    assert np.max(np.abs(cv.weyl)) < 1e-10
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


def test_hessian_warped_closed_form():
    k, c = 4.0, 1.0
    m = warped_metric(k, c)
    f = ScalarField.parse("x1", 3)
    r = 0.4
    _, h = hessian_values(f, m, (r, 0.2, 0.3))
    phi = (r + c) ** (-1 / k)
    dphi = -(1 / k) * (r + c) ** (-1 / k - 1)
    expected = np.zeros((3, 3))
    expected[1, 0] = expected[0, 1] = -dphi / phi  # psi' = 1, psi'' = 0
    assert np.allclose(h, expected, atol=1e-13)


def test_hessian_euclidean_quadratic():
    m = euclidean_metric()
    f = ScalarField.parse("x0^2/2", 3)
    _, h = hessian_values(f, m, (0.2, 0.3, 0.4))
    assert np.allclose(h, np.diag([1.0, 0.0, 0.0]), atol=1e-14)


def test_hessian_sphere_cos_r():
    m = sphere_metric()
    f = ScalarField.parse("cos(r)", 3)
    for pt in ((0.8, 0.7, 0.2), (1.1, 0.9, 0.4)):
        mj, h = hessian_values(f, m, pt)
        g = mj.g_val
        assert np.max(np.abs(h + math.cos(pt[0]) * g)) < 1e-10

    # cross-check the rr component by finite differences of f along r
    pt = (0.8, 0.7, 0.2)
    from skewdiv.jets import finite_difference_oracle

    d2 = finite_difference_oracle(lambda q: math.cos(q[0]), pt, (2, 0, 0))
    assert d2 == pytest.approx(-math.cos(0.8), abs=1e-6)


def test_laplacians():
    m = euclidean_metric()
    f = ScalarField.parse("x0^2 + x1^2 + x2^2", 3)
    assert laplacian_value(f, m, (0.1, 0.2, 0.3)) == pytest.approx(6.0, abs=1e-12)
    sph = sphere_metric()
    fc = ScalarField.parse("cos(r)", 3)
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


def test_fd_oracle_cross_check_20_scenarios():
    worst_gamma = 0.0
    worst_riemann = 0.0
    for seed in range(20):
        sc = random_scenario(200 + seed, 3)
        pt = sc.grid_points()[0]
        mj = MetricJets(sc.metric, pt)
        gfd = christoffel_fd(sc.metric, pt)
        rel_g = np.max(
            np.abs(gfd - mj.gamma_val) / np.maximum(1.0, np.abs(mj.gamma_val))
        )
        cv = mj.curvature
        rfd = riemann_fd(sc.metric, pt)
        rel_r = np.max(np.abs(rfd - cv.riemann) / np.maximum(1.0, np.abs(cv.riemann)))
        worst_gamma = max(worst_gamma, float(rel_g))
        worst_riemann = max(worst_riemann, float(rel_r))
    assert worst_gamma < 1e-6
    assert worst_riemann < 1e-6


def test_covariant_derivative_of_scalar_is_gradient():
    sc = random_scenario(3, 3)
    pt = sc.grid_points()[0]
    fjet = sc.f.jet(pt)
    grad = cov_derivative(fjet.c, MetricJets(sc.metric, pt).gamma)
    expected = partials(fjet.c, 3)[..., 0]
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
            fjet = sc.f.jet(pt)
            sigma = cov_derivative(fjet.c, mj.gamma)  # (a,)
            first = cov_derivative(sigma, mj.gamma)  # (j, a)
            second = cov_derivative(first, mj.gamma)  # (i, j, a)
            vals = second[..., 0]
            comm = vals - vals.transpose(1, 0, 2)
            cv = mj.curvature
            sigma_up = mj.ginv_val @ sigma[..., 0]
            expected = np.einsum("ijas,s->ija", cv.riemann, sigma_up)
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
