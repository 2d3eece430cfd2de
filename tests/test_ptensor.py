import math
import re

import numpy as np
import pytest

from skewdiv.errors import DegeneratePError, EvalDomainError, FrameConsistencyError
from skewdiv.expr import chart_variables, parse
from skewdiv.geometry import Field, MetricField
from skewdiv.ptensor import (
    VALUE_ORDER,
    PointAnalysis,
    PTensorSpec,
    analyze,
    build_frame,
    cyclic_residual,
)
from skewdiv.scenarios import (
    builtin_scenario,
    random_scenario,
    round_sphere_scenario,
)
from skewdiv.warped import WarpedSpec, ptensor_spec


def warped_spec(k=4.0, c=1.0, lam="1", psi="x1"):
    return ptensor_spec(WarpedSpec.canonical(k, c, lam=lam, psi=psi))


def canonical_derivs(r, k=4.0, c=1.0):
    phi = (r + c) ** (-1 / k)
    dphi = -(1 / k) * (r + c) ** (-1 / k - 1)
    ddphi = (1 / k) * (1 / k + 1) * (r + c) ** (-1 / k - 2)
    return phi, dphi, ddphi


def test_warped_P_closed_form():
    spec = warped_spec()
    for r in (0.0, 0.5):
        pt = (r, 0.3, 0.1)
        phi, dphi, _ = canonical_derivs(r)
        pv = analyze(spec, pt).P_val
        expected = dphi / phi**3  # lambda = 1, psi' = 1
        assert pv[0, 1] == pytest.approx(expected, rel=1e-13)
        assert pv[1, 0] == pytest.approx(-expected, rel=1e-13)
        mask = np.ones((3, 3), dtype=bool)
        mask[0, 1] = mask[1, 0] = False
        assert np.max(np.abs(pv[mask])) < 1e-15


def test_P_is_exactly_skew():
    sc = random_scenario(7, 3)
    P = PointAnalysis(sc.spec(), sc.grid_points()[0]).P
    for j in range(3):
        for k in range(3):
            assert np.array_equal(P[j, k], -P[k, j])


def test_P_and_nabla_P_skew_with_zero_diagonal():
    for dim in (3, 4):
        for seed in (7, 8):
            sc = random_scenario(seed, dim)
            for pt in sc.grid_points():
                an = PointAnalysis(sc.spec(), pt)
                for T in (an.P, an.nabla_P):
                    assert np.array_equal(T, -np.swapaxes(T, -3, -2))
                    assert not np.any(np.diagonal(T, axis1=-3, axis2=-2))


def test_euclidean_radial_potential_gives_zero_P():
    sc = builtin_scenario("euclidean")
    for pt in sc.grid_points()[:5]:
        ev = analyze(sc.spec(), pt)
        assert np.max(np.abs(ev.P_val)) == 0.0
        assert ev.nabla_p_norm_sq == 0.0
        assert ev.violation == 0.0


def test_sphere_cos_r_gives_zero_P():
    sc = round_sphere_scenario()
    for pt in sc.grid_points()[::7]:
        ev = analyze(sc.spec(), pt)
        assert np.sqrt(max(ev.p_norm_sq, 0.0)) < 1e-12


def test_warped_nabla_P_at_origin():
    spec = warped_spec()
    ev = analyze(spec, (0.0, 0.0, 0.0))
    assert ev.nabla_P_val[0, 1, 0] == pytest.approx(-1.0 / 16.0, abs=1e-15)
    assert ev.nabla_P_val[1, 1, 0] == pytest.approx(0.0, abs=1e-15)
    assert ev.nabla_P_val[2, 1, 2] == pytest.approx(-1.0 / 16.0, abs=1e-15)
    assert np.allclose(ev.div_P_val, [0.0, 0.125, 0.0], atol=1e-15)
    assert ev.nabla_p_norm_sq == pytest.approx(1.0 / 64.0, abs=1e-15)
    assert ev.div_p_norm_sq == pytest.approx(1.0 / 64.0, abs=1e-15)
    assert ev.violation == pytest.approx(-1.0 / 64.0, abs=1e-15)
    assert abs(ev.sharp_margin) < 1e-15


def test_cyclic_residual_everywhere():
    spec = warped_spec()
    grid = [(r, x, y) for r in (0.0, 0.5, 1.0) for x in (0.0, 0.5, 1.0) for y in (0.0, 0.5, 1.0)]
    for pt in grid:
        assert cyclic_residual(PointAnalysis(spec, pt, VALUE_ORDER)).abs_residual < 1e-10
    for seed in range(6):
        for dim in (3, 4):
            sc = random_scenario(40 + seed, dim)
            assert cyclic_residual(PointAnalysis(sc.spec(), sc.grid_points()[0], VALUE_ORDER)).abs_residual < 1e-10
    euc = builtin_scenario("euclidean")
    assert cyclic_residual(PointAnalysis(euc.spec(), (0.3, 0.4, 0.5), VALUE_ORDER)).abs_residual == 0.0


def test_bounds_on_random_scenarios():
    for seed in range(10):
        for dim in (3, 4):
            sc = random_scenario(60 + seed, dim)
            for pt in sc.grid_points()[:2]:
                ev = analyze(sc.spec(), pt)
                assert ev.sharp_margin >= -1e-12
                assert (
                    ev.nabla_p_norm_sq - ev.div_p_norm_sq / dim >= -1e-12
                )


def test_violation_sign_family():
    for k, sign in ((2.0, 1), (4.0, -1), (6.0, -1)):
        spec = warped_spec(k=k)
        for pt in ((0.0, 0.2, 0.1), (0.7, 0.5, 0.9)):
            v = analyze(spec, pt).violation
            assert math.copysign(1.0, v) == sign and abs(v) > 1e-6
    spec3 = warped_spec(k=3.0)
    for pt in ((0.0, 0.2, 0.1), (0.7, 0.5, 0.9)):
        assert abs(analyze(spec3, pt).violation) <= 1e-12


def test_frame_at_canonical_point():
    spec = warped_spec()
    fr = build_frame(PointAnalysis(spec, (0.0, 0.0, 0.0)))
    assert fr.gram_residual < 1e-10
    # E_1 = (1/phi) d/dx1 with phi(0) = 1; E_2 = +/- d/dr.
    assert np.allclose(fr.vectors[0], [0.0, 1.0, 0.0], atol=1e-12)
    assert np.allclose(np.abs(fr.vectors[1]), [1.0, 0.0, 0.0], atol=1e-12)
    assert abs(fr.u) == pytest.approx(0.25, abs=1e-13)
    # u's sign is tied to E_2 through the normalization E_2 = A E_1 / |A E_1|:
    # recompute P(E_1, E_2) from values.
    u_direct = float(np.einsum("ab,a,b->", analyze(spec, (0.0, 0.0, 0.0)).P_val, fr.vectors[0], fr.vectors[1]))
    assert u_direct == pytest.approx(fr.u, abs=1e-14)


def test_frame_p_structure():
    spec = warped_spec()
    an = PointAnalysis(spec, (0.3, 0.4, 0.5))
    fr = build_frame(an)
    pf = np.einsum("ab,ia,jb->ij", an.P_val, fr.vectors, fr.vectors)  # P(E_i, E_j)
    assert pf[0, 1] == pytest.approx(fr.u, abs=1e-12)
    assert pf[1, 0] == pytest.approx(-fr.u, abs=1e-12)
    mask = np.ones((3, 3), dtype=bool)
    mask[0, 1] = mask[1, 0] = False
    assert np.max(np.abs(pf[mask])) < 1e-12


def test_div_true_matches_coordinates_and_false_misses():
    spec = warped_spec()
    an = PointAnalysis(spec, (0.0, 0.0, 0.0))
    fr = build_frame(an)
    assert np.allclose(fr.div_true, fr.vectors @ an.div_P_val, atol=1e-12)
    chart = fr.covector_to_chart(fr.discrepancy)
    assert chart[1] == pytest.approx(1.0 / 16.0, abs=1e-13)
    assert abs(chart[0]) < 1e-13 and abs(chart[2]) < 1e-13


def test_discrepancy_equals_bracket_terms():
    """The gap between the two formulas is exactly the Lie-bracket content.

    disc and the bracket expressions come through different routes: the
    connection coefficients use Gamma, the brackets only commutators of the
    frame jets.
    """
    cases = [
        (warped_spec(), (0.2, 0.3, 0.4)),
        (warped_spec(k=5.0, c=2.0, lam="f^2", psi="sin(x1)"), (0.4, 0.6, 0.2)),
    ]
    for seed in (70, 71, 72):
        sc = random_scenario(seed, 3)
        cases.append((sc.spec(), sc.grid_points()[0]))
    for spec, pt in cases:
        try:
            fr = build_frame(PointAnalysis(spec, pt))
        except DegeneratePError:
            continue
        disc = fr.discrepancy
        n = len(fr.vectors)
        b = fr.bracket_frame
        expected = np.zeros(n)
        expected[0] = fr.u * sum(b[1, i, i] for i in range(2, n))
        expected[1] = -fr.u * sum(b[0, i, i] for i in range(2, n))
        for k in range(2, n):
            expected[k] = fr.u * b[0, 1, k]
        assert np.allclose(disc, expected, atol=1e-10 * max(1.0, abs(fr.u)))


def test_frame_requires_nonzero_P():
    sc = builtin_scenario("euclidean")
    with pytest.raises(DegeneratePError):
        build_frame(PointAnalysis(sc.spec(), (0.3, 0.4, 0.5)))


def test_frame_refuses_a_batch_of_points():
    an = PointAnalysis(warped_spec(), [(0.3, 0.2, 0.6), (0.1, 0.2, 0.3)])
    with pytest.raises(ValueError, match="one-point; the analysis has 2 points"):
        build_frame(an)


def test_an_analysis_refuses_an_empty_batch_of_points():
    with pytest.raises(ValueError, match="cannot seed an empty batch of points"):
        PointAnalysis(warped_spec(), np.zeros((0, 3)))


@pytest.mark.parametrize("shift, raises", [(1e-12, False), (1e-6, True)])
def test_frame_checks_the_coordinate_divergence(shift, raises):
    """build_frame raises when the connection formula misses the analysis's div P."""
    an = PointAnalysis(warped_spec(), (0.0, 0.0, 0.0))
    an.div_P_val = an.div_P_val + shift
    if raises:
        with pytest.raises(FrameConsistencyError, match="deviates from coordinate divergence"):
            build_frame(an)
    else:
        build_frame(an)


def test_frame_is_deterministic():
    spec = warped_spec()
    a = build_frame(PointAnalysis(spec, (0.25, 0.5, 0.75)))
    b = build_frame(PointAnalysis(spec, (0.25, 0.5, 0.75)))
    assert np.array_equal(a.vectors, b.vectors)
    assert a.u == b.u


def test_coordinate_vs_frame_divergence_random():
    for seed in (80, 81, 82, 83):
        sc = random_scenario(seed, 3)
        pt = sc.grid_points()[0]
        an = PointAnalysis(sc.spec(), pt)
        try:
            fr = build_frame(an)
        except DegeneratePError:
            continue
        div_coord_in_frame = fr.vectors @ an.div_P_val
        assert np.allclose(
            fr.div_true,
            div_coord_in_frame,
            atol=1e-10 * max(1.0, np.max(np.abs(div_coord_in_frame))),
        )


def test_lambda_profile_enters_P():
    base = analyze(warped_spec(lam="1"), (0.2, 0.3, 0.0)).P_val[0, 1]
    doubled = analyze(warped_spec(lam="2"), (0.2, 0.3, 0.0)).P_val[0, 1]
    assert doubled == pytest.approx(2.0 * base, rel=1e-14)
    # lambda = f at psi = x1: multiplies by f = 0.3
    scaled = analyze(warped_spec(lam="f"), (0.2, 0.3, 0.0)).P_val[0, 1]
    assert scaled == pytest.approx(0.3 * base, rel=1e-13)


def flat_spec(f: str, lam: str) -> PTensorSpec:
    rows = [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]
    return PTensorSpec(
        lam=parse(lam, variables=("f",)),
        f=Field([parse(f, variables=chart_variables(3))]),
        metric=MetricField.parse(rows, {}),
    )


@pytest.mark.parametrize(
    "f,lam,stage,failing",
    [
        ("300*r + x1*x1", "exp(f)", "p_norm_sq", "|P|^2"),
        ("300*r + x1*x1", "exp(f)", "violation", "|grad P|^2"),
        ("exp(300*r)*x1", "1", "P", "P"),
    ],
)
def test_a_non_finite_stage_names_itself_and_its_first_point_in_grid_order(f, lam, stage, failing):
    """P, grad P and the norms overflow here while f and lambda(f) are finite: never inf or nan."""
    spec = flat_spec(f, lam)
    points = [(0.0, 0.5, 0.0), (2.3, 0.5, 0.0), (2.2, 0.5, 0.0)]
    assert np.isfinite(getattr(PointAnalysis(spec, points[0], VALUE_ORDER), stage)).all()
    for pts, named in ((points, points[1]), (points[1], points[1]), (points[2], points[2])):
        with pytest.raises(EvalDomainError, match=rf"^{re.escape(failing)} leaves the float range at ") as err:
            getattr(PointAnalysis(spec, pts, VALUE_ORDER), stage)
        assert str(err.value).endswith(f" at {named}")
