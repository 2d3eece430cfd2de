import math
import re

import numpy as np
import pytest

from skewdiv.errors import EvalDomainError, OrderExceededError
from skewdiv.expr import chart_variables, evaluate, parse
from skewdiv.geometry import Field, MetricField, MetricJets, residual
from skewdiv.identities import IdentityResidual, bochner_residual, static_residual
from skewdiv.scenarios import (
    BUILTIN_NAMES,
    builtin_scenario,
    parse_scenario_file,
    random_scenario,
    round_sphere_scenario,
)
from skewdiv.ptensor import PointAnalysis, PTensorSpec, build_frame, cyclic_residual
from skewdiv.warped import WarpedSpec, ptensor_spec

from checks import cpe_residual, second_bianchi_residual, static_bochner_residual, weyl
from conftest import bochner_dim3_rhs


def field_analysis(metric, f_src, points):
    """Analysis of the potential ``f_src`` on ``metric``: what the static and cpe checks read."""
    f = Field([parse(f_src, variables=chart_variables(metric.dim))])
    return PointAnalysis(PTensorSpec(parse("1", variables=("f",)), f, metric), points)


def test_bochner_on_warped_grid():
    spec = ptensor_spec(WarpedSpec.canonical(4.0, 1.0))
    grid = [
        (r, x, y)
        for r in (0.0, 0.5, 1.0)
        for x in (0.0, 0.5, 1.0)
        for y in (0.0, 0.5, 1.0)
    ]
    for pt in grid:
        res = bochner_residual(PointAnalysis(spec, pt))
        assert res.rel_residual < 1e-8


def test_bochner_trivial_for_flat_zero_P():
    sc = builtin_scenario("euclidean")
    an = PointAnalysis(sc.spec(), (0.2, 0.4, 0.6))
    res = bochner_residual(an)
    assert an.laplacian_p_norm_sq == 0.0
    assert res.abs_residual == 0.0 and res.rel_residual == 0.0  # so the rhs is 0 too


def test_bochner_random_scenarios_both_dimensions():
    """Module-level sweep: 100 scenarios per dimension, one point each."""
    for dim in (3, 4):
        worst = 0.0
        for seed in range(100):
            sc = random_scenario(300 + seed, dim)
            res = bochner_residual(PointAnalysis(sc.spec(), sc.grid_points()[0]))
            worst = max(worst, res.rel_residual)
        assert worst < 1e-8, f"dim {dim}: worst {worst}"


@pytest.mark.parametrize("dim", [3, 4])
def test_bochner_balance_is_within_a_few_ulps_on_random_scenarios(dim):
    """Summed two operands at a time, the balance closes to ~10 ulps of its terms.

    Summing |grad P|^2 and the Ricci term as single 5- and 6-operand einsums
    leaves up to 7.1e-15 on these seeds.
    """
    worst = max(
        float(np.max(bochner_residual(PointAnalysis(sc.spec(), sc.grid_points())).rel_residual))
        for sc in (random_scenario(seed, dim) for seed in range(40))
    )
    assert worst <= 2e-15, f"dim {dim}: worst {worst}"


def test_general_form_matches_dim3_form():
    """In dimension 3 the balance's curvature terms are R|P|^2 - 2 R_js P_sk P_jk: that form closes it too.

    The general form, 2 Ric(P, P) + 2 Rm(P, P), closes it within the bounds
    of the bochner tests above.
    """
    cases = [(ptensor_spec(WarpedSpec.canonical(4.0, 1.0)), (0.3, 0.2, 0.6))]
    for seed in (400, 401, 402):
        sc = random_scenario(seed, 3)
        cases.append((sc.spec(), sc.grid_points()[0]))
    for spec, pt in cases:
        an = PointAnalysis(spec, pt)
        dim3 = bochner_dim3_rhs(an)
        lhs = 0.5 * an.laplacian_p_norm_sq
        assert abs(lhs - dim3) < 1e-12 * max(1.0, abs(dim3))


SPLIT_CASES = [builtin_scenario(name) for name in BUILTIN_NAMES]
SPLIT_CASES += [random_scenario(seed, dim) for dim in (3, 4) for seed in range(8)]


@pytest.mark.parametrize("sc", SPLIT_CASES, ids=lambda sc: f"{sc.name}-{sc.dim}d")
def test_weitzenbock_term_equals_the_scalar_ricci_weyl_split(sc):
    """2 Ric(P, P) + 2 Rm(P, P) is the curvature term of the balance's scalar/Ricci/Weyl form.

    That form, for n >= 3, is 2R/((n-1)(n-2)) |P|^2 + 2 (n-4)/(n-2) Ric(P, P)
    + 2 W(P, P); the two agree within 1e-14 of their largest term.
    """
    an = PointAnalysis(sc.spec(), sc.grid_points())
    n, curv, p_up = an.dim, an.mj.curvature, an.P_up
    p_mixed = np.einsum("...jb,...bc->...jc", an.mj.ginv_val, an.P_val)
    ric_quad = np.einsum("...js,...sc,...jc->...", curv.ricci, p_up, p_mixed)
    riem_quad = np.einsum("...ijks,...is,...jk->...", curv.riemann, p_up, p_up)
    weyl_quad = np.einsum("...ijks,...is,...jk->...", weyl(an.mj), p_up, p_up)
    split = (
        2.0 * curv.scalar / ((n - 1) * (n - 2)) * an.p_norm_sq,
        2.0 * (n - 4) / (n - 2) * ric_quad,
        2.0 * weyl_quad,
    )
    weitzenbock = (2.0 * ric_quad, 2.0 * riem_quad)
    largest = np.max(np.abs([*split, *weitzenbock]), axis=0)
    assert np.all(np.abs(sum(split) - sum(weitzenbock)) <= 1e-14 * largest)


def test_bochner_balance_closes_in_dimension_2():
    """The balance holds in every dimension: on a curved 2-D chart it closes to a few ulps.

    At n = 2 its two curvature terms cancel, Rm(P, P) = -Ric(P, P).
    """
    sc = parse_scenario_file(
        "dim = 2\n"
        "f = x0*x1*x1 + sin(x0)\n"
        "lambda = 1 + f\n"
        "metric:\n"
        "1 + x0*x0/3 | x0*x1/5\n"
        "x0*x1/5 | exp(x0/2)\n"
    )
    res = bochner_residual(PointAnalysis(sc.spec(), [(0.3, 0.4), (0.7, 0.2), (0.1, 0.9)]))
    assert np.max(res.rel_residual) <= 2e-15


def test_static_system_on_round_sphere():
    sc = round_sphere_scenario()
    for pt in sc.grid_points():
        tensor, scalar = static_residual(PointAnalysis(sc.spec(), pt))
        assert tensor.abs_residual < 1e-10
        assert scalar.abs_residual < 1e-10


def test_static_trivial_flat_constant():
    m = MetricField.parse([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    tensor, scalar = static_residual(field_analysis(m, "1", (0.1, 0.2, 0.3)))
    assert tensor.abs_residual == 0.0
    assert scalar.abs_residual == 0.0


def test_static_fails_on_warped_counterexample():
    sc = builtin_scenario("warped-canonical")
    tensor, scalar = static_residual(PointAnalysis(sc.spec(), (0.3, 0.4, 0.5)))
    assert tensor.abs_residual > 1e-3 or scalar.abs_residual > 1e-3


def test_cpe_sphere_with_zero_potential():
    """f = 0 solves the critical-point system on an Einstein metric: z = 0 and R f = 0."""
    sc = round_sphere_scenario()
    pt = sc.grid_points()[4]
    tensor, scalar = cpe_residual(field_analysis(sc.metric, "0", pt))
    assert tensor.abs_residual <= 1e-14  # the rounding of z = Ric - (R/n) g
    assert scalar.abs_residual < 1e-12


def test_cpe_sphere_with_cos_r():
    """f = cos r on the unit sphere: z = 0 and grad^2 f = -f g = -R f/(n(n-1)) g, on the whole grid."""
    sc = round_sphere_scenario()
    tensor, scalar = cpe_residual(PointAnalysis(sc.spec(), sc.grid_points()))
    assert np.max(tensor.abs_residual) <= 1e-14
    assert np.max(scalar.abs_residual) <= 1e-14


def test_cpe_flat_zero_potential():
    m = MetricField.parse([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]])
    tensor, scalar = cpe_residual(field_analysis(m, "0", (0.5, 0.5, 0.5)))
    assert tensor.abs_residual == 0.0
    assert scalar.abs_residual == 0.0


def test_cpe_diagnostic_on_random_scenario():
    sc = random_scenario(17, 3)
    tensor, scalar = cpe_residual(PointAnalysis(sc.spec(), sc.grid_points()[0]))
    assert math.isfinite(tensor.abs_residual)
    assert math.isfinite(scalar.abs_residual)


def test_static_bochner_on_round_sphere():
    sc = round_sphere_scenario()
    spec = sc.spec()
    for pt in sc.grid_points()[::9]:
        res = static_bochner_residual(PointAnalysis(spec, pt))
        assert res.abs_residual < 1e-8


def test_static_bochner_refuses_small_f():
    sc = round_sphere_scenario()
    spec = sc.spec()
    with pytest.raises(EvalDomainError):
        static_bochner_residual(PointAnalysis(spec, (math.pi / 2, 0.8, 0.3)))


def test_static_bochner_diagnostic_on_non_static():
    spec = ptensor_spec(WarpedSpec.canonical(4.0, 1.0))
    res = static_bochner_residual(PointAnalysis(spec, (0.2, 0.5, 0.1)))
    assert math.isfinite(res.abs_residual)


def test_residuals_are_not_only_absolute():
    """Every check's rel_residual is at most its abs_residual, and some check's is smaller.

    The rule divides by the scale where it exceeds 1; at the warped point
    every scale with a nonzero residual is below 1.  That every
    IdentityResidual comes from ``geometry.residual`` is
    ``test_residual_rule``'s lint; the rule itself is pinned by
    ``test_the_residual_rule_bit_for_bit``.
    """
    checks = []
    for spec, points in (
        (ptensor_spec(WarpedSpec.canonical(4.0, 1.0)), (0.4, 0.7, 0.2)),
        (random_scenario(0, 3).spec(), random_scenario(0, 3).grid_points()),
    ):
        an = PointAnalysis(spec, points)
        checks += [
            cyclic_residual(an),
            bochner_residual(an),
            *static_residual(an),
            *cpe_residual(an),
            static_bochner_residual(an),
            second_bianchi_residual(an.mj),
        ]
    for res in checks:
        assert np.all(res.rel_residual <= res.abs_residual), res.name
    assert any(np.any(res.rel_residual != res.abs_residual) for res in checks)  # not only the floor


def test_the_residual_rule_bit_for_bit():
    """|lhs - rhs| / max(scale, 1), scale the largest of |lhs| and the |terms|, per point."""
    one = residual("one", 3.0, 1.0, (4.0, -5.0))
    assert (one.name, one.abs_residual, one.rel_residual) == ("one", 2.0, 2.0 / 5.0)
    assert type(one.abs_residual) is float and type(one.rel_residual) is float
    small = residual("small", 0.25, 0.5, (0.125,))  # scale 0.25: the floor of 1 holds
    assert (small.abs_residual, small.rel_residual) == (0.25, 0.25)
    batch = residual("batch", np.array([3.0, 0.25, 7.0]), 1.0, (np.array([4.0, 0.125, 0.0]),))
    assert batch.abs_residual.tobytes() == np.array([2.0, 0.75, 6.0]).tobytes()
    assert batch.rel_residual.tobytes() == np.array([2.0 / 4.0, 0.75, 6.0 / 7.0]).tobytes()
    with np.errstate(invalid="ignore"):
        spread = residual("nan", 1.0, 0.0, (math.nan,))
    assert spread.abs_residual == 1.0 and math.isnan(spread.rel_residual)


BATCH_CHECKS = {
    "static": lambda sc, points: static_residual(PointAnalysis(sc.spec(), points)),
    "cpe": lambda sc, points: cpe_residual(PointAnalysis(sc.spec(), points)),
    "static-bochner": lambda sc, points: static_bochner_residual(PointAnalysis(sc.spec(), points)),
    "second-bianchi": lambda sc, points: second_bianchi_residual(MetricJets(sc.metric, points)),
}


def _numbers(result) -> list:
    """Every number a check returns: a float, or a residual's fields, or a pair's."""
    if isinstance(result, tuple):
        return [x for res in result for x in _numbers(res)]
    if isinstance(result, IdentityResidual):
        return [result.abs_residual, result.rel_residual]
    return [result]


@pytest.mark.parametrize("check", sorted(BATCH_CHECKS))
@pytest.mark.parametrize(
    "sc, refused",
    [(round_sphere_scenario(), (math.pi / 2, 0.8, 0.3)), (random_scenario(0, 3), (0.0, 0.0, 0.0))],
    ids=["round-sphere-static", "random-curved-3d-seed0"],
)
def test_batch_equals_its_points(check, sc, refused):
    """A batch gives each point's own result, bit for bit; f = 0 is refused by name."""
    points = sc.grid_points()
    batch = _numbers(BATCH_CHECKS[check](sc, points))
    for i, pt in enumerate(points):
        one = _numbers(BATCH_CHECKS[check](sc, pt))
        assert len(one) == len(batch)
        for got, want in zip(batch, one):
            assert type(want) is float
            got = np.broadcast_to(got, (len(points),))[i]
            assert np.float64(got).tobytes() == np.float64(want).tobytes()
    if check == "static-bochner":
        assert evaluate(sc.f.trees[0], refused, sc.params) == pytest.approx(0.0, abs=1e-15)
        with pytest.raises(EvalDomainError, match=re.escape(f" at {refused}: ")):
            BATCH_CHECKS[check](sc, points[:2] + [refused] + points[2:])



def metric_jets(spec, points, order):
    return MetricJets(spec.metric, points, order)


@pytest.mark.parametrize(
    "check, analysis, need",
    [
        (bochner_residual, PointAnalysis, 4),
        (static_bochner_residual, PointAnalysis, 4),
        (cyclic_residual, PointAnalysis, 3),
        (build_frame, PointAnalysis, 3),
        (second_bianchi_residual, metric_jets, 3),
        (static_residual, PointAnalysis, 2),
        (cpe_residual, PointAnalysis, 2),
    ],
    ids=lambda v: v.__name__ if callable(v) else None,
)
def test_too_low_a_jet_order_is_named(check, analysis, need):
    """Below its lowest jet order a check raises OrderExceededError naming both orders."""
    spec, pt = ptensor_spec(WarpedSpec.canonical(4.0, 1.0)), (0.3, 0.2, 0.6)
    check(analysis(spec, pt, need))
    with pytest.raises(OrderExceededError, match=f"needs jet order >= {need}, not {need - 1}$"):
        check(analysis(spec, pt, need - 1))
