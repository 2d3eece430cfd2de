"""Acceptance suite: one test per criterion, one printed pass/fail line each.

Run with ``pytest -s tests/test_acceptance.py`` to see the lines as they
complete.  The random-scenario pool is shared session-wide (see conftest).
"""

import math
import time

import numpy as np
import pytest

from skewdiv.geometry import MetricJets
from skewdiv.identities import bochner_residual, static_residual
from skewdiv.ptensor import PointAnalysis, build_frame
from skewdiv.scenarios import builtin_scenario, random_scenario
from skewdiv.warped import WarpedSpec, closed_form_eval, cross_validate, ptensor_spec, search_violation

from checks import second_bianchi_residual, weyl
from conftest import bochner_dim3_rhs, session_elapsed
from exact_oracle import exact_point, rel_error


def _report(criterion: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"[{status}] {criterion}{suffix}")
    assert ok, f"{criterion}{suffix}"


GRID27 = [
    (r, x, y)
    for r in (0.0, 0.5, 1.0)
    for x in (0.0, 0.5, 1.0)
    for y in (0.0, 0.5, 1.0)
]


def test_criterion_1_counterexample_reproduction():
    t0 = time.perf_counter()
    wspec = WarpedSpec.canonical(4.0, 1.0)
    an = PointAnalysis(ptensor_spec(wspec), (0.0, 0.0, 0.0))
    ok = (
        abs(an.nabla_p_norm_sq - 1.0 / 64.0) <= 1e-12
        and abs(an.div_p_norm_sq - 1.0 / 64.0) <= 1e-12
        and abs(an.violation + 1.0 / 64.0) <= 1e-12
    )
    worst = float(np.max(cross_validate(wspec, GRID27)[0].rel_residual))
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 1: counterexample values at k=4,c=1,r=0 and 27-point cross-validation",
        ok and worst <= 1e-10 and elapsed < 1.0,
        f"violation={an.violation!r} cross-val={worst:.2e} time={elapsed:.2f}s",
    )


def test_criterion_2_sign_criterion():
    ok = True
    for k in (4.0, 6.0):
        spec = WarpedSpec.canonical(k, 1.0)
        for r in np.linspace(0.0, 1.0, 5):
            for x1 in (0.0, 0.5, 1.0):
                ok = ok and closed_form_eval(spec, float(r), x1).violation < 0.0
    spec2 = WarpedSpec.canonical(2.0, 1.0)
    for r in np.linspace(0.0, 1.0, 5):
        ok = ok and closed_form_eval(spec2, float(r), 0.5).violation > 0.0
    spec3 = WarpedSpec.canonical(3.0, 1.0)
    for r in np.linspace(0.0, 1.0, 5):
        ok = ok and abs(closed_form_eval(spec3, float(r), 0.5).violation) <= 1e-12
    _report("criterion 2: violation sign over k in {2, 3, 4, 6}", ok)


def _shipped_batches():
    out = []
    for name in ("euclidean", "round-sphere-static", "warped-canonical"):
        sc = builtin_scenario(name)
        spec = sc.spec()
        out.append((sc, [PointAnalysis(spec, pt) for pt in sc.grid_points()]))
    return out


@pytest.fixture(scope="module")
def shipped():
    return _shipped_batches()


def test_criterion_3_sharp_bound(random_pool, shipped):
    t0 = time.perf_counter()
    batches, pool_time = random_pool
    worst = math.inf
    points = 0
    for _, analyses in shipped:
        for an in analyses:
            worst = min(worst, an.sharp_margin)
            points += 1
    for batch in batches:
        for an in batch.analyses:
            worst = min(worst, an.sharp_margin)
            points += 1
    eq_margin = PointAnalysis(
        ptensor_spec(WarpedSpec.canonical(4.0, 1.0)), (0.0, 0.0, 0.0)
    ).sharp_margin
    elapsed = pool_time + (time.perf_counter() - t0)
    _report(
        "criterion 3: sharp bound margin >= -1e-12 everywhere, equality attained",
        worst >= -1e-12 and abs(eq_margin) <= 1e-12 and elapsed < 30.0,
        f"{points} points, worst={worst:.3e}, equality={eq_margin:.2e}, time={elapsed:.1f}s",
    )


def test_criterion_4_closedness(random_pool, shipped):
    worst = 0.0
    for _, analyses in shipped:
        for an in analyses:
            T = an.nabla_P_val
            worst = max(
                worst,
                float(np.max(np.abs(T + T.transpose(1, 2, 0) + T.transpose(2, 0, 1)))),
            )
    batches, _ = random_pool
    for batch in batches:
        for an in batch.analyses:
            T = an.nabla_P_val
            worst = max(
                worst,
                float(np.max(np.abs(T + T.transpose(1, 2, 0) + T.transpose(2, 0, 1)))),
            )
    _report(
        "criterion 4: cyclic residual <= 1e-10 on shipped and random scenarios",
        worst <= 1e-10,
        f"worst={worst:.2e}",
    )


def test_criterion_5_bochner(random_pool):
    batches, _ = random_pool
    worst = 0.0
    for batch in batches:
        an = batch.analyses[0]
        res = bochner_residual(an)
        worst = max(worst, res.rel_residual)
    worst_gap = 0.0
    for batch in batches[:20]:
        if batch.scenario.dim != 3:
            continue
        an = batch.analyses[0]
        d3 = bochner_dim3_rhs(an)
        worst_gap = max(worst_gap, abs(0.5 * an.laplacian_p_norm_sq - d3) / max(1.0, abs(d3)))
    _report(
        "criterion 5: curvature balance residual <= 1e-8, dim-3 forms agree to 1e-12",
        worst <= 1e-8 and worst_gap <= 1e-12,
        f"worst rel={worst:.2e}, form gap={worst_gap:.2e}",
    )


def test_criterion_6_frame_analysis():
    spec = ptensor_spec(WarpedSpec.canonical(4.0, 1.0))
    an = PointAnalysis(spec, (0.0, 0.0, 0.0))
    frame = build_frame(an)  # raises beyond 1e-10
    coord_gap = float(np.max(np.abs(frame.div_true - frame.vectors @ an.div_P_val)))
    dx1 = float(frame.covector_to_chart(frame.discrepancy)[1])
    _report(
        "criterion 6: frame divergence matches coordinates; bracket-free gap = 0.0625",
        coord_gap <= 1e-10 and abs(dx1 - 0.0625) <= 1e-12,
        f"coord gap={coord_gap:.2e}, dx1 coefficient={dx1!r}",
    )


def test_criterion_7_static_round_sphere(shipped):
    sphere = next(sc for sc, _ in shipped if sc.name == "round-sphere-static")
    analyses = next(a for sc, a in shipped if sc.name == "round-sphere-static")
    worst_res = 0.0
    worst_p = 0.0
    for an in analyses:
        tensor, scalar = static_residual(an)
        worst_res = max(worst_res, tensor.abs_residual, scalar.abs_residual)
        worst_p = max(worst_p, math.sqrt(max(an.p_norm_sq, 0.0)))
    _report(
        "criterion 7: static residuals <= 1e-10 and |P| <= 1e-12 on the 27-point grid",
        worst_res <= 1e-10 and worst_p <= 1e-12 and len(analyses) == 27,
        f"residual={worst_res:.2e}, |P|={worst_p:.2e}",
    )


def test_criterion_8_oracle_cross_checks(random_pool):
    worst_oracle = 0.0
    for seed in range(20):
        sc = random_scenario(2000 + seed, 3)
        pt = sc.grid_points()[0]
        mj = MetricJets(sc.metric, pt)
        exact = exact_point(sc.metric, pt)
        worst_oracle = max(
            worst_oracle,
            rel_error(mj.gamma[..., 0], exact.gamma),
            rel_error(mj.curvature.riemann, exact.riemann),
        )

    batches, _ = random_pool
    worst_weyl = 0.0
    for batch in batches:
        if batch.scenario.dim != 3:
            continue
        worst_weyl = max(worst_weyl, float(np.max(np.abs(weyl(batch.analyses[0].mj)))))

    worst_bianchi = 0.0
    for seed in range(10):
        sc = random_scenario(2100 + seed, 3)
        worst_bianchi = max(
            worst_bianchi,
            second_bianchi_residual(MetricJets(sc.metric, sc.grid_points()[0])).rel_residual,
        )
    _report(
        "criterion 8: Gamma and Riemann within 1e-12 of the exact oracle, Weyl = 0 in 3d, div Ric = dR/2",
        worst_oracle <= 1e-12 and worst_weyl <= 1e-10 and worst_bianchi <= 1e-8,
        f"oracle={worst_oracle:.2e}, weyl={worst_weyl:.2e}, bianchi={worst_bianchi:.2e}",
    )


def test_criterion_9_search():
    t0 = time.perf_counter()
    bounds = {"k": (1.0, 6.0), "c": (0.5, 2.0), "r": (0.0, 1.0)}
    first = search_violation(bounds, seed=42, iterations=1000)
    second = search_violation(bounds, seed=42, iterations=1000)
    elapsed = time.perf_counter() - t0
    _report(
        "criterion 9: seeded search finds violation < -1e-3 with k > 3, deterministically",
        first.violation < -1e-3
        and first.params["k"] > 3.0
        and first == second
        and elapsed < 10.0,
        f"best={first.violation:.4e} at k={first.params['k']:.3f}, time={elapsed:.2f}s",
    )


def test_criterion_10_full_suite_runtime():
    elapsed = session_elapsed()
    _report(
        "criterion 10: full test suite under 60 s",
        elapsed < 60.0,
        f"elapsed={elapsed:.1f}s",
    )
