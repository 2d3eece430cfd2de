import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewdiv import warped
from skewdiv.errors import EvalDomainError, OrderExceededError
from skewdiv.jets import Jet
from skewdiv.ptensor import PointAnalysis, analyze, build_frame
from skewdiv.warped import (
    ViolationRow,
    WarpedSpec,
    build_report,
    closed_form_eval,
    cross_validate,
    ptensor_spec,
    search_violation,
)

from checks import violation_bracket


def grid27():
    return [
        (r, x, y)
        for r in (0.0, 0.5, 1.0)
        for x in (0.0, 0.5, 1.0)
        for y in (0.0, 0.5, 1.0)
    ]


def test_closed_form_at_canonical_point():
    spec = WarpedSpec.canonical(4.0, 1.0)
    row = closed_form_eval(spec, 0.0, 0.0)
    assert row.nabla_p_norm_sq == pytest.approx(1.0 / 64.0, abs=1e-15)
    assert row.div_p_norm_sq == pytest.approx(1.0 / 64.0, abs=1e-15)
    assert row.violation == pytest.approx(-1.0 / 64.0, abs=1e-15)
    assert abs(row.sharp_margin) < 1e-15
    an = PointAnalysis(ptensor_spec(spec), (0.0, 0.0, 0.0))
    assert an.P_val[..., 0, 1] == pytest.approx(-0.25, abs=1e-15)
    frame = build_frame(an)
    assert frame.covector_to_chart(frame.div_true)[1] == pytest.approx(1.0 / 8.0, abs=1e-15)
    assert frame.covector_to_chart(frame.div_false)[1] == pytest.approx(1.0 / 16.0, abs=1e-15)


def test_constant_psi_kills_everything():
    spec = WarpedSpec.canonical(4.0, 1.0, psi="1")
    row = closed_form_eval(spec, 0.3, 0.7)
    assert analyze(ptensor_spec(spec), (0.3, 0.7, 0.0)).P_val[..., 0, 1] == 0.0
    assert row.nabla_p_norm_sq == 0.0
    assert row.div_p_norm_sq == 0.0
    assert row.violation == 0.0


def test_bracket_closed_form_and_signs():
    c = 1.0
    for k in (2.0, 3.0, 4.0, 6.0):
        spec = WarpedSpec.canonical(k, c)
        for r in (0.0, 0.4, 1.0):
            expected = (3.0 - k) / (k**2 * (r + c) ** 2)
            got = violation_bracket(spec, r)
            assert got == pytest.approx(expected, rel=1e-12, abs=1e-15)
    # violation sign follows the bracket sign wherever G phi_dot != 0
    for k, sign in ((2.0, 1.0), (4.0, -1.0), (6.0, -1.0)):
        spec = WarpedSpec.canonical(k, c)
        for r in (0.0, 0.5, 1.0):
            v = closed_form_eval(spec, r, 0.2).violation
            assert math.copysign(1.0, v) == sign
    spec3 = WarpedSpec.canonical(3.0, c)
    for r in (0.0, 0.5, 1.0):
        assert abs(closed_form_eval(spec3, r, 0.2).violation) <= 1e-12


def test_false_formula_gap_closed_form():
    """The frame's bracket-free shortcut misses div P by phi_dot^2/phi^4 dx1."""
    for k, c, r, x1 in ((4.0, 1.0, 0.0, 0.0), (5.0, 2.0, 0.7, 0.4), (2.5, 0.8, 0.3, 0.9)):
        spec = WarpedSpec.canonical(k, c)
        frame = build_frame(PointAnalysis(ptensor_spec(spec), (r, x1, 0.0)))
        phi = (r + c) ** (-1 / k)
        dphi = -(1 / k) * (r + c) ** (-1 / k - 1)
        gap = dphi**2 / phi**4  # lambda = 1, psi' = 1
        assert frame.covector_to_chart(frame.discrepancy)[1] == pytest.approx(gap, rel=1e-12)


def test_cross_validation_canonical():
    spec = WarpedSpec.canonical(4.0, 1.0)
    check, rows = cross_validate(spec, grid27())
    assert np.max(check.rel_residual) < 1e-10
    assert len(rows) == 27


def test_cross_validation_flat_warp():
    spec = WarpedSpec("1", "x1", "1")
    check, rows = cross_validate(spec, [(0.1, 0.2, 0.3), (0.5, 0.6, 0.7)])
    assert np.max(check.rel_residual) < 1e-15
    for row in rows:
        assert row.nabla_p_norm_sq == 0.0
        assert row.violation == 0.0


def test_cross_validation_harder_instance():
    spec = WarpedSpec.canonical(5.0, 2.0, lam="f^2", psi="sin(x1)")
    pts = [(r, x, 0.4) for r in (0.0, 0.6, 1.0) for x in (0.2, 0.8)]
    check, _ = cross_validate(spec, pts)
    assert np.max(check.rel_residual) < 1e-10


def test_build_report_summary():
    spec = WarpedSpec.canonical(4.0, 1.0)
    rep = build_report(spec, grid27())
    assert rep.max_engine_discrepancy < 1e-10
    assert rep.negative_points == 27
    assert rep.zero_points == 0 and rep.positive_points == 0
    assert rep.min_violation <= -1.0 / 64.0 + 1e-15
    assert rep.params == {"k": 4.0, "c": 1.0}


def test_positive_warp_required():
    spec = WarpedSpec("r - 1", "x1", "1")
    with pytest.raises(EvalDomainError):
        closed_form_eval(spec, 0.5, 0.0)


@pytest.mark.parametrize(
    "r, k", [(1.0, 0.005), (-0.2, 0.001), (1.0, 0.006)], ids=["underflow", "overflow", "product"]
)
def test_a_power_of_phi_beyond_the_float_range_is_a_domain_error(r, k):
    """phi = (r+1)^(-1/k) is in range, but phi^6 underflows to 0, phi^4 overflows or a product of powers does."""
    spec = WarpedSpec.canonical(k, 1.0)
    message = f"closed form leaves the float range at r={r!r}, x1=0.5, params {{'k': {k!r}, 'c': 1.0}}"
    with pytest.raises(EvalDomainError) as exc:
        closed_form_eval(spec, r, 0.5)
    assert str(exc.value) == message


def test_search_finds_counterexample_region():
    res = search_violation({"k": (1, 6), "c": (0.5, 2), "r": (0, 1)}, seed=42, iterations=1000)
    assert res.violation < -1e-3
    assert res.params["k"] > 3.0
    again = search_violation({"k": (1, 6), "c": (0.5, 2), "r": (0, 1)}, seed=42, iterations=1000)
    assert res == again


def test_search_respects_restricted_bounds():
    res = search_violation({"k": (1.0, 2.5)}, seed=3, iterations=400)
    assert res.violation >= 0.0


def test_search_single_iteration_is_deterministic():
    a = search_violation(seed=9, iterations=1)
    b = search_violation(seed=9, iterations=1)
    assert a == b
    assert a.evaluations == 1


@pytest.mark.parametrize(
    "bounds", [{"k": (1, math.inf)}, {"c": (-math.inf, 2.0)}, {"r": (math.nan, 1.0)}]
)
def test_search_rejects_non_finite_bounds(bounds):
    """A bound outside the reals is named at once, not met later as a bad exponent."""
    with pytest.raises(ValueError, match=f"^non-finite bounds for {next(iter(bounds))!r}"):
        search_violation(bounds, seed=0, iterations=50)


def test_search_validates_arguments():
    with pytest.raises(ValueError):
        search_violation(iterations=0)
    with pytest.raises(ValueError):
        search_violation({"q": (0, 1)})
    with pytest.raises(ValueError):
        search_violation({"k": (5, 1)})


def test_search_ranks_overflowing_points_last_with_warnings_as_errors():
    """Some points overflow inside the jets before the located error; this suite makes warnings errors."""
    res = search_violation({"k": (1e-3, 1e-3)}, seed=0, iterations=50)
    assert math.isfinite(res.violation) and res.params["k"] == 1e-3 and res.evaluations == 50


def test_search_where_no_evaluation_is_finite_is_a_domain_error():
    with pytest.raises(
        EvalDomainError,
        match=r"^all 50 evaluations leave the float range for "
        r"k in \[0\.001, 0\.002\], c in \[2\.0, 2\.0\], r in \[0\.0, 1\.0\]$",
    ):
        search_violation({"k": (1e-3, 2e-3), "c": (2.0, 2.0)}, seed=0, iterations=50)


@pytest.mark.parametrize("seed", [3, 11, 42])
def test_search_with_the_profile_computed_once_is_exact(seed, monkeypatch):
    """Reusing G across evaluations, and a value across repeated queries, changes no bit of
    the search result: the closed form runs once per distinct (k, c, r) bit pattern queried,
    in the order first queried, while every query counts as an evaluation."""
    hoisted = search_violation(seed=seed, iterations=300)
    point_bits = warped._point_bits
    queried, calls = [], []

    def recording(*x):
        queried.append(point_bits(*x))
        return queried[-1]

    def recomputing(spec, r, x1, params=None, *, phi=None, profile=None):
        calls.append((point_bits(params["k"], params["c"], r), phi is None and profile is not None))
        return closed_form_eval(spec, r, x1, params=params)

    monkeypatch.setattr(warped, "_point_bits", recording)
    monkeypatch.setattr(warped, "closed_form_eval", recomputing)
    plain = search_violation(seed=seed, iterations=300)
    assert len(queried) == plain.evaluations
    assert [key for key, _ in calls] == list(dict.fromkeys(queried))
    assert len(calls) < plain.evaluations and all(with_profile for _, with_profile in calls)
    assert hoisted == plain
    assert math.copysign(1.0, hoisted.violation) == math.copysign(1.0, plain.violation)


PROFILES = [("1", "x1"), ("f^2", "sin(x1)"), ("exp(-f)", "x1^3 + x1"), ("1/(1 + f^2)", "x1/2 + 1")]


def _bits(row) -> bytes:
    return np.array(tuple(row), dtype=float).tobytes()


def test_a_row_keeps_its_six_fields_in_order():
    """The CSV and the engine cross-check read a row's fields by name; a row unpacks in this order."""
    assert ViolationRow._fields == ("r", "x1", "nabla_p_norm_sq", "div_p_norm_sq", "violation", "sharp_margin")


@settings(max_examples=300, deadline=None, derandomize=True)
@given(
    st.sampled_from(PROFILES),
    st.floats(1.0, 6.0),
    st.floats(0.5, 2.0),
    st.floats(0.0, 1.0),
    st.floats(-1.0, 1.0),
)
def test_closed_form_at_order_2_equals_order_4_bit_for_bit(profile, k, c, r, x1):
    """The closed forms read phi, phi', phi'', G and G' only; order 4 adds nothing."""
    lam, psi = profile
    spec = WarpedSpec.canonical(k, c, lam=lam, psi=psi)
    low = (_bits(closed_form_eval(spec, r, x1)), violation_bracket(spec, r))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(warped, "CLOSED_FORM_ORDER", 4)
        high = (_bits(closed_form_eval(spec, r, x1)), violation_bracket(spec, r))
    assert low[0] == high[0]
    assert np.float64(low[1]).tobytes() == np.float64(high[1]).tobytes()


def test_search_at_order_2_equals_order_4(monkeypatch):
    low = search_violation(seed=3, iterations=300)
    monkeypatch.setattr(warped, "CLOSED_FORM_ORDER", 4)
    assert search_violation(seed=3, iterations=300) == low


def violation_law(k: float, c: float, r: float) -> float:
    """Violation of the canonical warp with psi = x1 and lambda = 1."""
    return 4.0 * (3.0 - k) / k**4 * (r + c) ** (6.0 / k - 4.0)


def norm_laws(k: float, c: float, r: float) -> tuple[float, float]:
    """|grad P|^2 and |div P|^2 of that warp; with a = -1/k their difference is the violation."""
    a = -1.0 / k
    s = (r + c) ** (6.0 / k - 4.0)
    return 2.0 * (a * a * (3.0 * a + 1.0) ** 2 + a**4) * s, a * a * (2.0 * a + 1.0) ** 2 * s


@settings(max_examples=200, deadline=None, derandomize=True)
@given(st.floats(1.0, 6.0), st.floats(0.5, 2.0), st.floats(0.0, 1.0))
def test_closed_form_eval_follows_the_violation_law(k, c, r):
    row = closed_form_eval(WarpedSpec.canonical(k, c), r, 0.5)
    nabla, div = norm_laws(k, c, r)
    # |div P|^2 vanishes at k = 2 and the violation at k = 3, each by
    # cancellation: bound their errors by the terms of the violation.
    scale = nabla + 2.0 * div
    assert abs(row.nabla_p_norm_sq - nabla) <= 1e-12 * nabla
    assert abs(row.div_p_norm_sq - div) <= 1e-12 * scale
    assert abs(row.violation - violation_law(k, c, r)) <= 1e-12 * scale


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.floats(1.0, 6.0),
    st.floats(0.5, 2.0),
    st.lists(st.floats(0.0, 1.0), min_size=1, max_size=3),
)
def test_analyze_follows_the_violation_law(k, c, rs):
    """The generic tensor pipeline, not only the closed forms, follows the law on a batch."""
    ev = analyze(ptensor_spec(WarpedSpec.canonical(k, c)), [(r, 0.5, 0.25) for r in rs])
    for i, r in enumerate(rs):
        nabla, div = norm_laws(k, c, r)
        scale = nabla + 2.0 * div
        assert abs(ev.nabla_p_norm_sq[i] - nabla) <= 1e-12 * nabla
        assert abs(ev.div_p_norm_sq[i] - div) <= 1e-12 * scale
        assert abs(ev.violation[i] - violation_law(k, c, r)) <= 1e-12 * scale


@pytest.mark.parametrize("seed", [0, 3, 11, 42])
def test_search_reaches_the_closed_form_optimum(seed):
    """Under the default bounds the minimum sits at the smallest s = r + c = 0.5, where
    d/dk of the law vanishes at k* = 2 - ln s + sqrt((2 - ln s)^2 + 6 ln s)."""
    ln_s = math.log(0.5)
    k_star = 2.0 - ln_s + math.sqrt((2.0 - ln_s) ** 2 + 6.0 * ln_s)
    res = search_violation(seed=seed, iterations=1000)
    want = violation_law(k_star, 0.5, 0.0)
    assert (res.params["c"], res.params["r"]) == (0.5, 0.0)
    assert abs(res.params["k"] - k_star) <= 1e-6
    assert abs(res.violation - want) <= 1e-12 * abs(want)


@pytest.mark.parametrize("seed", [0, 3, 11, 42])
def test_search_optimum_on_the_k_bound(seed):
    """k* = 4.45 lies below k >= 5, and the law increases in k there: the optimum is k = 5."""
    res = search_violation({"k": (5, 6)}, seed=seed, iterations=1000)
    assert res.params == {"k": 5.0, "c": 0.5, "r": 0.0}
    want = violation_law(5.0, 0.5, 0.0)
    assert abs(res.violation - want) <= 1e-12 * abs(want)


def test_search_evaluations_make_no_jet_product(monkeypatch):
    """The warp (r+c)^(-1/k) at order 2 is the only jet work of a closed-form call, and it makes no
    product: a power of a seed plus a constant places the power's series (``Jet._compose``)."""
    products = []
    mul = Jet.__mul__

    def counted(self, other):
        products.append(1)
        return mul(self, other)

    monkeypatch.setattr(Jet, "__mul__", counted)
    monkeypatch.setattr(Jet, "__rmul__", counted)
    per_call = []
    evaluate_once = warped.closed_form_eval

    def traced(*args, **kwargs):
        before = len(products)
        row = evaluate_once(*args, **kwargs)
        per_call.append(len(products) - before)
        return row

    monkeypatch.setattr(warped, "closed_form_eval", traced)
    res = search_violation(seed=3, iterations=300)
    # A repeated (k, c, r) is answered without a call, so there are fewer calls than evaluations.
    assert 0 < len(per_call) < res.evaluations
    assert per_call == [0] * len(per_call)


def test_closed_form_rejects_a_profile_without_derivatives():
    spec = WarpedSpec.canonical(4.0, 1.0)
    with pytest.raises(OrderExceededError, match="derivative order 1 exceeds jet order 0"):
        closed_form_eval(spec, 0.5, 0.5, profile=Jet.constant(1.0, 1, 0))


def test_closed_form_rejects_a_warp_jet_below_order_2():
    spec = WarpedSpec.canonical(4.0, 1.0)
    with pytest.raises(OrderExceededError, match="derivative order 2 exceeds jet order 1"):
        closed_form_eval(spec, 0.5, 0.5, phi=Jet.variable(0.5, 0, 1, 1))


_REPEATED = st.sampled_from([0.0, -0.0, 0.5])


@settings(max_examples=40, deadline=None, derandomize=True)
@given(
    st.sampled_from(PROFILES),
    st.floats(1.0, 6.0),
    st.floats(0.5, 2.0),
    st.lists(_REPEATED | st.floats(0.0, 1.0), min_size=1, max_size=3),
    st.lists(_REPEATED | st.floats(-1.0, 1.0), min_size=1, max_size=3),
    st.data(),
)
def test_the_grid_report_forms_each_jet_once_and_equals_per_point_evaluation(
    profile, k, c, rs, xs, data
):
    """phi runs once per distinct r and G once per distinct x1 (by bits: -0.0 is not 0.0),
    and every row is bit-identical to the closed form evaluated at its point alone."""
    lam, psi = profile
    spec = WarpedSpec.canonical(k, c, lam=lam, psi=psi)
    picks = st.tuples(st.sampled_from(rs), st.sampled_from(xs))
    points = [(r, x1, 0.25) for r, x1 in data.draw(st.lists(picks, min_size=1, max_size=8))]
    alone = [_bits(closed_form_eval(spec, r, x1)) for r, x1, _ in points]
    formed = {"phi_jet": [], "profile_jet": []}
    with pytest.MonkeyPatch.context() as mp:
        for name, seen in formed.items():
            method = getattr(WarpedSpec, name)

            def counted(self, x, params=None, method=method, seen=seen):
                seen.append(np.float64(x).tobytes())
                return method(self, x, params)

            mp.setattr(WarpedSpec, name, counted)
        _, rows = cross_validate(spec, points)
    assert [_bits(row) for row in rows] == alone
    for name, column in (("phi_jet", 0), ("profile_jet", 1)):
        distinct = list(dict.fromkeys(np.float64(pt[column]).tobytes() for pt in points))
        assert formed[name] == distinct


_OVERFLOW = WarpedSpec.canonical(0.005, 1.0)
_RS, _XS = (0.0, 0.5, 0.75, 1.0, 0.5), (0.0, 1.0)


@pytest.mark.parametrize(
    "spec, points, where",
    [
        (_OVERFLOW, [(r, x1, 0.0) for r in _RS for x1 in _XS], "r=1.0, x1=0.0"),
        (_OVERFLOW, [(r, x1, 0.0) for x1 in _XS for r in _RS][::-1], "r=1.0, x1=1.0"),
        (WarpedSpec("r - 0.5", "log(x1)", "1"), [(1.0, 1.0, 0.0), (1.0, -1.0, 0.0), (0.25, 1.0, 0.0)], "-1.0"),
    ],
    ids=["k=0.005 r outer", "k=0.005 x1 outer reversed", "G fails before a later phi"],
)
def test_a_failing_grid_names_the_first_point_that_fails_alone(spec, points, where):
    """k = 0.005: (r+1)^(-200) is in range, but its sixth power underflows near r = 1.  The jets
    shared across rows are formed in grid order, so the first failure is the per-point one."""
    failures = []
    for r, x1, _ in points:
        try:
            closed_form_eval(spec, r, x1)
        except EvalDomainError as exc:
            failures.append(str(exc))
    with pytest.raises(EvalDomainError) as exc:
        build_report(spec, points)
    assert str(exc.value) == failures[0]
    assert where in failures[0]


@pytest.mark.parametrize("run", [cross_validate, build_report])
def test_a_report_refuses_an_empty_set_of_points(run):
    with pytest.raises(ValueError, match="^cannot cross-validate an empty set of points$"):
        run(WarpedSpec.canonical(4.0, 1.0), [])
