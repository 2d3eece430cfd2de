import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from skewdiv import warped
from skewdiv.errors import EvalDomainError
from skewdiv.warped import (
    WarpedSpec,
    build_report,
    closed_form_eval,
    cross_validate,
    search_violation,
    violation_bracket,
)


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
    assert row.p_coefficient == pytest.approx(-0.25, abs=1e-15)
    assert row.nabla_p_norm_sq == pytest.approx(1.0 / 64.0, abs=1e-15)
    assert row.div_p_norm_sq == pytest.approx(1.0 / 64.0, abs=1e-15)
    assert row.violation == pytest.approx(-1.0 / 64.0, abs=1e-15)
    assert abs(row.sharp_margin) < 1e-15
    assert row.div_true_dx1 == pytest.approx(1.0 / 8.0, abs=1e-15)
    assert row.div_false_dx1 == pytest.approx(1.0 / 16.0, abs=1e-15)


def test_constant_psi_kills_everything():
    spec = WarpedSpec.canonical(4.0, 1.0, psi="1")
    row = closed_form_eval(spec, 0.3, 0.7)
    assert row.p_coefficient == 0.0
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
    for k, c, r, x1 in ((4.0, 1.0, 0.0, 0.0), (5.0, 2.0, 0.7, 0.4), (2.5, 0.8, 0.3, 0.9)):
        spec = WarpedSpec.canonical(k, c)
        row = closed_form_eval(spec, r, x1)
        phi = (r + c) ** (-1 / k)
        dphi = -(1 / k) * (r + c) ** (-1 / k - 1)
        gap = dphi**2 / phi**4  # lambda = 1, psi' = 1
        assert row.div_true_dx1 - row.div_false_dx1 == pytest.approx(gap, rel=1e-12)


def test_cross_validation_canonical():
    spec = WarpedSpec.canonical(4.0, 1.0)
    worst, rows = cross_validate(spec, grid27())
    assert worst < 1e-10
    assert len(rows) == 27


def test_cross_validation_flat_warp():
    spec = WarpedSpec("1", "x1", "1")
    worst, rows = cross_validate(spec, [(0.1, 0.2, 0.3), (0.5, 0.6, 0.7)])
    assert worst < 1e-15
    for row in rows:
        assert row.nabla_p_norm_sq == 0.0
        assert row.violation == 0.0


def test_cross_validation_harder_instance():
    spec = WarpedSpec.canonical(5.0, 2.0, lam="f^2", psi="sin(x1)")
    pts = [(r, x, 0.4) for r in (0.0, 0.6, 1.0) for x in (0.2, 0.8)]
    worst, _ = cross_validate(spec, pts)
    assert worst < 1e-10


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


def test_search_validates_arguments():
    with pytest.raises(ValueError):
        search_violation(iterations=0)
    with pytest.raises(ValueError):
        search_violation({"q": (0, 1)})
    with pytest.raises(ValueError):
        search_violation({"k": (5, 1)})


@pytest.mark.parametrize("seed", [3, 11, 42])
def test_search_with_the_profile_computed_once_is_exact(seed, monkeypatch):
    """Reusing G across evaluations changes no bit of the search result."""
    hoisted = search_violation(seed=seed, iterations=300)
    calls = []

    def recomputing(spec, r, x1, params=None, *, profile=None):
        calls.append(profile is not None)
        return closed_form_eval(spec, r, x1, params=params)

    monkeypatch.setattr(warped, "closed_form_eval", recomputing)
    plain = search_violation(seed=seed, iterations=300)
    assert len(calls) == plain.evaluations and all(calls)
    assert hoisted == plain
    assert math.copysign(1.0, hoisted.violation) == math.copysign(1.0, plain.violation)


PROFILES = [("1", "x1"), ("f^2", "sin(x1)"), ("exp(-f)", "x1^3 + x1"), ("1/(1 + f^2)", "x1/2 + 1")]


def _bits(row) -> bytes:
    return np.array(dataclasses.astuple(row), dtype=float).tobytes()


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
