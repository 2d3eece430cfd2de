"""The jet engine against the exact symbolic oracle of ``exact_oracle.py``."""

import pytest
import sympy
from sympy.polys.domains import QQ

from skewdiv.expr import chart_variables, evaluate, parse
from skewdiv.ptensor import PointAnalysis
from skewdiv.scenarios import builtin_scenario, random_scenario

from exact_oracle import exact_point, rel_error, to_sympy

CASES = [builtin_scenario(name) for name in ("euclidean", "round-sphere-static", "warped-canonical")]
CASES += [random_scenario(seed, 3) for seed in (0, 1, 7)] + [random_scenario(1, 4)]


def test_power_is_walked_left_associative():
    """skewdiv reads a^b^c as (a^b)^c; Python's ** would read a^(b^c)."""
    e = parse("(r + c)^(-1 / k)^2", variables=chart_variables(3), params=("k", "c"))
    r = sympy.Symbol("r")
    params = {"k": 4.0, "c": 1.0}
    assert to_sympy(e, (r,), params) == (r + 1) ** sympy.Rational(-1, 2)
    at = to_sympy(e, (sympy.Rational(1, 2),), params)
    assert float(at) == pytest.approx(evaluate(e, (0.5, 0.0, 0.0), params), rel=1e-15)


@pytest.mark.parametrize("sc", CASES, ids=lambda sc: sc.name)
def test_engine_matches_the_exact_oracle(sc):
    pt = sc.grid_points()[-1]
    an = PointAnalysis(sc.spec(), pt)
    exact = exact_point(sc.metric, pt, sc.f.tree, sc.lam)
    pairs = {
        "g^-1": (an.mj.ginv_val, exact.ginv),
        "Gamma": (an.mj.gamma[..., 0], exact.gamma),
        "Riemann": (an.mj.curvature.riemann, exact.riemann),
        "P": (an.P_val, exact.P),
        "grad P": (an.nabla_P_val, exact.nabla_P),
        "div P": (an.div_P_val, exact.div_P),
        "|P|^2": (an.p_norm_sq, exact.p_norm_sq),
        "|grad P|^2": (an.nabla_p_norm_sq, exact.nabla_p_norm_sq),
        "|div P|^2": (an.div_p_norm_sq, exact.div_p_norm_sq),
    }
    errors = {name: rel_error(got, want) for name, (got, want) in pairs.items()}
    assert max(errors.values()) <= 1e-12, errors


def test_warped_canonical_violation_at_r_0_is_exactly_minus_one_64th():
    sc = builtin_scenario("warped-canonical")
    exact = exact_point(sc.metric, (0.0, 0.0, 0.0), sc.f.tree, sc.lam)
    assert exact.domain == QQ
    assert exact.nabla_p_norm_sq == exact.div_p_norm_sq == QQ(1, 64)
    assert exact.violation == QQ(-1, 64)
    assert PointAnalysis(sc.spec(), (0.0, 0.0, 0.0)).violation == pytest.approx(-1 / 64, rel=1e-12)
