"""Checks that only the tests call, kept beside the exact oracle.

No command of the package runs these, so they live here and not in
``skewdiv``: the package holds what a command runs, and ``test_imports``
fails on a public name there that no code in the package reads.

* :func:`second_bianchi_residual` checks the engine's curvature against a
  law every Levi-Civita connection obeys.  It forms all n^4 R^m_ijs jets,
  so it is not a verify verdict; the exact oracle (``exact_oracle.py``)
  checks the Riemann tensor itself.
* :func:`extract_derivative` reads one partial derivative out of a jet.
* :func:`violation_bracket` is the sign law of the warped family's
  violation (see :mod:`skewdiv.warped`).
* :func:`cpe_residual` and :func:`static_bochner_residual` check the
  critical-point system and the static substitution into the balance.  The
  Besse conjecture and the uniqueness argument for static triples apply
  the divergence estimate through them, but no built-in solves either
  system with P != 0, so no command reports them yet.  They share
  ``identities._field_residuals`` and ``_balance_terms`` with the checks
  that ``verify`` runs.  :func:`grad_f_val` and :func:`grad_p_norm_sq_val`
  are the two values only the static substitution reads.
* :func:`expression_jets` gives the jets of trees as the entries of one
  :class:`~skewdiv.geometry.Field`, lowered on each call, and
  :func:`metric_rows` a metric's entry trees as its rows.
* :func:`reference_report_json` is the report as ``json`` itself writes
  it, the route the package's own writer must match byte for byte.
* :func:`weyl` and :func:`traceless_ricci` are curvature values that no
  command reads: the Weyl tensor, which the tests keep as a reference for
  the balance's curvature term, and the trace-free Ricci tensor that
  :func:`cpe_residual` reads.  The engine's
  ``IdentityResidual`` keeps only a name and the two residuals, and
  ``FrameEval`` and ``ViolationRow`` only what a command prints; the tests
  form what else they read from the analysis itself.
"""

import json
import math
from typing import Sequence

import numpy as np

from skewdiv import __version__
from skewdiv.errors import EvalDomainError, OrderExceededError
from skewdiv.expr import Expr, ParamSet
from skewdiv.geometry import Field, IdentityResidual, MetricField, MetricJets, cov_derivative, point_tuple, residual
from skewdiv.identities import _balance_terms, _field_residuals
from skewdiv.jets import Jet, contract, jet_space, partials
from skewdiv.ptensor import PointAnalysis
from skewdiv.report import Report, fmt17
from skewdiv.warped import WarpedSpec

F_GATE = 1e-8


def expression_jets(exprs: Sequence[Expr], points, order: int, params: ParamSet) -> np.ndarray:
    """Coefficient array [..., e, :] of each tree ``exprs[e]`` at a point or a batch of points.

    The polynomial trees are lowered to one table and summed together
    (:meth:`skewdiv.geometry.Field.jets`); every other tree, and one whose
    sum is not finite, is walked.
    """
    return np.moveaxis(Field(exprs).jets(points, order, params), 0, -2)


def metric_rows(metric: MetricField) -> list[list[Expr]]:
    """The metric's entry trees as its n x n rows (parsed on first read if built from a table)."""
    return metric._rows(metric.entries.trees)


def second_bianchi_residual(mj: MetricJets) -> IdentityResidual:
    """Residual of the contracted second Bianchi identity (jet order >= 3).

    div Ric = (1/2) dR holds for every Levi-Civita connection; a nonzero
    residual beyond rounding indicates a convention or implementation bug.
    Its lhs is max_k |div Ric - 1/2 dR|_k and its one term max_k |dR|_k;
    over a batch, one of each per point.
    """
    mj.require_order(3, "the second Bianchi identity")
    n = mj.dim
    pairs = jet_space(n, mj.order - 2).pairs
    ric = np.einsum("...iijsZ->...jsZ", mj.riemann_up(mj.order - 2))
    dscal = partials(contract("js,js->", mj.ginv, ric, pairs), n, mj.batch)[..., 0]
    divric = np.einsum("...ij,...ijk->...k", mj.ginv_val, cov_derivative(ric, mj.gamma)[..., 0])
    gap = np.max(np.abs(divric - 0.5 * dscal), axis=-1)
    return residual("second-bianchi", gap, 0.0, (np.max(np.abs(dscal), axis=-1),))


def weyl(mj: MetricJets) -> np.ndarray:
    """W_ijks values (n >= 3), from the curvature decomposition

        R_ijks = -R/((n-1)(n-2)) (g_ik g_js - g_is g_jk)
                 + 1/(n-2) (R_ik g_js - R_is g_jk + g_ik R_js - g_is R_jk)
                 + W_ijks
    """
    n = mj.dim
    curv = mj.curvature
    scal = np.asarray(curv.scalar)
    gg = np.einsum("...ik,...js->...ijks", mj.g_val, mj.g_val)
    rg = np.einsum("...ik,...js->...ijks", curv.ricci, mj.g_val)
    gr = np.einsum("...ik,...js->...ijks", mj.g_val, curv.ricci)
    return (
        curv.riemann
        + (scal / ((n - 1) * (n - 2)))[..., None, None, None, None] * (gg - np.swapaxes(gg, -1, -2))
        - (rg - np.swapaxes(rg, -1, -2) + gr - np.swapaxes(gr, -1, -2)) / (n - 2)
    )


def traceless_ricci(mj: MetricJets) -> np.ndarray:
    """z = Ric - (R/n) g values, the trace-free Ricci tensor."""
    curv = mj.curvature
    return curv.ricci - (np.asarray(curv.scalar) / mj.dim)[..., None, None] * mj.g_val


def extract_derivative(j: Jet, alpha: Sequence[int]) -> float:
    """Partial derivative d^alpha of the jet's field at the base point."""
    alpha = tuple(int(a) for a in alpha)
    if len(alpha) != j.nvars:
        raise ValueError(f"multi-index has {len(alpha)} slots, jet has {j.nvars}")
    if any(a < 0 for a in alpha):
        raise ValueError("multi-index entries must be nonnegative")
    if sum(alpha) > j.order:
        raise OrderExceededError(
            f"derivative order {sum(alpha)} exceeds jet order {j.order}"
        )
    return float(j.c[j.space.index[alpha]] * math.prod(map(math.factorial, alpha)))


def violation_bracket(spec: WarpedSpec, r: float) -> float:
    """The sign-determining factor 4 phi_dot^2/phi^2 - phi_dd/phi."""
    p0, p1, p2 = spec.phi_jet(r).c[:3].tolist()
    p2 *= 2.0
    return 4.0 * p1**2 / p0**2 - p2 / p0


def cpe_residual(an: PointAnalysis) -> tuple[IdentityResidual, IdentityResidual]:
    """Tensor and scalar residuals of the critical-point system (diagnostic, jet order >= 2).

    The tensor equation is (1+f) z = grad^2 f + R f/(n(n-1)) g, z the
    trace-free Ricci tensor: its trace is Lap f = -R f/(n-1).  The critical
    point equation is where the Besse conjecture applies the divergence
    estimate for P.
    """
    n = an.dim
    if n < 3:
        raise ValueError("the critical-point system needs dimension >= 3")
    an.require_order(2, "the critical-point system")
    fval = an.fjet[..., 0]
    curv = an.mj.curvature
    scal = np.asarray(curv.scalar)
    lhs_t = (1.0 + fval)[..., None, None] * traceless_ricci(an.mj)
    return _field_residuals("cpe", an, lhs_t, scal * fval / (n * (n - 1)), -scal / (n - 1) * fval)


def grad_f_val(an: PointAnalysis) -> np.ndarray:
    """grad f = g^ab d_b f (values)."""
    return np.einsum("...ab,...b->...a", an.mj.ginv_val, an.df[..., 0])


def grad_p_norm_sq_val(an: PointAnalysis) -> np.ndarray:
    """d_a |P|^2 (values)."""
    return partials(an.p_norm_sq_jet, an.dim, an.mj.batch)[..., 0]


def static_bochner_residual(an: PointAnalysis) -> IdentityResidual:
    """Residual of the balance with Ricci eliminated via the static system (jet order >= 4).

        1/2 Lap |P|^2 = |grad P|^2 + 2 <P, grad div P> + (R/2)|P|^2
                        + (2/f) P(grad f, div P) - 1/(2f) <grad f, grad |P|^2>

    Meaningful only where ``identities.static_residual`` vanishes; the
    formula genuinely divides by f, so points with |f| < 1e-8 are refused,
    the first such point in grid order named, rather than regularized.
    ``an`` may analyse a batch of points.  The uniqueness argument for
    static triples relies on exactly this substitution.
    """
    if an.dim != 3:
        raise ValueError("the static substitution is a dimension-3 identity")
    an.require_order(4, "the static substitution")
    fval = an.fjet[..., 0]
    refused = np.flatnonzero(np.abs(fval) < F_GATE)
    if refused.size:
        i = refused[0]
        raise EvalDomainError(
            f"|f| = {float(abs(fval.flat[i]))!r} < {F_GATE} at "
            f"{point_tuple(an.mj.points.reshape(-1, 3)[i])}: the identity divides by f"
        )
    curv = an.mj.curvature
    gi = an.mj.ginv_val
    grad_f = grad_f_val(an)

    lhs, t_grad, t_div = _balance_terms(an)
    t_scal = 0.5 * curv.scalar * an.p_norm_sq
    div_up = np.einsum("...ab,...b->...a", gi, an.div_P_val)
    p_gf_div = np.einsum("...ab,...a,...b->...", an.P_val, grad_f, div_up)
    t_pair = 2.0 / fval * p_gf_div
    t_grad_pn = -0.5 / fval * np.einsum("...a,...a->...", grad_f, grad_p_norm_sq_val(an))
    terms = (t_grad, t_div, t_scal, t_pair, t_grad_pn)
    return residual("static-bochner", lhs, sum(terms), terms)


def _json_safe(x):
    """``x`` with every non-finite float replaced by its ``fmt17`` string, and tuples as lists."""
    if isinstance(x, float):
        return x if math.isfinite(x) else fmt17(x)
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    return x


def reference_report_json(report: Report) -> str:
    """The report as ``json.dumps(..., indent=2, allow_nan=False)`` writes it, over a copy with non-finite floats as strings."""
    doc = {
        "version": __version__,
        "scenario": report.scenario,
        "residuals": list(report.residuals),
        "violations": list(report.violations),
        "verdicts": [{"name": v.name, "pass": v.passed} for v in report.verdicts],
    }
    return json.dumps(_json_safe(doc), indent=2, allow_nan=False) + "\n"
