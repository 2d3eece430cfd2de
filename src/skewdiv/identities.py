"""Residual checkers for the pointwise differential identities.

Each checker evaluates both sides of an identity at a point and reports the
absolute and relative residual through :func:`skewdiv.geometry.residual`,
the rule every check shares.

Identities covered:

* Weitzenbock/Bochner balance for P, in every dimension:

      1/2 Lap |P|^2 = |grad P|^2 + 2 <P, grad div P>
                      + 2 R_js P^sc P^j_c + 2 R_ijks P^is P^jk

  Its curvature term 2 Ric(P, P) + 2 Rm(P, P) is the Weitzenbock curvature
  term of 2-forms (Petersen, Riemannian Geometry, 3rd ed., ch. 9); on the
  round unit n-sphere it is 2(n-2) |P|^2.  In dimension 3 the Riemann
  tensor is fixed by the Ricci tensor and the balance reads

      1/2 Lap |P|^2 = |grad P|^2 + 2 <P, grad div P> + R |P|^2 - 2 R_js P_sk P_jk,

  which the tests check against the general formula; the checker sums the
  general one in every dimension.

  The Ricci term is summed as R_js P^sc (g^-1 P)^j_c, from the raised P^sc
  and three operands at most; the norms come from :func:`~skewdiv.geometry.norm_sq`.

* The vacuum static system:  f Ric = grad^2 f + (R/2) f g  and
  Lap f = -(R/2) f  (dimension 3).
"""

from __future__ import annotations

import numpy as np

from .geometry import IdentityResidual, batch_value, cov_derivative, norm_sq, residual
from .ptensor import PointAnalysis


def _balance_terms(an: PointAnalysis):
    """1/2 Lap |P|^2, |grad P|^2 and 2 <P, grad div P>: the sides every balance shares."""
    lhs = 0.5 * an.laplacian_p_norm_sq
    t_div = 2.0 * batch_value(np.einsum("...jk,...jk->...", an.P_up, an.nabla_div_P_val))
    return lhs, an.nabla_p_norm_sq, t_div


def bochner_residual(an: PointAnalysis) -> IdentityResidual:
    """Residual of the curvature balance for 1/2 Lap |P|^2 (jet order >= 4).

    One formula for every dimension.  ``an`` may analyse a batch of points
    (see :class:`PointAnalysis`).
    """
    an.require_order(4, "the curvature balance")
    lhs, t_grad, t_div = _balance_terms(an)
    curv = an.mj.curvature
    p_up = an.P_up
    p_mixed = np.einsum("...jb,...bc->...jc", an.mj.ginv_val, an.P_val)
    t_ric = 2.0 * batch_value(np.einsum("...js,...sc,...jc->...", curv.ricci, p_up, p_mixed))
    t_riem = 2.0 * batch_value(np.einsum("...ijks,...is,...jk->...", curv.riemann, p_up, p_up))
    terms = (t_grad, t_div, t_ric, t_riem)
    return residual("bochner", lhs, sum(terms), terms)


def static_residual(an: PointAnalysis) -> tuple[IdentityResidual, IdentityResidual]:
    """Tensor and scalar residuals of the vacuum static system (n = 3, jet order >= 2).

    ``an`` may analyse a batch of points, as for :class:`PointAnalysis`.
    """
    if an.dim != 3:
        raise ValueError("the static system is checked in dimension 3")
    an.require_order(2, "the static system")
    fval = an.fjet[..., 0]
    curv = an.mj.curvature
    scal = np.asarray(curv.scalar)
    lhs_t = fval[..., None, None] * curv.ricci
    return _field_residuals("static", an, lhs_t, 0.5 * scal * fval, -0.5 * scal * fval)


def _field_residuals(name: str, an: PointAnalysis, lhs_t, g_coef, lap_rhs):
    """Residuals of the system lhs_t = grad^2 f + g_coef g and Lap f = lap_rhs.

    The tensor residual is the norm of the difference, the scalar one that
    of Lap f - lap_rhs; ``name`` gets the suffixes "-tensor" and "-scalar".
    """
    mj = an.mj
    hess = cov_derivative(an.df, mj.gamma)[..., 0]
    gi = mj.ginv_val

    def tnorm(m):
        return np.sqrt(np.maximum(norm_sq(m, gi), 0.0))

    rhs_t = hess + g_coef[..., None, None] * mj.g_val
    terms = (tnorm(lhs_t), tnorm(hess), tnorm(rhs_t - hess))
    tensor = residual(f"{name}-tensor", tnorm(lhs_t - rhs_t), 0.0, terms)
    lap = np.einsum("...ij,...ij->...", gi, hess)
    return tensor, residual(f"{name}-scalar", lap, lap_rhs, (lap, -lap_rhs))
