"""Residual checkers for the pointwise differential identities.

Each checker evaluates both sides of an identity at a point and reports the
absolute and relative residual.  Relative residuals are normalized by the
largest participating term, floored at 1: identities mixing fourth
derivatives magnify rounding, so a bare absolute tolerance would be
scale-fragile.

Identities covered:

* Weitzenbock/Bochner balance for P (general dimension, with the curvature
  split into scalar, Ricci and Weyl blocks):

      1/2 Lap |P|^2 = |grad P|^2 + 2 <P, grad div P>
                      + 2R/((n-1)(n-2)) |P|^2
                      + 2 (n-4)/(n-2) R_js P_sk P_jk
                      + 2 W_ijks P_is P_jk

  In dimension 3 the Weyl tensor vanishes and the balance collapses to

      1/2 Lap |P|^2 = |grad P|^2 + 2 <P, grad div P> + R |P|^2 - 2 R_js P_sk P_jk.

* The vacuum static system:  f Ric = grad^2 f + (R/2) f g  and
  Lap f = -(R/2) f  (dimension 3).

* The critical-point system:  (1+f)(Ric - (R/n) g) = grad^2 f + R/(n(n-1)) g
  and  Lap f = -R/(n-1) f.  Diagnostic: residuals are reported, not asserted,
  since no chart-form solution with P != 0 ships.

* The static substitution of Ricci into the dimension-3 balance:

      1/2 Lap |P|^2 = |grad P|^2 + 2 <P, grad div P> + (R/2)|P|^2
                      + (2/f) P(grad f, div P) - 1/(2f) <grad f, grad |P|^2>

  valid only where the static system holds and f != 0; the checker refuses
  points with |f| below the gate rather than regularizing.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import EvalDomainError
from .geometry import (
    MetricField,
    MetricJets,
    ScalarField,
    batch_value,
    cov_derivative,
    point_tuple,
)
from .jets import DEFAULT_ORDER, partials
from .ptensor import PointAnalysis, PTensorSpec

F_GATE = 1e-8


@dataclass(frozen=True)
class IdentityResidual:
    """Residual of one identity at one point, or over a batch of points.

    Over a batch, ``point`` is a tuple of points and every number is an
    array with one entry per point.
    """

    name: str
    point: tuple
    lhs: float | np.ndarray
    rhs: float | np.ndarray
    abs_residual: float | np.ndarray
    rel_residual: float | np.ndarray
    scale: float | np.ndarray


def _residual(name: str, point, lhs, rhs, terms) -> IdentityResidual:
    # A non-finite term or side propagates into scale and residual.
    scale = np.max(np.abs([*terms, lhs]), axis=0)
    absr = np.abs(np.subtract(lhs, rhs))
    return IdentityResidual(
        name=name,
        point=point_tuple(point),
        lhs=batch_value(lhs),
        rhs=batch_value(rhs),
        abs_residual=batch_value(absr),
        rel_residual=batch_value(absr / np.maximum(scale, 1.0)),
        scale=batch_value(scale),
    )


def _curvature_terms(an: PointAnalysis):
    curv = an.mj.curvature
    gi = an.mj.ginv_val
    ric_quad = batch_value(
        np.einsum(
            "...js,...sa,...jb,...kc,...ak,...bc->...",
            curv.ricci,
            gi,
            gi,
            gi,
            an.P_val,
            an.P_val,
        )
    )
    return curv, ric_quad


def bochner_residual(
    spec: PTensorSpec,
    point,
    order: int = DEFAULT_ORDER,
    form: str = "auto",
    analysis: PointAnalysis | None = None,
) -> IdentityResidual:
    """Residual of the curvature balance for 1/2 Lap |P|^2.

    ``form`` selects the right-hand side: "general" keeps the Weyl term (any
    n >= 3), "dim3" uses the reduced dimension-3 expression, "auto" picks
    "dim3" when n == 3.  ``point`` may be a batch of points (see
    :class:`PointAnalysis`).  Pass a precomputed ``analysis`` for the same
    spec and points to reuse its jet pipeline.
    """
    an = analysis if analysis is not None else PointAnalysis(spec, point, order)
    n = an.dim
    if n < 3:
        raise ValueError("the curvature balance needs dimension >= 3")
    if form == "auto":
        form = "dim3" if n == 3 else "general"
    if form == "dim3" and n != 3:
        raise ValueError("dim3 form requires a 3-dimensional chart")

    lhs = 0.5 * an.laplacian_p_norm_sq
    t_grad = an.nabla_p_norm_sq
    t_div = 2.0 * batch_value(np.einsum("...jk,...jk->...", an.P_up, an.nabla_div_P_val))
    curv, ric_quad = _curvature_terms(an)

    if form == "dim3":
        t_scal = curv.scalar * an.p_norm_sq
        t_ric = -2.0 * ric_quad
        terms = (t_grad, t_div, t_scal, t_ric)
        rhs = t_grad + t_div + t_scal + t_ric
        name = "bochner-dim3"
    elif form == "general":
        p_up = an.P_up
        t_scal = 2.0 * curv.scalar / ((n - 1) * (n - 2)) * an.p_norm_sq
        t_ric = 2.0 * (n - 4) / (n - 2) * ric_quad
        t_weyl = 2.0 * batch_value(
            np.einsum("...ijks,...is,...jk->...", curv.weyl, p_up, p_up)
        )
        terms = (t_grad, t_div, t_scal, t_ric, t_weyl)
        rhs = t_grad + t_div + t_scal + t_ric + t_weyl
        name = "bochner-general"
    else:
        raise ValueError(f"unknown form {form!r}")
    return _residual(name, an.point, lhs, rhs, terms)


def static_residual(
    metric: MetricField, f: ScalarField, point, order: int = DEFAULT_ORDER
) -> tuple[IdentityResidual, IdentityResidual]:
    """Tensor and scalar residuals of the vacuum static system (n = 3).

    ``point`` may be a batch of points, as for :class:`MetricJets`.
    """
    if metric.dim != 3:
        raise ValueError("the static system is checked in dimension 3")
    mj, fval, hess = _hessian_values(metric, f, point, order)
    curv = mj.curvature
    gi = mj.ginv_val
    scal = np.asarray(curv.scalar)

    lhs_t = fval[..., None, None] * curv.ricci
    rhs_t = hess + (0.5 * scal * fval)[..., None, None] * mj.g_val
    diff = lhs_t - rhs_t

    def tnorm(m):
        return np.sqrt(np.maximum(np.einsum("...ia,...jb,...ij,...ab->...", gi, gi, m, m), 0.0))

    tensor = _residual(
        "static-tensor",
        point,
        tnorm(diff),
        0.0,
        (tnorm(lhs_t), tnorm(hess), tnorm(rhs_t - hess)),
    )

    lap = np.einsum("...ij,...ij->...", gi, hess)
    scalar = _residual(
        "static-scalar",
        point,
        lap,
        -0.5 * scal * fval,
        (lap, 0.5 * scal * fval),
    )
    return tensor, scalar


def _hessian_values(metric: MetricField, f: ScalarField, point, order: int):
    """MetricJets, the values of f and the values of grad^2 f at ``point``."""
    mj = MetricJets(metric, point, order)
    fjet = f.jet(mj.points, order).c
    hess = cov_derivative(partials(fjet, mj.dim, mj.batch), mj.gamma)[..., 0]
    return mj, fjet[..., 0], hess


def cpe_residual(
    metric: MetricField, f: ScalarField, point, order: int = DEFAULT_ORDER
) -> tuple[IdentityResidual, IdentityResidual]:
    """Tensor and scalar residuals of the critical-point system (diagnostic)."""
    n = metric.dim
    if n < 3:
        raise ValueError("the critical-point system needs dimension >= 3")
    mj, fval, hess = _hessian_values(metric, f, point, order)
    curv = mj.curvature
    gi = mj.ginv_val
    scal = np.asarray(curv.scalar)

    lhs_t = (1.0 + fval)[..., None, None] * curv.traceless_ricci
    rhs_t = hess + (scal / (n * (n - 1)))[..., None, None] * mj.g_val
    diff = lhs_t - rhs_t

    def tnorm(m):
        return np.sqrt(np.maximum(np.einsum("...ia,...jb,...ij,...ab->...", gi, gi, m, m), 0.0))

    tensor = _residual(
        "cpe-tensor",
        point,
        tnorm(diff),
        0.0,
        (tnorm(lhs_t), tnorm(hess), tnorm(rhs_t - hess)),
    )

    lap = np.einsum("...ij,...ij->...", gi, hess)
    scalar = _residual(
        "cpe-scalar",
        point,
        lap,
        -scal / (n - 1) * fval,
        (lap, scal / (n - 1) * fval),
    )
    return tensor, scalar


def static_bochner_residual(
    spec: PTensorSpec, point, order: int = DEFAULT_ORDER
) -> IdentityResidual:
    """Residual of the balance with Ricci eliminated via the static system.

    Meaningful only where :func:`static_residual` vanishes; the formula
    genuinely divides by f, so points with |f| < 1e-8 are refused.
    """
    an = PointAnalysis(spec, point, order)
    if an.dim != 3:
        raise ValueError("the static substitution is a dimension-3 identity")
    fval = float(an.fjet[0])
    if abs(fval) < F_GATE:
        raise EvalDomainError(
            f"|f| = {abs(fval)!r} < {F_GATE}: the identity divides by f"
        )
    curv = an.mj.curvature
    gi = an.mj.ginv_val

    lhs = 0.5 * an.laplacian_p_norm_sq
    t_grad = an.nabla_p_norm_sq
    t_div = 2.0 * float(np.einsum("jk,jk->", an.P_up, an.nabla_div_P_val))
    t_scal = 0.5 * curv.scalar * an.p_norm_sq
    div_up = gi @ an.div_P_val
    p_gf_div = float(np.einsum("ab,a,b->", an.P_val, an.grad_f_val, div_up))
    t_pair = 2.0 / fval * p_gf_div
    df_val = an.df[:, 0]
    t_grad_pn = -0.5 / fval * float(
        np.einsum("ab,a,b->", gi, df_val, an.grad_p_norm_sq_val)
    )
    rhs = t_grad + t_div + t_scal + t_pair + t_grad_pn
    return _residual(
        "static-bochner",
        an.point,
        lhs,
        rhs,
        (t_grad, t_div, t_scal, t_pair, t_grad_pn),
    )
