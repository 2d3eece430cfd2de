"""Chart-local Riemannian geometry driven by jet arithmetic.

Everything at a point is assembled from expression-defined metric components
evaluated on jet seeds, so Christoffel symbols, curvature tensors, Hessians
and Laplacians come out with exact derivatives.  Jet-valued tensors are
coefficient arrays of shape ``tensor_shape + (ncoef,)`` (see
:mod:`skewdiv.jets`); ``T[..., 0]`` holds their values.

A whole grid is analysed in one pass: :class:`MetricJets` takes ``points``
of shape ``(npts, n)`` as well as a single point of shape ``(n,)``, and every
tensor it derives then has the leading batch axes of ``points``,
``batch_shape + tensor_shape + (ncoef,)``; value-level scalars become arrays
of shape ``batch_shape``.  A single point has batch shape ``()`` and goes
through the same code, so its tensors and Python-float scalars keep their
unbatched shapes.  The per-point expression evaluation stays a loop in grid
order (:func:`per_point`); only the tensor algebra is batched, and each batch
entry's values are those of the point analysed alone.

Index conventions, fixed once for the whole package:

* Christoffel symbols:  Gamma^k_ij = 1/2 g^kl (d_i g_jl + d_j g_il - d_l g_ij).
* Fully covariant curvature:

      R_ijks = g_km (d_i Gamma^m_js - d_j Gamma^m_is
                     + Gamma^m_ip Gamma^p_js - Gamma^m_jp Gamma^p_is)

  With this sign the round unit sphere has Ric = (n-1) g (positive), the
  symmetries R_ijks = -R_jiks = -R_ijsk = R_ksij hold, and the curvature
  decomposition

      R_ijks = -R/((n-1)(n-2)) (g_ik g_js - g_is g_jk)
               + 1/(n-2) (R_ik g_js - R_is g_jk + g_ik R_js - g_is R_jk)
               + W_ijks

  defines the Weyl tensor.  The Bochner residual test pins this choice: the
  commutator rule it encodes is d_i d_j T - d_j d_i T acting through
  +R_ij.s contractions.
* Ricci contracts slots 1 and 3:  R_js = g^ik R_ijks;  scalar R = g^js R_js.
* Divergences contract the derivative slot first:  (div T)_k = g^ij grad_i T_jk.
* Squared norms contract every slot with the inverse metric, e.g.
  |grad P|^2 = g^ia g^jb g^kc grad_i P_jk grad_a P_bc.

All evaluation objects here are immutable after construction and safe to use
concurrently over point grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import NonPositiveDefiniteError
from .expr import Expr, ParamSet, chart_variables, evaluate, parse, to_source
from .jets import (
    DEFAULT_ORDER,
    Jet,
    contract,
    finite_difference_oracle,
    jet_order,
    jet_space,
    partials,
    seed_variables,
)


@dataclass(frozen=True)
class IndexConvention:
    """Documentation-level record of the sign and contraction choices."""

    riemann: str = (
        "R_ijks = g_km (d_i Gamma^m_js - d_j Gamma^m_is"
        " + Gamma^m_ip Gamma^p_js - Gamma^m_jp Gamma^p_is)"
    )
    ricci: str = "R_js = g^ik R_ijks (round unit sphere: Ric = (n-1) g)"
    divergence: str = "(div P)_k = g^ij grad_i P_jk (first-slot contraction)"
    norms: str = "squared norms fully contracted with the inverse metric"


INDEX_CONVENTION = IndexConvention()


# -- expression-defined fields -------------------------------------------------


@dataclass(frozen=True)
class ScalarField:
    """A scalar chart function given by an expression plus parameter values."""

    dim: int
    expr: Expr
    params: ParamSet = field(default_factory=dict)

    @classmethod
    def parse(cls, source: str, dim: int, params: ParamSet | None = None) -> "ScalarField":
        params = dict(params or {})
        e = parse(source, variables=chart_variables(dim), params=tuple(params))
        return cls(dim, e, params)

    def jet(self, point: Sequence[float], order: int = DEFAULT_ORDER) -> Jet:
        seeds = seed_variables(point, self.dim, order)
        out = evaluate(self.expr, seeds, self.params)
        if isinstance(out, Jet):
            return out
        return Jet.constant(float(out), self.dim, order)

    def __call__(self, point: Sequence[float]) -> float:
        pt = [float(x) for x in point]
        if len(pt) != self.dim:
            raise ValueError(f"point has {len(pt)} coordinates, field has {self.dim}")
        return float(evaluate(self.expr, pt, self.params))

    def source(self) -> str:
        return to_source(self.expr)


class MetricField:
    """Symmetric matrix of expressions defining g_ij on a chart.

    Positive definiteness is enforced at every evaluation point by a Cholesky
    factorization, which does not depend on the metric's scale; a violation
    or a non-finite component raises instead of silently propagating.
    """

    def __init__(self, dim: int, exprs: Sequence[Sequence[Expr]], params: ParamSet | None = None):
        self.dim = dim
        self.params = dict(params or {})
        rows = tuple(tuple(row) for row in exprs)
        if len(rows) != dim or any(len(r) != dim for r in rows):
            raise ValueError(f"metric expression array must be {dim}x{dim}")
        for i in range(dim):
            for j in range(i):
                if rows[i][j] != rows[j][i]:
                    raise ValueError(f"metric expressions not symmetric at ({i},{j})")
        self.exprs = rows

    @classmethod
    def parse(cls, rows: Sequence[Sequence[str]], params: ParamSet | None = None) -> "MetricField":
        """Parse each distinct entry text once; equal texts share one tree."""
        dim = len(rows)
        params = dict(params or {})
        names = chart_variables(dim)
        trees: dict[str, Expr] = {}
        for row in rows:
            for src in row:
                if src not in trees:
                    trees[src] = parse(src, variables=names, params=tuple(params))
        return cls(dim, [[trees[src] for src in row] for row in rows], params)

    def component_jets(self, point: Sequence[float], order: int = DEFAULT_ORDER) -> np.ndarray:
        """Coefficient array g[i, j, :] at ``point``; a shared tree is evaluated once."""
        seeds = seed_variables(point, self.dim, order)
        g = np.empty((self.dim, self.dim, jet_space(self.dim, order).size))
        coeffs: dict[int, np.ndarray] = {}
        for i in range(self.dim):
            for j in range(i, self.dim):
                e = self.exprs[i][j]
                if id(e) not in coeffs:
                    out = evaluate(e, seeds, self.params)
                    if not isinstance(out, Jet):
                        out = Jet.constant(float(out), self.dim, order)
                    coeffs[id(e)] = out.c
                g[i, j] = g[j, i] = coeffs[id(e)]
        self._check_positive_definite(g[..., 0], point)
        return g

    def component_values(self, point: Sequence[float]) -> np.ndarray:
        pt = [float(x) for x in point]
        vals = np.empty((self.dim, self.dim))
        for i in range(self.dim):
            for j in range(i, self.dim):
                v = float(evaluate(self.exprs[i][j], pt, self.params))
                vals[i, j] = vals[j, i] = v
        self._check_positive_definite(vals, point)
        return vals

    def _check_positive_definite(self, vals: np.ndarray, point) -> None:
        where = tuple(float(x) for x in point)
        if not np.all(np.isfinite(vals)):
            raise NonPositiveDefiniteError(f"metric has non-finite components at {where}")
        try:
            np.linalg.cholesky(vals)
        except np.linalg.LinAlgError:
            raise NonPositiveDefiniteError(
                f"metric is not positive definite at {where}: Cholesky factorization fails"
            ) from None

    def sources(self) -> list[list[str]]:
        """Entry sources for reports; each distinct tree is rendered once."""
        text: dict[int, str] = {}
        for row in self.exprs:
            for e in row:
                if id(e) not in text:
                    text[id(e)] = to_source(e)
        return [[text[id(e)] for e in row] for row in self.exprs]


# -- batches of points -------------------------------------------------------------


def per_point(fn, rows: np.ndarray) -> np.ndarray:
    """``fn`` applied to each row ``rows[*b, :]`` in order, stacked as ``b + fn``'s shape."""
    rows = np.asarray(rows, dtype=float)
    out = [fn(row) for row in rows.reshape(-1, rows.shape[-1])]
    return np.stack(out).reshape(rows.shape[:-1] + np.shape(out[0]))


def point_tuple(points) -> tuple:
    """A point as a tuple of floats; a batch of points as a tuple of those."""
    def nested(x):
        return tuple(nested(v) for v in x) if isinstance(x, list) else x

    return nested(np.asarray(points, dtype=float).tolist())


def batch_value(x):
    """A value-level result: a Python float for one point, else an array."""
    x = np.asarray(x)
    return float(x) if x.ndim == 0 else x


# -- per-point geometry bundle ---------------------------------------------------


class MetricJets:
    """Metric coefficient arrays at one point or a batch, with cached derived tensors.

    ``points`` has shape ``(n,)`` or ``batch_shape + (n,)``.  Every
    jet-valued attribute is a float array of shape
    ``batch_shape + tensor_shape + (ncoef,)`` (see :mod:`skewdiv.jets`); the
    ``*_val`` attributes are the component values.
    """

    def __init__(self, metric: MetricField, points, order: int = DEFAULT_ORDER):
        self.metric = metric
        self.points = np.asarray(points, dtype=float)
        self.point = point_tuple(self.points)
        self.batch = self.points.ndim - 1
        self.order = order
        self.dim = metric.dim
        self.g = per_point(lambda p: metric.component_jets(p, order), self.points)

    @cached_property
    def ginv(self) -> np.ndarray:
        """g^-1 by the truncated Neumann series g0^-1 sum_k M^k, M = -(g - g0) g0^-1.

        M has no constant term, so M^k starts at degree k and the series
        through k = order is exact at the truncation order.  It is summed by
        Horner's rule S <- I + M S; as M raises the degree, step t fixes the
        degree-t coefficients and runs at order t.  Coefficients of S above
        that order meet only M's zero constant term in the next step.
        """
        n = self.dim
        g0inv = np.linalg.inv(self.g_val)
        m = -np.einsum("...ijZ,...jk->...ikZ", self.g, g0inv)
        m[..., 0] = 0.0
        eye = np.zeros_like(m)
        eye[..., 0] = np.eye(n)
        series = eye + m
        for t in range(2, self.order + 1):
            sp = jet_space(n, t)
            series[..., : sp.size] = eye[..., : sp.size] + contract("ij,jk->ik", m, series, sp)
        return np.einsum("...ij,...jkZ->...ikZ", g0inv, series)

    @cached_property
    def gamma(self) -> np.ndarray:
        """Gamma[..., k, i, j] = Gamma^k_ij, one order below g."""
        dg = partials(self.g, self.dim, self.batch)  # dg[..., l, i, j] = d_l g_ij
        # first[..., l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
        first = np.einsum("...ijlZ->...lijZ", dg) + np.einsum("...jilZ->...lijZ", dg) - dg
        sp = jet_space(self.dim, self.order - 1)
        # first is exactly symmetric in i, j, so only its i <= j block is
        # contracted and the result mirrored.
        i, j = np.triu_indices(self.dim)
        block = contract("kl,lp->kp", self.ginv, first[..., i, j, :], sp)
        gamma = np.empty(block.shape[:-2] + (self.dim, self.dim, sp.size))
        gamma[..., i, j, :] = block
        gamma[..., j, i, :] = block
        return 0.5 * gamma

    @cached_property
    def g_val(self) -> np.ndarray:
        return self.g[..., 0]

    @cached_property
    def ginv_val(self) -> np.ndarray:
        return self.ginv[..., 0]

    @cached_property
    def gamma_val(self) -> np.ndarray:
        return self.gamma[..., 0]

    @cached_property
    def dgamma_val(self) -> np.ndarray:
        # [..., a, k, i, j] = d_a Gamma^k_ij
        return partials(self.gamma, self.dim, self.batch)[..., 0]

    @cached_property
    def curvature(self) -> "CurvatureEval":
        n = self.dim
        G = self.gamma_val
        dG = self.dgamma_val
        quad = np.einsum("...mip,...pjs->...mijs", G, G)
        rup = (
            np.einsum("...imjs->...mijs", dG)  # [m,i,j,s] = d_i Gamma^m_js
            - np.einsum("...jmis->...mijs", dG)
            + quad
            - np.einsum("...mjis->...mijs", quad)
        )
        riem = np.einsum("...km,...mijs->...ijks", self.g_val, rup)
        ricci = np.einsum("...ik,...ijks->...js", self.ginv_val, riem)
        scal = np.asarray(np.einsum("...js,...js->...", self.ginv_val, ricci))
        z = ricci - (scal / n)[..., None, None] * self.g_val
        if n >= 3:
            gg = np.einsum("...ik,...js->...ijks", self.g_val, self.g_val)
            rg = np.einsum("...ik,...js->...ijks", ricci, self.g_val)
            gr = np.einsum("...ik,...js->...ijks", self.g_val, ricci)
            weyl = (
                riem
                + (scal / ((n - 1) * (n - 2)))[..., None, None, None, None]
                * (gg - np.swapaxes(gg, -1, -2))
                - (rg - np.swapaxes(rg, -1, -2) + gr - np.swapaxes(gr, -1, -2))
                / (n - 2)
            )
        else:
            weyl = np.zeros_like(riem)
        return CurvatureEval(
            point=self.point,
            g=self.g,
            ginv=self.ginv,
            gamma=self.gamma,
            riemann=riem,
            ricci=ricci,
            scalar=batch_value(scal),
            traceless_ricci=z,
            weyl=weyl,
        )


@dataclass(frozen=True)
class CurvatureEval:
    """Full local geometry at a point or over a batch of points.

    ``g``, ``ginv`` and ``gamma`` remain coefficient arrays (so downstream
    covariant derivatives stay exact); the curvature tensors are plain
    arrays of values, with the batch axes of :class:`MetricJets` in front.
    ``scalar`` is a float for one point and an array over a batch.
    """

    point: tuple
    g: np.ndarray
    ginv: np.ndarray
    gamma: np.ndarray
    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float | np.ndarray
    traceless_ricci: np.ndarray
    weyl: np.ndarray


def cov_derivative(T: np.ndarray, gamma: np.ndarray) -> np.ndarray:
    """Covariant derivative of a covariant coefficient-array tensor.

    The result gains a derivative slot, grad_i T_a.. = d_i T_a.. minus one
    Gamma contraction per slot, and is one order below T (no higher than
    ``gamma``'s order).  ``T`` may have any rank, 0 included.  ``gamma``'s
    leading batch axes (those in front of its three index axes) are ``T``'s
    too; the derivative slot comes directly after them.
    """
    n = gamma.shape[-2]
    batch = gamma.ndim - 4
    sp = jet_space(n, min(jet_order(T, n) - 1, jet_order(gamma, n)))
    out = partials(T, n, batch)[..., : sp.size]
    slots = "abcdefgh"[: T.ndim - 1 - batch]
    for s, name in enumerate(slots):
        t_sub = slots[:s] + "l" + slots[s + 1 :]
        out = out - contract(f"li{name},{t_sub}->i{slots}", gamma, T, sp)
    return out


# -- public operations -----------------------------------------------------------


def christoffel(metric: MetricField, point, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Christoffel coefficient array Gamma^k_ij at ``point`` (index order k,i,j)."""
    return MetricJets(metric, point, order).gamma


def riemann(metric: MetricField, point, order: int = DEFAULT_ORDER) -> CurvatureEval:
    """All curvature tensors at ``point`` under the package conventions."""
    return MetricJets(metric, point, order).curvature


def hessian(f: ScalarField, metric: MetricField, point, order: int = DEFAULT_ORDER) -> np.ndarray:
    """Covariant Hessian grad^2_ij f as a coefficient array, two orders below f."""
    mj = MetricJets(metric, point, order)
    return cov_derivative(partials(f.jet(point, order).c, mj.dim), mj.gamma)


def laplacian(f: ScalarField, metric: MetricField, point, order: int = DEFAULT_ORDER) -> float:
    """Laplace-Beltrami value g^ij grad^2_ij f at ``point``."""
    mj = MetricJets(metric, point, order)
    hess = cov_derivative(partials(f.jet(point, order).c, mj.dim), mj.gamma)[..., 0]
    return float(np.einsum("ij,ij->", mj.ginv_val, hess))


def covariant_derivative(T: np.ndarray, metric: MetricField, point) -> np.ndarray:
    """Covariant derivative of a covariant coefficient-array tensor at ``point``.

    ``T`` holds the tensor's coefficients at ``point``; its jet order is read
    from the length of the trailing axis.  The result gains a leading
    derivative slot: grad_i T_j... = d_i T_j... minus one Gamma correction
    per slot.
    """
    T = np.asarray(T, dtype=float)
    mj = MetricJets(metric, point, jet_order(T, metric.dim))
    return cov_derivative(T, mj.gamma)


def norm_sq(T, metric: MetricField, point) -> float:
    """Fully metric-contracted squared norm of a covariant tensor at ``point``.

    ``T`` holds component values of rank 0..3; pass ``T[..., 0]`` for a
    coefficient array.
    """
    ginv = MetricJets(metric, point, order=1).ginv_val
    return _norm_sq_val(np.asarray(T, dtype=float), ginv)


def _norm_sq_val(vals: np.ndarray, ginv: np.ndarray) -> float:
    rank = vals.ndim
    if rank == 0:
        return float(vals) ** 2
    if rank == 1:
        return float(np.einsum("ia,i,a->", ginv, vals, vals))
    if rank == 2:
        return float(np.einsum("ia,jb,ij,ab->", ginv, ginv, vals, vals))
    if rank == 3:
        return float(np.einsum("ia,jb,kc,ijk,abc->", ginv, ginv, ginv, vals, vals))
    raise ValueError("norm_sq supports rank <= 3")


def second_bianchi_residual(metric: MetricField, point, order: int = DEFAULT_ORDER) -> float:
    """Max-norm residual of the contracted second Bianchi identity.

    div Ric = (1/2) dR holds for every Levi-Civita connection; a nonzero
    residual beyond rounding indicates a convention or implementation bug.
    Normalized by max(1, |dR|).
    """
    mj = MetricJets(metric, point, order)
    n = mj.dim
    sp = jet_space(n, order - 2)
    G = mj.gamma
    dG = partials(G, n)  # [a,k,i,j] = d_a Gamma^k_ij
    # Ricci jets by direct contraction of the curvature operator.
    ric = (
        np.einsum("iijsZ->jsZ", dG)
        - np.einsum("jiisZ->jsZ", dG)
        + contract("p,pjs->js", np.einsum("iipZ->pZ", G), G, sp)
        - contract("ijp,pis->js", G, G, sp)
    )
    dscal = partials(contract("js,js->", mj.ginv, ric, sp), n)[..., 0]
    divric = np.einsum("ij,ijk->k", mj.ginv_val, cov_derivative(ric, G)[..., 0])
    scale = max(1.0, float(np.max(np.abs(dscal))))
    return float(np.max(np.abs(divric - 0.5 * dscal))) / scale


# -- finite-difference oracles ----------------------------------------------------
#
# The same algebraic assembly as the jet path, but every metric derivative is
# a central difference of plain component evaluations.  These are the
# independent cross-checks for the differentiation engine.


def christoffel_fd(metric: MetricField, point, step: float = 1e-4) -> np.ndarray:
    n = metric.dim
    g = metric.component_values(point)
    ginv = np.linalg.inv(g)
    dg = _dg_fd(metric, point, step)
    out = np.empty((n, n, n))
    for k in range(n):
        for i in range(n):
            for j in range(n):
                out[k, i, j] = 0.5 * sum(
                    ginv[k, l] * (dg[i, j, l] + dg[j, i, l] - dg[l, i, j])
                    for l in range(n)
                )
    return out


def riemann_fd(metric: MetricField, point, step: float = 1e-4) -> np.ndarray:
    """Fully covariant curvature from finite differences of the metric alone."""
    n = metric.dim
    g = metric.component_values(point)
    ginv = np.linalg.inv(g)
    dg = _dg_fd(metric, point, step)  # [a,i,j]
    d2g = _d2g_fd(metric, point, step)  # [a,b,i,j]
    dginv = -np.einsum("km,aml,ls->aks", ginv, dg, ginv)  # d_a g^ks
    dgamma = np.empty((n, n, n, n))  # [a,k,i,j] = d_a Gamma^k_ij
    for a in range(n):
        for k in range(n):
            for i in range(n):
                for j in range(n):
                    total = 0.0
                    for l in range(n):
                        first = dginv[a, k, l] * (dg[i, j, l] + dg[j, i, l] - dg[l, i, j])
                        second = ginv[k, l] * (
                            d2g[a, i, j, l] + d2g[a, j, i, l] - d2g[a, l, i, j]
                        )
                        total += first + second
                    dgamma[a, k, i, j] = 0.5 * total
    gamma = christoffel_fd(metric, point, step)
    quad = np.einsum("mip,pjs->mijs", gamma, gamma)
    rup = (
        dgamma.transpose(1, 0, 2, 3)
        - dgamma.transpose(1, 2, 0, 3)
        + quad
        - quad.transpose(0, 2, 1, 3)
    )
    return np.einsum("km,mijs->ijks", g, rup)


def _component_field(metric: MetricField, i: int, j: int):
    expr = metric.exprs[i][j]
    params = metric.params

    def f(q):
        return float(evaluate(expr, [float(x) for x in q], params))

    return f


def _dg_fd(metric: MetricField, point, step: float) -> np.ndarray:
    n = metric.dim
    dg = np.empty((n, n, n))  # [a,i,j] = d_a g_ij
    for i in range(n):
        for j in range(i, n):
            f = _component_field(metric, i, j)
            for a in range(n):
                alpha = [0] * n
                alpha[a] = 1
                v = finite_difference_oracle(f, point, alpha, step)
                dg[a, i, j] = v
                dg[a, j, i] = v
    return dg


def _d2g_fd(metric: MetricField, point, step: float) -> np.ndarray:
    n = metric.dim
    d2g = np.empty((n, n, n, n))  # [a,b,i,j] = d_a d_b g_ij
    for i in range(n):
        for j in range(i, n):
            f = _component_field(metric, i, j)
            for a in range(n):
                for b in range(a, n):
                    alpha = [0] * n
                    alpha[a] += 1
                    alpha[b] += 1
                    v = finite_difference_oracle(f, point, alpha, step)
                    d2g[a, b, i, j] = d2g[b, a, i, j] = v
                    d2g[a, b, j, i] = d2g[b, a, j, i] = v
    return d2g
