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
unbatched shapes.  The expressions (metric entries, f) are evaluated once
for the whole batch on batched jet seeds (see :mod:`skewdiv.jets`), and
each batch entry's values are those of the point analysed alone, bit for
bit.  Errors stay per point: a batch that fails is evaluated again point by
point in grid order (:func:`each_point_on_error`), so the first failing
point raises its own error, with its own values, exactly as it would alone.

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
  |grad P|^2 = g^ia g^jb g^kc grad_i P_jk grad_a P_bc, computed one slot at
  a time through :func:`norm_sq`, two operands per contraction.

All evaluation objects here are immutable after construction and safe to use
concurrently over point grids.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import Sequence

import numpy as np

from .errors import NonPositiveDefiniteError, OrderExceededError, SkewdivError
from .expr import Expr, ParamSet, chart_variables, evaluate, evaluate_entries, parse, to_source
from .jets import (
    DEFAULT_ORDER,
    Jet,
    as_coefficients,
    contract,
    finite_difference_oracle,
    jet_order,
    jet_space,
    partials,
    seed_variables,
)


# -- expression-defined fields -------------------------------------------------


@dataclass(frozen=True)
class ScalarField:
    """A scalar chart function given by an expression plus parameter values.

    Its jets are sums of terms (:func:`~skewdiv.expr.evaluate_entries`).
    """

    dim: int
    expr: Expr
    params: ParamSet = field(default_factory=dict)

    @classmethod
    def parse(cls, source: str, dim: int, params: ParamSet | None = None) -> "ScalarField":
        params = dict(params or {})
        e = parse(source, variables=chart_variables(dim), params=tuple(params))
        return cls(dim, e, params)

    def jet(self, point, order: int = DEFAULT_ORDER) -> Jet:
        """Jet of the field at ``point``, or at each point of a batch of points."""
        sp = jet_space(self.dim, order)

        def coefficients(points):
            out = evaluate_entries([self.expr], seed_variables(points, self.dim, order), self.params)[0]
            return as_coefficients(out, points.shape[:-1] + (sp.size,))

        return Jet(sp, each_point_on_error(coefficients, point))

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
    or a non-finite component raises instead of silently propagating.  The
    entries are evaluated together, forming the products they share once
    (:func:`~skewdiv.expr.evaluate_entries`).
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

    def component_jets(self, point, order: int = DEFAULT_ORDER) -> np.ndarray:
        """Coefficient array g[..., i, j, :] at a point or a batch of points.

        The entries i <= j are evaluated on the seeds of the whole batch.
        """
        return each_point_on_error(lambda points: self._component_jets(points, order), point)

    def _component_jets(self, points: np.ndarray, order: int) -> np.ndarray:
        seeds = seed_variables(points, self.dim, order)
        shape = points.shape[:-1] + (jet_space(self.dim, order).size,)
        g = np.empty(points.shape[:-1] + (self.dim, self.dim, shape[-1]))
        upper = [(i, j) for i in range(self.dim) for j in range(i, self.dim)]
        values = evaluate_entries([self.exprs[i][j] for i, j in upper], seeds, self.params)
        for (i, j), value in zip(upper, values):
            g[..., i, j, :] = g[..., j, i, :] = as_coefficients(value, shape)
        self._check_positive_definite(g[..., 0], points)
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
        if not np.all(np.isfinite(vals)):
            raise NonPositiveDefiniteError(f"metric has non-finite components at {point_tuple(point)}")
        try:
            np.linalg.cholesky(vals)
        except np.linalg.LinAlgError:
            raise NonPositiveDefiniteError(
                f"metric is not positive definite at {point_tuple(point)}: Cholesky factorization fails"
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


# Errors that evaluation at a single point raises.
_POINT_ERRORS = (SkewdivError, ArithmeticError)


def each_point_on_error(fn, rows) -> np.ndarray:
    """``fn(rows)`` on a whole batch; if that fails, ``fn`` on each row in grid order.

    ``rows`` has shape ``batch_shape + (k,)``, a point per row say.  A batch
    evaluates each expression once for all its rows, so an error it meets
    belongs to no particular row.  Run row by row, the first failing row in
    grid order raises its own error, with its own values in the message,
    exactly as it would alone; if no row fails alone, the rows' results are
    stacked.  This path runs only after a batch has failed.
    """
    rows = np.asarray(rows, dtype=float)
    try:
        return fn(rows)
    except _POINT_ERRORS:
        if rows.ndim == 1:
            raise
    out = [fn(row) for row in rows.reshape(-1, rows.shape[-1])]
    return np.stack(out).reshape(rows.shape[:-1] + out[0].shape)


def point_tuple(points) -> tuple:
    """A point as a tuple of floats; a batch of points as a tuple of those."""
    def nested(x):
        return tuple(nested(v) for v in x) if isinstance(x, list) else x

    return nested(np.asarray(points, dtype=float).tolist())


def batch_value(x):
    """A value-level result: a Python float for one point, else an array."""
    x = np.asarray(x)
    return float(x) if x.ndim == 0 else x


def norm_sq(T: np.ndarray, ginv_val: np.ndarray) -> float | np.ndarray:
    """|T|^2 with every slot contracted by g^-1, from values (a point or a batch).

    Each slot is raised by its own two-operand einsum, then T is summed against
    the result: no sum runs over more than two operands, and a batch entry
    sums in the order of its point alone.
    """
    idx = "ijkl"[: T.ndim - ginv_val.ndim + 2]
    up = T
    for s, i in enumerate(idx):
        up = np.einsum(f"...z{i},...{idx}->...{idx[:s]}z{idx[s + 1:]}", ginv_val, up)
    return batch_value(np.einsum(f"...{idx},...{idx}->...", T, up))


# -- the residual builder ----------------------------------------------------------


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


def residual(name: str, point, lhs, rhs, terms) -> IdentityResidual:
    """The one tolerance rule of every check: |lhs - rhs| / max(scale, 1).

    ``scale`` is the largest of |lhs| and the |terms| that make up rhs: checks
    mixing fourth derivatives magnify rounding, so a bare absolute tolerance
    would be scale-fragile.  A vector-valued check passes max-norms.  A
    non-finite term or side propagates into scale and residual.
    """
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
        self.g = metric.component_jets(self.points, order)

    def require_order(self, need: int, check: str) -> None:
        """Raise :class:`OrderExceededError` unless these jets reach order ``need``."""
        if self.order < need:
            raise OrderExceededError(f"{check} needs jet order >= {need}, not {self.order}")

    @cached_property
    def ginv(self) -> np.ndarray:
        """g^-1 by the truncated Neumann series g0^-1 sum_k M^k, M = -(g - g0) g0^-1.

        M has no constant term, so M^k starts at degree k and the series
        through k = order is exact at the truncation order.  It is summed by
        Horner's rule S <- I + M S; as M raises the degree, step t fixes the
        degree-t coefficients of S and forms only those
        (:meth:`~skewdiv.jets.JetSpace.step_pairs`): the lower ones are final.
        A PointAnalysis builds g one order below f, where |grad f|^2 reads g^-1.
        """
        n = self.dim
        g0inv = np.linalg.inv(self.g_val)
        m = -np.einsum("...ijZ,...jk->...ikZ", self.g, g0inv)
        m[..., 0] = 0.0
        eye = np.zeros_like(m)
        eye[..., 0] = np.eye(n)
        series = eye + m
        for t in range(2, self.order + 1):
            step = jet_space(n, self.order).step_pairs(t)
            series[..., step.lo : step.lo + step.size] = contract("ij,jk->ik", m, series, step)
        return np.einsum("...ij,...jkZ->...ikZ", g0inv, series)

    @cached_property
    def gamma(self) -> np.ndarray:
        """Gamma[..., k, i, j] = Gamma^k_ij, one order below g."""
        dg = partials(self.g, self.dim, self.batch)  # dg[..., l, i, j] = d_l g_ij
        first = _first_kind(dg, "Z")
        sp = jet_space(self.dim, self.order - 1)
        # first is exactly symmetric in i, j, so only its i <= j block is
        # contracted and the result mirrored.
        i, j = np.triu_indices(self.dim)
        block = contract("kl,lp->kp", self.ginv, first[..., i, j, :], sp.pairs)
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
        riem = _riemann(self.g_val, self.gamma_val, self.dgamma_val)
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
            riemann=riem,
            ricci=ricci,
            scalar=batch_value(scal),
            traceless_ricci=z,
            weyl=weyl,
        )


@dataclass(frozen=True)
class CurvatureEval:
    """Curvature tensors at a point or over a batch of points.

    The tensors are plain arrays of values, with the batch axes of
    :class:`MetricJets` in front; the metric, its inverse and Gamma stay on
    the :class:`MetricJets` whose ``curvature`` this is.  ``scalar`` is a
    float for one point and an array over a batch.
    """

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
        out = out - contract(f"li{name},{t_sub}->i{slots}", gamma, T, sp.pairs)
    return out


def _riemann(g: np.ndarray, G: np.ndarray, dG: np.ndarray) -> np.ndarray:
    """Fully covariant R_ijks from values of g, Gamma and dG[..., a, k, i, j] = d_a Gamma^k_ij."""
    quad = np.einsum("...mip,...pjs->...mijs", G, G)
    rup = (
        np.einsum("...imjs->...mijs", dG)  # [m,i,j,s] = d_i Gamma^m_js
        - np.einsum("...jmis->...mijs", dG)
        + quad
        - np.einsum("...mjis->...mijs", quad)
    )
    return np.einsum("...km,...mijs->...ijks", g, rup)


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
    G = mj.gamma
    dG = partials(G, n, mj.batch)  # [..., a, k, i, j] = d_a Gamma^k_ij
    # Ricci jets by direct contraction of the curvature operator.
    ric = (
        np.einsum("...iijsZ->...jsZ", dG)
        - np.einsum("...jiisZ->...jsZ", dG)
        + contract("p,pjs->js", np.einsum("...iipZ->...pZ", G), G, pairs)
        - contract("ijp,pis->js", G, G, pairs)
    )
    dscal = partials(contract("js,js->", mj.ginv, ric, pairs), n, mj.batch)[..., 0]
    divric = np.einsum("...ij,...ijk->...k", mj.ginv_val, cov_derivative(ric, G)[..., 0])
    gap = np.max(np.abs(divric - 0.5 * dscal), axis=-1)
    return residual("second-bianchi", mj.points, gap, 0.0, (np.max(np.abs(dscal), axis=-1),))


# -- finite-difference oracles ----------------------------------------------------
#
# The same algebraic assembly as the jet path, but every metric derivative is
# a central difference of plain component evaluations.  These are the
# independent cross-checks for the differentiation engine.


def christoffel_fd(metric: MetricField, point, step: float = 1e-4) -> np.ndarray:
    """Christoffel symbols Gamma^k_ij from finite differences of the metric alone."""
    return _connection_fd(metric, point, step)[1]


def riemann_fd(metric: MetricField, point, step: float = 1e-4) -> np.ndarray:
    """Fully covariant curvature from finite differences of the metric alone."""
    return _riemann(*_connection_fd(metric, point, step))


def _connection_fd(metric: MetricField, point, step: float):
    """Values of g, Gamma^k_ij and d_a Gamma^k_ij at ``point``."""
    g = metric.component_values(point)
    ginv = np.linalg.inv(g)
    dg, d2g = _metric_fd(metric, point, step)
    dginv = -np.einsum("km,aml,ls->aks", ginv, dg, ginv)  # d_a g^ks
    first, dfirst = _first_kind(dg), _first_kind(d2g)
    gamma = 0.5 * np.einsum("kl,lij->kij", ginv, first)
    dgamma = 0.5 * (
        np.einsum("akl,lij->akij", dginv, first) + np.einsum("kl,alij->akij", ginv, dfirst)
    )
    return g, gamma, dgamma


def _first_kind(dg: np.ndarray, z: str = "") -> np.ndarray:
    """[..., l, i, j] = d_i g_jl + d_j g_il - d_l g_ij from dg[..., l, i, j] = d_l g_ij.

    ``z`` names the axes after l, i, j: ``"Z"`` for the coefficient axis of jets.
    """
    return np.einsum(f"...ijl{z}->...lij{z}", dg) + np.einsum(f"...jil{z}->...lij{z}", dg) - dg


def _metric_fd(metric: MetricField, point, step: float) -> tuple[np.ndarray, np.ndarray]:
    """Central differences dg[a, i, j] = d_a g_ij and d2g[a, b, i, j] = d_a d_b g_ij."""
    n = metric.dim
    unit = np.eye(n, dtype=int)
    dg = np.empty((n, n, n))
    d2g = np.empty((n, n, n, n))
    for i, j in zip(*np.triu_indices(n)):
        f = ScalarField(n, metric.exprs[i][j], metric.params)
        for a in range(n):
            dg[a, i, j] = dg[a, j, i] = finite_difference_oracle(f, point, unit[a], step)
            for b in range(a, n):
                v = finite_difference_oracle(f, point, unit[a] + unit[b], step)
                d2g[a, b, i, j] = d2g[b, a, i, j] = d2g[a, b, j, i] = d2g[b, a, j, i] = v
    return dg, d2g
