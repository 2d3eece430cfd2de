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

  With this sign the round unit sphere has R_ijks = g_ik g_js - g_is g_jk
  and Ric = (n-1) g (positive), and the symmetries
  R_ijks = -R_jiks = -R_ijsk = R_ksij hold.  The Ricci and Riemann terms
  of the Bochner balance pin this choice, and so does the commutation test
  (``test_commutation_rule_pins_curvature_sign``): the rule they encode is
  d_i d_j T - d_j d_i T acting through +R_ij.s contractions.
* Ricci traces R^m_ijs = g^mk R_ijks:  R_js = R^i_ijs (= g^ik R_ijks);
  scalar R = g^js R_js.  :meth:`MetricJets.riemann_up` writes R^m_ijs once,
  for the values and for jets.
* Divergences contract the derivative slot first:  (div T)_k = g^ij grad_i T_jk.
* Squared norms contract every slot with the inverse metric, e.g.
  |grad P|^2 = g^ia g^jb g^kc grad_i P_jk grad_a P_bc, computed one slot at
  a time through :func:`norm_sq`, two operands per contraction.

All evaluation objects here are immutable after construction and safe to use
concurrently over point grids.
"""

from __future__ import annotations

import copy
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Sequence

import numpy as np

from .errors import NonPositiveDefiniteError, OrderExceededError, SkewdivError
from .expr import Expr, ParamSet, TermTable, chart_variables, evaluate, lower, parse, sum_terms, to_source
from .jets import (
    DEFAULT_ORDER,
    as_coefficients,
    contract,
    jet_order,
    jet_space,
    partials,
    seed_variables,
)


# -- expression-defined fields -------------------------------------------------


@lru_cache(maxsize=None)
def upper_indices(n: int, k: int = 0) -> tuple[np.ndarray, np.ndarray]:
    """Row and column indices of an n x n tensor's entries j >= i + k (``np.triu_indices``)."""
    return np.triu_indices(n, k)


@lru_cache(maxsize=None)
def upper_entry(n: int) -> np.ndarray:
    """For each entry of an n x n symmetric tensor, row-major, the index of its entry i <= j in :func:`upper_indices`."""
    i, j = upper_indices(n)
    entry = np.empty((n, n), dtype=np.intp)
    entry[i, j] = entry[j, i] = np.arange(len(i))
    return entry.ravel()


def lowered_jets(table: TermTable, tree, points, order: int, params: ParamSet) -> np.ndarray:
    """Coefficient array [e, ..., :] of entry e of ``table``, at a point or a batch of points.

    The entries are summed together from their lowered terms
    (:func:`~skewdiv.expr.sum_terms`).  An entry whose terms fail or come
    out non-finite walks its tree ``tree(e)`` instead.
    """
    out, left = sum_terms(table, points, order, params)
    if left:
        seeds = seed_variables(points, None, order)
        for e in left:
            out[e] = as_coefficients(evaluate(tree(e), seeds, params), out.shape[1:])
    return out


class MetricField:
    """Symmetric matrix of expressions defining g_ij on a chart.

    Its parameter set is the spec's one set: it binds f and lambda too.
    Positive definiteness is enforced at every evaluation point by a
    Cholesky factorization, which does not depend on the metric's scale; a
    violation or a non-finite component raises instead of silently
    propagating.

    The entries i <= j are evaluated together from their lowered terms
    (:func:`lowered_jets`).  A field of trees lowers them on its first
    evaluation, and :meth:`with_params` shares that form.  A field built by
    :meth:`from_table` is given its entries' texts and lowered form, and
    parses its trees ``exprs`` from the texts only when they are first read:
    by the walk of an entry whose terms fail, say.
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
        self._texts = None

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

    @classmethod
    def from_table(cls, texts: Sequence[Sequence[str]], table: TermTable) -> "MetricField":
        """The field of the symmetric entry ``texts``, without parameters, given their lowered form.

        ``table`` holds what :func:`~skewdiv.expr._terms` gives for the parsed
        text of each entry i <= j, in :func:`upper_indices` order.
        """
        field = cls.__new__(cls)
        field.dim, field.params, field._texts, field._lowered = len(texts), {}, texts, table
        return field

    @cached_property
    def exprs(self) -> tuple:
        """The entry trees, parsed from the texts on first read if the field was built from its table."""
        return MetricField.parse(self._texts, self.params).exprs

    @cached_property
    def _lowered(self) -> TermTable:
        """The lowered form of the entries i <= j, in :func:`upper_indices` order."""
        return lower([self.exprs[a][b] for a, b in zip(*upper_indices(self.dim))])

    def with_params(self, params: ParamSet) -> "MetricField":
        """The same entries bound to ``params``, sharing this field's trees and lowered form."""
        field = copy.copy(self)
        field.params, field._lowered = dict(params), self._lowered
        return field

    def component_jets(self, point, order: int = DEFAULT_ORDER) -> np.ndarray:
        """Coefficient array g[..., i, j, :] at a point or a batch of points."""
        return each_point_on_error(lambda points: self._component_jets(points, order), point)

    def _component_jets(self, points: np.ndarray, order: int) -> np.ndarray:
        i, j = upper_indices(self.dim)
        upper = lowered_jets(self._lowered, lambda e: self.exprs[i[e]][j[e]], points, order, self.params)
        g = upper[upper_entry(self.dim)].reshape((self.dim, self.dim) + upper.shape[1:])
        g = np.ascontiguousarray(np.moveaxis(g, (0, 1), (-3, -2)))
        self._check_positive_definite(g[..., 0], points)
        return g

    def _check_positive_definite(self, vals: np.ndarray, point) -> None:
        """Raise unless g is finite and positive definite (a batch's message goes unread)."""
        if not np.all(np.isfinite(vals)):
            raise NonPositiveDefiniteError(f"metric has non-finite components at {point_tuple(point)}")
        try:
            np.linalg.cholesky(vals)
        except np.linalg.LinAlgError:
            raise NonPositiveDefiniteError(
                f"metric is not positive definite at {point_tuple(point)}: Cholesky factorization fails"
            ) from None

    def sources(self) -> list[list[str]]:
        """Entry sources for reports: the texts given, or each distinct tree rendered once."""
        if self._texts is not None:
            return [list(row) for row in self._texts]
        text: dict[int, str] = {}
        for row in self.exprs:
            for e in row:
                if id(e) not in text:
                    text[id(e)] = to_source(e)
        return [[text[id(e)] for e in row] for row in self.exprs]


# -- batches of points -------------------------------------------------------------


# Errors that evaluation at a single point raises.
_POINT_ERRORS = (SkewdivError, ArithmeticError)


class ScalarField:
    """A function on the chart, such as the potential f, summed from its lowered terms.

    Built from a tree, the field lowers it on its first evaluation.  Built by
    :meth:`from_table` from a text and its lowered form, it parses its tree
    ``tree`` from the text only when that is first read: by the walk of a
    failing evaluation, say.
    """

    def __init__(self, tree: Expr):
        self.tree = tree
        self._text = None

    @classmethod
    def from_table(cls, text: str, table: TermTable, dim: int) -> "ScalarField":
        """The field of the ``text`` on a ``dim``-chart, without parameters, given its lowered form."""
        field = cls.__new__(cls)
        field._text, field._lowered, field._dim = text, table, dim
        return field

    @cached_property
    def tree(self) -> Expr:
        """The tree, parsed from the text on first read if the field was built from its table."""
        return parse(self._text, variables=chart_variables(self._dim))

    @cached_property
    def _lowered(self) -> TermTable:
        return lower([self.tree])

    def jets(self, points, order: int, params: ParamSet) -> np.ndarray:
        """Coefficient array [..., :] at a point or a batch of points."""
        return each_point_on_error(
            lambda pts: lowered_jets(self._lowered, lambda e: self.tree, pts, order, params)[0], points
        )

    def source(self) -> str:
        """The text for reports: the one given, or the tree rendered."""
        return self._text or to_source(self.tree)


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


def point_tuple(point) -> tuple:
    """A point as a tuple of Python floats, for error messages."""
    return tuple(np.asarray(point, dtype=float).tolist())


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

    Over a batch, each residual is an array with one entry per point.
    """

    name: str
    abs_residual: float | np.ndarray
    rel_residual: float | np.ndarray


def residual(name: str, lhs, rhs, terms) -> IdentityResidual:
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
        abs_residual=batch_value(absr),
        rel_residual=batch_value(absr / np.maximum(scale, 1.0)),
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
        self.points = np.asarray(points, dtype=float)
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
        # first[..., l, i, j] = d_i g_jl + d_j g_il - d_l g_ij
        first = np.einsum("...ijlZ->...lijZ", dg) + np.einsum("...jilZ->...lijZ", dg) - dg
        sp = jet_space(self.dim, self.order - 1)
        # first is exactly symmetric in i, j, so only its i <= j block is
        # contracted and the result mirrored.
        i, j = upper_indices(self.dim)
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

    def riemann_up(self, order: int) -> np.ndarray:
        """R[..., m, i, j, s, :] = R^m_ijs, at jet order ``order``, two below g's at most.

        R^m_ijs = d_i Gamma^m_js - d_j Gamma^m_is + Gamma^m_ip Gamma^p_js
        - Gamma^m_jp Gamma^p_is; lowered by g_km it is R_ijks, and its trace
        R^i_ijs is Ric_js.  The derivatives come from Gamma cut to ``order + 1``.
        """
        self.require_order(order + 2, f"the Riemann tensor at jet order {order}")
        sp = jet_space(self.dim, order)
        cut = self.gamma[..., : jet_space(self.dim, order + 1).size]
        dG = partials(cut, self.dim, self.batch)  # [..., a, k, i, j] = d_a Gamma^k_ij
        quad = contract("mip,pjs->mijs", self.gamma, self.gamma, sp.pairs)
        return (
            np.einsum("...imjsZ->...mijsZ", dG)
            - np.einsum("...jmisZ->...mijsZ", dG)
            + quad
            - np.einsum("...mjisZ->...mijsZ", quad)
        )

    @cached_property
    def curvature(self) -> "CurvatureEval":
        rup = self.riemann_up(0)[..., 0]
        riem = np.einsum("...km,...mijs->...ijks", self.g_val, rup)
        ricci = np.einsum("...iijs->...js", rup)
        scal = np.einsum("...js,...js->...", self.ginv_val, ricci)
        return CurvatureEval(riemann=riem, ricci=ricci, scalar=batch_value(scal))


@dataclass(frozen=True)
class CurvatureEval:
    """The curvature that the balance and the static system read, at a point or over a batch.

    ``riemann`` is R_ijks, :meth:`MetricJets.riemann_up` lowered by g.  The
    tensors are plain arrays of values, with the batch axes of
    :class:`MetricJets` in front; the metric, its inverse and Gamma stay on
    the :class:`MetricJets` whose ``curvature`` this is.  ``scalar`` is a
    float for one point and an array over a batch.
    """

    riemann: np.ndarray
    ricci: np.ndarray
    scalar: float | np.ndarray


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
