"""The skew-symmetric 2-tensor P, its derivatives, divergence and frames.

Given a scalar potential f, a metric g and a univariate profile lambda, set
h = grad^2 f(grad f, .) (which equals half of d|grad f|^2) and

    P_jk = lambda(f) (d_j f  h_k - d_k f  h_j),

the tensor counterpart of the 2-form lambda(f) df ^ d|grad f|^2 up to the
constant absorbed into lambda.  This module computes
P, its covariant derivative, the divergence (div P)_k = g^ij grad_i P_jk, the
fully contracted norms, and the two derived margins

    violation    = |grad P|^2 - 2 |div P|^2
    sharp_margin = |grad P|^2 - 2/(n-1) |div P|^2

The factor-2 inequality fails on suitable warped products while the
2/(n-1) bound holds pointwise; both are reported for every analyzed point.

It also constructs the orthonormal frame adapted to P (E_1 along grad f, E_2
along A grad f where A raises one P slot), expresses div P in that frame both
through the full connection-coefficient formula and through the bracket-free
shortcut that drops the [E_i, E_j] terms, and reports their discrepancy.

Dictionary to the differential-form picture (norm conventions differ on
forms vs tensors): the associated 2-form has squared gradient norm
|grad P|^2 / 2 and codifferential -div P, so the factor-2 statement for P
and the factor-1 statement for the form are the same inequality.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import DegeneratePError, EvalDomainError, FrameConsistencyError
from .expr import Expr, ParamSet, evaluate
from .geometry import (
    IdentityResidual,
    MetricField,
    MetricJets,
    ScalarField,
    batch_value,
    cov_derivative,
    each_point_on_error,
    norm_sq,
    point_tuple,
    residual,
    upper_indices,
)
from .jets import DEFAULT_ORDER, Jet, as_coefficients, contract, jet_space, partials, sqrt

DEGENERATE_P_TOLERANCE = 1e-10
FRAME_MATCH_TOLERANCE = 1e-10

#: Lowest jet order that yields the values of P, grad P and div P: f at
#: order 3 gives |grad f|^2 at order 2, P at order 1 and grad P at order 0.
#: The |P|^2 Laplacian and the Bochner balance need DEFAULT_ORDER.
VALUE_ORDER = 3

#: Conversion constants between the tensor P and the corresponding 2-form.
FORM_DICTIONARY = {
    "form_gradient_norm_sq": "0.5 * |grad P|^2",
    "codifferential": "-div P",
}


@dataclass(frozen=True)
class PTensorSpec:
    """Ingredients of P: profile lambda (univariate, applied to f), f on g's chart, and g.

    The metric's parameter set binds all three.
    """

    lam: Expr
    f: ScalarField
    metric: MetricField

    @property
    def params(self) -> ParamSet:
        return self.metric.params


class PointAnalysis:
    """Lazy, cached jet pipeline for one spec at one point or a batch of points.

    ``points`` has shape ``(n,)`` or ``(npts, n)``; every tensor carries the
    batch axes in front (see :mod:`skewdiv.geometry`), and a value-level
    scalar is a float for one point and an array over a batch.  Every derived
    quantity is the exact Taylor data of the corresponding field, so repeated
    covariant differentiation stays truncation-error free.  Jet-valued
    tensors are coefficient arrays (see :mod:`skewdiv.jets`), f and
    lambda(f) included: each of those two expressions is evaluated once, on
    jets batched over the points.  Instances are read-only after
    construction and safe to share.

    ``order`` is f's; every other jet stops where its readers do.  P reads g
    one order above itself and f two, so ``mj`` holds g one order below f (2
    at least, for the curvature's dGamma) and lambda(f) is two below, at P's
    order.  Each value read is that of order-``order`` jets, bit for bit.
    """

    def __init__(self, spec: PTensorSpec, points, order: int = DEFAULT_ORDER):
        self.spec = spec
        self.order = order
        self.mj = MetricJets(spec.metric, points, max(order - 1, 2))

    require_order = MetricJets.require_order  # a check's lowest order is an order of f

    @property
    def dim(self) -> int:
        return self.mj.dim

    def _finite(self, stage: str, form):
        """``form()``, the value of the stage named ``stage``, if it is finite at every point.

        Otherwise raises :class:`EvalDomainError` naming the stage and the
        first point in grid order where it is not.  A batch entry is its
        point analysed alone, bit for bit, so that point raises the same
        error alone, as :func:`each_point_on_error` would find it.  ``form``
        runs without numpy's overflow and invalid-value warnings: that error
        reports a non-finite value in their place.
        """
        with np.errstate(over="ignore", invalid="ignore"):
            value = form()
        if np.isfinite(value).all():
            return value
        points = self.mj.points.reshape(-1, self.dim)
        point = points[np.argmin(np.isfinite(np.reshape(value, (len(points), -1))).all(axis=1))]
        raise EvalDomainError(f"{stage} leaves the float range at {point_tuple(point)}")

    def _pairs(self, drop: int):
        """Product pairs of the jet space ``drop`` orders below the analysis order."""
        return jet_space(self.dim, max(self.order - drop, 0)).pairs

    @cached_property
    def fjet(self) -> np.ndarray:
        """Coefficient array of f."""
        return self.spec.f.jets(self.mj.points, self.order, self.spec.params)

    @cached_property
    def df(self) -> np.ndarray:
        """df[..., a] = d_a f, one order below f."""
        return partials(self.fjet, self.dim, self.mj.batch)

    @cached_property
    def w(self) -> np.ndarray:
        """|grad f|^2 = g^ab d_a f d_b f."""
        pairs = self._pairs(1)
        grad_f = contract("ab,b->a", self.mj.ginv, self.df, pairs)
        return contract("a,a->", grad_f, self.df, pairs)

    @cached_property
    def lam_f(self) -> np.ndarray:
        """Coefficient array of lambda(f), two orders below f, the order of P that reads it."""
        sp = jet_space(self.dim, max(self.order - 2, 0))

        def at(fc):
            out = evaluate(self.spec.lam, [Jet(sp, fc)], self.spec.params)
            return as_coefficients(out, fc.shape)

        return self._finite("lambda(f)", lambda: each_point_on_error(at, self.fjet[..., : sp.size]))

    @cached_property
    def P(self) -> np.ndarray:
        n = self.dim
        pairs = self._pairs(2)

        def form():
            # h_k = grad^2 f(grad f, .)_k = (1/2) d_k |grad f|^2.  The Hessian
            # pairing fixes the normalization: d|grad f|^2 itself is twice this,
            # and the factor would otherwise just be absorbed into lambda.
            h = 0.5 * partials(self.w, n, self.mj.batch)
            dfh = contract("j,k->jk", self.df, h, pairs)  # d_j f h_k
            j, k = upper_indices(n, 1)
            block = dfh[..., j, k, :] - dfh[..., k, j, :]
            return _skew(contract(",p->p", self.lam_f, block, pairs), n)

        return self._finite("P", form)

    @cached_property
    def nabla_P(self) -> np.ndarray:
        j, k = upper_indices(self.dim, 1)
        return self._finite(
            "grad P", lambda: _skew(cov_derivative(self.P, self.mj.gamma)[..., j, k, :], self.dim)
        )

    @cached_property
    def div_P(self) -> np.ndarray:
        return contract("ij,ijk->k", self.mj.ginv, self.nabla_P, self._pairs(3))

    # -- value-level pieces ------------------------------------------------

    @cached_property
    def P_val(self) -> np.ndarray:
        return self.P[..., 0]

    @cached_property
    def nabla_P_val(self) -> np.ndarray:
        return self.nabla_P[..., 0]

    @cached_property
    def div_P_val(self) -> np.ndarray:
        return self.div_P[..., 0]

    @cached_property
    def P_up(self) -> np.ndarray:
        """P with both slots raised, P^ab = g^aj g^bk P_jk (values)."""
        gi = self.mj.ginv_val
        return np.einsum("...aj,...bk,...jk->...ab", gi, gi, self.P_val)

    @cached_property
    def p_norm_sq(self) -> float | np.ndarray:
        return self._finite("|P|^2", lambda: norm_sq(self.P_val, self.mj.ginv_val))

    @cached_property
    def nabla_p_norm_sq(self) -> float | np.ndarray:
        return self._finite("|grad P|^2", lambda: norm_sq(self.nabla_P_val, self.mj.ginv_val))

    @cached_property
    def div_p_norm_sq(self) -> float | np.ndarray:
        return self._finite("|div P|^2", lambda: norm_sq(self.div_P_val, self.mj.ginv_val))

    @cached_property
    def p_norm_sq_jet(self) -> np.ndarray:
        """|P|^2 as a jet (order-2 data; enough for its Laplacian)."""
        pairs = self._pairs(2)
        ginv = self.mj.ginv
        # N_jk = (g^-1 P g^-1)_jk so that |P|^2 = sum P_jk N_jk.
        N = contract("jb,bk->jk", contract("ja,ab->jb", ginv, self.P, pairs), ginv, pairs)
        return contract("jk,jk->", self.P, N, pairs)

    @cached_property
    def laplacian_p_norm_sq(self) -> float | np.ndarray:
        ds = partials(self.p_norm_sq_jet, self.dim, self.mj.batch)
        hess = cov_derivative(ds, self.mj.gamma)[..., 0]
        return batch_value(np.einsum("...ij,...ij->...", self.mj.ginv_val, hess))

    @cached_property
    def nabla_div_P_val(self) -> np.ndarray:
        """grad_j (div P)_k values."""
        return cov_derivative(self.div_P, self.mj.gamma)[..., 0]

    @cached_property
    def violation(self) -> float | np.ndarray:
        return self.nabla_p_norm_sq - 2.0 * self.div_p_norm_sq

    @cached_property
    def sharp_margin(self) -> float | np.ndarray:
        return self.nabla_p_norm_sq - (2.0 / (self.dim - 1)) * self.div_p_norm_sq


# -- module operations ---------------------------------------------------------


def _skew(block: np.ndarray, n: int) -> np.ndarray:
    """Skew tensor from its j<k block (``np.triu_indices(n, 1)`` order).

    Entries below the diagonal are the exact negatives and the diagonal is
    exactly zero, whatever the rounding of the block.
    """
    j, k = upper_indices(n, 1)
    out = np.zeros(block.shape[:-2] + (n, n, block.shape[-1]))
    out[..., j, k, :] = block
    out[..., k, j, :] = -block
    return out


def analyze(spec: PTensorSpec, points, order: int = VALUE_ORDER) -> PointAnalysis:
    """The analysis at the lowest order that yields P, grad P and div P, their norms and margins."""
    return PointAnalysis(spec, points, order)


def cyclic_residual(an: PointAnalysis) -> IdentityResidual:
    """Residual of grad_i P_jk + grad_j P_ki + grad_k P_ij = 0 (jet order >= 3).

    Vanishes identically for every P of this module's form, whatever the
    metric: the underlying 2-form is closed because the profile depends on f
    alone.  Its lhs is the max over index triples of |cyclic sum| and its
    one term max |grad P|; over a batch, one of each per point.
    """
    an.require_order(3, "the cyclic identity")
    T = an.nabla_P_val
    cyc = T + np.einsum("...jki->...ijk", T) + np.einsum("...kij->...ijk", T)
    worst = np.max(np.abs(cyc), axis=(-3, -2, -1))
    return residual("cyclic", worst, 0.0, (np.max(np.abs(T), axis=(-3, -2, -1)),))


# -- adapted orthonormal frame ---------------------------------------------------


@dataclass(frozen=True)
class FrameEval:
    """Adapted orthonormal frame and the two frame divergence formulas.

    ``vectors[i]`` holds the chart components of E_i (rows), and ``u`` is
    P(E_1, E_2).  ``div_true``
    uses the connection-coefficient formula; ``div_false`` is the
    bracket-free shortcut -E_2(u) theta^1 + E_1(u) theta^2.  Frame covector
    components convert to chart components through :meth:`covector_to_chart`.
    """

    vectors: np.ndarray
    u: float
    bracket_frame: np.ndarray  # bracket_frame[i,j,k] = <E_k, [E_i, E_j]>
    gram_residual: float
    div_true: np.ndarray
    div_false: np.ndarray
    discrepancy: np.ndarray
    metric_values: np.ndarray

    def covector_to_chart(self, frame_components: np.ndarray) -> np.ndarray:
        """theta^i components -> dx^k components (theta^i_k = g_kl E_i^l)."""
        theta = np.einsum("kl,il->ik", self.metric_values, self.vectors)
        return np.einsum("i,ik->k", np.asarray(frame_components), theta)


def build_frame(an: PointAnalysis) -> FrameEval:
    """Construct the adapted orthonormal frame at a point with |P| != 0 (jet order >= 3).

    ``an`` analyses one point.  E_1 = grad f / |grad f| and E_2 = A E_1 /
    |A E_1| with A^j_i = g^jm P_im; the remaining vectors come from
    Gram-Schmidt over the coordinate basis, always absorbing the candidate
    with the largest residual norm (ties broken by lowest coordinate index),
    which makes the completion deterministic.  Raises FrameConsistencyError
    unless the connection formula gives the coordinate div P in the frame.
    """
    an.require_order(3, "the adapted frame")
    if an.mj.batch:
        raise ValueError(f"the adapted frame is one-point; the analysis has {len(an.mj.points)} points")
    n = an.dim
    p_norm = float(np.sqrt(max(an.p_norm_sq, 0.0)))
    if p_norm < DEGENERATE_P_TOLERANCE:
        raise DegeneratePError(
            f"|P| = {p_norm!r} < {DEGENERATE_P_TOLERANCE} at {point_tuple(an.mj.points)}; "
            "the adapted frame requires a nonvanishing P"
        )

    # Only values and first derivatives of the frame enter below, so the
    # frame jets are built at order 1.
    sp = jet_space(n, 1)
    g = an.mj.g
    ginv = an.mj.ginv

    def scaled(c, v):
        return contract(",a->a", c, v, sp.pairs)

    def dot(u_vec, v_vec):
        return contract("a,a->", u_vec, contract("ab,b->a", g, v_vec, sp.pairs), sp.pairs)

    def inv_sqrt(x):
        return (1.0 / sqrt(Jet(sp, x[: sp.size]))).c

    # E_1 along grad f.
    grad_f = contract("ab,b->a", ginv, an.df, sp.pairs)
    E = [scaled(inv_sqrt(an.w), grad_f)]

    # E_2 along A E_1.
    ae1 = contract("jm,m->j", ginv, contract("im,i->m", an.P, E[0], sp.pairs), sp.pairs)
    E.append(scaled(inv_sqrt(dot(ae1, ae1)), ae1))

    # Deterministic Gram-Schmidt completion over coordinate vectors.
    basis = np.zeros((n, n, sp.size))
    basis[..., 0] = np.eye(n)
    while len(E) < n:
        residuals = []
        for c in range(n):
            r = basis[c]
            for built in E:
                r = r - scaled(dot(basis[c], built), built)
            residuals.append((r, dot(r, r)))
        best = max(range(n), key=lambda c: (residuals[c][1][0], -c))
        r, norm2 = residuals[best]
        if norm2[0] <= 0.0:
            raise FrameConsistencyError("Gram-Schmidt completion degenerated")
        E.append(scaled(inv_sqrt(norm2), r))

    frame_jets = np.stack(E)
    vectors = frame_jets[..., 0]
    dE = partials(frame_jets, n)[..., 0]  # [a, i, c] = d_a E_i^c

    g_val = an.mj.g_val
    gram = np.einsum("ab,ia,jb->ij", g_val, vectors, vectors)
    gram_residual = float(np.max(np.abs(gram - np.eye(n))))

    u_coef = contract("a,a->", E[0], contract("ab,b->a", an.P, E[1], sp.pairs), sp.pairs)
    u = float(u_coef[0])
    du = partials(u_coef, n)[..., 0]
    eu = vectors @ du

    # <nabla_{E_i} E_j, E_k> = -E_i^a E_j^b nabla_a theta^k_b for the
    # coframe theta^k = g(E_k, .); the frame index k is a batch axis.
    theta = contract("bc,kc->kb", g, frame_jets, sp.pairs)
    gamma = np.broadcast_to(an.mj.gamma, (n,) + an.mj.gamma.shape)
    nabla_theta = cov_derivative(theta, gamma)[..., 0]  # [k, a, b]
    connection = -np.einsum("ia,jb,kab->ijk", vectors, vectors, nabla_theta)

    brackets = np.einsum("ia,ajc->ijc", vectors, dE) - np.einsum(
        "ja,aic->ijc", vectors, dE
    )
    bracket_frame = np.einsum("ijc,cd,kd->ijk", brackets, g_val, vectors)

    div_true = np.zeros(n)
    div_true[0] = -eu[1] + u * sum(connection[i, i, 1] for i in range(2, n))
    div_true[1] = eu[0] - u * sum(connection[i, i, 0] for i in range(2, n))
    for k in range(2, n):
        div_true[k] = u * (-connection[0, k, 1] + connection[1, k, 0])

    div_false = np.zeros(n)
    div_false[0] = -eu[1]
    div_false[1] = eu[0]

    div_coord_in_frame = vectors @ an.div_P_val
    gap = np.max(np.abs(div_true - div_coord_in_frame))
    check = residual("frame-divergence", gap, 0.0, (np.max(np.abs(div_coord_in_frame)),))
    if not check.rel_residual <= FRAME_MATCH_TOLERANCE:
        raise FrameConsistencyError(
            f"frame divergence deviates from coordinate divergence by {check.abs_residual!r}"
        )

    return FrameEval(
        vectors=vectors,
        u=u,
        bracket_frame=bracket_frame,
        gram_residual=gram_residual,
        div_true=div_true,
        div_false=div_false,
        discrepancy=div_true - div_false,
        metric_values=g_val,
    )

