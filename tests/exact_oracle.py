"""An exact oracle for the geometry engine, independent of its jets.

Each parsed expression tree is walked into sympy.  It is not rewritten as
text: skewdiv's ``^`` associates to the left and Python's ``**`` to the
right.  Floats (numbers, parameters, the point) become the rationals they
are exactly.  sympy's own derivatives at the point give the Taylor
coefficients of g to order 2, of f to order 3 and of lambda(f) to order 1.
From those alone g^-1, Gamma, dGamma, Riemann, P, grad P and div P are
assembled in a polynomial ring in the offsets y from the point, truncated at
the order each reader needs.  The ring's coefficients are rationals where
every Taylor coefficient is rational, so the result is exact, and 45-digit
floats otherwise (sin, cos, exp, log and fractional powers).

Nothing here calls :mod:`skewdiv.jets`, :mod:`skewdiv.geometry` or the
engine's contractions: it reads only a metric's parsed trees and parameters,
and shares only the index conventions of :mod:`skewdiv.geometry`'s docstring.
"""

import itertools
import math
import operator
from dataclasses import dataclass

import numpy as np
import sympy
from sympy.polys.domains import QQ, RealField
from sympy.polys.matrices import DomainMatrix
from sympy.polys.rings import ring

from skewdiv.expr import Num, Param, Unary, Var

from checks import metric_rows

DIGITS = 45

_UNARY = {
    "neg": operator.neg,
    "sin": sympy.sin,
    "cos": sympy.cos,
    "exp": sympy.exp,
    "log": sympy.log,
    "sqrt": sympy.sqrt,
}
_BINARY = {
    "+": operator.add,
    "-": operator.sub,
    "*": operator.mul,
    "/": operator.truediv,
    "^": operator.pow,
}


def to_sympy(e, variables, params=None):
    """The tree ``e`` as a sympy expression in the symbols ``variables``."""
    kind = type(e)
    if kind is Num:
        return sympy.Rational(e.value)
    if kind is Var:
        return variables[e.index]
    if kind is Param:
        return sympy.Rational(float(params[e.name]))
    if kind is Unary:
        return _UNARY[e.op](to_sympy(e.arg, variables, params))
    return _BINARY[e.op](to_sympy(e.left, variables, params), to_sympy(e.right, variables, params))


def rel_error(got, want) -> float:
    """max |got - want| over max |want|; where ``want`` is all zero, max |got|."""
    got, want = np.asarray(got, dtype=float), np.asarray(want, dtype=float)
    err = float(np.max(np.abs(got - want), initial=0.0))
    scale = float(np.max(np.abs(want), initial=0.0))
    return err / scale if scale else err


def multi_indices(n, order):
    """Every multi-index alpha with |alpha| <= order, by degree."""
    return [a for d in range(order + 1) for a in itertools.product(range(d + 1), repeat=n) if sum(a) == d]


def derivatives(expr, symbols, point, order):
    """{alpha: d^alpha expr at ``point``} for |alpha| <= order, as exact sympy numbers.

    ``point`` holds floats; each is taken as the rational it is exactly.
    """
    at = {x: sympy.Rational(float(p)) for x, p in zip(symbols, point)}
    if expr.is_polynomial(*symbols):  # a long sum differentiates far faster as a Poly
        expr = sympy.Poly(expr, *symbols)
    walked = {}
    out = {}
    for alpha in multi_indices(len(symbols), order):
        if any(alpha):
            i = next(i for i, a in enumerate(alpha) if a)
            walked[alpha] = walked[alpha[:i] + (alpha[i] - 1,) + alpha[i + 1 :]].diff(symbols[i])
        else:
            walked[alpha] = expr
        d = walked[alpha]
        out[alpha] = d.eval(at) if isinstance(d, sympy.Poly) else d.xreplace(at)
    return out


def taylor(expr, symbols, point, order):
    """{alpha: d^alpha expr / alpha!} at ``point``, the Taylor coefficients."""
    return {
        alpha: d / math.prod(map(math.factorial, alpha))
        for alpha, d in derivatives(expr, symbols, point, order).items()
    }


@dataclass(frozen=True)
class ExactPoint:
    """The oracle's values at one point, as object arrays of ``domain`` elements."""

    domain: object
    g: np.ndarray
    ginv: np.ndarray
    gamma: np.ndarray  # [k, i, j] = Gamma^k_ij
    riemann: np.ndarray  # [i, j, k, s] = R_ijks
    P: np.ndarray | None = None
    nabla_P: np.ndarray | None = None  # [i, j, k] = grad_i P_jk
    div_P: np.ndarray | None = None
    p_norm_sq: object = None
    nabla_p_norm_sq: object = None
    div_p_norm_sq: object = None

    @property
    def violation(self):
        return self.nabla_p_norm_sq - 2 * self.div_p_norm_sq


def exact_point(metric, point, f=None, lam=None) -> ExactPoint:
    """Exact geometry of ``metric`` (a MetricField) at ``point``; with f and lam, P too.

    ``f`` is a tree on the metric's chart and ``lam`` one in the single
    variable f; the metric's parameters bind all three.
    """
    n = metric.dim
    xs = sympy.symbols(f"x0:{n}")
    params = metric.params
    upper = list(zip(*np.triu_indices(n)))
    rows = metric_rows(metric)
    series = {(i, j): taylor(to_sympy(rows[i][j], xs, params), xs, point, 2) for i, j in upper}
    if f is not None:
        f_sym = to_sympy(f, xs, params)
        series["f"] = taylor(f_sym, xs, point, 3)
        series["lam"] = taylor(to_sympy(lam, (f_sym,), params), xs, point, 1)
    exact = all(c.is_Rational for s in series.values() for c in s.values())
    dom = QQ if exact else RealField(dps=DIGITS)
    R, *ys = ring(",".join(f"y{i}" for i in range(n)), dom)
    poly = {key: R({a: dom.from_sympy(c) for a, c in s.items() if c != 0}) for key, s in series.items()}

    def each(fn, T):
        return np.vectorize(fn, otypes=[object])(T)

    def cut(T, order):
        """Every entry of ``T`` truncated at degree ``order``."""
        return each(lambda p: R({m: c for m, c in R(p).items() if sum(m) <= order}), T)

    def product(subscripts, a, b, order):
        return cut(np.einsum(subscripts, cut(a, order), cut(b, order)), order)

    def grad(T):
        """[a, ...] = d_a T[...]."""
        return np.stack([each(lambda p: p.diff(y), T) for y in ys])

    def at0(T):
        return each(lambda p: p.coeff(1), T)

    g = np.empty((n, n), dtype=object)
    for i, j in upper:
        g[i, j] = g[j, i] = poly[i, j]
    # g^-1 = g0^-1 sum_k M^k with M = -(g - g0) g0^-1, exact through the
    # degree its readers use: 1 for Gamma, 2 for |grad f|^2.
    top = 1 if f is None else 2
    g0 = at0(g)
    g0inv = each(R, np.array(DomainMatrix(g0.tolist(), (n, n), dom).inv().to_list(), dtype=object))
    m = -product("ij,jk->ik", g - g0, g0inv, top)
    eye = each(R, np.eye(n, dtype=int))
    s = eye
    for _ in range(top):
        s = eye + product("ij,jk->ik", m, s, top)
    ginv = product("ij,jk->ik", g0inv, s, top)

    dg = grad(g)  # [l, i, j] = d_l g_ij
    first = np.einsum("ijl->lij", dg) + np.einsum("jil->lij", dg) - dg
    gamma = product("kl,lij->kij", ginv, first, 1) * R(dom(1) / 2)
    G, dG = at0(gamma), at0(grad(gamma))  # dG[a, k, i, j] = d_a Gamma^k_ij
    quad = np.einsum("mip,pjs->mijs", G, G)
    rup = np.einsum("imjs->mijs", dG) - np.einsum("jmis->mijs", dG) + quad - np.einsum("mjis->mijs", quad)
    riemann = np.einsum("km,mijs->ijks", at0(g), rup)
    out = dict(domain=dom, g=at0(g), ginv=at0(ginv), gamma=G, riemann=riemann)
    if f is None:
        return ExactPoint(**out)

    df = grad(each(R, poly["f"]))
    w = product("a,a->", product("ab,b->a", ginv, df, 2), df, 2)
    h = grad(w) * R(dom(1) / 2)  # h_k = (1/2) d_k |grad f|^2
    dfh = product("j,k->jk", df, h, 1)
    P = cut((dfh - dfh.T) * poly["lam"], 1)
    gi, P0 = at0(ginv), at0(P)
    nabla_P = (
        at0(grad(P))
        - np.einsum("lij,lk->ijk", G, P0)
        - np.einsum("lik,jl->ijk", G, P0)
    )
    div_P = np.einsum("ij,ijk->k", gi, nabla_P)

    def norm_sq(T):
        """|T|^2, each slot raised by g^-1 in turn."""
        up = T
        for slot in range(T.ndim):
            up = np.moveaxis(np.tensordot(gi, up, axes=(1, slot)), 0, slot)
        return np.sum(T * up)

    return ExactPoint(
        **out,
        P=P0,
        nabla_P=nabla_P,
        div_P=div_P,
        p_norm_sq=norm_sq(P0),
        nabla_p_norm_sq=norm_sq(nabla_P),
        div_p_norm_sq=norm_sq(div_P),
    )
