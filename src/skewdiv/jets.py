"""Truncated multivariate Taylor arithmetic ("jets").

A :class:`Jet` stores the Taylor coefficients c_alpha = (d^alpha f)(p) / alpha!
of a scalar quantity at a fixed base point, for every multi-index alpha with
|alpha| <= order.  Arithmetic on jets propagates those coefficients exactly
(up to floating-point rounding), so any quantity assembled from seeded jets
carries the exact partial derivatives of the corresponding field.  This is the
number system the geometry layers run on: curvature and fourth-order
identities come out with no finite-difference truncation error.

Jets are immutable value types; every operation allocates a fresh
coefficient array, so concurrent use from many threads is safe.

Storage is dense over the C(nvars+order, order) monomials, ordered by total
degree then lexicographically.  The graded ordering makes truncation to a
lower order a prefix slice, which keeps mixed-order arithmetic cheap.

Tensors of jets (metric, Christoffel symbols, P, ...) are not arrays of
:class:`Jet` objects but single float arrays of shape
``tensor_shape + (ncoef,)``: the trailing axis holds the coefficients in the
same graded order, and ``T[..., 0]`` are the component values.
:func:`contract` multiplies two such tensors and contracts their tensor
indices in one call; :func:`partials` stacks their first partials.  The
scalar :class:`Jet` serves expression evaluation.
"""

from __future__ import annotations

import itertools
import math
from functools import lru_cache
from typing import Callable, Sequence

import numpy as np

from .errors import EvalDomainError, OrderExceededError

DEFAULT_ORDER = 4

_SCALARS = (int, float, np.integer, np.floating)


@lru_cache(maxsize=None)
def jet_space(nvars: int, order: int) -> "JetSpace":
    """Shared, cached index bookkeeping for jets of a given shape."""
    return JetSpace(nvars, order)


class JetSpace:
    """Monomial tables for dense jets in ``nvars`` variables up to ``order``."""

    def __init__(self, nvars: int, order: int):
        if nvars < 1:
            raise ValueError("jets need at least one variable")
        if order < 0:
            raise ValueError("order must be nonnegative")
        self.nvars = nvars
        self.order = order
        monos = sorted(
            (
                m
                for m in itertools.product(range(order + 1), repeat=nvars)
                if sum(m) <= order
            ),
            key=lambda m: (sum(m), m),
        )
        self.monomials: tuple[tuple[int, ...], ...] = tuple(monos)
        self.size = len(monos)
        self.index = {m: i for i, m in enumerate(monos)}
        self.factorial = np.array(
            [float(math.prod(math.factorial(k) for k in m)) for m in monos]
        )
        if order >= 1:
            self.var_pos = tuple(
                self.index[tuple(1 if j == v else 0 for j in range(nvars))]
                for v in range(nvars)
            )
        else:
            self.var_pos = ()

        ia, ib, ic = [], [], []
        for i, ma in enumerate(monos):
            da = sum(ma)
            for j, mb in enumerate(monos):
                if da + sum(mb) <= order:
                    ia.append(i)
                    ib.append(j)
                    ic.append(self.index[tuple(a + b for a, b in zip(ma, mb))])
        self.mul_ia = np.asarray(ia, dtype=np.intp)
        self.mul_ib = np.asarray(ib, dtype=np.intp)
        self.mul_ic = np.asarray(ic, dtype=np.intp)
        # The same pairs grouped by target coefficient for :func:`contract`.
        # The sort is stable, so each target sums its products in a fixed
        # order and results repeat bit for bit.
        by_target = np.argsort(self.mul_ic, kind="stable")
        self.pair_a = self.mul_ia[by_target]
        self.pair_b = self.mul_ib[by_target]
        self.pair_starts = np.searchsorted(self.mul_ic[by_target], np.arange(self.size))

        # Partial-derivative maps into the (nvars, order-1) layout.  The
        # graded ordering makes the lower space's monomials a prefix of ours,
        # so only source indices and factors are needed.
        self.diff_src: tuple[np.ndarray, ...] = ()
        self.diff_fac: tuple[np.ndarray, ...] = ()
        if order >= 1:
            lower = [m for m in monos if sum(m) <= order - 1]
            srcs, facs = [], []
            for v in range(nvars):
                src = []
                fac = []
                for m in lower:
                    up = tuple(k + 1 if j == v else k for j, k in enumerate(m))
                    src.append(self.index[up])
                    fac.append(float(m[v] + 1))
                srcs.append(np.asarray(src, dtype=np.intp))
                facs.append(np.asarray(fac))
            self.diff_src = tuple(srcs)
            self.diff_fac = tuple(facs)
            self.diff_src_all = np.stack(srcs)
            self.diff_fac_all = np.stack(facs)

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"JetSpace(nvars={self.nvars}, order={self.order})"


def _align(a: "Jet", b: "Jet") -> tuple["Jet", "Jet"]:
    """Bring two jets to a common space, truncating to the lower order."""
    sa, sb = a.space, b.space
    if sa is sb:
        return a, b
    if sa.nvars != sb.nvars:
        raise ValueError(
            f"jet dimension mismatch: {sa.nvars} vs {sb.nvars} variables"
        )
    m = min(sa.order, sb.order)
    return a.truncate(m), b.truncate(m)


class Jet:
    """Truncated Taylor expansion of a scalar at a point."""

    __slots__ = ("space", "c")

    def __init__(self, space: JetSpace, coeffs: np.ndarray):
        self.space = space
        self.c = coeffs

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value: float, nvars: int, order: int = DEFAULT_ORDER) -> "Jet":
        sp = jet_space(nvars, order)
        c = np.zeros(sp.size)
        c[0] = value
        return Jet(sp, c)

    @staticmethod
    def variable(value: float, slot: int, nvars: int, order: int = DEFAULT_ORDER) -> "Jet":
        sp = jet_space(nvars, order)
        c = np.zeros(sp.size)
        c[0] = value
        c[sp.var_pos[slot]] = 1.0
        return Jet(sp, c)

    # -- basic queries ------------------------------------------------------

    @property
    def nvars(self) -> int:
        return self.space.nvars

    @property
    def order(self) -> int:
        return self.space.order

    @property
    def value(self) -> float:
        return float(self.c[0])

    def is_constant(self) -> bool:
        return bool(np.all(self.c[1:] == 0.0))

    def truncate(self, order: int) -> "Jet":
        if order >= self.space.order:
            return self
        if order < 0:
            raise ValueError("order must be nonnegative")
        sp = jet_space(self.space.nvars, order)
        return Jet(sp, self.c[: sp.size])

    def first_derivatives(self) -> np.ndarray:
        """Gradient of the underlying field at the base point."""
        if self.space.order < 1:
            raise OrderExceededError("jet of order 0 carries no derivatives")
        return self.c[list(self.space.var_pos)].copy()

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b = _align(self, other)
            return Jet(a.space, a.c + b.c)
        if isinstance(other, _SCALARS):
            c = self.c.copy()
            c[0] += other
            return Jet(self.space, c)
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other):
        if isinstance(other, Jet):
            a, b = _align(self, other)
            return Jet(a.space, a.c - b.c)
        if isinstance(other, _SCALARS):
            c = self.c.copy()
            c[0] -= other
            return Jet(self.space, c)
        return NotImplemented

    def __rsub__(self, other):
        if isinstance(other, _SCALARS):
            c = -self.c
            c[0] += other
            return Jet(self.space, c)
        return NotImplemented

    def __neg__(self):
        return Jet(self.space, -self.c)

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = _align(self, other)
            sp = a.space
            prod = a.c[sp.mul_ia] * b.c[sp.mul_ib]
            return Jet(sp, np.bincount(sp.mul_ic, weights=prod, minlength=sp.size))
        if isinstance(other, _SCALARS):
            return Jet(self.space, self.c * other)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        if isinstance(other, _SCALARS):
            if other == 0:
                raise EvalDomainError("division by zero")
            return Jet(self.space, self.c / other)
        return NotImplemented

    def __rtruediv__(self, other):
        if isinstance(other, _SCALARS):
            return self._reciprocal() * other
        return NotImplemented

    def __pow__(self, exponent):
        return powop(self, exponent)

    def __rpow__(self, base):
        if isinstance(base, _SCALARS):
            return powop(float(base), self)
        return NotImplemented

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"Jet(n={self.nvars}, m={self.order}, value={self.value!r})"

    # -- analytic functions via power-series composition ---------------------
    #
    # For f smooth at v = self.value, f(self) = sum_k f^(k)(v)/k! * t^k with
    # t = self - v.  The tilde part t has no constant term, hence t^k only
    # touches coefficients of degree >= k and the Horner sum is exact at the
    # truncation order.

    def _compose(self, coefs: Sequence[float]) -> "Jet":
        sp = self.space
        tilde_c = self.c.copy()
        tilde_c[0] = 0.0
        tilde = Jet(sp, tilde_c)
        acc = Jet.constant(coefs[-1], sp.nvars, sp.order)
        for k in range(len(coefs) - 2, -1, -1):
            acc = acc * tilde + coefs[k]
        return acc

    def _reciprocal(self) -> "Jet":
        v = self.value
        if v == 0.0:
            raise EvalDomainError("division by zero")
        coefs = []
        cur = 1.0 / v
        for _ in range(self.space.order + 1):
            coefs.append(cur)
            cur *= -1.0 / v
        return self._compose(coefs)

    def sin(self) -> "Jet":
        v = self.value
        cycle = (math.sin(v), math.cos(v), -math.sin(v), -math.cos(v))
        coefs = [cycle[k % 4] / math.factorial(k) for k in range(self.space.order + 1)]
        return self._compose(coefs)

    def cos(self) -> "Jet":
        v = self.value
        cycle = (math.cos(v), -math.sin(v), -math.cos(v), math.sin(v))
        coefs = [cycle[k % 4] / math.factorial(k) for k in range(self.space.order + 1)]
        return self._compose(coefs)

    def exp(self) -> "Jet":
        ev = math.exp(self.value)
        coefs = [ev / math.factorial(k) for k in range(self.space.order + 1)]
        return self._compose(coefs)

    def log(self) -> "Jet":
        v = self.value
        if v <= 0.0:
            raise EvalDomainError(f"log of nonpositive value {v!r}")
        coefs = [math.log(v)]
        for k in range(1, self.space.order + 1):
            coefs.append((-1.0) ** (k - 1) / (k * v**k))
        return self._compose(coefs)

    def sqrt(self) -> "Jet":
        v = self.value
        if v <= 0.0:
            raise EvalDomainError(f"sqrt of nonpositive value {v!r} in jet arithmetic")
        return self._compose(_pow_series(v, 0.5, self.space.order))


def _pow_series(v: float, p: float, order: int) -> list[float]:
    """Coefficients f^(k)(v)/k! for f(x) = x**p, assuming v > 0."""
    coefs = [v**p]
    for k in range(1, order + 1):
        coefs.append(coefs[-1] * (p - k + 1) / (k * v))
    return coefs


def _int_pow(base, k: int):
    """base**k for integer k; valid for any base sign, jets or floats."""
    if k < 0:
        if isinstance(base, Jet):
            return _int_pow(base, -k)._reciprocal()
        if base == 0.0:
            raise EvalDomainError("zero base with negative integer exponent")
        return 1.0 / _int_pow(base, -k)
    if isinstance(base, Jet):
        acc = Jet.constant(1.0, base.nvars, base.order)
    else:
        acc = 1.0
    sq = base
    while k:
        if k & 1:
            acc = acc * sq
        k >>= 1
        if k:
            sq = sq * sq
    return acc


def powop(base, exponent):
    """Power with the package's domain rules, generic over floats and jets.

    Integer exponents are valid for any base; fractional exponents require a
    strictly positive base (this sidesteps branch-cut ambiguity).  A jet
    exponent that is not constant forces the exp/log route.
    """
    if isinstance(exponent, Jet):
        if exponent.is_constant():
            exponent = exponent.value
        else:
            bval = base.value if isinstance(base, Jet) else float(base)
            if bval <= 0.0:
                raise EvalDomainError(
                    "variable exponent requires a strictly positive base"
                )
            return exp(exponent * log(base))
    e = float(exponent)
    if not math.isfinite(e):
        raise EvalDomainError(f"non-finite exponent {e!r}")
    if e.is_integer():
        return _int_pow(base, int(e))
    if isinstance(base, Jet):
        if base.value <= 0.0:
            raise EvalDomainError(
                f"fractional power of non-positive base {base.value!r}"
            )
        return base._compose(_pow_series(base.value, e, base.order))
    if base <= 0.0:
        raise EvalDomainError(f"fractional power of non-positive base {base!r}")
    return math.pow(base, e)


# -- generic numeric helpers (shared semantics for floats and jets) ----------


def value_of(x) -> float:
    return x.value if isinstance(x, Jet) else float(x)


def sin(x):
    return x.sin() if isinstance(x, Jet) else math.sin(x)


def cos(x):
    return x.cos() if isinstance(x, Jet) else math.cos(x)


def exp(x):
    return x.exp() if isinstance(x, Jet) else math.exp(x)


def log(x):
    if isinstance(x, Jet):
        return x.log()
    if x <= 0.0:
        raise EvalDomainError(f"log of nonpositive value {x!r}")
    return math.log(x)


def sqrt(x):
    if isinstance(x, Jet):
        return x.sqrt()
    if x < 0.0:
        raise EvalDomainError(f"sqrt of negative value {x!r}")
    return math.sqrt(x)


# -- seeding and extraction ---------------------------------------------------


def seed_variables(
    point: Sequence[float], nvars: int | None = None, order: int = DEFAULT_ORDER
) -> list[Jet]:
    """Seed one jet per chart variable at ``point``.

    Jet ``i`` has value ``point[i]``, a unit first-order coefficient in slot
    ``i`` and zeros elsewhere, so evaluating any expression on the seeds
    yields the expression's full derivative data at the point.
    """
    pt = [float(x) for x in point]
    if nvars is None:
        nvars = len(pt)
    if len(pt) != nvars:
        raise ValueError(f"point has {len(pt)} coordinates, expected {nvars}")
    if order < 1:
        raise ValueError("seed order must be at least 1")
    return [Jet.variable(pt[i], i, nvars, order) for i in range(nvars)]


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
    idx = j.space.index[alpha]
    return float(j.c[idx] * j.space.factorial[idx])


def partial_derivative(j: Jet, var: int) -> Jet:
    """d/dx_var as a jet one order lower."""
    sp = j.space
    if sp.order < 1:
        raise OrderExceededError("cannot differentiate an order-0 jet")
    lo = jet_space(sp.nvars, sp.order - 1)
    return Jet(lo, j.c[sp.diff_src[var]] * sp.diff_fac[var])


# -- coefficient-array tensors --------------------------------------------------


def jet_order(T: np.ndarray, nvars: int) -> int:
    """Truncation order of a coefficient array in ``nvars`` variables."""
    size = np.shape(T)[-1]
    order = 0
    while math.comb(nvars + order, order) < size:
        order += 1
    if math.comb(nvars + order, order) != size:
        raise ValueError(f"{size} coefficients fit no jet order in {nvars} variables")
    return order


def contract(subscripts: str, A: np.ndarray, B: np.ndarray, space: JetSpace) -> np.ndarray:
    """Jet product of two coefficient-array tensors, contracted like ``einsum``.

    ``subscripts`` names the tensor axes only, e.g. ``"kl,lij->kij"``; each
    operand's trailing coefficient axis is implicit.  The product is
    truncated to ``space``, whose order may not exceed either operand's.

    Both operands are gathered on the space's product pairs, the tensor
    indices are contracted by one ``matmul`` batched over the pairs, and each
    output coefficient sums its pairs in the space's fixed order.  Every
    index must appear in the other operand or in the output, once per
    operand.
    """
    ins, out = subscripts.split("->")
    a, b = ins.split(",")
    batch = [c for c in a if c in b and c in out]
    summed = [c for c in a if c in b and c not in out]
    free_a = [c for c in a if c not in b]
    free_b = [c for c in b if c not in a]
    dims = {**dict(zip(a, A.shape)), **dict(zip(b, B.shape))}

    def gathered(T, subs, pairs, rows, cols):
        # Pairs on the leading axis, then the tensor axes in matmul order.
        G = T.transpose([T.ndim - 1] + [subs.index(c) for c in batch + rows + cols])
        G = G[pairs]
        return G.reshape(
            G.shape[: 1 + len(batch)]
            + (math.prod(dims[c] for c in rows), math.prod(dims[c] for c in cols))
        )

    prod = np.matmul(
        gathered(A, a, space.pair_a, free_a, summed),
        gathered(B, b, space.pair_b, summed, free_b),
    )
    prod = prod.reshape(prod.shape[:-2] + tuple(dims[c] for c in free_a + free_b))
    coef = np.add.reduceat(prod, space.pair_starts, axis=0)
    axes = batch + free_a + free_b
    return coef.transpose([1 + axes.index(c) for c in out] + [0])


def partials(T: np.ndarray, nvars: int) -> np.ndarray:
    """First partials of a coefficient-array tensor, one order lower.

    ``out[a, ...] = d_a T[...]``: the derivative index comes first.
    """
    sp = jet_space(nvars, jet_order(T, nvars))
    if sp.order < 1:
        raise OrderExceededError("cannot differentiate an order-0 jet")
    return np.moveaxis(T[..., sp.diff_src_all] * sp.diff_fac_all, -2, 0)


def finite_difference_oracle(
    field: Callable[[Sequence[float]], float],
    point: Sequence[float],
    alpha: Sequence[int],
    step: float = 1e-4,
) -> float:
    """Central-difference derivative estimate, independent of jet arithmetic.

    Supports multi-indices up to total order 2; the truncation error is
    O(step**2) for every stencil used.  Domain errors raised by ``field`` on
    a stencil point propagate unchanged.
    """
    alpha = tuple(int(a) for a in alpha)
    total = sum(alpha)
    if any(a < 0 for a in alpha):
        raise ValueError("multi-index entries must be nonnegative")
    if total > 2:
        raise OrderExceededError("finite-difference oracle supports order <= 2")
    p = np.asarray([float(x) for x in point])
    if len(alpha) != p.size:
        raise ValueError("multi-index length does not match point dimension")

    def f(q: np.ndarray) -> float:
        return float(field(q))

    if total == 0:
        return f(p)
    if total == 1:
        i = alpha.index(1)
        e = np.zeros_like(p)
        e[i] = step
        return (f(p + e) - f(p - e)) / (2.0 * step)
    if 2 in alpha:
        i = alpha.index(2)
        e = np.zeros_like(p)
        e[i] = step
        return (f(p + e) - 2.0 * f(p) + f(p - e)) / step**2
    i, j = (k for k, a in enumerate(alpha) if a == 1)
    ei = np.zeros_like(p)
    ej = np.zeros_like(p)
    ei[i] = step
    ej[j] = step
    return (
        f(p + ei + ej) - f(p + ei - ej) - f(p - ei + ej) + f(p - ei - ej)
    ) / (4.0 * step**2)
