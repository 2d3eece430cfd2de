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

A :class:`Jet`'s coefficients may carry leading batch axes, ``batch_shape +
(ncoef,)``, one jet per grid point: seeding a batch of points
(:func:`seed_variables`) and evaluating an expression on the seeds walks the
expression once for the whole grid.  Each batch entry is computed exactly as
its point alone would be, bit for bit; a single point is the batch shape
``()``, keeps 1-D coefficients and a float ``value``.  Each jet also carries
``deg``, an upper bound on its polynomial degree (0 for constants, 1 for
seeds, the maximum over a sum, the sum over a product, the order after
composing an analytic function with a non-constant jet), and a product only
forms the coefficient pairs that the two bounds allow.  Where a batch fails (a domain error, an
overflow), the error belongs to no particular point; the callers that
evaluate on batches re-run point by point so that the first failing point
raises its own error (:func:`skewdiv.geometry.each_point_on_error`).

Tensors of jets (metric, Christoffel symbols, P, ...) are not arrays of
:class:`Jet` objects but single float arrays of shape
``tensor_shape + (ncoef,)``: the trailing axis holds the coefficients in the
same graded order, and ``T[..., 0]`` are the component values.  Optional
leading batch axes hold one tensor per grid point, ``batch_shape +
tensor_shape + (ncoef,)``, so a whole grid is one array.
:func:`contract` multiplies two such tensors and contracts their tensor
indices in one call, batch axes included; :func:`partials` stacks their
first partials, with the derivative slot directly after the batch axes.
:class:`Jet` serves expression evaluation.  Its methods are the ring
operations; the analytic functions (:func:`sin`, :func:`cos`, :func:`exp`,
:func:`log`, :func:`sqrt`, :func:`powop`) are module functions, generic over
floats and jets.

Every product, of jets, of batches of jets or through :func:`contract`, sums
its pairs from one :class:`PairTable` type with one ``np.bincount``: each
target adds its products in the table's order starting from +0.0, so an
exact -0.0 sum comes out +0.0 (:func:`_sum_pairs`).

An analytic function f of a jet is composed from f's Taylor coefficients
f^(k)(v)/k! at the jet's value v, by Horner's rule in jet products
(``Jet._horner``).  Where the argument is a seed plus a constant, x_i + v,
the composed jet is f's series itself, placed at the monomials x_i^k with
no product at all (Griewank & Walther, *Evaluating Derivatives*, 2nd ed.,
ch. 13); ``Jet._compose`` chooses by inspecting the argument.  Each placed
coefficient is ``f^(k)(v)/k! + 0.0``, what Horner's sums give, so both
paths agree bit for bit, signed zeros included; a test pins the placement
to ``Jet._horner`` on sin, cos, exp, log, sqrt, powers and reciprocals.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
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
        # power_pos[p][k]: the index of m^k, m the p-th degree-1 monomial (Jet._compose).
        self.power_pos = tuple(
            tuple(self.index[tuple(k * e for e in m)] for k in range(order + 1)) for m in monos[1 : nvars + 1]
        )

        pairs = [
            (i, j, self.index[tuple(a + b for a, b in zip(ma, mb))])
            for i, ma in enumerate(monos)
            for j, mb in enumerate(monos)
            if sum(ma) + sum(mb) <= order
        ]
        self.pairs = PairTable(*np.asarray(pairs, dtype=np.intp).T.copy(), order, 0, self.size)
        # The pairs of jets with degree bounds (deg_a, deg_b), at
        # ``product_pairs[deg_a][deg_b]``.  Coefficients above a jet's bound
        # are zero, so the dropped pairs would only add exact zeros.
        self.degree = np.asarray([sum(m) for m in monos], dtype=np.intp)
        deg_a, deg_b = self.degree[self.pairs.ia], self.degree[self.pairs.ib]
        self.product_pairs = tuple(
            tuple(
                self.pairs.where((deg_a <= i) & (deg_b <= j), min(i + j, order), 0, self.size)
                for j in range(order + 1)
            )
            for i in range(order + 1)
        )
        self._step_pairs: dict = {}

        # Partial-derivative maps into the (nvars, order-1) layout, one row
        # per variable.  The graded ordering makes the lower space's monomials
        # a prefix of ours, so only source indices and factors are needed.
        if order >= 1:
            lower = [m for m in monos if sum(m) <= order - 1]
            self.diff_src = np.asarray(
                [[self.index[tuple(k + (j == v) for j, k in enumerate(m))] for m in lower]
                 for v in range(nvars)],
                dtype=np.intp,
            )
            self.diff_fac = np.asarray([[float(m[v] + 1) for m in lower] for v in range(nvars)])

    def step_pairs(self, t: int) -> PairTable:
        """The pairs with |a| >= 1 and a degree-``t`` target, for :func:`contract`.

        A Horner step S <- I + M S, M without a constant term, forms only
        these once the coefficients of S below degree t are final.
        """
        if t not in self._step_pairs:
            p = self.pairs
            targets = np.flatnonzero(self.degree == t)
            keep = (self.degree[p.ic] == t) & (self.degree[p.ia] >= 1)
            self._step_pairs[t] = p.where(keep, t, int(targets[0]), targets.size)
        return self._step_pairs[t]

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"JetSpace(nvars={self.nvars}, order={self.order})"


@dataclass(frozen=True, eq=False)
class PairTable:
    """Coefficient pairs of a jet product: ``a[ia[k]] * b[ib[k]]`` adds to target ``ic[k]``.

    The targets are the coefficients ``lo : lo + size`` of the space, ``ic``
    counted from ``lo``; ``deg`` bounds the product's degree.  Every table
    keeps the pairs of its space's full table (``JetSpace.pairs``) in their
    order, so a target adds its products in one order whatever table forms
    it.  Tables compare by identity, to key :func:`_sum_pairs`'s cache.
    """

    ia: np.ndarray
    ib: np.ndarray
    ic: np.ndarray
    deg: int
    lo: int
    size: int

    def where(self, keep: np.ndarray, deg: int, lo: int, size: int) -> PairTable:
        """The pairs where ``keep`` holds, for the targets ``lo : lo + size``."""
        return PairTable(self.ia[keep], self.ib[keep], self.ic[keep] - lo, deg, lo, size)


# Flat bincount targets per (table, entries before the pair axis, entries
# after it), emptied by a miss that would take it past _FLAT_INDEX_BYTES
# (a 4-D verify of 4 points needs 0.5 MiB, a 3-D one of 27 points 0.9 MiB).
_FLAT_INDEX: dict[tuple[PairTable, int, int], np.ndarray] = {}
_FLAT_INDEX_BYTES = 2**20


def _sum_pairs(pairs: PairTable, prod: np.ndarray, before: int, after: int) -> np.ndarray:
    """Sum products laid out ``(before, pair, after)`` into ``(before, pairs.size, after)``, flat.

    One ``bincount`` adds each target's products in pair order from +0.0, as
    each entry before or after the pair axis would alone.
    """
    index = _FLAT_INDEX.get((pairs, before, after))
    if index is None:
        index = (np.arange(before)[:, None, None] * pairs.size + pairs.ic[:, None]) * after
        index = (index + np.arange(after)).ravel()
        if sum(i.nbytes for i in list(_FLAT_INDEX.values())) + index.nbytes > _FLAT_INDEX_BYTES:
            _FLAT_INDEX.clear()
        _FLAT_INDEX[pairs, before, after] = index
    return np.bincount(index, weights=prod.ravel(), minlength=before * pairs.size * after)


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


# Raised where batch entries would take different code paths; evaluating the
# entries one at a time (see :func:`skewdiv.geometry.each_point_on_error`)
# does not meet it.
_ENTRIES_DIFFER = "a jet exponent differs in kind or value between batch entries"


class Jet:
    """Truncated Taylor expansion of a scalar at a point, or at each point of a batch.

    ``c`` has shape ``batch_shape + (ncoef,)``: one point is the batch shape
    ``()``, and every operation acts on each batch entry as it would on that
    point alone, bit for bit.  ``value`` is a float for one point and an
    array over a batch.  ``deg`` bounds the polynomial degree: coefficients
    of higher degree are zero, so a product only forms the pairs of
    coefficients that can both be nonzero.
    """

    __slots__ = ("space", "c", "deg")

    def __init__(self, space: JetSpace, coeffs: np.ndarray, deg: int | None = None):
        self.space = space
        self.c = coeffs
        self.deg = space.order if deg is None else deg

    # -- constructors -------------------------------------------------------

    @staticmethod
    def constant(value: float, nvars: int, order: int = DEFAULT_ORDER) -> "Jet":
        sp = jet_space(nvars, order)
        c = np.zeros(sp.size)
        c[0] = value
        return Jet(sp, c, 0)

    @staticmethod
    def variable(value: float, slot: int, nvars: int, order: int = DEFAULT_ORDER) -> "Jet":
        sp = jet_space(nvars, order)
        c = np.zeros(sp.size)
        c[0] = value
        c[sp.var_pos[slot]] = 1.0
        return Jet(sp, c, 1)

    # -- basic queries ------------------------------------------------------

    @property
    def nvars(self) -> int:
        return self.space.nvars

    @property
    def order(self) -> int:
        return self.space.order

    @property
    def value(self) -> float | np.ndarray:
        c = self.c
        return float(c[0]) if c.ndim == 1 else c[..., 0].copy()

    def truncate(self, order: int) -> "Jet":
        if order >= self.space.order:
            return self
        if order < 0:
            raise ValueError("order must be nonnegative")
        sp = jet_space(self.space.nvars, order)
        return Jet(sp, self.c[..., : sp.size], min(self.deg, order))

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b = (self, other) if self.space is other.space else _align(self, other)
            return Jet(a.space, a.c + b.c, a.deg if a.deg > b.deg else b.deg)
        if isinstance(other, _SCALARS):
            c = self.c.copy()
            if c.ndim == 1:  # ``c[..., 0]`` on a single point too cost search 6%
                c[0] += other
            else:
                c[..., 0] += other
            return Jet(self.space, c, self.deg)
        return NotImplemented

    __radd__ = __add__

    # IEEE x - y is x + (-y), signed zeros included; an int y has no -0, so it becomes a float.
    def __sub__(self, other):
        return self + (-float(other) if isinstance(other, _SCALARS) else -other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Jet(self.space, -self.c, self.deg)

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = (self, other) if self.space is other.space else _align(self, other)
            sp = a.space
            ac, bc = a.c, b.c
            pairs = sp.product_pairs[a.deg][b.deg]
            if ac.ndim == 1 and bc.ndim == 1:  # a single point skips the flat batch index
                prod = ac[pairs.ia] * bc[pairs.ib]
                return Jet(sp, np.bincount(pairs.ic, weights=prod, minlength=sp.size), pairs.deg)
            if ac.ndim > 1 and bc.ndim > 1 and ac.shape != bc.shape:
                raise ValueError(f"jet batch shapes {ac.shape[:-1]} and {bc.shape[:-1]} differ")
            prod = np.take(ac, pairs.ia, axis=-1) * np.take(bc, pairs.ib, axis=-1)  # entry-major
            c = _sum_pairs(pairs, prod, prod.size // pairs.ia.size, 1)
            return Jet(sp, c.reshape(prod.shape[:-1] + (sp.size,)), pairs.deg)
        if isinstance(other, _SCALARS):
            return Jet(self.space, self.c * other, self.deg)
        return NotImplemented

    __rmul__ = __mul__

    def __truediv__(self, other):
        if isinstance(other, Jet):
            return self * other._reciprocal()
        if isinstance(other, _SCALARS):
            if other == 0:
                raise EvalDomainError("division by zero")
            return Jet(self.space, self.c / other, self.deg)
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

    # -- power-series composition, for the analytic functions ----------------
    #
    # For f smooth at v = self.value, f(self) = sum_k f^(k)(v)/k! * t^k with
    # t = self - v.  The tilde part t has no constant term, hence t^k only
    # touches coefficients of degree >= k and the Horner sum is exact at the
    # truncation order.  The coefficients f^(k)(v)/k! come from ``math`` on
    # each batch entry's value as a Python float, so a batch entry meets the
    # same domain checks and overflows, with the same values, as its point
    # alone.  A composed jet with a coefficient outside the float range
    # raises OverflowError rather than return NaN or inf.

    def _series(self, series: Callable[..., list[float]], *args):
        """``series(v, *args, order)`` at the value; over a batch, stacked (series index first)."""
        c, order = self.c, self.space.order
        if c.ndim == 1:  # a single point skips the stacking
            return series(float(c[0]), *args, order)
        values = c[..., 0]
        stacked = np.array([series(v, *args, order) for v in values.ravel().tolist()])
        return stacked.T.reshape((-1,) + values.shape)

    def _compose(self, coefs) -> "Jet":
        """f(self), from f's Taylor coefficients ``coefs`` at the value (:meth:`_series`).

        For a seed plus a constant, x_i + v, f's series is placed at the x_i^k;
        ``+ 0.0`` gives the +0.0 Horner's sums start from, so both agree bit for bit.
        """
        pos = self._seed_position()
        if pos is None:
            acc = self._horner(coefs)
        else:
            acc = Jet(self.space, np.zeros(self.c.shape), self.space.order)
            for i, coef in zip(self.space.power_pos[pos], coefs):
                acc.c[..., i] = coef + 0.0
        if not finite(acc):
            raise OverflowError("composed series overflows a float")
        return acc

    def _seed_position(self) -> int | None:
        """p where deg is 1 and the degree-1 block is the unit vector e_p at every batch entry."""
        n = self.space.nvars
        block = self.c[..., 1 : n + 1].reshape(-1, n)
        first = block[0].tolist() if self.deg == 1 else []
        if first.count(1.0) != 1 or first.count(0.0) != n - 1:
            return None
        return first.index(1.0) if self.c.ndim == 1 or (block == block[0]).all() else None

    def _horner(self, coefs) -> "Jet":
        """sum_k coefs[k] t^k with t = self - value, by Horner's rule in jet products."""
        sp = self.space
        value = 0 if self.c.ndim == 1 else (..., 0)  # ``(..., 0)`` on a point too cost search 13%
        tilde_c = self.c.copy()
        tilde_c[value] = 0.0
        acc_c = np.zeros(tilde_c.shape)
        acc_c[value] = coefs[-1]
        tilde = Jet(sp, tilde_c, self.deg)
        acc = Jet(sp, acc_c, 0)
        for k in range(len(coefs) - 2, -1, -1):
            # A constant (the first step) times tilde is a scaling; ``+ 0.0``
            # turns its -0.0s into the +0.0s that a product's sums start from.
            acc = acc * tilde if acc.deg else Jet(sp, acc.c[..., :1] * tilde_c + 0.0, tilde.deg)
            acc.c[value] += coefs[k]  # a product's coefficients are its own
        return acc

    def _compose_in_ratio(self, series: Callable[..., list[float]]) -> "Jet":
        """f(v + t) as a series in u = t/v, whose coefficients ``series`` gives.

        The coefficients of 1/(1 + u) and log(1 + u) neither overflow nor
        underflow, whatever the size of v; those of the series in t are ~
        v^-k and do both.  The jet's own coefficients can still leave the
        float range where derivatives are huge relative to v, and then it
        raises.
        """
        coefs = self._series(series)
        return Jet(self.space, self.c / self.c[..., :1], self.deg)._compose(coefs)

    def _reciprocal(self) -> "Jet":
        """1/(v + t) = (1/v) / (1 + t/v), composed in t/v."""
        return self._compose_in_ratio(_reciprocal_series)


# Taylor coefficients f^(k)(v)/k!, k = 0..order, of the analytic functions,
# with their domain checks.


def _reciprocal_series(v: float, order: int) -> list[float]:
    """The coefficients (-1)^k / v of 1/(v (1 + u)) in u = t/v (see :meth:`Jet._reciprocal`)."""
    if v == 0.0:
        raise EvalDomainError("division by zero")
    inv = 1.0 / v
    return [inv if k % 2 == 0 else -inv for k in range(order + 1)]


def _sin_series(v: float, order: int) -> list[float]:
    cycle = (math.sin(_finite_argument("sin", v)), math.cos(v), -math.sin(v), -math.cos(v))
    return [cycle[k % 4] / math.factorial(k) for k in range(order + 1)]


def _cos_series(v: float, order: int) -> list[float]:
    cycle = (math.cos(_finite_argument("cos", v)), -math.sin(v), -math.cos(v), math.sin(v))
    return [cycle[k % 4] / math.factorial(k) for k in range(order + 1)]


def _exp_series(v: float, order: int) -> list[float]:
    ev = math.exp(v)
    return [ev / math.factorial(k) for k in range(order + 1)]


def _log_series(v: float, order: int) -> list[float]:
    """log v, then the coefficients of log(1 + u) in u = t/v (see :func:`log`)."""
    if v <= 0.0:
        raise EvalDomainError(f"log of nonpositive value {v!r}")
    return [math.log(v)] + [(-1.0) ** (k - 1) / k for k in range(1, order + 1)]


def _sqrt_series(v: float, order: int) -> list[float]:
    if v <= 0.0:
        raise EvalDomainError(f"sqrt of nonpositive value {v!r} in jet arithmetic")
    return _pow_series(v, 0.5, order)


def _fractional_power_series(v: float, p: float, order: int) -> list[float]:
    if v <= 0.0:
        raise EvalDomainError(f"fractional power of non-positive base {v!r}")
    return _pow_series(v, p, order)


def _pow_series(v: float, p: float, order: int) -> list[float]:
    """Coefficients f^(k)(v)/k! for f(x) = x**p, assuming v > 0."""
    coefs = [v**p]
    for k in range(1, order + 1):
        coefs.append(coefs[-1] * (p - k + 1) / (k * v))
    return coefs


def _int_pow(base, k: int):
    """base**k for integer k; valid for any base sign, jets or floats."""
    if k < 0:
        if not isinstance(base, Jet) and base == 0.0:
            raise EvalDomainError("zero base with negative integer exponent")
        positive = _int_pow(base, -k)
        # A nonzero base whose positive power underflows to 0: its reciprocal
        # is beyond the float range.
        if np.any((value_of(positive) == 0.0) & (value_of(base) != 0.0)):
            raise OverflowError("integer power overflows a float")
        return positive._reciprocal() if isinstance(positive, Jet) else 1.0 / positive
    acc = Jet.constant(1.0, base.nvars, base.order) if isinstance(base, Jet) else 1.0
    sq = base
    while k:
        if k & 1:
            acc = acc * sq
        k >>= 1
        if k:
            sq = sq * sq
    return acc


def _overflows(base, out) -> bool:
    """Whether ``out`` is non-finite where ``base`` is finite, at some batch entry."""
    if not isinstance(out, Jet):
        return math.isfinite(base) and not math.isfinite(out)
    ok = np.isfinite(out.c).all(axis=-1)
    if np.all(ok):
        return False
    base_ok = np.isfinite(base.c).all(axis=-1) if isinstance(base, Jet) else math.isfinite(base)
    return bool(np.any(base_ok & ~ok))


def powop(base, exponent):
    """Power with the package's domain rules, generic over floats and jets.

    Integer exponents are valid for any base; fractional exponents require a
    strictly positive base (this sidesteps branch-cut ambiguity).  A jet
    exponent that is not constant forces the exp/log route.  A power that
    overflows a float raises :class:`OverflowError`.
    """
    if isinstance(exponent, Jet):
        constant = np.all(exponent.c[..., 1:] == 0.0, axis=-1)
        if not np.any(constant):
            bval = base.value if isinstance(base, Jet) else float(base)
            if np.any(np.asarray(bval) <= 0.0):
                raise EvalDomainError(
                    "variable exponent requires a strictly positive base"
                )
            return exp(exponent * log(base))
        values = np.unique(exponent.c[..., 0])
        if not np.all(constant) or values.size > 1:
            raise EvalDomainError(_ENTRIES_DIFFER)
        exponent = float(values[0])
    e = float(exponent)
    if not math.isfinite(e):
        raise EvalDomainError(f"non-finite exponent {e!r}")
    if e.is_integer():
        out = _int_pow(base, int(e))
        if _overflows(base, out):
            raise OverflowError("integer power overflows a float")
        return out
    if isinstance(base, Jet):
        return base._compose(base._series(_fractional_power_series, e))
    if base <= 0.0:
        raise EvalDomainError(f"fractional power of non-positive base {base!r}")
    return math.pow(base, e)


# -- generic numeric helpers (shared semantics for floats and jets) ----------


def finite(x) -> bool:
    """Whether a float is finite, or every coefficient of a jet at every batch entry."""
    if not isinstance(x, Jet):
        return math.isfinite(x)
    c = x.c
    # On a single point's few coefficients, floats beat a ufunc's overhead.
    return all(map(math.isfinite, c.tolist())) if c.ndim == 1 else bool(np.isfinite(c).all())


def value_of(x) -> float:
    return x.value if isinstance(x, Jet) else float(x)


def _finite_argument(name: str, x: float) -> float:
    if not math.isfinite(x):
        raise EvalDomainError(f"{name} of non-finite value {x!r}")
    return x


def sin(x):
    if isinstance(x, Jet):
        return x._compose(x._series(_sin_series))
    return math.sin(_finite_argument("sin", x))


def cos(x):
    if isinstance(x, Jet):
        return x._compose(x._series(_cos_series))
    return math.cos(_finite_argument("cos", x))


def exp(x):
    return x._compose(x._series(_exp_series)) if isinstance(x, Jet) else math.exp(x)


def log(x):
    """log(v + t) = log v + log(1 + t/v), composed in t/v."""
    if isinstance(x, Jet):
        return x._compose_in_ratio(_log_series)
    if x <= 0.0:
        raise EvalDomainError(f"log of nonpositive value {x!r}")
    return math.log(x)


def sqrt(x):
    if isinstance(x, Jet):
        return x._compose(x._series(_sqrt_series))
    if x < 0.0:
        raise EvalDomainError(f"sqrt of negative value {x!r}")
    return math.sqrt(x)


def as_coefficients(x, shape: tuple) -> np.ndarray:
    """Coefficients of an evaluation result, a jet or a constant, as an array of ``shape``.

    ``shape`` is ``batch_shape + (ncoef,)``; a constant, or a jet without
    batch axes, is repeated over the batch.
    """
    if isinstance(x, Jet) and x.c.shape == shape:
        return x.c
    c = np.zeros(shape)
    if isinstance(x, Jet):
        c[...] = x.c
    else:
        c[..., 0] = x
    return c


# -- seeding and extraction ---------------------------------------------------


def seed_variables(
    point: Sequence[float], nvars: int | None = None, order: int = DEFAULT_ORDER
) -> list[Jet]:
    """Seed one jet per chart variable at ``point``, or at each point of a batch.

    ``point`` has shape ``(n,)`` or ``batch_shape + (n,)``.  Jet ``i`` has
    value ``point[..., i]``, a unit first-order coefficient in slot ``i`` and
    zeros elsewhere, so evaluating any expression on the seeds yields the
    expression's full derivative data at each point.
    """
    pts = np.asarray(point, dtype=float)
    if nvars is None:
        nvars = pts.shape[-1]
    if pts.shape[-1] != nvars:
        raise ValueError(f"point has {pts.shape[-1]} coordinates, expected {nvars}")
    if order < 1:
        raise ValueError("seed order must be at least 1")
    sp = jet_space(nvars, order)
    seeds = []
    for i in range(nvars):
        c = np.zeros(pts.shape[:-1] + (sp.size,))
        c[..., 0] = pts[..., i]
        c[..., sp.var_pos[i]] = 1.0
        seeds.append(Jet(sp, c, 1))
    return seeds


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
    c, src = j.c, sp.diff_src[var]
    # Its own indexing: through :func:`partials` a call took 3.9 us, not 1.0.
    return Jet(lo, (c[src] if c.ndim == 1 else c[..., src]) * sp.diff_fac[var], max(j.deg - 1, 0))


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


def contract(subscripts: str, A: np.ndarray, B: np.ndarray, pairs: PairTable) -> np.ndarray:
    """Jet product of two coefficient-array tensors, contracted like ``einsum``.

    ``subscripts`` names the tensor axes only, e.g. ``"kl,lij->kij"``; each
    operand's trailing coefficient axis is implicit.  Axes in front of the
    named ones are batch axes (one per grid point, say): both operands must
    have the same batch shape, and the result keeps it in front, so ``A`` of
    shape ``batch + (n, n, ncoef)`` under ``"kl,..."`` is one ``(n, n)``
    tensor per batch entry.  ``pairs`` is the full table of the space to
    truncate to (``JetSpace.pairs``, of an order no higher than either
    operand's), or a part of it such as ``JetSpace.step_pairs(t)``; the
    result holds the coefficients of its targets.

    Both operands are gathered on the pairs, the tensor indices are
    contracted by one ``matmul`` batched over the pairs and the batch axes,
    and each output coefficient sums its pairs with the one ``bincount``
    that :class:`Jet` products use, so a batch entry's result does not
    depend on the others.  Every index must appear in the other operand or
    in the output, once per operand.
    """
    ins, out = subscripts.split("->")
    a, b = ins.split(",")
    nb = A.ndim - 1 - len(a)
    if B.shape[: B.ndim - 1 - len(b)] != A.shape[:nb]:
        raise ValueError(
            f"contract {subscripts!r}: batch shapes {A.shape[:nb]} and "
            f"{B.shape[: B.ndim - 1 - len(b)]} differ"
        )
    shared = [c for c in a if c in b and c in out]
    summed = [c for c in a if c in b and c not in out]
    free_a = [c for c in a if c not in b]
    free_b = [c for c in b if c not in a]
    dims = {**dict(zip(a, A.shape[nb:])), **dict(zip(b, B.shape[nb:]))}

    def gathered(T, subs, index, rows, cols):
        # Pairs on the leading axis, then the batch axes and the shared
        # tensor axes, then the tensor axes in matmul order.
        G = T.transpose(
            [T.ndim - 1] + list(range(nb)) + [nb + subs.index(c) for c in shared + rows + cols]
        )
        # ``take`` returns C order whatever the layout of T.  matmul's
        # summation order depends on its operands' strides, and must not
        # differ between a batch entry and the same point analysed alone.
        G = np.take(G, index, axis=0)
        return G.reshape(
            G.shape[: 1 + nb + len(shared)]
            + (math.prod(dims[c] for c in rows), math.prod(dims[c] for c in cols))
        )

    prod = np.matmul(
        gathered(A, a, pairs.ia, free_a, summed),
        gathered(B, b, pairs.ib, summed, free_b),
    )
    coef = _sum_pairs(pairs, prod, 1, prod[0].size).reshape(
        (pairs.size,) + prod.shape[1:-2] + tuple(dims[c] for c in free_a + free_b)
    )
    axes = shared + free_a + free_b
    return coef.transpose(list(range(1, 1 + nb)) + [1 + nb + axes.index(c) for c in out] + [0])


def partials(T: np.ndarray, nvars: int, batch: int = 0) -> np.ndarray:
    """First partials of a coefficient-array tensor, one order lower.

    ``out[*b, a, ...] = d_a T[*b, ...]``: the derivative index comes directly
    after the ``batch`` leading batch axes.
    """
    sp = jet_space(nvars, jet_order(T, nvars))
    if sp.order < 1:
        raise OrderExceededError("cannot differentiate an order-0 jet")
    return np.moveaxis(T[..., sp.diff_src] * sp.diff_fac, -2, batch)
