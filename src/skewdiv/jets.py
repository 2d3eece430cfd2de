"""Truncated multivariate Taylor arithmetic ("jets").

A :class:`Jet` stores the Taylor coefficients c_alpha = (d^alpha f)(p) / alpha!
of a scalar quantity at a fixed base point, for every multi-index alpha with
|alpha| <= order.  Arithmetic on jets propagates those coefficients exactly
(up to floating-point rounding), so any quantity assembled from seeded jets
carries the exact partial derivatives of the corresponding field.  This is the
number system the geometry layers run on: curvature and fourth-order
identities come out with no finite-difference truncation error.

Jets are immutable value types; every operation allocates a fresh
coefficient array, and the kernel plans below are read-only once built and
cached under a lock, so concurrent use from many threads is safe.

Storage is dense over the C(nvars+order, order) monomials, ordered by total
degree then lexicographically.  The graded ordering makes truncation to a
lower order a prefix slice, which keeps mixed-order arithmetic cheap.

A :class:`Jet`'s coefficients may carry leading batch axes, ``batch_shape +
(ncoef,)``, one jet per grid point: seeding a batch of points
(:func:`seed_variables`) and evaluating an expression on the seeds walks the
expression once for the whole grid.  Each batch entry is computed exactly as
its point alone would be, bit for bit; a single point is the batch shape
``()``, keeps 1-D coefficients and a float ``value``.  Where a batch fails
(a domain error, an overflow), the error belongs to no particular point;
the callers that evaluate on batches re-run point by point so that the
first failing point raises its own error
(:func:`skewdiv.geometry.each_point_on_error`).

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
exact -0.0 sum comes out +0.0 (:func:`_flat_index`).  A jet product forms
every pair of its space (``JetSpace.pairs``), on one point as on a batch.

What :func:`contract` and :func:`partials` work out from their operands'
shapes alone (axis orders, reshape targets, the flat ``bincount`` targets) is
a plan, built on a shape's first call and kept in one module cache for every
later call: a ``contract`` plan keyed by ``(subscripts, A.shape, B.shape,
pairs)``, a ``partials`` plan by ``(T.shape, nvars, batch)``, a
:func:`place_monomials` plan by ``(monomials, nvars, ncoef)``, and a jet
product's flat index by its table and batch size.  The arrays the plans
hold are bounded at 1 MiB; a miss that would pass the bound empties the
cache first.  Plans pay off only where the same shapes recur in one process
(the same analysis repeated, or a grid in same-size chunks); a one-shot run
builds most of them and uses each about once.  A call whose checks fail
(subscripts, batch shapes, a coefficient count) raises and keeps nothing.

An analytic function f of a jet is composed from f's Taylor coefficients
f^(k)(v)/k! at the jet's value v, by Horner's rule in jet products
(``Jet._horner``).  Where the argument is a seed plus a constant, x_i + v,
the composed jet is f's series itself, placed at the monomials x_i^k with
no product at all (Griewank & Walther, *Evaluating Derivatives*, 2nd ed.,
ch. 13); ``Jet._compose`` chooses by inspecting the argument's
coefficients.  Each placed coefficient is ``f^(k)(v)/k! + 0.0``, what
Horner's sums give, so both paths agree bit for bit, signed zeros included;
a test pins the placement to ``Jet._horner`` on sin, cos, exp, log, sqrt,
powers and reciprocals.

A monomial x^alpha is placed the same way (:func:`place_monomials`): at p
its coefficient beta <= alpha is C(alpha, beta) p^(alpha - beta), with each
power formed by repeated multiplication.  Fields of polynomial entries (a
random metric and its f) read their monomials so, with no jet product.  A
monomial of degree 2 or less equals the product of its seeds bit for bit,
``+ 0.0`` giving the product sums' +0.0 as above, and a degree-1 monomial
is the seed itself; higher degrees agree with seed products to 1e-15
relative.  A test pins both, on one point and on batches.
"""

from __future__ import annotations

import itertools
import math
import threading
from dataclasses import dataclass
from functools import lru_cache
from typing import Callable, NamedTuple, Sequence

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
        self.size = len(monos)
        self.index = {m: i for i, m in enumerate(monos)}
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
        self.pairs = PairTable(*np.asarray(pairs, dtype=np.intp).T.copy(), 0, self.size)
        self.degree = np.asarray([sum(m) for m in monos], dtype=np.intp)
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
            self.diff_src.flags.writeable = self.diff_fac.flags.writeable = False  # plans share them

    def step_pairs(self, t: int) -> PairTable:
        """The pairs with |a| >= 1 and a degree-``t`` target, for :func:`contract`.

        A Horner step S <- I + M S, M without a constant term, forms only
        these once the coefficients of S below degree t are final.
        """
        if t not in self._step_pairs:
            p = self.pairs
            targets = np.flatnonzero(self.degree == t)
            keep = (self.degree[p.ic] == t) & (self.degree[p.ia] >= 1)
            self._step_pairs[t] = p.where(keep, int(targets[0]), targets.size)
        return self._step_pairs[t]

    def __repr__(self):  # pragma: no cover - debugging aid
        return f"JetSpace(nvars={self.nvars}, order={self.order})"


@dataclass(frozen=True, eq=False)
class PairTable:
    """Coefficient pairs of a jet product: ``a[ia[k]] * b[ib[k]]`` adds to target ``ic[k]``.

    The targets are the coefficients ``lo : lo + size`` of the space, ``ic``
    counted from ``lo``.  Every table keeps the pairs of its space's full
    table (``JetSpace.pairs``) in their order, so a target adds its products
    in one order whatever table forms it.  Tables compare by identity, to
    key the plan cache.
    """

    ia: np.ndarray
    ib: np.ndarray
    ic: np.ndarray
    lo: int
    size: int

    def where(self, keep: np.ndarray, lo: int, size: int) -> PairTable:
        """The pairs where ``keep`` holds, for the targets ``lo : lo + size``."""
        return PairTable(self.ia[keep], self.ib[keep], self.ic[keep] - lo, lo, size)


# Kernel plans (see the module docstring); a jet product's flat index is
# keyed by ``(pairs, batch entries)``.  A miss that would take the arrays
# the plans hold past _PLAN_BYTES empties the dict first (a 4-D verify of 4
# points holds 0.27 MiB, the 10-point counterexample grid 0.04 MiB); a plan
# larger than that alone is used and not kept.
_PLANS: dict[tuple, "_ContractPlan | _PartialsPlan | np.ndarray"] = {}
_PLAN_BYTES = 2**20
_PLANS_LOCK = threading.Lock()


def _plan(key: tuple, build: Callable, *args):
    """The plan cached under ``key``, or else ``build(*args)``, cached within the bound.

    A build that raises caches nothing.
    """
    plan = _PLANS.get(key)
    if plan is None:
        plan = build(*args)
        if plan.nbytes <= _PLAN_BYTES:
            with _PLANS_LOCK:
                if sum(p.nbytes for p in _PLANS.values()) + plan.nbytes > _PLAN_BYTES:
                    _PLANS.clear()
                _PLANS[key] = plan
    return plan


def _flat_index(pairs: PairTable, before: int, after: int) -> np.ndarray:
    """Bincount targets summing products ``(before, pair, after)`` into ``(before, pairs.size, after)``.

    One ``bincount`` adds each target's products in pair order from +0.0, as
    each entry before or after the pair axis would alone.  Read-only: plans
    share it between calls and threads.
    """
    index = (np.arange(before)[:, None, None] * pairs.size + pairs.ic[:, None]) * after
    index = (index + np.arange(after)).ravel()
    index.flags.writeable = False
    return index


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
    array over a batch.
    """

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
    def value(self) -> float | np.ndarray:
        c = self.c
        return float(c[0]) if c.ndim == 1 else c[..., 0].copy()

    def truncate(self, order: int) -> "Jet":
        if order >= self.space.order:
            return self
        if order < 0:
            raise ValueError("order must be nonnegative")
        sp = jet_space(self.space.nvars, order)
        return Jet(sp, self.c[..., : sp.size])

    # -- ring operations ----------------------------------------------------

    def __add__(self, other):
        if isinstance(other, Jet):
            a, b = (self, other) if self.space is other.space else _align(self, other)
            return Jet(a.space, a.c + b.c)
        if isinstance(other, _SCALARS):
            c = self.c.copy()
            if c.ndim == 1:  # ``c[..., 0]`` on a single point too costs search 9%
                c[0] += other
            else:
                c[..., 0] += other
            return Jet(self.space, c)
        return NotImplemented

    __radd__ = __add__

    # IEEE x - y is x + (-y), signed zeros included; an int y has no -0, so it becomes a float.
    def __sub__(self, other):
        return self + (-float(other) if isinstance(other, _SCALARS) else -other)

    def __rsub__(self, other):
        return (-self) + other

    def __neg__(self):
        return Jet(self.space, -self.c)

    def __mul__(self, other):
        if isinstance(other, Jet):
            a, b = (self, other) if self.space is other.space else _align(self, other)
            sp = a.space
            ac, bc, pairs = a.c, b.c, sp.pairs
            if ac.ndim > 1 and bc.ndim > 1 and ac.shape != bc.shape:
                raise ValueError(f"jet batch shapes {ac.shape[:-1]} and {bc.shape[:-1]} differ")
            prod = ac.take(pairs.ia, axis=-1) * bc.take(pairs.ib, axis=-1)  # entry-major
            before = prod.size // pairs.ia.size
            index = _plan((pairs, before), _flat_index, pairs, before, 1)
            c = np.bincount(index, weights=prod.ravel(), minlength=before * pairs.size)
            return Jet(sp, c.reshape(prod.shape[:-1] + (sp.size,)))
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
            acc = Jet(self.space, np.zeros(self.c.shape))
            for i, coef in zip(self.space.power_pos[pos], coefs):
                acc.c[..., i] = coef + 0.0
        if not finite(acc):
            raise OverflowError("composed series overflows a float")
        return acc

    def _seed_position(self) -> int | None:
        """p where, at every batch entry, the degree-1 block is the unit vector e_p and every higher coefficient is 0."""
        n = self.space.nvars
        rows = self.c.reshape(-1, self.c.shape[-1])
        first = rows[0].tolist()
        block = first[1 : n + 1]
        if block.count(1.0) != 1 or block.count(0.0) != n - 1 or any(first[n + 1 :]):
            return None
        return block.index(1.0) if len(rows) == 1 or (rows[:, 1:] == rows[0, 1:]).all() else None

    def _horner(self, coefs) -> "Jet":
        """sum_k coefs[k] t^k with t = self - value, by Horner's rule in jet products."""
        sp = self.space
        tilde_c = self.c.copy()
        tilde_c[..., 0] = 0.0
        acc_c = np.zeros(tilde_c.shape)
        acc_c[..., 0] = coefs[-1]
        tilde = Jet(sp, tilde_c)
        acc = Jet(sp, acc_c)
        for k in range(len(coefs) - 2, -1, -1):
            # The first step, a constant times tilde, is a scaling; ``+ 0.0``
            # turns its -0.0s into the +0.0s that a product's sums start from.
            acc = acc * tilde if k < len(coefs) - 2 else Jet(sp, acc_c[..., :1] * tilde_c + 0.0)
            acc.c[..., 0] += coefs[k]  # a product's coefficients are its own
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
        return Jet(self.space, self.c / self.c[..., :1])._compose(coefs)

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
    if k == 0:
        return Jet.constant(1.0, base.nvars, base.order) if isinstance(base, Jet) else 1.0
    while not k & 1:
        base = base * base
        k >>= 1
    # The first power needed: ``+ 0.0`` gives the +0.0s of a product with the constant 1.
    acc = Jet(base.space, base.c + 0.0) if isinstance(base, Jet) else base
    while k > 1:
        k >>= 1
        base = base * base
        if k & 1:
            acc = acc * base
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
    expression's full derivative data at each point.  An empty batch raises
    ValueError.
    """
    pts = seed_points(point, nvars, order)
    sp = jet_space(pts.shape[-1], order)
    nvars = sp.nvars
    seeds = []
    for i in range(nvars):
        c = np.zeros(pts.shape[:-1] + (sp.size,))
        c[..., 0] = pts[..., i]
        c[..., sp.var_pos[i]] = 1.0
        seeds.append(Jet(sp, c))
    return seeds


def seed_points(point, nvars: int | None, order: int) -> np.ndarray:
    """``point`` as a float array that seeds jets of ``order``; raises ValueError as :func:`seed_variables` does."""
    pts = np.asarray(point, dtype=float)
    if nvars is not None and pts.shape[-1] != nvars:
        raise ValueError(f"point has {pts.shape[-1]} coordinates, expected {nvars}")
    if 0 in pts.shape[:-1]:
        raise ValueError(f"cannot seed an empty batch of points (shape {pts.shape})")
    if order < 1:
        raise ValueError("seed order must be at least 1")
    return pts


class _MonomialPlan(NamedTuple):
    """What :func:`place_monomials` works out from its monomials and jet space.

    Each (monomial alpha, coefficient beta <= alpha) pair is one entry of the
    arrays below.
    """

    top: int  # the highest power of one variable that a monomial holds
    factors: tuple  # per factor slot, each pair's power p_i^k, as k * nvars + i
    coefs: np.ndarray  # C(alpha, beta)
    zeros: np.ndarray  # what each coefficient adds last: +0.0 where |alpha| >= 2, else -0.0
    rows: np.ndarray  # the monomial's row of the output
    targets: np.ndarray  # beta's index in the jet space

    @property
    def nbytes(self) -> int:
        return sum(a.nbytes for a in (*self.factors, self.coefs, self.zeros, self.rows, self.targets))


def _monomial_plan(monomials: tuple, nvars: int, out: np.ndarray) -> _MonomialPlan:
    sp = jet_space(nvars, jet_order(out, nvars))
    pairs = []
    for row, variables in enumerate(monomials):
        alpha = [variables.count(i) for i in range(nvars)]
        for beta, target in sp.index.items():
            if all(b <= a for a, b in zip(alpha, beta)):
                powers = [(a - b) * nvars + i for i, (a, b) in enumerate(zip(alpha, beta)) if a > b]
                coef = math.prod(map(math.comb, alpha, beta))
                pairs.append((row, target, float(coef), 0.0 if len(variables) >= 2 else -0.0, powers))
    slots = max(len(p[-1]) for p in pairs)
    factors = tuple(np.array([p[-1][s] if s < len(p[-1]) else 0 for p in pairs]) for s in range(slots))
    rows, targets, coefs, zeros, _ = zip(*pairs)
    top = max(max(map(variables.count, variables)) for variables in monomials)
    return _MonomialPlan(top, factors, np.array(coefs), np.array(zeros), np.array(rows), np.array(targets))


def place_monomials(out: np.ndarray, points: np.ndarray, monomials: tuple) -> None:
    """Write the jet of each monomial x^alpha at ``points`` into ``out[k]``, with no jet product.

    ``monomials[k]`` lists alpha's variables in increasing order ((0, 0, 2)
    is x0^2 x2), each of degree 1 at least.  ``points`` has shape
    ``batch_shape + (nvars,)`` and ``out`` the shape ``(rows,) + batch_shape
    + (ncoef,)``, zeros at the rows written.  At p, coefficient beta <= alpha
    is C(alpha, beta) p^(alpha - beta), the Taylor shift of x^alpha, and
    every other coefficient stays +0.0.  Each power p_i^k is formed by
    repeated multiplication, and coefficients are scaled first and
    multiplied by their powers in variable order, so a monomial of degree 2
    equals the product of two seeds bit for bit; ``+ 0.0`` gives the +0.0
    that a product's sums start from.  A monomial of degree 1 is the seed
    itself, signed zeros included.  Higher degrees agree with seed products
    to rounding.  Overflow is left as inf, for the caller's finiteness check.
    """
    nvars, batch = points.shape[-1], points.shape[:-1]
    plan = _plan((monomials, nvars, out.shape[-1]), _monomial_plan, monomials, nvars, out)
    p = points.transpose((-1, *range(len(batch))))  # a variable's coordinates first
    powers = np.empty((plan.top + 1, nvars) + batch)
    powers[0] = 1.0
    powers[1] = p
    with np.errstate(over="ignore"):
        for k in range(2, plan.top + 1):
            np.multiply(powers[k - 1], p, out=powers[k])
        powers = powers.reshape((-1,) + batch)
        broadcast = (-1,) + (1,) * len(batch)
        values = powers[plan.factors[0]] * plan.coefs.reshape(broadcast)
        for factor in plan.factors[1:]:
            values *= powers[factor]
    values += plan.zeros.reshape(broadcast)
    out[plan.rows, ..., plan.targets] = values


def partial_derivative(j: Jet, var: int) -> Jet:
    """d/dx_var as a jet one order lower."""
    sp = j.space
    if sp.order < 1:
        raise OrderExceededError("cannot differentiate an order-0 jet")
    lo = jet_space(sp.nvars, sp.order - 1)
    # Its own indexing: through :func:`partials` a call takes 1.5 us, not 1.25.
    return Jet(lo, j.c[..., sp.diff_src[var]] * sp.diff_fac[var])


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


class _ContractPlan(NamedTuple):
    """What :func:`contract` works out from its subscripts, operand shapes and table."""

    pa: tuple  # A's transpose: coefficients, batch, shared, free, summed axes
    sa: tuple  # the gathered A's shape for matmul: pairs, batch, shared, rows, columns
    pb: tuple  # B's transpose: coefficients, batch, shared, summed, free axes
    sb: tuple
    index: np.ndarray  # flat bincount targets (:func:`_flat_index`)
    minlength: int
    shape: tuple  # the sums: targets, batch, shared, A's free, B's free axes
    axes: tuple  # their transpose to batch, output, coefficient axes

    @property
    def nbytes(self) -> int:
        return self.index.nbytes


def _contract_plan(subscripts: str, sha: tuple, shb: tuple, pairs: PairTable) -> _ContractPlan:
    ins, out = subscripts.split("->")
    a, b = ins.split(",")
    nb = len(sha) - 1 - len(a)
    if shb[: len(shb) - 1 - len(b)] != sha[:nb]:
        raise ValueError(
            f"contract {subscripts!r}: batch shapes {sha[:nb]} and "
            f"{shb[: len(shb) - 1 - len(b)]} differ"
        )
    shared = [c for c in a if c in b and c in out]
    summed = [c for c in a if c in b and c not in out]
    free_a = [c for c in a if c not in b]
    free_b = [c for c in b if c not in a]
    dims = {**dict(zip(a, sha[nb:])), **dict(zip(b, shb[nb:]))}

    def gathered(shape, subs, rows, cols):
        # Pairs on the leading axis, then the batch axes and the shared
        # tensor axes, then the tensor axes in matmul order.
        lead = [nb + subs.index(c) for c in shared]
        axes = (len(shape) - 1, *range(nb), *lead, *(nb + subs.index(c) for c in rows + cols))
        rc = (math.prod(dims[c] for c in rows), math.prod(dims[c] for c in cols))
        return axes, (pairs.ia.size, *shape[:nb], *(shape[i] for i in lead), *rc)

    pa, sa = gathered(sha, a, free_a, summed)
    pb, sb = gathered(shb, b, summed, free_b)
    lead = np.broadcast_shapes(sa[1:-2], sb[1:-2])  # matmul's, of the batch and shared axes
    after = math.prod(lead) * sa[-2] * sb[-1]
    axes = shared + free_a + free_b
    return _ContractPlan(
        pa, sa, pb, sb,
        _flat_index(pairs, 1, after),
        pairs.size * after,
        (pairs.size, *lead, *(dims[c] for c in free_a + free_b)),
        (*range(1, 1 + nb), *(1 + nb + axes.index(c) for c in out), 0),
    )


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
    key = (subscripts, A.shape, B.shape, pairs)
    plan = _plan(key, _contract_plan, *key)
    # ``take`` returns C order whatever the layout of A and B.  matmul's
    # summation order depends on its operands' strides, and must not
    # differ between a batch entry and the same point analysed alone.
    prod = np.matmul(
        A.transpose(plan.pa).take(pairs.ia, axis=0).reshape(plan.sa),
        B.transpose(plan.pb).take(pairs.ib, axis=0).reshape(plan.sb),
    )
    coef = np.bincount(plan.index, weights=prod.ravel(), minlength=plan.minlength)
    return coef.reshape(plan.shape).transpose(plan.axes)


class _PartialsPlan(NamedTuple):
    """What :func:`partials` works out from its operand's shape."""

    src: np.ndarray  # ``JetSpace.diff_src`` of the operand's space
    fac: np.ndarray  # ``JetSpace.diff_fac``
    axes: tuple  # the transpose that moves the derivative slot after the batch axes

    @property
    def nbytes(self) -> int:  # the space's own arrays, counted so that every plan weighs on the bound
        return self.src.nbytes + self.fac.nbytes


def _partials_plan(T: np.ndarray, nvars: int, batch: int) -> _PartialsPlan:
    sp = jet_space(nvars, jet_order(T, nvars))
    if sp.order < 1:
        raise OrderExceededError("cannot differentiate an order-0 jet")
    if not 0 <= batch < T.ndim:
        raise ValueError(f"partials: {batch} batch axes in front of a {T.ndim}-axis array")
    axes = [i for i in range(T.ndim + 1) if i != T.ndim - 1]
    axes.insert(batch, T.ndim - 1)
    return _PartialsPlan(sp.diff_src, sp.diff_fac, tuple(axes))


def partials(T: np.ndarray, nvars: int, batch: int = 0) -> np.ndarray:
    """First partials of a coefficient-array tensor, one order lower.

    ``out[*b, a, ...] = d_a T[*b, ...]``: the derivative index comes directly
    after the ``batch`` leading batch axes.
    """
    plan = _plan((T.shape, nvars, batch), _partials_plan, T, nvars, batch)
    return (T[..., plan.src] * plan.fac).transpose(plan.axes)
