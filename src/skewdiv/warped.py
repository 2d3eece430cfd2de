"""Closed-form analysis of the warped-product family and the violation search.

The ambient geometry is g = dr (x) dr + phi(r)^2 (dx1 (x) dx1 + dx2 (x) dx2)
on a 3-chart (r, x1, x2), with potential f = psi(x1) and an arbitrary profile
lambda.  Writing G = lambda(f) psi'^3 and using dots for d/dr, primes for
d/dx1, the closed forms are

    P            = (G phi_dot / phi^3) (dr (x) dx1 - dx1 (x) dr)
    grad_r P_1r  = -(phi_dd/phi^3 - 4 phi_dot^2/phi^4) G
    grad_1 P_1r  = -(phi_dot/phi^3) G'
    grad_2 P_12  = -(phi_dot^2/phi^2) G
    div P        = -(phi_dot/phi^5) G' dr + G (phi_dd/phi^3 - 3 phi_dot^2/phi^4) dx1

    |grad P|^2 - 2 |div P|^2
        = 4 G^2 phi_dot^2 / phi^8 * (4 phi_dot^2/phi^2 - phi_dd/phi)

so the factor-2 bound fails exactly where the last bracket is negative.  For
the canonical warp phi = (r+c)^(-1/k) the bracket equals
(3-k) / (k^2 (r+c)^2): negative for every k > 3, zero at k = 3.

Every univariate derivative above comes from the jet engine restricted to
one variable; the *formulas* are what make this an independent oracle for
the generic tensor pipeline, which is exercised by :func:`cross_validate`.
The closed forms read phi, phi_dot, phi_dd, G and G' straight from the
jets' coefficients (coefficient k of a univariate jet times k!), so one
evaluation costs the warp's expression walk and little else: on the
canonical warp that walk makes no jet product, since a power of r + c is
placed from its series (see :mod:`skewdiv.jets`).  :func:`search_violation`
explores the family on Python floats and tuples, keeping its best point as
it goes.  Each distinct input is evaluated once: the search keeps the value
of every (k, c, r) it has met, and the grid report forms phi once per
distinct r and G once per distinct x1, each keyed by the exact bits of its
floats (so -0.0 is not 0.0).
"""

from __future__ import annotations

import math
import struct
from dataclasses import dataclass, field
from functools import lru_cache
from typing import Mapping, NamedTuple, Sequence

import numpy as np

from .errors import EvalDomainError, OrderExceededError
from .expr import ParamSet, chart_variables, evaluate, parse
from .geometry import IdentityResidual, MetricField, ScalarField, residual
from .jets import Jet, partial_derivative
from .ptensor import PTensorSpec, analyze

CROSS_VALIDATION_TOLERANCE = 1e-10

# A violation within this band of zero counts as neither negative nor positive.
ZERO_BAND = 1e-12

CANONICAL_PHI = "(r+c)^(-1/k)"

# The closed forms read phi, phi_dot, phi_dd, G and G': jets of order 2.
CLOSED_FORM_ORDER = 2


@dataclass(frozen=True)
class WarpedSpec:
    """Warp phi(r), potential profile psi(x1), and lambda(f), plus parameters."""

    phi_src: str
    psi_src: str
    lam_src: str
    params: ParamSet = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "params", dict(self.params))
        names = tuple(self.params)
        object.__setattr__(
            self, "_phi", parse(self.phi_src, variables=(("r", "x0"),), params=names)
        )
        object.__setattr__(
            self, "_psi", parse(self.psi_src, variables=("x1",), params=names)
        )
        object.__setattr__(
            self, "_lam", parse(self.lam_src, variables=("f",), params=names)
        )

    @classmethod
    def canonical(
        cls, k: float, c: float, lam: str = "1", psi: str = "x1"
    ) -> "WarpedSpec":
        """The (r+c)^(-1/k) family; the bound is violated precisely for k > 3."""
        return cls(CANONICAL_PHI, psi, lam, {"k": float(k), "c": float(c)})

    def phi_jet(self, r: float, params: ParamSet | None = None) -> Jet:
        """Warp jet at r to CLOSED_FORM_ORDER; ``params`` overrides the stored set."""
        seed = Jet.variable(r, 0, 1, CLOSED_FORM_ORDER)
        out = evaluate(self._phi, [seed], params if params is not None else self.params)
        if not isinstance(out, Jet):
            out = Jet.constant(float(out), 1, CLOSED_FORM_ORDER)
        if out.value <= 0.0:
            raise EvalDomainError(f"warp factor must be positive; phi({r}) = {out.value!r}")
        return out

    def profile_jet(self, x1: float, params: ParamSet | None = None) -> Jet:
        """Jet of G = lambda(psi) psi'^3 in the x1 variable, to CLOSED_FORM_ORDER."""
        pm = params if params is not None else self.params
        psi = evaluate(self._psi, [Jet.variable(x1, 0, 1, CLOSED_FORM_ORDER)], pm)
        if not isinstance(psi, Jet):
            psi = Jet.constant(float(psi), 1, CLOSED_FORM_ORDER)
        lam = evaluate(self._lam, [psi], pm)
        dpsi = partial_derivative(psi, 0)
        return lam * dpsi * dpsi * dpsi


class ViolationRow(NamedTuple):
    """Closed-form quantities at one (r, x1) point of the warped chart."""

    r: float
    x1: float
    nabla_p_norm_sq: float
    div_p_norm_sq: float
    violation: float
    sharp_margin: float


#: The :class:`ViolationRow` values that reports show and the engine cross-checks.
VALUE_COLUMNS = ("nabla_p_norm_sq", "div_p_norm_sq", "violation", "sharp_margin")


@dataclass(frozen=True)
class ViolationReport:
    """Cross-validated grid report for one warped family member."""

    description: str
    params: dict
    rows: tuple
    min_violation: float
    max_violation: float
    negative_points: int
    positive_points: int
    zero_points: int
    engine_check: IdentityResidual  # engine against closed form, per column and point

    @property
    def max_engine_discrepancy(self) -> float:
        """The largest relative engine-versus-closed-form gap (NaN if any gap is NaN)."""
        return float(np.max(self.engine_check.rel_residual))


def closed_form_eval(
    spec: WarpedSpec,
    r: float,
    x1: float,
    params: ParamSet | None = None,
    *,
    phi: Jet | None = None,
    profile: Jet | None = None,
) -> ViolationRow:
    """All displayed quantities from univariate derivatives only.

    ``phi`` is the warp's jet at ``r``, ``spec.phi_jet(r, params)``, and
    ``profile`` the jet of G at ``x1``, ``spec.profile_jet(x1, params)``;
    pass either to reuse it across calls where it does not change.
    """
    phi = phi if phi is not None else spec.phi_jet(r, params)
    if phi.order < 2:
        raise OrderExceededError(f"derivative order 2 exceeds jet order {phi.order}")
    # A univariate jet's coefficient k is the k-th derivative over k!.
    p0, p1, p2 = phi.c[:3].tolist()
    p2 *= 2.0
    G = profile if profile is not None else spec.profile_jet(x1, params)
    if G.order < 1:
        raise OrderExceededError(f"derivative order 1 exceeds jet order {G.order}")
    g0, g1 = G.c[:2].tolist()

    try:
        q2, q3, q4, d2 = p0**2, p0**3, p0**4, p1**2
        nab_r = -(p2 / q3 - 4.0 * d2 / q4) * g0
        nab_1 = -(p1 / q3) * g1
        nab_2 = -(d2 / q2) * g0
        nabla_sq = 2.0 * nab_r**2 / q2 + 2.0 * nab_1**2 / q4 + 2.0 * nab_2**2 / p0**6
        div_r = -(p1 / p0**5) * g1
        div_1 = g0 * (p2 / q3 - 3.0 * d2 / q4)
        div_sq = div_r**2 + div_1**2 / q2
        # ViolationRow's fields after r and x1, in their order.
        values = (nabla_sq, div_sq, nabla_sq - 2.0 * div_sq, nabla_sq - div_sq)
    except (ZeroDivisionError, OverflowError):  # ** raises where float * and / give inf
        values = (math.inf,)
    if not all(map(math.isfinite, values)):
        pm = spec.params if params is None else params
        raise EvalDomainError(f"closed form leaves the float range at r={r!r}, x1={x1!r}, params {pm}")
    return ViolationRow(float(r), float(x1), *values)


# Dict keys for one float and for a (k, c, r) point by their bits: 0.0 == -0.0,
# but their keys differ.
_float_bits = struct.Struct("d").pack
_point_bits = struct.Struct("3d").pack


# -- embedding into the generic engine ------------------------------------------


def ptensor_spec(spec: WarpedSpec) -> PTensorSpec:
    """The warped metric, f = psi(x1) and lambda as ingredients of the generic engine."""
    metric, f = _fields(spec.phi_src, spec.psi_src, tuple(spec.params))
    return PTensorSpec(lam=spec._lam, f=f, metric=metric.with_params(spec.params))


@lru_cache(maxsize=64)
def _fields(phi_src: str, psi_src: str, names: tuple) -> tuple[MetricField, ScalarField]:
    """The metric and f, parsed and lowered once per text; each spec rebinds the metric to its values.

    A ``counterexample`` run builds a spec per (k, c) from the same texts.
    """
    phi_sq = f"({phi_src})^2"
    rows = [["1", "0", "0"], ["0", phi_sq, "0"], ["0", "0", phi_sq]]
    f = ScalarField(parse(psi_src, variables=chart_variables(3), params=names))
    return MetricField.parse(rows, dict.fromkeys(names, 0.0)), f


def cross_validate(
    spec: WarpedSpec, points: Sequence[Sequence[float]]
) -> tuple[IdentityResidual, list[ViolationRow]]:
    """Run closed form and generic engine on the same points.

    ``points`` holds (r, x1, x2) triples; the closed form ignores x2 (nothing
    depends on it), and the engine analyses all points in one batch.  phi is
    formed once per distinct r and G once per distinct x1, in grid order, so
    a failure names the same first point as per-point evaluation.  Returns
    the residual of the closed form against the engine, with one row per
    column of |grad P|^2, |div P|^2, violation and sharp margin and one
    entry per point, plus the closed-form rows.  Raises ValueError on an
    empty set of points.
    """
    if len(points) == 0:
        raise ValueError("cannot cross-validate an empty set of points")
    phis: dict[bytes, Jet] = {}
    profiles: dict[bytes, Jet] = {}
    rows = []
    for pt in points:
        r, x1 = float(pt[0]), float(pt[1])
        if (kr := _float_bits(r)) not in phis:
            phis[kr] = spec.phi_jet(r)
        if (kx := _float_bits(x1)) not in profiles:
            profiles[kx] = spec.profile_jet(x1)
        rows.append(closed_form_eval(spec, r, x1, phi=phis[kr], profile=profiles[kx]))
    an = analyze(ptensor_spec(spec), points)
    a = np.array([[getattr(row, nm) for row in rows] for nm in VALUE_COLUMNS])
    b = np.array([getattr(an, nm) for nm in VALUE_COLUMNS])
    return residual("engine_vs_closed_form", a, b, (b,)), rows


def build_report(spec: WarpedSpec, points: Sequence[Sequence[float]]) -> ViolationReport:
    """Cross-validated violation report; raises if the two paths disagree."""
    check, rows = cross_validate(spec, points)
    violations = [row.violation for row in rows]
    report = ViolationReport(
        description=(
            f"warped product, phi={spec.phi_src}, psi={spec.psi_src}, "
            f"lambda={spec.lam_src}"
        ),
        params=dict(spec.params),
        rows=tuple(rows),
        min_violation=float(np.min(violations)),
        max_violation=float(np.max(violations)),
        negative_points=sum(1 for v in violations if v < -ZERO_BAND),
        positive_points=sum(1 for v in violations if v > ZERO_BAND),
        zero_points=sum(1 for v in violations if abs(v) <= ZERO_BAND),
        engine_check=check,
    )
    worst = report.max_engine_discrepancy
    if not worst <= CROSS_VALIDATION_TOLERANCE:
        raise EvalDomainError(
            f"closed form and engine disagree: {worst!r} > {CROSS_VALIDATION_TOLERANCE!r}"
        )
    return report


# -- derivative-free parameter search --------------------------------------------


@dataclass(frozen=True)
class SearchResult:
    """Best point of a search, its violation, and the objective queries charged
    to the iteration budget (a repeated point counts, though it is not recomputed)."""

    params: dict
    violation: float
    evaluations: int


def search_violation(
    bounds: Mapping[str, tuple[float, float]] | None = None,
    seed: int = 0,
    iterations: int = 1000,
) -> SearchResult:
    """Minimize the canonical-family violation over (k, c, r).

    Seeded random multistart followed by coordinate-wise pattern search on
    the best sample; the total number of objective evaluations is capped by
    ``iterations`` and the outcome is deterministic for a fixed seed (best
    candidates ordered by violation, then lexicographic parameters).  An
    evaluation is one query charged to that budget: a (k, c, r) met before is
    answered from the values already computed, but still counted.  An
    evaluation that raises :class:`EvalDomainError` (the closed form leaves
    the float range, say) ranks last, as +inf; numpy's floating-point
    warnings are off for the whole search.  Returns the best point, kept as
    the queries arrive, and raises :class:`EvalDomainError` if none was finite.
    """
    if iterations < 1:
        raise ValueError("iterations must be >= 1")
    default_bounds = {"k": (1.0, 6.0), "c": (0.5, 2.0), "r": (0.0, 1.0)}
    bb = dict(default_bounds)
    if bounds:
        for name, pair in bounds.items():
            if name not in bb:
                raise ValueError(f"unknown search parameter {name!r}")
            lo, hi = float(pair[0]), float(pair[1])
            if not (math.isfinite(lo) and math.isfinite(hi)):
                raise ValueError(f"non-finite bounds for {name!r}: ({lo!r}, {hi!r})")
            if not lo <= hi:
                raise ValueError(f"empty bounds for {name!r}")
            bb[name] = (lo, hi)
    names = ("k", "c", "r")
    lo = [bb[nm][0] for nm in names]
    hi = [bb[nm][1] for nm in names]
    span = [h - l for l, h in zip(lo, hi)]

    base = WarpedSpec.canonical(1.0, 1.0)
    # The canonical psi = x1 and lambda = 1 use neither k nor c, so G at the
    # fixed x1 is the same for every evaluation.
    profile = base.profile_jet(0.5)
    evals = 0
    # The pattern search steps back onto points it has met; the objective is
    # pure, so a repeat is answered from here, bit for bit.
    seen: dict[bytes, float] = {}

    def objective(x: tuple[float, ...]) -> float:
        nonlocal evals
        evals += 1
        key = _point_bits(*x)
        value = seen.get(key)
        if value is None:
            pm = {"k": x[0], "c": x[1]}
            try:
                value = closed_form_eval(base, x[2], 0.5, params=pm, profile=profile).violation
            except EvalDomainError:
                value = math.inf
            seen[key] = value
        return value

    # An overflow inside an evaluation is found by the finiteness checks of
    # evaluate and closed_form_eval, which raise; numpy's warning would only repeat it.
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        rng = np.random.default_rng(seed)
        budget = iterations
        n_starts = max(1, min(16, budget // 20))
        draws = rng.random((n_starts, 3)).tolist()  # the stream of one rng.random(3) per start
        starts = [tuple(l + u * s for l, u, s in zip(lo, row, span)) for row in draws]
        budget -= n_starts
        # The best (violation, point) so far: tuples order by violation, then
        # lexicographic parameters, and a tie keeps the point met first.
        best = min((objective(x), x) for x in starts)

        step = [s / 4.0 for s in span]
        fx, x = best
        while budget > 0 and max(step) > 1e-9:
            improved = False
            for d in range(3):
                if step[d] == 0.0:
                    continue
                for sgn in (1.0, -1.0):
                    if budget <= 0:
                        break
                    moved = min(max(x[d] + sgn * step[d], lo[d]), hi[d])
                    if moved == x[d]:
                        continue
                    trial = x[:d] + (moved,) + x[d + 1 :]
                    budget -= 1
                    ft = objective(trial)
                    if (ft, trial) < best:
                        best = (ft, trial)
                    if ft < fx:
                        x, fx = trial, ft
                        improved = True
                        break
            if not improved:
                step = [s * 0.5 for s in step]
    best_f, best_x = best
    if best_f == math.inf:
        ranges = ", ".join(f"{nm} in [{l!r}, {h!r}]" for nm, l, h in zip(names, lo, hi))
        raise EvalDomainError(f"all {evals} evaluations leave the float range for {ranges}")
    return SearchResult(
        params={nm: float(v) for nm, v in zip(names, best_x)},
        violation=float(best_f),
        evaluations=evals,
    )
