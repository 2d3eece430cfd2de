"""Seeded inputs, CLI-equivalent operations and output checks.

Each workload is the in-process equivalent of one ``skewdiv`` subcommand.  An
*op* is one such call; its *items* are the units of mathematical work inside
it (grid points, or objective evaluations for ``search``).  Inputs come only
from the workload seed; the library sees nothing but the generated values.

Why these three workloads:

* ``verify-4d`` is the heaviest path: order-4 jets in 4 variables, g^-1,
  Christoffel symbols, curvature, grad P and the general Bochner balance with
  its Weyl term.  Jet, geometry, ptensor and identities work shows here.
* ``counterexample`` runs the same ptensor pipeline differently: 3 variables,
  ``analyze`` only (no curvature, no |P|^2 Laplacian, no Bochner), plus
  fractional powers and the closed-form oracle.  A 4-D-only gain must not
  cost here.
* ``search`` bypasses geometry, ptensor and identities: each objective
  evaluation walks expression trees on 1-variable, 5-coefficient jets.  For
  an engine optimisation the prediction here is "no change".
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

from skewdiv import cli, report, scenarios, warped

NAMES = ("verify-4d", "counterexample", "search")

# Distinct inputs per run.  Ops cycle through the pool, so each run's latency
# distribution mixes the same number of inputs whatever its seed.
POOL_SIZE = {"verify-4d": 64, "counterexample": 64, "search": 256}

# Output checks, fixed here rather than read from the library, so that a
# loosened library tolerance still fails the benchmark.
CYCLIC_MAX = 1e-10
BOCHNER_REL_MAX = 1e-8
MARGIN_MIN = -1e-12
CROSS_VALIDATION_MAX = 1e-10
LAW_REL_TOL = 1e-12

VERIFY_VERDICTS = (
    "cyclic_residual",
    "bochner_rel_residual",
    "sharp_margin",
    "one_over_n_bound",
)
COUNTEREXAMPLE_GRID = "r:0:1:5,x1:0:1:2"
COUNTEREXAMPLE_COLUMNS = [
    "r",
    "x1",
    "k",
    "c",
    "norm_nabla_P_sq",
    "norm_div_P_sq",
    "violation",
    "sharp_margin",
]
SEARCH_ITERATIONS = 1000
SEARCH_DEFAULT_BOUNDS = {"c": (0.5, 2.0), "r": (0.0, 1.0)}


class CheckFailed(Exception):
    """An op returned, but its output is wrong."""


@dataclass(frozen=True)
class Workload:
    """Inputs, the op under test and its output check.

    ``check(input, output)`` raises :class:`CheckFailed` on a wrong output
    and otherwise returns the number of checked items.
    """

    name: str
    inputs: list
    op: Callable[[Any], Any]
    check: Callable[[Any, Any], int]


def violation_law(k: float, c: float, r: float) -> float:
    """Closed-form violation of the canonical warp with psi = x1, lambda = 1."""
    return 4.0 * (3.0 - k) / k**4 * (r + c) ** (6.0 / k - 4.0)


def norm_laws(k: float, c: float, r: float) -> tuple[float, float]:
    """Closed-form |grad P|^2 and |div P|^2 of the same canonical warp.

    With a = -1/k and s = r + c they are 2 (a^2 (3a+1)^2 + a^4) s^(6/k-4) and
    a^2 (2a+1)^2 s^(6/k-4); their difference |grad P|^2 - 2 |div P|^2 is
    ``violation_law``.
    """
    a = -1.0 / k
    s = (r + c) ** (6.0 / k - 4.0)
    return 2.0 * (a * a * (3.0 * a + 1.0) ** 2 + a**4) * s, a * a * (2.0 * a + 1.0) ** 2 * s


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= LAW_REL_TOL * max(abs(a), abs(b))


# -- verify --scenario random-curved --dim 4 --seed S --format json -----------


def verify_op(seed: int):
    scenario = scenarios.builtin_scenario("random-curved", seed=seed, dim=4)
    rep = cli.run_verify(scenario)
    return rep, report.report_to_json(rep)


def verify_check(seed: int, out) -> int:
    rep, text = out
    verdicts = {v.name: v for v in rep.verdicts}
    _require(set(verdicts) == set(VERIFY_VERDICTS), f"verdicts {sorted(verdicts)}")
    _require(all(v.passed for v in rep.verdicts), "a verdict failed")
    _require(verdicts["cyclic_residual"].value <= CYCLIC_MAX, "cyclic residual")
    _require(
        verdicts["bochner_rel_residual"].value <= BOCHNER_REL_MAX, "Bochner residual"
    )
    _require(verdicts["sharp_margin"].value >= MARGIN_MIN, "sharp margin")
    _require(verdicts["one_over_n_bound"].value >= MARGIN_MIN, "1/n bound")
    doc = json.loads(text)
    _require(
        [v["name"] for v in doc["verdicts"]] == [v.name for v in rep.verdicts],
        "JSON verdict names",
    )
    _require(all(v["pass"] for v in doc["verdicts"]), "JSON verdicts")
    _require(len(doc["violations"]) == 4, "JSON rows")
    return len(doc["violations"])


# -- counterexample --param k=K --param c=C --grid r:0:1:5 --grid x1:0:1:2 ----


def _counterexample_points() -> list:
    grid = scenarios.parse_grid_spec(COUNTEREXAMPLE_GRID, 3)
    return [
        (float(r), float(x1), float(x2))
        for r in grid[0].values()
        for x1 in grid[1].values()
        for x2 in grid[2].values()
    ]


def counterexample_op(kc, points):
    k, c = kc
    spec = warped.WarpedSpec.canonical(k, c, lam="1", psi="x1")
    vreport = warped.build_report(spec, points)
    return vreport, report.violation_csv(vreport.rows, vreport.params)


def counterexample_check(kc, out, npoints: int) -> int:
    k, c = kc
    vreport, text = out
    _require(
        vreport.max_engine_discrepancy is not None
        and vreport.max_engine_discrepancy <= CROSS_VALIDATION_MAX,
        "engine/closed-form cross-validation",
    )
    rows = list(csv.reader(io.StringIO(text)))
    _require(rows[0] == COUNTEREXAMPLE_COLUMNS, "CSV header")
    _require(len(rows) == npoints + 1, "CSV rows")
    for row in rows[1:]:
        r, nabla_sq, div_sq, violation = (float(row[i]) for i in (0, 4, 5, 6))
        _require(float(row[2]) == k and float(row[3]) == c, "CSV parameters")
        nabla_law, div_law = norm_laws(k, c, r)
        _require(_close(nabla_sq, nabla_law), f"|grad P|^2 at r={r}")
        _require(_close(div_sq, div_law), f"|div P|^2 at r={r}")
        # The violation is the difference |grad P|^2 - 2 |div P|^2, which
        # cancels as k -> 3; its rounding error scales with the two terms, not
        # with the difference, so it is bounded relative to their size.
        _require(
            abs(violation - violation_law(k, c, r))
            <= LAW_REL_TOL * (nabla_law + 2.0 * div_law),
            f"violation at r={r}",
        )
    return npoints


# -- search --seed S --iterations 1000 --bounds k:LO:HI ----------------------


def search_op(inp):
    seed, lo = inp
    return warped.search_violation(
        {"k": (lo, lo + 3.0)}, seed=seed, iterations=SEARCH_ITERATIONS
    )


def search_check(inp, result) -> int:
    _, lo = inp
    bounds = {"k": (lo, lo + 3.0), **SEARCH_DEFAULT_BOUNDS}
    p = result.params
    _require(set(p) == set(bounds), "search parameters")
    for name, (a, b) in bounds.items():
        _require(a <= p[name] <= b, f"{name} out of bounds")
    _require(
        _close(result.violation, violation_law(p["k"], p["c"], p["r"])),
        "violation law",
    )
    # Every drawn upper bound exceeds 3, so a violation must be found.
    _require(result.violation < 0.0, "no violation found")
    _require(1 <= result.evaluations <= SEARCH_ITERATIONS, "evaluation count")
    return result.evaluations


def build(name: str, seed: int) -> Workload:
    """The workload ``name`` with its input pool drawn from ``seed``."""
    rng = np.random.default_rng(seed)
    size = POOL_SIZE[name]
    if name == "verify-4d":
        # random-curved picks lambda from four profiles by seed mod 4; keep
        # the profiles equally represented in every pool.
        base = rng.integers(0, 2**28, size=size)
        inputs = [int(4 * b + i % 4) for i, b in enumerate(base)]
        return Workload(name, inputs, verify_op, verify_check)
    if name == "counterexample":
        points = _counterexample_points()
        inputs = [
            (6.0 - 3.0 * float(u), 0.5 + 1.5 * float(v))  # k in (3, 6], c in [0.5, 2]
            for u, v in rng.random((size, 2))
        ]
        return Workload(
            name,
            inputs,
            lambda kc: counterexample_op(kc, points),
            lambda kc, out: counterexample_check(kc, out, len(points)),
        )
    if name == "search":
        seeds = rng.integers(0, 2**31, size=size)
        los = 1.0 + 2.0 * rng.random(size)
        inputs = [(int(s), float(lo)) for s, lo in zip(seeds, los)]
        return Workload(name, inputs, search_op, search_check)
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")
