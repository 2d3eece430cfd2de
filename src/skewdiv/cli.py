"""Command-line surface: verify, counterexample, search, frame.

Exit codes: 0 = all verdicts pass (or, for ``counterexample``/``search``, a
violation was exhibited); 1 = a verdict failed or no violation exists in the
requested range; 2 = usage, parse, or scenario errors.
"""

from __future__ import annotations

import argparse
import dataclasses
import math
import sys
from typing import Callable, Sequence

import numpy as np

from . import warped as warped_mod
from .errors import DegeneratePError, ScenarioError, SkewdivError
from .identities import bochner_residual, static_residual
from .ptensor import (
    FORM_DICTIONARY,
    PointAnalysis,
    build_frame,
    cyclic_residual,
    div_true_vs_false,
)
from .report import (
    Report,
    ResidualSummary,
    Verdict,
    extreme,
    fmt17,
    fmt_point,
    report_to_json,
    rows_to_csv,
    summarize_residuals,
    violation_csv,
    write_text,
)
from .scenarios import (
    BUILTIN_NAMES,
    Scenario,
    builtin_scenario,
    grid_points,
    parse_grid_spec,
    parse_scenario_file,
)

TOLERANCES = {
    "cyclic": 1e-10,
    "bochner_rel": 1e-8,
    "sharp_margin": -1e-12,
    "one_over_n": -1e-12,
    "static": 1e-10,
    "p_zero": 1e-12,
    "violation_zero": -1e-12,
}


def run_verify(scenario: Scenario, tolerance: float | None = None) -> Report:
    """Evaluate every identity over the scenario grid, in one batch, and emit verdicts."""
    spec = scenario.spec()
    points = scenario.grid_points()
    n = scenario.dim
    if n < 3:
        raise ScenarioError(f"verify needs a chart of dimension >= 3, not {n}")

    an = PointAnalysis(spec, points)
    cyclic = cyclic_residual(spec, points, analysis=an)
    boch = bochner_residual(spec, points, analysis=an)
    columns = {
        "p_norm_sq": an.p_norm_sq,
        "nabla_p_norm_sq": an.nabla_p_norm_sq,
        "div_p_norm_sq": an.div_p_norm_sq,
        "violation": an.violation,
        "sharp_margin": an.sharp_margin,
        "cyclic_residual": cyclic,
        "bochner_rel_residual": boch.rel_residual,
    }
    residuals = [
        summarize_residuals("cyclic", points, cyclic, cyclic),
        summarize_residuals("bochner", points, boch.abs_residual, boch.rel_residual),
    ]
    if scenario.is_static:
        st_t, st_s = static_residual(scenario.metric, scenario.f, points)
        columns["static_tensor_residual"] = st_t.abs_residual
        columns["static_scalar_residual"] = st_s.abs_residual
        for res in (st_t, st_s):
            residuals.append(
                summarize_residuals(res.name, points, res.abs_residual, res.rel_residual)
            )
    rows = tuple(
        {"point": list(pt), **{name: float(col[i]) for name, col in columns.items()}}
        for i, pt in enumerate(points)
    )

    tol_cyc = tolerance if tolerance is not None else TOLERANCES["cyclic"]
    tol_boch = tolerance if tolerance is not None else TOLERANCES["bochner_rel"]
    tol_static = tolerance if tolerance is not None else TOLERANCES["static"]

    boch_max, boch_at = extreme(boch.rel_residual, points, np.argmax)
    margin, margin_at = extreme(an.sharp_margin, points, np.argmin)
    bound, bound_at = extreme(an.nabla_p_norm_sq - an.div_p_norm_sq / n, points, np.argmin)
    verdicts = [
        Verdict.at_most(
            "cyclic_residual", residuals[0].max_abs, tol_cyc, residuals[0].worst_point
        ),
        Verdict.at_most("bochner_rel_residual", boch_max, tol_boch, boch_at),
        Verdict.at_least("sharp_margin", margin, TOLERANCES["sharp_margin"], margin_at),
        Verdict.at_least("one_over_n_bound", bound, TOLERANCES["one_over_n"], bound_at),
    ]
    if scenario.is_static:
        for name, summary in (("static_tensor", residuals[2]), ("static_scalar", residuals[3])):
            verdicts.append(
                Verdict.at_most(name, summary.max_abs, tol_static, summary.worst_point)
            )
    if scenario.expect_zero_p:
        p_max, p_at = extreme(np.sqrt(np.maximum(an.p_norm_sq, 0.0)), points, np.argmax)
        verdicts.append(Verdict.at_most("p_vanishes", p_max, TOLERANCES["p_zero"], p_at))
    if scenario.expect_violation:
        v_max, v_at = extreme(an.violation, points, np.argmax)
        verdicts.append(Verdict.below("violation_negative", v_max, 0.0, v_at))

    return Report(
        scenario=scenario.echo(),
        residuals=tuple(residuals),
        violations=rows,
        verdicts=tuple(verdicts),
    )


def verify_csv(report: Report, dim: int) -> str:
    """One row per grid point: its coordinates, then the value columns of its report row."""
    value_cols = [name for name in report.violations[0] if name != "point"]
    rows = [list(row["point"]) + [row[c] for c in value_cols] for row in report.violations]
    return rows_to_csv([f"x{i}" for i in range(dim)] + value_cols, rows)


# -- subcommand implementations ---------------------------------------------------


def _finite(text: str, what: str) -> float:
    """``text`` as a finite float; a usage error names ``what`` otherwise."""
    try:
        value = float(text)
    except ValueError:
        raise SkewdivError(f"bad {what}: {text.strip()!r} is not a number") from None
    if not math.isfinite(value):
        raise SkewdivError(f"bad {what}: {value!r} is not finite")
    return value


def _parse_params(items: Sequence[str]) -> dict:
    out = {}
    for item in items or ():
        if "=" not in item:
            raise SkewdivError(f"bad --param {item!r}; want NAME=VALUE")
        name, _, val = item.partition("=")
        out[name.strip()] = _finite(val, f"--param value in {item!r}")
    return out


def _check_params(params: dict, declared: dict) -> None:
    """Reject a ``--param`` name that the scenario or family does not declare."""
    for name in params:
        if name not in declared:
            raise SkewdivError(
                f"unknown --param {name!r}; valid names: {', '.join(declared) or 'none'}"
            )


def _load_scenario(args) -> Scenario:
    params = _parse_params(getattr(args, "param", None))
    if getattr(args, "scenario_file", None):
        with open(args.scenario_file) as fh:
            scenario = parse_scenario_file(fh.read())
        _check_params(params, scenario.params)
        if params:
            scenario = scenario.with_params(**params)
    else:
        name = args.scenario or "euclidean"
        scenario = builtin_scenario(
            name, seed=getattr(args, "seed", 0) or 0, dim=getattr(args, "dim", 3), **params
        )
        _check_params(params, scenario.params)
    if getattr(args, "grid", None):
        grid = parse_grid_spec(",".join(args.grid), scenario.dim)
        scenario = dataclasses.replace(scenario, grid=grid)
    return scenario


def _emit(
    report: Report, out: str | None, fmt: str = "json", csv: Callable[[], str] | None = None
) -> None:
    """Write ``report`` to ``out``, if given: as JSON, or as ``csv()`` for ``--format csv``."""
    if out:
        write_text(out, csv() if fmt == "csv" else report_to_json(report))


def _print_verdicts(report: Report) -> None:
    for v in report.verdicts:
        status = "PASS" if v.passed else "FAIL"
        where = "" if math.isfinite(v.value) else f" non-finite at {fmt_point(v.point)}"
        print(
            f"[{status}] {v.name}: value={fmt17(v.value)} ({v.kind} {fmt17(v.threshold)})"
            + where
        )


def cmd_verify(args) -> int:
    scenario = _load_scenario(args)
    report = run_verify(scenario, tolerance=args.tolerance)
    print(f"scenario: {scenario.name} ({len(report.violations)} grid points)")
    for r in report.residuals:
        print(
            f"residual {r.name}: max_abs={fmt17(r.max_abs)} max_rel={fmt17(r.max_rel)}"
        )
    _print_verdicts(report)
    _emit(report, args.out, args.format, lambda: verify_csv(report, scenario.dim))
    return 0 if report.all_passed else 1


def cmd_counterexample(args) -> int:
    params = _parse_params(args.param)
    k = params.get("k", 4.0)
    c = params.get("c", 1.0)
    wspec = warped_mod.WarpedSpec.canonical(k, c, lam=args.lam, psi=args.psi)
    _check_params(params, wspec.params)
    points = grid_points(parse_grid_spec(",".join(args.grid or ["r:0:1:5"]), 3))
    vreport = warped_mod.build_report(wspec, points)

    rows = [
        {
            "point": [row.r, row.x1],
            "nabla_p_norm_sq": row.nabla_p_norm_sq,
            "div_p_norm_sq": row.div_p_norm_sq,
            "violation": row.violation,
            "sharp_margin": row.sharp_margin,
        }
        for row in vreport.rows
    ]
    report = Report(
        scenario={
            "name": "warped-counterexample",
            "description": vreport.description,
            "params": {kk: vreport.params[kk] for kk in sorted(vreport.params)},
            "form_dictionary": dict(FORM_DICTIONARY),
        },
        residuals=(
            ResidualSummary(
                "engine_vs_closed_form",
                vreport.max_engine_discrepancy,
                vreport.max_engine_discrepancy,
                (),
            ),
        ),
        violations=tuple(rows),
        verdicts=(
            Verdict.below(
                "violation_exhibited", vreport.min_violation, TOLERANCES["violation_zero"]
            ),
        ),
    )
    print(
        f"warped family k={fmt17(k)} c={fmt17(c)}: "
        f"violation in [{fmt17(vreport.min_violation)}, {fmt17(vreport.max_violation)}] "
        f"({vreport.negative_points} negative / {vreport.zero_points} zero / "
        f"{vreport.positive_points} positive points)"
    )
    _print_verdicts(report)
    _emit(report, args.out, args.format, lambda: violation_csv(vreport.rows, vreport.params))
    return 0 if report.all_passed else 1


def cmd_search(args) -> int:
    if args.iterations < 1:
        raise SkewdivError(f"bad --iterations: {args.iterations} is below 1")
    bounds = {}
    for spec in args.bounds or ():
        bits = spec.split(":")
        if len(bits) != 3:
            raise SkewdivError(f"bad --bounds {spec!r}; want name:lo:hi")
        what = f"--bounds {spec!r}"
        bounds[bits[0].strip()] = (_finite(bits[1], what), _finite(bits[2], what))
    try:
        result = warped_mod.search_violation(
            bounds or None, seed=args.seed, iterations=args.iterations
        )
    except ValueError as err:  # an unknown parameter name or an empty range
        raise SkewdivError(f"bad --bounds: {err}") from None
    print(
        "best violation "
        + fmt17(result.violation)
        + " at "
        + " ".join(f"{nm}={fmt17(v)}" for nm, v in sorted(result.params.items()))
        + f" ({result.evaluations} evaluations)"
    )
    report = Report(
        scenario={
            "name": "violation-search",
            "bounds": {nm: list(bounds[nm]) for nm in sorted(bounds)} if bounds else "default",
            "seed": args.seed,
            "iterations": args.iterations,
        },
        residuals=(),
        violations=(
            {
                "params": {nm: result.params[nm] for nm in sorted(result.params)},
                "violation": result.violation,
            },
        ),
        verdicts=(Verdict.below("violation_negative", result.violation, 0.0),),
    )
    _emit(report, args.out)
    return 0 if report.all_passed else 1


def cmd_frame(args) -> int:
    scenario = _load_scenario(args)
    if args.point:
        point = tuple(_finite(x, f"--point {args.point!r}") for x in args.point.split(","))
        if len(point) != scenario.dim:
            raise SkewdivError(f"--point needs {scenario.dim} comma-separated coordinates")
    else:
        point = scenario.grid_points()[0]
    try:
        frame = build_frame(scenario.spec(), point)
        true_div, false_div, disc = div_true_vs_false(frame)
    except DegeneratePError as err:
        print(f"degenerate P: {err}", file=sys.stderr)
        return 1
    n = scenario.dim
    print(f"adapted frame at {tuple(point)}:")
    for i in range(n):
        comps = ", ".join(fmt17(x) for x in frame.vectors[i])
        print(f"  E_{i+1} = ({comps})")
    print(f"  u = P(E_1, E_2) = {fmt17(frame.u)}")
    print(f"  gram residual = {fmt17(frame.gram_residual)}")
    print("frame divergence (theta components):")
    print("  connection formula: " + " ".join(fmt17(x) for x in true_div))
    print("  bracket-free form : " + " ".join(fmt17(x) for x in false_div))
    print("  discrepancy       : " + " ".join(fmt17(x) for x in disc))
    disc_chart = frame.covector_to_chart(disc)
    print("discrepancy in chart components (dx^k):")
    print("  " + " ".join(fmt17(x) for x in disc_chart))
    print("bracket terms <E_k,[E_i,E_j]>: nonzero entries")
    for i in range(n):
        for j in range(n):
            for kk in range(n):
                val = frame.bracket_frame[i, j, kk]
                if abs(val) > 1e-13:
                    print(f"  <E_{kk+1},[E_{i+1},E_{j+1}]> = {fmt17(val)}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="skewdiv",
        description=(
            "Riemannian tensor calculus on coordinate charts: verify pointwise "
            "identities for the skew tensor P and exhibit divergence-bound "
            "violations on warped products."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_scenario_flags(p):
        p.add_argument("--scenario", choices=BUILTIN_NAMES, help="built-in scenario")
        p.add_argument("--scenario-file", help="path to a scenario file")
        p.add_argument("--param", action="append", default=[], help="NAME=VALUE override")
        p.add_argument("--grid", action="append", default=[], help="axis:min:max:count")
        p.add_argument("--seed", type=int, default=0, help="seed for random-curved")
        p.add_argument("--dim", type=int, default=3, choices=(3, 4))

    p_verify = sub.add_parser("verify", help="run identity residuals over a grid")
    add_scenario_flags(p_verify)
    p_verify.add_argument("--out", help="write report to this path")
    p_verify.add_argument("--format", choices=("csv", "json"), default="json")
    p_verify.add_argument("--tolerance", type=float, default=None)
    p_verify.set_defaults(func=cmd_verify)

    p_ce = sub.add_parser(
        "counterexample", help="closed-form warped family, cross-validated"
    )
    p_ce.add_argument("--param", action="append", default=[], help="k=... c=...")
    p_ce.add_argument("--lam", default="1", help="lambda profile expression in f")
    p_ce.add_argument("--psi", default="x1", help="potential profile in x1")
    p_ce.add_argument("--grid", action="append", default=[], help="axis:min:max:count")
    p_ce.add_argument("--out", help="write CSV/JSON rows to this path")
    p_ce.add_argument("--format", choices=("csv", "json"), default="csv")
    p_ce.set_defaults(func=cmd_counterexample)

    p_search = sub.add_parser("search", help="minimize the violation over (k, c, r)")
    p_search.add_argument("--bounds", action="append", default=[], help="name:lo:hi")
    p_search.add_argument("--seed", type=int, default=42)
    p_search.add_argument("--iterations", type=int, default=1000)
    p_search.add_argument("--out", help="write JSON report to this path")
    p_search.set_defaults(func=cmd_search)

    p_frame = sub.add_parser("frame", help="adapted-frame divergence diagnostic")
    add_scenario_flags(p_frame)
    p_frame.add_argument("--point", help="comma-separated chart coordinates")
    p_frame.set_defaults(func=cmd_frame)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code else 0
    try:
        # Non-finite values are reported through the verdicts, which they
        # fail, so numpy's floating-point warnings would only repeat them.
        with np.errstate(all="ignore"):
            return args.func(args)
    except SkewdivError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2
    except OSError as err:
        print(f"error: {err}", file=sys.stderr)
        return 2


def console_main() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_main()
