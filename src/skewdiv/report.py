"""Deterministic report assembly and CSV/JSON serialization.

All floats serialize with 17 significant digits ('.17g'), '.' decimal
separator and LF line endings, so identical runs produce byte-identical
files and every double round-trips exactly.  A non-finite value is never
folded away: it fails its verdict, and JSON carries it as the string
"nan", "inf" or "-inf" (the CSV spelling), so the output stays valid JSON.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import __version__ as VERSION


def fmt17(x: float) -> str:
    return format(float(x), ".17g")


def fmt_point(point: Sequence[float]) -> str:
    return "(" + ", ".join(fmt17(x) for x in point) + ")"


@dataclass(frozen=True)
class ResidualSummary:
    name: str
    max_abs: float
    max_rel: float
    worst_point: tuple

    def to_dict(self) -> dict:
        return {
            "name": self.name,
            "max_abs": self.max_abs,
            "max_rel": self.max_rel,
            "worst_point": list(self.worst_point),
        }


@dataclass(frozen=True)
class Verdict:
    """A pass/fail decision plus the numbers it was computed from.

    ``point`` is where ``value`` was found, when it came from a grid.  A
    non-finite value fails whatever the threshold.
    """

    name: str
    value: float
    threshold: float
    kind: str  # "max<=" or "min>=" or "max<"
    passed: bool
    point: tuple = ()

    @staticmethod
    def at_most(name: str, value: float, threshold: float, point: tuple = ()) -> "Verdict":
        passed = math.isfinite(value) and value <= threshold
        return Verdict(name, value, threshold, "max<=", passed, point)

    @staticmethod
    def at_least(name: str, value: float, threshold: float, point: tuple = ()) -> "Verdict":
        passed = math.isfinite(value) and value >= threshold
        return Verdict(name, value, threshold, "min>=", passed, point)

    @staticmethod
    def below(name: str, value: float, threshold: float, point: tuple = ()) -> "Verdict":
        passed = math.isfinite(value) and value < threshold
        return Verdict(name, value, threshold, "max<", passed, point)


@dataclass(frozen=True)
class Report:
    scenario: dict
    residuals: tuple[ResidualSummary, ...]
    violations: tuple[dict, ...]
    verdicts: tuple[Verdict, ...]
    version: str = VERSION

    @property
    def all_passed(self) -> bool:
        return all(v.passed for v in self.verdicts)


def extreme(values, points, pick) -> tuple[float, tuple]:
    """``pick`` (``np.argmax`` or ``np.argmin``) of per-point values, with its point.

    Ties go to the first point.  A non-finite value is never folded away:
    the first one wins.
    """
    values = np.asarray(values, dtype=float)
    bad = np.flatnonzero(~np.isfinite(values))
    i = int(bad[0]) if bad.size else int(pick(values))
    return float(values[i]), tuple(points[i])


def summarize_residuals(name: str, points, abs_residual, rel_residual) -> ResidualSummary:
    """Largest absolute and relative residual over ``points``.

    The worst point is that of the largest absolute residual (see :func:`extreme`).
    """
    max_abs, worst = extreme(abs_residual, points, np.argmax)
    max_rel, _ = extreme(rel_residual, points, np.argmax)
    return ResidualSummary(name, max_abs, max_rel, worst)


def _json_safe(x):
    """``x`` with every non-finite float replaced by its :func:`fmt17` string."""
    if isinstance(x, float):
        return x if math.isfinite(x) else fmt17(x)
    if isinstance(x, dict):
        return {k: _json_safe(v) for k, v in x.items()}
    if isinstance(x, (list, tuple)):
        return [_json_safe(v) for v in x]
    return x


def report_to_json(report: Report) -> str:
    doc = {
        "version": report.version,
        "scenario": report.scenario,
        "residuals": [r.to_dict() for r in report.residuals],
        "violations": list(report.violations),
        "verdicts": [{"name": v.name, "pass": v.passed} for v in report.verdicts],
    }
    return json.dumps(_json_safe(doc), indent=2, allow_nan=False) + "\n"


def rows_to_csv(columns: Sequence[str], rows: Iterable[Sequence]) -> str:
    lines = [",".join(columns)]
    for row in rows:
        cells = []
        for cell in row:
            if isinstance(cell, str):
                cells.append(cell)
            else:
                cells.append(fmt17(cell))
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"


def violation_csv(rows: Iterable, params: dict) -> str:
    """Fixed-column CSV for warped-family reports; a missing k or c leaves its cells empty."""
    k = params.get("k", "")
    c = params.get("c", "")
    columns = (
        "r",
        "x1",
        "k",
        "c",
        "norm_nabla_P_sq",
        "norm_div_P_sq",
        "violation",
        "sharp_margin",
    )
    out_rows = []
    for row in rows:
        out_rows.append(
            (
                row.r,
                row.x1,
                k,
                c,
                row.nabla_p_norm_sq,
                row.div_p_norm_sq,
                row.violation,
                row.sharp_margin,
            )
        )
    return rows_to_csv(columns, out_rows)


def write_text(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
