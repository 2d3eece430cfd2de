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
import operator
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from . import __version__ as VERSION
from .warped import VALUE_COLUMNS


def fmt17(x: float) -> str:
    return format(float(x), ".17g")


def fmt_point(point: Sequence[float]) -> str:
    return "(" + ", ".join(fmt17(x) for x in point) + ")"


_HOLDS = {"max<=": operator.le, "min>=": operator.ge, "max<": operator.lt, "min<": operator.lt}


@dataclass(frozen=True)
class Verdict:
    """A pass/fail decision plus the numbers it was computed from.

    ``kind`` is one of ``_HOLDS``: the verdict passes when ``value`` stands in
    that relation to ``threshold``.  ``point`` is where ``value`` was found,
    when it came from a grid.  A non-finite value fails every kind.
    """

    name: str
    kind: str
    threshold: float
    value: float
    point: tuple = ()

    @property
    def passed(self) -> bool:
        return math.isfinite(self.value) and _HOLDS[self.kind](self.value, self.threshold)

    @classmethod
    def on_grid(cls, name: str, kind: str, threshold: float, values, points) -> "Verdict":
        """The verdict on the :func:`extreme` of ``values``: their minimum for a "min" kind, else maximum."""
        pick = np.argmin if kind.startswith("min") else np.argmax
        return cls(name, kind, threshold, *extreme(values, points, pick))


@dataclass(frozen=True)
class Report:
    scenario: dict
    residuals: tuple[dict, ...]
    violations: tuple[dict, ...]
    verdicts: tuple[Verdict, ...]

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


def summarize_residuals(name: str, points, abs_residual, rel_residual) -> dict:
    """The report entry of a residual: its largest absolute and relative value over ``points``.

    The worst point is that of the largest absolute residual (see :func:`extreme`).
    """
    max_abs, worst = extreme(abs_residual, points, np.argmax)
    max_rel, _ = extreme(rel_residual, points, np.argmax)
    return {"name": name, "max_abs": max_abs, "max_rel": max_rel, "worst_point": list(worst)}


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
        "version": VERSION,
        "scenario": report.scenario,
        "residuals": list(report.residuals),
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
    out_rows = [
        (row.r, row.x1, k, c, *(getattr(row, nm) for nm in VALUE_COLUMNS)) for row in rows
    ]
    return rows_to_csv(columns, out_rows)


def write_text(path: str, text: str) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(text)
