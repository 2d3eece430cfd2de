"""Deterministic report assembly and CSV/JSON serialization.

Both formats use a '.' decimal separator and LF line endings, so identical
runs produce byte-identical files, and every double round-trips exactly.
CSV writes each float with 17 significant digits ('.17g', as :func:`fmt17`).
JSON writes the shortest ``repr`` that round-trips (``0.2``,
``2.561175127923577``), as ``json`` does: :func:`report_to_json` writes the
bytes of ``json.dumps(doc, indent=2, allow_nan=False)`` plus a newline,
without running ``json``'s pure-Python indenting encoder.  A non-finite
value is never folded away: it fails its verdict, and JSON carries it as the
string "nan", "inf" or "-inf" (the CSV spelling), so the output stays valid
JSON.
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
    finite = np.isfinite(values)
    i = int(np.argmin(finite))  # the first non-finite value, if there is one
    if finite[i]:
        i = int(pick(values))
    return float(values[i]), tuple(points[i])


def summarize_residuals(name: str, points, abs_residual, rel_residual) -> dict:
    """The report entry of a residual: its largest absolute and relative value over ``points``.

    The worst point is that of the largest absolute residual (see :func:`extreme`).
    """
    max_abs, worst = extreme(abs_residual, points, np.argmax)
    max_rel, _ = extreme(rel_residual, points, np.argmax)
    return {"name": name, "max_abs": max_abs, "max_rel": max_rel, "worst_point": list(worst)}


_ENCODE = json.encoder.encode_basestring_ascii


def _key_json(key) -> str:
    """A dict key as ``json`` writes it: a string, or a float, bool, None or int spelt as one."""
    if isinstance(key, str):
        return _ENCODE(key)
    if key is None or isinstance(key, (int, float)):
        return '"' + json.dumps(key, allow_nan=False) + '"'
    raise TypeError(f"keys must be str, int, float, bool or None, not {type(key).__name__}")


def _write(x, ind: str, out: list) -> None:
    """Append ``x`` to ``out`` as ``json.dumps(x, indent=2)`` writes it at indent ``ind``.

    A non-finite float is written as its :func:`fmt17` string.
    """
    # json's own order of checks
    if isinstance(x, str):
        out.append(_ENCODE(x))
    elif x is None:
        out.append("null")
    elif x is True:
        out.append("true")
    elif x is False:
        out.append("false")
    elif isinstance(x, int):
        out.append(int.__repr__(x))
    elif isinstance(x, float):
        out.append(float.__repr__(x) if math.isfinite(x) else _ENCODE(fmt17(x)))
    elif isinstance(x, (list, tuple)):
        if not x:
            out.append("[]")
            return
        inner = ind + "  "
        sep = ",\n" + inner
        out.append("[\n" + inner)
        for v in x:
            _write(v, inner, out)
            out.append(sep)
        out[-1] = "\n" + ind + "]"
    elif isinstance(x, dict):
        if not x:
            out.append("{}")
            return
        inner = ind + "  "
        sep = ",\n" + inner
        out.append("{\n" + inner)
        for k, v in x.items():
            out.append(_key_json(k) + ": ")
            _write(v, inner, out)
            out.append(sep)
        out[-1] = "\n" + ind + "}"
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")


def report_to_json(report: Report) -> str:
    """The report as ``json.dumps(doc, indent=2) + "\\n"`` writes it, non-finite floats as strings."""
    doc = {
        "version": VERSION,
        "scenario": report.scenario,
        "residuals": report.residuals,
        "violations": report.violations,
        "verdicts": [{"name": v.name, "pass": v.passed} for v in report.verdicts],
    }
    out = []
    _write(doc, "", out)
    out.append("\n")
    return "".join(out)


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
