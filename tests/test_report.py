"""The JSON report writer and the extreme of a column, each against a plain reference.

``report_to_json`` writes the report's fixed schema itself.  Its contract
is the bytes of ``json.dumps(..., indent=2, allow_nan=False)`` over a copy
of the report whose non-finite floats are strings
(:func:`checks.reference_report_json`), so every case here compares the
two byte for byte.  :func:`skewdiv.report.extreme` is compared with a
plain-Python scan of the same values.
"""

import json
import math

import numpy as np
import pytest
from checks import reference_report_json
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from skewdiv import cli
from skewdiv.report import _HOLDS, Report, Verdict, extreme, report_to_json

CLI_CASES = {
    **{name: ["verify", "--scenario", name] for name in cli.BUILTIN_NAMES},
    **{
        f"random-curved-{dim}d-seed{seed}": [
            "verify", "--scenario", "random-curved", "--dim", str(dim), "--seed", str(seed)
        ]
        for dim in (3, 4)
        for seed in range(8)
    },
    "counterexample": ["counterexample", "--format", "json"],
}


def _reject_constant(token):
    raise AssertionError(f"invalid JSON token {token}")


@pytest.mark.parametrize("name", sorted(CLI_CASES))
def test_the_written_report_has_the_bytes_json_writes(name, tmp_path, monkeypatch):
    """Each report the CLI writes is, byte for byte, the one ``json.dumps(..., indent=2)`` writes."""
    reports = []

    def recording(report):
        reports.append(report)
        return report_to_json(report)

    monkeypatch.setattr(cli, "report_to_json", recording)
    out = tmp_path / "report.json"
    assert cli.main(CLI_CASES[name] + ["--out", str(out)]) == 0
    (report,) = reports
    with open(out, newline="") as fh:
        assert fh.read() == reference_report_json(report)


SPECIAL_FLOATS = (math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1e308, -1e308, 0.1)
FLOATS = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))
FINITE = st.one_of(st.floats(allow_nan=False, allow_infinity=False), st.sampled_from(SPECIAL_FLOATS[3:]))
# Quotes, backslashes, control characters, non-ASCII text and %.
TEXT = st.text(
    st.one_of(st.characters(), st.sampled_from('"\\%\x00\x1f\x7f\n\t\u00e9\u2028\U0001f600')), max_size=6
)
LEAVES = st.one_of(st.none(), st.booleans(), st.integers(), FLOATS, TEXT)
KEYS = st.one_of(TEXT, st.integers(), st.booleans(), st.none(), st.floats(allow_nan=False, allow_infinity=False))
VALUES = st.recursive(
    LEAVES,
    lambda inner: st.one_of(
        st.lists(inner, max_size=4),
        st.lists(inner, max_size=4).map(tuple),
        st.lists(TEXT, max_size=4),
        st.dictionaries(KEYS, inner, max_size=4),
    ),
    max_leaves=8,
)


@st.composite
def violation_rows(draw):
    """Rows shaped like ``verify``'s (a point of n floats, then named floats), and rows that are not."""
    keys = draw(st.lists(TEXT.filter(lambda k: k != "point"), unique=True, max_size=4))
    n = draw(st.integers(0, 4))

    def with_point(point, values):
        return st.builds(lambda p, v: {"point": p, **dict(zip(keys, v))}, point, values)

    shaped = with_point(
        st.lists(FINITE, min_size=n, max_size=n), st.lists(FINITE, min_size=len(keys), max_size=len(keys))
    )
    # a non-finite value, another point length or value type, other keys, or no point at all
    unshaped = st.one_of(
        with_point(st.lists(FLOATS, min_size=n, max_size=n), st.lists(FLOATS, min_size=len(keys), max_size=len(keys))),
        with_point(st.lists(LEAVES, max_size=5), st.lists(VALUES, min_size=len(keys), max_size=len(keys))),
        st.dictionaries(st.one_of(TEXT, st.sampled_from(["point", *keys])), VALUES, max_size=4),
        st.dictionaries(KEYS, VALUES, max_size=3),
    )
    return tuple(draw(st.lists(st.one_of(shaped, shaped, unshaped), max_size=5)))


VERDICTS = st.builds(Verdict, TEXT, st.sampled_from(sorted(_HOLDS)), FLOATS, FLOATS)
REPORTS = st.builds(
    Report,
    scenario=st.dictionaries(KEYS, VALUES, max_size=5),
    residuals=st.lists(st.dictionaries(KEYS, VALUES, max_size=4), max_size=3).map(tuple),
    violations=violation_rows(),
    verdicts=st.lists(VERDICTS, max_size=3).map(tuple),
)


@settings(max_examples=100, deadline=None, derandomize=True)
@given(REPORTS)
def test_any_report_has_the_bytes_json_writes(report):
    """Non-finite, signed-zero, subnormal and extreme floats, ints, bools and escaped strings in every section."""
    text = report_to_json(report)
    assert text == reference_report_json(report)
    json.loads(text, parse_constant=_reject_constant)


def _reference_extreme(values: list, points: list, largest: bool):
    """The first non-finite value, else the first of the largest (or smallest) values, with its point."""
    for value, point in zip(values, points):
        if not math.isfinite(value):
            return value, tuple(point)
    best = max(values) if largest else min(values)
    i = values.index(best)  # the first value equal to it; 0.0 equals -0.0
    return values[i], tuple(points[i])


@settings(max_examples=400, deadline=None, derandomize=True)
@given(
    arrays(np.float64, st.integers(1, 8), elements=st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS))),
    st.booleans(),
)
def test_extreme_is_the_first_non_finite_or_first_extreme_value(values, largest):
    """NaN or ±inf anywhere, ties and ±0.0, for ``argmax`` and ``argmin``: the value's bits and its point."""
    points = [(float(i), -float(i)) for i in range(values.size)]
    got = extreme(values, points, np.argmax if largest else np.argmin)
    want = _reference_extreme(values.tolist(), points, largest)
    assert type(got[0]) is float
    assert (repr(got[0]), got[1]) == (repr(want[0]), want[1])
