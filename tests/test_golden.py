"""Golden reports: the CLI's outputs must not drift under refactors.

Each case is a CLI invocation whose ``--out`` file was saved under
``tests/golden/``.  Every float must agree within 1e-12 * max(1, |v|); every
other value (verdicts, names, counts, points) must agree exactly.  The one
exception is the worst point of a residual whose golden relative size is
itself within that tolerance: such a residual is rounding noise, and which
grid point its noise peaks at is arbitrary.  Regenerate a golden only for an
intended behaviour change, with

    PYTHONPATH=src python -m skewdiv <args> --out tests/golden/<file>

``search_runs.json`` holds ``search_violation`` results over seeds and bounds
as ``repr`` strings and is compared exactly; regenerate it with

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import io
import json
from pathlib import Path

import pytest

from skewdiv.cli import main
from skewdiv.warped import search_violation

GOLDEN = Path(__file__).parent / "golden"
REL_TOL = 1e-12

CASES = {
    "verify-euclidean.json": ["verify", "--scenario", "euclidean"],
    "verify-round-sphere-static.json": ["verify", "--scenario", "round-sphere-static"],
    "verify-warped-canonical.json": ["verify", "--scenario", "warped-canonical"],
    **{
        f"verify-random-curved-{dim}d-seed{seed}.json": [
            "verify",
            "--scenario",
            "random-curved",
            "--dim",
            str(dim),
            "--seed",
            str(seed),
        ]
        for dim in (3, 4)
        for seed in (0, 1, 7)
    },
    "counterexample.csv": [
        "counterexample",
        "--grid",
        "r:0:1:5",
        "--grid",
        "x1:0:1:2",
        "--format",
        "csv",
    ],
    "search.json": ["search", "--iterations", "1000"],
}


def _run(args, path):
    if args[0] == "verify":
        args = args + ["--format", "json"]
    main(args + ["--out", str(path)])
    return path.read_text()


def _assert_close(got, want, where):
    if isinstance(want, bool) or want is None or isinstance(want, str):
        assert got == want, where
    elif isinstance(want, (int, float)):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), where
        assert abs(got - want) <= REL_TOL * max(1.0, abs(want)), (where, got, want)
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    else:
        assert isinstance(got, dict) and list(got) == list(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")


def _drop_noise_worst_points(got, want):
    for g, w in zip(got.get("residuals", []), want.get("residuals", [])):
        if w["max_rel"] <= REL_TOL:
            del g["worst_point"], w["worst_point"]


def _csv_cells(text):
    rows = list(csv.reader(io.StringIO(text)))
    return [rows[0]] + [[float(c) for c in row] for row in rows[1:]]


@pytest.mark.parametrize("name", sorted(CASES))
def test_golden_report(name, tmp_path):
    first = _run(CASES[name], tmp_path / "a")
    second = _run(CASES[name], tmp_path / "b")
    assert first == second, "two runs of the same command differ"
    want = (GOLDEN / name).read_text()
    if name.endswith(".csv"):
        _assert_close(_csv_cells(first), _csv_cells(want), name)
    else:
        got, want = json.loads(first), json.loads(want)
        _drop_noise_worst_points(got, want)
        _assert_close(got, want, name)


SEARCH_BOUNDS = {"default": None, "k:5:6": {"k": (5.0, 6.0)}, "k:1:2.5": {"k": (1.0, 2.5)}}


def search_runs() -> list:
    """``search_violation`` over seeds 0-15, three bounds, 1000 and 1 iterations."""
    runs = []
    for iterations in (1000, 1):
        for label, bounds in SEARCH_BOUNDS.items():
            for seed in range(16):
                res = search_violation(bounds, seed=seed, iterations=iterations)
                runs.append(
                    {
                        "seed": seed,
                        "bounds": label,
                        "iterations": iterations,
                        "params": {nm: repr(v) for nm, v in res.params.items()},
                        "violation": repr(res.violation),
                        "evaluations": res.evaluations,
                    }
                )
    return runs


def test_search_runs_bit_for_bit():
    """Every search result, parameters and violation, repeats to the last bit."""
    want = json.loads((GOLDEN / "search_runs.json").read_text())
    assert search_runs() == want


if __name__ == "__main__":
    (GOLDEN / "search_runs.json").write_text(json.dumps(search_runs(), indent=1) + "\n")
