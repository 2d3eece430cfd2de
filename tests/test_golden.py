"""Golden reports: the CLI's outputs must not drift under refactors.

Each case is a CLI invocation whose ``--out`` file was saved under
``tests/golden/``.  Every float must agree within 1e-12 * max(1, |v|); every
other value (verdicts, names, counts, points) must agree exactly.  The one
exception is the worst point of a residual whose golden relative size is
itself within that tolerance: such a residual is rounding noise, and which
grid point its noise peaks at is arbitrary.  Regenerate a golden only for an
intended behaviour change, with

    PYTHONPATH=src python -m skewdiv <args> --out tests/golden/<file>

The ``frame`` subcommand prints text and has no ``--out``: its goldens are
its stdout, compared by the same rule (each number within the tolerance,
the text around the numbers exactly).  The ``stdout-*`` goldens pin the
residual and verdict lines of ``verify`` and the summary lines of
``counterexample`` and ``search`` by the same rule.  Regenerate one with

    PYTHONPATH=src python -m skewdiv <args> > tests/golden/<file>

``search_runs.json`` holds ``search_violation`` results over seeds and bounds
as ``repr`` strings and is compared exactly; regenerate it with

    PYTHONPATH=src python tests/test_golden.py
"""

import csv
import io
import json
import re
from pathlib import Path

import pytest

from skewdiv import jets
from skewdiv.cli import main
from skewdiv.errors import EvalDomainError
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


FRAME_CASES = {
    "frame-warped-canonical.txt": ["frame", "--scenario", "warped-canonical", "--point", "0,0,0"],
    "frame-random-curved-4d-seed1.txt": [
        "frame",
        "--scenario",
        "random-curved",
        "--dim",
        "4",
        "--seed",
        "1",
    ],
}

STDOUT_CASES = {
    "stdout-verify-round-sphere-static.txt": ["verify", "--scenario", "round-sphere-static"],
    "stdout-verify-warped-canonical.txt": ["verify", "--scenario", "warped-canonical"],
    "stdout-verify-random-curved-4d-seed1.txt": [
        "verify",
        "--scenario",
        "random-curved",
        "--dim",
        "4",
        "--seed",
        "1",
    ],
    "stdout-counterexample.txt": ["counterexample"],
    "stdout-search.txt": ["search"],
}

# A number not glued to a name: the 1 of ``E_1`` is part of a label.
NUMBER = re.compile(r"(?<![\w.])[-+]?(?:\d+\.?\d*(?:[eE][-+]?\d+)?|inf|nan)")


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


def _text_and_numbers(text):
    return NUMBER.sub("#", text), [float(x) for x in NUMBER.findall(text)]


def _assert_stdout_matches(args, name, capsys):
    outputs = []
    for _ in range(2):
        assert main(args) == 0
        outputs.append(capsys.readouterr().out)
    assert outputs[0] == outputs[1], "two runs of the same command differ"
    got_text, got = _text_and_numbers(outputs[0])
    want_text, want = _text_and_numbers((GOLDEN / name).read_text())
    assert got_text == want_text
    _assert_close(got, want, name)


@pytest.mark.parametrize("name", sorted(FRAME_CASES))
def test_golden_frame(name, capsys):
    _assert_stdout_matches(FRAME_CASES[name], name, capsys)


@pytest.mark.parametrize("name", sorted(STDOUT_CASES))
def test_golden_stdout(name, capsys):
    _assert_stdout_matches(STDOUT_CASES[name], name, capsys)


def test_frame_numbers_are_found_apart_from_labels():
    text, numbers = _text_and_numbers("  <E_1,[E_2,E_3]> = -2.5e-17\n  E_4 = (0, 1.25, -3)\n")
    assert text == "  <E_1,[E_2,E_3]> = #\n  E_4 = (#, #, #)\n"
    assert numbers == [-2.5e-17, 0.0, 1.25, -3.0]


def test_the_flat_product_index_cache_stays_small(tmp_path, monkeypatch):
    """Every golden command run in one process leaves kernel plans of at most 1 MiB.

    The bytes are those of the plans' index arrays, flat product indices
    chiefly.  A 4-D verify, the heaviest benchmark op, still finds every
    plan cached when it runs again: the same keys and the same objects.
    """
    monkeypatch.setattr(jets, "_PLANS", {})
    for name, args in CASES.items():
        _run(args, tmp_path / name)
    held = sum(plan.nbytes for plan in jets._PLANS.values())
    assert 0 < held <= 2**20 == jets._PLAN_BYTES, held
    verify_4d = CASES["verify-random-curved-4d-seed0.json"]
    _run(verify_4d, tmp_path / "first")
    cached = dict(jets._PLANS)
    _run(verify_4d, tmp_path / "second")
    assert jets._PLANS.keys() == cached.keys()
    assert all(jets._PLANS[key] is plan for key, plan in cached.items())


@pytest.mark.parametrize("name", sorted(CASES) + sorted(FRAME_CASES) + sorted(STDOUT_CASES))
def test_a_cold_and_a_warm_plan_cache_write_the_same_bytes(name, tmp_path, monkeypatch, capsys):
    """Each golden command, run first on an empty kernel plan cache, then on the plans it built."""

    def run(path):
        written = _run(CASES[name], path) if name in CASES else None
        if written is None:
            assert main({**FRAME_CASES, **STDOUT_CASES}[name]) == 0
        return written, capsys.readouterr().out

    monkeypatch.setattr(jets, "_PLANS", {})
    cold = run(tmp_path / "cold")
    assert jets._PLANS or "search" in name  # search forms no tensor and no batch
    assert run(tmp_path / "warm") == cold


SEARCH_BOUNDS = {
    "default": None,
    "k:5:6": {"k": (5.0, 6.0)},
    "k:1:2.5": {"k": (1.0, 2.5)},
    # Some queries leave the float range and rank as +inf; the best is finite.
    "k:0.001:0.002": {"k": (0.001, 0.002)},
    # Every query leaves the float range: the search raises, naming the count.
    "k:0.001:0.002,c:0.5:0.6,r:0:0.1": {"k": (0.001, 0.002), "c": (0.5, 0.6), "r": (0.0, 0.1)},
}

# 2, 20 and 37 end the budget part-way through the starts or a poll.
SEARCH_ITERATIONS = (1000, 1, 2, 20, 37)


def search_runs() -> list:
    """``search_violation`` over seeds 0-15, each bound set and each iteration budget."""
    runs = []
    for iterations in SEARCH_ITERATIONS:
        for label, bounds in SEARCH_BOUNDS.items():
            for seed in range(16):
                run = {"seed": seed, "bounds": label, "iterations": iterations}
                try:
                    res = search_violation(bounds, seed=seed, iterations=iterations)
                except EvalDomainError as exc:
                    run["error"] = str(exc)
                else:
                    run["params"] = {nm: repr(v) for nm, v in res.params.items()}
                    run["violation"] = repr(res.violation)
                    run["evaluations"] = res.evaluations
                runs.append(run)
    return runs


def test_search_runs_bit_for_bit():
    """Every search result, parameters and violation, repeats to the last bit."""
    want = json.loads((GOLDEN / "search_runs.json").read_text())
    assert search_runs() == want


if __name__ == "__main__":
    (GOLDEN / "search_runs.json").write_text(json.dumps(search_runs(), indent=1) + "\n")
