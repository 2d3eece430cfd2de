import json
import math

import numpy as np
import pytest

from skewdiv.cli import _print_verdicts, main, run_verify
from skewdiv.errors import ScenarioError
from skewdiv.expr import chart_variables, parse, to_source
from skewdiv.geometry import MetricJets
from skewdiv.identities import bochner_residual, static_residual
from skewdiv.ptensor import VALUE_ORDER, PointAnalysis, cyclic_residual
from skewdiv.report import Report, Verdict, extreme, fmt17, report_to_json, summarize_residuals
from skewdiv.scenarios import (
    BUILTIN_NAMES,
    builtin_scenario,
    grid_points,
    parse_grid_spec,
    parse_scenario_file,
    random_scenario,
    round_sphere_scenario,
)

SCENARIO_FILE = """\
# demo warped scenario
name = warped-demo
dim = 3
param k = 5
param c = 2
lambda = f
f = sin(x1)
grid = r:0:1:2, x1:0.2:0.8:2, x2:0.5:0.5:1
metric:
1 | 0 | 0
0 | ((r+c)^(-1/k))^2 | 0
0 | 0 | ((r+c)^(-1/k))^2
"""


def test_builtin_registry():
    for name in BUILTIN_NAMES:
        sc = builtin_scenario(name, seed=3)
        assert sc.dim in (3, 4)
        assert len(sc.grid_points()) >= 1
    with pytest.raises(ScenarioError):
        builtin_scenario("nope")


def test_scenario_file_roundtrip(tmp_path):
    sc = parse_scenario_file(SCENARIO_FILE)
    assert sc.name == "warped-demo"
    assert sc.params == {"k": 5.0, "c": 2.0}
    assert len(sc.grid_points()) == 4
    assert sc.lam_src == "f"


ONE_PARAM_SCENARIO = """\
dim = 3
param a = {a}
f = a*x1 + r*x2
lambda = 1 + a*f
grid = r:0.2:0.8:2, x1:0.2:0.8:2, x2:0.5:0.5:1
metric:
1 + a*r^2 | 0 | 0
0 | 1 | 0
0 | 0 | 1 + x1^2
"""


def test_one_param_reaches_metric_f_and_lambda():
    """After with_params, g, f and lambda(f) all read the new value: the file written with it, bit for bit."""
    rebound = parse_scenario_file(ONE_PARAM_SCENARIO.format(a=0.5)).with_params(a=2.0)
    written = parse_scenario_file(ONE_PARAM_SCENARIO.format(a=2.0))
    assert rebound.params == written.params == {"a": 2.0}
    assert rebound.echo() == written.echo()
    got, want = (PointAnalysis(sc.spec(), sc.grid_points(), 4) for sc in (rebound, written))
    for name in ("fjet", "lam_f", "P", "nabla_P", "laplacian_p_norm_sq", "violation"):
        assert np.asarray(getattr(got, name)).tobytes() == np.asarray(getattr(want, name)).tobytes(), name
    assert got.mj.g.tobytes() == want.mj.g.tobytes()


def test_scenario_file_errors():
    with pytest.raises(ScenarioError):
        parse_scenario_file("name = x\nf = x1\n")  # no dim
    with pytest.raises(ScenarioError):
        parse_scenario_file("dim = 3\nf = x1\n")  # no metric
    bad_row = "dim = 3\nf = x1\nmetric:\n1 | 0\n1 | 0 | 0\n0 | 0 | 1\n"
    with pytest.raises(ScenarioError):
        parse_scenario_file(bad_row)
    with pytest.raises(ScenarioError):
        parse_scenario_file("dim = 3\nf = x1 +\nmetric:\n1|0|0\n0|1|0\n0|0|1\n")
    assert parse_scenario_file(FLAT_FILE + "static = TRUE\n").is_static
    assert not parse_scenario_file(FLAT_FILE + "static = false\n").is_static
    for bad in (FLAT_FILE + "static = yes\n", STATIC_4D_FILE):
        with pytest.raises(ScenarioError, match="static"):
            parse_scenario_file(bad)


def test_grid_spec_parsing():
    grid = parse_grid_spec("r:0:1:3, x2:0.25:0.75:2", 3)
    assert [a.name for a in grid] == ["r", "x1", "x2"]
    assert grid[0].count == 3
    assert grid[1].count == 1 and grid[1].lo == 0.5
    assert list(grid[2].values()) == [0.25, 0.75]
    with pytest.raises(ScenarioError):
        parse_grid_spec("bogus:0:1:2", 3)
    with pytest.raises(ScenarioError):
        parse_grid_spec("r:0:1", 3)


def _verdict_columns(sc, rows):
    """Each verdict's kind and per-point values, recomputed from the report rows."""

    def col(name):
        return np.array([row[name] for row in rows])

    columns = {
        "cyclic_residual": ("max<=", col("cyclic_residual")),
        "bochner_rel_residual": ("max<=", col("bochner_rel_residual")),
        "sharp_margin": ("min>=", col("sharp_margin")),
        "one_over_n_bound": ("min>=", col("nabla_p_norm_sq") - col("div_p_norm_sq") / sc.dim),
    }
    if sc.is_static:
        columns["static_tensor"] = ("max<=", col("static_tensor_residual"))
        columns["static_scalar"] = ("max<=", col("static_scalar_residual"))
    if sc.expect_zero_p:
        columns["p_vanishes"] = ("max<=", np.sqrt(np.maximum(col("p_norm_sq"), 0.0)))
    if sc.expect_violation:
        columns["violation_negative"] = ("max<", col("violation"))
    return columns


@pytest.mark.parametrize(
    "sc",
    [builtin_scenario(name) for name in ("euclidean", "round-sphere-static", "warped-canonical")]
    + [random_scenario(0, 3), random_scenario(1, 4)],
    ids=lambda sc: sc.name,
)
def test_run_verify_report_consistency(sc):
    """Every verdict is the extreme of its column of the report rows, found at that extreme's point.

    The extreme is the minimum for a "min>=" verdict and the maximum otherwise.
    """
    report = run_verify(sc)
    assert report.all_passed
    points = [tuple(row["point"]) for row in report.violations]
    columns = _verdict_columns(sc, report.violations)
    assert [v.name for v in report.verdicts] == list(columns)
    for v in report.verdicts:
        kind, values = columns[v.name]
        want = extreme(values, points, np.argmin if kind == "min>=" else np.argmax)
        assert (v.kind, v.value, v.point) == (kind, *want), v.name


def test_cli_verify_exit_codes(tmp_path, capsys):
    assert main(["verify", "--scenario", "euclidean"]) == 0
    out = capsys.readouterr().out
    assert "[PASS]" in out and "[FAIL]" not in out

    path = tmp_path / "scenario.txt"
    path.write_text(SCENARIO_FILE)
    assert main(["verify", "--scenario-file", str(path)]) == 0

    path.write_text("dim = 3\n")
    assert main(["verify", "--scenario-file", str(path)]) == 2


def test_an_infinite_literal_is_echoed_as_1e999(tmp_path):
    """1e999 parses to inf; exp(-1e999) is 0, so the entry is finite, and the echo renders the literal back."""
    path = tmp_path / "infinite.txt"
    path.write_text("dim = 3\nf = x0*x1\nmetric:\n1 + exp(-1e999) | 0 | 0\n0 | 1 | 0\n0 | 0 | 1\n")
    out = tmp_path / "report.json"
    assert main(["verify", "--scenario-file", str(path)]) == 0
    assert main(["verify", "--scenario-file", str(path), "--out", str(out)]) == 0
    assert json.loads(out.read_text())["scenario"]["metric"][0][0] == "1 + exp(-1e999)"
    tree = parse("1 + exp(-1e999)", variables=chart_variables(3))
    assert parse(to_source(tree), variables=chart_variables(3)) == tree


def test_cli_param_overrides(tmp_path):
    # builtin: k flows into the canonical family and flips the expectation
    assert main(["verify", "--scenario", "warped-canonical", "--param", "k=6"]) == 0
    assert main(["verify", "--scenario", "warped-canonical", "--param", "k=2"]) == 0

    # file scenario: parameters are rebound without re-parsing expressions
    path = tmp_path / "s.txt"
    path.write_text(SCENARIO_FILE)
    assert main(["verify", "--scenario-file", str(path), "--param", "c=3"]) == 0


def test_cli_verify_json_schema(tmp_path):
    out = tmp_path / "report.json"
    assert main(["verify", "--scenario", "round-sphere-static", "--out", str(out)]) == 0
    doc = json.loads(out.read_text())
    assert set(doc) == {"version", "scenario", "residuals", "violations", "verdicts"}
    for r in doc["residuals"]:
        assert set(r) == {"name", "max_abs", "max_rel", "worst_point"}
    for v in doc["verdicts"]:
        assert set(v) == {"name", "pass"}
    names = {v["name"] for v in doc["verdicts"]}
    assert {"static_tensor", "static_scalar", "p_vanishes"} <= names


def test_cli_counterexample_csv(tmp_path):
    out = tmp_path / "rows.csv"
    code = main(
        [
            "counterexample",
            "--param",
            "k=4",
            "--param",
            "c=1",
            "--grid",
            "r:0:1:5",
            "--out",
            str(out),
            "--format",
            "csv",
        ]
    )
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "r,x1,k,c,norm_nabla_P_sq,norm_div_P_sq,violation,sharp_margin"
    assert len(lines) == 6
    first = lines[1].split(",")
    assert first[0] == "0"
    assert first[6] == "-0.015625"
    assert all(float(row.split(",")[6]) < 0 for row in lines[1:])


@pytest.mark.parametrize(
    "params, max_abs, max_rel, worst_point",
    [
        ([], 1.214306433183765e-17, 1.214306433183765e-17, [0.25, 0.5]),
        # The values reach 10.1, so the largest absolute and relative gaps differ.
        (["--param", "k=5", "--param", "c=0.1"], 5.329070518200751e-15, 1.7595849138419922e-15, [0.0, 0.5]),
    ],
    ids=["defaults", "k=5,c=0.1"],
)
def test_cli_counterexample_json_residual_follows_the_report_schema(
    params, max_abs, max_rel, worst_point, tmp_path
):
    """Each point's largest gap over the four columns, summarized as every residual is."""
    out = tmp_path / "report.json"
    assert main(["counterexample", *params, "--format", "json", "--out", str(out)]) == 0
    assert json.loads(out.read_text())["residuals"] == [
        {"name": "engine_vs_closed_form", "max_abs": max_abs, "max_rel": max_rel, "worst_point": worst_point}
    ]


def test_cli_counterexample_no_violation_exit():
    assert main(["counterexample", "--param", "k=2", "--grid", "r:0:1:3"]) == 1
    assert main(["counterexample", "--param", "k=3", "--grid", "r:0:1:3"]) == 1


@pytest.mark.parametrize(
    "args,code",
    [
        # The search stops at k = 3, where the violation's law is exactly 0: rounding leaves -2.9e-17.
        (["search", "--bounds", "k:2:3"], 1),
        (["verify", "--scenario", "warped-canonical", "--param", "k=3.000000000001"], 1),  # -1.2e-14
        (["search"], 0),
    ],
)
def test_a_violation_within_the_zero_band_is_no_violation(args, code, tmp_path):
    """Every violation verdict, as ``counterexample``'s does, needs a violation below -ZERO_BAND."""
    out = tmp_path / "report.json"
    assert main(args + ["--out", str(out)]) == code
    verdicts = {v["name"]: v["pass"] for v in json.loads(out.read_text())["verdicts"]}
    assert [name for name, ok in verdicts.items() if not ok] == ([] if code == 0 else ["violation_negative"])


def test_cli_determinism(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    for path in (a, b):
        main(
            [
                "counterexample",
                "--param",
                "k=4.5",
                "--grid",
                "r:0:1:4",
                "--out",
                str(path),
                "--format",
                "csv",
            ]
        )
    assert a.read_bytes() == b.read_bytes()

    ja = tmp_path / "a.json"
    jb = tmp_path / "b.json"
    for path in (ja, jb):
        main(["verify", "--scenario", "warped-canonical", "--out", str(path)])
    assert ja.read_bytes() == jb.read_bytes()


def test_cli_verify_csv_format(tmp_path):
    out = tmp_path / "rows.csv"
    assert main(["verify", "--scenario", "round-sphere-static", "--out", str(out), "--format", "csv"]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith("x0,x1,x2,p_norm_sq,")
    assert lines[0].endswith("static_tensor_residual,static_scalar_residual")
    assert len(lines) == 28
    assert out.read_text().endswith("\n")


def test_cli_search(tmp_path):
    out = tmp_path / "search.json"
    code = main(
        ["search", "--seed", "42", "--iterations", "500", "--out", str(out)]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["verdicts"][0]["pass"] is True
    assert doc["violations"][0]["violation"] < -1e-3


def test_cli_frame(capsys):
    code = main(["frame", "--scenario", "warped-canonical", "--point", "0,0,0"])
    assert code == 0
    out = capsys.readouterr().out
    assert "0.0625" in out
    assert "u = P(E_1, E_2)" in out

    code = main(["frame", "--scenario", "euclidean", "--point", "0.5,0.5,0.5"])
    assert code == 1
    assert "degenerate P" in capsys.readouterr().err


def test_cli_usage_errors(capsys):
    assert main(["verify", "--scenario", "not-a-scenario"]) == 2
    assert main([]) == 2
    assert main(["verify", "--param", "k"]) == 2
    assert main(["search", "--bounds", "k:1"]) == 2
    capsys.readouterr()


def test_cli_grid_outside_domain(capsys):
    # r = 0 degenerates the sphere chart; the PD check turns this into exit 2
    code = main(["verify", "--scenario", "round-sphere-static", "--grid", "r:0:0:1"])
    assert code == 2
    assert "positive definite" in capsys.readouterr().err


def test_cli_random_scenario_with_seed():
    assert main(["verify", "--scenario", "random-curved", "--seed", "12"]) == 0
    assert main(["verify", "--scenario", "random-curved", "--seed", "12", "--dim", "4"]) == 0


def test_report_json_is_fixed_order():
    sc = builtin_scenario("euclidean")
    report = run_verify(sc)
    text = report_to_json(report)
    assert text.index('"version"') < text.index('"scenario"') < text.index('"residuals"')


OVERFLOW_SCENARIO = """\
name = overflow
dim = 3
f = exp(300*r)*x1
grid = r:0:1:3, x1:0.2:0.8:2
metric:
1 | 0 | 0
0 | 1 | 0
0 | 0 | 1
"""


def _reject_constant(token):
    raise AssertionError(f"invalid JSON token {token}")


LAMBDA_OVERFLOW_SCENARIO = """\
name = lambda-overflow
dim = 3
f = 300*r + x1*x1
lambda = exp(f)
grid = r:2.3:2.3:1, x1:0.5:0.5:1, x2:0:0:1
metric:
1 | 0 | 0
0 | 1 | 0
0 | 0 | 1
"""


@pytest.mark.parametrize(
    "text,message",
    [
        (OVERFLOW_SCENARIO, "error: P leaves the float range at (1.0, 0.2, 0.5)"),
        (LAMBDA_OVERFLOW_SCENARIO, "error: |grad P|^2 leaves the float range at (2.3, 0.5, 0.0)"),
    ],
    ids=["P", "norm"],
)
def test_a_non_finite_stage_exits_2_naming_the_stage_and_the_point(text, message, tmp_path, capsys):
    path = tmp_path / "overflow.txt"
    path.write_text(text)
    out = tmp_path / "report.json"
    code, err = _exit_and_message(["verify", "--scenario-file", str(path), "--out", str(out)], capsys)
    assert (code, err) == (2, message)
    assert not out.exists()


@pytest.mark.parametrize("command", ["verify", "frame"])
def test_a_dim_that_differs_from_the_scenario_file_exits_2_naming_both(command, tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text(SCENARIO_FILE)
    args = [command, "--scenario-file", str(path), "--dim"]
    code, err = _exit_and_message(args + ["4"], capsys)
    assert (code, err) == (2, "error: --dim 4 differs from the scenario file's dim 3")
    assert main(args + ["3"]) == 0


def test_non_finite_values_fail_and_name_the_point(capsys):
    """A non-finite value fails its verdict, whose line names the value's first point; JSON spells it."""
    points = [(0.0, 0.2, 0.5), (1.0, 0.2, 0.5), (1.0, 0.8, 0.5)]
    values = [0.5, math.nan, math.inf]
    report = Report(
        scenario={"name": "overflow"},
        residuals=(summarize_residuals("bochner", points, values, values),),
        violations=tuple({"point": list(pt), "violation": v} for pt, v in zip(points, values)),
        verdicts=(Verdict.on_grid("bochner_rel_residual", "max<=", 1e-8, values, points),),
    )
    _print_verdicts(report)
    line = capsys.readouterr().out
    assert line == "[FAIL] bochner_rel_residual: value=nan (max<= 1e-08) non-finite at (1, 0.20000000000000001, 0.5)\n"
    doc = json.loads(report_to_json(report), parse_constant=_reject_constant)
    assert not doc["verdicts"][0]["pass"]
    assert doc["residuals"][0] == {"name": "bochner", "max_abs": "nan", "max_rel": "nan", "worst_point": [1.0, 0.2, 0.5]}
    assert [row["violation"] for row in doc["violations"]] == [0.5, "nan", "inf"]


def test_non_finite_residual_is_never_folded_away():
    points = [(0.0,), (1.0,), (2.0,)]
    summary = summarize_residuals(
        "r", points, [1e-3, float("nan"), 5.0], [1e-3, float("nan"), 0.5]
    )
    assert math.isnan(summary["max_abs"]) and math.isnan(summary["max_rel"])
    assert summary["worst_point"] == [1.0]
    assert "NaN" not in report_to_json(run_verify(builtin_scenario("euclidean")))


@pytest.mark.parametrize("kind, at_threshold", [("max<=", True), ("min>=", True), ("max<", False), ("min<", False)])
def test_each_verdict_kind_at_its_threshold_and_beyond_the_float_range(kind, at_threshold):
    """At value == threshold only the strict kind fails; a non-finite value fails every kind."""
    assert Verdict("v", kind, 0.5, 0.5).passed is at_threshold
    assert Verdict("v", kind, 0.5, 0.25).passed is (kind != "min>=")
    assert Verdict("v", kind, 0.5, 0.75).passed is (kind == "min>=")
    for value in (math.nan, math.inf, -math.inf):
        assert not Verdict("v", kind, 0.0, value).passed


def _exit_and_message(args, capsys):
    code = main(args)
    err = capsys.readouterr().err.strip()
    return code, err


@pytest.mark.parametrize(
    "f_source", ["exp(exp(7*r))*x1", "(r + 1)^(2000.5)*x1"], ids=["exp", "power"]
)
def test_expression_overflow_exits_2(f_source, tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text(OVERFLOW_SCENARIO.replace("exp(300*r)*x1", f_source))
    code, err = _exit_and_message(["verify", "--scenario-file", str(path)], capsys)
    assert code == 2
    assert err.startswith("error:") and "overflows a float (at offset" in err
    assert "\n" not in err and "Traceback" not in err


def test_sin_of_an_overflow_exits_2_naming_the_product(tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text(OVERFLOW_SCENARIO.replace("exp(300*r)*x1", "sin(r*1e300*1e300)*x1"))
    code, err = _exit_and_message(["verify", "--scenario-file", str(path)], capsys)
    assert code == 2
    assert err == "error: product overflows a float (at offset 11)"


@pytest.mark.parametrize(
    "args",
    [
        ["search", "--bounds", "k:a:3"],
        ["search", "--bounds", "k:1:inf"],
        ["search", "--bounds", "z:1:3"],
        ["frame", "--scenario", "warped-canonical", "--point", "a,b,c"],
        ["frame", "--scenario", "warped-canonical", "--point", "0,nan,0"],
        ["verify", "--scenario", "warped-canonical", "--param", "k=inf"],
        ["counterexample", "--param", "c=nan"],
        ["verify", "--scenario", "warped-canonical", "--grid", "r:0:nan:2"],
        ["counterexample", "--grid", "r:-inf:1:2"],
    ],
)
def test_bad_numbers_exit_2_with_one_line(args, capsys):
    code, err = _exit_and_message(args, capsys)
    assert code == 2
    assert err.startswith("error:") and "\n" not in err and "Traceback" not in err


@pytest.mark.parametrize(
    "text",
    [
        SCENARIO_FILE.replace("dim = 3", "dim = abc"),
        SCENARIO_FILE.replace("param k = 5", "param k = inf"),
        "dim = 2\nf = x1\nmetric:\n1 | 0\n0 | 1\n",
    ],
    ids=["dim-not-a-number", "param-not-finite", "dim-below-3"],
)
def test_bad_scenario_file_exits_2_with_one_line(text, tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text(text)
    code, err = _exit_and_message(["verify", "--scenario-file", str(path)], capsys)
    assert code == 2
    assert err.startswith("error:") and "\n" not in err and "Traceback" not in err


FLAT_FILE = "dim = 3\nf = x1\nmetric:\n1 | 0 | 0\n0 | 1 | 0\n0 | 0 | 1\n"
STATIC_4D_FILE = (
    "dim = 4\nf = x0*x1 + x2*x3\nstatic = true\nmetric:\n"
    "1 | 0 | 0 | 0\n0 | 1 | 0 | 0\n0 | 0 | 1 | 0\n0 | 0 | 0 | 1\n"
)


@pytest.mark.parametrize(
    "args, text, message",
    [
        ([], "metric:\n1|0|0\n0|1|0\n0|0|1\ndim = 3\nf = x1\n", "'dim' must precede 'metric:'"),
        ([], FLAT_FILE.replace("0 | 0 | 1\n", ""), "expected 3 metric rows, got 2"),
        ([], "dim = 3\nf x1\n", "line 2: expected key = value"),
        ([], "param k = abc\n" + FLAT_FILE, "line 1: bad parameter value 'abc'"),
        ([], FLAT_FILE + "grid = r:0:1:x\n", "bad grid numbers in 'r:0:1:x'"),
        ([], FLAT_FILE + "static = yes\n", "static must be true or false, not 'yes'"),
        ([], STATIC_4D_FILE, "static = true needs dim = 3, not 4"),
        (
            [],
            FLAT_FILE + "lamda = exp(f)\n",
            "line 7: unknown key 'lamda'; valid keys are name, dim, f, lambda, grid, static, "
            "description, param NAME and metric:",
        ),
        (
            [],
            FLAT_FILE.replace("f = x1\n", "f = x1\nlambda = f\n") + "lambda = exp(f)\n",
            "line 8: repeated key 'lambda', first set on line 3",
        ),
        ([], "param k = 1\n" + FLAT_FILE + "param  k = 2\n", "line 8: repeated key 'param k', first set on line 1"),
        ([], FLAT_FILE + "metric:\n", "line 7: repeated key 'metric:', first set on line 3"),
        ([], FLAT_FILE + FLAT_FILE[FLAT_FILE.index("metric:"):], "line 7: repeated key 'metric:', first set on line 3"),
        (
            ["counterexample", "--grid", "r:0:1:5", "--grid", "x0:0:1:2"],
            None,
            "grid axis 'r' given twice: 'r:0:1:5' and 'x0:0:1:2'",
        ),
        ([], None, "No such file or directory"),
        (["frame", "--scenario", "warped-canonical", "--point", "0,0"], None, "--point needs 3"),
        (["verify", "--scenario", "euclidean", "--dim", "4"], None, "dimension 3, not 4"),
        (["frame", "--scenario", "warped-canonical", "--dim", "4"], None, "dimension 3, not 4"),
        (["verify", "--scenario", "euclidean", "--format", "json"], None, "--format needs --out"),
        (["counterexample", "--format", "csv"], None, "--format needs --out"),
        (
            [],
            FLAT_FILE.replace("f = x1", "f = " + " + ".join(["0.001*r*x1"] * 2000)),
            "expression nests too deeply",
        ),
        (["counterexample", "--lam", " + ".join(["f"] * 2000)], None, "nests too deeply"),
        (["counterexample", "--psi", "(" * 3000 + "x1" + ")" * 3000], None, "nests too deeply"),
        (["counterexample", "--param", "k=0"], None, "division by zero"),
        (["counterexample", "--param", "k=0.005"], None, "leaves the float range at r=1.0"),
        (["counterexample", "--param", "k=0.006"], None, "leaves the float range at r=1.0"),
        (
            ["search", "--bounds", "k:0.001:0.001", "--bounds", "c:2:2", "--iterations", "20"],
            None,
            "all 20 evaluations leave the float range for k in [0.001, 0.001], c in [2.0, 2.0]",
        ),
    ],
    ids=[
        "dim-after-metric",
        "too-few-rows",
        "no-equals",
        "param-not-a-number",
        "grid-count-not-a-number",
        "static-not-a-boolean",
        "static-in-4d",
        "unknown-key",
        "repeated-key",
        "repeated-param",
        "repeated-empty-metric",
        "repeated-metric",
        "repeated-grid-axis",
        "missing-file",
        "point-coordinates",
        "verify-dim",
        "frame-dim",
        "verify-format-without-out",
        "counterexample-format-without-out",
        "deep-f",
        "deep-lambda",
        "deep-psi",
        "warp-k-zero",
        "warp-power-out-of-range",
        "warp-product-out-of-range",
        "search-every-point-out-of-range",
    ],
)
def test_input_errors_exit_2_with_their_message(args, text, message, tmp_path, capsys):
    """Bad input exits 2 with one line naming the problem; no argument list means a scenario file."""
    path = tmp_path / "s.txt"
    if text is not None:
        path.write_text(text)
    code, err = _exit_and_message(args or ["verify", "--scenario-file", str(path)], capsys)
    assert code == 2
    assert err.startswith("error:") and message in err
    assert "\n" not in err and "Traceback" not in err


def test_search_ranks_points_beyond_the_float_range_last(capsys):
    """Where the closed form leaves the float range the search goes on; k < 3 finds no violation."""
    code = main(["search", "--bounds", "k:1e-3:1e-2"])
    out, err = capsys.readouterr()
    assert code == 1 and err == ""
    assert out.startswith("best violation ") and "k=0.00" in out


@pytest.mark.parametrize(
    "sc",
    [builtin_scenario(name) for name in ("euclidean", "round-sphere-static", "warped-canonical")]
    + [random_scenario(seed, dim) for dim in (3, 4) for seed in (0, 1, 2, 3, 5, 7)],
    ids=lambda sc: sc.name,
)
def test_bochner_verdict_names_the_point_of_the_largest_relative_residual(sc):
    points = sc.grid_points()
    rel = bochner_residual(PointAnalysis(sc.spec(), points)).rel_residual
    verdict = next(v for v in run_verify(sc).verdicts if v.name == "bochner_rel_residual")
    assert verdict.value == float(np.max(rel))
    assert verdict.point == tuple(points[int(np.argmax(rel))])


@pytest.mark.parametrize(
    "args, message",
    [
        (["counterexample", "--param", "kk=2"], "unknown --param 'kk'; valid names: k, c"),
        (["verify", "--scenario", "warped-canonical", "--param", "z=1"], "valid names: k, c"),
        (["verify", "--scenario", "euclidean", "--param", "k=2"], "valid names: none"),
        (["verify", "--scenario", "random-curved", "--param", "c=1"], "valid names: none"),
        (["frame", "--scenario", "round-sphere-static", "--param", "k=2"], "valid names: none"),
        (["verify", "--scenario-file", "FILE", "--param", "zz=3"], "valid names: k, c"),
        (["search", "--iterations", "0"], "bad --iterations"),
        (["verify", "--scenario", "random-curved", "--seed", "-1"], "bad --seed: -1 is below 0"),
        (["frame", "--scenario", "random-curved", "--seed", "-1"], "bad --seed: -1 is below 0"),
        (["search", "--seed", "-1"], "bad --seed: -1 is below 0"),
        (["verify", "--scenario", "euclidean", "--tolerance", "nan"], "bad --tolerance: nan"),
        (["verify", "--scenario", "euclidean", "--tolerance", "inf"], "bad --tolerance: inf"),
    ],
)
def test_undeclared_param_and_bad_iterations_exit_2(args, message, tmp_path, capsys):
    path = tmp_path / "s.txt"
    path.write_text(SCENARIO_FILE)
    code, err = _exit_and_message([str(path) if a == "FILE" else a for a in args], capsys)
    assert code == 2
    assert err.startswith("error:") and message in err and "\n" not in err
    assert "--bounds" not in err


def test_tolerance_option_overrides_the_residual_tolerances(capsys):
    assert main(["verify", "--scenario", "round-sphere-static", "--tolerance", "-1"]) == 1
    status = {
        line.split("]")[1].split(":")[0].strip(): line[1:5]
        for line in capsys.readouterr().out.splitlines()
        if line.startswith("[")
    }
    assert status == {
        "cyclic_residual": "FAIL",
        "bochner_rel_residual": "FAIL",
        "sharp_margin": "PASS",
        "one_over_n_bound": "PASS",
        "static_tensor": "FAIL",
        "static_scalar": "FAIL",
        "p_vanishes": "PASS",
    }


def _abs_residuals(sc, points):
    """Per-point absolute residuals of ``sc``, keyed by report residual name."""
    an = PointAnalysis(sc.spec(), points)
    out = {
        "cyclic": cyclic_residual(PointAnalysis(sc.spec(), points, VALUE_ORDER)).abs_residual,
        "bochner": bochner_residual(an).abs_residual,
    }
    if sc.is_static:
        out.update((r.name, r.abs_residual) for r in static_residual(an))
    return out


@pytest.mark.parametrize(
    "sc",
    [builtin_scenario(name) for name in ("euclidean", "round-sphere-static", "warped-canonical")]
    + [random_scenario(seed, dim) for dim in (3, 4) for seed in range(4)],
    ids=lambda sc: sc.name,
)
def test_worst_point_is_the_first_point_of_the_largest_absolute_residual(sc):
    points = sc.grid_points()
    doc = json.loads(report_to_json(run_verify(sc)))
    residuals = _abs_residuals(sc, points)
    assert [r["name"] for r in doc["residuals"]] == list(residuals)
    for entry in doc["residuals"]:
        values = [float(v) for v in residuals[entry["name"]]]
        first = next(i for i, v in enumerate(values) if v == max(values))
        assert entry["worst_point"] == list(points[first]), entry["name"]


@pytest.mark.parametrize(
    "scenario",
    [["round-sphere-static"], ["random-curved", "--dim", "4"]],
    ids=["static", "non-static"],
)
def test_verify_csv_header_is_the_point_then_the_json_row_keys(scenario, tmp_path):
    args = ["verify", "--scenario", *scenario, "--out"]
    assert main(args + [str(tmp_path / "r.json")]) == 0
    assert main(args + [str(tmp_path / "r.csv"), "--format", "csv"]) == 0
    row = json.loads((tmp_path / "r.json").read_text())["violations"][0]
    header = (tmp_path / "r.csv").read_text().splitlines()[0].split(",")
    dim = len(row["point"])
    assert header == [f"x{i}" for i in range(dim)] + [k for k in row if k != "point"]


def test_counterexample_rows_follow_the_grid_order(tmp_path):
    """One row per (r, x1) in grid order, however many x2 values the grid has."""
    spec = ["r:0:1:3", "x1:0.1:0.9:2", "x2:0:1:4"]
    out = tmp_path / "rows.csv"
    argv = ["counterexample", "--out", str(out), "--format", "csv"]
    assert main(argv + [a for g in spec for a in ("--grid", g)]) == 0
    cells = [line.split(",")[:2] for line in out.read_text().splitlines()[1:]]
    points = grid_points(parse_grid_spec(",".join(spec[:2]), 3))
    assert len(cells) == 6
    assert cells == [[fmt17(r), fmt17(x1)] for r, x1, _ in points]


def test_static_verify_builds_one_metric_pipeline(monkeypatch):
    """Every check of a static verify reads the one analysis of the grid."""
    built = []
    init = MetricJets.__init__

    def counted(self, *args, **kwargs):
        built.append(args)
        init(self, *args, **kwargs)

    monkeypatch.setattr(MetricJets, "__init__", counted)
    report = run_verify(round_sphere_scenario())
    assert [v.name for v in report.verdicts if v.name.startswith("static")] == [
        "static_tensor",
        "static_scalar",
    ]
    assert len(built) == 1
