"""Scenario registry: built-in charts, seeded random metrics, scenario files.

A scenario bundles a metric, a potential f, a profile lambda, parameter
values and an evaluation grid.  Built-ins:

* ``euclidean``            flat 3-space with f = |x|^2/2 (P vanishes).
* ``round-sphere-static``  unit round 3-sphere chart with f = cos r; the
                           standard positive-curvature static triple.
* ``warped-canonical``     the (r+c)^(-1/k) warped product, k=4, c=1 by
                           default; the factor-2 bound fails on it.
* ``random-curved``        seeded polynomial perturbation of the flat metric,
                           positive definite on the unit box by construction.

Scenario files are plain text, one ``key = value`` per line with a
``metric:`` section of ``|``-separated expression rows; see the README for
the exact grammar.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, replace

import numpy as np

from . import warped as warped_mod
from .errors import ScenarioError
from .expr import Binary, Expr, Num, Unary, Var, chart_variables, parse, to_source
from .geometry import MetricField, ScalarField
from .ptensor import PTensorSpec

BUILTIN_NAMES = (
    "euclidean",
    "round-sphere-static",
    "warped-canonical",
    "random-curved",
)

_LAMBDA_CHOICES = ("1", "f", "1 + f*f", "exp(f/4)")


@dataclass(frozen=True)
class GridAxis:
    name: str
    lo: float
    hi: float
    count: int

    def __post_init__(self):
        if self.count < 1:
            raise ScenarioError(f"grid axis {self.name}: count must be >= 1")
        if not (math.isfinite(self.lo) and math.isfinite(self.hi)):
            raise ScenarioError(f"grid axis {self.name}: bounds must be finite")
        if self.hi < self.lo:
            raise ScenarioError(f"grid axis {self.name}: empty range")

    def values(self) -> np.ndarray:
        if self.count == 1:
            return np.array([self.lo])
        return np.linspace(self.lo, self.hi, self.count)


@dataclass(frozen=True)
class Scenario:
    name: str
    dim: int
    metric: MetricField
    f: ScalarField
    lam: Expr
    lam_src: str
    params: dict
    grid: tuple[GridAxis, ...]
    is_static: bool = False
    expect_zero_p: bool = False
    expect_violation: bool = False
    description: str = ""

    def spec(self) -> PTensorSpec:
        return PTensorSpec(
            lam=self.lam, f=self.f, metric=self.metric, lam_params=self.params
        )

    def with_params(self, **overrides) -> "Scenario":
        """Rebind parameter values without re-parsing any expression."""
        params = {**self.params, **{k: float(v) for k, v in overrides.items()}}
        return replace(
            self,
            metric=MetricField(self.dim, self.metric.exprs, params),
            f=ScalarField(self.dim, self.f.expr, params),
            params=params,
        )

    def grid_points(self) -> list[tuple[float, ...]]:
        return grid_points(self.grid)

    def echo(self) -> dict:
        """Deterministic description for reports."""
        return {
            "name": self.name,
            "dimension": self.dim,
            "metric": self.metric.sources(),
            "f": self.f.source(),
            "lambda": self.lam_src,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "grid": [
                {"axis": a.name, "min": a.lo, "max": a.hi, "count": a.count}
                for a in self.grid
            ],
        }


def grid_points(grid: tuple[GridAxis, ...]) -> list[tuple[float, ...]]:
    """Every point of ``grid`` as a tuple of Python floats, the last axis varying fastest."""
    axes = np.meshgrid(*(axis.values() for axis in grid), indexing="ij")
    return [tuple(pt) for pt in np.stack(axes, axis=-1).reshape(-1, len(grid)).tolist()]


def _axis_names(dim: int) -> list[str]:
    """Grid axis names, one per chart slot: the slot's last alias (r, x1, x2, ...)."""
    return [v if isinstance(v, str) else v[-1] for v in chart_variables(dim)]


def _default_grid(dim: int, lo: float, hi: float, count: int) -> tuple[GridAxis, ...]:
    return tuple(GridAxis(nm, lo, hi, count) for nm in _axis_names(dim))


def _parse_lambda(src: str, params: dict) -> Expr:
    return parse(src, variables=("f",), params=tuple(params))


def euclidean_scenario() -> Scenario:
    params: dict = {}
    metric = MetricField.parse(
        [["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]], params
    )
    f = ScalarField.parse("(x0^2 + x1^2 + x2^2)/2", 3, params)
    return Scenario(
        name="euclidean",
        dim=3,
        metric=metric,
        f=f,
        lam=_parse_lambda("1", params),
        lam_src="1",
        params=params,
        grid=_default_grid(3, 0.1, 0.9, 3),
        expect_zero_p=True,
        description="flat chart; d|grad f|^2 is parallel to df, so P = 0",
    )


def round_sphere_scenario() -> Scenario:
    params: dict = {}
    metric = MetricField.parse(
        [
            ["1", "0", "0"],
            ["0", "sin(r)^2", "0"],
            ["0", "0", "sin(r)^2*sin(x1)^2"],
        ],
        params,
    )
    f = ScalarField.parse("cos(r)", 3, params)
    grid = (
        GridAxis("r", 0.7, 1.1, 3),
        GridAxis("x1", 0.7, 1.1, 3),
        GridAxis("x2", 0.1, 0.5, 3),
    )
    return Scenario(
        name="round-sphere-static",
        dim=3,
        metric=metric,
        f=f,
        lam=_parse_lambda("1", params),
        lam_src="1",
        params=params,
        grid=grid,
        is_static=True,
        expect_zero_p=True,
        description="unit round sphere chart with f = cos r (static triple)",
    )


def warped_canonical_scenario(k: float = 4.0, c: float = 1.0) -> Scenario:
    wspec = warped_mod.WarpedSpec.canonical(k, c)
    params = dict(wspec.params)
    return Scenario(
        name="warped-canonical",
        dim=3,
        metric=warped_mod.metric_field(wspec),
        f=warped_mod.scalar_field(wspec),
        lam=wspec._lam,
        lam_src=wspec.lam_src,
        params=params,
        grid=_default_grid(3, 0.0, 1.0, 3),
        expect_violation=(k > 3.0),
        description=f"warped product with phi = (r+c)^(-1/k), k={k}, c={c}",
    )


def _poly_tree(rng: np.random.Generator, dim: int, scale: float, constant: float | None) -> Expr:
    """The tree that :func:`parse` gives for a random polynomial's :func:`to_source` text.

    Coefficients scale * (2u - 1), u uniform, go to x_i, then to x_i*x_j
    (i <= j), after the constant; each term adds or subtracts its size.
    """
    new = tuple.__new__  # the node constructors, without their Python frame
    names = _axis_names(dim)
    tree = None if constant is None else new(Num, (float(constant), 0))
    end = 0 if tree is None else len(to_source(tree))  # the text's length so far
    monomials = [(i,) for i in range(dim)] + [(i, j) for i in range(dim) for j in range(i, dim)]
    for factors, u in zip(monomials, rng.random(len(monomials)).tolist()):
        coef = scale * (2.0 * u - 1.0)
        at = end + 3 if tree is not None else int(coef < 0)  # after " + " or "-"
        term = new(Num, (abs(coef), at))
        end = at + len(to_source(term))
        if tree is None and coef < 0:
            term = new(Unary, ("neg", term, 0))
        for i in factors:  # " * x"
            term = new(Binary, ("*", term, new(Var, (i, names[i], end + 3)), end + 1))
            end += 3 + len(names[i])
        tree = term if tree is None else new(Binary, ("-" if coef < 0 else "+", tree, term, at - 2))
    return tree


def random_scenario(seed: int, dim: int = 3) -> Scenario:
    """Seeded random curved scenario, positive definite on the unit box.

    The metric is delta_ij + eps * (symmetric linear + quadratic polynomial)
    with eps small enough that a Gershgorin bound keeps every evaluation in
    [0,1]^dim positive definite.  f is a random nonconstant quadratic and
    lambda cycles through a small family of profiles.
    """
    if dim < 3 or dim > 4:
        raise ScenarioError("random scenarios support dimension 3 or 4")
    rng = np.random.default_rng(seed)
    eps = 0.8 / (dim * (dim + dim * (dim + 1) / 2))
    params: dict = {}
    rows = [[None] * dim for _ in range(dim)]
    for i in range(dim):
        for j in range(i, dim):
            rows[i][j] = rows[j][i] = _poly_tree(rng, dim, eps, 1.0 if i == j else 0.0)
    metric = MetricField(dim, rows, params)
    f = ScalarField(dim, _poly_tree(rng, dim, 1.0, None), params)
    lam_src = _LAMBDA_CHOICES[int(seed) % len(_LAMBDA_CHOICES)]
    grid = tuple(
        GridAxis(nm, 0.2, 0.8, 2 if idx < 2 else 1)
        for idx, nm in enumerate(_axis_names(dim))
    )
    return Scenario(
        name=f"random-curved-{dim}d-seed{seed}",
        dim=dim,
        metric=metric,
        f=f,
        lam=_parse_lambda(lam_src, params),
        lam_src=lam_src,
        params=params,
        grid=grid,
        description=f"seeded polynomial perturbation of the flat {dim}-metric",
    )


def builtin_scenario(name: str, seed: int = 0, dim: int = 3, **overrides) -> Scenario:
    if name == "euclidean":
        return euclidean_scenario()
    if name == "round-sphere-static":
        return round_sphere_scenario()
    if name == "warped-canonical":
        return warped_canonical_scenario(
            k=float(overrides.get("k", 4.0)), c=float(overrides.get("c", 1.0))
        )
    if name == "random-curved":
        return random_scenario(seed, dim)
    raise ScenarioError(
        f"unknown scenario {name!r}; built-ins: {', '.join(BUILTIN_NAMES)}"
    )


# -- scenario files -------------------------------------------------------------


def parse_scenario_file(text: str, fallback_name: str = "scenario") -> Scenario:
    """Parse the plain-text scenario format (see module docstring)."""
    lines = text.splitlines()
    fields: dict[str, str] = {}
    params: dict[str, float] = {}
    metric_rows: list[str] = []
    i = 0
    while i < len(lines):
        raw = lines[i]
        line = raw.strip()
        i += 1
        if not line or line.startswith("#"):
            continue
        if line == "metric:":
            dim_str = fields.get("dim")
            if dim_str is None:
                raise ScenarioError("scenario file: 'dim' must precede 'metric:'")
            dim = _parse_dim(dim_str)
            while len(metric_rows) < dim:
                if i >= len(lines):
                    raise ScenarioError(
                        f"scenario file: expected {dim} metric rows, got {len(metric_rows)}"
                    )
                row = lines[i].strip()
                i += 1
                if not row or row.startswith("#"):
                    continue
                metric_rows.append(row)
            continue
        if "=" not in line:
            raise ScenarioError(f"scenario file line {i}: expected key = value")
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip().strip('"')
        if key.startswith("param "):
            pname = key[len("param "):].strip()
            try:
                params[pname] = float(value)
            except ValueError:
                params[pname] = math.nan  # rejected below, like a non-finite value
            if not math.isfinite(params[pname]):
                raise ScenarioError(
                    f"scenario file line {i}: bad parameter value {value!r}"
                )
        else:
            fields[key] = value

    for required in ("dim", "f"):
        if required not in fields:
            raise ScenarioError(f"scenario file: missing {required!r}")
    dim = _parse_dim(fields["dim"])
    if not metric_rows:
        raise ScenarioError("scenario file: missing metric: section")
    rows = []
    for row in metric_rows:
        cells = [c.strip() for c in row.split("|")]
        if len(cells) != dim:
            raise ScenarioError(
                f"scenario file: metric row has {len(cells)} entries, expected {dim}"
            )
        rows.append(cells)
    try:
        metric = MetricField.parse(rows, params)
        f = ScalarField.parse(fields["f"], dim, params)
        lam_src = fields.get("lambda", "1")
        lam = _parse_lambda(lam_src, params)
    except Exception as err:
        raise ScenarioError(f"scenario file: {err}") from err

    grid_src = fields.get("grid")
    if grid_src:
        grid = parse_grid_spec(grid_src, dim)
    else:
        grid = _default_grid(dim, 0.2, 0.8, 2)
    return Scenario(
        name=fields.get("name", fallback_name),
        dim=dim,
        metric=metric,
        f=f,
        lam=lam,
        lam_src=lam_src,
        params=params,
        grid=grid,
        is_static=fields.get("static", "false").lower() == "true",
        description=fields.get("description", ""),
    )


def _parse_dim(text: str) -> int:
    try:
        dim = int(text)
    except ValueError:
        dim = 0
    if dim < 1:
        raise ScenarioError(f"scenario file: bad dim {text!r}; want a positive integer")
    return dim


def parse_grid_spec(src: str, dim: int) -> tuple[GridAxis, ...]:
    """Parse 'axis:min:max:count' specs, comma separated, into full-chart grids.

    Unmentioned axes collapse to a single midpoint value of [0, 1].
    """
    names = _axis_names(dim)
    alias = {"x0": "r"}
    specs: dict[str, GridAxis] = {}
    for chunk in src.split(","):
        chunk = chunk.strip()
        if not chunk:
            continue
        bits = chunk.split(":")
        if len(bits) != 4:
            raise ScenarioError(f"bad grid spec {chunk!r}; want axis:min:max:count")
        axis = alias.get(bits[0].strip(), bits[0].strip())
        if axis not in names:
            raise ScenarioError(f"grid axis {axis!r} not in chart ({', '.join(names)})")
        try:
            lo, hi, count = float(bits[1]), float(bits[2]), int(bits[3])
        except ValueError:
            raise ScenarioError(f"bad grid numbers in {chunk!r}") from None
        specs[axis] = GridAxis(axis, lo, hi, count)
    return tuple(
        specs.get(nm, GridAxis(nm, 0.5, 0.5, 1)) for nm in names
    )
