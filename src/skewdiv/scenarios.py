"""Scenario registry: built-in charts, seeded random metrics, scenario files.

A scenario bundles a metric, a potential f, a profile lambda and an
evaluation grid; the metric's parameter values bind f and lambda too.
Built-ins:

* ``euclidean``            flat 3-space with f = |x|^2/2 (P vanishes).
* ``round-sphere-static``  unit round 3-sphere chart with f = cos r; the
                           standard positive-curvature static triple.
* ``warped-canonical``     the (r+c)^(-1/k) warped product, k=4, c=1 by
                           default; the factor-2 bound fails on it.
* ``random-curved``        seeded polynomial perturbation of the flat metric,
                           positive definite on the unit box by construction.

A random-curved metric and its f are drawn as their texts together with
their lowered form (:class:`~skewdiv.expr.TermTable`): the monomials 1,
x_i and x_i*x_j, and each entry's coefficients as an array, which are the
signed terms that :func:`~skewdiv.expr._terms` gives for the parsed text
(:meth:`~skewdiv.geometry.Field.from_table`).  Their jets are placed and
summed from that table, and their trees are parsed from the texts only
when something reads them.

Scenario files are plain text, one ``key = value`` per line with a
``metric:`` section of ``|``-separated expression rows; see the README for
the exact grammar.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, replace
from functools import lru_cache
from operator import add

import numpy as np

from . import warped as warped_mod
from .errors import ScenarioError
from .expr import Expr, TermTable, chart_variables, number_source, parse
from .geometry import Field, MetricField, upper_indices
from .ptensor import PTensorSpec

BUILTIN_NAMES = (
    "euclidean",
    "round-sphere-static",
    "warped-canonical",
    "random-curved",
)

_LAMBDA_CHOICES = ("1", "f", "1 + f*f", "exp(f/4)")

# A scenario file's keys besides ``param NAME`` lines and the ``metric:`` section.
_FILE_KEYS = ("name", "dim", "f", "lambda", "grid", "static", "description")


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
    f: Field
    lam: Expr
    lam_src: str
    grid: tuple[GridAxis, ...]
    is_static: bool = False
    expect_zero_p: bool = False
    expect_violation: bool = False
    description: str = ""

    @property
    def params(self) -> dict:
        """The metric's parameter set, which binds f and lambda too."""
        return self.metric.params

    def spec(self) -> PTensorSpec:
        return PTensorSpec(lam=self.lam, f=self.f, metric=self.metric)

    def with_params(self, **overrides) -> "Scenario":
        """Rebind parameter values without re-parsing any expression."""
        params = {**self.params, **{k: float(v) for k, v in overrides.items()}}
        return replace(self, metric=self.metric.with_params(params))

    def grid_points(self) -> list[tuple[float, ...]]:
        return grid_points(self.grid)

    def echo(self) -> dict:
        """Deterministic description for reports."""
        return {
            "name": self.name,
            "dimension": self.dim,
            "metric": self.metric.sources(),
            "f": self.f.sources()[0],
            "lambda": self.lam_src,
            "params": {k: self.params[k] for k in sorted(self.params)},
            "grid": [
                {"axis": a.name, "min": a.lo, "max": a.hi, "count": a.count}
                for a in self.grid
            ],
        }


def grid_points(grid: tuple[GridAxis, ...]) -> list[tuple[float, ...]]:
    """Every point of ``grid`` as a tuple of Python floats, the last axis varying fastest."""
    return list(itertools.product(*(axis.values().tolist() for axis in grid)))


def _axis_names(dim: int) -> list[str]:
    """Grid axis names, one per chart slot: the slot's last alias (r, x1, x2, ...)."""
    return [v if isinstance(v, str) else v[-1] for v in chart_variables(dim)]


def _default_grid(dim: int, lo: float, hi: float, count: int) -> tuple[GridAxis, ...]:
    return tuple(GridAxis(nm, lo, hi, count) for nm in _axis_names(dim))


def _parse_lambda(src: str, params=()) -> Expr:
    return parse(src, variables=("f",), params=tuple(params))


def euclidean_scenario() -> Scenario:
    return Scenario(
        name="euclidean",
        dim=3,
        metric=MetricField.parse([["1", "0", "0"], ["0", "1", "0"], ["0", "0", "1"]]),
        f=Field([parse("(x0^2 + x1^2 + x2^2)/2", variables=chart_variables(3))]),
        lam=_parse_lambda("1"),
        lam_src="1",
        grid=_default_grid(3, 0.1, 0.9, 3),
        expect_zero_p=True,
        description="flat chart; d|grad f|^2 is parallel to df, so P = 0",
    )


def round_sphere_scenario() -> Scenario:
    metric = MetricField.parse(
        [
            ["1", "0", "0"],
            ["0", "sin(r)^2", "0"],
            ["0", "0", "sin(r)^2*sin(x1)^2"],
        ]
    )
    grid = (
        GridAxis("r", 0.7, 1.1, 3),
        GridAxis("x1", 0.7, 1.1, 3),
        GridAxis("x2", 0.1, 0.5, 3),
    )
    return Scenario(
        name="round-sphere-static",
        dim=3,
        metric=metric,
        f=Field([parse("cos(r)", variables=chart_variables(3))]),
        lam=_parse_lambda("1"),
        lam_src="1",
        grid=grid,
        is_static=True,
        expect_zero_p=True,
        description="unit round sphere chart with f = cos r (static triple)",
    )


def warped_canonical_scenario(k: float = 4.0, c: float = 1.0) -> Scenario:
    wspec = warped_mod.WarpedSpec.canonical(k, c)
    spec = warped_mod.ptensor_spec(wspec)
    return Scenario(
        name="warped-canonical",
        dim=3,
        metric=spec.metric,
        f=spec.f,
        lam=spec.lam,
        lam_src=wspec.lam_src,
        grid=_default_grid(3, 0.0, 1.0, 3),
        expect_violation=(k > 3.0),
        description=f"warped product with phi = (r+c)^(-1/k), k={k}, c={c}",
    )


def random_scenario(seed: int, dim: int = 3) -> Scenario:
    """Seeded random curved scenario, positive definite on the unit box.

    The metric is delta_ij + eps * (symmetric linear + quadratic polynomial)
    with eps small enough that a Gershgorin bound keeps every evaluation in
    [0,1]^dim positive definite.  f is a random nonconstant quadratic and
    lambda cycles through a small family of profiles.  The metric and f
    carry their texts and lowered form (see the module docstring).
    """
    if dim < 3 or dim > 4:
        raise ScenarioError("random scenarios support dimension 3 or 4")
    rng = np.random.default_rng(seed)
    eps = 0.8 / (dim * (dim + dim * (dim + 1) / 2))
    names = _axis_names(dim)
    metric, f, suffixes = _random_tables(dim)
    # Coefficients scale * (2u - 1), u uniform, for x_i, then x_i*x_j (i <= j):
    # a row per metric entry i <= j (scale eps, after the constant), then f's (scale 1).
    rows, cols = upper_indices(dim)
    coefs = 2.0 * rng.random((len(rows) + 1, len(suffixes))) - 1.0
    coefs[:-1] *= eps
    metric_coefs = np.column_stack([(rows == cols).astype(float), coefs[:-1]])
    *entries, f_terms = _signed_terms(coefs, suffixes)
    texts = [("1" if i == j else "0") + terms for i, j, terms in zip(rows.tolist(), cols.tolist(), entries)]
    f_src = f_terms[3:] if f_terms.startswith(" + ") else "-" + f_terms[3:]  # f has no constant
    lam_src = _LAMBDA_CHOICES[int(seed) % len(_LAMBDA_CHOICES)]
    grid = tuple(
        GridAxis(nm, 0.2, 0.8, 2 if idx < 2 else 1)
        for idx, nm in enumerate(names)
    )
    return Scenario(
        name=f"random-curved-{dim}d-seed{seed}",
        dim=dim,
        metric=MetricField(dim, Field.from_table(texts, metric.with_coefs(metric_coefs), dim)),
        f=Field.from_table([f_src], f.with_coefs(coefs[-1:]), dim),
        lam=_parse_lambda(lam_src),
        lam_src=lam_src,
        grid=grid,
        description=f"seeded polynomial perturbation of the flat {dim}-metric",
    )


def _signed_terms(coefs: np.ndarray, suffixes: list) -> list[str]:
    """Each row's terms as text: " + " or " - ", the coefficient's size, then its monomial's suffix."""
    sizes = np.abs(coefs)
    # number_source gives a size that is neither integral nor infinite as its repr
    number = repr if np.all(sizes != np.trunc(sizes)) else number_source
    signs = np.where(coefs < 0, " - ", " + ").tolist()
    return ["".join(map(add, map(add, row, map(number, size)), suffixes)) for row, size in zip(signs, sizes.tolist())]


@lru_cache(maxsize=None)
def _random_tables(dim: int) -> tuple[TermTable, TermTable, list]:
    """The lowered form of a random metric and f, coefficients aside, and each monomial's text.

    The monomials are x_i, then x_i*x_j (i <= j); a metric entry i <= j is
    the constant and then each of them, and f each of them.
    """
    monomials = [(i,) for i in range(dim)] + [(i, j) for i in range(dim) for j in range(i, dim)]
    names = _axis_names(dim)
    width, entries = len(monomials) + 1, dim * (dim + 1) // 2
    metric = TermTable([()] + monomials, [list(range(width))] * entries, np.zeros((entries, width)))
    f = TermTable(monomials, [list(range(width - 1))], np.zeros((1, width - 1)))
    return metric, f, ["".join(" * " + names[i] for i in factors) for factors in monomials]


def builtin_scenario(name: str, seed: int = 0, dim: int = 3, **overrides) -> Scenario:
    if name in ("euclidean", "round-sphere-static", "warped-canonical") and dim != 3:
        raise ScenarioError(f"scenario {name!r} has dimension 3, not {dim}")
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


def parse_scenario_file(text: str) -> Scenario:
    """Parse the plain-text scenario format (see module docstring)."""
    lines = text.splitlines()
    fields: dict[str, str] = {}
    params: dict[str, float] = {}
    metric_rows: list[str] = []
    set_on: dict[str, int] = {}  # the line that set each key
    i = 0
    while i < len(lines):
        raw = lines[i]
        line = raw.strip()
        i += 1
        if not line or line.startswith("#"):
            continue
        if line == "metric:":
            _set_once(set_on, line, i)
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
            _set_once(set_on, f"param {pname}", i)
            try:
                params[pname] = float(value)
            except ValueError:
                params[pname] = math.nan  # rejected below, like a non-finite value
            if not math.isfinite(params[pname]):
                raise ScenarioError(
                    f"scenario file line {i}: bad parameter value {value!r}"
                )
        elif key in _FILE_KEYS:
            _set_once(set_on, key, i)
            fields[key] = value
        else:
            raise ScenarioError(
                f"scenario file line {i}: unknown key {key!r}; valid keys are "
                f"{', '.join(_FILE_KEYS)}, param NAME and metric:"
            )

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
        f = Field([parse(fields["f"], variables=chart_variables(dim), params=tuple(params))])
        lam_src = fields.get("lambda", "1")
        lam = _parse_lambda(lam_src, params)
    except Exception as err:
        raise ScenarioError(f"scenario file: {err}") from err

    grid_src = fields.get("grid")
    if grid_src:
        grid = parse_grid_spec(grid_src, dim)
    else:
        grid = _default_grid(dim, 0.2, 0.8, 2)
    static = fields.get("static", "false").lower()
    if static not in ("true", "false"):
        raise ScenarioError(f"scenario file: static must be true or false, not {fields['static']!r}")
    if static == "true" and dim != 3:
        raise ScenarioError(f"scenario file: static = true needs dim = 3, not {dim}")
    return Scenario(
        name=fields.get("name", "scenario"),
        dim=dim,
        metric=metric,
        f=f,
        lam=lam,
        lam_src=lam_src,
        grid=grid,
        is_static=static == "true",
        description=fields.get("description", ""),
    )


def _set_once(set_on: dict[str, int], key: str, line: int) -> None:
    """Record that ``line`` sets ``key``; a key set twice is most likely a mistake, so it raises."""
    if key in set_on:
        first = set_on[key]
        raise ScenarioError(f"scenario file line {line}: repeated key {key!r}, first set on line {first}")
    set_on[key] = line


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

    Unmentioned axes collapse to a single midpoint value of [0, 1]; an axis
    named twice (``r`` and ``x0`` are one axis) raises.
    """
    names = _axis_names(dim)
    alias = {"x0": "r"}
    specs: dict[str, GridAxis] = {}
    given: dict[str, str] = {}
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
        if axis in given:
            raise ScenarioError(f"grid axis {axis!r} given twice: {given[axis]!r} and {chunk!r}")
        given[axis] = chunk
        try:
            lo, hi, count = float(bits[1]), float(bits[2]), int(bits[3])
        except ValueError:
            raise ScenarioError(f"bad grid numbers in {chunk!r}") from None
        specs[axis] = GridAxis(axis, lo, hi, count)
    return tuple(
        specs.get(nm, GridAxis(nm, 0.5, 0.5, 1)) for nm in names
    )
