"""Chart-local Riemannian tensor calculus with exact (jet) derivatives.

The package evaluates curvature, covariant derivatives and the skew
2-tensor P = lambda(f)(df (x) d|grad f|^2 - d|grad f|^2 (x) df) on
expression-defined metrics, checks every relevant pointwise identity by
residual, and reproduces the warped-product family on which the factor-2
divergence bound |grad P|^2 >= 2 |div P|^2 fails while the sharp
2/(n-1) bound holds.
"""

__version__ = "0.1.0"

from .errors import (
    DegeneratePError,
    EvalDomainError,
    FrameConsistencyError,
    MissingParameterError,
    NonPositiveDefiniteError,
    OrderExceededError,
    ParseError,
    ScenarioError,
    SkewdivError,
    UnknownNameError,
)
from .expr import chart_variables, evaluate, parse, to_source
from .geometry import (
    CurvatureEval,
    Field,
    IdentityResidual,
    MetricField,
    MetricJets,
    cov_derivative,
)
from .identities import (
    bochner_residual,
    static_residual,
)
from .jets import (
    DEFAULT_ORDER,
    Jet,
    partial_derivative,
    seed_variables,
)
from .ptensor import (
    FORM_DICTIONARY,
    FrameEval,
    PointAnalysis,
    PTensorSpec,
    analyze,
    build_frame,
    cyclic_residual,
)
from .scenarios import (
    BUILTIN_NAMES,
    GridAxis,
    Scenario,
    builtin_scenario,
    parse_scenario_file,
    random_scenario,
)
from .warped import (
    ViolationReport,
    ViolationRow,
    WarpedSpec,
    closed_form_eval,
    cross_validate,
    search_violation,
)

__all__ = [name for name in dir() if not name.startswith("_")]
