"""Per-layer tracing installed from outside the library.

Wrappers are bound over the library's public entry points only while a traced
op runs and are removed after it, so untraced ops run the library untouched.

* Module functions are rebound in every ``skewdiv`` namespace that imported
  them (``evaluate`` and ``partial_derivative`` live in several).
* ``Jet`` arithmetic is counted but not spanned: there are thousands of
  calls per grid point, and a span each would swamp the timings.
* The cached properties of ``MetricJets`` and ``PointAnalysis`` are spanned.

A span records its name, start, end and parent; the run adds the op id when
it archives an op's spans.  An entry point that the library no longer has is
skipped, and the metrics resting only on it are reported as absent.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter
from typing import Callable

# (metric, unit).  The names are fixed: later changes cite them.
LAYER_METRICS = (
    ("cli.run_verify.ms", "ms"),
    ("scenarios.build.ms", "ms"),
    ("expr.evaluate.calls", "count"),
    ("expr.evaluate.ms", "ms"),
    ("jets.mul.count", "count"),
    ("jets.add.count", "count"),
    ("jets.compose.count", "count"),
    ("jets.partial.count", "count"),
    ("jets.space.misses", "count"),
    ("geometry.metric_jets.ms", "ms"),
    ("geometry.metric_jets.per_point", "ratio"),
    ("geometry.ginv.ms", "ms"),
    ("geometry.gamma.ms", "ms"),
    ("geometry.curvature.ms", "ms"),
    ("ptensor.P.ms", "ms"),
    ("ptensor.nabla_P.ms", "ms"),
    ("ptensor.div_P.ms", "ms"),
    ("ptensor.norms.ms", "ms"),
    ("ptensor.p_norm_sq_jet.ms", "ms"),
    ("ptensor.laplacian.ms", "ms"),
    ("identities.bochner.ms", "ms"),
    ("warped.closed_form.calls", "count"),
    ("warped.closed_form.ms", "ms"),
    ("warped.engine.ms", "ms"),
    ("report.serialize.ms", "ms"),
    ("trace.overhead_frac", "ratio"),
    ("trace.unattributed_frac", "ratio"),
)

# Module functions: (module, attribute, span name).
FUNCTION_SPANS = (
    ("cli", "run_verify", "cli.run_verify"),
    ("scenarios", "builtin_scenario", "scenarios.build"),
    ("expr", "evaluate", "expr.evaluate"),
    ("identities", "bochner_residual", "identities.bochner"),
    ("warped", "closed_form_eval", "warped.closed_form"),
    ("report", "report_to_json", "report.serialize"),
    ("report", "violation_csv", "report.serialize"),
)
# Rebound only in the named module: ``analyze`` counts as the engine only
# where warped's cross-validation calls it.
LOCAL_SPANS = (("warped", "analyze", "warped.engine"),)
FUNCTION_COUNTS = (("jets", "partial_derivative", "jets.partial"),)
# Class methods: (module, class, attribute, counter).  Every analytic
# function and reciprocal goes through ``_compose``.
METHOD_COUNTS = (
    ("jets", "Jet", "__add__", "jets.add"),
    ("jets", "Jet", "__radd__", "jets.add"),
    ("jets", "Jet", "__sub__", "jets.add"),
    ("jets", "Jet", "__rsub__", "jets.add"),
    ("jets", "Jet", "__neg__", "jets.add"),
    ("jets", "Jet", "__mul__", "jets.mul"),
    ("jets", "Jet", "__rmul__", "jets.mul"),
    ("jets", "Jet", "_compose", "jets.compose"),
    ("ptensor", "PointAnalysis", "__init__", "ptensor.points"),
)
# Constructors that are spanned and also counted, since cached properties
# share their span name.
METHOD_SPANS = (("geometry", "MetricJets", "__init__", "geometry.metric_jets"),)
# Cached properties, grouped into the layer step whose work they are.
PROPERTY_SPANS = {
    ("geometry", "MetricJets"): {
        "g_val": "geometry.metric_jets",
        "ginv": "geometry.ginv",
        "ginv_val": "geometry.ginv",
        "gamma": "geometry.gamma",
        "gamma_val": "geometry.gamma",
        "dgamma_val": "geometry.gamma",
        "curvature": "geometry.curvature",
    },
    ("ptensor", "PointAnalysis"): {
        "fjet": "ptensor.P",
        "df": "ptensor.P",
        "w": "ptensor.P",
        "lam_f": "ptensor.P",
        "P": "ptensor.P",
        "P_val": "ptensor.P",
        "grad_f_val": "ptensor.P",
        "nabla_P": "ptensor.nabla_P",
        "nabla_P_val": "ptensor.nabla_P",
        "div_P": "ptensor.div_P",
        "div_P_val": "ptensor.div_P",
        "nabla_div_P_val": "ptensor.div_P",
        "P_up": "ptensor.norms",
        "p_norm_sq": "ptensor.norms",
        "nabla_p_norm_sq": "ptensor.norms",
        "div_p_norm_sq": "ptensor.norms",
        "violation": "ptensor.norms",
        "sharp_margin": "ptensor.norms",
        "p_norm_sq_jet": "ptensor.p_norm_sq_jet",
        "grad_p_norm_sq_val": "ptensor.p_norm_sq_jet",
        "laplacian_p_norm_sq": "ptensor.laplacian",
    },
}


class Recorder:
    """Spans and counts of the op in progress, kept in memory.

    ``spans`` holds ``[name, start, end, parent]`` rows; ``parent`` is the
    row index of the enclosing span, or -1 for a span directly under the op.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: Counter = Counter()

    def reset(self) -> None:
        self.spans.clear()
        self.stack.clear()
        self.counts.clear()

    def spanned(self, name: str, fn: Callable) -> Callable:
        spans, stack, clock = self.spans, self.stack, self.clock

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            row = [name, clock(), 0.0, stack[-1] if stack else -1]
            stack.append(len(spans))
            spans.append(row)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                row[2] = clock()

        return wrapper

    def counted(self, name: str, fn: Callable) -> Callable:
        counts = self.counts

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return wrapper

    def self_times(self) -> dict[str, float]:
        """Seconds per span name: each span's duration minus its children's."""
        out: Counter = Counter()
        child = [0.0] * len(self.spans)
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        for (name, start, end, _), inner in zip(self.spans, child):
            out[name] += (end - start) - inner
        return dict(out)

    def span_counts(self) -> Counter:
        return Counter(row[0] for row in self.spans)


def _library_modules() -> list:
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "skewdiv" or name.startswith("skewdiv."))
    ]


def _module(short: str):
    return sys.modules.get(f"skewdiv.{short}")


class Instrumentation:
    """The set of wrappers for one :class:`Recorder`; install, then remove.

    ``present`` names every span or counter whose entry point was found.
    """

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self.patches: list[tuple[object, str, object, object]] = []
        self.present: set[str] = set()
        self._plan()

    def _patch(self, owner, attr: str, new, name: str) -> None:
        self.patches.append((owner, attr, vars(owner)[attr], new))
        self.present.add(name)

    def _plan(self) -> None:
        rec = self.recorder

        def _spanned_and_counted(name, fn):
            return rec.counted(name, rec.spanned(name, fn))

        modules = _library_modules()
        for short, attr, name, wrap in (
            [(m, a, n, rec.spanned) for m, a, n in FUNCTION_SPANS]
            + [(m, a, n, rec.counted) for m, a, n in FUNCTION_COUNTS]
        ):
            orig = getattr(_module(short), attr, None)
            if orig is None:
                continue
            new = wrap(name, orig)
            for mod in modules:
                for key, value in vars(mod).items():
                    if value is orig:
                        self._patch(mod, key, new, name)
        for short, attr, name in LOCAL_SPANS:
            mod = _module(short)
            if getattr(mod, attr, None) is not None:
                self._patch(mod, attr, rec.spanned(name, getattr(mod, attr)), name)
        for short, cls_name, attr, name, wrap in (
            [(m, c, a, n, rec.counted) for m, c, a, n in METHOD_COUNTS]
            + [(m, c, a, n, _spanned_and_counted) for m, c, a, n in METHOD_SPANS]
        ):
            cls = getattr(_module(short), cls_name, None)
            if cls is not None and attr in vars(cls):
                self._patch(cls, attr, wrap(name, vars(cls)[attr]), name)
        for (short, cls_name), props in PROPERTY_SPANS.items():
            cls = getattr(_module(short), cls_name, None)
            for attr, name in props.items():
                prop = vars(cls).get(attr) if cls is not None else None
                if not isinstance(prop, functools.cached_property):
                    continue
                new = functools.cached_property(rec.spanned(name, prop.func))
                new.__set_name__(cls, attr)
                self._patch(cls, attr, new, name)

    def install(self) -> None:
        for owner, attr, _, new in self.patches:
            setattr(owner, attr, new)

    def remove(self) -> None:
        for owner, attr, orig, _ in reversed(self.patches):
            setattr(owner, attr, orig)


def jet_space_misses() -> int | None:
    """Cache misses of the jet-space table cache, i.e. tables built so far."""
    jets = _module("jets")
    info = getattr(getattr(jets, "jet_space", None), "cache_info", None)
    return info().misses if info is not None else None
