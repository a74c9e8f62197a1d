"""Spans around expanderlab's public functions, recorded from outside the package.

A Tracer replaces each target function on every loaded expanderlab module that
binds it, so a name imported with `from expanderlab.bigraph import ...` (as
`product` does) is caught as well as a call through the module attribute, and
so are same-module calls such as `inheritance_check` -> `port_set`.  The
originals are restored when the tracer is removed.  Spans stay in memory: each
has its name, start, end, parent span and the call's return value.

`layer_metrics` turns the spans of one job into the per-layer metrics.  A
span's self time is its duration minus the part covered by its child spans.
"""

from __future__ import annotations

import sys
import time
from collections import Counter, defaultdict
from dataclasses import dataclass

# The public functions that each layer's metrics need.  Small helpers that run
# hundreds of thousands of times (`params.is_prime_power`) are left unwrapped
# so that their cost stays in the caller's self time instead of inflating it.
TARGETS = {
    "bigraph": ("read_graph", "write_graph", "neighbourhood", "unique_neighbours"),
    "spectral": ("spectrum",),
    "nbwalk": ("lemma6_sweep", "build_nb_operators", "lemma8_upper_check"),
    "gadget": ("sample_biregular", "verify_unique_neighbour_upto"),
    "product": ("routed_product", "port_set", "inheritance_check"),
    "params": ("qhat",),
    "cli": ("main", "cmd_pipeline"),
}
LAYERS = tuple(TARGETS)

# Counts that must repeat exactly for a fixed workload seed.
EXACT_COUNTS = (
    "gadget.subsets_checked",
    "params.qhat_failures_found",
    "nbwalk.lemma6_evals",
    "nbwalk.lemma8_checks",
    "product.inheritance_checks",
)


@dataclass
class Span:
    name: str
    start: float
    end: float
    parent: int  # index into Tracer.spans; -1 for a top-level span
    result: object = None


class Tracer:
    def __init__(self):
        self.spans: list[Span] = []
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def __enter__(self) -> "Tracer":
        modules = [m for name, m in list(sys.modules.items())
                   if name == "expanderlab" or name.startswith("expanderlab.")]
        for layer, names in TARGETS.items():
            home = sys.modules[f"expanderlab.{layer}"]
            for fname in names:
                original = getattr(home, fname)
                wrapper = self._wrap(f"{layer}.{fname}", original)
                for module in modules:
                    for attr, value in list(vars(module).items()):
                        if value is original:
                            self._saved.append((module, attr, original))
                            setattr(module, attr, wrapper)
        return self

    def __exit__(self, *exc) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, name: str, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            span = Span(name, clock(), 0.0, stack[-1] if stack else -1)
            stack.append(len(spans))
            spans.append(span)
            try:
                span.result = fn(*args, **kwargs)
                return span.result
            finally:
                stack.pop()
                span.end = clock()

        wrapper.__wrapped__ = fn
        return wrapper

    def take_spans(self) -> list[Span]:
        """The spans recorded since the last call; the tracer starts a fresh list."""
        taken = list(self.spans)
        self.spans.clear()
        return taken


def self_times(spans: list[Span]) -> list[float]:
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [(s.end - s.start) - c for s, c in zip(spans, covered)]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans: list[Span]) -> dict[str, float]:
    """Per-layer times, counts and ratios of one job.  An idle layer reads 0."""
    inclusive: dict[str, float] = defaultdict(float)
    calls: Counter = Counter()
    layer_self: dict[str, float] = defaultdict(float)
    for span, own in zip(spans, self_times(spans)):
        inclusive[span.name] += span.end - span.start
        calls[span.name] += 1
        layer_self[span.name.split(".")[0]] += own

    def results(name):
        return [s for s in spans if s.name == name]

    m: dict[str, float] = {}

    qhats = [s.result for s in results("params.qhat")]
    m["params.qhat_s"] = inclusive["params.qhat"]
    m["params.qhat_calls"] = calls["params.qhat"]
    m["params.qhat_failures_found"] = sum(r.failures_found for r in qhats)

    sweeps = [s.result for s in results("nbwalk.lemma6_sweep")]
    evals = sum(r.samples * len(r.entries) for r in sweeps)
    m["nbwalk.lemma6_sweep_s"] = inclusive["nbwalk.lemma6_sweep"]
    m["nbwalk.lemma6_evals"] = evals
    m["nbwalk.lemma6_evals_per_s"] = _ratio(evals, inclusive["nbwalk.lemma6_sweep"])
    m["nbwalk.build_nb_operators_s"] = inclusive["nbwalk.build_nb_operators"]
    m["nbwalk.lemma8_upper_check_s"] = inclusive["nbwalk.lemma8_upper_check"]
    m["nbwalk.lemma8_checks"] = calls["nbwalk.lemma8_upper_check"]

    spectra = [s.result for s in results("spectral.spectrum")]
    m["spectral.spectrum_s"] = inclusive["spectral.spectrum"]
    m["spectral.spectrum_calls"] = calls["spectral.spectrum"]
    m["spectral.zero_margin"] = zero_margin(spectra[0]) if spectra else 0.0

    verifies = results("gadget.verify_unique_neighbour_upto")
    proved = [s for s in verifies if s.result.verified_k == s.result.target_k]
    subsets = sum(s.result.subsets_checked for s in verifies)
    verify_s = inclusive["gadget.verify_unique_neighbour_upto"]
    m["gadget.sample_s"] = inclusive["gadget.sample_biregular"]
    m["gadget.verify_s"] = verify_s
    m["gadget.prove_s"] = sum((s.end - s.start for s in proved), 0.0)
    m["gadget.refute_s"] = verify_s - m["gadget.prove_s"]
    m["gadget.attempts"] = len(verifies)
    m["gadget.accept_ratio"] = _ratio(len(proved), len(verifies))
    m["gadget.subsets_checked"] = subsets
    m["gadget.subsets_per_s"] = _ratio(subsets, verify_s)

    m["product.routed_product_s"] = inclusive["product.routed_product"]
    m["product.inheritance_check_s"] = inclusive["product.inheritance_check"]
    m["product.inheritance_checks"] = calls["product.inheritance_check"]

    for name in ("read_graph", "write_graph", "neighbourhood", "unique_neighbours"):
        m[f"bigraph.{name}_s"] = inclusive[f"bigraph.{name}"]
    m["cli.pipeline_s"] = inclusive["cli.cmd_pipeline"]

    for layer in LAYERS:
        m[f"{layer}.self_s"] = layer_self[layer]
    m["trace.self_sum_s"] = sum(layer_self.values())
    return m


def unit(metric: str) -> str:
    if metric.endswith("_per_s"):
        return "1/s"
    if metric.endswith("_s"):
        return "s"
    if metric.endswith(("_ratio", "_margin")):
        return "ratio"
    return "count"


def zero_margin(report) -> float:
    """Tolerance over the largest singular value classified as zero (0 when none is)."""
    zeros = [s for s, c in zip(report.singular_values, report.classifications) if c == "zero"]
    if not zeros:
        return 0.0
    return report.tolerance / max(max(zeros), sys.float_info.min)
