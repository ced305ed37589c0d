"""Spans for the traced run, recorded from outside the program.

The tracer replaces public functions of each layer at the module attribute
where their caller looks them up (``isarith.cli.sample_image``,
``isarith.expr.mul_models`` and so on) with a wrapper that records a span:
name, start, end, parent span and task id.  Spans stay in memory until the
run ends.  The interval layer is not wrapped: its operations take a few
microseconds, so a span per call would cost more than the call.  Its time
shows up as self time of the callers, and the microbenchmarks measure it.
"""

from __future__ import annotations

import time
from contextlib import contextmanager

from scipy.spatial import cKDTree

from isarith import bivariate, cli, expr, model, oracle, univariate

# module -> names looked up there at call time
CALL_SITES = {
    cli: (
        "parse", "parse_vector", "parse_domain_spec", "eval_ism", "eval_interval",
        "self_compose", "sample_image", "hausdorff_enclosure", "hausdorff_piecewise",
    ),
    expr: (
        "compose", "sqrt_model", "cot_model", "pow_model", "recip_model", "add_models",
        "sub_models", "mul_models", "div_models", "scalar_affine", "init_variable",
        "init_constant",
    ),
    univariate: ("central_points", "remainder_bound", "compose"),
    bivariate: ("product_workspace", "compose", "recip_model", "mul_models", "init_constant"),
    oracle: ("eval_points",),
}
METHODS = ((model.SuperpositionModel, "range_bounds"), (oracle.ImageSample, "kd_tree"))

LAYERS = ("cli", "expr", "univariate", "bivariate", "model", "oracle")


def span_name(fn) -> str:
    return f"{fn.__module__.rsplit('.', 1)[-1]}.{fn.__name__}"


class Tracer:
    """Span store.  A span is [name, start, end, parent index, task id]."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.task = 0
        self.nodes_built = 0
        self.points_queried = 0
        self._stack: list[int] = []

    def wrap(self, fn, name: str | None = None):
        name = name or span_name(fn)
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.task]
            stack.append(len(spans))
            spans.append(span)
            span[1] = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()

        return traced

    def call(self, name: str, fn, *args, **kwargs):
        """Run fn under a span of the given name (the harness's own tasks)."""
        return self.wrap(fn, name)(*args, **kwargs)

    def self_times(self) -> dict[str, tuple[float, int]]:
        """Self time in seconds and call count per span name."""
        inner = [0.0] * len(self.spans)
        for _, start, end, parent, _ in self.spans:
            if parent >= 0:
                inner[parent] += end - start
        out: dict[str, list] = {}
        for (name, start, end, _, _), child in zip(self.spans, inner):
            acc = out.setdefault(name, [0.0, 0])
            acc[0] += end - start - child
            acc[1] += 1
        return {k: (v[0], v[1]) for k, v in out.items()}


def counting_tree(tracer: Tracer):
    """cKDTree whose queries add their point count to the tracer."""

    class CountingTree(cKDTree):
        def query(self, x, *args, **kwargs):
            tracer.points_queried += len(x)
            return super().query(x, *args, **kwargs)

    return CountingTree


@contextmanager
def patched(replacements):
    """Set (owner, attribute, value) triples, restoring the originals on exit."""
    saved = [(owner, attr, getattr(owner, attr)) for owner, attr, _ in replacements]
    try:
        for owner, attr, value in replacements:
            setattr(owner, attr, value)
        yield
    finally:
        for owner, attr, value in reversed(saved):
            setattr(owner, attr, value)


@contextmanager
def tracing(tracer: Tracer):
    """Record spans at every call site in CALL_SITES and METHODS."""
    swaps = []
    for module, names in CALL_SITES.items():
        for attr in names:
            fn = getattr(module, attr)
            if module is cli and attr == "eval_ism":
                fn = _counting_nodes(tracer, fn)
            swaps.append((module, attr, tracer.wrap(fn, span_name(getattr(module, attr)))))
    for cls, attr in METHODS:
        swaps.append((cls, attr, tracer.wrap(getattr(cls, attr), f"{cls.__module__.rsplit('.', 1)[-1]}.{attr}")))
    swaps.append((oracle, "cKDTree", counting_tree(tracer)))
    with patched(swaps):
        yield tracer


def _counting_nodes(tracer: Tracer, fn):
    def counted(e, *args, **kwargs):
        tracer.nodes_built += len(e.nodes)
        return fn(e, *args, **kwargs)

    return counted
