"""Span recording for the benchmark's traced runs.

The program is not changed. :class:`Tracer.install` replaces, at run time,
the public functions of each ``surveyblend`` module (the functions named in
its ``__all__``, plus a few public helpers that other modules call) with
wrappers that record one span per call. It also wraps the
``NuisanceFit.pi_b``/``.m`` methods, the dataclass checks of ``types``, the
per-replicate function of ``simulate`` (whose argument gives the replicate
number), and counts ``norm.ppf`` calls through a proxy.

A span is ``(name, start, end, parent index, replicate)``. Spans are kept in
memory for one block of work and handed out with :meth:`Tracer.take`
between blocks, so nothing is written while a block is timed.

Self time is a span's duration minus the durations of its direct
children, so nested calls such as pool -> var_estimate -> centering_terms
-> point_estimate are counted once. Each span's self time goes to one
per-layer bucket; the buckets partition the traced time.
"""

from __future__ import annotations

import functools
import inspect
import time
from collections import Counter

LAYERS = ("cli", "types", "simulate", "nuisance", "estimators", "uncertainty", "designs", "combiner")

# Functions that are public in their module but missing from its __all__,
# and the per-replicate function that marks replicate boundaries.
_EXTRA = {
    "cli": ("load_config", "build_estimate_report", "summary_to_csv"),
    "simulate": ("redraw_outcomes", "_replicate_record"),
}
_METHODS = (
    ("nuisance", "NuisanceFit", "pi_b"),
    ("nuisance", "NuisanceFit", "m"),
    ("types", "ObservedData", "__post_init__"),
    ("types", "FinitePopulation", "__post_init__"),
)

# Span name -> per-layer bucket. Names missing here inherit the bucket of
# their nearest enclosing span in the same layer, or take the layer default.
BUCKETS = {
    "cli.import": "cli.import_ms",
    "cli.main": "cli.config_ms",
    "cli.console_main": "cli.config_ms",
    "cli.load_config": "cli.config_ms",
    "cli.read_samples": "cli.parse_ms",
    "cli.build_estimate_report": "cli.report_ms",
    "cli.run_estimate": "cli.write_ms",
    "cli.run_simulate": "cli.write_ms",
    "cli.summary_to_csv": "cli.write_ms",
    "cli.write_sample_csvs": "cli.write_ms",
    "simulate.redraw_outcomes": "simulate.redraw_ms",
    "simulate.draw_samples": "simulate.draw_ms",
    "simulate._replicate_record": "simulate.replicate_ms",
    "simulate.run_replications": "simulate.aggregate_ms",
    "simulate.generate_population": "simulate.aggregate_ms",
    "nuisance.NuisanceFit.pi_b": "nuisance.predict_ms",
    "nuisance.NuisanceFit.m": "nuisance.predict_ms",
    "nuisance.predict_selection": "nuisance.predict_ms",
    "nuisance.predict_outcome": "nuisance.predict_ms",
    "uncertainty.var_estimate": "uncertainty.var_ms",
    "uncertainty.var_prob_estimate": "uncertainty.var_ms",
    "uncertainty.estimate_report": "uncertainty.var_ms",
    "uncertainty.cov_estimate": "uncertainty.cov_ms",
    "designs.ht_cov_estimate": "designs.ht_cov_ms",
    "designs.ht_var_estimate": "designs.ht_cov_ms",
}
LAYER_DEFAULT = {
    "cli": "cli.write_ms",
    "types": "types.validate_ms",
    "simulate": "simulate.replicate_ms",
    "nuisance": "nuisance.fit_ms",
    "estimators": "estimators.point_ms",
    "uncertainty": "uncertainty.var_ms",
    "designs": "designs.other_ms",
    "combiner": "combiner.pool_ms",
}
TIME_BUCKETS = tuple(sorted(set(BUCKETS.values()) | set(LAYER_DEFAULT.values())))

# Span name -> exact call-count metric.
CALL_COUNTS = {
    "nuisance.NuisanceFit.pi_b": "nuisance.pi_b_calls",
    "nuisance.NuisanceFit.m": "nuisance.m_calls",
    "estimators.point_estimate": "estimators.point_calls",
    "uncertainty.centering_terms": "uncertainty.centering_calls",
    "designs.ht_cov_estimate": "designs.ht_cov_calls",
    "combiner.pool": "combiner.pool_calls",
}
COUNT_METRICS = tuple(sorted(set(CALL_COUNTS.values()) | {
    "nuisance.newton_iters", "simulate.norm_ppf_calls", "trace.spans"}))


class Tracer:
    """Records spans from wrappers installed into the surveyblend modules."""

    def __init__(self):
        self.spans: list = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self.rep = None

    def wrap(self, name: str, fn, *, replicate_arg: int | None = None, on_result=None):
        spans, stack = self.spans, self._stack
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = stack[-1] if stack else -1
            index = len(spans)
            spans.append(None)
            stack.append(index)
            outer_rep = self.rep
            if replicate_arg is not None:
                self.rep = args[replicate_arg]
            start = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf()
                stack.pop()
                spans[index] = (name, start, end, parent, self.rep)
                self.rep = outer_rep
            if on_result is not None:
                on_result(result)
            return result

        return wrapper

    def span(self, name: str, start: float, end: float) -> None:
        """Record a root span measured by the caller (used for the CLI import)."""
        self.spans.append((name, start, end, -1, None))

    def take(self) -> tuple[list, Counter]:
        """Hand out and clear the spans and counts recorded so far."""
        if self._stack:
            raise RuntimeError("take() called inside an open span")
        spans, counts = self.spans[:], self.counts.copy()
        self.spans.clear()
        self.counts.clear()
        return spans, counts

    def install(self, package) -> None:
        """Wrap the package's public functions in every module that binds them."""
        import importlib

        modules = {layer: importlib.import_module(f"{package.__name__}.{layer}") for layer in LAYERS}
        replaced: dict[int, object] = {}
        for layer, module in modules.items():
            names = list(getattr(module, "__all__", ())) + list(_EXTRA.get(layer, ()))
            for name in names:
                fn = getattr(module, name, None)
                if not inspect.isfunction(fn) or fn.__module__ != module.__name__:
                    continue
                kwargs = {}
                if name == "_replicate_record":
                    kwargs["replicate_arg"] = 2
                if name == "fit_nuisance":
                    kwargs["on_result"] = self._count_iterations
                replaced[id(fn)] = self.wrap(f"{layer}.{name}", fn, **kwargs)
        for layer, cls_name, method in _METHODS:
            cls = getattr(modules[layer], cls_name)
            setattr(cls, method, self.wrap(f"{layer}.{cls_name}.{method}", getattr(cls, method)))
        counting_norm = None
        for module in [package, *modules.values()]:
            for attr, value in list(vars(module).items()):
                if id(value) in replaced:
                    setattr(module, attr, replaced[id(value)])
                elif attr == "norm" and hasattr(value, "ppf"):
                    counting_norm = counting_norm or _CountingNorm(value, self.counts)
                    setattr(module, attr, counting_norm)

    def _count_iterations(self, fit) -> None:
        self.counts["nuisance.newton_iters"] += int(fit.iterations)


class _CountingNorm:
    """Stands in for ``scipy.stats.norm`` and counts ``ppf`` calls."""

    def __init__(self, norm, counts: Counter):
        self._norm = norm
        self._counts = counts

    def ppf(self, *args, **kwargs):
        self._counts["simulate.norm_ppf_calls"] += 1
        return self._norm.ppf(*args, **kwargs)

    def __getattr__(self, name):
        return getattr(self._norm, name)


def analyse(spans: list, counts: Counter) -> dict:
    """Self time per bucket, exact counts, root time and per-replicate fit times.

    Spans must be in start order with parents before children, as
    :class:`Tracer` records them.
    """
    n = len(spans)
    child = [0.0] * n
    for name, start, end, parent, _ in spans:
        if parent >= 0:
            child[parent] += end - start
    resolved = [""] * n
    buckets = dict.fromkeys(TIME_BUCKETS, 0.0)
    fit_by_rep: dict = {}
    calls = Counter(counts)
    root_s = 0.0
    for i, (name, start, end, parent, rep) in enumerate(spans):
        layer = name.split(".", 1)[0]
        bucket = BUCKETS.get(name)
        if bucket is None:
            parent_bucket = resolved[parent] if parent >= 0 else ""
            bucket = parent_bucket if parent_bucket.startswith(layer + ".") else LAYER_DEFAULT[layer]
        resolved[i] = bucket
        self_s = end - start - child[i]
        buckets[bucket] += self_s
        if bucket == "nuisance.fit_ms" and rep is not None:
            fit_by_rep[rep] = fit_by_rep.get(rep, 0.0) + self_s
        if parent < 0:
            root_s += end - start
        metric = CALL_COUNTS.get(name)
        if metric is not None:
            calls[metric] += 1
    calls["trace.spans"] = n
    return {"self_s": buckets, "counts": {k: calls.get(k, 0) for k in COUNT_METRICS},
            "root_s": root_s, "fit_by_rep": fit_by_rep}
