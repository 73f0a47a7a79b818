"""Spans recorded around calls into categraph's public functions.

The benchmark never edits the package. A traced run replaces each
function in the namespace its caller reads it from (``categraph.cli``
calls ``sample_rw`` through its own module globals, ``categraph.evaluate``
through its own, and so on) with a wrapper that records a span:
name, start, end and the index of the enclosing span. Spans stay in
memory until the run ends; ``self_times`` then reduces them.
"""
from __future__ import annotations

import functools
import os
import time
from collections import Counter

from workloads import SAMPLERS


class Tracer:
    """In-memory span recorder.

    ``spans`` is a list of ``[name, start, end, parent]`` with ``parent``
    the index of the enclosing span or -1; ``counts`` holds the work
    counters recorded at the same boundaries.
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patched: list[tuple[object, str, object]] = []

    def span(self, name: str, fn, count=None):
        """Wrap ``fn`` so that each call records one span named ``name``;
        ``count(counter, args, kwargs, result)`` then updates counters."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            idx = len(self.spans)
            self.spans.append([name, 0.0, 0.0,
                               self._stack[-1] if self._stack else -1])
            self._stack.append(idx)
            self.spans[idx][1] = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[idx][2] = time.perf_counter()
                self._stack.pop()
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        """Replace ``owner.attr`` by a spanning wrapper until ``restore``.

        Handles plain functions, staticmethods and cached properties;
        a cached property records a span only when it computes.
        """
        original = owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)
        if isinstance(original, staticmethod):
            new = staticmethod(self.span(name, original.__func__, count))
        elif isinstance(original, functools.cached_property):
            new = functools.cached_property(self.span(name, original.func, count))
            new.__set_name__(owner, attr)
        else:
            new = self.span(name, original, count)
        setattr(owner, attr, new)
        self._patched.append((owner, attr, original))

    def restore(self) -> None:
        for owner, attr, original in reversed(self._patched):
            setattr(owner, attr, original)
        self._patched.clear()


def self_times(spans) -> list[float]:
    """Each span's duration minus the time its direct children cover.

    Children of one span never overlap (one thread, nested calls), so
    their durations add up.
    """
    own = [end - start for _, start, end, _ in spans]
    for _, start, end, parent in spans:
        if parent >= 0:
            own[parent] -= end - start
    return own


# ---------------------------------------------------------------------------
# what the benchmark wraps, and the per-layer metrics it reduces spans to

def _add(key, value_of):
    def count(counter, args, kwargs, result):
        counter[key] += value_of(args, kwargs, result)
    return count


def _file_bytes(key, positions):
    """Counter adding the sizes of the files named by the given
    positional arguments."""
    return _add(key, lambda a, kw, r: sum(os.path.getsize(a[i]) for i in positions))


def install(tracer: Tracer) -> None:
    """Wrap every public function the workloads reach, where its
    callers look it up."""
    from categraph import cli, estimate, evaluate, fileio, generate, graph, observe

    for mod in (generate, cli):
        tracer.patch(mod, "synthetic_graph", "generate.synthetic_graph")
    tracer.patch(graph.Graph, "from_edges", "graph.from_edges")
    tracer.patch(graph.Graph, "is_connected", "graph.is_connected")
    tracer.patch(graph.Graph, "adjacency_lists", "graph.adjacency_lists")
    for mod in (graph, evaluate):
        tracer.patch(mod, "exact_category_graph", "graph.exact_category_graph")

    for mod in (evaluate, cli):
        for s in SAMPLERS:
            tracer.patch(mod, f"sample_{s}", f"sampling.{s}",
                         _add(f"sampling.{s}_draws", lambda a, kw, r: r.n))

    def observed(counter, args, kwargs, log):
        counter["observe.draws"] += log.n
        if log.induced_edges is not None:
            counter["observe.induced_edges"] += len(log.induced_edges)

    for mod in (evaluate, cli):
        tracer.patch(mod, "observe_star", "observe.star", observed)
        tracer.patch(mod, "observe_induced", "observe.induced", observed)
    tracer.patch(observe.ObservationLog, "resampled", "observe.resampled")

    for mod in (estimate, evaluate, cli):
        tracer.patch(mod, "estimate_category_graph", "estimate.estimate_category_graph")
    for est in ("size_induced", "size_star", "weight_induced", "weight_star"):
        tracer.patch(estimate, f"est_{est}", f"estimate.{est}")
    tracer.patch(cli, "bootstrap_variance", "estimate.bootstrap_variance",
                 _add("estimate.bootstrap_replicates",
                      lambda a, kw, r: a[1] if len(a) > 1 else kw["B"]))

    tracer.patch(evaluate, "run_experiment", "evaluate.run_experiment",
                 _add("evaluate.cells", lambda a, kw, r: len(r.cells)))
    tracer.patch(evaluate, "nrmse", "evaluate.nrmse")

    tracer.patch(fileio, "load_graph", "fileio.load_graph", _file_bytes("fileio.bytes_read", (0, 1)))
    tracer.patch(fileio, "save_graph", "fileio.save_graph", _file_bytes("fileio.bytes_written", (2, 3)))
    for kind in ("trace", "log"):
        tracer.patch(fileio, f"load_{kind}", f"fileio.load_{kind}", _file_bytes("fileio.bytes_read", (0,)))
        tracer.patch(fileio, f"save_{kind}", f"fileio.save_{kind}", _file_bytes("fileio.bytes_written", (1,)))
    tracer.patch(fileio, "save_estimate", "fileio.save_estimate", _file_bytes("fileio.bytes_written", (1,)))

    tracer.patch(cli, "main", "cli.main")


# metric name -> (span name, "total" | "self" | "calls")
SPAN_METRICS = {
    "generate.synthetic_graph_s": ("generate.synthetic_graph", "total"),
    "graph.from_edges_s": ("graph.from_edges", "total"),
    "graph.is_connected_s": ("graph.is_connected", "total"),
    "graph.is_connected_calls": ("graph.is_connected", "calls"),
    "graph.adjacency_lists_s": ("graph.adjacency_lists", "total"),
    "graph.exact_category_graph_s": ("graph.exact_category_graph", "total"),
    **{m: spec for s in SAMPLERS for m, spec in (
        (f"sampling.{s}_s", (f"sampling.{s}", "total")),
        (f"sampling.{s}_calls", (f"sampling.{s}", "calls")))},
    "observe.star_s": ("observe.star", "total"),
    "observe.induced_s": ("observe.induced", "total"),
    "observe.resampled_s": ("observe.resampled", "total"),
    "estimate.estimate_category_graph_s": ("estimate.estimate_category_graph", "total"),
    "estimate.calls": ("estimate.estimate_category_graph", "calls"),
    "estimate.size_induced_s": ("estimate.size_induced", "total"),
    "estimate.size_star_s": ("estimate.size_star", "total"),
    "estimate.weight_induced_s": ("estimate.weight_induced", "total"),
    "estimate.weight_star_s": ("estimate.weight_star", "total"),
    "estimate.bootstrap_variance_s": ("estimate.bootstrap_variance", "total"),
    "evaluate.run_experiment_self_s": ("evaluate.run_experiment", "self"),
    "evaluate.nrmse_s": ("evaluate.nrmse", "total"),
    "fileio.load_graph_s": ("fileio.load_graph", "total"),
    "fileio.load_graph_calls": ("fileio.load_graph", "calls"),
    "fileio.save_graph_s": ("fileio.save_graph", "total"),
    "fileio.save_trace_s": ("fileio.save_trace", "total"),
    "fileio.load_trace_s": ("fileio.load_trace", "total"),
    "fileio.save_log_s": ("fileio.save_log", "total"),
    "fileio.load_log_s": ("fileio.load_log", "total"),
    "fileio.save_estimate_s": ("fileio.save_estimate", "total"),
    "cli.self_s": ("cli.main", "self"),
}

COUNT_METRICS = (
    *(f"sampling.{s}_draws" for s in SAMPLERS),
    "observe.draws", "observe.induced_edges", "estimate.bootstrap_replicates",
    "evaluate.cells", "fileio.bytes_read", "fileio.bytes_written",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Reduce recorded spans and counters to the per-layer metrics.

    ``_s`` metrics are the total time inside calls of that function,
    child spans included; ``self`` metrics exclude the child spans.
    """
    reduced = {"total": Counter(), "self": Counter(), "calls": Counter()}
    for (name, start, end, _), own in zip(tracer.spans, self_times(tracer.spans)):
        reduced["total"][name] += end - start
        reduced["self"][name] += own
        reduced["calls"][name] += 1
    out = {metric: reduced[kind][span] for metric, (span, kind) in SPAN_METRICS.items()}
    out["observe.calls"] = reduced["calls"]["observe.star"] + reduced["calls"]["observe.induced"]
    out.update((metric, tracer.counts[metric]) for metric in COUNT_METRICS)
    return out
