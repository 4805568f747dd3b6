"""Per-layer spans, recorded from outside the package.

The tracer replaces each traced function at every module attribute its
callers look up (``pipeline.sparse_mase``, ``mase.joint_subspace``, ...) with
a wrapper that records one span: name, parent span, start, end and thread.
Spans stay in memory and are written out once, when the run ends. Nothing in
``src/`` changes, and the wrapped functions return exactly what they did, so
the program's outputs are the same with and without tracing.

A layer's self time is its span's duration minus the part of that interval
its child spans cover. Worker threads of the replicate pool have no open span
of their own, so their top-level spans hang off the run's root span.
"""

import functools
import importlib
import itertools
import json
import os
import threading
import time

LAYERS = ("graphs", "mase", "manifold", "regression", "io")


def _count_sampled(counts, args, kwargs, result):
    n_graphs = len(result.graphs)
    n = result.node_count
    counts["graphs.graphs_sampled"] += n_graphs
    counts["graphs.adjacency_mb"] += n_graphs * n * n * 8 / 1e6


def _count_embedded(counts, args, kwargs, result):
    collection = args[0] if args else kwargs["collection"]
    counts["mase.graphs_embedded"] += collection.n_graphs


def _count_edges(counts, args, kwargs, result):
    counts["manifold.edges"] += len(result.edges)


def _count_smacof(counts, args, kwargs, result):
    counts["manifold.smacof_iterations"] += result[1].iterations


def _count_parsed(counts, args, kwargs, result):
    path = args[0] if args else kwargs["path"]
    counts["io.arcs_parsed"] += len(result.edges)
    counts["io.bytes_read"] += os.path.getsize(path)


# (span name, module whose attribute is replaced, attribute, counter). A
# function looked up under two names is listed under both and keeps one span
# name; a call made inside another traced call becomes its child span.
TRACED = (
    ("graphs.sample_collection", "pipeline", "sample_collection", _count_sampled),
    ("mase.sparse_mase", "pipeline", "sparse_mase", _count_embedded),
    ("mase.estimate_sparsity", "mase", "estimate_sparsity", None),
    ("mase.joint_subspace", "mase", "joint_subspace", None),
    ("mase.project_scores", "mase", "project_scores", None),
    ("mase.scaled_score_points", "pipeline", "scaled_score_points", None),
    ("mase.coords_matrix", "pipeline", "coords_matrix", None),
    ("manifold.isomap_1d", "pipeline", "isomap_1d", None),
    ("manifold.localization_graph", "manifold", "localization_graph", _count_edges),
    ("manifold.shortest_path_matrix", "manifold", "shortest_path_matrix", None),
    ("manifold.cmds_embed", "manifold", "cmds_embed", None),
    ("manifold.smacof_minimize", "manifold", "smacof_minimize", _count_smacof),
    ("regression.f_test", "pipeline", "f_test", None),
    ("regression.fit_slr", "pipeline", "fit_slr", None),
    ("regression.fit_slr", "regression", "fit_slr", None),
    ("regression.predict_slr", "pipeline", "predict_slr", None),
    ("regression.fit_local_linear", "pipeline", "fit_local_linear", None),
    ("regression.f_quantile", "regression", "f_quantile", None),
    ("io.load_manifest", "io", "load_manifest", None),
    ("io.load_weighted_edge_list", "io", "load_weighted_edge_list", _count_parsed),
    ("io.censor_binarize", "io", "censor_binarize", None),
    ("io.nonzero_weight_magnitudes", "io", "nonzero_weight_magnitudes", None),
    ("io.write_replicate_records", "io", "write_replicate_records", None),
    ("io.write_embeddings_csv", "io", "write_embeddings_csv", None),
    ("io.emit_csv", "io", "emit_csv", None),
)

_WRITERS = ("io.write_replicate_records", "io.write_embeddings_csv", "io.emit_csv")

COUNTERS = (
    "graphs.graphs_sampled",
    "graphs.adjacency_mb",
    "mase.graphs_embedded",
    "manifold.edges",
    "manifold.smacof_iterations",
    "io.arcs_parsed",
    "io.bytes_read",
)

# Span durations reported as "<name>.s".
TIMED = (
    "graphs.sample_collection",
    "mase.sparse_mase",
    "mase.estimate_sparsity",
    "mase.joint_subspace",
    "mase.project_scores",
    "manifold.isomap_1d",
    "manifold.localization_graph",
    "manifold.shortest_path_matrix",
    "manifold.cmds_embed",
    "manifold.smacof_minimize",
    "regression.f_test",
    "regression.f_quantile",
    "regression.fit_slr",
    "regression.fit_local_linear",
    "io.load_weighted_edge_list",
    "io.censor_binarize",
)


class Span:
    __slots__ = ("span_id", "parent", "name", "start", "end", "thread")

    def __init__(self, span_id, parent, name, start, end, thread):
        self.span_id = span_id
        self.parent = parent
        self.name = name
        self.start = start
        self.end = end
        self.thread = thread

    @property
    def layer(self):
        return self.name.split(".", 1)[0]


class Tracer:
    """Records spans while a root span is open; idle wrappers just delegate."""

    def __init__(self):
        self.spans = []
        self.counts = dict.fromkeys(COUNTERS, 0)
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root = None
        self._installed = []

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name, fn, counter=None):
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if tracer._root is None:
                return fn(*args, **kwargs)
            stack = tracer._stack()
            parent = stack[-1] if stack else tracer._root
            span_id = next(tracer._ids)
            stack.append(span_id)
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                tracer.spans.append(
                    Span(span_id, parent, name, start, end, threading.get_ident())
                )
            if counter is not None:
                counter(tracer.counts, args, kwargs, result)
            return result

        return traced

    def install(self):
        """Replace every traced attribute; uninstall() puts the originals back."""
        wrappers = {}
        for name, module_name, attr, counter in TRACED:
            module = importlib.import_module(f"netmanifold.{module_name}")
            original = getattr(module, attr)
            key = id(original)
            if key not in wrappers:
                wrappers[key] = self.wrap(name, original, counter)
            setattr(module, attr, wrappers[key])
            self._installed.append((module, attr, original))

    def uninstall(self):
        for module, attr, original in reversed(self._installed):
            setattr(module, attr, original)
        self._installed.clear()

    def call(self, fn, *args, **kwargs):
        """Run one entry-point call under a root span named pipeline.run."""
        span_id = next(self._ids)
        self._root = span_id
        start = time.perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = time.perf_counter()
            self._root = None
            self.spans.append(
                Span(span_id, None, "pipeline.run", start, end, threading.get_ident())
            )

    def dump(self, path):
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w") as fh:
            json.dump(
                [
                    [s.span_id, s.parent, s.name, s.start, s.end, s.thread]
                    for s in self.spans
                ],
                fh,
            )


def _union_length(intervals):
    total = 0.0
    end = None
    for lo, hi in sorted(intervals):
        if end is None or lo > end:
            total += hi - lo
            end = hi
        elif hi > end:
            total += hi - end
            end = hi
    return total


def self_times(spans):
    """Map span id -> duration minus the union of its children's intervals."""
    children = {}
    for s in spans:
        children.setdefault(s.parent, []).append((s.start, s.end))
    return {
        s.span_id: (s.end - s.start) - _union_length(children.get(s.span_id, ()))
        for s in spans
    }


def layer_metrics(spans, counts):
    """The per-layer metrics of one traced run, keyed by metric name."""
    by_id = {s.span_id: s for s in spans}
    own = self_times(spans)
    roots = [s for s in spans if s.parent is None]
    run_s = sum(s.end - s.start for s in roots)
    entries = [s for s in spans if s.parent is not None and by_id[s.parent].parent is None]
    busy = sum(s.end - s.start for s in entries)
    metrics = {f"{name}.s": 0.0 for name in TIMED}
    for s in spans:
        if s.name in TIMED:
            metrics[f"{s.name}.s"] += s.end - s.start
    metrics["mase.eigensolve.self_s"] = sum(
        own[s.span_id] for s in spans if s.name == "mase.sparse_mase"
    )
    metrics["regression.calls"] = sum(1 for s in entries if s.layer == "regression")
    metrics["io.write.s"] = sum(
        s.end - s.start
        for s in spans
        if s.name in _WRITERS
        and not (s.parent in by_id and by_id[s.parent].name in _WRITERS)
    )
    metrics.update(counts)
    pipeline_self = sum(own[s.span_id] for s in roots)
    metrics["pipeline.run.s"] = run_s
    metrics["pipeline.self_s"] = pipeline_self
    metrics["pipeline.layer_busy_s"] = busy
    metrics["pipeline.overlap"] = busy / run_s if run_s > 0 else 0.0
    for layer in LAYERS:
        layer_s = sum(s.end - s.start for s in entries if s.layer == layer)
        metrics[f"{layer}.share"] = layer_s / busy if busy > 0 else 0.0
    metrics["pipeline.self_share"] = pipeline_self / run_s if run_s > 0 else 0.0
    metrics["trace.spans"] = len(spans)
    return metrics


def wrapper_cost(calls=20000):
    """Seconds one traced call adds over a direct call, measured on a no-op."""

    def noop():
        return None

    probe = Tracer()
    traced = probe.wrap("probe.noop", noop)

    def loop(fn):
        start = time.perf_counter()
        for _ in range(calls):
            fn()
        return time.perf_counter() - start

    def timed_loop():
        return probe.call(loop, traced)

    samples = []
    for _ in range(5):
        samples.append(timed_loop() - loop(noop))
        probe.spans.clear()
    samples.sort()
    return max(samples[len(samples) // 2], 0.0) / calls
