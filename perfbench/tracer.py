"""Per-layer spans around one soilspec CLI call, recorded from outside the package.

Usage (``src`` must be on PYTHONPATH)::

    python perfbench/tracer.py TRACE.json -- generate --out data --threads 2

The script imports soilspec, wraps the public functions of every layer at
the binding its caller actually looks up (``soilspec.pipeline.smote``, not
``soilspec.ml.smote.smote``; class methods on the class), runs
``soilspec.cli.main`` with the remaining arguments, writes the layer totals
to TRACE.json and exits with the CLI's exit code.

Spans are kept per thread: each thread has its own stack, so work done in
the program's thread pools (forest trees, cube workers) is attributed to the
thread that did it. ``busy_s`` sums span time over threads (it can exceed
wall time when two threads are busy); ``*_wall_s`` is the union of the
intervals across threads. A span nested inside an open span of the same key
in the same thread adds no busy time, so recursive and delegating calls are
counted once.
"""

from __future__ import annotations

import functools
import hashlib
import importlib
import json
import os
import sys
import threading
import time
from collections import defaultdict
from contextlib import contextmanager

LAYERS = (
    "synthgen",
    "cubeio",
    "preprocess",
    "features",
    "lda",
    "ml.smote",
    "ml.knn",
    "ml.trees",
    "ml.metrics",
    "triangle",
    "pipeline",
    "cli",
)

# Counters and times, in the order they are reported. Every name here is a
# per-layer metric of the benchmark; see BENCHMARK.json.
LAYER_METRICS = (
    ("synthgen.cubes", "count"),
    ("synthgen.busy_s", "s"),
    ("cubeio.msc_write.bytes", "bytes"),
    ("cubeio.msc_write.busy_s", "s"),
    ("cubeio.msc_read.bytes", "bytes"),
    ("cubeio.msc_read.busy_s", "s"),
    ("cubeio.csv_write.rows", "count"),
    ("cubeio.csv_write.busy_s", "s"),
    ("cubeio.csv_read.rows", "count"),
    ("cubeio.csv_read.busy_s", "s"),
    ("preprocess.cubes", "count"),
    ("preprocess.busy_s", "s"),
    ("features.block_means.busy_s", "s"),
    ("features.scaler.fits", "count"),
    ("features.scaler.busy_s", "s"),
    ("lda.fits", "count"),
    ("lda.k_selected", "count"),
    ("lda.busy_s", "s"),
    ("ml.smote.rows_out", "count"),
    ("ml.smote.busy_s", "s"),
    ("ml.knn.queries", "count"),
    ("ml.knn.busy_s", "s"),
    ("ml.knn.us_per_query", "us"),
    ("ml.trees.fits", "count"),
    ("ml.trees.nodes", "count"),
    ("ml.trees.fit_busy_s", "s"),
    ("ml.trees.fit_wall_s", "s"),
    ("ml.trees.predict_busy_s", "s"),
    ("ml.metrics.busy_s", "s"),
    ("triangle.rows", "count"),
    ("triangle.busy_s", "s"),
    ("pipeline.fit_fold.calls", "count"),
    ("pipeline.fit_fold.useful_ratio", "ratio"),
    ("pipeline.self_s", "s"),
    ("cli.import_s", "s"),
    ("cli.generate_s", "s"),
    ("cli.extract_s", "s"),
    ("cli.evaluate_s", "s"),
    ("cli.self_s", "s"),
) + tuple((f"{layer}.calls", "count") for layer in LAYERS) + tuple(
    (f"{layer}.failed", "count") for layer in LAYERS
)

# Totals combine across calls by summing, except these, which take the max.
MAX_METRICS = frozenset({"lda.k_selected"})


class _Span:
    __slots__ = ("key", "layer", "start", "end", "children_s", "failed",
                 "outer_key", "outer_layer")


def layer_of(key: str) -> str:
    """The layer a span key belongs to: its longest prefix in LAYERS."""
    best = ""
    for layer in LAYERS:
        if (key == layer or key.startswith(layer + ".")) and len(layer) > len(best):
            best = layer
    if not best:
        raise ValueError(f"span key {key!r} names no layer")
    return best


class Tracer:
    """In-memory span recorder with one span stack per thread."""

    def __init__(self) -> None:
        self._local = threading.local()
        self._lock = threading.Lock()
        self.spans: list[_Span] = []
        self.counts: dict[str, float] = defaultdict(float)
        self.fold_keys: set[str] = set()

    def _stack(self) -> list[_Span]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    @contextmanager
    def span(self, key: str):
        stack = self._stack()
        span = _Span()
        span.key = key
        span.layer = layer_of(key)
        span.outer_key = all(open_.key != key for open_ in stack)
        span.outer_layer = all(open_.layer != span.layer for open_ in stack)
        span.children_s = 0.0
        span.failed = False
        parent = stack[-1] if stack else None
        stack.append(span)
        span.start = time.perf_counter()
        try:
            yield span
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()
            if parent is not None:
                parent.children_s += span.end - span.start
            with self._lock:
                self.spans.append(span)

    def add(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] += value

    def maximum(self, name: str, value: float) -> None:
        with self._lock:
            self.counts[name] = max(self.counts[name], value)

    def add_fold(self, key: str) -> None:
        with self._lock:
            self.fold_keys.add(key)

    # -- aggregation -------------------------------------------------------

    def busy(self, key: str) -> float:
        return sum(s.end - s.start for s in self.spans if s.key == key and s.outer_key)

    def self_time(self, layer: str) -> float:
        return sum(
            s.end - s.start - s.children_s for s in self.spans if s.layer == layer
        )

    def wall(self, keys) -> float:
        """Length of the union of the intervals of spans with these keys."""
        intervals = sorted((s.start, s.end) for s in self.spans if s.key in keys)
        total = 0.0
        cur_start = cur_end = None
        for start, end in intervals:
            if cur_end is None or start > cur_end:
                if cur_end is not None:
                    total += cur_end - cur_start
                cur_start, cur_end = start, end
            else:
                cur_end = max(cur_end, end)
        if cur_end is not None:
            total += cur_end - cur_start
        return total

    def totals(self) -> dict[str, float]:
        """Additive per-layer totals of this process (see combine())."""
        out = {name: float(value) for name, value in self.counts.items()}
        for key in (
            "synthgen", "cubeio.msc_write", "cubeio.msc_read", "cubeio.csv_write",
            "cubeio.csv_read", "preprocess", "features.block_means",
            "features.scaler", "lda", "ml.smote", "ml.knn", "ml.metrics", "triangle",
        ):
            out[f"{key}.busy_s"] = self.busy(key)
        out["ml.trees.fit_busy_s"] = self.busy("ml.trees.fit")
        out["ml.trees.fit_wall_s"] = self.wall({"ml.trees.fit", "ml.trees.forest_fit"})
        out["ml.trees.predict_busy_s"] = self.busy("ml.trees.predict")
        out["pipeline.self_s"] = self.self_time("pipeline")
        for command in ("generate", "extract", "evaluate"):
            out[f"cli.{command}_s"] = self.busy(f"cli.{command}")
        out["cli.self_s"] = self.self_time("cli")
        out["pipeline.fit_fold.distinct"] = float(len(self.fold_keys))
        for layer in LAYERS:
            outer = [s for s in self.spans if s.layer == layer and s.outer_layer]
            out[f"{layer}.calls"] = float(len(outer))
            out[f"{layer}.failed"] = float(sum(s.failed for s in outer))
        return out


def combine(per_call: list[dict[str, float]]) -> dict[str, float]:
    """Merge the totals of several traced calls into the reported metrics."""
    merged: dict[str, float] = defaultdict(float)
    for totals in per_call:
        for name, value in totals.items():
            if name in MAX_METRICS:
                merged[name] = max(merged[name], value)
            else:
                merged[name] += value
    queries = merged["ml.knn.queries"]
    merged["ml.knn.us_per_query"] = (
        merged["ml.knn.busy_s"] * 1e6 / queries if queries else 0.0
    )
    calls = merged["pipeline.fit_fold.calls"]
    merged["pipeline.fit_fold.useful_ratio"] = (
        merged["pipeline.fit_fold.distinct"] / calls if calls else 0.0
    )
    return {name: float(merged[name]) for name, _ in LAYER_METRICS}


# -- what to wrap ----------------------------------------------------------------
#
# Each hook sees (tracer, args, kwargs, result) after a call that returned.


def _count(name):
    def hook(tracer, args, kwargs, result):
        tracer.add(name, 1)
    return hook


def _written_bytes(tracer, args, kwargs, result):
    tracer.add("cubeio.msc_write.bytes", os.path.getsize(args[1]))


def _read_bytes(tracer, args, kwargs, result):
    tracer.add("cubeio.msc_read.bytes", os.path.getsize(args[0]))


def _csv_written(tracer, args, kwargs, result):
    tracer.add("cubeio.csv_write.rows", len(args[0]))


def _csv_read(tracer, args, kwargs, result):
    tracer.add("cubeio.csv_read.rows", len(result))


def _lda_fit(tracer, args, kwargs, result):
    tracer.add("lda.fits", 1)
    tracer.maximum("lda.k_selected", result.k_selected)


def _smote_rows(tracer, args, kwargs, result):
    tracer.add("ml.smote.rows_out", len(result[0]))


def _knn_predict(tracer, args, kwargs, result):
    tracer.add("ml.knn.queries", len(args[1]))


def _tree_fit(tracer, args, kwargs, result):
    tracer.add("ml.trees.fits", 1)
    tracer.add("ml.trees.nodes", args[0]._tree.feature.size)


def _triangle_rows(tracer, args, kwargs, result):
    tracer.add("triangle.rows", len(args[0]))


def _fit_fold(tracer, args, kwargs, result):
    # A fit is useful once per (training rows, strategy family): strategies
    # 2 and 3 share one regression fit, and the transforms do not depend on
    # the learner.
    train_index = args[1] if len(args) > 1 else kwargs["train_index"]
    strategy = args[2] if len(args) > 2 else kwargs["strategy"]
    h = hashlib.sha256(train_index.tobytes())
    h.update(b"1" if strategy == 1 else b"2")
    tracer.add("pipeline.fit_fold.calls", 1)
    tracer.add_fold(h.hexdigest())


_TREES = "soilspec.ml.trees"
PATCHES = (
    # (owner, attribute, span key, hook). The owner is the module or class
    # whose attribute the caller looks up at call time.
    ("soilspec.synthgen", "synthesize_cube", "synthgen", _count("synthgen.cubes")),
    ("soilspec.synthgen", "synthesize_dark_frame", "synthgen", None),
    # These two mostly wait for their cube workers: they get their own key
    # so that waiting is neither busy synthesis time nor CLI self time.
    ("soilspec.synthgen", "generate_dataset", "synthgen.dispatch", None),
    ("soilspec.synthgen", "extract_tables", "synthgen.dispatch", None),
    ("soilspec.synthgen", "write_cube", "cubeio.msc_write", _written_bytes),
    ("soilspec.synthgen", "write_dark_frame", "cubeio.msc_write", _written_bytes),
    ("soilspec.synthgen", "read_cube", "cubeio.msc_read", _read_bytes),
    ("soilspec.synthgen", "read_dark_frame", "cubeio.msc_read", _read_bytes),
    ("soilspec.cli", "write_observation_csv", "cubeio.csv_write", _csv_written),
    ("soilspec.cli", "read_observation_csv", "cubeio.csv_read", _csv_read),
    ("soilspec.synthgen", "preprocess_cube", "preprocess", _count("preprocess.cubes")),
    ("soilspec.synthgen", "block_means", "features.block_means", None),
    ("soilspec.synthgen", "flatten_observations", "features.block_means", None),
    ("soilspec.features:MinMaxScaler", "fit", "features.scaler",
     _count("features.scaler.fits")),
    ("soilspec.features:MinMaxScaler", "transform", "features.scaler", None),
    ("soilspec.pipeline", "scatter", "lda", None),
    ("soilspec.pipeline", "fit_lda", "lda", _lda_fit),
    ("soilspec.pipeline", "project", "lda", None),
    ("soilspec.pipeline", "smote", "ml.smote", _smote_rows),
    ("soilspec.ml.knn:KnnClassifier", "fit", "ml.knn", None),
    ("soilspec.ml.knn:KnnClassifier", "predict", "ml.knn", _knn_predict),
    ("soilspec.ml.knn:KnnRegressor", "fit", "ml.knn", None),
    ("soilspec.ml.knn:KnnRegressor", "predict", "ml.knn", _knn_predict),
    (f"{_TREES}:DecisionTreeClassifier", "fit", "ml.trees.fit", _tree_fit),
    (f"{_TREES}:DecisionTreeRegressor", "fit", "ml.trees.fit", _tree_fit),
    (f"{_TREES}:RandomForestClassifier", "fit", "ml.trees.forest_fit", None),
    (f"{_TREES}:RandomForestRegressor", "fit", "ml.trees.forest_fit", None),
    (f"{_TREES}:DecisionTreeClassifier", "predict", "ml.trees.predict", None),
    (f"{_TREES}:DecisionTreeClassifier", "predict_counts", "ml.trees.predict", None),
    (f"{_TREES}:DecisionTreeRegressor", "predict", "ml.trees.predict", None),
    (f"{_TREES}:RandomForestClassifier", "predict", "ml.trees.predict", None),
    (f"{_TREES}:RandomForestRegressor", "predict", "ml.trees.predict", None),
    ("soilspec.pipeline", "classification_metrics", "ml.metrics", None),
    ("soilspec.pipeline", "regression_metrics", "ml.metrics", None),
    ("soilspec.pipeline", "normalize_predictions", "triangle", _triangle_rows),
    ("soilspec.pipeline", "classify_percentages", "triangle", None),
    ("soilspec.pipeline", "make_folds", "pipeline", None),
    ("soilspec.pipeline", "run_strategies", "pipeline", None),
    ("soilspec.pipeline", "run_external_validation", "pipeline", None),
    ("soilspec.pipeline", "fit_fold", "pipeline", _fit_fold),
    ("soilspec.pipeline", "evaluate_fold", "pipeline", None),
    ("soilspec.pipeline", "write_results_csv", "pipeline", None),
    ("soilspec.pipeline", "write_aggregate_csv", "pipeline", None),
    ("soilspec.pipeline", "write_confusion_csv", "pipeline", None),
    ("soilspec.pipeline", "write_external_csv", "pipeline", None),
    ("soilspec.cli", "cmd_generate", "cli.generate", None),
    ("soilspec.cli", "cmd_extract", "cli.extract", None),
    ("soilspec.cli", "cmd_evaluate", "cli.evaluate", None),
)


def _resolve(owner: str):
    module_name, _, class_name = owner.partition(":")
    target = importlib.import_module(module_name)
    return getattr(target, class_name) if class_name else target


def _wrap(tracer: Tracer, func, key: str, hook):
    @functools.wraps(func)
    def traced(*args, **kwargs):
        with tracer.span(key):
            result = func(*args, **kwargs)
        if hook is not None:
            hook(tracer, args, kwargs, result)
        return result

    return traced


def install(tracer: Tracer) -> list[tuple[object, str, object]]:
    """Wrap every binding in PATCHES; returns what uninstall() restores."""
    saved = []
    for owner, attribute, key, hook in PATCHES:
        target = _resolve(owner)
        # Look the attribute up through the class (inherited methods too),
        # but restore exactly what the owner's own namespace held.
        original = getattr(target, attribute)
        saved.append((target, attribute, vars(target).get(attribute)))
        setattr(target, attribute, _wrap(tracer, original, key, hook))
    return saved


def uninstall(saved) -> None:
    for target, attribute, original in reversed(saved):
        if original is None:
            delattr(target, attribute)
        else:
            setattr(target, attribute, original)


def main(argv: list[str]) -> int:
    if len(argv) < 2 or argv[1] != "--":
        print("usage: tracer.py TRACE.json -- <soilspec arguments>", file=sys.stderr)
        return 2
    out_path, cli_args = argv[0], argv[2:]
    start = time.perf_counter()
    import soilspec.cli

    import_s = time.perf_counter() - start
    tracer = Tracer()
    tracer.add("cli.import_s", import_s)
    install(tracer)
    code = soilspec.cli.main(cli_args)
    with open(out_path, "w") as fh:
        json.dump(tracer.totals(), fh, sort_keys=True)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
