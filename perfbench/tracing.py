"""Span recording from outside the program: wrappers around each layer's API.

The benchmark never edits ``src/``.  For a traced run it replaces public
methods and functions of each ``repro`` layer with wrappers that open a
span (name, layer, start, end, parent span, phase, process, thread) and
call through.  Spans are kept in memory; processes forked while the
wrappers are installed (process-pool workers, serving shards) append
their spans to a per-process spool file, which the owner merges when the
run ends.

A layer's self time is its spans' duration minus the part of each span
that its direct child spans cover.  Parent links stay within one thread,
so work a layer hands to pool workers shows as the workers' own spans
and the caller's ``parallel.map`` span keeps the time it waited; self
times then add up over processes and threads, not to the wall time.
"""

from __future__ import annotations

import bisect
import functools
import itertools
import json
import os
import sys
import threading
import time
from contextlib import contextmanager

_MISSING = object()


class Recorder:
    """In-memory span store with a per-thread stack of open spans."""

    def __init__(self, spool_dir: str):
        self.owner = os.getpid()
        self.spool_dir = spool_dir
        self.spans: list[dict] = []
        #: Label of the workload phase; forked processes inherit it.
        self.phase = "setup"
        self._local = threading.local()
        self._ids = itertools.count(1)
        self._spool = None
        os.register_at_fork(after_in_child=self._after_fork)

    def _after_fork(self) -> None:
        # Spans open in the parent do not belong to the child.
        self._local = threading.local()
        self.spans = []
        self._spool = None

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def innermost_layer(self) -> str | None:
        stack = self._stack()
        return stack[-1][1] if stack else None

    @contextmanager
    def span(self, name: str, layer: str, **tags):
        stack = self._stack()
        pid = os.getpid()
        span_id = f"{pid}.{next(self._ids)}"
        parent = stack[-1][0] if stack else None
        stack.append((span_id, layer))
        start = time.perf_counter()
        try:
            yield tags
        finally:
            end = time.perf_counter()
            stack.pop()
            self._emit(
                {
                    "id": span_id,
                    "parent": parent,
                    "name": name,
                    "layer": layer,
                    "start": start,
                    "end": end,
                    "phase": self.phase,
                    "pid": pid,
                    "thread": threading.get_ident(),
                    "tags": tags,
                }
            )

    def _emit(self, row: dict) -> None:
        if os.getpid() == self.owner:
            self.spans.append(row)
            return
        if self._spool is None:
            path = os.path.join(self.spool_dir, f"spans-{os.getpid()}.jsonl")
            self._spool = open(path, "a", encoding="utf-8")
        self._spool.write(json.dumps(row, default=str) + "\n")
        self._spool.flush()

    def collect(self) -> list[dict]:
        """Owner spans plus every spooled span from forked processes."""
        rows = list(self.spans)
        for entry in sorted(os.listdir(self.spool_dir)):
            if entry.startswith("spans-") and entry.endswith(".jsonl"):
                with open(os.path.join(self.spool_dir, entry), encoding="utf-8") as fh:
                    rows.extend(json.loads(line) for line in fh if line.strip())
        return rows


def self_times(spans: list[dict]) -> dict[str, float]:
    """Self time of every span: duration minus the union of its children."""
    children: dict[str, list[tuple[float, float]]] = {}
    for row in spans:
        if row["parent"] is not None:
            children.setdefault(row["parent"], []).append((row["start"], row["end"]))
    out = {}
    for row in spans:
        start, end = row["start"], row["end"]
        covered = 0.0
        cursor = start
        for c_start, c_end in sorted(children.get(row["id"], ())):
            c_start, c_end = max(c_start, cursor), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                cursor = c_end
        out[row["id"]] = max(0.0, (end - start) - covered)
    return out


def outermost(spans: list[dict]) -> list[dict]:
    """Spans not running inside a span of the same layer on another thread.

    A pool worker's span is nested in the caller's span of that layer
    when the caller's span contains it in time; counting both would count
    the work twice.  (Within one thread the wrappers never open a span
    inside one of the same layer.)
    """
    by_layer: dict[str, dict[tuple, list]] = {}
    for row in spans:
        lane = (row["pid"], row["thread"])
        by_layer.setdefault(row["layer"], {}).setdefault(lane, []).append(
            (row["start"], row["end"])
        )
    merged: dict[str, dict[tuple, tuple[list, list]]] = {}
    for layer, lanes in by_layer.items():
        for lane, intervals in lanes.items():
            starts, ends = [], []
            for start, end in sorted(intervals):
                if ends and start <= ends[-1]:
                    ends[-1] = max(ends[-1], end)
                else:
                    starts.append(start)
                    ends.append(end)
            merged.setdefault(layer, {})[lane] = (starts, ends)
    out = []
    for row in spans:
        lane = (row["pid"], row["thread"])
        covered = False
        for other, (starts, ends) in merged[row["layer"]].items():
            if other == lane:
                continue
            k = bisect.bisect_right(starts, row["start"]) - 1
            if k >= 0 and ends[k] >= row["end"]:
                covered = True
                break
        if not covered:
            out.append(row)
    return out


def layer_self_times(spans: list[dict]) -> dict[str, float]:
    """Sum of span self times per layer."""
    own = self_times(spans)
    totals: dict[str, float] = {}
    for row in spans:
        totals[row["layer"]] = totals.get(row["layer"], 0.0) + own[row["id"]]
    return totals


class Instrumentation:
    """Installs and removes the layer wrappers for one :class:`Recorder`."""

    def __init__(self, recorder: Recorder):
        self.recorder = recorder
        self._undo: list = []

    # -- wrapping primitives ----------------------------------------------
    def _wrapper(self, func, name, layer, tag_fn=None, nest=False):
        recorder = self.recorder

        @functools.wraps(func)
        def wrapper(*args, **kwargs):
            # A layer calling itself (a forest fitting its trees, extract_many
            # calling extract) is one span of that layer, not nested ones.
            if not nest and recorder.innermost_layer() == layer:
                return func(*args, **kwargs)
            with recorder.span(name, layer) as tags:
                out = func(*args, **kwargs)
                if tag_fn is not None:
                    tags.update(tag_fn(args, out))
                return out

        return wrapper

    def method(self, cls, attr, name, layer, tag_fn=None, nest=False) -> None:
        original = cls.__dict__.get(attr, _MISSING)
        wrapped = self._wrapper(getattr(cls, attr), name, layer, tag_fn, nest)
        setattr(cls, attr, wrapped)
        self._undo.append((cls, attr, original))

    def function(self, module, attr, name, layer, tag_fn=None) -> None:
        """Replace ``module.attr`` everywhere a loaded ``repro`` module binds it."""
        func = getattr(module, attr)
        wrapped = self._wrapper(func, name, layer, tag_fn)
        for mod_name, mod in list(sys.modules.items()):
            if mod_name.split(".")[0] == "repro" and getattr(mod, attr, None) is func:
                setattr(mod, attr, wrapped)
                self._undo.append((mod, attr, func))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._undo):
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)
        self._undo.clear()

    # -- the layers ---------------------------------------------------------
    def install(self) -> "Instrumentation":
        from repro.classifiers.base import CLASSIFIER_REGISTRY
        from repro.clustering.incremental import IncrementalClustering, ShardedClustering
        from repro.clustering.labeling import ClusterLabeler
        from repro.core.adarts import ADarts
        from repro.core.modelrace import ModelRace
        from repro.core.voting import MajorityVotingEnsemble, SoftVotingEnsemble
        from repro.features.extractor import FeatureExtractor
        from repro.imputation.base import IMPUTER_REGISTRY
        from repro.parallel.executor import ExecutionEngine
        from repro.pipeline.pipeline import Pipeline
        from repro.serving.shards import ShardPool
        from repro.timeseries import batch, correlation

        for family, cls in sorted(CLASSIFIER_REGISTRY.items()):
            self.method(cls, "fit", f"classifiers.{family}.fit", "classifiers")
            self.method(cls, "predict_proba", f"classifiers.{family}.predict", "classifiers")
        self.method(Pipeline, "fit", "pipeline.fit", "pipeline")
        self.method(Pipeline, "predict_proba", "pipeline.predict", "pipeline")
        self.method(ModelRace, "run", "modelrace.run", "modelrace", _race_tags)
        for attr in ("fit_datasets", "fit_features"):
            self.method(ADarts, attr, f"adarts.{attr}", "adarts", nest=True)
        self.method(ClusterLabeler, "label_corpus", "clustering.label_corpus",
                    "clustering", lambda a, out: {"series": len(out)})
        for cls in (IncrementalClustering, ShardedClustering):
            self.method(cls, "fit", "clustering.fit", "clustering",
                        lambda a, out: {"clusters": int(out.n_clusters_)}, nest=True)
        for imp_name, cls in sorted(IMPUTER_REGISTRY.items()):
            for attr in ("impute", "impute_many", "impute_series", "impute_series_many"):
                self.method(cls, attr, f"imputation.{imp_name}", "imputation")
        for attr in ("extract", "extract_many", "extract_block"):
            self.method(FeatureExtractor, attr, "features.extract", "features", _rows_tag)
        for cls in (SoftVotingEnsemble, MajorityVotingEnsemble):
            self.method(cls, "predict_proba_detailed", "voting.vote", "voting")
        self.method(ExecutionEngine, "map", "parallel.map", "parallel",
                    lambda a, out: {"tasks": len(out)})
        self.method(ShardPool, "run_batch", "serving.run_batch", "serving", _batch_tags)
        for module, attrs in (
            (batch, ("ncc_cross", "ncc_rowwise", "znorm_rows")),
            (correlation, ("pairwise_correlation_matrix", "sbd_distance_matrix")),
        ):
            for attr in attrs:
                self.function(module, attr, f"timeseries.{attr}", "timeseries")
        return self


def _race_tags(args, result) -> dict:
    return {
        "evaluations": int(result.n_evaluations),
        "prune_ratio": float(result.prune_ratio),
        "failures": int(result.n_failures),
    }


def _rows_tag(args, out) -> dict:
    shape = getattr(out, "shape", ())
    return {"series": int(shape[0]) if len(shape) == 2 else 1}


def _batch_tags(args, out) -> dict:
    requests = args[1]
    _, shard_id, elapsed = out
    return {
        "size": len(requests),
        "shard": int(shard_id),
        "service_s": float(elapsed),
        "ids": [r.id for r in requests],
    }
