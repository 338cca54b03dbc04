"""Spans and counters recorded from outside the program.

The traced run wraps the public functions the benchmark drives -- and the
layer entry points they call -- with timing shims installed at process
start.  Nothing inside ``src/`` is edited: the shims replace module and
class attributes, and every module that imported a wrapped function by
name is patched too, so calls through those names are timed as well.

A span records its wall time and, because spans nest on a stack, its
*self* time: duration minus the time of the spans directly inside it.
A span name already open further up the stack is not re-entered (a
backend that delegates to an inner backend is timed once).
"""

from __future__ import annotations

import functools
import importlib
import sys
import threading
import time
from typing import Callable, Dict, List, Optional

#: Span names whose duration is the whole unit of work of a workload
#: (one fit, one served request, one stream chunk).  ``trace.coverage``
#: is the share of their time covered by the spans directly inside them.
ROOT_SPANS = ("op.fit", "op.chunk", "serving.classify")


class SpanStats:
    """Aggregate of one span name: calls, total, self time, durations."""

    __slots__ = ("calls", "total", "self_total", "durations")

    def __init__(self) -> None:
        self.calls = 0
        self.total = 0.0
        self.self_total = 0.0
        self.durations: List[float] = []

    def as_dict(self) -> Dict[str, object]:
        return {
            "calls": self.calls,
            "total": self.total,
            "self": self.self_total,
            "durations": self.durations,
        }


class Recorder:
    """In-memory span and counter store, written out when asked."""

    def __init__(self) -> None:
        self.spans: Dict[str, SpanStats] = {}
        self.counters: Dict[str, float] = {}
        self.missing: List[str] = []
        self.loaded_models: List[object] = []
        self._local = threading.local()

    # ------------------------------------------------------------------ #
    def _state(self):
        state = self._local
        if not hasattr(state, "stack"):
            state.stack = []
            state.active = {}
        return state

    def count(self, name: str, amount: float = 1) -> None:
        self.counters[name] = self.counters.get(name, 0) + amount

    def timed(self, name: str, function: Callable, *args, **kwargs):
        """Call ``function(*args, **kwargs)`` inside a span called *name*."""
        state = self._state()
        if state.active.get(name):
            return function(*args, **kwargs)
        frame = [0.0]
        state.stack.append(frame)
        state.active[name] = 1
        start = time.perf_counter()
        try:
            return function(*args, **kwargs)
        finally:
            elapsed = time.perf_counter() - start
            state.stack.pop()
            state.active[name] = 0
            if state.stack:
                state.stack[-1][0] += elapsed
            stats = self.spans.get(name)
            if stats is None:
                stats = self.spans[name] = SpanStats()
            stats.calls += 1
            stats.total += elapsed
            stats.self_total += elapsed - frame[0]
            stats.durations.append(elapsed)

    def report(self) -> Dict[str, object]:
        return {
            "spans": {name: stats.as_dict() for name, stats in self.spans.items()},
            "counters": dict(self.counters),
            "missing": list(self.missing),
        }

    def reset(self) -> None:
        self.spans.clear()
        self.counters.clear()


def _wrap(recorder: Recorder, name: str, function: Callable, hook=None) -> Callable:
    @functools.wraps(function)
    def traced(*args, **kwargs):
        result = recorder.timed(name, function, *args, **kwargs)
        if hook is not None:
            hook(recorder, args, result)
        return result

    return traced


def _count_pairs(recorder: Recorder, args, result) -> None:
    # SimilarityEngine.assign_all(self, transactions, representatives)
    recorder.count("similarity.assign_pairs", len(args[1]) * len(args[2]))


def _count_transactions(recorder: Recorder, args, result) -> None:
    # ClusterModel.transact(self, tree) -> the query's transactions
    recorder.count("transactions.count", len(result))
    recorder.count("transactions.items", sum(len(t.items) for t in result))


def _keep_model(recorder: Recorder, args, result) -> None:
    recorder.loaded_models.append(result)


#: (module, attribute, span name, hook) for module-level functions.
FUNCTIONS = (
    ("repro.xmlmodel.parser", "parse_xml", "xmlmodel.parse", None),
    ("repro.transactions.builder", "build_dataset", "transactions.build", None),
    ("repro.similarity.corpus_store", "prepare_engine_corpus", "similarity.prepare", None),
    ("repro.core.model_store", "load_model", "model_store.load", _keep_model),
    ("repro.core.cxkmeans", "run_local_phase", "core.local_phase", None),
    ("repro.network.mpengine", "refine_clusters", "core.refine", None),
    ("repro.serving", "classify_payload", "serving.classify", None),
)

#: (module, class, method, span name, hook) for methods.
METHODS = (
    ("repro.similarity.transaction", "SimilarityEngine", "assign_all", "similarity.assign", _count_pairs),
    ("repro.similarity.transaction", "SimilarityEngine", "score_candidates", "similarity.score", None),
    ("repro.similarity.transaction", "SimilarityEngine", "rank_items_batch", "similarity.score", None),
    ("repro.similarity.corpus_store", "BlockCorpusStore", "append_block", "corpus_store.append", None),
    ("repro.core.model_store", "ClusterModel", "transact", "model_store.transact", _count_transactions),
    ("repro.core.cxkmeans", "CXKMeans", "fit", "core.fit", None),
    ("repro.core.streaming", "StreamingClusterer", "ingest", "streaming.ingest", None),
)

#: Backend methods wrapped on every backend class that defines them.
BACKEND_METHODS = (
    ("compile_corpus", "similarity.compile"),
    ("extend_corpus", "similarity.extend"),
)


def _import(module_name: str):
    try:
        return importlib.import_module(module_name)
    except ImportError:
        return None


def install(recorder: Recorder) -> None:
    """Wrap every target that exists; record the ones that do not."""
    replacements = {}
    for module_name, attribute, span, hook in FUNCTIONS:
        module = _import(module_name)
        original = getattr(module, attribute, None) if module else None
        if original is None:
            recorder.missing.append(f"{module_name}.{attribute}")
            continue
        replacements[id(original)] = (original, _wrap(recorder, span, original, hook))
    for module_name, class_name, method, span, hook in METHODS:
        module = _import(module_name)
        owner = getattr(module, class_name, None) if module else None
        original = owner.__dict__.get(method) if owner is not None else None
        if original is None:
            recorder.missing.append(f"{module_name}.{class_name}.{method}")
            continue
        setattr(owner, method, _wrap(recorder, span, original, hook))
    backend_module = _import("repro.similarity.backend")
    for value in list(vars(backend_module).values()) if backend_module else ():
        if not isinstance(value, type):
            continue
        for method, span in BACKEND_METHODS:
            original = value.__dict__.get(method)
            if callable(original):
                setattr(value, method, _wrap(recorder, span, original))
    # functions imported by name elsewhere are rebound in every module
    for name, module in list(sys.modules.items()):
        if module is None or not (name == "__main__" or name.startswith("repro")):
            continue
        for attribute, value in list(vars(module).items()):
            entry = replacements.get(id(value))
            if entry is not None and entry[0] is value:
                setattr(module, attribute, entry[1])


def percentile(values: List[float], fraction: float) -> float:
    """Linear-interpolated percentile (0 when there are no values)."""
    if not values:
        return 0.0
    ordered = sorted(values)
    position = fraction * (len(ordered) - 1)
    low = int(position)
    high = min(low + 1, len(ordered) - 1)
    return ordered[low] + (ordered[high] - ordered[low]) * (position - low)


def merge_reports(reports: List[Dict[str, object]]) -> Dict[str, object]:
    """Sum span and counter reports from several traced processes."""
    spans: Dict[str, Dict[str, object]] = {}
    counters: Dict[str, float] = {}
    missing: List[str] = []
    for report in reports:
        for name, stats in report["spans"].items():
            merged = spans.setdefault(
                name, {"calls": 0, "total": 0.0, "self": 0.0, "durations": []}
            )
            merged["calls"] += stats["calls"]
            merged["total"] += stats["total"]
            merged["self"] += stats["self"]
            merged["durations"].extend(stats["durations"])
        for name, value in report["counters"].items():
            counters[name] = counters.get(name, 0) + value
        missing.extend(item for item in report["missing"] if item not in missing)
    return {"spans": spans, "counters": counters, "missing": missing}


def span_total(report: Dict[str, object], name: str) -> float:
    return float(report["spans"].get(name, {}).get("total", 0.0))


def span_self(report: Dict[str, object], name: str) -> float:
    return float(report["spans"].get(name, {}).get("self", 0.0))


def span_calls(report: Dict[str, object], name: str) -> int:
    return int(report["spans"].get(name, {}).get("calls", 0))


def span_p50_ms(report: Dict[str, object], name: str) -> float:
    durations = report["spans"].get(name, {}).get("durations", [])
    return percentile(durations, 0.5) * 1000.0


def coverage(report: Dict[str, object]) -> float:
    """Share of root-span time covered by the spans directly inside them."""
    total = sum(span_total(report, name) for name in ROOT_SPANS)
    if total <= 0.0:
        return 0.0
    own = sum(span_self(report, name) for name in ROOT_SPANS)
    return (total - own) / total


def span_context(recorder: Optional[Recorder], name: str, function: Callable, *args):
    """Run *function* in a span when tracing, bare otherwise."""
    if recorder is None:
        return function(*args)
    return recorder.timed(name, function, *args)
