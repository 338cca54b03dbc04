"""Per-layer metrics from traced spans and the program's own counts.

A layer the workload never calls reads 0 (for example the serving
generator on fit-cxk).
"""

from __future__ import annotations

import sys
from typing import Dict, List

import tracer
from common import PER_LAYER


def from_report(reports: List[dict], counts: Dict[str, float]) -> Dict[str, float]:
    """Combine span reports of several traced operations with counts."""
    report = tracer.merge_reports(reports)
    if report["missing"]:
        # a renamed or removed entry point: its layer reads 0 until the
        # shim table in tracer.py follows it
        print(f"trace: not found: {', '.join(report['missing'])}", file=sys.stderr)

    def total(name: str) -> float:
        return tracer.span_total(report, name)

    hits = counts.get("tagpath.hits", 0)
    lookups = hits + counts.get("tagpath.misses", 0)
    transactions = counts.get("transactions.count", 0)
    return {
        "xmlmodel.parse_s": total("xmlmodel.parse"),
        "xmlmodel.parse_ms_p50": tracer.span_p50_ms(report, "xmlmodel.parse"),
        "transactions.build_s": total("transactions.build") + total("model_store.transact"),
        "model_store.transact_ms_p50": tracer.span_p50_ms(report, "model_store.transact"),
        "transactions.count": transactions,
        "transactions.items": counts.get("transactions.items", 0),
        "similarity.assign_s": total("similarity.assign"),
        "similarity.assign_ms_p50": tracer.span_p50_ms(report, "similarity.assign"),
        "similarity.assign_calls": tracer.span_calls(report, "similarity.assign"),
        "similarity.assign_pairs": report["counters"].get("similarity.assign_pairs", 0),
        "similarity.score_s": total("similarity.score"),
        "similarity.score_calls": tracer.span_calls(report, "similarity.score"),
        "similarity.tagpath_hit_ratio": hits / lookups if lookups else 0.0,
        "similarity.compile_s": total("similarity.compile"),
        "similarity.extend_s": total("similarity.extend"),
        "similarity.compiled": counts.get("similarity.compiled", 0),
        "corpus_store.append_s": total("corpus_store.append"),
        "corpus_store.blocks": counts.get("corpus_store.blocks", 0),
        "corpus_store.bytes": counts.get("corpus_store.bytes", 0),
        "model_store.load_s": total("model_store.load"),
        "model_store.store_hit": counts.get("model_store.store_hit", 0),
        "core.local_phase_s": total("core.local_phase"),
        "core.refine_self_s": tracer.span_self(report, "core.refine"),
        "core.iterations": counts.get("core.iterations", 0),
        "streaming.ingest_s": total("streaming.ingest"),
        "streaming.retained_peak": counts.get("streaming.retained_peak", 0),
        "streaming.re_refinements": counts.get("streaming.re_refinements", 0),
        "streaming.trash_ratio": counts.get("trash", 0) / transactions if transactions else 0.0,
        "network.rounds": counts.get("network.rounds", 0),
        "network.messages": counts.get("network.messages", 0),
        "network.transferred_items": counts.get("network.transferred_items", 0),
        "network.self_s": tracer.span_self(report, "core.fit"),
        "trace.coverage": tracer.coverage(report),
    }


def complete(values: Dict[str, float]) -> Dict[str, float]:
    """Every per-layer metric, 0 for layers the workload does not reach."""
    return {name: float(values.get(name, 0.0)) for name in PER_LAYER}
