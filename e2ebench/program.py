"""The program under test for fit-cxk and stream-ingest.

A long-lived process driven over a line protocol: one JSON request per
line on stdin, one JSON reply per line on stdout.  It receives XML text
and nothing else, and runs it through the library's public entry points:

- ``fit``: ``parse_xml -> build_dataset -> prepare_engine_corpus ->
  CXKMeans.fit`` over simulated peers with the serial executor;
- ``stream_open`` / ``chunk`` / ``stream_close``: ``BlockCorpusStore.create``
  and ``StreamingClusterer.ingest`` per chunk (each chunk parsed and built
  with ``build_dataset``, as the CLI's file mode does), then ``finalize``.

The first line it prints is ``{"ready": true}``, once the library is
imported; the benchmark times launch-to-ready as set-up.  With
``--trace`` it wraps the library's layer entry points first (see
``tracer.py``) and answers ``trace`` requests with the recorded spans.

Run it from the repository root with ``PYTHONPATH=src``.
"""

from __future__ import annotations

import json
import os
import sys
from typing import Dict, List, Optional

from repro.core.config import ClusteringConfig
from repro.core.cxkmeans import CXKMeans
from repro.core.partition import PartitioningScheme, partition
from repro.core.streaming import StreamingClusterer
from repro.similarity.corpus_store import BlockCorpusStore, prepare_engine_corpus
from repro.similarity.item import SimilarityConfig
from repro.transactions.builder import build_dataset
from repro.xmlmodel.parser import parse_xml

import tracer


def _config(request: Dict[str, object], **streaming) -> ClusteringConfig:
    return ClusteringConfig(
        k=int(request["k"]),
        similarity=SimilarityConfig(f=float(request["f"]), gamma=float(request["gamma"])),
        seed=int(request["seed"]),
        max_iterations=int(request["max_iterations"]),
        backend=str(request["backend"]),
        **streaming,
    )


def _parse(texts: List[str], first: int) -> list:
    return [parse_xml(text, doc_id=f"d{first + offset}") for offset, text in enumerate(texts)]


class Program:
    """Request handlers; state lives here, one instance per process."""

    def __init__(self, recorder: Optional[tracer.Recorder]) -> None:
        self.recorder = recorder
        self.inputs: Dict[str, List[str]] = {}
        self.stream: Optional[StreamingClusterer] = None
        self.stream_texts: List[str] = []
        self.stream_chunk = 0

    def op_load(self, request):
        self.inputs[str(request["id"])] = list(request["texts"])
        return {"documents": len(self.inputs[str(request["id"])])}

    def _fit(self, request):
        texts = self.inputs[str(request["id"])][: request.get("limit")]
        dataset = build_dataset(str(request["id"]), _parse(texts, 0))
        transactions = dataset.transactions
        algorithm = CXKMeans(_config(request))
        prepare_engine_corpus(algorithm.engine, transactions)
        parts = partition(
            transactions, int(request["peers"]), PartitioningScheme.EQUAL,
            seed=int(request["seed"]),
        )
        result = algorithm.fit(parts)
        network = result.network or {}
        cache = algorithm.engine.cache.stats()
        return {
            "clusters": result.partition(),
            "trash": result.trash.member_ids(),
            "counts": {
                "transactions.count": len(transactions),
                "transactions.items": sum(len(t.items) for t in transactions),
                "similarity.compiled": int(
                    getattr(algorithm.engine.backend, "corpus_compile_count", 0)
                ),
                "core.iterations": result.iterations,
                "network.rounds": int(network.get("rounds", 0)),
                "network.messages": int(network.get("messages", 0)),
                "network.transferred_items": int(network.get("transferred_items", 0)),
                "tagpath.hits": cache["hits"],
                "tagpath.misses": cache["misses"],
            },
        }

    def op_fit(self, request):
        return tracer.span_context(self.recorder, "op.fit", self._fit, request)

    def op_stream_open(self, request):
        config = _config(
            request,
            streaming=True,
            chunk_size=int(request["chunk_size"]),
            retain_threshold=float(request["retain_threshold"]),
            drift_threshold=float(request["drift_threshold"]),
        )
        store = BlockCorpusStore.create(str(request["store_dir"]), config.similarity)
        self.stream = StreamingClusterer(config, store=store)
        self.stream_texts = self.inputs[str(request["id"])]
        self.stream_chunk = int(request["chunk_size"])
        return {"chunks": -(-len(self.stream_texts) // self.stream_chunk)}

    def _chunk(self, request):
        first = int(request["index"]) * self.stream_chunk
        texts = self.stream_texts[first : first + self.stream_chunk]
        transactions = build_dataset(f"chunk-{request['index']}", _parse(texts, first)).transactions
        self.stream.ingest(transactions)
        return {
            "transactions": len(transactions),
            "items": sum(len(t.items) for t in transactions),
            "re_refinements": self.stream.stats.re_refinements,
        }

    def op_chunk(self, request):
        return tracer.span_context(self.recorder, "op.chunk", self._chunk, request)

    def op_stream_close(self, request):
        stream, self.stream = self.stream, None
        stream.finalize()
        parts = stream.partition(include_trash=True)
        stats = stream.stats
        cache = stream.engine.cache.stats()
        return {
            "clusters": parts[:-1],
            "trash": parts[-1],
            "counts": {
                "similarity.compiled": int(
                    getattr(stream.engine.backend, "corpus_compile_count", 0)
                ),
                "corpus_store.blocks": stats.blocks_appended,
                "streaming.re_refinements": stats.re_refinements,
                "streaming.retained_peak": stats.retained_peak,
                "tagpath.hits": cache["hits"],
                "tagpath.misses": cache["misses"],
            },
        }

    def op_trace(self, request):
        if self.recorder is None:
            return {"spans": {}, "counters": {}, "missing": []}
        report = self.recorder.report()
        self.recorder.reset()
        return report


def main() -> int:
    recorder = tracer.Recorder() if "--trace" in sys.argv[1:] else None
    if recorder is not None:
        tracer.install(recorder)
    program = Program(recorder)
    replies = sys.stdout
    # anything the library prints must not corrupt the reply stream
    sys.stdout = sys.stderr
    replies.write(json.dumps({"ready": True, "pid": os.getpid()}) + "\n")
    replies.flush()
    for line in sys.stdin:
        request = json.loads(line)
        operation = request.get("op")
        if operation == "exit":
            break
        handler = getattr(program, f"op_{operation}", None)
        try:
            if handler is None:
                raise ValueError(f"unknown op {operation!r}")
            reply = handler(request)
        except Exception as error:  # noqa: BLE001 - reported to the benchmark
            reply = {"error": f"{type(error).__name__}: {error}"}
        replies.write(json.dumps(reply) + "\n")
        replies.flush()
    return 0


if __name__ == "__main__":
    sys.exit(main())
