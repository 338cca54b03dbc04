"""Seeded XML inputs for the three workloads.

Every input is XML text produced by the repository's own corpus
generators and serialized; the program under test receives only that
text.  The ground-truth labels stay here, with the benchmark, indexed by
the document's position in the input (the program names documents
``d<position>``).  The same seed always yields the same inputs.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List

from repro.datasets import generate_dblp, generate_shakespeare
from repro.evaluation.fmeasure import overall_f_measure
from repro.xmlmodel.serializer import serialize


@dataclass
class XMLInput:
    """Documents as XML text plus the hybrid class of each position."""

    name: str
    texts: List[str]
    labels: List[str]

    def __len__(self) -> int:
        return len(self.texts)


def sub_seed(seed: int, stream: int, index: int) -> int:
    """A distinct, reproducible generator seed per (run seed, role, index)."""
    return (seed * 1009 + stream * 101 + index) % (2**31)


def dblp(name: str, documents: int, seed: int) -> XMLInput:
    corpus = generate_dblp(num_documents=documents, seed=seed)
    labels = corpus.doc_labels["hybrid"]
    return XMLInput(
        name=name,
        texts=[serialize(tree) for tree in corpus.trees],
        labels=["dblp|" + labels[tree.doc_id] for tree in corpus.trees],
    )


def shakespeare_plays(name: str, plays: int, seed: int) -> XMLInput:
    """*plays* short plays drawn from consecutive Shakespeare corpora."""
    texts: List[str] = []
    labels: List[str] = []
    corpus_index = 0
    while len(texts) < plays:
        corpus = generate_shakespeare(
            seed=seed + corpus_index, acts=1, scenes_per_act=1, speeches_per_scene=2
        )
        for tree in corpus.trees:
            texts.append(serialize(tree))
            labels.append("shakespeare|" + corpus.doc_labels["hybrid"][tree.doc_id])
        corpus_index += 1
    return XMLInput(name=name, texts=texts[:plays], labels=labels[:plays])


def concatenate(name: str, parts: List[XMLInput]) -> XMLInput:
    return XMLInput(
        name=name,
        texts=[text for part in parts for text in part.texts],
        labels=[label for part in parts for label in part.labels],
    )


def position(transaction_id: str) -> int:
    """Document position of a transaction id ``d<position>#<tuple>``."""
    return int(transaction_id.split("#", 1)[0][1:])


def f_measure(data: XMLInput, clusters: List[List[str]], trash: List[str]) -> float:
    """Overall F of a transaction partition against the documents' labels.

    Trash transactions count in the universe but in no cluster.
    """
    ids = [tid for cluster in clusters for tid in cluster] + list(trash)
    return overall_f_measure(clusters, {tid: data.labels[position(tid)] for tid in ids})
