"""Parity suite for the numpy backend's content kernel.

``NumpyBackend._content_block`` and ``_cosine_block`` evaluate whole
blocks of content-class pairs with a sparse term join over the backend's
content-class registry.  Every entry must be the *same float* (``==``) as
the scalar reference -- :func:`~repro.similarity.content.content_similarity`
and :meth:`~repro.text.vector.SparseVector.cosine` -- on the class
exemplars, including the ULP that depends on which vector the sparse dot
iterates, the raw-answer rule for two empty vectors, classes registered
between calls and a store-attached engine before and after its registries
hydrate.
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

numpy = pytest.importorskip("numpy")

from repro.datasets.registry import get_dataset
from repro.network.mpengine import clear_process_engines
from repro.similarity.cache import TagPathSimilarityCache
from repro.similarity.content import content_similarity
from repro.similarity.corpus_store import clear_store_cache, prepare_engine_corpus
from repro.similarity.item import SimilarityConfig
from repro.similarity.transaction import SimilarityEngine
from repro.text.vector import SparseVector
from repro.transactions.items import make_synthetic_item
from repro.transactions.transaction import make_transaction
from repro.xmlmodel.paths import XMLPath

SIMILARITY = SimilarityConfig(f=0.5, gamma=0.8)


@pytest.fixture(autouse=True)
def isolated_caches():
    """Attached stores and per-process engines never leak between tests."""
    clear_process_engines()
    clear_store_cache()
    yield
    clear_process_engines()
    clear_store_cache()


# --------------------------------------------------------------------------- #
# Helpers
# --------------------------------------------------------------------------- #
def make_backend():
    engine = SimilarityEngine(
        SIMILARITY, cache=TagPathSimilarityCache(), backend="numpy"
    )
    return engine.backend


def item(vector, answer: str = "text", path: str = "a.b.S"):
    return make_synthetic_item(
        XMLPath.parse(path), answer, vector=SparseVector(vector)
    )


def register(backend, items):
    """Content-class ids of *items*, registering new classes in order."""
    return [backend._content_id(entry) for entry in items]


def expected_content(backend, rows, columns):
    exemplars = backend._content_exemplars
    return [
        [content_similarity(exemplars[row], exemplars[column]) for column in columns]
        for row in rows
    ]


def expected_cosines(backend, classes):
    exemplars = backend._content_exemplars
    return [
        [exemplars[row].vector.cosine(exemplars[column].vector) for column in classes]
        for row in classes
    ]


def assert_parity(backend, rows, columns):
    """Both kernels equal the scalar reference entry by entry."""
    rows = numpy.asarray(rows, dtype=numpy.intp)
    columns = numpy.asarray(columns, dtype=numpy.intp)
    block = backend._content_block(rows, columns)
    assert block.shape == (len(rows), len(columns))
    assert block.tolist() == expected_content(backend, rows, columns)
    classes = numpy.unique(numpy.concatenate([rows, columns]))
    assert backend._cosine_block(classes).tolist() == expected_cosines(
        backend, classes
    )


#: Term ids drawn from a small alphabet so random vectors overlap often.
terms = st.integers(min_value=0, max_value=11)
weights = st.floats(
    min_value=1e-4, max_value=1e4, allow_nan=False, allow_infinity=False
)


@st.composite
def vectors(draw, min_size=0, max_size=8):
    """A term -> weight dict whose insertion order is part of the draw."""
    keys = draw(st.lists(terms, min_size=min_size, max_size=max_size, unique=True))
    return {key: draw(weights) for key in keys}


# --------------------------------------------------------------------------- #
# Property tests
# --------------------------------------------------------------------------- #
class TestKernelParity:
    @settings(max_examples=60, deadline=None)
    @given(
        st.lists(vectors(), min_size=1, max_size=6),
        st.lists(vectors(), min_size=1, max_size=6),
    )
    def test_random_classes_match_the_scalar_kernels(self, row_vectors, column_vectors):
        backend = make_backend()
        rows = register(backend, [item(vector) for vector in row_vectors])
        columns = register(backend, [item(vector) for vector in column_vectors])
        assert_parity(backend, rows, columns)

    @settings(max_examples=60, deadline=None)
    @given(st.integers(min_value=1, max_value=8), st.data())
    def test_equal_length_vectors_iterate_the_row(self, size, data):
        backend = make_backend()
        row_vectors = data.draw(
            st.lists(vectors(size, size), min_size=1, max_size=4)
        )
        column_vectors = data.draw(
            st.lists(vectors(size, size), min_size=1, max_size=4)
        )
        rows = register(backend, [item(vector) for vector in row_vectors])
        columns = register(backend, [item(vector) for vector in column_vectors])
        assert_parity(backend, rows, columns)

    @settings(max_examples=60, deadline=None)
    @given(vectors(1, 4), vectors(5, 12), st.booleans())
    def test_length_asymmetric_pairs(self, short, long, short_is_row):
        backend = make_backend()
        short_id, long_id = register(backend, [item(short), item(long)])
        if short_is_row:
            assert_parity(backend, [short_id], [long_id])
        else:
            assert_parity(backend, [long_id], [short_id])

    @settings(max_examples=40, deadline=None)
    @given(
        st.lists(st.sampled_from(["1999", "2001", "12-34", ""]), min_size=1, max_size=5),
        st.lists(vectors(1, 5), max_size=3),
    )
    def test_empty_vectors_and_their_answers(self, answers, non_empty):
        backend = make_backend()
        empty = register(backend, [item({}, answer) for answer in answers])
        full = register(backend, [item(vector) for vector in non_empty])
        classes = sorted(set(empty + full))
        assert_parity(backend, classes, classes)


# --------------------------------------------------------------------------- #
# Hand-built edge cases
# --------------------------------------------------------------------------- #
class TestEdgeCases:
    def test_the_iterated_vector_fixes_the_last_bit(self):
        """1 + e + e and e + e + 1 differ in the last bit: the kernel must
        add in the order of the vector the scalar dot iterates."""
        tiny = 2.0 ** -53
        assert (1.0 + tiny) + tiny != (tiny + tiny) + 1.0
        backend = make_backend()
        row = {1: 1.0, 2: tiny, 3: tiny}
        column = {3: 1.0, 2: 1.0, 1: 1.0, 4: 1.0}
        rows = register(backend, [item(row), item(dict(reversed(row.items())))])
        columns = register(backend, [item(column)])
        block = backend._content_block(
            numpy.asarray(rows, dtype=numpy.intp), numpy.asarray(columns, dtype=numpy.intp)
        )
        assert block[0, 0] != block[1, 0]
        assert_parity(backend, rows, columns)
        assert_parity(backend, columns, rows)

    def test_empty_pairs_follow_the_raw_answer(self):
        backend = make_backend()
        same_a, same_b, other = (
            item({}, "1999"),
            item({}, "1999", path="a.c.S"),
            item({}, "2001"),
        )
        classes = register(backend, [same_a, same_b, other])
        # equal answers share a content class; different answers do not
        assert classes[0] == classes[1] != classes[2]
        block = backend._content_block(
            numpy.asarray(classes, dtype=numpy.intp),
            numpy.asarray(classes, dtype=numpy.intp),
        )
        assert block.tolist() == [[1.0, 1.0, 0.0], [1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]
        assert_parity(backend, classes, classes)

    def test_empty_against_non_empty_and_zero_overlap_score_zero(self):
        backend = make_backend()
        classes = register(
            backend, [item({}, "1999"), item({1: 0.5, 2: 1.5}), item({3: 2.0})]
        )
        block = backend._content_block(
            numpy.asarray(classes, dtype=numpy.intp),
            numpy.asarray(classes, dtype=numpy.intp),
        )
        assert block[0, 1] == block[1, 0] == 0.0
        assert block[1, 2] == block[2, 1] == 0.0
        assert_parity(backend, classes, classes)

    def test_classes_added_between_calls(self):
        """Classes registered after a call (here by ``extend_corpus``) join
        the registry, and a cached column side stays valid for them."""
        backend = make_backend()
        first = [item({1: 0.5, 2: 1.0}), item({2: 0.25, 3: 4.0}), item({}, "7")]
        backend.extend_corpus([make_transaction("t0", first)])
        old = list(range(len(backend._content_exemplars)))
        assert_parity(backend, old, old)
        second = [item({3: 1.5, 1: 2.0, 4: 0.75}), item({}, "8"), item({2: 3.0})]
        backend.extend_corpus([make_transaction("t1", second)])
        every = list(range(len(backend._content_exemplars)))
        assert len(every) == len(old) + 3
        # the same columns as the first call (cached side) with new rows
        assert_parity(backend, every, old)
        assert_parity(backend, old, every)
        assert_parity(backend, every, every)


# --------------------------------------------------------------------------- #
# Store-attached engines
# --------------------------------------------------------------------------- #
class TestStoreAttached:
    def test_kernel_before_and_after_lazy_hydration(self, tmp_path):
        dataset = get_dataset("DBLP", scale=0.2, seed=0)
        transactions = dataset.transactions
        fresh = make_backend()
        prepare_engine_corpus(fresh.engine, transactions, cache_dir=tmp_path)
        clear_store_cache()
        attached = make_backend()
        status = prepare_engine_corpus(attached.engine, transactions, cache_dir=tmp_path)
        assert status["store"] == "hit"
        assert not attached._hydrated
        count = len(fresh._content_exemplars)
        sample = sorted(set(range(0, count, max(1, count // 40))) | {count - 1})
        rows = numpy.asarray(sample, dtype=numpy.intp)
        # the first kernel call hydrates the registries from the store
        block = attached._content_block(rows, rows)
        assert attached._hydrated
        assert len(attached._content_exemplars) == count
        assert block.tolist() == fresh._content_block(rows, rows).tolist()
        assert_parity(attached, sample, sample)
        # classes appended after hydration extend the same registry
        novel = [item({10**6: 1.0, 10**6 + 1: 2.5}), item({}, "no such answer")]
        attached.extend_corpus([make_transaction("novel", novel)])
        grown = sample + [count, count + 1]
        assert len(attached._content_exemplars) == count + 2
        assert_parity(attached, grown, grown)
