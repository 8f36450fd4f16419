from __future__ import annotations

import hashlib
import math
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from scenforge import pipeline, retrieval
from scenforge.errors import DimensionMismatch, EmptyStore, EmptyText
from scenforge.gateway import Gateway, MemoryCache
from scenforge.pipeline import PipelineConfig, PromptFactory, RetrievalSetup
from scenforge.reports import load_report
from scenforge.retrieval import (
    LocalHashEmbedder,
    VectorStore,
    dot,
    hyde_query,
)
from support import CallableBackend, drive, write_report


def brute_force_topk(entries, query, k):
    """Independent oracle: score with an index loop, then selection sort
    picking the first maximum on every pass (ties resolve to the earliest
    inserted entry)."""
    scored = []
    for entry in entries:
        total = 0.0
        for i in range(len(query)):
            total += query[i] * entry.vector[i]
        scored.append((entry, total))
    remaining = list(scored)
    ranked = []
    while remaining and len(ranked) < k:
        best = 0
        for i in range(1, len(remaining)):
            if remaining[i][1] > remaining[best][1]:
                best = i
        ranked.append(remaining.pop(best))
    return ranked


# --- embedder -----------------------------------------------------------------


def test_embedder_is_deterministic():
    embedder = LocalHashEmbedder()
    assert embedder.embed("a cyclist struck the AV") == embedder.embed(
        "a cyclist struck the AV"
    )


def test_embedder_output_is_unit_norm():
    embedder = LocalHashEmbedder()
    vector = embedder.embed("speed placement type weather road")
    norm = math.sqrt(sum(v * v for v in vector))
    assert abs(norm - 1.0) <= 1e-9


def test_embed_empty_text_raises():
    embedder = LocalHashEmbedder()
    with pytest.raises(EmptyText):
        embedder.embed("")
    with pytest.raises(EmptyText):
        embedder.embed("  \n !!! ")


def test_embedder_dimension_configurable():
    assert len(LocalHashEmbedder(32).embed("hello world")) == 32


# --- store basics ----------------------------------------------------------------


def test_self_retrieval_ranks_first():
    embedder = LocalHashEmbedder()
    store = VectorStore()
    store.upsert("a", "ego car waits at the intersection", embedder)
    store.upsert("b", "truck follows the highway lane", embedder)
    (top,) = store.query_topk("ego car waits at the intersection", 1, embedder)
    assert top.entry.id == "a"
    assert top.score == pytest.approx(1.0)


def test_upsert_replaces_in_place():
    embedder = LocalHashEmbedder()
    store = VectorStore()
    store.upsert("a", "first text", embedder)
    store.upsert("b", "second text", embedder)
    store.upsert("a", "replacement text", embedder)
    assert len(store) == 2
    assert store.entries[0].id == "a"
    assert store.entries[0].text == "replacement text"


def test_dimension_mismatch_guard():
    store = VectorStore(dimension=16)
    with pytest.raises(DimensionMismatch):
        store.upsert("a", "text", LocalHashEmbedder(dimension=8))
    with pytest.raises(DimensionMismatch):
        store.add_vector("a", "text", [1.0] * 9)


def test_query_empty_store_raises():
    with pytest.raises(EmptyStore):
        VectorStore(dimension=2).query_vector([1.0, 0.0], 1)


def test_orthogonal_basis_query():
    store = VectorStore(dimension=2)
    store.add_vector("e1", "one", (1.0, 0.0))
    store.add_vector("e2", "two", (0.0, 1.0))
    (top,) = store.query_vector((1.0, 0.0), 1)
    assert top.entry.id == "e1"
    assert top.score == 1.0


def test_k_larger_than_store_returns_all_sorted():
    store = VectorStore(dimension=2)
    store.add_vector("lo", "x", (0.1, 0.0))
    store.add_vector("hi", "y", (0.9, 0.0))
    results = store.query_vector((1.0, 0.0), 7)
    assert [r.entry.id for r in results] == ["hi", "lo"]


def test_ties_break_by_insertion_order():
    store = VectorStore(dimension=2)
    store.add_vector("second", "b", (0.5, 0.5))
    store.add_vector("first", "a", (0.5, 0.5))
    results = store.query_vector((1.0, 1.0), 2)
    assert [r.entry.id for r in results] == ["second", "first"]


def test_dot_is_left_to_right():
    # order-sensitive accumulation: the exact float must match a manual loop
    rng = random.Random(0)
    a = [rng.uniform(-1, 1) for _ in range(64)]
    b = [rng.uniform(-1, 1) for _ in range(64)]
    total = 0.0
    for i in range(64):
        total += a[i] * b[i]
    assert dot(a, b) == total


# --- oracle equivalence ------------------------------------------------------------


def _random_store(rng: random.Random, size: int, dimension: int) -> VectorStore:
    store = VectorStore(dimension=dimension)
    for i in range(size):
        vector = [rng.uniform(-1, 1) for _ in range(dimension)]
        if rng.random() < 0.2 and i:  # inject exact duplicates to force ties
            vector = list(store.entries[rng.randrange(i)].vector)
        store.add_vector(f"e{i}", f"text {i}", vector)
    return store


def test_query_matches_brute_force_oracle_randomized():
    rng = random.Random(2024)
    for _ in range(40):
        dimension = rng.choice([4, 16, 64])
        size = rng.randrange(1, 120)
        store = _random_store(rng, size, dimension)
        query = [rng.uniform(-1, 1) for _ in range(dimension)]
        k = rng.randrange(1, size + 4)
        expected = brute_force_topk(store.entries, query, k)
        actual = store.query_vector(query, k)
        assert [(r.entry.id, r.score) for r in actual] == [
            (e.id, s) for e, s in expected
        ]


@given(
    vectors=st.lists(
        st.lists(
            st.floats(min_value=-1, max_value=1, allow_nan=False, width=32),
            min_size=4, max_size=4,
        ),
        min_size=1,
        max_size=30,
    ),
    query=st.lists(
        st.floats(min_value=-1, max_value=1, allow_nan=False, width=32),
        min_size=4, max_size=4,
    ),
    k=st.integers(min_value=1, max_value=35),
)
@settings(max_examples=150, deadline=None)
def test_query_matches_oracle_property(vectors, query, k):
    store = VectorStore(dimension=4)
    for i, vector in enumerate(vectors):
        store.add_vector(f"e{i}", f"t{i}", vector)
    expected = brute_force_topk(store.entries, [float(q) for q in query], k)
    actual = store.query_vector(query, k)
    assert [(r.entry.id, r.score) for r in actual] == [(e.id, s) for e, s in expected]


FINITE = st.one_of(
    st.sampled_from([0.0, -0.0]),
    st.floats(allow_nan=False, allow_infinity=False),
)


@given(
    query=st.lists(FINITE, min_size=6, max_size=6),
    vectors=st.lists(st.lists(FINITE, min_size=6, max_size=6), min_size=1, max_size=6),
)
@settings(max_examples=300, deadline=None)
def test_sparse_scores_have_the_bits_of_dot(query, vectors):
    # a query sums only its nonzero terms; on finite vectors, including
    # zeros, signed zeros and products that overflow, that is dot exactly
    store = VectorStore(dimension=6)
    for i, vector in enumerate(vectors):
        store.add_vector(f"e{i}", f"t{i}", vector)
    scores = {r.entry.id: r.score for r in store.query_vector(query, len(vectors))}
    for entry in store.entries:
        assert scores[entry.id].hex() == dot(query, entry.vector).hex()


@pytest.mark.parametrize("bad", [math.inf, -math.inf, math.nan])
def test_store_refuses_non_finite_components(bad):
    store = VectorStore(dimension=3)
    with pytest.raises(ValueError, match="non-finite"):
        store.add_vector("e", "t", (0.5, bad, 0.0))
    assert len(store) == 0
    store.add_vector("e", "t", (0.5, 0.5, 0.0))
    with pytest.raises(ValueError, match="non-finite"):
        store.query_vector((bad, 0.0, 0.0), 1)


def test_token_hash_memo_is_bounded_and_matches_the_hash():
    assert retrieval._TOKEN_HASH_MEMO <= 4096
    assert retrieval._token_hash.cache_info().maxsize == retrieval._TOKEN_HASH_MEMO
    embedder = LocalHashEmbedder(dimension=97)
    embedder.embed(" ".join(f"t{i}" for i in range(retrieval._TOKEN_HASH_MEMO + 500)))
    assert retrieval._token_hash.cache_info().currsize <= retrieval._TOKEN_HASH_MEMO
    for token in ("cyclist", "t4500", "ego_speed", "0"):
        digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
        assert embedder._bucket(token) == int.from_bytes(digest, "big") % 97


# --- persistence ----------------------------------------------------------------


def test_save_load_query_identical(tmp_path):
    rng = random.Random(5)
    store = _random_store(rng, 25, 16)
    query = [rng.uniform(-1, 1) for _ in range(16)]
    before = store.query_vector(query, 5)
    path = tmp_path / "store.jsonl"
    store.save(path)
    loaded = VectorStore.load(path)
    after = loaded.query_vector(query, 5)
    assert [(r.entry.id, r.score) for r in before] == [
        (r.entry.id, r.score) for r in after
    ]


def test_save_is_byte_stable(tmp_path):
    embedder = LocalHashEmbedder()
    store = VectorStore()
    store.upsert("a", "some example program", embedder)
    p1, p2 = tmp_path / "s1", tmp_path / "s2"
    store.save(p1)
    store.save(p2)
    assert p1.read_bytes() == p2.read_bytes()


# --- HyDE ---------------------------------------------------------------------


class InstrumentedEmbedder:
    def __init__(self, dimension: int = 64):
        self.inner = LocalHashEmbedder(dimension)
        self.dimension = dimension
        self.calls: list[str] = []

    def embed(self, text: str):
        self.calls.append(text)
        return self.inner.embed(text)


def test_hyde_embeds_the_draft_not_the_report():
    embedder = InstrumentedEmbedder()
    store = VectorStore(dimension=64)
    store.upsert("ex", "ego = new Car at (0, 0)", embedder.inner)
    result = hyde_query(
        store,
        "the AV was rear-ended at an intersection",
        1,
        embedder,
        "ego = new Car at (0, 0)",
    )
    assert result.draft == "ego = new Car at (0, 0)"
    assert embedder.calls == ["ego = new Car at (0, 0)"]


def test_hyde_draft_identical_to_stored_example_ranks_first():
    embedder = LocalHashEmbedder()
    store = VectorStore()
    store.upsert("match", "SPEED = Normal(10, 1)\nego = new Car at (0, 0)", embedder)
    store.upsert("other", "truck = new Truck on road", embedder)
    result = hyde_query(
        store, "whatever report", 1, embedder,
        "SPEED = Normal(10, 1)\nego = new Car at (0, 0)",
    )
    assert result.results[0].entry.id == "match"


def test_hyde_draft_failure_prevents_query(tmp_path):
    # the pipeline's retrieval step queries the store only with a draft
    embedder = InstrumentedEmbedder()
    store = VectorStore(dimension=64)
    store.upsert("ex", "ego = new Car at (0, 0)", embedder.inner)

    def broken(request):
        raise RuntimeError("draft backend down")

    gateway = Gateway(CallableBackend(broken), cache=MemoryCache())
    step = pipeline._retrieve_examples(
        load_report(write_report(tmp_path)), PipelineConfig(), gateway,
        PromptFactory("m"), RetrievalSetup(store, embedder),
    )
    with pytest.raises(RuntimeError, match="draft backend down"):
        drive(gateway, step)
    assert embedder.calls == []
