"""Vector store with dot-product similarity for example retrieval.

The store is an exhaustive scan, not an index: it holds tens of example
programs, so exactness and simplicity win. Scores are plain
left-to-right float summation, bit-stable against the brute-force
oracle used in tests. A query sums only its nonzero components, in index
order: the skipped terms are signed zeros, which never change a sum that
starts at +0.0, so the score has the same bits as ``dot``. That holds
because the store refuses vectors with a non-finite component.

The default embedder is deterministic and offline: token-hash
bag-of-words into fixed buckets, normalized to unit length, so dot
product and cosine coincide. A remote embedder can be swapped in behind
the same two-method surface (dimension, embed).
"""

from __future__ import annotations

import functools
import hashlib
import json
import math
import re
import threading
from dataclasses import dataclass, field
from pathlib import Path

from .errors import DimensionMismatch, EmptyStore, EmptyText

DEFAULT_DIMENSION = 256

_TOKEN = re.compile(r"[a-z0-9_]+")
_TOKEN_HASH_MEMO = 4096  # distinct tokens whose hash is kept


@functools.lru_cache(maxsize=_TOKEN_HASH_MEMO)
def _token_hash(token: str) -> int:
    digest = hashlib.blake2b(token.encode("utf-8"), digest_size=8).digest()
    return int.from_bytes(digest, "big")


def dot(a, b) -> float:
    """Plain left-to-right dot product; the summation order is part of
    the contract so independent implementations agree bit-for-bit."""
    total = 0.0
    for x, y in zip(a, b):
        total += x * y
    return total


def _sparse_dot(terms, vector) -> float:
    """``dot`` of a vector given by its nonzero ``(index, value)`` terms,
    in index order, with a finite ``vector``: the same bits."""
    total = 0.0
    for i, x in terms:
        total += x * vector[i]
    return total


class LocalHashEmbedder:
    """Deterministic bag-of-words embedder: stable token hash into
    ``dimension`` buckets, then L2 normalization."""

    def __init__(self, dimension: int = DEFAULT_DIMENSION):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension

    def _bucket(self, token: str) -> int:
        return _token_hash(token) % self.dimension

    def embed(self, text: str) -> tuple:
        tokens = _TOKEN.findall(text.lower())
        if not tokens:
            raise EmptyText("cannot embed text with no tokens")
        counts = [0.0] * self.dimension
        for token in tokens:
            counts[self._bucket(token)] += 1.0
        norm = sum(c * c for c in counts) ** 0.5
        return tuple(c / norm for c in counts)


@dataclass(frozen=True)
class StoreEntry:
    id: str
    text: str
    vector: tuple
    metadata: dict = field(default_factory=dict)


@dataclass(frozen=True)
class ScoredEntry:
    entry: StoreEntry
    score: float


class VectorStore:
    """In-memory store of embedded examples with file persistence.

    Entries keep their first-insertion position; replacing by id leaves
    the order untouched, and ranking ties break by that order.
    """

    def __init__(self, dimension: int = DEFAULT_DIMENSION):
        if dimension < 1:
            raise ValueError("dimension must be positive")
        self.dimension = dimension
        self._entries: list[StoreEntry] = []
        self._index: dict[str, int] = {}
        self._write_lock = threading.Lock()

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> tuple:
        return tuple(self._entries)

    def _check_vector(self, vector) -> tuple:
        vector = tuple(map(float, vector))
        if len(vector) != self.dimension:
            raise DimensionMismatch(
                f"vector has dimension {len(vector)}, store expects {self.dimension}"
            )
        if not all(map(math.isfinite, vector)):
            raise ValueError("vector has a non-finite component")
        return vector

    def add_vector(self, entry_id: str, text: str, vector, metadata: dict | None = None) -> None:
        """Insert or replace an entry with a precomputed vector."""
        entry = StoreEntry(entry_id, text, self._check_vector(vector), metadata or {})
        with self._write_lock:
            position = self._index.get(entry_id)
            if position is None:
                self._index[entry_id] = len(self._entries)
                self._entries.append(entry)
            else:
                self._entries[position] = entry

    def upsert(self, entry_id: str, text: str, embedder, metadata: dict | None = None) -> None:
        if embedder.dimension != self.dimension:
            raise DimensionMismatch(
                f"embedder dimension {embedder.dimension} differs from "
                f"store dimension {self.dimension}"
            )
        self.add_vector(entry_id, text, embedder.embed(text), metadata)

    def query_vector(self, vector, k: int) -> list[ScoredEntry]:
        if k < 1:
            raise ValueError("k must be >= 1")
        if not self._entries:
            raise EmptyStore("query issued against an empty store")
        terms = [(i, x) for i, x in enumerate(self._check_vector(vector)) if x]
        scored = [ScoredEntry(e, _sparse_dot(terms, e.vector)) for e in self._entries]
        scored.sort(key=lambda s: s.score, reverse=True)  # stable: ties keep insertion order
        return scored[:k]

    def query_topk(self, query_text: str, k: int, embedder) -> list[ScoredEntry]:
        """The k entries most similar to the query, descending score,
        ties broken by insertion order; everything if k exceeds size."""
        return self.query_vector(embedder.embed(query_text), k)

    # -- persistence ------------------------------------------------------

    def save(self, path) -> None:
        """Line-delimited records under a dimension header."""
        lines = [json.dumps({"dimension": self.dimension, "count": len(self._entries)})]
        for entry in self._entries:
            lines.append(
                json.dumps(
                    {
                        "id": entry.id,
                        "vector": list(entry.vector),
                        "text": entry.text,
                        "metadata": entry.metadata,
                    },
                    ensure_ascii=False,
                )
            )
        Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")

    @classmethod
    def load(cls, path) -> "VectorStore":
        lines = Path(path).read_text(encoding="utf-8").splitlines()
        if not lines:
            raise ValueError(f"store file {path} is empty")
        header = json.loads(lines[0])
        store = cls(int(header["dimension"]))
        for line in lines[1:]:
            if not line.strip():
                continue
            record = json.loads(line)
            store.add_vector(
                record["id"], record["text"], record["vector"], record.get("metadata")
            )
        return store


@dataclass(frozen=True)
class HydeResult:
    draft: str
    results: list


def hyde_query(
    store: VectorStore, report_text: str, k: int, embedder, draft: str
) -> HydeResult:
    """Retrieve by embedding a drafted program instead of the raw report.

    ``draft`` is a hypothetical program for the report text (typically a
    few-shot model reply); the draft, never the report, is what gets
    embedded for the store lookup.
    """
    return HydeResult(draft, store.query_topk(draft, k, embedder))
