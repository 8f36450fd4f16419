"""Example retrieval: the local embedder, dot-product ranking, and HyDE.

Builds a store from the bundled example programs, queries it with a
report narrative, then shows how HyDE retrieves with a drafted program
instead of the raw narrative.

    python demos/03_retrieval.py
"""

from scenforge.bundled import example_programs
from scenforge.retrieval import LocalHashEmbedder, VectorStore, hyde_query

embedder = LocalHashEmbedder()
store = VectorStore()
for name, text in example_programs():
    store.upsert(name, text, embedder)
print(f"indexed {len(store)} bundled example programs "
      f"(dimension {store.dimension})")

narrative = (
    "A bicyclist struck the right side of the autonomous vehicle while it "
    "was paused at a four-way intersection."
)

# --- plain retrieval: embed the narrative itself ---------------------------

print("\ntop 3 by narrative similarity:")
for scored in store.query_topk(narrative, 3, embedder):
    print(f"  {scored.score:6.3f}  {scored.entry.id}")

# --- HyDE: embed a hypothetical program instead ------------------------------

DRAFT = """\
BIKE_SPEED = Normal(10, 1)
ego = new Car at (0, 0)
bike = new Bicycle following roadDirection from (0, 0) for -8
"""

result = hyde_query(store, narrative, 3, embedder, DRAFT)
print("\ntop 3 by draft (HyDE) similarity:")
for scored in result.results:
    print(f"  {scored.score:6.3f}  {scored.entry.id}")
print("\nthe embedded text was the draft, not the narrative; draft head:")
print("  " + result.draft.splitlines()[0])

# --- persistence ---------------------------------------------------------------

import tempfile
from pathlib import Path

with tempfile.TemporaryDirectory() as tmp:
    path = Path(tmp) / "store.jsonl"
    store.save(path)
    reloaded = VectorStore.load(path)
    again = reloaded.query_topk(narrative, 1, embedder)
    print(f"\nafter save/load the best match is still: {again[0].entry.id}")
