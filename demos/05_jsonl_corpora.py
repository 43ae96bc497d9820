"""Working with review corpora in the canonical JSON-lines format.

Builds a miniature corpus file inline to show the exact on-disk schema, then
loads it with the same functions used for the real Beer/Hotel releases.  To
run against real data, convert the published files to this schema (one object
per line) and point the loaders (or a `data = jsonl` CLI config) at them.

Run:  python demos/05_jsonl_corpora.py
"""

import json
from pathlib import Path

from rationalift import (
    build_vocab,
    gold_sparsity,
    load_annotations,
    load_embeddings,
    load_reviews,
    make_batches,
)

work = Path("runs/demo05")
work.mkdir(parents=True, exist_ok=True)

# --- canonical schema -------------------------------------------------------
# raw ratings: beer <= 0.4 -> negative, >= 0.6 -> positive, middle dropped
train_records = [
    {"id": "b1", "rating": 0.9, "text": "pours a lovely amber with thick lacing"},
    {"id": "b2", "rating": 0.2, "text": "smells like wet cardboard and regret"},
    {"id": "b3", "rating": 0.5, "text": "utterly unremarkable middle of the road"},
    {"id": "b4", "rating": 0.7, "text": "bright citrus hops up front"},
    {"id": "b5", "rating": 0.3, "text": "flat , stale , skip this one"},
    {"id": "b6", "rating": 0.1, "text": "drain pour , no aroma at all"},
]
# annotation split: token-index spans mark the human rationale
annotation_records = [
    {"id": "a1", "label": 1, "text": "the aroma is wonderful tonight",
     "rationale_spans": [[1, 4]]},
    {"id": "a2", "label": 0, "text": "no smell to speak of sadly",
     "rationale_spans": [[0, 2]]},
]
(work / "train.jsonl").write_text(
    "\n".join(json.dumps(r) for r in train_records) + "\n")
(work / "annotation.jsonl").write_text(
    "\n".join(json.dumps(r) for r in annotation_records) + "\n")

# pretrained vectors: "word f1 ... fd" per line, like the 100-d GloVe release
(work / "vectors.txt").write_text(
    "aroma " + " ".join(["0.25"] * 10) + "\n"
    "hops " + " ".join(["-0.12"] * 10) + "\n")

# --- loading ----------------------------------------------------------------
train = load_reviews(work / "train.jsonl", aspect="aroma", domain="beer",
                     split="train", seed=0)
neg, pos = train.label_counts()
print(f"train: {len(train)} examples after binarize+balance ({neg} neg / {pos} pos)")

annotation = load_annotations(work / "annotation.jsonl")
print(f"annotation: {len(annotation)} examples, "
      f"mean gold sparsity {gold_sparsity(annotation):.2%}")

vocab = build_vocab(train)
table = load_embeddings(work / "vectors.txt", vocab, dim=10, seed=0)
print(f"vocab {len(vocab)} tokens; embedding table {table.shape}; "
      f"out-of-file rows initialized uniformly in [-0.05, 0.05]")

batches = make_batches(annotation, vocab, batch_size=2, max_len=256)
print(f"batched annotation split into {len(batches)} padded batch(es); "
      f"first batch shape {batches[0].token_ids.shape}")
