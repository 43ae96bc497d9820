"""Corpus loading, vocabulary/embedding tables, batching, and synthetic corpora.

The on-disk corpus format is JSON-lines, one object per line:

    {"id": str, "rating": float OR "label": 0|1, "text": "whitespace tokenized",
     "rationale_spans": [[start, end], ...]}   # spans optional, end-exclusive

Synthetic corpora are emitted in the same format so downstream code never has
to care where a dataset came from.
"""

from __future__ import annotations

import json
import logging
import math
import os
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from typing import IO, Iterable, Iterator, Mapping, Optional, Sequence

import numpy as np

logger = logging.getLogger(__name__)

PAD_TOKEN = "<pad>"
MASK_TOKEN = "<mask>"
PAD_ID = 0
MASK_ID = 1

BEER_ASPECTS = ("appearance", "aroma", "palate")
HOTEL_ASPECTS = ("location", "service", "cleanliness")

# synthetic vocabulary classes, also used by evaluation.selection_composition
CLASS_INFORMATIVE = "informative"
CLASS_FILLER = "filler"
CLASS_MARKER = "marker"
CLASS_PUNCTUATION = "punctuation"

PUNCTUATION_TOKENS = frozenset(
    [".", ",", ";", ":", "!", "?", "-", "--", "(", ")", "'", '"', "...", "`", "``", "''"]
)


class CorpusError(ValueError):
    """Raised for malformed corpus files or inconsistent dataset configuration."""


@dataclass(frozen=True)
class Example:
    """A single classification example, optionally with a gold rationale mask."""

    id: str
    tokens: tuple[str, ...]
    label: int
    gold_mask: Optional[tuple[int, ...]] = None

    def __post_init__(self) -> None:
        object.__setattr__(self, "tokens", tuple(self.tokens))
        if len(self.tokens) < 1:
            raise CorpusError(f"example {self.id}: empty token sequence")
        if self.label not in (0, 1):
            raise CorpusError(f"example {self.id}: label must be 0 or 1, got {self.label}")
        if self.gold_mask is not None:
            gold = tuple(self.gold_mask)
            if len(gold) != len(self.tokens):
                raise CorpusError(
                    f"example {self.id}: gold mask length {len(gold)} "
                    f"!= token count {len(self.tokens)}"
                )
            # checked before the conversion, which would truncate 0.5 to 0
            if not set(gold) <= {0, 1}:
                raise CorpusError(f"example {self.id}: gold mask entries must be 0/1")
            object.__setattr__(self, "gold_mask", tuple(map(int, gold)))

    def __len__(self) -> int:
        return len(self.tokens)


@dataclass(frozen=True)
class Dataset:
    """An immutable split of examples."""

    split: str
    examples: tuple[Example, ...]
    aspect: str = ""
    # id(vocab) -> (vocab, per-example token ids); holding the vocabulary keeps its id unique
    _encoded: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        object.__setattr__(self, "examples", tuple(self.examples))

    def token_ids(self, vocab: "Vocabulary") -> list[np.ndarray]:
        """Every example's token ids under `vocab`, encoded on the first call
        only: training re-batches the same splits every epoch."""
        if id(vocab) not in self._encoded:
            self._encoded[id(vocab)] = (vocab, [vocab.encode(ex.tokens) for ex in self.examples])
        return self._encoded[id(vocab)][1]

    def __len__(self) -> int:
        return len(self.examples)

    def __iter__(self) -> Iterator[Example]:
        return iter(self.examples)

    def __getitem__(self, i: int) -> Example:
        return self.examples[i]

    @property
    def labels(self) -> np.ndarray:
        return np.array([ex.label for ex in self.examples], dtype=np.int64)

    def label_counts(self) -> tuple[int, int]:
        labels = self.labels
        return int(np.sum(labels == 0)), int(np.sum(labels == 1))

    def has_gold(self) -> bool:
        return len(self.examples) > 0 and all(ex.gold_mask is not None for ex in self.examples)


@dataclass(frozen=True)
class Splits:
    """The train/dev/annotation triple consumed by the training loop."""

    train: Dataset
    dev: Dataset
    annotation: Optional[Dataset] = None


@dataclass(frozen=True)
class Vocabulary:
    """Token <-> id bijection with PAD=0 and MASK=1 reserved.

    Tokens missing from the vocabulary encode to MASK_ID: an unknown token gets
    the all-zero embedding and therefore behaves exactly like a masked-out
    position.
    """

    id_to_token: tuple[str, ...]
    token_to_id: Mapping[str, int]

    def __len__(self) -> int:
        return len(self.id_to_token)

    def __contains__(self, token: str) -> bool:
        return token in self.token_to_id

    def id(self, token: str) -> int:
        return self.token_to_id.get(token, MASK_ID)

    def encode(self, tokens: Sequence[str]) -> np.ndarray:
        return np.array([self.id(t) for t in tokens], dtype=np.int32)

    def to_json(self) -> str:
        return json.dumps(list(self.id_to_token))

    @classmethod
    def from_json(cls, payload: str) -> "Vocabulary":
        tokens = json.loads(payload)
        return cls.from_tokens(tokens[2:])

    @classmethod
    def from_tokens(cls, tokens: Sequence[str]) -> "Vocabulary":
        id_to_token = (PAD_TOKEN, MASK_TOKEN) + tuple(tokens)
        token_to_id = {tok: i for i, tok in enumerate(id_to_token)}
        if len(token_to_id) != len(id_to_token):
            raise CorpusError("duplicate tokens in vocabulary")
        return cls(id_to_token=id_to_token, token_to_id=token_to_id)


def build_vocab(datasets: Iterable[Dataset] | Dataset, min_freq: int = 1) -> Vocabulary:
    """Vocabulary over the given (training) datasets with a frequency cutoff."""
    if isinstance(datasets, Dataset):
        datasets = [datasets]
    counts: Counter[str] = Counter()
    for ds in datasets:
        for ex in ds:
            counts.update(ex.tokens)
    if not counts:
        raise CorpusError("cannot build a vocabulary from an empty corpus")
    kept = [t for t, c in counts.items() if c >= min_freq and t not in (PAD_TOKEN, MASK_TOKEN)]
    # most frequent first, ties alphabetical, so ids are stable across runs
    kept.sort(key=lambda t: (-counts[t], t))
    return Vocabulary.from_tokens(kept)


def load_embeddings(path: str | Path, vocab: Vocabulary, dim: int, seed: int = 0) -> np.ndarray:
    """Load pretrained vectors in the standard "word f1 ... fd" text format
    into a |V| x dim table.

    In-vocabulary tokens absent from the file are initialized uniformly in
    [-0.05, 0.05] from `seed`; PAD and MASK rows are zeroed after the load no
    matter what the file says.
    """
    path = Path(path)
    rng = np.random.default_rng(seed)
    vectors = rng.uniform(-0.05, 0.05, size=(len(vocab), dim))
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            parts = line.rstrip("\n").split(" ")
            if len(parts) < 2 or not parts[0]:
                continue
            token, values = parts[0], parts[1:]
            if token not in vocab.token_to_id:
                continue
            if len(values) != dim:
                raise CorpusError(
                    f"embedding dimension mismatch for token {token!r}: "
                    f"expected {dim} values, got {len(values)}"
                )
            try:
                row = [float(v) for v in values]
            except ValueError:
                raise CorpusError(
                    f"{path}:{lineno}: token {token!r} has a value that is not a number"
                ) from None
            if not all(map(math.isfinite, row)):
                raise CorpusError(f"{path}:{lineno}: token {token!r} has a non-finite value")
            vectors[vocab.token_to_id[token]] = row
    vectors[PAD_ID] = 0.0
    vectors[MASK_ID] = 0.0
    return vectors


# ---------------------------------------------------------------------------
# JSON-lines corpora
# ---------------------------------------------------------------------------


def _binarize_rating(rating: float, domain: str) -> Optional[int]:
    """Map a raw rating to a binary label; None means the example is dropped."""
    if domain == "beer":
        if rating <= 0.4:
            return 0
        if rating >= 0.6:
            return 1
        return None
    if domain == "hotel":
        if rating < 3:
            return 0
        if rating > 3:
            return 1
        return None
    raise CorpusError(f"unknown domain {domain!r}")


def expand_spans(spans: Sequence[Sequence[int]], length: int, example_id: str) -> tuple[int, ...]:
    """Expand end-exclusive [start, end) intervals into a 0/1 mask of `length`."""
    mask = [0] * length
    for span in spans:
        if len(span) != 2:
            raise CorpusError(f"example {example_id}: span {span!r} is not a [start, end) pair")
        try:
            start, end = int(span[0]), int(span[1])
        except (TypeError, ValueError):
            raise CorpusError(
                f"example {example_id}: span {span!r} does not hold two integers"
            ) from None
        if start < 0 or end > length or start > end:
            raise CorpusError(
                f"example {example_id}: span [{start}, {end}) out of bounds for length {length}"
            )
        for i in range(start, end):
            mask[i] = 1
    return tuple(mask)


def _parse_jsonl_record(line: str, lineno: int, domain: Optional[str]) -> Optional[Example]:
    try:
        record = json.loads(line)
    except json.JSONDecodeError as exc:
        raise CorpusError(f"line {lineno}: invalid JSON ({exc.msg})") from exc
    if not isinstance(record, dict):
        raise CorpusError(f"line {lineno}: record is not an object")
    try:
        text = record["text"]
    except KeyError:
        raise CorpusError(f"line {lineno}: missing 'text' field") from None
    if not isinstance(text, str):
        raise CorpusError(f"line {lineno}: text must be a string, got {text!r}")
    tokens = tuple(text.split())
    if not tokens:
        raise CorpusError(f"line {lineno}: empty text")
    ex_id = record.get("id", f"line{lineno}")
    if isinstance(ex_id, bool) or not isinstance(ex_id, (str, int)):
        raise CorpusError(f"line {lineno}: id must be a string or an integer, got {ex_id!r}")
    ex_id = str(ex_id)

    if "label" in record:
        label = record["label"]
        if isinstance(label, bool) or label not in (0, 1):
            raise CorpusError(f"line {lineno}: label must be 0 or 1, got {label!r}")
    elif "rating" in record:
        if domain is None:
            raise CorpusError(f"line {lineno}: raw rating present but no domain given")
        try:
            if isinstance(record["rating"], bool):  # float(True) is 1.0
                raise TypeError
            rating = float(record["rating"])
        except (TypeError, ValueError):
            raise CorpusError(
                f"line {lineno}: rating must be a number, got {record['rating']!r}"
            ) from None
        if not math.isfinite(rating):
            raise CorpusError(f"line {lineno}: rating must be finite, got {record['rating']!r}")
        label = _binarize_rating(rating, domain)
        if label is None:
            return None
    else:
        raise CorpusError(f"line {lineno}: record has neither 'label' nor 'rating'")

    gold = None
    try:
        if "rationale_spans" in record and record["rationale_spans"] is not None:
            spans = record["rationale_spans"]
            gold = expand_spans(spans, len(tokens), ex_id)
            if not spans:
                logger.warning("example %s: empty rationale span list, gold mask is all zero",
                               ex_id)
        return Example(id=ex_id, tokens=tokens, label=int(label), gold_mask=gold)
    except CorpusError as exc:
        raise CorpusError(f"line {lineno}: {exc}") from None


def _read_jsonl(path: Path, domain: Optional[str]) -> list[Example]:
    """The file's examples; ids are unique within it, as `masks.jsonl` keys by id."""
    examples, id_lines = [], {}
    with path.open("r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            ex = _parse_jsonl_record(line, lineno, domain)
            if ex is not None:
                if ex.id in id_lines:
                    raise CorpusError(f"line {lineno}: id {ex.id!r} repeats line {id_lines[ex.id]}")
                id_lines[ex.id] = lineno
                examples.append(ex)
    return examples


def balance_split(examples: Sequence[Example], seed: int) -> tuple[Example, ...]:
    """Subsample the majority class so |pos| == |neg| exactly, preserving order."""
    pos = [i for i, ex in enumerate(examples) if ex.label == 1]
    neg = [i for i, ex in enumerate(examples) if ex.label == 0]
    n = min(len(pos), len(neg))
    rng = np.random.default_rng(seed)
    keep = set(rng.choice(pos, size=n, replace=False).tolist())
    keep |= set(rng.choice(neg, size=n, replace=False).tolist())
    return tuple(ex for i, ex in enumerate(examples) if i in keep)


def load_reviews(
    path: str | Path,
    aspect: str,
    domain: str,
    split: str = "train",
    seed: int = 0,
) -> Dataset:
    """Load a review corpus split, binarizing raw ratings per domain.

    Beer ratings <= 0.4 become label 0 and >= 0.6 label 1; hotel ratings < 3
    become 0 and > 3 become 1; everything in between is dropped.  The train
    split is subsampled to exact class balance using `seed`.
    """
    known = {"beer": BEER_ASPECTS, "hotel": HOTEL_ASPECTS}
    if domain not in known:
        raise CorpusError(f"unknown domain {domain!r}; expected one of {sorted(known)}")
    if aspect not in known[domain]:
        raise CorpusError(f"unknown {domain} aspect {aspect!r}; expected one of {known[domain]}")
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"corpus file not found: {path}")
    examples = _read_jsonl(path, domain)
    if split == "train":
        examples = balance_split(examples, seed)
    if not examples:
        raise CorpusError(f"{path}: no usable examples for split {split!r}")
    return Dataset(split=split, examples=tuple(examples), aspect=aspect)


def load_annotations(path: str | Path, domain: Optional[str] = None, aspect: str = "") -> Dataset:
    """Load the human-annotated split; every example must carry rationale spans."""
    path = Path(path)
    if not path.exists():
        raise CorpusError(f"annotation file not found: {path}")
    examples = _read_jsonl(path, domain)
    if not examples:
        raise CorpusError(f"{path}: no usable annotation examples")
    for ex in examples:
        if ex.gold_mask is None:
            raise CorpusError(f"annotation example {ex.id} has no rationale spans")
    return Dataset(split="annotation", examples=tuple(examples), aspect=aspect)


def gold_sparsity(dataset: Dataset) -> float:
    """Mean fraction of gold-selected tokens over the examples that carry gold."""
    fractions = [
        sum(ex.gold_mask) / len(ex.tokens) for ex in dataset if ex.gold_mask is not None
    ]
    if not fractions:
        raise CorpusError("no gold masks present")
    return float(np.mean(fractions))


@contextmanager
def atomic_write(path: str | Path, mode: str = "w") -> Iterator[IO]:
    """Open `path` for writing ("w": UTF-8 text, no newline translation;
    "wb": bytes) through a temporary file beside it.  The temporary replaces
    `path` whole when the block ends; if the block raises, it is removed and
    `path` keeps what it held, so a reader never sees a half-written file."""
    path = Path(path)
    tmp = path.with_name(path.name + ".tmp")
    text = {} if "b" in mode else {"encoding": "utf-8", "newline": ""}
    try:
        with tmp.open(mode, **text) as fh:
            yield fh
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def write_jsonl(dataset: Dataset, path: str | Path) -> None:
    """Emit a dataset in the canonical JSON-lines format."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with atomic_write(path) as fh:
        for ex in dataset:
            record: dict = {"id": ex.id, "label": ex.label, "text": " ".join(ex.tokens)}
            if ex.gold_mask is not None:
                record["rationale_spans"] = _mask_to_spans(ex.gold_mask)
            fh.write(json.dumps(record) + "\n")


def _mask_to_spans(mask: Sequence[int]) -> list[list[int]]:
    """The [start, end) runs of 1s in a 0/1 mask: where it steps up, then down."""
    return np.flatnonzero(np.diff([0, *mask, 0])).reshape(-1, 2).tolist()


# ---------------------------------------------------------------------------
# Batching
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Batch:
    """A padded mini-batch; pad_mask is 1.0 at real tokens, 0.0 at padding."""

    ids: tuple[str, ...]
    token_ids: np.ndarray  # (B, L) int32
    pad_mask: np.ndarray  # (B, L) float64
    lengths: np.ndarray  # (B,) int64, post-truncation
    labels: np.ndarray  # (B,) int64

    def __len__(self) -> int:
        return len(self.ids)


def make_batches(
    dataset: Dataset,
    vocab: Vocabulary,
    batch_size: int,
    max_len: int = 256,
    seed: int = 0,
    shuffle: bool = False,
) -> list[Batch]:
    """Chunk a dataset into padded batches, truncating at max_len.

    Equal seeds give identical batch order.  Annotation examples longer than
    max_len stay in, with a warning: `evaluate_model` scores the kept prefix.
    """
    if batch_size < 1:
        raise ValueError("batch_size must be >= 1")
    order = np.arange(len(dataset))
    if shuffle:
        np.random.default_rng(seed).shuffle(order)
    truncated = sum(1 for ex in dataset if len(ex) > max_len)
    if truncated and dataset.split == "annotation":
        logger.warning(
            "%d annotation example(s) exceed max_len=%d; scoring truncated prefixes",
            truncated,
            max_len,
        )
    encoded = dataset.token_ids(vocab)
    batches = []
    for start in range(0, len(dataset), batch_size):
        rows = order[start : start + batch_size]
        chunk = [dataset[int(i)] for i in rows]
        lengths = np.array([min(len(ex), max_len) for ex in chunk], dtype=np.int64)
        width = int(lengths.max())
        token_ids = np.full((len(chunk), width), PAD_ID, dtype=np.int32)
        pad_mask = np.zeros((len(chunk), width), dtype=np.float64)
        for row, n in enumerate(lengths):
            token_ids[row, :n] = encoded[rows[row]][:n]
            pad_mask[row, :n] = 1.0
        batches.append(
            Batch(
                ids=tuple(ex.id for ex in chunk),
                token_ids=token_ids,
                pad_mask=pad_mask,
                lengths=lengths,
                labels=np.array([ex.label for ex in chunk], dtype=np.int64),
            )
        )
    return batches


# ---------------------------------------------------------------------------
# Synthetic planted-rationale corpora
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class SynthConfig:
    """Planted-rationale corpus: one class-specific informative span per document,
    label-independent filler elsewhere, and (optionally) a single spurious marker
    token injected outside the span.  Markers are injected into negative documents
    only (presence reveals the class, the way "-" marks negative beer reviews), so
    a degenerate model can classify from marker inclusion without ever selecting
    the true rationale.
    """

    vocab_size: int = 100
    doc_length: int = 20
    span_length: int = 3
    marker_correlation: float = 0.0
    seed: int = 0
    train_size: int = 1000
    dev_size: int = 300
    annotation_size: int = 200
    informative_per_class: int = 40
    marker_count: int = 1

    def __post_init__(self) -> None:
        if self.span_length >= self.doc_length:
            raise CorpusError("span_length must be smaller than doc_length")
        if not 0.0 <= self.marker_correlation <= 1.0:
            raise CorpusError("marker_correlation must lie in [0, 1]")
        if self.informative_per_class < 1 or self.marker_count < 1:
            raise CorpusError("vocabulary partition sizes must be positive")
        if self.filler_count < 1:
            raise CorpusError(
                f"inconsistent partition sizes: vocab_size={self.vocab_size} leaves "
                f"{self.filler_count} filler tokens"
            )
        if self.train_size % 2:
            raise CorpusError("train_size must be even so the train split balances exactly")
        if min(self.train_size, self.dev_size, self.annotation_size) < 2:
            raise CorpusError("split sizes must be at least 2")
        if self.seed < 0:
            raise CorpusError(f"seed must be >= 0, got {self.seed}")

    @property
    def filler_count(self) -> int:
        return self.vocab_size - 2 * self.informative_per_class - self.marker_count

    @property
    def informative_tokens(self) -> tuple[tuple[str, ...], tuple[str, ...]]:
        neg = tuple(f"neg{i}" for i in range(self.informative_per_class))
        pos = tuple(f"pos{i}" for i in range(self.informative_per_class))
        return neg, pos

    @property
    def marker_tokens(self) -> tuple[str, ...]:
        return tuple(f"mark{i}" for i in range(self.marker_count))

    @property
    def filler_tokens(self) -> tuple[str, ...]:
        return tuple(f"fill{i}" for i in range(self.filler_count))

    def token_classes(self) -> dict[str, str]:
        """Map every synthetic token to its class for degeneration diagnostics."""
        classes: dict[str, str] = {}
        for side in self.informative_tokens:
            classes.update({t: CLASS_INFORMATIVE for t in side})
        classes.update({t: CLASS_MARKER for t in self.marker_tokens})
        classes.update({t: CLASS_FILLER for t in self.filler_tokens})
        return classes


def _synth_document(
    cfg: SynthConfig, pools: tuple[np.ndarray, ...], label: int, rng: np.random.Generator
) -> tuple[tuple[str, ...], tuple[int, ...]]:
    """One document from `pools` = (fillers, negative informative, positive
    informative, markers), object arrays of `str`.  `pool[rng.integers(0,
    len(pool), size)]` draws what `rng.choice(pool, size)` draws, without its
    per-call argument handling."""
    fillers, informative, markers = pools[0], pools[1 + label], pools[3]
    tokens = fillers[rng.integers(0, len(fillers), cfg.doc_length)].tolist()
    start = int(rng.integers(0, cfg.doc_length - cfg.span_length + 1))
    end = start + cfg.span_length
    tokens[start:end] = informative[rng.integers(0, len(informative), cfg.span_length)].tolist()
    gold = [0] * cfg.doc_length
    gold[start:end] = [1] * cfg.span_length
    if label == 0 and rng.random() < cfg.marker_correlation:
        outside = [*range(start), *range(end, cfg.doc_length)]
        pos = outside[rng.integers(0, len(outside))]  # drawn before the marker token
        tokens[pos] = markers[rng.integers(0, len(markers))]
    return tuple(tokens), tuple(gold)


def synth_generate(cfg: SynthConfig) -> Splits:
    """Generate disjoint train/dev/annotation splits, fully determined by the seed."""
    rng = np.random.default_rng(cfg.seed)
    seen: set[tuple[str, ...]] = set()
    pools = tuple(
        np.array(tokens, dtype=object)
        for tokens in (cfg.filler_tokens, *cfg.informative_tokens, cfg.marker_tokens)
    )

    def generate(split: str, size: int) -> Dataset:
        labels = np.array([1] * (size // 2) + [0] * (size - size // 2))
        rng.shuffle(labels)
        examples = []
        for i, label in enumerate(labels.tolist()):
            for _ in range(100):
                tokens, gold = _synth_document(cfg, pools, label, rng)
                if tokens not in seen:
                    break
            else:
                raise CorpusError("could not generate distinct documents; vocabulary too small")
            seen.add(tokens)
            examples.append(
                Example(id=f"{split}-{i:05d}", tokens=tokens, label=label, gold_mask=gold)
            )
        return Dataset(split=split, examples=tuple(examples), aspect="synthetic")

    train = generate("train", cfg.train_size)
    dev = generate("dev", cfg.dev_size)
    annotation = generate("annotation", cfg.annotation_size)
    return Splits(train=train, dev=dev, annotation=annotation)


def classify_tokens(
    tokens: Sequence[str], token_classes: Optional[Mapping[str, str]] = None
) -> tuple[str, ...]:
    """Token-class labels for degeneration diagnostics.

    Exact classes come from a synthetic vocabulary partition when given;
    otherwise only punctuation is distinguished from everything else.
    """
    if token_classes is not None:
        return tuple(token_classes.get(t, CLASS_FILLER) for t in tokens)
    return tuple(
        CLASS_PUNCTUATION if t in PUNCTUATION_TOKENS else CLASS_FILLER for t in tokens
    )
