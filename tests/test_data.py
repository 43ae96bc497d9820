"""Corpus loading, vocabulary, batching, and synthetic-corpus contracts."""

import hashlib
import json

import numpy as np
import pytest

from rationalift import data
from rationalift.data import (
    CLASS_FILLER,
    CLASS_INFORMATIVE,
    CLASS_MARKER,
    MASK_ID,
    PAD_ID,
    CorpusError,
    Dataset,
    Example,
    SynthConfig,
    Vocabulary,
    build_vocab,
    expand_spans,
    gold_sparsity,
    load_annotations,
    load_embeddings,
    load_reviews,
    make_batches,
    synth_generate,
    write_jsonl,
)


def _write_lines(path, records):
    with open(path, "w", encoding="utf-8") as fh:
        for r in records:
            fh.write(json.dumps(r) + "\n")


class TestExample:
    def test_gold_mask_length_must_match(self):
        with pytest.raises(CorpusError, match="gold mask length"):
            Example(id="x", tokens=("a", "b"), label=0, gold_mask=(1,))

    @pytest.mark.parametrize("gold", [(0.5, 1), (1.9, 0), ("1", 0)])
    def test_gold_mask_values_checked_before_conversion(self, gold):
        with pytest.raises(CorpusError, match="0/1"):
            Example(id="x", tokens=("a", "b"), label=0, gold_mask=gold)

    @pytest.mark.parametrize("gold", [(True, 0), (1.0, 0)])
    def test_gold_mask_accepts_binary_numbers(self, gold):
        ex = Example(id="x", tokens=("a", "b"), label=0, gold_mask=gold)
        assert ex.gold_mask == (1, 0) and all(type(m) is int for m in ex.gold_mask)

    def test_label_must_be_binary(self):
        with pytest.raises(CorpusError, match="label"):
            Example(id="x", tokens=("a",), label=2)

    def test_empty_tokens_rejected(self):
        with pytest.raises(CorpusError, match="empty"):
            Example(id="x", tokens=(), label=0)


class TestLoadReviews:
    def test_beer_binarization(self, tmp_path):
        path = tmp_path / "beer.jsonl"
        _write_lines(
            path,
            [
                {"id": "a", "rating": 0.3, "text": "flat and stale"},
                {"id": "b", "rating": 0.5, "text": "middling beer here"},
                {"id": "c", "rating": 0.7, "text": "bright crisp hops"},
                {"id": "d", "rating": 0.4, "text": "thin watery pour"},
                {"id": "e", "rating": 0.6, "text": "lovely amber color"},
            ],
        )
        ds = load_reviews(path, "aroma", "beer", split="dev")
        by_id = {ex.id: ex.label for ex in ds}
        assert by_id == {"a": 0, "c": 1, "d": 0, "e": 1}  # b dropped

    def test_hotel_rating_three_dropped(self, tmp_path):
        path = tmp_path / "hotel.jsonl"
        _write_lines(
            path,
            [
                {"id": "a", "rating": 2, "text": "dirty room"},
                {"id": "b", "rating": 3, "text": "average stay"},
                {"id": "c", "rating": 4, "text": "spotless and kind"},
            ],
        )
        ds = load_reviews(path, "cleanliness", "hotel", split="dev")
        assert {ex.id for ex in ds} == {"a", "c"}

    def test_train_split_balanced_exactly(self, tmp_path):
        path = tmp_path / "beer.jsonl"
        records = [
            {"id": f"p{i}", "rating": 0.9, "text": f"good beer {i}"} for i in range(7)
        ] + [{"id": f"n{i}", "rating": 0.1, "text": f"bad beer {i}"} for i in range(3)]
        _write_lines(path, records)
        ds = load_reviews(path, "palate", "beer", split="train", seed=5)
        neg, pos = ds.label_counts()
        assert neg == pos == 3

    def test_malformed_record_names_line(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text('{"id": "a", "rating": 0.9, "text": "ok beer"}\n{broken\n')
        with pytest.raises(CorpusError, match="line 2"):
            load_reviews(path, "aroma", "beer", split="dev")

    def test_empty_split_is_error(self, tmp_path):
        path = tmp_path / "mid.jsonl"
        _write_lines(path, [{"id": "a", "rating": 0.5, "text": "middle beer"}])
        with pytest.raises(CorpusError, match="no usable"):
            load_reviews(path, "aroma", "beer", split="dev")

    def test_unknown_aspect_rejected(self, tmp_path):
        path = tmp_path / "x.jsonl"
        _write_lines(path, [{"id": "a", "rating": 0.9, "text": "ok"}])
        with pytest.raises(CorpusError, match="aspect"):
            load_reviews(path, "smell", "beer")

    def test_explicit_labels_pass_through(self, tmp_path):
        path = tmp_path / "lab.jsonl"
        _write_lines(path, [{"id": "a", "label": 1, "text": "good"},
                            {"id": "b", "label": 0, "text": "bad"}])
        ds = load_reviews(path, "aroma", "beer", split="dev")
        assert sorted(ex.label for ex in ds) == [0, 1]

    @pytest.mark.parametrize("rating", ["NaN", "Infinity", '"nan"'])
    def test_non_finite_rating_rejected(self, tmp_path, rating):
        # a NaN rating compares false against every threshold, so it was dropped
        path = tmp_path / "beer.jsonl"
        path.write_text('{"id": "a", "rating": 0.9, "text": "ok beer"}\n'
                        f'{{"id": "b", "rating": {rating}, "text": "odd beer"}}\n')
        with pytest.raises(CorpusError, match="line 2: rating must be finite"):
            load_reviews(path, "aroma", "beer", split="dev")

    def test_boolean_rating_rejected(self, tmp_path):
        path = tmp_path / "beer.jsonl"
        _write_lines(path, [{"id": "a", "rating": True, "text": "good"}])
        with pytest.raises(CorpusError, match="line 1: rating must be a number, got True"):
            load_reviews(path, "aroma", "beer", split="dev")

    @pytest.mark.parametrize("label", [True, False])
    def test_boolean_label_rejected(self, tmp_path, label):
        # True == 1 and False == 0, so `in (0, 1)` alone lets a boolean through
        path = tmp_path / "lab.jsonl"
        _write_lines(path, [{"id": "a", "label": label, "text": "good"}])
        with pytest.raises(CorpusError, match="line 1: label must be 0 or 1"):
            load_reviews(path, "aroma", "beer", split="dev")

    @pytest.mark.parametrize("text", [None, 123, ["x", "y"]], ids=["null", "number", "list"])
    def test_non_string_text_rejected(self, tmp_path, text):
        # str() made a document of any value: the tokens None, 123 or ['x', 'y']
        path = tmp_path / "lab.jsonl"
        _write_lines(path, [{"id": "a", "label": 1, "text": "good"},
                            {"id": "b", "label": 0, "text": text}])
        with pytest.raises(CorpusError, match="line 2: text must be a string"):
            load_reviews(path, "aroma", "beer", split="dev")


class TestAnnotations:
    def test_interval_expansion(self):
        assert expand_spans([[2, 5]], 6, "x") == (0, 0, 1, 1, 1, 0)

    def test_out_of_bounds_names_example(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        _write_lines(path, [{"id": "weird", "label": 1, "text": "a b c",
                             "rationale_spans": [[2, 9]]}])
        with pytest.raises(CorpusError, match="weird"):
            load_annotations(path)

    def test_empty_interval_list_warns_and_zeroes(self, tmp_path, caplog):
        path = tmp_path / "ann.jsonl"
        _write_lines(path, [{"id": "a", "label": 1, "text": "a b c", "rationale_spans": []}])
        with caplog.at_level("WARNING"):
            ds = load_annotations(path)
        assert ds[0].gold_mask == (0, 0, 0)
        assert any("empty rationale" in m for m in caplog.messages)

    def test_gold_required(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        _write_lines(path, [{"id": "a", "label": 1, "text": "a b c"}])
        with pytest.raises(CorpusError, match="no rationale"):
            load_annotations(path)

    def test_mean_gold_sparsity(self, tmp_path):
        path = tmp_path / "ann.jsonl"
        _write_lines(path, [
            {"id": "a", "label": 1, "text": "a b c d", "rationale_spans": [[0, 2]]},
            {"id": "b", "label": 0, "text": "a b c d e", "rationale_spans": [[0, 1]]},
        ])
        ds = load_annotations(path)
        assert gold_sparsity(ds) == pytest.approx((2 / 4 + 1 / 5) / 2)


class TestAtomicWrite:
    def test_raise_partway_keeps_previous_file(self, tmp_path):
        path = tmp_path / "final.json"
        path.write_text("previous\n")
        with pytest.raises(RuntimeError, match="partway"):
            with data.atomic_write(path) as fh:
                fh.write("half of the new cont")
                raise RuntimeError("partway")
        assert path.read_text() == "previous\n"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["final.json"]

    @pytest.mark.parametrize("mode,payload", [("w", "a\r\nb\n"), ("wb", b"\x00\r\n\xff")])
    def test_replaces_whole_file_with_exact_bytes(self, tmp_path, mode, payload):
        path = tmp_path / "out"
        path.write_text("a much longer previous content\n")
        with data.atomic_write(path, mode) as fh:
            fh.write(payload)
        raw = payload if isinstance(payload, bytes) else payload.encode("utf-8")
        assert path.read_bytes() == raw
        assert sorted(p.name for p in tmp_path.iterdir()) == ["out"]


class TestVocabulary:
    def test_build_from_corpus(self):
        ds = Dataset("train", (
            Example("1", ("a", "b"), 0),
            Example("2", ("b", "c"), 1),
        ))
        vocab = build_vocab(ds)
        assert set(vocab.id_to_token) == {"<pad>", "<mask>", "a", "b", "c"}
        assert vocab.token_to_id["<pad>"] == PAD_ID
        assert vocab.token_to_id["<mask>"] == MASK_ID

    def test_min_frequency_cutoff(self):
        ds = Dataset("train", (
            Example("1", ("a", "b"), 0),
            Example("2", ("b", "c"), 1),
        ))
        vocab = build_vocab(ds, min_freq=2)
        assert set(vocab.id_to_token) == {"<pad>", "<mask>", "b"}

    def test_empty_corpus_is_error(self):
        with pytest.raises(CorpusError):
            build_vocab([])

    def test_unknown_token_encodes_to_mask(self):
        vocab = Vocabulary.from_tokens(["a"])
        assert vocab.encode(["a", "zzz"]).tolist() == [vocab.token_to_id["a"], MASK_ID]

    def test_json_roundtrip(self):
        vocab = Vocabulary.from_tokens(["b", "a", "c"])
        again = Vocabulary.from_json(vocab.to_json())
        assert again.id_to_token == vocab.id_to_token


class TestEmbeddings:
    def test_identity_load(self, tmp_path):
        vocab = Vocabulary.from_tokens(["good", "bad"])
        path = tmp_path / "vec.txt"
        path.write_text("good " + " ".join(str(0.1 * i) for i in range(4)) + "\n")
        table = load_embeddings(path, vocab, 4, seed=0)
        assert table[vocab.token_to_id["good"]] == pytest.approx(
            [0.0, 0.1, 0.2, 0.3]
        )

    def test_missing_token_sampled_within_bounds(self, tmp_path):
        vocab = Vocabulary.from_tokens([f"t{i}" for i in range(1000)])
        path = tmp_path / "vec.txt"
        path.write_text("")
        table = load_embeddings(path, vocab, 8, seed=3)
        rows = table[2:]  # 1000 out-of-file tokens
        assert np.all(rows >= -0.05) and np.all(rows <= 0.05)

    def test_mask_row_zero_even_if_in_file(self, tmp_path):
        vocab = Vocabulary.from_tokens(["x"])
        path = tmp_path / "vec.txt"
        path.write_text("<mask> 1.0 1.0\n<pad> 1.0 1.0\nx 0.5 0.5\n")
        table = load_embeddings(path, vocab, 2, seed=0)
        assert np.all(table[MASK_ID] == 0.0)
        assert np.all(table[PAD_ID] == 0.0)

    def test_dimension_mismatch_names_token(self, tmp_path):
        vocab = Vocabulary.from_tokens(["good"])
        path = tmp_path / "vec.txt"
        path.write_text("good 0.1 0.2\n")
        with pytest.raises(CorpusError, match="good"):
            load_embeddings(path, vocab, 3, seed=0)

    @pytest.mark.parametrize("value", ["nan", "inf", "-inf", "1e999"])
    def test_non_finite_value_names_line(self, tmp_path, value):
        vocab = Vocabulary.from_tokens(["good", "bad"])
        path = tmp_path / "vec.txt"
        path.write_text(f"bad 0.1 0.2\ngood {value} 0.1\n")
        with pytest.raises(CorpusError, match=r"vec\.txt:2: token 'good' has a non-finite"):
            load_embeddings(path, vocab, 2, seed=0)


class TestBatching:
    def _dataset(self, lengths):
        return Dataset("train", tuple(
            Example(str(i), tuple(f"t{j}" for j in range(n)), i % 2)
            for i, n in enumerate(lengths)
        ))

    def test_batch_sizes(self):
        ds = self._dataset([3, 3, 3, 3, 3])
        vocab = build_vocab(ds)
        batches = make_batches(ds, vocab, batch_size=2)
        assert [len(b) for b in batches] == [2, 2, 1]

    def test_truncation_and_pad_mask(self):
        ds = self._dataset([3, 5])
        vocab = build_vocab(ds)
        (batch,) = make_batches(ds, vocab, batch_size=2, max_len=4)
        assert batch.lengths.tolist() == [3, 4]
        assert batch.pad_mask.tolist() == [[1, 1, 1, 0], [1, 1, 1, 1]]
        assert batch.token_ids[0, 3] == PAD_ID

    def test_shuffle_deterministic_given_seed(self):
        ds = self._dataset([2] * 20)
        vocab = build_vocab(ds)
        a = make_batches(ds, vocab, 4, seed=9, shuffle=True)
        b = make_batches(ds, vocab, 4, seed=9, shuffle=True)
        assert [x.ids for x in a] == [y.ids for y in b]
        c = make_batches(ds, vocab, 4, seed=10, shuffle=True)
        assert [x.ids for x in a] != [z.ids for z in c]

    def test_each_example_encoded_once_per_vocabulary(self, monkeypatch):
        ds = self._dataset([5, 2, 4, 3, 1, 5])
        vocab = build_vocab(ds)
        other = Vocabulary.from_tokens(["t1", "t0"])
        encode = Vocabulary.encode
        calls = []
        monkeypatch.setattr(Vocabulary, "encode",
                            lambda self, tokens: calls.append(self) or encode(self, tokens))
        for seed in range(3):
            for v in (vocab, other):
                for batch in make_batches(ds, v, 4, max_len=4, seed=seed, shuffle=True):
                    for row, ex_id in enumerate(batch.ids):
                        tokens = ds[int(ex_id)].tokens[:4]
                        padded = np.full(batch.token_ids.shape[1], PAD_ID, dtype=np.int32)
                        padded[: len(tokens)] = encode(v, tokens)
                        assert np.array_equal(batch.token_ids[row], padded)
        assert calls.count(vocab) == calls.count(other) == len(ds)


# sha256 over every split's (id, tokens, label, gold mask), taken from the
# generator as it stood before it drew from token arrays built once per call:
# the corpora of the tests, the acceptance suite, the configs and the benchmark
SYNTH_DIGESTS = [
    (dict(), "81721c7a293c1054"),  # the defaults: acceptance recovery corpus
    (dict(marker_correlation=1.0, train_size=600, marker_count=5),
     "714f8271aac5b3d3"),  # acceptance skew corpus
    (dict(marker_correlation=1.0, train_size=600, marker_count=5, seed=1),
     "52d9356b1af55f6f"),  # benchmark skew-fr, seed 1
    (dict(vocab_size=1000, doc_length=256, span_length=16, seed=1, train_size=64,
          dev_size=16, annotation_size=16), "73b97287d12af066"),  # benchmark long-rnp
    (dict(train_size=600, seed=1), "fc4153a88d07cef8"),  # benchmark cli-grid
    (dict(vocab_size=40, doc_length=10, span_length=2, train_size=40, dev_size=16,
          annotation_size=16, informative_per_class=5), "44baaa3e31a57bb3"),  # CLI tests
    (dict(vocab_size=40, doc_length=10, span_length=2, train_size=60, dev_size=20,
          annotation_size=20, informative_per_class=5, marker_correlation=0.5),
     "c20ac256d46cbbb9"),  # training tests
    (dict(vocab_size=30, doc_length=7, span_length=2, seed=3, train_size=6, dev_size=2,
          annotation_size=2, informative_per_class=3), "252e11a2297d4039"),  # model tests
]


def _splits_digest(splits) -> str:
    rows = [[ex.id, list(ex.tokens), ex.label, list(ex.gold_mask)]
            for ds in (splits.train, splits.dev, splits.annotation) for ex in ds]
    return hashlib.sha256(json.dumps(rows).encode()).hexdigest()[:16]


class TestSynthetic:
    @pytest.mark.parametrize("overrides, digest", SYNTH_DIGESTS)
    def test_corpus_digest_pinned(self, overrides, digest):
        assert _splits_digest(synth_generate(SynthConfig(**overrides))) == digest

    def test_no_marker_when_correlation_zero(self):
        cfg = SynthConfig(train_size=60, dev_size=20, annotation_size=20, seed=1)
        splits = synth_generate(cfg)
        markers = set(cfg.marker_tokens)
        for ds in (splits.train, splits.dev, splits.annotation):
            for ex in ds:
                assert not markers & set(ex.tokens)

    def test_gold_sparsity_exact(self):
        cfg = SynthConfig(doc_length=20, span_length=3, train_size=40,
                          dev_size=10, annotation_size=10, seed=2)
        splits = synth_generate(cfg)
        assert gold_sparsity(splits.train) == pytest.approx(3 / 20)

    def test_majority_classifier_near_chance_on_dev(self):
        cfg = SynthConfig(train_size=200, dev_size=200, annotation_size=50, seed=3)
        splits = synth_generate(cfg)
        labels = splits.dev.labels
        majority = max(np.mean(labels == 0), np.mean(labels == 1))
        assert majority == pytest.approx(0.5, abs=0.02)

    def test_train_balanced_exactly(self):
        cfg = SynthConfig(train_size=100, dev_size=10, annotation_size=10, seed=4)
        splits = synth_generate(cfg)
        neg, pos = splits.train.label_counts()
        assert neg == pos == 50

    def test_seed_determinism_byte_identical(self, tmp_path):
        cfg = SynthConfig(train_size=40, dev_size=10, annotation_size=10, seed=5,
                          marker_correlation=0.5)
        a, b = synth_generate(cfg), synth_generate(cfg)
        pa, pb = tmp_path / "a.jsonl", tmp_path / "b.jsonl"
        write_jsonl(a.train, pa)
        write_jsonl(b.train, pb)
        assert pa.read_bytes() == pb.read_bytes()

    def test_splits_disjoint(self):
        cfg = SynthConfig(train_size=80, dev_size=40, annotation_size=40, seed=6)
        splits = synth_generate(cfg)
        seen = set()
        for ds in (splits.train, splits.dev, splits.annotation):
            for ex in ds:
                assert ex.tokens not in seen
                seen.add(ex.tokens)

    def test_annotation_split_fully_annotated(self):
        cfg = SynthConfig(train_size=40, dev_size=10, annotation_size=30, seed=7)
        assert synth_generate(cfg).annotation.has_gold()

    def test_marker_only_in_negative_documents(self):
        cfg = SynthConfig(train_size=200, dev_size=40, annotation_size=40, seed=8,
                          marker_correlation=1.0)
        splits = synth_generate(cfg)
        markers = set(cfg.marker_tokens)
        for ex in splits.train:
            has_marker = bool(markers & set(ex.tokens))
            assert has_marker == (ex.label == 0)

    def test_inconsistent_partition_rejected(self):
        with pytest.raises(CorpusError, match="partition"):
            SynthConfig(vocab_size=10, informative_per_class=5)

    def test_span_tokens_match_label_class(self):
        cfg = SynthConfig(train_size=60, dev_size=10, annotation_size=10, seed=9)
        splits = synth_generate(cfg)
        neg, pos = cfg.informative_tokens
        for ex in splits.train:
            span = {t for t, g in zip(ex.tokens, ex.gold_mask) if g}
            expected = set(pos) if ex.label == 1 else set(neg)
            assert span <= expected

    def test_filler_label_mutual_information_near_zero(self):
        # frequency-table MI between label and filler-token identity
        cfg = SynthConfig(train_size=2000, dev_size=10, annotation_size=10, seed=10)
        splits = synth_generate(cfg)
        fillers = set(cfg.filler_tokens)
        counts: dict[tuple[str, int], int] = {}
        for ex in splits.train:
            for tok in ex.tokens:
                if tok in fillers:
                    counts[(tok, ex.label)] = counts.get((tok, ex.label), 0) + 1
        total = sum(counts.values())
        p_tok: dict[str, float] = {}
        p_lab = {0: 0.0, 1: 0.0}
        for (tok, lab), c in counts.items():
            p_tok[tok] = p_tok.get(tok, 0.0) + c / total
            p_lab[lab] += c / total
        mi = 0.0
        for (tok, lab), c in counts.items():
            p = c / total
            mi += p * np.log2(p / (p_tok[tok] * p_lab[lab]))
        assert mi < 0.01

    def test_jsonl_roundtrip_preserves_examples(self, tmp_path):
        cfg = SynthConfig(train_size=20, dev_size=10, annotation_size=10, seed=11,
                          marker_correlation=1.0)
        splits = synth_generate(cfg)
        path = tmp_path / "train.jsonl"
        write_jsonl(splits.train, path)
        back = load_annotations(path)
        assert len(back) == len(splits.train)
        for orig, again in zip(splits.train, back):
            assert again.tokens == orig.tokens
            assert again.label == orig.label
            assert again.gold_mask == orig.gold_mask

    def test_token_classes_partition(self):
        cfg = SynthConfig()
        classes = cfg.token_classes()
        assert len(classes) == cfg.vocab_size
        assert sorted(set(classes.values())) == [CLASS_FILLER, CLASS_INFORMATIVE, CLASS_MARKER]
