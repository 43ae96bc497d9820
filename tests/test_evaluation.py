"""Metrics against brute-force oracles, diagnostics, rendering, probes."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rationalift import data as dat
from rationalift import evaluation as ev
from rationalift import model as mdl
from rationalift.data import SynthConfig, build_vocab, synth_generate
from rationalift.evaluation import (
    RationaleMetrics,
    accuracy,
    evaluate_model,
    insertion_probe,
    lemma3_probe,
    marker_inclusion_rate,
    render_rationales,
    selection_composition,
    sparsity,
    token_prf,
    uninformative_rationale_probe,
)
from rationalift.objective import softmax


def _brute_force_prf(pred_masks, gold_masks):
    pred = {(i, j) for i, m in enumerate(pred_masks) for j, v in enumerate(m) if v}
    gold = {(i, j) for i, m in enumerate(gold_masks) for j, v in enumerate(m) if v}
    inter = pred & gold
    p = len(inter) / len(pred) if pred else 0.0
    r = len(inter) / len(gold) if gold else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def _loop_prf(pred_masks, gold_masks):
    """token_prf as a loop over examples: the vectorised version's oracle."""
    tp = npred = ngold = 0
    for pred, gold in zip(pred_masks, gold_masks):
        pred, gold = np.asarray(pred).astype(int), np.asarray(gold).astype(int)
        tp += int(np.sum((pred == 1) & (gold == 1)))
        npred += int(pred.sum())
        ngold += int(gold.sum())
    p = tp / npred if npred else 0.0
    r = tp / ngold if ngold else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def _loop_sparsity(pred_masks):
    return float(np.mean([float(np.sum(m)) / len(m) for m in pred_masks]))


# ragged 0/1 masks, each as a list, an int array or a bool array
_mask = st.lists(st.integers(0, 1), min_size=1, max_size=30).flatmap(
    lambda m: st.sampled_from([m, np.array(m, dtype=np.int64), np.array(m, dtype=bool)]))


class TestVectorisedScoresEqualLoop:
    @given(st.lists(st.tuples(_mask, _mask), min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_token_prf(self, pairs):
        pred = [p[: min(len(p), len(g))] for p, g in pairs]
        gold = [g[: min(len(p), len(g))] for p, g in pairs]
        assert token_prf(pred, gold) == _loop_prf(pred, gold)  # float ==: bit for bit

    @given(st.lists(_mask, min_size=1, max_size=12))
    @settings(max_examples=200, deadline=None)
    def test_sparsity(self, masks):
        assert sparsity(masks) == _loop_sparsity(masks)

    @given(st.lists(_mask, min_size=2, max_size=8), st.data())
    @settings(max_examples=50, deadline=None)
    def test_first_length_mismatch_named(self, masks, data):
        i = data.draw(st.integers(0, len(masks) - 1))
        gold = [list(m) for m in masks]
        gold[i] = gold[i] + [0]
        with pytest.raises(ValueError, match=f"example {i}: mask length mismatch"):
            token_prf(masks, gold)

    def test_no_masks(self):
        assert token_prf([], []) == (0.0, 0.0, 0.0)


class TestTokenPRF:
    def test_partial_overlap(self):
        pred = [[0, 0, 1, 1, 1, 0]]
        gold = [[0, 0, 0, 1, 1, 1]]
        p, r, f1 = token_prf(pred, gold)
        assert (p, r, f1) == pytest.approx((2 / 3, 2 / 3, 2 / 3))

    def test_exact_match(self):
        mask = [[1, 0, 1]]
        assert token_prf(mask, mask) == pytest.approx((1.0, 1.0, 1.0))

    def test_disjoint_gives_zero(self):
        assert token_prf([[1, 0]], [[0, 1]]) == pytest.approx((0.0, 0.0, 0.0))

    def test_empty_prediction_convention(self):
        p, r, f1 = token_prf([[0, 0]], [[1, 0]])
        assert (p, r, f1) == (0.0, 0.0, 0.0)

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError, match="example 0"):
            token_prf([[1, 0]], [[1, 0, 0]])

    def test_matches_brute_force_on_random_instances(self):
        rng = np.random.default_rng(0)
        for _ in range(1000):
            n = int(rng.integers(1, 5))
            lengths = rng.integers(1, 12, size=n)
            pred = [rng.integers(0, 2, size=l).tolist() for l in lengths]
            gold = [rng.integers(0, 2, size=l).tolist() for l in lengths]
            assert token_prf(pred, gold) == _brute_force_prf(pred, gold)

    @given(st.lists(st.tuples(st.lists(st.integers(0, 1), min_size=1, max_size=8),
                              st.lists(st.integers(0, 1), min_size=1, max_size=8)),
                    min_size=1, max_size=6))
    @settings(max_examples=100, deadline=None)
    def test_f1_between_min_and_max_of_p_r(self, pairs):
        pred = [p[: min(len(p), len(g))] for p, g in pairs]
        gold = [g[: min(len(p), len(g))] for p, g in pairs]
        p, r, f1 = token_prf(pred, gold)
        if p > 0 and r > 0:
            assert min(p, r) - 1e-12 <= f1 <= max(p, r) + 1e-12


class TestSparsityAccuracy:
    def test_all_zero(self):
        assert sparsity([[0, 0, 0]]) == 0.0

    def test_half(self):
        assert sparsity([[1, 1, 0, 0]]) == 0.5

    def test_all_ones_exact(self):
        assert sparsity([np.ones(7)]) == 1.0

    def test_monotone_in_added_selection(self):
        rng = np.random.default_rng(1)
        mask = rng.integers(0, 2, size=12)
        zeros = np.where(mask == 0)[0]
        if len(zeros) == 0:
            return
        more = mask.copy()
        more[zeros[0]] = 1
        assert sparsity([more]) > sparsity([mask])

    def test_respects_true_lengths(self, probe_world):
        # evaluate_model's S divides each mask by its document's length, not
        # by the padded batch width
        cfg, splits, _, params = probe_world
        ds = dat.Dataset("dev", tuple(
            dat.Example(ex.id, ex.tokens[: 3 + i % 7], ex.label)
            for i, ex in enumerate(splits.dev)))
        run = evaluate_model(params, ds)
        assert [len(m) for m in run.masks] == [len(ex) for ex in ds]
        assert run.metrics.s == _loop_sparsity(run.masks)

    def test_accuracy_all_correct(self):
        logits = np.array([[0.2, 0.9], [1.4, -0.5]])
        assert accuracy(logits, np.array([1, 0])) == 1.0

    def test_accuracy_constant_prediction_balanced(self):
        logits = np.tile(np.array([[1.0, 0.0]]), (10, 1))
        labels = np.array([0, 1] * 5)
        assert accuracy(logits, labels) == 0.5


class TestDegenerationDiagnostics:
    def _classes(self):
        return [
            ["informative", "informative", "filler", "marker", "filler"],
            ["filler", "informative", "informative", "filler", "marker"],
        ]

    def test_perfect_selector_pure_informative(self):
        masks = [[1, 1, 0, 0, 0], [0, 1, 1, 0, 0]]
        comp = selection_composition(masks, self._classes())
        assert comp["informative"] == 1.0
        assert sum(comp.values()) == pytest.approx(1.0)

    def test_marker_only_selector(self):
        masks = [[0, 0, 0, 1, 0], [0, 0, 0, 0, 1]]
        comp = selection_composition(masks, self._classes())
        assert comp["marker"] == 1.0

    def test_rates_sum_to_one(self):
        masks = [[1, 0, 1, 1, 0], [0, 1, 0, 1, 1]]
        comp = selection_composition(masks, self._classes())
        assert sum(comp.values()) == pytest.approx(1.0)

    def test_empty_selection_all_zero(self):
        comp = selection_composition([[0, 0, 0, 0, 0]], self._classes()[:1])
        assert all(v == 0.0 for v in comp.values())

    def test_random_selector_matches_base_rates(self):
        # Monte-Carlo oracle: uniform selection reproduces class base rates
        rng = np.random.default_rng(2)
        cfg = SynthConfig(train_size=600, dev_size=10, annotation_size=10, seed=5,
                          marker_correlation=1.0)
        splits = synth_generate(cfg)
        classes = cfg.token_classes()
        class_rows = [[classes[t] for t in ex.tokens] for ex in splits.train]
        masks = [rng.random(len(ex.tokens)) < 0.15 for ex in splits.train]
        comp = selection_composition(masks, class_rows)
        base_counts: dict[str, int] = {}
        total = 0
        for row in class_rows:
            for c in row:
                base_counts[c] = base_counts.get(c, 0) + 1
                total += 1
        for cls, count in base_counts.items():
            assert comp[cls] == pytest.approx(count / total, abs=0.05)

    def test_marker_inclusion_rate_over_marker_bearing_docs(self):
        masks = [[0, 0, 0, 1, 0], [1, 0, 0, 0, 0]]
        assert marker_inclusion_rate(masks, self._classes()) == 0.5

    def test_marker_inclusion_rate_ignores_marker_free_docs(self):
        classes = [["filler"] * 4, ["filler", "marker", "filler", "filler"]]
        masks = [[1, 1, 0, 0], [0, 1, 0, 0]]
        assert marker_inclusion_rate(masks, classes) == 1.0


class TestRender:
    def _examples(self):
        return [
            dat.Example("a", ("good", "stuff", "here"), 1, gold_mask=(1, 1, 0)),
            dat.Example("b", ("bad", "stuff",), 0, gold_mask=(1, 0)),
        ]

    def test_zero_examples_empty_report(self):
        out = render_rationales(self._examples(), [[1, 0, 0], [0, 1]], n=0)
        assert out == ""

    def test_prediction_on_gold_is_underlined_and_highlighted(self):
        out = render_rationales(self._examples(), [[1, 1, 0], [1, 0]], n=2, fmt="ansi")
        assert "\x1b[4m\x1b[44mgood\x1b[0m" in out

    def test_html_report_self_contained(self):
        out = render_rationales(self._examples(), [[1, 0, 0], [0, 1]], n=2, fmt="html")
        assert out.startswith("<html>")
        assert "<u>good</u>" in out or '<span class="pred"><u>good</u></span>' in out

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            render_rationales(self._examples(), [[1, 0, 0]], n=1, fmt="latex")


@pytest.fixture(scope="module")
def probe_world():
    cfg = SynthConfig(vocab_size=40, doc_length=10, span_length=2, seed=1,
                      train_size=40, dev_size=10, annotation_size=16,
                      informative_per_class=5, marker_count=1,
                      marker_correlation=0.5)
    splits = synth_generate(cfg)
    vocab = build_vocab(splits.train)
    params = mdl.build_model(
        mdl.ModelConfig(embedding_dim=8, hidden_dim=10, share_depth=1), vocab, seed=2
    )
    return cfg, splits, vocab, params


class TestProbes:
    def test_lemma3_identical_sentences_zero_cross_distance(self, probe_world):
        cfg, _, vocab, params = probe_world
        sent = [cfg.informative_tokens[0][0], cfg.filler_tokens[0], cfg.filler_tokens[1]]
        report = lemma3_probe(params, [sent, sent])
        reps = report.representations["generator"]
        a = np.array(reps[0]["states"])
        b = np.array(reps[1]["states"])
        assert np.linalg.norm(a - b) == 0.0

    def test_lemma3_unknown_token_rejected(self, probe_world):
        _, _, _, params = probe_world
        with pytest.raises(ValueError, match="not in vocabulary"):
            lemma3_probe(params, [["totally-unknown-token", "x"]])

    def test_lemma3_reports_both_views_for_two_phase(self, probe_world):
        cfg, _, vocab, _ = probe_world
        params = mdl.build_model(
            mdl.ModelConfig(embedding_dim=8, hidden_dim=10, share_depth=0), vocab, seed=2
        )
        sent = list(cfg.filler_tokens[:3])
        report = lemma3_probe(params, [sent], [["filler"] * 3])
        assert set(report.tables) == {"generator", "predictor"}

    def test_lemma3_folded_reports_single_view(self, probe_world):
        cfg, _, _, params = probe_world
        sent = list(cfg.filler_tokens[:3])
        report = lemma3_probe(params, [sent], [["filler"] * 3])
        assert set(report.tables) == {"generator"}

    def test_probe_purity(self, probe_world):
        cfg, _, _, params = probe_world
        sent = [cfg.informative_tokens[1][0], cfg.filler_tokens[0],
                cfg.filler_tokens[1], cfg.informative_tokens[1][1]]
        a = lemma3_probe(params, [sent])
        b = lemma3_probe(params, [sent])
        assert a.to_json() == b.to_json()

    def test_insertion_without_examples_rejected(self, probe_world):
        cfg, _, _, params = probe_world
        with pytest.raises(ValueError, match="at least one example"):
            insertion_probe(params, [], token=cfg.filler_tokens[0])

    def test_insertion_untrained_model_reports_without_assertion(self, probe_world):
        cfg, splits, _, params = probe_world
        report = insertion_probe(params, list(splits.annotation)[:2],
                                 token=cfg.filler_tokens[0])
        rows = report.tables["deltas"]
        assert len(rows) == 2
        assert len(rows[0]) == len(splits.annotation[0].tokens) + 1

    def test_uninformative_probe_identical_rationales_zero_distance(self, probe_world):
        cfg, _, vocab, params = probe_world
        tokens = tuple(cfg.filler_tokens[i % len(cfg.filler_tokens)] for i in range(8))
        examples = tuple(
            dat.Example(f"e{i}", tokens, 0, gold_mask=(1, 1, 0, 0, 0, 0, 0, 0))
            for i in range(3)
        )
        ds = dat.Dataset("annotation", examples)
        report = uninformative_rationale_probe(params, ds, cfg.token_classes(),
                                               rationale_size=8)
        # every filler-only rationale selects the same 8 tokens of identical docs
        assert report.summary["filler_median_distance"] == pytest.approx(0.0, abs=1e-12)

    def test_uninformative_probe_reports_ratio(self, probe_world):
        cfg, splits, _, params = probe_world
        report = uninformative_rationale_probe(params, splits.annotation,
                                               cfg.token_classes())
        assert report.summary["filler_median_distance"] is not None
        assert report.summary["informative_median_distance"] is not None


# ---------------------------------------------------------------------------
# Batched probes against a per-row B=1 reference
# ---------------------------------------------------------------------------

RTOL, ATOL = 1e-9, 1e-12


def _ref_softmax(params, ids, mask=None):
    """Predictor softmax of one unpadded row, scored alone (B=1)."""
    emb = params.embedding.value[ids][None]
    if mask is not None:
        emb = mdl.apply_mask(emb, mask[None])
    return softmax(mdl.predict(params, emb, np.ones((1, len(ids)))))[0]


def _ref_insertion_deltas(params, examples, token, positions=None):
    tok = params.vocab.encode([token])
    deltas = []
    for ex in examples:
        ids = params.vocab.encode(ex.tokens)
        base = _ref_softmax(params, ids)
        spots = positions if positions is not None else range(len(ids) + 1)
        deltas.append([
            np.max(np.abs(_ref_softmax(params, np.insert(ids, pos, tok)) - base))
            for pos in spots
        ])
    return deltas


def _ref_uninformative(params, examples, token_classes, rationale_size=3, seed=0):
    """Every rationale mask in scoring order, the filler outputs and the gold
    outputs by label, drawn and scored one document at a time."""
    rng = np.random.default_rng(seed)
    masks, filler, informative = [], [], {0: [], 1: []}
    for ex in examples:
        ids = params.vocab.encode(ex.tokens)
        classes = dat.classify_tokens(ex.tokens, token_classes)
        spots = [i for i, c in enumerate(classes) if c == dat.CLASS_FILLER]
        if len(spots) >= rationale_size:
            mask = np.zeros(len(ids))
            mask[rng.choice(spots, size=rationale_size, replace=False)] = 1.0
            masks.append(mask)
            filler.append(_ref_softmax(params, ids, mask))
        if ex.gold_mask is not None and sum(ex.gold_mask) > 0:
            gold = np.array(ex.gold_mask, dtype=np.float64)
            masks.append(gold)
            informative[ex.label].append(_ref_softmax(params, ids, gold))
    return masks, filler, informative


def _close(got, want):
    np.testing.assert_allclose(got, want, rtol=RTOL, atol=ATOL)


def _close_rows(got, want):
    assert len(got) == len(want)
    for g, w in zip(got, want):
        _close(np.asarray(g), w)


@pytest.fixture(scope="module", params=[1, 0], ids=["folded", "two-phase"])
def ragged_world(request, probe_world):
    """Documents of lengths 4..10 (so batches carry padding) under a folded or
    a two-phase model."""
    cfg, splits, vocab, _ = probe_world
    params = mdl.build_model(
        mdl.ModelConfig(embedding_dim=8, hidden_dim=10, share_depth=request.param),
        vocab, seed=3,
    )
    examples = [
        dat.Example(ex.id, ex.tokens[:n], ex.label, gold_mask=ex.gold_mask[:n])
        for ex, n in zip(splits.annotation, [10, 4, 7, 10, 5, 9, 6, 8, 10, 4, 7, 10])
    ]
    return cfg, params, examples


class _PredictCounter:
    """Wraps `model.predict`, recording each call's batch size."""

    def __init__(self, monkeypatch):
        self.rows = []
        inner = mdl.predict

        def counted(params, emb, pad):
            self.rows.append(emb.shape[0])
            return inner(params, emb, pad)

        monkeypatch.setattr(mdl, "predict", counted)


class TestBatchedProbes:
    @pytest.mark.parametrize("positions", [None, (0, 2, 4)], ids=["all", "explicit"])
    def test_insertion_matches_single_row_reference(self, ragged_world, positions):
        cfg, params, examples = ragged_world
        token = cfg.filler_tokens[0]
        report = insertion_probe(params, examples, token, positions=positions)
        want = _ref_insertion_deltas(params, examples, token, positions)
        _close_rows(report.tables["deltas"], want)
        flat = np.concatenate(want)
        _close(report.summary["median_delta"], np.median(flat))
        _close(report.summary["max_delta"], np.max(flat))

    def test_insertion_runs_one_predict_per_document(self, ragged_world, monkeypatch):
        cfg, params, examples = ragged_world
        counter = _PredictCounter(monkeypatch)
        insertion_probe(params, examples, cfg.filler_tokens[0])
        assert counter.rows == [len(ex.tokens) + 2 for ex in examples]

    def test_insertion_chunks_rows_beyond_batch_size(self, ragged_world, monkeypatch):
        cfg, params, examples = ragged_world
        token = cfg.filler_tokens[0]
        monkeypatch.setattr(ev, "EVAL_BATCH_SIZE", 3)
        counter = _PredictCounter(monkeypatch)
        report = insertion_probe(params, examples, token)
        assert max(counter.rows) == 3
        assert len(counter.rows) == sum(-(-(len(ex.tokens) + 2) // 3) for ex in examples)
        _close_rows(report.tables["deltas"], _ref_insertion_deltas(params, examples, token))

    @pytest.mark.parametrize("batch_size", [256, 3], ids=["one-batch", "chunked"])
    def test_lemma3_matches_single_row_reference(self, ragged_world, monkeypatch, batch_size):
        _, params, examples = ragged_world
        monkeypatch.setattr(ev, "EVAL_BATCH_SIZE", batch_size)
        sentences = [list(ex.tokens) for ex in examples]
        report = lemma3_probe(params, sentences)
        views = {"generator": params.gen_layers}
        if not params.config.is_folded:
            views["predictor"] = params.pred_layers
        assert set(report.representations) == set(views)
        for name, layers in views.items():
            want = [
                mdl.encode(layers, params.embedding.value[params.vocab.encode(s)][None],
                           np.ones((1, len(s))))[0][0]
                for s in sentences
            ]
            _close_rows([r["states"] for r in report.representations[name]], want)
            got_d = [row["distance_to_prev"] for row in report.tables[name]]
            want_d = [np.linalg.norm(w[i] - w[i - 1]) for w in want for i in range(1, len(w))]
            _close(got_d, want_d)

    @pytest.mark.parametrize("batch_size", [256, 3], ids=["one-batch", "chunked"])
    def test_uninformative_matches_single_row_reference(self, ragged_world, monkeypatch,
                                                         batch_size):
        cfg, params, examples = ragged_world
        monkeypatch.setattr(ev, "EVAL_BATCH_SIZE", batch_size)
        classes = cfg.token_classes()
        ds = dat.Dataset("annotation", tuple(examples))
        masks, filler, informative = _ref_uninformative(params, examples, classes,
                                                        rationale_size=5, seed=5)
        assert 0 < len(filler) < len(examples)  # some documents have too few fillers
        seen = []
        inner = mdl.apply_mask

        def recording(emb, mask):
            seen.extend(np.asarray(mask))
            return inner(emb, mask)

        monkeypatch.setattr(mdl, "apply_mask", recording)
        report = uninformative_rationale_probe(params, ds, classes, rationale_size=5, seed=5)
        # the same filler positions, drawn in the same order, and zero past each row's end
        assert len(seen) == len(masks)
        for got, want in zip(seen, masks):
            assert got[: len(want)].tolist() == want.tolist()
            assert not got[len(want) :].any()
        assert report.tables["filler_argmax"] == [int(np.argmax(o)) for o in filler]
        want_filler = [np.linalg.norm(filler[i] - filler[j])
                       for i in range(len(filler)) for j in range(i + 1, len(filler))]
        want_cross = [np.linalg.norm(a - b) for a in informative[0] for b in informative[1]]
        _close(report.tables["filler_distances"], want_filler)
        _close(report.tables["informative_distances"], want_cross)

    @pytest.mark.parametrize("pos", [-1, 11])
    def test_insertion_position_outside_document_rejected(self, probe_world, pos):
        cfg, splits, _, params = probe_world
        ex = splits.annotation[0]
        with pytest.raises(ValueError, match=rf"position {pos}\b.*length {len(ex.tokens)}"):
            insertion_probe(params, [ex], cfg.filler_tokens[0], positions=[0, pos])

    def test_empty_insertion_positions_rejected(self, probe_world):
        cfg, splits, _, params = probe_world
        with pytest.raises(ValueError, match="positions"):
            insertion_probe(params, [splits.annotation[0]], cfg.filler_tokens[0], positions=[])

    def test_insertion_at_document_end_accepted(self, probe_world):
        cfg, splits, _, params = probe_world
        ex = splits.annotation[0]
        report = insertion_probe(params, [ex], cfg.filler_tokens[0],
                                 positions=[len(ex.tokens)])
        assert len(report.tables["deltas"][0]) == 1


class TestEvaluateModel:
    def test_metrics_shape_and_agreement(self, probe_world):
        _, splits, _, params = probe_world
        run = evaluate_model(params, splits.annotation)
        assert run.ids == tuple(ex.id for ex in splits.annotation)
        assert np.array_equal(run.labels, splits.annotation.labels)
        manual_acc = accuracy(run.logits, run.labels)
        assert run.metrics.acc == pytest.approx(manual_acc)
        p, r, f1 = token_prf(run.masks, [ex.gold_mask for ex in splits.annotation])
        assert (run.metrics.p, run.metrics.r, run.metrics.f1) == pytest.approx((p, r, f1))

    def test_truncated_annotation_equals_per_document_loop(self, probe_world):
        """Documents past max_len (256) are scored on their kept prefix: the
        masks and P/R/F1 equal a loop that evaluates each truncated document
        on its own."""
        cfg, _, vocab, params = probe_world
        rng = np.random.default_rng(4)
        words = list(vocab.id_to_token[2:])
        examples = []
        for i, n in enumerate([200, 257, 320, 256, 300, 230]):
            gold = np.zeros(n, dtype=int)
            gold[rng.integers(0, n, size=n // 3)] = 1
            gold[-5:] = 1  # past the prefix for the documents longer than 256
            examples.append(dat.Example(f"a{i}", tuple(rng.choice(words, size=n)), i % 2,
                                        gold_mask=tuple(gold)))
        run = evaluate_model(params, dat.Dataset("annotation", tuple(examples)))
        masks, golds = [], []
        for ex in examples:
            kept = dat.Example(ex.id, ex.tokens[:256], ex.label, gold_mask=ex.gold_mask[:256])
            (batch,) = dat.make_batches(dat.Dataset("annotation", (kept,)), vocab, 1)
            masks.append(mdl.forward(params, batch, mode="eval").mask.hard_mask[0].astype(int))
            golds.append(kept.gold_mask)
        assert [m.tolist() for m in run.masks] == [m.tolist() for m in masks]
        assert (run.metrics.p, run.metrics.r, run.metrics.f1) == token_prf(masks, golds)
        # the cut drops gold tokens, so scoring whole gold masks could not agree
        assert sum(map(sum, golds)) < sum(sum(ex.gold_mask) for ex in examples)

    def test_metrics_json_unrounded(self):
        # unrounded, so a value read back from final.json equals the computed one
        m = RationaleMetrics(s=1 / 3, acc=2 / 3, p=0.5, r=0.25, f1=1 / 3)
        payload = m.as_json_dict()
        assert json.loads(json.dumps(payload)) == {
            "S": 1 / 3, "Acc": 2 / 3, "P": 0.5, "R": 0.25, "F1": 1 / 3
        }

    def test_gold_free_dataset_omits_prf(self, probe_world):
        _, splits, _, params = probe_world
        ds = dat.Dataset("dev", tuple(
            dat.Example(ex.id, ex.tokens, ex.label) for ex in splits.dev
        ))
        run = evaluate_model(params, ds)
        assert run.metrics.p is None
        assert set(run.metrics.as_json_dict()) == {"S", "Acc"}
