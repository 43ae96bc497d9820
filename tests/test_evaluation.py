"""Metrics against brute-force oracles, diagnostics, rendering, probes."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rationalift import data as dat
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


def _brute_force_prf(pred_masks, gold_masks):
    pred = {(i, j) for i, m in enumerate(pred_masks) for j, v in enumerate(m) if v}
    gold = {(i, j) for i, m in enumerate(gold_masks) for j, v in enumerate(m) if v}
    inter = pred & gold
    p = len(inter) / len(pred) if pred else 0.0
    r = len(inter) / len(gold) if gold else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


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

    def test_respects_true_lengths(self):
        assert sparsity([[1, 0, 0, 0]], lengths=[2]) == 0.5

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


class TestEvaluateModel:
    def test_metrics_shape_and_agreement(self, probe_world):
        _, splits, _, params = probe_world
        run = evaluate_model(params, splits.annotation)
        assert len(run.ids) == len(splits.annotation)
        manual_acc = accuracy(run.logits, run.labels)
        assert run.metrics.acc == pytest.approx(manual_acc)
        p, r, f1 = token_prf(run.masks, run.gold)
        assert (run.metrics.p, run.metrics.r, run.metrics.f1) == pytest.approx((p, r, f1))

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
