"""Blocking acceptance suite: one test per criterion, one printed PASS/FAIL line each.

Run `pytest tests/test_acceptance.py -v -s` to see the per-criterion report.
Criteria 5-8 train real (desk-scale) models on synthetic corpora; everything is
deterministic given the seeds baked in below and the single BLAS thread that
`conftest.py` pins.

Cost: the whole tier-1 run (this module and the unit tests) took 553 s on a
2-vCPU VM (criterion 6 257 s, the skewed-predictor analogue 111 s, criterion 7
126 s, the criterion-5 fixture 47 s).  Criteria 5 and 6 and the analogue send
their independent training runs to `WORKERS` processes, one per core;
criterion 7's grid goes through `lr_grid`, which runs its cells on one process
per available CPU itself.  The wall-clock bounds inside the tests
assume the module runs alone: with another acceptance test sharing the same
2 cores, criterion 6 once took 1728 s of its 1800 s bound.

The optional full-scale reproduction (criterion 9) needs the converted
Beer-Appearance corpus; it is skipped unless RATIONALIFT_BEER_DIR is set.
"""

import os
import time
from concurrent.futures import ProcessPoolExecutor

import numpy as np
import pytest

from rationalift import data as dat
from rationalift import evaluation as ev
from rationalift import model as mdl
from rationalift import objective as obj
from rationalift import training as tr

pytestmark = pytest.mark.acceptance


def _report(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"criterion {criterion}: {detail}"


# ---------------------------------------------------------------------------
# Frozen experiment recipes (all runs are deterministic given these seeds)
# ---------------------------------------------------------------------------

RECOVERY_CORPUS = dict(vocab_size=100, doc_length=20, span_length=3,
                       marker_correlation=0.0, seed=0, train_size=1000,
                       dev_size=300, annotation_size=200)
RECOVERY_MODEL = dict(embedding_dim=50, hidden_dim=64, num_layers=1, share_depth=1)
RECOVERY_TRAIN = dict(lr_gen=2e-3, lr_pred=2e-3, batch_size=64, epochs=30)
RECOVERY_OBJECTIVE = dict(lambda1=1.0, lambda2=0.05, alpha=0.15)

SKEW_CORPUS = dict(vocab_size=100, doc_length=20, span_length=3,
                   marker_correlation=1.0, seed=0, train_size=600,
                   dev_size=300, annotation_size=200,
                   informative_per_class=40, marker_count=5)
SKEW_PRETRAIN = dict(mode="skewed_generator", k=0.9, batch_size=100, lr=2e-3,
                     epoch_cap=30)
# each architecture runs with its own tuned joint hyperparameters, as in the
# original protocol; the two-phase baseline's fast-predictor regime is where
# the degenerate channel locks in
SKEW_RNP = dict(model=dict(embedding_dim=50, hidden_dim=64, share_depth=0),
                train=dict(lr_gen=4e-4, lr_pred=4e-3, batch_size=64, epochs=60),
                objective=dict(lambda1=0.5, lambda2=0.1, alpha=0.15))
SKEW_FR = dict(model=dict(embedding_dim=50, hidden_dim=128, share_depth=1),
               train=dict(lr_gen=2e-3, lr_pred=2e-3, batch_size=64, epochs=60),
               objective=dict(lambda1=1.0, lambda2=0.05, alpha=0.15))
SKEW_SEEDS = (0, 1, 2, 3, 4)

GRID_RATE = 2e-3
GRID_SEEDS = (0, 1, 2, 3, 4)

# independent training runs go to one worker process per core of the 2-core
# reference CPU; results do not depend on it (see `_train_many`)
WORKERS = min(2, os.cpu_count() or 1)


def _train_once(scfg, splits, model_kw, train_kw, objective_kw, seed, skew_kw=None):
    """Build, optionally skew-pretrain, and train one model; `seed` seeds the
    initialization, the skew pretraining and the joint training alike."""
    vocab = dat.build_vocab(splits.train)
    params = mdl.build_model(mdl.ModelConfig(**model_kw), vocab, seed=seed)
    pre_acc = None
    if skew_kw is not None:
        skew = tr.SkewConfig(seed=seed, **skew_kw)
        if skew.mode == "skewed_generator":
            params, pre_acc = tr.pretrain_skewed_generator(params, splits, skew)
        else:
            tr.pretrain_skewed_predictor(params, splits, skew,
                                         token_classes=scfg.token_classes())
    cfg = tr.TrainConfig(seed=seed, objective=obj.ObjectiveConfig(**objective_kw),
                         **train_kw)
    best, history = tr.train(params, splits, cfg, token_classes=scfg.token_classes())
    return best, history, pre_acc


def _train_job(job):
    return _train_once(*job)


def _train_many(jobs):
    """`_train_once(*job)` for every job, in job order.  Each run is seeded on
    its own, so the runs can go to `WORKERS` processes: every result equals
    what a sequential run gives, bit for bit, at the BLAS thread count that
    `conftest.py` pins."""
    if WORKERS < 2 or len(jobs) < 2:
        return [_train_job(job) for job in jobs]
    with ProcessPoolExecutor(max_workers=min(WORKERS, len(jobs))) as pool:
        return list(pool.map(_train_job, jobs))


@pytest.fixture(scope="module")
def recovery_runs():
    """Criterion-5 training runs, shared with the criterion-8 probes."""
    scfg = dat.SynthConfig(**RECOVERY_CORPUS)
    splits = dat.synth_generate(scfg)
    seeds = (0, 1, 2)
    results = _train_many([
        (scfg, splits, RECOVERY_MODEL, RECOVERY_TRAIN, RECOVERY_OBJECTIVE, seed)
        for seed in seeds
    ])
    runs = {seed: (best, history) for seed, (best, history, _) in zip(seeds, results)}
    return scfg, splits, runs


class TestCriterion1Objective:
    def test_sparsity_coherence_oracle_and_gradient(self):
        start = time.time()
        cfg = obj.ObjectiveConfig(lambda1=1.0, lambda2=1.0, alpha=0.5)
        hand = obj.sparsity_coherence(np.array([[1.0, 0.0, 1.0, 0.0]]), np.array([4]), cfg)
        exact = hand == 3.0

        rng = np.random.default_rng(2024)
        fd_cfg = obj.ObjectiveConfig(lambda1=0.9, lambda2=0.6, alpha=0.31)
        eps = 1e-7
        checked = 0
        worst = 0.0
        while checked < 100:
            width = int(rng.integers(3, 14))
            mask = rng.random((1, width))
            lengths = np.array([width])
            if abs(mask.sum() / width - fd_cfg.alpha) <= 1e-3:
                continue
            if np.any(np.abs(np.diff(mask[0])) <= 1e-3):
                continue
            _, grad = obj.sparsity_coherence_grad(mask, lengths, fd_cfg)
            j = int(rng.integers(width))
            up, dn = mask.copy(), mask.copy()
            up[0, j] += eps
            dn[0, j] -= eps
            fd = (obj.sparsity_coherence(up, lengths, fd_cfg)
                  - obj.sparsity_coherence(dn, lengths, fd_cfg)) / (2 * eps)
            rel = abs(grad[0, j] - fd) / max(abs(fd), abs(grad[0, j]), 1e-10)
            worst = max(worst, rel)
            checked += 1
        elapsed = time.time() - start
        ok = exact and worst < 1e-5 and elapsed < 10
        _report("1 (objective correctness)", ok,
                f"hand example Omega={hand} (want 3.0), worst FD relative error "
                f"{worst:.2e} over 100 points, {elapsed:.1f}s")


class TestCriterion2Sampling:
    def test_gumbel_matches_bernoulli_and_eval_threshold(self):
        start = time.time()
        errs = {}
        for i, p in enumerate((0.1, 0.5, 0.9)):
            sample = mdl.sample_mask(np.full((10000, 1), p), 1.0, mode="train",
                                     noise_seed=1000 + i)
            errs[p] = abs(float(sample.hard_mask.mean()) - p)
        eval_sample = mdl.sample_mask(np.array([[0.9, 0.3, 0.5]]), 1.0, mode="eval")
        eval_ok = eval_sample.hard_mask.tolist() == [[1.0, 0.0, 0.0]]
        elapsed = time.time() - start
        ok = all(e < 0.02 for e in errs.values()) and eval_ok and elapsed < 30
        _report("2 (sampling correctness)", ok,
                f"|empirical - p| = { {k: round(v, 4) for k, v in errs.items()} } "
                f"(tolerance 0.02), eval threshold exact={eval_ok}, {elapsed:.1f}s")


class TestCriterion3MetricOracle:
    def test_token_prf_equals_brute_force(self):
        start = time.time()
        rng = np.random.default_rng(7)
        mismatches = 0
        for _ in range(1000):
            n = int(rng.integers(1, 6))
            lengths = rng.integers(1, 15, size=n)
            pred = [rng.integers(0, 2, size=l).tolist() for l in lengths]
            gold = [rng.integers(0, 2, size=l).tolist() for l in lengths]
            p_set = {(i, j) for i, m in enumerate(pred) for j, v in enumerate(m) if v}
            g_set = {(i, j) for i, m in enumerate(gold) for j, v in enumerate(m) if v}
            inter = len(p_set & g_set)
            bp = inter / len(p_set) if p_set else 0.0
            br = inter / len(g_set) if g_set else 0.0
            bf1 = 2 * bp * br / (bp + br) if bp + br else 0.0
            if ev.token_prf(pred, gold) != (bp, br, bf1):
                mismatches += 1
        elapsed = time.time() - start
        ok = mismatches == 0 and elapsed < 10
        _report("3 (metric oracle)", ok,
                f"{mismatches} mismatches over 1000 random instances, {elapsed:.1f}s")


class TestCriterion4Sharing:
    def test_aliasing_after_100_steps_and_parameter_accounting(self):
        scfg = dat.SynthConfig(vocab_size=60, doc_length=12, span_length=2, seed=4,
                               train_size=200, dev_size=40, annotation_size=40,
                               informative_per_class=8)
        splits = dat.synth_generate(scfg)
        vocab = dat.build_vocab(splits.train)
        model_kw = dict(embedding_dim=16, hidden_dim=24, num_layers=2, share_depth=2)
        fr = mdl.build_model(mdl.ModelConfig(**model_kw), vocab, seed=0)
        cfg = tr.TrainConfig(lr_gen=1e-3, lr_pred=1e-3, batch_size=20, epochs=10,
                             objective=obj.ObjectiveConfig(lambda1=1.0, lambda2=0.05,
                                                           alpha=0.2))
        # 200 examples / batch 20 = 10 steps per epoch -> 100 steps
        tr.train(fr, splits, cfg)
        bitwise = all(
            np.array_equal(gp.value, pp.value) and gp is pp
            for g, p in zip(fr.gen_layers, fr.pred_layers)
            for gp, pp in zip(g.parameters(), p.parameters())
        )
        fr_counts = mdl.param_count(fr)
        rnp = mdl.build_model(
            mdl.ModelConfig(**dict(model_kw, share_depth=0)), vocab, seed=0
        )
        rnp_counts = mdl.param_count(rnp)
        exact = fr_counts["total"] == rnp_counts["total"] - rnp_counts["encoder_stack"]
        ok = bitwise and exact
        _report("4 (sharing invariant)", ok,
                f"bitwise aliasing after 100 steps={bitwise}; "
                f"FR total {fr_counts['total']} == RNP total {rnp_counts['total']} "
                f"- encoder stack {rnp_counts['encoder_stack']} -> {exact}")


class TestCriterion5Recovery:
    def test_folded_model_recovers_planted_rationales(self, recovery_runs):
        start = time.time()
        _, _, runs = recovery_runs
        best_f1 = {seed: max(r.ann_f1 for r in history)
                   for seed, (_, history) in runs.items()}
        passing = sum(f1 >= 0.90 for f1 in best_f1.values())
        ok = passing >= 2
        _report("5 (synthetic rationale recovery)", ok,
                f"annotation F1 within 30 epochs by seed "
                f"{ {s: round(f, 3) for s, f in best_f1.items()} }; "
                f"{passing}/3 seeds >= 0.90 (need >= 2)")


class TestCriterion6DegenerationContrast:
    def test_skewed_generator_contrast(self):
        start = time.time()
        scfg = dat.SynthConfig(**SKEW_CORPUS)
        splits = dat.synth_generate(scfg)
        finals = {"RNP": [], "FR": []}
        accs = {"RNP": [], "FR": []}
        pre_accs = []
        # the folded runs take longest; queued first, they leave no worker idle at the end
        runs = [(name, recipe, seed)
                for name, recipe in (("FR", SKEW_FR), ("RNP", SKEW_RNP))
                for seed in SKEW_SEEDS]
        results = _train_many([
            (scfg, splits, recipe["model"], recipe["train"], recipe["objective"],
             seed, SKEW_PRETRAIN)
            for _, recipe, seed in runs
        ])
        for (name, _, _), (_, history, pre_acc) in zip(runs, results):
            pre_accs.append(pre_acc)
            finals[name].append(history[-1].ann_f1)
            accs[name].append(history[-1].dev_acc)
        med = {k: float(np.median(v)) for k, v in finals.items()}
        med_acc = {k: float(np.median(v)) for k, v in accs.items()}
        elapsed = time.time() - start
        ok = (min(pre_accs) >= 0.9 and med["RNP"] <= 0.4 and med["FR"] >= 0.75
              and med_acc["RNP"] >= 0.9 and med_acc["FR"] >= 0.9
              and elapsed < 1800)
        _report("6 (degeneration contrast)", ok,
                f"median final F1 RNP={med['RNP']:.3f} (need <= 0.4) "
                f"FR={med['FR']:.3f} (need >= 0.75); median final dev acc "
                f"RNP={med_acc['RNP']:.3f} FR={med_acc['FR']:.3f} (need >= 0.9); "
                f"min pre_acc={min(pre_accs):.2f}; per-seed F1 "
                f"RNP={[round(f, 2) for f in finals['RNP']]} "
                f"FR={[round(f, 2) for f in finals['FR']]}; {elapsed:.0f}s")


class TestCriterion7LearningRateTrend:
    def test_slow_predictor_beats_fast_predictor(self):
        start = time.time()
        scfg = dat.SynthConfig(**RECOVERY_CORPUS)
        splits = dat.synth_generate(scfg)
        vocab = dat.build_vocab(splits.train)
        model_cfg = mdl.ModelConfig(**dict(RECOVERY_MODEL, share_depth=0))
        base = tr.TrainConfig(batch_size=64, epochs=30, seed=0,
                              objective=obj.ObjectiveConfig(**RECOVERY_OBJECTIVE))
        grid = tr.lr_grid(model_cfg, vocab, splits, base,
                          gen_rates=[GRID_RATE],
                          pred_rates=[GRID_RATE / 5, 5 * GRID_RATE],
                          seeds=list(GRID_SEEDS))
        slow = grid.cell_f1(GRID_RATE, GRID_RATE / 5)
        fast = grid.cell_f1(GRID_RATE, 5 * GRID_RATE)
        elapsed = time.time() - start
        ok = slow >= fast and elapsed < 1800
        _report("7 (learning-rate asymmetry trend)", ok,
                f"median F1 at lr_pred=lr_gen/5: {slow:.3f} >= "
                f"lr_pred=5*lr_gen: {fast:.3f} -> {slow >= fast}; {elapsed:.0f}s")


class TestCriterion8Probes:
    def test_theorem1_and_lemma3_probes(self, recovery_runs):
        start = time.time()
        scfg, splits, runs = recovery_runs
        best, _ = runs[0]
        classes = scfg.token_classes()
        unf = ev.uninformative_rationale_probe(best, splits.annotation, classes)
        unf_ratio = unf.summary["ratio"]
        docs = list(splits.annotation)[:50]
        sentences = [list(ex.tokens) for ex in docs]
        class_rows = [[classes[t] for t in s] for s in sentences]
        lem = ev.lemma3_probe(best, sentences, class_rows)
        lem_ratio = lem.summary["generator"]["ratio"]
        elapsed = time.time() - start
        ok = unf_ratio < 0.2 and lem_ratio < 0.5 and elapsed < 60
        _report("8 (uninformative-rationale and encoder probes)", ok,
                f"filler/informative output-distance ratio {unf_ratio:.4f} (need < 0.2); "
                f"filler/informative predecessor-distance ratio {lem_ratio:.3f} "
                f"(need < 0.5); {elapsed:.1f}s")

    def test_insertion_probe_relative_deltas(self, recovery_runs):
        scfg, splits, runs = recovery_runs
        best, _ = runs[0]
        filler = ev.insertion_probe(best, list(splits.annotation)[:20],
                                    token=scfg.filler_tokens[0])
        pos_docs = [ex for ex in splits.annotation if ex.label == 1][:10]
        neg_docs = [ex for ex in splits.annotation if ex.label == 0][:10]
        opp = (ev.insertion_probe(best, pos_docs,
                                  token=scfg.informative_tokens[0][0]).tables["deltas"]
               + ev.insertion_probe(best, neg_docs,
                                    token=scfg.informative_tokens[1][0]).tables["deltas"])
        opp_median = float(np.median([d for row in opp for d in row]))
        ratio = filler.summary["median_delta"] / opp_median
        ok = ratio < 0.3
        _report("8b (insertion probe, filler vs opposite-class informative)", ok,
                f"median-delta ratio {ratio:.4f} (need < 0.3)")


class TestSkewedPredictorAnalogue:
    def test_marker_pretrained_predictor_traps_baseline_only(self):
        """Spec op example: predictor pretrained on marker tokens only ->
        baseline keeps selecting markers, the folded model does not."""
        start = time.time()
        scfg = dat.SynthConfig(**dict(SKEW_CORPUS, marker_count=1))
        splits = dat.synth_generate(scfg)
        skew_kw = dict(mode="skewed_predictor", k=5, batch_size=100, lr=1e-3,
                       predictor_input="marker_only")
        rates = {"RNP": [], "FR": []}
        runs = [(name, recipe, seed)  # longest runs first, as in criterion 6
                for name, recipe in (("FR", SKEW_FR), ("RNP", SKEW_RNP))
                for seed in (0, 1, 2)]
        results = _train_many([
            (scfg, splits, recipe["model"], dict(recipe["train"], epochs=40),
             recipe["objective"], seed, skew_kw)
            for _, recipe, seed in runs
        ])
        for (name, _, _), (_, history, _) in zip(runs, results):
            rates[name].append(history[-1].marker_rate)
        med = {k: float(np.median(v)) for k, v in rates.items()}
        elapsed = time.time() - start
        ok = med["RNP"] > 0.5 and med["FR"] < 0.2
        _report("skew-predictor analogue", ok,
                f"median marker-inclusion rate RNP={med['RNP']:.2f} (need > 0.5) "
                f"FR={med['FR']:.2f} (need < 0.2); per-seed "
                f"RNP={[round(r, 2) for r in rates['RNP']]} "
                f"FR={[round(r, 2) for r in rates['FR']]}; {elapsed:.0f}s")


@pytest.mark.fullscale
class TestCriterion9FullScale:
    def test_beer_appearance_reproduction(self):
        """Optional: reproduce the Beer-Appearance reference (F1 82.8 +/- 3 at
        sparsity 18.4 +/- 2) given the real corpus and pretrained vectors."""
        root = os.environ.get("RATIONALIFT_BEER_DIR")
        if not root:
            pytest.skip("RATIONALIFT_BEER_DIR not set; full-scale suite is opt-in")
        train = dat.load_reviews(os.path.join(root, "appearance.train.jsonl"),
                                 "appearance", "beer", split="train", seed=0)
        dev = dat.load_reviews(os.path.join(root, "appearance.dev.jsonl"),
                               "appearance", "beer", split="dev")
        annotation = dat.load_annotations(
            os.path.join(root, "appearance.annotation.jsonl"), domain="beer",
            aspect="appearance")
        splits = dat.Splits(train=train, dev=dev, annotation=annotation)
        vocab = dat.build_vocab(train)
        table = dat.load_embeddings(os.path.join(root, "glove.100d.txt"), vocab,
                                    dim=100, seed=0)
        params = mdl.build_model(
            mdl.ModelConfig(embedding_dim=100, hidden_dim=200, share_depth=1),
            vocab, embeddings=table, seed=0)
        cfg = tr.TrainConfig(lr_gen=1e-3, lr_pred=1e-3, batch_size=256, epochs=40,
                             objective=obj.ObjectiveConfig(lambda1=1.0, lambda2=0.1,
                                                           alpha=0.185))
        best, _ = tr.train(params, splits, cfg)
        run = ev.evaluate_model(best, splits.annotation)
        f1, s = run.metrics.f1 * 100, run.metrics.s * 100
        ok = abs(f1 - 82.8) <= 3.0 and abs(s - 18.4) <= 2.0
        _report("9 (full-scale Beer-Appearance, non-blocking)", ok,
                f"F1 {f1:.1f} (reference 82.8 +/- 3), S {s:.1f} (reference 18.4 +/- 2)")
