"""The benchmark's three batch jobs, their input shapes and their output checks.

Every job calls rationalift's public modules by attribute (`training.train`,
not a name imported from it), so the tracer's wrappers see each call.  Inputs
come only from the workload seed: the synthetic corpus seed, the model seed and
the training seed are all that seed.  Each job starts from the same initial
parameters, so its runs within one process are bit-for-bit repeats.

skew-fr   criterion-6 protocol at the acceptance shape (B=64, L=20, E=50,
          H=64, folded encoder).  Per-call numpy overhead dominates; Adam, the
          objective, per-epoch diagnostics and B=1 probe calls weigh most here.
long-rnp  two-phase model (four GRU direction stacks) on L=256 documents at
          H=200, B=64, loaded from JSON lines like the Beer corpus.  The
          recurrent GEMMs and the per-step caches dominate; per-epoch overheads
          do not, so a kernel change has to show here on its own.
cli-grid  `rationalift grid` at the acceptance shape over 1 x 2 rates x 2
          seeds into a fresh directory: the only job with artifact I/O and
          independent cells.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import math
import shutil
from pathlib import Path

import numpy as np

from rationalift import cli, data, evaluation, model, objective, training

EVAL_BATCH = 256  # evaluate_model's default batch size


def _batches(n: int, size: int) -> int:
    return -(-n // size)


def _finite(*values) -> bool:
    return all(v is not None and math.isfinite(v) for v in values)


def digest(values) -> str:
    return hashlib.sha256(json.dumps(values).encode()).hexdigest()[:16]


def _epoch_losses(history) -> list:
    return [[r.train_ce, r.train_omega, r.train_loss] for r in history]


# ---------------------------------------------------------------------------
# Phases shared by the jobs
# ---------------------------------------------------------------------------


def _evaluate(it, params, dataset):
    with it.timed("eval", ops=_batches(len(dataset), EVAL_BATCH), work=len(dataset),
                  metric="eval_docs_per_s"):
        return evaluation.evaluate_model(params, dataset)


def _probe_phases(it, params, probe, docs, classes, seed) -> dict:
    """The three representation probes on one trained model."""
    examples = list(docs)[: probe["insertion_docs"]]
    positions = probe["insertion_positions"]
    token = next(t for t, c in sorted(classes.items()) if c == data.CLASS_FILLER)
    insertion = []
    for ex in examples:  # one sample per document
        calls = 1 + (len(positions) if positions else len(ex) + 1)
        with it.timed("insertion_probe", ops=calls, work=calls, metric="probe_calls_per_s"):
            insertion.append(
                evaluation.insertion_probe(params, [ex], token, positions=positions)
            )
    sentences = [list(ex.tokens) for ex in list(docs)[: probe["lemma3_docs"]]]
    class_rows = [[classes.get(t, data.CLASS_FILLER) for t in s] for s in sentences]
    with it.timed("lemma3_probe", ops=len(sentences)):
        lemma3 = evaluation.lemma3_probe(params, sentences, class_rows)
    n_unf = min(len(docs), probe["uninformative_docs"])
    with it.timed("uninformative_probe", ops=n_unf):
        uninformative = evaluation.uninformative_rationale_probe(
            params, docs, classes, max_examples=n_unf, seed=seed
        )
    return {"insertion": insertion, "lemma3": lemma3, "uninformative": uninformative}


def _check_probes(it, probes) -> None:
    for ins in probes["insertion"]:
        it.check("insertion_probe",
                 len(ins.tables["deltas"]) == 1
                 and _finite(ins.summary["median_delta"], ins.summary["max_delta"]),
                 f"insertion probe summary {ins.summary}")
    lem = probes["lemma3"].summary
    it.check("lemma3_probe",
             all(v is None or _finite(v) for view in lem.values() for v in view.values()),
             f"lemma3 summary {lem}")
    unf = probes["uninformative"]
    it.check("uninformative_probe",
             all(_finite(d) for d in unf.tables["filler_distances"]
                 + unf.tables["informative_distances"]),
             "non-finite uninformative-probe distance")


def _check_eval(it, runs, datasets) -> None:
    for run, ds in zip(runs, datasets):
        m = run.metrics
        it.check("eval", len(run.masks) == len(ds) and _finite(m.s, m.acc)
                 and (m.f1 is None or _finite(m.p, m.r, m.f1)),
                 f"{ds.split}: metrics {m}")
        it.check("eval", all(len(mask) == len(ex) and set(np.unique(mask)) <= {0, 1}
                             for mask, ex in zip(run.masks, ds)),
                 f"{ds.split}: masks are not binary or not the document's length")


def _check_masks(it, phase, params, dataset, seed) -> None:
    """Hard masks are binary and zero at PAD, in eval and train mode.

    The corpora hold equal-length documents, so the check batch cuts its
    documents to different lengths to put PAD positions in it."""
    examples = list(dataset)[:8]
    cut = tuple(
        data.Example(id=ex.id, tokens=ex.tokens[: max(1, len(ex) - 3 * i)], label=ex.label)
        for i, ex in enumerate(examples)
    )
    batch = data.make_batches(data.Dataset("check", cut), params.vocab, len(cut))[0]
    for mode in ("eval", "train"):
        hard = model.forward(params, batch, mode=mode,
                             noise=np.random.default_rng(seed)).mask.hard_mask
        binary = bool(np.isin(hard, (0.0, 1.0)).all())
        pad_zero = not hard[batch.pad_mask == 0].any()
        it.check(phase, binary and pad_zero,
                 f"{mode}-mode hard mask binary={binary} zero-at-PAD={pad_zero}")


def _check_history(it, history, epochs) -> None:
    it.check("train", len(history) == epochs, f"{len(history)} epoch records, want {epochs}")
    # a finite epoch mean implies every step loss of the epoch was finite
    it.check("train", all(_finite(*losses) for losses in _epoch_losses(history)),
             f"non-finite training loss in {_epoch_losses(history)}")


def _checkpoint_phase(it, params, path: Path, meta: dict):
    with it.timed("checkpoint", ops=1):
        model.save_checkpoint(path, params, meta=meta)
        loaded, loaded_meta = model.load_checkpoint(path)
    return loaded, loaded_meta


def _check_checkpoint(it, params, loaded, meta, loaded_meta) -> None:
    want, got = params.state_dict(), loaded.state_dict()
    same = set(want) == set(got) and all(np.array_equal(want[k], got[k]) for k in want)
    it.check("checkpoint", same and loaded.config == params.config
             and loaded.vocab.id_to_token == params.vocab.id_to_token and loaded_meta == meta,
             "checkpoint does not round-trip")


# ---------------------------------------------------------------------------
# skew-fr and long-rnp: library calls in process
# ---------------------------------------------------------------------------


class _TrainJob:
    """Optional skewed-generator pretraining, `train`, a standalone evaluation,
    the probes and a checkpoint round trip, all on one in-memory corpus."""

    name = ""
    shapes: dict = {}

    def __init__(self, seed: int, shape: str, workdir: Path):
        self.seed = seed
        self.spec = self.shapes[shape]
        self.workdir = workdir
        self.synth = data.SynthConfig(seed=seed, **self.spec["corpus"])
        self.classes = self.synth.token_classes()
        obj_cfg = objective.ObjectiveConfig(**self.spec["objective"])
        self.train_cfg = training.TrainConfig(seed=seed, objective=obj_cfg, **self.spec["train"])
        pre = self.spec.get("pretrain")
        self.skew = training.SkewConfig(seed=seed, **pre) if pre else None

    def _corpus(self) -> data.Splits:
        return data.synth_generate(self.synth)

    def setup(self) -> None:
        self.splits = self._corpus()
        vocab = data.build_vocab(self.splits.train)
        self.params = model.build_model(
            model.ModelConfig(**self.spec["model"]), vocab, seed=self.seed
        )
        self.initial = self.params.state_dict()

    def run(self, it) -> dict:
        params = self.params
        params.load_state(self.initial)
        splits, cfg = self.splits, self.train_cfg
        out: dict = {}
        if self.skew is not None:
            with it.timed("pretrain", ops=1):
                params, out["pre_acc"] = training.pretrain_skewed_generator(
                    params, splits, self.skew
                )
        n_train = len(splits.train)
        # train steps plus the per-epoch evaluation batches
        ops = cfg.epochs * (
            _batches(n_train, cfg.batch_size)
            + _batches(len(splits.dev), EVAL_BATCH)
            + _batches(len(splits.annotation), EVAL_BATCH)
        )
        start = params.state_dict()
        out["histories"] = []
        for repeat in range(self.spec["train_repeats"]):
            if repeat:
                params.load_state(start)
            with it.timed("train", ops=ops, work=cfg.epochs * n_train,
                          metric="train_examples_per_s"):
                best, history = training.train(params, splits, cfg,
                                               token_classes=self.classes)
            out["histories"].append(history)
        out["history"] = history
        out["best"] = best
        out["datasets"] = [splits.dev, splits.annotation]
        out["eval"] = [_evaluate(it, best, ds) for ds in out["datasets"]]
        out["probes"] = _probe_phases(it, best, self.spec["probe"], splits.annotation,
                                      self.classes, self.seed)
        out["meta"] = {"workload": self.name, "seed": self.seed}
        out["loaded"], out["loaded_meta"] = _checkpoint_phase(
            it, best, self.workdir / "checkpoint.npz", out["meta"]
        )
        return out

    def check(self, it, out: dict) -> dict:
        if self.skew is not None:
            it.check("pretrain", _finite(out["pre_acc"]) and out["pre_acc"] > self.skew.k,
                     f"pre_acc {out['pre_acc']} not above {self.skew.k}")
        _check_history(it, out["history"], self.train_cfg.epochs)
        first = _epoch_losses(out["histories"][0])
        it.check("train", all(_epoch_losses(h) == first for h in out["histories"]),
                 "repeated train calls from the same weights differ")
        _check_masks(it, "train", out["best"], self.splits.dev, self.seed)
        _check_eval(it, out["eval"], out["datasets"])
        _check_probes(it, out["probes"])
        _check_checkpoint(it, out["best"], out["loaded"], out["meta"], out["loaded_meta"])
        dev, ann = out["eval"]
        return {
            "loss_digest": digest([out.get("pre_acc"), _epoch_losses(out["history"])]),
            "dev_acc": dev.metrics.acc,
            "ann_f1": ann.metrics.f1,
        }

    def cleanup(self) -> None:
        (self.workdir / "checkpoint.npz").unlink(missing_ok=True)


_SKEW_FULL = dict(
    corpus=dict(vocab_size=100, doc_length=20, span_length=3, marker_correlation=1.0,
                train_size=600, dev_size=300, annotation_size=200,
                informative_per_class=40, marker_count=5),
    model=dict(embedding_dim=50, hidden_dim=64, share_depth=1),
    pretrain=dict(mode="skewed_generator", k=0.9, batch_size=100, lr=2e-3, epoch_cap=30),
    train=dict(lr_gen=2e-3, lr_pred=2e-3, batch_size=64, epochs=2),
    # train twice from the pretrained weights: more train samples per run
    train_repeats=2,
    objective=dict(lambda1=1.0, lambda2=0.05, alpha=0.15),
    probe=dict(insertion_docs=10, insertion_positions=None, lemma3_docs=20,
               uninformative_docs=40),
)
_SKEW_TINY = dict(
    _SKEW_FULL,
    corpus=dict(vocab_size=30, doc_length=8, span_length=2, marker_correlation=1.0,
                train_size=40, dev_size=16, annotation_size=16,
                informative_per_class=5, marker_count=2),
    model=dict(embedding_dim=8, hidden_dim=8, share_depth=1),
    pretrain=dict(mode="skewed_generator", k=0.55, batch_size=20, lr=1e-2, epoch_cap=30),
    train=dict(lr_gen=2e-3, lr_pred=2e-3, batch_size=16, epochs=2),
    probe=dict(insertion_docs=2, insertion_positions=None, lemma3_docs=2,
               uninformative_docs=4),
)


class SkewFR(_TrainJob):
    name = "skew-fr"
    shapes = {"full": _SKEW_FULL, "tiny": _SKEW_TINY}


_LONG_FULL = dict(
    corpus=dict(vocab_size=1000, doc_length=256, span_length=16, marker_correlation=0.0,
                train_size=64, dev_size=16, annotation_size=16,
                informative_per_class=40, marker_count=1),
    model=dict(embedding_dim=100, hidden_dim=200, share_depth=0),
    train=dict(lr_gen=1e-3, lr_pred=1e-3, batch_size=64, epochs=1),
    train_repeats=1,
    objective=dict(lambda1=1.0, lambda2=0.1, alpha=0.15),
    probe=dict(insertion_docs=4, insertion_positions=(0, 128, 256), lemma3_docs=2,
               uninformative_docs=4),
)
_LONG_TINY = dict(
    _LONG_FULL,
    corpus=dict(vocab_size=40, doc_length=24, span_length=3, marker_correlation=0.0,
                train_size=16, dev_size=8, annotation_size=8,
                informative_per_class=5, marker_count=1),
    model=dict(embedding_dim=8, hidden_dim=8, share_depth=0),
    train=dict(lr_gen=1e-3, lr_pred=1e-3, batch_size=8, epochs=1),
    probe=dict(insertion_docs=2, insertion_positions=(0, 12, 24), lemma3_docs=1,
               uninformative_docs=2),
)


class LongRNP(_TrainJob):
    """The corpus goes through JSON-lines files and the review loaders, as the
    Beer corpus this workload stands in for does."""

    name = "long-rnp"
    shapes = {"full": _LONG_FULL, "tiny": _LONG_TINY}

    def _corpus(self) -> data.Splits:
        splits = data.synth_generate(self.synth)
        corpus = self.workdir / "corpus"
        for ds in (splits.train, splits.dev, splits.annotation):
            data.write_jsonl(ds, corpus / f"{ds.split}.jsonl")
        return data.Splits(
            train=data.load_reviews(corpus / "train.jsonl", "appearance", "beer",
                                    split="train", seed=self.seed),
            dev=data.load_reviews(corpus / "dev.jsonl", "appearance", "beer", split="dev"),
            annotation=data.load_annotations(corpus / "annotation.jsonl", "beer", "appearance"),
        )


# ---------------------------------------------------------------------------
# cli-grid: the grid command, then its artifacts
# ---------------------------------------------------------------------------

_GRID_FULL = dict(
    config=dict(data="synth", synth_vocab_size=100, synth_doc_length=20, synth_span_length=3,
                synth_marker_correlation=0.0, synth_train_size=600, synth_dev_size=300,
                synth_annotation_size=200, embedding_dim=50, hidden_dim=64, lambda1=1.0,
                lambda2=0.05, alpha=0.15, batch_size=64, epochs=1),
    gen_rates=(2e-3,),
    pred_rates=(4e-4, 1e-2),
    seeds=2,
    probe=dict(insertion_docs=10, insertion_positions=None, lemma3_docs=20,
               uninformative_docs=40),
)
_GRID_TINY = dict(
    _GRID_FULL,
    config=dict(data="synth", synth_vocab_size=30, synth_doc_length=8, synth_span_length=2,
                synth_marker_correlation=0.0, synth_train_size=40, synth_dev_size=16,
                synth_annotation_size=16, synth_informative_per_class=5, embedding_dim=8,
                hidden_dim=8, lambda1=1.0, lambda2=0.05, alpha=0.15, batch_size=16, epochs=1),
    probe=dict(insertion_docs=2, insertion_positions=None, lemma3_docs=2,
               uninformative_docs=4),
)


class CliGrid:
    name = "cli-grid"
    shapes = {"full": _GRID_FULL, "tiny": _GRID_TINY}

    def __init__(self, seed: int, shape: str, workdir: Path):
        self.seed = seed
        self.spec = self.shapes[shape]
        self.workdir = workdir
        self.config = dict(self.spec["config"], synth_seed=seed)
        self.seeds = [seed + i for i in range(self.spec["seeds"])]
        self.cells = len(self.spec["gen_rates"]) * len(self.spec["pred_rates"]) * len(self.seeds)

    def setup(self) -> None:
        """Writes the grid's config file and regenerates its corpus for the checks."""
        self.config_path = self.workdir / "grid.cfg"
        self.config_path.parent.mkdir(parents=True, exist_ok=True)
        self.config_path.write_text(
            "".join(f"{k} = {v}\n" for k, v in sorted(self.config.items())), encoding="utf-8"
        )
        resolved = cli.resolve_config(argparse.Namespace(config=str(self.config_path)))
        self.splits, _, _, self.classes = cli.resolve_data(resolved)

    def run(self, it) -> dict:
        out_dir = self.workdir / "grid"
        shutil.rmtree(out_dir, ignore_errors=True)
        argv = [
            "grid", "--config", str(self.config_path),
            "--gen-rates", ",".join(f"{r:g}" for r in self.spec["gen_rates"]),
            "--pred-rates", ",".join(f"{r:g}" for r in self.spec["pred_rates"]),
            "--seeds", ",".join(str(s) for s in self.seeds),
            "--out", str(out_dir),
        ]
        n_train = len(self.splits.train)
        with it.timed("grid", ops=self.cells, work=self.cells * self.config["epochs"] * n_train,
                      metric="train_examples_per_s"):
            with contextlib.redirect_stdout(io.StringIO()):
                code = cli.main(argv)
        cells = sorted(p for p in out_dir.glob("cell-*") if p.is_dir())
        it.count("cli.grid.cells", len(cells))
        it.count("cli.artifact_bytes",
                 sum(p.stat().st_size for p in out_dir.rglob("*") if p.is_file()))
        loaded = [model.load_checkpoint(cell / "checkpoint.npz")[0] for cell in cells]
        ann = self.splits.annotation
        runs = [_evaluate(it, params, ann) for params in loaded]
        probes = _probe_phases(it, loaded[0], self.spec["probe"], ann, self.classes, self.seed)
        return {"code": code, "out_dir": out_dir, "cells": cells, "loaded": loaded,
                "runs": runs, "probes": probes}

    def check(self, it, out: dict) -> dict:
        it.check("grid", out["code"] == 0, f"grid exit code {out['code']}")
        it.check("grid", len(out["cells"]) == self.cells,
                 f"{len(out['cells'])} cell directories, want {self.cells}")
        grid = json.loads((out["out_dir"] / "grid.json").read_text(encoding="utf-8"))
        it.check("grid", np.shape(grid["median_f1"]) == (len(self.spec["gen_rates"]),
                                                        len(self.spec["pred_rates"])),
                 f"grid.json median_f1 shape {np.shape(grid['median_f1'])}")
        losses, f1s, dev_accs = [], [], []
        for cell, params, run in zip(out["cells"], out["loaded"], out["runs"]):
            json.loads((cell / "manifest.json").read_text(encoding="utf-8"))
            final = json.loads((cell / "final.json").read_text(encoding="utf-8"))
            records = [json.loads(line) for line in
                       (cell / "metrics.jsonl").read_text(encoding="utf-8").splitlines()]
            cell_losses = [r["train_loss"] for r in records]
            losses.append(cell_losses)
            f1s.append(final["F1"])
            dev_accs.append(records[-1]["dev_acc"] if records else None)
            it.check("grid", len(records) == self.config["epochs"] and _finite(*cell_losses),
                     f"{cell.name}: metrics.jsonl losses {cell_losses}")
            masks = [json.loads(line)["mask"] for line in
                     (cell / "masks.jsonl").read_text(encoding="utf-8").splitlines()]
            it.check("grid", len(masks) == len(self.splits.annotation) and all(
                set(m) <= {"0", "1"} and len(m) == len(ex)
                for m, ex in zip(masks, self.splits.annotation)),
                f"{cell.name}: masks.jsonl is not one binary mask per document")
            # the reloaded checkpoint reproduces the cell's reported metrics
            it.check("eval", run.metrics.as_json_dict() == final,
                     f"{cell.name}: reloaded checkpoint gives {run.metrics.as_json_dict()}, "
                     f"final.json says {final}")
            _check_masks(it, "eval", params, self.splits.dev, self.seed)
        _check_eval(it, out["runs"], [self.splits.annotation] * len(out["runs"]))
        _check_probes(it, out["probes"])
        return {
            "loss_digest": digest(losses),
            "dev_acc": float(np.median(dev_accs)) if dev_accs else None,
            "ann_f1": float(np.median(f1s)) if f1s else None,
        }

    def cleanup(self) -> None:
        shutil.rmtree(self.workdir / "grid", ignore_errors=True)


WORKLOADS = {w.name: w for w in (SkewFR, LongRNP, CliGrid)}
