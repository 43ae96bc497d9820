"""Optimization loops: joint cooperative training, asymmetric learning-rate
grids, and the two skew-pretraining protocols that deliberately induce
degeneration.  All forked work goes through one fork-join, `_map_forked`."""

from __future__ import annotations

import itertools
import logging
import math
import pickle
import sys
import traceback
from dataclasses import dataclass, field, replace
from functools import partial
from typing import Callable, Iterator, Mapping, Optional, Sequence

import numpy as np

from . import evaluation, model as mdl, objective as obj
from .data import CLASS_MARKER, Dataset, Splits, Vocabulary, classify_tokens, make_batches

logger = logging.getLogger(__name__)


class DivergenceError(RuntimeError):
    """Training loss or a gradient became non-finite."""


class PretrainThresholdError(RuntimeError):
    """Skew pretraining could not reach the requested accuracy threshold."""


@dataclass(frozen=True)
class TrainConfig:
    lr_gen: float = 1e-3
    lr_pred: float = 1e-3
    batch_size: int = 64
    epochs: int = 30
    seed: int = 0
    delta_sparsity: float = 0.05
    objective: obj.ObjectiveConfig = field(default_factory=obj.ObjectiveConfig)

    def __post_init__(self) -> None:
        if not (0 < self.lr_gen < math.inf and 0 < self.lr_pred < math.inf):
            raise ValueError(f"learning rates must be positive and finite, got "
                             f"lr_gen={self.lr_gen:g}, lr_pred={self.lr_pred:g}")
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be at least 1, got {self.batch_size}")
        if self.epochs < 1:
            raise ValueError(f"epochs must be at least 1, got {self.epochs}")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 <= self.delta_sparsity < math.inf:
            raise ValueError(f"delta_sparsity must be >= 0 and finite, got {self.delta_sparsity}")


@dataclass(frozen=True)
class SkewConfig:
    """mode "skewed_predictor": k = pretraining epochs on degenerate inputs,
    a whole number (0 skips pretraining).
    mode "skewed_generator": k = accuracy threshold for the first-token
    label classifier, recorded as pre_acc when first exceeded."""

    mode: str
    k: float
    batch_size: int = 500
    lr: float = 1e-3
    predictor_input: str = "first_sentence"  # or "marker_only"
    epoch_cap: int = 20
    seed: int = 0

    def __post_init__(self) -> None:
        if self.mode not in ("skewed_predictor", "skewed_generator"):
            raise ValueError(f"unknown skew mode {self.mode!r}")
        if self.batch_size < 1 or self.epoch_cap < 1:
            raise ValueError("batch_size and epoch_cap must be >= 1")
        if self.seed < 0:
            raise ValueError(f"seed must be >= 0, got {self.seed}")
        if not 0 < self.lr < math.inf:
            raise ValueError("the skew learning rate must be positive and finite")
        if self.mode == "skewed_generator" and not 0.5 < self.k < 1.0:
            raise ValueError("generator-skew threshold must lie in (0.5, 1)")
        if self.mode == "skewed_predictor" and not (self.k >= 0 and float(self.k).is_integer()):
            raise ValueError(
                f"predictor-skew k counts epochs: need a whole number >= 0, got {self.k}"
            )
        if self.predictor_input not in ("first_sentence", "marker_only"):
            raise ValueError(f"unknown predictor_input {self.predictor_input!r}")


@dataclass
class EpochRecord:
    epoch: int
    train_ce: float
    train_omega: float
    train_loss: float
    dev_acc: float
    dev_sparsity: float
    dev_f1: Optional[float] = None
    ann_acc: Optional[float] = None
    ann_sparsity: Optional[float] = None
    ann_precision: Optional[float] = None
    ann_recall: Optional[float] = None
    ann_f1: Optional[float] = None
    marker_rate: Optional[float] = None
    composition: Optional[dict[str, float]] = None
    # the epoch's evaluation of its final split (annotation, or dev without
    # one); `train` sets it on the epoch it selects only, so the record that
    # holds it is the selection
    final_run: Optional[evaluation.EvalRun] = field(default=None, repr=False, compare=False)

    def to_json_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items()
                if v is not None and k != "final_run"}


TrainHistory = list[EpochRecord]


class Adam:
    """Adaptive-moment optimizer over disjoint parameter groups, with betas
    (0.9, 0.999) and eps 1e-8."""

    def __init__(self, groups: Sequence[tuple[Sequence[mdl.Parameter], float]]):
        self.t = 0
        self._entries: list[dict] = []
        seen: set[int] = set()
        for plist, lr in groups:
            for p in plist:
                if id(p) in seen:
                    raise ValueError(f"parameter {p.name} appears in more than one group")
                seen.add(id(p))
                self._entries.append(
                    {"p": p, "lr": lr, "m": np.zeros_like(p.value), "v": np.zeros_like(p.value)}
                )

    def parameters(self) -> list[mdl.Parameter]:
        return [e["p"] for e in self._entries]

    def zero_grad(self) -> None:
        for e in self._entries:
            e["p"].zero_grad()

    def step(self) -> None:
        self.t += 1
        b1, b2 = 0.9, 0.999
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        for e in self._entries:
            g = e["p"].grad
            e["m"] *= b1
            e["m"] += (1.0 - b1) * g
            e["v"] *= b2
            e["v"] += (1.0 - b2) * g * g
            update = (e["m"] / c1) / (np.sqrt(e["v"] / c2) + 1e-8)
            e["p"].value -= e["lr"] * update


def make_optimizer(params: mdl.ModelParams, cfg: TrainConfig) -> Adam:
    parts = params.partitions()
    return Adam(
        [
            (parts["generator"], cfg.lr_gen),
            (parts["predictor"], cfg.lr_pred),
            (parts["shared"], cfg.lr_gen),
        ]
    )


def _epochs(
    optimizer: Adam,
    dataset: Dataset,
    vocab: Vocabulary,
    batch_size: int,
    seed: int,
    step: Callable,
) -> Iterator[list]:
    """Training epochs without end: each shuffles `dataset` into batches from
    the first child stream of `seed` and, per batch, zeroes the gradients, runs
    `step(batch, epoch)`, checks that every gradient is finite and steps the
    optimizer.  Yields each epoch's list of `step` results; take n epochs
    with `zip(range(n), _epochs(...))`, which starts no (n+1)-th."""
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(seed).spawn(1)[0])
    for epoch in itertools.count(1):
        results = []
        batches = make_batches(
            dataset, vocab, batch_size, seed=int(shuffle_rng.integers(2**31)), shuffle=True
        )
        for batch in batches:
            optimizer.zero_grad()
            results.append(step(batch, epoch))
            for p in optimizer.parameters():
                if not np.isfinite(p.grad).all():
                    raise DivergenceError(f"non-finite gradient of {p.name} at epoch {epoch}")
            optimizer.step()
        yield results


def select_model(history: TrainHistory, cfg: TrainConfig) -> int:
    """Index of the chosen epoch: max dev accuracy within `cfg.delta_sparsity`
    of the sparsity target `cfg.objective.alpha` (earliest on ties); if no
    epoch is in band, the closest-sparsity epoch."""
    if not history:
        raise ValueError("history is empty")

    def rank(record: EpochRecord) -> tuple:  # lower is better
        dist = abs(record.dev_sparsity - cfg.objective.alpha)
        return (0, -record.dev_acc) if dist <= cfg.delta_sparsity else (1, dist)

    # min keeps the first of equal ranks, so ties go to the earliest epoch
    return min(range(len(history)), key=lambda k: rank(history[k]))


def _evaluate_epoch(
    params: mdl.ModelParams, splits: Splits, class_rows: Optional[list[list[str]]]
) -> tuple[dict, evaluation.EvalRun]:
    """An epoch's evaluation: its `EpochRecord` fields, and its run of the final
    split (annotation, or dev without one).  `class_rows` are the dev
    documents' token classes, or None without a token-class map.  Each split is
    one `_map_forked` job, dev the last: with a free CPU, annotation runs in a
    child beside dev, which runs in the caller."""
    datasets = [ds for ds in (splits.annotation, splits.dev) if ds is not None]
    runs = _map_forked(partial(evaluation.evaluate_model, params), datasets,
                       "annotation evaluation")
    dev = runs[-1]
    fields = dict(dev_acc=dev.metrics.acc, dev_sparsity=dev.metrics.s, dev_f1=dev.metrics.f1)
    if splits.annotation is not None:
        ann = runs[0].metrics
        fields.update(ann_acc=ann.acc, ann_sparsity=ann.s, ann_precision=ann.p,
                      ann_recall=ann.r, ann_f1=ann.f1)
    if class_rows is not None:
        fields["marker_rate"] = evaluation.marker_inclusion_rate(dev.masks, class_rows)
        fields["composition"] = evaluation.selection_composition(dev.masks, class_rows)
    return fields, runs[0]


def train(
    params: mdl.ModelParams,
    splits: Splits,
    cfg: TrainConfig,
    token_classes: Optional[Mapping[str, str]] = None,
) -> tuple[mdl.ModelParams, TrainHistory]:
    """Joint cooperative training; returns the weights of the epoch that
    select_model chooses, and the history.  The chosen epoch's record alone
    holds its `final_run`, so callers read the selection there and never call
    select_model again.

    Generator-owned and shared parameters step with lr_gen, predictor-owned
    with lr_pred.  Each epoch trains, then is evaluated and selected.  Fully
    deterministic given the config seed, however many CPUs are free: an
    evaluation only reads the weights.
    """
    for dataset in (splits.dev, splits.annotation):
        if dataset is not None:  # encoded once here, not in every annotation child
            dataset.token_ids(params.vocab)
    # `_epochs` shuffles from the seed's first child stream, the mask noise
    # comes from its second
    noise_rng = np.random.default_rng(np.random.SeedSequence(cfg.seed).spawn(2)[1])

    def step(batch, epoch: int) -> tuple[float, float]:
        loss = mdl.loss_and_grads(params, batch, cfg.objective, noise=noise_rng)
        if not np.isfinite(loss.total):
            raise DivergenceError(
                f"non-finite loss at epoch {epoch}: ce={loss.ce}, omega={loss.omega}"
            )
        return loss.ce, loss.omega

    epochs = _epochs(
        make_optimizer(params, cfg), splits.train, params.vocab, cfg.batch_size, cfg.seed, step
    )
    class_rows = None
    if token_classes is not None:
        class_rows = [classify_tokens(ex.tokens, token_classes) for ex in splits.dev]

    history: TrainHistory = []
    for epoch, losses in zip(range(1, cfg.epochs + 1), epochs):
        ce_sum = omega_sum = 0.0
        for ce, omega in losses:
            ce_sum += ce
            omega_sum += omega
        for i in range(params.config.share_depth):
            assert params.pred_layers[i] is params.gen_layers[i], "sharing alias broken"
        fields, run = _evaluate_epoch(params, splits, class_rows)
        history.append(EpochRecord(epoch=epoch, train_ce=ce_sum / len(losses),
                                   train_omega=omega_sum / len(losses),
                                   train_loss=(ce_sum + omega_sum) / len(losses), **fields))
        if select_model(history, cfg) == len(history) - 1:
            selected, best_state, best_run = history[-1], params.state_dict(), run
    selected.final_run = best_run
    best = mdl.build_model(params.config, params.vocab)
    best.load_state(best_state)
    return best, history


# ---------------------------------------------------------------------------
# Skew pretraining protocols
# ---------------------------------------------------------------------------

FIRST_SENTENCE_CAP = 15


def first_sentence_length(tokens: Sequence, period=".") -> int:
    """Tokens up to and including the first `period` (a token or its id),
    capped at FIRST_SENTENCE_CAP."""
    for i, tok in enumerate(tokens[:FIRST_SENTENCE_CAP]):
        if tok == period:
            return i + 1
    return min(FIRST_SENTENCE_CAP, len(tokens))


def _predictor_pretrain_mask(
    batch, skew: SkewConfig, token_classes: Optional[Mapping[str, str]], vocab
) -> np.ndarray:
    mask = np.zeros_like(batch.pad_mask)
    if skew.predictor_input == "first_sentence":
        period = vocab.token_to_id.get(".")  # None matches no id
        for row in range(len(batch)):
            ids = batch.token_ids[row, : int(batch.lengths[row])].tolist()
            mask[row, : first_sentence_length(ids, period)] = 1.0
    else:  # marker_only
        if token_classes is None:
            raise ValueError("marker_only pretraining needs a token-class map")
        marker_ids = {
            vocab.token_to_id[t]
            for t, c in token_classes.items()
            if c == CLASS_MARKER and t in vocab.token_to_id
        }
        if marker_ids:
            mask = np.isin(batch.token_ids, list(marker_ids)).astype(np.float64)
    return mask * batch.pad_mask


def pretrain_skewed_predictor(
    params: mdl.ModelParams,
    splits: Splits,
    skew: SkewConfig,
    token_classes: Optional[Mapping[str, str]] = None,
) -> mdl.ModelParams:
    """Pretrain the predictor on deliberately degenerate inputs (first sentence,
    or the spurious marker tokens only) for k epochs, by cross-entropy through
    the predictor view alone; the generator view is never run, so its own
    parameters are untouched, though a shared encoder absorbs the skew."""
    if skew.mode != "skewed_predictor":
        raise ValueError("pretrain_skewed_predictor requires mode='skewed_predictor'")
    parts = params.partitions()
    optimizer = Adam([(parts["predictor"] + parts["shared"], skew.lr)])

    def step(batch, epoch: int) -> None:
        mask = _predictor_pretrain_mask(batch, skew, token_classes, params.vocab)

        def masked() -> np.ndarray:  # the predictor's input, rebuilt by its backward
            return mdl.apply_mask(params.embedding.value[batch.token_ids], mask)

        logits, cache = mdl._predictor(params, masked(), batch.pad_mask, with_cache=True)
        _, dlogits = obj.cross_entropy_grad(logits, batch.labels)
        demb = mdl._predictor_backward(params, cache, dlogits, batch.pad_mask, masked)
        mdl._scatter_embedding_grad(params, batch.token_ids, demb * mask[..., None])

    epochs = _epochs(optimizer, splits.train, params.vocab, skew.batch_size, skew.seed, step)
    for _ in zip(range(int(skew.k)), epochs):
        pass
    return params


def _first_token_accuracy(params: mdl.ModelParams, dataset: Dataset, batch_size: int) -> float:
    """Accuracy of the generator's first-token selection probability read as
    P(label = 1)."""
    correct = total = 0
    for batch in make_batches(dataset, params.vocab, batch_size, shuffle=False):
        logits = mdl._generator(params, batch.token_ids, batch.pad_mask, False)[1]
        p0 = mdl.sigmoid(logits[:, 0])
        correct += int(np.sum((p0 > 0.5).astype(int) == batch.labels))
        total += len(batch)
    return correct / total


def pretrain_skewed_generator(
    params: mdl.ModelParams, splits: Splits, skew: SkewConfig
) -> tuple[mdl.ModelParams, float]:
    """Train the generator head as a first-token classifier of the text label
    until its accuracy first exceeds k; returns the recorded pre_acc.

    The predictor head and predictor-only encoder layers are never updated, so
    joint training afterwards starts from a randomly initialized predictor.
    """
    if skew.mode != "skewed_generator":
        raise ValueError("pretrain_skewed_generator requires mode='skewed_generator'")
    parts = params.partitions()
    optimizer = Adam([(parts["generator"] + parts["shared"], skew.lr)])

    def step(batch, epoch: int) -> None:
        logits, caches = mdl._generator(params, batch.token_ids, batch.pad_mask, True)[1:]
        da0 = (mdl.sigmoid(logits[:, 0]) - batch.labels) / len(batch)  # sigmoid + BCE
        states = mdl._layer_output(caches[-1]["hs"], batch.pad_mask)
        dstates = np.zeros_like(states)
        dstates[:, :1] = mdl._gen_head_backward(params, states[:, :1], da0[:, None])
        del states  # not held across the encoder backward
        demb = mdl._encode_backward(params.gen_layers, caches, dstates, batch.pad_mask,
                                    lambda: params.embedding.value[batch.token_ids])
        mdl._scatter_embedding_grad(params, batch.token_ids, demb)

    epochs = _epochs(optimizer, splits.train, params.vocab, skew.batch_size, skew.seed, step)
    best_acc = 0.0
    for _ in zip(range(skew.epoch_cap), epochs):
        acc = _first_token_accuracy(params, splits.train, skew.batch_size)
        best_acc = max(best_acc, acc)
        if acc > skew.k:
            return params, acc
    raise PretrainThresholdError(
        f"first-token accuracy never exceeded {skew.k} within {skew.epoch_cap} epochs "
        f"(best {best_acc:.4f})"
    )


# ---------------------------------------------------------------------------
# Learning-rate grid
# ---------------------------------------------------------------------------


@dataclass
class GridResult:
    gen_rates: tuple[float, ...]
    pred_rates: tuple[float, ...]
    median_f1: np.ndarray  # (len(gen_rates), len(pred_rates))
    cells: dict[tuple[int, int], list[tuple[int, float]]]  # (i, j) -> [(seed, f1)]

    def cell_f1(self, lr_gen: float, lr_pred: float) -> float:
        i = self.gen_rates.index(lr_gen)
        j = self.pred_rates.index(lr_pred)
        return float(self.median_f1[i, j])


def _score_cell(params: mdl.ModelParams, splits: Splits, cfg: TrainConfig) -> float:
    """Annotation F1 of the epoch `train` selects: the record holding `final_run`."""
    _, history = train(params, splits, cfg)
    return next(float(r.ann_f1) for r in history if r.final_run is not None)


def _run_child(job: Callable[[], object], out) -> None:
    """A forked child's body: pickle `(True, job())`, or `(False,
    (exception, formatted traceback))` if the job raised, into the file `out`."""
    try:
        outcome = (True, job())
    except Exception as exc:
        outcome = (False, (exc, traceback.format_exc()))
    pickle.dump(outcome, out, protocol=pickle.HIGHEST_PROTOCOL)
    out.flush()


def _map_forked(job: Callable, items: Sequence, role: str) -> list:
    """`[job(x) for x in items]` on w = min(len(items), `model._cpu_count()`)
    processes, the caller included.

    With one process the caller runs every item in order.  With more, forked
    child c runs the items with `k % w == c` for c < w - 1, and the caller,
    once they have started, those with `k % w == w - 1`, so that a tracer in
    the caller still sees its share.  A child inherits `job` (a closure need
    not pickle) and the caller's memory, copy-on-write, and only its results
    come back, so a job must not change state that the caller reads.
    A child writes its results to an unlinked temporary file, not a pipe, so
    that it exits once done however large they are, and `model._cpu_count`
    gives its CPU back to the caller, which may still be running its share.
    Results come back in item order.

    The first failure seen is raised here with its type, the child's
    traceback as its cause, named after `role`; a child that dies before
    sending its results raises RuntimeError.  Every child is joined, after
    `terminate` on a failure, before this returns or raises.
    """
    n = len(items)
    w = min(n, mdl._cpu_count())
    if w < 2:
        return [job(x) for x in items]

    def share(c: int) -> dict:
        return {k: job(items[k]) for k in range(c, n, w)}

    import multiprocessing
    import tempfile

    ctx = multiprocessing.get_context("fork")
    # a child must not write out what the caller has buffered a second time
    sys.stdout.flush()
    sys.stderr.flush()
    children = []
    try:
        for c in range(w - 1):
            out = tempfile.TemporaryFile()
            child = ctx.Process(target=_run_child, args=(lambda c=c: share(c), out))
            child.start()
            children.append((child, out))
        results = share(w - 1)
        for child, out in children:
            child.join()
            if child.exitcode != 0:
                raise RuntimeError(f"{role} {child.name} exited with code {child.exitcode} "
                                   "before sending its results")
            out.seek(0)
            ok, value = pickle.load(out)
            if not ok:
                exc, remote_tb = value
                raise exc from RuntimeError(f"in {role} {child.name}:\n{remote_tb}")
            results.update(value)
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, out in children:
            child.join()
            out.close()
    return [results[k] for k in range(n)]


def grid_cells(model_cfg: mdl.ModelConfig, base_cfg: TrainConfig,
               gen_rates: Sequence[float], pred_rates: Sequence[float],
               seeds: Sequence[int]) -> list[tuple[int, int, TrainConfig]]:
    """The grid's runs as (gen_rates index, pred_rates index, config), in sweep
    order.  Raises ValueError, reading no data, for a model that shares an
    encoder layer, an empty or repeating list or a run's config that
    TrainConfig rejects; `check_grid_splits` holds the one rule on the data."""
    if model_cfg.share_depth != 0:
        raise ValueError(f"the learning-rate grid runs the two-phase model only: share_depth "
                         f"must be 0, got {model_cfg.share_depth}")
    if not gen_rates or not pred_rates or not seeds:
        raise ValueError("rate and seed lists must be non-empty")
    for name, values in (("gen_rates", gen_rates), ("pred_rates", pred_rates), ("seeds", seeds)):
        if len(set(values)) < len(values):
            raise ValueError(f"{name} repeats a value: {list(values)}")
    return [(i, j, replace(base_cfg, lr_gen=lg, lr_pred=lp, seed=seed))
            for i, lg in enumerate(gen_rates) for j, lp in enumerate(pred_rates)
            for seed in seeds]


def check_grid_splits(splits: Splits) -> None:
    """Raises ValueError for splits the grid cannot score: no annotation split."""
    if splits.annotation is None:
        raise ValueError("the learning-rate grid needs an annotation split to score F1")


def lr_grid(
    model_cfg: mdl.ModelConfig,
    vocab,
    splits: Splits,
    base_cfg: TrainConfig,
    gen_rates: Sequence[float],
    pred_rates: Sequence[float],
    seeds: Sequence[int],
    embeddings=None,
    run_cell: Callable[[mdl.ModelParams, Splits, TrainConfig], float] = _score_cell,
) -> GridResult:
    """Cross-product sweep of generator/predictor learning rates for the
    two-phase baseline; per-cell median annotation F1 over seeds.

    Each (rate pair, seed) run gets a fresh model built from `seed` and is
    scored by `run_cell(params, splits, cfg)`, which trains it and returns its
    F1; the CLI passes one that also resumes and writes the run's artifacts.
    The runs are `_map_forked` jobs, so `run_cell` may run in a forked worker
    and only its returned F1 comes back: side effects of `run_cell` are lost.
    Results equal a sequential sweep's, bit for bit.  `grid_cells` and
    `check_grid_splits` check the grid before any run trains.
    """
    jobs = grid_cells(model_cfg, base_cfg, gen_rates, pred_rates, seeds)
    check_grid_splits(splits)

    def score(job: tuple[int, int, TrainConfig]) -> float:
        _, _, cfg = job
        params = mdl.build_model(model_cfg, vocab, embeddings=embeddings, seed=cfg.seed)
        f1 = run_cell(params, splits, cfg)
        logger.info("grid cell lr_gen=%g lr_pred=%g seed=%d F1=%.4f",
                    cfg.lr_gen, cfg.lr_pred, cfg.seed, f1)
        return f1

    cells: dict[tuple[int, int], list[tuple[int, float]]] = {}
    for (i, j, cfg), f1 in zip(jobs, _map_forked(score, jobs, "grid worker")):
        cells.setdefault((i, j), []).append((cfg.seed, f1))
    median = np.zeros((len(gen_rates), len(pred_rates)))
    for (i, j), scores in cells.items():
        median[i, j] = float(np.median([f for _, f in scores]))
    return GridResult(
        gen_rates=tuple(gen_rates), pred_rates=tuple(pred_rates), median_f1=median, cells=cells
    )
