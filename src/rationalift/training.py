"""Optimization loops: joint cooperative training, asymmetric learning-rate
grids, and the two skew-pretraining protocols that deliberately induce
degeneration.

All forked work goes through `_map_forked`, which uses one process per free
CPU (`model._cpu_count`): the grid's cells, `train`'s evaluation of an epoch
beside the next epoch's training, and `_evaluate_epoch`'s annotation split
beside dev.  A BiGRU layer's second direction on a thread, the other use of a
free CPU, lives in `model`; its thread is joined before the layer returns, so
none is alive when these fork.  Results equal a single process's bit for bit."""

from __future__ import annotations

import itertools
import logging
import math
import sys
import traceback
from dataclasses import dataclass, field, replace
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
            raise ValueError("learning rates must be positive and finite")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")


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

    def to_json_dict(self) -> dict:
        return {k: v for k, v in self.__dict__.items() if v is not None}


TrainHistory = list[EpochRecord]


class Adam:
    """Adaptive-moment optimizer over disjoint parameter groups."""

    def __init__(
        self,
        groups: Sequence[tuple[Sequence[mdl.Parameter], float]],
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
    ):
        self.betas = betas
        self.eps = eps
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
        b1, b2 = self.betas
        c1 = 1.0 - b1**self.t
        c2 = 1.0 - b2**self.t
        for e in self._entries:
            g = e["p"].grad
            e["m"] *= b1
            e["m"] += (1.0 - b1) * g
            e["v"] *= b2
            e["v"] += (1.0 - b2) * g * g
            update = (e["m"] / c1) / (np.sqrt(e["v"] / c2) + self.eps)
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


def select_model(history: TrainHistory, alpha: float, delta_sparsity: float = 0.05) -> int:
    """Index of the chosen epoch: max dev accuracy within the sparsity band
    (earliest on ties); if no epoch is in band, the closest-sparsity epoch."""
    if not history:
        raise ValueError("history is empty")

    def rank(record: EpochRecord) -> tuple:  # lower is better
        dist = abs(record.dev_sparsity - alpha)
        return (0, -record.dev_acc) if dist <= delta_sparsity else (1, dist)

    # min keeps the first of equal ranks, so ties go to the earliest epoch
    return min(range(len(history)), key=lambda k: rank(history[k]))


def _evaluate_epoch(
    params: mdl.ModelParams, splits: Splits, class_rows: Optional[list[list[str]]]
) -> dict:
    """The evaluation fields of an epoch's `EpochRecord`; `class_rows` are the
    dev documents' token classes, or None without a token-class map.  The
    annotation split and dev go through `_map_forked`, so with a free CPU the
    annotation split is evaluated in a child while the caller evaluates dev."""

    def annotation() -> dict:
        ann = evaluation.evaluate_model(params, splits.annotation).metrics
        return dict(ann_acc=ann.acc, ann_sparsity=ann.s, ann_precision=ann.p,
                    ann_recall=ann.r, ann_f1=ann.f1)

    def dev() -> dict:
        run = evaluation.evaluate_model(params, splits.dev)
        fields = dict(dev_acc=run.metrics.acc, dev_sparsity=run.metrics.s, dev_f1=run.metrics.f1)
        if class_rows is not None:
            fields["marker_rate"] = evaluation.marker_inclusion_rate(run.masks, class_rows)
            fields["composition"] = evaluation.selection_composition(run.masks, class_rows)
        return fields

    parts = [dev] if splits.annotation is None else [annotation, dev]
    fields: dict = {}
    for part in _map_forked(lambda part: part(), parts, "annotation evaluation"):
        fields.update(part)
    return fields


def train(
    params: mdl.ModelParams,
    splits: Splits,
    cfg: TrainConfig,
    token_classes: Optional[Mapping[str, str]] = None,
) -> tuple[mdl.ModelParams, TrainHistory]:
    """Joint cooperative training; returns the checkpoint chosen by select_model.

    Generator-owned and shared parameters step with lr_gen, predictor-owned
    with lr_pred.  Fully deterministic given the config seed.

    Each epoch's evaluation and the next epoch's training are one
    `_map_forked` call: with a free CPU, a forked child evaluates the epoch
    from its copy-on-write weights while the caller trains the next one.  The
    last epoch is evaluated in the caller (`_evaluate_epoch`).  Without a free
    CPU, as in a pool or grid worker, all of it runs in the caller.  The
    history and the returned weights are the same bits either way.
    """
    if cfg.epochs == 0:
        return params, []
    for dataset in (splits.dev, splits.annotation):
        if dataset is not None:  # encoded once here, not in every forked evaluation
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

    def train_epoch(epoch: int) -> dict:
        losses = next(epochs)
        ce_sum = omega_sum = 0.0
        for ce, omega in losses:
            ce_sum += ce
            omega_sum += omega
        for i in range(params.config.share_depth):
            assert params.pred_layers[i] is params.gen_layers[i], "sharing alias broken"
        return dict(epoch=epoch, train_ce=ce_sum / len(losses),
                    train_omega=omega_sum / len(losses),
                    train_loss=(ce_sum + omega_sum) / len(losses))

    history: TrainHistory = []
    best_state: dict = {}
    train_fields = train_epoch(1)
    for epoch in range(1, cfg.epochs + 1):
        state = params.state_dict()
        jobs = [lambda: _evaluate_epoch(params, splits, class_rows)]
        if epoch < cfg.epochs:
            jobs.append(lambda: train_epoch(epoch + 1))
        eval_fields, *next_fields = _map_forked(lambda job: job(), jobs, "evaluation")
        history.append(EpochRecord(**train_fields, **eval_fields))
        if select_model(history, cfg.objective.alpha, cfg.delta_sparsity) == len(history) - 1:
            best_state = state
        train_fields = next_fields[0] if next_fields else None
    best = params.clone()
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
        emb = params.embedding.value[batch.token_ids]
        logits, cache = mdl._predictor(params, mdl.apply_mask(emb, mask), batch.pad_mask,
                                       with_cache=True)
        _, dlogits = obj.cross_entropy_grad(logits, batch.labels)
        demb = mdl._predictor_backward(params, cache, dlogits, batch.pad_mask)
        mdl._scatter_embedding_grad(params, batch.token_ids, demb * mask[..., None])

    epochs = _epochs(optimizer, splits.train, params.vocab, skew.batch_size, skew.seed, step)
    for _ in zip(range(int(skew.k)), epochs):
        pass
    return params


def _first_token_probs(
    params: mdl.ModelParams, batch, with_cache: bool = False
) -> tuple[np.ndarray, np.ndarray, Optional[list]]:
    """The generator's selection probability of each document's first token,
    read as P(label = 1), with the generator states and (with `with_cache`)
    caches behind it."""
    emb = params.embedding.value[batch.token_ids]
    states, caches = mdl._encode(params.gen_layers, emb, batch.pad_mask, with_cache)
    p0 = mdl.sigmoid(params.gen_head.forward(states)[..., 0][:, 0])
    return p0, states, caches


def _first_token_accuracy(params: mdl.ModelParams, dataset: Dataset, batch_size: int) -> float:
    correct = total = 0
    for batch in make_batches(dataset, params.vocab, batch_size, shuffle=False):
        p0, _, _ = _first_token_probs(params, batch)
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
        p0, states, caches = _first_token_probs(params, batch, with_cache=True)
        da0 = (p0 - batch.labels) / len(batch)  # sigmoid + BCE
        dstates = np.zeros_like(states)
        dstates[:, :1] = mdl._gen_head_backward(params, states[:, :1], da0[:, None])
        demb = mdl._encode_backward(params.gen_layers, caches, dstates, batch.pad_mask)
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
    """Annotation F1 of the epoch `train` selects, as its history records it."""
    _, history = train(params, splits, cfg)
    return float(history[select_model(history, cfg.objective.alpha, cfg.delta_sparsity)].ann_f1)


def _run_child(job: Callable[[], object], conn) -> None:
    """A forked child's body: send back `(True, job())`, or `(False,
    (exception, formatted traceback))` if the job raised."""
    try:
        outcome = (True, job())
    except Exception as exc:
        outcome = (False, (exc, traceback.format_exc()))
    conn.send(outcome)


def _map_forked(job: Callable, items: Sequence, role: str) -> list:
    """`[job(x) for x in items]` on w = min(len(items), `model._cpu_count()`)
    processes, the caller included.

    With one process the caller runs every item in order.  With more, forked
    child c runs the items with `k % w == c` for c < w - 1, and the caller,
    once they have started, those with `k % w == w - 1`, so that a tracer in
    the caller still sees its share.  A child inherits `job` (a closure need
    not pickle) and the caller's memory, copy-on-write, and only its results
    come back: an item may change caller state only if no later item reads it.
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

    ctx = multiprocessing.get_context("fork")
    # a child must not write out what the caller has buffered a second time
    sys.stdout.flush()
    sys.stderr.flush()
    children = []
    try:
        for c in range(w - 1):
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_run_child, args=(lambda c=c: share(c), send))
            child.start()
            children.append((child, recv))
            send.close()  # the child holds the only write end, so its death reads as EOF
        results = share(w - 1)
        for child, recv in children:
            try:
                ok, value = recv.recv()
            except EOFError:
                child.join()
                raise RuntimeError(f"{role} {child.name} exited with code {child.exitcode} "
                                   "before sending its results") from None
            if not ok:
                exc, remote_tb = value
                raise exc from RuntimeError(f"in {role} {child.name}:\n{remote_tb}")
            results.update(value)
    except BaseException:
        for child, _ in children:
            child.terminate()
        raise
    finally:
        for child, recv in children:
            child.join()
            recv.close()
    return [results[k] for k in range(n)]


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
    The runs go to one process per available CPU, the caller included (see
    `_map_forked`), so `run_cell` may run in a forked worker, and only its
    returned F1 comes back: side effects on the caller's objects are lost.
    Results equal a sequential sweep's, bit for bit, at the same BLAS thread
    count.
    """
    if model_cfg.share_depth != 0:
        raise ValueError("the learning-rate grid is defined for the two-phase baseline")
    if not gen_rates or not pred_rates or not seeds:
        raise ValueError("rate and seed lists must be non-empty")
    if splits.annotation is None:
        raise ValueError("an annotation split is required to score grid cells")
    jobs = [(i, j, seed) for i in range(len(gen_rates)) for j in range(len(pred_rates))
            for seed in seeds]

    def score(job: tuple[int, int, int]) -> float:
        i, j, seed = job
        lg, lp = gen_rates[i], pred_rates[j]
        params = mdl.build_model(model_cfg, vocab, embeddings=embeddings, seed=seed)
        f1 = run_cell(params, splits, replace(base_cfg, lr_gen=lg, lr_pred=lp, seed=seed))
        logger.info("grid cell lr_gen=%g lr_pred=%g seed=%d F1=%.4f", lg, lp, seed, f1)
        return f1

    cells: dict[tuple[int, int], list[tuple[int, float]]] = {}
    for (i, j, seed), f1 in zip(jobs, _map_forked(score, jobs, "grid worker")):
        cells.setdefault((i, j), []).append((seed, f1))
    median = np.zeros((len(gen_rates), len(pred_rates)))
    for (i, j), scores in cells.items():
        median[i, j] = float(np.median([f for _, f in scores]))
    return GridResult(
        gen_rates=tuple(gen_rates), pred_rates=tuple(pred_rates), median_f1=median, cells=cells
    )
