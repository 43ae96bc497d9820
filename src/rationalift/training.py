"""Optimization loops: joint cooperative training, asymmetric learning-rate
grids, and the two skew-pretraining protocols that deliberately induce
degeneration."""

from __future__ import annotations

import logging
import os
import sys
import traceback
from dataclasses import dataclass, field, replace
from typing import Callable, Mapping, Optional, Sequence

import numpy as np

from . import evaluation, model as mdl, objective as obj
from .data import CLASS_FILLER, CLASS_MARKER, Dataset, Splits, make_batches

logger = logging.getLogger(__name__)


class DivergenceError(RuntimeError):
    """Training loss or a gradient became non-finite."""


class PretrainThresholdError(RuntimeError):
    """Skew pretraining could not reach the requested accuracy threshold."""


@dataclass(frozen=True)
class TrainConfig:
    lr_gen: float = 1e-3
    lr_pred: float = 1e-3
    lr_shared: Optional[float] = None  # shared parameters follow lr_gen when unset
    batch_size: int = 64
    epochs: int = 20
    seed: int = 0
    max_len: int = 256
    grad_clip: Optional[float] = None
    delta_sparsity: float = 0.05
    objective: obj.ObjectiveConfig = field(default_factory=obj.ObjectiveConfig)

    def __post_init__(self) -> None:
        if self.lr_gen <= 0 or self.lr_pred <= 0:
            raise ValueError("learning rates must be positive")
        if self.lr_shared is not None and self.lr_shared <= 0:
            raise ValueError("lr_shared must be positive when given")
        if self.batch_size < 1 or self.epochs < 0:
            raise ValueError("batch_size must be >= 1 and epochs >= 0")

    @property
    def effective_lr_shared(self) -> float:
        return self.lr_gen if self.lr_shared is None else self.lr_shared


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
        if self.batch_size < 1:
            raise ValueError("batch_size must be >= 1")
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
            (parts["shared"], cfg.effective_lr_shared),
        ]
    )


def clip_gradients(parameters: Sequence[mdl.Parameter], max_norm: float) -> float:
    total = float(np.sqrt(sum(float((p.grad**2).sum()) for p in parameters)))
    if total > max_norm:
        scale = max_norm / (total + 1e-12)
        for p in parameters:
            p.grad *= scale
    return total


def _selection_key(record: EpochRecord, alpha: float, delta_sparsity: float) -> tuple:
    """Model-selection rank of an epoch, lower is better: epochs within the
    sparsity band come first, by dev accuracy; the rest by distance to alpha."""
    dist = abs(record.dev_sparsity - alpha)
    return (0, -record.dev_acc) if dist <= delta_sparsity else (1, dist)


def select_model(history: TrainHistory, alpha: float, delta_sparsity: float = 0.05) -> int:
    """Index of the chosen epoch: max dev accuracy within the sparsity band
    (earliest on ties); if no epoch is in band, the closest-sparsity epoch."""
    if not history:
        raise ValueError("history is empty")
    # min keeps the first of equal keys, so ties go to the earliest epoch
    keys = [_selection_key(r, alpha, delta_sparsity) for r in history]
    return min(range(len(history)), key=keys.__getitem__)


def _evaluate_epoch(
    params: mdl.ModelParams,
    splits: Splits,
    cfg: TrainConfig,
    token_classes: Optional[Mapping[str, str]],
    record: EpochRecord,
) -> None:
    dev = evaluation.evaluate_model(params, splits.dev, max_len=cfg.max_len)
    record.dev_acc = dev.metrics.acc
    record.dev_sparsity = dev.metrics.s
    record.dev_f1 = dev.metrics.f1
    if token_classes is not None:
        class_rows = [
            [token_classes.get(t, CLASS_FILLER) for t in toks] for toks in dev.token_rows
        ]
        record.marker_rate = evaluation.marker_inclusion_rate(dev.masks, class_rows)
        record.composition = evaluation.selection_composition(dev.masks, class_rows)
    if splits.annotation is not None:
        ann = evaluation.evaluate_model(params, splits.annotation, max_len=cfg.max_len)
        record.ann_acc = ann.metrics.acc
        record.ann_sparsity = ann.metrics.s
        record.ann_precision = ann.metrics.p
        record.ann_recall = ann.metrics.r
        record.ann_f1 = ann.metrics.f1


def train(
    params: mdl.ModelParams,
    splits: Splits,
    cfg: TrainConfig,
    token_classes: Optional[Mapping[str, str]] = None,
) -> tuple[mdl.ModelParams, TrainHistory]:
    """Joint cooperative training; returns the checkpoint chosen by select_model.

    Generator-owned parameters step with lr_gen, predictor-owned with lr_pred,
    shared with lr_shared (lr_gen unless set).  Fully deterministic given the
    config seed.
    """
    if cfg.epochs == 0:
        return params, []
    optimizer = make_optimizer(params, cfg)
    shuffle_ss, noise_ss = np.random.SeedSequence(cfg.seed).spawn(2)
    shuffle_rng = np.random.default_rng(shuffle_ss)
    noise_rng = np.random.default_rng(noise_ss)
    history: TrainHistory = []
    best_key: Optional[tuple] = None  # _selection_key of the snapshot epoch
    best_state: dict = {}
    for epoch_idx in range(cfg.epochs):
        ce_sum = omega_sum = 0.0
        batches = make_batches(
            splits.train,
            params.vocab,
            cfg.batch_size,
            max_len=cfg.max_len,
            seed=int(shuffle_rng.integers(2**31)),
            shuffle=True,
        )
        for batch in batches:
            optimizer.zero_grad()
            loss = mdl.loss_and_grads(
                params, batch, cfg.objective, mode="train", noise=noise_rng
            )
            if not np.isfinite(loss.total):
                raise DivergenceError(
                    f"non-finite loss at epoch {epoch_idx + 1}: "
                    f"ce={loss.ce}, omega={loss.omega}"
                )
            for p in optimizer.parameters():
                if not np.isfinite(p.grad).all():
                    raise DivergenceError(
                        f"non-finite gradient of {p.name} at epoch {epoch_idx + 1}"
                    )
            if cfg.grad_clip is not None:
                clip_gradients(optimizer.parameters(), cfg.grad_clip)
            optimizer.step()
            ce_sum += loss.ce
            omega_sum += loss.omega
        for i in range(params.config.share_depth):
            assert params.pred_layers[i] is params.gen_layers[i], "sharing alias broken"
        record = EpochRecord(
            epoch=epoch_idx + 1,
            train_ce=ce_sum / len(batches),
            train_omega=omega_sum / len(batches),
            train_loss=(ce_sum + omega_sum) / len(batches),
            dev_acc=0.0,
            dev_sparsity=0.0,
        )
        _evaluate_epoch(params, splits, cfg, token_classes, record)
        history.append(record)
        key = _selection_key(record, cfg.objective.alpha, cfg.delta_sparsity)
        if best_key is None or key < best_key:  # strict: ties keep the earliest epoch
            best_key, best_state = key, params.state_dict()
    best = params.clone()
    best.load_state(best_state)
    return best, history


# ---------------------------------------------------------------------------
# Skew pretraining protocols
# ---------------------------------------------------------------------------

_ZERO_OBJECTIVE = obj.ObjectiveConfig(lambda1=0.0, lambda2=0.0, alpha=0.0)


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
    or the spurious marker tokens only) for k epochs; the generator's own
    parameters are untouched, though a shared encoder absorbs the skew."""
    if skew.mode != "skewed_predictor":
        raise ValueError("pretrain_skewed_predictor requires mode='skewed_predictor'")
    parts = params.partitions()
    optimizer = Adam([(parts["predictor"] + parts["shared"], skew.lr)])
    shuffle_ss = np.random.SeedSequence(skew.seed).spawn(1)[0]
    shuffle_rng = np.random.default_rng(shuffle_ss)
    for _ in range(int(skew.k)):
        batches = make_batches(
            splits.train,
            params.vocab,
            skew.batch_size,
            seed=int(shuffle_rng.integers(2**31)),
            shuffle=True,
        )
        for batch in batches:
            mask = _predictor_pretrain_mask(batch, skew, token_classes, params.vocab)
            optimizer.zero_grad()
            mdl.loss_and_grads(params, batch, _ZERO_OBJECTIVE, mode="eval", force_mask=mask)
            optimizer.step()
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
    shuffle_rng = np.random.default_rng(np.random.SeedSequence(skew.seed).spawn(1)[0])
    best_acc = 0.0
    for _ in range(skew.epoch_cap):
        batches = make_batches(
            splits.train,
            params.vocab,
            skew.batch_size,
            seed=int(shuffle_rng.integers(2**31)),
            shuffle=True,
        )
        for batch in batches:
            optimizer.zero_grad()
            p0, states, caches = _first_token_probs(params, batch, with_cache=True)
            da0 = (p0 - batch.labels) / len(batch)  # sigmoid + BCE
            params.gen_head.W.grad += (da0[:, None] * states[:, 0, :]).sum(axis=0)[None, :]
            params.gen_head.b.grad += da0.sum()
            dstates = np.zeros_like(states)
            dstates[:, 0, :] = da0[:, None] * params.gen_head.W.value[0]
            demb = mdl._encode_backward(params.gen_layers, caches, dstates, batch.pad_mask)
            mdl._scatter_embedding_grad(params, batch.token_ids, demb)
            optimizer.step()
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
    """Annotation F1 of the checkpoint `train` selects."""
    best, _ = train(params, splits, cfg)
    run = evaluation.evaluate_model(best, splits.annotation, max_len=cfg.max_len)
    return float(run.metrics.f1)


def _cpu_count() -> int:
    """CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        return os.cpu_count() or 1


def _run_share(job: Callable[[int], float], ks: range, conn) -> None:
    """A forked worker's body: run jobs `ks` and send back a dict of their
    results, or a tuple of the exception that stopped them and its
    formatted traceback."""
    try:
        outcome = {k: job(k) for k in ks}
    except Exception as exc:
        outcome = (exc, traceback.format_exc())
    conn.send(outcome)


def _map_forked(job: Callable[[int], float], n: int) -> list[float]:
    """`[job(k) for k in range(n)]` on min(n, available CPUs) processes, the
    caller included, so that a tracer in the caller still sees its share.

    The caller runs the jobs with `k % workers == 0`; extra worker `w` is a
    forked child that inherits `job` (a closure need not pickle) and runs
    those with `k % workers == w`.  Results come back in job order and equal a
    sequential loop's when each job depends only on `k`.  The first failure
    seen is raised here with its type, the worker's traceback as its cause.
    Every child is joined, after `terminate` on a failure, before this
    returns or raises.
    """
    import multiprocessing  # here, not at the top, so that `import rationalift` stays lean

    ctx = multiprocessing.get_context("fork")
    workers = min(n, _cpu_count())
    # a child must not write out what the caller has buffered a second time
    sys.stdout.flush()
    sys.stderr.flush()
    children = []
    try:
        for w in range(1, workers):
            recv, send = ctx.Pipe(duplex=False)
            child = ctx.Process(target=_run_share, args=(job, range(w, n, workers), send))
            child.start()
            children.append((child, recv))
            send.close()  # the child holds the only write end, so its death reads as EOF
        results = {k: job(k) for k in range(0, n, workers)}
        for child, recv in children:
            try:
                outcome = recv.recv()
            except EOFError:
                child.join()
                raise RuntimeError(
                    f"grid worker {child.name} exited with code {child.exitcode} "
                    "before sending its results"
                ) from None
            if isinstance(outcome, tuple):
                exc, remote_tb = outcome
                raise exc from RuntimeError(f"in grid worker {child.name}:\n{remote_tb}")
            results.update(outcome)
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

    def score(k: int) -> float:
        i, j, seed = jobs[k]
        lg, lp = gen_rates[i], pred_rates[j]
        params = mdl.build_model(model_cfg, vocab, embeddings=embeddings, seed=seed)
        f1 = run_cell(params, splits, replace(base_cfg, lr_gen=lg, lr_pred=lp, seed=seed))
        logger.info("grid cell lr_gen=%g lr_pred=%g seed=%d F1=%.4f", lg, lp, seed, f1)
        return f1

    cells: dict[tuple[int, int], list[tuple[int, float]]] = {}
    for (i, j, seed), f1 in zip(jobs, _map_forked(score, len(jobs))):
        cells.setdefault((i, j), []).append((seed, f1))
    median = np.zeros((len(gen_rates), len(pred_rates)))
    for (i, j), scores in cells.items():
        median[i, j] = float(np.median([f for _, f in scores]))
    return GridResult(
        gen_rates=tuple(gen_rates), pred_rates=tuple(pred_rates), median_f1=median, cells=cells
    )
