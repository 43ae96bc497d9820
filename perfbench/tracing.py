"""Span tracer that wraps rationalift's public functions from outside the library.

Each wrapper is installed where its caller looks the name up: module globals
(`model.sigmoid` is read by `GRUDirection`), names imported into another module
(`training.make_batches`, `evaluation.make_batches`) and class attributes
(`BiGRULayer.forward`, `Adam.step`).  `uninstall` restores every original, and
`installed` reports any wrapper still in place, so an untraced run can prove
that it measured the unmodified library.

A span is (run id, name, start, end, parent span index).  Spans stay in memory
until the run ends.  Self time is a span's duration minus the time covered by
its direct children.
"""

from __future__ import annotations

import functools
import json
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable, Optional

_MARK = "__perfbench_traced__"

# spans whose per-call latency is reported as p50/p99
PERCENTILE_SPANS = (
    "model.loss_and_grads",
    "model.bigru.forward",
    "model.bigru.backward",
    "model.predict",
)
# spans that have children, so their inclusive time differs from self time
INCLUSIVE_SPANS = (
    "model.bigru.forward",
    "model.forward",
    "model.loss_and_grads",
    "model.predict",
    "training.train",
    "training.pretrain_skewed_generator",
    "evaluation.evaluate_model",
    "evaluation.insertion_probe",
    "evaluation.lemma3_probe",
    "evaluation.uninformative_rationale_probe",
    "cli.main",
)
RECURRENCE_SPANS = ("model.bigru.forward", "model.bigru.backward", "model.sigmoid")
COUNTERS = (
    "model.bigru.token_steps",
    "model.bigru.gemm_flops",
    "model.save_checkpoint.bytes",
    "evaluation.evaluate_model.docs",
    "training.pretrain.epochs",
)


@dataclass
class Target:
    """One traced function and every (owner, attribute) its callers read."""

    name: str
    sites: list[tuple[object, str]]
    hook: Optional[Callable] = None  # hook(tracer, args, kwargs, result)


@dataclass
class Totals:
    self_s: dict = field(default_factory=lambda: defaultdict(float))
    incl_s: dict = field(default_factory=lambda: defaultdict(float))
    calls: Counter = field(default_factory=Counter)
    counts: Counter = field(default_factory=Counter)
    in_train_s: dict = field(default_factory=lambda: defaultdict(float))


def _bigru_forward_counts(tracer: "Tracer", args, kwargs, result) -> None:
    layer, x = args[0], args[1]
    batch, length, width = x.shape
    hidden = layer.fw.hidden
    steps = batch * length
    tracer.count("model.bigru.token_steps", 2 * steps)
    # per direction: input GEMM + recurrent GEMM, 2 flops per multiply-add
    tracer.count("model.bigru.gemm_flops", 2 * (2 * steps * 3 * hidden * (width + hidden)))


def _bigru_backward_counts(tracer: "Tracer", args, kwargs, result) -> None:
    layer, dout = args[0], args[2]
    batch, length, _ = dout.shape
    hidden, width = layer.fw.hidden, layer.input_dim
    steps = batch * length
    tracer.count("model.bigru.token_steps", 2 * steps)
    # per direction: dW and dx against the input, dU and dh against the state
    tracer.count("model.bigru.gemm_flops", 2 * (2 * steps * 3 * hidden * (2 * width + 2 * hidden)))


def _evaluate_counts(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.count("evaluation.evaluate_model.docs", len(result.ids))


def _checkpoint_counts(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.count("model.save_checkpoint.bytes", Path(args[0]).stat().st_size)


def _make_batches_counts(tracer: "Tracer", args, kwargs, result) -> None:
    # pretraining draws one shuffled epoch per pass; its accuracy pass is unshuffled
    if kwargs.get("shuffle") and tracer.is_open("training.pretrain_skewed_generator"):
        tracer.count("training.pretrain.epochs", 1)


def _loss_record(tracer: "Tracer", args, kwargs, result) -> None:
    tracer.step_losses.append(result.total)


def library_targets(data, model, objective, training, evaluation, cli) -> list[Target]:
    """Every traced name of the library, at each site where it is looked up."""
    return [
        Target("model.bigru.forward", [(model.BiGRULayer, "forward")], _bigru_forward_counts),
        Target("model.bigru.backward", [(model.BiGRULayer, "backward")], _bigru_backward_counts),
        Target("model.sigmoid", [(model, "sigmoid")]),
        Target("model.forward", [(model, "forward")]),
        Target("model.loss_and_grads", [(model, "loss_and_grads")], _loss_record),
        Target("model.predict", [(model, "predict")]),
        Target("model.save_checkpoint", [(model, "save_checkpoint")], _checkpoint_counts),
        Target("objective.cross_entropy_grad", [(objective, "cross_entropy_grad")]),
        Target("objective.sparsity_coherence_grad", [(objective, "sparsity_coherence_grad")]),
        Target("training.Adam.step", [(training.Adam, "step")]),
        Target("training.train", [(training, "train")]),
        Target("training.pretrain_skewed_generator", [(training, "pretrain_skewed_generator")]),
        Target("evaluation.evaluate_model", [(evaluation, "evaluate_model")], _evaluate_counts),
        Target("evaluation.selection_composition", [(evaluation, "selection_composition")]),
        Target("evaluation.marker_inclusion_rate", [(evaluation, "marker_inclusion_rate")]),
        Target("evaluation.insertion_probe", [(evaluation, "insertion_probe")]),
        Target("evaluation.lemma3_probe", [(evaluation, "lemma3_probe")]),
        Target(
            "evaluation.uninformative_rationale_probe",
            [(evaluation, "uninformative_rationale_probe")],
        ),
        Target("data.synth_generate", [(data, "synth_generate")]),
        Target("data.build_vocab", [(data, "build_vocab")]),
        Target(
            "data.make_batches",
            [(data, "make_batches"), (training, "make_batches"), (evaluation, "make_batches")],
            _make_batches_counts,
        ),
        Target("data.write_jsonl", [(data, "write_jsonl")]),
        Target("cli.main", [(cli, "main")]),
        Target("cli.write_manifest", [(cli, "write_manifest")]),
    ]


def installed(targets: list[Target]) -> list[str]:
    """Sites that currently hold a tracer wrapper."""
    return [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for target in targets
        for owner, attr in target.sites
        if getattr(vars(owner).get(attr), _MARK, False)
    ]


class Tracer:
    """Collects spans and per-run-id totals while its wrappers are installed."""

    def __init__(self, targets: list[Target]):
        self.targets = targets
        self.spans: list = []
        self.totals: dict[object, Totals] = {}
        self.latencies: dict[str, list[float]] = defaultdict(list)
        self.step_losses: list[float] = []
        self.run_id: object = None
        self._stack: list[list] = []  # [span index, start, child time]
        self._open: Counter = Counter()
        self._originals: list[tuple[object, str, object]] = []
        self._origin = time.perf_counter()

    # -- installation ------------------------------------------------------

    def install(self, run_id: object) -> None:
        if self._originals:
            raise RuntimeError("tracer is already installed")
        self.run_id = run_id
        self.totals.setdefault(run_id, Totals())
        for target in self.targets:
            for owner, attr in target.sites:
                original = vars(owner)[attr]
                self._originals.append((owner, attr, original))
                setattr(owner, attr, self._wrap(target.name, original, target.hook))

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._originals):
            setattr(owner, attr, original)
        self._originals.clear()
        self.run_id = None

    # -- recording ---------------------------------------------------------

    def is_open(self, name: str) -> bool:
        return self._open[name] > 0

    def count(self, name: str, amount: int) -> None:
        self.totals[self.run_id].counts[name] += amount

    def _wrap(self, name: str, fn: Callable, hook: Optional[Callable]) -> Callable:
        tracer = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(tracer.spans)
            parent = tracer._stack[-1][0] if tracer._stack else None
            tracer.spans.append(None)
            frame = [index, time.perf_counter(), 0.0]
            tracer._stack.append(frame)
            tracer._open[name] += 1
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                tracer._stack.pop()
                tracer._open[name] -= 1
                tracer._close(name, index, parent, frame[1], end, frame[2])
            if hook is not None:
                hook(tracer, args, kwargs, result)
            return result

        setattr(traced, _MARK, True)
        return traced

    def _close(self, name, index, parent, start, end, child_time) -> None:
        duration = end - start
        if self._stack:
            self._stack[-1][2] += duration
        totals = self.totals[self.run_id]
        own = duration - child_time
        totals.self_s[name] += own
        totals.incl_s[name] += duration
        totals.calls[name] += 1
        if self._open["training.train"]:
            totals.in_train_s[name] += own
        if name in PERCENTILE_SPANS and isinstance(self.run_id, int):
            self.latencies[name].append(duration)
        self.spans[index] = (
            self.run_id, name, start - self._origin, end - self._origin, parent
        )

    # -- results -----------------------------------------------------------

    def per_job(self) -> Totals:
        """Totals of the traced set-up plus the mean over traced job runs."""
        out = Totals()
        jobs = [rid for rid in self.totals if isinstance(rid, int)]
        for rid, totals in self.totals.items():
            weight = 1.0 / len(jobs) if isinstance(rid, int) else 1.0
            for attr in ("self_s", "incl_s", "in_train_s", "calls", "counts"):
                for name, value in getattr(totals, attr).items():
                    getattr(out, attr)[name] += weight * value
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            for run_id, name, start, end, parent in self.spans:
                fh.write(json.dumps({"run": run_id, "name": name, "start": round(start, 7),
                                     "end": round(end, 7), "parent": parent}) + "\n")


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile, q in [0, 100]."""
    ordered = sorted(values)
    rank = max(1, -(-len(ordered) * q // 100))
    return ordered[int(rank) - 1]
