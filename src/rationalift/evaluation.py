"""Rationale-quality metrics, degeneration diagnostics, rendering, and the
representation probes that empirically exercise the shared-encoder claims."""

from __future__ import annotations

import html as html_mod
import json
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

import numpy as np

from . import model as mdl
from .data import (
    CLASS_FILLER,
    CLASS_INFORMATIVE,
    CLASS_MARKER,
    CLASS_PUNCTUATION,
    PAD_ID,
    CorpusError,
    Dataset,
    Example,
    classify_tokens,
    make_batches,
)
from .objective import softmax


@dataclass(frozen=True)
class RationaleMetrics:
    """S / Acc / P / R / F1 as fractions in [0, 1]; P, R, F1 need gold masks."""

    s: float
    acc: float
    p: Optional[float] = None
    r: Optional[float] = None
    f1: Optional[float] = None

    def as_json_dict(self) -> dict[str, float]:
        out = {"S": self.s, "Acc": self.acc}
        if self.p is not None:
            out.update({"P": self.p, "R": self.r, "F1": self.f1})
        return out


def _joined(masks: Sequence[Sequence[int]]) -> tuple[np.ndarray, np.ndarray]:
    """The masks end to end in one array, and the length of each."""
    sizes = np.fromiter(map(len, masks), dtype=np.int64, count=len(masks))
    return np.concatenate([np.zeros(0, dtype=np.int64), *masks]), sizes


def token_prf(
    pred_masks: Sequence[Sequence[int]], gold_masks: Sequence[Sequence[int]]
) -> tuple[float, float, float]:
    """Token-level precision/recall/F1 of predicted vs gold masks,
    micro-averaged over all tokens of all examples; empty denominators give 0
    by convention.
    """
    if len(pred_masks) != len(gold_masks):
        raise ValueError("pred and gold mask lists differ in length")
    pred, pred_sizes = _joined(pred_masks)
    gold, gold_sizes = _joined(gold_masks)
    mismatch = np.flatnonzero(pred_sizes != gold_sizes)
    if mismatch.size:
        i = int(mismatch[0])
        raise ValueError(
            f"example {i}: mask length mismatch ({pred_sizes[i]} vs {gold_sizes[i]})"
        )
    pred, gold = pred.astype(int), gold.astype(int)
    tp = int(np.sum((pred == 1) & (gold == 1)))
    npred = int(pred.sum())
    ngold = int(gold.sum())
    p = tp / npred if npred else 0.0
    r = tp / ngold if ngold else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


def sparsity(pred_masks: Sequence[Sequence[int]]) -> float:
    """Mean over examples, in order, of the selected-token fraction of each
    mask over its own length."""
    flat, sizes = _joined(pred_masks)
    ends = np.cumsum(sizes)
    cumulative = np.concatenate([[0], np.cumsum(flat)])
    sums = cumulative[ends] - cumulative[ends - sizes]
    return float(np.mean(sums / sizes))


def accuracy(logits: np.ndarray, labels: np.ndarray) -> float:
    preds = np.asarray(logits).argmax(axis=-1)
    return float(np.mean(preds == np.asarray(labels)))


@dataclass
class EvalRun:
    """Deterministic eval-mode pass over a dataset."""

    ids: tuple[str, ...]
    masks: list[np.ndarray]  # per-example hard mask, truncated to true length
    labels: np.ndarray
    logits: np.ndarray
    metrics: RationaleMetrics


EVAL_BATCH_SIZE = 256


def evaluate_model(params: mdl.ModelParams, dataset: Dataset) -> EvalRun:
    """Run the model deterministically (threshold masks) and score it; P/R/F1
    are micro-averaged over tokens.  A mask covers the prefix `make_batches`
    kept, and each gold mask is scored on that prefix."""
    masks: list[np.ndarray] = []
    logits: list[np.ndarray] = []
    for batch in make_batches(dataset, params.vocab, EVAL_BATCH_SIZE):
        out = mdl.forward(params, batch, mode="eval")
        masks.extend(m[:n].astype(int) for m, n in zip(out.mask.hard_mask, batch.lengths))
        logits.append(out.logits)
    logits_arr = np.concatenate(logits, axis=0)
    labels = dataset.labels
    p = r = f1 = None
    if dataset.has_gold():
        p, r, f1 = token_prf(masks, [ex.gold_mask[: len(m)] for ex, m in zip(dataset, masks)])
    metrics = RationaleMetrics(s=sparsity(masks), acc=accuracy(logits_arr, labels),
                               p=p, r=r, f1=f1)
    return EvalRun(ids=tuple(ex.id for ex in dataset), masks=masks, labels=labels,
                   logits=logits_arr, metrics=metrics)


# ---------------------------------------------------------------------------
# Degeneration diagnostics
# ---------------------------------------------------------------------------

_COMPOSITION_CLASSES = (CLASS_INFORMATIVE, CLASS_FILLER, CLASS_MARKER, CLASS_PUNCTUATION)


def selection_composition(
    masks: Sequence[Sequence[int]], token_class_rows: Sequence[Sequence[str]]
) -> dict[str, float]:
    """Fraction of all selected tokens falling in each token class (sums to 1)."""
    counts = {c: 0 for c in _COMPOSITION_CLASSES}
    total = 0
    for mask, classes in zip(masks, token_class_rows):
        for m, c in zip(mask, classes):
            if m:
                counts[c] = counts.get(c, 0) + 1
                total += 1
    if total == 0:
        return {c: 0.0 for c in counts}
    return {c: n / total for c, n in counts.items()}


def marker_inclusion_rate(
    masks: Sequence[Sequence[int]], token_class_rows: Sequence[Sequence[str]]
) -> float:
    """Fraction of marker-bearing documents whose selection includes a marker."""
    hits = bearing = 0
    for mask, classes in zip(masks, token_class_rows):
        if CLASS_MARKER not in classes:
            continue
        bearing += 1
        if any(m and c == CLASS_MARKER for m, c in zip(mask, classes)):
            hits += 1
    return hits / bearing if bearing else 0.0


# ---------------------------------------------------------------------------
# Rationale rendering
# ---------------------------------------------------------------------------

_ANSI_RESET = "\x1b[0m"
_ANSI_GOLD = "\x1b[4m"  # underline
_ANSI_PRED = "\x1b[44m"  # blue background


def render_rationales(
    examples: Sequence[Example],
    pred_masks: Sequence[Sequence[int]],
    n: int = 10,
    fmt: str = "ansi",
) -> str:
    """Render the first n examples with gold spans underlined and predicted
    spans highlighted."""
    if fmt not in ("ansi", "html"):
        raise ValueError(f"unknown render format {fmt!r}")
    n = min(n, len(examples))
    blocks = []
    for i in range(n):
        ex = examples[i]
        pred = list(pred_masks[i])
        gold = ex.gold_mask
        pieces = []
        for j, tok in enumerate(ex.tokens):
            p = j < len(pred) and pred[j]
            g = gold is not None and j < len(gold) and gold[j]
            if fmt == "ansi":
                prefix = ("" if not g else _ANSI_GOLD) + ("" if not p else _ANSI_PRED)
                pieces.append(f"{prefix}{tok}{_ANSI_RESET}" if prefix else tok)
            else:
                t = html_mod.escape(tok)
                if g:
                    t = f"<u>{t}</u>"
                if p:
                    t = f'<span class="pred">{t}</span>'
                pieces.append(t)
        body = " ".join(pieces)
        header = f"[{ex.id}] label={ex.label}"
        if fmt == "ansi":
            blocks.append(f"{header}\n{body}\n")
        else:
            blocks.append(f"<div class='example'><p class='hdr'>{header}</p><p>{body}</p></div>")
    if fmt == "ansi":
        return "\n".join(blocks)
    style = (
        "<style>.pred{background:#aecbfa;} u{text-decoration-thickness:2px;} "
        ".example{margin:1em 0;font-family:monospace;}</style>"
    )
    return f"<html><head>{style}</head><body>{''.join(blocks)}</body></html>"


# ---------------------------------------------------------------------------
# Representation probes
# ---------------------------------------------------------------------------

UNINFORMATIVE_CLASSES = frozenset({CLASS_FILLER, CLASS_PUNCTUATION})


@dataclass
class ProbeReport:
    """Result of one representation probe; all fields JSON-serializable."""

    kind: str
    summary: dict
    tables: dict
    representations: Optional[dict] = None

    def to_json(self) -> str:
        payload = {"kind": self.kind, "summary": self.summary, "tables": self.tables}
        if self.representations is not None:
            payload["representations"] = self.representations
        return json.dumps(payload, sort_keys=True, indent=2)


def _strict_encode(params: mdl.ModelParams, tokens: Sequence[str]) -> np.ndarray:
    missing = [t for t in tokens if t not in params.vocab]
    if missing:
        raise CorpusError(f"probe token(s) not in vocabulary: {missing}")
    return params.vocab.encode(tokens)


def _padded(rows: Sequence[np.ndarray], fill: float, dtype) -> np.ndarray:
    """Right-pad 1-D rows with `fill` into one (rows, longest row) array."""
    out = np.full((len(rows), max(len(r) for r in rows)), fill, dtype=dtype)
    for i, r in enumerate(rows):
        out[i, : len(r)] = r
    return out


def _embedded_batches(
    params: mdl.ModelParams,
    id_rows: Sequence[np.ndarray],
    mask_rows: Optional[Sequence[np.ndarray]] = None,
):
    """(embedded tokens, pad mask) for `id_rows` in padded batches of at most
    `EVAL_BATCH_SIZE` rows.  Padding takes PAD_ID and pad-mask 0, as in
    `evaluate_model`'s batches, so the encoder holds its state over it; each
    row's embeddings are scaled by its `mask_rows` entry when given."""
    for start in range(0, len(id_rows), EVAL_BATCH_SIZE):
        chunk = id_rows[start : start + EVAL_BATCH_SIZE]
        pad = _padded([np.ones(len(r)) for r in chunk], 0.0, np.float64)
        emb = params.embedding.value[_padded(chunk, PAD_ID, np.int32)]
        if mask_rows is not None:
            mask = _padded(mask_rows[start : start + EVAL_BATCH_SIZE], 0.0, np.float64)
            emb = mdl.apply_mask(emb, mask)
        yield emb, pad


def _predictor_softmax(
    params: mdl.ModelParams,
    id_rows: Sequence[np.ndarray],
    mask_rows: Optional[Sequence[np.ndarray]] = None,
) -> list[np.ndarray]:
    """The predictor's softmax for each token-id row, one `predict` per batch."""
    return [
        row
        for emb, pad in _embedded_batches(params, id_rows, mask_rows)
        for row in softmax(mdl.predict(params, emb, pad))
    ]


def _token_states(params: mdl.ModelParams, layers, id_rows: Sequence[np.ndarray]) -> list:
    """Each row's per-token states from `layers`, one `encode` per batch."""
    states = []
    for emb, pad in _embedded_batches(params, id_rows):
        lengths = pad.sum(axis=1).astype(int)
        states.extend(s[:n] for s, n in zip(mdl.encode(layers, emb, pad)[0], lengths))
    return states


def _encoder_views(params: mdl.ModelParams) -> dict[str, list]:
    views = {"generator": params.gen_layers}
    if not params.config.is_folded:
        views["predictor"] = params.pred_layers
    return views


def lemma3_probe(
    params: mdl.ModelParams,
    probe_sentences: Sequence[Sequence[str]],
    token_class_rows: Optional[Sequence[Sequence[str]]] = None,
) -> ProbeReport:
    """Distance of each token's representation to its predecessor's, per encoder view.

    A well-folded encoder carries an uninformative token's state through from
    the preceding token, so d(uninformative, prev) should be small relative to
    d(informative, prev).  Each view encodes the sentences in padded batches of
    at most `EVAL_BATCH_SIZE`.
    """
    if token_class_rows is None:
        token_class_rows = [classify_tokens(s) for s in probe_sentences]
    id_rows = [_strict_encode(params, s) for s in probe_sentences]
    tables: dict = {}
    summary: dict = {}
    representations: dict = {}
    for view_name, layers in _encoder_views(params).items():
        rows = []
        uninf, inf = [], []
        reps = []
        view_states = _token_states(params, layers, id_rows)
        for sent, classes, states in zip(probe_sentences, token_class_rows, view_states):
            reps.append({"tokens": list(sent), "states": states.tolist()})
            for i in range(1, len(sent)):
                d = float(np.linalg.norm(states[i] - states[i - 1]))
                rows.append(
                    {
                        "sentence": " ".join(sent),
                        "position": i,
                        "token": sent[i],
                        "token_class": classes[i],
                        "distance_to_prev": d,
                    }
                )
                if classes[i] in UNINFORMATIVE_CLASSES:
                    uninf.append(d)
                elif classes[i] == CLASS_INFORMATIVE:
                    inf.append(d)
        tables[view_name] = rows
        view_summary = {
            "mean_uninformative_distance": float(np.mean(uninf)) if uninf else None,
            "mean_informative_distance": float(np.mean(inf)) if inf else None,
        }
        if uninf and inf and np.mean(inf) > 0:
            view_summary["ratio"] = float(np.mean(uninf) / np.mean(inf))
        summary[view_name] = view_summary
        representations[view_name] = reps
    return ProbeReport(
        kind="lemma3", summary=summary, tables=tables, representations=representations
    )


def insertion_probe(
    params: mdl.ModelParams,
    examples: Sequence[Example],
    token: str,
    positions: Optional[Sequence[int]] = None,
) -> ProbeReport:
    """Max softmax shift of the predictor when one token is spliced into the text.

    `positions` (default: every position 0..len) must be non-empty and lie in
    [0, len] of each document.  A document's base text and all its insertion
    variants are scored together, in padded batches of at most
    `EVAL_BATCH_SIZE` rows.
    """
    if not examples:
        raise ValueError("the insertion probe needs at least one example")
    if positions is not None:
        if len(positions) == 0:
            raise ValueError("positions must name at least one insertion position")
        for ex in examples:
            bad = [pos for pos in positions if not 0 <= pos <= len(ex.tokens)]
            if bad:
                raise ValueError(
                    f"insertion position {bad[0]} is outside [0, {len(ex.tokens)}]: "
                    f"document {ex.id!r} has length {len(ex.tokens)}"
                )
    tok_id = _strict_encode(params, [token])
    deltas = []
    for ex in examples:
        base_ids = _strict_encode(params, ex.tokens)
        spots = positions if positions is not None else range(len(base_ids) + 1)
        variants = [np.concatenate([base_ids[:pos], tok_id, base_ids[pos:]]) for pos in spots]
        base, *after = _predictor_softmax(params, [base_ids] + variants)
        deltas.append([float(np.max(np.abs(a - base))) for a in after])
    flat = [d for row in deltas for d in row]
    return ProbeReport(
        kind="insertion",
        summary={
            "token": token,
            "median_delta": float(np.median(flat)),
            "max_delta": float(np.max(flat)),
        },
        tables={"deltas": deltas, "example_ids": [ex.id for ex in examples]},
    )


def uninformative_rationale_probe(
    params: mdl.ModelParams,
    dataset: Dataset,
    token_classes: Mapping[str, str],
    max_examples: int = 40,
    rationale_size: int = 3,
    seed: int = 0,
) -> ProbeReport:
    """Compare predictor outputs on filler-only rationales against outputs on
    opposite-class informative (gold-span) rationales.

    A predictor that cannot distinguish uninformative selections produces
    near-identical outputs for all filler-only rationales, so the
    filler/informative distance ratio should be far below 1.  All rationales
    are scored in padded batches of at most `EVAL_BATCH_SIZE` rows.
    """
    rng = np.random.default_rng(seed)
    id_rows, mask_rows, labels = [], [], []  # label None marks a filler-only rationale
    for ex in list(dataset)[:max_examples]:
        ids = _strict_encode(params, ex.tokens)
        classes = classify_tokens(ex.tokens, token_classes)
        filler_positions = [i for i, c in enumerate(classes) if c == CLASS_FILLER]
        if len(filler_positions) >= rationale_size:
            chosen = rng.choice(filler_positions, size=rationale_size, replace=False)
            mask = np.zeros(len(ex.tokens))
            mask[chosen] = 1.0
            id_rows.append(ids)
            mask_rows.append(mask)
            labels.append(None)
        if ex.gold_mask is not None and sum(ex.gold_mask) > 0:
            id_rows.append(ids)
            mask_rows.append(np.array(ex.gold_mask, dtype=np.float64))
            labels.append(ex.label)
    filler_outputs = []
    informative_outputs: dict[int, list[np.ndarray]] = {0: [], 1: []}
    for label, out in zip(labels, _predictor_softmax(params, id_rows, mask_rows)):
        if label is None:
            filler_outputs.append(out)
        else:
            informative_outputs[label].append(out)

    def pairwise(outs: list[np.ndarray]) -> list[float]:
        return [
            float(np.linalg.norm(outs[i] - outs[j]))
            for i in range(len(outs))
            for j in range(i + 1, len(outs))
        ]

    filler_d = pairwise(filler_outputs)
    cross_d = [
        float(np.linalg.norm(a - b))
        for a in informative_outputs[0]
        for b in informative_outputs[1]
    ]
    filler_pred = [int(np.argmax(o)) for o in filler_outputs]
    summary = {
        "filler_median_distance": float(np.median(filler_d)) if filler_d else None,
        "informative_median_distance": float(np.median(cross_d)) if cross_d else None,
        "filler_positive_fraction": float(np.mean(filler_pred)) if filler_pred else None,
    }
    if filler_d and cross_d and np.median(cross_d) > 0:
        summary["ratio"] = float(np.median(filler_d) / np.median(cross_d))
    return ProbeReport(
        kind="uninformative_rationale",
        summary=summary,
        tables={
            "filler_distances": filler_d,
            "informative_distances": cross_d,
            "filler_argmax": filler_pred,
        },
    )


def render_probe_html(report: ProbeReport) -> str:
    """Self-contained HTML report; lemma3 reports draw per-dimension bars for
    the first 40 dimensions of each token representation."""
    parts = [
        "<html><head><style>",
        "body{font-family:sans-serif;} .bar{display:inline-block;width:4px;margin-right:1px;"
        "background:#4a7abc;vertical-align:baseline;} .tok{margin:4px 0;} "
        "table{border-collapse:collapse;} td,th{border:1px solid #999;padding:2px 6px;}",
        "</style></head><body>",
        f"<h1>Probe: {html_mod.escape(report.kind)}</h1>",
        f"<pre>{html_mod.escape(json.dumps(report.summary, indent=2, sort_keys=True))}</pre>",
    ]
    if report.representations:
        for view, sentences in report.representations.items():
            parts.append(f"<h2>{html_mod.escape(view)} encoder</h2>")
            for sent in sentences:
                parts.append(f"<h3>{html_mod.escape(' '.join(sent['tokens']))}</h3>")
                for tok, state in zip(sent["tokens"], sent["states"]):
                    vals = np.asarray(state[:40])
                    scale = np.abs(vals).max() or 1.0
                    bars = "".join(
                        f'<span class="bar" style="height:{max(1, int(24 * abs(v) / scale))}px;'
                        f'background:{"#4a7abc" if v >= 0 else "#bc4a4a"}"></span>'
                        for v in vals
                    )
                    parts.append(
                        f'<div class="tok"><code>{html_mod.escape(tok)}</code> {bars}</div>'
                    )
    for name, rows in report.tables.items():
        if rows and isinstance(rows, list) and isinstance(rows[0], dict):
            cols = list(rows[0])
            cells = "".join(f"<th>{html_mod.escape(c)}</th>" for c in cols)
            body = "".join(
                "<tr>" + "".join(f"<td>{html_mod.escape(str(r[c]))}</td>" for c in cols) + "</tr>"
                for r in rows
            )
            parts.append(f"<h2>{html_mod.escape(name)}</h2><table><tr>{cells}</tr>{body}</table>")
    parts.append("</body></html>")
    return "".join(parts)
