"""Parameter containers and the generator -> mask -> predictor pipeline.

The generator encodes the full text with a bidirectional GRU stack and maps
each token state to a selection probability; a binary mask is sampled per
token with two-category Gumbel noise and consumed straight-through (hard value
forward, relaxed sensitivity backward); the predictor re-embeds the original
tokens, applies the mask to the embeddings, encodes with its own view of the
stack, max-pools over real tokens, and classifies.

The first `share_depth` encoder layers of the two views are the *same* objects
(share_depth = 0 is the two-phase baseline, share_depth = num_layers the fully
folded variant), so one update moves both views by construction.

All gradients are computed explicitly; `loss_and_grads` accumulates into each
Parameter's `.grad`.

`BiGRULayer` advances both GRU directions in one shared step loop (step s is
time s forward and time L-1-s backward), with one batched recurrent matmul
per step.  Its forward cache serves exactly one backward, which reuses the
cached gate buffer for the gate gradients and empties the cache; forwards
that need no gradient (`with_cache=False`, the default of `encode` and
`forward`) keep no per-step state.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import objective as obj
from .data import MASK_ID, PAD_ID, Batch, Vocabulary, atomic_write

NUM_CLASSES = 2  # labels are 0 and 1


def sigmoid(x: np.ndarray) -> np.ndarray:
    """Logistic function.  exp only sees min(x, -x) = -|x|, so it never
    overflows; unlike -|x|, the min passes a NaN through with its sign bit."""
    e = np.exp(np.minimum(x, -x))
    # max(e, 1) = 1 where x >= 0 (there e <= 1) and max(e, 0) = e elsewhere, NaN kept
    return np.maximum(e, x >= 0) / (1.0 + e)


class Parameter:
    """A named trainable tensor with an accumulated gradient buffer."""

    __slots__ = ("name", "value", "grad")

    def __init__(self, name: str, value: np.ndarray):
        self.name = name
        self.value = np.asarray(value, dtype=np.float64)
        self.grad = np.zeros_like(self.value)

    @property
    def size(self) -> int:
        return int(self.value.size)

    def zero_grad(self) -> None:
        self.grad[...] = 0.0

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Parameter({self.name}, shape={self.value.shape})"


@dataclass(frozen=True)
class ModelConfig:
    embedding_dim: int = 100
    hidden_dim: int = 200  # per-token state width, both GRU directions together
    num_layers: int = 1
    share_depth: int = 1
    temperature: float = 1.0
    train_embedding: bool = True

    def __post_init__(self) -> None:
        if min(self.embedding_dim, self.hidden_dim, self.num_layers) < 1:
            raise ValueError("all dimensions must be positive")
        if not 0 <= self.share_depth <= self.num_layers:
            raise ValueError(
                f"share_depth must lie in [0, {self.num_layers}], got {self.share_depth}"
            )
        if self.temperature <= 0:
            raise ValueError("temperature must be positive")
        if self.hidden_dim % 2:
            raise ValueError("hidden_dim must be even: it is split between two directions")

    @property
    def is_folded(self) -> bool:
        return self.share_depth == self.num_layers

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True)

    @classmethod
    def from_json(cls, payload: str) -> "ModelConfig":
        """Also reads configs saved with the former `per_direction` and
        `num_classes` keys; the model is binary, so only num_classes 2 loads."""
        fields = json.loads(payload)
        if fields.pop("per_direction", False):  # hidden_dim was each direction's width
            fields["hidden_dim"] *= 2
        num_classes = fields.pop("num_classes", NUM_CLASSES)
        if num_classes != NUM_CLASSES:
            raise ValueError(f"num_classes must be {NUM_CLASSES}, got {num_classes}")
        return cls(**fields)


class GRUDirection:
    """The parameters of one direction of a GRU layer (gate order r, z, n; two
    bias vectors).  `BiGRULayer` runs the recurrence of both directions."""

    def __init__(self, name: str, input_dim: int, hidden: int, rng: np.random.Generator):
        k = 1.0 / np.sqrt(hidden)
        self.hidden = hidden
        self.W = Parameter(f"{name}.W", rng.uniform(-k, k, size=(3 * hidden, input_dim)))
        self.U = Parameter(f"{name}.U", rng.uniform(-k, k, size=(3 * hidden, hidden)))
        # zero biases keep the all-zero input sequence at the exact zero fixed point
        self.b_ih = Parameter(f"{name}.b_ih", np.zeros(3 * hidden))
        self.b_hh = Parameter(f"{name}.b_hh", np.zeros(3 * hidden))

    def parameters(self) -> list[Parameter]:
        return [self.W, self.U, self.b_ih, self.b_hh]


def _step_major(fw: np.ndarray, bw: np.ndarray) -> np.ndarray:
    """Stack two (B, L, ...) arrays as (L, 2, B, ...): step s holds time s of
    `fw` and time L-1-s of `bw`."""
    return np.stack([np.swapaxes(fw, 0, 1), np.swapaxes(bw, 0, 1)[::-1]], axis=1)


class BiGRULayer:
    """Bidirectional GRU layer; outputs [forward ; backward] per token.

    One time loop advances both directions: step s is time s of `fw` and time
    L-1-s of `bw`.  Per-step arrays carry a leading direction axis, so each
    step's recurrent GEMMs are one batched matmul over the pair.  Padded steps
    hold the previous state.
    """

    def __init__(self, name: str, input_dim: int, direction_dim: int, rng: np.random.Generator):
        self.name = name
        self.input_dim = input_dim
        self.fw = GRUDirection(f"{name}.fw", input_dim, direction_dim, rng)
        self.bw = GRUDirection(f"{name}.bw", input_dim, direction_dim, rng)

    @property
    def output_dim(self) -> int:
        return 2 * self.fw.hidden

    def parameters(self) -> list[Parameter]:
        return self.fw.parameters() + self.bw.parameters()

    def forward(self, x: np.ndarray, pad_mask: np.ndarray, with_cache: bool = True):
        """States (B, L, 2H), zero at padding, and the cache for `backward`
        (None without `with_cache`)."""
        B, L, _ = x.shape
        H = self.fw.hidden
        x_flat = x.reshape(B * L, -1)
        # input pre-activations per step; the loop overwrites them with r, z, n
        gates = np.empty((L, 2, B, 3 * H))
        for d, direction in enumerate((self.fw, self.bw)):
            pre_x = np.swapaxes((x_flat @ direction.W.value.T).reshape(B, L, 3 * H), 0, 1)
            np.add(pre_x if d == 0 else pre_x[::-1], direction.b_ih.value, out=gates[:, d])
        U_T = np.stack([self.fw.U.value, self.bw.U.value]).transpose(0, 2, 1)
        b_hh = np.stack([self.fw.b_hh.value, self.bw.b_hh.value])[:, None, :]
        mask = _step_major(pad_mask[:, :, None], pad_mask[:, :, None])
        hold = 1.0 - mask
        hs = np.zeros((L + 1, 2, B, H))  # hs[s] is the state entering step s
        pre_hn = np.empty((L, 2, B, H)) if with_cache else None
        for s in range(L):
            h = hs[s]
            pre_h = np.matmul(h, U_T) + b_hh
            g = gates[s]
            g[..., : 2 * H] = sigmoid(g[..., : 2 * H] + pre_h[..., : 2 * H])
            r, z = g[..., :H], g[..., H : 2 * H]
            n = np.tanh(g[..., 2 * H :] + r * pre_h[..., 2 * H :], out=g[..., 2 * H :])
            hs[s + 1] = mask[s] * ((1.0 - z) * n + z * h) + hold[s] * h
            if with_cache:
                pre_hn[s] = pre_h[..., 2 * H :]
        out = np.empty((B, L, 2 * H))
        np.multiply(np.swapaxes(hs[1:, 0], 0, 1), pad_mask[:, :, None], out=out[..., :H])
        np.multiply(np.swapaxes(hs[:0:-1, 1], 0, 1), pad_mask[:, :, None], out=out[..., H:])
        if not with_cache:
            return out, None
        return out, {"x": x, "gates": gates, "hs": hs, "pre_hn": pre_hn}

    def backward(self, cache: dict, dout: np.ndarray, pad_mask: np.ndarray) -> np.ndarray:
        """Gradient with respect to the layer input; parameter gradients
        accumulate into `.grad`.

        A cache serves one backward: the gate cache is overwritten with the
        input-side gate gradients, and the cache is emptied on return, so a
        second call raises instead of reading gradients as gates.
        """
        if not cache:
            raise RuntimeError("this cache has served a backward pass already; run forward again")
        x, gates, hs, pre_hn = (cache.pop(key) for key in ("x", "gates", "hs", "pre_hn"))
        B, L, _ = x.shape
        H = self.fw.hidden
        dout = dout * pad_mask[:, :, None]
        dout = _step_major(dout[:, :, :H], dout[:, :, H:])
        mask = _step_major(pad_mask[:, :, None], pad_mask[:, :, None])
        hold = 1.0 - mask
        U = np.stack([self.fw.U.value, self.bw.U.value])
        dU = np.zeros_like(U)
        db_hh = np.zeros((2, 3 * H))
        dpre_h = np.empty((2, B, 3 * H))
        dh = np.zeros((2, B, H))
        for s in range(L - 1, -1, -1):
            dh = dh + dout[s]
            h_prev = hs[s]
            g = gates[s]
            r, z, n = g[..., :H], g[..., H : 2 * H], g[..., 2 * H :]
            dh_cand = mask[s] * dh
            dh_prev = hold[s] * dh + dh_cand * z
            dn = dh_cand * (1.0 - z)
            dz = dh_cand * (h_prev - n)
            dan = dn * (1.0 - n * n)
            dr = dan * pre_hn[s]
            dpre_h[..., :H] = dr * r * (1.0 - r)
            dpre_h[..., H : 2 * H] = dz * z * (1.0 - z)
            dpre_h[..., 2 * H :] = dan * r
            g[..., : 2 * H] = dpre_h[..., : 2 * H]
            g[..., 2 * H :] = dan
            dU += np.matmul(dpre_h.transpose(0, 2, 1), h_prev)
            db_hh += dpre_h.sum(axis=1)
            dh = dh_prev + np.matmul(dpre_h, U)
        del hs, pre_hn, dout  # free the per-step states before the input-gradient GEMMs
        self.fw.U.grad += dU[0]
        self.bw.U.grad += dU[1]
        self.fw.b_hh.grad += db_hh[0]
        self.bw.b_hh.grad += db_hh[1]
        # the input-side gradients go back to batch-major order, one direction at a time
        dx_f = _input_grads(self.fw, np.swapaxes(gates[:, 0], 0, 1), x)
        dx_b = _input_grads(self.bw, np.swapaxes(gates[::-1, 1], 0, 1), x)
        return dx_f + dx_b


def _input_grads(direction: GRUDirection, dpre_x: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Accumulate W and b_ih gradients from the (B, L, 3H) input-side gate
    gradients and return the gradient with respect to x."""
    B, L, G = dpre_x.shape
    flat = np.ascontiguousarray(dpre_x).reshape(B * L, G)
    direction.W.grad += flat.T @ x.reshape(B * L, -1)
    direction.b_ih.grad += flat.sum(axis=0)
    return (flat @ direction.W.value).reshape(x.shape)


class Linear:
    def __init__(self, name: str, input_dim: int, output_dim: int, rng: np.random.Generator):
        k = 1.0 / np.sqrt(input_dim)
        self.W = Parameter(f"{name}.W", rng.uniform(-k, k, size=(output_dim, input_dim)))
        self.b = Parameter(f"{name}.b", np.zeros(output_dim))

    def parameters(self) -> list[Parameter]:
        return [self.W, self.b]

    def forward(self, x: np.ndarray) -> np.ndarray:
        return x @ self.W.value.T + self.b.value


@dataclass
class ModelParams:
    """All trainable state.  pred_layers[i] *is* gen_layers[i] for the shared prefix."""

    config: ModelConfig
    vocab: Vocabulary
    embedding: Parameter
    gen_layers: list[BiGRULayer]
    pred_layers: list[BiGRULayer]
    gen_head: Linear
    pred_head: Linear

    def partitions(self) -> dict[str, list[Parameter]]:
        """Exhaustive, disjoint split of trainable parameters by owner."""
        sd = self.config.share_depth
        shared: list[Parameter] = []
        if self.config.train_embedding:
            shared.append(self.embedding)
        gen: list[Parameter] = []
        pred: list[Parameter] = []
        for i, layer in enumerate(self.gen_layers):
            (shared if i < sd else gen).extend(layer.parameters())
        for i, layer in enumerate(self.pred_layers):
            if i >= sd:
                pred.extend(layer.parameters())
        gen.extend(self.gen_head.parameters())
        pred.extend(self.pred_head.parameters())
        ids = [id(p) for part in (shared, gen, pred) for p in part]
        if len(ids) != len(set(ids)):
            raise AssertionError("parameter partition is not disjoint")
        return {"shared": shared, "generator": gen, "predictor": pred}

    def all_parameters(self) -> list[Parameter]:
        """Unique parameters, embedding included even when frozen."""
        seen: dict[int, Parameter] = {}
        for p in [self.embedding, *self.gen_head.parameters(), *self.pred_head.parameters()]:
            seen.setdefault(id(p), p)
        for layer in [*self.gen_layers, *self.pred_layers]:
            for p in layer.parameters():
                seen.setdefault(id(p), p)
        return list(seen.values())

    def zero_grads(self) -> None:
        for p in self.all_parameters():
            p.zero_grad()

    def state_dict(self) -> dict[str, np.ndarray]:
        return {p.name: p.value.copy() for p in self.all_parameters()}

    def load_state(self, state: dict[str, np.ndarray]) -> None:
        own = {p.name: p for p in self.all_parameters()}
        if set(own) != set(state):
            missing = sorted(set(own) ^ set(state))
            raise ValueError(f"state dict does not match model parameters: {missing}")
        for name, param in own.items():
            param.value[...] = state[name]

    def clone(self) -> "ModelParams":
        new = build_model(self.config, self.vocab, embeddings=None, seed=0)
        new.load_state(self.state_dict())
        return new


def build_model(
    cfg: ModelConfig,
    vocab: Vocabulary,
    embeddings: Optional[np.ndarray] = None,
    seed: int = 0,
) -> ModelParams:
    """Initialize parameters from `seed` and establish the sharing aliases."""
    rng = np.random.default_rng(seed)
    if embeddings is None:
        table = rng.uniform(-0.05, 0.05, size=(len(vocab), cfg.embedding_dim))
    else:
        table = np.array(embeddings, dtype=np.float64)
        if table.shape != (len(vocab), cfg.embedding_dim):
            raise ValueError(
                f"embedding table shape {table.shape} does not match "
                f"({len(vocab)}, {cfg.embedding_dim})"
            )
    table[PAD_ID] = 0.0
    table[MASK_ID] = 0.0
    embedding = Parameter("embedding", table)

    dims = [cfg.embedding_dim] + [cfg.hidden_dim] * (cfg.num_layers - 1)
    direction_dim = cfg.hidden_dim // 2
    gen_layers: list[BiGRULayer] = []
    pred_layers: list[BiGRULayer] = []
    for i in range(cfg.num_layers):
        prefix = "enc_shared" if i < cfg.share_depth else "enc_gen"
        gen_layers.append(BiGRULayer(f"{prefix}.l{i}", dims[i], direction_dim, rng))
    for i in range(cfg.num_layers):
        if i < cfg.share_depth:
            pred_layers.append(gen_layers[i])
        else:
            pred_layers.append(BiGRULayer(f"enc_pred.l{i}", dims[i], direction_dim, rng))
    gen_head = Linear("gen_head", cfg.hidden_dim, 1, rng)
    pred_head = Linear("pred_head", cfg.hidden_dim, NUM_CLASSES, rng)
    params = ModelParams(
        config=cfg,
        vocab=vocab,
        embedding=embedding,
        gen_layers=gen_layers,
        pred_layers=pred_layers,
        gen_head=gen_head,
        pred_head=pred_head,
    )
    params.partitions()  # asserts the partition is disjoint
    return params


# ---------------------------------------------------------------------------
# Forward operations
# ---------------------------------------------------------------------------


def encode(
    layers: Sequence[BiGRULayer], embedded: np.ndarray, pad_mask: np.ndarray, with_cache=False
):
    """Per-token states from a stacked bidirectional encoder, with the
    per-layer caches for `_encode_backward` when `with_cache`."""
    states, caches = _encode(layers, embedded, pad_mask, with_cache)
    return (states, caches) if with_cache else states


def _encode(layers: Sequence[BiGRULayer], x: np.ndarray, pad_mask: np.ndarray, with_cache: bool):
    """(states, per-layer caches); the caches are None without `with_cache`,
    and then no layer keeps per-step state."""
    caches = []
    for layer in layers:
        x, cache = layer.forward(x, pad_mask, with_cache=with_cache)
        caches.append(cache)
    return x, caches if with_cache else None


def _encode_backward(
    layers: Sequence[BiGRULayer], caches: list, dstates: np.ndarray, pad_mask: np.ndarray
) -> np.ndarray:
    dx = dstates
    for layer, cache in zip(reversed(layers), reversed(caches)):
        dx = layer.backward(cache, dx, pad_mask)
    return dx


def generator_probs(params: ModelParams, states: np.ndarray, pad_mask: np.ndarray) -> np.ndarray:
    """Per-token selection probabilities, forced to 0 at PAD positions."""
    logits = params.gen_head.forward(states)[..., 0]
    return sigmoid(logits) * pad_mask


@dataclass
class MaskSample:
    """One mask draw: the hard binary mask and the relaxed value at the same
    noise draw."""

    hard_mask: np.ndarray
    soft_mask: np.ndarray


def _sample(
    probs: np.ndarray,
    logits: Optional[np.ndarray],
    temperature: float,
    mode: str,
    rng: Optional[np.random.Generator],
    pad_mask: Optional[np.ndarray],
) -> MaskSample:
    """Draw a mask from `probs`; train mode perturbs `logits`, eval thresholds `probs`."""
    if temperature <= 0:
        raise ValueError("temperature must be positive")
    if mode == "train":
        if rng is None:
            raise ValueError("train-mode sampling requires a noise source")
        u = rng.random(size=logits.shape + (2,))
        gumbel = -np.log(-np.log(u + 1e-20) + 1e-20)
        relaxed = sigmoid((logits + gumbel[..., 0] - gumbel[..., 1]) / temperature)
        hard = (relaxed > 0.5).astype(np.float64)
        soft = relaxed
    elif mode == "eval":
        hard = (probs > 0.5).astype(np.float64)
        soft = probs.copy()
    else:
        raise ValueError(f"unknown sampling mode {mode!r}")
    if pad_mask is not None:
        hard = hard * pad_mask
        soft = soft * pad_mask
    return MaskSample(hard_mask=hard, soft_mask=soft)


def sample_mask(
    probs: np.ndarray,
    temperature: float,
    mode: str = "train",
    noise_seed: int | np.random.Generator | None = None,
    pad_mask: Optional[np.ndarray] = None,
) -> MaskSample:
    """Sample a binary mask from per-token probabilities.

    Train mode draws two-category Gumbel noise per token and relaxes the
    two-way softmax at `temperature`; the hard mask is the argmax category, so
    its marginal is exactly Bernoulli(p).  Eval mode thresholds at p > 0.5.
    """
    probs = np.asarray(probs, dtype=np.float64)
    if pad_mask is not None:
        probs = probs * pad_mask
    logits = None
    if mode == "train":
        clipped = np.clip(probs, 1e-12, 1.0 - 1e-12)
        logits = np.log(clipped) - np.log1p(-clipped)
    rng = np.random.default_rng(noise_seed) if isinstance(noise_seed, int) else noise_seed
    return _sample(probs, logits, temperature, mode, rng, pad_mask)


def apply_mask(embedded: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Scale each token's embedding row by its mask value (Z = M * X)."""
    embedded = np.asarray(embedded)
    mask = np.asarray(mask, dtype=np.float64)
    if embedded.shape[:-1] != mask.shape:
        raise ValueError(f"mask shape {mask.shape} does not match tokens {embedded.shape[:-1]}")
    return embedded * mask[..., None]


def pool_max(states: np.ndarray, pad_mask: np.ndarray, with_cache: bool = False):
    """Coordinate-wise max over real-token positions; zero vector if none."""
    masked = np.where(pad_mask[:, :, None] > 0, states, -np.inf)
    pooled = masked.max(axis=1)
    argmax = masked.argmax(axis=1)
    empty = pad_mask.sum(axis=1) == 0
    if np.any(empty):
        pooled[empty] = 0.0
    if with_cache:
        return pooled, {"argmax": argmax, "empty": empty, "shape": states.shape}
    return pooled


def _pool_max_backward(cache: dict, dpooled: np.ndarray) -> np.ndarray:
    B, L, H = cache["shape"]
    dstates = np.zeros((B, L, H))
    contrib = dpooled.copy()
    contrib[cache["empty"]] = 0.0
    bidx = np.repeat(np.arange(B), H)
    hidx = np.tile(np.arange(H), B)
    tidx = cache["argmax"].reshape(-1)
    np.add.at(dstates, (bidx, tidx, hidx), contrib.reshape(-1))
    return dstates


def predict(params: ModelParams, masked_embedded: np.ndarray, pad_mask: np.ndarray) -> np.ndarray:
    """Class logits from a masked embedding sequence via the predictor view."""
    states = encode(params.pred_layers, masked_embedded, pad_mask)
    pooled = pool_max(states, pad_mask)
    return params.pred_head.forward(pooled)


@dataclass
class ForwardResult:
    logits: np.ndarray
    mask: MaskSample
    mask_values: np.ndarray  # the values the predictor and regularizer consumed
    cache: Optional[dict] = None


def forward(
    params: ModelParams,
    batch: Batch,
    mode: str = "train",
    noise: int | np.random.Generator | None = None,
    force_mask: np.ndarray | str | None = None,
    mask_forward: str = "hard",
    with_cache: bool = False,
) -> ForwardResult:
    """Full pipeline: embed, encode (generator view), sample a mask, re-embed
    and mask the original tokens, encode (predictor view), pool, classify.

    `force_mask` ("ones" or an array) bypasses sampling for debugging;
    `mask_forward` = "soft" consumes the relaxed mask downstream, which makes
    the loss differentiable end-to-end for gradient checking.
    """
    if mask_forward not in ("hard", "soft"):
        raise ValueError("mask_forward must be 'hard' or 'soft'")
    emb_full = params.embedding.value[batch.token_ids]
    gen_states, gen_caches = _encode(params.gen_layers, emb_full, batch.pad_mask, with_cache)
    gen_logits = params.gen_head.forward(gen_states)[..., 0]
    rng = np.random.default_rng(noise) if isinstance(noise, int) else noise
    sample = _sample(
        sigmoid(gen_logits), gen_logits, params.config.temperature,
        mode if force_mask is None else "eval", rng, batch.pad_mask,
    )
    if force_mask is None:
        mask_values = sample.hard_mask if mask_forward == "hard" else sample.soft_mask
    elif isinstance(force_mask, str) and force_mask == "ones":
        mask_values = batch.pad_mask.copy()
    else:
        mask_values = np.asarray(force_mask, dtype=np.float64) * batch.pad_mask
    emb_masked = apply_mask(emb_full, mask_values)
    pred_states, pred_caches = _encode(params.pred_layers, emb_masked, batch.pad_mask, with_cache)
    pooled, pool_cache = pool_max(pred_states, batch.pad_mask, with_cache=True)
    logits = params.pred_head.forward(pooled)
    cache = None
    if with_cache:
        cache = {
            "emb_full": emb_full,
            "gen_caches": gen_caches,
            "gen_states": gen_states,
            "pred_caches": pred_caches,
            "pool": pool_cache,
            "pooled": pooled,
            "forced": force_mask is not None,
        }
    return ForwardResult(logits=logits, mask=sample, mask_values=mask_values, cache=cache)


@dataclass
class LossBreakdown:
    ce: float
    omega: float
    total: float
    logits: np.ndarray
    mask: MaskSample
    mask_values: np.ndarray


def _scatter_embedding_grad(params: ModelParams, token_ids: np.ndarray, demb: np.ndarray):
    """Accumulate per-token embedding gradients into the table's rows; the PAD
    and MASK rows stay fixed at zero.  A no-op for a frozen embedding."""
    if not params.config.train_embedding:
        return
    np.add.at(params.embedding.grad, token_ids.reshape(-1), demb.reshape(-1, demb.shape[-1]))
    params.embedding.grad[PAD_ID] = 0.0
    params.embedding.grad[MASK_ID] = 0.0


def loss_and_grads(
    params: ModelParams,
    batch: Batch,
    objective_cfg: obj.ObjectiveConfig,
    mode: str = "train",
    noise: int | np.random.Generator | None = None,
    mask_forward: str = "hard",
    force_mask: np.ndarray | str | None = None,
) -> LossBreakdown:
    """One forward/backward pass; gradients accumulate into Parameter.grad.

    The mask gradient follows the straight-through contract: downstream
    sensitivities are taken at the forward mask values, and the path into the
    generator uses the relaxed sample's derivative at the same noise draw.
    """
    out = forward(
        params, batch, mode=mode, noise=noise, force_mask=force_mask,
        mask_forward=mask_forward, with_cache=True,
    )
    cache = out.cache
    assert cache is not None
    ce, dlogits = obj.cross_entropy_grad(out.logits, batch.labels)
    omega, dmask_reg = obj.sparsity_coherence_grad(out.mask_values, batch.lengths, objective_cfg)
    total = obj.total_loss(ce, omega)

    # predictor head
    params.pred_head.W.grad += dlogits.T @ cache["pooled"]
    params.pred_head.b.grad += dlogits.sum(axis=0)
    dpooled = dlogits @ params.pred_head.W.value
    dpred_states = _pool_max_backward(cache["pool"], dpooled)
    demb_masked = _encode_backward(
        params.pred_layers, cache["pred_caches"], dpred_states, batch.pad_mask
    )

    # straight-through: d(loss)/d(mask) at forward values, relaxed path to the logits
    dmask = (demb_masked * cache["emb_full"]).sum(axis=2) + dmask_reg
    dmask *= batch.pad_mask
    demb_full = demb_masked * out.mask_values[..., None]

    if not cache["forced"]:
        soft = out.mask.soft_mask
        dgen_logits = dmask * soft * (1.0 - soft) / params.config.temperature
        params.gen_head.W.grad += (dgen_logits[..., None] * cache["gen_states"]).sum(
            axis=(0, 1)
        )[None, :]
        params.gen_head.b.grad += dgen_logits.sum()
        dgen_states = dgen_logits[..., None] * params.gen_head.W.value[0]
        demb_full = demb_full + _encode_backward(
            params.gen_layers, cache["gen_caches"], dgen_states, batch.pad_mask
        )

    _scatter_embedding_grad(params, batch.token_ids, demb_full)
    return LossBreakdown(
        ce=ce, omega=omega, total=total, logits=out.logits, mask=out.mask,
        mask_values=out.mask_values,
    )


# ---------------------------------------------------------------------------
# Accounting and persistence
# ---------------------------------------------------------------------------


def param_count(params: ModelParams) -> dict[str, int]:
    """Trainable parameter counts with shared parameters counted once."""
    parts = params.partitions()
    counts = {name: sum(p.size for p in plist) for name, plist in parts.items()}
    counts["embedding"] = params.embedding.size
    counts["total"] = counts["shared"] + counts["generator"] + counts["predictor"]
    embedding_trainable = params.config.train_embedding
    counts["total_excluding_embedding"] = counts["total"] - (
        counts["embedding"] if embedding_trainable else 0
    )
    counts["encoder_stack"] = sum(
        p.size for layer in params.gen_layers for p in layer.parameters()
    )
    return counts


def save_checkpoint(path: str | Path, params: ModelParams, meta: Optional[dict] = None) -> None:
    """Single-archive checkpoint: config echo, vocabulary, named tensors."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    arrays = {f"param/{p.name}": p.value for p in params.all_parameters()}
    arrays["__config__"] = np.array(params.config.to_json())
    arrays["__vocab__"] = np.array(params.vocab.to_json())
    arrays["__meta__"] = np.array(json.dumps(meta or {}, sort_keys=True))
    with atomic_write(path, "wb") as fh:
        np.savez(fh, **arrays)


def load_checkpoint(path: str | Path) -> tuple[ModelParams, dict]:
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    with np.load(path, allow_pickle=False) as archive:
        cfg = ModelConfig.from_json(str(archive["__config__"]))
        vocab = Vocabulary.from_json(str(archive["__vocab__"]))
        meta = json.loads(str(archive["__meta__"]))
        params = build_model(cfg, vocab, embeddings=None, seed=0)
        state = {
            name[len("param/") :]: archive[name]
            for name in archive.files
            if name.startswith("param/")
        }
    params.load_state(state)
    return params, meta
