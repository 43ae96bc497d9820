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
Parameter's `.grad`.  `BiGRULayer` runs a layer's two GRU directions (see its
docstring for the step loop and `_run_directions` for the helper thread);
forwards that need no gradient (`with_cache=False`, the default of `encode`
and `forward`) keep no per-step state.
"""

from __future__ import annotations

import json
import os
import threading
import zipfile
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Callable, Optional, Sequence

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
        if not 0 < self.temperature < np.inf:
            raise ValueError("temperature must be positive and finite")
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


def _step_masks(pad_mask: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """The steps' (L, 2, B, 1) pad mask and its complement, where a step holds its state."""
    mask = np.stack([pad_mask.T, pad_mask.T[::-1]], axis=1)[..., None]
    return mask, 1.0 - mask


def _step_views(pair: np.ndarray, d, buffer: Optional[np.ndarray] = None) -> list[np.ndarray]:
    """Per-step views of `pair`, (2, B, L, ...) per direction, for the loops of direction
    `d`; `_PAIR` views are built on `buffer` (default `pair`), where `pair` starts."""
    L = pair.shape[2]
    if d != _PAIR:
        return [pair[d, :, L - 1 - s if d else s] for s in range(L)]
    d_stride, b_stride, l_stride, *rest = pair.strides
    shape = (2, pair.shape[1], *pair.shape[3:])
    return [np.ndarray(shape, pair.dtype, pair if buffer is None else buffer, s * l_stride,
                       (d_stride + (L - 1 - 2 * s) * l_stride, b_stride, *rest))
            for s in range(L)]


class BiGRULayer:
    """Bidirectional GRU layer; outputs [forward ; backward] per token.

    One time loop advances both directions: step s is time s of `fw` and time
    L-1-s of `bw`.  Per-step arrays carry a leading direction axis, so each
    step's recurrent GEMMs are one batched matmul over the pair; on large
    steps the two directions run on two threads (`_run_directions`).  Padded
    steps hold the previous state.  The gate cache is (2, B, L, 3H), as the
    input GEMMs write and read it; the loops use per-step views of it.
    """

    def __init__(self, name: str, input_dim: int, direction_dim: int, rng: np.random.Generator):
        self.name = name
        self.input_dim = input_dim
        self.fw = GRUDirection(f"{name}.fw", input_dim, direction_dim, rng)
        self.bw = GRUDirection(f"{name}.bw", input_dim, direction_dim, rng)

    def parameters(self) -> list[Parameter]:
        return self.fw.parameters() + self.bw.parameters()

    def forward(self, x: np.ndarray, pad_mask: np.ndarray, with_cache: bool = True):
        """States (B, L, 2H), zero at padding, and the cache for `backward`
        (None without `with_cache`)."""
        B, L, _ = x.shape
        H = self.fw.hidden
        x_flat = x.reshape(B * L, -1)
        # input pre-activations per direction; the loop overwrites them with r, z, n
        gates = np.empty((2, B, L, 3 * H))
        U_T = np.stack([self.fw.U.value, self.bw.U.value]).transpose(0, 2, 1)
        b_hh = np.stack([self.fw.b_hh.value, self.bw.b_hh.value])[:, None, :]
        mask, hold = _step_masks(pad_mask)
        hs = np.zeros((L + 1, 2, B, H))  # hs[s] is the state entering step s
        pre_hn = np.empty((L, 2, B, H)) if with_cache else None

        def run(d) -> None:
            for k in (0, 1) if d == _PAIR else (d,):
                direction = (self.fw, self.bw)[k]
                np.matmul(x_flat, direction.W.value.T, out=gates[k].reshape(B * L, 3 * H))
                gates[k] += direction.b_ih.value
            _forward_steps(_step_views(gates, d), hs[:, d], U_T[d], b_hh[d], mask[:, d],
                           hold[:, d], None if pre_hn is None else pre_hn[:, d])

        _run_directions(run, B * H)
        out = np.empty((B, L, 2 * H))
        out_steps = out.reshape(B, L, 2, H).transpose(1, 2, 0, 3)  # (L, 2, B, H) view
        out_steps[:, 0] = hs[1:, 0]
        out_steps[:, 1] = hs[:0:-1, 1]
        out *= pad_mask[:, :, None]
        if not with_cache:
            return out, None
        return out, {"x": x, "gates": gates, "hs": hs, "pre_hn": pre_hn}

    def backward(self, cache: dict, dout: np.ndarray, pad_mask: np.ndarray) -> np.ndarray:
        """Gradient with respect to the layer input; parameter gradients
        accumulate into `.grad`.

        `dout` is consumed: its padded positions are zeroed in place (unless
        it is not C-contiguous).  A cache serves one backward: its gates are
        overwritten with the input-side gate gradients, which the input GEMMs
        read in place, and it is emptied on entry, so a second call raises.
        """
        if not cache:
            raise RuntimeError("this cache has served a backward pass already; run forward again")
        x, gates, hs, pre_hn = (cache.pop(key) for key in ("x", "gates", "hs", "pre_hn"))
        B, L, _ = x.shape
        H = self.fw.hidden
        dout = np.ascontiguousarray(dout)
        dout *= pad_mask[:, :, None]
        dout_pair = dout.reshape(B, L, 2, H).transpose(2, 0, 1, 3)
        mask, hold = _step_masks(pad_mask)
        U = np.stack([self.fw.U.value, self.bw.U.value])
        dU = np.zeros_like(U)
        db_hh = np.zeros((2, 3 * H))
        _run_directions(
            lambda d: _backward_steps(_step_views(gates, d), hs[:, d], pre_hn[:, d],
                                      _step_views(dout_pair, d, dout), mask[:, d], hold[:, d],
                                      U[d], dU[d], db_hh[d]),
            B * H,
        )
        del hs, pre_hn  # free the per-step states before the input-gradient GEMMs
        for k, direction in enumerate((self.fw, self.bw)):
            direction.U.grad += dU[k]
            direction.b_hh.grad += db_hh[k]
        # `dx` is allocated here, as memory a helper thread allocates stays in
        # its own malloc arena (12 MB more peak RSS at L=256, H=100, B=64)
        dx = np.empty((2,) + x.shape)

        def run(d) -> None:
            for k in (0, 1) if d == _PAIR else (d,):
                _input_grads((self.fw, self.bw)[k], gates[k], x, dx[k])

        _run_directions(run, B * H)
        return dx[0] + dx[1]


# Indexes the direction axis of the per-step arrays, (L, 2, B, ...), keeping
# both directions; 0 or 1 keeps one.  The step loops below take either.
_PAIR = slice(None)

# The smallest per-direction B*H at which a layer runs its directions on two
# threads.  A layer's forward and backward on 2 vCPUs, threaded against
# paired: 0.93x at B*H = 4096, 1.01x at 5120 and 1.08x at 6400 (H = 32).
THREADED_MIN_STEP = 6144


def _cpu_count() -> int:
    """CPUs free for this process and the threads and children it starts:
    those it may run on, less one per live child of its own.  In a process
    that `multiprocessing` started (a pool or grid worker, daemonic or not) it
    is 1, because its siblings take the other CPUs."""
    import multiprocessing  # here, not at the top, so that `import rationalift` stays lean

    if multiprocessing.parent_process() is not None:
        return 1
    try:
        cpus = len(os.sched_getaffinity(0))
    except AttributeError:  # platforms without CPU affinity
        cpus = os.cpu_count() or 1
    return max(1, cpus - len(multiprocessing.active_children()))


def _run_directions(run: Callable[[object], None], step_size: int) -> None:
    """`run(_PAIR)` in the caller; or, when `step_size` reaches
    THREADED_MIN_STEP and a CPU is free, `run(1)` on a helper thread while the
    caller runs `run(0)`.  The helper is joined on every path, and its
    exception is re-raised here with its type.  Both ways give the same bits:
    each direction sees the same operations on the same operands."""
    if step_size < THREADED_MIN_STEP or _cpu_count() < 2:
        run(_PAIR)
        return
    failure: list[BaseException] = []

    def helper() -> None:
        try:
            run(1)
        except BaseException as exc:  # handed to the caller after the join
            failure.append(exc)

    thread = threading.Thread(target=helper, name="bigru-bw-direction")
    thread.start()
    try:
        run(0)
    finally:
        thread.join()
    if failure:
        raise failure[0]


def _forward_steps(gates, hs, U_T, b_hh, mask, hold, pre_hn) -> None:
    """The forward recurrence, in place: per step, `gates[s]` goes from input
    pre-activations to r, z, n, `hs[s + 1]` gets the state after step s and
    `pre_hn[s]`, unless None, the recurrent n pre-activation."""
    H = hs.shape[-1]
    for s in range(len(gates)):
        h = hs[s]
        pre_h = np.matmul(h, U_T) + b_hh
        g = gates[s]
        g[..., : 2 * H] = sigmoid(g[..., : 2 * H] + pre_h[..., : 2 * H])
        r, z = g[..., :H], g[..., H : 2 * H]
        n = np.tanh(g[..., 2 * H :] + r * pre_h[..., 2 * H :], out=g[..., 2 * H :])
        hs[s + 1] = mask[s] * ((1.0 - z) * n + z * h) + hold[s] * h
        if pre_hn is not None:
            pre_hn[s] = pre_h[..., 2 * H :]


def _backward_steps(gates, hs, pre_hn, dout, mask, hold, U, dU, db_hh) -> None:
    """The backward recurrence, in place: per step, `gates[s]` gets the input-side
    gate gradients, and the recurrent gradients accumulate into `dU` and `db_hh`."""
    H = hs.shape[-1]
    dpre_h = np.empty(gates[0].shape)
    dh = np.zeros(hs.shape[1:])
    for s in range(len(gates) - 1, -1, -1):
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
        dU += np.matmul(np.swapaxes(dpre_h, -1, -2), h_prev)
        db_hh += dpre_h.sum(axis=-2)
        dh = dh_prev + np.matmul(dpre_h, U)


def _input_grads(direction: GRUDirection, dpre_x: np.ndarray, x: np.ndarray,
                 dx: np.ndarray) -> None:
    """Accumulate W and b_ih gradients from the contiguous (B, L, 3H)
    input-side gate gradients, read in place, and write the gradient with
    respect to x into the contiguous `dx`, shaped like x."""
    B, L, G = dpre_x.shape
    flat = dpre_x.reshape(B * L, G)
    direction.W.grad += flat.T @ x.reshape(B * L, -1)
    direction.b_ih.grad += flat.sum(axis=0)
    np.matmul(flat, direction.W.value, out=dx.reshape(B * L, -1))


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


def encode(layers: Sequence[BiGRULayer], x: np.ndarray, pad_mask: np.ndarray,
           with_cache: bool = False):
    """Per-token states from a stacked bidirectional encoder, and the
    per-layer caches for `_encode_backward`; the caches are None without
    `with_cache`, and then no layer keeps per-step state."""
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


@dataclass
class MaskSample:
    """One mask draw: the hard binary mask and the relaxed value at the same
    noise draw."""

    hard_mask: np.ndarray
    soft_mask: np.ndarray


def _noise_source(noise) -> Optional[np.random.Generator]:
    """A generator seeded from an integer seed (Python's or numpy's), else
    `noise` itself: a generator or None."""
    return np.random.default_rng(noise) if isinstance(noise, (int, np.integer)) else noise


def _sample(
    probs: Optional[np.ndarray],
    logits: Optional[np.ndarray],
    temperature: float,
    mode: str,
    rng: Optional[np.random.Generator],
    pad_mask: Optional[np.ndarray],
) -> MaskSample:
    """Draw a mask: train mode perturbs `logits` (`probs` is not read), eval
    thresholds `probs`."""
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
    if not 0 < temperature < np.inf:
        raise ValueError("temperature must be positive and finite")
    probs = np.asarray(probs, dtype=np.float64)
    if pad_mask is not None:
        probs = probs * pad_mask
    logits = None
    if mode == "train":
        clipped = np.clip(probs, 1e-12, 1.0 - 1e-12)
        logits = np.log(clipped) - np.log1p(-clipped)
    return _sample(probs, logits, temperature, mode, _noise_source(noise_seed), pad_mask)


def apply_mask(embedded: np.ndarray, mask: np.ndarray) -> np.ndarray:
    """Scale each token's embedding row by its mask value (Z = M * X)."""
    embedded = np.asarray(embedded)
    mask = np.asarray(mask, dtype=np.float64)
    if embedded.shape[:-1] != mask.shape:
        raise ValueError(f"mask shape {mask.shape} does not match tokens {embedded.shape[:-1]}")
    return embedded * mask[..., None]


def pool_max(states: np.ndarray, pad_mask: np.ndarray, with_cache: bool = False):
    """Coordinate-wise max over real-token positions; zero vector if none.
    Overwrites the padded positions of `states` with -inf.  The cached argmax
    is each unit's first maximum, or first NaN, as `np.argmax` would give."""
    np.copyto(states, -np.inf, where=~(pad_mask[:, :, None] > 0))
    pooled = states.max(axis=1)
    empty = pad_mask.sum(axis=1) == 0
    if with_cache:
        first = (states == pooled[:, None, :]) | np.isnan(states)  # a NaN max is the first NaN
        cache = {"argmax": first.argmax(axis=1), "empty": empty, "shape": states.shape}
    pooled[empty] = 0.0
    return (pooled, cache) if with_cache else pooled


def _pool_max_backward(cache: dict, dpooled: np.ndarray) -> np.ndarray:
    """Each (row, unit) gradient goes to the first argmax; rows without a real
    token get none.  Adding +0.0 stores a -0.0 gradient as +0.0."""
    dstates = np.zeros(cache["shape"])
    contrib = dpooled + 0.0
    contrib[cache["empty"]] = 0.0
    np.put_along_axis(dstates, cache["argmax"][:, None, :], contrib[:, None, :], axis=1)
    return dstates


def _generator(params: ModelParams, token_ids: np.ndarray, pad_mask: np.ndarray,
               with_cache: bool):
    """The generator view: embed, encode, score each token.  Returns the
    embedded tokens, the (B, L) selection logits, the states and, with
    `with_cache`, the encoder caches for `_encode_backward` (else None)."""
    embedded = params.embedding.value[token_ids]
    states, caches = encode(params.gen_layers, embedded, pad_mask, with_cache)
    return embedded, params.gen_head.forward(states)[..., 0], states, caches


def _predictor(params: ModelParams, masked_embedded: np.ndarray, pad_mask: np.ndarray,
               with_cache: bool):
    """The predictor view: encode, max-pool over real tokens, classify.
    Returns the class logits and, with `with_cache`, the cache for
    `_predictor_backward` (else None)."""
    states, enc_caches = encode(params.pred_layers, masked_embedded, pad_mask, with_cache)
    if not with_cache:
        return params.pred_head.forward(pool_max(states, pad_mask)), None
    pooled, pool_cache = pool_max(states, pad_mask, with_cache=True)
    cache = {"encoder": enc_caches, "pool": pool_cache, "pooled": pooled}
    return params.pred_head.forward(pooled), cache


def _predictor_backward(
    params: ModelParams, cache: dict, dlogits: np.ndarray, pad_mask: np.ndarray
) -> np.ndarray:
    """Accumulate the predictor view's gradients from the (B, classes) logit
    gradients; returns d(loss)/d(masked embeddings)."""
    params.pred_head.W.grad += dlogits.T @ cache["pooled"]
    params.pred_head.b.grad += dlogits.sum(axis=0)
    dstates = _pool_max_backward(cache["pool"], dlogits @ params.pred_head.W.value)
    return _encode_backward(params.pred_layers, cache["encoder"], dstates, pad_mask)


def predict(params: ModelParams, masked_embedded: np.ndarray, pad_mask: np.ndarray) -> np.ndarray:
    """Class logits from a masked embedding sequence via the predictor view."""
    return _predictor(params, masked_embedded, pad_mask, with_cache=False)[0]


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
    mask_forward: str = "hard",
    with_cache: bool = False,
) -> ForwardResult:
    """Full pipeline: the generator view (`_generator`), a mask sample, the
    original tokens' embeddings masked, then the predictor view (`_predictor`).

    `mask_forward` = "soft" consumes the relaxed mask downstream, which makes
    the loss differentiable end-to-end for gradient checking.
    """
    if mask_forward not in ("hard", "soft"):
        raise ValueError("mask_forward must be 'hard' or 'soft'")
    emb_full, gen_logits, gen_states, gen_caches = _generator(params, batch.token_ids,
                                                               batch.pad_mask, with_cache)
    probs = sigmoid(gen_logits) if mode == "eval" else None
    sample = _sample(probs, gen_logits, params.config.temperature, mode, _noise_source(noise),
                     batch.pad_mask)
    mask_values = sample.hard_mask if mask_forward == "hard" else sample.soft_mask
    logits, pred_cache = _predictor(
        params, apply_mask(emb_full, mask_values), batch.pad_mask, with_cache
    )
    cache = None
    if with_cache:
        cache = {"emb_full": emb_full, "gen_caches": gen_caches, "gen_states": gen_states,
                 "predictor": pred_cache}
    return ForwardResult(logits=logits, mask=sample, mask_values=mask_values, cache=cache)


@dataclass
class LossBreakdown:
    ce: float
    omega: float
    total: float


def _scatter_embedding_grad(params: ModelParams, token_ids: np.ndarray, demb: np.ndarray):
    """Accumulate per-token embedding gradients into the table's rows; the PAD
    and MASK rows stay fixed at zero.  A no-op for a frozen embedding."""
    if not params.config.train_embedding:
        return
    np.add.at(params.embedding.grad, token_ids.reshape(-1), demb.reshape(-1, demb.shape[-1]))
    params.embedding.grad[PAD_ID] = 0.0
    params.embedding.grad[MASK_ID] = 0.0


def _gen_head_backward(params: ModelParams, states: np.ndarray, dlogits: np.ndarray) -> np.ndarray:
    """Accumulate the generator head's gradients from the (B, L) logit
    gradients at the (B, L, H) generator states; returns d(loss)/d(states)."""
    params.gen_head.W.grad += (dlogits[..., None] * states).sum(axis=(0, 1))[None, :]
    params.gen_head.b.grad += dlogits.sum()
    return dlogits[..., None] * params.gen_head.W.value[0]


def loss_and_grads(
    params: ModelParams,
    batch: Batch,
    objective_cfg: obj.ObjectiveConfig,
    noise: int | np.random.Generator | None = None,
    mask_forward: str = "hard",
) -> LossBreakdown:
    """One train-mode forward/backward pass of the joint objective; gradients
    accumulate into Parameter.grad.

    The mask gradient follows the straight-through contract: downstream
    sensitivities are taken at the forward mask values, and the path into the
    generator uses the relaxed sample's derivative at the same noise draw.
    """
    out = forward(params, batch, mode="train", noise=noise, mask_forward=mask_forward,
                  with_cache=True)
    cache = out.cache
    assert cache is not None
    ce, dlogits = obj.cross_entropy_grad(out.logits, batch.labels)
    omega, dmask_reg = obj.sparsity_coherence_grad(out.mask_values, batch.lengths, objective_cfg)
    demb_masked = _predictor_backward(params, cache["predictor"], dlogits, batch.pad_mask)

    # straight-through: d(loss)/d(mask) at forward values, relaxed path to the logits
    dmask = (demb_masked * cache["emb_full"]).sum(axis=2) + dmask_reg
    dmask *= batch.pad_mask
    soft = out.mask.soft_mask
    dgen_logits = dmask * soft * (1.0 - soft) / params.config.temperature
    dgen_states = _gen_head_backward(params, cache["gen_states"], dgen_logits)
    demb_full = demb_masked * out.mask_values[..., None] + _encode_backward(
        params.gen_layers, cache["gen_caches"], dgen_states, batch.pad_mask
    )
    _scatter_embedding_grad(params, batch.token_ids, demb_full)
    return LossBreakdown(ce=ce, omega=omega, total=ce + omega)


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
    """A `save_checkpoint` archive's model and meta; ValueError names a file that is not one."""
    path = Path(path)
    if not path.exists():
        raise FileNotFoundError(f"checkpoint not found: {path}")
    try:  # np.load gives an .npy file's bare array, which is no context manager: TypeError
        with np.load(path, allow_pickle=False) as archive:
            cfg = ModelConfig.from_json(str(archive["__config__"]))
            vocab = Vocabulary.from_json(str(archive["__vocab__"]))
            meta = json.loads(str(archive["__meta__"]))
            state = {
                name[len("param/") :]: archive[name]
                for name in archive.files
                if name.startswith("param/")
            }
    except (KeyError, TypeError, ValueError, EOFError, OSError, zipfile.BadZipFile) as exc:
        raise ValueError(f"cannot load checkpoint {path}: {exc}") from exc
    params = build_model(cfg, vocab, embeddings=None, seed=0)
    params.load_state(state)
    return params, meta
