"""Loss terms: predictive cross-entropy plus the sparsity/coherence regularizer.

The regularizer on a mask M over a length-l example is

    Omega(M) = lambda1 * | sum(M)/l - alpha |  +  lambda2 * sum_{t=2..l} |m_t - m_{t-1}|

with l the unpadded length.  Mask values are binary on the forward pass and
fractional when gradients flow through the straight-through relaxation, so
every function here accepts values anywhere in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class ObjectiveConfig:
    lambda1: float = 1.0
    lambda2: float = 0.05
    alpha: float = 0.15

    def __post_init__(self) -> None:
        if not 0.0 <= self.alpha <= 1.0:
            raise ValueError("alpha must lie in [0, 1]")
        if not (0 <= self.lambda1 < np.inf and 0 <= self.lambda2 < np.inf):
            raise ValueError("regularizer weights must be non-negative and finite")


def log_softmax(logits: np.ndarray) -> np.ndarray:
    shifted = logits - logits.max(axis=-1, keepdims=True)
    return shifted - np.log(np.exp(shifted).sum(axis=-1, keepdims=True))


def softmax(logits: np.ndarray) -> np.ndarray:
    return np.exp(log_softmax(logits))


def cross_entropy(logits: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-softmax probability of the true class."""
    return cross_entropy_grad(logits, labels)[0]


def cross_entropy_grad(logits: np.ndarray, labels: np.ndarray) -> tuple[float, np.ndarray]:
    """Cross-entropy and its gradient w.r.t. the logits (batch-mean convention)."""
    logits = np.asarray(logits, dtype=np.float64)
    logp = log_softmax(logits)
    rows = np.arange(len(labels))
    loss = float(-logp[rows, labels].mean())
    grad = np.exp(logp)
    grad[rows, labels] -= 1.0
    grad /= len(labels)
    return loss, grad


def sparsity_coherence(mask: np.ndarray, lengths: np.ndarray, cfg: ObjectiveConfig) -> float:
    """Batch-mean Omega; PAD positions (beyond each length) are ignored."""
    return sparsity_coherence_grad(mask, lengths, cfg)[0]


def sparsity_coherence_grad(
    mask: np.ndarray, lengths: np.ndarray, cfg: ObjectiveConfig
) -> tuple[float, np.ndarray]:
    """Omega and its (sub)gradient w.r.t. the mask values.

    sign(0) is taken as 0 at the sparsity kink and at flat transitions, so the
    gradient is deterministic everywhere.
    """
    mask = np.asarray(mask, dtype=np.float64)
    batch, width = mask.shape
    lengths = np.asarray(lengths, dtype=np.int64)
    if np.any(lengths <= 0):
        raise ValueError("every example must have positive length")
    if np.any(lengths > width):
        raise ValueError("length exceeds mask width")
    valid = np.arange(width)[None, :] < lengths[:, None]
    excess = np.where(valid, mask, 0.0).sum(axis=1) / lengths - cfg.alpha
    # transitions t=2..l only: both neighbours must be real tokens
    pair_valid = valid[:, 1:] & valid[:, :-1]
    diffs = np.where(pair_valid, mask[:, 1:] - mask[:, :-1], 0.0)
    omega = float((cfg.lambda1 * np.abs(excess) + cfg.lambda2 * np.abs(diffs).sum(axis=1)).mean())

    grad = (cfg.lambda1 * np.sign(excess) / lengths)[:, None] * valid
    diff_grad = cfg.lambda2 * np.sign(diffs)
    grad[:, 1:] += diff_grad
    grad[:, :-1] -= diff_grad
    grad /= batch
    return omega, grad
