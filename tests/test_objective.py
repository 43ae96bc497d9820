"""Objective terms: hand-derived values, finite differences, block-count oracle."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from rationalift import data as dat
from rationalift import model as mdl
from rationalift.objective import (
    ObjectiveConfig,
    cross_entropy,
    cross_entropy_grad,
    softmax,
    sparsity_coherence,
    sparsity_coherence_grad,
)

CFG_UNIT = ObjectiveConfig(lambda1=1.0, lambda2=1.0, alpha=0.5)


def coherence_block_count(mask: np.ndarray) -> int:
    """Selected contiguous blocks in a binary mask (oracle for the transition sum)."""
    padded = np.concatenate([[0], np.asarray(mask).astype(int), [0]])
    return int(np.sum((padded[1:] - padded[:-1]) == 1))


class TestCrossEntropy:
    def test_uniform_logits_give_ln2(self):
        logits = np.array([[0.0, 0.0]])
        for label in (0, 1):
            assert cross_entropy(logits, np.array([label])) == pytest.approx(np.log(2))

    def test_large_margin_drives_loss_to_zero(self):
        logits = np.array([[40.0, -40.0]])
        assert cross_entropy(logits, np.array([0])) == pytest.approx(0.0, abs=1e-12)

    def test_batch_mean(self):
        la = np.array([[2.0, -1.0]])
        lb = np.array([[0.3, 0.8]])
        a = cross_entropy(la, np.array([0]))
        b = cross_entropy(lb, np.array([1]))
        both = cross_entropy(np.vstack([la, lb]), np.array([0, 1]))
        assert both == pytest.approx((a + b) / 2)

    def test_grad_matches_finite_differences(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=(5, 2))
        labels = rng.integers(0, 2, size=5)
        _, grad = cross_entropy_grad(logits, labels)
        eps = 1e-6
        for i in range(5):
            for j in range(2):
                up, dn = logits.copy(), logits.copy()
                up[i, j] += eps
                dn[i, j] -= eps
                fd = (cross_entropy(up, labels) - cross_entropy(dn, labels)) / (2 * eps)
                assert grad[i, j] == pytest.approx(fd, rel=1e-5, abs=1e-9)


class TestSparsityCoherence:
    def test_hand_derived_example(self):
        # sparsity term 0 (2/4 = alpha), transitions |0-1|+|1-0|+|0-1| = 3
        mask = np.array([[1.0, 0.0, 1.0, 0.0]])
        assert sparsity_coherence(mask, np.array([4]), CFG_UNIT) == pytest.approx(3.0)

    def test_all_zero_mask_at_alpha_zero(self):
        cfg = ObjectiveConfig(lambda1=1.0, lambda2=1.0, alpha=0.0)
        mask = np.zeros((1, 6))
        assert sparsity_coherence(mask, np.array([6]), cfg) == pytest.approx(0.0)

    def test_all_one_mask_at_alpha_one(self):
        cfg = ObjectiveConfig(lambda1=1.0, lambda2=1.0, alpha=1.0)
        mask = np.ones((1, 6))
        assert sparsity_coherence(mask, np.array([6]), cfg) == pytest.approx(0.0)

    def test_zero_length_rejected(self):
        with pytest.raises(ValueError):
            sparsity_coherence(np.zeros((1, 3)), np.array([0]), CFG_UNIT)

    def test_pad_extension_invariance(self):
        rng = np.random.default_rng(1)
        mask = rng.random((4, 6))
        lengths = np.array([6, 5, 3, 6])
        base = sparsity_coherence(np.where(np.arange(6) < lengths[:, None], mask, 0.0),
                                  lengths, CFG_UNIT)
        extended = np.zeros((4, 10))
        extended[:, :6] = np.where(np.arange(6) < lengths[:, None], mask, 0.0)
        assert sparsity_coherence(extended, lengths, CFG_UNIT) == pytest.approx(base, abs=1e-15)

    @given(st.lists(st.integers(0, 1), min_size=1, max_size=30))
    @settings(max_examples=200, deadline=None)
    def test_coherence_equals_block_count_oracle(self, bits):
        mask = np.array([bits], dtype=float)
        length = np.array([len(bits)])
        cfg = ObjectiveConfig(lambda1=0.0, lambda2=1.0, alpha=0.0)
        transitions = sparsity_coherence(mask, length, cfg)
        blocks = coherence_block_count(np.array(bits))
        expected = 2 * blocks - bits[0] - bits[-1]
        assert transitions == pytest.approx(expected)

    @given(
        st.lists(st.floats(0.0, 1.0), min_size=1, max_size=20),
        st.floats(0.0, 1.0),
    )
    @settings(max_examples=200, deadline=None)
    def test_nonnegative(self, values, alpha):
        cfg = ObjectiveConfig(lambda1=1.3, lambda2=0.7, alpha=alpha)
        mask = np.array([values])
        assert sparsity_coherence(mask, np.array([len(values)]), cfg) >= 0.0

    def test_zero_iff_exact_sparsity_and_constant(self):
        cfg = ObjectiveConfig(lambda1=1.0, lambda2=1.0, alpha=0.5)
        flat = np.array([[1.0, 1.0, 0.0, 0.0]])  # right sparsity, one transition
        assert sparsity_coherence(flat, np.array([4]), cfg) > 0
        constant = np.array([[0.5, 0.5, 0.5, 0.5]])  # soft-constant at alpha
        assert sparsity_coherence(constant, np.array([4]), cfg) == pytest.approx(0.0)

    def test_finite_differences_away_from_kinks(self):
        # 100 random soft points with |sum/l - alpha| > 1e-3 and non-flat transitions
        rng = np.random.default_rng(7)
        cfg = ObjectiveConfig(lambda1=0.9, lambda2=0.6, alpha=0.31)
        checked = 0
        eps = 1e-7
        while checked < 100:
            width = int(rng.integers(3, 12))
            mask = rng.random((1, width))
            lengths = np.array([width])
            if abs(mask.sum() / width - cfg.alpha) <= 1e-3:
                continue
            if np.any(np.abs(np.diff(mask[0])) <= 1e-3):
                continue
            _, grad = sparsity_coherence_grad(mask, lengths, cfg)
            j = int(rng.integers(width))
            up, dn = mask.copy(), mask.copy()
            up[0, j] += eps
            dn[0, j] -= eps
            fd = (
                sparsity_coherence(up, lengths, cfg) - sparsity_coherence(dn, lengths, cfg)
            ) / (2 * eps)
            assert grad[0, j] == pytest.approx(fd, rel=1e-5, abs=1e-10)
            checked += 1

    def test_subgradient_zero_at_exact_sparsity(self):
        cfg = ObjectiveConfig(lambda1=1.0, lambda2=0.0, alpha=0.5)
        mask = np.array([[1.0, 0.0, 1.0, 0.0]])
        _, grad = sparsity_coherence_grad(mask, np.array([4]), cfg)
        assert np.allclose(grad, 0.0)


@pytest.fixture(scope="module")
def tiny_model_batch():
    splits = dat.synth_generate(dat.SynthConfig(
        vocab_size=30, doc_length=7, span_length=2, seed=3, train_size=6, dev_size=2,
        annotation_size=2, informative_per_class=3, marker_count=1))
    vocab = dat.build_vocab(splits.train)
    params = mdl.build_model(mdl.ModelConfig(embedding_dim=4, hidden_dim=6), vocab, seed=0)
    return params, dat.make_batches(splits.train, vocab, batch_size=6)[0]


class TestTotalLoss:
    """`loss_and_grads` reports total = ce + omega of its own forward pass."""

    def test_sum(self, tiny_model_batch):
        params, batch = tiny_model_batch
        loss = mdl.loss_and_grads(params, batch, CFG_UNIT, noise=5)
        out = mdl.forward(params, batch, mode="train", noise=5)
        assert loss.ce == cross_entropy(out.logits, batch.labels)
        assert loss.omega == sparsity_coherence(out.mask.hard_mask, batch.lengths, CFG_UNIT)
        assert loss.total == loss.ce + loss.omega

    def test_zero_omega_reduces_to_ce(self, tiny_model_batch):
        params, batch = tiny_model_batch
        no_regularizer = ObjectiveConfig(lambda1=0.0, lambda2=0.0, alpha=0.5)
        loss = mdl.loss_and_grads(params, batch, no_regularizer, noise=5)
        assert loss.omega == 0.0 and loss.total == loss.ce

    def test_gradient_linearity(self):
        # d(total)/dmask = d(omega)/dmask since ce does not touch the mask,
        # and d(total)/dlogits = d(ce)/dlogits likewise
        rng = np.random.default_rng(3)
        mask = rng.random((2, 5))
        lengths = np.array([5, 4])
        logits = rng.normal(size=(2, 2))
        labels = np.array([0, 1])
        ce, dlogits = cross_entropy_grad(logits, labels)
        om, dmask = sparsity_coherence_grad(mask, lengths, CFG_UNIT)
        eps = 1e-7
        up = mask.copy()
        up[0, 2] += eps
        total_up = ce + sparsity_coherence(up, lengths, CFG_UNIT)
        dn = mask.copy()
        dn[0, 2] -= eps
        total_dn = ce + sparsity_coherence(dn, lengths, CFG_UNIT)
        assert dmask[0, 2] == pytest.approx((total_up - total_dn) / (2 * eps), rel=1e-4)


@pytest.mark.parametrize("value", [float("nan"), float("inf"), -1.0],
                         ids=["nan", "inf", "negative"])
@pytest.mark.parametrize("key", ["lambda1", "lambda2"])
def test_bad_regularizer_weight_rejected(key, value):
    with pytest.raises(ValueError, match="non-negative and finite"):
        ObjectiveConfig(**{key: value})


def test_softmax_normalizes():
    rng = np.random.default_rng(0)
    logits = rng.normal(size=(10, 2)) * 30
    probs = softmax(logits)
    assert np.allclose(probs.sum(axis=1), 1.0)
    assert np.all(probs >= 0)
