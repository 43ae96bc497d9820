"""Model pipeline: shapes, sampling law, masking identities, gradients, persistence."""

import json
from pathlib import Path

import numpy as np
import pytest

from rationalift import data as dat
from rationalift import objective as obj
from rationalift.data import MASK_ID, PAD_ID, Batch, SynthConfig, Vocabulary, build_vocab
from rationalift.model import (
    BiGRULayer,
    ModelConfig,
    ModelParams,
    apply_mask,
    build_model,
    encode,
    forward,
    generator_probs,
    load_checkpoint,
    loss_and_grads,
    param_count,
    pool_max,
    predict,
    sample_mask,
    save_checkpoint,
    sigmoid,
)


GOLDEN = Path(__file__).resolve().parent / "data" / "golden_checkpoint.npz"


@pytest.fixture(scope="module")
def tiny_world():
    cfg = SynthConfig(vocab_size=30, doc_length=7, span_length=2, seed=3,
                      train_size=6, dev_size=2, annotation_size=2,
                      informative_per_class=3, marker_count=1)
    splits = dat.synth_generate(cfg)
    vocab = build_vocab(splits.train)
    return cfg, splits, vocab


def _tiny_batch(splits, vocab, max_len=7):
    return dat.make_batches(splits.train, vocab, batch_size=6, max_len=max_len)[0]


class TestBuildModel:
    def test_share_depth_bounds(self):
        with pytest.raises(ValueError, match="share_depth"):
            ModelConfig(num_layers=1, share_depth=2)

    def test_full_share_aliases_layers(self, tiny_world):
        _, _, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6, num_layers=2, share_depth=2)
        params = build_model(cfg, vocab, seed=0)
        for g, p in zip(params.gen_layers, params.pred_layers):
            assert g is p

    def test_rnp_layers_disjoint(self, tiny_world):
        _, _, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6, num_layers=2, share_depth=0)
        params = build_model(cfg, vocab, seed=0)
        gen_ids = {id(p) for l in params.gen_layers for p in l.parameters()}
        pred_ids = {id(p) for l in params.pred_layers for p in l.parameters()}
        assert not gen_ids & pred_ids

    def test_equal_seeds_identical_parameters(self, tiny_world):
        _, _, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6, num_layers=1, share_depth=1)
        a = build_model(cfg, vocab, seed=11)
        b = build_model(cfg, vocab, seed=11)
        for name, value in a.state_dict().items():
            assert np.array_equal(value, b.state_dict()[name])

    def test_reserved_embedding_rows_zero(self, tiny_world):
        _, _, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6)
        params = build_model(cfg, vocab, seed=0)
        assert np.all(params.embedding.value[PAD_ID] == 0)
        assert np.all(params.embedding.value[MASK_ID] == 0)


class TestParamCount:
    def _counts(self, vocab, share_depth, num_layers=2):
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6, num_layers=num_layers,
                          share_depth=share_depth)
        return param_count(build_model(cfg, vocab, seed=0))

    def test_folded_equals_baseline_minus_one_stack(self, tiny_world):
        _, _, vocab = tiny_world
        fr = self._counts(vocab, share_depth=2)
        rnp = self._counts(vocab, share_depth=0)
        assert fr["total"] == rnp["total"] - rnp["encoder_stack"]

    def test_partial_share_counts_prefix(self, tiny_world):
        _, _, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6, num_layers=3, share_depth=2)
        params = build_model(cfg, vocab, seed=0)
        counts = param_count(params)
        layer_sizes = [sum(p.size for p in l.parameters()) for l in params.gen_layers]
        expected_shared = sum(layer_sizes[:2]) + params.embedding.size
        assert counts["shared"] == expected_shared

    def test_frozen_embedding_excluded_from_trainable(self, tiny_world):
        _, _, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6, share_depth=0,
                          train_embedding=False)
        counts = param_count(build_model(cfg, vocab, seed=0))
        assert counts["shared"] == 0
        assert counts["total_excluding_embedding"] == counts["total"]
        trainable_cfg = ModelConfig(embedding_dim=4, hidden_dim=6, share_depth=0,
                                    train_embedding=True)
        t_counts = param_count(build_model(trainable_cfg, vocab, seed=0))
        assert t_counts["total"] == counts["total"] + counts["embedding"]


class TestEncode:
    def test_single_token_shape(self, tiny_world):
        _, _, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6)
        params = build_model(cfg, vocab, seed=0)
        states = encode(params.gen_layers, np.zeros((1, 1, 4)), np.ones((1, 1)))
        assert states.shape == (1, 1, 6)

    def test_batch_order_irrelevant(self, tiny_world):
        _, splits, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6)
        params = build_model(cfg, vocab, seed=0)
        batch = _tiny_batch(splits, vocab)
        emb = params.embedding.value[batch.token_ids]
        states = encode(params.gen_layers, emb, batch.pad_mask)
        perm = np.array([3, 1, 5, 0, 2, 4])
        states_perm = encode(params.gen_layers, emb[perm], batch.pad_mask[perm])
        assert np.allclose(states[perm], states_perm, atol=1e-12)

    def test_zero_input_fixed_point_at_init(self, tiny_world):
        # zero biases at initialization keep the all-zero sequence at state zero,
        # so token 1 and token 2 agree in the forward direction
        _, _, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6)
        params = build_model(cfg, vocab, seed=4)
        states = encode(params.gen_layers, np.zeros((1, 2, 4)), np.ones((1, 2)))
        fwd = states[0, :, :3]
        assert np.allclose(fwd[0], fwd[1], atol=1e-14)

    def test_pad_rows_zeroed(self, tiny_world):
        _, splits, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6)
        params = build_model(cfg, vocab, seed=0)
        batch = _tiny_batch(splits, vocab, max_len=7)
        pad_mask = batch.pad_mask.copy()
        pad_mask[:, -2:] = 0.0
        emb = params.embedding.value[batch.token_ids] * pad_mask[:, :, None]
        states = encode(params.gen_layers, emb, pad_mask)
        assert np.all(states[:, -2:, :] == 0.0)


def _two_branch_sigmoid(x):
    """The former sigmoid: a boolean gather into two branches."""
    out = np.empty_like(x, dtype=np.float64)
    pos = x >= 0
    out[pos] = 1.0 / (1.0 + np.exp(-x[pos]))
    ex = np.exp(x[~pos])
    out[~pos] = ex / (1.0 + ex)
    return out


def test_sigmoid_bit_equal_to_two_branch_formula():
    rng = np.random.default_rng(0)
    special = np.array([np.inf, -np.inf, 745.0, -745.0, 1e-300, -1e-300, 0.0, -0.0,
                        np.nan, -np.nan])
    for x in [special, *(rng.normal(scale=s, size=(3, 50, 40)) for s in (1.0, 30.0, 800.0))]:
        assert np.array_equal(sigmoid(x).view(np.int64), _two_branch_sigmoid(x).view(np.int64))


class TestBiGRULayer:
    def _padded(self, rng):
        """A (4, 6, 5) input whose documents have lengths 6, 4, 2 and 1."""
        lengths = np.array([6, 4, 2, 1])
        pad_mask = (np.arange(6)[None, :] < lengths[:, None]).astype(np.float64)
        return rng.normal(size=(4, 6, 5)) * pad_mask[:, :, None], pad_mask, lengths

    def test_backward_direction_is_forward_on_reversed_documents(self):
        rng = np.random.default_rng(5)
        layer = BiGRULayer("oracle", 5, 3, rng)
        for fw, bw in zip(layer.fw.parameters(), layer.bw.parameters()):
            fw.value[...] = rng.normal(scale=0.5, size=fw.value.shape)
            bw.value[...] = fw.value
        x, pad_mask, lengths = self._padded(rng)
        x_rev = x.copy()
        for b, n in enumerate(lengths):
            x_rev[b, :n] = x[b, n - 1 :: -1]
        out, _ = layer.forward(x, pad_mask)
        out_rev, _ = layer.forward(x_rev, pad_mask)
        for b, n in enumerate(lengths):
            np.testing.assert_allclose(out[b, :n, 3:], out_rev[b, :n, :3][::-1],
                                       rtol=0, atol=1e-12)
        assert np.all(out[pad_mask == 0] == 0.0)

    def test_second_backward_on_spent_cache_raises(self):
        rng = np.random.default_rng(6)
        layer = BiGRULayer("spent", 5, 3, rng)
        x, pad_mask, _ = self._padded(rng)
        out, cache = layer.forward(x, pad_mask)
        layer.backward(cache, np.ones_like(out), pad_mask)
        with pytest.raises(RuntimeError, match="backward"):
            layer.backward(cache, np.ones_like(out), pad_mask)

    def test_uncached_forward_keeps_no_cache(self):
        rng = np.random.default_rng(7)
        layer = BiGRULayer("eval", 5, 3, rng)
        x, pad_mask, _ = self._padded(rng)
        cached, cache = layer.forward(x, pad_mask)
        uncached, none = layer.forward(x, pad_mask, with_cache=False)
        assert cache and none is None
        assert np.array_equal(cached, uncached)

    @pytest.mark.parametrize("mode", ["eval", "train"])
    def test_uncached_model_forward_bit_equal_to_cached(self, tiny_world, mode):
        _, splits, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6, num_layers=2, share_depth=1)
        params = build_model(cfg, vocab, seed=3)
        full = _tiny_batch(splits, vocab)
        lengths = np.array([7, 5, 3, 1, 6, 2])
        pad_mask = (np.arange(7)[None, :] < lengths[:, None]).astype(np.float64)
        batch = Batch(ids=full.ids, token_ids=np.where(pad_mask > 0, full.token_ids, PAD_ID),
                      pad_mask=pad_mask, lengths=lengths, labels=full.labels)
        cached = forward(params, batch, mode=mode, noise=4, with_cache=True)
        plain = forward(params, batch, mode=mode, noise=4)
        assert plain.cache is None
        assert np.array_equal(cached.logits, plain.logits)
        assert np.array_equal(cached.mask.hard_mask, plain.mask.hard_mask)
        assert np.array_equal(cached.mask.soft_mask, plain.mask.soft_mask)


class TestGeneratorProbs:
    def test_zero_head_gives_half(self, tiny_world):
        _, splits, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6)
        params = build_model(cfg, vocab, seed=0)
        params.gen_head.W.value[...] = 0.0
        params.gen_head.b.value[...] = 0.0
        batch = _tiny_batch(splits, vocab)
        states = encode(params.gen_layers, params.embedding.value[batch.token_ids],
                        batch.pad_mask)
        probs = generator_probs(params, states, batch.pad_mask)
        assert np.allclose(probs[batch.pad_mask > 0], 0.5)

    def test_pad_positions_forced_zero(self, tiny_world):
        _, splits, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6)
        params = build_model(cfg, vocab, seed=0)
        batch = _tiny_batch(splits, vocab)
        pad_mask = batch.pad_mask.copy()
        pad_mask[:, -1] = 0.0
        states = encode(params.gen_layers, params.embedding.value[batch.token_ids], pad_mask)
        probs = generator_probs(params, states, pad_mask)
        assert np.all(probs[:, -1] == 0.0)

    def test_identical_states_identical_probs(self, tiny_world):
        _, _, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6)
        params = build_model(cfg, vocab, seed=0)
        state = np.tile(np.linspace(-1, 1, 6), (1, 3, 1))
        probs = generator_probs(params, state, np.ones((1, 3)))
        assert probs[0, 0] == probs[0, 1] == probs[0, 2]


class TestSampleMask:
    def test_eval_threshold_strict(self):
        s = sample_mask(np.array([[0.9, 0.3, 0.5]]), 1.0, mode="eval")
        assert s.hard_mask.tolist() == [[1.0, 0.0, 0.0]]
        assert s.soft_mask.tolist() == [[0.9, 0.3, 0.5]]

    def test_near_one_probability_selects(self):
        probs = np.full((200, 1), 1.0 - 1e-9)
        s = sample_mask(probs, 1.0, mode="train", noise_seed=0)
        assert np.all(s.hard_mask == 1.0)

    def test_hard_mask_matches_bernoulli(self):
        for p in (0.1, 0.5, 0.9):
            s = sample_mask(np.full((10000, 1), p), 1.0, mode="train", noise_seed=123)
            assert abs(s.hard_mask.mean() - p) < 0.02

    def test_pad_positions_zero(self):
        pad = np.array([[1.0, 0.0]])
        s = sample_mask(np.array([[0.99, 0.99]]), 1.0, mode="train", noise_seed=5,
                        pad_mask=pad)
        assert s.hard_mask[0, 1] == 0.0
        assert s.soft_mask[0, 1] == 0.0

    def test_deterministic_given_seed(self):
        probs = np.random.default_rng(0).random((4, 9))
        a = sample_mask(probs, 0.7, mode="train", noise_seed=77)
        b = sample_mask(probs, 0.7, mode="train", noise_seed=77)
        assert np.array_equal(a.hard_mask, b.hard_mask)
        assert np.array_equal(a.soft_mask, b.soft_mask)

    def test_hard_mask_is_binary(self):
        probs = np.random.default_rng(1).random((8, 11))
        s = sample_mask(probs, 2.0, mode="train", noise_seed=3)
        assert set(np.unique(s.hard_mask)) <= {0.0, 1.0}

    def test_temperature_must_be_positive(self):
        with pytest.raises(ValueError):
            sample_mask(np.array([[0.5]]), 0.0, mode="eval")


class TestApplyMask:
    def test_identity_and_zero(self):
        rng = np.random.default_rng(0)
        emb = rng.normal(size=(2, 5, 3))
        assert np.array_equal(apply_mask(emb, np.ones((2, 5))), emb)
        assert np.all(apply_mask(emb, np.zeros((2, 5))) == 0.0)

    def test_partial_mask(self):
        emb = np.array([[[1.0, 2.0], [3.0, 4.0]]])
        out = apply_mask(emb, np.array([[1.0, 0.0]]))
        assert out.tolist() == [[[1.0, 2.0], [0.0, 0.0]]]

    def test_length_mismatch_rejected(self):
        with pytest.raises(ValueError):
            apply_mask(np.zeros((1, 3, 2)), np.zeros((1, 4)))

    def test_masking_equals_mask_token_substitution(self, tiny_world):
        # zeroing an embedding row is exactly what substituting MASK does
        _, splits, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6)
        params = build_model(cfg, vocab, seed=0)
        batch = _tiny_batch(splits, vocab)
        mask = np.ones_like(batch.pad_mask)
        mask[:, 2] = 0.0
        masked = apply_mask(params.embedding.value[batch.token_ids], mask)
        substituted = batch.token_ids.copy()
        substituted[:, 2] = MASK_ID
        assert np.array_equal(masked, params.embedding.value[substituted])


class TestPoolingAndPredict:
    def test_max_over_singleton_is_identity(self):
        states = np.array([[[0.3, -0.2, 4.0]]])
        pooled = pool_max(states, np.ones((1, 1)))
        assert np.array_equal(pooled, states[:, 0, :])

    def test_duplicating_max_token_changes_nothing(self):
        rng = np.random.default_rng(2)
        states = rng.normal(size=(1, 4, 5))
        dup = np.concatenate([states, states.max(axis=1, keepdims=True)], axis=1)
        a = pool_max(states, np.ones((1, 4)))
        b = pool_max(dup, np.ones((1, 5)))
        assert np.array_equal(a, b)

    def test_no_real_tokens_pools_to_zero(self):
        states = np.random.default_rng(3).normal(size=(1, 4, 5))
        pooled = pool_max(states, np.zeros((1, 4)))
        assert np.all(pooled == 0.0)

    def test_bag_of_words_pooling_is_order_invariant(self, tiny_world):
        # identity per-token encoder isolates the pooling contract
        _, splits, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6)
        params = build_model(cfg, vocab, seed=0)
        batch = _tiny_batch(splits, vocab)
        emb = params.embedding.value[batch.token_ids]
        head = np.random.default_rng(4).normal(size=(2, 4))
        logits = pool_max(emb, batch.pad_mask) @ head.T
        perm = np.random.default_rng(5).permutation(emb.shape[1])
        logits_perm = pool_max(emb[:, perm], batch.pad_mask[:, perm]) @ head.T
        assert np.allclose(logits, logits_perm)

    def test_predict_shape(self, tiny_world):
        _, splits, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6)
        params = build_model(cfg, vocab, seed=0)
        batch = _tiny_batch(splits, vocab)
        logits = predict(params, params.embedding.value[batch.token_ids], batch.pad_mask)
        assert logits.shape == (len(batch), 2)


class TestForward:
    def test_forced_ones_equals_plain_classifier(self, tiny_world):
        _, splits, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6)
        params = build_model(cfg, vocab, seed=1)
        batch = _tiny_batch(splits, vocab)
        out = forward(params, batch, mode="train", force_mask="ones")
        plain = predict(params, params.embedding.value[batch.token_ids], batch.pad_mask)
        assert np.allclose(out.logits, plain)

    def test_equal_seeds_identical_outputs(self, tiny_world):
        _, splits, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6)
        params = build_model(cfg, vocab, seed=1)
        batch = _tiny_batch(splits, vocab)
        a = forward(params, batch, mode="train", noise=99)
        b = forward(params, batch, mode="train", noise=99)
        assert np.array_equal(a.logits, b.logits)
        assert np.array_equal(a.mask.hard_mask, b.mask.hard_mask)

    def test_folded_views_encode_full_text_identically(self, tiny_world):
        _, splits, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6, num_layers=2, share_depth=2)
        params = build_model(cfg, vocab, seed=1)
        batch = _tiny_batch(splits, vocab)
        emb = params.embedding.value[batch.token_ids]
        gen_states = encode(params.gen_layers, emb, batch.pad_mask)
        pred_states = encode(params.pred_layers, emb, batch.pad_mask)
        assert np.array_equal(gen_states, pred_states)

    def test_train_mode_requires_noise(self, tiny_world):
        _, splits, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6)
        params = build_model(cfg, vocab, seed=1)
        batch = _tiny_batch(splits, vocab)
        with pytest.raises(ValueError, match="noise"):
            forward(params, batch, mode="train")


class TestGradients:
    def _loss(self, params, batch, ocfg, seed):
        out = forward(params, batch, mode="train",
                      noise=np.random.default_rng(seed), mask_forward="soft")
        ce = obj.cross_entropy(out.logits, batch.labels)
        om = obj.sparsity_coherence(out.mask_values, batch.lengths, ocfg)
        return ce + om

    def test_straight_through_head_sensitivity(self, tiny_world):
        # d=4, hidden=6, l=5: relaxed-path analytic gradient of the generator
        # head matches central differences at 1e-3 relative
        _, splits, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6, temperature=0.9)
        params = build_model(cfg, vocab, seed=2)
        batch = dat.make_batches(splits.train, vocab, batch_size=6, max_len=5)[0]
        ocfg = obj.ObjectiveConfig(lambda1=0.7, lambda2=0.4, alpha=0.3)
        params.zero_grads()
        loss_and_grads(params, batch, ocfg, mode="train",
                       noise=np.random.default_rng(31), mask_forward="soft")
        eps = 1e-6
        for p in params.gen_head.parameters():
            flat, gflat = p.value.reshape(-1), p.grad.reshape(-1)
            for i in range(flat.size):
                orig = flat[i]
                flat[i] = orig + eps
                up = self._loss(params, batch, ocfg, 31)
                flat[i] = orig - eps
                dn = self._loss(params, batch, ocfg, 31)
                flat[i] = orig
                fd = (up - dn) / (2 * eps)
                assert abs(fd - gflat[i]) <= 1e-3 * max(abs(fd), abs(gflat[i]), 1e-4)

    def _check_all_gradients(self, params, batch, ocfg):
        params.zero_grads()
        loss_and_grads(params, batch, ocfg, mode="train",
                       noise=np.random.default_rng(1234), mask_forward="soft")
        rng = np.random.default_rng(0)
        eps = 1e-6
        for p in params.all_parameters():
            flat, gflat = p.value.reshape(-1), p.grad.reshape(-1)
            for i in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + eps
                up = self._loss(params, batch, ocfg, 1234)
                flat[i] = orig - eps
                dn = self._loss(params, batch, ocfg, 1234)
                flat[i] = orig
                fd = (up - dn) / (2 * eps)
                assert abs(fd - gflat[i]) <= 1e-9 + 1e-4 * max(abs(fd), abs(gflat[i])), p.name

    def test_all_parameter_gradients_match_finite_differences(self, tiny_world):
        _, splits, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6, num_layers=2, share_depth=1,
                          temperature=0.8)
        params = build_model(cfg, vocab, seed=1)
        batch = dat.make_batches(splits.train, vocab, batch_size=6, max_len=6)[0]
        ocfg = obj.ObjectiveConfig(lambda1=0.7, lambda2=0.4, alpha=0.3)
        self._check_all_gradients(params, batch, ocfg)

    def test_gradients_match_finite_differences_on_padded_batch(self, tiny_world):
        # padded steps take the recurrence's hold branch, forward and backward
        _, splits, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6, num_layers=2, share_depth=1,
                          temperature=0.8)
        params = build_model(cfg, vocab, seed=1)
        full = dat.make_batches(splits.train, vocab, batch_size=6, max_len=6)[0]
        lengths = np.array([6, 4, 2, 6, 5, 3])
        pad_mask = (np.arange(6)[None, :] < lengths[:, None]).astype(np.float64)
        batch = Batch(ids=full.ids, token_ids=np.where(pad_mask > 0, full.token_ids, PAD_ID),
                      pad_mask=pad_mask, lengths=lengths, labels=full.labels)
        ocfg = obj.ObjectiveConfig(lambda1=0.7, lambda2=0.4, alpha=0.3)
        self._check_all_gradients(params, batch, ocfg)

    def test_hard_forward_loss_components_match_standalone(self, tiny_world):
        _, splits, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6)
        params = build_model(cfg, vocab, seed=1)
        batch = _tiny_batch(splits, vocab)
        ocfg = obj.ObjectiveConfig(lambda1=1.0, lambda2=1.0, alpha=0.2)
        params.zero_grads()
        loss = loss_and_grads(params, batch, ocfg, mode="train", noise=7)
        out = forward(params, batch, mode="train", noise=7)
        assert loss.ce == pytest.approx(obj.cross_entropy(out.logits, batch.labels))
        assert loss.omega == pytest.approx(
            obj.sparsity_coherence(out.mask.hard_mask, batch.lengths, ocfg)
        )
        assert loss.total == pytest.approx(loss.ce + loss.omega)

    def test_frozen_embedding_gets_no_gradient(self, tiny_world):
        _, splits, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6, train_embedding=False)
        params = build_model(cfg, vocab, seed=1)
        batch = _tiny_batch(splits, vocab)
        params.zero_grads()
        loss_and_grads(params, batch, obj.ObjectiveConfig(), mode="train", noise=3)
        assert np.all(params.embedding.grad == 0.0)


class TestCheckpoint:
    def test_roundtrip_bit_exact(self, tiny_world, tmp_path):
        _, _, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6, num_layers=2, share_depth=1)
        params = build_model(cfg, vocab, seed=9)
        path = tmp_path / "model.npz"
        save_checkpoint(path, params, meta={"note": "unit"})
        loaded, meta = load_checkpoint(path)
        assert meta == {"note": "unit"}
        assert loaded.config == params.config
        assert loaded.vocab.id_to_token == vocab.id_to_token
        for name, value in params.state_dict().items():
            assert np.array_equal(value, loaded.state_dict()[name])

    def test_loaded_model_restores_aliasing(self, tiny_world, tmp_path):
        _, _, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6, num_layers=2, share_depth=2)
        params = build_model(cfg, vocab, seed=9)
        path = tmp_path / "model.npz"
        save_checkpoint(path, params)
        loaded, _ = load_checkpoint(path)
        for g, p in zip(loaded.gen_layers, loaded.pred_layers):
            assert g is p

    def test_failed_save_keeps_previous_checkpoint(self, tiny_world, tmp_path, monkeypatch):
        _, _, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6)
        path = tmp_path / "model.npz"
        save_checkpoint(path, build_model(cfg, vocab, seed=1))
        before = path.read_bytes()

        def savez_then_fail(fh, **arrays):
            fh.write(b"PK\x03\x04 a partial archive")
            raise OSError("disk full")

        monkeypatch.setattr(np, "savez", savez_then_fail)
        with pytest.raises(OSError, match="disk full"):
            save_checkpoint(path, build_model(cfg, vocab, seed=2))
        assert path.read_bytes() == before
        assert [p.name for p in tmp_path.iterdir()] == ["model.npz"]

    def test_missing_checkpoint_raises(self, tmp_path):
        with pytest.raises(FileNotFoundError):
            load_checkpoint(tmp_path / "nope.npz")

    def test_forward_identical_after_roundtrip(self, tiny_world, tmp_path):
        _, splits, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6)
        params = build_model(cfg, vocab, seed=9)
        path = tmp_path / "model.npz"
        save_checkpoint(path, params)
        loaded, _ = load_checkpoint(path)
        batch = _tiny_batch(splits, vocab)
        a = forward(params, batch, mode="eval")
        b = forward(loaded, batch, mode="eval")
        assert np.array_equal(a.logits, b.logits)

    def test_golden_checkpoint_reproduces_logits_and_mask(self):
        """tests/data/golden_checkpoint.npz was written by `save_checkpoint` at
        commit eed77c2, whose ModelConfig still had `per_direction` (saved as
        false) and `num_classes` (saved as 2).  The model is
        `build_model(ModelConfig(embedding_dim=4, hidden_dim=6, num_layers=2,
        share_depth=1, temperature=0.8), vocab, seed=7)` over the vocabulary of
        the `tiny_world` corpus, so both shared (`enc_shared.l0`) and unshared
        (`enc_gen.l1`, `enc_pred.l1`) layer names occur.  Its meta holds one
        batch, the first four training documents cut to 7, 5, 3 and 1 tokens
        (one BLAS thread), and that batch's eval-mode `forward` logits and hard
        mask, which the loaded model must reproduce bit for bit."""
        params, meta = load_checkpoint(GOLDEN)
        assert params.config == ModelConfig(embedding_dim=4, hidden_dim=6, num_layers=2,
                                            share_depth=1, temperature=0.8)
        names = {p.name for p in params.all_parameters()}
        assert {"enc_shared.l0.fw.W", "enc_gen.l1.bw.U", "enc_pred.l1.fw.W"} <= names
        b = meta["batch"]
        batch = Batch(ids=tuple(b["ids"]), token_ids=np.array(b["token_ids"], dtype=np.int32),
                      pad_mask=np.array(b["pad_mask"]), lengths=np.array(b["lengths"]),
                      labels=np.array(b["labels"]))
        out = forward(params, batch, mode="eval")
        assert np.array_equal(out.logits, np.array(meta["logits"]))
        assert np.array_equal(out.mask.hard_mask, np.array(meta["hard_mask"]))

    def test_legacy_config_keys(self):
        legacy = dict(embedding_dim=4, hidden_dim=3, num_layers=1, share_depth=1,
                      temperature=1.0, train_embedding=True)
        # per_direction made hidden_dim the width of each direction
        cfg = ModelConfig.from_json(json.dumps(dict(legacy, per_direction=True, num_classes=2)))
        assert cfg == ModelConfig(embedding_dim=4, hidden_dim=6, num_layers=1, share_depth=1)
        with pytest.raises(ValueError, match="num_classes"):
            ModelConfig.from_json(json.dumps(dict(legacy, hidden_dim=6, num_classes=3)))
