"""Model pipeline: shapes, sampling law, masking identities, gradients, persistence."""

import json
import os
import sys
import threading
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

from rationalift import data as dat
from rationalift import model as mdl
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


def _padded_batch(splits, vocab):
    """Six documents cut to lengths 6, 4, 2, 6, 5 and 3, padded to 6."""
    full = dat.make_batches(splits.train, vocab, batch_size=6, max_len=6)[0]
    lengths = np.array([6, 4, 2, 6, 5, 3])
    pad_mask = (np.arange(6)[None, :] < lengths[:, None]).astype(np.float64)
    return Batch(ids=full.ids, token_ids=np.where(pad_mask > 0, full.token_ids, PAD_ID),
                 pad_mask=pad_mask, lengths=lengths, labels=full.labels)


def _set_threading(monkeypatch, min_step=0, cpus=2):
    """Fake `cpus` free CPUs and set `THREADED_MIN_STEP` to `min_step` (by
    default, every layer pass threads); returns the list of threads started
    from here on."""
    monkeypatch.setattr(mdl, "THREADED_MIN_STEP", min_step)
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(cpus)))
    started, start = [], threading.Thread.start

    def counting_start(thread):
        started.append(thread)
        start(thread)

    monkeypatch.setattr(threading.Thread, "start", counting_start)
    return started


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

    def test_given_embeddings_copied_with_reserved_rows_zeroed(self, tiny_world):
        _, _, vocab = tiny_world
        table = np.random.default_rng(4).normal(size=(len(vocab), 4))
        given = table.copy()
        params = build_model(ModelConfig(embedding_dim=4, hidden_dim=6), vocab,
                             embeddings=given, seed=0)
        assert np.array_equal(given, table)  # the caller's rows, PAD and MASK too, are kept
        expected = table.copy()
        expected[[PAD_ID, MASK_ID]] = 0.0
        assert np.array_equal(params.embedding.value, expected)
        params.embedding.value += 1.0  # a step moves the model's table only
        assert np.array_equal(given, table)

    @pytest.mark.parametrize("extra_rows, dim", [(-1, 4), (1, 4), (0, 5)],
                             ids=["fewer-rows", "more-rows", "dim"])
    def test_given_embeddings_of_wrong_shape_rejected(self, tiny_world, extra_rows, dim):
        _, _, vocab = tiny_world
        table = np.zeros((len(vocab) + extra_rows, dim))
        with pytest.raises(ValueError, match="does not match"):
            build_model(ModelConfig(embedding_dim=4, hidden_dim=6), vocab, embeddings=table)


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
        states, _ = encode(params.gen_layers, np.zeros((1, 1, 4)), np.ones((1, 1)))
        assert states.shape == (1, 1, 6)

    def test_batch_order_irrelevant(self, tiny_world):
        _, splits, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6)
        params = build_model(cfg, vocab, seed=0)
        batch = _tiny_batch(splits, vocab)
        emb = params.embedding.value[batch.token_ids]
        states, _ = encode(params.gen_layers, emb, batch.pad_mask)
        perm = np.array([3, 1, 5, 0, 2, 4])
        states_perm, _ = encode(params.gen_layers, emb[perm], batch.pad_mask[perm])
        assert np.allclose(states[perm], states_perm, atol=1e-12)

    def test_zero_input_fixed_point_at_init(self, tiny_world):
        # zero biases at initialization keep the all-zero sequence at state zero,
        # so token 1 and token 2 agree in the forward direction
        _, _, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6)
        params = build_model(cfg, vocab, seed=4)
        states, _ = encode(params.gen_layers, np.zeros((1, 2, 4)), np.ones((1, 2)))
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
        states, _ = encode(params.gen_layers, emb, pad_mask)
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

    def test_backward_consumes_dout(self):
        # the padded positions of `dout` are zeroed in place; the rest is kept
        rng = np.random.default_rng(7)
        layer = BiGRULayer("consume", 5, 3, rng)
        x, pad_mask, _ = self._padded(rng)
        out, cache = layer.forward(x, pad_mask)
        dout = rng.normal(size=out.shape)
        expected = dout * pad_mask[:, :, None]
        layer.backward(cache, dout, pad_mask)
        assert np.array_equal(dout.view(np.int64), expected.view(np.int64))

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


def _stack_pass(params, batch, dstates):
    """States with and without cache, the input gradient and every parameter
    gradient of one pass through the generator's encoder stack."""
    params.zero_grads()
    emb = params.embedding.value[batch.token_ids]
    states, caches = encode(params.gen_layers, emb, batch.pad_mask, with_cache=True)
    plain, no_caches = encode(params.gen_layers, emb, batch.pad_mask)
    assert no_caches is None
    dx = mdl._encode_backward(params.gen_layers, caches, dstates.copy(), batch.pad_mask)
    grads = [p.grad.copy() for layer in params.gen_layers for p in layer.parameters()]
    return [states, plain, dx, *grads]


class TestThreadedDirections:
    """With a free CPU and a large step, a layer runs its backward direction
    on a helper thread; the bits must equal the paired loop's."""

    @pytest.fixture
    def stack(self, tiny_world):
        _, splits, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6, num_layers=2, share_depth=0)
        params = build_model(cfg, vocab, seed=5)
        batch = _padded_batch(splits, vocab)
        dstates = np.random.default_rng(2).normal(size=batch.pad_mask.shape + (6,))
        return params, batch, dstates

    def _assert_threaded_equals_pair(self, stack, monkeypatch):
        pair = _stack_pass(*stack)
        started = _set_threading(monkeypatch)
        threaded = _stack_pass(*stack)
        # 2 layers: a cached and a plain forward, a backward's step loop and its
        # input-gradient GEMMs
        assert len(started) == 8
        assert len(pair) == 3 + 8 * 2
        for a, b in zip(pair, threaded):
            assert np.array_equal(a, b)

    def test_threaded_equals_pair(self, stack, monkeypatch):
        self._assert_threaded_equals_pair(stack, monkeypatch)

    def test_threaded_equals_pair_under_fast_thread_switching(self, stack, monkeypatch):
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            self._assert_threaded_equals_pair(stack, monkeypatch)
        finally:
            sys.setswitchinterval(interval)

    @pytest.mark.parametrize("loop", ["_forward_steps", "_backward_steps", "_input_grads"])
    def test_helper_exception_keeps_its_type(self, stack, monkeypatch, loop):
        class HelperFailure(Exception):
            pass

        steps = getattr(mdl, loop)

        def fail_off_main_thread(*args):
            if threading.current_thread() is not threading.main_thread():
                raise HelperFailure("the helper's direction failed")
            return steps(*args)

        _set_threading(monkeypatch)
        monkeypatch.setattr(mdl, loop, fail_off_main_thread)
        with pytest.raises(HelperFailure, match="helper's direction"):
            _stack_pass(*stack)
        assert threading.enumerate() == [threading.main_thread()]

    @pytest.mark.parametrize("cpus, floor_above", [(2, 1), (1, 0)],
                             ids=["below_floor", "one_cpu"])
    def test_no_thread_below_floor_or_on_one_cpu(self, stack, monkeypatch, cpus, floor_above):
        params, batch, _ = stack
        step = batch.pad_mask.shape[0] * params.gen_layers[0].fw.hidden  # B * H: 18
        _set_threading(monkeypatch, min_step=step + floor_above, cpus=cpus)

        def no_start(thread):
            raise AssertionError("a thread was started")

        monkeypatch.setattr(threading.Thread, "start", no_start)
        _stack_pass(*stack)

    def test_floor_is_inclusive(self, stack, monkeypatch):
        params, batch, _ = stack
        step = batch.pad_mask.shape[0] * params.gen_layers[0].fw.hidden
        started = _set_threading(monkeypatch, min_step=step)
        _stack_pass(*stack)
        assert len(started) == 8

    @pytest.mark.parametrize("cpus", [2, 1], ids=["threaded", "paired"])
    def test_input_grads_read_gate_cache_in_place(self, stack, monkeypatch, cpus):
        # each direction's input-gradient GEMMs read its part of the cached
        # gate buffer, with no batch-major copy in between
        params, batch, dstates = stack
        layer = params.gen_layers[0]
        started = _set_threading(monkeypatch, cpus=cpus)
        _, cache = layer.forward(params.embedding.value[batch.token_ids], batch.pad_mask)
        gates = cache["gates"]
        input_grads, read = mdl._input_grads, {}

        def recording(direction, dpre_x, *args):
            read[direction.W.name] = (np.shares_memory(dpre_x, gates[0]),
                                      np.shares_memory(dpre_x, gates[1]))
            return input_grads(direction, dpre_x, *args)

        monkeypatch.setattr(mdl, "_input_grads", recording)
        layer.backward(cache, dstates.copy(), batch.pad_mask)
        assert read == {layer.fw.W.name: (True, False), layer.bw.W.name: (False, True)}
        # the forward, the backward's step loop and its input-gradient GEMMs
        assert len(started) == (3 if cpus == 2 else 0)


def _traced(run) -> tuple[int, int]:
    """The most bytes `run()` held at once, and the bytes its result holds,
    beyond what was traced before it."""
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        result = run()  # held while the traced memory is read
        current, peak = tracemalloc.get_traced_memory()
        return peak - start, current - start
    finally:
        tracemalloc.stop()


class TestPeakMemory:
    """A layer pass and a training step hold their caches, their states and one
    output gradient at a time.  The allowance covers what scales with one
    step: per step the step-major pad masks and two per-step views, and 32
    pair-step arrays for the step loops' temporaries (two threads' worth).  At
    L=256 it is 3/4 of one (B, L, 2H) array, so a full-sequence temporary on
    top, such as a layout copy of the gate cache or of the output gradient,
    breaks the bound."""

    B, L, E, H = 8, 256, 8, 16  # H per direction

    def _pad_mask(self):
        lengths = np.linspace(1, self.L, self.B).astype(int)
        return (np.arange(self.L)[None, :] < lengths[:, None]).astype(np.float64), lengths

    def _allowance(self) -> int:
        pair_step = 2 * self.B * 3 * self.H * 8
        allowance = self.L * (2 * (2 * self.B * 8) + 2 * 256) + 32 * pair_step
        assert allowance < self.B * self.L * 2 * self.H * 8
        return allowance

    @pytest.mark.parametrize("cpus", [2, 1], ids=["threaded", "paired"])
    def test_layer_pass(self, monkeypatch, cpus):
        rng = np.random.default_rng(8)
        layer = BiGRULayer("peak", self.E, self.H, rng)
        pad_mask, _ = self._pad_mask()
        x = rng.normal(size=(self.B, self.L, self.E)) * pad_mask[:, :, None]
        dout = rng.normal(size=(self.B, self.L, 2 * self.H))
        _set_threading(monkeypatch, cpus=cpus)
        layer.backward(layer.forward(x, pad_mask)[1], dout.copy(), pad_mask)  # warm-up
        held = {}

        def run():
            out, cache = layer.forward(x, pad_mask)
            held.update({k: cache[k].nbytes for k in ("gates", "hs", "pre_hn")}, out=out.nbytes)
            layer.backward(cache, dout, pad_mask)

        peak, _ = _traced(run)
        # the input gradient and its two per-direction parts fit in the states
        # that the backward frees before it allocates them
        assert 3 * x.nbytes <= held["hs"] + held["pre_hn"]
        assert peak <= sum(held.values()) + self._allowance()

    def test_two_phase_training_step(self, tiny_world):
        _, _, vocab = tiny_world
        rng = np.random.default_rng(9)
        cfg = ModelConfig(embedding_dim=self.E, hidden_dim=2 * self.H, share_depth=0)
        params = build_model(cfg, vocab, seed=4)
        pad_mask, lengths = self._pad_mask()
        token_ids = np.where(pad_mask > 0, rng.integers(2, len(vocab), size=pad_mask.shape),
                             PAD_ID)
        batch = Batch(ids=tuple(map(str, range(self.B))), token_ids=token_ids,
                      pad_mask=pad_mask, lengths=lengths, labels=np.arange(self.B) % 2)
        objective_cfg = obj.ObjectiveConfig()
        loss_and_grads(params, batch, objective_cfg, noise=1)  # warm-up
        # the caches, states, embeddings and mask of the step's forward
        _, held = _traced(lambda: forward(params, batch, noise=1, with_cache=True))
        peak, _ = _traced(lambda: loss_and_grads(params, batch, objective_cfg, noise=1))
        states_grad = self.B * self.L * 2 * self.H * 8
        assert peak <= held + states_grad + self._allowance()


class TestGeneratorProbs:
    """The generator's selection probabilities are the eval-mode soft mask."""

    def test_zero_head_gives_half(self, tiny_world):
        _, splits, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6)
        params = build_model(cfg, vocab, seed=0)
        params.gen_head.W.value[...] = 0.0
        params.gen_head.b.value[...] = 0.0
        batch = _tiny_batch(splits, vocab)
        probs = forward(params, batch, mode="eval").mask.soft_mask
        assert np.all(probs[batch.pad_mask > 0] == 0.5)

    def test_pad_positions_forced_zero(self, tiny_world):
        _, splits, vocab = tiny_world
        params = build_model(ModelConfig(embedding_dim=4, hidden_dim=6), vocab, seed=0)
        batch = _padded_batch(splits, vocab)
        probs = forward(params, batch, mode="eval").mask.soft_mask
        assert (batch.pad_mask == 0).any()
        assert np.all(probs[batch.pad_mask == 0] == 0.0)
        assert np.all(probs[batch.pad_mask > 0] > 0.0)

    def test_identical_states_identical_probs(self, tiny_world):
        # a document repeated across rows encodes to the same states, row by row
        _, splits, vocab = tiny_world
        params = build_model(ModelConfig(embedding_dim=4, hidden_dim=6), vocab, seed=0)
        full = _tiny_batch(splits, vocab)
        rows = np.zeros(3, dtype=int)
        batch = Batch(ids=("a", "b", "c"), token_ids=full.token_ids[rows],
                      pad_mask=full.pad_mask[rows], lengths=full.lengths[rows],
                      labels=full.labels[rows])
        probs = forward(params, batch, mode="eval").mask.soft_mask
        assert np.array_equal(probs[0], probs[1]) and np.array_equal(probs[0], probs[2])


class TestSampleMask:
    @pytest.mark.parametrize("temperature", [0.0, float("nan"), float("inf")],
                             ids=["zero", "nan", "inf"])
    @pytest.mark.parametrize("make", [
        lambda t: ModelConfig(temperature=t),
        lambda t: sample_mask(np.array([[0.5]]), t, noise_seed=0),
    ], ids=["config", "sample_mask"])
    def test_bad_temperature_rejected(self, make, temperature):
        with pytest.raises(ValueError, match="temperature must be positive and finite"):
            make(temperature)

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

    def test_numpy_integer_seed(self):
        probs = np.array([[0.2, 0.7, 0.5, 0.9]])
        a = sample_mask(probs, 0.7, mode="train", noise_seed=np.int64(3))
        b = sample_mask(probs, 0.7, mode="train", noise_seed=3)
        assert np.array_equal(a.soft_mask, b.soft_mask)

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

    def test_matches_where_argmax_reference(self):
        # values and argmax equal the masked-copy reference bit for bit on
        # ties, +-0, all-padding rows and NaN columns (np.argmax gives a
        # column's first NaN); `states` ends up as that masked copy
        rng = np.random.default_rng(12)
        values = np.array([-1.0, -0.0, 0.0, 1.0, 2.0, np.nan])
        for trial in range(300):
            shape = tuple(rng.integers(1, 6, size=3))
            states = rng.choice(values if trial % 2 else values[:-1], size=shape)
            pad_mask = (rng.random(shape[:2]) < 0.6).astype(np.float64)
            pad_mask[0] = 0.0
            masked = np.where(pad_mask[:, :, None] > 0, states, -np.inf)
            expected = masked.max(axis=1)
            expected[pad_mask.sum(axis=1) == 0] = 0.0
            pooled, cache = pool_max(states, pad_mask, with_cache=True)
            assert np.array_equal(pooled.view(np.int64), expected.view(np.int64))
            assert np.array_equal(cache["argmax"], masked.argmax(axis=1))
            assert np.array_equal(states.view(np.int64), masked.view(np.int64))

    def test_backward_matches_loop_oracle(self):
        # tied maxima send the gradient to the first argmax; a row without a
        # real token gets none; -0.0 gradients land as +0.0
        states = np.array([[[1.0, 2.0, 0.5], [1.0, 2.0, 0.7], [0.0, 2.0, 0.7]],
                           [[3.0, 1.0, 2.0], [3.0, 4.0, 2.0], [9.0, 9.0, 9.0]],
                           [[5.0, 6.0, 7.0], [5.0, 6.0, 7.0], [5.0, 6.0, 7.0]]])
        pad_mask = np.array([[1.0, 1.0, 1.0], [1.0, 1.0, 0.0], [0.0, 0.0, 0.0]])
        dpooled = np.array([[-0.0, 1.5, -2.0], [0.25, -0.0, 3.0], [4.0, -1.0, -0.0]])
        _, cache = pool_max(states, pad_mask, with_cache=True)
        dstates = mdl._pool_max_backward(cache, dpooled)
        oracle = np.zeros_like(states)
        for b in range(states.shape[0]):
            real = np.flatnonzero(pad_mask[b])
            for h in range(states.shape[2]):
                if len(real):
                    t = real[np.argmax(states[b, real, h])]
                    oracle[b, t, h] += dpooled[b, h]
        assert np.array_equal(dstates, oracle)
        assert not np.signbit(dstates[dstates == 0.0]).any()  # array_equal ignores zero signs

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

    def test_appended_pad_is_ignored_exactly(self, tiny_world):
        _, splits, vocab = tiny_world
        params = build_model(ModelConfig(embedding_dim=4, hidden_dim=6), vocab, seed=2)
        batch = _tiny_batch(splits, vocab)
        padded = np.concatenate([batch.token_ids, np.full((len(batch), 1), PAD_ID)], axis=1)
        pad_mask = np.concatenate([batch.pad_mask, np.zeros((len(batch), 1))], axis=1)
        plain = predict(params, params.embedding.value[batch.token_ids], batch.pad_mask)
        assert np.array_equal(predict(params, params.embedding.value[padded], pad_mask), plain)


class TestForward:
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
        gen_states, _ = encode(params.gen_layers, emb, batch.pad_mask)
        pred_states, _ = encode(params.pred_layers, emb, batch.pad_mask)
        assert np.array_equal(gen_states, pred_states)

    def test_numpy_integer_noise(self, tiny_world):
        _, splits, vocab = tiny_world
        params = build_model(ModelConfig(embedding_dim=4, hidden_dim=6), vocab, seed=0)
        batch = _tiny_batch(splits, vocab)
        a = forward(params, batch, mode="train", noise=np.int64(3))
        b = forward(params, batch, mode="train", noise=3)
        assert np.array_equal(a.mask.soft_mask, b.mask.soft_mask)
        assert np.array_equal(a.logits, b.logits)

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
        loss_and_grads(params, batch, ocfg,
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

    def _check_all_gradients(self, params, backward, loss):
        """The gradients `backward()` accumulates against central differences
        of `loss()`, at up to four entries of every parameter."""
        params.zero_grads()
        backward()
        rng = np.random.default_rng(0)
        eps = 1e-6
        for p in params.all_parameters():
            flat, gflat = p.value.reshape(-1), p.grad.reshape(-1)
            for i in rng.choice(flat.size, size=min(4, flat.size), replace=False):
                orig = flat[i]
                flat[i] = orig + eps
                up = loss()
                flat[i] = orig - eps
                dn = loss()
                flat[i] = orig
                fd = (up - dn) / (2 * eps)
                assert abs(fd - gflat[i]) <= 1e-9 + 1e-4 * max(abs(fd), abs(gflat[i])), p.name

    def _check_joint_gradients(self, params, batch, ocfg):
        self._check_all_gradients(
            params,
            lambda: loss_and_grads(params, batch, ocfg, noise=np.random.default_rng(1234),
                                   mask_forward="soft"),
            lambda: self._loss(params, batch, ocfg, 1234),
        )

    @pytest.mark.parametrize("path", ["pair", "threaded"])
    def test_all_parameter_gradients_match_finite_differences(self, tiny_world, monkeypatch,
                                                              path):
        _, splits, vocab = tiny_world
        if path == "threaded":
            _set_threading(monkeypatch)
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6, num_layers=2, share_depth=1,
                          temperature=0.8)
        params = build_model(cfg, vocab, seed=1)
        batch = dat.make_batches(splits.train, vocab, batch_size=6, max_len=6)[0]
        ocfg = obj.ObjectiveConfig(lambda1=0.7, lambda2=0.4, alpha=0.3)
        self._check_joint_gradients(params, batch, ocfg)

    @pytest.mark.parametrize("path", ["pair", "threaded"])
    def test_gradients_match_finite_differences_on_padded_batch(self, tiny_world, monkeypatch,
                                                                path):
        # padded steps take the recurrence's hold branch, forward and backward
        _, splits, vocab = tiny_world
        if path == "threaded":
            _set_threading(monkeypatch)
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6, num_layers=2, share_depth=1,
                          temperature=0.8)
        params = build_model(cfg, vocab, seed=1)
        ocfg = obj.ObjectiveConfig(lambda1=0.7, lambda2=0.4, alpha=0.3)
        self._check_joint_gradients(params, _padded_batch(splits, vocab), ocfg)

    @pytest.mark.parametrize("share_depth", [0, 1, 2], ids=["disjoint", "partial", "folded"])
    def test_predictor_view_gradients_match_finite_differences(self, tiny_world, share_depth):
        # the skewed-predictor pretraining step: the predictor view alone, on
        # a fixed mask, its embedding gradient scattered through the mask
        _, splits, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6, num_layers=2, share_depth=share_depth)
        params = build_model(cfg, vocab, seed=1)
        batch = _padded_batch(splits, vocab)
        mask = (np.random.default_rng(8).random(batch.pad_mask.shape) < 0.6) * batch.pad_mask
        assert 0 < mask.sum() < batch.pad_mask.sum()

        def loss():
            emb = params.embedding.value[batch.token_ids]
            logits, _ = mdl._predictor(params, apply_mask(emb, mask), batch.pad_mask, False)
            return obj.cross_entropy(logits, batch.labels)

        def backward():
            emb = params.embedding.value[batch.token_ids]
            logits, cache = mdl._predictor(params, apply_mask(emb, mask), batch.pad_mask, True)
            _, dlogits = obj.cross_entropy_grad(logits, batch.labels)
            demb = mdl._predictor_backward(params, cache, dlogits, batch.pad_mask)
            mdl._scatter_embedding_grad(params, batch.token_ids, demb * mask[..., None])

        self._check_all_gradients(params, backward, loss)

    def test_hard_forward_loss_components_match_standalone(self, tiny_world):
        _, splits, vocab = tiny_world
        cfg = ModelConfig(embedding_dim=4, hidden_dim=6)
        params = build_model(cfg, vocab, seed=1)
        batch = _tiny_batch(splits, vocab)
        ocfg = obj.ObjectiveConfig(lambda1=1.0, lambda2=1.0, alpha=0.2)
        params.zero_grads()
        loss = loss_and_grads(params, batch, ocfg, noise=7)
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
        loss_and_grads(params, batch, obj.ObjectiveConfig(), noise=3)
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
