"""Optimization loops: determinism, partitioning, selection, skew protocols."""

import multiprocessing
import os
import threading
import time
from dataclasses import replace

import numpy as np
import pytest

from rationalift import data as dat
from rationalift import evaluation
from rationalift import model as mdl
from rationalift import objective as obj
from rationalift import training
from rationalift.data import SynthConfig, build_vocab, synth_generate
from rationalift.training import (
    Adam,
    DivergenceError,
    EpochRecord,
    PretrainThresholdError,
    SkewConfig,
    TrainConfig,
    first_sentence_length,
    lr_grid,
    make_optimizer,
    pretrain_skewed_generator,
    pretrain_skewed_predictor,
    select_model,
    train,
)


@pytest.fixture(scope="module")
def small_world():
    cfg = SynthConfig(vocab_size=40, doc_length=10, span_length=2, seed=0,
                      train_size=60, dev_size=20, annotation_size=20,
                      informative_per_class=5, marker_count=1,
                      marker_correlation=0.5)
    splits = synth_generate(cfg)
    vocab = build_vocab(splits.train)
    return cfg, splits, vocab


def _model(vocab, share_depth=1, seed=0, num_layers=1, hidden_dim=10):
    cfg = mdl.ModelConfig(embedding_dim=8, hidden_dim=hidden_dim, num_layers=num_layers,
                          share_depth=share_depth)
    return mdl.build_model(cfg, vocab, seed=seed)


def _train_cfg(**kw):
    base = dict(lr_gen=2e-3, lr_pred=2e-3, batch_size=20, epochs=2, seed=0,
                objective=obj.ObjectiveConfig(lambda1=1.0, lambda2=0.05, alpha=0.2))
    base.update(kw)
    return TrainConfig(**base)


def _record(epoch, acc, sparsity):
    return EpochRecord(epoch=epoch, train_ce=0.0, train_omega=0.0, train_loss=0.0,
                       dev_acc=acc, dev_sparsity=sparsity)


class TestSelectModel:
    def test_single_epoch(self):
        assert select_model([_record(1, 0.9, 0.2)], _train_cfg()) == 0

    def test_tie_prefers_earliest(self):
        hist = [_record(1, 0.9, 0.2), _record(2, 0.9, 0.2)]
        assert select_model(hist, _train_cfg()) == 0

    def test_max_accuracy_within_band(self):
        hist = [_record(1, 0.7, 0.2), _record(2, 0.95, 0.22), _record(3, 0.9, 0.2)]
        assert select_model(hist, _train_cfg(delta_sparsity=0.05)) == 1

    def test_out_of_band_falls_back_to_closest_sparsity(self):
        hist = [_record(1, 0.99, 0.5), _record(2, 0.5, 0.35), _record(3, 0.7, 0.4)]
        assert select_model(hist, _train_cfg(delta_sparsity=0.05)) == 1

    def test_empty_history_rejected(self):
        with pytest.raises(ValueError):
            select_model([], _train_cfg())


class TestAdam:
    def test_duplicate_parameter_rejected(self):
        p = mdl.Parameter("w", np.zeros(3))
        with pytest.raises(ValueError):
            Adam([([p], 1e-3), ([p], 1e-3)])

    def test_step_moves_against_gradient(self):
        p = mdl.Parameter("w", np.array([1.0, -1.0]))
        opt = Adam([([p], 0.1)])
        p.grad[...] = np.array([1.0, -2.0])
        opt.step()
        assert p.value[0] < 1.0 and p.value[1] > -1.0


class TestTrain:
    def test_zero_epochs_rejected(self):
        # a run with no epochs has no epoch to select
        for epochs in (0, -1):
            with pytest.raises(ValueError, match=f"epochs must be at least 1, got {epochs}"):
                _train_cfg(epochs=epochs)

    def test_deterministic_given_seed(self, small_world):
        _, splits, vocab = small_world
        hist = []
        finals = []
        for _ in range(2):
            params = _model(vocab, seed=3)
            best, h = train(params, splits, _train_cfg(epochs=2, seed=11))
            hist.append([r.to_json_dict() for r in h])
            finals.append(best.state_dict())
        assert hist[0] == hist[1]
        for k in finals[0]:
            assert np.array_equal(finals[0][k], finals[1][k])

    def test_history_one_record_per_epoch(self, small_world):
        _, splits, vocab = small_world
        params = _model(vocab)
        _, history = train(params, splits, _train_cfg(epochs=3))
        assert [r.epoch for r in history] == [1, 2, 3]
        for r in history:
            assert r.ann_f1 is not None  # synthetic annotation split has gold

    def test_shared_aliasing_bitwise_after_training(self, small_world):
        _, splits, vocab = small_world
        params = _model(vocab, share_depth=1)
        train(params, splits, _train_cfg(epochs=1))
        for g, p in zip(params.gen_layers, params.pred_layers):
            assert g is p
            for gp, pp in zip(g.parameters(), p.parameters()):
                assert np.array_equal(gp.value, pp.value)

    def test_marker_rate_recorded_with_token_classes(self, small_world):
        scfg, splits, vocab = small_world
        params = _model(vocab)
        _, history = train(params, splits, _train_cfg(epochs=1),
                           token_classes=scfg.token_classes())
        assert history[0].marker_rate is not None
        assert history[0].composition is not None

    def test_divergence_aborts_with_diagnostic(self, small_world):
        # bounded GRU states make true blow-ups hard to reach at this scale, so
        # corrupt a parameter to exercise the abort contract directly
        _, splits, vocab = small_world
        params = _model(vocab)
        params.pred_head.b.value[...] = np.nan
        with pytest.raises(DivergenceError, match="non-finite"):
            train(params, splits, _train_cfg(epochs=1))

    def test_non_finite_gradient_aborts_before_step(self, small_world, monkeypatch):
        # the loss stays finite; one gradient is poisoned after the backward pass
        _, splits, vocab = small_world
        params = _model(vocab)
        before = params.state_dict()
        backward = mdl.loss_and_grads

        def poisoned(params, *args, **kwargs):
            loss = backward(params, *args, **kwargs)
            params.gen_head.b.grad[...] = np.nan
            return loss

        monkeypatch.setattr(mdl, "loss_and_grads", poisoned)
        with pytest.raises(DivergenceError, match="gen_head.b"):
            train(params, splits, _train_cfg(epochs=1, batch_size=len(splits.train)))
        for name, value in params.state_dict().items():
            assert np.array_equal(value, before[name]), name  # Adam never stepped

    # dev sparsity by epoch is 0.32, 0.49, 0.85, 0.87, 0.99 (dev acc 0.5, 0.55,
    # 0.85, 0.65, 1.0) against alpha = 0.5: a band of 0.4 holds epochs 1-4 and
    # selects epoch 3 over the more accurate epoch 5 outside it; a band of 0.005
    # holds none, and the nearest sparsity selects epoch 2
    @pytest.mark.parametrize("delta_sparsity, in_band", [(0.4, True), (0.005, False)],
                             ids=["in_band", "no_band"])
    def test_selected_params_reproduce_selected_epoch(self, small_world, delta_sparsity,
                                                      in_band):
        # retrain with epochs = selected index + 1: end state equals the snapshot
        _, splits, vocab = small_world
        kw = dict(seed=3, lr_gen=2e-2, lr_pred=2e-2, delta_sparsity=delta_sparsity,
                  objective=obj.ObjectiveConfig(lambda1=1.0, lambda2=0.05, alpha=0.5))
        cfg = _train_cfg(epochs=5, **kw)
        params = _model(vocab, seed=7)
        best, history = train(params, splits, cfg)
        idx = select_model(history, cfg)
        assert in_band == any(abs(r.dev_sparsity - 0.5) <= delta_sparsity for r in history)
        assert idx < cfg.epochs - 1  # the snapshot is not simply the final state
        params2 = _model(vocab, seed=7)
        train(params2, splits, _train_cfg(epochs=idx + 1, **kw))
        s1, s2 = best.state_dict(), params2.state_dict()
        for k in s1:
            assert np.array_equal(s1[k], s2[k])


class TestPartitions:
    def test_exhaustive_and_disjoint(self, small_world):
        _, _, vocab = small_world
        params = _model(vocab, share_depth=1, num_layers=2)
        parts = params.partitions()
        ids = [id(p) for plist in parts.values() for p in plist]
        assert len(ids) == len(set(ids))
        assert set(ids) == {id(p) for p in params.all_parameters()}

    def test_frozen_embedding_not_in_any_partition(self, small_world):
        _, _, vocab = small_world
        cfg = mdl.ModelConfig(embedding_dim=8, hidden_dim=10, train_embedding=False)
        params = mdl.build_model(cfg, vocab, seed=0)
        parts = params.partitions()
        ids = {id(p) for plist in parts.values() for p in plist}
        assert id(params.embedding) not in ids

    def test_shared_parameters_step_at_generator_rate(self, small_world):
        _, _, vocab = small_world
        params = _model(vocab, share_depth=1)
        parts = params.partitions()
        assert parts["shared"]
        rates = {id(e["p"]): e["lr"]
                 for e in make_optimizer(params, _train_cfg(lr_gen=3e-3, lr_pred=1e-4))._entries}
        for name, lr in (("generator", 3e-3), ("predictor", 1e-4), ("shared", 3e-3)):
            assert {rates[id(p)] for p in parts[name]} == {lr}, name


class TestFirstSentence:
    def test_period_bounds_sentence(self):
        assert first_sentence_length(["a", "b", ".", "c"]) == 3
        assert first_sentence_length([4, 7, 2, 9], period=2) == 3  # token ids

    def test_cap_applies_without_period(self):
        assert first_sentence_length([f"t{i}" for i in range(30)]) == 15

    def test_cap_beats_late_period(self):
        tokens = [f"t{i}" for i in range(20)] + ["."]
        assert first_sentence_length(tokens) == 15

    def test_short_text(self):
        assert first_sentence_length(["a", "b"]) == 2


class TestSkewPretraining:
    def test_predictor_skew_zero_epochs_is_identity(self, small_world):
        _, splits, vocab = small_world
        params = _model(vocab, share_depth=0)
        before = params.state_dict()
        pretrain_skewed_predictor(params, splits,
                                  SkewConfig(mode="skewed_predictor", k=0))
        for k, v in params.state_dict().items():
            assert np.array_equal(v, before[k])

    def test_predictor_skew_leaves_generator_untouched(self, small_world):
        scfg, splits, vocab = small_world
        params = _model(vocab, share_depth=0)
        gen_before = {p.name: p.value.copy()
                      for p in params.partitions()["generator"]}
        pretrain_skewed_predictor(
            params, splits,
            SkewConfig(mode="skewed_predictor", k=2, batch_size=30, lr=1e-3),
        )
        for p in params.partitions()["generator"]:
            assert np.array_equal(p.value, gen_before[p.name])

    def test_predictor_skew_runs_no_generator_view(self, small_world, monkeypatch):
        _, splits, vocab = small_world
        params = _model(vocab, share_depth=0)
        layer_forward, gen_head_forward = mdl.BiGRULayer.forward, params.gen_head.forward
        names = []

        def counting_layer_forward(layer, *args, **kwargs):
            names.append(layer.name)
            return layer_forward(layer, *args, **kwargs)

        def counting_gen_head_forward(*args):
            names.append("gen_head")
            return gen_head_forward(*args)

        monkeypatch.setattr(mdl.BiGRULayer, "forward", counting_layer_forward)
        monkeypatch.setattr(params.gen_head, "forward", counting_gen_head_forward)
        pretrain_skewed_predictor(params, splits, SkewConfig(mode="skewed_predictor", k=1,
                                                             batch_size=30))
        assert names and all(name.startswith("enc_pred.") for name in names), set(names)

    def test_predictor_skew_marker_only_needs_classes(self, small_world):
        _, splits, vocab = small_world
        params = _model(vocab, share_depth=0)
        skew = SkewConfig(mode="skewed_predictor", k=1, predictor_input="marker_only")
        with pytest.raises(ValueError, match="token-class"):
            pretrain_skewed_predictor(params, splits, skew)

    def test_generator_skew_leaves_predictor_untouched(self, small_world):
        _, splits, vocab = small_world
        params = _model(vocab, share_depth=0)
        pred_before = {p.name: p.value.copy()
                       for p in params.partitions()["predictor"]}
        pretrain_skewed_generator(
            params, splits,
            SkewConfig(mode="skewed_generator", k=0.55, batch_size=30, lr=2e-3),
        )
        for p in params.partitions()["predictor"]:
            assert np.array_equal(p.value, pred_before[p.name])

    def test_generator_skew_near_chance_threshold_stops_fast(self, small_world):
        _, splits, vocab = small_world
        params = _model(vocab, share_depth=0)
        skew = SkewConfig(mode="skewed_generator", k=0.51, batch_size=30, lr=2e-3)
        _, pre_acc = pretrain_skewed_generator(params, splits, skew)
        assert pre_acc > 0.51

    def test_generator_skew_unreachable_threshold_errors(self, small_world):
        _, splits, vocab = small_world
        params = _model(vocab, share_depth=0)
        skew = SkewConfig(mode="skewed_generator", k=0.999, batch_size=30, lr=1e-6,
                          epoch_cap=1)
        with pytest.raises(PretrainThresholdError, match="best"):
            pretrain_skewed_generator(params, splits, skew)

    def test_generator_threshold_must_exceed_chance(self):
        with pytest.raises(ValueError):
            SkewConfig(mode="skewed_generator", k=0.4)

    def test_unknown_mode_rejected(self):
        with pytest.raises(ValueError):
            SkewConfig(mode="skewed_both", k=1)

    @pytest.mark.parametrize("rate", [float("nan"), float("inf")], ids=["nan", "inf"])
    @pytest.mark.parametrize("make", [
        lambda rate: TrainConfig(lr_gen=rate),
        lambda rate: TrainConfig(lr_pred=rate),
        lambda rate: SkewConfig(mode="skewed_predictor", k=1, lr=rate),
        lambda rate: TrainConfig(delta_sparsity=rate),
    ], ids=["lr_gen", "lr_pred", "skew_lr", "delta_sparsity"])
    def test_non_finite_rate_rejected(self, make, rate):
        with pytest.raises(ValueError, match="finite"):
            make(rate)

    def test_negative_delta_sparsity_rejected(self):
        # it would put every epoch out of band, and the selection would
        # silently fall back to the closest-sparsity epoch
        with pytest.raises(ValueError, match="delta_sparsity must be >= 0"):
            TrainConfig(delta_sparsity=-1.0)

    @pytest.mark.parametrize("make", [
        lambda: TrainConfig(seed=-1),
        lambda: SkewConfig(mode="skewed_predictor", k=1, seed=-1),
    ], ids=["train", "skew"])
    def test_negative_seed_rejected(self, make):
        with pytest.raises(ValueError, match="seed must be >= 0"):
            make()

    @pytest.mark.parametrize("pretrain, skew, head", [
        (pretrain_skewed_predictor, SkewConfig(mode="skewed_predictor", k=1), "pred_head"),
        (pretrain_skewed_generator, SkewConfig(mode="skewed_generator", k=0.9), "gen_head"),
    ], ids=["predictor", "generator"])
    def test_non_finite_gradient_aborts_before_step(self, small_world, monkeypatch, pretrain,
                                                    skew, head):
        # each protocol's backward ends in the embedding scatter; poison a
        # gradient of a parameter the protocol trains right after it
        _, splits, vocab = small_world
        params = _model(vocab)
        before = params.state_dict()
        scatter = mdl._scatter_embedding_grad

        def poisoned(params, *args):
            scatter(params, *args)
            getattr(params, head).b.grad[...] = np.nan

        monkeypatch.setattr(mdl, "_scatter_embedding_grad", poisoned)
        with pytest.raises(DivergenceError, match=f"{head}.b at epoch 1"):
            pretrain(params, splits, skew)
        for name, value in params.state_dict().items():
            assert np.array_equal(value, before[name]), name  # Adam never stepped


GRID_MODEL = mdl.ModelConfig(embedding_dim=8, hidden_dim=10, share_depth=0)
GRID_RATES = ([2e-3, 1e-2], [1e-3])
# no sparsity term: at this size its cells would all select nothing and score
# F1 = 0, and a grid that mixed its cells up would still compare equal
GRID_TRAIN = _train_cfg(epochs=1, objective=obj.ObjectiveConfig(lambda1=0.0, lambda2=0.05,
                                                                 alpha=0.2))


class TestLrGrid:
    def test_single_cell_equals_single_run(self, small_world):
        _, splits, vocab = small_world
        grid = lr_grid(GRID_MODEL, vocab, splits, GRID_TRAIN, [2e-3], [1e-3], seeds=[1])
        params = mdl.build_model(GRID_MODEL, vocab, seed=1)
        best, _ = train(params, splits, replace(GRID_TRAIN, lr_gen=2e-3, lr_pred=1e-3, seed=1))
        f1 = evaluation.evaluate_model(best, splits.annotation).metrics.f1
        assert f1 > 0
        assert grid.median_f1[0, 0] == f1

    def test_cell_scored_at_selected_epoch(self, small_world):
        # the in-band recipe of test_selected_params_reproduce_selected_epoch,
        # which selects an epoch before the last
        _, splits, vocab = small_world
        cfg = _train_cfg(epochs=5, seed=3, lr_gen=2e-2, lr_pred=2e-2, delta_sparsity=0.4,
                         objective=obj.ObjectiveConfig(lambda1=1.0, lambda2=0.05, alpha=0.5))
        _, history = train(_model(vocab, seed=7), splits, cfg)
        idx = select_model(history, cfg)
        assert idx < cfg.epochs - 1 and history[idx].ann_f1 != history[-1].ann_f1
        assert training._score_cell(_model(vocab, seed=7), splits, cfg) == history[idx].ann_f1

    def test_requires_two_phase_mode(self, small_world):
        _, splits, vocab = small_world
        mcfg = mdl.ModelConfig(embedding_dim=8, hidden_dim=10, share_depth=1)
        with pytest.raises(ValueError, match="two-phase"):
            lr_grid(mcfg, vocab, splits, _train_cfg(), [1e-3], [1e-3], [0])

    def test_empty_rate_list_rejected(self, small_world):
        _, splits, vocab = small_world
        mcfg = mdl.ModelConfig(embedding_dim=8, hidden_dim=10, share_depth=0)
        with pytest.raises(ValueError, match="non-empty"):
            lr_grid(mcfg, vocab, splits, _train_cfg(), [], [1e-3], [0])

    def test_annotation_split_required(self, small_world):
        _, splits, vocab = small_world
        with pytest.raises(ValueError, match="needs an annotation split"):
            lr_grid(GRID_MODEL, vocab, replace(splits, annotation=None), GRID_TRAIN, [1e-3],
                    [1e-3], [0])

    def test_zero_epochs_rejected_before_any_cell(self):
        # a cell with no epochs has no history to score; its base config
        # cannot be built
        with pytest.raises(ValueError, match="epochs must be at least 1"):
            replace(GRID_TRAIN, epochs=0)


    @pytest.mark.parametrize("rates, seeds, name", [
        (([1e-3, 0.001], [1e-3]), [0], "gen_rates"),
        (([1e-3], [2e-3, 1e-3, 2e-3]), [0], "pred_rates"),
        (([1e-3], [1e-3]), [0, 1, 0], "seeds"),
    ], ids=["gen_rates", "pred_rates", "seeds"])
    def test_repeated_value_rejected_before_any_cell(self, small_world, monkeypatch, rates,
                                                     seeds, name):
        # two cells of one (rates, seed) would train the same run twice
        _, splits, vocab = small_world
        monkeypatch.setattr(mdl, "build_model", lambda *a, **k: pytest.fail("cell built"))
        with pytest.raises(ValueError, match=f"{name} repeats a value"):
            lr_grid(GRID_MODEL, vocab, splits, GRID_TRAIN, *rates, seeds)

    @pytest.mark.parametrize("rates, seeds, message", [
        (([1e-3], [1e-3]), [0, -1], "seed must be >= 0"),
        (([1e-3, 0.0], [1e-3]), [0], "learning rates must be positive"),
    ], ids=["seed", "gen_rate"])
    def test_bad_cell_config_rejected_before_any_cell(self, small_world, monkeypatch, rates,
                                                      seeds, message):
        # on one CPU every cell would run in the caller, the valid ones first
        _, splits, vocab = small_world
        monkeypatch.setattr(mdl, "_cpu_count", lambda: 1)
        ran = []
        with pytest.raises(ValueError, match=message):
            lr_grid(GRID_MODEL, vocab, splits, GRID_TRAIN, *rates, seeds,
                    run_cell=lambda params, splits, cfg: ran.append(cfg) or 0.0)
        assert ran == []


def _fake_cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _grid(splits, vocab, seeds, run_cell=training._score_cell):
    return lr_grid(GRID_MODEL, vocab, splits, GRID_TRAIN, *GRID_RATES, seeds,
                   run_cell=run_cell)


class TestMapForked:
    def test_child_exits_before_caller_reads(self, monkeypatch):
        """A child does not wait for the caller to read its results, however
        large, so the caller gets the child's CPU back for the rest of its share."""
        _fake_cpus(monkeypatch, 2)
        caller = os.getpid()

        def job(item):
            if os.getpid() != caller:
                return bytes(1 << 20)  # far more than a pipe's buffer holds
            deadline = time.monotonic() + 10
            while multiprocessing.active_children() and time.monotonic() < deadline:
                time.sleep(0.01)
            return mdl._cpu_count()

        result, cpus = training._map_forked(job, ["child", "caller"], "test job")
        assert result == bytes(1 << 20) and cpus == 2

    @pytest.mark.parametrize("cpus", [1, 2])
    def test_last_item_runs_in_caller(self, monkeypatch, cpus):
        _fake_cpus(monkeypatch, cpus)
        caller, ran_here = os.getpid(), []

        def job(item):
            ran_here.append(item)  # only the caller's list is seen here
            return item, os.getpid()

        results = training._map_forked(job, ["first", "last"], "test job")
        assert [item for item, _ in results] == ["first", "last"]
        pids = [pid for _, pid in results]
        if cpus == 1:
            assert ran_here == ["first", "last"] and pids == [caller, caller]
        else:
            assert ran_here == ["last"] and pids[1] == caller and pids[0] != caller
        assert multiprocessing.active_children() == []


class TestParallelLrGrid:
    """lr_grid spreads its cells over one process per available CPU, the
    caller included; the results must equal a sequential sweep's."""

    @pytest.fixture(scope="class")
    def sequential(self, small_world):
        """Per-cell F1 of a plain loop over the cells, in the grid's job order."""
        _, splits, vocab = small_world
        scores = {}
        for i, lg in enumerate(GRID_RATES[0]):
            for j, lp in enumerate(GRID_RATES[1]):
                for seed in (0, 1, 2):
                    params = mdl.build_model(GRID_MODEL, vocab, seed=seed)
                    cfg = replace(GRID_TRAIN, lr_gen=lg, lr_pred=lp, seed=seed)
                    scores.setdefault((i, j), []).append(
                        (seed, training._score_cell(params, splits, cfg)))
        return scores

    def test_cells_equal_sequential_loop(self, small_world, sequential, monkeypatch, tmp_path):
        _, splits, vocab = small_world
        _fake_cpus(monkeypatch, 3)  # 6 cells: the caller and each worker run two

        def run_cell(params, splits, cfg):
            (tmp_path / f"pid-{cfg.lr_gen:g}-{cfg.seed}").write_text(str(os.getpid()))
            return training._score_cell(params, splits, cfg)

        grid = _grid(splits, vocab, [0, 1, 2], run_cell)
        assert len({f for scores in sequential.values() for _, f in scores}) == 5
        assert grid.cells == sequential  # float ==: bit for bit
        assert grid.median_f1.tolist() == [
            [float(np.median([f for _, f in sequential[(i, 0)]]))] for i in range(2)
        ]
        pids = {int(p.read_text()) for p in tmp_path.glob("pid-*")}
        assert len(pids) == 3 and os.getpid() in pids
        assert multiprocessing.active_children() == []

    def test_one_cpu_starts_no_process(self, small_world, sequential, monkeypatch):
        _, splits, vocab = small_world
        _fake_cpus(monkeypatch, 1)

        def no_fork():
            raise AssertionError("a process was started")

        monkeypatch.setattr(os, "fork", no_fork)
        assert _grid(splits, vocab, [0, 1, 2]).cells == sequential

    def test_worker_divergence_reraised(self, small_world, monkeypatch):
        _, splits, vocab = small_world
        _fake_cpus(monkeypatch, 2)
        caller = os.getpid()

        def run_cell(params, splits, cfg):
            if os.getpid() != caller:  # jobs 0 and 2: the worker's
                raise DivergenceError(f"non-finite loss in the cell of seed {cfg.seed}")
            return 0.5

        with pytest.raises(DivergenceError, match="cell of seed 0") as info:
            _grid(splits, vocab, [0, 1], run_cell)
        assert "in grid worker" in str(info.value.__cause__)
        assert multiprocessing.active_children() == []

    def test_caller_failure_terminates_workers(self, small_world, monkeypatch):
        _, splits, vocab = small_world
        _fake_cpus(monkeypatch, 2)
        caller = os.getpid()

        def run_cell(params, splits, cfg):
            if os.getpid() == caller:  # jobs 1 and 3
                raise ValueError("caller cell failed")
            time.sleep(60)
            return 0.5

        start = time.monotonic()
        with pytest.raises(ValueError, match="caller cell failed"):
            _grid(splits, vocab, [0, 1], run_cell)
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []

    def test_worker_death_is_reported(self, small_world, monkeypatch):
        _, splits, vocab = small_world
        _fake_cpus(monkeypatch, 2)
        caller = os.getpid()

        def run_cell(params, splits, cfg):
            if os.getpid() != caller:
                os._exit(7)
            return 0.5

        with pytest.raises(RuntimeError, match="exited with code 7"):
            _grid(splits, vocab, [0, 1], run_cell)
        assert multiprocessing.active_children() == []


def _history_in_worker(world) -> list[dict]:
    splits, vocab = world
    _, history = train(_model(vocab, seed=3), splits, _train_cfg(epochs=3))
    return [r.to_json_dict() for r in history]


class TestOverlappedEvaluation:
    """With a free CPU, `train` evaluates every epoch's annotation split in a
    forked child while the caller evaluates dev, through `_map_forked`, and
    trains the next epoch only after both; the results must equal an
    in-process run's."""

    @pytest.mark.parametrize("dev_only", [False, True], ids=["annotation", "dev_only"])
    @pytest.mark.parametrize("with_classes", [False, True], ids=["no_classes", "token_classes"])
    @pytest.mark.parametrize("share_depth", [1, 0], ids=["folded", "two_phase"])
    def test_two_cpus_equal_one(self, small_world, monkeypatch, share_depth, with_classes,
                                dev_only):
        scfg, splits, vocab = small_world
        if dev_only:
            splits = dat.Splits(train=splits.train, dev=splits.dev)
        token_classes = scfg.token_classes() if with_classes else None
        forks, fork = [], os.fork
        started, start = [], threading.Thread.start

        def counting_fork():
            forks.append(1)
            return fork()

        def counting_start(thread):
            started.append(1)
            start(thread)

        monkeypatch.setattr(os, "fork", counting_fork)
        monkeypatch.setattr(threading.Thread, "start", counting_start)
        # the recipe of test_selected_params_reproduce_selected_epoch, in band
        cfg = _train_cfg(epochs=5, seed=3, lr_gen=2e-2, lr_pred=2e-2, delta_sparsity=0.4,
                         objective=obj.ObjectiveConfig(lambda1=1.0, lambda2=0.05, alpha=0.5))
        # and a shape whose training batches (the whole training set) are large
        # enough for a layer to run its directions on two threads
        whole = len(splits.train)
        large = (2 * max(1, -(-mdl.THREADED_MIN_STEP // whole)), replace(cfg, batch_size=whole))
        for hidden_dim, run_cfg in ((10, cfg), large):
            runs, threads = [], []
            for cpus in (1, 2):
                _fake_cpus(monkeypatch, cpus)
                forks.clear()
                started.clear()
                model = _model(vocab, share_depth=share_depth, seed=7, hidden_dim=hidden_dim)
                best, history = train(model, splits, run_cfg, token_classes=token_classes)
                runs.append((history, best.state_dict()))
                # one annotation child per epoch
                assert len(forks) == (cpus - 1) * cfg.epochs * (not dev_only)
                threads.append(len(started))
            assert threads[0] == 0 and (threads[1] > 0) == (hidden_dim > 10)
            (hist1, best1), (hist2, best2) = runs
            assert hist1 == hist2  # every field, float ==: bit for bit
            assert (hist2[0].ann_f1 is None) == dev_only
            assert (hist2[0].marker_rate is None) != with_classes
            assert best1.keys() == best2.keys()
            for name in best1:
                assert np.array_equal(best1[name], best2[name]), name

    @pytest.mark.parametrize("dev_only", [False, True], ids=["annotation", "dev_only"])
    @pytest.mark.parametrize("cpus", [1, 2])
    def test_selected_epoch_keeps_its_final_run(self, small_world, monkeypatch, dev_only, cpus):
        """The selected record alone holds `final_run`, the evaluation of the
        final split by the returned weights, here of an epoch before the last."""
        _, splits, vocab = small_world
        if dev_only:
            splits = dat.Splits(train=splits.train, dev=splits.dev)
        _fake_cpus(monkeypatch, cpus)
        # the recipe of test_selected_params_reproduce_selected_epoch, in band
        cfg = _train_cfg(epochs=5, seed=3, lr_gen=2e-2, lr_pred=2e-2, delta_sparsity=0.4,
                         objective=obj.ObjectiveConfig(lambda1=1.0, lambda2=0.05, alpha=0.5))
        best, history = train(_model(vocab, seed=7), splits, cfg)
        idx = select_model(history, cfg)
        assert idx < cfg.epochs - 1
        assert [r.final_run is not None for r in history] == [k == idx for k in range(5)]
        run = history[idx].final_run
        fresh = evaluation.evaluate_model(best, splits.dev if dev_only else splits.annotation)
        assert run.metrics == fresh.metrics and run.ids == fresh.ids
        for got, want in ((run.masks, fresh.masks),
                          ([run.logits, run.labels], [fresh.logits, fresh.labels])):
            for a, b in zip(got, want, strict=True):
                assert a.dtype == b.dtype and np.array_equal(a, b)
        assert "final_run" not in history[idx].to_json_dict()

    def test_dev_evaluated_in_caller_before_next_epoch(self, small_world, monkeypatch):
        _, splits, vocab = small_world
        _fake_cpus(monkeypatch, 2)
        events = []  # what a forked child appends stays in the child
        evaluate, backward = evaluation.evaluate_model, mdl.loss_and_grads

        def logged_evaluate(params, dataset):
            if dataset is splits.dev:
                events.append("dev")
            return evaluate(params, dataset)

        def logged_backward(*args, **kwargs):
            events.append("step")
            return backward(*args, **kwargs)

        monkeypatch.setattr(evaluation, "evaluate_model", logged_evaluate)
        monkeypatch.setattr(mdl, "loss_and_grads", logged_backward)
        train(_model(vocab), splits, _train_cfg(epochs=3))  # 60 documents, 3 batches an epoch
        assert events == ["step", "step", "step", "dev"] * 3

    def test_train_in_pool_worker(self, small_world, monkeypatch):
        # Pool workers are daemonic and may not start children
        _, splits, vocab = small_world
        _fake_cpus(monkeypatch, 2)
        with multiprocessing.get_context("fork").Pool(1) as pool:
            in_worker = pool.apply(_history_in_worker, ((splits, vocab),))
            pool.close()
            pool.join()
        assert in_worker == _history_in_worker((splits, vocab))

    def test_grid_cells_fork_nothing_more(self, small_world, monkeypatch, tmp_path):
        # the grid's processes take every CPU, so its cells evaluate in-process
        _, splits, vocab = small_world
        _fake_cpus(monkeypatch, 2)
        caller, fork = os.getpid(), os.fork

        def logged_fork():
            with open(tmp_path / "forks", "a") as fh:
                fh.write(f"{os.getpid()}\n")
            return fork()

        def run_cell(params, splits, cfg):
            f1 = training._score_cell(params, splits, cfg)
            if os.getpid() != caller:  # jobs 0 and 2, the worker's: it outlives the caller's
                time.sleep(0.5)  # cells, whose evaluations would otherwise find a CPU free
            return f1

        monkeypatch.setattr(os, "fork", logged_fork)
        lr_grid(GRID_MODEL, vocab, splits, replace(GRID_TRAIN, epochs=3), *GRID_RATES, [0, 1],
                run_cell=run_cell)
        assert (tmp_path / "forks").read_text().split() == [str(os.getpid())]  # the worker

    def test_one_epoch_starts_no_process(self, small_world, monkeypatch):
        # without an annotation split there is nothing to evaluate beside dev
        _, splits, vocab = small_world
        _fake_cpus(monkeypatch, 2)

        def no_fork():
            raise AssertionError("a process was started")

        monkeypatch.setattr(os, "fork", no_fork)
        dev_only = dat.Splits(train=splits.train, dev=splits.dev)
        _, history = train(_model(vocab), dev_only, _train_cfg(epochs=1))
        assert len(history) == 1

    def test_one_epoch_forks_annotation_only(self, small_world, monkeypatch):
        _, splits, vocab = small_world
        forks, fork = [], os.fork

        def counting_fork():
            forks.append(1)
            return fork()

        monkeypatch.setattr(os, "fork", counting_fork)
        runs = []
        for cpus in (1, 2):
            _fake_cpus(monkeypatch, cpus)
            forks.clear()
            best, history = train(_model(vocab), splits, _train_cfg(epochs=1))
            runs.append((history, best.state_dict()))
            assert len(forks) == cpus - 1
        (hist1, best1), (hist2, best2) = runs
        assert hist1 == hist2 and hist2[0].ann_f1 is not None
        for name in best1:
            assert np.array_equal(best1[name], best2[name]), name

    def test_annotation_child_exception_keeps_its_type(self, small_world, monkeypatch):
        _, splits, vocab = small_world
        _fake_cpus(monkeypatch, 2)
        caller, evaluate = os.getpid(), evaluation.evaluate_model

        def fail_on_annotation_in_child(params, dataset):
            if os.getpid() != caller and dataset is splits.annotation:
                raise ValueError("annotation failed in the child")
            return evaluate(params, dataset)

        monkeypatch.setattr(evaluation, "evaluate_model", fail_on_annotation_in_child)
        with pytest.raises(ValueError, match="annotation failed") as info:
            train(_model(vocab), splits, _train_cfg(epochs=1))
        assert "in annotation evaluation" in str(info.value.__cause__)
        assert multiprocessing.active_children() == []

    def test_dev_failure_closes_annotation_child(self, small_world, monkeypatch):
        _, splits, vocab = small_world
        _fake_cpus(monkeypatch, 2)
        caller, evaluate = os.getpid(), evaluation.evaluate_model

        def fail_on_dev_in_caller(params, dataset):
            if os.getpid() != caller:
                time.sleep(60)  # the annotation child, which must be stopped
            elif dataset is splits.dev:
                raise ValueError("dev evaluation failed")
            return evaluate(params, dataset)

        monkeypatch.setattr(evaluation, "evaluate_model", fail_on_dev_in_caller)
        start = time.monotonic()
        with pytest.raises(ValueError, match="dev evaluation failed"):
            train(_model(vocab), splits, _train_cfg(epochs=1))
        assert time.monotonic() - start < 30
        assert multiprocessing.active_children() == []

    def test_dev_and_annotation_encoded_before_first_fork(self, small_world, monkeypatch):
        # a forked evaluation that encodes its splits does so for itself only
        _, splits, _ = small_world
        vocab = build_vocab(splits.train)  # a vocabulary no split has encoded yet
        _fake_cpus(monkeypatch, 2)
        encoded, fork = [], os.fork

        def checking_fork():
            if not encoded:
                encoded.append([id(vocab) in ds._encoded for ds in (splits.dev, splits.annotation)])
            return fork()

        monkeypatch.setattr(os, "fork", checking_fork)
        train(_model(vocab), splits, _train_cfg(epochs=2))
        assert encoded == [[True, True]]
