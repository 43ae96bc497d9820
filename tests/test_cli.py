"""CLI contracts: exit codes, manifests, artifact layout, reproducibility."""

import argparse
import json
import multiprocessing
import os
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest

from rationalift import cli
from rationalift import data as dat
from rationalift import evaluation
from rationalift import model as mdl
from rationalift import objective as obj
from rationalift import training


TINY_SYNTH = """
# desk-scale smoke configuration
data = synth
synth_vocab_size = 40
synth_doc_length = 10
synth_span_length = 2
synth_train_size = 40
synth_dev_size = 16
synth_annotation_size = 16
synth_informative_per_class = 5
embedding_dim = 8
hidden_dim = 10
batch_size = 20
epochs = 2
lambda1 = 1.0
lambda2 = 0.05
alpha = 0.2
"""


@pytest.fixture()
def synth_cfg(tmp_path, monkeypatch):
    monkeypatch.setenv(cli.ENV_OUT, str(tmp_path / "runs"))
    path = tmp_path / "tiny.cfg"
    path.write_text(TINY_SYNTH)
    return path


class TestConfigFile:
    def test_missing_config_names_path(self, tmp_path, capsys):
        missing = tmp_path / "nope.cfg"
        code = cli.main(["train", "--config", str(missing)])
        assert code == 2
        assert str(missing) in capsys.readouterr().err

    def test_unknown_key_rejected(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("not_a_key = 3\n")
        assert cli.main(["train", "--config", str(path)]) == 2
        assert "not_a_key" in capsys.readouterr().err

    @pytest.mark.parametrize("line", ["num_classes = 2", "per_direction = false",
                                      "grad_clip = 1.0"])
    def test_removed_model_keys_rejected(self, tmp_path, capsys, line):
        path = tmp_path / "old.cfg"
        path.write_text(TINY_SYNTH + line + "\n")
        assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        assert line.split()[0] in capsys.readouterr().err

    def test_type_error_names_key(self, tmp_path, capsys):
        # `none` and an empty value stand for None, which only a key whose
        # default is None takes
        for line in ("epochs = soon", "epochs =", "hidden_dim = none"):
            path = tmp_path / "bad.cfg"
            path.write_text(TINY_SYNTH + line + "\n")
            out = tmp_path / "run"
            assert cli.main(["train", "--config", str(path), "--out", str(out)]) == 2, line
            assert line.split()[0] in capsys.readouterr().err
            assert not out.exists()

    @pytest.mark.parametrize("raw", ["false", "no", "0", "off"])
    def test_false_train_embedding_freezes_table(self, tmp_path, raw):
        path = tmp_path / "frozen.cfg"
        path.write_text(TINY_SYNTH + f"train_embedding = {raw}\nseed = 2\n")
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(path), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["resolved_config"][
            "train_embedding"] is False
        params, _ = mdl.load_checkpoint(out / "checkpoint.npz")
        initial = mdl.build_model(params.config, params.vocab, seed=2)
        assert np.array_equal(params.embedding.value, initial.embedding.value)

    def test_unparsable_boolean_names_key(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text(TINY_SYNTH + "train_embedding = maybe\n")
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(path), "--out", str(out)]) == 2
        assert "train_embedding" in capsys.readouterr().err
        assert not out.exists()

    def test_none_accepted_by_key_without_default(self, tmp_path):
        path = tmp_path / "none.cfg"
        path.write_text(TINY_SYNTH + "embeddings_path = none\n")
        assert cli.read_config_file(path)["embeddings_path"] is None
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(path), "--out", str(out)]) == 0
        assert json.loads((out / "manifest.json").read_text())["resolved_config"][
            "embeddings_path"] is None

    def test_every_key_is_read(self):
        """Each key feeds a field of a config object (`synth_`- and `skew_`-keys
        with their prefix) or is one of the data and CLI keys below, so a key
        that nothing reads fails here; and only the keys of the explicit table
        carry a default of their own, so no default is stated twice."""
        field_defaults = {f.name: f.default for cls in (mdl.ModelConfig, training.TrainConfig,
                                                        obj.ObjectiveConfig) for f in fields(cls)}
        field_defaults.update(("synth_" + f.name, f.default) for f in fields(dat.SynthConfig))
        field_defaults.update(("skew_" + f.name, f.default) for f in fields(training.SkewConfig))
        cli_keys = {"data", "min_freq", "embeddings_path", "aspect", "domain", "skew_kind"}
        assert [k for k in cli.CONFIG_SCHEMA
                if k not in field_defaults and k not in cli_keys and not k.endswith("_path")] == []
        own = [k for k, (_, default) in cli.CONFIG_SCHEMA.items()
               if k not in field_defaults or default != field_defaults[k]]
        assert sorted(own) == sorted(cli._OWN_KEYS)


class TestTrainCommand:
    def test_artifacts_and_exit_code(self, synth_cfg, tmp_path):
        out = tmp_path / "run1"
        code = cli.main(["train", "--config", str(synth_cfg), "--mode", "fr",
                         "--out", str(out)])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["resolved_config"]["share_depth"] == 1
        final = json.loads((out / "final.json").read_text())
        assert set(final) == {"S", "Acc", "P", "R", "F1"}
        metrics_lines = (out / "metrics.jsonl").read_text().splitlines()
        assert len(metrics_lines) == 2
        assert "ann_f1" in json.loads(metrics_lines[0])
        assert (out / "checkpoint.npz").exists()
        assert (out / "masks.jsonl").exists()
        assert (out / "data" / "train.jsonl").exists()

    def test_flag_overrides_echoed_in_manifest(self, synth_cfg, tmp_path):
        out = tmp_path / "run2"
        code = cli.main(["train", "--config", str(synth_cfg), "--mode", "rnp",
                         "--lr-gen", "1e-3", "--lr-pred", "2e-4", "--out", str(out)])
        assert code == 0
        resolved = json.loads((out / "manifest.json").read_text())["resolved_config"]
        assert resolved["lr_gen"] == 1e-3
        assert resolved["lr_pred"] == 2e-4
        assert resolved["share_depth"] == 0
        assert resolved["mode"] == "rnp"

    def test_rerun_bitwise_identical_metrics(self, synth_cfg, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        argv = ["train", "--config", str(synth_cfg), "--seed", "3"]
        assert cli.main(argv + ["--out", str(a)]) == 0
        assert cli.main(argv + ["--out", str(b)]) == 0
        assert (a / "final.json").read_bytes() == (b / "final.json").read_bytes()
        assert (a / "metrics.jsonl").read_bytes() == (b / "metrics.jsonl").read_bytes()
        assert (a / "masks.jsonl").read_bytes() == (b / "masks.jsonl").read_bytes()

    def test_evaluates_each_split_once_per_epoch(self, synth_cfg, tmp_path, monkeypatch):
        """final.json and masks.jsonl reuse the selected epoch's evaluation:
        no split is evaluated after `train` returns."""
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0})  # every call in-process
        calls, trained = [], []
        evaluate, real_train = evaluation.evaluate_model, training.train

        def counting_evaluate(params, dataset):
            calls.append((dataset.split, bool(trained)))
            return evaluate(params, dataset)

        def marking_train(*args, **kwargs):
            result = real_train(*args, **kwargs)
            trained.append(True)
            return result

        monkeypatch.setattr(evaluation, "evaluate_model", counting_evaluate)
        monkeypatch.setattr(training, "train", marking_train)
        assert cli.main(["train", "--config", str(synth_cfg), "--epochs", "2",
                         "--out", str(tmp_path / "run")]) == 0
        assert sorted(calls) == [("annotation", False)] * 2 + [("dev", False)] * 2

    # (mode, extra flags, selected epoch index of 3): epoch 2 or the last.  With
    # two CPUs, every epoch's annotation split, whose evaluation final.json and
    # masks.jsonl reuse, is evaluated in a forked child beside dev
    @pytest.mark.parametrize("mode, extra, selected", [
        ("fr", [], 1),
        ("rnp", ["--alpha", "0.5", "--lr-gen", "2e-2", "--lr-pred", "2e-2"], 2),
    ], ids=["selected-in-child", "selected-last"])
    def test_final_artifacts_equal_fresh_evaluation(self, synth_cfg, tmp_path, monkeypatch,
                                                    mode, extra, selected):
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(synth_cfg), "--mode", mode, "--seed", "0",
                         "--epochs", "3", "--out", str(out)] + extra) == 0
        records = [training.EpochRecord(**json.loads(line))
                   for line in (out / "metrics.jsonl").read_text().splitlines()]
        cfg = json.loads((out / "manifest.json").read_text())["resolved_config"]
        assert training.select_model(records, cli._train_config(cfg)) == selected
        params, _ = mdl.load_checkpoint(out / "checkpoint.npz")
        splits, _, _, _ = cli.resolve_data(cfg)
        fresh = tmp_path / "fresh"
        fresh.mkdir()
        cli._write_final(fresh, evaluation.evaluate_model(params, splits.annotation))
        for name in ("final.json", "masks.jsonl"):
            assert (out / name).read_bytes() == (fresh / name).read_bytes(), name
        assert json.loads((out / "final.json").read_text())["F1"] == records[selected].ann_f1

    def test_default_out_under_env_root(self, synth_cfg, tmp_path):
        code = cli.main(["train", "--config", str(synth_cfg), "--seed", "5"])
        assert code == 0
        root = tmp_path / "runs"
        candidates = list(root.glob("train-*seed5"))
        assert len(candidates) == 1


class TestSkewCommand:
    def test_generator_skew_records_pre_acc(self, synth_cfg, tmp_path):
        out = tmp_path / "skewg"
        code = cli.main(["skew", "--config", str(synth_cfg), "--kind", "generator",
                         "--k", "0.55", "--out", str(out), "--epochs", "1"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["pre_acc"] >= 0.55

    def test_predictor_skew_records_epochs(self, synth_cfg, tmp_path):
        out = tmp_path / "skewp"
        code = cli.main(["skew", "--config", str(synth_cfg), "--kind", "predictor",
                         "--k", "2", "--out", str(out), "--epochs", "1"])
        assert code == 0
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["pretrain_epochs"] == 2

    def test_divergence_keeps_pretraining_record(self, synth_cfg, tmp_path, monkeypatch):
        loss_and_grads = mdl.loss_and_grads

        def diverging(*args, **kwargs):  # joint training only: pretraining never calls it
            return replace(loss_and_grads(*args, **kwargs), total=float("nan"))

        monkeypatch.setattr(mdl, "loss_and_grads", diverging)
        out = tmp_path / "skewg"
        code = cli.main(["skew", "--config", str(synth_cfg), "--kind", "generator",
                         "--k", "0.55", "--out", str(out), "--epochs", "1"])
        assert code == 3
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["pre_acc"] >= 0.55 and manifest["skew"] == {"kind": "generator", "k": 0.55}
        assert not (out / "final.json").exists()

    def test_invalid_kind_exits_2(self, synth_cfg):
        assert cli.main(["skew", "--config", str(synth_cfg), "--kind", "both",
                         "--k", "1"]) == 2

    def test_unreached_threshold_exits_3(self, tmp_path, capsys):
        path = tmp_path / "skew.cfg"
        path.write_text(TINY_SYNTH + "skew_epoch_cap = 1\n")
        code = cli.main(["skew", "--config", str(path), "--kind", "generator",
                         "--k", "0.99", "--out", str(tmp_path / "skew")])
        assert code == 3
        assert "never exceeded 0.99" in capsys.readouterr().err
        assert not (tmp_path / "skew" / "final.json").exists()

    def test_non_finite_pretraining_gradient_exits_3(self, synth_cfg, tmp_path, monkeypatch,
                                                     capsys):
        scatter = mdl._scatter_embedding_grad

        def poisoned(params, *args):
            scatter(params, *args)
            params.pred_head.b.grad[...] = np.nan

        monkeypatch.setattr(mdl, "_scatter_embedding_grad", poisoned)
        code = cli.main(["skew", "--config", str(synth_cfg), "--kind", "predictor",
                         "--k", "1", "--out", str(tmp_path / "skew")])
        assert code == 3
        assert "non-finite gradient of pred_head.b" in capsys.readouterr().err
        assert not (tmp_path / "skew" / "final.json").exists()


class TestGridCommand:
    def test_grid_children_and_outputs(self, synth_cfg, tmp_path):
        out = tmp_path / "grid"
        code = cli.main(["grid", "--config", str(synth_cfg),
                         "--gen-rates", "2e-3,1e-3", "--pred-rates", "2e-3,4e-4",
                         "--seeds", "0", "--out", str(out), "--epochs", "1"])
        assert code == 0
        cells = list(out.glob("cell-*/manifest.json"))
        assert len(cells) == 4
        assert (out / "grid.csv").exists()
        assert (out / "grid.txt").exists()
        grid = json.loads((out / "grid.json").read_text())
        assert np.array(grid["median_f1"]).shape == (2, 2)

    def test_rerun_skips_completed_cells(self, synth_cfg, tmp_path):
        out = tmp_path / "grid2"
        argv = ["grid", "--config", str(synth_cfg), "--gen-rates", "2e-3",
                "--pred-rates", "1e-3", "--seeds", "0", "--out", str(out),
                "--epochs", "1"]
        assert cli.main(argv) == 0
        ckpt = out / "cell-g0.002-p0.001-s0" / "checkpoint.npz"
        stamp = ckpt.stat().st_mtime_ns
        assert cli.main(argv) == 0
        assert ckpt.stat().st_mtime_ns == stamp

    def test_rerun_with_changed_config_retrains_cells(self, synth_cfg, tmp_path):
        out = tmp_path / "grid3"
        argv = ["grid", "--config", str(synth_cfg), "--gen-rates", "2e-3",
                "--pred-rates", "1e-3", "--seeds", "0", "--out", str(out)]
        assert cli.main(argv + ["--epochs", "1"]) == 0
        assert cli.main(argv + ["--epochs", "2"]) == 0
        cell = out / "cell-g0.002-p0.001-s0"
        assert len((cell / "metrics.jsonl").read_text().splitlines()) == 2
        assert json.loads((cell / "manifest.json").read_text())["resolved_config"]["epochs"] == 2

    def test_medians_equal_lr_grid(self, synth_cfg, tmp_path):
        # two seeds: each median is the mean of two cell scores, which equals
        # lr_grid's only if the CLI scores cells by their unrounded F1; without
        # the sparsity term the two columns differ, so a swap would show
        config = tmp_path / "dense.cfg"
        config.write_text(synth_cfg.read_text() + "lambda1 = 0.0\n")
        out = tmp_path / "grid4"
        gen_rates, pred_rates, seeds = [2e-3], [1e-3, 4e-4], [0, 1]
        argv = ["grid", "--config", str(config), "--gen-rates", "2e-3",
                "--pred-rates", "1e-3,4e-4", "--seeds", "0,1", "--out", str(out),
                "--epochs", "1"]
        assert cli.main(argv) == 0
        cfg = cli.resolve_config(argparse.Namespace(config=str(config), epochs=1, mode="rnp"))
        splits, vocab, embeddings, _ = cli.resolve_data(cfg)
        result = training.lr_grid(cli._model_config(cfg), vocab, splits, cli._train_config(cfg),
                                  gen_rates, pred_rates, seeds, embeddings=embeddings)
        assert result.median_f1[0, 0] != result.median_f1[0, 1]
        assert json.loads((out / "grid.json").read_text())["median_f1"] == (
            result.median_f1.tolist()
        )
        for (i, j), scores in result.cells.items():
            for seed, f1 in scores:
                cell = out / f"cell-g{gen_rates[i]:g}-p{pred_rates[j]:g}-s{seed}"
                assert json.loads((cell / "final.json").read_text())["F1"] == f1
        # a resumed grid reads its cells back from final.json and agrees too
        (out / "grid.json").unlink()
        assert cli.main(argv) == 0
        assert json.loads((out / "grid.json").read_text())["median_f1"] == (
            result.median_f1.tolist()
        )

    def test_parallel_artifacts_equal_sequential(self, synth_cfg, tmp_path, monkeypatch):
        """Cells written by forked workers are the bytes a one-process sweep writes."""
        # no sparsity term, so that the cells' F1s differ (see the last assertion)
        config = tmp_path / "dense.cfg"
        config.write_text(synth_cfg.read_text() + "lambda1 = 0.0\n")
        outs = {}
        for cpus in (1, 3):
            monkeypatch.setattr(os, "sched_getaffinity", lambda pid, n=cpus: set(range(n)))
            outs[cpus] = tmp_path / f"grid-cpus{cpus}"
            assert cli.main(["grid", "--config", str(config), "--gen-rates", "2e-3,1e-2",
                             "--pred-rates", "1e-3", "--seeds", "0,1",
                             "--out", str(outs[cpus]), "--epochs", "1"]) == 0
        names = ["grid.csv", "grid.txt", "grid.json"] + [
            f"{cell.name}/{name}" for cell in sorted(outs[1].glob("cell-*"))
            for name in ("metrics.jsonl", "masks.jsonl", "final.json")
        ]
        assert len(names) == 3 + 4 * 3
        for name in names:
            assert (outs[3] / name).read_bytes() == (outs[1] / name).read_bytes(), name
        for cell in outs[1].glob("cell-*"):
            one, _ = mdl.load_checkpoint(cell / "checkpoint.npz")
            three, _ = mdl.load_checkpoint(outs[3] / cell.name / "checkpoint.npz")
            for key, value in one.state_dict().items():
                assert np.array_equal(value, three.state_dict()[key]), (cell.name, key)
        f1s = [json.loads((cell / "final.json").read_text())["F1"]
               for cell in outs[1].glob("cell-*")]
        assert len(set(f1s)) > 1

    def test_worker_divergence_exits_3(self, synth_cfg, tmp_path, monkeypatch, capsys):
        caller, real_train = os.getpid(), training.train

        def train(params, splits, cfg, **kwargs):
            if os.getpid() != caller:  # job 0 of 2: the forked worker's
                raise training.DivergenceError(f"non-finite loss in the cell of seed {cfg.seed}")
            return real_train(params, splits, cfg, **kwargs)

        monkeypatch.setattr(training, "train", train)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        code = cli.main(["grid", "--config", str(synth_cfg), "--gen-rates", "2e-3",
                         "--pred-rates", "1e-3", "--seeds", "0,1",
                         "--out", str(tmp_path / "grid"), "--epochs", "1"])
        assert code == 3
        assert "cell of seed 0" in capsys.readouterr().err
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "grid" / "grid.json").exists()

    def test_empty_rate_list_exits_2(self, synth_cfg, capsys):
        assert cli.main(["grid", "--config", str(synth_cfg), "--gen-rates", "",
                         "--pred-rates", "1e-3"]) == 2

    def test_unparsable_seed_list_exits_2(self, synth_cfg, capsys):
        assert cli.main(["grid", "--config", str(synth_cfg), "--gen-rates", "1e-3",
                         "--pred-rates", "1e-3", "--seeds", "0,one"]) == 2
        assert "--seeds" in capsys.readouterr().err

    @pytest.mark.parametrize("flag, values", [
        ("--gen-rates", "1e-3,0.001"),
        ("--pred-rates", "1e-3,0.0010000001"),  # both name cell directories p0.001
        ("--seeds", "0,0"),
    ], ids=["gen-rates", "pred-rates-by-cell-name", "seeds"])
    def test_repeated_value_exits_2_before_writing(self, synth_cfg, tmp_path, capsys, flag,
                                                   values):
        lists = {"--gen-rates": "1e-3", "--pred-rates": "1e-3", "--seeds": "0", flag: values}
        out = tmp_path / "grid"
        argv = ["grid", "--config", str(synth_cfg), "--out", str(out), "--epochs", "1"]
        assert cli.main(argv + [arg for item in lists.items() for arg in item]) == 2
        assert f"{flag} repeats a value" in capsys.readouterr().err
        assert not out.exists()


class TestManifest:
    """A manifest's `artifacts` are exactly the files its command wrote in its
    directory, the manifest and the grid's cell directories aside."""

    @staticmethod
    def _assert_lists_written(out: Path) -> None:
        listed = json.loads((out / "manifest.json").read_text())["artifacts"].values()
        written = {p.relative_to(out) for p in out.rglob("*") if p.is_file()}
        assert {Path(p).relative_to(out) for p in listed} == {
            p for p in written if p.name != "manifest.json" and not p.parts[0].startswith("cell-")}

    @pytest.mark.parametrize("argv", [
        ["train"], ["skew", "--kind", "generator", "--k", "0.55"],
        ["skew", "--kind", "predictor", "--k", "1"],
    ], ids=["train", "skew-generator", "skew-predictor"])
    def test_training_run(self, synth_cfg, tmp_path, argv):
        out = tmp_path / "run"
        assert cli.main(argv + ["--config", str(synth_cfg), "--out", str(out)]) == 0
        assert (out / "data" / "train.jsonl").exists()
        self._assert_lists_written(out)

    def test_jsonl_run_writes_no_corpus(self, tmp_path):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps({"label": k % 2, "text": f"w{k % 3} beer"}) + "\n"
                                  for k in range(8)))
        config = tmp_path / "jsonl.cfg"
        config.write_text(f"data = jsonl\ndomain = beer\naspect = aroma\nepochs = 1\n"
                          f"embedding_dim = 4\nhidden_dim = 4\n"
                          f"train_path = {corpus}\ndev_path = {corpus}\n")
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 0
        assert not (out / "data").exists()
        self._assert_lists_written(out)

    def test_grid_and_its_cells(self, synth_cfg, tmp_path):
        out = tmp_path / "grid"
        assert cli.main(["grid", "--config", str(synth_cfg), "--gen-rates", "2e-3",
                         "--pred-rates", "2e-3,4e-4", "--seeds", "0", "--epochs", "1",
                         "--out", str(out)]) == 0
        cells = sorted(out.glob("cell-*"))
        assert len(cells) == 2
        for run_dir in [out, *cells]:
            self._assert_lists_written(run_dir)


class TestExitCodes:
    @pytest.mark.parametrize("kind", ["npz_without_config", "npy", "pk_not_zip", "text",
                                      "directory"])
    @pytest.mark.parametrize("command", ["eval", "probe"])
    def test_non_checkpoint_file_exits_2(self, synth_cfg, tmp_path, capsys, kind, command):
        path = tmp_path / f"{kind}.npz"
        if kind == "npz_without_config":
            np.savez(path, x=np.zeros(3))
        elif kind == "npy":
            with path.open("wb") as fh:
                np.save(fh, np.zeros(3))
        elif kind == "pk_not_zip":
            path.write_bytes(b"PK not a zip archive")
        elif kind == "directory":
            path.mkdir()
        else:
            path.write_text("not a checkpoint\n")
        extra = ["--probe", "lemma3"] if command == "probe" else []
        code = cli.main([command, "--config", str(synth_cfg), "--checkpoint", str(path),
                         "--out", str(tmp_path / "out"), *extra])
        assert code == 2
        assert f"cannot load checkpoint {path}: " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_invalid_model_config_exits_2(self, synth_cfg, tmp_path, capsys):
        code = cli.main(["train", "--config", str(synth_cfg), "--share-depth", "3",
                         "--out", str(tmp_path / "bad")])
        assert code == 2
        assert "share_depth" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["train"],
        ["skew", "--kind", "predictor", "--k", "1"],
        ["grid", "--gen-rates", "1e-3", "--pred-rates", "1e-3"],
    ], ids=["train", "skew", "grid"])
    @pytest.mark.parametrize("epochs", ["0", "-1"])
    def test_fewer_than_one_epoch_exits_2(self, synth_cfg, tmp_path, capsys, argv, epochs):
        out = tmp_path / "bad"
        code = cli.main(argv + ["--config", str(synth_cfg), "--epochs", epochs,
                                "--out", str(out)])
        assert code == 2
        assert "epochs must be at least 1" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_delta_sparsity_exits_2(self, tmp_path, capsys):
        path = tmp_path / "band.cfg"
        path.write_text(TINY_SYNTH + "delta_sparsity = -1\n")
        out = tmp_path / "bad"
        assert cli.main(["train", "--config", str(path), "--out", str(out)]) == 2
        assert "delta_sparsity" in capsys.readouterr().err
        assert not out.exists()

    def test_jsonl_without_domain_exits_2(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps({"label": k % 2, "text": f"w{k % 3} beer"}) + "\n"
                                  for k in range(8)))
        config = tmp_path / "jsonl.cfg"
        config.write_text(f"data = jsonl\naspect = aroma\nepochs = 1\n"
                          f"train_path = {corpus}\ndev_path = {corpus}\n")
        out = tmp_path / "bad"
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 2
        assert "domain" in capsys.readouterr().err
        assert not out.exists()

    def test_invalid_train_config_exits_2(self, synth_cfg, tmp_path, capsys):
        code = cli.main(["train", "--config", str(synth_cfg), "--lr-gen", "0",
                         "--out", str(tmp_path / "bad")])
        assert code == 2
        assert "learning rates" in capsys.readouterr().err

    @pytest.mark.parametrize("argv", [
        ["train", "--lr-gen", "0"],
        ["train", "--lr-gen", "nan"],
        ["grid", "--alpha", "2", "--gen-rates", "1e-3", "--pred-rates", "1e-3"],
        ["grid", "--gen-rates", "1e-3,nan", "--pred-rates", "1e-3"],
        ["grid", "--gen-rates", "1e-3", "--pred-rates", "0"],
    ], ids=["train", "train-nan", "grid", "grid-nan-rate", "grid-zero-rate"])
    def test_rejected_config_writes_nothing(self, synth_cfg, tmp_path, argv):
        out = tmp_path / "bad"
        assert cli.main(argv + ["--config", str(synth_cfg), "--out", str(out)]) == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv, line", [
        (["train", "--seed", "-1"], ""),
        (["skew", "--kind", "generator", "--k", "0.9", "--seed", "-1"], ""),
        (["grid", "--gen-rates", "1e-3", "--pred-rates", "1e-3", "--seeds", "0,-2"], ""),
        (["train"], "synth_seed = -1\n"),
    ], ids=["train", "skew", "grid", "synth_seed"])
    def test_negative_seed_exits_2(self, tmp_path, capsys, argv, line):
        path = tmp_path / "seed.cfg"
        path.write_text(TINY_SYNTH + line)
        out = tmp_path / "bad"
        assert cli.main(argv + ["--config", str(path), "--out", str(out)]) == 2
        assert "seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_config_sharing_encoder_exits_2(self, synth_cfg, tmp_path, capsys):
        # the grid is defined for the two-phase model; a config asking for
        # sharing is rejected, not silently overridden
        path = tmp_path / "shared.cfg"
        path.write_text(synth_cfg.read_text() + "share_depth = 1\n")
        out = tmp_path / "bad"
        code = cli.main(["grid", "--config", str(path), "--gen-rates", "1e-3",
                         "--pred-rates", "1e-3", "--out", str(out)])
        assert code == 2
        assert "share_depth" in capsys.readouterr().err
        assert not out.exists()

    def test_grid_config_share_depth_zero_runs(self, synth_cfg, tmp_path):
        path = tmp_path / "rnp.cfg"
        path.write_text(synth_cfg.read_text() + "share_depth = 0\n")
        out = tmp_path / "grid"
        assert cli.main(["grid", "--config", str(path), "--gen-rates", "1e-3",
                         "--pred-rates", "1e-3", "--epochs", "1", "--out", str(out)]) == 0
        resolved = json.loads((out / "manifest.json").read_text())["resolved_config"]
        assert (resolved["share_depth"], resolved["mode"]) == (0, "rnp")

    # (config lines, flags): a share_depth that --mode's preset contradicts
    @pytest.mark.parametrize("lines, flags", [
        ("share_depth = 1\n", ["--mode", "rnp"]),
        ("", ["--mode", "rnp", "--share-depth", "1"]),
        ("num_layers = 2\nshare_depth = 1\n", ["--mode", "fr"]),
    ], ids=["rnp-over-config", "rnp-with-flag", "fr-partial"])
    def test_mode_conflicting_share_depth_exits_2(self, synth_cfg, tmp_path, capsys, lines,
                                                  flags):
        path = tmp_path / "conflict.cfg"
        path.write_text(synth_cfg.read_text() + lines)
        out = tmp_path / "bad"
        assert cli.main(["train", "--config", str(path), *flags, "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert "share_depth" in err and f"mode {flags[1]}" in err
        assert not out.exists() and not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("lines, flags, expected", [
        ("share_depth = 0\n", ["--mode", "rnp"], (0, "rnp")),
        ("", ["--mode", "rnp", "--share-depth", "0"], (0, "rnp")),
        ("num_layers = 2\nshare_depth = 2\n", ["--mode", "fr"], (2, "fr")),
    ], ids=["rnp-over-config", "rnp-with-flag", "fr-folded"])
    def test_mode_agreeing_share_depth_runs(self, synth_cfg, tmp_path, lines, flags, expected):
        path = tmp_path / "agree.cfg"
        path.write_text(synth_cfg.read_text() + lines)
        out = tmp_path / "run"
        assert cli.main(["train", "--config", str(path), *flags, "--epochs", "1",
                         "--out", str(out)]) == 0
        resolved = json.loads((out / "manifest.json").read_text())["resolved_config"]
        assert (resolved["share_depth"], resolved["mode"]) == expected

    @pytest.mark.parametrize("case", ["missing-corpus", "unknown-token", "unknown-sentence"])
    def test_failed_probe_writes_nothing(self, synth_cfg, trained_checkpoint, tmp_path, case):
        config, extra = synth_cfg, []
        if case == "missing-corpus":
            config = tmp_path / "jsonl.cfg"
            config.write_text(f"data = jsonl\ndomain = beer\n"
                              f"train_path = {tmp_path / 'no-train.jsonl'}\n"
                              f"dev_path = {tmp_path / 'no-dev.jsonl'}\n")
            extra = ["--probe", "insertion"]
        elif case == "unknown-token":
            extra = ["--probe", "insertion", "--token", "not-a-token"]
        else:
            extra = ["--probe", "lemma3", "--sentence", "not-a-token here"]
        out = tmp_path / "p"
        code = cli.main(["probe", "--config", str(config), "--checkpoint",
                         str(trained_checkpoint), "--out", str(out)] + extra)
        assert code == 2
        assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["grid", "--mode", "fr", "--gen-rates", "1e-3", "--pred-rates", "1e-3"],
        ["eval", "--lr-gen", "1e-3", "--checkpoint", "model.npz"],
        ["probe", "--epochs", "3", "--checkpoint", "model.npz", "--probe", "lemma3"],
    ], ids=["grid-mode", "eval-lr-gen", "probe-epochs"])
    def test_flag_the_command_does_not_read_exits_2(self, argv, capsys):
        assert cli.main(argv) == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_invalid_skew_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "skew.cfg"
        path.write_text(TINY_SYNTH + "skew_batch_size = 0\n")
        code = cli.main(["skew", "--config", str(path), "--kind", "generator", "--k", "0.6",
                         "--out", str(tmp_path / "bad")])
        assert code == 2
        assert "batch_size" in capsys.readouterr().err

    @pytest.mark.parametrize("line, message", [
        ("skew_lr = 0", "learning rate"),
        ("skew_epoch_cap = 0", "epoch_cap"),
    ], ids=["lr", "epoch-cap"])
    def test_invalid_skew_rate_or_epoch_cap_exits_2(self, tmp_path, capsys, line, message):
        path = tmp_path / "skew.cfg"
        path.write_text(TINY_SYNTH + line + "\n")
        out = tmp_path / "bad"
        code = cli.main(["skew", "--config", str(path), "--kind", "generator", "--k", "0.6",
                         "--out", str(out)])
        assert code == 2
        assert message in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("line", ["lr_gen = nan", "lambda1 = inf", "alpha = -inf",
                                      "skew_lr = 1e999"])
    def test_non_finite_config_float_exits_2(self, tmp_path, capsys, line):
        path = tmp_path / "bad.cfg"
        path.write_text(TINY_SYNTH + line + "\n")
        out = tmp_path / "bad"
        assert cli.main(["train", "--config", str(path), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert line.split()[0] in err and "finite" in err
        assert not out.exists()

    @pytest.mark.parametrize("case, where", [
        ("rating", "line 2: rating"),
        ("nan-rating", "line 2: rating must be finite"),
        ("bool-label", "line 1: label must be 0 or 1"),
        ("span", "line 1: example a0: span"),
        ("embedding", "vec.txt:2: token 'good'"),
        # a non-finite vector once trained to a non-finite loss and exited 3
        ("nan-embedding", "vec.txt:2: token 'good' has a non-finite value"),
        ("null-id", "line 1: id must be a string or an integer, got None"),
        ("repeated-id", "line 2: id 'a0' repeats line 1"),
    ])
    def test_malformed_corpus_value_exits_2(self, tmp_path, capsys, case, where):
        reviews = [{"rating": 0.9, "text": "good beer"}, {"rating": 0.1, "text": "bad beer"}]
        if case in ("rating", "nan-rating"):
            reviews[1]["rating"] = "abc" if case == "rating" else float("nan")
        spans = [["a", 1]] if case == "span" else [[0, 1]]
        bad_vector = {"embedding": "good 0.1 abc\n", "nan-embedding": "good nan 0.1\n"}
        vectors = "beer 0.1 0.2\n" + bad_vector.get(case, "")
        label = True if case == "bool-label" else 1
        annotation = {"id": None if case == "null-id" else "a0", "label": label,
                      "text": "good beer", "rationale_spans": spans}
        paths = {}
        for name, text in [
            ("train", "".join(json.dumps(r) + "\n" for r in reviews)),
            ("annotation", (json.dumps(annotation) + "\n") * (1 + (case == "repeated-id"))),
            ("embeddings", vectors),
        ]:
            paths[name] = tmp_path / ("vec.txt" if name == "embeddings" else f"{name}.jsonl")
            paths[name].write_text(text)
        config = tmp_path / "jsonl.cfg"
        config.write_text(
            f"data = jsonl\ndomain = beer\naspect = aroma\nembedding_dim = 2\n"
            f"train_path = {paths['train']}\ndev_path = {paths['train']}\n"
            f"annotation_path = {paths['annotation']}\nembeddings_path = {paths['embeddings']}\n"
        )
        out = tmp_path / "bad"
        assert cli.main(["train", "--config", str(config), "--out", str(out)]) == 2
        assert where in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("k", ["2.7", "0.5", "-1"])
    def test_fractional_predictor_epochs_exit_2(self, synth_cfg, tmp_path, capsys, k):
        code = cli.main(["skew", "--config", str(synth_cfg), "--kind", "predictor", "--k", k,
                         "--out", str(tmp_path / "bad")])
        assert code == 2
        assert "whole number" in capsys.readouterr().err
        assert not (tmp_path / "bad" / "final.json").exists()

    def test_internal_value_error_propagates(self, synth_cfg, tmp_path, monkeypatch):
        def broken_train(*args, **kwargs):
            raise ValueError("internal failure")

        monkeypatch.setattr(training, "train", broken_train)
        with pytest.raises(ValueError, match="internal failure"):
            cli.main(["train", "--config", str(synth_cfg), "--out", str(tmp_path / "run")])


@pytest.fixture()
def trained_checkpoint(synth_cfg, tmp_path):
    out = tmp_path / "base"
    assert cli.main(["train", "--config", str(synth_cfg), "--out", str(out),
                     "--epochs", "1"]) == 0
    return out / "checkpoint.npz"


class TestProbeCommand:
    def test_missing_checkpoint_exits_2(self, synth_cfg, tmp_path, capsys):
        code = cli.main(["probe", "--config", str(synth_cfg),
                         "--checkpoint", str(tmp_path / "no.npz"),
                         "--probe", "lemma3"])
        assert code == 2

    def test_zero_max_examples_exits_2(self, synth_cfg, trained_checkpoint, capsys):
        code = cli.main(["probe", "--config", str(synth_cfg),
                         "--checkpoint", str(trained_checkpoint),
                         "--probe", "insertion", "--max-examples", "0"])
        assert code == 2
        assert "--max-examples" in capsys.readouterr().err

    def test_unknown_probe_exits_2(self, synth_cfg, trained_checkpoint):
        assert cli.main(["probe", "--config", str(synth_cfg),
                         "--checkpoint", str(trained_checkpoint),
                         "--probe", "lemma7"]) == 2

    def test_lemma3_probe_writes_reports(self, synth_cfg, trained_checkpoint, tmp_path):
        out = tmp_path / "probe"
        code = cli.main(["probe", "--config", str(synth_cfg),
                         "--checkpoint", str(trained_checkpoint),
                         "--probe", "lemma3", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "probe.json").read_text())
        assert report["kind"] == "lemma3"
        assert "generator" in report["tables"]
        html = (out / "probe.html").read_text()
        assert html.startswith("<html>")

    def test_default_sentences_used_when_vocabulary_matches(self, tmp_path, monkeypatch):
        monkeypatch.setenv(cli.ENV_OUT, str(tmp_path / "runs"))
        # checkpoint whose vocabulary contains the default probe tokens
        vocab = dat.Vocabulary.from_tokens(["good", ".", ",", "smell"])
        params = mdl.build_model(
            mdl.ModelConfig(embedding_dim=4, hidden_dim=6), vocab, seed=0
        )
        ckpt = tmp_path / "m.npz"
        mdl.save_checkpoint(ckpt, params)
        out = tmp_path / "probe"
        code = cli.main(["probe", "--checkpoint", str(ckpt), "--probe", "lemma3",
                         "--out", str(out)])
        assert code == 0
        report = json.loads((out / "probe.json").read_text())
        sentences = {row["sentence"] for row in report["tables"]["generator"]}
        assert "good . , smell" in sentences

    def test_uninformative_probe_runs(self, synth_cfg, trained_checkpoint, tmp_path):
        out = tmp_path / "uprobe"
        code = cli.main(["probe", "--config", str(synth_cfg),
                         "--checkpoint", str(trained_checkpoint),
                         "--probe", "uninformative", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "probe.json").read_text())
        assert "filler_median_distance" in report["summary"]

    def test_insertion_probe_runs(self, synth_cfg, trained_checkpoint, tmp_path):
        out = tmp_path / "iprobe"
        code = cli.main(["probe", "--config", str(synth_cfg),
                         "--checkpoint", str(trained_checkpoint),
                         "--probe", "insertion", "--out", str(out)])
        assert code == 0
        report = json.loads((out / "probe.json").read_text())
        assert report["summary"]["median_delta"] >= 0


class TestEvalCommand:
    def test_unloadable_checkpoint_exits_2(self, synth_cfg, trained_checkpoint, tmp_path,
                                           capsys):
        with np.load(trained_checkpoint) as archive:
            arrays = {name: archive[name] for name in archive.files}
        config = json.loads(str(arrays["__config__"]))
        arrays["__config__"] = np.array(json.dumps(dict(config, num_classes=3)))
        ckpt = tmp_path / "three_classes.npz"
        np.savez(ckpt, **arrays)
        code = cli.main(["eval", "--config", str(synth_cfg), "--checkpoint", str(ckpt),
                         "--out", str(tmp_path / "eval")])
        assert code == 2
        assert "num_classes" in capsys.readouterr().err

    def test_negative_render_exits_2(self, synth_cfg, tmp_path, capsys):
        # rejected before the checkpoint, which does not exist, is looked for
        code = cli.main(["eval", "--config", str(synth_cfg), "--checkpoint",
                         str(tmp_path / "no.npz"), "--render", "-1",
                         "--out", str(tmp_path / "eval")])
        assert code == 2
        assert "--render must be at least 0, got -1" in capsys.readouterr().err
        assert not (tmp_path / "eval").exists()

    def test_annotation_metrics_complete(self, synth_cfg, trained_checkpoint, tmp_path):
        out = tmp_path / "eval"
        code = cli.main(["eval", "--config", str(synth_cfg),
                         "--checkpoint", str(trained_checkpoint),
                         "--split", "annotation", "--out", str(out)])
        assert code == 0
        final = json.loads((out / "final.json").read_text())
        assert set(final) == {"S", "Acc", "P", "R", "F1"}

    def test_render_zero_produces_empty_report(self, synth_cfg, trained_checkpoint,
                                               tmp_path):
        out = tmp_path / "eval0"
        code = cli.main(["eval", "--config", str(synth_cfg),
                         "--checkpoint", str(trained_checkpoint),
                         "--render", "0", "--out", str(out)])
        assert code == 0
        assert (out / "rationales.txt").read_text() == ""

    def test_gold_free_split_omits_prf(self, tmp_path, monkeypatch, trained_checkpoint):
        monkeypatch.setenv(cli.ENV_OUT, str(tmp_path / "runs"))
        corpus = tmp_path / "plain.jsonl"
        with corpus.open("w") as fh:
            for i in range(6):
                label = i % 2
                fh.write(json.dumps({"id": f"d{i}", "label": label,
                                     "text": "fill0 fill1 fill2 fill3"}) + "\n")
        cfg = tmp_path / "jsonl.cfg"
        cfg.write_text(
            f"data = jsonl\ndomain = beer\naspect = aroma\n"
            f"train_path = {corpus}\ndev_path = {corpus}\n"
        )
        out = tmp_path / "evalj"
        code = cli.main(["eval", "--config", str(cfg),
                         "--checkpoint", str(trained_checkpoint),
                         "--split", "dev", "--out", str(out)])
        assert code == 0
        final = json.loads((out / "final.json").read_text())
        assert set(final) == {"S", "Acc"}

    def test_html_render(self, synth_cfg, trained_checkpoint, tmp_path):
        out = tmp_path / "evalh"
        code = cli.main(["eval", "--config", str(synth_cfg),
                         "--checkpoint", str(trained_checkpoint),
                         "--render", "3", "--format", "html", "--out", str(out)])
        assert code == 0
        assert (out / "rationales.html").read_text().startswith("<html>")
