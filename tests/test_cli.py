"""CLI contracts: exit codes, manifests, artifact layout, reproducibility."""

import argparse
import json
import multiprocessing
import os
from pathlib import Path

import numpy as np
import pytest

from rationalift import cli
from rationalift import data as dat
from rationalift import model as mdl
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

    @pytest.mark.parametrize("line", ["num_classes = 2", "per_direction = false"])
    def test_removed_model_keys_rejected(self, tmp_path, capsys, line):
        path = tmp_path / "old.cfg"
        path.write_text(TINY_SYNTH + line + "\n")
        assert cli.main(["train", "--config", str(path), "--out", str(tmp_path / "run")]) == 2
        assert line.split()[0] in capsys.readouterr().err

    def test_type_error_names_key(self, tmp_path, capsys):
        path = tmp_path / "bad.cfg"
        path.write_text("epochs = soon\n")
        assert cli.main(["train", "--config", str(path)]) == 2
        assert "epochs" in capsys.readouterr().err


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
        # lr_grid's only if the CLI scores cells by their unrounded F1
        out = tmp_path / "grid4"
        gen_rates, pred_rates, seeds = [2e-3], [1e-3, 4e-4], [0, 1]
        argv = ["grid", "--config", str(synth_cfg), "--gen-rates", "2e-3",
                "--pred-rates", "1e-3,4e-4", "--seeds", "0,1", "--out", str(out),
                "--epochs", "1"]
        assert cli.main(argv) == 0
        cfg = cli.resolve_config(argparse.Namespace(config=str(synth_cfg), epochs=1, mode="rnp"))
        splits, vocab, embeddings, _ = cli.resolve_data(cfg)
        result = training.lr_grid(cli._model_config(cfg), vocab, splits, cli._train_config(cfg),
                                  gen_rates, pred_rates, seeds, embeddings=embeddings)
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
        real_train = training.train

        def train(params, splits, cfg, **kwargs):
            if cfg.seed == 1:  # job 1 of 2: the forked worker's
                raise training.DivergenceError("non-finite loss in the cell of seed 1")
            return real_train(params, splits, cfg, **kwargs)

        monkeypatch.setattr(training, "train", train)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})
        code = cli.main(["grid", "--config", str(synth_cfg), "--gen-rates", "2e-3",
                         "--pred-rates", "1e-3", "--seeds", "0,1",
                         "--out", str(tmp_path / "grid"), "--epochs", "1"])
        assert code == 3
        assert "cell of seed 1" in capsys.readouterr().err
        assert multiprocessing.active_children() == []
        assert not (tmp_path / "grid" / "grid.json").exists()

    def test_empty_rate_list_exits_2(self, synth_cfg, capsys):
        assert cli.main(["grid", "--config", str(synth_cfg), "--gen-rates", "",
                         "--pred-rates", "1e-3"]) == 2

    def test_unparsable_seed_list_exits_2(self, synth_cfg, capsys):
        assert cli.main(["grid", "--config", str(synth_cfg), "--gen-rates", "1e-3",
                         "--pred-rates", "1e-3", "--seeds", "0,one"]) == 2
        assert "--seeds" in capsys.readouterr().err


class TestExitCodes:
    def test_invalid_model_config_exits_2(self, synth_cfg, tmp_path, capsys):
        code = cli.main(["train", "--config", str(synth_cfg), "--share-depth", "3",
                         "--out", str(tmp_path / "bad")])
        assert code == 2
        assert "share_depth" in capsys.readouterr().err

    def test_invalid_train_config_exits_2(self, synth_cfg, tmp_path, capsys):
        code = cli.main(["train", "--config", str(synth_cfg), "--lr-gen", "0",
                         "--out", str(tmp_path / "bad")])
        assert code == 2
        assert "learning rates" in capsys.readouterr().err

    def test_invalid_skew_config_exits_2(self, tmp_path, capsys):
        path = tmp_path / "skew.cfg"
        path.write_text(TINY_SYNTH + "skew_batch_size = 0\n")
        code = cli.main(["skew", "--config", str(path), "--kind", "generator", "--k", "0.6",
                         "--out", str(tmp_path / "bad")])
        assert code == 2
        assert "batch_size" in capsys.readouterr().err

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
