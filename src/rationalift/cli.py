"""Command-line entry point tying the library into reproducible experiments.

Every training run (train, skew, a grid cell) writes a manifest (command,
resolved config, seed, the paths of the files it writes) before training
starts, a metrics JSON-lines stream with one record per epoch, a checkpoint,
a mask dump and a final metrics JSON.  Config precedence is CLI flag >
config file > default; a key's default is that of the config-object field it
feeds (CONFIG_SCHEMA), and the manifest echoes the fully resolved config so a
run can be replayed without the original shell invocation.

Each command takes only the flags it reads (see `build_parser`), so a flag it
would ignore exits 2: grid cells are two-phase (a config's share_depth other
than 0 exits 2 too), with rates from --gen-rates and --pred-rates, and eval and
probe read only a config's corpus keys.  A given share_depth must agree with a
set mode: --mode fr means share_depth = num_layers, --mode rnp and grid 0.

Exit codes: 0 ok, 2 usage, config or corpus error (ConfigError, CorpusError,
FileNotFoundError), 3 training failure (DivergenceError: a non-finite loss or
gradient; PretrainThresholdError: skew pretraining that never passes --k).
Any other exception is a bug and propagates with its traceback (Python exits 1).
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import sys
import time
from contextlib import contextmanager
from dataclasses import MISSING, fields
from pathlib import Path
from typing import Optional, Sequence, get_type_hints

from . import data, evaluation, model as mdl, objective as obj, training

ENV_OUT = "RATIONALIFT_OUT"


class ConfigError(ValueError):
    pass


# the keys with a default of their own: those that feed no defaulted
# config-object field, and share_depth, whose None follows --mode
_OWN_KEYS: dict[str, tuple[type, object]] = {
    "share_depth": (int, None),  # None -> the mode's preset: num_layers (fr) or 0 (rnp)
    "skew_kind": (str, None),
    "skew_k": (float, None),
    "data": (str, "synth"),
    "min_freq": (int, 1),
    "embeddings_path": (str, None),
    "train_path": (str, None),
    "dev_path": (str, None),
    "annotation_path": (str, None),
    "aspect": (str, ""),
    "domain": (str, None),
}

# the config objects whose fields are keys, each with its key prefix and the
# fields the CLI gives itself
_CONFIG_OBJECTS = (
    (mdl.ModelConfig, "", ()),
    (obj.ObjectiveConfig, "", ()),
    (training.TrainConfig, "", ("objective",)),
    (training.SkewConfig, "skew_", ("mode", "seed")),
    (data.SynthConfig, "synth_", ()),
)


def _field_keys() -> dict[str, tuple[type, object]]:
    """key -> (type, default) for each field with a default value."""
    keys = {}
    for cls, prefix, given in _CONFIG_OBJECTS:
        types = get_type_hints(cls)
        for f in fields(cls):
            if f.name not in given and f.default is not MISSING:
                keys[prefix + f.name] = (types[f.name], f.default)
    return keys


# key -> (type, default); booleans accept true/false/1/0/yes/no
CONFIG_SCHEMA: dict[str, tuple[type, object]] = {**_field_keys(), **_OWN_KEYS}


def _parse_value(key: str, raw: str):
    typ, default = CONFIG_SCHEMA[key]
    raw = raw.strip()
    if raw.lower() in ("none", ""):
        if default is not None:
            raise ConfigError(
                f"config key {key!r}: got {raw!r}, but it takes a value (leave the key out "
                f"for its default {default!r})"
            )
        return None
    if typ is bool:
        if raw.lower() in ("1", "true", "yes", "on"):
            return True
        if raw.lower() in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"config key {key!r}: cannot parse boolean from {raw!r}")
    try:
        value = typ(raw)
    except ValueError:
        raise ConfigError(f"config key {key!r}: cannot parse {typ.__name__} from {raw!r}") from None
    if typ is float and not math.isfinite(value):
        raise ConfigError(f"config key {key!r}: {raw!r} is not a finite number")
    return value


def read_config_file(path: str | Path) -> dict:
    """Flat key=value config; '#' starts a comment."""
    path = Path(path)
    if not path.exists():
        raise ConfigError(f"config file not found: {path}")
    values: dict = {}
    for lineno, line in enumerate(path.read_text(encoding="utf-8").splitlines(), start=1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
        key, raw = (part.strip() for part in line.split("=", 1))
        if key not in CONFIG_SCHEMA:
            raise ConfigError(f"{path}:{lineno}: unknown config key {key!r}")
        values[key] = _parse_value(key, raw)
    return values


def resolve_config(args: argparse.Namespace) -> dict:
    """Defaults, then the config file, then each parsed flag whose dest is a
    config key and that was given.  A set mode (--mode, or the grid's rnp)
    presets share_depth, and a share_depth given that differs is a ConfigError."""
    cfg = {key: default for key, (_, default) in CONFIG_SCHEMA.items()}
    if getattr(args, "config", None):
        cfg.update(read_config_file(args.config))
    cfg.update({k: v for k, v in vars(args).items() if k in CONFIG_SCHEMA and v is not None})
    mode = getattr(args, "mode", None)
    preset = 0 if mode == "rnp" else cfg["num_layers"]  # fr is the default
    if cfg["share_depth"] is None:
        cfg["share_depth"] = preset
    elif mode is not None and cfg["share_depth"] != preset:
        raise ConfigError(f"share_depth = {cfg['share_depth']} conflicts with mode {mode}, "
                          f"which sets share_depth = {preset}")
    cfg["mode"] = "rnp" if cfg["share_depth"] == 0 else (
        "fr" if cfg["share_depth"] == cfg["num_layers"] else f"partial{cfg['share_depth']}"
    )
    return cfg


@contextmanager
def _as_config_error():
    """Report a config object's or the grid's validation failure, or a
    checkpoint this version cannot load, as a user-facing ConfigError."""
    try:
        yield
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc


def _config(cls, cfg: dict, prefix: str = "", **given):
    """A `cls` instance whose fields not `given` read the config keys
    `prefix + field name`; a validation failure is a ConfigError."""
    values = {f.name: cfg[prefix + f.name] for f in fields(cls) if f.name not in given}
    with _as_config_error():
        return cls(**values, **given)


def _model_config(cfg: dict) -> mdl.ModelConfig:
    return _config(mdl.ModelConfig, cfg)


def _train_config(cfg: dict) -> training.TrainConfig:
    return _config(training.TrainConfig, cfg, objective=_config(obj.ObjectiveConfig, cfg))


def _skew_config(cfg: dict) -> training.SkewConfig:
    return _config(training.SkewConfig, cfg, "skew_", mode=f"skewed_{cfg['skew_kind']}",
                   seed=cfg["seed"])


def resolve_data(cfg: dict):
    """Returns (splits, vocab, embeddings-or-None, token_classes-or-None)."""
    if cfg["data"] == "synth":
        synth = _config(data.SynthConfig, cfg, "synth_")
        splits = data.synth_generate(synth)
        vocab = data.build_vocab(splits.train, min_freq=cfg["min_freq"])
        return splits, vocab, None, synth.token_classes()
    if cfg["data"] == "jsonl":
        if not cfg["train_path"] or not cfg["dev_path"]:
            raise ConfigError("jsonl data needs train_path and dev_path")
        domain = cfg["domain"]
        train = data.load_reviews(
            cfg["train_path"], cfg["aspect"], domain, split="train", seed=cfg["seed"]
        )
        dev = data.load_reviews(cfg["dev_path"], cfg["aspect"], domain, split="dev")
        annotation = None
        if cfg["annotation_path"]:
            annotation = data.load_annotations(cfg["annotation_path"], domain, cfg["aspect"])
        splits = data.Splits(train=train, dev=dev, annotation=annotation)
        vocab = data.build_vocab(train, min_freq=cfg["min_freq"])
        embeddings = None
        if cfg["embeddings_path"]:
            embeddings = data.load_embeddings(
                cfg["embeddings_path"], vocab, cfg["embedding_dim"], seed=cfg["seed"]
            )
        return splits, vocab, embeddings, None
    raise ConfigError(f"unknown data kind {cfg['data']!r} (expected synth or jsonl)")


# ---------------------------------------------------------------------------
# Run directory plumbing
# ---------------------------------------------------------------------------


def _out_root() -> Path:
    return Path(os.environ.get(ENV_OUT, "runs"))


def _run_dir(args: argparse.Namespace, cfg: dict, command: str) -> Path:
    if getattr(args, "out", None):
        return Path(args.out)
    stem = Path(args.config).stem if getattr(args, "config", None) else cfg["data"]
    return _out_root() / f"{command}-{stem}-{cfg['mode']}-seed{cfg['seed']}"


# each artifact's file within its run directory: writers and manifests read
# the names here
ARTIFACTS = {
    "metrics": "metrics.jsonl", "checkpoint": "checkpoint.npz", "masks": "masks.jsonl",
    "final": "final.json", "grid_csv": "grid.csv", "grid_txt": "grid.txt",
    "grid_json": "grid.json", "train_corpus": "data/train.jsonl",
    "dev_corpus": "data/dev.jsonl", "annotation_corpus": "data/annotation.jsonl",
}
RUN_ARTIFACTS = ("metrics", "checkpoint", "masks", "final")  # what `_run_training` writes


def write_manifest(
    out_dir: Path, command: str, argv: Sequence[str], cfg: dict, artifacts: Sequence[str],
    extra: Optional[dict] = None,
) -> Path:
    """Write `manifest.json`, listing the files of the `artifacts` it names."""
    out_dir.mkdir(parents=True, exist_ok=True)
    manifest = {
        "command": command,
        "argv": list(argv),
        "resolved_config": {k: cfg[k] for k in sorted(cfg)},
        "seed": cfg["seed"],
        "out_dir": str(out_dir),
        "artifacts": {name: str(out_dir / ARTIFACTS[name]) for name in artifacts},
        "created_at": time.strftime("%Y-%m-%dT%H:%M:%S"),
    }
    if extra:
        manifest.update(extra)
    path = out_dir / "manifest.json"
    _write_json(path, manifest, indent=2)
    return path


def _write_text(path: Path, text: str) -> None:
    with data.atomic_write(path) as fh:
        fh.write(text)


def _write_json(path: Path, value, indent: Optional[int] = None) -> None:
    _write_text(path, json.dumps(value, indent=indent, sort_keys=True) + "\n")


def _amend_manifest(out_dir: Path, extra: dict) -> None:
    path = out_dir / "manifest.json"
    manifest = json.loads(path.read_text(encoding="utf-8"))
    manifest.update(extra)
    _write_json(path, manifest, indent=2)


def _write_metrics_stream(out_dir: Path, history: training.TrainHistory) -> None:
    with data.atomic_write(out_dir / ARTIFACTS["metrics"]) as fh:
        for record in history:
            fh.write(json.dumps(record.to_json_dict(), sort_keys=True) + "\n")


def _write_final(out_dir: Path, run: evaluation.EvalRun) -> None:
    with data.atomic_write(out_dir / ARTIFACTS["masks"]) as fh:
        for ex_id, mask in zip(run.ids, run.masks):
            fh.write(
                json.dumps({"id": ex_id, "mask": "".join(str(int(m)) for m in mask)}) + "\n"
            )
    # final.json is written last: a run that has it is complete
    _write_json(out_dir / ARTIFACTS["final"], run.metrics.as_json_dict())


def _synth_corpora(cfg: dict, splits: data.Splits) -> dict[str, data.Dataset]:
    """The splits a run writes out, by artifact name: a synthetic corpus's."""
    if cfg["data"] != "synth":
        return {}
    named = (("train_corpus", splits.train), ("dev_corpus", splits.dev),
             ("annotation_corpus", splits.annotation))
    return {name: dataset for name, dataset in named if dataset is not None}


def _final_split(splits: data.Splits) -> data.Dataset:
    return splits.annotation if splits.annotation is not None else splits.dev


def _run_training(
    out_dir: Path,
    cfg: dict,
    train_cfg: training.TrainConfig,
    params: mdl.ModelParams,
    splits: data.Splits,
    token_classes,
) -> evaluation.EvalRun:
    """Train, then write the run's metrics stream, checkpoint, masks and final
    metrics; final.json comes last.  Masks and final metrics are the selected
    epoch's evaluation of its final split during training, not a second pass."""
    best, history = training.train(params, splits, train_cfg, token_classes=token_classes)
    _write_metrics_stream(out_dir, history)
    run = next(r.final_run for r in history if r.final_run is not None)
    mdl.save_checkpoint(out_dir / ARTIFACTS["checkpoint"], best, meta={"config": cfg})
    _write_final(out_dir, run)
    return run


def _train_run(
    args: argparse.Namespace, argv: Sequence[str], cfg: dict, command: str, run_name: str,
    pretrain=None,
) -> int:
    """The set-up and run shared by train and skew: config objects, data, run
    directory, manifest, corpora, the model, an optional `pretrain(params,
    splits, token_classes) -> manifest entries` (written before training),
    then `_run_training`.  A rejected config stops it before anything is written."""
    model_cfg, train_cfg = _model_config(cfg), _train_config(cfg)
    splits, vocab, embeddings, token_classes = resolve_data(cfg)
    out_dir = _run_dir(args, cfg, run_name)
    corpora = _synth_corpora(cfg, splits)
    write_manifest(out_dir, command, argv, cfg, [*RUN_ARTIFACTS, *corpora])
    for name, dataset in corpora.items():
        data.write_jsonl(dataset, out_dir / ARTIFACTS[name])
    params = mdl.build_model(model_cfg, vocab, embeddings=embeddings, seed=cfg["seed"])
    if pretrain is not None:
        _amend_manifest(out_dir, pretrain(params, splits, token_classes))
    run = _run_training(out_dir, cfg, train_cfg, params, splits, token_classes)
    print(json.dumps(run.metrics.as_json_dict(), sort_keys=True))
    return 0


def cmd_train(args: argparse.Namespace, argv: Sequence[str]) -> int:
    return _train_run(args, argv, resolve_config(args), "train", "train")


def cmd_skew(args: argparse.Namespace, argv: Sequence[str]) -> int:
    cfg = resolve_config(args)
    skew_cfg = _skew_config(cfg)
    kind, k = cfg["skew_kind"], cfg["skew_k"]

    def pretrain(params: mdl.ModelParams, splits: data.Splits, token_classes) -> dict:
        extra: dict = {"skew": {"kind": kind, "k": k}}
        if kind == "generator":
            extra["pre_acc"] = training.pretrain_skewed_generator(params, splits, skew_cfg)[1]
        else:
            training.pretrain_skewed_predictor(params, splits, skew_cfg, token_classes)
            extra["pretrain_epochs"] = int(k)
        return extra

    return _train_run(args, argv, cfg, "skew", f"skew-{kind}{k:g}", pretrain)


def _parse_list(raw: str, flag: str, typ: type) -> list:
    try:
        values = [typ(v) for v in raw.split(",") if v.strip()]
    except ValueError:
        raise ConfigError(f"{flag}: cannot parse {raw!r} as a list of {typ.__name__}") from None
    if not values:
        raise ConfigError(f"{flag} must list at least one value")
    return values


def cmd_grid(args: argparse.Namespace, argv: Sequence[str]) -> int:
    cfg = resolve_config(args)
    gen_rates = _parse_list(args.gen_rates, "--gen-rates", float)
    pred_rates = _parse_list(args.pred_rates, "--pred-rates", float)
    seeds = _parse_list(args.seeds, "--seeds", int)
    for flag, names in (("--gen-rates", [f"{v:g}" for v in gen_rates]),
                        ("--pred-rates", [f"{v:g}" for v in pred_rates]),
                        ("--seeds", [str(v) for v in seeds])):
        if len(set(names)) < len(names):  # as cell directories spell them, two would share one
            raise ConfigError(f"{flag} repeats a value: {','.join(names)}")
    model_cfg, base_cfg = _model_config(cfg), _train_config(cfg)
    with _as_config_error():  # before the data is read
        training.grid_cells(model_cfg, base_cfg, gen_rates, pred_rates, seeds)
    splits, vocab, embeddings, token_classes = resolve_data(cfg)
    with _as_config_error():  # before any write
        training.check_grid_splits(splits)
    out_dir = _run_dir(args, cfg, "grid")
    write_manifest(out_dir, "grid", argv, cfg, ("grid_csv", "grid_txt", "grid_json"),
                   extra={"grid": {"gen_rates": gen_rates, "pred_rates": pred_rates,
                                   "seeds": seeds}})

    def run_cell(
        params: mdl.ModelParams, splits: data.Splits, train_cfg: training.TrainConfig
    ) -> float:
        """Train one cell into its own directory and score it by its final.json
        F1; a finished cell built from the same resolved config is read back."""
        lg, lp, seed = train_cfg.lr_gen, train_cfg.lr_pred, train_cfg.seed
        cell_cfg = dict(cfg, lr_gen=lg, lr_pred=lp, seed=seed)
        cell_dir = out_dir / f"cell-g{lg:g}-p{lp:g}-s{seed}"
        manifest, final = cell_dir / "manifest.json", cell_dir / ARTIFACTS["final"]
        if manifest.exists() and final.exists():
            if json.loads(manifest.read_text(encoding="utf-8"))["resolved_config"] == cell_cfg:
                return json.loads(final.read_text(encoding="utf-8"))["F1"]
        final.unlink(missing_ok=True)  # a stale result must not outlive the new manifest
        write_manifest(cell_dir, "train", argv, cell_cfg, RUN_ARTIFACTS)
        run = _run_training(cell_dir, cell_cfg, train_cfg, params, splits, token_classes)
        return run.metrics.f1

    median = training.lr_grid(
        model_cfg, vocab, splits, base_cfg, gen_rates, pred_rates, seeds,
        embeddings=embeddings, run_cell=run_cell,
    ).median_f1
    with data.atomic_write(out_dir / ARTIFACTS["grid_csv"]) as fh:
        writer = csv.writer(fh)
        writer.writerow(["lr_gen\\lr_pred"] + [f"{lp:g}" for lp in pred_rates])
        for i, lg in enumerate(gen_rates):
            writer.writerow([f"{lg:g}"] + [f"{median[i, j]:.6f}" for j in range(len(pred_rates))])
    lines = ["lr_gen\\lr_pred  " + "  ".join(f"{lp:>10g}" for lp in pred_rates)]
    for i, lg in enumerate(gen_rates):
        lines.append(
            f"{lg:>13g}  " + "  ".join(f"{median[i, j]:>10.4f}" for j in range(len(pred_rates)))
        )
    table = "\n".join(lines)
    _write_text(out_dir / ARTIFACTS["grid_txt"], table + "\n")
    summary = {"gen_rates": gen_rates, "pred_rates": pred_rates, "median_f1": median.tolist()}
    _write_json(out_dir / ARTIFACTS["grid_json"], summary)
    print(table)
    return 0


DEFAULT_PROBE_SENTENCES = ("good . , smell", "good , . smell")


def _probe_sentences(
    args, params, token_classes, splits
) -> tuple[list[list[str]], list[list[str]]]:
    if args.sentence:
        sentences = [s.split() for s in args.sentence]
        return sentences, [list(data.classify_tokens(s, token_classes)) for s in sentences]
    defaults = [s.split() for s in DEFAULT_PROBE_SENTENCES]
    if all(t in params.vocab for s in defaults for t in s):
        return defaults, [list(data.classify_tokens(s)) for s in defaults]
    if token_classes is not None and splits is not None:
        # synthetic corpora: probe real documents, which carry designated
        # filler/informative tokens in-distribution
        docs = list(_final_split(splits))[: args.max_examples]
        sentences = [list(ex.tokens) for ex in docs]
        return sentences, [list(data.classify_tokens(s, token_classes)) for s in sentences]
    raise ConfigError(
        "default probe tokens are not in the checkpoint vocabulary; pass --sentence"
    )


def cmd_probe(args: argparse.Namespace, argv: Sequence[str]) -> int:
    cfg = resolve_config(args)
    if args.max_examples < 1:
        raise ConfigError(f"--max-examples must be at least 1, got {args.max_examples}")
    with _as_config_error():  # FileNotFoundError names the path
        params, _ = mdl.load_checkpoint(args.checkpoint)
    token_classes = None
    needs_corpus = args.probe in ("insertion", "uninformative")
    splits = None
    if needs_corpus or cfg["data"] == "synth":
        splits, _, _, token_classes = resolve_data(cfg)
    if args.probe == "lemma3":
        sentences, classes = _probe_sentences(args, params, token_classes, splits)
        report = evaluation.lemma3_probe(params, sentences, classes)
    elif args.probe == "insertion":
        assert splits is not None
        dataset = _final_split(splits)
        examples = list(dataset)[: args.max_examples]
        if token_classes is not None:
            fillers = sorted(t for t, c in token_classes.items() if c == data.CLASS_FILLER)
            token = args.token or fillers[0]
        else:
            token = args.token or "."
        report = evaluation.insertion_probe(params, examples, token)
    else:  # uninformative
        assert splits is not None
        if token_classes is None:
            raise ConfigError("the uninformative probe needs a synthetic corpus")
        dataset = _final_split(splits)
        report = evaluation.uninformative_rationale_probe(
            params, dataset, token_classes, max_examples=args.max_examples
        )
    out_dir = Path(args.out) if args.out else _out_root() / f"probe-{args.probe}"
    out_dir.mkdir(parents=True, exist_ok=True)
    _write_text(out_dir / "probe.json", report.to_json() + "\n")
    _write_text(out_dir / "probe.html", evaluation.render_probe_html(report))
    print(json.dumps(report.summary, sort_keys=True))
    return 0


def cmd_eval(args: argparse.Namespace, argv: Sequence[str]) -> int:
    cfg = resolve_config(args)
    if args.render is not None and args.render < 0:
        raise ConfigError(f"--render must be at least 0, got {args.render}")
    with _as_config_error():
        params, _ = mdl.load_checkpoint(args.checkpoint)
    splits, _, _, _ = resolve_data(cfg)
    dataset = {"train": splits.train, "dev": splits.dev, "annotation": splits.annotation}[
        args.split
    ]
    if dataset is None:
        raise ConfigError(f"no {args.split} split available")
    out_dir = Path(args.out) if args.out else _out_root() / f"eval-{args.split}"
    out_dir.mkdir(parents=True, exist_ok=True)
    run = evaluation.evaluate_model(params, dataset)
    _write_final(out_dir, run)
    if args.render is not None:
        report = evaluation.render_rationales(
            list(dataset), run.masks, n=args.render, fmt=args.format
        )
        suffix = "html" if args.format == "html" else "txt"
        _write_text(out_dir / f"rationales.{suffix}", report)
    print(json.dumps(run.metrics.as_json_dict(), sort_keys=True))
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rationalift",
        description="Cooperative selective rationalization experiments",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p: argparse.ArgumentParser, trains: bool = False,
                   picks_model: bool = False) -> None:
        """The flags a command reads: every command --config, --seed and --out;
        one that trains also --epochs and --alpha; one that picks its model's
        sharing and learning rates (train, skew) also --mode, --share-depth,
        --lr-gen and --lr-pred."""
        p.add_argument("--config", help="flat key=value config file")
        p.add_argument("--seed", type=int)
        p.add_argument("--out", help="output directory (default under $RATIONALIFT_OUT)")
        if trains:
            p.add_argument("--epochs", type=int)
            p.add_argument("--alpha", type=float)
        if picks_model:
            p.add_argument("--mode", choices=["fr", "rnp"], help="encoder sharing preset")
            p.add_argument("--share-depth", type=int)
            p.add_argument("--lr-gen", type=float)
            p.add_argument("--lr-pred", type=float)

    p_train = sub.add_parser("train", help="joint cooperative training")
    add_common(p_train, trains=True, picks_model=True)
    p_train.set_defaults(func=cmd_train)

    p_skew = sub.add_parser("skew", help="skew pretraining followed by joint training")
    add_common(p_skew, trains=True, picks_model=True)
    p_skew.add_argument("--kind", dest="skew_kind", choices=["generator", "predictor"],
                        required=True)
    p_skew.add_argument(
        "--k", dest="skew_k", metavar="K", type=float, required=True,
        help="accuracy threshold (generator) or whole number of epochs (predictor)",
    )
    p_skew.set_defaults(func=cmd_skew)

    p_grid = sub.add_parser("grid", help="learning-rate grid for the two-phase baseline")
    add_common(p_grid, trains=True)
    p_grid.add_argument("--gen-rates", dest="gen_rates", required=True)
    p_grid.add_argument("--pred-rates", dest="pred_rates", required=True)
    p_grid.add_argument("--seeds", default="0")
    p_grid.set_defaults(func=cmd_grid, mode="rnp")  # the grid is the two-phase baseline

    p_probe = sub.add_parser("probe", help="representation probes on a checkpoint")
    add_common(p_probe)
    p_probe.add_argument("--checkpoint", required=True)
    p_probe.add_argument(
        "--probe", choices=["lemma3", "insertion", "uninformative"], required=True
    )
    p_probe.add_argument("--sentence", action="append", help="probe sentence (repeatable)")
    p_probe.add_argument("--token", help="token to insert (insertion probe)")
    p_probe.add_argument("--max-examples", dest="max_examples", type=int, default=20)
    p_probe.set_defaults(func=cmd_probe)

    p_eval = sub.add_parser("eval", help="evaluate a checkpoint; optionally render rationales")
    add_common(p_eval)
    p_eval.add_argument("--checkpoint", required=True)
    p_eval.add_argument("--split", choices=["train", "dev", "annotation"], default="annotation")
    p_eval.add_argument("--render", type=int, help="render the first N rationales")
    p_eval.add_argument("--format", choices=["ansi", "html"], default="ansi")
    p_eval.set_defaults(func=cmd_eval)
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args, argv)
    except (training.DivergenceError, training.PretrainThresholdError) as exc:
        print(f"training failure: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, data.CorpusError, FileNotFoundError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
