"""Smoke tests for the shipped configs and demos, without running a demo."""

import argparse
import ast
import importlib
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import rationalift
from rationalift import cli, data, evaluation, model, objective, training

ROOT = Path(__file__).resolve().parent.parent
CONFIGS = sorted((ROOT / "configs").glob("*.cfg"))
DEMOS = sorted((ROOT / "demos").glob("*.py"))


def _names(paths):
    return [p.name for p in paths]


def test_configs_and_demos_present():
    assert CONFIGS and DEMOS


@pytest.mark.parametrize("path", CONFIGS, ids=_names(CONFIGS))
def test_config_parses_and_builds(path):
    assert cli.read_config_file(path)
    # the skew preset's usage line passes --kind generator --k 0.9
    cfg = cli.resolve_config(argparse.Namespace(config=str(path), skew_kind="generator",
                                                skew_k=0.9))
    cli._model_config(cfg)
    cli._train_config(cfg)
    cli._config(data.SynthConfig, cfg, "synth_")
    if path.stem.startswith("synth_skew"):
        cli._skew_config(cfg)


def _documented_commands() -> list[str]:
    """The `rationalift ...` lines of the README's CLI block, continuations
    joined, and the `# rationalift ...` usage comments of the configs."""
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    block = readme.split("\n## CLI\n", 1)[1].split("```bash\n", 1)[1].split("```", 1)[0]
    lines = [" ".join(line.split()) for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("rationalift ")]
    for path in CONFIGS:
        lines += [line[2:] for line in path.read_text(encoding="utf-8").splitlines()
                  if line.startswith("# rationalift ")]
    return lines


DOCUMENTED = _documented_commands()


def test_every_command_documented():
    assert {line.split()[1] for line in DOCUMENTED} == {"train", "skew", "grid", "eval", "probe"}


@pytest.mark.parametrize("line", DOCUMENTED)
def test_documented_command_parses(line):
    """A documented command line that uses a flag its command does not take
    (argparse exits 2) fails here."""
    cli.build_parser().parse_args(shlex.split(line)[1:])


def _rationalift_imports(path: Path):
    """(module, name) for every `from rationalift... import name`; name is None
    for a plain `import rationalift...`."""
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"), filename=str(path))):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "rationalift":
            yield from ((node.module, alias.name) for alias in node.names)
        elif isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "rationalift":
                    yield alias.name, None


@pytest.mark.parametrize("path", DEMOS, ids=_names(DEMOS))
def test_demo_imports_exist(path):
    imports = list(_rationalift_imports(path))
    assert imports, f"{path.name} imports nothing from rationalift"
    for module_name, name in imports:
        module = importlib.import_module(module_name)
        if name is not None:
            assert hasattr(module, name), f"{path.name}: {module_name} has no {name!r}"


def test_benchmark_trace_sites_exist(monkeypatch):
    """Every (owner, attribute) site the benchmark's tracer wraps exists, and a
    BiGRU layer has the attributes its hooks read, so renaming one fails here
    rather than in a benchmark run.  perfbench/ is only read."""
    monkeypatch.syspath_prepend(str(ROOT))
    tracing = importlib.import_module("perfbench.tracing")
    targets = tracing.library_targets(data, model, objective, training, evaluation, cli)
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for target in targets
        for owner, attr in target.sites
        if attr not in vars(owner)
    ]
    assert not missing
    layer = model.BiGRULayer("probe", 4, 3, np.random.default_rng(0))
    assert (layer.fw.hidden, layer.input_dim) == (3, 4)


LIBRARY_MODULES = {"cli": cli, "data": data, "evaluation": evaluation, "model": model,
                   "objective": objective, "training": training}


def _module_attributes(path: Path):
    """(module, name) for every `<module>.<name>` read in `path` whose
    `<module>` is one of LIBRARY_MODULES."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                and node.value.id in LIBRARY_MODULES):
            yield node.value.id, node.attr


@pytest.mark.parametrize("name", ["workloads.py", "harness.py"])
def test_benchmark_library_names_exist(name):
    """Every `<module>.<name>` the benchmark reads, and every name it imports
    from rationalift, exists, so removing or renaming one fails here rather
    than in a benchmark run.  perfbench/ is only read."""
    path = ROOT / "perfbench" / name
    for module_name, attr in _rationalift_imports(path):
        module = importlib.import_module(module_name)
        assert attr is None or hasattr(module, attr), f"{name}: {module_name} has no {attr!r}"
    missing = sorted({f"{mod}.{attr}" for mod, attr in _module_attributes(path)
                      if not hasattr(LIBRARY_MODULES[mod], attr)})
    assert not missing, f"{name} reads names the library lacks: {missing}"


def test_src_has_no_unused_imports():
    """Every name a library module imports is read in that module; the
    `from __future__ import annotations` switch is not a name."""
    unused = {}
    for path in sorted((ROOT / "src" / "rationalift").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
        imported = {alias.asname or alias.name.split(".")[0]
                    for node in ast.walk(tree) if isinstance(node, (ast.Import, ast.ImportFrom))
                    for alias in node.names}
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        names = sorted(imported - read - {"annotations"})
        if names:
            unused[path.name] = names
    assert unused == {}


def test_readme_library_tour_imports_exist():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    tour = readme.split("\n## Library tour\n", 1)[1].split("```python\n", 1)[1].split("```", 1)[0]
    names = [alias.name for node in ast.walk(ast.parse(tour))
             if isinstance(node, ast.ImportFrom) and node.module == "rationalift"
             for alias in node.names]
    assert names
    assert [n for n in names if not hasattr(rationalift, n)] == []


def test_import_is_lean():
    """`import rationalift` loads neither `multiprocessing` nor
    `concurrent.futures`: the modules that start processes import them where
    they are used, which keeps the CLI's start-up short."""
    env = {**os.environ, "PYTHONPATH": str(Path(rationalift.__file__).resolve().parent.parent)}
    probe = ("import sys, rationalift; "
             "print(sorted(m for m in ('multiprocessing', 'concurrent.futures') "
             "if m in sys.modules))")
    out = subprocess.run([sys.executable, "-c", probe], env=env, capture_output=True,
                         text=True, check=True).stdout
    assert out.strip() == "[]"
