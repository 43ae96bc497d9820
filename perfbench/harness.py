"""Runs one workload for a fixed time and reports its metrics.

One process is one closed-loop client: it sets up the workload, runs one
untimed warm-up job, then repeats the job until the next repeat would end past
`--seconds`.  Each job is split into timed phases; a phase's sample is its work
(examples, documents or probe calls) over its wall time, and a metric is the
lower quartile of its samples (see `lower_quartile`).  `setup_s` is the
median time a fresh interpreter takes to import the library plus the median
of several set-ups.  Output checks
run after each job, outside the timed phases.  A phase that raises or fails a check counts its operations as failed
and gives no sample.

With `--trace 0` no wrapper is installed, and the last stdout line carries the
end-to-end metrics.  With `--trace 1` jobs alternate between traced and
untraced, the last line carries the per-layer metrics of the traced ones, and
`tracing.overhead_pct` compares the wall time of the two kinds.
"""

from __future__ import annotations

import argparse
import contextlib
import ctypes
import glob
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

import numpy as np

from rationalift import cli, data, evaluation, model, objective, training

from . import tracing
from .workloads import WORKLOADS, digest

ROOT = Path(__file__).resolve().parent.parent
OUT_DIR = Path(__file__).resolve().parent / "out"
SETUP_REPEATS = 5  # set-ups, and fresh interpreters timed for the imports

END_TO_END = {
    "setup_s": "s",
    "train_examples_per_s": "1/s",
    "eval_docs_per_s": "1/s",
    "probe_calls_per_s": "1/s",
    "peak_rss_mb": "MB",
}
# figures printed in the report only: they exist on one workload, and the
# last line must carry the same metrics on every workload
REPORT_ONLY = {"pretrain": "pretrain_s", "grid": "grid_wall_s"}


def per_layer_units() -> dict[str, str]:
    """Name -> unit of every per-layer metric, in output order."""
    units: dict[str, str] = {}
    for target in tracing.library_targets(data, model, objective, training, evaluation, cli):
        units[f"{target.name}_s"] = "s"
        units[f"{target.name}.calls"] = "count"
    for name in tracing.INCLUSIVE_SPANS:
        units[f"{name}.incl_s"] = "s"
    for name in tracing.PERCENTILE_SPANS:
        units[f"{name}.p50_ms"] = "ms"
        units[f"{name}.p99_ms"] = "ms"
    units["model.bigru.token_steps"] = "count"
    units["model.bigru.gemm_flops"] = "flop"
    units["model.save_checkpoint.bytes"] = "bytes"
    units["evaluation.evaluate_model.docs"] = "count"
    units["training.pretrain.epochs"] = "count"
    units["cli.artifact_bytes"] = "bytes"
    units["cli.grid.cells"] = "count"
    units["training.train.recurrence_pct"] = "%"
    units["tracing.overhead_pct"] = "%"
    return units


# ---------------------------------------------------------------------------
# One job
# ---------------------------------------------------------------------------


@dataclass
class Phase:
    name: str
    ops: int
    work: float
    metric: Optional[str]
    seconds: float = 0.0
    failed: bool = False


@dataclass
class Iteration:
    """Timed phases, check results and counts of one run of the job."""

    index: int
    traced: bool
    phases: list = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    checks: int = 0
    stray_failures: int = 0
    problems: list = field(default_factory=list)
    wall: float = 0.0
    numerics: dict = field(default_factory=dict)

    @contextlib.contextmanager
    def timed(self, name: str, ops: int, work: float = 0.0, metric: Optional[str] = None):
        """Times one sample of phase `name`; a phase may give several per job."""
        phase = Phase(name, ops, work, metric)
        self.phases.append(phase)
        start = time.perf_counter()
        try:
            yield phase
        except Exception:
            phase.failed = True
            raise
        finally:
            phase.seconds = time.perf_counter() - start

    def check(self, name: str, ok: bool, what: str) -> None:
        """A failed check fails every sample of phase `name` in this job."""
        self.checks += 1
        if ok:
            return
        self.problems.append(f"{name}: {what}")
        hit = [p for p in self.phases if p.name == name]
        for phase in hit:
            phase.failed = True
        if not hit:
            self.stray_failures += 1

    def count(self, name: str, amount: int) -> None:
        self.counts[name] += amount

    @property
    def attempted(self) -> int:
        return sum(p.ops for p in self.phases) + self.stray_failures

    @property
    def failed(self) -> int:
        return sum(p.ops for p in self.phases if p.failed) + self.stray_failures


def run_job(job, index: int, targets, tracer: Optional[tracing.Tracer]) -> Iteration:
    it = Iteration(index, traced=tracer is not None)
    start = time.perf_counter()
    try:
        if tracer is not None:
            tracer.step_losses = []
            tracer.install(index)
        try:
            out = job.run(it)
        finally:
            if tracer is not None:
                tracer.uninstall()
            it.wall = time.perf_counter() - start
        it.numerics = job.check(it, out)
        if tracer is not None:
            it.numerics["step_loss_digest"] = digest(tracer.step_losses)
    except Exception:  # the loop must go on; the failure is counted and printed
        it.problems.append(traceback.format_exc())
        if not any(p.failed for p in it.phases):
            it.stray_failures += 1
    finally:
        job.cleanup()
    left = tracing.installed(targets)
    it.check("tracer", not left, f"wrappers left installed: {left}")
    return it


# ---------------------------------------------------------------------------
# Environment record
# ---------------------------------------------------------------------------


def _blas_runtime_threads() -> Optional[int]:
    """Thread count the loaded OpenBLAS reports, when its library can be found."""
    libs = Path(np.__file__).resolve().parent.parent / "numpy.libs"
    for path in sorted(glob.glob(str(libs / "*openblas*"))):
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def _commit() -> Optional[str]:
    try:
        proc = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True, timeout=10, check=False)
    except (OSError, subprocess.SubprocessError):
        return None
    lines = proc.stdout.split()
    # a checkout without .git may sit inside some other repository
    if proc.returncode != 0 or len(lines) != 2 or Path(lines[0]).resolve() != ROOT:
        return None
    return lines[1]


def environment(workload: str, seed: int, blas_threads: int) -> dict:
    blas = np.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    sources = hashlib.sha256()
    for path in sorted((ROOT / "src" / "rationalift").glob("*.py")):
        sources.update(path.read_bytes())
    return {
        "workload": workload,
        "seed": seed,
        "commit": _commit(),
        "src_sha256": sources.hexdigest()[:16],
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads_pinned": blas_threads,
        "blas_threads_runtime": _blas_runtime_threads(),
        "nproc": len(os.sched_getaffinity(0)),
    }


# ---------------------------------------------------------------------------
# The run
# ---------------------------------------------------------------------------


def lower_quartile(values: list[float]) -> float:
    """The throughput a run sustains in three quarters of its samples.

    The median is not used: on a shared VM the CPU can alternate between two
    speeds about 1.8x apart every few seconds, the share of time at each
    varies from run to run, and the median of a run flips between them.  The
    slow speed held in every run measured, so the lower quartile stays on it."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=4, method="inclusive")[0]


def _spread(values: list[float]) -> str:
    if len(values) < 2:
        return f"n={len(values)}"
    return (f"n={len(values)} min={min(values):.6g} median={statistics.median(values):.6g} "
            f"max={max(values):.6g}")


def import_seconds() -> list[float]:
    """Wall times of fresh interpreters that import the library and numpy."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    times = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "import rationalift.cli"], env=env, check=True,
                       capture_output=True, timeout=60)
        times.append(time.perf_counter() - start)
    return times


def run(workload: str, seed: int, seconds: float, trace: bool, *, shape: str = "full",
        blas_threads: int = 0) -> tuple[dict, list[str], dict]:
    """Returns (result line, report lines, run record)."""
    imports = import_seconds()
    targets = tracing.library_targets(data, model, objective, training, evaluation, cli)
    workdir = OUT_DIR / "work" / f"{workload}-seed{seed}"
    job = WORKLOADS[workload](seed, shape, workdir)
    tracer = tracing.Tracer(targets) if trace else None

    setups = []
    for _ in range(1 if trace else SETUP_REPEATS):
        t0 = time.perf_counter()
        if tracer is not None:
            tracer.install("setup")
        try:
            job.setup()
        finally:
            if tracer is not None:
                tracer.uninstall()
        setups.append(time.perf_counter() - t0)

    warmup = run_job(job, 0, targets, None)
    iterations: list[Iteration] = []
    minimum = 2 if trace else 1  # a traced run needs a traced and an untraced job
    window = time.perf_counter()
    while True:
        traced = trace and len(iterations) % 2 == 0
        it = run_job(job, len(iterations) + 1, targets, tracer if traced else None)
        iterations.append(it)
        if len(iterations) >= minimum and time.perf_counter() - window + it.wall > seconds:
            break

    everything = [warmup] + iterations
    attempted = sum(it.attempted for it in everything)
    failed = sum(it.failed for it in everything)
    checks = sum(it.checks for it in everything)
    problems = [p for it in everything for p in it.problems]
    digests = {it.numerics.get("loss_digest") for it in everything if it.numerics}
    deterministic = len(digests) == 1
    if not deterministic:
        problems.append(f"repeated jobs are not bit-for-bit equal: loss digests {digests}")

    samples: dict[str, list[float]] = {}
    seconds_of: dict[str, list[float]] = {}
    untraced = [it for it in iterations if not it.traced]
    for it in untraced:
        per_job: dict[str, float] = {}
        for phase in it.phases:
            if phase.failed:
                continue
            per_job[phase.name] = per_job.get(phase.name, 0.0) + phase.seconds
            if phase.metric:
                samples.setdefault(phase.metric, []).append(phase.work / phase.seconds)
        for name, total in per_job.items():
            seconds_of.setdefault(name, []).append(total)
    e2e = {
        "setup_s": statistics.median(imports) + statistics.median(setups),
        **{m: lower_quartile(v) for m, v in samples.items()},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }

    if tracer is None:
        metrics = {name: e2e[name] for name in END_TO_END if name in e2e}
        units = END_TO_END
    else:
        metrics = _per_layer(tracer, iterations)
        units = per_layer_units()
    missing = [name for name in units if name not in metrics]
    if missing:
        problems.append(f"no sample for {missing}")
    correct = failed == 0 and not problems and checks > 0
    result = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": float(metrics.get(name, 0.0)), "unit": unit}
                    for name, unit in units.items()},
    }

    env = environment(workload, seed, blas_threads)
    numerics = iterations[-1].numerics or warmup.numerics
    report = [f"# rationalift benchmark: workload={workload} seed={seed} seconds={seconds:g} "
              f"trace={int(trace)} shape={shape}"]
    report.append("# env " + " ".join(f"{k}={v}" for k, v in env.items()))
    report.append(f"# setup_s = {e2e['setup_s']:.6g} s: median import "
                  f"({_spread(imports)}) + median set-up ({_spread(setups)})")
    for name in ("train_examples_per_s", "eval_docs_per_s", "probe_calls_per_s"):
        if name in samples:
            report.append(f"# {name} = {e2e[name]:.6g} 1/s, lower quartile of samples "
                          f"({_spread(samples[name])})")
    for phase, label in REPORT_ONLY.items():
        if phase in seconds_of:
            report.append(f"# {label} = {statistics.median(seconds_of[phase]):.6g} s "
                          f"({_spread(seconds_of[phase])})")
    report.append(f"# peak_rss_mb = {e2e['peak_rss_mb']:.6g} MB")
    report.append(f"# warm-up job {warmup.wall:.4g} s, {len(iterations)} measured jobs "
                  f"({len(untraced)} untraced) in {time.perf_counter() - window:.4g} s")
    report.append(f"# ops attempted={attempted} failed={failed} "
                  f"ops_failed_frac={failed / max(attempted, 1):.6g}; checks run={checks}")
    report.append(f"# numerics (not gated): deterministic={deterministic} " +
                  " ".join(f"{k}={v}" for k, v in numerics.items()))
    if tracer is not None:
        per = tracer.per_job()
        epochs = per.counts.get("training.pretrain.epochs", 0)
        if epochs and "pretrain" in seconds_of:
            n_train = len(job.splits.train)
            rate = epochs * n_train / statistics.median(seconds_of["pretrain"])
            report.append(f"# pretrain_examples_per_s = {rate:.6g} 1/s "
                          f"({epochs:g} epochs x {n_train} examples)")
        for name in ("training.train.recurrence_pct", "tracing.overhead_pct"):
            report.append(f"# {name} = {metrics[name]:.4g} %")
    for problem in problems:
        report.append("# FAILED " + problem.strip().replace("\n", "\n# "))

    record = {
        "env": env,
        "result": result,
        "end_to_end": e2e,
        "samples": samples,
        "phase_seconds": seconds_of,
        "setup_s": setups,
        "imports_s": imports,
        "jobs": [{"index": it.index, "traced": it.traced, "wall": it.wall,
                  "numerics": it.numerics} for it in everything],
        "checks": checks,
        "deterministic": deterministic,
        "problems": problems,
    }
    stem = f"{workload}-seed{seed}-trace{int(trace)}" + ("" if shape == "full" else f"-{shape}")
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"{stem}.json").write_text(json.dumps(record, indent=1, default=str) + "\n",
                                          encoding="utf-8")
    if tracer is not None:
        tracer.write_spans(OUT_DIR / f"{stem}.spans.jsonl")
    return result, report, record


def _per_layer(tracer: tracing.Tracer, iterations: list[Iteration]) -> dict[str, float]:
    per = tracer.per_job()
    out: dict[str, float] = {}
    for target in tracer.targets:
        out[f"{target.name}_s"] = per.self_s.get(target.name, 0.0)
        out[f"{target.name}.calls"] = per.calls.get(target.name, 0)
    for name in tracing.INCLUSIVE_SPANS:
        out[f"{name}.incl_s"] = per.incl_s.get(name, 0.0)
    for name in tracing.PERCENTILE_SPANS:
        values = tracer.latencies.get(name)
        out[f"{name}.p50_ms"] = 1e3 * tracing.percentile(values, 50) if values else 0.0
        out[f"{name}.p99_ms"] = 1e3 * tracing.percentile(values, 99) if values else 0.0
    for name in tracing.COUNTERS:
        out[name] = per.counts.get(name, 0)
    traced = [it for it in iterations if it.traced]
    for name in ("cli.artifact_bytes", "cli.grid.cells"):
        out[name] = statistics.mean(it.counts[name] for it in traced)
    train_s = per.incl_s.get("training.train", 0.0)
    recurrence = sum(per.in_train_s.get(n, 0.0) for n in tracing.RECURRENCE_SPANS)
    out["training.train.recurrence_pct"] = 100 * recurrence / train_s if train_s else 0.0
    traced_wall = statistics.median(it.wall for it in traced)
    untraced_wall = statistics.median(it.wall for it in iterations if not it.traced)
    out["tracing.overhead_pct"] = 100 * (traced_wall / untraced_wall - 1)
    return out


def main(argv: list[str], blas_threads: int) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0 or args.seed < 0:
        parser.error("--seconds must be positive and --seed non-negative")
    result, report, _ = run(args.workload, args.seed, args.seconds, bool(args.trace),
                            blas_threads=blas_threads)
    print("\n".join(report))
    print(json.dumps(result), flush=True)
    return 0
