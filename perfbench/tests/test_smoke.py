"""Smoke test of the benchmark: every workload at a tiny shape, traced and not.

It checks the metric names and units against BENCHMARK.json, that the output
checks ran and passed, and that no tracer wrapper is installed by an untraced
run or outlives a traced one.  It asserts no timing.

    python3 -m pytest perfbench/tests -q
"""

import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[2]
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import harness, tracing  # noqa: E402
from rationalift import cli, data, evaluation, model, objective, training  # noqa: E402

DECLARED = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in DECLARED["workloads"]]
# figures the report prints besides the last line, by workload
REPORTED = {
    "skew-fr": ("pretrain_s",),
    "long-rnp": (),
    "cli-grid": ("grid_wall_s",),
}


def _declared(section: str) -> dict[str, str]:
    return {m["name"]: m["unit"] for m in DECLARED[section]}


def _targets():
    return tracing.library_targets(data, model, objective, training, evaluation, cli)


def test_declared_metrics_match_the_harness():
    assert _declared("end_to_end") == harness.END_TO_END
    assert _declared("per_layer") == harness.per_layer_units()
    assert sorted(WORKLOADS) == sorted(harness.WORKLOADS)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run(workload, monkeypatch):
    def refuse(self, run_id):
        raise AssertionError("an untraced run installed the tracer")

    monkeypatch.setattr(tracing.Tracer, "install", refuse)
    result, report, record = harness.run(workload, seed=3, seconds=0.01, trace=False,
                                         shape="tiny")
    assert {n: m["unit"] for n, m in result["metrics"].items()} == _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())
    assert result["correct"], record["problems"]
    assert result["failed"] == 0 and result["attempted"] > 0
    assert record["checks"] > 0 and record["deterministic"]
    text = "\n".join(report)
    for name in ("ops_failed_frac", "checks run", "loss_digest", "ann_f1", "dev_acc",
                 "blas_threads_pinned", "nproc", *_declared("end_to_end"),
                 *REPORTED[workload]):
        assert name in text
    assert tracing.installed(_targets()) == []


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run(workload):
    result, report, record = harness.run(workload, seed=3, seconds=0.01, trace=True,
                                         shape="tiny")
    metrics = {n: m["value"] for n, m in result["metrics"].items()}
    assert {n: m["unit"] for n, m in result["metrics"].items()} == _declared("per_layer")
    assert result["correct"], record["problems"]
    # each kind of call site is reached: a class attribute, a module global read
    # inside the library, and a name imported into another module
    for name in ("model.bigru.forward", "training.Adam.step", "model.sigmoid",
                 "data.make_batches", "model.loss_and_grads", "evaluation.evaluate_model"):
        assert metrics[f"{name}.calls"] > 0, name
        assert metrics[f"{name}_s"] > 0, name
    assert metrics["model.bigru.token_steps"] > 0 and metrics["model.bigru.gemm_flops"] > 0
    assert metrics["training.train.recurrence_pct"] > 0
    assert (metrics["cli.main.calls"] > 0) == (workload == "cli-grid")
    assert (metrics["training.pretrain.epochs"] > 0) == (workload == "skew-fr")
    assert any("step_loss_digest" in job["numerics"] for job in record["jobs"])
    assert "tracing.overhead_pct" in "\n".join(report)
    assert tracing.installed(_targets()) == []
