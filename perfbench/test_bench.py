"""Smoke test of the benchmark at tiny sizes.

    python3 -m pytest -q perfbench/test_bench.py

Runs every workload untraced and traced, checks that the printed metric
names and units match BENCHMARK.json, that the traced self times add up
to the traced job's wall time, and that the benchmark refuses to run
without the library's sources.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
import workloads  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
TINY = dict(topics=5, vocab=40, docs_per_slice=30, doc_len=12, iterations=3)
OVERLAPS = ("engine.block_overlap_s", "cluster.worker_overlap_s")
NOT_SELF = ("bench.wall_s", "bench.unattributed_s") + OVERLAPS


@pytest.fixture
def tiny(monkeypatch, tmp_path):
    monkeypatch.setattr(run, "CACHE", tmp_path / "cache")
    monkeypatch.setattr(run, "SETUP_MIN_S", 0.0)
    monkeypatch.setattr(workloads, "WORKLOADS", {
        name: dataclasses.replace(wl, **TINY) for name, wl in workloads.WORKLOADS.items()})


def _measure(capsys, name: str, trace: int) -> dict:
    wl = workloads.WORKLOADS[name]
    workloads.ensure_corpus(wl, 7, run.CACHE / "inputs")
    assert run.measure(argparse.Namespace(workload=name, seed=7, seconds=0.1, trace=trace)) == 0
    out = capsys.readouterr().out.strip().splitlines()
    result = json.loads(out[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and 0 <= result["failed"] <= result["attempted"]
    return result


def test_workloads_match_spec():
    assert [(w["name"], w["why"]) for w in SPEC["workloads"]] == \
        [(wl.name, wl.why) for wl in workloads.WORKLOADS.values()]


@pytest.mark.parametrize("name", ["wide-vocab", "many-docs", "slice-workers"])
def test_end_to_end_metrics(tiny, capsys, name):
    metrics = _measure(capsys, name, trace=0)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == \
        {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(v["value"] > 0 for v in metrics.values())


@pytest.mark.parametrize("name", ["wide-vocab", "many-docs", "slice-workers"])
def test_traced_self_times_add_up(tiny, capsys, name):
    metrics = _measure(capsys, name, trace=1)["metrics"]
    assert {k: v["unit"] for k, v in metrics.items()} == \
        {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    value = {k: v["value"] for k, v in metrics.items()}
    self_times = [v for k, v in value.items()
                  if metrics[k]["unit"] == "s" and k not in NOT_SELF]
    assert min(self_times) >= -1e-9
    total = sum(self_times) + value["bench.unattributed_s"] - sum(value[k] for k in OVERLAPS)
    assert total == pytest.approx(value["bench.wall_s"], rel=1e-6)
    if name == "slice-workers":
        assert value["cluster.frames"] > 0 and value["model.checkpoint_bytes"] > 0


def test_document_samples_add_up_to_scoring_time(tiny, tmp_path):
    wl = workloads.WORKLOADS["wide-vocab"]
    path, _ = workloads.ensure_corpus(wl, 7, run.CACHE / "inputs")
    job = workloads.run_job(wl, path, 7, tmp_path / "job", eval_repeats=2, time_docs=True)
    assert job.error is None and job.eval_repeats == 2
    assert len(job.doc_ms) == job.eval_docs > 0
    assert 0 < sum(job.doc_ms) <= job.eval_s * 1e3


def test_missing_names_are_absent_not_zero(monkeypatch, tmp_path):
    import dtmgibbs.evaluation
    import dtmgibbs.kernels
    import dtmgibbs.samplers
    import tracing

    for module in (dtmgibbs.samplers, dtmgibbs.kernels, dtmgibbs.evaluation):
        monkeypatch.delattr(module, "refill_pool")
    monkeypatch.delattr(dtmgibbs.samplers, "pool_draw")
    monkeypatch.delattr(dtmgibbs.samplers, "pool_draw_many")
    tracer = tracing.Tracer(tmp_path)
    tracer.install()
    tracer.uninstall()
    metrics, absent = tracing.layer_metrics(tracer, [], defaultdict(int), 0.0, 1.0, 1.0)
    assert absent == ["kernels.pool_refills", "kernels.pool_refill.s",
                      "kernels.pool_draws_used_frac"]
    assert set(metrics) | set(absent) == set(tracing.PER_LAYER)


def test_counter_that_no_longer_fits_is_absent(tmp_path):
    import tracing

    tracer = tracing.Tracer(tmp_path)
    target = next(t for t in tracing.TARGETS if t.attr == "pool_draw_many")
    tracer.installed_feeds.update(target.feeds)
    tracer._wrap(target, lambda table, rng: None)("table", "rng")   # n is gone
    _, absent = tracing.layer_metrics(tracer, [], defaultdict(int), 0.0, 1.0, 1.0)
    assert "kernels.pool_draws_used_frac" in absent


def test_refuses_without_sources(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("__pycache__"))
    cmd = [sys.executable, f"{HERE.name}/run.py", "--workload", "wide-vocab",
           "--seed", "1", "--seconds", "1", "--trace", "0"]
    proc = subprocess.run(cmd, cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert "{" not in proc.stdout
