"""The benchmark's contract with the package, checked without running it.

``perfbench/tracing.py`` wraps package functions by module attribute
and reports every per-layer metric that ``BENCHMARK.json`` declares; a
renamed or deleted target leaves a metric absent, and a traced run's
result no longer carries every declared name.  ``perfbench/workloads.py``
passes ``metrics_sink=`` to ``cluster.worker_loop``, and the tracer
reads ``model.write_slice_checkpoint``'s first two arguments
positionally and rebinds ``evaluation.infer_doc_eta``.  Its smoke test
deletes the doc-pool names it wraps and expects each to exist.
"""

import importlib.util
import inspect
import json
import sys
from collections import defaultdict
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def load_tracing():
    name = "perfbench_tracing"
    spec = importlib.util.spec_from_file_location(name, ROOT / "perfbench" / "tracing.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[name] = module          # dataclasses look their module up here
    try:
        spec.loader.exec_module(module)
    finally:
        del sys.modules[name]
    return module


def test_every_declared_layer_metric_is_reported(tmp_path):
    tracing = load_tracing()
    declared = [m["name"] for m in
                json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    assert list(tracing.PER_LAYER) == declared
    tracer = tracing.Tracer(tmp_path)
    tracer.install()
    tracer.uninstall()
    metrics, absent = tracing.layer_metrics(tracer, [], defaultdict(int), 0.0, 1.0, 1.0)
    assert absent == []
    assert set(metrics) == set(declared)


def test_entry_points_the_benchmark_calls():
    from dtmgibbs import cluster, evaluation, kernels, model, samplers

    assert "metrics_sink" in inspect.signature(cluster.worker_loop).parameters
    write = inspect.signature(model.write_slice_checkpoint)
    assert list(write.parameters)[:2] == ["directory", "sl"]
    write.bind("checkpoints", object(), 0, 0, 1)    # all positional, as run_worker calls it
    assert callable(evaluation.infer_doc_eta)
    for module, name in ((samplers, "pool_draw"), (samplers, "pool_draw_many"),
                         (samplers, "refill_pool"), (kernels, "refill_pool"),
                         (evaluation, "refill_pool")):
        assert callable(getattr(module, name, None)), f"{module.__name__}.{name}"
