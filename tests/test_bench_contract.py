"""The benchmark's contract with the package, checked without running it.

``perfbench/tracing.py`` wraps package functions by module attribute
and reports every per-layer metric that ``BENCHMARK.json`` declares; a
renamed or deleted target leaves a metric absent, and a traced run's
result no longer carries every declared name.  ``perfbench/workloads.py``
passes ``metrics_sink=`` to ``cluster.worker_loop``, and the tracer
reads ``model.write_slice_checkpoint``'s first two arguments
positionally and rebinds ``evaluation.infer_doc_eta``.  Its send
counter reads ``SocketTransport.send``'s ``data`` and compares the
frame's kind byte (offset 5) with ``cluster.KIND_NACK``.  Its smoke test
deletes the doc-pool names it wraps and expects each to exist.  Only the
targets in ``ABSENT_TARGETS`` may be missing, so a moved or renamed
call site fails here rather than in a traced benchmark run.
"""

import importlib.util
import inspect
import json
import sys
from collections import defaultdict
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent

# tracer targets the package no longer has, each with why nothing is lost
ABSENT_TARGETS = {
    "dtmgibbs.cluster.run_iteration":
        "workers run engine.run_slices, whose run_iteration calls the "
        "engine.run_iteration target",
    "dtmgibbs.engine.mh_sweep_document":
        "the engine sweeps a whole mini-batch through mh_sweep; "
        "evaluation's call site still feeds the sweep metrics",
    "dtmgibbs.samplers.build_alias_table":
        "samplers builds every table kind with build_alias_matrix",
    "dtmgibbs.cluster.accumulate_counts":
        "workers tally only mini-batch counts, inside engine.run_iteration "
        "(the engine.accumulate_counts target)",
}


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
    assert tracer.absent_targets == list(ABSENT_TARGETS)
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
    # the tracer's send counter: SocketTransport.send(to_id, data), the
    # kind byte at offset 5 of the data, compared with cluster.KIND_NACK
    assert isinstance(cluster.KIND_NACK, int)
    assert list(inspect.signature(cluster.SocketTransport.send).parameters)[2] == "data"
    frame = cluster.encode_boundary(0, 1, np.zeros(2), np.zeros((2, 3)))
    assert frame[5] == cluster.KIND_BOUNDARY != cluster.KIND_NACK


def test_traced_run_keeps_every_counter(tmp_path):
    # the tracer's counters read the arguments and results of the calls
    # they wrap; a call they can no longer read drops its metrics from a
    # traced benchmark result
    from time import perf_counter

    from dtmgibbs import engine, evaluation
    from dtmgibbs.corpus import split_holdout
    from dtmgibbs.model import Hyperparams
    from dtmgibbs.synthetic import generate_synthetic

    tracing = load_tracing()
    hyper = Hyperparams(K=3)
    corpus, _ = generate_synthetic(hyper, v=20, n_slices=2, docs_per_slice=20,
                                   doc_len=10, seed=3)
    split = split_holdout(corpus, 0.2, 0.5, seed=1)
    tracer = tracing.Tracer(tmp_path / "trace")
    tracer.install()
    try:
        start = perf_counter()
        state = engine.train(split.train, hyper,
                             engine.TrainConfig(iterations=2, minibatch_size=5)).state
        evaluation.perplexity(split, state, evaluation.EvalConfig(inner_steps=3))
        end = perf_counter()
    finally:
        tracer.uninstall()
    spans, counts = tracer.collect()
    assert tracer.broken_counters == set()
    metrics, absent = tracing.layer_metrics(tracer, spans, counts, start, end, end - start)
    assert absent == []
    assert metrics["samplers.mh_sweep.tokens"] > 0
    assert metrics["evaluation.infer_doc_eta.calls"] > 0


def test_traced_stale_run_counts_every_alias_row(tmp_path):
    # with B < V word tables rebuilt per iteration, the kernels.alias_rows
    # counter still reads every row built: per slice the mini-batch's doc
    # rows each iteration, the V word rows once and B word rows in every
    # later iteration; then per scored slice V word rows and one doc row
    # per inner step of each scored document
    from time import perf_counter

    from dtmgibbs import engine, evaluation
    from dtmgibbs.corpus import split_holdout
    from dtmgibbs.model import Hyperparams
    from dtmgibbs.synthetic import generate_synthetic

    tracing = load_tracing()
    hyper = Hyperparams(K=4)
    corpus, _ = generate_synthetic(hyper, v=60, n_slices=2, docs_per_slice=20,
                                   doc_len=10, seed=5)
    split = split_holdout(corpus, 0.2, 0.5, seed=1)
    iterations, minibatch, inner_steps = 3, 5, 3
    tracer = tracing.Tracer(tmp_path / "trace")
    tracer.install()
    try:
        start = perf_counter()
        state = engine.train(split.train, hyper,
                             engine.TrainConfig(iterations=iterations,
                                                minibatch_size=minibatch)).state
        evaluation.perplexity(split, state,
                              evaluation.EvalConfig(inner_steps=inner_steps))
        end = perf_counter()
    finally:
        tracer.uninstall()
    spans, counts = tracer.collect()
    assert tracer.broken_counters == set()
    metrics, absent = tracing.layer_metrics(tracer, spans, counts, start, end, end - start)
    assert absent == []

    v = corpus.vocabulary.size
    expected = 0
    for sl in state.slices:
        n_mb = min(minibatch, sl.n_docs)
        budget = -(-n_mb * sl.n_tokens // (sl.n_docs * hyper.K))
        assert budget < v
        expected += iterations * n_mb + v + (iterations - 1) * budget
    scored = [td for td in split.test if td.heldout.size and td.observed.size]
    expected += v * len({td.slice_index for td in split.test})
    expected += inner_steps * len(scored)
    assert metrics["kernels.alias_rows"] == expected


def test_checkpoint_lands_where_the_byte_counter_reads(tmp_path):
    # the tracer's checkpoint counter stats this path after every
    # write_slice_checkpoint call, and does not catch an OSError
    from dtmgibbs import model
    from dtmgibbs.model import Hyperparams, init_state
    from dtmgibbs.synthetic import generate_synthetic

    hyper = Hyperparams(K=3)
    corpus, _ = generate_synthetic(hyper, v=20, n_slices=2, docs_per_slice=5,
                                   doc_len=8, seed=4)
    state = init_state(corpus, hyper, 1)
    for sl in state.slices:
        model.write_slice_checkpoint(tmp_path / "ck", sl, 1, 0, state.n_slices)
        assert model.checkpoint_path(tmp_path / "ck", sl.slice_index).is_file()
