"""Span tracer for the benchmark's traced run.

The tracer wraps public functions of the ``dtmgibbs`` layers by
rebinding the name in the module that calls it (for example
``dtmgibbs.engine.rebuild_proposals``, which the engine calls, or the
``SliceState.refresh_eta_norm`` class attribute).  Nothing under
``src/`` changes; the wrappers exist only inside the traced process and
are removed when the traced job ends.

Each span records its id, parent span, name, start, end and thread; the
pid is the high bits of the id.  Spans stay in memory.  Worker processes
inherit the wrappers at fork and write their own spans to the trace
directory whenever their outermost span closes; ``collect`` merges them.

A span's self time is its duration minus the union of its children's
intervals.  Blocks that the engine runs on pool threads (and worker
processes under ``run_distributed_sockets``) overlap each other, so the
summed child time can exceed the parent's wall time; that excess is
reported as an overlap metric, and

    sum(self times) - sum(overlaps) + bench.unattributed_s == bench.wall_s

holds for every traced job.
"""

from __future__ import annotations

import functools
import importlib
import os
import pickle
import threading
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

ID_BITS = 32
RUN_ITERATION = "engine.run_iteration"

# Self-time metric of a span, where it is not "<span>.s".
SELF_METRIC = {
    RUN_ITERATION: "engine.run_iteration.self_s",
    "cluster.run_distributed_sockets": "cluster.outside_loop.s",
}
# Where the excess of overlapping children over their parent's wall goes.
OVERLAP_METRIC = {
    RUN_ITERATION: "engine.block_overlap_s",
    "cluster.run_distributed_sockets": "cluster.worker_overlap_s",
}

# Every per-layer metric with its unit, in the order it is printed.
PER_LAYER = {
    "kernels.alias_rows": "count",
    "kernels.alias_build.s": "s",
    "kernels.pool_refills": "count",
    "kernels.pool_refill.s": "s",
    "kernels.pool_draws_used_frac": "frac",
    "kernels.rng_for.calls": "count",
    "kernels.rng_for.s": "s",
    "model.slice_state.s": "s",
    "model.eta_norm_rows": "count",
    "model.eta_norm_rows_per_mb_doc": "ratio",
    "model.init_state.s": "s",
    "model.accumulate_counts.s": "s",
    "model.checkpoint_write.s": "s",
    "model.checkpoint_bytes": "bytes",
    "model.load_checkpoint.s": "s",
    "corpus.load_corpus.s": "s",
    "corpus.split_holdout.s": "s",
    "samplers.rebuild_proposals.s": "s",
    "samplers.mh_sweep.s": "s",
    "samplers.mh_sweep.tokens": "count",
    "samplers.z_changed_frac": "frac",
    "samplers.sgld_eta.s": "s",
    "samplers.sgld_phi.s": "s",
    "samplers.sample_alpha.s": "s",
    "engine.train.s": "s",
    "engine.run_iteration.self_s": "s",
    "engine.log_joint_proxy.s": "s",
    "engine.block_overlap_s": "s",
    "cluster.outside_loop.s": "s",
    "cluster.worker_loop.s": "s",
    "cluster.exchange_boundaries.s": "s",
    "cluster.exchange_wait_frac": "frac",
    "cluster.bytes_sent": "bytes",
    "cluster.frames": "count",
    "cluster.nacks": "count",
    "cluster.worker_overlap_s": "s",
    "evaluation.perplexity.s": "s",
    "evaluation.build_word_tables.s": "s",
    "evaluation.infer_doc_eta.s": "s",
    "evaluation.infer_doc_eta.calls": "count",
    "bench.wall_s": "s",
    "bench.unattributed_s": "s",
    "bench.trace_overhead_frac": "frac",
}


# ---------------------------------------------------------------------------
# Counters: run after the wrapped call returns, outside its span.
# ---------------------------------------------------------------------------

def _count_alias_table(tr, args, kwargs, result):
    tr.add("alias_rows", 1)


def _count_alias_matrix(tr, args, kwargs, result):
    tr.add("alias_rows", int(np.shape(args[0])[0]))


def _count_refill(tr, args, kwargs, result):
    tr.add("pool_drawn", int(args[0].k))


def _count_pool_draw(tr, args, kwargs, result):
    tr.add("pool_read", 1)


def _count_pool_draw_many(tr, args, kwargs, result):
    tr.add("pool_read", int(args[2] if len(args) > 2 else kwargs["n"]))


def _count_eta_norm(tr, args, kwargs, result):
    if tr.inside(RUN_ITERATION):
        docs = args[1] if len(args) > 1 else kwargs.get("docs")
        tr.add("eta_norm_rows", args[0].n_docs if docs is None else len(docs))


def _count_sweep(tr, args, kwargs, result):
    state, d = args[0], args[1]
    tr.add("sweep_tokens", int(result.shape[0]))
    tr.add("sweep_changed", int(np.count_nonzero(result != state.z[d])))
    if tr.inside(RUN_ITERATION):
        tr.add("mb_docs", 1)


def _count_checkpoint(tr, args, kwargs, result):
    model = importlib.import_module("dtmgibbs.model")
    tr.add("checkpoint_bytes",
           os.path.getsize(model.checkpoint_path(args[0], args[1].slice_index)))


def _count_send(tr, args, kwargs, result):
    data = args[2]
    cluster = importlib.import_module("dtmgibbs.cluster")
    tr.add("bytes_sent", len(data) + 4)  # u32 length prefix on the wire
    tr.add("frames", 1)
    tr.add("nacks", int(data[5] == cluster.KIND_NACK))  # kind byte of the header


@dataclass(frozen=True)
class Target:
    """One rebinding: ``module.attr`` (attr may be ``Class.method``)."""

    module: str
    attr: str
    span: str | None = None          # None: count only, no span
    count: object = None             # counter, called as count(tracer, args, kwargs, result)
    feeds: tuple = ()                # counter metrics this target contributes to


TARGETS = (
    # called by the benchmark itself
    Target("dtmgibbs.corpus", "load_corpus", "corpus.load_corpus"),
    Target("dtmgibbs.corpus", "split_holdout", "corpus.split_holdout"),
    Target("dtmgibbs.model", "init_state", "model.init_state"),
    Target("dtmgibbs.engine", "train", "engine.train"),
    Target("dtmgibbs.cluster", "run_distributed_sockets", "cluster.run_distributed_sockets"),
    Target("dtmgibbs.evaluation", "perplexity", "evaluation.perplexity"),
    # engine
    Target("dtmgibbs.engine", "run_iteration", RUN_ITERATION),
    Target("dtmgibbs.cluster", "run_iteration", RUN_ITERATION),
    Target("dtmgibbs.engine", "log_joint_proxy", "engine.log_joint_proxy"),
    # samplers
    Target("dtmgibbs.engine", "rebuild_proposals", "samplers.rebuild_proposals"),
    Target("dtmgibbs.engine", "mh_sweep_document", "samplers.mh_sweep", _count_sweep,
           ("samplers.mh_sweep.tokens", "samplers.z_changed_frac",
            "model.eta_norm_rows_per_mb_doc")),
    Target("dtmgibbs.evaluation", "mh_sweep_document", "samplers.mh_sweep", _count_sweep,
           ("samplers.mh_sweep.tokens", "samplers.z_changed_frac")),
    Target("dtmgibbs.engine", "grad_log_post_eta", "samplers.sgld_eta"),
    Target("dtmgibbs.engine", "sgld_update_eta", "samplers.sgld_eta"),
    Target("dtmgibbs.evaluation", "grad_log_post_eta", "samplers.sgld_eta"),
    Target("dtmgibbs.evaluation", "sgld_update_eta", "samplers.sgld_eta"),
    Target("dtmgibbs.engine", "grad_log_post_phi", "samplers.sgld_phi"),
    Target("dtmgibbs.engine", "sgld_update_phi", "samplers.sgld_phi"),
    Target("dtmgibbs.engine", "sample_alpha", "samplers.sample_alpha"),
    # kernels; evaluation.build_word_tables imports build_alias_matrix from
    # kernels at call time, so the kernels attribute is its call site
    Target("dtmgibbs.samplers", "build_alias_table", "kernels.alias_build",
           _count_alias_table, ("kernels.alias_rows",)),
    Target("dtmgibbs.samplers", "build_alias_matrix", "kernels.alias_build",
           _count_alias_matrix, ("kernels.alias_rows",)),
    Target("dtmgibbs.evaluation", "build_alias_table", "kernels.alias_build",
           _count_alias_table, ("kernels.alias_rows",)),
    Target("dtmgibbs.kernels", "build_alias_matrix", "kernels.alias_build",
           _count_alias_matrix, ("kernels.alias_rows",)),
    Target("dtmgibbs.samplers", "refill_pool", "kernels.pool_refill", _count_refill,
           ("kernels.pool_refills", "kernels.pool_draws_used_frac")),
    Target("dtmgibbs.kernels", "refill_pool", "kernels.pool_refill", _count_refill,
           ("kernels.pool_refills", "kernels.pool_draws_used_frac")),
    Target("dtmgibbs.evaluation", "refill_pool", "kernels.pool_refill", _count_refill,
           ("kernels.pool_refills", "kernels.pool_draws_used_frac")),
    Target("dtmgibbs.samplers", "pool_draw", None, _count_pool_draw,
           ("kernels.pool_draws_used_frac",)),
    Target("dtmgibbs.samplers", "pool_draw_many", None, _count_pool_draw_many,
           ("kernels.pool_draws_used_frac",)),
    Target("dtmgibbs.engine", "rng_for", "kernels.rng_for", None, ("kernels.rng_for.calls",)),
    Target("dtmgibbs.model", "rng_for", "kernels.rng_for", None, ("kernels.rng_for.calls",)),
    Target("dtmgibbs.corpus", "rng_for", "kernels.rng_for", None, ("kernels.rng_for.calls",)),
    Target("dtmgibbs.evaluation", "rng_for", "kernels.rng_for", None, ("kernels.rng_for.calls",)),
    # model
    Target("dtmgibbs.model", "SliceState.__init__", "model.slice_state"),
    Target("dtmgibbs.model", "SliceState.refresh_eta_norm", None, _count_eta_norm,
           ("model.eta_norm_rows", "model.eta_norm_rows_per_mb_doc")),
    Target("dtmgibbs.engine", "accumulate_counts", "model.accumulate_counts"),
    Target("dtmgibbs.model", "accumulate_counts", "model.accumulate_counts"),
    Target("dtmgibbs.cluster", "accumulate_counts", "model.accumulate_counts"),
    Target("dtmgibbs.model", "write_slice_checkpoint", "model.checkpoint_write",
           _count_checkpoint, ("model.checkpoint_bytes",)),
    Target("dtmgibbs.model", "load_checkpoint", "model.load_checkpoint"),
    # cluster
    Target("dtmgibbs.cluster", "worker_loop", "cluster.worker_loop", None,
           ("cluster.exchange_wait_frac",)),
    Target("dtmgibbs.cluster", "exchange_boundaries", "cluster.exchange_boundaries", None,
           ("cluster.exchange_wait_frac",)),
    Target("dtmgibbs.cluster", "SocketTransport.send", None, _count_send,
           ("cluster.bytes_sent", "cluster.frames", "cluster.nacks")),
    # evaluation
    Target("dtmgibbs.evaluation", "build_word_tables", "evaluation.build_word_tables"),
    Target("dtmgibbs.evaluation", "infer_doc_eta", "evaluation.infer_doc_eta", None,
           ("evaluation.infer_doc_eta.calls",)),
)


def _resolve(target: Target):
    """(owner, name) of the attribute to rebind, or None if it does not exist."""
    owner = importlib.import_module(target.module)
    *path, name = target.attr.split(".")
    for part in path:
        owner = getattr(owner, part, None)
        if owner is None:
            return None
    if not callable(getattr(owner, name, None)):
        return None
    return owner, name


class Tracer:
    """Records spans around the wrapped calls of one traced job."""

    def __init__(self, trace_dir):
        self.trace_dir = Path(trace_dir)
        self.trace_dir.mkdir(parents=True, exist_ok=True)
        self.pid = os.getpid()
        self.in_worker = False
        self.spans = []                 # (id, parent id or 0, name, start, end, thread)
        self.counts = defaultdict(int)
        self.stacks = {}                # thread ident -> [(span id, name)]
        self.lock = threading.Lock()
        self._next_id = 0
        self._patches = []              # (owner, name, original)
        self.installed_spans = set()
        self.installed_feeds = set()
        self.absent_targets = []
        self.broken_counters = set()    # targets whose counter no longer fits the call
        self.active = False
        self._flushes = 0

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        for target in TARGETS:
            where = _resolve(target)
            if where is None:
                self.absent_targets.append(f"{target.module}.{target.attr}")
                continue
            owner, name = where
            original = getattr(owner, name)
            setattr(owner, name, self._wrap(target, original))
            self._patches.append((owner, name, original))
            if target.span:
                self.installed_spans.add(target.span)
            self.installed_feeds.update(target.feeds)
        self.active = True
        os.register_at_fork(after_in_child=self._after_fork)

    def uninstall(self) -> None:
        for owner, name, original in reversed(self._patches):
            setattr(owner, name, original)
        self._patches.clear()
        self.active = False

    def _after_fork(self) -> None:
        if not self.active:
            return
        self.pid = os.getpid()
        self.in_worker = True
        self.spans = []
        self.counts = defaultdict(int)
        self.lock = threading.Lock()
        self._next_id = 0

    def _wrap(self, target: Target, fn):
        span, count = target.span, target.count

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if span is None:
                result = fn(*args, **kwargs)
            else:
                result = self._call(span, fn, args, kwargs)
            if count is not None and target not in self.broken_counters:
                try:
                    count(self, args, kwargs, result)
                except (AttributeError, IndexError, KeyError, TypeError):
                    # the wrapped function's signature or result changed; its
                    # counts are reported absent rather than wrong
                    self.broken_counters.add(target)
            if self.in_worker:
                self._flush_if_outermost()
            return result

        return wrapper

    # -- recording ------------------------------------------------------------

    def _stack(self) -> list:
        ident = threading.get_ident()
        stack = self.stacks.get(ident)
        if stack is None:
            stack = self.stacks[ident] = []
        return stack

    def _call(self, name, fn, args, kwargs):
        stack = self._stack()
        if stack:
            parent = stack[-1][0]
        else:
            # a pool thread's first span belongs to what the main thread is in
            main = self.stacks.get(threading.main_thread().ident)
            parent = main[-1][0] if main else 0
        with self.lock:
            self._next_id += 1
            sid = (self.pid << ID_BITS) | self._next_id
        stack.append((sid, name))
        start = perf_counter()
        try:
            return fn(*args, **kwargs)
        finally:
            end = perf_counter()
            stack.pop()
            self.spans.append((sid, parent, name, start, end, threading.get_ident()))

    def add(self, key: str, n: int) -> None:
        with self.lock:
            self.counts[key] += n

    def inside(self, name: str) -> bool:
        """True if a span called ``name`` is open on this thread or the main thread."""
        own = self.stacks.get(threading.get_ident(), ())
        main = self.stacks.get(threading.main_thread().ident, ())
        return any(n == name for _, n in own) or any(n == name for _, n in main)

    def _flush_if_outermost(self) -> None:
        if threading.get_ident() != threading.main_thread().ident:
            return
        stack = self._stack()
        if stack and stack[-1][0] >> ID_BITS == self.pid:
            return
        # this worker process has no open span of its own: hand over what it has
        self._flushes += 1
        path = self.trace_dir / f"worker-{self.pid}-{self._flushes}.pkl"
        tmp = path.with_suffix(".tmp")
        with open(tmp, "wb") as fh:
            pickle.dump((self.spans, dict(self.counts), self.broken_counters), fh,
                        protocol=pickle.HIGHEST_PROTOCOL)
        os.replace(tmp, path)
        self.spans = []
        self.counts = defaultdict(int)

    def collect(self):
        """All spans and counts of the job: this process's plus its workers'."""
        spans = list(self.spans)
        counts = defaultdict(int, self.counts)
        for path in sorted(self.trace_dir.glob("worker-*.pkl")):
            with open(path, "rb") as fh:
                more_spans, more_counts, broken = pickle.load(fh)
            spans.extend(more_spans)
            for key, n in more_counts.items():
                counts[key] += n
            self.broken_counters |= broken
            path.unlink()
        return spans, counts


# ---------------------------------------------------------------------------
# Aggregation
# ---------------------------------------------------------------------------

def _union_length(intervals) -> float:
    total = 0.0
    cur_start = cur_end = None
    for start, end in sorted(intervals):
        if cur_end is None or start > cur_end:
            if cur_end is not None:
                total += cur_end - cur_start
            cur_start, cur_end = start, end
        else:
            cur_end = max(cur_end, end)
    if cur_end is not None:
        total += cur_end - cur_start
    return total


def layer_metrics(tracer: Tracer, spans, counts, wall_start: float, wall_end: float,
                  untraced_wall: float) -> tuple[dict, list]:
    """Per-layer metrics of one traced job; returns (metrics, absent names).

    ``wall_start``/``wall_end`` bound the traced job in the main process;
    ``untraced_wall`` is the same job's wall time without tracing.
    """
    children = defaultdict(list)
    for sid, parent, name, start, end, _ in spans:
        children[parent].append((start, end))
    self_time = defaultdict(float)
    overlap = defaultdict(float)
    n_spans = defaultdict(int)
    duration = defaultdict(float)
    for sid, parent, name, start, end, _ in spans:
        kids = children.get(sid, ())
        covered = _union_length(kids)
        self_time[name] += (end - start) - covered
        overlap[name] += sum(e - s for s, e in kids) - covered
        n_spans[name] += 1
        duration[name] += end - start
    stray = [name for name, excess in overlap.items()
             if excess > 1e-9 and name not in OVERLAP_METRIC]
    if stray:
        raise RuntimeError(f"overlapping child spans under {stray}: tracer bookkeeping is wrong")

    wall = wall_end - wall_start
    roots = children.get(0, ())
    m = {}
    for span in tracer.installed_spans:
        m[SELF_METRIC.get(span, span + ".s")] = self_time[span]
    for span, metric in OVERLAP_METRIC.items():
        if span in tracer.installed_spans:
            m[metric] = overlap[span]

    def ratio(num, den):
        return num / den if den else 0.0

    derived = {
        "kernels.alias_rows": counts["alias_rows"],
        "kernels.pool_refills": n_spans["kernels.pool_refill"],
        "kernels.pool_draws_used_frac": ratio(counts["pool_read"], counts["pool_drawn"]),
        "kernels.rng_for.calls": n_spans["kernels.rng_for"],
        "model.eta_norm_rows": counts["eta_norm_rows"],
        "model.eta_norm_rows_per_mb_doc": ratio(counts["eta_norm_rows"], counts["mb_docs"]),
        "model.checkpoint_bytes": counts["checkpoint_bytes"],
        "samplers.mh_sweep.tokens": counts["sweep_tokens"],
        "samplers.z_changed_frac": ratio(counts["sweep_changed"], counts["sweep_tokens"]),
        "cluster.exchange_wait_frac": ratio(duration["cluster.exchange_boundaries"],
                                            duration["cluster.worker_loop"]),
        "cluster.bytes_sent": counts["bytes_sent"],
        "cluster.frames": counts["frames"],
        "cluster.nacks": counts["nacks"],
        "evaluation.infer_doc_eta.calls": n_spans["evaluation.infer_doc_eta"],
    }
    broken = {feed for target in tracer.broken_counters for feed in target.feeds}
    for metric, value in derived.items():
        if metric in tracer.installed_feeds and metric not in broken:
            m[metric] = value
    m["bench.wall_s"] = wall
    m["bench.unattributed_s"] = wall - _union_length(roots)
    m["bench.trace_overhead_frac"] = wall / untraced_wall - 1.0
    metrics = {name: m[name] for name in PER_LAYER if name in m}
    absent = [name for name in PER_LAYER if name not in m]
    return metrics, absent


def write_spans(path, spans) -> None:
    """Tab-separated span dump: id, parent, pid, thread, name, start, end."""
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("id\tparent\tpid\tthread\tname\tstart\tend\n")
        for sid, parent, name, start, end, thread in spans:
            fh.write(f"{sid}\t{parent}\t{sid >> ID_BITS}\t{thread}\t{name}\t{start:.9f}\t{end:.9f}\n")
