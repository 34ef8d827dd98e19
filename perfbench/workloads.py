"""The benchmark's workloads and the user job each one runs.

A job is what a user of the library does: load a corpus file, split
off held-out documents, initialise, train, and score the held-out
documents.  It calls only the stable public API (``load_corpus``,
``split_holdout``, ``init_state``, ``train(..., state=, metrics_sink=)``,
``run_distributed_sockets``, ``perplexity`` and
``TrainConfig(iterations, minibatch_size, seed)``); every setting a
workload does not name stays at the library's default, including the
3-thread intra-slice pool.

Module lookups happen at call time (``engine.train`` rather than a name
imported once) so that the traced run's rebinding applies.
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

HELDOUT_TOKEN_FRACTION = 0.5     # the CLI default


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    topics: int
    vocab: int
    slices: int
    docs_per_slice: int
    doc_len: int
    test_fraction: float
    iterations: int
    minibatch: int = 60
    workers: int = 0            # >0: train with run_distributed_sockets on this many processes
    inputs: str = ""            # workload whose generated corpus this one reuses

    @property
    def input_name(self) -> str:
        return self.inputs or self.name

    @property
    def planned_slice_iterations(self) -> int:
        return self.iterations * self.slices


WORKLOADS = {
    w.name: w for w in (
        Workload("wide-vocab",
                 "K=50, V=1000: per-iteration proposal tables (V*K alias steps) dominate "
                 "training and word tables dominate evaluation",
                 topics=50, vocab=1000, slices=4, docs_per_slice=250, doc_len=100,
                 test_fraction=0.1, iterations=30),
        Workload("many-docs",
                 "K=10, D_t=20000: costs that scale with D_t (SliceState rebuild, eta copy) "
                 "dominate training and per-document inference dominates evaluation",
                 topics=10, vocab=200, slices=2, docs_per_slice=20000, doc_len=40,
                 test_fraction=0.02, iterations=60),
        Workload("slice-workers",
                 "wide-vocab's inputs on 2 socket worker processes: the only workload with "
                 "boundary exchange, per-slice checkpoint writes and load_checkpoint",
                 topics=50, vocab=1000, slices=4, docs_per_slice=250, doc_len=100,
                 test_fraction=0.1, iterations=30, workers=2, inputs="wide-vocab"),
    )
}


def ensure_corpus(wl: Workload, seed: int, cache_dir: Path) -> tuple[Path, float | None]:
    """Path of the workload's corpus file for ``seed``, generating it if missing.

    Returns (path, seconds spent generating or None when cached).
    Generation is untimed; the job only ever sees the file.
    """
    from dtmgibbs.corpus import save_corpus
    from dtmgibbs.model import Hyperparams
    from dtmgibbs.synthetic import generate_synthetic

    path = cache_dir / f"{wl.input_name}-s{seed}.txt"
    if path.is_file():
        return path, None
    cache_dir.mkdir(parents=True, exist_ok=True)
    start = perf_counter()
    corpus, _ = generate_synthetic(Hyperparams(K=wl.topics), wl.vocab, wl.slices,
                                   wl.docs_per_slice, wl.doc_len, seed)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    save_corpus(corpus, tmp)
    os.replace(tmp, path)
    return path, perf_counter() - start


@dataclass
class Job:
    """Timings, outputs and check results of one job."""

    setup_s: float
    train_s: float
    eval_s: float
    gaps_ms: list              # per slice-iteration, from metrics_sink callbacks
    doc_ms: list               # per scored test document, over all repeats
    tokens: int                # mini-batch tokens resampled
    eval_docs: int             # test documents scored, over all repeats
    eval_repeats: int
    completed: dict            # slice index -> slice-iterations finished
    state: object | None       # final ModelState, None if training raised
    report: object | None      # PerplexityReport, None if scoring raised
    error: str | None
    start: float
    end: float

    @property
    def wall_s(self) -> float:
        return self.end - self.start


def setup(wl: Workload, corpus_path: Path, seed: int):
    """load_corpus + split_holdout + init_state, as a user's job starts."""
    from dtmgibbs import corpus, engine, model

    loaded = corpus.load_corpus(corpus_path)
    split = corpus.split_holdout(loaded, wl.test_fraction, HELDOUT_TOKEN_FRACTION, seed)
    hyper = model.Hyperparams(K=wl.topics)
    cfg = engine.TrainConfig(iterations=wl.iterations, minibatch_size=wl.minibatch, seed=seed)
    state = model.init_state(split.train, hyper, cfg.seed)
    return split, hyper, cfg, state


def time_setup(wl: Workload, corpus_path: Path, seed: int) -> float:
    start = perf_counter()
    setup(wl, corpus_path, seed)
    return perf_counter() - start


def _train_sequential(split, hyper, cfg, state, stamps):
    from dtmgibbs import engine

    def sink(row):
        stamps.append((perf_counter(), int(row["slice"])))

    return engine.train(split.train, hyper, cfg, state=state, metrics_sink=sink).state


def _train_workers(wl, split, hyper, cfg, state, work_dir: Path, streams):
    """run_distributed_sockets, with each worker's metrics_sink stamps collected.

    ``run_distributed_sockets`` does not expose the workers' metrics
    sink, so ``cluster.worker_loop`` is rebound for the call to pass
    one; each forked worker writes its stamps to ``work_dir``.
    """
    from dtmgibbs import cluster

    ckpt_dir = work_dir / "checkpoints"
    original = cluster.worker_loop

    def worker_loop(*args, **kwargs):
        mine = [(perf_counter(), 0)]
        kwargs["metrics_sink"] = lambda row: mine.append((perf_counter(), int(row["slice"])))
        try:
            return original(*args, **kwargs)
        finally:
            (work_dir / f"stamps-{os.getpid()}.json").write_text(json.dumps(mine))

    cluster.worker_loop = worker_loop
    try:
        final = cluster.run_distributed_sockets(
            split.train, hyper, cfg, str(ckpt_dir),
            cluster.default_topology(wl.slices, wl.workers), state=state)
    finally:
        cluster.worker_loop = original
    for path in sorted(work_dir.glob("stamps-*.json")):
        streams.append(json.loads(path.read_text()))
        path.unlink()
    return final


def train_sequential(wl: Workload, corpus_path: Path, seed: int):
    """Final state of the sequential trainer on the workload's inputs (untimed)."""
    split, hyper, cfg, state = setup(wl, corpus_path, seed)
    return _train_sequential(split, hyper, cfg, state, [])


def _time_documents(doc_ms: list):
    """Rebind ``evaluation.infer_doc_eta`` to record each document's inference time.

    ``perplexity`` infers one document per call.  Returns the function
    that undoes the rebinding, or None when the name no longer exists
    (the caller then falls back to whole-pass averages).
    """
    from dtmgibbs import evaluation

    original = getattr(evaluation, "infer_doc_eta", None)
    if not callable(original):
        return None

    def infer_doc_eta(*args, **kwargs):
        start = perf_counter()
        try:
            return original(*args, **kwargs)
        finally:
            doc_ms.append((perf_counter() - start) * 1e3)

    evaluation.infer_doc_eta = infer_doc_eta
    return lambda: setattr(evaluation, "infer_doc_eta", original)


def run_job(wl: Workload, corpus_path: Path, seed: int, work_dir: Path,
            eval_repeats: int = 0, eval_until: float = 0.0,
            time_docs: bool = False) -> Job:
    """One timed job: setup, training, then held-out scoring.

    Scoring runs ``eval_repeats`` times, or when that is 0, once and
    then again while the next pass should end before the
    ``perf_counter`` deadline ``eval_until``.  With ``time_docs``,
    ``Job.doc_ms`` gets one sample per scored document: its inference
    time plus an equal share of the scoring time outside inference (word
    tables, mixtures), so the samples add up to the passes' wall time.
    """
    from dtmgibbs import evaluation

    if work_dir.exists():
        shutil.rmtree(work_dir)
    work_dir.mkdir(parents=True)
    error = None
    state = report = None
    streams = []          # per training process: [(start, 0), (time, slice), ...]

    start = perf_counter()
    split, hyper, cfg, init = setup(wl, corpus_path, seed)
    t_setup = perf_counter()
    try:
        if wl.workers:
            state = _train_workers(wl, split, hyper, cfg, init, work_dir, streams)
        else:
            streams.append([(t_setup, 0)])
            state = _train_sequential(split, hyper, cfg, init, streams[0])
    except Exception as exc:  # noqa: BLE001 - a failed training run is a measured outcome
        error = f"training raised {type(exc).__name__}: {exc}"
    t_train = perf_counter()
    repeats = 0
    doc_ms = []
    pass_ms = []
    restore = _time_documents(doc_ms) if time_docs and state is not None else None
    if state is not None:
        try:
            while (repeats < eval_repeats if eval_repeats
                   else not pass_ms or perf_counter() + pass_ms[-1] / 1e3 <= eval_until):
                started = perf_counter()
                again = evaluation.perplexity(split, state, evaluation.EvalConfig())
                pass_ms.append((perf_counter() - started) * 1e3)
                if report is None:
                    report = again
                elif again != report:    # every repeat must agree bitwise
                    error = "repeated held-out scoring gave a different result"
                repeats += 1
        except Exception as exc:  # noqa: BLE001 - scoring failure is counted, not fatal
            error = f"perplexity raised {type(exc).__name__}: {exc}"
            report = None
        finally:
            if restore is not None:
                restore()
    end = perf_counter()

    gaps = []
    completed = {t: 0 for t in range(1, wl.slices + 1)}
    for stream in streams:
        for (prev, _), (now, t) in zip(stream, stream[1:]):
            gaps.append((now - prev) * 1e3)
            completed[t] += 1
    # every document has doc_len tokens, so this count is exact
    mb_tokens = {sl.slice_index: min(wl.minibatch, sl.n_docs) * wl.doc_len
                 for sl in split.train.slices}
    n_eval = sum(1 for td in split.test if td.heldout.size and td.observed.size)
    if doc_ms:
        share = (sum(pass_ms) - sum(doc_ms)) / len(doc_ms)
        doc_ms = [ms + share for ms in doc_ms]
    elif time_docs and restore is None and n_eval:
        doc_ms = [ms / n_eval for ms in pass_ms]     # infer_doc_eta is gone: pass averages
    shutil.rmtree(work_dir, ignore_errors=True)
    return Job(setup_s=t_setup - start, train_s=t_train - t_setup, eval_s=end - t_train,
               gaps_ms=gaps, doc_ms=doc_ms,
               tokens=sum(n * mb_tokens[t] for t, n in completed.items()),
               eval_docs=n_eval * repeats if report is not None else 0,
               eval_repeats=repeats, completed=completed,
               state=state, report=report, error=error, start=start, end=end)


# ---------------------------------------------------------------------------
# Output checks
# ---------------------------------------------------------------------------

def slice_digests(state) -> list:
    """SHA-256 of each slice's (alpha, phi, eta, z), for bitwise comparisons."""
    out = []
    for sl in state.slices:
        h = hashlib.sha256()
        for arr in (sl.alpha, sl.phi, sl.eta):
            h.update(np.ascontiguousarray(arr, dtype="<f8").tobytes())
        for z in sl.z:
            h.update(np.ascontiguousarray(z, dtype="<i4").tobytes())
        out.append(h.hexdigest())
    return out


def check_slices(state, reference: list | None) -> list:
    """Per slice, the list of failed checks (empty when the slice is good)."""
    problems = []
    digests = slice_digests(state) if reference is not None else None
    for idx, sl in enumerate(state.slices):
        bad = []
        try:
            state.counts[idx].validate(sl.tokens)
        except AssertionError as exc:
            bad.append(f"counts: {exc}")
        try:
            sl.validate_normalizers()
        except AssertionError as exc:
            bad.append(f"normalizers: {exc}")
        for field in ("alpha", "phi", "eta"):
            if not np.all(np.isfinite(getattr(sl, field))):
                bad.append(f"non-finite {field}")
        if digests is not None and digests[idx] != reference[idx]:
            bad.append("differs from the sequential trainer's state")
        problems.append(bad)
    return problems


def score_failures(wl: Workload, report) -> dict:
    """slice index -> reason, for held-out scorings that miss the bar.

    The bar is acceptance criterion 6's: a finite perplexity below the
    uniform baseline V.
    """
    seen = {t: p for t, _, p in report.per_slice}
    failures = {}
    for t in range(1, wl.slices + 1):
        p = seen.get(t)
        if p is None:
            failures[t] = "no held-out tokens scored"
        elif not np.isfinite(p):
            failures[t] = f"non-finite perplexity {p}"
        elif p >= wl.vocab:
            failures[t] = f"perplexity {p:.1f} not below uniform V={wl.vocab}"
    return failures
