#!/usr/bin/env python3
"""Benchmark dtmgibbs training jobs end to end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload wide-vocab --seed 1 --seconds 25 --trace 0

``--trace 0`` prints the end-to-end metrics of untraced jobs;
``--trace 1`` runs the job once untraced and once under the span tracer
and prints the per-layer metrics.  Either way the last line of standard
output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  See ``perfbench/README.md`` for the
workloads, the metrics and the known ``many-docs`` quality defect.

The process generates (or reuses) the seeded input corpus, then runs
the measurement in a fresh child process so that peak RSS covers only
the job and its worker processes.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"
RUN_TIMEOUT_S = 175.0   # the whole run, generation included, must end within 180 s
# setup_s is the median of at least SETUP_SAMPLES setups, more (up to
# SETUP_MAX_SAMPLES) while their total is under SETUP_MIN_S
SETUP_SAMPLES = 3
SETUP_MIN_S = 1.0
SETUP_MAX_SAMPLES = 30

# Gated metrics, in BENCHMARK.json.  On the shared 2-vCPU VM the bounds
# were set on, the same work runs at two speeds about 2x apart, and the
# share of time spent at each changes from run to run, so medians and
# means move with the host; the p90s below move far less.  The
# median-based figures are still printed, on "info" lines.
END_TO_END = {
    "setup_s": "s",
    "slice_iter_ms_p90": "ms",
    "eval_doc_ms_p90": "ms",
    "peak_rss_mb": "MB",
}
INFO = {
    "train_tokens_per_s": "tok/s",
    "slice_iter_ms_p50": "ms",
    "eval_docs_per_s": "docs/s",
    "eval_doc_ms_p50": "ms",
}


def parse_args(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--child", action="store_true", help=argparse.SUPPRESS)
    return p.parse_args(argv)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parse_args(argv)
    if not (SRC / "dtmgibbs" / "__init__.py").is_file():
        print(f"perfbench: no dtmgibbs sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS, ensure_corpus

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    if args.child:
        return measure(args)

    start = perf_counter()
    wl = WORKLOADS[args.workload]
    path, gen_s = ensure_corpus(wl, args.seed, CACHE / "inputs")
    print(f"input {path.name}: " + ("cached" if gen_s is None
                                     else f"generated in {gen_s:.1f} s (untimed)"), flush=True)
    if wl.workers:
        reference_digests(wl, path, args.seed)   # here, so the child's peak RSS is the job's
    child = subprocess.Popen([sys.executable, str(Path(__file__).resolve()), *argv, "--child"],
                             start_new_session=True)
    try:
        return child.wait(timeout=max(1.0, RUN_TIMEOUT_S - (perf_counter() - start)))
    except subprocess.TimeoutExpired:
        print("perfbench: run exceeded its time limit", file=sys.stderr)
        return 1
    finally:
        if child.poll() is None:
            os.killpg(child.pid, signal.SIGKILL)   # the job and any worker processes it forked
            child.wait()


# ---------------------------------------------------------------------------
# Measurement (runs in the child process)
# ---------------------------------------------------------------------------

def environment() -> dict:
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        try:
            level = (index / "level").read_text().strip()
            kind = (index / "type").read_text().strip()
            caches[f"L{level}{kind[0].lower() if kind != 'Unified' else ''}"] = \
                (index / "size").read_text().strip()
        except OSError:
            continue
    cpu = platform.processor()
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    import numpy
    return {"nproc": len(os.sched_getaffinity(0)), "cpu": cpu, "caches": caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "loadavg": [round(x, 2) for x in os.getloadavg()]}


def source_hash() -> str:
    h = hashlib.sha256()
    for path in sorted((SRC / "dtmgibbs").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()[:16]


def reference_path(wl, seed) -> Path:
    """Where the sequential trainer's slice digests for these inputs are cached."""
    return (CACHE / "reference" / f"{wl.input_name}-s{seed}-it{wl.iterations}"
            f"-mb{wl.minibatch}-{source_hash()}.json")


def reference_digests(wl, corpus_path, seed) -> list:
    """Slice digests of the sequential trainer on the workload's inputs.

    Cached per (inputs, seed, settings, source tree): a sequential run
    of the same inputs saves them, and they are computed untimed when
    absent.
    """
    from workloads import slice_digests, train_sequential

    path = reference_path(wl, seed)
    if path.is_file():
        return json.loads(path.read_text())
    digests = slice_digests(train_sequential(wl, corpus_path, seed))
    save_reference(path, digests)
    return digests


def save_reference(path: Path, digests: list) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    tmp = path.with_name(f"{path.name}.{os.getpid()}.tmp")
    tmp.write_text(json.dumps(digests))
    os.replace(tmp, path)


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    workers = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, workers) / 1024.0      # ru_maxrss is in KiB on Linux


def evaluate_jobs(wl, jobs, reference) -> tuple[int, int, bool]:
    """Print each job's checks; returns (attempted, failed, correct).

    An operation is one planned slice-iteration or one slice's held-out
    scoring.  A slice-iteration fails when training raised before it
    finished or when its slice's final state fails a check; a scoring
    fails when its perplexity is non-finite or not below V.  ``correct``
    is false when training or scoring raised, a final state fails a
    check, or jobs on identical inputs disagree bitwise; a perplexity
    that misses the bar is a failed operation, not an incorrect output.
    """
    from workloads import check_slices, score_failures, slice_digests

    checks = "counts, normalizers, finite" + (", equals sequential" if reference else "")
    attempted = failed = 0
    correct = True
    first = None
    for n, job in enumerate(jobs, start=1):
        attempted += wl.planned_slice_iterations + wl.slices
        failed += wl.planned_slice_iterations - sum(job.completed.values())
        if job.error:
            print(f"check job {n}: FAILED, {job.error}")
            correct = False
        if job.state is None:
            failed += wl.slices
            continue
        for t, bad in enumerate(check_slices(job.state, reference), start=1):
            if bad:
                correct = False
                failed += job.completed[t]
            print(f"check job {n} slice {t}: " + ("; ".join(bad) if bad else f"ok ({checks})"))
        digests = slice_digests(job.state)
        if first is None:
            first = digests
        elif digests != first:
            correct = False
            print(f"check job {n}: FAILED, final state differs from job 1 on the same inputs")
        if job.report is None:
            failed += wl.slices
            continue
        misses = score_failures(wl, job.report)
        failed += len(misses)
        for t, _, p in job.report.per_slice:
            verdict = misses.get(t, f"ok, below uniform V={wl.vocab}")
            print(f"score job {n} slice {t}: perplexity {p:.2f}; {verdict}")
        for t in sorted(set(misses) - {t for t, _, _ in job.report.per_slice}):
            print(f"score job {n} slice {t}: {misses[t]}")
    return attempted, failed, correct


def end_to_end(job, setups) -> dict:
    """Every end-to-end figure of one untraced job, gated and info alike."""
    import numpy as np

    def pct(samples, q):
        return float(np.percentile(samples, q)) if samples else 0.0

    return {
        "setup_s": statistics.median(setups),
        "slice_iter_ms_p90": pct(job.gaps_ms, 90),
        "eval_doc_ms_p90": pct(job.doc_ms, 90),
        "peak_rss_mb": peak_rss_mb(),
        "train_tokens_per_s": job.tokens / job.train_s if job.train_s else 0.0,
        "slice_iter_ms_p50": pct(job.gaps_ms, 50),
        "eval_docs_per_s": job.eval_docs / job.eval_s if job.eval_s else 0.0,
        "eval_doc_ms_p50": pct(job.doc_ms, 50),
    }


def measure(args) -> int:
    from tracing import PER_LAYER, Tracer, layer_metrics, write_spans
    from workloads import WORKLOADS, run_job, slice_digests, time_setup

    wl = WORKLOADS[args.workload]
    corpus_path = CACHE / "inputs" / f"{wl.input_name}-s{args.seed}.txt"
    work = CACHE / "work" / f"{wl.name}-s{args.seed}-{os.getpid()}"
    print("env " + json.dumps(environment()), flush=True)
    print(f"workload {wl.name}: K={wl.topics} V={wl.vocab} T={wl.slices} "
          f"D_t={wl.docs_per_slice} doc_len={wl.doc_len} minibatch={wl.minibatch} "
          f"test_fraction={wl.test_fraction} iterations={wl.iterations}"
          + (f" workers={wl.workers}" if wl.workers else "") + f"; seed {args.seed}")
    reference = reference_digests(wl, corpus_path, args.seed) if wl.workers else None

    try:
        # one job: training runs its planned iterations and held-out scoring
        # repeats until --seconds have passed since the job began; a traced
        # run then repeats the same job under the tracer
        job = run_job(wl, corpus_path, args.seed, work / "job",
                      eval_until=perf_counter() + args.seconds, time_docs=True)
        jobs = [job]
        setups = [job.setup_s]
        while len(setups) < SETUP_SAMPLES or (sum(setups) < SETUP_MIN_S
                                              and len(setups) < SETUP_MAX_SAMPLES):
            setups.append(time_setup(wl, corpus_path, args.seed))
        e2e = end_to_end(job, setups)       # before tracing, which adds memory
        checked = list(jobs)
        if args.trace:
            tracer = Tracer(work / "trace")
            tracer.install()
            try:
                checked.append(run_job(wl, corpus_path, args.seed, work / "job",
                                       eval_repeats=jobs[0].eval_repeats))
            finally:
                tracer.uninstall()

        for n, done in enumerate(checked, start=1):
            print(f"job {n}{' (traced)' if n > len(jobs) else ''}: setup {done.setup_s:.3f} s, "
                  f"train {done.train_s:.3f} s ({len(done.gaps_ms)} slice-iterations), "
                  f"eval {done.eval_s:.3f} s ({done.eval_repeats} scoring passes, "
                  f"{done.eval_docs} documents)")
        attempted, failed, correct = evaluate_jobs(wl, checked, reference)
        if not wl.workers and correct:
            save_reference(reference_path(wl, args.seed), slice_digests(jobs[0].state))

        report = jobs[0].report
        if report is not None:
            print(f"info heldout_perplexity = {report.overall!r} (uniform baseline V = "
                  f"{wl.vocab}; printed, not a gated metric)")
        print(f"info failed_ops_frac = {failed / attempted!r} ({failed} of {attempted} "
              "operations; carried by 'failed'/'attempted')")
        for name, unit in INFO.items():
            print(f"info {name} = {e2e[name]!r} {unit} (printed, not a gated metric)")
        per_doc = callable(getattr(importlib.import_module("dtmgibbs.evaluation"),
                                   "infer_doc_eta", None))
        print(f"info samples: {len(job.gaps_ms)} slice-iterations, {len(job.doc_ms)} "
              + ("scored documents" if per_doc else "scoring passes (evaluation.infer_doc_eta "
                 "is gone: each sample is a pass's wall time per document)")
              + f", {len(setups)} set-ups")
        for name, unit in END_TO_END.items():
            print(f"e2e {name} = {e2e[name]!r} {unit}")

        if args.trace:
            traced = checked[-1]
            spans, counts = tracer.collect()
            layers, absent = layer_metrics(tracer, spans, counts, traced.start, traced.end,
                                           jobs[0].wall_s)
            write_spans(CACHE / f"spans-{wl.name}.tsv", spans)
            for name, value in layers.items():
                print(f"layer {name} = {value!r} {PER_LAYER[name]}")
            if absent:
                print("layer absent (wrapped names missing from dtmgibbs): " + ", ".join(absent))
            if tracer.absent_targets:
                print("trace targets missing: " + ", ".join(tracer.absent_targets))
            metrics = {name: {"value": value, "unit": PER_LAYER[name]}
                       for name, value in layers.items()}
        else:
            metrics = {name: {"value": e2e[name], "unit": unit}
                       for name, unit in END_TO_END.items()}
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"loadavg at end {[round(x, 2) for x in os.getloadavg()]}")
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
