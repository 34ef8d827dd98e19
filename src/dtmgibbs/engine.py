"""The training loop.  ``run_iteration`` advances one slice by one
iteration: mini-batch selection, the Jacobi-relaxed block updates (eta,
phi and z, each reading the previous iteration's values), the exact
alpha draw, then the in-place advance of the slice state.
``run_slices`` is the one loop over iterations: ``train`` runs it over
every slice, a socket worker (``cluster.worker_loop``) over its own.

Each block is one numpy expression over the whole mini-batch (all its
documents, all K topics, all its tokens) and draws from one stream
keyed by logical coordinates (seed, block, slice, iteration).  A
slice-iteration therefore builds five streams (minibatch, eta, phi, z,
alpha) whatever the mini-batch size or K, and the result is identical
for any worker layout and for a resumed run.
"""

from __future__ import annotations

import csv
import time
from dataclasses import dataclass, field

import numpy as np

from . import model
from .corpus import Corpus
from .kernels import SgldSchedule, rng_for
from .model import (CountSet, Hyperparams, ModelState, SliceState,
                    accumulate_counts, gather_docs, init_state, split_flat)
from .samplers import (NeighborContext, WordTables, grad_log_post_eta,
                       grad_log_post_phi, mh_sweep, rebuild_proposals,
                       sample_alpha, sgld_update_eta, sgld_update_phi)

METRICS_FIELDS = ("iteration", "slice", "ms_counts", "ms_eta", "ms_phi",
                  "ms_z", "ms_alpha", "log_joint", "eps_eta", "eps_phi")


class NumericError(RuntimeError):
    """A parameter block went non-finite; names the block for diagnosis."""

    def __init__(self, block: str, slice_index: int, iteration: int):
        super().__init__(f"non-finite values in block '{block}' "
                         f"(slice {slice_index}, iteration {iteration})")
        self.block = block
        self.slice_index = slice_index
        self.iteration = iteration


@dataclass(frozen=True)
class TrainConfig:
    iterations: int = 60
    minibatch_size: int = 60
    schedule_eta: SgldSchedule = field(default_factory=lambda: SgldSchedule(0.5, 100, 0.8))
    schedule_phi: SgldSchedule = field(default_factory=lambda: SgldSchedule(0.5, 100, 0.8))
    seed: int = 0
    checkpoint_every: int = 0          # 0: only the final checkpoint
    checkpoint_dir: str | None = None
    metrics_path: str | None = None

    def __post_init__(self):
        if self.iterations < 0:
            raise ValueError("iterations must be >= 0")
        if self.minibatch_size < 1:
            raise ValueError("minibatch_size must be >= 1")


def select_minibatch(n_docs: int, d_m: int, rng: np.random.Generator) -> np.ndarray:
    """d_m distinct uniform doc indices, ascending; all docs if d_m >= D_t."""
    if n_docs <= 0:
        return np.empty(0, dtype=np.int64)
    if d_m >= n_docs:
        return np.arange(n_docs, dtype=np.int64)
    return np.sort(rng.choice(n_docs, size=d_m, replace=False)).astype(np.int64)


def run_iteration(state: SliceState, neighbors_alpha: NeighborContext,
                  neighbors_phi: NeighborContext, hyper: Hyperparams,
                  cfg: TrainConfig, iteration: int,
                  tables: WordTables) -> tuple[CountSet, dict]:
    """Advance one slice by one iteration, in place.

    Block order: counts, then eta, phi and z, which read only the
    state's previous-iteration values and write only their own output
    arrays, then alpha from the post-update eta mean.  The state is
    advanced once, after every block has run; the z block also moves
    the word-table sources it rebuilds (``state.word_src``).
    ``tables`` carries the slice's word tables between iterations; a
    fresh ``WordTables`` is filled from ``state.word_src``, with the
    same result.  Returns the mini-batch counts and a metrics row.
    """
    t = state.slice_index
    seed = cfg.seed
    d_t = state.n_docs

    t0 = time.perf_counter()
    minibatch = select_minibatch(d_t, cfg.minibatch_size, rng_for(seed, "minibatch", t, iteration))
    # the mini-batch's tokens, flat, each tagged with its row in the batch
    w, z, lengths = gather_docs(state, minibatch)
    counts = accumulate_counts(state, minibatch, (w, z, lengths))
    rows = np.repeat(np.arange(minibatch.shape[0]), lengths)
    ms_counts = (time.perf_counter() - t0) * 1e3

    eps_eta = cfg.schedule_eta.step(iteration)
    eps_phi = cfg.schedule_phi.step(iteration)
    batch_scale = (d_t / minibatch.shape[0]) if minibatch.shape[0] else 0.0

    t0 = time.perf_counter()
    eta_mb = state.eta[minibatch]
    try:
        g = grad_log_post_eta(eta_mb, state.alpha, counts.c_doc, lengths,
                              hyper.psi2, state.eta_log_norm[minibatch])
        eta_mb_next = sgld_update_eta(eta_mb, g, eps_eta,
                                      rng_for(seed, "eta", t, iteration))
    except FloatingPointError as exc:
        raise NumericError("eta", t, iteration) from exc
    ms_eta = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    try:
        g = grad_log_post_phi(state.phi, neighbors_phi, counts.c_word_topic,
                              counts.c_topic, hyper.beta2, batch_scale,
                              state.phi_log_norm)
        phi_next = sgld_update_phi(state.phi, g, eps_phi,
                                   rng_for(seed, "phi", t, iteration))
    except FloatingPointError as exc:
        raise NumericError("phi", t, iteration) from exc
    ms_phi = (time.perf_counter() - t0) * 1e3

    t0 = time.perf_counter()
    proposals = rebuild_proposals(state, minibatch, tables, eta_mb, iteration)
    z_mb = mh_sweep(eta_mb, state.phi, w, z, rows, proposals,
                    rng_for(seed, "z", t, iteration))
    z_rows = split_flat(z_mb, np.cumsum(lengths))
    ms_z = (time.perf_counter() - t0) * 1e3

    if not np.all(np.isfinite(eta_mb_next)):  # the only rows written
        raise NumericError("eta", t, iteration)
    if not np.all(np.isfinite(phi_next)):
        raise NumericError("phi", t, iteration)

    t0 = time.perf_counter()
    if minibatch.shape[0]:
        eta_bar = eta_mb_next.mean(axis=0)
    else:
        eta_bar = np.zeros(hyper.K)
    # the likelihood precision uses the true D_t; eta_bar is the batch estimate
    alpha_next = sample_alpha(neighbors_alpha, eta_bar, d_t, hyper,
                              rng_for(seed, "alpha", t, iteration))
    ms_alpha = (time.perf_counter() - t0) * 1e3
    if not np.all(np.isfinite(alpha_next)):
        raise NumericError("alpha", t, iteration)

    # only the mini-batch rows of eta and z moved; the state refreshes
    # just their normalizers
    state.advance(alpha_next, phi_next, minibatch, eta_mb_next, z_rows)

    lj = log_joint_proxy(state, neighbors_alpha, neighbors_phi, minibatch,
                         w, z_mb, rows, hyper)
    row = {"iteration": iteration, "slice": t,
           "ms_counts": round(ms_counts, 3),
           "ms_eta": round(ms_eta, 3),
           "ms_phi": round(ms_phi, 3),
           "ms_z": round(ms_z, 3),
           "ms_alpha": round(ms_alpha, 3),
           "log_joint": lj, "eps_eta": eps_eta, "eps_phi": eps_phi}
    return counts, row


def log_joint_proxy(state: SliceState, neighbors_alpha: NeighborContext,
                    neighbors_phi: NeighborContext, minibatch, w, z, rows,
                    hyper: Hyperparams) -> float:
    """Unnormalized log posterior over the mini-batch, for trend monitoring.

    Chain priors plus the mini-batch document priors and token
    likelihoods, the latter two rescaled to full-slice size.  ``w``, ``z``
    and ``rows`` are the batch's flat word ids, current topics and rows.
    """
    lj = 0.0
    for nb in (neighbors_alpha.left, neighbors_alpha.right):
        if nb is not None:
            lj -= float(((state.alpha - nb) ** 2).sum()) / (2 * hyper.sigma2)
    for nb in (neighbors_phi.left, neighbors_phi.right):
        if nb is not None:
            lj -= float(((state.phi - nb) ** 2).sum()) / (2 * hyper.beta2)
    mb = np.asarray(minibatch, dtype=np.int64).reshape(-1)
    if mb.shape[0] == 0:
        return lj
    scale = state.n_docs / mb.shape[0]
    eta = state.eta[mb]
    diff = eta - state.alpha[None, :]
    lj -= scale * float((diff ** 2).sum()) / (2 * hyper.psi2)
    tok = float((eta[rows, z] - state.eta_log_norm[mb][rows]).sum())
    tok += float((state.phi[z, w] - state.phi_log_norm[z]).sum())
    return lj + scale * tok


@dataclass
class TrainResult:
    state: ModelState
    metrics: list
    iterations_done: int


def neighbor_contexts(alphas: dict, phis: dict, t: int, n_slices: int):
    """(alpha, phi) neighbor contexts of slice t (1-based) from dicts keyed
    by slice index.  Slice 1's left neighbor is the zero anchor and slice
    ``n_slices`` has no right neighbor; every other neighbor is read from
    the dicts, which must hold t-1 and t+1."""
    if t > 1:
        a_left, p_left = alphas[t - 1], phis[t - 1]
    else:
        k, v = phis[t].shape
        a_left, p_left = np.zeros(k), np.zeros((k, v))
    if t < n_slices:
        a_right, p_right = alphas[t + 1], phis[t + 1]
    else:
        a_right = p_right = None
    return (NeighborContext(left=a_left, right=a_right),
            NeighborContext(left=p_left, right=p_right))


def run_slices(slices: dict, n_slices: int, hyper: Hyperparams, cfg: TrainConfig,
               *, start_iteration: int = 0, exchange=None, counts: list | None = None,
               metrics_sink=None) -> list:
    """Run cfg.iterations lockstep iterations over ``slices`` (slice index
    -> SliceState, advanced in place) of a chain of ``n_slices``.

    Every update reads its neighbours' previous-iteration alpha and phi
    from dicts keyed by slice index; ``exchange(iteration, alphas, phis)``
    files in the neighbours not in ``slices``.  Each slice's mini-batch
    counts go to ``counts[t - 1]``, then its metrics row to the CSV at
    ``cfg.metrics_path``, ``metrics_sink`` and the returned list.  With
    ``cfg.checkpoint_dir`` the slices are checkpointed every
    ``cfg.checkpoint_every`` iterations and after the last one.

    The slices' word-proposal tables live only while this runs: the
    first iteration rebuilds them from each state's ``word_src``.
    """
    owned = sorted(slices)
    end = start_iteration + cfg.iterations
    tables = {t: WordTables(slices[t], cfg.minibatch_size) for t in owned}

    def checkpoint(iteration):
        for t in owned:     # model's global, looked up now: tracers rebind it
            model.write_slice_checkpoint(cfg.checkpoint_dir, slices[t], cfg.seed,
                                         iteration, n_slices)

    metrics: list[dict] = []
    writer = _MetricsWriter(cfg.metrics_path, append=start_iteration > 0)
    try:
        for i in range(start_iteration, end):
            alphas = {t: slices[t].alpha for t in owned}
            phis = {t: slices[t].phi for t in owned}
            if exchange is not None:
                exchange(i, alphas, phis)
            for t in owned:
                nb_alpha, nb_phi = neighbor_contexts(alphas, phis, t, n_slices)
                mb_counts, row = run_iteration(slices[t], nb_alpha, nb_phi, hyper, cfg, i,
                                               tables[t])
                # no later update this iteration reads slice t-1's previous values
                alphas.pop(t - 1, None)
                phis.pop(t - 1, None)
                if counts is not None:
                    counts[t - 1] = mb_counts
                metrics.append(row)
                writer.write(row)
                if metrics_sink is not None:
                    metrics_sink(row)
            if (cfg.checkpoint_dir and cfg.checkpoint_every
                    and (i + 1 - start_iteration) % cfg.checkpoint_every == 0):
                checkpoint(i + 1)
        if cfg.checkpoint_dir:
            checkpoint(end)
    finally:
        writer.close()
    return metrics


def train(corpus: Corpus, hyper: Hyperparams, cfg: TrainConfig, *,
          state: ModelState | None = None, start_iteration: int = 0,
          metrics_sink=None) -> TrainResult:
    """Run cfg.iterations blockwise iterations over all slices in-process.

    Socket workers run the same loop, so both produce identical states.
    ``state.counts`` is current whenever ``metrics_sink`` is called.
    Pass ``state`` and ``start_iteration`` to resume.
    """
    if state is None:
        state = init_state(corpus, hyper, cfg.seed)
    metrics = run_slices(dict(enumerate(state.slices, start=1)), state.n_slices,
                         hyper, cfg, start_iteration=start_iteration,
                         counts=state.counts, metrics_sink=metrics_sink)
    return TrainResult(state=state, metrics=metrics,
                       iterations_done=start_iteration + cfg.iterations)


class _MetricsWriter:
    """Writes metrics rows to a CSV file as they are produced.  With
    ``append`` (a resumed run) rows go after the file's existing ones;
    the header is written whenever the file starts out absent or empty."""

    def __init__(self, path, append: bool = False):
        self._fh = None
        self._writer = None
        if path:
            self._fh = open(path, "a" if append else "w", newline="")
            self._writer = csv.DictWriter(self._fh, fieldnames=METRICS_FIELDS)
            if self._fh.tell() == 0:
                self._writer.writeheader()

    def write(self, row: dict) -> None:
        if self._writer is not None:
            self._writer.writerow(row)

    def close(self) -> None:
        if self._fh is not None:
            self._fh.close()


def metrics_to_csv(rows, path) -> None:
    with open(path, "w", newline="") as fh:
        w = csv.DictWriter(fh, fieldnames=METRICS_FIELDS)
        w.writeheader()
        for row in sorted(rows, key=lambda r: (r["iteration"], r["slice"])):
            w.writerow(row)
