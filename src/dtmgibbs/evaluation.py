"""Held-out perplexity via partially observed documents, plus topic
top-word extraction and trend export.

A test document's parameter is inferred from its observed half with the
model frozen, then the held-out half is scored under the induced
mixture p(w) = sum_k pi(eta)_k * pi(phi_k)_w.  The model is read-only
here, so test documents can be scored in parallel.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field

import numpy as np

from .corpus import HoldoutSplit, Vocabulary
from .kernels import (SgldSchedule, build_alias_table, rng_for, softmax,
                      softmax_rows)
from .kernels import refill_pool  # noqa: F401 - unused here; perfbench's tracer wraps it
from .model import Hyperparams, ModelState, SliceState, row_log_norms
from .samplers import (MhProposalState, grad_log_post_eta, mh_sweep_document,
                       sgld_update_eta)

_ONE_DOC = np.zeros(1, dtype=np.int64)


@dataclass(frozen=True)
class EvalConfig:
    inner_steps: int = 50
    schedule: SgldSchedule = field(default_factory=lambda: SgldSchedule(0.5, 100, 0.8))
    seed: int = 0


@dataclass(frozen=True)
class PerplexityReport:
    per_slice: tuple          # (slice_index, n_heldout, perplexity)
    overall: float            # exp of token-weighted mean negative log-likelihood
    slice_mean: float         # unweighted mean of per-slice perplexities
    n_heldout_tokens: int
    skipped_slices: tuple     # slices with no held-out tokens

    def to_csv(self, path) -> None:
        with open(path, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["slice", "n_heldout", "perplexity"])
            for t, n, p in self.per_slice:
                w.writerow([t, n, f"{p:.6f}"])
            w.writerow(["overall", self.n_heldout_tokens, f"{self.overall:.6f}"])
            w.writerow(["slice_mean", self.n_heldout_tokens, f"{self.slice_mean:.6f}"])

    def __str__(self) -> str:
        lines = [f"slice {t}: perplexity {p:.3f} over {n} held-out tokens"
                 for t, n, p in self.per_slice]
        lines.append(f"overall (token-weighted): {self.overall:.3f} "
                     f"over {self.n_heldout_tokens} tokens")
        lines.append(f"slice mean: {self.slice_mean:.3f}")
        for t in self.skipped_slices:
            lines.append(f"slice {t}: skipped (no held-out tokens)")
        return "\n".join(lines)


@dataclass(frozen=True)
class TopicTrend:
    topic: int
    per_slice_top_words: tuple  # (slice_index, ((term, probability), ...))


def infer_doc_eta(observed_tokens, phi_t: np.ndarray, alpha_t: np.ndarray,
                  hyper: Hyperparams, schedule: SgldSchedule, steps: int,
                  rng: np.random.Generator, word_tables=None,
                  phi_log_norm=None) -> np.ndarray:
    """Infer a document parameter from observed tokens with phi, alpha fixed.

    Runs the token-resampling + Langevin sub-loop for ``steps``
    iterations with the step-size schedule restarted at 0 (a cold
    document needs the early large steps).  ``steps == 0`` returns the
    initialization eta = alpha.  ``word_tables`` and ``phi_log_norm``
    depend on phi alone; a caller scoring many documents against one
    phi passes them in so they are computed once.
    """
    observed = np.asarray(observed_tokens, dtype=np.int32)
    if observed.size == 0:
        raise ValueError("cannot infer a document parameter from no tokens")
    eta = np.asarray(alpha_t, dtype=np.float64).copy()
    if steps == 0:
        return eta
    if word_tables is None:
        word_tables = build_word_tables(phi_t)
    if phi_log_norm is None:
        phi_log_norm = row_log_norms(phi_t)
    word_prob, word_alias = word_tables
    n_d = observed.shape[0]
    z = rng.integers(0, hyper.K, size=n_d).astype(np.int32)

    # one-document state, phi frozen, swept by the training token sampler;
    # the loop writes its eta row, normalizer and z list in place
    doc = SliceState(0, [observed], alpha_t, phi_t, eta[None, :], [z],
                     phi_log_norm=phi_log_norm)
    norms, zs = doc.eta_log_norm, doc.z
    for i in range(steps):
        table = build_alias_table(np.exp(eta - eta.max()))
        proposals = MhProposalState(_ONE_DOC, table.prob[None], table.alias[None],
                                    word_prob, word_alias)
        zs[0] = mh_sweep_document(doc, 0, proposals, rng)
        c_doc = np.bincount(zs[0], minlength=hyper.K)
        g = grad_log_post_eta(eta, alpha_t, c_doc, n_d, hyper.psi2, norms[0])
        eta[:] = sgld_update_eta(eta, g, schedule.step(i), rng)
        # one row: the scalar form of row_log_norms, cheaper at this size
        m = eta.max()
        norms[0] = m + np.log(np.exp(eta - m).sum())
    return eta


def build_word_tables(phi_t: np.ndarray):
    """Stacked word-proposal tables for a frozen phi (built once, shared)."""
    from .kernels import build_alias_matrix
    col_max = phi_t.max(axis=0)
    return build_alias_matrix(np.exp(phi_t - col_max).T)


def perplexity(split: HoldoutSplit, model: ModelState, eval_cfg: EvalConfig) -> PerplexityReport:
    """Score every held-out token under the partially-observed-document scheme.

    Per slice: exp(-sum(log p)/N_heldout); slices with no held-out
    tokens are omitted and listed separately.  Documents whose observed
    part is empty cannot be inferred and are skipped the same way.
    """
    by_slice: dict[int, list] = {}
    for td in split.test:
        by_slice.setdefault(td.slice_index, []).append(td)

    per_slice = []
    skipped = []
    total_ll = 0.0
    total_n = 0
    for t in sorted(by_slice):
        sl = model.slices[t - 1]
        soft_phi = softmax_rows(sl.phi)             # (K, V)
        word_tables = build_word_tables(sl.phi)
        ll = 0.0
        n = 0
        for j, td in enumerate(by_slice[t]):
            if td.heldout.size == 0 or td.observed.size == 0:
                continue
            rng = rng_for(eval_cfg.seed, "eval", t, j)
            eta_hat = infer_doc_eta(td.observed, sl.phi, sl.alpha, model.hyper,
                                    eval_cfg.schedule, eval_cfg.inner_steps, rng,
                                    word_tables=word_tables,
                                    phi_log_norm=sl.phi_log_norm)
            mix = softmax(eta_hat) @ soft_phi       # (V,)
            ll += float(np.log(mix[td.heldout]).sum())
            n += int(td.heldout.size)
        if n == 0:
            skipped.append(t)
            continue
        per_slice.append((t, n, float(np.exp(-ll / n))))
        total_ll += ll
        total_n += n
    if total_n == 0:
        raise ValueError("no held-out tokens anywhere in the split")
    overall = float(np.exp(-total_ll / total_n))
    slice_mean = float(np.mean([p for _, _, p in per_slice]))
    return PerplexityReport(per_slice=tuple(per_slice), overall=overall,
                            slice_mean=slice_mean, n_heldout_tokens=total_n,
                            skipped_slices=tuple(skipped))


def top_words(model: ModelState, vocabulary: Vocabulary, t: int, k: int,
              n: int) -> list:
    """Top-n (term, probability) of topic k at slice t, ties broken by word id."""
    sl = model.slices[t - 1]
    if n > sl.v:
        raise ValueError(f"n={n} exceeds vocabulary size {sl.v}")
    p = softmax(sl.phi[k])
    order = np.lexsort((np.arange(p.shape[0]), -p))[:n]
    return [(vocabulary.terms[int(w)], float(p[w])) for w in order]


def topic_trend(model: ModelState, vocabulary: Vocabulary, topic: int, n: int) -> TopicTrend:
    rows = tuple((sl.slice_index, tuple(top_words(model, vocabulary, sl.slice_index, topic, n)))
                 for sl in model.slices)
    return TopicTrend(topic=topic, per_slice_top_words=rows)


def export_trends(model: ModelState, vocabulary: Vocabulary, topics, n: int,
                  out_path) -> None:
    """CSV rows (topic, slice, rank, term, probability) for external plotting."""
    with open(out_path, "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["topic", "slice", "rank", "term", "probability"])
        for k in topics:
            trend = topic_trend(model, vocabulary, k, n)
            for t, words in trend.per_slice_top_words:
                for rank, (term, p) in enumerate(words, start=1):
                    w.writerow([k, t, rank, term, f"{p:.12g}"])
