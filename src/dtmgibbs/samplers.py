"""The four conditional samplers of the blockwise Gibbs scheme.

* slice mean alpha_t: exact Gaussian draw (product of its chain
  neighbors and the document-parameter likelihood, all Gaussian with
  diagonal covariance, so completing the square is O(K));
* document parameters eta_{d,t}: one Langevin (SGLD) step per
  iteration against the document's topic counts;
* topic-term parameters phi_{k,t}: one SGLD step per row against the
  mini-batch word counts, with the chained-Gaussian prior;
* token assignments z: cyclic Metropolis-Hastings with alias-table
  proposals: one doc-proposal then one word-proposal per token,
  amortized O(1) per token.

Acceptance arithmetic stays in log space throughout: eta and phi are
unbounded, so ratios are formed as differences and exp() only ever sees
values clamped at 0 from above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import (AliasTable, alias_draw_stacked, build_alias_matrix,
                      pool_draw_many, refill_pool)
from .kernels import pool_draw  # noqa: F401 - perfbench's tracer wraps samplers.pool_draw
from .model import Hyperparams, SliceState

__all__ = [
    "NeighborContext",
    "MhProposalState",
    "alpha_posterior",
    "sample_alpha",
    "grad_log_post_eta",
    "sgld_update_eta",
    "grad_log_post_phi",
    "sgld_update_phi",
    "rebuild_proposals",
    "mh_sweep_document",
    "sample_tokens_exact",
]


@dataclass(frozen=True)
class NeighborContext:
    """Previous-iteration parameter values of the adjacent slices.

    ``left`` is the t-1 value and ``right`` the t+1 value; either may be
    None at a chain end.  The synthetic zero anchor at t=0 is passed as
    an explicit zero array by the engine, so t=1 normally has a left
    neighbor even when it is the first slice.
    """

    left: np.ndarray | None = None
    right: np.ndarray | None = None

    @property
    def n_present(self) -> int:
        return (self.left is not None) + (self.right is not None)

    def mean(self) -> np.ndarray:
        if self.n_present == 0:
            raise ValueError("no neighbors present")
        if self.left is None:
            return np.asarray(self.right, dtype=np.float64)
        if self.right is None:
            return np.asarray(self.left, dtype=np.float64)
        return (np.asarray(self.left, dtype=np.float64)
                + np.asarray(self.right, dtype=np.float64)) / 2.0

    def row(self, k: int) -> "NeighborContext":
        """Row view for per-topic updates of a stacked (K, V) parameter."""
        return NeighborContext(
            left=None if self.left is None else self.left[k],
            right=None if self.right is None else self.right[k],
        )


# ---------------------------------------------------------------------------
# alpha_t: exact Gaussian conditional
# ---------------------------------------------------------------------------

def alpha_posterior(neighbors: NeighborContext, eta_bar, d_t: int,
                    hyper: Hyperparams) -> tuple[np.ndarray, float]:
    """Closed-form (mean, per-coordinate variance) of the alpha conditional.

    Precision is (n_nb/sigma2 + D_t/psi2) I with n_nb the number of
    present neighbors; the mean is the precision-weighted combination of
    the neighbor average and the document-parameter average eta_bar.
    """
    n_nb = neighbors.n_present
    if n_nb == 0 and d_t == 0:
        raise ValueError("alpha conditional undefined: no neighbors and no documents")
    lam = n_nb / hyper.sigma2 + d_t / hyper.psi2
    k = hyper.K
    mu = np.zeros(k)
    if n_nb > 0:
        mu += (n_nb / hyper.sigma2) * neighbors.mean()
    if d_t > 0:
        mu += (d_t / hyper.psi2) * np.asarray(eta_bar, dtype=np.float64)
    mu /= lam
    return mu, 1.0 / lam


def sample_alpha(neighbors: NeighborContext, eta_bar, d_t: int,
                 hyper: Hyperparams, rng: np.random.Generator) -> np.ndarray:
    """Draw alpha_t from its exact Gaussian conditional in O(K)."""
    mu, var = alpha_posterior(neighbors, eta_bar, d_t, hyper)
    return mu + np.sqrt(var) * rng.standard_normal(mu.shape[0])


# ---------------------------------------------------------------------------
# eta_{d,t}: SGLD
# ---------------------------------------------------------------------------

def grad_log_post_eta(eta, alpha, c_doc, n_d: int, psi2: float,
                      eta_log_norm: float | None = None) -> np.ndarray:
    """Gradient of the log conditional of one document's parameter.

    Component k: -(eta_k - alpha_k)/psi2 + c_doc[k] - N_d * pi(eta)_k.
    O(K) given the cached softmax log-normalizer.
    """
    eta = np.asarray(eta, dtype=np.float64)
    c_doc = np.asarray(c_doc)
    if int(c_doc.sum()) != n_d:
        raise ValueError(f"c_doc sums to {int(c_doc.sum())}, expected N_d={n_d}")
    if eta_log_norm is None:
        m = eta.max()
        eta_log_norm = m + np.log(np.exp(eta - m).sum())
    pi = np.exp(eta - eta_log_norm)
    return -(eta - np.asarray(alpha, dtype=np.float64)) / psi2 + c_doc - n_d * pi


def _sgld_step(x, grad, eps: float, rng: np.random.Generator) -> np.ndarray:
    if eps <= 0:
        raise ValueError("step size must be positive")
    grad = np.asarray(grad, dtype=np.float64)
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError("non-finite gradient in SGLD update")
    x = np.asarray(x, dtype=np.float64)
    return x + 0.5 * eps * grad + np.sqrt(eps) * rng.standard_normal(x.shape)


def sgld_update_eta(eta, grad, eps: float, rng: np.random.Generator) -> np.ndarray:
    """eta' = eta + eps/2 * grad + N(0, eps I).

    The document likelihood uses all of the document's tokens, so no
    mini-batch rescaling enters here.
    """
    return _sgld_step(eta, grad, eps, rng)


# ---------------------------------------------------------------------------
# phi_{k,t}: SGLD
# ---------------------------------------------------------------------------

def grad_log_post_phi(phi_row, neighbors_row: NeighborContext, c_word_row,
                      c_topic_k: int, beta2: float, batch_scale: float = 1.0,
                      phi_log_norm: float | None = None) -> np.ndarray:
    """Gradient of the log conditional of one topic's term parameter row.

    The chain prior contributes (left + right - 2*phi)/beta2 with two
    neighbors or (nb - phi)/beta2 with one; the word-count likelihood is
    scaled by batch_scale = D_t / |mini-batch| to stay unbiased when the
    counts come from a mini-batch.
    """
    phi_row = np.asarray(phi_row, dtype=np.float64)
    c_word_row = np.asarray(c_word_row)
    if int(c_word_row.sum()) != int(c_topic_k):
        raise ValueError(f"word counts sum to {int(c_word_row.sum())}, "
                         f"expected c_topic={int(c_topic_k)}")
    n_nb = neighbors_row.n_present
    if n_nb == 2:
        prior = (neighbors_row.left + neighbors_row.right - 2.0 * phi_row) / beta2
    elif n_nb == 1:
        nb = neighbors_row.left if neighbors_row.left is not None else neighbors_row.right
        prior = (np.asarray(nb, dtype=np.float64) - phi_row) / beta2
    else:
        prior = np.zeros_like(phi_row)
    if phi_log_norm is None:
        m = phi_row.max()
        phi_log_norm = m + np.log(np.exp(phi_row - m).sum())
    pi = np.exp(phi_row - phi_log_norm)
    return prior + batch_scale * (c_word_row - float(c_topic_k) * pi)


def sgld_update_phi(phi_row, grad, eps: float, rng: np.random.Generator) -> np.ndarray:
    """Same Langevin step as the document update, V-dimensional noise."""
    return _sgld_step(phi_row, grad, eps, rng)


# ---------------------------------------------------------------------------
# z_{d,n,t}: cyclic Metropolis-Hastings with alias proposals
# ---------------------------------------------------------------------------

class MhProposalState:
    """One iteration's proposal tables.

    Each mini-batch document has an alias table over exp(eta_d) with a
    pool of stale draws.  The word tables over exp(phi[:, w]) are the
    stacked (V, K) ``word_prob``/``word_alias`` arrays, which the sweep
    reads by gather; they keep no pools.  Both are rebuilt every
    iteration because the parameters they were built from move every
    iteration.
    """

    __slots__ = ("doc_tables", "word_prob", "word_alias")

    def __init__(self, doc_tables, word_prob, word_alias):
        self.doc_tables: dict[int, AliasTable] = doc_tables
        self.word_prob = word_prob
        self.word_alias = word_alias


def rebuild_proposals(slice_state: SliceState, minibatch,
                      rng: np.random.Generator) -> MhProposalState:
    """Fresh proposal tables for one iteration.

    The doc tables of the mini-batch and the V word tables are each
    built in one stacked alias construction.  Each doc table then gets
    a full pool of K stale draws from ``rng``, in mini-batch order; the
    word tables get no pools.
    """
    docs = [int(d) for d in minibatch]
    eta = slice_state.eta[docs]
    doc_prob, doc_alias = build_alias_matrix(
        np.exp(eta - eta.max(axis=1, keepdims=True)))
    doc_tables = {}
    for i, d in enumerate(docs):
        table = AliasTable(doc_prob[i], doc_alias[i])
        refill_pool(table, rng)
        doc_tables[d] = table

    col_max = slice_state.phi.max(axis=0)
    word_weights = np.exp(slice_state.phi - col_max).T  # (V, K)
    word_prob, word_alias = build_alias_matrix(word_weights)
    return MhProposalState(doc_tables, word_prob, word_alias)


def mh_sweep_document(slice_state: SliceState, d: int, proposals: MhProposalState,
                      rng: np.random.Generator) -> np.ndarray:
    """Resample every token of one document; returns the new z array.

    Tokens are independent given (eta, phi), so the whole document is
    one batch of doc-steps followed by one batch of word-steps.  A doc
    step proposes s ~ exp(eta_d) and accepts with min(1, exp(phi[s,w] -
    phi[z,w])); a word step proposes s ~ exp(phi[:,w]) and accepts with
    min(1, exp(eta_d[s] - eta_d[z])).  The ratios are exact because the
    tables were built from the parameter values they read.  Doc
    proposals drain the document's own pool; word proposals are drawn
    straight from the stacked word tables with this document's stream,
    so the sweep's output depends only on (document, iteration), never
    on the order in which documents are swept.
    """
    w = slice_state.tokens[d]
    z = slice_state.z[d]
    n = w.shape[0]
    if n == 0:
        return z.copy()
    eta_d = slice_state.eta[d]
    phi = slice_state.phi

    s = pool_draw_many(proposals.doc_tables[d], rng, n)
    log_a = phi[s, w] - phi[z, w]
    z1 = np.where(np.log(rng.random(n)) < log_a, s, z)

    s2 = alias_draw_stacked(proposals.word_prob, proposals.word_alias, w.astype(np.int64), rng)
    log_a = eta_d[s2] - eta_d[z1]
    z2 = np.where(np.log(rng.random(n)) < log_a, s2, z1)
    return z2.astype(np.int32)


def sample_tokens_exact(eta_d: np.ndarray, phi: np.ndarray, tokens: np.ndarray,
                        rng: np.random.Generator) -> np.ndarray:
    """Reference sampler from the exact token conditional, O(K) per token.

    Materializes p(z=k) ∝ exp(eta_d[k] + phi[k, w]) for every token and
    inverts the CDF; the baseline the amortized-O(1) sampler is measured
    against.
    """
    logits = eta_d[None, :] + phi.T[tokens]             # (N, K)
    logits = logits - logits.max(axis=1, keepdims=True)
    p = np.exp(logits)
    c = np.cumsum(p, axis=1)
    u = rng.random(tokens.shape[0]) * c[:, -1]
    z = (c <= u[:, None]).sum(axis=1)
    return np.minimum(z, phi.shape[0] - 1).astype(np.int32)
