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

The gradient and Langevin functions take one row or a stack of rows
(a mini-batch's eta, all K rows of phi); each row of a stacked result
equals the one-row result bit for bit, so one call covers a block.

Acceptance arithmetic stays in log space throughout: eta and phi are
unbounded, so ratios are formed as differences and exp() only ever sees
values clamped at 0 from above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .kernels import alias_draw_stacked, build_alias_matrix
# unused here; perfbench's tracer wraps these names in this module
from .kernels import pool_draw, pool_draw_many, refill_pool  # noqa: F401
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
    "mh_sweep",
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

def _per_row(values, x: np.ndarray):
    """Per-row values as a column against a stack of rows ``x``; the
    value of a single row as it is."""
    return np.asarray(values)[:, None] if x.ndim == 2 else values


def _log_norms(x: np.ndarray, log_norm):
    """Row log-normalizers of x, shaped to broadcast against it."""
    if log_norm is None:
        m = x.max(axis=-1, keepdims=True)
        return m + np.log(np.exp(x - m).sum(axis=-1, keepdims=True))
    return _per_row(log_norm, x)


def grad_log_post_eta(eta, alpha, c_doc, n_d, psi2: float,
                      eta_log_norm=None) -> np.ndarray:
    """Gradient of the log conditional of one document's parameter, or of
    a stack of them (rows of ``eta`` and ``c_doc``; ``n_d`` and
    ``eta_log_norm`` one entry per row).

    Component k: -(eta_k - alpha_k)/psi2 + c_doc[k] - N_d * pi(eta)_k.
    O(K) per row given the cached softmax log-normalizer.
    """
    eta = np.asarray(eta, dtype=np.float64)
    c_doc = np.asarray(c_doc)
    if (c_doc.sum(axis=-1) != n_d).any():
        raise ValueError(f"c_doc sums to {c_doc.sum(axis=-1)}, expected N_d={n_d}")
    pi = np.exp(eta - _log_norms(eta, eta_log_norm))
    return (-(eta - np.asarray(alpha, dtype=np.float64)) / psi2 + c_doc
            - _per_row(n_d, eta) * pi)


def _sgld_step(x, grad, eps: float, rng: np.random.Generator) -> np.ndarray:
    if eps <= 0:
        raise ValueError("step size must be positive")
    grad = np.asarray(grad, dtype=np.float64)
    if not np.all(np.isfinite(grad)):
        raise FloatingPointError("non-finite gradient in SGLD update")
    x = np.asarray(x, dtype=np.float64)
    return x + 0.5 * eps * grad + np.sqrt(eps) * rng.standard_normal(x.shape)


def sgld_update_eta(eta, grad, eps: float, rng: np.random.Generator) -> np.ndarray:
    """eta' = eta + eps/2 * grad + N(0, eps I), for one row or a stack.

    The document likelihood uses all of the document's tokens, so no
    mini-batch rescaling enters here.
    """
    return _sgld_step(eta, grad, eps, rng)


# ---------------------------------------------------------------------------
# phi_{k,t}: SGLD
# ---------------------------------------------------------------------------

def grad_log_post_phi(phi, neighbors: NeighborContext, c_word, c_topic,
                      beta2: float, batch_scale: float = 1.0,
                      phi_log_norm=None) -> np.ndarray:
    """Gradient of the log conditional of one topic's term parameter row,
    or of all K rows (``neighbors`` then holds (K, V) values; ``c_topic``
    and ``phi_log_norm`` one entry per row).

    The chain prior contributes (left + right - 2*phi)/beta2 with two
    neighbors or (nb - phi)/beta2 with one; the word-count likelihood is
    scaled by batch_scale = D_t / |mini-batch| to stay unbiased when the
    counts come from a mini-batch.
    """
    phi = np.asarray(phi, dtype=np.float64)
    c_word = np.asarray(c_word)
    if (c_word.sum(axis=-1) != c_topic).any():
        raise ValueError(f"word counts sum to {c_word.sum(axis=-1)}, "
                         f"expected c_topic={c_topic}")
    # the likelihood term, built in one buffer:
    # batch_scale * (c_word - c_topic * softmax(phi))
    g = np.subtract(phi, _log_norms(phi, phi_log_norm))
    np.exp(g, out=g)
    g *= _per_row(c_topic, phi)
    np.subtract(c_word, g, out=g)
    g *= batch_scale
    n_nb = neighbors.n_present
    if n_nb == 2:
        g += (neighbors.left + neighbors.right - 2.0 * phi) / beta2
    elif n_nb == 1:
        nb = neighbors.left if neighbors.left is not None else neighbors.right
        g += (np.asarray(nb, dtype=np.float64) - phi) / beta2
    return g


def sgld_update_phi(phi, grad, eps: float, rng: np.random.Generator) -> np.ndarray:
    """Same Langevin step as the document update, one noise draw per entry."""
    return _sgld_step(phi, grad, eps, rng)


# ---------------------------------------------------------------------------
# z_{d,n,t}: cyclic Metropolis-Hastings with alias proposals
# ---------------------------------------------------------------------------

class MhProposalState:
    """One iteration's proposal tables, stacked.

    Row i of ``doc_prob``/``doc_alias`` is the alias table over exp(eta_d)
    of document ``docs[i]``; row w of ``word_prob``/``word_alias`` is the
    table over exp(phi[:, w]).  The sweep reads both by gather; no table
    keeps a pool of draws.  They are rebuilt every iteration because the
    parameters they were built from move every iteration.
    """

    __slots__ = ("docs", "doc_prob", "doc_alias", "word_prob", "word_alias")

    def __init__(self, docs, doc_prob, doc_alias, word_prob, word_alias):
        self.docs = docs
        self.doc_prob = doc_prob
        self.doc_alias = doc_alias
        self.word_prob = word_prob
        self.word_alias = word_alias


def rebuild_proposals(slice_state: SliceState, minibatch) -> MhProposalState:
    """Fresh proposal tables for one iteration: the mini-batch's doc tables
    and the V word tables, each kind built in one stacked alias
    construction.  Draws nothing."""
    docs = np.asarray(minibatch, dtype=np.int64).reshape(-1)
    eta = slice_state.eta[docs]
    doc_prob, doc_alias = build_alias_matrix(
        np.exp(eta - eta.max(axis=1, keepdims=True)))
    col_max = slice_state.phi.max(axis=0)
    word_weights = np.exp(slice_state.phi - col_max).T  # (V, K)
    word_prob, word_alias = build_alias_matrix(word_weights)
    return MhProposalState(docs, doc_prob, doc_alias, word_prob, word_alias)


def mh_sweep(eta, phi, w, z, rows, proposals: MhProposalState,
             rng: np.random.Generator) -> np.ndarray:
    """Resample a batch of tokens; returns their new topics as int32.

    Token i has word ``w[i]`` and topic ``z[i]``, and belongs to the
    document whose parameter is ``eta[rows[i]]`` and whose doc table is
    row ``rows[i]`` of ``proposals``.  Tokens are independent given
    (eta, phi), so the batch is one doc step over every token, then one
    word step.  A doc step proposes s ~ exp(eta_d) and accepts with
    min(1, exp(phi[s,w] - phi[z,w])); a word step proposes
    s ~ exp(phi[:,w]) and accepts with min(1, exp(eta_d[s] - eta_d[z])).
    The ratios are exact because the tables were built from the
    parameter values they read.  ``rng`` is read in a fixed order: doc
    proposals, doc coins, word proposals, word coins.
    """
    n = w.shape[0]
    s = alias_draw_stacked(proposals.doc_prob, proposals.doc_alias, rows, rng)
    log_a = phi[s, w] - phi[z, w]
    z1 = np.where(np.log(rng.random(n)) < log_a, s, z)

    s2 = alias_draw_stacked(proposals.word_prob, proposals.word_alias, w, rng)
    flat, base = eta.ravel(), rows * eta.shape[1]   # flat gathers beat 2-D ones
    log_a = flat[base + s2] - flat[base + z1]
    z2 = np.where(np.log(rng.random(n)) < log_a, s2, z1)
    return z2.astype(np.int32)


def mh_sweep_document(slice_state: SliceState, d: int, proposals: MhProposalState,
                      rng: np.random.Generator) -> np.ndarray:
    """Resample every token of document d, one of ``proposals.docs``, with
    ``mh_sweep``; returns the new z array."""
    one = proposals
    docs = proposals.docs.tolist()
    if docs != [d]:
        i = docs.index(d)
        one = MhProposalState(proposals.docs[i:i + 1], proposals.doc_prob[i:i + 1],
                              proposals.doc_alias[i:i + 1], proposals.word_prob,
                              proposals.word_alias)
    w = slice_state.tokens[d]
    return mh_sweep(slice_state.eta[d:d + 1], slice_state.phi, w, slice_state.z[d],
                    np.zeros(w.shape[0], dtype=np.int64), one, rng)


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
