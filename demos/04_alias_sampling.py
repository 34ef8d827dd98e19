"""Why token sampling is amortized O(1).

A Walker alias table answers "draw from this K-outcome distribution"
with two uniforms after an O(K) build. Proposing topics from stale
alias draws and correcting with a Metropolis-Hastings test keeps the
per-token cost flat in K, while the exact conditional sampler must
touch all K topics for every token.
"""

import time

import numpy as np

from dtmgibbs import Hyperparams, build_alias_table
from dtmgibbs.kernels import alias_draw, rng_for
from dtmgibbs.model import init_state
from dtmgibbs.samplers import (mh_sweep_document, rebuild_proposals,
                               sample_tokens_exact)
from dtmgibbs.synthetic import generate_synthetic

# --- the table itself -------------------------------------------------------
weights = np.array([2.0, 1.0, 0.5, 0.5])
table = build_alias_table(weights)
print("weights:", weights, "-> thresholds", table.prob, "aliases", table.alias)

exact = np.zeros(4)
for j in range(4):
    exact[j] += table.prob[j] / 4
    exact[table.alias[j]] += (1 - table.prob[j]) / 4
print("enumerated draw law:", exact, "(target", weights / weights.sum(), ")")

draws = alias_draw(table, rng_for(0, "demo"), size=200_000)
print("empirical over 200k draws:", np.bincount(draws) / 200_000)

# --- per-token cost vs topic count ------------------------------------------
print("\nper-token sampling cost as the topic count grows:")
print(f"{'K':>5} {'MH us/token':>12} {'exact us/token':>15}")
for k in (25, 100, 400):
    hyper = Hyperparams(K=k)
    corpus, _ = generate_synthetic(hyper, v=100, n_slices=1,
                                   docs_per_slice=30, doc_len=600, seed=k)
    state = init_state(corpus, hyper, seed=1).slices[0]
    n_tokens = sum(len(w) for w in state.tokens)

    props = rebuild_proposals(state, range(state.n_docs))
    rng = rng_for(3, "mh", k)
    t0 = time.perf_counter()
    for d in range(state.n_docs):
        mh_sweep_document(state, d, props, rng)
    mh_us = (time.perf_counter() - t0) / n_tokens * 1e6

    rng = rng_for(4, "naive", k)
    t0 = time.perf_counter()
    for d in range(state.n_docs):
        sample_tokens_exact(state.eta[d], state.phi, state.tokens[d], rng)
    naive_us = (time.perf_counter() - t0) / n_tokens * 1e6
    print(f"{k:>5} {mh_us:>12.3f} {naive_us:>15.3f}")

print("\nthe MH column stays flat; the exact sampler grows with K.")
