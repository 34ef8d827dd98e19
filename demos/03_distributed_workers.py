"""One model, two execution modes, identical results.

Slices only talk to their chain neighbors, and always consume the
neighbor's previous-iteration values. That makes a run with one worker
process per slice numerically identical to the plain sequential loop:
the boundary exchange at the start of each iteration is the only
communication, and everything after it is embarrassingly parallel.
"""

import tempfile
import time

import numpy as np

from dtmgibbs import Hyperparams, TrainConfig, train
from dtmgibbs.cluster import run_distributed_sockets
from dtmgibbs.synthetic import generate_synthetic

hyper = Hyperparams(K=4)
corpus, _ = generate_synthetic(hyper, v=50, n_slices=4,
                               docs_per_slice=60, doc_len=50, seed=21)
cfg = TrainConfig(iterations=20, minibatch_size=30, seed=9)


def fingerprint(state):
    return np.concatenate([sl.phi.ravel() for sl in state.slices])


t0 = time.perf_counter()
seq = train(corpus, hyper, cfg).state
print(f"sequential engine:        {time.perf_counter() - t0:5.1f}s")

t0 = time.perf_counter()
with tempfile.TemporaryDirectory() as td:
    sock = run_distributed_sockets(corpus, hyper, cfg, td)
print(f"socket workers:           {time.perf_counter() - t0:5.1f}s  "
      f"(one process per slice, loopback TCP)")

print(f"\nsequential == sockets:    {np.array_equal(fingerprint(seq), fingerprint(sock))}")

msgs = 2 * (corpus.n_slices - 1) * 2 * cfg.iterations
values = 2 * (corpus.n_slices - 1) * (hyper.K + hyper.K * corpus.vocabulary.size)
print(f"\nboundary traffic: {msgs} messages per run, "
      f"{values} float64 values per iteration - independent of corpus size")
