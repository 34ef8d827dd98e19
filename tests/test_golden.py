"""Golden digests of whole runs.

``train()`` and ``perplexity()`` on four fixed configurations hash to
committed values, so a change that means to keep every random stream
and every floating-point operation shows that it did.  A change that
alters the streams on purpose (new draws, another order of operations)
updates ``DIGESTS`` and says so in CHANGES.md.

The digests were computed with numpy 2.4.6.  Another numpy version may
draw or round differently; the failure message then names the version
in use.
"""

import hashlib

import numpy as np
import pytest

from dtmgibbs.corpus import split_holdout
from dtmgibbs.engine import TrainConfig, train
from dtmgibbs.evaluation import EvalConfig, perplexity
from dtmgibbs.model import Hyperparams
from dtmgibbs.synthetic import generate_synthetic

DIGEST_NUMPY = "2.4.6"

# name: (K, V, D_t, T, doc_len, iterations, minibatch)
CONFIGS = {
    "k10-v200-d300": (10, 200, 300, 2, 20, 3, 60),
    "k50-v1000-d60": (50, 1000, 60, 2, 30, 2, 30),
    "k3-v20-d30": (3, 20, 30, 3, 15, 6, 10),
    "k8-v50-d20": (8, 50, 20, 4, 20, 4, 10),
}

DIGESTS = {
    "k10-v200-d300":
        "998da598118084fea2bcbd0e18069279d0bf8b5eeaf2b2df5c1553b10c7a852b",
    "k50-v1000-d60":
        "00e39cd64353c3102d291f78a011341d1a61606487d4be234caa9457500b36be",
    "k3-v20-d30":
        "c4daa2b02a4c6812bbec992417767e6b395dfac7e71a1231aaa5a660e4b25b45",
    "k8-v50-d20":
        "6c71f4aa5e1bc9e0f9df0ef2a0e72aaab9b35e32b94bf6b211996b323821a049",
}


def run_digest(k, v, d_t, n_slices, doc_len, iterations, minibatch) -> str:
    """sha256 over the final alpha, phi, eta and z of every slice, then the
    held-out perplexity report."""
    hyper = Hyperparams(K=k)
    corpus, _ = generate_synthetic(hyper, v=v, n_slices=n_slices,
                                   docs_per_slice=d_t, doc_len=doc_len, seed=k)
    split = split_holdout(corpus, 0.1, 0.5, seed=1)
    cfg = TrainConfig(iterations=iterations, minibatch_size=minibatch, seed=2)
    state = train(split.train, hyper, cfg).state
    report = perplexity(split, state, EvalConfig(seed=3))
    h = hashlib.sha256()
    for sl in state.slices:
        for arr in (sl.alpha, sl.phi, sl.eta):
            h.update(np.asarray(arr, dtype="<f8").tobytes())
        for z in sl.z:
            h.update(np.asarray(z, dtype="<i4").tobytes())
    h.update(repr((report.per_slice, report.overall, report.slice_mean,
                   report.n_heldout_tokens, report.skipped_slices)).encode())
    return h.hexdigest()


@pytest.mark.parametrize("name", sorted(CONFIGS))
def test_run_matches_golden_digest(name):
    got = run_digest(*CONFIGS[name])
    note = ("" if np.__version__ == DIGEST_NUMPY else
            f"; the digests were computed with numpy {DIGEST_NUMPY}, "
            f"this run uses numpy {np.__version__}")
    assert got == DIGESTS[name], f"{name}: digest {got}{note}"
