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
        "bd40981e30c44540684a91ca9f1766547974a2b502df5a65d36be9956f5ee906",
    "k50-v1000-d60":
        "45d30a94a8a791f649216f61f71d80d99b953500c9e8f7a104d6c9a599f102aa",
    "k3-v20-d30":
        "d5fd543bca797de4caab1e1eadc5882ce03081bafac6035bf1b8c45adc9ad2c7",
    "k8-v50-d20":
        "8c520c1841ed154479aeb83cf2da069267b19f9139c19ab1b31a6725e77f8f51",
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
