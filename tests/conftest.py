from collections import Counter
from pathlib import Path

import numpy as np
import pytest
from hypothesis import settings

# Property tests replay the same examples on every run (no example
# database, a seed derived from each test), with a bounded example count
# and no per-example deadline, so Tier-1 stays reproducible and its
# runtime bounded on a loaded machine.
settings.register_profile("dtmgibbs", derandomize=True, deadline=None,
                          max_examples=60, database=None)
settings.load_profile("dtmgibbs")

from dtmgibbs.corpus import (BAG_OF_WORDS_DIR, Corpus, Document, LoadReport,
                             TimeSlice, Vocabulary)
from dtmgibbs.engine import TrainConfig
from dtmgibbs.model import Hyperparams
from dtmgibbs.synthetic import generate_synthetic


@pytest.fixture(scope="session")
def small_synthetic():
    """A small learnable corpus shared by the engine/cluster/eval tests."""
    hyper = Hyperparams(K=4, sigma2=0.1, beta2=0.1, psi2=0.1)
    corpus, params = generate_synthetic(hyper, v=40, n_slices=3,
                                        docs_per_slice=25, doc_len=30, seed=17)
    return hyper, corpus, params


@pytest.fixture(scope="session")
def stale_synthetic():
    """A corpus on which training rebuilds B < V word tables per
    iteration: K=8, V=200, mini-batches of 6 twenty-token documents
    give B = ceil(6 * 20 / 8) = 15."""
    hyper = Hyperparams(K=8)
    corpus, _ = generate_synthetic(hyper, v=200, n_slices=4,
                                   docs_per_slice=12, doc_len=20, seed=19)
    return hyper, corpus, TrainConfig(iterations=6, minibatch_size=6, seed=3)


@pytest.fixture
def tiny_corpus_file(tmp_path):
    path = tmp_path / "tiny.txt"
    path.write_text("1\ta b a\n2\tb c\n", encoding="utf-8")
    return path


def enumerate_alias_measure(table):
    """Exact draw probabilities: uniform column choice x threshold coin."""
    k = table.k
    p = np.zeros(k)
    for j in range(k):
        p[j] += table.prob[j] / k
        p[table.alias[j]] += (1.0 - table.prob[j]) / k
    return p


def alpha_mean_long_form(neighbors, eta_bar, d_t: int, hyper) -> np.ndarray:
    """The two-neighbor alpha conditional mean written the long way,
    abar + ebar - Lambda^{-1} (2/sigma2 * ebar + D_t/psi2 * abar): an
    oracle independent of the precision-weighted form in the sampler."""
    abar = (np.asarray(neighbors.left, dtype=np.float64)
            + np.asarray(neighbors.right, dtype=np.float64)) / 2.0
    ebar = np.asarray(eta_bar, dtype=np.float64)
    lam = 2.0 / hyper.sigma2 + d_t / hyper.psi2
    return abar + ebar - (2.0 / hyper.sigma2 * ebar + d_t / hyper.psi2 * abar) / lam


def states_equal(a, b) -> bool:
    """Bitwise equality of two model states, token assignments and
    word-table sources included."""
    if len(a.slices) != len(b.slices):
        return False
    for x, y in zip(a.slices, b.slices):
        if not (np.array_equal(x.alpha, y.alpha)
                and np.array_equal(x.phi, y.phi)
                and np.array_equal(x.eta, y.eta)
                and (x.word_src is None) == (y.word_src is None)
                and (x.word_src is None or np.array_equal(x.word_src, y.word_src))
                and len(x.z) == len(y.z)
                and all(np.array_equal(za, zb) for za, zb in zip(x.z, y.z))):
            return False
    return True


def check_invariants(state, row):
    """A ``metrics_sink`` check of the slice a metrics row reports: its
    mini-batch counts and cached normalizers, as the iteration left them.
    Returns the row's (iteration, slice)."""
    t = row["slice"]
    state.counts[t - 1].validate(state.slices[t - 1].tokens)
    state.slices[t - 1].validate_normalizers()
    return row["iteration"], t


def load_corpus_long_form(path, fmt="slice-per-line", *, vocabulary=None,
                          max_terms=None, stopwords=()):
    """``(corpus, report)`` of ``load_corpus`` written the long way, one
    line and one token at a time: an oracle for the bulk loader.  Assumes
    a well-formed file."""
    path = Path(path)
    if fmt == BAG_OF_WORDS_DIR:
        with open(path / "vocab.txt", encoding="utf-8") as fh:
            vocabulary = Vocabulary.from_terms(ln.strip() for ln in fh if ln.strip())
        path = path / "docs.txt"
    raw = []
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            line = line.rstrip("\n")
            if line:
                key, rest = line.split("\t", 1)
                raw.append((key, rest.split()))
    report = LoadReport(docs_read=len(raw), tokens_read=sum(len(t) for _, t in raw))
    if fmt == BAG_OF_WORDS_DIR:
        docs = [(key, [int(t) for t in toks]) for key, toks in raw]
    else:
        if vocabulary is None:
            stop = set(stopwords)
            counts = Counter()
            for _, toks in raw:
                counts.update(t for t in toks if t not in stop)
            ranked = sorted(counts.items(), key=lambda kv: (-kv[1], kv[0]))
            cap = max_terms if max_terms is not None else report.tokens_read
            vocabulary = Vocabulary.from_terms(t for t, _ in ranked[:cap])
        docs = []
        for key, toks in raw:
            ids = [vocabulary.index[t] for t in toks if t in vocabulary.index]
            report.tokens_dropped += len(toks) - len(ids)
            docs.append((key, ids))
    keys = {key for key, _ in raw}
    try:
        keys = sorted(keys, key=lambda k: (int(k), k))
    except ValueError:
        keys = sorted(keys)
    slices = []
    for t, key in enumerate(keys, start=1):
        ids_of_key = [ids for k, ids in docs if k == key]
        slices.append(TimeSlice(t, tuple(Document(np.asarray(ids, dtype=np.int32), f"{t}:{j}")
                                         for j, ids in enumerate(ids_of_key))))
    return Corpus(vocabulary, tuple(slices)), report
