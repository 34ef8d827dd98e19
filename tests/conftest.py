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

from dtmgibbs.model import Hyperparams
from dtmgibbs.synthetic import generate_synthetic


@pytest.fixture(scope="session")
def small_synthetic():
    """A small learnable corpus shared by the engine/cluster/eval tests."""
    hyper = Hyperparams(K=4, sigma2=0.1, beta2=0.1, psi2=0.1)
    corpus, params = generate_synthetic(hyper, v=40, n_slices=3,
                                        docs_per_slice=25, doc_len=30, seed=17)
    return hyper, corpus, params


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
    """Bitwise equality of two model states, token assignments included."""
    if len(a.slices) != len(b.slices):
        return False
    for x, y in zip(a.slices, b.slices):
        if not (np.array_equal(x.alpha, y.alpha)
                and np.array_equal(x.phi, y.phi)
                and np.array_equal(x.eta, y.eta)
                and len(x.z) == len(y.z)
                and all(np.array_equal(za, zb) for za, zb in zip(x.z, y.z))):
            return False
    return True
