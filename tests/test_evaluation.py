import numpy as np
import pytest

from dtmgibbs.corpus import load_corpus, split_holdout
from dtmgibbs.evaluation import (EvalConfig, export_trends, infer_doc_eta,
                                 perplexity, top_words)
from dtmgibbs.kernels import SgldSchedule, rng_for, softmax, softmax_rows
from dtmgibbs.model import Hyperparams, init_state
from dtmgibbs.synthetic import generate_synthetic


def trained_like_state(corpus, hyper, seed=0, phi_scale=1.0):
    """An init state with non-trivial phi, handy for scoring tests."""
    st = init_state(corpus, hyper, seed)
    rng = np.random.default_rng(seed)
    for sl in st.slices:
        sl.phi[:] = phi_scale * rng.normal(size=sl.phi.shape)
        sl.alpha[:] = rng.normal(size=hyper.K)
        sl.refresh_phi_norm()
    return st


class TestInferDocEta:
    def test_zero_steps_returns_alpha(self):
        hyper = Hyperparams(K=3)
        alpha = np.array([0.1, -0.2, 0.3])
        out = infer_doc_eta(np.array([0, 1], dtype=np.int32), np.zeros((3, 5)),
                            alpha, hyper, SgldSchedule(0.5, 100, 0.8), 0,
                            rng_for(0, "z"))
        np.testing.assert_array_equal(out, alpha)

    def test_empty_observed_rejected(self):
        hyper = Hyperparams(K=2)
        with pytest.raises(ValueError):
            infer_doc_eta(np.empty(0, dtype=np.int32), np.zeros((2, 4)),
                          np.zeros(2), hyper, SgldSchedule(0.5, 100, 0.8), 5,
                          rng_for(0, "e"))

    def test_k1_stays_near_alpha(self):
        hyper = Hyperparams(K=1, psi2=0.05)
        alpha = np.array([0.7])
        out = infer_doc_eta(np.zeros(30, dtype=np.int32), np.zeros((1, 4)),
                            alpha, hyper, SgldSchedule(0.5, 100, 0.8), 50,
                            rng_for(1, "k1"))
        # prior pulls toward alpha; the likelihood is flat in a 1-topic model
        assert abs(out[0] - alpha[0]) < 0.5

    def test_recovers_known_document_parameter(self):
        hyper = Hyperparams(K=3, psi2=0.1)
        tvs = []
        for seed in range(50):
            rng = rng_for(seed, "gen")
            phi = 2.0 * rng.standard_normal((3, 60))
            alpha = rng.standard_normal(3)
            eta_star = alpha + np.sqrt(hyper.psi2) * rng.standard_normal(3)
            theta = softmax(eta_star)
            soft = softmax_rows(phi)
            z = rng.choice(3, size=500, p=theta)
            w = np.array([rng.choice(60, p=soft[k]) for k in z], dtype=np.int32)
            eta_hat = infer_doc_eta(w, phi, alpha, hyper,
                                    SgldSchedule(0.5, 100, 0.8), 50,
                                    rng_for(seed, "fit"))
            tvs.append(0.5 * np.abs(softmax(eta_hat) - theta).sum())
        assert np.median(tvs) < 0.1, f"median TV {np.median(tvs):.3f}"


class TestPerplexity:
    def _split(self, tmp_path, n_docs=10, doc_len=12, v=9, n_slices=2):
        lines = []
        rng = np.random.default_rng(0)
        for t in range(1, n_slices + 1):
            for _ in range(n_docs):
                toks = " ".join(f"w{rng.integers(0, v)}" for _ in range(doc_len))
                lines.append(f"{t}\t{toks}")
        p = tmp_path / "c.txt"
        p.write_text("\n".join(lines) + "\n", encoding="utf-8")
        corpus = load_corpus(p)
        return corpus, split_holdout(corpus, 0.3, 0.5, seed=4)

    def test_uniform_model_perplexity_equals_vocab_size(self, tmp_path):
        corpus, split = self._split(tmp_path)
        v = corpus.vocabulary.size
        st = init_state(split.train, Hyperparams(K=3), seed=0)
        for sl in st.slices:
            sl.phi[:] = 0.0
            sl.refresh_phi_norm()
        rep = perplexity(split, st, EvalConfig(inner_steps=0))
        assert rep.overall == pytest.approx(v, abs=1e-9)
        for _, _, p in rep.per_slice:
            assert p == pytest.approx(v, abs=1e-9)

    def test_k1_reduces_to_single_topic_cross_entropy(self, tmp_path):
        corpus, split = self._split(tmp_path)
        hyper = Hyperparams(K=1)
        st = trained_like_state(split.train, hyper, seed=3)
        rep = perplexity(split, st, EvalConfig(inner_steps=0))
        ll, n = 0.0, 0
        for td in split.test:
            p = softmax(st.slices[td.slice_index - 1].phi[0])
            ll += np.log(p[td.heldout]).sum()
            n += td.heldout.size
        assert rep.overall == pytest.approx(np.exp(-ll / n), abs=1e-10)

    def test_matches_bruteforce_mixture(self, tmp_path):
        corpus, split = self._split(tmp_path, n_docs=5, n_slices=1)
        hyper = Hyperparams(K=4)
        st = trained_like_state(split.train, hyper, seed=5)
        rep = perplexity(split, st, EvalConfig(inner_steps=0))
        # brute force: materialize the full K x V mixture per document
        ll, n = 0.0, 0
        for td in split.test:
            sl = st.slices[td.slice_index - 1]
            theta = softmax(sl.alpha)  # inner_steps=0 -> eta_hat = alpha
            mixture = np.zeros(sl.v)
            for k in range(hyper.K):
                mixture += theta[k] * softmax(sl.phi[k])
            for w in td.heldout:
                ll += np.log(mixture[w])
                n += 1
        assert rep.overall == pytest.approx(np.exp(-ll / n), abs=1e-10)

    def test_shift_invariance(self, tmp_path):
        corpus, split = self._split(tmp_path)
        hyper = Hyperparams(K=3)
        st = trained_like_state(split.train, hyper, seed=6)
        base = perplexity(split, st, EvalConfig(inner_steps=0)).overall
        for sl in st.slices:
            sl.phi[1] += 7.0
            sl.alpha += 3.0
            sl.refresh_phi_norm()
        shifted = perplexity(split, st, EvalConfig(inner_steps=0)).overall
        assert shifted == pytest.approx(base, abs=1e-9)

    def test_slice_without_heldout_omitted_with_note(self, tmp_path):
        p = tmp_path / "c.txt"
        # slice 2 has only single-token docs: nothing can be held out there
        p.write_text("1\tw0 w1 w2 w0\n1\tw1 w2 w0 w1\n2\tw0\n2\tw1\n",
                     encoding="utf-8")
        corpus = load_corpus(p)
        split = split_holdout(corpus, 0.9, 0.5, seed=1)
        st = init_state(split.train, Hyperparams(K=2), seed=0)
        rep = perplexity(split, st, EvalConfig(inner_steps=0))
        assert 2 in rep.skipped_slices
        assert all(t != 2 for t, _, _ in rep.per_slice)

    def test_trained_beats_uniform_and_deterministic(self, small_synthetic):
        hyper, corpus, _ = small_synthetic
        from dtmgibbs.engine import TrainConfig, train
        split = split_holdout(corpus, 0.2, 0.5, seed=2)
        res = train(split.train, hyper,
                    TrainConfig(iterations=60, minibatch_size=10, seed=1))
        rep1 = perplexity(split, res.state, EvalConfig(seed=9))
        rep2 = perplexity(split, res.state, EvalConfig(seed=9))
        assert rep1.overall == rep2.overall  # same seed, same report
        assert rep1.overall < corpus.vocabulary.size
        assert rep1.n_heldout_tokens > 0

    def test_report_csv_layout(self, tmp_path):
        corpus, split = self._split(tmp_path)
        st = init_state(split.train, Hyperparams(K=2), seed=0)
        rep = perplexity(split, st, EvalConfig(inner_steps=0))
        out = tmp_path / "rep.csv"
        rep.to_csv(out)
        lines = out.read_text().strip().splitlines()
        assert lines[0] == "slice,n_heldout,perplexity"
        assert lines[-2].startswith("overall,")
        assert lines[-1].startswith("slice_mean,")


class TestTopWords:
    def _state(self, v=8, k=2, t=2):
        hyper = Hyperparams(K=k)
        corpus, _ = generate_synthetic(hyper, v=v, n_slices=t,
                                       docs_per_slice=3, doc_len=5, seed=0)
        return corpus, init_state(corpus, hyper, seed=0)

    def test_flat_row_returns_first_ids(self):
        corpus, st = self._state()
        st.slices[0].phi[0] = 0.0
        st.slices[0].refresh_phi_norm()
        words = top_words(st, corpus.vocabulary, 1, 0, 3)
        assert [w for w, _ in words] == list(corpus.vocabulary.terms[:3])
        for _, p in words:
            assert p == pytest.approx(1 / 8)

    def test_peaked_entry_probability(self):
        corpus, st = self._state()
        v = corpus.vocabulary.size
        st.slices[0].phi[0] = 0.0
        st.slices[0].phi[0][3] = 10.0
        st.slices[0].refresh_phi_norm()
        (term, p), *_ = top_words(st, corpus.vocabulary, 1, 0, 2)
        assert term == corpus.vocabulary.terms[3]
        assert p == pytest.approx(np.exp(10) / (np.exp(10) + v - 1), rel=1e-12)

    def test_full_vocabulary_is_permutation(self):
        corpus, st = self._state()
        words = top_words(st, corpus.vocabulary, 1, 1, corpus.vocabulary.size)
        assert sorted(w for w, _ in words) == sorted(corpus.vocabulary.terms)

    def test_n_beyond_vocab_rejected(self):
        corpus, st = self._state()
        with pytest.raises(ValueError):
            top_words(st, corpus.vocabulary, 1, 0, 99)

    @pytest.mark.parametrize("k, n", [(-1, 2), (2, 2), (0, 0), (0, -2)])
    def test_topic_or_n_out_of_range_rejected(self, k, n):
        corpus, st = self._state()
        with pytest.raises(ValueError):
            top_words(st, corpus.vocabulary, 1, k, n)


class TestExportTrends:
    def test_row_count_and_idempotence(self, tmp_path):
        hyper = Hyperparams(K=3)
        corpus, _ = generate_synthetic(hyper, v=12, n_slices=4,
                                       docs_per_slice=3, doc_len=6, seed=0)
        st = init_state(corpus, hyper, seed=1)
        out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
        export_trends(st, corpus.vocabulary, [0], 5, out1)
        export_trends(st, corpus.vocabulary, [0], 5, out2)
        lines = out1.read_text().splitlines()
        assert len(lines) == 1 + 4 * 5  # header + T*n rows
        assert out1.read_bytes() == out2.read_bytes()

    def test_full_export_probabilities_sum_to_one(self, tmp_path):
        hyper = Hyperparams(K=2)
        corpus, _ = generate_synthetic(hyper, v=9, n_slices=2,
                                       docs_per_slice=3, doc_len=6, seed=0)
        st = init_state(corpus, hyper, seed=2)
        out = tmp_path / "t.csv"
        export_trends(st, corpus.vocabulary, [0, 1], corpus.vocabulary.size, out)
        import csv as csvmod
        sums: dict = {}
        with open(out) as fh:
            for row in csvmod.DictReader(fh):
                key = (row["topic"], row["slice"])
                sums[key] = sums.get(key, 0.0) + float(row["probability"])
        for total in sums.values():
            assert total == pytest.approx(1.0, abs=1e-9)
