import time

import numpy as np
import pytest
from conftest import alpha_mean_long_form, enumerate_alias_measure
from scipy import stats

from dtmgibbs.kernels import (AliasTable, alias_draw_stacked, build_alias_table,
                              log_sum_exp, rng_for, softmax)
from dtmgibbs.model import Hyperparams, SliceState
from dtmgibbs.samplers import (MhProposalState, NeighborContext, WordTables,
                               alpha_posterior, build_word_tables,
                               grad_log_post_eta, grad_log_post_phi,
                               mh_sweep_document, rebuild_proposals,
                               sample_alpha, sample_tokens_exact,
                               sgld_update_eta, sgld_update_phi)


def central_diff(f, x, h=1e-5):
    g = np.empty_like(x, dtype=float)
    for i in range(x.shape[0]):
        e = np.zeros_like(x, dtype=float)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


def toy_slice(k, v, n_docs, doc_len, seed=0, eta_scale=1.0, phi_scale=1.0):
    rng = np.random.default_rng(seed)
    tokens = [rng.integers(0, v, size=doc_len).astype(np.int32) for _ in range(n_docs)]
    z = [rng.integers(0, k, size=doc_len).astype(np.int32) for _ in range(n_docs)]
    eta = eta_scale * rng.normal(size=(n_docs, k))
    phi = phi_scale * rng.normal(size=(k, v))
    return SliceState(1, tokens, np.zeros(k), phi, eta, z)


class TestAlphaSampler:
    def test_no_documents_product_of_neighbors(self):
        hyper = Hyperparams(K=5, sigma2=0.4)
        v = np.full(5, 1.3)
        nb = NeighborContext(left=v, right=v)
        draws = np.stack([sample_alpha(nb, None, 0, hyper, rng_for(0, "a", i))
                          for i in range(100_000)])
        np.testing.assert_allclose(draws.mean(axis=0), 1.3, atol=0.02)
        np.testing.assert_allclose(draws.var(axis=0), hyper.sigma2 / 2, rtol=0.02)

    def test_mean_forms_agree(self):
        hyper = Hyperparams(K=7, sigma2=0.3, psi2=0.7)
        rng = np.random.default_rng(1)
        for _ in range(1000):
            nb = NeighborContext(left=rng.normal(size=7), right=rng.normal(size=7))
            ebar = rng.normal(size=7)
            d_t = int(rng.integers(0, 1000))
            mu, _ = alpha_posterior(nb, ebar, d_t, hyper)
            mu2 = alpha_mean_long_form(nb, ebar, d_t, hyper)
            np.testing.assert_allclose(mu, mu2, atol=1e-12)

    def test_flat_prior_limit(self):
        hyper = Hyperparams(K=3, sigma2=1e12, psi2=0.1)
        nb = NeighborContext(left=np.ones(3), right=-np.ones(3))
        ebar = np.array([0.5, -2.0, 3.0])
        mu, _ = alpha_posterior(nb, ebar, 100, hyper)
        np.testing.assert_allclose(mu, ebar, atol=1e-6)

    def test_single_neighbor_precision(self):
        hyper = Hyperparams(K=2, sigma2=0.5, psi2=0.25)
        nb = NeighborContext(left=np.zeros(2))
        mu, var = alpha_posterior(nb, np.ones(2), 10, hyper)
        lam = 1 / 0.5 + 10 / 0.25
        assert var == pytest.approx(1 / lam)
        np.testing.assert_allclose(mu, (10 / 0.25) * np.ones(2) / lam, atol=1e-14)

    def test_no_neighbors_no_docs_is_error(self):
        with pytest.raises(ValueError):
            alpha_posterior(NeighborContext(), np.zeros(2), 0, Hyperparams(K=2))

    def test_moments_match_closed_form(self):
        hyper = Hyperparams(K=4, sigma2=0.2, psi2=0.3)
        rng = np.random.default_rng(2)
        nb = NeighborContext(left=rng.normal(size=4), right=rng.normal(size=4))
        ebar = rng.normal(size=4)
        mu, var = alpha_posterior(nb, ebar, 37, hyper)
        draws = np.stack([sample_alpha(nb, ebar, 37, hyper, rng_for(1, "m", i))
                          for i in range(100_000)])
        np.testing.assert_allclose(draws.mean(axis=0), mu, atol=0.02 * np.sqrt(var) * 6)
        np.testing.assert_allclose(draws.var(axis=0), var, rtol=0.02)


class TestEtaGradient:
    def test_symmetric_stationary_point(self):
        g = grad_log_post_eta(np.zeros(2), np.zeros(2), np.array([2, 2]), 4, 0.5)
        np.testing.assert_allclose(g, 0.0, atol=1e-14)

    def test_zero_tokens_pure_prior(self):
        eta = np.array([1.0, -1.0])
        alpha = np.array([0.5, 0.5])
        g = grad_log_post_eta(eta, alpha, np.zeros(2, dtype=int), 0, 0.2)
        np.testing.assert_allclose(g, -(eta - alpha) / 0.2, atol=1e-12)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            grad_log_post_eta(np.zeros(2), np.zeros(2), np.array([1, 1]), 3, 0.1)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(25):
            k = int(rng.integers(2, 9))
            psi2 = float(rng.uniform(0.05, 2.0))
            eta = rng.normal(size=k)
            alpha = rng.normal(size=k)
            n_d = int(rng.integers(1, 50))
            c = rng.multinomial(n_d, np.ones(k) / k)

            def logp(e):
                return (-((e - alpha) ** 2).sum() / (2 * psi2)
                        + (c * (e - log_sum_exp(e))).sum())

            g = grad_log_post_eta(eta, alpha, c, n_d, psi2)
            np.testing.assert_allclose(g, central_diff(logp, eta), rtol=1e-4, atol=1e-6)


class TestPhiGradient:
    def test_zero_counts_equal_neighbors(self):
        phi = np.array([0.3, -0.2, 1.0])
        nb = NeighborContext(left=phi.copy(), right=phi.copy())
        g = grad_log_post_phi(phi, nb, np.zeros(3, dtype=int), 0, 0.5)
        np.testing.assert_allclose(g, 0.0, atol=1e-12)

    def test_prior_arithmetic(self):
        nb = NeighborContext(left=np.array([1.0, 0.0]), right=np.array([0.0, 1.0]))
        g = grad_log_post_phi(np.zeros(2), nb, np.zeros(2, dtype=int), 0, 1.0)
        np.testing.assert_allclose(g, [1.0, 1.0], atol=1e-14)

    def test_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            grad_log_post_phi(np.zeros(3), NeighborContext(left=np.zeros(3)),
                              np.array([1, 0, 0]), 5, 0.1)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(4)
        for trial in range(25):
            v = int(rng.integers(2, 13))
            beta2 = float(rng.uniform(0.05, 2.0))
            phi = rng.normal(size=v)
            left = rng.normal(size=v)
            right = rng.normal(size=v)
            c_k = int(rng.integers(1, 60))
            c_w = rng.multinomial(c_k, np.ones(v) / v)
            nb = [NeighborContext(left=left, right=right),
                  NeighborContext(left=left),
                  NeighborContext(right=right)][trial % 3]

            def logp(p):
                out = (c_w * (p - log_sum_exp(p))).sum()
                if nb.left is not None:
                    out -= ((p - left) ** 2).sum() / (2 * beta2)
                if nb.right is not None:
                    out -= ((right - p) ** 2).sum() / (2 * beta2)
                return out

            g = grad_log_post_phi(phi, nb, c_w, c_k, beta2, 1.0)
            np.testing.assert_allclose(g, central_diff(logp, phi), rtol=1e-4, atol=1e-6)

    def test_batch_scale_multiplies_likelihood_only(self):
        rng = np.random.default_rng(5)
        phi = rng.normal(size=4)
        nb = NeighborContext(left=rng.normal(size=4))
        c_k = 12
        c_w = rng.multinomial(c_k, np.ones(4) / 4)
        g1 = grad_log_post_phi(phi, nb, c_w, c_k, 0.3, 1.0)
        g3 = grad_log_post_phi(phi, nb, c_w, c_k, 0.3, 3.0)
        prior = (nb.left - phi) / 0.3
        np.testing.assert_allclose(g3 - prior, 3.0 * (g1 - prior), atol=1e-10)


class TestBlockForms:
    """One call over a stack of rows equals the one-row call per row."""

    def test_eta_gradient_stack_equals_rows(self):
        rng = np.random.default_rng(11)
        for _ in range(10):
            m, k = int(rng.integers(1, 40)), int(rng.integers(1, 12))
            eta = 3.0 * rng.normal(size=(m, k))
            alpha = rng.normal(size=k)
            n_d = rng.integers(0, 60, size=m)
            c_doc = np.array([rng.multinomial(n, np.ones(k) / k) for n in n_d])
            norms = np.array([log_sum_exp(row) for row in eta])
            for log_norm in (None, norms):
                g = grad_log_post_eta(eta, alpha, c_doc, n_d, 0.3, log_norm)
                for i in range(m):
                    row = grad_log_post_eta(eta[i], alpha, c_doc[i], int(n_d[i]), 0.3,
                                            None if log_norm is None else norms[i])
                    np.testing.assert_allclose(g[i], row, rtol=1e-12, atol=1e-12)

    def test_eta_gradient_stack_rejects_one_bad_row(self):
        c_doc = np.array([[1, 1], [2, 0]])
        with pytest.raises(ValueError):
            grad_log_post_eta(np.zeros((2, 2)), np.zeros(2), c_doc, np.array([2, 3]), 0.1)

    def test_phi_gradient_matrix_equals_rows(self):
        rng = np.random.default_rng(12)
        for trial in range(9):
            k, v = int(rng.integers(1, 10)), int(rng.integers(1, 40))
            phi = 2.0 * rng.normal(size=(k, v))
            left, right = rng.normal(size=(k, v)), rng.normal(size=(k, v))
            nb = [NeighborContext(left=left, right=right), NeighborContext(left=left),
                  NeighborContext(right=right)][trial % 3]
            c_word = rng.integers(0, 6, size=(k, v))
            c_topic = c_word.sum(axis=1)
            norms = np.array([log_sum_exp(row) for row in phi])
            for log_norm in (None, norms):
                g = grad_log_post_phi(phi, nb, c_word, c_topic, 0.2, 7.5, log_norm)
                for kk in range(k):
                    row_nb = NeighborContext(
                        left=None if nb.left is None else nb.left[kk],
                        right=None if nb.right is None else nb.right[kk])
                    row = grad_log_post_phi(phi[kk], row_nb, c_word[kk], int(c_topic[kk]),
                                            0.2, 7.5, None if log_norm is None else norms[kk])
                    np.testing.assert_allclose(g[kk], row, rtol=1e-12, atol=1e-12)

    def test_langevin_step_on_a_stack(self):
        x = np.arange(12.0).reshape(3, 4)
        out = sgld_update_eta(x, np.ones((3, 4)), 1e-30, rng_for(0, "stack"))
        assert out.shape == (3, 4)
        np.testing.assert_allclose(out, x, atol=1e-12)


class TestSgldUpdates:
    def test_tiny_step_is_identity(self):
        eta = np.array([1.0, 2.0])
        out = sgld_update_eta(eta, np.zeros(2), 1e-30, rng_for(0, "t"))
        np.testing.assert_allclose(out, eta, atol=1e-10)
        phi = np.array([0.5, -0.5, 2.0])
        out = sgld_update_phi(phi, np.zeros(3), 1e-30, rng_for(0, "t2"))
        np.testing.assert_allclose(out, phi, atol=1e-10)

    def test_noise_variance(self):
        eps = 0.05
        grad = np.full(100_000, 2.0)
        out = sgld_update_eta(np.zeros(100_000), grad, eps, rng_for(0, "nv"))
        resid = out - 0.5 * eps * grad
        assert abs(resid.var() - eps) / eps < 0.02

    def test_nonfinite_gradient_rejected(self):
        with pytest.raises(FloatingPointError):
            sgld_update_eta(np.zeros(2), np.array([np.nan, 0.0]), 0.1, rng_for(0, "x"))

    def test_nonpositive_step_rejected(self):
        with pytest.raises(ValueError):
            sgld_update_eta(np.zeros(2), np.zeros(2), 0.0, rng_for(0, "x"))

    def test_langevin_reaches_gaussian_target(self):
        # 1-D quadratic target: stationary law of the discretized chain
        # matches N(mu, s2) closely for eps << s2
        mu, s2, eps = 0.3, 0.01, 1e-3
        rng = rng_for(0, "ks")
        n, burn = 200_000, 20_000
        x = np.zeros(1)
        xs = np.empty(n)
        for i in range(n):
            x = sgld_update_eta(x, -(x - mu) / s2, eps, rng)
            xs[i] = x[0]
        ks = stats.kstest(xs[burn:], "norm", args=(mu, np.sqrt(s2))).statistic
        assert ks < 0.02

    def test_phi_update_cost_linear_in_kv(self):
        v = 4000
        ks = [10, 20, 40, 80, 160]
        times = []
        rng0 = np.random.default_rng(0)
        for k in ks:
            phi = rng0.normal(size=(k, v))
            nb = NeighborContext(left=rng0.normal(size=(k, v)),
                                 right=rng0.normal(size=(k, v)))
            counts = rng0.integers(0, 5, size=(k, v))
            c_k = counts.sum(axis=1)
            rng = rng_for(0, "timing", k)
            best = np.inf
            for _ in range(5):
                t0 = time.perf_counter()
                for kk in range(k):
                    row_nb = NeighborContext(left=nb.left[kk], right=nb.right[kk])
                    g = grad_log_post_phi(phi[kk], row_nb, counts[kk],
                                          int(c_k[kk]), 0.1, 2.0)
                    sgld_update_phi(phi[kk], g, 1e-3, rng)
                best = min(best, time.perf_counter() - t0)
            times.append(best)
        slope = np.polyfit(np.log(ks), np.log(times), 1)[0]
        assert 0.85 <= slope <= 1.15, f"log-log slope {slope:.3f}"

    def test_phi_block_update_cost_linear_in_kv(self):
        """The engine's form: one gradient and one Langevin call over all
        K rows.  The sizes are interleaved within each repeat, so a drift
        in the host's speed touches every size alike.  K*V spans 20k to
        320k entries, where the cost per entry measured flat on a 2-vCPU
        host; smaller shapes are dominated by the fixed per-call cost."""
        v = 1000
        ks = [20, 40, 80, 160, 320]
        rng0 = np.random.default_rng(0)
        inputs = {}
        for k in ks:
            counts = rng0.integers(0, 5, size=(k, v))
            inputs[k] = (rng0.normal(size=(k, v)),
                         NeighborContext(left=rng0.normal(size=(k, v)),
                                         right=rng0.normal(size=(k, v))),
                         counts, counts.sum(axis=1), rng_for(0, "timing", k))
        best = dict.fromkeys(ks, np.inf)
        for _ in range(9):
            for k, (phi, nb, counts, c_k, rng) in inputs.items():
                t0 = time.perf_counter()
                g = grad_log_post_phi(phi, nb, counts, c_k, 0.1, 2.0)
                sgld_update_phi(phi, g, 1e-3, rng)
                best[k] = min(best[k], time.perf_counter() - t0)
        slope = np.polyfit(np.log(ks), np.log([best[k] for k in ks]), 1)[0]
        assert 0.85 <= slope <= 1.15, f"log-log slope {slope:.3f}"


class TestProposals:
    def test_doc_table_weights_match_softmax(self):
        sl = toy_slice(6, 10, 2, 8, seed=1, eta_scale=2.0)
        props = rebuild_proposals(sl, [1, 0], WordTables(sl, 2))
        for i, d in enumerate((1, 0)):
            table = AliasTable(props.doc_prob[i], props.doc_alias[i])
            np.testing.assert_allclose(enumerate_alias_measure(table),
                                       softmax(sl.eta[d]), atol=1e-12)

    def test_word_tables_match_softmax_columns(self):
        # each word table is built from its column of word_src, the
        # float32 phi the sweep's correction reads
        sl = toy_slice(4, 7, 1, 5, seed=2, phi_scale=1.5)
        props = rebuild_proposals(sl, [0], WordTables(sl, 1))
        src = sl.word_src.astype(np.float64)
        for w in range(7):
            prob, alias = props.word_prob[w], props.word_alias[w]
            measure = np.zeros(4)
            for j in range(4):
                measure[j] += prob[j] / 4
                measure[alias[j]] += (1 - prob[j]) / 4
            np.testing.assert_allclose(measure, softmax(src[:, w]), atol=1e-12)

    def test_uniform_eta_uniform_draws(self):
        sl = toy_slice(5, 4, 1, 3, seed=3)
        sl.eta[:] = 0.0
        sl.refresh_eta_norm()
        props = rebuild_proposals(sl, [0], WordTables(sl, 1))
        draws = alias_draw_stacked(props.doc_prob, props.doc_alias,
                                   np.zeros(50_000, dtype=np.int64), rng_for(1, "draws"))
        chi = stats.chisquare(np.bincount(draws, minlength=5))
        assert chi.pvalue > 0.01

    def test_word_table_known_frequencies(self):
        sl = toy_slice(2, 1, 1, 3, seed=4)
        sl.phi[:, 0] = [np.log(3.0), 0.0]
        sl.refresh_phi_norm()
        props = rebuild_proposals(sl, [0], WordTables(sl, 1))
        draws = alias_draw_stacked(props.word_prob, props.word_alias,
                                   np.zeros(100_000, dtype=np.int64), rng_for(1, "wd"))
        assert abs((draws == 0).mean() - 0.75) < 0.01

    def test_one_stacked_build_per_table_kind(self, monkeypatch):
        import dtmgibbs.samplers as samplers
        built = []
        build = samplers.build_alias_matrix

        def counting_build(rows):
            built.append(np.asarray(rows).shape)
            return build(rows)

        def no_pools(*args):
            raise AssertionError("proposal tables keep no pools")

        monkeypatch.setattr(samplers, "build_alias_matrix", counting_build)
        monkeypatch.setattr(samplers, "refill_pool", no_pools)
        sl = toy_slice(5, 30, 8, 10, seed=10)
        minibatch = [6, 1, 3]
        tables = WordTables(sl, 3)                   # B = ceil(3 * 10 / 5) = 6
        rebuild_proposals(sl, minibatch, tables)     # the first call fills the tables
        built.clear()
        sl.phi = sl.phi + 1.0
        props = rebuild_proposals(sl, minibatch, tables, iteration=1)
        # the doc tables and the B rebuilt word tables: one stacked build
        assert built == [(3 + 6, 5)]
        np.testing.assert_array_equal(props.docs, minibatch)
        prob, alias = build(np.exp(sl.eta[minibatch]
                                   - sl.eta[minibatch].max(axis=1, keepdims=True)))
        np.testing.assert_array_equal(props.doc_prob, prob)
        np.testing.assert_array_equal(props.doc_alias, alias)
        prob, alias = build_word_tables(sl.word_src.astype(np.float64))
        np.testing.assert_array_equal(props.word_prob, prob)
        np.testing.assert_array_equal(props.word_alias, alias)

    def test_word_tables_are_views_without_pools(self):
        # one stacked (V, K) pair whose rows are the scalar builder's
        # tables of the softmax columns; no per-word pool objects
        sl = toy_slice(4, 6, 1, 5, seed=11)
        props = rebuild_proposals(sl, [0], WordTables(sl, 1))
        assert props.word_prob.shape == props.word_alias.shape == (6, 4)
        src = sl.word_src.astype(np.float64)
        weights = np.exp(src - src.max(axis=0))
        for w in range(6):
            table = build_alias_table(weights[:, w])
            np.testing.assert_array_equal(props.word_prob[w], table.prob)
            np.testing.assert_array_equal(props.word_alias[w], table.alias)
        assert set(MhProposalState.__slots__) == {"docs", "doc_prob", "doc_alias",
                                                  "word_prob", "word_alias", "word_src"}


class TestWordTableBudget:
    def test_budget_is_ceil_of_minibatch_tokens_over_k(self):
        sl = toy_slice(7, 50, 10, 9, seed=12)        # 90 tokens over 10 docs
        assert WordTables(sl, 4).budget == 6         # ceil(4 * 9 / 7)
        assert WordTables(sl, 100).budget == 13      # all 10 docs: ceil(90 / 7)
        sl = toy_slice(7, 10, 10, 9, seed=12)        # V = 10 caps the 13
        assert WordTables(sl, 100).budget == 10

    def test_empty_slice_budget_is_one(self):
        sl = SliceState(2, [], np.zeros(3), np.zeros((3, 5)), np.zeros((0, 3)), [])
        assert WordTables(sl, 60).budget == 1

    def test_stale_rebuild_refreshes_budget_columns_round_robin(self):
        sl = toy_slice(4, 10, 3, 8, seed=13)
        tables = WordTables(sl, 1)                   # ceil(8 / 4) = 2
        assert tables.budget == 2
        props = rebuild_proposals(sl, [0], tables=tables, iteration=0)
        np.testing.assert_array_equal(sl.word_src, sl.phi.astype(np.float32))
        assert props.word_src is sl.word_src
        first = sl.word_src.copy()
        sl.phi = sl.phi + 1.0
        for i in (1, 2, 6):                # columns 2i, 2i+1 mod 10; 6 wraps to 2, 3
            rebuild_proposals(sl, [0], tables=tables, iteration=i)
        moved = [2, 3, 4, 5]
        kept = [c for c in range(10) if c not in moved]
        np.testing.assert_array_equal(sl.word_src[:, moved],
                                      sl.phi[:, moved].astype(np.float32))
        np.testing.assert_array_equal(sl.word_src[:, kept], first[:, kept])
        # each kept table is the one built from its source column
        prob, alias = build_word_tables(sl.word_src.astype(np.float64))
        np.testing.assert_array_equal(tables.prob, prob)
        np.testing.assert_array_equal(tables.alias, alias)


def force_proposals(props, d: int, doc_topic: int, word_topic: int) -> None:
    """Make every doc proposal of document d and every word proposal fixed."""
    (i,) = np.flatnonzero(props.docs == d)
    props.doc_prob[i] = 0.0           # the coin always picks the alias
    props.doc_alias[i] = doc_topic
    props.word_prob[:] = 0.0
    props.word_alias[:] = word_topic


class TestTokenSampler:
    def test_self_proposal_always_accepted(self):
        sl = toy_slice(3, 4, 1, 5, seed=5)
        sl.z[0][:] = 1
        props = rebuild_proposals(sl, [0], WordTables(sl, 1))
        rng = rng_for(1, "sp")
        for _ in range(50):
            force_proposals(props, 0, 1, 1)       # proposal = current
            np.testing.assert_array_equal(mh_sweep_document(sl, 0, props, rng), 1)

    def test_word_acceptance_rate_exp_minus_one(self):
        # proposal fixed at topic 1 with eta gap -1: acceptance must be e^-1
        k, v = 2, 1
        trials = 200_000
        tokens = [np.zeros(trials, dtype=np.int32)]
        z = [np.zeros(trials, dtype=np.int32)]
        eta = np.array([[0.0, -1.0]])
        phi = np.zeros((k, v))
        sl = SliceState(1, tokens, np.zeros(k), phi, eta, z)
        props = rebuild_proposals(sl, [0], WordTables(sl, 1))
        force_proposals(props, 0, 0, 1)   # doc step: s == z; word step: s = 1
        out = mh_sweep_document(sl, 0, props, rng_for(1, "ar"))
        assert abs((out == 1).mean() - np.exp(-1)) < 0.005

    def test_chain_reaches_exact_conditional(self):
        # frozen parameters and one set of tables: the stationary law of
        # each token's cyclic chain is softmax(eta + phi[:, w])
        k, v, w = 3, 5, 2
        n = 1000
        sl = toy_slice(k, v, 1, n, seed=6, eta_scale=1.0, phi_scale=1.0)
        sl.tokens[0][:] = w
        sl.z[0][:] = 0
        target = softmax(sl.eta[0] + sl.phi[:, w])
        rng = rng_for(2, "chain")
        props = rebuild_proposals(sl, [0], WordTables(sl, 1))
        counts = np.zeros(k)
        for sweep in range(210):
            sl.z[0] = mh_sweep_document(sl, 0, props, rng)
            if sweep >= 10:
                counts += np.bincount(sl.z[0], minlength=k)
        tv = 0.5 * np.abs(counts / counts.sum() - target).sum()
        assert tv < 0.02, f"TV {tv:.4f} vs target {target}"

    def test_sweep_matches_conditional_distribution(self):
        # run the vectorized sweep as 4000 parallel single-token chains
        k, v, w = 4, 6, 3
        n = 4000
        tokens = [np.full(n, w, dtype=np.int32)]
        z = [np.zeros(n, dtype=np.int32)]
        rng0 = np.random.default_rng(7)
        eta = rng0.normal(size=(1, k))
        phi = rng0.normal(size=(k, v))
        sl = SliceState(1, tokens, np.zeros(k), phi, eta, z)
        target = softmax(eta[0] + phi[:, w])
        rng = rng_for(3, "sweep")
        counts = np.zeros(k)
        tables = WordTables(sl, 1)
        for cycle in range(60):
            props = rebuild_proposals(sl, [0], tables, iteration=cycle)
            sl.z[0] = mh_sweep_document(sl, 0, props, rng)
            if cycle >= 20:
                counts += np.bincount(sl.z[0], minlength=k)
        tv = 0.5 * np.abs(counts / counts.sum() - target).sum()
        assert tv < 0.02, f"TV {tv:.4f}"

    def test_exact_sampler_matches_conditional(self):
        k, v, w = 5, 3, 1
        rng0 = np.random.default_rng(8)
        eta = rng0.normal(size=k)
        phi = rng0.normal(size=(k, v))
        target = softmax(eta + phi[:, w])
        draws = sample_tokens_exact(eta, phi, np.full(100_000, w, dtype=np.int32),
                                    rng_for(4, "exact"))
        emp = np.bincount(draws, minlength=k) / draws.shape[0]
        assert 0.5 * np.abs(emp - target).sum() < 0.01

    def test_acceptance_probabilities_bounded(self):
        # log-space clamp: acceptance paths never exceed one by construction;
        # verify the chain can only ever produce valid topics
        sl = toy_slice(4, 5, 2, 50, seed=9, eta_scale=30.0, phi_scale=30.0)
        props = rebuild_proposals(sl, [0, 1], WordTables(sl, 2))
        out = mh_sweep_document(sl, 0, props, rng_for(5, "hot"))
        assert np.all((0 <= out) & (out < 4))
