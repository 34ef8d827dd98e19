"""Acceptance suite: every release-gating criterion at its stated
tolerance, one printed pass/fail line per criterion.

Run with output visible:

    pytest tests/test_acceptance.py -v -s

The headline-scale experiments (millions of documents, dozens of cores)
are not reproducible on a desk machine, so acceptance rests on exact
oracles, statistical equivalences, and scaled-down trend checks.
"""

import multiprocessing
import os
import time

import numpy as np
import pytest
from conftest import alpha_mean_long_form, enumerate_alias_measure, states_equal
from scipy import stats

from dtmgibbs.cluster import run_distributed_sockets
from dtmgibbs.corpus import split_holdout
from dtmgibbs.engine import TrainConfig, train
from dtmgibbs.evaluation import EvalConfig, perplexity
from dtmgibbs.kernels import (SgldSchedule, alias_draw, build_alias_table,
                              log_sum_exp, rng_for, softmax, step_size)
from dtmgibbs.model import (Hyperparams, SliceState, accumulate_counts,
                            init_state)
from dtmgibbs.samplers import (NeighborContext, alpha_posterior,
                               grad_log_post_eta, grad_log_post_phi,
                               mh_sweep_document, rebuild_proposals,
                               sample_alpha, sample_tokens_exact,
                               sgld_update_eta)
from dtmgibbs.synthetic import generate_synthetic


def report(num: int, name: str, ok: bool, detail: str):
    print(f"\ncriterion {num} ({name}): {'PASS' if ok else 'FAIL'} -- {detail}")
    assert ok, f"criterion {num} ({name}): {detail}"


def central_diff(f, x, h=1e-5):
    g = np.empty_like(x, dtype=float)
    for i in range(x.shape[0]):
        e = np.zeros_like(x, dtype=float)
        e[i] = h
        g[i] = (f(x + e) - f(x - e)) / (2 * h)
    return g


class TestCriterion1GradientFidelity:
    def test_gradients_match_finite_differences(self):
        t0 = time.perf_counter()
        rng = np.random.default_rng(100)
        worst_eta = 0.0
        for _ in range(100):
            k = int(rng.integers(2, 9))
            psi2 = float(rng.uniform(0.05, 2.0))
            eta = rng.normal(size=k)
            alpha = rng.normal(size=k)
            n_d = int(rng.integers(1, 60))
            c = rng.multinomial(n_d, np.ones(k) / k)

            def logp(e):
                return (-((e - alpha) ** 2).sum() / (2 * psi2)
                        + (c * (e - log_sum_exp(e))).sum())

            g = grad_log_post_eta(eta, alpha, c, n_d, psi2)
            fd = central_diff(logp, eta)
            np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-6)
            worst_eta = max(worst_eta, float(np.max(np.abs(g - fd) / (np.abs(fd) + 1e-8))))

        worst_phi = 0.0
        for trial in range(100):
            v = int(rng.integers(2, 13))
            beta2 = float(rng.uniform(0.05, 2.0))
            phi = rng.normal(size=v)
            left = rng.normal(size=v)
            right = rng.normal(size=v)
            c_k = int(rng.integers(1, 80))
            c_w = rng.multinomial(c_k, np.ones(v) / v)
            nb = [NeighborContext(left=left, right=right),
                  NeighborContext(left=left),
                  NeighborContext(right=right)][trial % 3]

            def logp(p):
                out = (c_w * (p - log_sum_exp(p))).sum()
                if nb.left is not None:
                    out -= ((p - nb.left) ** 2).sum() / (2 * beta2)
                if nb.right is not None:
                    out -= ((nb.right - p) ** 2).sum() / (2 * beta2)
                return out

            g = grad_log_post_phi(phi, nb, c_w, c_k, beta2, 1.0)
            fd = central_diff(logp, phi)
            np.testing.assert_allclose(g, fd, rtol=1e-4, atol=1e-6)
            worst_phi = max(worst_phi, float(np.max(np.abs(g - fd) / (np.abs(fd) + 1e-8))))
        elapsed = time.perf_counter() - t0
        report(1, "gradient fidelity", elapsed < 10.0,
               f"100+100 instances, worst rel err eta {worst_eta:.2e} / "
               f"phi {worst_phi:.2e}, {elapsed:.1f}s (< 10s)")


class TestCriterion2AlphaSampler:
    def test_moments_and_mean_identity(self):
        t0 = time.perf_counter()
        hyper = Hyperparams(K=4, sigma2=0.25, psi2=0.4)
        rng = np.random.default_rng(200)
        nb = NeighborContext(left=rng.normal(size=4), right=rng.normal(size=4))
        ebar = rng.normal(size=4)
        d_t = 53
        mu, var = alpha_posterior(nb, ebar, d_t, hyper)
        srng = rng_for(201, "draws")
        draws = np.empty((100_000, 4))
        for i in range(draws.shape[0]):
            draws[i] = sample_alpha(nb, ebar, d_t, hyper, srng)
        mean_err = float(np.max(np.abs(draws.mean(axis=0) - mu) / np.sqrt(var)))
        var_err = float(np.max(np.abs(draws.var(axis=0) - var) / var))

        worst_gap = 0.0
        for _ in range(1000):
            nb2 = NeighborContext(left=rng.normal(size=4), right=rng.normal(size=4))
            eb = rng.normal(size=4)
            dt = int(rng.integers(0, 2000))
            m1, _ = alpha_posterior(nb2, eb, dt, hyper)
            m2 = alpha_mean_long_form(nb2, eb, dt, hyper)
            worst_gap = max(worst_gap, float(np.max(np.abs(m1 - m2))))
        elapsed = time.perf_counter() - t0
        ok = mean_err < 0.02 and var_err < 0.02 and worst_gap < 1e-12 and elapsed < 30
        report(2, "alpha sampler exactness", ok,
               f"mean err {mean_err:.4f} sd units, var err {var_err:.4f} (< 0.02), "
               f"mean-form gap {worst_gap:.1e} (< 1e-12), {elapsed:.1f}s (< 30s)")


class TestCriterion3MhStationarity:
    def test_token_chain_total_variation(self):
        # a document of n copies of one word is n independent cyclic
        # chains; sweeping it through one set of tables must leave each
        # token at softmax(eta + phi[:, w])
        t0 = time.perf_counter()
        k, v, w = 3, 6, 4
        n, burn_in, tallied = 10_000, 10, 100
        rng0 = np.random.default_rng(300)
        eta = rng0.normal(size=(1, k))
        phi = rng0.normal(size=(k, v))
        state = SliceState(1, [np.full(n, w, dtype=np.int32)], np.zeros(k),
                           phi, eta, [np.zeros(n, dtype=np.int32)])
        target = softmax(eta[0] + phi[:, w])
        mrng = rng_for(301, "chain")
        props = rebuild_proposals(state, [0])
        counts = np.zeros(k)
        for sweep in range(burn_in + tallied):
            state.z[0] = mh_sweep_document(state, 0, props, mrng)
            if sweep >= burn_in:
                counts += np.bincount(state.z[0], minlength=k)
        steps = n * tallied
        tv = 0.5 * float(np.abs(counts / steps - target).sum())
        elapsed = time.perf_counter() - t0
        report(3, "MH stationarity", tv < 0.01 and elapsed < 60,
               f"TV {tv:.5f} after {steps:.0e} token-steps of the document "
               f"sweep (< 0.01), {elapsed:.1f}s (< 60s)")


class TestCriterion4AliasCorrectness:
    def test_exact_measure_and_chi_square(self):
        rng = np.random.default_rng(400)
        worst = 0.0
        for trial in range(500):
            k = int(rng.integers(1, 17))
            w = rng.random(k)
            if trial % 3 == 0 and k > 2:
                w[rng.integers(0, k, size=k // 3)] = 0.0  # zero entries allowed
            if w.sum() == 0:
                w[0] = 1.0
            table = build_alias_table(w)
            err = float(np.max(np.abs(enumerate_alias_measure(table) - w / w.sum())))
            worst = max(worst, err)

        t = build_alias_table(np.ones(4))
        draws = alias_draw(t, rng_for(401, "chi"), size=100_000)
        p_uniform = stats.chisquare(np.bincount(draws, minlength=4)).pvalue
        wgt = np.array([5.0, 2.0, 2.0, 1.0])
        t2 = build_alias_table(wgt)
        draws2 = alias_draw(t2, rng_for(402, "chi"), size=100_000)
        p_weighted = stats.chisquare(np.bincount(draws2, minlength=4),
                                     100_000 * wgt / wgt.sum()).pvalue
        ok = worst < 1e-12 and p_uniform > 0.01 and p_weighted > 0.01
        report(4, "alias correctness", ok,
               f"500 enumerations max err {worst:.1e} (< 1e-12), chi2 p "
               f"{p_uniform:.3f}/{p_weighted:.3f} (> 0.01)")


class TestCriterion5SgldSanity:
    def test_langevin_and_schedule(self):
        t0 = time.perf_counter()
        mu_star, s2, eps = 0.3, 0.01, 1e-3
        rng = rng_for(500, "ks")
        n, burn = 10 ** 6, 10 ** 5
        x = np.zeros(1)
        xs = np.empty(n)
        for i in range(n):
            x = sgld_update_eta(x, -(x - mu_star) / s2, eps, rng)
            xs[i] = x[0]
        ks = stats.kstest(xs[burn:], "norm", args=(mu_star, np.sqrt(s2))).statistic

        sched = SgldSchedule(0.5, 100, 0.8)
        gap0 = abs(step_size(sched, 0) - 0.012559432157547901)
        gap900 = abs(step_size(sched, 900) - 0.0019905358527674863)
        elapsed = time.perf_counter() - t0
        ok = ks < 0.02 and gap0 < 1e-12 and gap900 < 1e-12
        report(5, "SGLD sanity", ok,
               f"KS {ks:.4f} over 1e6 steps (< 0.02), schedule gaps "
               f"{gap0:.1e}/{gap900:.1e} (< 1e-12), {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# Criterion 6 (and the count-invariant half of criterion 9) share one
# training campaign: 20 seeded runs on a known-parameter corpus with
# evaluation checkpoints at iterations 10, 50 and 200.
# ---------------------------------------------------------------------------

_C6: dict = {}
C6_CHECKPOINTS = (10, 50, 200)


def _c6_run_seed(seed: int):
    hyper, split = _C6["hyper"], _C6["split"]
    cfg_kw = dict(minibatch_size=60, seed=seed, debug_checks=(seed == 0))
    ppl = []
    state = None
    done = 0
    for stop in C6_CHECKPOINTS:
        res = train(split.train, hyper,
                    TrainConfig(iterations=stop - done, **cfg_kw),
                    state=state, start_iteration=done)
        state, done = res.state, stop
        ppl.append(perplexity(split, state, EvalConfig(seed=seed)).overall)
    return ppl


class TestCriterion6SyntheticLearning:
    def test_perplexity_improves_and_beats_uniform(self):
        t0 = time.perf_counter()
        hyper = Hyperparams(K=5, sigma2=0.1, beta2=0.1, psi2=0.1)
        corpus, _ = generate_synthetic(hyper, v=100, n_slices=4,
                                       docs_per_slice=200, doc_len=100, seed=600)
        split = split_holdout(corpus, 0.1, 0.5, seed=601)
        _C6["hyper"], _C6["split"] = hyper, split

        n_seeds = 20
        workers = max(1, min(4, os.cpu_count() or 1))
        with multiprocessing.get_context("fork").Pool(workers) as pool:
            results = pool.map(_c6_run_seed, range(n_seeds))
        arr = np.asarray(results)              # (seeds, checkpoints)
        med = np.median(arr, axis=0)
        elapsed = time.perf_counter() - t0
        uniform = corpus.vocabulary.size
        ok = (med[2] < med[0]
              and med[2] < 0.7 * uniform
              and med[0] >= med[1] >= med[2]   # non-increasing across 10/50/200
              and elapsed < 600)
        report(6, "learning on synthetic data", ok,
               f"median perplexity {med[0]:.1f} @10 -> {med[1]:.1f} @50 -> "
               f"{med[2]:.1f} @200 over {n_seeds} seeds; uniform baseline "
               f"{uniform}, bar {0.7 * uniform:.0f}; {elapsed:.0f}s (< 600s)")


class TestCriterion7AmortizedO1:
    @staticmethod
    def _bench(k: int, repeats: int = 5):
        hyper = Hyperparams(K=k)
        corpus, _ = generate_synthetic(hyper, v=100, n_slices=1,
                                       docs_per_slice=40, doc_len=800, seed=700 + k)
        state = init_state(corpus, hyper, seed=701).slices[0]
        docs = range(state.n_docs)
        n_tokens = sum(len(w) for w in state.tokens)
        best_mh = best_naive = np.inf
        for r in range(repeats):
            props = rebuild_proposals(state, docs)
            rng = rng_for(703, "mh", k, r)
            t0 = time.perf_counter()
            for d in docs:
                mh_sweep_document(state, d, props, rng)
            best_mh = min(best_mh, (time.perf_counter() - t0) / n_tokens)
            rng = rng_for(704, "naive", k, r)
            t0 = time.perf_counter()
            for d in docs:
                sample_tokens_exact(state.eta[d], state.phi, state.tokens[d], rng)
            best_naive = min(best_naive, (time.perf_counter() - t0) / n_tokens)
        return best_mh, best_naive

    def test_token_sampling_scales_flat(self):
        t0 = time.perf_counter()
        mh50, naive50 = self._bench(50)
        mh500, naive500 = self._bench(500)
        mh_ratio = mh500 / mh50
        naive_ratio = naive500 / naive50
        elapsed = time.perf_counter() - t0
        ok = mh_ratio <= 3.0 and naive_ratio >= 7.0 and elapsed < 300
        report(7, "amortized O(1) token sampling", ok,
               f"MH {mh50 * 1e6:.2f} -> {mh500 * 1e6:.2f} us/token "
               f"(x{mh_ratio:.2f}, cap 3.0); naive {naive50 * 1e6:.2f} -> "
               f"{naive500 * 1e6:.2f} us/token (x{naive_ratio:.1f}, floor 7.0); "
               f"{elapsed:.0f}s (< 300s)")


class TestCriterion8Distributed:
    def test_equivalence_bitwise(self, tmp_path):
        details = []
        for t_slices in (2, 4):
            hyper = Hyperparams(K=3)
            corpus, _ = generate_synthetic(hyper, v=30, n_slices=t_slices,
                                           docs_per_slice=15, doc_len=20,
                                           seed=800 + t_slices)
            cfg = TrainConfig(iterations=4, minibatch_size=6, seed=801)
            seq = train(corpus, hyper, cfg).state
            sock = run_distributed_sockets(corpus, hyper, cfg,
                                           tmp_path / f"ck{t_slices}")
            same = states_equal(seq, sock)
            details.append(f"T={t_slices}: {'identical' if same else 'DIVERGED'}")
            assert same
        report(8, "distributed equivalence", True,
               "sequential == socket workers, bitwise "
               f"({'; '.join(details)})")

    @pytest.mark.skipif((os.cpu_count() or 1) < 8,
                        reason="scaling trend is specified for an 8-core "
                               "machine; this host has fewer cores, so T=8 "
                               "workers cannot run in parallel")
    def test_scaling_trend(self, tmp_path):
        t0 = time.perf_counter()
        hyper = Hyperparams(K=8)

        def corpus_with(t_slices):
            c, _ = generate_synthetic(hyper, v=80, n_slices=t_slices,
                                      docs_per_slice=80, doc_len=80,
                                      seed=810 + t_slices)
            return c

        cfg = TrainConfig(iterations=12, minibatch_size=40, seed=811)

        def wall_distributed(corpus, tag):
            start = time.perf_counter()
            run_distributed_sockets(corpus, hyper, cfg, tmp_path / tag)
            return time.perf_counter() - start

        def wall_sequential(corpus):
            start = time.perf_counter()
            train(corpus, hyper, cfg)
            return time.perf_counter() - start

        c2, c8 = corpus_with(2), corpus_with(8)
        d2 = wall_distributed(c2, "d2")
        d8 = wall_distributed(c8, "d8")
        s2 = wall_sequential(c2)
        s8 = wall_sequential(c8)
        elapsed = time.perf_counter() - t0
        ok = (d8 <= 1.7 * d2) and (s8 >= 3.0 * s2) and elapsed < 600
        report(8, "distributed scaling trend", ok,
               f"distributed wall {d2:.1f}s (T=2) -> {d8:.1f}s (T=8), "
               f"x{d8 / d2:.2f} (cap 1.7); sequential {s2:.1f}s -> {s8:.1f}s, "
               f"x{s8 / s2:.2f} (floor 3.0); {elapsed:.0f}s")


class TestCriterion9CountIntegrity:
    def test_incremental_counts_exact_after_random_updates(self):
        # 10,000 random z writes, then the trainer's tally must equal an
        # independent pure-Python count exactly
        hyper = Hyperparams(K=6)
        corpus, _ = generate_synthetic(hyper, v=25, n_slices=1,
                                       docs_per_slice=30, doc_len=40, seed=900)
        state = init_state(corpus, hyper, seed=901).slices[0]
        rng = np.random.default_rng(902)
        for _ in range(10_000):
            d = int(rng.integers(0, state.n_docs))
            n = int(rng.integers(0, len(state.tokens[d])))
            state.z[d][n] = int(rng.integers(0, hyper.K))
        counts = accumulate_counts(state, range(state.n_docs))

        c_word_topic = [[0] * state.v for _ in range(hyper.K)]
        c_doc = {}
        for d in range(state.n_docs):
            c_doc[d] = [0] * hyper.K
            for z, w in zip(state.z[d].tolist(), state.tokens[d].tolist()):
                c_doc[d][z] += 1
                c_word_topic[z][w] += 1
        c_topic = [sum(row) for row in c_word_topic]
        ok = (counts.c_word_topic.tolist() == c_word_topic
              and counts.c_topic.tolist() == c_topic
              and counts.n_tokens == sum(c_topic)
              and {int(d): c.tolist() for d, c in zip(counts.docs, counts.c_doc)} == c_doc)
        try:
            counts.validate(state.tokens)
            invariants = True
        except AssertionError:
            invariants = False
        report(9, "count integrity", ok and invariants,
               "accumulate_counts after 10,000 random z writes == pure-Python "
               "tally, exact; conservation invariants hold (debug assertions "
               "also active in criterion 6's seed-0 run)")
