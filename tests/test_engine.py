import threading
import time
from dataclasses import replace

import numpy as np
import pytest
from conftest import check_invariants, states_equal

from dtmgibbs.engine import (METRICS_FIELDS, NumericError, TrainConfig,
                             run_iteration, select_minibatch, train)
from dtmgibbs.kernels import log_sum_exp, rng_for
from dtmgibbs.model import (Hyperparams, SliceState, gather_docs, init_state,
                            load_checkpoint)
from dtmgibbs.samplers import NeighborContext, WordTables
from dtmgibbs.synthetic import generate_synthetic


class TestSelectMinibatch:
    def test_all_docs_ascending(self):
        got = select_minibatch(5, 10, rng_for(0, "mb"))
        np.testing.assert_array_equal(got, np.arange(5))

    def test_deterministic(self):
        a = select_minibatch(100, 10, rng_for(3, "mb", 7))
        b = select_minibatch(100, 10, rng_for(3, "mb", 7))
        np.testing.assert_array_equal(a, b)
        assert len(set(a.tolist())) == 10

    def test_uniform_selection_frequency(self):
        n_docs, d_m, iters = 40, 8, 10_000
        hits = np.zeros(n_docs)
        for i in range(iters):
            hits[select_minibatch(n_docs, d_m, rng_for(1, "mb", i))] += 1
        p = d_m / n_docs
        sigma = np.sqrt(iters * p * (1 - p))
        assert np.all(np.abs(hits - iters * p) <= 3.5 * sigma)


class TestTrain:
    def test_zero_iterations_returns_init(self, small_synthetic):
        hyper, corpus, _ = small_synthetic
        cfg = TrainConfig(iterations=0, seed=4)
        res = train(corpus, hyper, cfg)
        assert states_equal(res.state, init_state(corpus, hyper, 4))
        assert res.metrics == []

    def test_metrics_row_per_iteration_single_slice(self, tmp_path):
        hyper = Hyperparams(K=3)
        corpus, _ = generate_synthetic(hyper, v=20, n_slices=1,
                                       docs_per_slice=10, doc_len=15, seed=0)
        path = tmp_path / "metrics.csv"
        cfg = TrainConfig(iterations=7, minibatch_size=4, seed=1,
                          metrics_path=str(path))
        res = train(corpus, hyper, cfg)
        assert len(res.metrics) == 7
        lines = path.read_text().strip().splitlines()
        assert lines[0] == ",".join(METRICS_FIELDS)
        assert len(lines) == 8  # header + one row per iteration

    def test_resumed_metrics_get_one_header(self, tmp_path):
        hyper = Hyperparams(K=3)
        corpus, _ = generate_synthetic(hyper, v=20, n_slices=1,
                                       docs_per_slice=10, doc_len=15, seed=0)
        header = ",".join(METRICS_FIELDS)
        fresh = tmp_path / "fresh.csv"
        empty = tmp_path / "empty.csv"
        empty.touch()
        for path in (fresh, empty):
            train(corpus, hyper, TrainConfig(iterations=2, minibatch_size=4, seed=1,
                                             metrics_path=str(path)),
                  start_iteration=5)
            lines = path.read_text().strip().splitlines()
            assert lines[0] == header and len(lines) == 3
        # a resumed run appends rows to the existing file, no second header
        train(corpus, hyper, TrainConfig(iterations=2, minibatch_size=4, seed=1,
                                         metrics_path=str(fresh)),
              start_iteration=7)
        lines = fresh.read_text().strip().splitlines()
        assert lines.count(header) == 1 and len(lines) == 5
        assert [line.split(",")[0] for line in lines[1:]] == ["5", "6", "7", "8"]

    def test_metrics_rows_scale_with_slices(self, small_synthetic):
        hyper, corpus, _ = small_synthetic
        cfg = TrainConfig(iterations=3, minibatch_size=5, seed=1)
        res = train(corpus, hyper, cfg)
        assert len(res.metrics) == 3 * corpus.n_slices
        for row in res.metrics:
            assert np.isfinite(row["log_joint"])
            assert row["eps_eta"] > 0

    def test_trains_without_starting_threads(self, small_synthetic, monkeypatch):
        def refuse(self):
            raise AssertionError(f"training started thread {self.name}")

        monkeypatch.setattr(threading.Thread, "start", refuse)
        hyper, corpus, _ = small_synthetic
        res = train(corpus, hyper, TrainConfig(iterations=2, minibatch_size=7, seed=13))
        assert res.iterations_done == 2

    def test_resume_matches_uninterrupted(self, small_synthetic, tmp_path):
        hyper, corpus, _ = small_synthetic
        full = train(corpus, hyper,
                     TrainConfig(iterations=6, minibatch_size=6, seed=2)).state
        part = train(corpus, hyper,
                     TrainConfig(iterations=3, minibatch_size=6, seed=2,
                                 checkpoint_dir=str(tmp_path / "ck")))
        from dtmgibbs.model import load_checkpoint
        loaded, seed, it = load_checkpoint(tmp_path / "ck", corpus, hyper)
        assert (seed, it) == (2, 3)
        resumed = train(corpus, hyper,
                        TrainConfig(iterations=3, minibatch_size=6, seed=2),
                        state=loaded, start_iteration=it).state
        assert states_equal(full, resumed)

    def test_k1_degenerates_gracefully(self):
        hyper = Hyperparams(K=1)
        corpus, _ = generate_synthetic(hyper, v=15, n_slices=2,
                                       docs_per_slice=8, doc_len=12, seed=5)
        cfg = TrainConfig(iterations=5, minibatch_size=4, seed=6)
        state = init_state(corpus, hyper, cfg.seed)
        res = train(corpus, hyper, cfg, state=state,
                    metrics_sink=lambda row: check_invariants(state, row))
        for sl in res.state.slices:
            for z in sl.z:
                assert np.all(z == 0)
            assert np.all(np.isfinite(sl.phi)) and np.all(np.isfinite(sl.eta))

    def test_counts_and_normalizers_valid_every_iteration(self, small_synthetic):
        hyper, corpus, _ = small_synthetic
        cfg = TrainConfig(iterations=3, minibatch_size=5, seed=7)
        state = init_state(corpus, hyper, cfg.seed)
        checked = []
        res = train(corpus, hyper, cfg, state=state,
                    metrics_sink=lambda row: checked.append(check_invariants(state, row)))
        assert checked == [(i, t) for i in range(3) for t in (1, 2, 3)]
        for cs, sl in zip(res.state.counts, res.state.slices):
            cs.validate(sl.tokens)

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_numeric_abort_names_block(self, small_synthetic):
        hyper, corpus, _ = small_synthetic
        st = init_state(corpus, hyper, 0)
        st.slices[0].eta[0, 0] = 1e308
        st.slices[0].refresh_eta_norm()
        cfg = TrainConfig(iterations=1, minibatch_size=100, seed=0)
        with pytest.raises(NumericError) as err:
            train(corpus, hyper, cfg, state=st)
        assert err.value.block == "eta"
        assert err.value.slice_index == 1

    def test_counts_rebuilt_from_minibatch_only(self, small_synthetic):
        hyper, corpus, _ = small_synthetic
        cfg = TrainConfig(iterations=1, minibatch_size=5, seed=8)
        res = train(corpus, hyper, cfg)
        for cs in res.state.counts:
            assert len(cs.c_doc) == 5

    def test_empty_slice_tolerated(self):
        # a slice can lose all docs to the test split; training must not crash
        from dtmgibbs.corpus import Corpus, TimeSlice
        hyper = Hyperparams(K=2)
        corpus, _ = generate_synthetic(hyper, v=10, n_slices=2,
                                       docs_per_slice=5, doc_len=8, seed=9)
        slices = (corpus.slices[0],
                  TimeSlice(slice_index=2, docs=()))
        gutted = Corpus(vocabulary=corpus.vocabulary, slices=slices)
        res = train(gutted, hyper, TrainConfig(iterations=3, minibatch_size=4, seed=1))
        assert np.all(np.isfinite(res.state.slices[1].alpha))


class TestStaleWordTables:
    """On a shape whose budget B is below V, an iteration rebuilds B word
    tables and the others stay stale (``stale_synthetic``: B=15, V=200)."""

    def test_resumed_runs_equal_uninterrupted(self, stale_synthetic, tmp_path):
        hyper, corpus, cfg = stale_synthetic
        full = train(corpus, hyper, cfg).state
        assert all(sl.word_src is not None for sl in full.slices)
        first = replace(cfg, iterations=2)
        rest = replace(cfg, iterations=cfg.iterations - 2)
        # from the checkpoint written at iteration 2
        train(corpus, hyper, replace(first, checkpoint_dir=str(tmp_path / "ck")))
        loaded, seed, it = load_checkpoint(tmp_path / "ck", corpus, hyper)
        assert (seed, it) == (cfg.seed, 2)
        resumed = train(corpus, hyper, rest, state=loaded, start_iteration=it).state
        assert states_equal(full, resumed)
        # from the in-memory state, whose tables train() dropped on return
        part = train(corpus, hyper, first).state
        continued = train(corpus, hyper, rest, state=part, start_iteration=2).state
        assert states_equal(full, continued)

    def test_state_keeps_float32_sources_and_no_tables(self, stale_synthetic):
        hyper, corpus, cfg = stale_synthetic
        state = train(corpus, hyper, replace(cfg, iterations=3)).state
        v = corpus.vocabulary.size
        for sl in state.slices:
            assert sl.word_src.dtype == np.float32
            assert sl.word_src.shape == (hyper.K, v)
            held = [name for name in SliceState.__slots__
                    if isinstance(getattr(sl, name), np.ndarray)
                    and getattr(sl, name).shape in ((v, hyper.K), (hyper.K, v))]
            assert held == ["phi", "word_src"]

    @pytest.mark.parametrize("k", [50, 500])
    def test_word_rows_built_per_iteration_equal_budget(self, monkeypatch, k):
        # V=1000, one slice of 60 hundred-token documents, mini-batch 60:
        # B = ceil(60 * 100 / K), 120 at K=50 and 12 at K=500
        import dtmgibbs.samplers as samplers
        hyper = Hyperparams(K=k)
        corpus, _ = generate_synthetic(hyper, v=1000, n_slices=1,
                                       docs_per_slice=60, doc_len=100, seed=k)
        built = [0]                     # rows built, one entry per iteration
        build = samplers.build_alias_matrix

        def counting_build(rows):
            built[-1] += np.shape(rows)[0]
            return build(rows)

        monkeypatch.setattr(samplers, "build_alias_matrix", counting_build)
        budget = -(-60 * 100 // k)
        state = init_state(corpus, hyper, 0)
        assert samplers.WordTables(state.slices[0], 60).budget == budget
        train(corpus, hyper, TrainConfig(iterations=4, minibatch_size=60), state=state,
              metrics_sink=lambda row: built.append(0))
        assert built.pop() == 0         # the sink runs after each iteration
        assert built[0] == 60 + 1000    # iteration 0 builds every word table
        assert built[1:] == [60 + budget] * 3


class TestAllWordTablesCarried:
    """When the budget covers the vocabulary (``small_synthetic`` with
    mini-batches of 15: ceil(15 * 30 / 4) >= V = 40, so B = V), every
    word table is rebuilt each iteration, through the same carried path
    as B < V."""

    CFG = TrainConfig(iterations=5, minibatch_size=15, seed=3)

    def test_budget_is_v_and_state_keeps_float32_sources(self, small_synthetic):
        hyper, corpus, _ = small_synthetic
        v = corpus.vocabulary.size
        state = init_state(corpus, hyper, 0)
        assert all(WordTables(sl, 15).budget == v for sl in state.slices)
        state = train(corpus, hyper, self.CFG).state
        for sl in state.slices:
            assert sl.word_src.dtype == np.float32
            assert sl.word_src.shape == (hyper.K, v)

    def test_each_iteration_builds_minibatch_plus_v_rows(self, small_synthetic,
                                                        monkeypatch):
        import dtmgibbs.samplers as samplers
        hyper, corpus, _ = small_synthetic
        one_slice = replace(corpus, slices=corpus.slices[:1])
        built = [0]                     # rows built, one entry per iteration
        build = samplers.build_alias_matrix

        def counting_build(rows):
            built[-1] += np.shape(rows)[0]
            return build(rows)

        monkeypatch.setattr(samplers, "build_alias_matrix", counting_build)
        train(one_slice, hyper, self.CFG, metrics_sink=lambda row: built.append(0))
        assert built.pop() == 0         # the sink runs after each iteration
        assert built == [15 + corpus.vocabulary.size] * self.CFG.iterations

    def test_resumed_run_equals_uninterrupted(self, small_synthetic, tmp_path):
        hyper, corpus, _ = small_synthetic
        full = train(corpus, hyper, self.CFG).state
        train(corpus, hyper, replace(self.CFG, iterations=2,
                                     checkpoint_dir=str(tmp_path / "ck")))
        loaded, _, it = load_checkpoint(tmp_path / "ck", corpus, hyper)
        assert it == 2
        resumed = train(corpus, hyper, replace(self.CFG, iterations=3), state=loaded,
                        start_iteration=it).state
        assert states_equal(full, resumed)


class TestLearningTrend:
    def test_log_joint_improves(self, small_synthetic):
        hyper, corpus, _ = small_synthetic
        cfg = TrainConfig(iterations=40, minibatch_size=15, seed=3)
        res = train(corpus, hyper, cfg)
        per_iter = {}
        for row in res.metrics:
            per_iter.setdefault(row["iteration"], 0.0)
            per_iter[row["iteration"]] += row["log_joint"]
        it = sorted(per_iter)
        early = np.mean([per_iter[i] for i in it[:5]])
        late = np.mean([per_iter[i] for i in it[-5:]])
        assert late > early


def random_slice(d_t, k=10, v=200, doc_len=40, seed=0):
    """A slice state drawn from random arrays (much faster to build than
    a generated corpus of the same size)."""
    rng = np.random.default_rng(seed)
    words = rng.integers(0, v, size=(d_t, doc_len), dtype=np.int32)
    topics = rng.integers(0, k, size=(d_t, doc_len), dtype=np.int32)
    return SliceState(1, list(words), rng.normal(size=k), rng.normal(size=(k, v)),
                      rng.normal(size=(d_t, k)), list(topics))


def first_slice_neighbors(k, v):
    return (NeighborContext(left=np.zeros(k), right=None),
            NeighborContext(left=np.zeros((k, v)), right=None))


class TestIterationCost:
    def test_carried_normalizers_equal_fresh_ones(self, small_synthetic):
        hyper, corpus, _ = small_synthetic
        res = train(corpus, hyper, TrainConfig(iterations=20, minibatch_size=5, seed=2))
        for sl in res.state.slices:
            fresh = SliceState(sl.slice_index, sl.tokens, sl.alpha, sl.phi, sl.eta, sl.z)
            np.testing.assert_array_equal(sl.eta_log_norm, fresh.eta_log_norm)
            np.testing.assert_array_equal(sl.phi_log_norm, fresh.phi_log_norm)

    def test_refreshes_only_minibatch_rows(self, monkeypatch):
        prev = random_slice(500, k=4, v=30, doc_len=10)
        refreshed, built = [], []
        real_refresh, real_init = SliceState.refresh_eta_norm, SliceState.__init__

        def refresh(self, docs=None):
            refreshed.append(None if docs is None else sorted(int(d) for d in docs))
            real_refresh(self, docs)

        def init(self, *args):
            built.append(args)
            real_init(self, *args)

        monkeypatch.setattr(SliceState, "refresh_eta_norm", refresh)
        monkeypatch.setattr(SliceState, "__init__", init)
        nb_alpha, nb_phi = first_slice_neighbors(4, 30)
        counts, _ = run_iteration(prev, nb_alpha, nb_phi, Hyperparams(K=4),
                                  TrainConfig(minibatch_size=20), 0, WordTables(prev, 20))
        assert refreshed == [sorted(counts.docs.tolist())]
        assert len(refreshed[0]) == 20
        assert built == []
        prev.validate_normalizers()

    def test_time_flat_across_slice_sizes(self):
        """Mini-batch fixed at 60: an iteration over a 20,000-document
        slice costs at most 1.2x one over 200 documents (min of N runs,
        the sizes interleaved).  Each slice advances as in training,
        every iteration starting from the previous one's state.  The
        host's speed drifts, so a round that misses the bound is
        measured again, up to three rounds; a cost that grows with D_t
        misses it in every round."""
        k, v = 10, 200
        hyper, cfg = Hyperparams(K=k), TrainConfig(minibatch_size=60)
        nb_alpha, nb_phi = first_slice_neighbors(k, v)
        states = {d_t: random_slice(d_t, k=k, v=v) for d_t in (200, 20_000)}
        tables = {d_t: WordTables(st, 60) for d_t, st in states.items()}
        ratios = []
        for _ in range(3):
            best = {d_t: np.inf for d_t in states}
            for i in range(10):
                for d_t, st in states.items():
                    t0 = time.perf_counter()
                    run_iteration(st, nb_alpha, nb_phi, hyper, cfg, i, tables[d_t])
                    best[d_t] = min(best[d_t], time.perf_counter() - t0)
            ratios.append(best[20_000] / best[200])
            if ratios[-1] <= 1.2:
                break
        assert min(ratios) <= 1.2, ratios


class TestBlockStreams:
    @pytest.mark.parametrize("k, minibatch", [(2, 3), (2, 40), (16, 3), (16, 40)])
    def test_streams_per_slice_iteration_are_fixed(self, monkeypatch, k, minibatch):
        import dtmgibbs.engine as engine
        built = []

        def counting_rng_for(seed, *path):
            built.append(path)
            return rng_for(seed, *path)

        monkeypatch.setattr(engine, "rng_for", counting_rng_for)
        st = random_slice(60, k=k, v=25, doc_len=8, seed=k)
        nb_alpha, nb_phi = first_slice_neighbors(k, 25)
        tables = WordTables(st, minibatch)
        for i in range(2):
            run_iteration(st, nb_alpha, nb_phi, Hyperparams(K=k),
                          TrainConfig(minibatch_size=minibatch), i, tables)
        assert built == [(block, 1, i) for i in range(2)
                         for block in ("minibatch", "eta", "phi", "z", "alpha")]

    def test_log_joint_proxy_equals_per_document_sum(self):
        from dtmgibbs.engine import log_joint_proxy
        rng = np.random.default_rng(13)
        k, v = 6, 30
        st = random_slice(80, k=k, v=v, doc_len=12, seed=13)
        hyper = Hyperparams(K=k, sigma2=0.3, beta2=0.2, psi2=0.7)
        nb_alpha = NeighborContext(left=rng.normal(size=k), right=rng.normal(size=k))
        nb_phi = NeighborContext(left=rng.normal(size=(k, v)))
        mb = np.sort(rng.choice(80, size=17, replace=False))
        expected = -(((st.alpha - nb_alpha.left) ** 2).sum()
                     + ((st.alpha - nb_alpha.right) ** 2).sum()) / (2 * hyper.sigma2)
        expected -= ((st.phi - nb_phi.left) ** 2).sum() / (2 * hyper.beta2)
        scale = 80 / 17
        for d in mb:
            eta_d = st.eta[d]
            norm_d = log_sum_exp(eta_d)
            expected -= scale * ((eta_d - st.alpha) ** 2).sum() / (2 * hyper.psi2)
            for w, z in zip(st.tokens[d], st.z[d]):
                expected += scale * (eta_d[z] - norm_d + st.phi[z, w]
                                     - log_sum_exp(st.phi[z]))
        w, z, lengths = gather_docs(st, mb)
        rows = np.repeat(np.arange(17), lengths)
        got = log_joint_proxy(st, nb_alpha, nb_phi, mb, w, z, rows, hyper)
        assert got == pytest.approx(expected, rel=1e-12)
