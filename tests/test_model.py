import numpy as np
import pytest

from dtmgibbs.corpus import load_corpus
from dtmgibbs.kernels import rng_for, softmax
import dtmgibbs.model
from dtmgibbs.model import (Hyperparams, SliceState, accumulate_counts,
                            init_state, load_checkpoint,
                            read_slice_checkpoint, row_log_norms,
                            checkpoint_path, write_checkpoint)


def make_corpus(tmp_path, text="1\ta b a c\n1\tb b\n2\tc a\n"):
    p = tmp_path / "c.txt"
    p.write_text(text, encoding="utf-8")
    return load_corpus(p)


class TestHyperparams:
    def test_validation(self):
        with pytest.raises(ValueError):
            Hyperparams(K=0)
        with pytest.raises(ValueError):
            Hyperparams(K=3, sigma2=-1)
        Hyperparams(K=3)


class TestInitState:
    def test_shapes_and_zero_means(self, tmp_path):
        c = make_corpus(tmp_path)
        st = init_state(c, Hyperparams(K=3), seed=0)
        assert st.n_slices == 2
        sl = st.slices[0]
        np.testing.assert_array_equal(sl.alpha, 0.0)
        np.testing.assert_array_equal(sl.eta, 0.0)
        assert sl.phi.shape == (3, 3)
        assert all(len(z) == len(w) for z, w in zip(sl.z, sl.tokens))

    def test_k1_all_zero_assignments(self, tmp_path):
        c = make_corpus(tmp_path)
        st = init_state(c, Hyperparams(K=1), seed=0)
        for sl in st.slices:
            for z in sl.z:
                assert np.all(z == 0)
            np.testing.assert_allclose(softmax(sl.phi[0]).sum(), 1.0, atol=1e-12)

    def test_seed_reproducible(self, tmp_path):
        c = make_corpus(tmp_path)
        a = init_state(c, Hyperparams(K=4), seed=5)
        b = init_state(c, Hyperparams(K=4), seed=5)
        for x, y in zip(a.slices, b.slices):
            np.testing.assert_array_equal(x.phi, y.phi)
            for za, zb in zip(x.z, y.z):
                np.testing.assert_array_equal(za, zb)

    def test_counts_match_multinomial_expectation(self, tmp_path):
        k = 10
        doc = " ".join(f"w{i % 5}" for i in range(1000))
        c = make_corpus(tmp_path, text=f"1\t{doc}\n")
        st = init_state(c, Hyperparams(K=k), seed=2)
        counts = st.counts[0].c_topic
        # binomial(1000, 1/10): mean 100, sigma ~ 9.49; 5 sigma band
        assert np.all(np.abs(counts - 100) <= 5 * np.sqrt(1000 * 0.1 * 0.9))

    def test_counts_satisfy_invariants(self, tmp_path):
        c = make_corpus(tmp_path)
        st = init_state(c, Hyperparams(K=3), seed=1)
        for cs, sl in zip(st.counts, st.slices):
            cs.validate(sl.tokens)


class TestAccumulateCounts:
    def test_empty_subset(self, tmp_path):
        c = make_corpus(tmp_path)
        st = init_state(c, Hyperparams(K=3), seed=0)
        cs = accumulate_counts(st.slices[0], [])
        assert cs.n_tokens == 0
        assert np.all(cs.c_word_topic == 0) and np.all(cs.c_topic == 0)

    def test_direct_tally(self, tmp_path):
        c = make_corpus(tmp_path, text="1\ta a b\n")
        st = init_state(c, Hyperparams(K=3), seed=0)
        sl = st.slices[0]
        sl.z[0] = np.array([2, 2, 0], dtype=np.int32)
        w0, w1 = sl.tokens[0][0], sl.tokens[0][2]
        cs = accumulate_counts(sl, [0])
        assert cs.c_doc[0][2] == 2 and cs.c_doc[0][0] == 1
        assert cs.c_word_topic[2, w0] == 2 and cs.c_word_topic[0, w1] == 1
        assert cs.c_topic[2] == 2 and cs.c_topic[0] == 1

    def test_matches_bruteforce(self, tmp_path):
        rng = np.random.default_rng(4)
        k, v = 4, 6
        doc = " ".join(f"w{rng.integers(0, v)}" for _ in range(50))
        c = make_corpus(tmp_path, text=f"1\t{doc}\n")
        st = init_state(c, Hyperparams(K=k), seed=3)
        sl = st.slices[0]
        cs = accumulate_counts(sl, [0])
        brute = np.zeros((k, sl.v), dtype=int)
        for z, w in zip(sl.z[0], sl.tokens[0]):
            brute[z, w] += 1
        np.testing.assert_array_equal(cs.c_word_topic, brute)
        np.testing.assert_array_equal(cs.c_topic, brute.sum(axis=1))

    def test_block_tallies_equal_per_row_formulas(self):
        # the two bincounts against one bincount and one add.at per document
        rng = np.random.default_rng(8)
        for _ in range(5):
            k, v, d_t = int(rng.integers(1, 9)), int(rng.integers(1, 30)), 40
            tokens = [rng.integers(0, v, size=int(rng.integers(0, 25))).astype(np.int32)
                      for _ in range(d_t)]
            z = [rng.integers(0, k, size=w.shape[0]).astype(np.int32) for w in tokens]
            sl = SliceState(1, tokens, np.zeros(k), rng.normal(size=(k, v)),
                            rng.normal(size=(d_t, k)), z)
            docs = rng.choice(d_t, size=15, replace=False)       # not sorted
            cs = accumulate_counts(sl, docs)
            np.testing.assert_array_equal(cs.docs, docs)
            assert cs.c_doc.shape == (15, k)
            c_word_topic = np.zeros((k, v), dtype=np.int64)
            for i, d in enumerate(docs):
                np.testing.assert_array_equal(cs.c_doc[i], np.bincount(z[d], minlength=k))
                np.add.at(c_word_topic, (z[d], tokens[d]), 1)
            np.testing.assert_array_equal(cs.c_word_topic, c_word_topic)
            np.testing.assert_array_equal(cs.c_topic, c_word_topic.sum(axis=1))
            assert cs.n_tokens == sum(len(tokens[d]) for d in docs)
            cs.validate(tokens)

    def test_validate_and_equals_catch_a_corrupted_row(self, tmp_path):
        c = make_corpus(tmp_path)
        st = init_state(c, Hyperparams(K=3), seed=0)
        sl = st.slices[0]
        good = accumulate_counts(sl, [1, 0])
        for corrupt in ("move", "add"):
            bad = accumulate_counts(sl, [1, 0])
            assert bad.equals(good)
            if corrupt == "move":       # one count moves to another document
                bad.c_doc[1, np.argmax(bad.c_doc[1])] -= 1
                bad.c_doc[0, 0] += 1
            else:
                bad.c_doc[1, 2] += 1
            assert not bad.equals(good)
            with pytest.raises(AssertionError, match="c_doc"):
                bad.validate(sl.tokens)


class TestCheckpoints:
    def test_round_trip(self, tmp_path):
        c = make_corpus(tmp_path)
        hyper = Hyperparams(K=3)
        st = init_state(c, hyper, seed=9)
        st.slices[0].eta[:] = rng_for(0, "noise").normal(size=st.slices[0].eta.shape)
        st.slices[0].refresh_eta_norm()
        ckpt = tmp_path / "ckpt"
        write_checkpoint(ckpt, st, master_seed=9, iteration=17)
        loaded, seed, it = load_checkpoint(ckpt, c, hyper)
        assert (seed, it) == (9, 17)
        for a, b in zip(st.slices, loaded.slices):
            np.testing.assert_array_equal(a.alpha, b.alpha)
            np.testing.assert_array_equal(a.phi, b.phi)
            np.testing.assert_array_equal(a.eta, b.eta)
            for za, zb in zip(a.z, b.z):
                np.testing.assert_array_equal(za, zb)

    def test_header_fields(self, tmp_path):
        c = make_corpus(tmp_path)
        st = init_state(c, Hyperparams(K=2), seed=3)
        write_checkpoint(tmp_path / "ck", st, master_seed=3, iteration=5)
        data = read_slice_checkpoint(checkpoint_path(tmp_path / "ck", 1))
        assert data["master_seed"] == 3 and data["iteration"] == 5
        assert data["T"] == 2 and data["K"] == 2 and data["V"] == 3

    def test_dimension_mismatch_rejected(self, tmp_path):
        c = make_corpus(tmp_path)
        st = init_state(c, Hyperparams(K=2), seed=3)
        write_checkpoint(tmp_path / "ck", st, master_seed=3, iteration=5)
        with pytest.raises(ValueError, match="do not match"):
            load_checkpoint(tmp_path / "ck", c, Hyperparams(K=4))

    def test_torn_set_rejected(self, tmp_path):
        c = make_corpus(tmp_path)
        st = init_state(c, Hyperparams(K=2), seed=1)
        write_checkpoint(tmp_path / "a", st, master_seed=1, iteration=5)
        write_checkpoint(tmp_path / "b", st, master_seed=9, iteration=2)
        torn = checkpoint_path(tmp_path / "a", 2)
        torn.write_bytes(checkpoint_path(tmp_path / "b", 2).read_bytes())
        with pytest.raises(ValueError, match="torn"):
            load_checkpoint(tmp_path / "a", c, Hyperparams(K=2))

    def test_truncated_arrays_rejected(self, tmp_path):
        c = make_corpus(tmp_path)
        st = init_state(c, Hyperparams(K=2), seed=1)
        write_checkpoint(tmp_path / "ck", st, master_seed=1, iteration=5)
        path = checkpoint_path(tmp_path / "ck", 1)
        path.write_bytes(path.read_bytes()[:-1])
        with pytest.raises(ValueError, match="truncated"):
            read_slice_checkpoint(path)


    @pytest.mark.parametrize("where", ["header", "phi", "z"])
    def test_flipped_byte_rejected(self, tmp_path, where):
        c = make_corpus(tmp_path)
        st = init_state(c, Hyperparams(K=2), seed=1)
        write_checkpoint(tmp_path / "ck", st, master_seed=1, iteration=5)
        path = checkpoint_path(tmp_path / "ck", 1)
        blob = bytearray(path.read_bytes())
        # header: the iteration field, which no structural check can catch;
        # phi: its first byte after the 37-byte header and K alpha floats;
        # z: the last byte before the 4-byte checksum
        offset = {"header": 13, "phi": 37 + 2 * 8, "z": len(blob) - 5}[where]
        blob[offset] ^= 0x01
        path.write_bytes(bytes(blob))
        with pytest.raises(ValueError, match="checksum"):
            read_slice_checkpoint(path)

    def test_failed_write_keeps_previous_file(self, tmp_path, monkeypatch):
        c = make_corpus(tmp_path)
        st = init_state(c, Hyperparams(K=2), seed=1)
        write_checkpoint(tmp_path / "ck", st, master_seed=1, iteration=5)
        path = checkpoint_path(tmp_path / "ck", 1)
        before = path.read_bytes()
        real = dtmgibbs.model._checkpoint_chunks

        def fail_part_way(*args):
            chunks = real(*args)
            yield next(chunks)
            yield next(chunks)
            raise OSError("disk full")

        monkeypatch.setattr(dtmgibbs.model, "_checkpoint_chunks", fail_part_way)
        with pytest.raises(OSError, match="disk full"):
            write_checkpoint(tmp_path / "ck", st, master_seed=1, iteration=6)
        assert path.read_bytes() == before
        assert sorted(p.name for p in (tmp_path / "ck").iterdir()) == [
            "slice_0001.dtmc", "slice_0002.dtmc"]
        assert read_slice_checkpoint(path)["iteration"] == 5


def per_row_log_norms(x):
    """The one-row formula, row by row: the reference for row_log_norms."""
    out = np.empty(x.shape[0])
    for d in range(x.shape[0]):
        m = x[d].max()
        out[d] = m + np.log(np.exp(x[d] - m).sum())
    return out


class TestNormalizerCache:
    def test_row_helper_equals_per_row_formula_bitwise(self):
        rng = np.random.default_rng(3)
        for k in list(range(1, 130)) + [1000, 3000]:
            n = 40 if k < 1000 else 4
            for scale in (1.0, 30.0, 600.0):
                x = scale * rng.uniform(-1.0, 1.0, size=(n, k))
                x[0] = 0.0                      # an all-zero row
                np.testing.assert_array_equal(row_log_norms(x), per_row_log_norms(x))
                rows = rng.choice(n, size=min(n, 7), replace=False)
                np.testing.assert_array_equal(row_log_norms(x[rows]),
                                              per_row_log_norms(x)[rows])

    def test_row_helper_handles_column_major_and_no_rows(self):
        x = np.random.default_rng(4).normal(size=(50, 17)) * 50
        np.testing.assert_array_equal(row_log_norms(np.asfortranarray(x)),
                                      per_row_log_norms(x))
        assert row_log_norms(np.empty((0, 5))).shape == (0,)

    def test_refresh_of_no_rows_changes_nothing(self):
        rng = np.random.default_rng(5)
        sl = SliceState(1, [], np.zeros(3), rng.normal(size=(3, 4)),
                        rng.normal(size=(6, 3)), [])
        before = sl.eta_log_norm.copy()
        sl.eta[:] = 0.0
        sl.refresh_eta_norm([])
        np.testing.assert_array_equal(sl.eta_log_norm, before)

    def test_successor_refreshes_only_changed_rows(self):
        rng = np.random.default_rng(6)
        docs = [np.zeros(0, dtype=np.int32)] * 30
        sl = SliceState(1, docs, np.zeros(4), rng.normal(size=(4, 9)),
                        rng.normal(size=(30, 4)), list(docs))
        old_eta = sl.eta.copy()
        eta = sl.eta.copy()
        eta[[3, 17]] = rng.normal(size=(2, 4)) * 20
        phi = rng.normal(size=(4, 9))
        nxt = sl.successor(np.ones(4), phi, [3, 17], eta[[3, 17]], [docs[3], docs[17]])
        fresh = SliceState(1, docs, np.ones(4), phi, eta, list(docs))
        np.testing.assert_array_equal(nxt.eta_log_norm, fresh.eta_log_norm)
        np.testing.assert_array_equal(nxt.phi_log_norm, fresh.phi_log_norm)
        assert not np.shares_memory(nxt.eta_log_norm, sl.eta_log_norm)
        assert sl.eta_log_norm[3] != nxt.eta_log_norm[3]   # the parent is untouched
        np.testing.assert_array_equal(sl.eta, old_eta)
        np.testing.assert_array_equal(nxt.eta, eta)


    def test_cache_matches_recompute(self, tmp_path):
        c = make_corpus(tmp_path)
        st = init_state(c, Hyperparams(K=3), seed=0)
        sl = st.slices[0]
        sl.eta[0] = np.array([1.0, -2.0, 0.5])
        sl.refresh_eta_norm([0])
        sl.validate_normalizers()
        sl.eta[0] = np.array([5.0, 5.0, 5.0])
        with pytest.raises(AssertionError):
            sl.validate_normalizers()


def advance(sl, rng, docs):
    """sl.successor with fresh random eta rows and z arrays for docs."""
    eta_rows = rng.normal(size=(len(docs), sl.k))
    z_rows = [rng.integers(0, sl.k, size=len(sl.tokens[d])).astype(np.int32)
              for d in docs]
    return sl.successor(rng.normal(size=sl.k), rng.normal(size=sl.phi.shape),
                        docs, eta_rows, z_rows)


def values(sl):
    """Copies of a state's document-level values."""
    return sl.eta.copy(), sl.eta_log_norm.copy(), [z.copy() for z in sl.z]


def assert_values(sl, expected):
    eta, norms, z = expected
    np.testing.assert_array_equal(sl.eta, eta)
    np.testing.assert_array_equal(sl.eta_log_norm, norms)
    assert len(sl.z) == len(z)
    for a, b in zip(sl.z, z):
        np.testing.assert_array_equal(a, b)
    sl.validate_normalizers()


class TestSuccessor:
    """A successor takes over its predecessor's arrays; every state keeps
    reading as its own values."""

    @staticmethod
    def slice_state(seed=0, d_t=12, k=3, v=5):
        rng = np.random.default_rng(seed)
        tokens = [rng.integers(0, v, size=4).astype(np.int32) for _ in range(d_t)]
        z = [rng.integers(0, k, size=4).astype(np.int32) for _ in range(d_t)]
        return SliceState(1, tokens, np.zeros(k), rng.normal(size=(k, v)),
                          rng.normal(size=(d_t, k)), z)

    def test_successor_equals_a_fresh_state_and_the_predecessor_is_unchanged(self):
        rng = np.random.default_rng(1)
        s0 = self.slice_state()
        v0 = values(s0)
        s1 = advance(s0, rng, [7, 2])
        fresh = SliceState(1, s0.tokens, s1.alpha, s1.phi, s1.eta.copy(), list(s1.z))
        np.testing.assert_array_equal(s1.eta_log_norm, fresh.eta_log_norm)
        assert_values(s0, v0)
        assert not np.shares_memory(s0.eta, s1.eta)
        unchanged = [d for d in range(s0.n_docs) if d not in (7, 2)]
        np.testing.assert_array_equal(s1.eta[unchanged], v0[0][unchanged])

    def test_chain_with_every_state_alive(self):
        rng = np.random.default_rng(2)
        states = [self.slice_state()]
        expected = [values(states[0])]
        for step in range(4):
            states.append(advance(states[-1], rng, [step, step + 5]))
            expected.append(values(states[-1]))
        for sl, exp in reversed(list(zip(states, expected))):
            assert_values(sl, exp)

    def test_one_state_advanced_twice(self):
        rng = np.random.default_rng(3)
        s0 = self.slice_state()
        v0 = values(s0)
        a = advance(s0, rng, [1, 4])
        va = values(a)
        b = advance(s0, rng, [4, 9])
        vb = values(b)
        assert_values(a, va)
        assert_values(b, vb)
        assert_values(s0, v0)

    def test_dropped_predecessors_cost_no_copy(self):
        # a trainer drops each state once it has the next one: every
        # successor writes into the first state's arrays
        rng = np.random.default_rng(4)
        sl = self.slice_state()
        eta, norms, z = sl.eta, sl.eta_log_norm, sl.z
        for step in range(3):
            sl = advance(sl, rng, [step])
        assert sl.eta is eta and sl.eta_log_norm is norms and sl.z is z
