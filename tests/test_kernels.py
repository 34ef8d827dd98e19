import numpy as np
import pytest
from scipy import stats

from conftest import enumerate_alias_measure

from dtmgibbs.kernels import (SgldSchedule, alias_draw, build_alias_matrix,
                              build_alias_table, log_sum_exp, pool_draw,
                              pool_draw_many, refill_pool, rng_for,
                              softmax, step_size)


class TestLogSumExp:
    def test_two_zeros(self):
        assert log_sum_exp([0.0, 0.0]) == pytest.approx(0.6931471805599453, abs=1e-12)

    def test_shift_invariance_no_overflow(self):
        assert log_sum_exp([1000.0, 1000.0]) == pytest.approx(1000.0 + np.log(2), abs=1e-9)

    def test_known_value(self):
        # 40-digit reference: 3.407605964444380304...
        assert log_sum_exp([1.0, 2.0, 3.0]) == pytest.approx(3.4076059644443803, abs=1e-12)

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            log_sum_exp([])

    def test_bounds(self):
        rng = np.random.default_rng(0)
        for _ in range(50):
            x = rng.normal(scale=10, size=rng.integers(1, 20))
            v = log_sum_exp(x)
            assert x.max() <= v <= x.max() + np.log(x.size) + 1e-12


class TestSoftmax:
    def test_uniform(self):
        np.testing.assert_allclose(softmax([0, 0, 0, 0]), 0.25, atol=1e-15)

    def test_known_value(self):
        np.testing.assert_allclose(
            softmax([1.0, 2.0, 3.0]),
            [0.09003057317038046, 0.24472847105479764, 0.6652409557748219],
            atol=1e-12)

    def test_shift_invariance(self):
        rng = np.random.default_rng(1)
        for _ in range(50):
            x = rng.normal(size=8)
            np.testing.assert_allclose(softmax(x + 5.0), softmax(x), atol=1e-12)

    def test_sums_to_one_positive(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            x = rng.normal(scale=50, size=rng.integers(1, 30))
            s = softmax(x)
            assert abs(s.sum() - 1.0) <= 1e-12
            assert np.all(s > 0)


class TestAliasTable:
    def test_uniform_weights_never_alias(self):
        t = build_alias_table([1.0, 1.0, 1.0, 1.0])
        np.testing.assert_allclose(t.prob, 1.0)

    def test_exact_measure_2_1_1(self):
        t = build_alias_table([2.0, 1.0, 1.0])
        np.testing.assert_allclose(enumerate_alias_measure(t), [0.5, 0.25, 0.25],
                                   atol=1e-15)

    def test_single_outcome(self):
        t = build_alias_table([7.0])
        rng = rng_for(0, "k1")
        assert np.all(alias_draw(t, rng, 100) == 0)

    def test_exact_measure_random_weights(self):
        rng = np.random.default_rng(3)
        for _ in range(200):
            k = int(rng.integers(1, 17))
            w = rng.random(k) + 1e-3
            t = build_alias_table(w)
            np.testing.assert_allclose(enumerate_alias_measure(t), w / w.sum(),
                                       atol=1e-12)

    def test_column_indexes_at_most_two(self):
        # column j covers outcome j and alias[j] only, by construction
        t = build_alias_table([5.0, 1.0, 0.5, 2.0, 0.1])
        assert t.alias.shape == t.prob.shape
        assert np.all((0 <= t.alias) & (t.alias < t.k))

    def test_rejects_bad_weights(self):
        for bad in ([], [0.0, 0.0], [-1.0, 2.0], [np.nan, 1.0]):
            with pytest.raises(ValueError):
                build_alias_table(bad)

    def test_draw_frequencies_uniform(self):
        t = build_alias_table(np.ones(4))
        draws = alias_draw(t, rng_for(0, "chi"), size=100_000)
        freqs = np.bincount(draws, minlength=4) / 100_000
        assert np.all((freqs >= 0.24) & (freqs <= 0.26))
        chi = stats.chisquare(np.bincount(draws, minlength=4))
        assert chi.pvalue > 0.01

    def test_draw_frequencies_weighted(self):
        t = build_alias_table([3.0, 1.0])
        draws = alias_draw(t, rng_for(0, "w31"), size=100_000)
        assert abs((draws == 0).mean() - 0.75) < 0.01


class TestAliasMatrix:
    def test_rows_equal_scalar_builder_bitwise(self):
        rng = np.random.default_rng(11)
        ks = list(range(1, 81)) + [97, 128, 199, 256, 333, 512, 600]
        for i, k in enumerate(ks):
            n = int(rng.integers(1, 9))
            kind = i % 4
            if kind == 0:
                w = rng.random((n, k))
            elif kind == 1:                       # heavy-tailed, column-major
                w = np.exp(rng.normal(0.0, 3.0, size=(k, n))).T
            elif kind == 2:                       # all-equal rows
                w = np.repeat(rng.random((n, 1)) + 0.1, k, axis=1)
            else:                                 # zero entries
                w = rng.random((n, k))
                w[rng.random((n, k)) < 0.4] = 0.0
                w[:, -1] += 0.5
            prob, alias = build_alias_matrix(w)
            assert prob.shape == alias.shape == (n, k)
            for r in range(n):
                t = build_alias_table(w[r])
                assert prob[r].tobytes() == t.prob.tobytes(), (k, kind, r)
                assert alias[r].tobytes() == t.alias.tobytes(), (k, kind, r)

    def test_no_rows(self):
        prob, alias = build_alias_matrix(np.ones((0, 5)))
        assert prob.shape == alias.shape == (0, 5)


class TestPool:
    def test_refill_fills_k(self):
        t = build_alias_table(np.ones(5))
        refill_pool(t, rng_for(0, "pool"))
        assert t.pool_size() == 5

    def test_refill_requires_empty(self):
        t = build_alias_table(np.ones(5))
        refill_pool(t, rng_for(0, "pool"))
        with pytest.raises(ValueError):
            refill_pool(t, rng_for(0, "pool"))

    def test_fifo_and_deterministic(self):
        def drain(seed_tag):
            t = build_alias_table([1.0, 2.0, 3.0])
            rng = rng_for(0, seed_tag)
            return [pool_draw(t, rng) for _ in range(9)]  # forces two refills

        assert drain("d") == drain("d")

    def test_pool_draws_match_direct_distribution(self):
        t = build_alias_table([1.0, 2.0, 1.0])
        draws = pool_draw_many(t, rng_for(0, "poolchi"), 100_000)
        expected = np.array([0.25, 0.5, 0.25]) * 100_000
        chi = stats.chisquare(np.bincount(draws, minlength=3), expected)
        assert chi.pvalue > 0.01


class TestSchedule:
    def test_reference_values(self):
        s = SgldSchedule(0.5, 100, 0.8)
        assert step_size(s, 0) == pytest.approx(0.012559432157547901, abs=1e-12)
        assert step_size(s, 900) == pytest.approx(0.0019905358527674863, abs=1e-12)

    def test_zero_base_rejected(self):
        s = SgldSchedule(1.0, 0.0, 1.0)
        with pytest.raises(ValueError):
            step_size(s, 0)
        assert step_size(s, 1) == 1.0

    def test_strictly_decreasing_to_zero(self):
        s = SgldSchedule(0.5, 100, 0.8)
        vals = [step_size(s, i) for i in range(0, 100_000, 1000)]
        assert all(a > b for a, b in zip(vals, vals[1:]))
        assert vals[-1] < 1e-3

    def test_parameter_validation(self):
        with pytest.raises(ValueError):
            SgldSchedule(-1.0, 100, 0.8)
        with pytest.raises(ValueError):
            SgldSchedule(0.5, 100, 0.4)
        with pytest.raises(ValueError):
            SgldSchedule(0.5, 100, 1.2)


class TestRngStreams:
    def test_distinct_paths_distinct_streams(self):
        a = rng_for(1, "x", 0).random(4)
        b = rng_for(1, "x", 1).random(4)
        assert not np.allclose(a, b)

    def test_same_path_same_stream(self):
        np.testing.assert_array_equal(rng_for(1, "x", 2, "y").random(4),
                                      rng_for(1, "x", 2, "y").random(4))
