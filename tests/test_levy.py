"""Trajectory construction and shift/thin operations."""

import numpy as np
import pytest

from sdlevy.levy import (ExponentialJumps, JumpPath, JumpSet, LevyModel, shift_path,
                         simulate_path, thin_path)
from sdlevy.stats import ks_two_sample


def _exp_model(rate=2.0, jump_rate=1.0):
    return LevyModel(jump_rate=jump_rate, jump_law=ExponentialJumps(rate))


class TestJumpLaws:
    def test_means(self):
        assert ExponentialJumps(4.0).mean == 0.25

    def test_model_validation(self):
        with pytest.raises(ValueError):
            LevyModel(jump_rate=1.0)  # rate without a law
        with pytest.raises(ValueError):
            LevyModel(jump_rate=-1.0, jump_law=ExponentialJumps(1.0))
        with pytest.raises(ValueError):
            LevyModel(gauss_var=-0.5)

    def test_mean_unit_increment(self):
        m = LevyModel(jump_rate=2.0, jump_law=ExponentialJumps(4.0), drift=0.5)
        assert m.mean_unit_increment() == pytest.approx(1.0)


class TestPathValues:
    def test_hand_built_path(self):
        p = JumpPath(10.0, np.array([1.0, 3.0]), np.array([2.0, -1.0]), drift=0.5)
        assert p.value(0.0) == 0.0
        assert p.value(0.5) == pytest.approx(0.25)
        assert p.value(1.0) == pytest.approx(0.5 + 2.0)   # jump at t included
        assert p.value(10.0) == pytest.approx(5.0 + 1.0)

    def test_path_validation(self, make_stream):
        with pytest.raises(ValueError):
            JumpPath(1.0, np.array([0.5, 0.5]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError):
            JumpPath(1.0, np.array([2.0]), np.array([1.0]))  # beyond horizon
        with pytest.raises(ValueError):
            JumpPath(1.0, np.array([0.0]), np.array([1.0]))  # jump at t = 0
        for horizon in (0.0, -1.0):
            with pytest.raises(ValueError):
                simulate_path(_exp_model(), horizon, make_stream())

    def test_value_decomposes_exactly(self, make_stream):
        model = LevyModel(jump_rate=3.0, jump_law=ExponentialJumps(1.0), drift=-0.7)
        p = simulate_path(model, 5.0, make_stream())
        for t in (0.3, 1.7, 5.0):
            expected = p.drift * t + float(np.sum(p.jump_sizes[p.jump_times <= t]))
            assert p.value(t) == pytest.approx(expected, rel=1e-12, abs=1e-12)

    def test_drift_only_deterministic(self, make_stream):
        p = simulate_path(LevyModel(drift=2.0), 5.0, make_stream())
        assert p.n_jumps == 0
        assert p.value(3.0) == pytest.approx(6.0)

    def test_mean_increment(self, make_stream):
        model = LevyModel(jump_rate=2.0, jump_law=ExponentialJumps(1.0))
        stream = make_stream()
        vals = np.array([simulate_path(model, 1.0, s).value(1.0)
                         for s in stream.split(50_000)])
        se = vals.std() / np.sqrt(vals.size)
        assert abs(vals.mean() - model.mean_unit_increment()) < 3.0 * se

    def test_void_probability(self, make_stream):
        stream = make_stream()
        empty = np.mean([simulate_path(_exp_model(), 1.0, s).n_jumps == 0
                         for s in stream.split(50_000)])
        # P(no jump in one unit of time at rate 1) = e^{-1}
        assert abs(empty - np.exp(-1.0)) < 0.0075


class TestShift:
    def test_zero_shift_is_identity(self, make_stream):
        p = simulate_path(_exp_model(), 4.0, make_stream())
        assert shift_path(p, 0.0) is p

    def test_shift_relabels_times(self, make_stream):
        p = simulate_path(LevyModel(jump_rate=5.0, jump_law=ExponentialJumps(1.0)),
                          10.0, make_stream())
        tau = float(p.jump_times[1])
        q = shift_path(p, tau)
        assert q.horizon == pytest.approx(10.0 - tau)
        np.testing.assert_allclose(q.jump_times, p.jump_times[2:] - tau)
        np.testing.assert_array_equal(q.jump_sizes, p.jump_sizes[2:])

    def test_shift_increment_identity(self, make_stream):
        model = LevyModel(jump_rate=2.0, jump_law=ExponentialJumps(1.0), drift=0.3)
        p = simulate_path(model, 6.0, make_stream())
        q = shift_path(p, 2.0)
        for u in (0.5, 1.5, 4.0):
            assert q.value(u) == pytest.approx(p.value(2.0 + u) - p.value(2.0),
                                               rel=1e-12, abs=1e-12)

    def test_memorylessness_at_first_jump(self, make_stream):
        # The first jump time of the path shifted at its first jump is
        # again Exp(rate), independent of the past.
        stream = make_stream()
        gaps = []
        for s in stream.split(30_000):
            p = simulate_path(_exp_model(jump_rate=1.0), 30.0, s)
            q = shift_path(p, float(p.jump_times[0]))
            gaps.append(float(q.jump_times[0]))
        fresh = make_stream().exponential(1.0, size=30_000)
        assert ks_two_sample(np.array(gaps), fresh)[2]

    def test_shift_out_of_range(self, make_stream):
        p = simulate_path(_exp_model(), 4.0, make_stream())
        with pytest.raises(ValueError):
            shift_path(p, 5.0)


class TestThin:
    def test_partition_is_exact(self, make_stream):
        p = simulate_path(_exp_model(rate=1.0, jump_rate=4.0), 10.0, make_stream())
        in_a, rest = thin_path(p, JumpSet(1.0))
        merged = np.sort(np.concatenate([in_a.jump_times, rest.jump_times]))
        np.testing.assert_array_equal(merged, p.jump_times)
        assert np.all(in_a.jump_sizes >= 1.0)
        assert np.all(rest.jump_sizes < 1.0)
        assert in_a.n_jumps + rest.n_jumps == p.n_jumps

    def test_drift_stays_with_rest(self, make_stream):
        model = LevyModel(jump_rate=2.0, jump_law=ExponentialJumps(1.0), drift=0.4)
        in_a, rest = thin_path(simulate_path(model, 5.0, make_stream()),
                               JumpSet(0.5))
        assert in_a.drift == 0.0
        assert rest.drift == 0.4

    def test_thinned_rate(self, make_stream):
        # Jumps with size >= a survive with probability e^{-lam*a}, so the
        # thinned process is Poisson with rate alpha * e^{-lam*a}.
        alpha, lam, a = 4.0, 1.0, 1.0
        stream = make_stream()
        counts = [thin_path(simulate_path(_exp_model(lam, alpha), 1.0, s),
                            JumpSet(a))[0].n_jumps
                  for s in stream.split(30_000)]
        target = alpha * np.exp(-lam * a)
        assert abs(np.mean(counts) - target) < 4.0 * np.sqrt(target / 30_000)

    def test_parts_uncorrelated(self, make_stream):
        stream = make_stream()
        na, nb = [], []
        for s in stream.split(20_000):
            in_a, rest = thin_path(simulate_path(_exp_model(1.0, 3.0), 1.0, s),
                                   JumpSet(0.7))
            na.append(in_a.n_jumps)
            nb.append(rest.n_jumps)
        na, nb = np.array(na, float), np.array(nb, float)
        corr = np.corrcoef(na, nb)[0, 1]
        assert abs(corr) < 3.0 / np.sqrt(na.size)

    def test_gaussian_part_refused(self, make_stream):
        # thinning needs a path, and a Gaussian model has none
        with pytest.raises(ValueError):
            simulate_path(LevyModel(gauss_var=1.0), 2.0, make_stream())

    def test_jump_set_validation(self):
        with pytest.raises(ValueError):
            JumpSet(0.0)  # not separated from zero
        assert JumpSet(1.0).contains(1.0) and not JumpSet(1.0).contains(0.5)


class TestIncrements:
    def test_disjoint_increments_uncorrelated(self, make_stream):
        model = LevyModel(jump_rate=2.0, jump_law=ExponentialJumps(1.0), drift=0.1)
        stream = make_stream()
        inc = np.empty((20_000, 4))
        grid = [0.0, 0.5, 1.0, 1.5, 2.0]
        for row, s in enumerate(stream.split(20_000)):
            p = simulate_path(model, 2.0, s)
            vals = [p.value(t) for t in grid]
            inc[row] = np.diff(vals)
        band = 3.0 / np.sqrt(inc.shape[0])
        for i in range(4):
            for j in range(i + 1, 4):
                assert abs(np.corrcoef(inc[:, i], inc[:, j])[0, 1]) < band

    def test_increments_stationary(self, make_stream):
        model = LevyModel(jump_rate=2.0, jump_law=ExponentialJumps(1.0))
        stream = make_stream()
        first, second = [], []
        for s in stream.split(30_000):
            p = simulate_path(model, 2.0, s)
            first.append(p.value(1.0))
            second.append(p.value(2.0) - p.value(1.0))
        assert ks_two_sample(np.array(first), np.array(second))[2]

