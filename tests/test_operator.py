"""The matrix-discounted integral, its spectral gate, and the stopped
operator factorization."""

import math
import tracemalloc

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from sdlevy.decomposition import FixedTime, IndependentRandomTime, KthJump, decompose_many
from sdlevy.discount import TruncationPolicy, sample_discounted_integral_many
from sdlevy.errors import SpectralGateError
from sdlevy.levy import ExponentialJumps, JumpSet, LevyModel, _poisson_jumps
from sdlevy.operator import (OperatorModel, _expm, _QDiscounter, operator_decompose_many,
                             sample_operator_integral_many)
from sdlevy.rng import RngStream
from sdlevy.stats import ks_two_sample

POLICY = TruncationPolicy()


def _coord(alpha=2.0, lam=1.0, drift=0.0):
    return LevyModel(jump_rate=alpha, jump_law=ExponentialJumps(lam), drift=drift)


def _model_2d(q=None):
    q = np.diag([1.0, 2.0]) if q is None else np.asarray(q, float)
    return OperatorModel(q, (_coord(2.0, 1.0), _coord(1.0, 2.0, drift=0.3)))


# The complex-eigenvalue Q of the benchmark's eigen-mode config.
_ROTATING_Q = [[1.0, -0.5], [0.5, 1.5]]

# One Q per discounter path (diagonal, real eigenvalues, complex eigenvalues,
# a Jordan block), with the mode it must choose.
_MODE_QS = [([[1.0, 0.0], [0.0, 2.0]], "eigen"), ([[2.0, 1.0], [0.0, 1.0]], "eigen"),
            (_ROTATING_Q, "eigen"), ([[1.0, 1.0], [0.0, 1.0]], "dense")]


def _discounters():
    """(Q, discounter) for each entry of _MODE_QS, its mode checked."""
    out = []
    for q, mode in _MODE_QS:
        q = np.asarray(q)
        disc = _QDiscounter(q)
        assert disc.mode == mode
        out.append((q, disc))
    return out


class TestMatrixExp:
    """The discounter's e^{-tQ} in every mode, against scipy.linalg.expm."""

    def test_zero(self):
        for _, disc in _discounters():
            np.testing.assert_allclose(disc.matrix(0.0)[0], np.eye(2), rtol=0,
                                       atol=1e-15)

    def test_diagonal(self):
        m = _QDiscounter(np.diag([1.0, 2.0])).matrix([0.5, 3.0])
        for k, t in enumerate([0.5, 3.0]):
            np.testing.assert_array_equal(m[k], np.diag(np.exp([-t, -2.0 * t])))

    def test_inverse_pair(self):
        for _, disc in _discounters():
            m = disc.matrix([0.7, -0.7])
            np.testing.assert_allclose(m[0] @ m[1], np.eye(2), rtol=0, atol=1e-12)

    def test_matches_expm(self):
        times = np.array([0.0, 1e-10, 1e-4, 0.3, 5.0, 40.0])
        for q, disc in _discounters():
            got = disc.matrix(times)
            for k, t in enumerate(times):
                np.testing.assert_allclose(got[k], scipy.linalg.expm(-t * q), rtol=0,
                                           atol=1e-12)

    def test_validation(self):
        # OperatorModel refuses a Q whose exponential is undefined
        coords = (_coord(), _coord())
        with pytest.raises(ValueError, match="square"):
            OperatorModel(np.ones((2, 3)), coords)
        with pytest.raises(ValueError, match="finite"):
            OperatorModel(np.array([[np.nan, 0.0], [0.0, 1.0]]), coords)

    @given(s=st.floats(0.0, 3.0), t=st.floats(0.0, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_semigroup(self, s, t):
        for _, disc in _discounters():
            m = disc.matrix([s + t, s, t])
            np.testing.assert_allclose(m[0], m[1] @ m[2], rtol=0, atol=1e-12)


# The Jordan blocks, the real-eigenvalue Q and the rotating Q, fed to the
# Pade kernel directly; measured within 2e-12 of scipy at the kernel times.
_KERNEL_QS = {"jordan2": [[1.0, 1.0], [0.0, 1.0]],
              "jordan3": [[1.0, 1.0, 0.0], [0.0, 1.0, 1.0], [0.0, 0.0, 1.0]],
              "real_eigen": [[2.0, 1.0], [0.0, 1.0]], "rotating": _ROTATING_Q}
_KERNEL_TIMES = [0.0, 1e-10, 1e-4, 0.3, 5.0, 40.0, 600.0]


def _max_gap_to_scipy(q, times):
    """The largest gap of _expm(-tQ) to scipy.linalg.expm(-tQ) over the
    times, relative to the largest entry of scipy's matrix."""
    q = np.asarray(q)
    got = _expm(-np.asarray(times)[:, None, None] * q)
    gaps = []
    for k, t in enumerate(times):
        ref = scipy.linalg.expm(-t * q)
        gaps.append(np.max(np.abs(got[k] - ref)) / np.max(np.abs(ref), initial=1e-300))
    return max(gaps)


class TestExpmKernel:
    """The stacked Pade-13 kernel of the dense mode, against scipy.linalg.expm
    as a test-only oracle."""

    @pytest.mark.parametrize("name", sorted(_KERNEL_QS))
    def test_matches_scipy(self, name):
        assert _max_gap_to_scipy(_KERNEL_QS[name], _KERNEL_TIMES) <= 1e-11

    def test_near_defective(self):
        # eigenvalues 1 and 1 + 1e-9 under a 1e4 coupling (up to 21 squarings
        # at t = 600); the gap, 2e-9 at these times, is mostly scipy's: against
        # the closed form on [0, 560] the kernel was within 2e-10, scipy 6e-8
        q = [[1.0, 1e4], [0.0, 1.0 + 1e-9]]
        assert _max_gap_to_scipy(q, _KERNEL_TIMES) <= 1e-8

    def test_zero_is_identity(self):
        # e^0 = I exactly, alone and inside a stack that needs squaring
        for name, q in _KERNEL_QS.items():
            q = np.asarray(q)
            got = _expm(-np.array([0.0, 600.0, 0.0])[:, None, None] * q)
            for k in (0, 2):
                assert np.array_equal(got[k], np.eye(len(q))), name


class TestDriftIntegral:
    @pytest.mark.parametrize("q", [[[1.0, 0.0], [0.0, 2.0]], [[2.0, 1.0], [0.0, 1.0]],
                                   _ROTATING_Q, [[2.0, 1.0], [0.5, 3.0]]],
                             ids=["diagonal", "real_eigen", "complex_eigen", "coupled"])
    def test_matches_block_exponential(self, q):
        # int_0^t e^{-sQ} b ds is the top-right block of expm([[-Q, b], [0, 0]] t)
        # (Van Loan 1978); the eigenbasis form must not cancel at small t
        q = np.asarray(q)
        b = np.array([0.7, -0.3])
        disc = _QDiscounter(q)
        assert disc.mode == "eigen"
        block = np.zeros((3, 3))
        block[:2, :2] = -q
        block[:2, 2] = b
        times = [1e-10, 1e-8, 1e-4, 0.3, 5.0, 40.0]
        got = disc.drift_integral(times, b)
        for k, t in enumerate(times):
            ref = scipy.linalg.expm(block * t)[:2, 2]
            assert np.max(np.abs(got[k] - ref)) <= 1e-12 * np.max(np.abs(ref)), t

    def test_dense_matches_taylor_series(self):
        # the Jordan block runs in the dense mode; at small t the integral is
        # sum_k (-Q)^k b t^{k+1} / (k+1)!, and six terms are exact in double
        # precision for t <= 1e-4, where the form Q^{-1}(b - e^{-tQ} b) cancels
        q = np.array([[1.0, 1.0], [0.0, 1.0]])
        b = np.array([0.7, -0.3])
        disc = _QDiscounter(q)
        assert disc.mode == "dense"
        times = [1e-10, 1e-8, 1e-4]
        got = disc.drift_integral(times, b)
        for k, t in enumerate(times):
            terms = [np.linalg.matrix_power(-q, j) @ b * t ** (j + 1) / math.factorial(j + 1)
                     for j in range(6)]
            ref = np.sum(terms, axis=0)
            assert np.max(np.abs(got[k] - ref)) <= 1e-12 * np.max(np.abs(ref)), t


class TestSpectralGate:
    def test_positive_spectrum_accepted(self):
        _model_2d(np.array([[1.0, 0.5], [0.0, 2.0]]))  # triangular, eigs 1 and 2

    def test_singular_rejected(self):
        with pytest.raises(SpectralGateError):
            _model_2d(np.zeros((2, 2)))

    def test_negative_real_part_rejected(self):
        with pytest.raises(SpectralGateError):
            _model_2d(np.diag([1.0, -0.5]))

    def test_gate_tolerance(self):
        with pytest.raises(SpectralGateError):
            _model_2d(np.diag([1.0, 1e-13]))
        _model_2d(np.diag([1.0, 1e-3]))  # clearly positive passes

    def test_rotation_with_positive_real_part_accepted(self):
        # complex eigenvalue pair 1 +- 2i still has positive real part
        _model_2d(np.array([[1.0, -2.0], [2.0, 1.0]]))

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            OperatorModel(np.eye(3), (_coord(), _coord()))

    def test_gaussian_driver_rejected(self):
        with pytest.raises(ValueError, match="Gaussian"):
            OperatorModel(np.eye(1), (LevyModel(gauss_var=1.0),))

    def test_driver_sources_validated(self):
        with pytest.raises(ValueError, match="at least one"):
            OperatorModel(np.zeros((0, 0)), ())

    def test_driver_sums_its_sources(self):
        # coordinate i's drift and mean increment go along e_i
        model = OperatorModel(np.diag([1.0, 2.0]), (_coord(2.0, 1.0, drift=0.1),
                                                    _coord(1.0, 2.0, drift=0.3)))
        assert model.dimension == 2
        np.testing.assert_array_equal(model._drift, [0.1, 0.3])
        np.testing.assert_array_equal(model.mean_integral(), [2.1, 0.4])


class TestScalarConsistency:
    def test_d1_bit_identical_to_scalar(self):
        model = LevyModel(jump_rate=2.0, jump_law=ExponentialJumps(1.0), drift=0.5)
        op = OperatorModel(np.array([[1.0]]), (model,))
        x_op = sample_operator_integral_many(op, POLICY, 2000, RngStream(99))
        x_sc = sample_discounted_integral_many(model, POLICY, 2000, RngStream(99))
        assert x_op.shape == (2000, 1)
        assert np.array_equal(x_op[:, 0], x_sc)  # exact, same draws and float ops

    @pytest.mark.parametrize("rule", [
        KthJump(), KthJump(170), FixedTime(0.7),
        IndependentRandomTime(1.0),
    ], ids=["first_jump", "kth_jump_170", "fixed_time", "independent_time"])
    def test_d1_decomposition_matches_scalar(self, rule):
        # Q = [[1]] is the scalar case: the shared batch engine must draw the
        # same stopping times and paths, record for record. At rate 2 a
        # block of length T holds about 80 jumps, so KthJump(170) always
        # takes more than two blocks.
        model = LevyModel(jump_rate=2.0, jump_law=ExponentialJumps(1.5), drift=0.3)
        op = OperatorModel(np.array([[1.0]]), (model,))
        o = operator_decompose_many(op, rule, POLICY, 300, RngStream(2024))
        s = decompose_many(model, rule, POLICY, 300, RngStream(2024))
        assert np.array_equal(o.tau, s.tau)
        assert o.discount.shape == (300, 1, 1)
        for field in ("discount", "x_tau", "x_prime", "x_total"):
            a, b = getattr(o, field).reshape(-1), getattr(s, field)
            assert np.all(np.abs(a - b) <= 1e-14 * np.maximum(np.abs(b), 1e-300)), field

    def test_scaled_identity_reduces_per_coordinate(self, make_stream):
        # with Q = cI the coordinate integral sum_k e^{-c t_k} J_k has the
        # law of a scalar discounted integral at jump rate alpha / c
        c, alpha, lam = 2.0, 3.0, 1.0
        op = OperatorModel(c * np.eye(2), (_coord(alpha, lam), _coord(alpha, lam)))
        draws = sample_operator_integral_many(op, POLICY, 30_000, make_stream())
        scalar = sample_discounted_integral_many(
            LevyModel(jump_rate=alpha / c, jump_law=ExponentialJumps(lam)),
            TruncationPolicy(horizon=c * POLICY.horizon), 30_000, make_stream())
        assert ks_two_sample(draws[:, 0], scalar)[2]
        assert ks_two_sample(draws[:, 1], scalar)[2]


class TestMeanIdentity:
    def test_diag_model(self, make_stream):
        model = _model_2d()
        draws = sample_operator_integral_many(model, POLICY, 100_000, make_stream())
        target = model.mean_integral()
        se = draws.std(axis=0) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - target) <= 3.0 * se)

    def test_non_diagonal_model(self, make_stream):
        q = np.array([[2.0, 1.0], [0.0, 1.0]])
        model = _model_2d(q)
        np.testing.assert_allclose(model.q @ model.mean_integral(),
                                   [m.mean_unit_increment() for m in model.coords],
                                   rtol=1e-12)
        draws = sample_operator_integral_many(model, POLICY, 20_000, make_stream())
        se = draws.std(axis=0) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - model.mean_integral()) <= 3.0 * se)

    def test_n_validated(self, make_stream):
        for n in (0, -1):
            with pytest.raises(ValueError, match="n must be at least 1"):
                sample_operator_integral_many(_model_2d(), POLICY, n, make_stream())


class TestOperatorDecomposition:
    @pytest.mark.parametrize("rule", [
        FixedTime(0.7), KthJump(), KthJump(3),
        IndependentRandomTime(1.0), KthJump(1, JumpSet(1.0)),
    ])
    def test_residuals(self, rule, make_stream):
        for q in (None, _ROTATING_Q):
            records = operator_decompose_many(_model_2d(q), rule, POLICY, 200,
                                              make_stream())
            assert records.passes().all()

    def test_non_diagonal_residuals(self, make_stream):
        model = _model_2d(np.array([[2.0, 1.0], [0.5, 3.0]]))
        records = operator_decompose_many(model, KthJump(), POLICY, 200,
                                          make_stream())
        assert records.passes().all()

    def test_fixed_time_zero(self, make_stream):
        r = operator_decompose_many(_model_2d(), FixedTime(0.0), POLICY, 1, make_stream())
        np.testing.assert_array_equal(r.x_tau, np.zeros((1, 2)))
        np.testing.assert_allclose(r.discount, np.eye(2)[None])
        np.testing.assert_allclose(r.x_prime, r.x_total)

    def test_marginal_matches_integral(self, make_stream):
        model = _model_2d()
        records = operator_decompose_many(model, KthJump(), POLICY, 5_000,
                                          make_stream())
        x_total = records.x_total
        draws = sample_operator_integral_many(model, POLICY, 5_000, make_stream())
        assert ks_two_sample(x_total[:, 0], draws[:, 0])[2]
        assert ks_two_sample(x_total[:, 1], draws[:, 1])[2]

    def test_first_jump_in_records(self, make_stream):
        # KthJump(1, A) stops at the first jump of any coordinate whose
        # scalar size lies in A, so tau ~ Exp(sum_j rate_j * P(size_j in A));
        # here A = [1, inf) and P(Exp(lam) >= 1) = e^{-lam}
        rule = KthJump(1, JumpSet(1.0))
        rate = 2.0 * math.exp(-1.0) + 1.0 * math.exp(-2.0)
        for model in (_model_2d(), _model_2d(_ROTATING_Q)):
            records = operator_decompose_many(model, rule, POLICY, 5_000, make_stream())
            assert records.passes().all()
            ref = ExponentialJumps(rate).sample(make_stream(), 5_000)
            assert ks_two_sample(records.tau, ref)[2]


class TestRaggedSum:
    """The discounter's ragged sum against evaluators that share no code
    with its eigenbasis or its row accumulation."""

    def _jumps(self, stream, n=40):
        return _poisson_jumps(_coord(2.0, 1.0), 6.0, n, stream)

    @pytest.mark.parametrize("q", [[[2.0, 1.0], [0.0, 1.0]], _ROTATING_Q],
                             ids=["real_eigen", "complex_eigen"])
    @pytest.mark.parametrize("u", [(1.0, 0.0), (0.0, 1.0), (1.0, -0.5)])
    def test_eigen_matches_per_jump_expm(self, q, u, make_stream):
        disc = _model_2d(q)._discounter
        assert disc.mode == "eigen"
        owner, times, sizes = self._jumps(make_stream())
        u = np.asarray(u)
        got = disc.ragged_sum(owner, times, sizes, u, 40)
        ref = np.zeros((40, 2))
        for i, t, s in zip(owner, times, sizes):
            ref[i] += scipy.linalg.expm(-t * np.asarray(q)) @ u * s
        scale = np.linalg.norm(ref, axis=1)
        assert np.all(np.linalg.norm(got - ref, axis=1) <= 1e-12 * scale)

    # a real eigenvalue beside a conjugate pair (the real one first), and two
    # conjugate pairs; e_3 is the real eigenvector of the first, so V^{-1} e_3
    # is zero on its pair
    @pytest.mark.parametrize("q, pairs", [
        ([[1.0, -0.5, 0.0], [0.5, 1.5, 0.0], [0.2, 0.0, 0.8]], [1]),
        ([[1.0, -2.0, 0.0, 0.0], [2.0, 1.0, 0.0, 0.0], [0.0, 0.3, 0.5, -3.0],
          [0.0, 0.0, 3.0, 0.7]], [0, 2]),
    ], ids=["real_and_pair", "two_pairs"])
    def test_mixed_spectrum_matches_per_jump_expm(self, q, pairs, make_stream):
        q = np.asarray(q)
        d = len(q)
        disc = _QDiscounter(q)
        assert disc.mode == "eigen" and np.array_equal(disc.pairs, pairs)
        owner, times, sizes = self._jumps(make_stream())
        directions = [*np.eye(d), np.linspace(1.0, -0.5, d)]
        if d == 3:
            assert not np.any((disc.vinv @ directions[2])[disc.pairs])
        for u in directions:
            got = disc.ragged_sum(owner, times, sizes, u, 40)
            ref = np.zeros((40, d))
            for i, t, s in zip(owner, times, sizes):
                ref[i] += scipy.linalg.expm(-t * q) @ u * s
            scale = np.linalg.norm(ref, axis=1)
            assert np.all(np.linalg.norm(got - ref, axis=1) <= 1e-12 * scale)

    @pytest.mark.parametrize("n_rows", [40, 400])
    def test_dense_matches_per_jump_expm(self, n_rows, monkeypatch, make_stream):
        # the drawn paths fill the even rows only, so every odd row has no
        # jumps, and the block size is the least from 7 up that leaves a
        # partial last block of the drawn count
        disc = _model_2d([[1.0, 1.0], [0.0, 1.0]])._discounter
        assert disc.mode == "dense"
        owner, times, sizes = _poisson_jumps(_coord(0.5, 1.0), 2.0, n_rows, make_stream())
        owner, n_rows = 2 * owner, 2 * n_rows
        block = next(b for b in range(7, times.size) if times.size % b)
        u = np.array([1.0, -0.5])
        whole = disc.ragged_sum(owner, times, sizes, u, n_rows)
        monkeypatch.setattr("sdlevy.operator._EXPM_BLOCK", block)
        got = disc.ragged_sum(owner, times, sizes, u, n_rows)
        assert np.array_equal(got, whole)
        ref = np.zeros((n_rows, 2))
        for i, t, s in zip(owner, times, sizes):
            ref[i] += scipy.linalg.expm(-t * disc.q) @ u * s
        assert np.all(np.linalg.norm(got - ref, axis=1)
                      <= 1e-12 * np.linalg.norm(ref, axis=1))
        assert not np.any(got[np.bincount(owner, minlength=n_rows) == 0])

    def test_dense_no_jumps(self):
        disc = _model_2d([[1.0, 1.0], [0.0, 1.0]])._discounter
        empty = np.array([], float)
        got = disc.ragged_sum(np.array([], int), empty, empty, np.array([1.0, 0.0]), 3)
        np.testing.assert_array_equal(got, np.zeros((3, 2)))

    def test_diag_is_the_scalar_batch(self):
        # column j is the per-jump sum of e^{-q_j t} u_j * size, row by row
        model = _model_2d()
        disc = model._discounter
        assert disc.mode == "eigen"
        for j, (coord, u) in enumerate(zip(model.coords, np.eye(2))):
            driftless = LevyModel(jump_rate=coord.jump_rate, jump_law=coord.jump_law)
            owner, times, sizes = _poisson_jumps(driftless, POLICY.horizon, 500,
                                                 RngStream(5, j))
            got = disc.ragged_sum(owner, times, sizes, u, 500)
            ref = np.zeros(500)
            for i, t, size in zip(owner, times, sizes):
                ref[i] += math.exp(-model.q[j, j] * t) * u[j] * size
            assert np.all(np.abs(got[:, j] - ref) <= 1e-14 * np.abs(ref))
            assert not np.any(got[:, 1 - j])


def _unblocked_operator_integral(model, T, n, stream, m=None):
    """The operator integral batch from the full owner/time/size arrays of
    ``_poisson_jumps``, one block of m rows (all n at once by default) after
    another on the one stream: in each block one call per coordinate in
    order, discounted by ``ragged_sum`` along its unit vector."""
    m = m or n
    disc = model._discounter
    out = np.zeros((n, model.dimension))
    for lo in range(0, n, m):
        k = min(m, n - lo)
        for coord, u in zip(model.coords, np.eye(model.dimension)):
            out[lo:lo + k] += disc.ragged_sum(*_poisson_jumps(coord, T, k, stream), u, k)
    return out + disc.drift_integral(T, model._drift)


class TestBlockedBatch:
    """``sample_operator_integral_many`` draws its rows in consecutive
    blocks of m (``levy._jump_sums``), each coordinate one ``_poisson_jumps``
    call per block, and must equal the unblocked sums of those calls bit for
    bit in every discounter mode."""

    @pytest.mark.parametrize("q", [q for q, _ in _MODE_QS],
                             ids=["diagonal", "coupled", "complex_eigen", "jordan"])
    @pytest.mark.parametrize("n, T", [(1, 40.0), (7, 40.0), (15_000, 0.5)])
    def test_bit_equal_to_unblocked(self, monkeypatch, q, n, T):
        # blocks of 500 expected jumps at the total rate 3: m = 4 rows at
        # T = 40, so n = 7 is a full block and a partial one, and m = 333
        # at T = 0.5, 46 blocks
        monkeypatch.setattr("sdlevy.levy._BLOCK", 500)
        model = _model_2d(q)
        m = {40.0: 4, 0.5: 333}[T]
        ref_stream, stream = RngStream(21, n), RngStream(21, n)
        ref = _unblocked_operator_integral(model, T, n, ref_stream, m)
        got = sample_operator_integral_many(model, TruncationPolicy(T), n, stream)
        assert np.array_equal(got, ref)
        assert stream.counter == ref_stream.counter

    @pytest.mark.parametrize("q", [q for q, _ in _MODE_QS],
                             ids=["diagonal", "coupled", "complex_eigen", "jordan"])
    def test_one_block_is_the_unblocked_draw(self, q):
        # 500 rows of about 120 jumps fit one default block of 2^16
        model = _model_2d(q)
        ref_stream, stream = RngStream(24), RngStream(24)
        ref = _unblocked_operator_integral(model, 40.0, 500, ref_stream)
        got = sample_operator_integral_many(model, TruncationPolicy(40.0), 500, stream)
        assert np.array_equal(got, ref)
        assert stream.counter == ref_stream.counter

    def test_prefix_stable(self):
        # at the total rate 3 and T = 40 a default block holds
        # m = 2^16 // 120 = 546 rows: both coordinates draw in each block, so the
        # first 2 * 546 rows are the same for every n >= 1,092
        for q in (None, _ROTATING_Q):
            draws = {n: sample_operator_integral_many(_model_2d(q), TruncationPolicy(40.0), n,
                                                      RngStream(25))
                     for n in (1_092, 1_093, 3_000)}
            for n in (1_093, 3_000):
                assert np.array_equal(draws[n][:1_092], draws[1_092])

    def test_peak_does_not_grow_with_jumps(self):
        # operator_2d's coordinates at n = 10^4, one fixed bound at T = 40
        # and T = 400 (about 1.2 and 12 million jumps): block temporaries
        # and (n, d) sums, no per-jump array
        for horizon in (40.0, 400.0):
            tracemalloc.start()
            try:
                sample_operator_integral_many(_model_2d(), TruncationPolicy(horizon), 10_000,
                                              RngStream(23))
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak <= 5 << 20, horizon


class TestOperatorRecordsEngine:
    def test_complex_eigenvalue_records(self, make_stream):
        model = _model_2d(_ROTATING_Q)
        assert np.iscomplexobj(model._discounter.w)
        records = operator_decompose_many(model, KthJump(2), POLICY, 3_000,
                                          make_stream())
        assert records.passes().all()
        draws = sample_operator_integral_many(model, POLICY, 3_000, make_stream())
        for i in range(2):
            assert ks_two_sample(records.x_total[:, i], draws[:, i])[2]

    def test_dense_mode_records(self, make_stream):
        # Jordan-block records: pathwise, their law against the integral
        # sampler, and their mean against Q^{-1} E[Y(1)]
        model = _model_2d([[1.0, 1.0], [0.0, 1.0]])
        assert model._discounter.mode == "dense"
        records = operator_decompose_many(model, KthJump(), POLICY, 2_000,
                                          make_stream())
        assert records.passes().all()
        draws = sample_operator_integral_many(model, POLICY, 2_000, make_stream())
        for i in range(2):
            assert ks_two_sample(records.x_total[:, i], draws[:, i])[2]
        x = records.x_total
        se = x.std(axis=0) / np.sqrt(x.shape[0])
        assert np.all(np.abs(x.mean(axis=0) - model.mean_integral()) <= 3.0 * se)

    @pytest.mark.parametrize("n", [1, 256, 257])
    def test_chunk_edges(self, n):
        records = operator_decompose_many(_model_2d(_ROTATING_Q), KthJump(),
                                          POLICY, n, RngStream(31))
        assert records.tau.shape == (n,)
        assert records.x_total.shape == records.x_prime.shape == (n, 2)
        assert records.discount.shape == (n, 2, 2)
        assert records.passes().all()

    def test_full_chunks_do_not_depend_on_n(self):
        a = operator_decompose_many(_model_2d(_ROTATING_Q), KthJump(), POLICY,
                                    256, RngStream(32))
        b = operator_decompose_many(_model_2d(_ROTATING_Q), KthJump(), POLICY,
                                    768, RngStream(32))
        for field in ("tau", "x_tau", "discount", "x_prime", "x_total"):
            assert np.array_equal(getattr(a, field), getattr(b, field)[:256]), field
