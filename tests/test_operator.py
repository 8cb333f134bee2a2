"""The matrix-discounted integral, its spectral gate, and the stopped
operator factorization."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from sdlevy.decomposition import (FirstJump, FirstJumpIn, FixedTime,
                                  IndependentRandomTime, KthJump, decompose_many)
from sdlevy.discount import (TruncationPolicy, _integral_batch, _poisson_jumps,
                             sample_discounted_integral_many)
from sdlevy.errors import SpectralGateError
from sdlevy.levy import ExponentialJumps, JumpSet, LevyModel
from sdlevy.operator import (IndependentCoordinates, OperatorModel,
                             SharedJumpDirection, matrix_exp, operator_decompose_many,
                             sample_operator_integral_many)
from sdlevy.rng import RngStream
from sdlevy.stats import ks_two_sample

POLICY = TruncationPolicy()


def _coord(alpha=2.0, lam=1.0, drift=0.0):
    return LevyModel(jump_rate=alpha, jump_law=ExponentialJumps(lam), drift=drift)


def _model_2d(q=None):
    q = np.diag([1.0, 2.0]) if q is None else np.asarray(q, float)
    return OperatorModel(q, IndependentCoordinates((_coord(2.0, 1.0),
                                                    _coord(1.0, 2.0, drift=0.3))))


class TestMatrixExp:
    def test_zero(self):
        np.testing.assert_array_equal(matrix_exp(np.zeros((3, 3))), np.eye(3))

    def test_diagonal(self):
        m = matrix_exp(np.diag([1.0, -2.0]))
        np.testing.assert_allclose(np.diagonal(m), [np.e, np.exp(-2.0)], rtol=1e-14)

    def test_inverse_pair(self):
        rng = np.random.default_rng(7)
        m = rng.normal(size=(4, 4))
        np.testing.assert_allclose(matrix_exp(m) @ matrix_exp(-m), np.eye(4),
                                   atol=1e-8)

    def test_validation(self):
        with pytest.raises(ValueError):
            matrix_exp(np.ones((2, 3)))
        with pytest.raises(ValueError):
            matrix_exp(np.array([[np.nan, 0.0], [0.0, 1.0]]))

    @given(seed=st.integers(0, 2**31), s=st.floats(0.0, 3.0), t=st.floats(0.0, 3.0))
    @settings(max_examples=50, deadline=None)
    def test_semigroup(self, seed, s, t):
        m = np.random.default_rng(seed).normal(size=(3, 3))
        lhs = matrix_exp((s + t) * m)
        rhs = matrix_exp(s * m) @ matrix_exp(t * m)
        np.testing.assert_allclose(lhs, rhs, rtol=1e-8, atol=1e-10)


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
            OperatorModel(np.eye(3), IndependentCoordinates((_coord(), _coord())))

    def test_gaussian_driver_rejected(self):
        with pytest.raises(ValueError):
            IndependentCoordinates((LevyModel(gauss_var=1.0),))


class TestScalarConsistency:
    def test_d1_bit_identical_to_scalar(self):
        model = LevyModel(jump_rate=2.0, jump_law=ExponentialJumps(1.0), drift=0.5)
        op = OperatorModel(np.array([[1.0]]), IndependentCoordinates((model,)))
        x_op = sample_operator_integral_many(op, POLICY, 2000, RngStream(99))
        x_sc = sample_discounted_integral_many(model, POLICY, 2000, RngStream(99))
        assert x_op.shape == (2000, 1)
        assert np.array_equal(x_op[:, 0], x_sc)  # exact, same draws and float ops

    @pytest.mark.parametrize("rule", [
        FirstJump(), KthJump(170), FixedTime(0.7),
        IndependentRandomTime(ExponentialJumps(1.0)),
    ], ids=["first_jump", "kth_jump_170", "fixed_time", "independent_time"])
    def test_d1_decomposition_matches_scalar(self, rule):
        # Q = [[1]] is the scalar case: the shared batch engine must draw the
        # same stopping times and paths, record for record. At rate 2 a
        # block of length T holds about 80 jumps, so KthJump(170) always
        # takes more than two blocks.
        model = LevyModel(jump_rate=2.0, jump_law=ExponentialJumps(1.5), drift=0.3)
        op = OperatorModel(np.array([[1.0]]), IndependentCoordinates((model,)))
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
        op = OperatorModel(c * np.eye(2),
                           IndependentCoordinates((_coord(alpha, lam),
                                                   _coord(alpha, lam))))
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
                                   model.driver.mean_unit_increment(), rtol=1e-12)
        draws = sample_operator_integral_many(model, POLICY, 20_000, make_stream())
        se = draws.std(axis=0) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - model.mean_integral()) <= 3.0 * se)

    def test_shared_direction_driver(self, make_stream):
        driver = SharedJumpDirection(_coord(2.0, 1.0), (1.0, -0.5))
        model = OperatorModel(np.diag([1.0, 2.0]), driver)
        draws = sample_operator_integral_many(model, POLICY, 20_000, make_stream())
        se = draws.std(axis=0) / np.sqrt(draws.shape[0])
        assert np.all(np.abs(draws.mean(axis=0) - model.mean_integral()) <= 4.0 * se)


class TestOperatorDecomposition:
    @pytest.mark.parametrize("rule", [
        FixedTime(0.7), FirstJump(), KthJump(3),
        IndependentRandomTime(ExponentialJumps(1.0)),
    ])
    def test_residuals(self, rule, make_stream):
        records = operator_decompose_many(_model_2d(), rule, POLICY, 200,
                                          make_stream())
        assert records.passes(1e-9).all()

    def test_non_diagonal_residuals(self, make_stream):
        model = _model_2d(np.array([[2.0, 1.0], [0.5, 3.0]]))
        records = operator_decompose_many(model, FirstJump(), POLICY, 200,
                                          make_stream())
        assert records.passes(1e-9).all()

    def test_fixed_time_zero(self, make_stream):
        r = operator_decompose_many(_model_2d(), FixedTime(0.0), POLICY, 1, make_stream())
        np.testing.assert_array_equal(r.x_tau, np.zeros((1, 2)))
        np.testing.assert_allclose(r.discount, np.eye(2)[None])
        np.testing.assert_allclose(r.x_prime, r.x_total)

    def test_marginal_matches_integral(self, make_stream):
        model = _model_2d()
        records = operator_decompose_many(model, FirstJump(), POLICY, 5_000,
                                          make_stream())
        x_total = records.x_total
        draws = sample_operator_integral_many(model, POLICY, 5_000, make_stream())
        assert ks_two_sample(x_total[:, 0], draws[:, 0])[2]
        assert ks_two_sample(x_total[:, 1], draws[:, 1])[2]

    def test_unsupported_rule(self, make_stream):
        rule = FirstJumpIn(JumpSet("ge", 1.0))
        with pytest.raises(ValueError):
            operator_decompose_many(_model_2d(), rule, POLICY, 1, make_stream())


# The complex-eigenvalue Q of the benchmark's eigen-mode config.
_ROTATING_Q = [[1.0, -0.5], [0.5, 1.5]]


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
            ref[i] += matrix_exp(-t * np.asarray(q)) @ u * s
        scale = np.linalg.norm(ref, axis=1)
        assert np.all(np.linalg.norm(got - ref, axis=1) <= 1e-12 * scale)

    def test_diag_is_the_scalar_batch(self):
        model = _model_2d()
        disc = model._discounter
        for j, (coord, u) in enumerate(model.driver.sources()):
            driftless = LevyModel(jump_rate=coord.jump_rate, jump_law=coord.jump_law)
            jumps = _poisson_jumps(driftless, POLICY.horizon, 500, RngStream(5, j))
            got = disc.ragged_sum(*jumps, u, 500)
            ref = _integral_batch(driftless, POLICY.horizon, 500, RngStream(5, j),
                                  rate=disc.diag[j])
            assert np.array_equal(got[:, j], ref)
            assert not np.any(got[:, 1 - j])


class TestOperatorRecordsEngine:
    def test_shared_direction_records(self, make_stream):
        driver = SharedJumpDirection(_coord(2.0, 1.0, drift=0.2), (1.0, -0.5))
        model = OperatorModel(np.array([[2.0, 1.0], [0.5, 3.0]]), driver)
        records = operator_decompose_many(model, FirstJump(), POLICY, 3_000,
                                          make_stream())
        assert records.passes(1e-9).all()
        draws = sample_operator_integral_many(model, POLICY, 3_000, make_stream())
        for i in range(2):
            assert ks_two_sample(records.x_total[:, i], draws[:, i])[2]

    def test_complex_eigenvalue_records(self, make_stream):
        model = _model_2d(_ROTATING_Q)
        assert np.iscomplexobj(model._discounter.w)
        records = operator_decompose_many(model, KthJump(2), POLICY, 3_000,
                                          make_stream())
        assert records.passes(1e-9).all()
        draws = sample_operator_integral_many(model, POLICY, 3_000, make_stream())
        for i in range(2):
            assert ks_two_sample(records.x_total[:, i], draws[:, i])[2]

    def test_dense_mode_records(self, make_stream):
        model = _model_2d([[1.0, 1.0], [0.0, 1.0]])  # a Jordan block
        assert model._discounter.mode == "dense"
        records = operator_decompose_many(model, FirstJump(), POLICY, 5,
                                          make_stream())
        assert records.passes(1e-9).all()

    @pytest.mark.parametrize("n", [1, 256, 257])
    def test_chunk_edges(self, n):
        records = operator_decompose_many(_model_2d(_ROTATING_Q), FirstJump(),
                                          POLICY, n, RngStream(31))
        assert records.tau.shape == (n,)
        assert records.x_total.shape == records.x_prime.shape == (n, 2)
        assert records.discount.shape == (n, 2, 2)
        assert records.passes(1e-9).all()

    def test_full_chunks_do_not_depend_on_n(self):
        a = operator_decompose_many(_model_2d(_ROTATING_Q), FirstJump(), POLICY,
                                    256, RngStream(32))
        b = operator_decompose_many(_model_2d(_ROTATING_Q), FirstJump(), POLICY,
                                    768, RngStream(32))
        for field in ("tau", "x_tau", "discount", "x_prime", "x_total"):
            assert np.array_equal(getattr(a, field), getattr(b, field)[:256]), field
