"""System containers, matrix exponentials and H2 machinery.

The matrix exponential gets an independent oracle: eigendecomposition
through numpy for diagonalizable matrices, plus closed forms (nilpotent,
rotation) where the series terminates or is textbook.
"""

import math

import numpy as np
import pytest
from conftest import kron_lyapunov_solve, random_stable_matrix
from numpy.testing import assert_allclose, assert_array_equal

import msslab
from msslab import (
    DimensionMismatch,
    NonFinite,
    NonPositiveDt,
    OffGrid,
    RealizationRequired,
    SingularSystem,
    TooFewSamples,
)
from msslab.system import _lag_hankel


def eig_expm(a):
    """Independent oracle: expm through numpy's eigendecomposition."""
    vals, vecs = np.linalg.eig(a)
    return (vecs @ np.diag(np.exp(vals)) @ np.linalg.inv(vecs)).real


class TestMatrixExponential:
    def test_nilpotent_exact(self):
        # series terminates; scaling and squaring stays dyadic, so exact
        out = msslab.matrix_exponential(np.array([[0.0, 2.0], [0.0, 0.0]]))
        assert_array_equal(out, np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_zero_matrix(self):
        assert_array_equal(msslab.matrix_exponential(np.zeros((3, 3))), np.eye(3))

    def test_rotation_closed_form(self):
        w = 1.7
        a = np.array([[0.0, -w], [w, 0.0]])
        for t in (0.1, 1.0, 3.5):
            expected = np.array(
                [
                    [math.cos(w * t), -math.sin(w * t)],
                    [math.sin(w * t), math.cos(w * t)],
                ]
            )
            assert_allclose(msslab.matrix_exponential(a, t), expected, atol=1e-14)

    def test_against_eigendecomposition(self):
        rng = np.random.default_rng(101)
        for _ in range(50):
            n = int(rng.integers(1, 6))
            a = rng.standard_normal((n, n))
            expected = eig_expm(a)
            assert_allclose(
                msslab.matrix_exponential(a),
                expected,
                rtol=1e-11,
                atol=1e-11 * np.abs(expected).max(),
            )

    def test_semigroup_property(self):
        rng = np.random.default_rng(102)
        for _ in range(20):
            a = rng.standard_normal((4, 4))
            s, t = rng.uniform(0.1, 2.0, size=2)
            whole = msslab.matrix_exponential(a, s + t)
            split = msslab.matrix_exponential(a, s) @ msslab.matrix_exponential(a, t)
            assert_allclose(whole, split, rtol=1e-10, atol=1e-10)

    def test_grid_matches_pointwise(self):
        rng = np.random.default_rng(103)
        a = rng.standard_normal((3, 3))
        dt = 0.05
        eye = np.eye(3)
        sys = msslab.make_state_space(a, eye, eye)
        grid = msslab.impulse_response_grid(sys, dt, 9)
        assert grid.shape == (9, 3, 3)
        for k in range(9):
            assert_allclose(
                grid[k], msslab.matrix_exponential(a, k * dt), rtol=1e-12, atol=1e-12
            )

    def test_rejects_non_square(self):
        with pytest.raises(DimensionMismatch):
            msslab.matrix_exponential(np.zeros((2, 3)))


class TestConstructors:
    def test_state_space_dims(self):
        sys = msslab.make_state_space(
            [[-1.0, 0.0], [1.0, -2.0]], [[1.0], [0.0]], [[0.0, 1.0]]
        )
        assert sys.is_state_space
        assert (sys.n_state, sys.n_in, sys.n_out) == (2, 1, 1)

    def test_state_space_shape_mismatch(self):
        with pytest.raises(DimensionMismatch):
            msslab.make_state_space([[-1.0]], [[1.0], [1.0]], [[1.0]])
        with pytest.raises(DimensionMismatch):
            msslab.make_state_space([[-1.0]], [[1.0]], [[1.0, 0.0]])

    def test_state_space_rejects_nan(self):
        with pytest.raises(NonFinite):
            msslab.make_state_space([[np.nan]], [[1.0]], [[1.0]])

    def test_sampled_roundtrip(self):
        samples = np.exp(-np.arange(5) * 0.1).reshape(5, 1, 1)
        sys = msslab.make_sampled(0.1, samples)
        assert not sys.is_state_space
        assert (sys.n_in, sys.n_out) == (1, 1)
        assert_array_equal(sys.samples, samples)

    def test_sampled_needs_two_samples(self):
        with pytest.raises(TooFewSamples):
            msslab.make_sampled(0.1, np.ones((1, 1, 1)))

    def test_sampled_needs_positive_dt(self):
        with pytest.raises(NonPositiveDt):
            msslab.make_sampled(0.0, np.ones((3, 1, 1)))


class TestImpulseResponse:
    def test_grid_state_space(self):
        sys = msslab.make_state_space([[-1.0]], [[1.0]], [[1.0]])
        grid = msslab.impulse_response_grid(sys, 0.25, 5)
        expected = np.exp(-0.25 * np.arange(5)).reshape(5, 1, 1)
        assert_allclose(grid, expected, rtol=1e-12)

    def test_grid_sampled_stride(self):
        samples = np.arange(7.0).reshape(7, 1, 1)
        sys = msslab.make_sampled(0.5, samples)
        grid = msslab.impulse_response_grid(sys, 1.0, 4)
        assert_allclose(grid[:, 0, 0], [0.0, 2.0, 4.0, 6.0])
        with pytest.raises(OffGrid):
            msslab.impulse_response_grid(sys, 0.75, 3)
        with pytest.raises(OffGrid):
            msslab.impulse_response_grid(sys, 0.5, 20)


class TestLyapunovAndH2:
    def test_lyapunov_residual(self):
        rng = np.random.default_rng(104)
        for _ in range(30):
            n = int(rng.integers(1, 5))
            a = random_stable_matrix(rng, n)
            q = rng.standard_normal((n, n))
            q = q + q.T
            x = kron_lyapunov_solve(a, q)
            residual = a @ x + x @ a.T + q
            assert np.abs(residual).max() <= 1e-9 * max(1.0, np.abs(q).max())

    def test_lyapunov_singular(self):
        with pytest.raises(SingularSystem):
            kron_lyapunov_solve(np.zeros((1, 1)), np.eye(1))

    def test_h2_scalar_benchmark(self):
        # int_0^inf e^{-2t} dt = 1/2
        sys = msslab.make_state_space([[-1.0]], [[1.0]], [[1.0]])
        assert_allclose(msslab.h2_norm_squared(sys), 0.5, rtol=1e-14)

    def test_h2_against_quadrature(self):
        rng = np.random.default_rng(105)
        a = random_stable_matrix(rng, 3)
        b = rng.standard_normal((3, 2))
        c = rng.standard_normal((2, 3))
        sys = msslab.make_state_space(a, b, c)
        dt, count = 1e-4, 400_000
        grid = msslab.impulse_response_grid(sys, dt, count + 1)
        integrand = np.einsum("kab,kab->k", grid, grid)
        weights = np.full(count + 1, dt)
        weights[0] = weights[-1] = dt / 2
        assert_allclose(
            msslab.h2_norm_squared(sys), integrand @ weights, rtol=1e-6
        )

    def test_h2_infinite_when_not_hurwitz(self):
        sys = msslab.make_state_space([[0.2]], [[1.0]], [[1.0]])
        assert math.isinf(msslab.h2_norm_squared(sys))

    def test_h2_needs_realization(self):
        sys = msslab.make_sampled(0.1, np.ones((3, 1, 1)))
        with pytest.raises(RealizationRequired):
            msslab.h2_norm_squared(sys)

    def test_is_hurwitz_margin(self):
        assert msslab.is_hurwitz(np.array([[-1.0]]))
        assert not msslab.is_hurwitz(np.array([[0.0]]))
        assert not msslab.is_hurwitz(np.array([[1e-12]]))



class TestLagHankel:
    def test_rows_give_every_block_its_history_term(self):
        # kernels[l] maps a 3-vector to a 2-vector l steps later; for each
        # block start s the rows from (N - s) q_in on, times x_0 .. x_t,
        # give sum_{j<=t} kernels[s + m - j] x_j for m = 1..size (zero
        # past lag N)
        rng = np.random.default_rng(11)
        n, size = 9, 4
        kernels = rng.standard_normal((n + 1, 2, 3))
        x = rng.standard_normal((n, 3))
        hankel = _lag_hankel(kernels, size)
        assert hankel.shape == ((n + 1) * 3, size * 2)
        for s in range(n):
            for t in range(s + 1):
                rows = hankel[(n - s) * 3 : (n - s + t + 1) * 3]
                got = (x[: t + 1].reshape(-1) @ rows).reshape(size, 2)
                want = [
                    sum(
                        (kernels[s + m - j] @ x[j] for j in range(t + 1) if s + m - j <= n),
                        np.zeros(2),
                    )
                    for m in range(1, size + 1)
                ]
                assert_allclose(got, want, rtol=1e-13, atol=1e-13)
