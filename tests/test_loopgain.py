"""Loop gain operator: both backends, both interpretations, both
spectral-radius routes.

The dense-matrix route is the oracle for the power iteration, the
Lyapunov backend is the oracle for quadrature, and per-basis Lyapunov
solves are the oracle for the dense matrix.  The sign-iteration build of
that matrix is checked against a Kronecker-sum solve done here with
np.kron; scalar and diagonal cases additionally have closed forms,
computed inline.
"""

import dataclasses

import numpy as np
import pytest
from conftest import kron_lyapunov_solve, random_loop, random_psd
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from numpy.testing import assert_allclose, assert_array_equal

import msslab
from msslab import (
    BadQuadrature,
    DimensionMismatch,
    LyapunovBackend,
    NonFinite,
    NotHurwitz,
    QuadratureBackend,
    RealizationRequired,
    SingularKroneckerSum,
    StratonovichNeedsRealization,
)

INTERPRETATIONS = ("ito", "stratonovich")


def scalar_block(a=1.0):
    return msslab.make_state_space([[-a]], [[1.0]], [[1.0]])


def drift(sys, gamma, interpretation):
    """Drift of the equivalent Ito block, from the conversion formula."""
    if interpretation == "ito":
        return sys.a
    return sys.a + sys.b @ (0.5 * (sys.c @ sys.b) * gamma) @ sys.c


def kron_operator(a, b, c):
    """S = (C (x) C) (-(I (x) A + A (x) I))^{-1} (B (x) B), dense."""
    eye = np.eye(a.shape[0])
    inner = np.linalg.solve(-(np.kron(eye, a) + np.kron(a, eye)), np.kron(b, b))
    return np.kron(c, c) @ inner


class TestStratonovichConversion:
    def test_scalar_correction_gain(self):
        gain = msslab.stratonovich_correction_gain(scalar_block(), [[0.8]])
        assert_allclose(gain, [[0.4]])

    def test_correction_vanishes_when_cb_zero(self):
        sys = msslab.make_state_space(
            [[-1.0, 0.0], [1.0, -1.0]], [[1.0], [0.0]], [[0.0, 1.0]]
        )
        assert_array_equal(
            msslab.stratonovich_correction_gain(sys, [[2.0]]), [[0.0]]
        )
        equivalent = msslab.equivalent_ito_system(sys, [[2.0]])
        assert_array_equal(equivalent.a, sys.a)

    def test_scalar_equivalent_block(self):
        equivalent = msslab.equivalent_ito_system(scalar_block(), [[0.5]])
        assert_allclose(equivalent.a, [[-0.75]])
        assert_array_equal(equivalent.b, [[1.0]])
        assert_array_equal(equivalent.c, [[1.0]])

    def test_sampled_kernel_uses_first_sample(self):
        samples = np.array([[[2.0]], [[1.0]], [[0.5]]])
        sys = msslab.make_sampled(0.1, samples)
        assert_allclose(
            msslab.stratonovich_correction_gain(sys, [[1.0]]), [[1.0]]
        )

    def test_sampled_conversion_needs_realization(self):
        sys = msslab.make_sampled(0.1, np.ones((3, 1, 1)))
        with pytest.raises(StratonovichNeedsRealization):
            msslab.equivalent_ito_system(sys, [[1.0]])


class TestApply:
    def test_scalar_closed_form(self):
        # L(X) = gamma * X * int h^2 = 2 * 3 * 0.5
        handle = msslab.make_lgo(scalar_block(), [[2.0]], "ito")
        assert_allclose(msslab.apply_lgo(handle, [[3.0]]), [[3.0]], rtol=1e-13)

    def test_quadrature_matches_lyapunov_scalar(self):
        lyap = msslab.make_lgo(scalar_block(), [[1.5]], "ito")
        quad = msslab.make_lgo(
            scalar_block(), [[1.5]], "ito", QuadratureBackend()
        )
        x = [[2.0]]
        assert_allclose(
            msslab.apply_lgo(quad, x),
            msslab.apply_lgo(lyap, x),
            rtol=1e-6,
        )

    def test_quadrature_matches_lyapunov_mimo(self):
        rng = np.random.default_rng(202)
        for _ in range(5):
            sys, gamma = random_loop(rng)
            x = random_psd(rng, sys.n_in)
            lyap_handle = msslab.make_lgo(sys, gamma, "ito")
            quad_handle = msslab.make_lgo(sys, gamma, "ito", QuadratureBackend())
            # a triangular operand is not symmetric: it pins the vec layout
            for operand in (x, np.triu(x)):
                lyap = msslab.apply_lgo(lyap_handle, operand)
                quad = msslab.apply_lgo(quad_handle, operand)
                scale = max(1e-30, np.abs(lyap).max())
                assert np.abs(quad - lyap).max() <= 1e-5 * scale

    def test_explicit_quadrature_grid(self):
        backend = QuadratureBackend(horizon=25.0, dt=5e-4)
        handle = msslab.make_lgo(scalar_block(), [[1.0]], "ito", backend)
        assert handle.backend.horizon == pytest.approx(25.0)
        assert handle.backend.dt == pytest.approx(5e-4)
        assert_allclose(msslab.apply_lgo(handle, [[1.0]]), [[0.5]], rtol=1e-7)

    def test_operand_validation(self):
        handle = msslab.make_lgo(scalar_block(), [[1.0]], "ito")
        with pytest.raises(DimensionMismatch):
            msslab.apply_lgo(handle, np.eye(2))
        with pytest.raises(NonFinite):
            msslab.apply_lgo(handle, [[np.nan]])

    def test_linearity(self):
        rng = np.random.default_rng(203)
        sys, gamma = random_loop(rng)
        handle = msslab.make_lgo(sys, gamma, "ito")
        p = sys.n_in
        x, y = random_psd(rng, p), random_psd(rng, p)
        lhs = msslab.apply_lgo(handle, 2.0 * x + 3.0 * y)
        rhs = 2.0 * msslab.apply_lgo(handle, x) + 3.0 * msslab.apply_lgo(handle, y)
        assert_allclose(lhs, rhs, atol=1e-12 * max(1.0, np.abs(rhs).max()))

    def test_truncation_monotone_in_horizon(self):
        # longer quadrature horizon adds a PSD tail contribution
        rng = np.random.default_rng(204)
        sys, gamma = random_loop(rng)
        x = random_psd(rng, sys.n_in)
        previous = None
        for horizon in (1.0, 2.0, 5.0, 15.0):
            backend = QuadratureBackend(horizon=horizon, dt=horizon / 4000)
            out = msslab.apply_lgo(msslab.make_lgo(sys, gamma, "ito", backend), x)
            if previous is not None:
                diff = out - previous
                assert np.linalg.eigvalsh(diff).min() >= -1e-10 * max(
                    1.0, np.abs(out).max()
                )
            previous = out


class TestSpectralRadius:
    def test_scalar_ito_closed_form(self):
        handle = msslab.make_lgo(scalar_block(), [[1.2]], "ito")
        result = msslab.spectral_radius_power(handle)
        assert result.converged
        assert_allclose(result.rho, 0.6, atol=1e-12)

    def test_scalar_stratonovich_closed_form(self):
        # rho_S = s2 / (2 - s2) for the unit scalar benchmark
        handle = msslab.make_lgo(scalar_block(), [[0.5]], "stratonovich")
        result = msslab.spectral_radius_power(handle)
        assert_allclose(result.rho, 0.5 / 1.5, atol=1e-12)

    def test_zero_gain(self):
        handle = msslab.make_lgo(scalar_block(), [[0.0]], "ito")
        result = msslab.spectral_radius_power(handle)
        assert result.converged
        assert result.rho == 0.0

    def test_power_matches_dense(self):
        rng = np.random.default_rng(205)
        for _ in range(20):
            sys, gamma = random_loop(rng)
            handle = msslab.make_lgo(sys, gamma, "ito")
            rho_power = msslab.spectral_radius_power(handle).rho
            dense = msslab.lgo_matrix_kronecker(sys, gamma, "ito")
            rho_dense = msslab.spectral_radius_dense(dense)
            assert abs(rho_power - rho_dense) <= 1e-8 * max(1.0, rho_dense)

    def test_dense_matrix_matches_basis_application(self):
        # column i + j p is gamma o C X_ij C^T, X_ij solving the Lyapunov
        # equation driven by B E_ij B^T
        rng = np.random.default_rng(206)
        sys, gamma = random_loop(rng)
        p = sys.n_in
        dense = msslab.lgo_matrix_kronecker(sys, gamma, "ito")
        from_basis = np.empty((p * p, p * p))
        for j in range(p):
            for i in range(p):
                basis = np.zeros((p, p))
                basis[i, j] = 1.0
                x = kron_lyapunov_solve(sys.a, sys.b @ basis @ sys.b.T)
                column = gamma * (sys.c @ x @ sys.c.T)
                from_basis[:, i + j * p] = column.flatten(order="F")
        assert_allclose(dense, from_basis, atol=1e-11 * max(1.0, np.abs(dense).max()))

    @settings(max_examples=60, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.floats(0.0, 4.0, exclude_min=True),
    )
    def test_ito_rho_linear_in_gain_scale(self, seed, scale):
        # dense eigenvalues, not power iteration: the property is exact,
        # so the tolerance covers rounding only (1e-300 absorbs subnormals)
        sys, gamma = random_loop(np.random.default_rng(seed))
        base = msslab.spectral_radius_dense(msslab.lgo_matrix_kronecker(sys, gamma))
        scaled = msslab.spectral_radius_dense(
            msslab.lgo_matrix_kronecker(sys, scale * gamma)
        )
        want = scale * base
        assert abs(scaled - want) <= 1e-10 * want + 1e-300

    def test_perron_matrix_is_fixed_direction(self):
        rng = np.random.default_rng(207)
        sys, gamma = random_loop(rng)
        handle = msslab.make_lgo(sys, gamma, "ito")
        result = msslab.spectral_radius_power(handle)
        image = msslab.apply_lgo(handle, result.eigen_matrix)
        assert_allclose(
            image,
            result.rho * result.eigen_matrix,
            atol=1e-7 * max(1.0, result.rho),
        )
        assert np.linalg.eigvalsh(result.eigen_matrix).min() >= -1e-10

    def test_max_iter_reported(self):
        rng = np.random.default_rng(209)
        sys, gamma = random_loop(rng, n_max=3, p_max=3)
        while sys.n_in < 2:
            sys, gamma = random_loop(rng, n_max=3, p_max=3)
        handle = msslab.make_lgo(sys, gamma, "ito")
        result = msslab.spectral_radius_power(handle, tol=0.0, max_iter=3)
        assert not result.converged
        assert result.iterations == 3

    def test_non_finite_iterate_refused(self):
        handle = msslab.make_lgo(scalar_block(), [[1e10]], "ito")
        huge = dataclasses.replace(handle, matrix=handle.matrix * 1e300)
        with pytest.raises(NonFinite, match="loop gain operator"):
            msslab.spectral_radius_power(huge)

    def test_dense_input_validation(self):
        with pytest.raises(DimensionMismatch):
            msslab.spectral_radius_dense(np.zeros((2, 3)))
        with pytest.raises(NonFinite):
            msslab.spectral_radius_dense(np.array([[np.inf]]))


class TestBackendErrors:
    def test_sampled_needs_quadrature(self):
        sys = msslab.make_sampled(0.1, np.ones((3, 1, 1)))
        with pytest.raises(RealizationRequired):
            msslab.make_lgo(sys, [[1.0]], "ito")

    def test_sampled_stratonovich_rejected_both_backends(self):
        sys = msslab.make_sampled(0.1, np.ones((3, 1, 1)))
        for backend in (None, QuadratureBackend(), LyapunovBackend()):
            with pytest.raises(StratonovichNeedsRealization):
                msslab.make_lgo(sys, [[1.0]], "stratonovich", backend)

    def test_lyapunov_needs_hurwitz(self):
        sys = msslab.make_state_space([[0.5]], [[1.0]], [[1.0]])
        with pytest.raises(NotHurwitz):
            msslab.apply_lgo(msslab.make_lgo(sys, [[1.0]], "ito"), [[1.0]])

    def test_quadrature_needs_two_nodes(self):
        unstable = msslab.make_state_space([[0.5]], [[1.0]], [[1.0]])
        # too few nodes, a horizon with no node count, and more nodes
        # than an array can hold
        for sys, backend in (
            (scalar_block(), QuadratureBackend(horizon=1.0, dt=2.0)),
            (unstable, QuadratureBackend(horizon=np.inf)),
            (unstable, QuadratureBackend(horizon=np.nan)),
            (unstable, QuadratureBackend(dt=1e-300)),
        ):
            with pytest.raises(BadQuadrature):
                msslab.make_lgo(sys, [[1.0]], "ito", backend)

    def test_unknown_interpretation(self):
        with pytest.raises(ValueError):
            msslab.make_lgo(scalar_block(), [[1.0]], "milstein")

    def test_dense_matrix_guards(self):
        sys = msslab.make_sampled(0.1, np.ones((3, 1, 1)))
        with pytest.raises(RealizationRequired):
            msslab.lgo_matrix_kronecker(sys, [[1.0]], "ito")
        unstable = msslab.make_state_space([[0.5]], [[1.0]], [[1.0]])
        with pytest.raises(NotHurwitz):
            msslab.lgo_matrix_kronecker(unstable, [[1.0]], "ito")


class TestSignLyapunov:
    """Sign-iteration build of S on the cases that stress it."""

    @pytest.mark.parametrize("interpretation", INTERPRETATIONS)
    def test_jordan_block(self, interpretation):
        # A = -I + 3N is far from normal and |S| is about 1e20.  B drives
        # odd states and C reads even ones, so C B = 0 exactly and the
        # Stratonovich conversion must leave the block as it is: any
        # correction would push this block's eigenvalues past zero.
        n = 24
        rng = np.random.default_rng(210)
        a = -np.eye(n) + 3.0 * np.eye(n, k=1)
        b = np.zeros((n, 2))
        c = np.zeros((2, n))
        b[1::2] = rng.standard_normal((n // 2, 2))
        c[:, ::2] = rng.standard_normal((2, n // 2))
        sys = msslab.make_state_space(a, b, c)
        gamma = random_psd(rng, 2)
        handle = msslab.make_lgo(sys, gamma, interpretation)
        want = kron_operator(drift(sys, gamma, interpretation), b, c)
        scale = np.abs(want).max()
        assert scale > 1e18
        assert np.abs(handle.matrix - want).max() <= 1e-12 * scale

    @pytest.mark.parametrize("interpretation", INTERPRETATIONS)
    def test_eigenvalue_spread(self, interpretation, monkeypatch):
        # diag(-1e-6, -1, -2): S = sum_ij (C_i B_i)(C_j B_j) / (-l_i - l_j),
        # for both interpretations since C B = 0.  The scaled iteration
        # takes 7 steps here and the unscaled one 25, so a cap of 10 steps
        # holds only with the determinant scaling.
        lam = np.array([-1e-6, -1.0, -2.0])
        b = np.ones((3, 1))
        c = np.array([[1.0, -2.0, 1.0]])
        sys = msslab.make_state_space(np.diag(lam), b, c)
        gamma = [[0.7]]
        monkeypatch.setattr(msslab.system, "LYAPUNOV_MAX_ITER", 10)
        handle = msslab.make_lgo(sys, gamma, interpretation)
        cb = c[0] * b[:, 0]
        closed = np.sum(np.outer(cb, cb) / -(lam[:, None] + lam[None, :]))
        assert abs(handle.matrix[0, 0] - closed) <= 1e-12 * closed
        want = kron_operator(drift(sys, gamma, interpretation), b, c)
        assert abs(handle.matrix[0, 0] - want[0, 0]) <= 1e-12 * closed

    def test_capped_iteration_refused(self, monkeypatch):
        # a solve cut short fails the residual check: refused, never a
        # wrong S or H2 norm
        sys = msslab.make_state_space(
            np.diag([-1e-6, -1.0, -2.0]), np.ones((3, 1)), [[1.0, -2.0, 1.0]]
        )
        monkeypatch.setattr(msslab.system, "LYAPUNOV_MAX_ITER", 1)
        with pytest.raises(SingularKroneckerSum, match="residual"):
            msslab.make_lgo(sys, [[1.0]], "ito")
        with pytest.raises(SingularKroneckerSum, match="residual"):
            msslab.h2_norm_squared(sys)

    @settings(max_examples=80, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(INTERPRETATIONS))
    def test_matches_kronecker_solve(self, seed, interpretation):
        rng = np.random.default_rng(seed)
        sys, gamma = random_loop(rng, n_max=8, p_max=3)
        a = drift(sys, gamma, interpretation)
        assume(msslab.is_hurwitz(a))
        handle = msslab.make_lgo(sys, gamma, interpretation)
        want = kron_operator(a, sys.b, sys.c)
        assert np.abs(handle.matrix - want).max() <= 1e-10 * np.abs(want).max()
        # H2 read from S, from the single-right-hand-side solve, and dense
        h2 = msslab.h2_norm_squared(handle.block)
        x = kron_lyapunov_solve(a, sys.b @ sys.b.T)
        h2_dense = np.trace(sys.c @ x @ sys.c.T)
        assert abs(handle.h2_squared - h2) <= 1e-10 * h2
        assert abs(h2 - h2_dense) <= 1e-10 * h2_dense
        # L maps PSD to PSD
        out = msslab.apply_lgo(handle, random_psd(rng, sys.n_in))
        floor = -1e-10 * max(1.0, np.abs(out).max())
        assert np.linalg.eigvalsh(out).min() >= floor


class TestPsdPreservation:
    def test_random_trials(self):
        rng = np.random.default_rng(208)
        for _ in range(25):
            sys, gamma = random_loop(rng)
            handle = msslab.make_lgo(sys, gamma, "ito")
            x = random_psd(rng, sys.n_in)
            out = msslab.apply_lgo(handle, x)
            floor = -1e-10 * max(1.0, np.abs(out).max())
            assert np.linalg.eigvalsh(out).min() >= floor
            assert_allclose(out, out.T, atol=1e-12 * max(1.0, np.abs(out).max()))
