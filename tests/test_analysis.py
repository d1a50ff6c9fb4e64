"""Verdicts, steady states and the covariance recursion.

Scalar benchmarks have closed forms.  The open-loop recursion has an
exact geometric-sum oracle, asserted tightly before comparing against
the continuum formula, so discretization error and implementation error
cannot mask each other.
"""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from conftest import random_loop, random_psd, random_stable_matrix
from numpy.testing import assert_allclose, assert_array_equal

import msslab
from msslab import (
    BadGrid,
    DimensionMismatch,
    NonFinite,
    SingularFixedPoint,
)


def scalar_block():
    return msslab.make_state_space([[-1.0]], [[1.0]], [[1.0]])


def noise(s2, w=1.0):
    return msslab.validate_noise([[s2]], [[w]])


class TestVerdicts:
    def test_ito_benchmark(self):
        v = msslab.analyze(scalar_block(), noise(1.0), "ito")
        assert v.mss
        assert v.h2_finite
        assert_allclose(v.h2_squared, 0.5, rtol=1e-14)
        assert_allclose(v.rho, 0.5, atol=1e-12)
        assert v.flags == ()
        assert_allclose(v.steady_state.u_bar, [[2.0]], rtol=1e-12)
        assert_allclose(v.steady_state.r_bar, [[1.0]], rtol=1e-12)
        assert_allclose(v.steady_state.y_bar, [[1.0]], rtol=1e-12)

    def test_stratonovich_benchmark(self):
        v = msslab.analyze(scalar_block(), noise(0.5), "stratonovich")
        assert v.mss
        # equivalent block has A_S = -0.75, so |H|_2^2 = 1/1.5
        assert_allclose(v.h2_squared, 2.0 / 3.0, rtol=1e-12)
        assert_allclose(v.rho, 1.0 / 3.0, atol=1e-12)
        assert_allclose(v.steady_state.u_bar, [[1.5]], rtol=1e-12)
        assert_allclose(v.steady_state.y_bar, [[1.0]], rtol=1e-12)
        assert_allclose(v.steady_state.r_bar, [[0.5]], rtol=1e-12)

    def test_stratonovich_boundary_not_mss(self):
        # s2 = 1: rho = 1 exactly; strict inequality decides
        v = msslab.analyze(scalar_block(), noise(1.0), "stratonovich")
        assert v.rho == 1.0
        assert v.h2_finite
        assert not v.mss
        assert v.steady_state is None

    def test_stratonovich_destabilized_drift(self):
        # s2 = 3 pushes A_S to +0.5: infinite H2 decides
        v = msslab.analyze(scalar_block(), noise(3.0), "stratonovich")
        assert not v.h2_finite
        assert math.isinf(v.h2_squared)
        assert not v.mss
        assert "rho_truncated_horizon" in v.flags

    def test_validated_noise_is_not_factored_again(self, monkeypatch):
        # validate_noise has factored both covariances; no verdict route
        # (Lyapunov, non-Hurwitz quadrature, sampled) factors them again
        sampled = msslab.make_sampled(0.01, np.exp(-0.01 * np.arange(401)))
        loops = [
            (scalar_block(), noise(0.5), "ito"),
            (scalar_block(), noise(0.5), "stratonovich"),
            (scalar_block(), noise(3.0), "stratonovich"),
            (sampled, noise(0.5), "ito"),
        ]
        factor, calls = msslab.noise._psd_factor, []

        def counted(cov, name):
            calls.append(name)
            return factor(cov, name)

        monkeypatch.setattr(msslab.noise, "_psd_factor", counted)
        monkeypatch.setattr(msslab.loopgain, "_psd_factor", counted)
        for sys, spec, interpretation in loops:
            msslab.analyze(sys, spec, interpretation)
        assert calls == []

    def test_ito_above_threshold(self):
        v = msslab.analyze(scalar_block(), noise(2.5), "ito")
        assert v.h2_finite
        assert_allclose(v.rho, 1.25, atol=1e-12)
        assert not v.mss
        assert v.steady_state is None

    def test_steady_state_fixed_point_mimo(self):
        rng = np.random.default_rng(301)
        for _ in range(10):
            sys, gamma = random_loop(rng)
            p = sys.n_in
            gamma = 0.2 * gamma
            spec = msslab.validate_noise(gamma, random_psd(rng, p) + 0.1 * np.eye(p))
            v = msslab.analyze(sys, spec, "ito")
            if not v.mss:
                continue
            handle = msslab.make_lgo(sys, gamma, "ito")
            ss = v.steady_state
            # fixed point: U = W + gamma o sandwich(U)
            reconstructed = spec.w_cov + msslab.apply_lgo(handle, ss.u_bar)
            scale = max(1.0, np.abs(ss.u_bar).max())
            assert np.abs(reconstructed - ss.u_bar).max() <= 1e-9 * scale
            assert_allclose(
                ss.y_bar,
                msslab.covariance_sandwich(handle, ss.u_bar),
                atol=1e-10 * scale,
            )
            assert_allclose(ss.r_bar, gamma * ss.y_bar, atol=1e-12 * scale)

    @pytest.mark.parametrize("interpretation", ["ito", "stratonovich"])
    def test_large_state_loop_gets_steady_state(self, interpretation):
        # 22 states, 4 channels: past any per-state cap on the operator
        # matrix, which is checked against a Kronecker build done here
        rng = np.random.default_rng(303)
        n, p = 22, 4
        a = random_stable_matrix(rng, n)
        b = rng.standard_normal((n, p)) / np.sqrt(n)
        c = rng.standard_normal((p, n)) / np.sqrt(n)
        gamma = 20.0 * random_psd(rng, p)
        w_cov = random_psd(rng, p) + 0.1 * np.eye(p)
        v = msslab.analyze(
            msslab.make_state_space(a, b, c),
            msslab.validate_noise(gamma, w_cov),
            interpretation,
        )
        if interpretation == "stratonovich":
            a = a + b @ (0.5 * (c @ b) * gamma) @ c
        eye = np.eye(n)
        inner = np.linalg.solve(-(np.kron(eye, a) + np.kron(a, eye)), np.kron(b, b))
        k = gamma.flatten(order="F")[:, None] * (np.kron(c, c) @ inner)
        rho = float(np.abs(np.linalg.eigvals(k)).max())
        assert v.mss
        assert abs(v.rho - rho) <= 1e-9 * rho
        u = v.steady_state.u_bar.flatten(order="F")
        residual = np.linalg.norm(u - w_cov.flatten(order="F") - k @ u)
        assert residual <= 1e-9 * np.linalg.norm(u)

    def test_256_state_loop_against_modal_closed_form(self):
        # A = Q diag(l) Q^T: with B~ = Q^T B and C~ = C Q the operator is
        # S[a + b p, c + d p] = sum_ij C~_ai B~_ic C~_bj B~_jd / -(l_i + l_j)
        rng = np.random.default_rng(304)
        n, p = 256, 2
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        lam = -np.linspace(0.5, 3.0, n)
        b = rng.standard_normal((n, p)) / np.sqrt(n)
        c = rng.standard_normal((p, n)) / np.sqrt(n)
        gamma = 60.0 * random_psd(rng, p)
        w_cov = random_psd(rng, p) + 0.1 * np.eye(p)
        v = msslab.analyze(
            msslab.make_state_space(q @ np.diag(lam) @ q.T, b, c),
            msslab.validate_noise(gamma, w_cov),
            "ito",
        )
        bt, ct = q.T @ b, c @ q
        inv_sum = 1.0 / -(lam[:, None] + lam[None, :])
        s4 = np.einsum("ai,ic,bj,jd,ij->badc", ct, bt, ct, bt, inv_sum)
        s = s4.reshape(p * p, p * p)
        k = gamma.flatten(order="F")[:, None] * s
        rho = float(np.abs(np.linalg.eigvals(k)).max())
        h2 = float(np.sum((ct.T @ ct) * (bt @ bt.T) * inv_sum))
        assert v.mss
        assert abs(v.rho - rho) <= 1e-10 * rho
        assert abs(v.h2_squared - h2) <= 1e-10 * h2
        u = v.steady_state.u_bar.flatten(order="F")
        residual = np.linalg.norm(u - w_cov.flatten(order="F") - k @ u)
        assert residual <= 1e-9 * np.linalg.norm(u)

    @pytest.mark.parametrize("drift", [[-1.0], [-1.0, -2.0]], ids=["scalar", "diag2"])
    def test_huge_gain_is_not_mss(self, drift):
        # the iterate's sum of squares overflows at gains near 1e155; the
        # power iteration must still report rho = gain / 2, not 0
        p = len(drift)
        sys = msslab.make_state_space(np.diag(drift), np.eye(p), np.eye(p))
        spec = msslab.validate_noise(1e200 * np.eye(p), np.eye(p))
        v = msslab.analyze(sys, spec, "ito")
        assert not v.mss
        assert v.spectral.converged
        assert_allclose(v.rho, 5e199, rtol=1e-12)

    @pytest.mark.parametrize("gain", [1e-160, 1e-200, 1e-300])
    def test_tiny_gain_rho(self, gain):
        # the iterate's sum of squares underflows below gains near 1e-146;
        # the power iteration must still report rho = gain / 2, not 0
        v = msslab.analyze(scalar_block(), noise(gain), "ito")
        assert v.mss
        assert v.spectral.converged
        assert_allclose(v.rho, gain / 2, rtol=1e-12)

    def test_worst_case_cov_exposes_perron_matrix(self):
        v = msslab.analyze(scalar_block(), noise(1.0), "ito")
        assert_array_equal(v.worst_case_cov, v.spectral.eigen_matrix)

    def test_power_iteration_budget_flag(self, monkeypatch):
        rng = np.random.default_rng(302)
        sys, gamma = random_loop(rng, n_max=3, p_max=3)
        while sys.n_in < 2:
            sys, gamma = random_loop(rng, n_max=3, p_max=3)
        spec = msslab.validate_noise(gamma, np.eye(sys.n_in))
        power = msslab.analysis.spectral_radius_power
        monkeypatch.setattr(
            msslab.analysis,
            "spectral_radius_power",
            lambda handle: power(handle, tol=1e-16, max_iter=2),
        )
        v = msslab.analyze(sys, spec, "ito")
        assert "power_iteration_max_iter" in v.flags
        assert not v.spectral.converged

    def test_sampled_verdict_close_to_state_space(self):
        dt, count = 1e-3, 30_001
        kernel = msslab.impulse_response_grid(scalar_block(), dt, count)
        sampled = msslab.make_sampled(dt, kernel)
        v = msslab.analyze(sampled, noise(1.0), "ito")
        assert set(v.flags) == {"h2_truncated_grid", "rho_sample_grid"}
        assert_allclose(v.h2_squared, 0.5, rtol=1e-4)
        assert_allclose(v.rho, 0.5, rtol=1e-4)
        assert v.mss

    @pytest.mark.parametrize("loop", ["scalar", "coupled"])
    def test_stratonovich_is_the_equivalent_ito_loop(self, loop):
        if loop == "scalar":
            sys, spec = scalar_block(), noise(0.5)
        else:
            sys, gamma = coupled_loop()
            spec = msslab.validate_noise(gamma, np.eye(4))
        direct = msslab.analyze(sys, spec, "stratonovich")
        equivalent = msslab.equivalent_ito_system(sys, spec.gamma_cov)
        routed = msslab.analyze(equivalent, spec, "ito")
        assert direct.mss and routed.mss
        assert direct.rho == routed.rho
        assert direct.h2_squared == routed.h2_squared
        for name in ("u_bar", "r_bar", "y_bar"):
            assert_array_equal(
                getattr(direct.steady_state, name), getattr(routed.steady_state, name)
            )

    def test_dimension_checks(self):
        # the message names the covariance sized wrong
        for gamma, w, name in (
            (2, 2, "gamma_cov"), (2, 1, "gamma_cov"), (1, 2, "w_cov")
        ):
            spec = msslab.validate_noise(np.eye(gamma), np.eye(w))
            with pytest.raises(DimensionMismatch, match=name):
                msslab.analyze(scalar_block(), spec, "ito")


def coupled_loop():
    """16 states, 4 channels: Hurwitz A with spectral abscissa -1, dense B
    and C (C B not diagonal), a correlated gain covariance Gamma."""
    rng = np.random.default_rng(1)
    n, p = 16, 4
    a = rng.standard_normal((n, n)) / np.sqrt(n)
    a = a - (np.max(np.linalg.eigvals(a).real) + 1.0) * np.eye(n)
    b = 2.0 * rng.standard_normal((n, p)) / np.sqrt(n)
    c = 2.0 * rng.standard_normal((p, n)) / np.sqrt(n)
    g = rng.standard_normal((p, p))
    g = g @ g.T / p + np.eye(p)
    return msslab.make_state_space(a, b, c), g / np.max(np.diag(g))


def backward_error(handle, u_bar, w_cov):
    """||(I - K) u - w|| / (||I - K||_F ||u|| + ||w||), 2-norms of vectors."""
    lhs = np.eye(u_bar.size) - msslab.lgo_matrix_apply(handle)
    u, w = u_bar.flatten(order="F"), w_cov.flatten(order="F")
    residual = np.linalg.norm(lhs @ u - w)
    return residual / (np.linalg.norm(lhs) * np.linalg.norm(u) + np.linalg.norm(w))


class TestSteadyStateSolve:
    @pytest.mark.parametrize("margin", [1e-8, 1e-9])
    def test_verdict_close_to_the_boundary(self, margin):
        # rho is linear in the Ito gain, so scaling Gamma puts 1 - rho at
        # the margin; there the steady state is about 1 / margin large and
        # a residual test that ignores ||u|| refused it
        sys, gamma = coupled_loop()
        w_cov = np.eye(4)
        rho = msslab.analyze(sys, msslab.validate_noise(gamma, w_cov)).rho
        spec = msslab.validate_noise(gamma * (1.0 - margin) / rho, w_cov)
        v = msslab.analyze(sys, spec, "ito")
        assert v.mss
        assert 0.5 * margin < 1.0 - v.rho < 2.0 * margin
        u_bar = v.steady_state.u_bar
        assert np.abs(u_bar).max() > 0.1 / margin
        handle = msslab.make_lgo(sys, spec.gamma_cov, "ito")
        bound = msslab.analysis._BACKWARD_ERROR_BOUND
        assert bound <= 64 * np.finfo(float).eps
        assert backward_error(handle, u_bar, w_cov) <= bound

    def test_refusals(self, monkeypatch):
        # a singular I - K, a non-finite one and an inaccurate solve are
        # each refused
        sys, gamma = coupled_loop()
        handle = msslab.make_lgo(sys, 0.1 * gamma, "ito")
        solve = msslab.analysis._solve_steady_state
        for k in (np.eye(16), np.full((16, 16), np.nan)):
            monkeypatch.setattr(msslab.analysis, "lgo_matrix_apply", lambda h, k=k: k)
            with pytest.raises(SingularFixedPoint):
                solve(handle, np.eye(4))
        monkeypatch.undo()
        solve(handle, np.eye(4))
        monkeypatch.setattr(np.linalg, "solve", lambda a, b: b * (1.0 + 1e-12))
        with pytest.raises(SingularFixedPoint, match="backward error"):
            solve(handle, np.eye(4))


class TestCovarianceTrajectory:
    def test_open_loop_exact_discrete_sum(self):
        # var_y(t_K) = dt e^{-2dt} (1 - e^{-2K dt}) / (1 - e^{-2dt})
        dt, horizon = 1e-3, 1.0
        traj = msslab.covariance_trajectory(
            scalar_block(), noise(0.0), "ito", horizon=horizon, dt=dt
        )
        k = np.arange(len(traj.times))
        decay = math.exp(-2.0 * dt)
        exact = dt * decay * (1.0 - decay**k) / (1.0 - decay)
        assert_allclose(traj.trace_y, exact, rtol=1e-10, atol=1e-15)
        # and the discrete sum is within O(dt) of the continuum limit
        continuum = 0.5 * (1.0 - math.exp(-2.0 * horizon))
        assert abs(traj.trace_y[-1] - continuum) <= 2e-3 * continuum

    def test_closed_loop_reaches_steady_state(self):
        traj = msslab.covariance_trajectory(
            scalar_block(), noise(1.0), "ito", horizon=12.0, dt=1e-3
        )
        assert abs(traj.trace_y[-1] - 1.0) <= 3e-3
        assert abs(traj.trace_u[-1] - 2.0) <= 6e-3
        steps = np.diff(traj.trace_u)
        assert steps.min() >= -1e-12

    def test_stratonovich_routes_through_equivalent_block(self):
        spec = noise(0.5)
        direct = msslab.covariance_trajectory(
            scalar_block(), spec, "stratonovich", horizon=2.0, dt=1e-3
        )
        equivalent = msslab.equivalent_ito_system(scalar_block(), spec.gamma_cov)
        routed = msslab.covariance_trajectory(
            equivalent, spec, "ito", horizon=2.0, dt=1e-3
        )
        assert_array_equal(direct.y, routed.y)
        assert_array_equal(direct.u, routed.u)

    def test_sampled_matches_state_space_recursion(self):
        dt, steps = 0.01, 300
        kernel = msslab.impulse_response_grid(scalar_block(), dt, steps + 1)
        sampled = msslab.make_sampled(dt, kernel)
        spec = noise(0.8)
        a = msslab.covariance_trajectory(
            scalar_block(), spec, "ito", horizon=steps * dt, dt=dt
        )
        b = msslab.covariance_trajectory(
            sampled, spec, "ito", horizon=steps * dt, dt=dt
        )
        assert_allclose(a.y, b.y, rtol=1e-10, atol=1e-14)
        assert_allclose(a.u, b.u, rtol=1e-10, atol=1e-14)

    def test_grid_validation(self):
        with pytest.raises(BadGrid):
            msslab.covariance_trajectory(
                scalar_block(), noise(1.0), "ito", horizon=1.0, dt=0.3
            )
        with pytest.raises(BadGrid):
            msslab.covariance_trajectory(
                scalar_block(), noise(1.0), "ito", horizon=1.0, dt=-0.1
            )
        # the last grid, 2^40 steps, indexes an array but its rate arrays
        # would take 26 TB
        for horizon, dt in (
            (1.0, math.nan), (math.nan, 0.1), (math.inf, 0.1), (1e300, 1e-10),
            (2.0**20, 2.0**-20),
        ):
            with pytest.raises(BadGrid):
                msslab.covariance_trajectory(
                    scalar_block(), noise(1.0), "ito", horizon=horizon, dt=dt
                )

    def test_overflow_reported_with_time(self):
        sys = msslab.make_state_space([[50.0]], [[1.0]], [[1.0]])
        with pytest.raises(NonFinite, match="t="):
            msslab.covariance_trajectory(
                sys, noise(0.0), "ito", horizon=10.0, dt=1e-2
            )

    def test_growth_rate_above_threshold(self):
        # s2 = 2.5: discrete per-unit growth is (e^{-2dt}(1+2.5dt))^{1/dt},
        # an O(dt) hair under the continuum factor e^{0.5}
        dt = 1e-3
        per_unit = round(1.0 / dt)
        traj = msslab.covariance_trajectory(
            scalar_block(), noise(2.5), "ito", horizon=16.0, dt=dt
        )
        late = traj.trace_y[5 * per_unit :: per_unit]
        factors = late[1:] / late[:-1]
        discrete = (math.exp(-2.0 * dt) * (1.0 + 2.5 * dt)) ** per_unit
        assert np.all(np.diff(factors) < 0)
        assert abs(factors[-1] - discrete) <= 1e-3 * discrete
        assert abs(discrete - math.exp(0.5)) <= 4e-3 * math.exp(0.5)


L = msslab.analysis._BLOCK


def one_step_trajectory(sys, spec, interpretation, n_steps, dt):
    """Reference: the state-space recursion one step at a time,

        Z_k = E (Z_{k-1} + B U_{k-1} B^T dt) E^T,   Y_k = C Z_k C^T,

    returning (u, r, y) or raising NonFinite at the first bad step.
    """
    if interpretation == "stratonovich":
        sys = msslab.equivalent_ito_system(sys, spec.gamma_cov)
    p = spec.n_gains
    u = np.empty((n_steps + 1, p, p))
    r = np.zeros((n_steps + 1, p, p))
    y = np.zeros((n_steps + 1, p, p))
    u[0] = spec.w_cov
    step = msslab.matrix_exponential(sys.a, dt)
    z = np.zeros((sys.n_state, sys.n_state))
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            z = step @ (z + (sys.b @ u[k - 1] @ sys.b.T) * dt) @ step.T
            y[k] = sys.c @ z @ sys.c.T
            r[k] = spec.gamma_cov * y[k]
            u[k] = spec.w_cov + r[k]
            if not np.isfinite(u[k]).all():
                raise NonFinite(f"covariance trajectory overflowed at t={k * dt}")
    return u, r, y


def assert_same_rates(got, want, rel=1e-10):
    scale = np.abs(want[2]).max()
    for name, a, b in zip("ury", (got.u, got.r, got.y), want):
        gap = np.abs(a - b).max()
        assert gap <= rel * scale, f"{name}: gap {gap:.3e}, max|Y| {scale:.3e}"


class TestBlockedRecursion:
    """The blocked state-space recursion against the one-step reference."""

    @pytest.mark.parametrize("interpretation", ["ito", "stratonovich"])
    @pytest.mark.parametrize(
        "seed, p_min, p_max",
        [pytest.param(seed, 1, 3, id=str(seed)) for seed in range(8)]
        # 4, 5 and 8 channels take blocks of 16, 10 and 4 steps
        + [pytest.param(8 + i, p, p, id=f"p{p}") for i, p in enumerate((4, 5, 8))],
    )
    def test_matches_one_step_reference(self, seed, p_min, p_max, interpretation):
        rng = np.random.default_rng(1000 + seed)
        sys, gamma = random_loop(rng, n_max=8, p_max=p_max, p_min=p_min)
        spec = msslab.validate_noise(
            gamma, random_psd(rng, sys.n_in) + 0.1 * np.eye(sys.n_in)
        )
        dt = 0.05
        for n_steps in (1, L - 1, L, L + 1, 3 * L + 5):
            got = msslab.covariance_trajectory(
                sys, spec, interpretation, horizon=n_steps * dt, dt=dt
            )
            want = one_step_trajectory(sys, spec, interpretation, n_steps, dt)
            assert_same_rates(got, want)

    @pytest.mark.parametrize("p", [6, 11])
    def test_wide_loops_take_shorter_blocks(self, p):
        # 6 channels give 7-step blocks and 11 channels two-step blocks
        rng = np.random.default_rng(77 + p)
        n = p + 2
        sys = msslab.make_state_space(
            random_stable_matrix(rng, n),
            rng.standard_normal((n, p)) / np.sqrt(n),
            rng.standard_normal((p, n)) / np.sqrt(n),
        )
        spec = msslab.validate_noise(random_psd(rng, p, 0.5), np.eye(p))
        dt, n_steps = 0.05, 41
        got = msslab.covariance_trajectory(
            sys, spec, "ito", horizon=n_steps * dt, dt=dt
        )
        assert_same_rates(got, one_step_trajectory(sys, spec, "ito", n_steps, dt))

    @pytest.mark.parametrize("s2", [0.0, 1.0])
    def test_overflow_names_the_reference_step(self, s2):
        sys = msslab.make_state_space([[50.0]], [[1.0]], [[1.0]])
        with pytest.raises(NonFinite) as want:
            one_step_trajectory(sys, noise(s2), "ito", 2000, 1e-2)
        with pytest.raises(NonFinite) as got:
            msslab.covariance_trajectory(sys, noise(s2), "ito", horizon=20.0, dt=1e-2)
        assert str(got.value) == str(want.value)

    @settings(max_examples=30, deadline=None)
    @given(st.integers(0, 2**32 - 1), st.sampled_from(["ito", "stratonovich"]))
    def test_realization_does_not_matter(self, seed, interpretation):
        # x -> T x with T = Q diag(d), Q orthogonal and d in [0.5, 2]
        rng = np.random.default_rng(seed)
        sys, gamma = random_loop(rng, n_max=8, p_max=3)
        spec = msslab.validate_noise(gamma, np.eye(sys.n_in))
        n = sys.n_state
        q, _ = np.linalg.qr(rng.standard_normal((n, n)))
        t = q * rng.uniform(0.5, 2.0, n)
        t_inv = np.linalg.inv(t)
        similar = msslab.make_state_space(t_inv @ sys.a @ t, t_inv @ sys.b, sys.c @ t)
        dt, n_steps = 0.05, 2 * L + 7
        want = msslab.covariance_trajectory(
            sys, spec, interpretation, horizon=n_steps * dt, dt=dt
        )
        got = msslab.covariance_trajectory(
            similar, spec, interpretation, horizon=n_steps * dt, dt=dt
        )
        assert_same_rates(got, (want.u, want.r, want.y))


def einsum_trajectory(block, spec, n_steps, dt):
    """Reference: the sampled convolution one step at a time,

        Y_k = dt sum_{j=1..k} M_j U_{k-j} M_j^T,

    one einsum over the whole history per step, returning (u, r, y) or
    raising NonFinite at the first bad step.
    """
    kernel = msslab.impulse_response_grid(block, dt, n_steps + 1)
    p = spec.n_gains
    u = np.empty((n_steps + 1, p, p))
    r = np.zeros((n_steps + 1, p, p))
    y = np.zeros((n_steps + 1, p, p))
    u[0] = spec.w_cov
    with np.errstate(over="ignore", invalid="ignore"):
        for k in range(1, n_steps + 1):
            y[k] = np.einsum(
                "jab,jbc,jdc->ad", kernel[1 : k + 1], u[k - 1 :: -1], kernel[1 : k + 1]
            ) * dt
            r[k] = spec.gamma_cov * y[k]
            u[k] = spec.w_cov + r[k]
            if not np.isfinite(u[k]).all():
                raise NonFinite(f"covariance trajectory overflowed at t={k * dt}")
    return u, r, y


def random_sampled_loop(rng, p, count, zeros, dt):
    """A decaying random p x p kernel whose first samples vanish (a delay)."""
    t = dt * np.arange(count)[:, None, None]
    samples = rng.standard_normal((count, p, p)) * np.exp(-t) / p
    samples[:zeros] = 0.0
    spec = msslab.validate_noise(
        random_psd(rng, p, 0.5), random_psd(rng, p) + 0.1 * np.eye(p)
    )
    return msslab.make_sampled(dt, samples), spec


class TestSampledRecursion:
    """The blocked sampled-kernel recursion against the einsum reference."""

    @pytest.mark.parametrize("zeros", [0, 1, 20])
    @pytest.mark.parametrize("p", [1, 2, 3])
    def test_matches_einsum_reference(self, p, zeros):
        rng = np.random.default_rng(2000 + 10 * p + zeros)
        dt = 0.05
        block, spec = random_sampled_loop(rng, p, 201, zeros, dt)
        for n_steps in (1, L - 1, L, L + 1, 200):
            got = msslab.covariance_trajectory(
                block, spec, "ito", horizon=n_steps * dt, dt=dt
            )
            want = einsum_trajectory(block, spec, n_steps, dt)
            assert_same_rates(got, want, rel=1e-12)

    @pytest.mark.parametrize("cap", [201 * 81 * 5, 1])
    def test_long_grids_take_shorter_blocks(self, cap, monkeypatch):
        # a smaller lag-Hankel budget gives 5-step and one-step blocks
        monkeypatch.setattr(msslab.system, "_HANKEL_ENTRIES", cap)
        rng = np.random.default_rng(2100)
        dt, n_steps = 0.05, 200
        block, spec = random_sampled_loop(rng, 3, n_steps + 1, 3, dt)
        got = msslab.covariance_trajectory(
            block, spec, "ito", horizon=n_steps * dt, dt=dt
        )
        assert_same_rates(got, einsum_trajectory(block, spec, n_steps, dt), rel=1e-12)

    @pytest.mark.parametrize("s2", [40.0, 100.0])
    def test_overflow_names_the_first_step_out_of_range(self, s2):
        # M(t) = e^{3t}.  Run at scale 1e-200 (W too, which is negligible
        # by then) the scalar recursion cannot overflow, and the first
        # step whose U_k passes the largest float is where the rates
        # overflow: t = 17.91 for s2 = 40 and 9.43 for s2 = 100
        dt, n_steps, scale = 1e-2, 2000, 1e-200
        samples = np.exp(3.0 * dt * np.arange(n_steps + 1))
        u = np.zeros(n_steps + 1)
        u[0] = scale
        for k in range(1, n_steps + 1):
            u[k] = scale + s2 * dt * (samples[1 : k + 1] ** 2 @ u[k - 1 :: -1])
            if u[k] > np.finfo(float).max * scale:
                break
        block = msslab.make_sampled(dt, samples)
        with pytest.raises(NonFinite) as got:
            msslab.covariance_trajectory(
                block, noise(s2), "ito", horizon=n_steps * dt, dt=dt
            )
        assert str(got.value) == f"covariance trajectory overflowed at t={k * dt}"
        # the einsum reference forms M_j U_j before the second M_j and dt,
        # so it can overflow a step or two early (t = 17.89 for s2 = 40)
        with pytest.raises(NonFinite) as ref:
            einsum_trajectory(block, noise(s2), n_steps, dt)
        assert float(str(ref.value).split("t=")[1]) <= k * dt

    def test_overflow_mid_block_after_finite_history(self):
        # a lone sample too large to square: the history term of step
        # 100, the 36th of the second 64-step block, is the first
        # non-finite one, and the steps before it in that block stay finite
        dt, n_steps = 0.05, 200
        samples = np.exp(-dt * np.arange(n_steps + 1))
        samples[100] = 1e160
        block = msslab.make_sampled(dt, samples)
        with pytest.raises(NonFinite) as got:
            msslab.covariance_trajectory(
                block, noise(1.0), "ito", horizon=n_steps * dt, dt=dt
            )
        with pytest.raises(NonFinite) as want:
            einsum_trajectory(block, noise(1.0), n_steps, dt)
        assert str(got.value) == str(want.value)
        assert str(got.value) == f"covariance trajectory overflowed at t={100 * dt}"
