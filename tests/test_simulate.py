"""Simulator tests: determinism, discretization oracles, divergence handling."""
import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp
from numpy.testing import assert_allclose, assert_array_equal

import msslab
from msslab import (
    BadGrid,
    DimensionMismatch,
    InsufficientPaths,
    MidpointNoConvergence,
    NonPositiveDt,
    SCHEMES,
    RealizationRequired,
    SimulationConfig,
)
from msslab.noise import draw_increment_chunk, philox_generator
from msslab.simulate import (
    _PATH_BATCH,
    _STEP_CHUNK,
    _STEPS,
    _draw_path_increments,
    _loop_norm,
    increment_independence_test,
    open_loop_terminal_samples,
)
from msslab.system import impulse_response_grid


def scalar_block():
    return msslab.make_state_space([[-1.0]], [[1.0]], [[1.0]])


def noise(s2, w=1.0):
    return msslab.validate_noise([[s2]], [[w]])


# entries of either sign between 1e-3 and 1e3, or zero: products stay in
# the normal range, where rounding is relative
_ENTRY = st.one_of(st.just(0.0), st.floats(1e-3, 1e3), st.floats(-1e3, -1e-3))


@st.composite
def gain_and_increments(draw):
    """A p x p gain G and a (B, p) stack of gain increments."""
    p = draw(st.integers(1, 5))
    batch = draw(st.integers(1, 4))
    g = draw(hnp.arrays(float, (p, p), elements=_ENTRY))
    dgam = draw(hnp.arrays(float, (batch, p), elements=_ENTRY))
    return g, dgam


class TestConfig:
    def test_grid_properties(self):
        cfg = SimulationConfig(dt=0.25, horizon=2.0, n_paths=3, seed=0)
        assert cfg.n_steps == 8
        assert_allclose(cfg.times, np.arange(9) * 0.25)

    def test_bad_dt(self):
        for dt in (0.0, -1.0, math.nan, math.inf):
            with pytest.raises(NonPositiveDt):
                SimulationConfig(dt=dt, horizon=1.0, n_paths=1, seed=0)

    def test_bad_horizon(self):
        with pytest.raises(BadGrid):
            SimulationConfig(dt=0.1, horizon=-1.0, n_paths=1, seed=0)
        # 1.0 is not a whole number of 0.3 steps
        with pytest.raises(BadGrid):
            SimulationConfig(dt=0.3, horizon=1.0, n_paths=1, seed=0)
        # horizon / dt overflows a float
        with pytest.raises(BadGrid):
            SimulationConfig(dt=1e-10, horizon=1e300, n_paths=1, seed=0)

    def test_bad_counts_and_names(self):
        with pytest.raises(ValueError):
            SimulationConfig(dt=0.1, horizon=1.0, n_paths=0, seed=0)
        with pytest.raises(ValueError):
            SimulationConfig(
                dt=0.1, horizon=1.0, n_paths=1, seed=0, interpretation="milstein"
            )
        with pytest.raises(ValueError):
            SimulationConfig(dt=0.1, horizon=1.0, n_paths=1, seed=0, scheme="exact")
        for seed in (-1, 2**64):
            with pytest.raises(ValueError, match="seed must lie in"):
                SimulationConfig(dt=0.1, horizon=1.0, n_paths=1, seed=seed)


    def test_integral_counts_are_stored_as_ints(self):
        cfg = SimulationConfig(dt=0.1, horizon=1.0, n_paths=20.0, seed=np.int64(3))
        assert (cfg.n_paths, cfg.seed) == (20, 3)
        assert type(cfg.n_paths) is int and type(cfg.seed) is int

    @pytest.mark.parametrize(
        "counts", [{"n_paths": 2.5}, {"seed": 1.5}, {"seed": "7"}, {"n_paths": math.inf}]
    )
    def test_non_integral_counts_rejected(self, counts):
        with pytest.raises(ValueError, match="must be an integer"):
            SimulationConfig(dt=0.1, horizon=1.0, **{"n_paths": 1, "seed": 0, **counts})


class TestPathDeterminism:
    CFG = SimulationConfig(dt=0.01, horizon=1.0, n_paths=4, seed=42)

    def test_same_path_index_replays(self):
        p1 = msslab.simulate_path(scalar_block(), noise(0.5), self.CFG, path_index=2)
        p2 = msslab.simulate_path(scalar_block(), noise(0.5), self.CFG, path_index=2)
        assert_array_equal(p1.y, p2.y)
        assert_array_equal(p1.u_increments, p2.u_increments)
        assert_array_equal(p1.r_increments, p2.r_increments)

    def test_distinct_path_indices_differ(self):
        p0 = msslab.simulate_path(scalar_block(), noise(0.5), self.CFG, path_index=0)
        p1 = msslab.simulate_path(scalar_block(), noise(0.5), self.CFG, path_index=1)
        assert np.abs(p0.y - p1.y).max() > 1e-3

    def test_numpy_integer_seed_replays_the_int_seed(self):
        want = msslab.run_ensemble(scalar_block(), noise(0.5), self.CFG, True)
        cfg = replace(self.CFG, seed=np.int64(42))
        got = msslab.run_ensemble(scalar_block(), noise(0.5), cfg, True)
        for name in ("var_y", "stderr_y", "r_paths", "u_paths"):
            assert_array_equal(getattr(got, name), getattr(want, name))

    def test_named_entry_points_match_config_dispatch(self):
        ito = msslab.simulate_path_ito(scalar_block(), noise(0.5), self.CFG)
        via_cfg = msslab.simulate_path(scalar_block(), noise(0.5), self.CFG)
        assert_array_equal(ito.y, via_cfg.y)
        scfg = SimulationConfig(
            dt=0.01, horizon=1.0, n_paths=4, seed=42, interpretation="stratonovich"
        )
        strat = msslab.simulate_path_stratonovich(scalar_block(), noise(0.5), self.CFG)
        via_scfg = msslab.simulate_path(scalar_block(), noise(0.5), scfg)
        assert_array_equal(strat.y, via_scfg.y)

    def test_explicit_increments_replay_the_internal_draw(self):
        from msslab.noise import philox_generator
        from msslab.simulate import _draw_path_increments

        gen = philox_generator(self.CFG.seed, 2)
        dgam, dw = _draw_path_increments(noise(0.5), self.CFG.dt, self.CFG.n_steps, gen)
        drawn = msslab.simulate_path(scalar_block(), noise(0.5), self.CFG, path_index=2)
        fed = msslab.simulate_path(
            scalar_block(), noise(0.5), self.CFG, increments=(dgam, dw)
        )
        assert_array_equal(drawn.y, fed.y)
        # 1-d arrays are promoted to single-channel columns
        fed_flat = msslab.simulate_path(
            scalar_block(), noise(0.5), self.CFG, increments=(dgam[:, 0], dw[:, 0])
        )
        assert_array_equal(drawn.y, fed_flat.y)

    def test_wrong_increment_shape_rejected(self):
        bad = np.zeros((self.CFG.n_steps + 3, 1))
        good = np.zeros((self.CFG.n_steps, 1))
        with pytest.raises(DimensionMismatch):
            msslab.simulate_path(
                scalar_block(), noise(0.5), self.CFG, increments=(bad, good)
            )
        with pytest.raises(DimensionMismatch):
            msslab.simulate_path(
                scalar_block(), noise(0.5), self.CFG, increments=(good, bad)
            )

    def test_loop_shape_mismatch_rejected(self):
        two = msslab.validate_noise(np.eye(2), np.eye(2))
        with pytest.raises(DimensionMismatch):
            msslab.simulate_path(scalar_block(), two, self.CFG)
        with pytest.raises(DimensionMismatch):
            msslab.run_ensemble(scalar_block(), two, self.CFG)


class TestSchemes:
    def test_state_vs_convolution_differ_at_order_dt(self):
        # Euler state stepping and the exact-kernel convolution sum are
        # distinct discretizations of the same loop; their paths agree
        # to O(dt) but not exactly.
        for dt in (0.01, 0.005):
            c_state = SimulationConfig(dt=dt, horizon=2.0, n_paths=1, seed=12)
            c_conv = SimulationConfig(
                dt=dt, horizon=2.0, n_paths=1, seed=12, scheme="convolution_sum"
            )
            ps = msslab.simulate_path(scalar_block(), noise(1.0), c_state)
            pc = msslab.simulate_path(scalar_block(), noise(1.0), c_conv)
            sup = float(np.abs(ps.y - pc.y).max())
            assert dt / 20 < sup < 3 * dt

    def test_sampled_kernel_matches_state_space_convolution(self):
        cfg = SimulationConfig(
            dt=0.02, horizon=1.0, n_paths=1, seed=8, scheme="convolution_sum"
        )
        kernel = impulse_response_grid(scalar_block(), cfg.dt, cfg.n_steps + 1)
        sampled = msslab.make_sampled(cfg.dt, kernel)
        p_ss = msslab.simulate_path(scalar_block(), noise(0.5), cfg)
        p_sa = msslab.simulate_path(sampled, noise(0.5), cfg)
        assert_array_equal(p_ss.y, p_sa.y)

    def test_sampled_kernel_requires_convolution_scheme(self):
        cfg = SimulationConfig(dt=0.02, horizon=1.0, n_paths=2, seed=8)
        kernel = impulse_response_grid(scalar_block(), cfg.dt, cfg.n_steps + 1)
        sampled = msslab.make_sampled(cfg.dt, kernel)
        with pytest.raises(RealizationRequired):
            msslab.simulate_path(sampled, noise(0.5), cfg)
        with pytest.raises(RealizationRequired):
            msslab.run_ensemble(sampled, noise(0.5), cfg)


class TestEnsembleStats:
    def test_matches_per_path_simulation(self):
        cfg = SimulationConfig(dt=0.01, horizon=1.0, n_paths=7, seed=3)
        ens = msslab.run_ensemble(scalar_block(), noise(0.8), cfg)
        ys = np.stack(
            [
                msslab.simulate_path(scalar_block(), noise(0.8), cfg, path_index=i).y[
                    :, 0
                ]
                for i in range(7)
            ]
        )
        assert_allclose(ens.var_y, (ys**2).mean(axis=0), rtol=1e-12)
        # stderr of the mean of y^2, not of y
        se = np.std(ys**2, axis=0, ddof=1) / math.sqrt(7)
        assert_allclose(ens.stderr_y[1:], se[1:], rtol=1e-10)
        assert ens.stderr_y[0] == 0.0

    def test_single_path_ensemble(self):
        cfg = SimulationConfig(dt=0.01, horizon=1.0, n_paths=1, seed=3)
        ens = msslab.run_ensemble(scalar_block(), noise(0.8), cfg)
        path = msslab.simulate_path(scalar_block(), noise(0.8), cfg, path_index=0)
        assert_allclose(ens.var_y, path.y[:, 0] ** 2, rtol=1e-12)
        assert np.isnan(ens.stderr_y).all()

    def test_stationary_variance_of_the_euler_chain(self):
        # the driven Euler chain equilibrates at W / (2 - dt - s2), not
        # at the continuum value W / (2 - s2)
        dt, s2 = 0.05, 0.5
        cfg = SimulationConfig(dt=dt, horizon=10.0, n_paths=4000, seed=11)
        ens = msslab.run_ensemble(scalar_block(), noise(s2), cfg)
        target = 1.0 / (2.0 - dt - s2)
        assert abs(ens.var_y[-1] - target) < 4.0 * ens.stderr_y[-1]

    def test_grid_too_large_for_memory(self):
        # 2^40 steps index an array, but one path's arrays would take
        # 53 TB and the ensemble's per-time statistics 70 TB
        cfg = SimulationConfig(dt=2.0**-20, horizon=2.0**20, n_paths=1, seed=0)
        with pytest.raises(BadGrid, match="GB"):
            msslab.run_ensemble(scalar_block(), noise(0.5), cfg)
        with pytest.raises(BadGrid, match="GB"):
            msslab.simulate_path(scalar_block(), noise(0.5), cfg)


class TestBatching:
    def test_results_do_not_depend_on_batching(self):
        # one path past the first batch: it runs alone in a second batch
        n_paths = _PATH_BATCH + 1
        cfg = SimulationConfig(
            dt=0.01, horizon=0.04, n_paths=n_paths, seed=1,
            interpretation="stratonovich",
        )
        ens = msslab.run_ensemble(
            scalar_block(), noise(0.5), cfg, record_increments=True
        )
        paths = [
            msslab.simulate_path(scalar_block(), noise(0.5), cfg, path_index=i)
            for i in range(n_paths)
        ]
        last = paths[_PATH_BATCH]
        assert_array_equal(ens.r_paths[_PATH_BATCH], last.r_increments)
        assert_array_equal(ens.u_paths[_PATH_BATCH], last.u_increments)
        y2 = np.mean([np.sum(p.y**2, axis=1) for p in paths], axis=0)
        assert_allclose(ens.var_y, y2, rtol=1e-12, atol=0.0)

    @pytest.mark.parametrize("scheme", SCHEMES)
    @pytest.mark.parametrize("interpretation", ["ito", "stratonovich"])
    def test_paths_carry_their_streams_across_draw_chunks(self, interpretation, scheme):
        # two steps past one draw chunk: each path's second chunk goes on
        # from the Philox state its first chunk left, as in simulate_path
        dt = 0.001
        cfg = SimulationConfig(
            dt=dt, horizon=(_STEP_CHUNK + 2) * dt, n_paths=3, seed=17,
            interpretation=interpretation, scheme=scheme,
        )
        assert cfg.n_steps == _STEP_CHUNK + 2
        ens = msslab.run_ensemble(
            scalar_block(), noise(0.5), cfg, record_increments=True
        )
        for i in range(cfg.n_paths):
            path = msslab.simulate_path(scalar_block(), noise(0.5), cfg, path_index=i)
            assert_array_equal(ens.r_paths[i], path.r_increments)
            assert_array_equal(ens.u_paths[i], path.u_increments)


class TestQuadraticVariationHelper:
    def test_wiener_increments_accumulate_t(self):
        cfg = SimulationConfig(dt=1e-4, horizon=1.0, n_paths=1, seed=3)
        path = msslab.simulate_path(scalar_block(), noise(0.0), cfg)
        qv_u = float(np.sum(path.u_increments**2))
        assert abs(qv_u - 1.0) < 4.0 * math.sqrt(2.0 * 1.0 * 1e-4)


class TestDivergence:
    BLOCK = msslab.make_state_space([[200.0]], [[1.0]], [[1.0]])
    CFG = SimulationConfig(dt=0.1, horizon=20.0, n_paths=50, seed=4)
    # per scheme, an unstable block whose path 0 diverges inside the
    # horizon; under the convolution sum the kernel e^{a t} must itself
    # stay finite over the grid, which rules out a = 200
    DIVERGING = {
        "state_space_step": BLOCK,
        "convolution_sum": msslab.make_state_space([[25.0]], [[1.0]], [[1.0]]),
    }

    def test_path_flags_and_truncates(self):
        for scheme in SCHEMES:
            cfg = replace(self.CFG, scheme=scheme)
            path = msslab.simulate_path(self.DIVERGING[scheme], noise(1.0), cfg)
            assert path.diverged, scheme
            assert path.diverged_at < cfg.n_steps, scheme
            assert np.isfinite(path.y[: path.diverged_at]).all(), scheme
            assert np.isnan(path.y[path.diverged_at :]).all(), scheme

    def test_ensemble_excludes_dead_paths(self):
        ens = msslab.run_ensemble(self.BLOCK, noise(1.0), self.CFG, record_increments=True)
        assert ens.n_diverged[0] == 0
        assert ens.n_diverged[-1] == 50
        assert np.all(np.diff(ens.n_diverged) >= 0)
        alive = 50 - ens.n_diverged
        assert np.isfinite(ens.var_y[alive > 0]).all()
        assert np.isnan(ens.var_y[alive == 0]).all()

    def test_recorded_increments_freeze_after_death(self):
        for scheme in SCHEMES:
            cfg = replace(self.CFG, scheme=scheme)
            block = self.DIVERGING[scheme]
            ens = msslab.run_ensemble(block, noise(1.0), cfg, record_increments=True)
            path = msslab.simulate_path(block, noise(1.0), cfg, path_index=0)
            k = path.diverged_at
            assert np.any(ens.r_paths[0, k - 1] != 0.0), scheme
            assert np.all(ens.r_paths[0, k:] == 0.0), scheme
            assert np.all(ens.u_paths[0, k:] == 0.0), scheme
            assert_array_equal(ens.r_paths[0], path.r_increments)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_kill_restarts_dead_rows_from_rest(self, scheme):
        block = self.DIVERGING[scheme]
        cfg = replace(self.CFG, scheme=scheme)
        rng = np.random.default_rng(0)
        step = _STEPS[scheme](block, cfg, False)
        y = step.reset(2)
        for k in range(3):
            _, _, y, _ = step(k, y, rng.normal(size=(2, 1)), rng.normal(size=(2, 1)))
        dead = np.array([False, True])
        step.kill(dead, 2)
        y[dead] = 0.0
        dgam, dw = rng.normal(size=(2, 1)), rng.normal(size=(2, 1))
        _, _, y_next, _ = step(3, y, dgam, dw)
        fresh = _STEPS[scheme](block, cfg, False)
        _, _, y_rest, _ = fresh(0, fresh.reset(1), dgam[1:], dw[1:])
        assert_array_equal(y_next[1], y_rest[0])
        assert y_next[0, 0] != y_rest[0, 0]

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_partial_divergence_keeps_survivor_statistics(self, scheme, monkeypatch):
        # A = 0 and a large gain: |1 + dgamma| spreads the paths, so they
        # cross the limit at scattered steps and some outlast the horizon.
        # A limit of 1e3 keeps the survivors small enough that a dead row's
        # drive increment would show in the sums.  A dying row is frozen at
        # rest, so it must add nothing to the sums from its death on
        monkeypatch.setattr(msslab.simulate, "OVERFLOW_LIMIT", 1e3)
        block = msslab.make_state_space([[0.0]], [[1.0]], [[1.0]])
        cfg = SimulationConfig(dt=0.1, horizon=50.0, n_paths=12, seed=4, scheme=scheme)
        ens = msslab.run_ensemble(block, noise(10.0), cfg)
        paths = [
            msslab.simulate_path(block, noise(10.0), cfg, path_index=i)
            for i in range(cfg.n_paths)
        ]
        ends = np.array([p.diverged_at or cfg.n_steps + 1 for p in paths])
        died = ends[ends <= cfg.n_steps]
        assert len(np.unique(died)) >= 3
        assert len(died) < cfg.n_paths
        # a path counts at t_k for k < diverged_at
        alive = np.arange(cfg.n_steps + 1) < ends[:, None]
        count = alive.sum(axis=0)
        assert_array_equal(ens.n_diverged, cfg.n_paths - count)
        y2 = np.where(alive, np.stack([p.y[:, 0] ** 2 for p in paths]), 0.0)
        assert_allclose(ens.var_y, y2.sum(axis=0) / count, rtol=1e-12)

    def test_dead_path_never_reaches_the_midpoint_solve(self):
        # the path overflows at step 39; a dead row fed its own gain
        # increments would reach the midpoint solve and be refused there
        # (loop spectral radius 1.04 at t = 4.9)
        block = msslab.make_state_space([[1e5]], [[1.0]], [[1.0]])
        cfg = SimulationConfig(
            dt=0.1, horizon=20.0, n_paths=1, seed=3, interpretation="stratonovich"
        )
        path = msslab.simulate_path(block, noise(10.0), cfg)
        ens = msslab.run_ensemble(block, noise(10.0), cfg)
        assert path.diverged_at == 39
        assert ens.n_diverged[-1] == 1
        assert np.argmax(ens.n_diverged > 0) == path.diverged_at

    def test_each_death_step_kills_once(self, monkeypatch):
        # all 1024 paths die, at 89 distinct steps between 1367 and 1478;
        # the dying rows of each such step are zeroed once, not again at
        # every later step
        step_class = _STEPS["convolution_sum"]
        kill, calls = step_class.kill, []

        def counted(step, dead, k):
            calls.append(k)
            kill(step, dead, k)

        monkeypatch.setattr(step_class, "kill", counted)
        cfg = SimulationConfig(
            dt=0.01, horizon=20.0, n_paths=1024, seed=5, scheme="convolution_sum"
        )
        ens = msslab.run_ensemble(self.DIVERGING["convolution_sum"], noise(1.0), cfg)
        assert ens.n_diverged[-1] == cfg.n_paths
        # a death at step k first counts at t_{k+1}
        death_steps = np.flatnonzero(np.diff(ens.n_diverged))
        assert len(death_steps) == 89
        assert_array_equal(calls, death_steps)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_path_leaves_supplied_increments_unchanged(self, scheme):
        cfg = replace(self.CFG, scheme=scheme)
        gen = philox_generator(cfg.seed, 0)
        dgam, dw = _draw_path_increments(noise(1.0), cfg.dt, cfg.n_steps, gen)
        kept = dgam.copy(), dw.copy()
        path = msslab.simulate_path(
            self.DIVERGING[scheme], noise(1.0), cfg, increments=(dgam, dw)
        )
        assert path.diverged
        assert_array_equal(dgam, kept[0])
        assert_array_equal(dw, kept[1])

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_frozen_rows_stay_at_rest_in_later_draw_chunks(self, scheme, monkeypatch):
        # five of six paths die inside the first draw chunk and one runs
        # on into the second, whose fresh increments must be zeroed for
        # the dead rows too: their recorded r and u stay 0 as in
        # simulate_path
        monkeypatch.setattr(msslab.simulate, "OVERFLOW_LIMIT", 1e3)
        block = msslab.make_state_space([[0.0]], [[1.0]], [[1.0]])
        cfg = SimulationConfig(
            dt=0.01, horizon=(_STEP_CHUNK + 100) * 0.01, n_paths=6, seed=6,
            interpretation="stratonovich", scheme=scheme,
        )
        ens = msslab.run_ensemble(block, noise(10.0), cfg, record_increments=True)
        ends = []
        for i in range(cfg.n_paths):
            path = msslab.simulate_path(block, noise(10.0), cfg, path_index=i)
            ends.append(path.diverged_at)
            assert_array_equal(ens.r_paths[i], path.r_increments)
            assert_array_equal(ens.u_paths[i], path.u_increments)
        assert ends.count(None) == 1
        assert max(k for k in ends if k is not None) < _STEP_CHUNK

    def test_stable_run_has_no_divergence(self):
        cfg = SimulationConfig(dt=0.01, horizon=1.0, n_paths=20, seed=0)
        ens = msslab.run_ensemble(scalar_block(), noise(0.5), cfg)
        assert ens.n_diverged[-1] == 0


class TestMidpointSolve:
    def test_no_convergence_at_huge_gain(self):
        # dt * s2 large makes the fixed-point map expansive
        cfg = SimulationConfig(
            dt=0.05, horizon=1.0, n_paths=1, seed=0, interpretation="stratonovich"
        )
        with pytest.raises(MidpointNoConvergence):
            msslab.simulate_path(scalar_block(), noise(400.0), cfg)

    def test_zero_gain_midpoint_equals_ito(self):
        ito = SimulationConfig(dt=0.01, horizon=1.0, n_paths=1, seed=6)
        strat = SimulationConfig(
            dt=0.01, horizon=1.0, n_paths=1, seed=6, interpretation="stratonovich"
        )
        pi = msslab.simulate_path(scalar_block(), noise(0.0), ito)
        ps = msslab.simulate_path(scalar_block(), noise(0.0), strat)
        assert_array_equal(pi.y, ps.y)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_ensemble_paths_are_single_paths(self, scheme):
        # every product of the scalar loop is a single rounding, so the
        # batch and the per-path simulator agree bit for bit
        cfg = SimulationConfig(
            dt=0.01, horizon=1.0, n_paths=5, seed=3,
            interpretation="stratonovich", scheme=scheme,
        )
        ens = msslab.run_ensemble(
            scalar_block(), noise(0.5), cfg, record_increments=True
        )
        for i in range(cfg.n_paths):
            path = msslab.simulate_path(scalar_block(), noise(0.5), cfg, path_index=i)
            assert_array_equal(ens.r_paths[i], path.r_increments)

    # A, B and C are full matrices, so G = C B = [[0.65, 0.77],
    # [-0.13, 1.07]] is not diagonal and the solve is a full 2 x 2 system
    GENERAL = msslab.make_state_space(
        [[-1.0, 0.3], [-0.2, -0.8]],
        [[1.0, 0.4], [-0.3, 0.9]],
        [[0.8, 0.5], [0.2, 1.1]],
    )
    # C B = C = [[1, 1], [0, 1]]: D G has eigenvalues dgamma_i / 2 (times
    # e^-dt for the convolution kernel) but a max-row-sum norm of |dgamma_1|
    TRIANGULAR = msslab.make_state_space(
        -np.eye(2), np.eye(2), [[1.0, 1.0], [0.0, 1.0]]
    )
    COUPLED_NOISE = msslab.validate_noise([[0.5, 0.1], [0.1, 0.3]], np.eye(2))

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_coupled_loop_solves_the_midpoint_equation(self, scheme):
        # y_{k+1} = base_y + G r_k, so the solve is exact when
        # r_k = dgamma_k o (y_k + y_{k+1}) / 2 holds to rounding
        cfg = SimulationConfig(
            dt=0.01, horizon=1.0, n_paths=4, seed=9,
            interpretation="stratonovich", scheme=scheme,
        )
        ens = msslab.run_ensemble(
            self.GENERAL, self.COUPLED_NOISE, cfg, record_increments=True
        )
        for i in range(cfg.n_paths):
            gen = philox_generator(cfg.seed, i)
            dgam, dw = _draw_path_increments(
                self.COUPLED_NOISE, cfg.dt, cfg.n_steps, gen
            )
            path = msslab.simulate_path(
                self.GENERAL, self.COUPLED_NOISE, cfg, increments=(dgam, dw)
            )
            midpoint = 0.5 * dgam * (path.y[:-1] + path.y[1:])
            scale = np.abs(path.r_increments).max()
            assert_allclose(path.r_increments, midpoint, rtol=0, atol=1e-13 * scale)
            # the batched solve of path i gives the same increments.  Only
            # the convolution sum matches bit for bit: with full B and C
            # the state-space batch rounds its matrix products (batched
            # matmul) unlike the per-path matrix-vector products
            if scheme == "convolution_sum":
                assert_array_equal(ens.r_paths[i], path.r_increments)
            else:
                assert_allclose(
                    ens.r_paths[i], path.r_increments, rtol=0, atol=1e-13 * scale
                )

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_refuses_exactly_at_unit_loop_radius(self, scheme):
        # a gain increment of 1.5 gives radius 0.75 (0.68 for the kernel)
        # with row-sum norm above 1 and is solved; 2.5 gives radius above
        # 1 at step 3 and is refused there, and so is a NaN increment
        cfg = SimulationConfig(
            dt=0.1, horizon=0.5, n_paths=1, seed=0,
            interpretation="stratonovich", scheme=scheme,
        )
        dw = np.full((cfg.n_steps, 2), 0.1)
        dgam = np.zeros((cfg.n_steps, 2))
        dgam[:, 0] = 1.5
        path = msslab.simulate_path(
            self.TRIANGULAR, self.COUPLED_NOISE, cfg, increments=(dgam, dw)
        )
        midpoint = 0.5 * dgam * (path.y[:-1] + path.y[1:])
        assert_allclose(path.r_increments, midpoint, rtol=1e-13, atol=1e-15)
        for bad in (2.5, np.nan):
            dgam[3, 0] = bad
            with pytest.raises(MidpointNoConvergence, match=r"t=0\.3"):
                msslab.simulate_path(
                    self.TRIANGULAR, self.COUPLED_NOISE, cfg, increments=(dgam, dw)
                )

    @settings(max_examples=300, deadline=None)
    @given(gain_and_increments())
    def test_norm_bound_never_below_the_radius(self, case):
        g, dgam = case
        half = 0.5 * dgam
        abs_g = np.abs(g)
        radius = np.abs(np.linalg.eigvals(half[:, :, None] * g)).max(axis=-1)
        assert (radius <= _loop_norm(half, abs_g.sum(axis=1), abs_g)).all()

    # with G from GENERAL, the increment (2, -1) gives D G norms 1.42 (rows)
    # and 1.31 (columns) but radius 0.69; (4, 0) gives radius 2 |G_00| > 1
    UNSURE, REFUSED = (2.0, -1.0), (4.0, 0.0)

    @staticmethod
    def push_increments(monkeypatch, pushes):
        """Make draws of path i carry dgamma[k] = pushes[i, k].

        The runs below have fewer steps than one draw chunk, so k indexes
        the chunk.  simulate_path and run_ensemble draw alike through the
        patched function; the Philox key names the path.
        """

        def draw(noise, dt, n_steps, gen):
            dgam, dw = draw_increment_chunk(noise, dt, n_steps, gen)
            path = int(gen.bit_generator.state["state"]["key"][1])
            for (i, k), value in pushes.items():
                if i == path:
                    dgam[k] = value
            return dgam, dw

        monkeypatch.setattr(msslab.simulate, "draw_increment_chunk", draw)

    def midpoint_loop(self, cfg, dgam_k):
        """D G of one increment, G as the scheme's solve sees it."""
        block = self.GENERAL
        if cfg.scheme == "state_space_step":
            g = block.c @ block.b
        else:
            g = impulse_response_grid(block, cfg.dt, 2)[1]
        return 0.5 * np.asarray(dgam_k)[:, None] * g

    def test_uncertified_step_takes_the_exact_radius(self, monkeypatch):
        # path 2 hits, at step 10, a D G that the norm bound does not
        # certify but whose radius is below 1: the step is solved, and the
        # batch still equals simulate_path bit for bit (convolution sum;
        # the state-space batch rounds full B and C differently)
        cfg = SimulationConfig(
            dt=0.01, horizon=0.3, n_paths=4, seed=9,
            interpretation="stratonovich", scheme="convolution_sum",
        )
        loop = self.midpoint_loop(cfg, self.UNSURE)
        abs_loop = np.abs(loop)
        assert min(abs_loop.sum(axis=1).max(), abs_loop.sum(axis=0).max()) >= 1.0
        assert np.abs(np.linalg.eigvals(loop)).max() < 1.0
        self.push_increments(monkeypatch, {(2, 10): self.UNSURE})
        ens = msslab.run_ensemble(
            self.GENERAL, self.COUPLED_NOISE, cfg, record_increments=True
        )
        for i in range(cfg.n_paths):
            path = msslab.simulate_path(
                self.GENERAL, self.COUPLED_NOISE, cfg, path_index=i
            )
            assert_array_equal(ens.r_paths[i], path.r_increments)
            if i == 2:
                pushed = path
        midpoint = 0.5 * self.UNSURE[0] * (pushed.y[10, 0] + pushed.y[11, 0])
        assert_allclose(pushed.r_increments[10, 0], midpoint, rtol=1e-12)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_refusal_names_the_exact_radius(self, scheme, monkeypatch):
        # the same batch with path 1 pushed past radius 1 at step 10 is
        # refused there, naming that path's exact radius
        cfg = SimulationConfig(
            dt=0.01, horizon=0.3, n_paths=4, seed=9,
            interpretation="stratonovich", scheme=scheme,
        )
        radius = np.abs(np.linalg.eigvals(self.midpoint_loop(cfg, self.REFUSED))).max()
        assert radius >= 1.0
        self.push_increments(
            monkeypatch, {(2, 10): self.UNSURE, (1, 10): self.REFUSED}
        )
        message = re.escape(f"at t={10 * cfg.dt} has loop spectral radius {radius:.6g},")
        with pytest.raises(MidpointNoConvergence, match=message):
            msslab.run_ensemble(self.GENERAL, self.COUPLED_NOISE, cfg)
        with pytest.raises(MidpointNoConvergence, match=message):
            msslab.simulate_path(self.GENERAL, self.COUPLED_NOISE, cfg, path_index=1)

    def test_scalar_refusal_boundary(self):
        # D G = dgamma / 2 for the unit scalar loop: 1.99 is solved, 2.0
        # sits on the boundary and is refused, as is NaN; ensembles refuse
        # alike
        cfg = SimulationConfig(
            dt=0.1, horizon=0.5, n_paths=1, seed=0, interpretation="stratonovich"
        )
        dw = np.full(cfg.n_steps, 0.1)
        dgam = np.full(cfg.n_steps, 1.99)
        path = msslab.simulate_path(scalar_block(), noise(1.0), cfg, increments=(dgam, dw))
        # r_0 = (1.99 / 2) * 0.1 / (1 - 1.99 / 2)
        assert_allclose(path.r_increments[0, 0], 19.9, rtol=1e-12)
        for bad in (2.0, np.nan):
            dgam[2] = bad
            with pytest.raises(MidpointNoConvergence, match=r"t=0\.2"):
                msslab.simulate_path(
                    scalar_block(), noise(1.0), cfg, increments=(dgam, dw)
                )
        huge = SimulationConfig(
            dt=0.05, horizon=1.0, n_paths=8, seed=0, interpretation="stratonovich"
        )
        with pytest.raises(MidpointNoConvergence):
            msslab.run_ensemble(scalar_block(), noise(400.0), huge)


class TestBlockedConvolution:
    """The convolution sum in blocks: history products, batches, kills."""

    BLOCK = TestMidpointSolve.GENERAL
    NOISE = TestMidpointSolve.COUPLED_NOISE
    # 150 steps cross the block starts at steps 64 and 128
    CFG = SimulationConfig(
        dt=0.01, horizon=1.5, n_paths=1, seed=21, scheme="convolution_sum"
    )

    @pytest.mark.parametrize("interpretation", ["ito", "stratonovich"])
    def test_outputs_are_the_full_convolution_of_the_inputs(self, interpretation):
        cfg = replace(self.CFG, interpretation=interpretation)
        path = msslab.simulate_path(self.BLOCK, self.NOISE, cfg)
        kernel = impulse_response_grid(self.BLOCK, cfg.dt, cfg.n_steps + 1)
        u = path.u_increments
        want = [
            np.einsum("jab,jb->a", kernel[k + 1 : 0 : -1], u[: k + 1])
            for k in range(cfg.n_steps)
        ]
        scale = np.abs(path.y).max()
        assert_allclose(path.y[1:], want, rtol=0, atol=1e-13 * scale)

    @pytest.mark.parametrize("interpretation", ["ito", "stratonovich"])
    def test_ensemble_paths_are_single_paths(self, interpretation):
        # path 2048 opens the second batch; each row's history product is
        # a vector-matrix product of its own, as in a batch of one
        cfg = replace(
            self.CFG, n_paths=_PATH_BATCH + 1, interpretation=interpretation
        )
        ens = msslab.run_ensemble(self.BLOCK, self.NOISE, cfg, record_increments=True)
        for i in (0, 1, _PATH_BATCH):
            path = msslab.simulate_path(self.BLOCK, self.NOISE, cfg, path_index=i)
            assert_array_equal(ens.r_paths[i], path.r_increments)
            assert_array_equal(ens.u_paths[i], path.u_increments)

    @pytest.mark.parametrize("midpoint", [False, True])
    def test_killed_rows_go_on_from_rest(self, midpoint):
        # rows 1 and 3 die at steps 40 (first block) and 100 (second
        # block, whose history term holds their earlier inputs).  Rows 2
        # and 4 get zero increments up to those steps and the same ones
        # after: paths at rest that never died, which the dead rows must
        # match bit for bit
        cfg = self.CFG
        rng = np.random.default_rng(5)
        dgam = 0.1 * rng.standard_normal((cfg.n_steps, 5, 2))
        dw = 0.1 * rng.standard_normal((cfg.n_steps, 5, 2))
        deaths = {40: (1, 2), 100: (3, 4)}
        for at, (dead, twin) in deaths.items():
            dgam[:, twin], dw[:, twin] = dgam[:, dead], dw[:, dead]
            dgam[: at + 1, twin] = dw[: at + 1, twin] = 0.0
        step = _STEPS["convolution_sum"](self.BLOCK, cfg, midpoint)
        y = step.reset(5)
        ys = [y]
        for k in range(cfg.n_steps):
            _, _, y, _ = step(k, y, dgam[k], dw[k])
            if k in deaths:
                killed = np.arange(5) == deaths[k][0]
                y[killed] = 0.0
                step.kill(killed, k)
            ys.append(y)
        ys = np.array(ys)
        for at, (dead, twin) in deaths.items():
            assert_array_equal(ys[at + 1 :, dead], ys[at + 1 :, twin])
            assert np.abs(ys[-1, dead]).min() > 0.0
            # and a fresh path started on the later increments agrees to
            # rounding, with its blocks aligned differently
            fresh = _STEPS["convolution_sum"](self.BLOCK, cfg, midpoint)
            y_fresh = fresh.reset(1)
            scale = np.abs(ys[at + 1 :, dead]).max()
            for j in range(cfg.n_steps - at - 1):
                k = at + 1 + j
                _, _, y_fresh, _ = fresh(j, y_fresh, dgam[k, dead : dead + 1], dw[k, dead : dead + 1])
                assert_allclose(y_fresh[0], ys[k + 1, dead], rtol=0, atol=1e-13 * scale)


class TestRecording:
    def test_shapes_and_diagnostics(self):
        cfg = SimulationConfig(dt=0.01, horizon=1.0, n_paths=120, seed=2)
        ens = msslab.run_ensemble(scalar_block(), noise(0.5), cfg, record_increments=True)
        assert ens.r_paths.shape == (120, 100, 1)
        assert ens.u_paths.shape == (120, 100, 1)

    def test_not_recorded_by_default(self):
        cfg = SimulationConfig(dt=0.1, horizon=1.0, n_paths=3, seed=2)
        ens = msslab.run_ensemble(scalar_block(), noise(0.5), cfg)
        assert ens.r_paths is None
        assert ens.u_paths is None

    def test_size_guard(self):
        cfg = SimulationConfig(dt=1e-3, horizon=1.0, n_paths=1_000_000, seed=0)
        with pytest.raises(ValueError, match="GB"):
            msslab.run_ensemble(
                scalar_block(), noise(0.5), cfg, record_increments=True
            )


class TestIndependenceTest:
    def test_needs_enough_paths(self):
        with pytest.raises(InsufficientPaths):
            increment_independence_test(np.zeros((50, 10)))

    def test_lag_bounds(self):
        arr = np.random.default_rng(0).standard_normal((200, 5))
        with pytest.raises(ValueError):
            increment_independence_test(arr, max_lag=0)
        with pytest.raises(ValueError):
            increment_independence_test(arr, max_lag=5)
        with pytest.raises(DimensionMismatch):
            increment_independence_test(np.zeros((200, 5, 1, 1)))

    def test_iid_input_stays_under_bound(self):
        arr = np.random.default_rng(0).standard_normal((10_000, 100))
        report = increment_independence_test(arr, max_lag=10)
        assert report.per_lag.shape == (10,)
        assert report.max_abs_corr == report.per_lag.max()
        assert report.max_abs_corr < 5.0 / math.sqrt(10_000)

    def test_detects_repeated_increments(self):
        rng = np.random.default_rng(9)
        dep = np.repeat(rng.standard_normal((500, 1)), 20, axis=1)
        report = increment_independence_test(dep, max_lag=3)
        assert report.max_abs_corr > 5.0 / math.sqrt(500)

    def test_degenerate_cells_count_as_zero(self):
        report = increment_independence_test(np.zeros((200, 6)), max_lag=2)
        assert report.max_abs_corr == 0.0


class TestOpenLoopTerminalSamples:
    T, DT, P = 2.0, 0.01, 20_000

    def oracle(self, node):
        # exact variance of the discrete convolution of iid Wiener steps
        j = np.arange(1, round(self.T / self.DT) + 1)
        shift = 0.5 if node == "midpoint" else 0.0
        return float(np.sum(np.exp(-2.0 * (j - shift) * self.DT)) * self.DT)

    def test_matches_exact_discrete_variance(self):
        for node in ("left", "midpoint"):
            y = open_loop_terminal_samples(
                scalar_block(), noise(0.0), self.T, self.DT, self.P, 21, node
            )
            target = self.oracle(node)
            se = target * math.sqrt(2.0 / (self.P - 1))
            assert abs(float(np.var(y)) - target) < 4.0 * se

    def test_same_seed_couples_the_nodes(self):
        yl = open_loop_terminal_samples(
            scalar_block(), noise(0.0), self.T, self.DT, self.P, 21, "left"
        )
        ym = open_loop_terminal_samples(
            scalar_block(), noise(0.0), self.T, self.DT, self.P, 21, "midpoint"
        )
        assert np.corrcoef(yl[:, 0], ym[:, 0])[0, 1] > 0.999

    def test_bad_node_name(self):
        with pytest.raises(ValueError):
            open_loop_terminal_samples(
                scalar_block(), noise(0.0), 1.0, 0.1, 10, 0, "right"
            )
