"""Noise validation and the reproducible increment streams."""

import numpy as np
import pytest
from numpy.testing import assert_allclose, assert_array_equal

import msslab
from msslab import DimensionMismatch, NotPsd, NotSymmetric
from msslab.noise import _philox_state


class TestValidateNoise:
    def test_factor_squares_back(self):
        gamma = np.array([[2.0, 1.0], [1.0, 1.0]])
        w = np.array([[1.0, 0.0], [0.0, 3.0]])
        spec = msslab.validate_noise(gamma, w)
        assert_allclose(spec.gamma_factor @ spec.gamma_factor.T, gamma, atol=1e-12)
        assert_allclose(spec.w_factor @ spec.w_factor.T, w, atol=1e-12)
        assert (spec.n_gains, spec.n_drive) == (2, 2)

    def test_singular_covariance_ok(self):
        # rank one: exact zero eigenvalue must pass
        gamma = np.array([[1.0, 1.0], [1.0, 1.0]])
        spec = msslab.validate_noise(gamma, np.eye(2))
        assert_allclose(spec.gamma_factor @ spec.gamma_factor.T, gamma, atol=1e-12)

    def test_tiny_negative_eigenvalue_clamped(self):
        gamma = np.array([[1.0, 1.0 + 1e-13], [1.0 + 1e-13, 1.0]])
        spec = msslab.validate_noise(gamma, np.eye(2))
        eigs = np.linalg.eigvalsh(spec.gamma_factor @ spec.gamma_factor.T)
        assert eigs.min() >= 0.0

    def test_rejects_indefinite(self):
        with pytest.raises(NotPsd):
            msslab.validate_noise([[1.0, 2.0], [2.0, 1.0]], np.eye(2))

    def test_rejects_asymmetric(self):
        with pytest.raises(NotSymmetric):
            msslab.validate_noise([[1.0, 0.1], [0.0, 1.0]], np.eye(2))

    @pytest.mark.parametrize(
        "operand, args",
        [
            ("gamma_cov", ([[0.5], [0.1, 0.2]], [[1.0]])),
            ("w_cov", ([[0.5]], [[1.0, 0.0], [0.0]])),
        ],
    )
    def test_ragged_covariance_names_the_operand(self, operand, args):
        with pytest.raises(DimensionMismatch, match=f"^{operand} is ragged"):
            msslab.validate_noise(*args)

    @pytest.mark.parametrize(
        "operand, args",
        [
            ("gamma_cov", (np.zeros((0, 0)), np.zeros((0, 0)))),
            ("w_cov", ([[0.5]], np.zeros((0, 0)))),
        ],
    )
    def test_empty_covariance_names_the_operand(self, operand, args):
        with pytest.raises(DimensionMismatch, match=f"^{operand} is empty"):
            msslab.validate_noise(*args)

    def test_zero_gain_covariance_ok(self):
        spec = msslab.validate_noise([[0.0]], [[1.0]])
        assert_array_equal(spec.gamma_factor, [[0.0]])


class TestStreams:
    def test_philox_deterministic(self):
        a = msslab.philox_generator(42, 7).standard_normal(16)
        b = msslab.philox_generator(42, 7).standard_normal(16)
        assert_array_equal(a, b)

    def test_philox_streams_differ(self):
        a = msslab.philox_generator(42, 0).standard_normal(16)
        b = msslab.philox_generator(42, 1).standard_normal(16)
        c = msslab.philox_generator(43, 0).standard_normal(16)
        assert not np.array_equal(a, b)
        assert not np.array_equal(a, c)

    def test_numpy_integer_seeds_key_like_ints(self):
        for seed in (np.int64(-1), np.int64(3), np.uint64(2**64 - 1)):
            a = msslab.philox_generator(seed, 5).standard_normal(8)
            b = msslab.philox_generator(int(seed), 5).standard_normal(8)
            assert_array_equal(a, b)

    def test_chunk_reproducible(self):
        spec = msslab.validate_noise([[1.0, 0.5], [0.5, 1.0]], np.eye(2))
        gen = msslab.philox_generator(9, 0)
        dg_a, dw_a = msslab.draw_increment_chunk(spec, 0.01, 64, gen)
        gen = msslab.philox_generator(9, 0)
        dg_b, dw_b = msslab.draw_increment_chunk(spec, 0.01, 64, gen)
        assert_array_equal(dg_a, dg_b)
        assert_array_equal(dw_a, dw_b)
        assert dg_a.shape == (64, 2)
        assert dw_a.shape == (64, 2)

    def test_empirical_covariance(self):
        gamma = np.array([[2.0, 1.0], [1.0, 1.0]])
        w = np.array([[0.5]])
        # rectangular loop specs are fine at this layer
        spec = msslab.NoiseSpec(
            gamma_cov=gamma,
            w_cov=w,
            gamma_factor=msslab.validate_noise(gamma, np.eye(2)).gamma_factor,
            w_factor=np.sqrt(w),
        )
        dt = 0.04
        gen = msslab.philox_generator(1234, 0)
        dg, dw = msslab.draw_increment_chunk(spec, dt, 1_000_000, gen)
        sample_gamma = dg.T @ dg / len(dg)
        assert_allclose(sample_gamma, gamma * dt, rtol=7e-3, atol=7e-3 * dt)
        sample_w = (dw[:, 0] @ dw[:, 0]) / len(dw)
        assert_allclose(sample_w, 0.5 * dt, rtol=7e-3)

    def test_increments_independent_of_chunking_constant(self):
        # the documented contract: per chunk, the gain block is drawn
        # before the drive block
        spec = msslab.validate_noise([[1.0]], [[1.0]])
        gen = msslab.philox_generator(3, 0)
        dg, dw = msslab.draw_increment_chunk(spec, 1.0, 4, gen)
        raw = msslab.philox_generator(3, 0).standard_normal(8)
        assert_allclose(dg[:, 0], raw[:4])
        assert_allclose(dw[:, 0], raw[4:])

    @pytest.mark.parametrize("seed", [0, -1, 2**64 - 1])
    def test_rekeyed_generator_replays_each_stream(self, seed):
        # one Generator re-keyed stream by stream, as an ensemble batch
        # draws, after an odd-length draw on another stream that leaves a
        # part-used output buffer and a spare 32-bit word behind
        gen = msslab.philox_generator(12345, 99)
        gen.random(3)
        gen.integers(0, 1000, size=3, dtype=np.int32)
        left = gen.bit_generator.state
        assert left["buffer_pos"] != 4 and left["has_uint32"] == 1
        for stream in (0, 1, 2049):
            gen.bit_generator.state = _philox_state(seed, stream)
            fresh = msslab.philox_generator(seed, stream)
            for draw in (
                # the full range returns raw 32-bit words, a stale one too
                lambda g: g.integers(0, 2**32, size=5, dtype=np.uint32),
                lambda g: g.standard_normal(7),
                lambda g: g.random(3),
            ):
                assert_array_equal(draw(gen), draw(fresh))
