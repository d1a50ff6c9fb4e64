"""White-noise loop specification and increment sampling.

The loop carries two independent sources: the multiplicative gain vector
(covariance rate gamma_cov, applied through a diagonal feedback mask) and
the additive drive (covariance rate w_cov).  Increments over a step dt are
zero-mean Gaussians with covariance cov*dt.

Randomness is counter-based: every stream is a Philox generator keyed by
(seed, stream index), so draws are reproducible, order-independent and
safe to parallelize without threading mutable generator state around.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatch, NonFinite, NotPsd, NotSymmetric
from .system import _float_array

SYMMETRY_TOL = 1e-12


def _psd_factor(cov, name: str) -> tuple[np.ndarray, np.ndarray]:
    """Validate a covariance and return (copy, symmetric square root).

    Eigendecomposition rather than Cholesky: rate matrices are routinely
    rank-deficient (perfectly correlated or absent channels) and Cholesky
    would reject them.  Eigenvalues in [-eps_psd, 0) are clamped to zero.
    """
    mat = _float_array(cov, name)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise DimensionMismatch(f"{name} must be square, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise NonFinite(f"{name} contains NaN or infinity")
    scale = max(1.0, float(np.abs(mat).max()))
    if np.abs(mat - mat.T).max() > SYMMETRY_TOL * scale:
        raise NotSymmetric(
            f"{name} is asymmetric beyond {SYMMETRY_TOL} (relative)"
        )
    mat = 0.5 * (mat + mat.T)
    eigvals, eigvecs = np.linalg.eigh(mat)
    eps_psd = 1e-10 * max(float(eigvals[-1]), 1.0)
    if eigvals[0] < -eps_psd:
        raise NotPsd(
            f"{name} has eigenvalue {eigvals[0]:.3e} below -{eps_psd:.3e}"
        )
    clamped = np.clip(eigvals, 0.0, None)
    factor = (eigvecs * np.sqrt(clamped)) @ eigvecs.T
    return mat, factor


@dataclass(frozen=True)
class NoiseSpec:
    """Validated noise covariance rates with precomputed factors.

    gamma_factor @ gamma_factor.T == gamma_cov (likewise for w) within
    1e-10 Frobenius.
    """

    gamma_cov: np.ndarray
    w_cov: np.ndarray
    gamma_factor: np.ndarray
    w_factor: np.ndarray

    @property
    def n_gains(self) -> int:
        return self.gamma_cov.shape[0]

    @property
    def n_drive(self) -> int:
        return self.w_cov.shape[0]


def validate_noise(gamma_cov, w_cov) -> NoiseSpec:
    """Check symmetry/PSD-ness of both covariance rates and factor them."""
    gamma_cov, gamma_factor = _psd_factor(gamma_cov, "gamma_cov")
    w_cov, w_factor = _psd_factor(w_cov, "w_cov")
    return NoiseSpec(
        gamma_cov=gamma_cov,
        w_cov=w_cov,
        gamma_factor=gamma_factor,
        w_factor=w_factor,
    )


def _philox_key(seed: int, stream: int) -> np.ndarray:
    return np.array([np.uint64(operator.index(seed) & 0xFFFFFFFFFFFFFFFF), np.uint64(stream)], dtype=np.uint64)


def philox_generator(seed: int, stream: int) -> np.random.Generator:
    """Generator for one named stream of a seed (counter-based Philox)."""
    return np.random.Generator(np.random.Philox(key=_philox_key(seed, stream)))


def _philox_state(seed: int, stream: int) -> dict:
    """The state of philox_generator(seed, stream) before its first draw.

    Assigning it to the bit generator of any Philox Generator re-keys
    that generator to the stream: counter zero, the stream's key and an
    empty output buffer.  This costs a few microseconds, where building a
    Generator costs tens (Philox seeds a SeedSequence from OS entropy
    before the key overrides it), so batches of paths share one.
    """
    return {
        "bit_generator": "Philox",
        "state": {"counter": np.zeros(4, np.uint64), "key": _philox_key(seed, stream)},
        "buffer": np.zeros(4, np.uint64),
        "buffer_pos": 4,
        "has_uint32": 0,
        "uinteger": 0,
    }


def draw_increment_chunk(
    spec: NoiseSpec, dt: float, n_steps: int, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Blocks of increments for n_steps steps from one path's generator.

    Draw order (gain block first, then drive block) is part of the
    reproducibility contract shared by single-path and ensemble runs.
    """
    root_dt = np.sqrt(dt)
    # np.dot, not matmul: matmul takes numpy's own loop for one channel
    dgamma = np.dot(gen.standard_normal((n_steps, spec.n_gains)), spec.gamma_factor.T) * root_dt
    dw = np.dot(gen.standard_normal((n_steps, spec.n_drive)), spec.w_factor.T) * root_dt
    return dgamma, dw
