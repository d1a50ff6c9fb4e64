"""Loop gain operator of a white-noise feedback loop.

For a forward block with impulse response M and gain covariance rate
gamma_cov, the operator maps an input covariance rate X to

    L(X) = gamma_cov o integral_0^inf M(tau) X M*(tau) dtau

(o is the entrywise product; the mask is what a diagonal multiplicative
gain does to a covariance).  Mean-square stability of the loop holds iff
the equivalent forward block has finite H2 norm and rho(L) < 1.

Ito loops use M directly.  Stratonovich loops are converted first: the
equivalent Ito block has the drift correction A + B((CB) o gamma_cov)C/2,
and the operator integrates that block's kernel.

:func:`make_lgo` builds the unmasked integral once, as a p^2 x p^2
matrix S in the column-major vec basis (vec of the integral = S vec X),
and caches it on the handle; every apply, the dense operator matrix,
the steady-state solve and the H2 norm (trace of S vec I) read that one
matrix.  Two backends build S.  The Lyapunov backend (exact, needs a
Hurwitz realization) solves A X_cd + X_cd A^T + b_c b_d^T = 0 for all
p^2 channel pairs at once by the scaled matrix-sign iteration, O(n^3 p^2)
with a residual check, and reads column c + d p of S as vec(C X_cd C^T).
Trapezoid quadrature over a finite horizon also covers sampled kernels
and non-Hurwitz blocks.  The spectral radius has two routes over S:
power iteration and dense eigenvalues.
"""

from __future__ import annotations

import math
import operator
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadQuadrature,
    DimensionMismatch,
    NonFinite,
    NotHurwitz,
    RealizationRequired,
    StratonovichNeedsRealization,
)
from .noise import NoiseSpec, _psd_factor
from .system import (
    _MAX_STEPS,
    LtiSystem,
    _lyapunov_sign_stack,
    impulse_response_grid,
    is_hurwitz,
    make_state_space,
)

INTERPRETATIONS = ("ito", "stratonovich")

DEFAULT_QUAD_NODES = 40000
DEFAULT_DECAY_EXPONENT = 40.0


def _check_interpretation(interpretation: str) -> str:
    if interpretation not in INTERPRETATIONS:
        raise ValueError(
            f"interpretation must be one of {INTERPRETATIONS}, got {interpretation!r}"
        )
    return interpretation


def _integral(name: str, value) -> int:
    """value as a Python int.  An integral float, as JSON may write an
    integer, is taken; any other non-integer is refused."""
    if isinstance(value, float) and value.is_integer():
        return int(value)
    try:
        return operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None


def _check_loop(sys: LtiSystem, noise) -> np.ndarray:
    """The gain covariance of a loop around sys, from a NoiseSpec or a
    bare gamma_cov (validated here).  The block must be square and each
    covariance sized to its channels; a mismatch names the wrong one."""
    if isinstance(noise, NoiseSpec):
        gamma_cov, w_cov = noise.gamma_cov, noise.w_cov
    else:
        gamma_cov, _ = _psd_factor(noise, "gamma_cov")
        w_cov = None
    if sys.n_out != sys.n_in:
        raise DimensionMismatch(
            f"feedback loop needs a square block, got {sys.n_out} outputs "
            f"and {sys.n_in} inputs"
        )
    if len(gamma_cov) != sys.n_in:
        raise DimensionMismatch(
            f"gamma_cov is {len(gamma_cov)}x{len(gamma_cov)} but the block "
            f"has {sys.n_in} loop channels"
        )
    if w_cov is not None and len(w_cov) != sys.n_in:
        raise DimensionMismatch(
            f"w_cov is {len(w_cov)}x{len(w_cov)} but the additive "
            f"drive shares the {sys.n_in}-channel loop input"
        )
    return gamma_cov


@dataclass(frozen=True)
class LyapunovBackend:
    """Exact integral through the Lyapunov equation of the realization."""


@dataclass(frozen=True)
class QuadratureBackend:
    """Trapezoid rule on [0, horizon] with spacing dt.

    Either field may be None: the horizon defaults to 40 decay constants
    of the kernel's slowest mode (the full stored horizon for sampled
    kernels) and dt to horizon/40000 (the sample spacing).
    """

    horizon: float | None = None
    dt: float | None = None


def stratonovich_correction_gain(sys: LtiSystem, gamma_cov) -> np.ndarray:
    """Feedback gain (M(0) o gamma_cov)/2 absorbed by the conversion."""
    return _correction_gain(sys, _check_loop(sys, gamma_cov))


def _correction_gain(sys: LtiSystem, gamma_cov: np.ndarray) -> np.ndarray:
    m0 = sys.c @ sys.b if sys.is_state_space else sys.samples[0]
    return 0.5 * (m0 * gamma_cov)


def equivalent_ito_system(sys: LtiSystem, gamma_cov) -> LtiSystem:
    """Forward block whose Ito loop matches the Stratonovich loop of sys.

    The loop closes the correction gain around the realization, shifting
    the drift: (A + B G C, B, C) with G = (M(0) o gamma_cov)/2.  When
    M(0) = CB = 0 the conversion is the identity.
    """
    return _ito_block(sys, _check_loop(sys, gamma_cov), "stratonovich")


def _ito_block(sys: LtiSystem, gamma_cov: np.ndarray, interpretation: str) -> LtiSystem:
    """The block whose Ito loop is the loop of sys under interpretation,
    for a gamma_cov that _check_loop has passed: sys itself under Ito,
    equivalent_ito_system under Stratonovich."""
    if interpretation == "ito":
        return sys
    if not sys.is_state_space:
        raise StratonovichNeedsRealization(
            "Stratonovich conversion needs a state-space realization"
        )
    gain = _correction_gain(sys, gamma_cov)
    return make_state_space(sys.a + sys.b @ gain @ sys.c, sys.b, sys.c)


def _quadrature_grid(block: LtiSystem, backend: QuadratureBackend):
    """(count, dt) of the trapezoid rule: the backend's horizon and dt
    where set, else a sampled kernel's stored grid, or 40 decay constants
    of a realization's slowest mode in 40000 steps.  BadQuadrature unless
    both are positive and finite, with 2 to _MAX_STEPS steps."""
    horizon, dt = backend.horizon, backend.dt
    if horizon is None:
        if block.is_state_space:
            slowest = float(np.max(np.linalg.eigvals(block.a).real))
            horizon = DEFAULT_DECAY_EXPONENT / max(abs(slowest), 1e-3)
        else:
            horizon = (block.samples.shape[0] - 1) * block.sample_dt
    if dt is None:
        dt = horizon / DEFAULT_QUAD_NODES if block.is_state_space else block.sample_dt
    if not (0 < dt < math.inf and 0 < horizon < math.inf):
        raise BadQuadrature(
            f"quadrature needs positive finite horizon and dt, got "
            f"horizon={horizon}, dt={dt}"
        )
    if not horizon / dt <= _MAX_STEPS:
        raise BadQuadrature(
            f"quadrature horizon {horizon} holds too many steps of dt={dt}"
        )
    count = round(horizon / dt)
    if count < 2:
        raise BadQuadrature(f"quadrature grid has {count} steps; need at least 2")
    return count, dt


def _lyapunov_matrix(block: LtiSystem) -> np.ndarray:
    """S[:, c + d p] = vec(C X_cd C^T), where A X_cd + X_cd A^T + b_c b_d^T
    = 0; one sign-iteration solve on the (p^2, n, n) stack of b_c b_d^T."""
    if not is_hurwitz(block.a):
        raise NotHurwitz(
            "equivalent block is not Hurwitz; the untruncated operator "
            "matrix does not exist"
        )
    n, p = block.b.shape
    rhs = np.einsum("ic,jd->dcij", block.b, block.b).reshape(p * p, n, n)
    out = block.c @ _lyapunov_sign_stack(block.a, rhs) @ block.c.T
    return out.transpose(0, 2, 1).reshape(p * p, p * p).T


def _quadrature_matrix(kernel: np.ndarray, weights: np.ndarray) -> np.ndarray:
    """S = sum_k w_k (M_k (x) M_k) as one Gram product of the flattened
    kernel stack, O(K p^4), without forming any Kronecker product."""
    count, p, _ = kernel.shape
    flat = kernel.reshape(count, p * p)
    gram = (flat * weights[:, None]).T @ flat
    # gram[(a, c), (b, d)] = sum_k w_k M_k[a, c] M_k[b, d] is the entry of
    # S at output vec index a + b p and input vec index c + d p.
    return gram.reshape(p, p, p, p).transpose(2, 0, 3, 1).reshape(p * p, p * p)


@dataclass(frozen=True)
class LoopGainHandle:
    """Prepared operator: equivalent block, mask, and operator matrix.

    ``block`` is the kernel-bearing system (the conversion already
    applied for Stratonovich loops).  ``matrix`` is the unmasked
    p^2 x p^2 operator S in the column-major vec basis, built once by
    the backend: vec(integral of M X M*) = S vec(X).
    """

    block: LtiSystem
    gamma_cov: np.ndarray
    backend: LyapunovBackend | QuadratureBackend
    matrix: np.ndarray

    @property
    def n_loop(self) -> int:
        return self.gamma_cov.shape[0]

    @property
    def h2_squared(self) -> float:
        """trace(mat(S vec I)), the trace of the integral of M M*: the
        squared H2 norm of the block (horizon-truncated under quadrature).
        The trace sums the entries of S at vec indices a + a p."""
        p = self.n_loop
        return float(self.matrix[:: p + 1, :: p + 1].sum())


def make_lgo(
    sys: LtiSystem,
    gamma_cov,
    interpretation: str = "ito",
    backend: LyapunovBackend | QuadratureBackend | None = None,
) -> LoopGainHandle:
    """Prepare the loop gain operator: build and cache its matrix.

    gamma_cov is a gain covariance, validated here, or a checked
    NoiseSpec.  The Lyapunov backend raises NotHurwitz for a
    non-Hurwitz equivalent block and SingularKroneckerSum when its
    Lyapunov solve fails the residual check.
    """
    _check_interpretation(interpretation)
    gamma_cov = _check_loop(sys, gamma_cov)
    block = _ito_block(sys, gamma_cov, interpretation)
    if backend is None:
        backend = LyapunovBackend()
    if isinstance(backend, QuadratureBackend):
        count, dt = _quadrature_grid(block, backend)
        kernel = impulse_response_grid(block, dt, count + 1)
        weights = np.full(count + 1, dt)
        weights[0] = weights[-1] = 0.5 * dt
        matrix = _quadrature_matrix(kernel, weights)
        backend = QuadratureBackend(horizon=count * dt, dt=dt)
    elif isinstance(backend, LyapunovBackend):
        if not block.is_state_space:
            raise RealizationRequired(
                "Lyapunov backend needs a state-space realization; "
                "use the quadrature backend for sampled kernels"
            )
        matrix = _lyapunov_matrix(block)
    else:
        raise TypeError(f"unknown backend {backend!r}")
    return LoopGainHandle(
        block=block,
        gamma_cov=gamma_cov,
        backend=backend,
        matrix=matrix,
    )


def _check_operand(handle: LoopGainHandle, x) -> np.ndarray:
    x = np.asarray(x, dtype=float)
    n = handle.n_loop
    if x.shape != (n, n):
        raise DimensionMismatch(f"operand has shape {x.shape}, expected {(n, n)}")
    if not np.all(np.isfinite(x)):
        raise NonFinite("operand contains NaN or infinity")
    return x


def covariance_sandwich(handle: LoopGainHandle, x) -> np.ndarray:
    """The unmasked integral of M(tau) X M*(tau): the output covariance
    rate produced by input covariance rate X through the block."""
    x = _check_operand(handle, x)
    n = handle.n_loop
    return (handle.matrix @ x.flatten(order="F")).reshape((n, n), order="F")


def apply_lgo(handle: LoopGainHandle, x) -> np.ndarray:
    """L(X): the gamma_cov mask of the handle's matrix applied to X."""
    return handle.gamma_cov * covariance_sandwich(handle, x)


@dataclass(frozen=True)
class SpectralResult:
    """Power-iteration output.

    ``eigen_matrix`` is the unit-Frobenius symmetric iterate; for an
    irreducible mask it is the worst-case input covariance shape.  When
    ``converged`` is false the estimate is the best available after
    max_iter (no exception: callers decide).
    """

    rho: float
    eigen_matrix: np.ndarray
    iterations: int
    converged: bool


# Below this norm the plain sum of squares may hold subnormal squares
# whose rounding shows in the result.
_NORM_FLOOR = math.sqrt(np.finfo(float).tiny / np.finfo(float).eps)


def _frobenius(m: np.ndarray) -> float:
    """Frobenius norm, rescaled by the largest entry when the plain sum of
    squares overflows or underflows; NaN or infinity only for non-finite
    entries."""
    norm = float(np.linalg.norm(m))
    if math.isinf(norm) or norm < _NORM_FLOOR:
        peak = float(np.abs(m).max())
        if peak > 0.0:
            norm = peak * float(np.linalg.norm(m / peak))
    return norm


# A sum of squares past the float range is expected for huge gains;
# _frobenius rescales it, and a non-finite iterate raises NonFinite.
@np.errstate(over="ignore", invalid="ignore")
def spectral_radius_power(
    handle: LoopGainHandle, tol: float = 1e-10, max_iter: int = 10000
) -> SpectralResult:
    """Spectral radius of the loop gain operator by power iteration.

    Iterates X <- L(X)/||L(X)||_F from X = I/||I||_F, symmetrizing each
    step; the estimate is the Frobenius inner product <L(X), X>.  Stops
    when successive estimates agree within tol*max(1, rho) AND the
    residual ||L(X) - rho X||_F meets the same bound (the residual check
    keeps the reported eigen-matrix honest, not just the eigenvalue).
    Raises NonFinite when an iterate of the loop gain operator is not finite.
    """
    n = handle.n_loop
    matrix, gamma_cov = handle.matrix, handle.gamma_cov
    x = np.eye(n) / math.sqrt(n)
    rho_prev = None
    rho = 0.0
    for iteration in range(1, max_iter + 1):
        # apply_lgo inlined: x stays finite, so its operand check is moot
        lx = gamma_cov * (matrix @ x.flatten(order="F")).reshape((n, n), order="F")
        lx = 0.5 * (lx + lx.T)
        rho = float(np.tensordot(lx, x))
        norm_lx = _frobenius(lx)
        if not math.isfinite(norm_lx):
            raise NonFinite(
                f"loop gain operator iterate contains NaN or infinity at "
                f"power iteration {iteration}"
            )
        if norm_lx == 0.0:
            return SpectralResult(
                rho=0.0, eigen_matrix=x, iterations=iteration, converged=True
            )
        scale = tol * max(1.0, abs(rho))
        if (
            rho_prev is not None
            and abs(rho - rho_prev) <= scale
            and _frobenius(lx - rho * x) <= scale
        ):
            return SpectralResult(
                rho=rho, eigen_matrix=x, iterations=iteration, converged=True
            )
        rho_prev = rho
        x = lx / norm_lx
    return SpectralResult(
        rho=rho, eigen_matrix=x, iterations=max_iter, converged=False
    )


def lgo_matrix_kronecker(
    sys: LtiSystem, gamma_cov, interpretation: str = "ito"
) -> np.ndarray:
    """Dense matrix of the operator in the column-major vec basis.

    K = Diag(vec gamma_cov) (C (x) C) (-(A_k (x) I + I (x) A_k))^{-1} (B (x) B)
    so that vec(L(X)) = K vec(X): the Lyapunov handle's matrix, masked.
    Raises RealizationRequired for a sampled kernel and NotHurwitz when
    the equivalent block is not Hurwitz.
    """
    handle = make_lgo(sys, gamma_cov, interpretation, LyapunovBackend())
    return lgo_matrix_apply(handle)


def lgo_matrix_apply(handle: LoopGainHandle) -> np.ndarray:
    """Dense operator matrix Diag(vec gamma_cov) S of a prepared handle,
    for either backend; the steady-state solve reads it."""
    return handle.gamma_cov.flatten(order="F")[:, None] * handle.matrix


def spectral_radius_dense(k_matrix) -> float:
    """Largest eigenvalue magnitude of a dense operator matrix."""
    k_matrix = np.asarray(k_matrix, dtype=float)
    if k_matrix.ndim != 2 or k_matrix.shape[0] != k_matrix.shape[1]:
        raise DimensionMismatch(
            f"operator matrix must be square, got shape {k_matrix.shape}"
        )
    if not np.all(np.isfinite(k_matrix)):
        raise NonFinite("operator matrix contains NaN or infinity")
    return float(np.abs(np.linalg.eigvals(k_matrix)).max())
