"""Continuous-time LTI forward blocks.

A block is either a state-space triple (A, B, C) with impulse response
M(t) = C e^{At} B, or a uniformly sampled impulse response used when no
realization is available.  Zero initial conditions throughout.

Lyapunov equations A X + X A^T + Q = 0 with Hurwitz A are solved by the
scaled matrix-sign iteration (Roberts 1980, determinant scaling after
Byers 1987): O(n^3) per step on a whole stack of right-hand sides.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadGrid,
    DimensionMismatch,
    NonFinite,
    NonPositiveDt,
    OffGrid,
    RealizationRequired,
    SingularKroneckerSum,
    TooFewSamples,
)

HURWITZ_MARGIN = 1e-9

# Sign iteration: stop once the relative 1-norm step of A_k is below
# LYAPUNOV_STEP_TOL (convergence is quadratic, so the last iterate is
# accurate to about its square); refuse any solution whose relative
# residual exceeds LYAPUNOV_RESIDUAL_TOL, converged or not.
LYAPUNOV_STEP_TOL = 1e-8
LYAPUNOV_MAX_ITER = 50
LYAPUNOV_RESIDUAL_TOL = 1e-12


def _nested_shape(value) -> tuple | None:
    """Shape of nested lists, tuples and arrays; None where siblings differ."""
    if isinstance(value, np.ndarray):
        return value.shape
    if not isinstance(value, (list, tuple)):
        return ()
    shapes = {_nested_shape(item) for item in value}
    if None in shapes or len(shapes) > 1:
        return None
    return (len(value), *shapes.pop()) if shapes else (0,)


def _float_array(value, name: str) -> np.ndarray:
    """np.array(value, dtype=float), refusing ragged nesting and empty
    operands by name, as the config schema's minItems does.

    Raggedness is looked for only after numpy refuses the value, so valid
    input pays nothing; any other ValueError (a non-numeric entry) stands.
    """
    try:
        array = np.array(value, dtype=float)
    except ValueError:
        if _nested_shape(value) is None:
            raise DimensionMismatch(
                f"{name} is ragged: nested lists of unequal length"
            ) from None
        raise
    if array.size == 0:
        raise DimensionMismatch(f"{name} is empty, got shape {array.shape}")
    return array


def _as_matrix(value, name: str) -> np.ndarray:
    mat = _float_array(value, name)
    if mat.ndim != 2:
        raise DimensionMismatch(f"{name} must be a 2-d matrix, got shape {mat.shape}")
    if not np.all(np.isfinite(mat)):
        raise NonFinite(f"{name} contains NaN or infinity")
    return mat


@dataclass(frozen=True)
class LtiSystem:
    """Forward block, in state-space or sampled-impulse-response form.

    Exactly one representation is populated.  Use :func:`make_state_space`
    or :func:`make_sampled` instead of the raw constructor.
    """

    a: np.ndarray | None = None
    b: np.ndarray | None = None
    c: np.ndarray | None = None
    sample_dt: float | None = None
    samples: np.ndarray | None = None

    @property
    def is_state_space(self) -> bool:
        return self.a is not None

    @property
    def n_state(self) -> int:
        if not self.is_state_space:
            raise RealizationRequired("sampled system has no state dimension")
        return self.a.shape[0]

    @property
    def n_in(self) -> int:
        return self.b.shape[1] if self.is_state_space else self.samples.shape[2]

    @property
    def n_out(self) -> int:
        return self.c.shape[0] if self.is_state_space else self.samples.shape[1]


def make_state_space(a, b, c) -> LtiSystem:
    """Build a state-space block, validating shapes and finiteness."""
    a = _as_matrix(a, "A")
    b = _as_matrix(b, "B")
    c = _as_matrix(c, "C")
    n = a.shape[0]
    if a.shape[1] != n:
        raise DimensionMismatch(f"A must be square, got shape {a.shape}")
    if b.shape[0] != n:
        raise DimensionMismatch(
            f"B has {b.shape[0]} rows but A is {n}x{n}"
        )
    if c.shape[1] != n:
        raise DimensionMismatch(
            f"C has {c.shape[1]} columns but A is {n}x{n}"
        )
    return LtiSystem(a=a, b=b, c=c)


def make_sampled(dt: float, values) -> LtiSystem:
    """Build a block from impulse-response samples M(k*dt), k = 0, 1, ...

    ``values`` is a sequence of n_out x n_in matrices on a uniform grid
    starting at t = 0.
    """
    if not np.isfinite(dt):
        raise NonFinite("sample dt is not finite")
    if dt <= 0:
        raise NonPositiveDt(f"sample dt must be positive, got {dt}")
    samples = _float_array(values, "samples")
    if samples.ndim == 1:
        samples = samples[:, None, None]
    if samples.ndim != 3:
        raise DimensionMismatch(
            f"samples must be a sequence of matrices, got shape {samples.shape}"
        )
    if samples.shape[0] < 2:
        raise TooFewSamples(
            f"need at least 2 impulse-response samples, got {samples.shape[0]}"
        )
    if not np.all(np.isfinite(samples)):
        raise NonFinite("impulse-response samples contain NaN or infinity")
    return LtiSystem(sample_dt=float(dt), samples=samples)


def matrix_exponential(a, t: float = 1.0) -> np.ndarray:
    """e^{At} by scaling-and-squaring on a truncated Taylor series.

    Self-contained: scale so the 1-norm is at most 1/2, sum the series to
    machine precision, square back up.  Intended for desk-scale matrices.
    """
    a = _as_matrix(a, "A")
    n = a.shape[0]
    if a.shape[1] != n:
        raise DimensionMismatch(f"A must be square, got shape {a.shape}")
    if not np.isfinite(t):
        raise NonFinite("t is not finite")
    at = a * t
    norm = np.linalg.norm(at, 1)
    if norm == 0.0:
        return np.eye(n)
    n_squarings = max(0, int(math.ceil(math.log2(norm / 0.5))))
    scaled = at / (2.0 ** n_squarings)
    term = np.eye(n)
    total = np.eye(n)
    for k in range(1, 40):
        term = term @ scaled / k
        total = total + term
        if np.linalg.norm(term, 1) <= 1e-17 * np.linalg.norm(total, 1):
            break
    for _ in range(n_squarings):
        total = total @ total
    return total


def impulse_response_grid(sys: LtiSystem, dt: float, count: int) -> np.ndarray:
    """M(k*dt) for k = 0 .. count-1 as a (count, n_out, n_in) stack.

    A realization doubles the stack of e^{A k dt} in binary steps.  For
    sampled systems dt must be an integer multiple of the sample spacing
    and the horizon must not overrun the stored samples.
    """
    if dt <= 0:
        raise NonPositiveDt(f"dt must be positive, got {dt}")
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    if sys.is_state_space:
        n = sys.n_state
        stack = np.empty((count, n, n))
        stack[0] = np.eye(n)
        if count > 1:
            stack[1] = matrix_exponential(sys.a, dt)
        filled = min(count, 2)
        while filled < count:
            take = min(filled, count - filled)
            pivot = stack[filled - 1] @ stack[1]
            stack[filled : filled + take] = stack[:take] @ pivot
            filled += take
        return np.matmul(sys.c, stack @ sys.b)
    ratio = dt / sys.sample_dt
    stride = int(round(ratio))
    if stride < 1 or abs(ratio - stride) > 1e-9 * max(1.0, ratio):
        raise OffGrid(
            f"grid dt={dt} is not a multiple of the sample dt={sys.sample_dt}"
        )
    if (count - 1) * stride >= sys.samples.shape[0]:
        raise OffGrid(
            f"grid horizon {(count - 1) * dt} overruns the sampled horizon "
            f"{(sys.samples.shape[0] - 1) * sys.sample_dt}"
        )
    return sys.samples[:: stride][:count].copy()


# The most steps or nodes a grid may have: its length must index an array.
_MAX_STEPS = np.iinfo(np.intp).max - 1

# The most bytes the arrays kept for a whole grid may take: a run's
# recorded increments, a path or an ensemble's per-time arrays, or a
# covariance trajectory's three rate arrays.
_MAX_GRID_BYTES = 2_000_000_000


def _check_grid_memory(what: str, n_steps: int, floats_per_time: int) -> None:
    """Refuse n_steps + 1 times of floats_per_time floats past 2 GB."""
    total = (n_steps + 1) * floats_per_time * 8
    if total > _MAX_GRID_BYTES:
        raise BadGrid(f"{what} for {n_steps} steps need {total / 1e9:.1f} GB")


def _grid_steps(dt: float, horizon: float) -> int:
    """The number of dt steps that make up horizon.

    Raises BadGrid unless dt and horizon are positive and finite, the
    count fits _MAX_STEPS and horizon is a whole number of steps.
    """
    if not (0 < dt < math.inf and 0 < horizon < math.inf):
        raise BadGrid(
            f"need positive finite dt and horizon, got dt={dt}, horizon={horizon}"
        )
    if not horizon / dt <= _MAX_STEPS:
        raise BadGrid(f"horizon {horizon} holds too many steps of dt={dt}")
    steps = round(horizon / dt)
    if steps < 1 or abs(steps * dt - horizon) > 1e-6 * dt:
        raise BadGrid(
            f"horizon {horizon} is not a whole number of steps of dt={dt}"
        )
    return steps


# Steps per block of the blocked convolution sums (path simulation and
# covariance trajectories), and the most entries a lag-Hankel matrix may
# hold (8 MB): longer histories and wider kernels take shorter blocks.
_BLOCK = 64
_HANKEL_ENTRIES = 1 << 20


def _hankel_block(n_steps: int, width: int) -> int:
    """Block length for an n_steps grid of kernels with width entries each."""
    return max(1, min(_BLOCK, n_steps, _HANKEL_ENTRIES // ((n_steps + 1) * width)))


def _lag_hankel(kernels: np.ndarray, size: int) -> np.ndarray:
    """The lag-Hankel matrix of an (N + 1, q_out, q_in) kernel stack.

    kernels[l] maps an input to its contribution l steps later.  Returns
    the ((N + 1) q_in, size q_out) matrix H[(i, a), (m, b)] = kernels[N +
    1 + m - i][b, a], zero past lag N: row block i carries an input to
    size consecutive outputs, the first N + 1 - i steps later.  So for a
    block of outputs s + 1 .. s + size, the rows from (N - s) q_in on
    take the flattened inputs x_0, x_1, .. to their history term, one
    product for every block start s.
    """
    count, q_out, q_in = kernels.shape
    # window i of the flipped, zero-padded stack holds lags N + size - i
    # down to N + 1 - i; reversed, they are row block i of H
    flipped = np.concatenate([np.zeros((size, q_out, q_in)), kernels[::-1]])
    windows = np.lib.stride_tricks.sliding_window_view(flipped, size, axis=0)
    hankel = windows[:count, :, :, ::-1].transpose(0, 2, 3, 1)
    # a C-ordered copy, so each row slice is a BLAS operand
    return np.ascontiguousarray(hankel).reshape(-1, size * q_out)


def is_hurwitz(a, margin: float = HURWITZ_MARGIN) -> bool:
    """True when every eigenvalue has real part < -margin.

    Eigenvalues inside the margin count as non-Hurwitz.
    """
    a = _as_matrix(a, "A")
    return bool(np.all(np.linalg.eigvals(a).real < -margin))


def _lyapunov_sign_stack(a: np.ndarray, q: np.ndarray) -> np.ndarray:
    """Solve A X_m + X_m A^T + Q_m = 0 for a (m, n, n) stack Q, A Hurwitz.

    Scaled sign iteration: with mu_k = |det A_k|^(-1/n),
    A_{k+1} = (mu_k A_k + (mu_k A_k)^{-1})/2 tends to -I and
    Q_{k+1} = (mu_k Q_k + A_k^{-1} Q_k A_k^{-T}/mu_k)/2 to 2 X.  Raises
    SingularKroneckerSum when an iterate is singular or the result fails
    the residual check.
    """
    n = a.shape[0]
    a_k, q_k = a, q
    try:
        for _ in range(LYAPUNOV_MAX_ITER):
            mu = math.exp(-np.linalg.slogdet(a_k).logabsdet / n)
            inv = np.linalg.inv(a_k)
            a_next = 0.5 * (mu * a_k + inv / mu)
            q_k = 0.5 * (mu * q_k + (inv @ q_k @ inv.T) / mu)
            step = np.linalg.norm(a_next - a_k, 1)
            a_k = a_next
            if step <= LYAPUNOV_STEP_TOL * np.linalg.norm(a_k, 1):
                break
    except (np.linalg.LinAlgError, OverflowError) as exc:
        raise SingularKroneckerSum(
            f"sign iteration for the Lyapunov equation hit a singular iterate: {exc}"
        ) from exc
    x = 0.5 * q_k
    residual = np.linalg.norm(a @ x + x @ a.T + q, 1, axis=(1, 2))
    scale = 2.0 * np.linalg.norm(a, 1) * np.linalg.norm(x, 1, axis=(1, 2))
    scale += np.linalg.norm(q, 1, axis=(1, 2))
    if not np.all(residual <= LYAPUNOV_RESIDUAL_TOL * scale):
        worst = float(np.max(residual / np.where(scale > 0.0, scale, 1.0)))
        raise SingularKroneckerSum(
            f"Lyapunov solve refused: relative residual {worst:.3e} "
            f"exceeds {LYAPUNOV_RESIDUAL_TOL:.0e}"
        )
    return x


def h2_norm_squared(sys: LtiSystem) -> float:
    """Squared H2 norm of a state-space block; math.inf when A is not Hurwitz.

    The infinite marker is data, not an error: the stability theorem
    consumes it as condition 1.  Raises SingularKroneckerSum when the
    Lyapunov solve fails its residual check.
    """
    if not sys.is_state_space:
        raise RealizationRequired("H2 norm needs a state-space realization")
    if not is_hurwitz(sys.a):
        return math.inf
    x = _lyapunov_sign_stack(sys.a, (sys.b @ sys.b.T)[None])[0]
    return float(np.trace(sys.c @ x @ sys.c.T))

