"""Mean-square stability verdicts and second-moment dynamics.

The loop closes u = w + r around the forward block, where r is the block
output masked by the multiplicative gain.  The covariance rate of u then
satisfies the fixed point U = W + L(U); the loop is mean-square stable
iff the (equivalent) forward block has a finite H2 norm and the loop
gain operator has spectral radius strictly below one.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import (
    BadGrid,
    NonFinite,
    NotHurwitz,
    SingularFixedPoint,
)
from .loopgain import (
    LoopGainHandle,
    LyapunovBackend,
    QuadratureBackend,
    SpectralResult,
    _check_interpretation,
    _check_loop_noise,
    covariance_sandwich,
    equivalent_ito_system,
    lgo_matrix_apply,
    make_lgo,
    spectral_radius_power,
)
from .noise import NoiseSpec
from .system import (
    _BLOCK,
    LtiSystem,
    _hankel_block,
    _lag_hankel,
    impulse_response_grid,
    matrix_exponential,
)


@dataclass(frozen=True)
class AnalysisOptions:
    """Tunables for the verdict computation; defaults suit desk scale."""

    power_tol: float = 1e-10
    power_max_iter: int = 10000
    quad_horizon: float | None = None
    quad_dt: float | None = None

    def __post_init__(self):
        if not self.power_tol > 0:
            raise ValueError(f"power_tol must be positive, got {self.power_tol}")
        if self.power_max_iter < 1:
            raise ValueError(
                f"power_max_iter must be >= 1, got {self.power_max_iter}"
            )
        for name in ("quad_horizon", "quad_dt"):
            value = getattr(self, name)
            if value is not None and not value > 0:
                raise ValueError(f"{name} must be positive, got {value}")


@dataclass(frozen=True)
class SteadyState:
    """Stationary covariance rates of the closed loop.

    u_bar = w_cov + r_bar is the loop input rate, r_bar the masked
    feedback rate, y_bar the unmasked block output rate.
    """

    u_bar: np.ndarray
    r_bar: np.ndarray
    y_bar: np.ndarray


@dataclass(frozen=True)
class MssVerdict:
    """Both stability conditions plus supporting diagnostics.

    mss is exactly h2_finite and (rho < 1, strictly).  ``flags`` records
    degraded routes, e.g. quadrature fallbacks for non-Hurwitz or
    sampled blocks where the reported numbers are horizon-truncated.
    """

    interpretation: str
    mss: bool
    h2_finite: bool
    h2_squared: float
    rho: float | None
    spectral: SpectralResult | None
    steady_state: SteadyState | None
    flags: tuple[str, ...] = ()

    @property
    def worst_case_cov(self) -> np.ndarray | None:
        return self.spectral.eigen_matrix if self.spectral is not None else None


def _truncated_h2_squared(block: LtiSystem) -> float:
    kernel = block.samples
    weights = np.full(kernel.shape[0], block.sample_dt)
    weights[0] = weights[-1] = 0.5 * block.sample_dt
    return float(np.einsum("k,kab,kab->", weights, kernel, kernel))


# A steady-state solve is kept when its normwise backward error
# ||(I - K) u - w|| / (||I - K||_F ||u|| + ||w||) is at most this
# multiple of the unit roundoff (Rigal & Gaches, J. ACM 14(3), 1967;
# Higham, Accuracy and Stability of Numerical Algorithms, thm. 7.1).  LU
# with partial pivoting meets it however close rho is to 1, where a
# residual test that ignores ||u|| refuses accurate solves.
_BACKWARD_ERROR_BOUND = 64 * np.finfo(float).eps


def _solve_steady_state(handle: LoopGainHandle, w_cov: np.ndarray) -> SteadyState:
    n = handle.n_loop
    lhs = np.eye(n * n) - lgo_matrix_apply(handle)
    rhs = w_cov.flatten(order="F")
    try:
        vec_u = np.linalg.solve(lhs, rhs)
    except np.linalg.LinAlgError as exc:
        raise SingularFixedPoint(
            f"steady-state system (I - K) is singular: {exc}"
        ) from exc
    residual = np.linalg.norm(lhs @ vec_u - rhs)
    scale = np.linalg.norm(lhs) * np.linalg.norm(vec_u) + np.linalg.norm(rhs)
    backward = float(residual / scale)
    if not np.all(np.isfinite(vec_u)) or not backward <= _BACKWARD_ERROR_BOUND:
        raise SingularFixedPoint(
            f"steady-state solve backward error {backward:.3e} exceeds "
            f"{_BACKWARD_ERROR_BOUND:.1e}; the loop is too close to the "
            "stability boundary"
        )
    u_bar = vec_u.reshape((n, n), order="F")
    u_bar = 0.5 * (u_bar + u_bar.T)
    y_bar = covariance_sandwich(handle, u_bar)
    y_bar = 0.5 * (y_bar + y_bar.T)
    r_bar = handle.gamma_cov * y_bar
    return SteadyState(u_bar=u_bar, r_bar=r_bar, y_bar=y_bar)


def analyze(
    sys: LtiSystem,
    noise: NoiseSpec,
    interpretation: str = "ito",
    options: AnalysisOptions | None = None,
) -> MssVerdict:
    """Full mean-square stability verdict for the closed loop.

    Both conditions are always reported.  When the equivalent block is
    not Hurwitz (infinite H2), rho still comes from quadrature over a
    finite horizon so the report shows how far past the boundary the
    loop sits; the "rho_truncated_horizon" flag marks it.  Sampled
    blocks (Ito only) get both numbers from their sample grid, flagged
    "h2_truncated_grid", since finiteness cannot be decided from finitely
    many samples; that verdict is best-effort by construction.
    """
    options = options or AnalysisOptions()
    _check_interpretation(interpretation)
    _check_loop_noise(sys, noise)
    flags: list[str] = []

    quad = QuadratureBackend(horizon=options.quad_horizon, dt=options.quad_dt)
    if sys.is_state_space:
        try:
            handle = make_lgo(sys, noise.gamma_cov, interpretation, LyapunovBackend())
        except NotHurwitz:
            handle = make_lgo(sys, noise.gamma_cov, interpretation, quad)
            h2_squared = math.inf
            flags.append("rho_truncated_horizon")
        else:
            h2_squared = handle.h2_squared
        h2_finite = math.isfinite(h2_squared)
    else:
        handle = make_lgo(sys, noise.gamma_cov, interpretation, quad)
        h2_squared = _truncated_h2_squared(handle.block)
        h2_finite = True
        flags.extend(("h2_truncated_grid", "rho_sample_grid"))
    spectral = spectral_radius_power(
        handle, tol=options.power_tol, max_iter=options.power_max_iter
    )
    if not spectral.converged:
        flags.append("power_iteration_max_iter")

    mss = bool(h2_finite and spectral.rho < 1.0)
    steady_state = None
    if mss:
        steady_state = _solve_steady_state(handle, noise.w_cov)
    return MssVerdict(
        interpretation=interpretation,
        mss=mss,
        h2_finite=h2_finite,
        h2_squared=h2_squared,
        rho=spectral.rho,
        spectral=spectral,
        steady_state=steady_state,
        flags=tuple(flags),
    )


@dataclass(frozen=True)
class CovarianceTrajectory:
    """Transient covariance rates on the grid t_k = k*dt.

    u[k], r[k], y[k] are the loop input, masked feedback and block
    output covariance rates at t_k; for a constant drive the sequence
    is monotone nondecreasing in the PSD order and converges to the
    steady state exactly when the loop is mean-square stable.
    """

    times: np.ndarray
    u: np.ndarray
    r: np.ndarray
    y: np.ndarray

    @property
    def trace_u(self) -> np.ndarray:
        return np.trace(self.u, axis1=1, axis2=2)

    @property
    def trace_y(self) -> np.ndarray:
        return np.trace(self.y, axis1=1, axis2=2)


# The most kernel-slab entries one block may hold: the full block of 4
# channels.  Wider loops get shorter blocks, since the slab grows as p^4.
_SLAB_ENTRIES = _BLOCK * 4**4


def _march(size, markov, dt, gamma, w_cov, u, r, y, history) -> None:
    """Fill u[1:], r[1:], y[1:] from u[0], one block of size steps at a time.

    Y_k = dt sum_{j<k} M_{k-j} U_j M_{k-j}^T and U_k = W + gamma o Y_k,
    with markov[i] = M_{i+1}.  At each block start s, history(s, stop)
    writes into y[s+1 : stop+1] the terms of the inputs U_j, j <= s.
    Step k adds U_{s+1} .. U_{k-1} as one product of the slab
    [K_{k-s-1} ... K_1] of Kronecker kernels K_i = (M_i (x) M_i) dt with
    the stored row-major vec U; one-step blocks need no kernel.  Rates
    are checked once per block; NonFinite names the first bad step.
    """
    n_steps = u.shape[0] - 1
    p2 = w_cov.size
    kernels = np.einsum("iac,ibd->iabcd", markov, markov).reshape(-1, p2, p2) * dt
    slab = kernels[::-1].transpose(1, 0, 2).reshape(p2, -1)
    slabs = [slab[:, (size - 1 - m) * p2 :] for m in range(1, size)]
    u_vec, u_rows, y_rows = u.reshape(-1), u.reshape(-1, p2), y.reshape(-1, p2)
    w_row, gamma_row = w_cov.reshape(-1), gamma.reshape(-1)
    for start in range(0, n_steps, size):
        stop = min(start + size, n_steps)
        history(start, stop)
        for k in range(start + 1, stop + 1):
            y_k = y_rows[k]
            if k > start + 1:
                y_k += slabs[k - start - 2] @ u_vec[(start + 1) * p2 : k * p2]
            u_rows[k] = w_row + gamma_row * y_k
        np.multiply(gamma, y[start + 1 : stop + 1], out=r[start + 1 : stop + 1])
        rates = u_rows[start + 1 : stop + 1]
        if not np.isfinite(rates).all():
            k = start + 1 + int(np.argmin(np.isfinite(rates).all(axis=1)))
            raise NonFinite(f"covariance trajectory overflowed at t={k * dt}")


def _blocked_recursion(
    block: LtiSystem,
    gamma: np.ndarray,
    w_cov: np.ndarray,
    dt: float,
    u: np.ndarray,
    r: np.ndarray,
    y: np.ndarray,
) -> None:
    """Fill u[1:], r[1:], y[1:] from u[0] for a state-space block.

    X_s = dt sum_{j<=s} E^{s-j} B U_j B^T E^{(s-j)T} is the state
    covariance just after the input at s, the start of a block of L
    steps; within the block

        Y_{s+m} = O_m X_s O_m^T + dt sum_{i=1..m-1} M_i U_{s+m-i} M_i^T

    with O_i = C E^i and Markov parameters M_i = O_i B.  The history
    term is one batched product per block, _march adds the sum, and X
    moves once per block as E^L X E^{LT} plus the block's inputs.
    """
    n_steps = u.shape[0] - 1
    p, n = w_cov.shape[0], block.n_state
    size = max(1, min(_BLOCK, _SLAB_ENTRIES // p**4, n_steps))
    step = matrix_exponential(block.a, dt)
    obs = np.empty((size, p, n))  # O_i at i - 1
    ctrl = np.empty((size, n, p))  # E^i B at size - 1 - i
    o, q = block.c, block.b
    for i in range(size):
        o = o @ step
        obs[i] = o
        ctrl[size - 1 - i] = q
        q = step @ q
    # dt goes in first, so no partial sum exceeds the state covariance
    ctrl_wide_t = (ctrl.transpose(1, 0, 2).reshape(n, size * p) * dt).T
    step_block = np.linalg.matrix_power(step, size)
    step_block_t, obs_t = step_block.T, obs.transpose(0, 2, 1)
    x = None

    def history(start, stop):
        nonlocal x
        if start:
            inputs = ctrl @ u[start + 1 - size : start + 1]
            inputs = inputs.transpose(1, 0, 2).reshape(n, size * p)
            x = step_block @ x @ step_block_t + inputs @ ctrl_wide_t
        else:
            x = block.b @ u[0] @ ctrl_wide_t[-p:]
        steps = stop - start
        np.matmul(obs[:steps] @ x, obs_t[:steps], out=y[start + 1 : stop + 1])

    _march(size, obs[:-1] @ block.b, dt, gamma, w_cov, u, r, y, history)


def _sampled_recursion(block, gamma, w_cov, dt, u, r, y) -> None:
    """Fill u[1:], r[1:], y[1:] from u[0] for a sampled block.

    The history term of a block starting at s is one product of the
    stored vec U_0 .. U_s with the lag-Hankel matrix of the Kronecker
    kernels [K_{s+m-j}]; _march adds the block's later inputs.
    """
    n_steps = u.shape[0] - 1
    p2 = w_cov.size
    size = min(_hankel_block(n_steps, p2 * p2), max(1, _SLAB_ENTRIES // p2**2))
    kernel = impulse_response_grid(block, dt, n_steps + 1)
    kernels = np.einsum("iac,ibd->iabcd", kernel, kernel).reshape(-1, p2, p2) * dt
    hankel = _lag_hankel(kernels, size)
    u_vec, y_rows = u.reshape(-1), y.reshape(-1, p2)

    def history(start, stop):
        hist = u_vec[: (start + 1) * p2] @ hankel[(n_steps - start) * p2 :]
        y_rows[start + 1 : stop + 1] = hist.reshape(size, p2)[: stop - start]

    _march(size, kernel[1:size], dt, gamma, w_cov, u, r, y, history)


# Overflow just before the NonFinite check is expected data for loops
# far past the stability threshold, not a numpy error.
@np.errstate(over="ignore", invalid="ignore")
def covariance_trajectory(
    sys: LtiSystem,
    noise: NoiseSpec,
    interpretation: str = "ito",
    horizon: float = 10.0,
    dt: float = 1e-3,
) -> CovarianceTrajectory:
    """March the covariance fixed point forward on a uniform grid.

    Right-endpoint rule for the feedback convolution:

        U(t_0) = W,   R(t_k) = gamma_cov o sum_{j=1..k} M(j dt) U(t_{k-j}) M*(j dt) dt,
        U(t_k) = W + R(t_k),   Y by the same kernel sum without the mask.

    Both block kinds run in blocks of L = 64 steps (shorter for more
    than four channels, so the kernel slab keeps at most 64 * 4^4
    entries).  At the start s of a block one product brings in every
    U_j, j <= s; inside it each step is one product of the Kronecker
    kernels with the block's later stored U (none for one-step blocks).
    State-space blocks carry the history in the state covariance and
    step it once per block: O(p n^2 + n^3/L + L p^4) work per step for
    n states and p channels.  Sampled blocks take it from a lag-Hankel
    matrix of the kernels (at most 2^20 entries, with shorter blocks for
    long grids): still O(K p^4) per step, but as one matrix-vector
    product per block.  Both give the same sums up to rounding.
    Stratonovich loops route through the equivalent Ito block first.
    Raises NonFinite naming the first step whose rates overflow.
    """
    _check_interpretation(interpretation)
    _check_loop_noise(sys, noise)
    if dt <= 0 or horizon <= 0:
        raise BadGrid(f"need positive dt and horizon, got dt={dt}, horizon={horizon}")
    n_steps = int(round(horizon / dt))
    if n_steps < 1 or abs(n_steps * dt - horizon) > 1e-6 * dt:
        raise BadGrid(
            f"horizon {horizon} is not a whole number of steps of dt={dt}"
        )
    if interpretation == "stratonovich":
        block = equivalent_ito_system(sys, noise.gamma_cov)
    else:
        block = sys
    n = noise.n_gains
    w_cov = noise.w_cov
    gamma = noise.gamma_cov
    u = np.empty((n_steps + 1, n, n))
    r = np.zeros((n_steps + 1, n, n))
    y = np.zeros((n_steps + 1, n, n))
    u[0] = w_cov
    recursion = _blocked_recursion if block.is_state_space else _sampled_recursion
    recursion(block, gamma, w_cov, dt, u, r, y)
    times = np.arange(n_steps + 1) * dt
    return CovarianceTrajectory(times=times, u=u, r=r, y=y)
