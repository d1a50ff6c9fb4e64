"""Monte Carlo simulation of the stochastic feedback loop.

Discretizes the loop on t_k = k dt with zero initial state:

    y_k = C x_k,   r_k = dgamma_k o y_k  (Ito, left point)
    u_k = dw_k + r_k,   x_{k+1} = x_k + A x_k dt + B u_k.

The Stratonovich rule replaces the feedback increment by the implicit
midpoint r_k = dgamma_k o (y_k + y_{k+1})/2.  The next output is affine
in r_k, y_{k+1} = base_y + G r_k with G = C B (state-space step) or the
first kernel sample M(dt) (convolution sum), so each step solves the
linear system (I - D_k G) r_k = D_k (y_k + base_y), D_k = diag(dgamma_k)/2,
directly: a division when G is diagonal, an n x n solve otherwise.  A step
where the spectral radius of D_k G reaches 1, or is NaN, is refused with
MidpointNoConvergence: there the midpoint map is no contraction and the
system can be singular, so dt is too large for the gain magnitude.  For
non-diagonal G the radius is first bounded by min(||D_k G||_inf,
||D_k G||_1), an O(n^2) sum per path; only paths that this bound does not
place below 1 get the exact radius from their eigenvalues, so the refused
steps and the radius they name are those of an exact check.
The drive and the open-loop convolution need no rule: only the feedback
product is interpretation-sensitive.

Two schemes: the state-space step above, and the convolution sum
y_N = sum_{k<N} M(t_N - t_k) u_k (works for sampled kernels and doubles
as an oracle for the recursion).  The sum runs in blocks of 64 steps:
one matrix product per block brings in all earlier inputs, and each
step adds only the block's own, so a path still costs O(N^2) in all but
pays its history once per block, not once per step.  Each scheme is one
step object that advances a (B, p) batch of paths by one step under
either rule.

One stepping loop, _advance, runs an ensemble batch and a single path (a
batch of one) alike.  A path whose output overflows is frozen once: its
state, output and remaining increments are zeroed, so it stays exactly
at rest and never reaches the midpoint solve again.

Paths are reproducible and order-independent: path i draws from a Philox
stream keyed (seed, i) in fixed chunks, so single-path runs and
ensembles see identical noise.  An ensemble batch shares one bit
generator, re-keyed to (seed, i) before path i's draws, which gives the
same streams as one generator per path.  Ensembles run serially in fixed
batches of paths and add each batch's per-time sums in batch order.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import (
    BadGrid,
    DimensionMismatch,
    InsufficientPaths,
    MidpointNoConvergence,
    NonPositiveDt,
    RealizationRequired,
)
from .loopgain import _check_interpretation, _check_loop_noise
from .noise import NoiseSpec, _philox_state, draw_increment_chunk, philox_generator
from .system import LtiSystem, _hankel_block, _lag_hankel, impulse_response_grid

SCHEMES = ("state_space_step", "convolution_sum")

OVERFLOW_LIMIT = 1e150

_PATH_BATCH = 2048
_STEP_CHUNK = 2048


@dataclass(frozen=True)
class SimulationConfig:
    """Grid, ensemble size and discretization rule for a run."""

    dt: float
    horizon: float
    n_paths: int
    seed: int
    interpretation: str = "ito"
    scheme: str = "state_space_step"

    def __post_init__(self):
        if not np.isfinite(self.dt) or self.dt <= 0:
            raise NonPositiveDt(f"dt must be positive, got {self.dt}")
        if not np.isfinite(self.horizon) or self.horizon <= 0:
            raise BadGrid(f"horizon must be positive, got {self.horizon}")
        steps = round(self.horizon / self.dt)
        if steps < 1 or abs(steps * self.dt - self.horizon) > 1e-6 * self.dt:
            raise BadGrid(
                f"horizon {self.horizon} is not a whole number of steps "
                f"of dt={self.dt}"
            )
        if self.n_paths < 1:
            raise ValueError(f"n_paths must be >= 1, got {self.n_paths}")
        _check_interpretation(self.interpretation)
        if self.scheme not in SCHEMES:
            raise ValueError(
                f"scheme must be one of {SCHEMES}, got {self.scheme!r}"
            )

    @property
    def n_steps(self) -> int:
        return round(self.horizon / self.dt)

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) * self.dt


@dataclass(frozen=True)
class PathResult:
    """One sample path: block output plus the loop increments."""

    times: np.ndarray
    y: np.ndarray
    u_increments: np.ndarray
    r_increments: np.ndarray
    diverged: bool
    diverged_at: int | None


def _draw_path_increments(
    noise: NoiseSpec, dt: float, n_steps: int, gen: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """All increments of one path, drawn in the canonical chunk order."""
    dgam = np.empty((n_steps, noise.n_gains))
    dw = np.empty((n_steps, noise.n_drive))
    for start in range(0, n_steps, _STEP_CHUNK):
        stop = min(start + _STEP_CHUNK, n_steps)
        dgam[start:stop], dw[start:stop] = draw_increment_chunk(
            noise, dt, stop - start, gen
        )
    return dgam, dw


def _check_increments(
    noise: NoiseSpec, n_steps: int, increments
) -> tuple[np.ndarray, np.ndarray]:
    dgam = np.asarray(increments[0], dtype=float)
    dw = np.asarray(increments[1], dtype=float)
    if dgam.ndim == 1:
        dgam = dgam[:, None]
    if dw.ndim == 1:
        dw = dw[:, None]
    if dgam.shape != (n_steps, noise.n_gains):
        raise DimensionMismatch(
            f"gain increments have shape {dgam.shape}, expected "
            f"{(n_steps, noise.n_gains)}"
        )
    if dw.shape != (n_steps, noise.n_drive):
        raise DimensionMismatch(
            f"drive increments have shape {dw.shape}, expected "
            f"{(n_steps, noise.n_drive)}"
        )
    return dgam, dw


def _midpoint_gain(g: np.ndarray):
    """G prepared for _midpoint_solve, once per run.

    Returns (diagonal of G, None, None) when G is diagonal, where the
    solve is a division, else (G, (row sums of |G|, |G|), I) for the
    radius bound and the solve.
    """
    diag = np.diagonal(g)
    if np.array_equal(g, np.diag(diag)):
        return diag.copy(), None, None
    abs_g = np.abs(g)
    return g, (abs_g.sum(axis=1), abs_g), np.eye(len(g))


def _loop_norm(half, abs_rows, abs_g):
    """min(||D G||_inf, ||D G||_1) for D = diag(half), per matrix of a stack.

    Any induced norm bounds the spectral radius (Golub & Van Loan,
    Matrix Computations, sec. 7.1).  The max row sum is |half| times the
    row sums of |G| and the max column sum is |half| @ |G|, so the bound
    costs O(n^2) per matrix.  It is raised by 1e-12 relative so that it
    also covers the rounding of the sums and of eigvals; a non-finite
    entry gives NaN or inf.
    """
    abs_half = np.abs(half)
    norm = np.minimum(
        (abs_half * abs_rows).max(axis=-1), (abs_half @ abs_g).max(axis=-1)
    )
    return norm * (1.0 + 1e-12)


def _midpoint_solve(dgam_k, y_k, base_y, gain, t: float):
    """Solve r = dgamma o (y_k + base_y + G r)/2 for r directly.

    base_y is the next output without the feedback contribution and G
    maps a feedback increment to its next-output contribution; gain is
    as returned by _midpoint_gain.  The equation is linear in r,
    (I - D G) r = D (y_k + base_y) with D = diag(dgamma)/2.  It is
    refused with MidpointNoConvergence when the spectral radius of D G
    is 1 or more, or NaN (a non-finite gain increment).  For diagonal G
    the radius is max |D G|.  Otherwise _loop_norm certifies most
    matrices below 1, and eigvals computes the exact radius of the rest
    only, so a refusal names the same radius as an exact check of every
    matrix would.  Works on (n,) vectors and (B, n) batches alike.
    """
    g, bound, identity = gain
    half = 0.5 * dgam_k
    rhs = half * (y_k + base_y)
    if bound is None:
        loop = half * g
        radius = np.abs(loop).max()
    else:
        loop = half[..., :, None] * g
        norm = _loop_norm(half, *bound)
        unsure = loop[~(norm < 1.0)]
        if not unsure.size:
            # every matrix is certified; the bound stands in for the radius
            radius = norm.max()
        elif np.isfinite(unsure).all():
            radius = np.abs(np.linalg.eigvals(unsure)).max()
        else:
            # eigvals rejects non-finite input
            radius = np.nan
    if not radius < 1.0:
        raise MidpointNoConvergence(
            f"implicit midpoint step at t={t} has loop spectral radius "
            f"{radius:.6g}, not below 1; reduce dt relative to the gain "
            "magnitude"
        )
    if bound is None:
        return rhs / (1.0 - loop)
    return np.linalg.solve(identity - loop, rhs[..., None])[..., 0]


def simulate_path_ito(
    sys: LtiSystem,
    noise: NoiseSpec,
    config: SimulationConfig,
    path_index: int = 0,
    increments=None,
) -> PathResult:
    """One Ito path (left-point feedback product)."""
    return _simulate_path(sys, noise, config, path_index, False, increments)


def simulate_path_stratonovich(
    sys: LtiSystem,
    noise: NoiseSpec,
    config: SimulationConfig,
    path_index: int = 0,
    increments=None,
) -> PathResult:
    """One Stratonovich path (implicit midpoint feedback product)."""
    return _simulate_path(sys, noise, config, path_index, True, increments)


def simulate_path(
    sys: LtiSystem,
    noise: NoiseSpec,
    config: SimulationConfig,
    path_index: int = 0,
    increments=None,
) -> PathResult:
    """One path using the interpretation named in the config."""
    midpoint = config.interpretation == "stratonovich"
    return _simulate_path(sys, noise, config, path_index, midpoint, increments)


def _overflowed(rows: np.ndarray) -> np.ndarray:
    """Rows holding a non-finite entry or one above OVERFLOW_LIMIT.

    max propagates NaN and NaN <= limit is false, so one comparison
    catches NaN, infinity and overflow alike.
    """
    return ~(np.abs(rows).max(axis=1) <= OVERFLOW_LIMIT)


class _StateSpaceStep:
    """The Euler step x_{k+1} = (I + A dt) x_k + B u_k, y = C x; owns x.

    Holds the midpoint gain G = C B.  States are the rows of a (B, n)
    array; one path is a batch of one.  Products use np.dot, which calls
    BLAS where matmul takes numpy's own loop (one state or channel).  The
    transposes stay views: with contiguous copies BLAS runs other kernels,
    which round a single path's products (and some batches') differently.
    """

    def __init__(self, sys: LtiSystem, config: SimulationConfig, midpoint: bool):
        if not sys.is_state_space:
            raise RealizationRequired(
                "the state-space scheme needs a realization; use the "
                "convolution_sum scheme for sampled kernels"
            )
        self.one_step_t = (np.eye(sys.n_state) + sys.a * config.dt).T
        self.b_t, self.c_t = sys.b.T, sys.c.T
        self.gain = _midpoint_gain(sys.c @ sys.b)
        self.midpoint = midpoint
        self.dt = config.dt

    def reset(self, batch_size: int) -> np.ndarray:
        """Start batch_size paths at rest; returns their (B, p) output."""
        self.x = np.zeros((batch_size, len(self.one_step_t)))
        return np.zeros((batch_size, self.c_t.shape[1]))

    def __call__(self, k, y, dgam_k, dw_k):
        """Step k of every row: returns r, u, y_{k+1} and the rows whose
        state overflowed."""
        drift = np.dot(self.x, self.one_step_t)
        if self.midpoint:
            base_y = np.dot(drift + np.dot(dw_k, self.b_t), self.c_t)
            r = _midpoint_solve(dgam_k, y, base_y, self.gain, k * self.dt)
        else:
            r = dgam_k * y
        u = dw_k + r
        self.x = drift + np.dot(u, self.b_t)
        return r, u, np.dot(self.x, self.c_t), _overflowed(self.x)

    def kill(self, dead: np.ndarray, k: int) -> None:
        """Zero the state of the dead rows; they go on from rest."""
        self.x[dead] = 0.0


class _ConvolutionStep:
    """The sum y_{k+1} = sum_{j<=k} M(t_{k+1} - t_j) u_j; owns the u history.

    Blocked after Hairer, Lubich & Schlichte (SIAM J. Sci. Stat. Comput.
    6(3), 1985): at the start s of each block of L steps (64, shorter for
    long or wide kernels) one product of the inputs u_j, j < s, with the
    lag-Hankel matrix [M_{s+m-j}] gives the history term of the block's
    L outputs; each step adds the block's own inputs, at most L terms.
    Products are stacked per row, (B, 1, s p) @ (s p, L p), so each path
    rounds as in a batch of one.  The midpoint gain is G = M(dt).
    """

    def __init__(self, sys: LtiSystem, config: SimulationConfig, midpoint: bool):
        kernel = impulse_response_grid(sys, config.dt, config.n_steps + 1)
        n_out, n_in = kernel.shape[1:]
        self.size = _hankel_block(config.n_steps, n_out * n_in)
        self.hankel = _lag_hankel(kernel, self.size)
        # [M_L ... M_1] as rows (i, a) of lag L - i, for the block's own inputs
        self.slab = kernel[self.size : 0 : -1].transpose(0, 2, 1).reshape(-1, n_out)
        self.first = kernel[1]
        self.gain = _midpoint_gain(kernel[1])
        self.midpoint = midpoint
        self.dt = config.dt
        self.n_steps = config.n_steps

    def reset(self, batch_size: int) -> np.ndarray:
        """Start batch_size paths at rest; returns their (B, p) output."""
        n_out, n_in = self.first.shape
        self.u_hist = np.zeros((batch_size, self.n_steps, n_in))
        self.pending = np.zeros((batch_size, self.size, n_out))
        return np.zeros((batch_size, n_out))

    def __call__(self, k, y, dgam_k, dw_k):
        """Step k of every row: returns r, u, y_{k+1} and the rows whose
        output overflowed."""
        u_hist, batch, n_in = self.u_hist, len(y), self.first.shape[1]
        m = k % self.size
        start, lo = k - m, (self.size - m - 1) * n_in
        if k and not m:
            past = u_hist[:, :k].reshape(batch, 1, -1)
            hist = past @ self.hankel[(self.n_steps - k) * n_in : self.n_steps * n_in]
            self.pending = hist.reshape(batch, self.size, -1)
        if self.midpoint:
            base_y = self.pending[:, m] + np.einsum("pm,ym->py", dw_k, self.first)
            if m:
                own = u_hist[:, start:k].reshape(batch, 1, -1)
                base_y += (own @ self.slab[lo:-n_in])[:, 0]
            r = _midpoint_solve(dgam_k, y, base_y, self.gain, k * self.dt)
            u = dw_k + r
            u_hist[:, k] = u
            y_next = base_y + np.einsum("pm,ym->py", r, self.first)
        else:
            r = dgam_k * y
            u = dw_k + r
            u_hist[:, k] = u
            own = u_hist[:, start : k + 1].reshape(batch, 1, -1)
            y_next = self.pending[:, m] + (own @ self.slab[lo:])[:, 0]
        return r, u, y_next, _overflowed(y_next)

    def kill(self, dead: np.ndarray, k: int) -> None:
        """Zero the history and the pending block terms of the dead rows
        up to step k; they go on from rest."""
        self.u_hist[dead, : k + 1] = 0.0
        self.pending[dead] = 0.0


_STEPS = {"state_space_step": _StateSpaceStep, "convolution_sum": _ConvolutionStep}


def _batch_increments(
    noise: NoiseSpec, config: SimulationConfig, first_path: int, batch_size: int
):
    """Increment chunks (dgam, dw), each (B, chunk, p), for a batch of paths.

    One Generator serves the batch, re-keyed to path i before its draws;
    a run longer than one chunk saves each path's state between chunks.
    """
    n_steps = config.n_steps
    gen = philox_generator(config.seed, first_path)
    states = [None] * batch_size
    for k in range(0, n_steps, _STEP_CHUNK):
        chunk = min(_STEP_CHUNK, n_steps - k)
        dgam = np.empty((batch_size, chunk, noise.n_gains))
        dw = np.empty((batch_size, chunk, noise.n_drive))
        for i in range(batch_size):
            gen.bit_generator.state = (
                states[i] if k else _philox_state(config.seed, first_path + i)
            )
            dgam[i], dw[i] = draw_increment_chunk(noise, config.dt, chunk, gen)
            if k + chunk < n_steps:
                states[i] = gen.bit_generator.state
        yield dgam, dw


def _advance(step, chunks, batch_size: int):
    """Step a batch through its (B, chunk, p) increment chunks.

    Yields k, r_k, u_k, y_{k+1} and the rows that diverged at step k, or
    None.  A diverged row is frozen once (output, state and later
    increments zeroed) and stays exactly at rest; the run stops when
    every row has diverged.  Callers silence the expected overflow.
    """
    y = step.reset(batch_size)
    dead = np.zeros(batch_size, dtype=bool)
    k = 0
    for dgam, dw in chunks:
        if dead.any():
            dgam[dead] = 0.0
            dw[dead] = 0.0
        for j in range(dgam.shape[1]):
            r, u, y_next, bad = step(k, y, dgam[:, j], dw[:, j])
            if bad.any():
                y_next[bad] = 0.0
                step.kill(bad, k)
                dead |= bad
                yield k, r, u, y_next, bad
                if dead.all():
                    return
                dgam[bad, j + 1 :] = 0.0
                dw[bad, j + 1 :] = 0.0
            else:
                yield k, r, u, y_next, None
            y = y_next
            k += 1


@np.errstate(over="ignore", invalid="ignore")
def _simulate_path(sys, noise, config, path_index, midpoint, increments):
    _check_loop_noise(sys, noise)
    n_steps = config.n_steps
    if increments is None:
        gen = philox_generator(config.seed, path_index)
        dgam, dw = _draw_path_increments(noise, config.dt, n_steps, gen)
    else:
        dgam, dw = _check_increments(noise, n_steps, increments)
    step = _STEPS[config.scheme](sys, config, midpoint)
    y = np.zeros((n_steps + 1, sys.n_out))
    r_inc = np.zeros((n_steps, sys.n_in))
    u_inc = np.zeros((n_steps, sys.n_in))
    diverged_at = None
    # one chunk; the run stops when its only row dies, before any
    # increment is zeroed, so the caller's arrays are only read
    for k, r, u, y_next, died in _advance(step, [(dgam[None], dw[None])], 1):
        r_inc[k], u_inc[k], y[k + 1] = r[0], u[0], y_next[0]
        if died is not None:
            diverged_at = k + 1
            y[k + 1 :] = np.nan
    return PathResult(
        times=config.times,
        y=y,
        u_increments=u_inc,
        r_increments=r_inc,
        diverged=diverged_at is not None,
        diverged_at=diverged_at,
    )


@dataclass(frozen=True)
class SimulationEnsemble:
    """Per-time ensemble statistics over the surviving paths.

    var_y[k] is the mean squared output norm at t_k, stderr_y its
    sampling error (NaN when fewer than two paths survive; flagged in
    diagnostics for n_paths = 1).  var_u_increments[k] is the mean
    squared input increment norm per unit time at step k.  qv_y[k] is
    the mean running quadratic variation of y.  n_diverged[k] counts
    paths flagged divergent by t_k; they are excluded from the
    statistics from their divergence time on.
    """

    times: np.ndarray
    var_y: np.ndarray
    stderr_y: np.ndarray
    var_u_increments: np.ndarray
    qv_y: np.ndarray
    n_diverged: np.ndarray
    n_paths: int
    config: SimulationConfig
    diagnostics: dict = field(default_factory=dict)
    r_paths: np.ndarray | None = None
    u_paths: np.ndarray | None = None


def run_ensemble(
    sys: LtiSystem,
    noise: NoiseSpec,
    config: SimulationConfig,
    record_increments: bool = False,
) -> SimulationEnsemble:
    """Simulate n_paths independent paths and reduce their statistics.

    Paths run serially in fixed batches of 2048, and each batch adds
    its per-time sums in path order.  Every path i is bit-identical
    to ``simulate_path(..., path_index=i)`` with the same config (for full
    B or C under the state-space scheme, up to the rounding of a
    matrix-matrix against a row-vector product), and the statistics do
    not depend on how the paths are batched.
    """
    _check_loop_noise(sys, noise)
    midpoint = config.interpretation == "stratonovich"
    n_steps = config.n_steps
    n_paths = config.n_paths
    dt = config.dt
    step = _STEPS[config.scheme](sys, config, midpoint)
    r_store = u_store = None
    if record_increments:
        total = 2 * n_paths * n_steps * sys.n_in * 8
        if total > 2_000_000_000:
            raise ValueError(
                f"recording increments for this run needs {total / 1e9:.1f} GB; "
                "shrink n_paths or the grid"
            )
        r_store = np.zeros((n_paths, n_steps, sys.n_in))
        u_store = np.zeros((n_paths, n_steps, sys.n_in))

    sum_y2 = np.zeros(n_steps + 1)
    sum_y4 = np.zeros(n_steps + 1)
    sum_qv = np.zeros(n_steps + 1)
    sum_u2 = np.zeros(n_steps)
    alive_count = np.zeros(n_steps + 1, dtype=np.int64)
    # batches add their per-time sums in path order; a frozen row adds
    # exact zeros, so only the live count and its running QV need care.
    # Overflow at the divergence-detection step is expected data.
    with np.errstate(over="ignore", invalid="ignore"):
        for first in range(0, n_paths, _PATH_BATCH):
            size = min(_PATH_BATCH, n_paths - first)
            rows = slice(first, first + size)
            chunks = _batch_increments(noise, config, first, size)
            y = np.zeros((size, sys.n_out))
            qv_run = np.zeros(size)
            live = size
            alive_count[0] += size
            for k, r, u, y_next, died in _advance(step, chunks, size):
                sum_u2[k] += np.einsum("pj,pj->p", u, u).sum() / dt
                if r_store is not None:
                    r_store[rows, k] = r
                    u_store[rows, k] = u
                dy = y_next - y
                qv_run += np.einsum("pj,pj->p", dy, dy)
                if died is not None:
                    live -= np.count_nonzero(died)
                    qv_run[died] = 0.0
                s = np.einsum("pj,pj->p", y_next, y_next)
                sum_y2[k + 1] += s.sum()
                sum_y4[k + 1] += (s * s).sum()
                sum_qv[k + 1] += qv_run.sum()
                alive_count[k + 1] += live
                y = y_next

    count = alive_count.astype(float)
    with np.errstate(invalid="ignore", divide="ignore", over="ignore"):
        var_y = np.where(count > 0, sum_y2 / count, np.nan)
        qv_y = np.where(count > 0, sum_qv / count, np.nan)
        var_u = np.where(count[:-1] > 0, sum_u2 / count[:-1], np.nan)
        spread = sum_y4 - sum_y2**2 / count
        stderr_y = np.where(
            count > 1,
            np.sqrt(np.maximum(spread, 0.0) / (count - 1.0)) / np.sqrt(count),
            np.nan,
        )
    diagnostics = {
        "stderr_defined": n_paths > 1,
        "increments_recorded": record_increments,
    }
    if record_increments and n_paths >= 100 and n_steps >= 2:
        report = increment_independence_test(r_store, max_lag=min(10, n_steps - 1))
        diagnostics["r_max_abs_corr"] = report.max_abs_corr
    return SimulationEnsemble(
        times=config.times,
        var_y=var_y,
        stderr_y=stderr_y,
        var_u_increments=var_u,
        qv_y=qv_y,
        n_diverged=n_paths - alive_count,
        n_paths=n_paths,
        config=config,
        diagnostics=diagnostics,
        r_paths=r_store,
        u_paths=u_store,
    )


@dataclass(frozen=True)
class IndependenceReport:
    """Lagged cross-moment statistics of an increment ensemble."""

    max_abs_corr: float
    per_lag: np.ndarray


def increment_independence_test(
    paths: np.ndarray, max_lag: int = 10
) -> IndependenceReport:
    """Test temporal independence of increments across an ensemble.

    For each time k, lag l and component, forms the studentized cross
    moment mean(a*b)/std(a*b) over paths with a = increment at k and
    b = increment at k+l.  Under independence the statistic fluctuates
    with standard deviation exactly 1/sqrt(n_paths) whatever the
    marginal tails, so 5/sqrt(n_paths) bounds it at the five-sigma
    level.  (Normalizing by the product of marginal deviations instead
    would inflate the null spread for dependent-but-uncorrelated
    increments and fail that bound even for exact Wiener input.)

    Returns the per-lag maxima over times/components and the overall
    maximum.  Degenerate cells (zero product spread) count as zero.
    """
    paths = np.asarray(paths, dtype=float)
    if paths.ndim == 2:
        paths = paths[:, :, None]
    if paths.ndim != 3:
        raise DimensionMismatch(
            f"expected (n_paths, n_steps) or (n_paths, n_steps, n), got "
            f"shape {paths.shape}"
        )
    n_paths, n_steps = paths.shape[0], paths.shape[1]
    if n_paths < 100:
        raise InsufficientPaths(
            f"need at least 100 paths for the independence test, got {n_paths}"
        )
    if max_lag < 1 or max_lag >= n_steps:
        raise ValueError(
            f"max_lag must be in [1, {n_steps - 1}], got {max_lag}"
        )
    per_lag = np.zeros(max_lag)
    for lag in range(1, max_lag + 1):
        prod = paths[:, :-lag] * paths[:, lag:]
        mean = prod.mean(axis=0)
        spread = prod.std(axis=0, ddof=1)
        with np.errstate(invalid="ignore", divide="ignore"):
            cells = np.where(spread > 0.0, mean / spread, 0.0)
        per_lag[lag - 1] = np.abs(cells).max()
    return IndependenceReport(max_abs_corr=float(per_lag.max()), per_lag=per_lag)


def open_loop_terminal_samples(
    sys: LtiSystem,
    noise: NoiseSpec,
    horizon: float,
    dt: float,
    n_paths: int,
    seed: int,
    kernel_node: str = "left",
) -> np.ndarray:
    """Terminal outputs of the open-loop convolution of the drive alone.

    Evaluates y(T) = sum_k M(T - t*_k) dw_k with the kernel node t*_k at
    the left endpoint or the midpoint of each step.  The gain stream is
    not drawn: this helper exists to check that an additive convolution
    is insensitive to the evaluation rule, unlike the feedback product.
    Returns an (n_paths, n_out) array of samples.
    """
    if kernel_node not in ("left", "midpoint"):
        raise ValueError(
            f"kernel_node must be 'left' or 'midpoint', got {kernel_node!r}"
        )
    config = SimulationConfig(
        dt=dt, horizon=horizon, n_paths=n_paths, seed=seed
    )
    n_steps = config.n_steps
    if kernel_node == "left":
        stack = impulse_response_grid(sys, dt, n_steps + 1)
        kernels = stack[1:][::-1]
    else:
        stack = impulse_response_grid(sys, dt / 2, 2 * n_steps + 1)
        kernels = stack[1::2][::-1]
    root_dt = np.sqrt(dt)
    out = np.empty((n_paths, sys.n_out))
    gen = philox_generator(seed, 0)
    for start in range(0, n_paths, _PATH_BATCH):
        stop = min(start + _PATH_BATCH, n_paths)
        dw = np.empty((stop - start, n_steps, noise.n_drive))
        for i in range(start, stop):
            gen.bit_generator.state = _philox_state(seed, i)
            normals = gen.standard_normal((n_steps, noise.n_drive))
            dw[i - start] = np.dot(normals, noise.w_factor.T) * root_dt
        out[start:stop] = np.einsum("pkm,kym->py", dw, kernels)
    return out
