"""Shared generators for randomized trials, and the dense Lyapunov oracle.

Every randomized test seeds its own Generator so failures replay
exactly; these helpers only shape the draws.
"""

import numpy as np

from msslab import SingularSystem


def random_stable_matrix(rng, n, margin_low=0.4, margin_high=1.5):
    """Random matrix with eigenvalue real parts pushed left of zero.

    The shift keeps the decay-rate spread moderate, so quadrature on an
    auto-sized grid resolves both the slowest and fastest modes.
    """
    g = rng.standard_normal((n, n)) / np.sqrt(n)
    shift = max(np.linalg.eigvals(g).real.max(), 0.0)
    return g - (shift + rng.uniform(margin_low, margin_high)) * np.eye(n)


def random_psd(rng, n, scale=1.0):
    f = rng.standard_normal((n, n))
    return scale * (f @ f.T) / n


def random_loop(rng, n_max=3, p_max=3, p_min=1):
    """Random stable block with a square loop and a PSD gain covariance."""
    import msslab

    n = int(rng.integers(1, n_max + 1))
    p = int(rng.integers(p_min, p_max + 1))
    a = random_stable_matrix(rng, n)
    b = rng.standard_normal((n, p)) / np.sqrt(n)
    c = rng.standard_normal((p, n)) / np.sqrt(n)
    gamma = random_psd(rng, p)
    return msslab.make_state_space(a, b, c), gamma


def kron_lyapunov_solve(a, q):
    """Solve A X + X A^T + Q = 0 through the Kronecker-sum linear system.

    The dense O(n^6) reference solver, the test oracle for the sign
    iteration that the library itself uses.  Raises SingularSystem when
    the Kronecker sum is singular or the solution is not finite.
    """
    a = np.asarray(a, dtype=float)
    q = np.asarray(q, dtype=float)
    n = a.shape[0]
    eye = np.eye(n)
    kron_sum = np.kron(eye, a) + np.kron(a, eye)
    try:
        vec_x = np.linalg.solve(kron_sum, -q.flatten(order="F"))
    except np.linalg.LinAlgError as exc:
        raise SingularSystem(f"Kronecker sum of A is singular: {exc}") from exc
    if not np.all(np.isfinite(vec_x)):
        raise SingularSystem("Lyapunov solve produced non-finite values")
    return vec_x.reshape((n, n), order="F")
