"""Reference values computed apart from msslab.

Everything here is built from the paper's formulas with plain numpy, so
the checks compare msslab with an independent computation, never with
msslab's own earlier output.
"""

from __future__ import annotations

import math

import numpy as np


def expm(m: np.ndarray) -> np.ndarray:
    """e^M by scaling and squaring a 30-term Taylor series."""
    m = np.asarray(m, dtype=float)
    norm = np.linalg.norm(m, 1)
    squarings = max(0, math.ceil(math.log2(norm / 0.25))) if norm > 0 else 0
    scaled = m / 2.0**squarings
    term = np.eye(len(m))
    total = term.copy()
    for k in range(1, 30):
        term = term @ scaled / k
        total += term
    for _ in range(squarings):
        total = total @ total
    return total


def stratonovich_drift(a, b, c, gamma) -> np.ndarray:
    """Drift of the equivalent Ito block, A + (1/2) B ((C B) o Gamma) C."""
    return a + 0.5 * b @ ((c @ b) * gamma) @ c


def kronecker_operator(a, b, c, gamma) -> np.ndarray:
    """K = Diag(vec Gamma) (C (x) C) (-(A (+) A))^{-1} (B (x) B), column-major vec."""
    eye = np.eye(len(a))
    kron_sum = np.kron(eye, a) + np.kron(a, eye)
    inner = np.linalg.solve(-kron_sum, np.kron(b, b))
    return np.asarray(gamma).flatten(order="F")[:, None] * (np.kron(c, c) @ inner)


def spectral_radius(k: np.ndarray) -> float:
    return float(np.abs(np.linalg.eigvals(k)).max())


def loop_drift(a, b, c, gamma, interpretation: str) -> np.ndarray:
    return stratonovich_drift(a, b, c, gamma) if interpretation == "stratonovich" else a


def output_second_moment(a, b, c, gamma, w, t: float) -> float:
    """E||y(t)||^2 of the continuous-time Ito loop from rest.

    P' = A P + P A^T + B (W + Gamma o (C P C^T)) B^T, P(0) = 0, solved
    exactly through the exponential of the augmented linear system.
    """
    n = len(a)
    eye = np.eye(n)
    gen = (
        np.kron(eye, a)
        + np.kron(a, eye)
        + np.kron(b, b) @ (np.asarray(gamma).flatten(order="F")[:, None] * np.kron(c, c))
    )
    aug = np.zeros((n * n + 1, n * n + 1))
    aug[:-1, :-1] = gen * t
    aug[:-1, -1] = (b @ w @ b.T).flatten(order="F") * t
    p = expm(aug)[:-1, -1].reshape((n, n), order="F")
    return float(np.trace(c @ p @ c.T))


def scalar_trajectory(a: float, gamma: float, w: float, dt: float, n_steps: int) -> np.ndarray:
    """trace y of the right-endpoint covariance recursion, scalar loop.

    z_{k+1} = e^{2 a dt} (z_k + (w + gamma z_k) dt), y_k = z_k.
    """
    e2 = math.exp(2.0 * a * dt)
    z = np.zeros(n_steps + 1)
    for k in range(n_steps):
        z[k + 1] = e2 * (z[k] + (w + gamma * z[k]) * dt)
    return z


def trapezoid_gain(samples: np.ndarray, dt: float) -> float:
    """sum_k w_k M_k^2 over the sample grid (trapezoid weights)."""
    m2 = np.asarray(samples, dtype=float).reshape(len(samples)) ** 2
    return float(dt * (m2.sum() - 0.5 * (m2[0] + m2[-1])))


def delay_second_moment(tau: float, gamma: float, w: float, t: float, h: float = 1e-4) -> float:
    """E y(t)^2 for M(s) = exp(-(s - tau)) 1{s >= tau}, Ito, from rest.

    The renewal equation Y(t) = int_0^t M(s)^2 (w + gamma Y(t - s)) ds
    becomes Y(t) = Z(t - tau) with Z' = -2 Z + w + gamma Z(. - tau),
    Z = 0 on (-inf, 0].  Integrated by the trapezoid rule on a grid of
    spacing h that divides tau.
    """
    d = int(round(tau / h))
    n = int(round((t - tau) / h))
    if n <= 0:
        return 0.0
    z = [0.0] * (n + 1)
    for i in range(n):
        lag0 = z[i - d] if i >= d else 0.0
        lag1 = z[i + 1 - d] if i + 1 >= d else 0.0
        z[i + 1] = (z[i] * (1.0 - h) + h * w + 0.5 * h * gamma * (lag0 + lag1)) / (1.0 + h)
    return z[n]
