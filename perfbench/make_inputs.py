"""Regenerate the benchmark's input configs in perfbench/inputs/.

    python3 perfbench/make_inputs.py

The files are fixed inputs, not seeded per run: every seed of a run
analyzes and simulates the same loops, so runs on different seeds do the
same amount of work.  The design seeds below only pick the matrices.

- coupled.json    16 states, 4 loop channels, general A, B, C (C B is
                  not diagonal), correlated gain covariance.
- coupled24.json  24 states, 2 loop channels, a stable loop that
                  ``analyze`` cannot finish today (16-state cap of the
                  dense operator matrix used by the steady-state solve).
- delay.json      impulse-response samples of the delayed lag
                  M(t) = exp(-(t - tau)) for t >= tau, else 0; no
                  finite realization exists.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

INPUTS = Path(__file__).resolve().parent / "inputs"

DELAY_DT = 0.01
DELAY_TAU_STEPS = 20
DELAY_HORIZON_STEPS = 4000


def random_loop(design_seed: int, n_state: int, n_loop: int):
    """Hurwitz A with spectral abscissa -1, dense B and C, PSD Gamma.

    Gamma is scaled to unit largest diagonal entry; off-diagonal
    correlations are kept, so the gain channels are not independent.
    """
    rng = np.random.default_rng(design_seed)
    a = rng.standard_normal((n_state, n_state)) / np.sqrt(n_state)
    a = a - (np.max(np.linalg.eigvals(a).real) + 1.0) * np.eye(n_state)
    b = 2.0 * rng.standard_normal((n_state, n_loop)) / np.sqrt(n_state)
    c = 2.0 * rng.standard_normal((n_loop, n_state)) / np.sqrt(n_state)
    g = rng.standard_normal((n_loop, n_loop))
    g = g @ g.T / n_loop + np.eye(n_loop)
    g = g / np.max(np.diag(g))
    return a, b, c, g


def _rows(m) -> list:
    return [[float(x) for x in row] for row in np.atleast_2d(m)]


def coupled_config() -> dict:
    a, b, c, g = random_loop(1, 16, 4)
    return {
        "system": {"a": _rows(a), "b": _rows(b), "c": _rows(c)},
        "noise": {"gamma_cov": _rows(g), "w_cov": _rows(np.eye(4))},
        "interpretation": "ito",
        "simulation": {"dt": 0.002, "horizon": 0.4, "n_paths": 256, "seed": 0},
    }


def coupled24_config() -> dict:
    a, b, c, g = random_loop(100, 24, 2)
    return {
        "system": {"a": _rows(a), "b": _rows(b), "c": _rows(c)},
        "noise": {"gamma_cov": _rows(2.0 * g), "w_cov": _rows(np.eye(2))},
        "interpretation": "ito",
    }


def delay_samples() -> np.ndarray:
    k = np.arange(DELAY_HORIZON_STEPS + 1)
    return np.where(k >= DELAY_TAU_STEPS, np.exp(-(k - DELAY_TAU_STEPS) * DELAY_DT), 0.0)


def delay_config() -> dict:
    return {
        "system": {"dt": DELAY_DT, "samples": [[[float(v)]] for v in delay_samples()]},
        "noise": {"gamma_cov": [[1.0]], "w_cov": [[1.0]]},
        "interpretation": "ito",
        "simulation": {
            "dt": DELAY_DT,
            "horizon": 5.0,
            "n_paths": 256,
            "seed": 0,
            "scheme": "convolution_sum",
        },
    }


CONFIGS = {
    "coupled.json": coupled_config,
    "coupled24.json": coupled24_config,
    "delay.json": delay_config,
}


def render(name: str) -> str:
    return json.dumps(CONFIGS[name](), separators=(",", ":")) + "\n"


def main() -> None:
    INPUTS.mkdir(exist_ok=True)
    for name in CONFIGS:
        (INPUTS / name).write_text(render(name), encoding="utf-8")


if __name__ == "__main__":
    main()
