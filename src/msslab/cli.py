"""Command line interface.

Four subcommands over a JSON problem config:

    analyze     stability verdict (exit 0 when MSS, 3 when not)
    simulate    Monte Carlo ensemble, optional CSV and JSON report
    trajectory  deterministic covariance recursion, optional CSV
    compare     both interpretations, analysis plus paired simulations
                (exit 4 when the paired runs disagree)

Exit codes: 0 success/MSS/agreement, 3 not MSS, 4 comparison
disagreement, 64 usage, 65 bad configuration, 66 I/O failure,
1 any other library error.  Command line flags override config values.
CSV output uses repr floats (shortest round trip), plain integer counts
and empty cells for non-finite values, and is downsampled to at most
2000 rows with the final time always kept, so reruns are byte identical.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import math
import sys

import numpy as np

from .analysis import AnalysisOptions, analyze, covariance_trajectory
from .config import ProblemConfig, load_config, validate_report
from .errors import (
    BadGrid,
    ConfigError,
    MsslabError,
    NonFinite,
    RealizationRequired,
)
from .loopgain import equivalent_ito_system
from .simulate import SimulationConfig, run_ensemble

_MAX_CSV_ROWS = 2000

EXIT_OK = 0
EXIT_NOT_MSS = 3
EXIT_DISAGREE = 4
EXIT_USAGE = 64
EXIT_CONFIG = 65
EXIT_IO = 66


class _Parser(argparse.ArgumentParser):
    # BSD sysexits usage code instead of argparse's default 2.
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def _num(value) -> float | None:
    value = float(value)
    return value if math.isfinite(value) else None


def _matrix(value) -> list[list[float]]:
    return [[float(x) for x in row] for row in np.atleast_2d(value)]


def _write_csv(path: str, table: dict) -> None:
    """Write equal-length arrays, keyed by their headers, as CSV columns.

    At most _MAX_CSV_ROWS rows: every stride-th one and always the last.
    Integers are written as integers, floats by repr, and non-finite
    values as empty cells.
    """
    length = len(next(iter(table.values())))
    stride = -(-length // (_MAX_CSV_ROWS - 1))
    rows = [*range(0, length - 1, stride), length - 1]
    # tolist() yields Python ints and floats: repr writes an int as an
    # int and a float as its shortest round trip
    cells = [
        [repr(x) if math.isfinite(x) else "" for x in column[rows].tolist()]
        for column in table.values()
    ]
    with open(path, "w", encoding="utf-8", newline="") as handle:
        writer = csv.writer(handle, lineterminator="\n")
        writer.writerow(table)
        writer.writerows(zip(*cells))


def _write_report(path: str, report: dict) -> None:
    validate_report(report)
    text = json.dumps(report, sort_keys=True, indent=2, allow_nan=False)
    with open(path, "w", encoding="utf-8") as handle:
        handle.write(text + "\n")


def _analysis_report(verdict) -> dict:
    steady = None
    if verdict.steady_state is not None:
        ss = verdict.steady_state
        steady = {
            "u_bar": _matrix(ss.u_bar),
            "r_bar": _matrix(ss.r_bar),
            "y_bar": _matrix(ss.y_bar),
            "trace_u_bar": float(np.trace(ss.u_bar)),
            "trace_y_bar": float(np.trace(ss.y_bar)),
        }
    return {
        "kind": "analysis",
        "interpretation": verdict.interpretation,
        "mss": verdict.mss,
        "h2_finite": verdict.h2_finite,
        "h2_squared": _num(verdict.h2_squared),
        "rho": _num(verdict.rho),
        "power_iterations": verdict.spectral.iterations,
        "power_converged": verdict.spectral.converged,
        "flags": list(verdict.flags),
        "steady_state": steady,
    }


def _verdict_summary(verdict) -> dict:
    trace = None
    if verdict.steady_state is not None:
        trace = float(np.trace(verdict.steady_state.y_bar))
    return {
        "mss": verdict.mss,
        "h2_finite": verdict.h2_finite,
        "h2_squared": _num(verdict.h2_squared),
        "rho": _num(verdict.rho),
        "trace_y_bar": trace,
    }


def _ensemble_summary(ensemble) -> dict:
    return {
        "terminal_var_y": _num(ensemble.var_y[-1]),
        "terminal_stderr_y": _num(ensemble.stderr_y[-1]),
        "terminal_n_diverged": int(ensemble.n_diverged[-1]),
    }


def _print_verdict(verdict) -> None:
    h2 = "infinite" if not verdict.h2_finite else repr(float(verdict.h2_squared))
    conv = "converged" if verdict.spectral.converged else "NOT converged"
    print(f"interpretation:        {verdict.interpretation}")
    print(f"forward block |H|_2^2: {h2}")
    print(
        f"loop gain rho:         {verdict.rho!r} "
        f"({verdict.spectral.iterations} power iterations, {conv})"
    )
    if verdict.flags:
        print(f"flags:                 {', '.join(verdict.flags)}")
    print(f"mean-square stable:    {'yes' if verdict.mss else 'no'}")
    if verdict.steady_state is not None:
        print(
            "steady state traces:   "
            f"u={float(np.trace(verdict.steady_state.u_bar))!r} "
            f"y={float(np.trace(verdict.steady_state.y_bar))!r}"
        )


def _settings(section: str, cls, values: dict, args):
    """Build dataclass ``cls`` from config values, where a command line
    flag named after a field takes the place of its value."""
    values = dict(values)
    for field in dataclasses.fields(cls):
        flag = getattr(args, field.name, None)
        if flag is not None:
            values[field.name] = flag
        elif field.name not in values and field.default is dataclasses.MISSING:
            raise ConfigError(
                f"{section}.{field.name}",
                f"required: set it in the config or pass "
                f"--{field.name.replace('_', '-')}",
            )
    try:
        return cls(**values)
    except (MsslabError, ValueError) as err:
        raise ConfigError(section, str(err)) from err


def _simulation_config(cfg: ProblemConfig, args) -> SimulationConfig:
    values = vars(cfg.simulation) if cfg.simulation is not None else {}
    values = {**values, "interpretation": cfg.interpretation}
    return _settings("simulation", SimulationConfig, values, args)


def _trajectory(cfg: ProblemConfig, sim_config: SimulationConfig):
    return covariance_trajectory(
        cfg.system,
        cfg.noise,
        sim_config.interpretation,
        horizon=sim_config.horizon,
        dt=sim_config.dt,
    )


def _cmd_analyze(cfg: ProblemConfig, args):
    options = _settings("analysis", AnalysisOptions, vars(cfg.analysis), args)
    verdict = analyze(cfg.system, cfg.noise, cfg.interpretation, options)
    _print_verdict(verdict)
    code = EXIT_OK if verdict.mss else EXIT_NOT_MSS
    return code, _analysis_report(verdict), None


def _cmd_simulate(cfg: ProblemConfig, args):
    sim_config = _simulation_config(cfg, args)
    ensemble = run_ensemble(cfg.system, cfg.noise, sim_config)
    try:
        predicted = _trajectory(cfg, sim_config).trace_y
    except NonFinite:
        # no prediction: empty cells and a null in the report
        predicted = np.full(sim_config.n_steps + 1, np.nan)
    terminal_pred = _num(predicted[-1])
    print(
        f"simulated {sim_config.n_paths} paths, {sim_config.n_steps} steps "
        f"of dt={sim_config.dt!r} ({sim_config.interpretation}, "
        f"{sim_config.scheme})"
    )
    var_terminal = _num(ensemble.var_y[-1])
    err_terminal = _num(ensemble.stderr_y[-1])
    print(
        f"var_y({sim_config.horizon!r}) = {var_terminal!r} "
        f"+- {err_terminal!r}, predicted {terminal_pred!r}, "
        f"{int(ensemble.n_diverged[-1])} diverged"
    )
    table = {
        "t": ensemble.times,
        "var_y_empirical": ensemble.var_y,
        "stderr_y": ensemble.stderr_y,
        "var_y_predicted": predicted,
        "n_diverged": ensemble.n_diverged,
    }
    report = {
        "kind": "simulation",
        "interpretation": sim_config.interpretation,
        "scheme": sim_config.scheme,
        "dt": sim_config.dt,
        "horizon": sim_config.horizon,
        "n_paths": sim_config.n_paths,
        "seed": sim_config.seed,
        "terminal_time": float(ensemble.times[-1]),
        "terminal_var_y": var_terminal,
        "terminal_stderr_y": err_terminal,
        "terminal_n_diverged": int(ensemble.n_diverged[-1]),
        "predicted_terminal_var_y": terminal_pred,
        "csv": args.csv,
    }
    return EXIT_OK, report, table


def _cmd_trajectory(cfg: ProblemConfig, args):
    sim_config = _simulation_config(cfg, args)
    traj = _trajectory(cfg, sim_config)
    trace_u = traj.trace_u
    trace_r = np.trace(traj.r, axis1=1, axis2=2)
    trace_y = traj.trace_y
    print(
        f"covariance recursion over {len(traj.times) - 1} steps "
        f"({sim_config.interpretation})"
    )
    print(
        f"terminal traces: u={float(trace_u[-1])!r} r={float(trace_r[-1])!r} "
        f"y={float(trace_y[-1])!r}"
    )
    table = {"t": traj.times, "trace_u": trace_u, "trace_r": trace_r, "trace_y": trace_y}
    report = {
        "kind": "trajectory",
        "interpretation": sim_config.interpretation,
        "dt": sim_config.dt,
        "horizon": sim_config.horizon,
        "terminal_time": float(traj.times[-1]),
        "terminal_trace_u": _num(trace_u[-1]),
        "terminal_trace_r": _num(trace_r[-1]),
        "terminal_trace_y": _num(trace_y[-1]),
        "csv": args.csv,
    }
    return EXIT_OK, report, table


def _cmd_compare(cfg: ProblemConfig, args):
    sim_config = _simulation_config(cfg, args)
    verdict_ito = analyze(cfg.system, cfg.noise, "ito", cfg.analysis)
    verdict_strat = analyze(cfg.system, cfg.noise, "stratonovich", cfg.analysis)

    equivalent = equivalent_ito_system(cfg.system, cfg.noise.gamma_cov)
    config_ito = dataclasses.replace(sim_config, interpretation="ito")
    config_strat = dataclasses.replace(sim_config, interpretation="stratonovich")
    ens_ito = run_ensemble(equivalent, cfg.noise, config_ito)
    ens_strat = run_ensemble(cfg.system, cfg.noise, config_strat)

    v1, v2 = ens_ito.var_y[-1], ens_strat.var_y[-1]
    e1, e2 = ens_ito.stderr_y[-1], ens_strat.stderr_y[-1]
    difference = abs(v1 - v2)
    tolerance = 3.0 * math.hypot(e1, e2)
    agree = bool(
        math.isfinite(difference)
        and math.isfinite(tolerance)
        and difference <= tolerance
    )

    def fmt(v):
        return "n/a" if v is None else repr(float(v))

    print(
        f"analysis ito:          rho={verdict_ito.rho!r} "
        f"mss={'yes' if verdict_ito.mss else 'no'}"
    )
    print(
        f"analysis stratonovich: rho={verdict_strat.rho!r} "
        f"mss={'yes' if verdict_strat.mss else 'no'}"
    )
    print(
        f"simulated var_y({sim_config.horizon!r}): "
        f"equivalent-block ito {fmt(_num(v1))} +- {fmt(_num(e1))}, "
        f"stratonovich {fmt(_num(v2))} +- {fmt(_num(e2))}"
    )
    print(
        f"agreement: |diff|={fmt(_num(difference))} "
        f"tol={fmt(_num(tolerance))} -> {'agree' if agree else 'DISAGREE'}"
    )
    report = {
        "kind": "comparison",
        "dt": sim_config.dt,
        "horizon": sim_config.horizon,
        "n_paths": sim_config.n_paths,
        "seed": sim_config.seed,
        "scheme": sim_config.scheme,
        "analysis_ito": _verdict_summary(verdict_ito),
        "analysis_stratonovich": _verdict_summary(verdict_strat),
        "simulation_ito_equivalent": _ensemble_summary(ens_ito),
        "simulation_stratonovich": _ensemble_summary(ens_strat),
        "agreement": {
            "difference": _num(difference),
            "tolerance": _num(tolerance),
            "agree": agree,
        },
    }
    return (EXIT_OK if agree else EXIT_DISAGREE), report, None


def _subcommand(sub, name: str, handler, summary: str, interpretation=True):
    parser = sub.add_parser(name, help=summary)
    parser.add_argument("config", help="path to a problem config (JSON)")
    parser.add_argument("--out", metavar="PATH", help="write a JSON report")
    if interpretation:
        parser.add_argument("--interpretation", choices=["ito", "stratonovich"])
    parser.set_defaults(handler=handler, interpretation=None, csv=None)
    return parser


def _add_grid_flags(parser, with_paths=True) -> None:
    parser.add_argument("--dt", type=float, help="simulation step")
    parser.add_argument("--horizon", type=float, help="simulation horizon")
    if with_paths:
        parser.add_argument("--n-paths", type=int, help="ensemble size")
        parser.add_argument("--seed", type=int, help="base RNG seed")
        parser.add_argument(
            "--scheme",
            choices=["state_space_step", "convolution_sum"],
            help="discretization scheme",
        )
    else:
        # the recursion draws no paths; these only complete its grid check
        parser.set_defaults(n_paths=1, seed=0)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="msslab",
        description=(
            "Mean-square stability analysis and simulation of LTI blocks "
            "in multiplicative white-noise feedback."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_analyze = _subcommand(sub, "analyze", _cmd_analyze, "stability verdict")
    p_analyze.add_argument("--power-tol", type=float, default=None)
    p_analyze.add_argument("--power-max-iter", type=int, default=None)

    p_simulate = _subcommand(sub, "simulate", _cmd_simulate, "Monte Carlo ensemble")
    _add_grid_flags(p_simulate)
    p_simulate.add_argument("--csv", metavar="PATH", help="write a CSV table")

    p_traj = _subcommand(sub, "trajectory", _cmd_trajectory, "covariance recursion")
    _add_grid_flags(p_traj, with_paths=False)
    p_traj.add_argument("--csv", metavar="PATH", help="write a CSV table")

    p_compare = _subcommand(
        sub,
        "compare",
        _cmd_compare,
        "both interpretations, analysis and paired simulation",
        interpretation=False,
    )
    _add_grid_flags(p_compare)

    return parser


def main(argv=None) -> int:
    """Run one command, which prints its summary and returns its exit
    code, report and table; write the CSV, then the report; map every
    msslab and I/O error to its exit code."""
    args = build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config)
        if args.interpretation is not None:
            cfg = dataclasses.replace(cfg, interpretation=args.interpretation)
        code, report, table = args.handler(cfg, args)
        if args.csv:
            _write_csv(args.csv, table)
        if args.out:
            _write_report(args.out, report)
        return code
    except (BadGrid, ConfigError, RealizationRequired) as err:
        print(f"config error: {err}", file=sys.stderr)
        return EXIT_CONFIG
    except OSError as err:
        print(f"io error: {err}", file=sys.stderr)
        return EXIT_IO
    except MsslabError as err:
        print(f"error: {err}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
