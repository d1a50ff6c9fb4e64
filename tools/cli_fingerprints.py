"""Fingerprint the `msslab` command line on a fixed set of cases.

    python3 tools/cli_fingerprints.py [CASE_ID ...]

Each case runs the CLI of this checkout (``src/`` on ``PYTHONPATH``) in
its own process from the repository root, with every ``--out`` and
``--csv`` file and every generated config in a temporary directory
outside the repository.  One line per case is printed:

    case_id <TAB> argv <TAB> exit=N <TAB> sha256

The digest covers stdout, stderr, the ``--out`` report and the ``--csv``
table (a missing file hashes as absent).  The temporary directory and
the repository root are replaced by ``$TMP`` and ``$ROOT`` before
hashing, so the lines of two checkouts can be diffed directly: a
changed line is a change in exit code or in some output byte.  The
shipped ``configs/`` and ``perfbench/inputs/`` files are only read.
"""

from __future__ import annotations

import hashlib
import json
import os
import shlex
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

ITO = "configs/scalar_ito.json"
STRAT = "configs/scalar_stratonovich.json"
UNSTABLE = "configs/scalar_unstable.json"
COUPLED = "perfbench/inputs/coupled.json"
DELAY = "perfbench/inputs/delay.json"

_SCALAR = {
    "system": {"a": [[-1.0]], "b": [[1.0]], "c": [[1.0]]},
    "noise": {"gamma_cov": [[0.5]], "w_cov": [[1.0]]},
}
_GRID = {"dt": 0.01, "horizon": 0.5, "seed": 42}

# Configs written to the temporary directory, referred to as $TMP/<name>.json.
GENERATED = {
    "nosim": _SCALAR,
    "overflow": {
        "system": {"a": [[100.0]], "b": [[1.0]], "c": [[1.0]]},
        "noise": {"gamma_cov": [[0.0]], "w_cov": [[1.0]]},
    },
    "nonhurwitz": {**_SCALAR, "system": {"a": [[0.5]], "b": [[1.0]], "c": [[1.0]]}},
    "unknown_key": {**_SCALAR, "extra": 1},
    "sim_int": {**_SCALAR, "simulation": {**_GRID, "n_paths": 20}},
    "sim_float_paths": {**_SCALAR, "simulation": {**_GRID, "n_paths": 20.0}},
    "sim_float_seed": {**_SCALAR, "simulation": {**_GRID, "n_paths": 20, "seed": 42.0}},
    "analysis_int": {**_SCALAR, "analysis": {"power_max_iter": 100}},
    "analysis_float": {**_SCALAR, "analysis": {"power_max_iter": 100.0}},
    # schema errors named only by the jsonschema walk, and a ragged matrix
    # that the schema passes and the constructors refuse
    "bool_entry": {**_SCALAR, "system": {"a": [[True]], "b": [[1.0]], "c": [[1.0]]}},
    "sampled_string": {
        **_SCALAR,
        "system": {"dt": 0.1, "samples": [[[1.0]], [["0.5"]], [[0.25]]]},
    },
    "ragged_gamma_cov": {**_SCALAR, "noise": {"gamma_cov": [[0.5], [0.1, 0.2]], "w_cov": [[1.0]]}},
    # a two-channel gain covariance around the one-channel scalar block
    "gamma_size": {**_SCALAR, "noise": {"gamma_cov": [[0.5, 0.0], [0.0, 0.5]], "w_cov": [[1.0]]}},
}

_SMALL = ["--n-paths", "50", "--dt", "0.01", "--horizon", "0.5"]
_OUT = ["--out", "$TMP/report.json"]
_CSV = ["--csv", "$TMP/table.csv"]


def _cases() -> list[tuple[str, list[str]]]:
    cases = []
    for name, path in (
        ("ito", ITO),
        ("strat", STRAT),
        ("unstable", UNSTABLE),
        ("coupled", COUPLED),
        ("delay", DELAY),
    ):
        cases += [
            (f"analyze.{name}", ["analyze", path, *_OUT]),
            (f"simulate.{name}", ["simulate", path, *_OUT, *_CSV]),
            (f"trajectory.{name}", ["trajectory", path, *_OUT, *_CSV]),
            (f"compare.{name}", ["compare", path, *_OUT]),
        ]
    cases += [
        # flag variants
        ("analyze.ito_as_strat", ["analyze", ITO, "--interpretation", "stratonovich", *_OUT]),
        ("analyze.strat_as_ito", ["analyze", STRAT, "--interpretation", "ito", *_OUT]),
        ("analyze.power_flags", ["analyze", COUPLED, "--power-tol", "1e-6", "--power-max-iter", "5", *_OUT]),
        ("analyze.power_max_iter_1", ["analyze", COUPLED, "--power-max-iter", "1", *_OUT]),
        ("analyze.nonhurwitz", ["analyze", "$TMP/nonhurwitz.json", *_OUT]),
        ("analyze.quad_flags", ["analyze", "$TMP/nonhurwitz.json", "--quad-horizon", "20", "--quad-dt", "0.01", *_OUT]),
        ("analyze.delay_quad_flags", ["analyze", DELAY, "--quad-horizon", "10", *_OUT]),
        ("simulate.one_path", ["simulate", ITO, "--n-paths", "1", "--dt", "0.01", "--horizon", "1.0", *_OUT, *_CSV]),
        ("simulate.strat_convolution", ["simulate", STRAT, *_SMALL, "--scheme", "convolution_sum", *_OUT, *_CSV]),
        ("simulate.ito_as_strat", ["simulate", ITO, *_SMALL, "--interpretation", "stratonovich", *_OUT, *_CSV]),
        ("simulate.coupled_strat", ["simulate", COUPLED, "--interpretation", "stratonovich", "--n-paths", "64", *_OUT, *_CSV]),
        ("simulate.downsampled", ["simulate", ITO, "--n-paths", "20", "--seed", "7", "--dt", "0.001", "--horizon", "5.0", *_OUT, *_CSV]),
        ("simulate.overflow", ["simulate", "$TMP/overflow.json", "--n-paths", "4", "--seed", "1", "--dt", "0.01", "--horizon", "5.0", *_OUT, *_CSV]),
        ("simulate.csv_only", ["simulate", ITO, *_SMALL, *_CSV]),
        ("trajectory.grid_flags", ["trajectory", ITO, "--dt", "0.01", "--horizon", "2.0", *_OUT, *_CSV]),
        ("trajectory.strat_as_ito", ["trajectory", STRAT, "--interpretation", "ito", "--horizon", "1.0", *_OUT, *_CSV]),
        ("trajectory.coupled_short", ["trajectory", COUPLED, "--horizon", "0.1", *_OUT, *_CSV]),
        ("trajectory.nosim_flags", ["trajectory", "$TMP/nosim.json", "--dt", "0.01", "--horizon", "1.0", *_OUT, *_CSV]),
        ("trajectory.scheme", ["trajectory", ITO, "--scheme", "convolution_sum", *_OUT]),
        ("compare.agree", ["compare", STRAT, "--n-paths", "400", "--dt", "0.01", "--horizon", "1.0", "--seed", "2", *_OUT]),
        ("compare.one_path", ["compare", STRAT, "--n-paths", "1", "--dt", "0.01", "--horizon", "1.0", *_OUT]),
        ("compare.convolution", ["compare", STRAT, *_SMALL, "--scheme", "convolution_sum", *_OUT]),
        # integer fields given as integral floats, next to their int twins
        ("simulate.sim_int", ["simulate", "$TMP/sim_int.json", *_OUT, *_CSV]),
        ("simulate.sim_float_paths", ["simulate", "$TMP/sim_float_paths.json", *_OUT, *_CSV]),
        ("simulate.sim_float_seed", ["simulate", "$TMP/sim_float_seed.json", *_OUT, *_CSV]),
        ("analyze.analysis_int", ["analyze", "$TMP/analysis_int.json", *_OUT]),
        ("analyze.analysis_float", ["analyze", "$TMP/analysis_float.json", *_OUT]),
        # error paths
        ("error.simulate_no_grid", ["simulate", "$TMP/nosim.json", *_OUT]),
        ("error.simulate_no_horizon", ["simulate", "$TMP/nosim.json", "--dt", "0.01"]),
        ("error.simulate_no_paths", ["simulate", "$TMP/nosim.json", "--dt", "0.01", "--horizon", "1.0"]),
        ("error.trajectory_no_grid", ["trajectory", "$TMP/nosim.json", *_OUT]),
        ("error.compare_no_grid", ["compare", "$TMP/nosim.json"]),
        ("error.negative_dt", ["simulate", ITO, "--dt", "-1"]),
        ("error.nan_dt", ["trajectory", ITO, "--dt", "nan"]),
        ("error.ragged_grid", ["simulate", ITO, "--dt", "0.01", "--horizon", "0.015"]),
        ("error.zero_paths", ["simulate", ITO, "--n-paths", "0"]),
        ("error.huge_grid_trajectory", ["trajectory", ITO, "--horizon", "1e300", "--dt", "1e-10"]),
        ("error.huge_grid_simulate", ["simulate", ITO, "--horizon", "1e300", "--dt", "1e-10"]),
        # 2^40 steps: an array can index them, memory cannot hold the rates
        ("error.memory_grid_trajectory", ["trajectory", ITO, "--horizon", "1048576", "--dt", "9.5367431640625e-07"]),
        ("error.memory_grid_simulate", ["simulate", ITO, "--horizon", "1048576", "--dt", "9.5367431640625e-07", "--n-paths", "1"]),
        ("error.power_tol", ["analyze", ITO, "--power-tol", "-1.0"]),
        ("error.quad_dt", ["analyze", ITO, "--quad-dt", "0"]),
        ("error.sampled_compare", ["compare", DELAY, "--n-paths", "4"]),
        ("error.overflow_trajectory", ["trajectory", "$TMP/overflow.json", "--dt", "0.01", "--horizon", "5.0", *_OUT, *_CSV]),
        ("error.unknown_key", ["analyze", "$TMP/unknown_key.json"]),
        ("error.bool_entry", ["analyze", "$TMP/bool_entry.json"]),
        ("error.sampled_string", ["analyze", "$TMP/sampled_string.json"]),
        ("error.ragged_gamma_cov", ["analyze", "$TMP/ragged_gamma_cov.json"]),
        ("error.gamma_size", ["analyze", "$TMP/gamma_size.json"]),
        # seeds outside [0, 2^64): refused before any path is drawn
        ("error.negative_seed", ["simulate", ITO, "--seed", "-1", "--n-paths", "10", "--horizon", "0.1", *_OUT, *_CSV]),
        ("error.huge_seed", ["simulate", ITO, "--seed", "18446744073709551616", "--n-paths", "10", "--horizon", "0.1", *_OUT, *_CSV]),
        ("error.missing_config", ["analyze", "$TMP/absent.json"]),
        ("error.invalid_json", ["analyze", "$TMP/broken.json"]),
        ("error.unwritable_out", ["analyze", ITO, "--out", "$TMP/no_such_dir/report.json"]),
        ("error.unwritable_csv", ["simulate", ITO, *_SMALL, "--csv", "$TMP/no_such_dir/table.csv", *_OUT]),
        # usage errors
        ("usage.no_arguments", []),
        ("usage.unknown_flag", ["analyze", ITO, "--frobnicate"]),
        ("usage.bad_scheme", ["simulate", ITO, "--scheme", "euler"]),
        ("usage.bad_interpretation", ["analyze", ITO, "--interpretation", "ito-ish"]),
        ("usage.bad_int", ["simulate", ITO, "--n-paths", "2.5"]),
        ("usage.compare_interpretation", ["compare", STRAT, "--interpretation", "ito"]),
    ]
    return cases


_RUN = "import sys; from msslab.cli import main; sys.exit(main(sys.argv[1:]))"


def _fingerprint(argv: list[str], tmp: Path) -> tuple[int, str]:
    for name in ("report.json", "table.csv"):
        (tmp / name).unlink(missing_ok=True)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run(
        [sys.executable, "-c", _RUN, *(arg.replace("$TMP", str(tmp)) for arg in argv)],
        cwd=ROOT,
        env=env,
        capture_output=True,
    )
    digest = hashlib.sha256()
    files = [tmp / "report.json", tmp / "table.csv"]
    for label, data in zip(
        ("stdout", "stderr", "report", "csv"),
        [proc.stdout, proc.stderr, *(p.read_bytes() if p.exists() else None for p in files)],
    ):
        if data is None:
            digest.update(f"{label}:absent\n".encode())
            continue
        data = data.replace(str(tmp).encode(), b"$TMP").replace(str(ROOT).encode(), b"$ROOT")
        digest.update(f"{label}:{len(data)}\n".encode() + data)
    return proc.returncode, digest.hexdigest()


def main(argv=None) -> int:
    wanted = set(sys.argv[1:] if argv is None else argv)
    cases = [case for case in _cases() if not wanted or case[0] in wanted]
    with tempfile.TemporaryDirectory(prefix="msslab-fingerprints-") as name:
        tmp = Path(name)
        for stem, data in GENERATED.items():
            (tmp / f"{stem}.json").write_text(json.dumps(data), encoding="utf-8")
        (tmp / "broken.json").write_text("{not json", encoding="utf-8")
        for case_id, case_argv in cases:
            code, digest = _fingerprint(case_argv, tmp)
            print(f"{case_id}\t{shlex.join(case_argv)}\texit={code}\t{digest}", flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
