"""msslab benchmark: one workload per run, in a fresh single-threaded process.

    python3 perfbench/run.py --workload {scalar,coupled,delay} \
        [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --smoke

Run from the repository root.  The last line of standard output is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  ``--smoke`` runs every workload at a tiny size, each in
its own process, and exits non-zero unless all of them are correct.
See perfbench/README.md.
"""

from __future__ import annotations

import os

# One thread everywhere, set before numpy is imported: a run that can use
# both CPUs of a small host loses one now and then, and every metric moves.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS", "MSSLAB_THREADS"):
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
from pathlib import Path  # noqa: E402
from time import perf_counter  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("scalar", "coupled", "delay")
SETUP_REPEATS = 5
MIN_ROUNDS = 4


def _declared_units(kind: str) -> dict:
    """Metric name -> unit of the ``kind`` metrics BENCHMARK.json declares."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return {m["name"]: m["unit"] for m in spec[kind]}


def _require_sources() -> None:
    """Refuse to run without the program's sources beside the benchmark."""
    needed = [
        ROOT / "BENCHMARK.json",
        ROOT / "src" / "msslab" / "__init__.py",
        ROOT / "configs" / "scalar_ito.json",
    ]
    missing = [str(p.relative_to(ROOT)) for p in needed if not p.is_file()]
    if missing:
        sys.exit(f"perfbench: run from a checkout of msslab; missing {', '.join(missing)}")
    for path in (str(HERE), str(ROOT / "src")):
        if path not in sys.path:
            sys.path.insert(0, path)


def _setup_probe(workload: str, seed: int) -> None:
    """Child process: time import msslab, then building the workload."""
    start = perf_counter()
    import msslab  # noqa: F401

    imported = perf_counter()
    import workloads

    workloads.make(workload, ROOT, seed, None)
    done = perf_counter()
    print(json.dumps({"import_s": imported - start, "setup_s": done - start}))


def _measure_setup(workload: str, seed: int, repeats: int) -> list[dict]:
    runs = []
    for _ in range(repeats):
        child = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, capture_output=True, text=True, timeout=120, check=True,
        )
        runs.append(json.loads(child.stdout.strip().splitlines()[-1]))
    return runs


def _median(values) -> float:
    return float(statistics.median(values))


def _end_to_end(rounds, setups) -> dict:
    def rate(phase):
        return _median(r.work[phase] / r.times[phase] for r in rounds)

    return {
        "setup_s": _median(s["setup_s"] for s in setups),
        "wall_s": _median(r.wall for r in rounds),
        "verdicts_per_s": rate("sweep"),
        "path_steps_per_s.ito": rate("ito"),
        "path_steps_per_s.stratonovich": rate("stratonovich"),
        "trajectory_steps_per_s": rate("trajectory"),
        "cli_s": _median(r.times["cli"] for r in rounds),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }


def _per_layer(tracer, traced: dict, untraced: list, counts: dict, setups) -> dict:
    ids = list(traced)

    def per_round(name):
        d = tracer.durations(name)
        return [d.get(r, 0.0) for r in ids]

    def med(name, scale=1.0):
        return _median(per_round(name)) * scale

    draw = {k: per_round(f"noise.draw.{k}") for k in ("ito", "stratonovich")}
    ens = {k: per_round(f"simulate.run_ensemble.{k}") for k in ("ito", "stratonovich")}
    draw_total = [a + b for a, b in zip(draw["ito"], draw["stratonovich"])]
    normals = counts["normals.ito"] + counts["normals.stratonovich"]
    ito_on_grid = per_round("simulate.run_ensemble.ito_on_stratonovich_grid")
    return {
        "setup.import_s": _median(s["import_s"] for s in setups),
        "noise.draw_s": _median(draw_total),
        "noise.normals_per_s": normals / _median(draw_total),
        "simulate.ensemble_s.ito": _median(ens["ito"]),
        "simulate.ensemble_s.stratonovich": _median(ens["stratonovich"]),
        "simulate.step_s.ito": _median(e - d for e, d in zip(ens["ito"], draw["ito"])),
        "simulate.step_s.stratonovich": _median(
            e - d for e, d in zip(ens["stratonovich"], draw["stratonovich"])
        ),
        "simulate.midpoint_s": _median(
            s - i for s, i in zip(ens["stratonovich"], ito_on_grid)
        ),
        "system.impulse_grid_s": med("system.impulse_response_grid"),
        "system.h2_ms": med("system.h2_norm_squared", 1e3),
        "loopgain.make_lgo_ms": med("loopgain.make_lgo", 1e3),
        "loopgain.apply_ms": med("loopgain.apply_lgo", 1e3),
        "loopgain.power_ms": med("loopgain.spectral_radius_power", 1e3),
        "loopgain.power_iterations": counts["power_iterations"],
        "loopgain.operator_matrix_ms": med("loopgain.operator_matrix", 1e3),
        "analysis.analyze_ms": _median(tracer.each("analysis.analyze")) * 1e3,
        "analysis.trajectory_s": med("analysis.covariance_trajectory"),
        "config.load_ms": med("config.load_config", 1e3),
        "config.validate_report_ms": med("config.validate_report", 1e3),
        "cli.analyze_s": med("cli.analyze"),
        "cli.simulate_s": med("cli.simulate"),
        "cli.trajectory_s": med("cli.trajectory"),
        "cli.compare_s": med("cli.compare"),
        "trace.overhead_s": _median(r.wall for r in traced.values())
        - _median(r.wall for r in untraced),
    }


def run(workload: str, seed: int, seconds: float, trace: bool, smoke: bool) -> dict:
    setups = _measure_setup(workload, seed, 1 if smoke else SETUP_REPEATS)
    import workloads
    from tracing import Tracer

    OUT.mkdir(exist_ok=True)
    tracer = Tracer()
    with tempfile.TemporaryDirectory(dir=OUT, prefix=f"{workload}-") as tmp:
        bench = workloads.make(workload, ROOT, seed, Path(tmp), smoke)
        tracer.round = "warmup"
        warmup = bench.run_round(tracer)
        expected = bench.fingerprint(warmup.out)
        rounds, traced, counts = [], {}, {}
        attempted, failed = warmup.attempted, warmup.failed
        mismatched = 0
        min_rounds = 2 if smoke else MIN_ROUNDS
        start = perf_counter()
        while len(rounds) + len(traced) < min_rounds or (
            not smoke and perf_counter() - start < seconds
        ):
            index = len(rounds) + len(traced)
            tracer.round = index
            tracer.enabled = trace and index % 2 == 0
            result = bench.run_round(tracer)
            if tracer.enabled:
                traced[index] = result
                counts = bench.probe(tracer)
            else:
                rounds.append(result)
            tracer.enabled = False
            attempted += result.attempted
            failed += result.failed
            mismatched += bench.fingerprint(result.out) != expected
        failures = bench.check(warmup.out)
    if mismatched:
        failures.append(f"{workload}.repeat: {mismatched} rounds differ from the first")
    if trace:
        metrics = _per_layer(tracer, traced, rounds, counts, setups)
        trace_file = OUT / f"trace-{workload}-seed{seed}.json"
        trace_file.write_text(
            json.dumps({"workload": workload, "seed": seed, "spans": tracer.spans, "metrics": metrics}),
            encoding="utf-8",
        )
    else:
        metrics = _end_to_end(rounds, setups)
    units = _declared_units("per_layer" if trace else "end_to_end")
    if set(metrics) != set(units):
        raise RuntimeError(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
    for message in failures:
        print(message, file=sys.stderr)
    return {
        "correct": not failures,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": float(v), "unit": units[k]} for k, v in metrics.items()},
    }


def _smoke() -> int:
    ok = True
    for workload in WORKLOADS:
        for trace in ("0", "1"):
            child = subprocess.run(
                [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
                 "--trace", trace, "--smoke-one"],
                cwd=ROOT, capture_output=True, text=True, timeout=600,
            )
            lines = child.stdout.strip().splitlines()
            result = json.loads(lines[-1]) if child.returncode == 0 and lines else None
            good = bool(result and result["correct"])
            ok &= good
            print(f"{workload} --trace {trace}: {'ok' if good else 'FAILED'}"
                  + ("" if good else f"\n{child.stderr}"))
    print(json.dumps({"smoke": "ok" if ok else "failed"}))
    return 0 if ok else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true", help="every workload at a tiny size")
    parser.add_argument("--smoke-one", action="store_true", help=argparse.SUPPRESS)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    _require_sources()
    if args.smoke:
        return _smoke()
    if args.workload is None:
        parser.error("--workload is required")
    if args.setup_probe:
        _setup_probe(args.workload, args.seed)
        return 0
    result = run(args.workload, args.seed, args.seconds, bool(args.trace), args.smoke_one)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
