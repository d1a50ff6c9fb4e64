"""The benchmark's three workloads: their loops, one round of work, checks.

A round is one closed-loop pass by a single caller: the gain sweep of
``analyze`` calls, one Ito and one Stratonovich ``run_ensemble``, one
``covariance_trajectory`` and an in-process CLI session, each started
when the previous one ends.  Every round does the same operations, so
the share of failed operations is the same in every run.

Checks compare the outputs of a round with values computed apart in
``reference.py`` or with properties the method must have; each failed
check is one message that starts with ``<workload>.<check>:``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import msslab
import msslab.cli

import make_inputs
import reference as ref

WORKLOADS = ("scalar", "coupled", "delay")

# A simulated second moment may sit Z_SE of its own standard errors from
# the continuous-time reference, plus DT_ALLOWANCE * dt relative to the
# reference.  The allowance covers the first-order discretisation error:
# measured on these loops it is at most 3.1 dt, for the I + A dt ensemble
# step and for the e^{A dt} covariance recursion alike, so a later change
# of the step rule still passes.
Z_SE = 5.0
DT_ALLOWANCE = 10.0
RHO_REL = 1e-7
EXACT_REL = 1e-8

# msslab draws each path's increments in chunks of this many steps; the
# noise probe replays the same calls.
DRAW_CHUNK = 2048


@dataclass
class SweepPoint:
    label: str
    system: msslab.LtiSystem
    noise: msslab.NoiseSpec
    interpretation: str
    value: float


@dataclass
class Ensemble:
    system: msslab.LtiSystem
    noise: msslab.NoiseSpec
    config: msslab.SimulationConfig

    @property
    def path_steps(self) -> int:
        return self.config.n_paths * self.config.n_steps


@dataclass
class Trajectory:
    system: msslab.LtiSystem
    noise: msslab.NoiseSpec
    interpretation: str
    horizon: float
    dt: float

    @property
    def steps(self) -> int:
        return int(round(self.horizon / self.dt))


@dataclass
class RoundResult:
    times: dict = field(default_factory=dict)
    work: dict = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    out: dict = field(default_factory=dict)

    @property
    def wall(self) -> float:
        return sum(self.times.values())


def _verdict_summary(verdict) -> dict:
    steady = verdict.steady_state
    return {
        "rho": verdict.rho,
        "mss": verdict.mss,
        "h2_finite": verdict.h2_finite,
        "flags": verdict.flags,
        "u_bar": None if steady is None else steady.u_bar.copy(),
        "y_bar": None if steady is None else steady.y_bar.copy(),
    }


def _rel_close(got, want, rel) -> bool:
    return math.isfinite(got) and abs(got - want) <= rel * abs(want)


class Workload:
    """Shared round and probe logic; subclasses build loops and checks."""

    name = ""
    sweep_repeats = 1

    def __init__(self, root: Path, seed: int, tmp: Path | None, smoke: bool = False):
        self.root = root
        self.seed = seed
        self.tmp = tmp
        self.smoke = smoke
        self.sweep: list[SweepPoint] = []
        self.ensembles: dict[str, Ensemble] = {}
        self.trajectory: Trajectory | None = None
        self.cli_session: list[tuple[str, list[str], int]] = []
        self.build()

    # -- construction -------------------------------------------------
    def build(self) -> None:
        raise NotImplementedError

    def config_path(self, name: str) -> str:
        return str(self.root / name)

    def out_path(self, name: str) -> str:
        return str(self.tmp / name) if self.tmp is not None else ""

    def sim_config(self, dt, horizon, n_paths, interpretation, scheme="state_space_step"):
        return msslab.SimulationConfig(
            dt=dt,
            horizon=horizon,
            n_paths=n_paths,
            seed=self.seed,
            interpretation=interpretation,
            scheme=scheme,
        )

    def cli_files(self, command: str, csv: bool = True) -> list[str]:
        files = ["--out", self.out_path(f"{command}.json")]
        return files + (["--csv", self.out_path(f"{command}.csv")] if csv else [])

    # -- one round ------------------------------------------------------
    def run_round(self, tracer) -> RoundResult:
        res = RoundResult()
        with tracer.span("round"):
            self._sweep(res, tracer)
            for label, ens in self.ensembles.items():
                self._ensemble(res, tracer, label, ens)
            self._trajectory(res, tracer)
            self._cli(res, tracer)
        return res

    def _sweep(self, res, tracer) -> None:
        summaries = []
        completed = 0
        start = perf_counter()
        with tracer.span("phase.sweep"):
            for repeat in range(self.sweep_repeats):
                for point in self.sweep:
                    res.attempted += 1
                    try:
                        with tracer.span("analysis.analyze"):
                            verdict = msslab.analyze(
                                point.system, point.noise, point.interpretation
                            )
                    except msslab.MsslabError as err:
                        res.failed += 1
                        summary = {"error": type(err).__name__, "message": str(err)}
                    else:
                        completed += 1
                        summary = _verdict_summary(verdict) if repeat == 0 else None
                    if repeat == 0:
                        summaries.append(summary)
        res.times["sweep"] = perf_counter() - start
        res.work["sweep"] = completed
        res.out["sweep"] = summaries

    def _ensemble(self, res, tracer, label, ens) -> None:
        res.attempted += 1
        start = perf_counter()
        with tracer.span(f"simulate.run_ensemble.{label}"):
            result = msslab.run_ensemble(ens.system, ens.noise, ens.config)
        res.times[label] = perf_counter() - start
        res.work[label] = ens.path_steps
        res.out.setdefault("ensembles", {})[label] = {
            "var_y": float(result.var_y[-1]),
            "stderr_y": float(result.stderr_y[-1]),
            "n_diverged": int(result.n_diverged[-1]),
        }

    def _trajectory(self, res, tracer) -> None:
        traj = self.trajectory
        res.attempted += 1
        start = perf_counter()
        with tracer.span("analysis.covariance_trajectory"):
            result = msslab.covariance_trajectory(
                traj.system, traj.noise, traj.interpretation, traj.horizon, traj.dt
            )
        res.times["trajectory"] = perf_counter() - start
        res.work["trajectory"] = traj.steps
        res.out["trajectory"] = result.trace_y.copy()

    def _cli(self, res, tracer) -> None:
        codes = {}
        printed = io.StringIO()
        start = perf_counter()
        with tracer.span("phase.cli"), contextlib.redirect_stdout(
            printed
        ), contextlib.redirect_stderr(printed):
            for command, argv, _ in self.cli_session:
                res.attempted += 1
                with tracer.span(f"cli.{command}"):
                    codes[command] = msslab.cli.main([command, *argv])
        res.times["cli"] = perf_counter() - start
        reports = {}
        for command, _, _ in self.cli_session:
            with open(self.out_path(f"{command}.json"), encoding="utf-8") as handle:
                reports[command] = json.load(handle)
        res.out["cli"] = {"codes": codes, "reports": reports}

    # -- layer probes, traced rounds only ---------------------------------
    def probe_base(self):
        """(system, noise, interpretation, backend) for the operator probes."""
        raise NotImplementedError

    def probe(self, tracer) -> dict:
        counts = {}
        for label, ens in self.ensembles.items():
            cfg = ens.config
            with tracer.span(f"noise.draw.{label}"):
                gens = [msslab.philox_generator(cfg.seed, i) for i in range(cfg.n_paths)]
                for start in range(0, cfg.n_steps, DRAW_CHUNK):
                    chunk = min(DRAW_CHUNK, cfg.n_steps - start)
                    for gen in gens:
                        msslab.draw_increment_chunk(ens.noise, cfg.dt, chunk, gen)
            counts[f"normals.{label}"] = cfg.n_paths * cfg.n_steps * (
                ens.noise.n_gains + ens.noise.n_drive
            )
        strat = self.ensembles["stratonovich"]
        ito_cfg = msslab.SimulationConfig(
            dt=strat.config.dt,
            horizon=strat.config.horizon,
            n_paths=strat.config.n_paths,
            seed=strat.config.seed,
            interpretation="ito",
            scheme=strat.config.scheme,
        )
        with tracer.span("simulate.run_ensemble.ito_on_stratonovich_grid"):
            msslab.run_ensemble(strat.system, strat.noise, ito_cfg)
        with tracer.span("system.impulse_response_grid"):
            msslab.impulse_response_grid(
                strat.system, strat.config.dt, strat.config.n_steps + 1
            )
        system, noise, interpretation, backend = self.probe_base()
        with tracer.span("system.h2_norm_squared"):
            try:
                msslab.h2_norm_squared(system)
            except msslab.RealizationRequired:
                pass  # sampled kernel: the refusal is what is timed
        with tracer.span("loopgain.make_lgo"):
            handle = msslab.make_lgo(system, noise.gamma_cov, interpretation, backend)
        with tracer.span("loopgain.apply_lgo"):
            msslab.apply_lgo(handle, np.eye(handle.n_loop))
        with tracer.span("loopgain.spectral_radius_power"):
            power = msslab.spectral_radius_power(handle)
        counts["power_iterations"] = power.iterations
        with tracer.span("loopgain.operator_matrix"):
            if system.is_state_space:
                msslab.lgo_matrix_kronecker(system, noise.gamma_cov, interpretation)
            else:
                msslab.lgo_matrix_apply(handle)
        with tracer.span("config.load_config"):
            msslab.load_config(self.cli_session[0][1][0])
        with open(self.out_path("analyze.json"), encoding="utf-8") as handle:
            report = json.load(handle)
        with tracer.span("config.validate_report"):
            msslab.validate_report(report)
        if not any(command == "compare" for command, _, _ in self.cli_session):
            # compare needs a realization; time the refusal of a sampled kernel
            with tracer.span("cli.compare"), contextlib.redirect_stdout(
                io.StringIO()
            ), contextlib.redirect_stderr(io.StringIO()):
                msslab.cli.main(["compare", self.cli_session[0][1][0]])
        return counts

    # -- checks ---------------------------------------------------------
    def check(self, out: dict) -> list[str]:
        raise NotImplementedError

    def fail(self, failures: list[str], check: str, message: str) -> None:
        failures.append(f"{self.name}.{check}: {message}")

    def moment_reference(self, label: str) -> float:
        """Continuous-time E|y(T)|^2 of the loop the ensemble simulates."""
        raise NotImplementedError

    def check_moments(self, failures, out: dict) -> None:
        """Each ensemble's terminal moment against its reference."""
        for label, ens in self.ensembles.items():
            got = out["ensembles"][label]
            want = self.moment_reference(label)
            check = f"moment.{label}"
            if got["n_diverged"] != 0:
                self.fail(failures, check, f"{got['n_diverged']} paths diverged in a stable loop")
            tol = Z_SE * got["stderr_y"] + DT_ALLOWANCE * ens.config.dt * abs(want)
            if not (math.isfinite(got["var_y"]) and abs(got["var_y"] - want) <= tol):
                self.fail(
                    failures,
                    check,
                    f"E|y|^2 = {got['var_y']:.6g} +- {got['stderr_y']:.3g}, "
                    f"reference {want:.6g}, tolerance {tol:.3g}",
                )

    def check_cli(self, failures, out: dict, rho_want: float) -> None:
        codes = out["cli"]["codes"]
        for command, _, expected in self.cli_session:
            if codes.get(command) != expected:
                self.fail(
                    failures,
                    "cli",
                    f"`msslab {command}` exited {codes.get(command)}, expected {expected}",
                )
        rho = out["cli"]["reports"]["analyze"].get("rho")
        if rho is None or not _rel_close(rho, rho_want, RHO_REL):
            self.fail(failures, "cli", f"analyze report rho {rho}, reference {rho_want:.12g}")

    @staticmethod
    def fingerprint(out: dict) -> tuple:
        """Outputs that must repeat bit for bit in every round."""
        rhos = tuple(s.get("rho") if s else None for s in out["sweep"])
        moments = tuple(
            (e["var_y"], e["stderr_y"]) for e in out["ensembles"].values()
        )
        return rhos + moments + (float(out["trajectory"][-1]),)


class Scalar(Workload):
    """The paper's scalar loop dx = -x dt + u dt, y = x, on the shipped configs."""

    name = "scalar"
    sweep_repeats = 10
    ITO_SWEEP = (0.5, 1.0, 1.5, 1.99, 2.0, 2.01, 2.5)
    STRAT_SWEEP = (0.25, 0.5, 0.9, 0.99, 1.0, 1.01, 1.5, 2.5)
    THRESHOLD = {"ito": 2.0, "stratonovich": 1.0}

    def build(self) -> None:
        ito_path = self.config_path("configs/scalar_ito.json")
        strat_path = self.config_path("configs/scalar_stratonovich.json")
        ito = msslab.load_config(ito_path)
        strat = msslab.load_config(strat_path)
        self.system = ito.system
        self.w = float(ito.noise.w_cov[0, 0])
        for interpretation, values in (("ito", self.ITO_SWEEP), ("stratonovich", self.STRAT_SWEEP)):
            for s2 in values:
                noise = msslab.validate_noise([[s2]], ito.noise.w_cov)
                self.sweep.append(
                    SweepPoint(f"{interpretation} s2={s2}", self.system, noise, interpretation, s2)
                )
        if self.smoke:
            self.sweep_repeats = 1
        horizon, paths = (0.1, 64) if self.smoke else (1.0, 2048)
        dt = ito.simulation.dt
        self.ensembles = {
            "ito": Ensemble(ito.system, ito.noise, self.sim_config(dt, horizon, paths, "ito")),
            "stratonovich": Ensemble(
                strat.system, strat.noise, self.sim_config(dt, horizon, paths, "stratonovich")
            ),
        }
        self.trajectory = Trajectory(
            strat.system, strat.noise, "stratonovich", 0.5 if self.smoke else 8.0, dt
        )
        grid = ["--n-paths", "32" if self.smoke else "512", "--horizon", "0.1" if self.smoke else "1.0"]
        seed = ["--seed", str(self.seed)]
        self.cli_session = [
            ("analyze", [ito_path, "--out", self.out_path("analyze.json")], 0),
            ("simulate", [ito_path, *grid, *seed, *self.cli_files("simulate")], 0),
            ("trajectory", [ito_path, *(["--horizon", "0.1"] if self.smoke else []), *self.cli_files("trajectory")], 0),
            ("compare", [strat_path, *grid, *seed, *self.cli_files("compare", csv=False)], 0),
        ]

    def probe_base(self):
        return self.system, self.ensembles["ito"].noise, "ito", msslab.LyapunovBackend()

    @staticmethod
    def rho_formula(interpretation: str, s2: float) -> float:
        return s2 / 2.0 if interpretation == "ito" else s2 / (2.0 - s2)

    def steady_y(self, interpretation: str, s2: float) -> float:
        return self.w / (2.0 - s2) if interpretation == "ito" else self.w / (2.0 - 2.0 * s2)

    def moment_reference(self, label: str) -> float:
        ens = self.ensembles[label]
        s2 = float(ens.noise.gamma_cov[0, 0])
        rate = 2.0 - s2 if label == "ito" else 2.0 - 2.0 * s2
        return self.w / rate * (1.0 - math.exp(-rate * ens.config.horizon))

    def check(self, out: dict) -> list[str]:
        failures: list[str] = []
        for point, got in zip(self.sweep, out["sweep"]):
            interp, s2 = point.interpretation, point.value
            if "error" in got:
                self.fail(failures, "rho", f"{point.label}: {got['error']} {got['message']}")
                continue
            hurwitz = interp == "ito" or s2 < 2.0
            if hurwitz and not _rel_close(got["rho"], self.rho_formula(interp, s2), RHO_REL):
                self.fail(
                    failures,
                    "rho",
                    f"{point.label}: rho {got['rho']!r}, formula {self.rho_formula(interp, s2)!r}",
                )
            if not hurwitz and (got["h2_finite"] or not got["rho"] > 1.0):
                self.fail(
                    failures,
                    "rho",
                    f"{point.label}: drift not Hurwitz, yet h2_finite={got['h2_finite']} rho={got['rho']!r}",
                )
            if got["mss"] != (s2 < self.THRESHOLD[interp]):
                self.fail(failures, "threshold", f"{point.label}: mss={got['mss']}")
            if got["mss"] and got["y_bar"] is not None:
                y = float(np.trace(got["y_bar"]))
                if not _rel_close(y, self.steady_y(interp, s2), EXACT_REL):
                    self.fail(
                        failures,
                        "steady",
                        f"{point.label}: trace y {y!r}, formula {self.steady_y(interp, s2)!r}",
                    )
        traj = self.trajectory
        s2 = float(traj.noise.gamma_cov[0, 0])
        a_eq = float(ref.loop_drift(traj.system.a, traj.system.b, traj.system.c, traj.noise.gamma_cov, traj.interpretation)[0, 0])
        want = ref.scalar_trajectory(a_eq, s2, self.w, traj.dt, traj.steps)
        got = out["trajectory"]
        if got.shape != want.shape or not np.allclose(got, want, rtol=1e-9, atol=1e-15):
            self.fail(failures, "trajectory", "trace y differs from the exact recursion of its rule")
        self.check_moments(failures, out)
        self.check_cli(failures, out, self.rho_formula("ito", float(self.ensembles["ito"].noise.gamma_cov[0, 0])))
        return failures


class Coupled(Workload):
    """16 states, 4 channels, general A, B, C: Kronecker solves dominate."""

    name = "coupled"
    SCALES = (1.0, 1.6, 2.0, 2.4)

    def build(self) -> None:
        path = self.config_path("perfbench/inputs/coupled.json")
        cfg = msslab.load_config(path)
        big = msslab.load_config(self.config_path("perfbench/inputs/coupled24.json"))
        self.system, self.base = cfg.system, cfg.noise
        for interpretation in ("ito", "stratonovich"):
            for c in self.SCALES:
                noise = msslab.validate_noise(c * cfg.noise.gamma_cov, cfg.noise.w_cov)
                self.sweep.append(
                    SweepPoint(f"{interpretation} c={c}", cfg.system, noise, interpretation, c)
                )
        self.big = SweepPoint("24-state ito", big.system, big.noise, "ito", 1.0)
        self.sweep.append(self.big)
        dt = cfg.simulation.dt
        ito_paths, ito_t, strat_paths, strat_t = (32, 0.1, 32, 0.1) if self.smoke else (512, 1.0, 256, 0.6)
        self.ensembles = {
            "ito": Ensemble(cfg.system, cfg.noise, self.sim_config(dt, ito_t, ito_paths, "ito")),
            "stratonovich": Ensemble(
                cfg.system, cfg.noise, self.sim_config(dt, strat_t, strat_paths, "stratonovich")
            ),
        }
        self.trajectory = Trajectory(
            cfg.system, cfg.noise, "stratonovich", 1.0 if self.smoke else 20.0, dt
        )
        small = ["--n-paths", "16", "--horizon", "0.04"] if self.smoke else []
        seed = ["--seed", str(self.seed)]
        self.cli_session = [
            ("analyze", [path, "--out", self.out_path("analyze.json")], 0),
            ("simulate", [path, *small, *seed, *self.cli_files("simulate")], 0),
            ("trajectory", [path, "--horizon", "0.1" if self.smoke else "4.0", *self.cli_files("trajectory")], 0),
            ("compare", [path, *small, *seed, *self.cli_files("compare", csv=False)], 0),
        ]

    def probe_base(self):
        return self.system, self.base, "ito", msslab.LyapunovBackend()

    @staticmethod
    def operator(point: SweepPoint) -> np.ndarray:
        s, g = point.system, point.noise.gamma_cov
        a = ref.loop_drift(s.a, s.b, s.c, g, point.interpretation)
        return ref.kronecker_operator(a, s.b, s.c, g)

    @staticmethod
    def moment(system, noise, interpretation, t) -> float:
        a = ref.loop_drift(system.a, system.b, system.c, noise.gamma_cov, interpretation)
        return ref.output_second_moment(a, system.b, system.c, noise.gamma_cov, noise.w_cov, t)

    def moment_reference(self, label: str) -> float:
        ens = self.ensembles[label]
        return self.moment(ens.system, ens.noise, label, ens.config.horizon)

    def check(self, out: dict) -> list[str]:
        failures: list[str] = []
        ito_ratio = None
        for point, got in zip(self.sweep, out["sweep"]):
            big = point is self.big
            if "error" in got:
                if not (big and got["error"] == "DimensionMismatch"):
                    self.fail(failures, "rho", f"{point.label}: {got['error']} {got['message']}")
                continue
            k = self.operator(point)
            rho_ref = ref.spectral_radius(k)
            if not _rel_close(got["rho"], rho_ref, RHO_REL):
                self.fail(failures, "rho", f"{point.label}: rho {got['rho']!r}, reference {rho_ref!r}")
            if got["mss"] != (rho_ref < 1.0):
                self.fail(failures, "threshold", f"{point.label}: mss={got['mss']}, reference rho {rho_ref!r}")
            if point.interpretation == "ito" and not big:
                ratio = got["rho"] / point.value
                if ito_ratio is None:
                    ito_ratio = ratio
                elif not _rel_close(ratio, ito_ratio, EXACT_REL):
                    self.fail(failures, "scaling", f"{point.label}: rho/c {ratio!r}, at c=1 {ito_ratio!r}")
            if got["mss"] and got["u_bar"] is not None:
                u = got["u_bar"].flatten(order="F")
                w = point.noise.w_cov.flatten(order="F")
                residual = np.linalg.norm(u - k @ u - w)
                if not residual <= EXACT_REL * np.linalg.norm(u):
                    self.fail(failures, "steady", f"{point.label}: |U - W - L(U)| = {residual:.3g}")
                with np.errstate(divide="ignore", invalid="ignore"):
                    unmasked = (k @ u) / point.noise.gamma_cov.flatten(order="F")
                y = got["y_bar"].flatten(order="F")
                if not np.allclose(y, unmasked, rtol=EXACT_REL, atol=EXACT_REL * np.abs(y).max()):
                    self.fail(failures, "steady", f"{point.label}: y_bar is not the unmasked L(U)")
        self.check_moments(failures, out)
        traj = self.trajectory
        want = self.moment(traj.system, traj.noise, traj.interpretation, traj.horizon)
        got = float(out["trajectory"][-1])
        if not abs(got - want) <= DT_ALLOWANCE * traj.dt * want:
            self.fail(failures, "trajectory", f"terminal trace y {got!r}, continuous-time {want!r}")
        base = SweepPoint("base", self.system, self.base, "ito", 1.0)
        self.check_cli(failures, out, ref.spectral_radius(self.operator(base)))
        return failures


class Delay(Workload):
    """A delayed lag known only by impulse-response samples."""

    name = "delay"
    sweep_repeats = 100
    SWEEP = (0.5, 1.0, 1.5, 1.9, 2.0, 2.5)

    def build(self) -> None:
        path = self.config_path("perfbench/inputs/delay.json")
        cfg = msslab.load_config(path)
        self.system, self.base = cfg.system, cfg.noise
        self.tau = make_inputs.DELAY_TAU_STEPS * make_inputs.DELAY_DT
        self.w = float(cfg.noise.w_cov[0, 0])
        for s2 in self.SWEEP:
            noise = msslab.validate_noise([[s2]], cfg.noise.w_cov)
            self.sweep.append(SweepPoint(f"ito s2={s2}", cfg.system, noise, "ito", s2))
        if self.smoke:
            self.sweep_repeats = 1
        dt = cfg.simulation.dt
        horizon, paths = (1.0, 64) if self.smoke else (5.0, 1024)
        self.ensembles = {
            label: Ensemble(
                cfg.system, cfg.noise, self.sim_config(dt, horizon, paths, label, "convolution_sum")
            )
            for label in ("ito", "stratonovich")
        }
        self.trajectory = Trajectory(cfg.system, cfg.noise, "ito", 2.0 if self.smoke else 40.0, dt)
        small = ["--n-paths", "16", "--horizon", "0.5"] if self.smoke else []
        self.cli_session = [
            ("analyze", [path, "--out", self.out_path("analyze.json")], 0),
            ("simulate", [path, *small, "--seed", str(self.seed), *self.cli_files("simulate")], 0),
            ("trajectory", [path, "--horizon", "1.0" if self.smoke else "10.0", *self.cli_files("trajectory")], 0),
        ]

    def probe_base(self):
        return self.system, self.base, "ito", msslab.QuadratureBackend()

    def moment_reference(self, label: str) -> float:
        ens = self.ensembles[label]
        s2 = float(ens.noise.gamma_cov[0, 0])
        return ref.delay_second_moment(self.tau, s2, self.w, ens.config.horizon)

    def check(self, out: dict) -> list[str]:
        failures: list[str] = []
        gain = ref.trapezoid_gain(self.system.samples, self.system.sample_dt)
        for point, got in zip(self.sweep, out["sweep"]):
            s2 = point.value
            if "error" in got:
                self.fail(failures, "rho", f"{point.label}: {got['error']} {got['message']}")
                continue
            if not _rel_close(got["rho"], s2 * gain, RHO_REL):
                self.fail(failures, "rho", f"{point.label}: rho {got['rho']!r}, trapezoid sum {s2 * gain!r}")
            if got["mss"] != (s2 * gain < 1.0):
                self.fail(failures, "threshold", f"{point.label}: mss={got['mss']}")
            if got["mss"] and got["y_bar"] is not None:
                want = gain * self.w / (1.0 - s2 * gain)
                y = float(got["y_bar"][0, 0])
                if not _rel_close(y, want, EXACT_REL):
                    self.fail(failures, "steady", f"{point.label}: y_bar {y!r}, renewal sum {want!r}")
        s2 = float(self.base.gamma_cov[0, 0])
        traj = self.trajectory
        want = ref.delay_second_moment(self.tau, s2, self.w, traj.horizon)
        got = float(out["trajectory"][-1])
        if not abs(got - want) <= DT_ALLOWANCE * traj.dt * want:
            self.fail(failures, "trajectory", f"terminal trace y {got!r}, renewal equation {want!r}")
        self.check_moments(failures, out)
        ens = out["ensembles"]
        cfg = self.ensembles["ito"].config
        want = self.moment_reference("ito")
        # M(0) = 0: the Ito and Stratonovich readings are the same loop
        gap = abs(ens["ito"]["var_y"] - ens["stratonovich"]["var_y"])
        tol = Z_SE * math.hypot(ens["ito"]["stderr_y"], ens["stratonovich"]["stderr_y"]) + DT_ALLOWANCE * cfg.dt * want
        if not gap <= tol:
            self.fail(failures, "readings_agree", f"Ito and Stratonovich E|y|^2 differ by {gap:.3g} > {tol:.3g}")
        self.check_cli(failures, out, s2 * gain)
        return failures


def make(name: str, root: Path, seed: int, tmp: Path | None, smoke: bool = False) -> Workload:
    return {"scalar": Scalar, "coupled": Coupled, "delay": Delay}[name](root, seed, tmp, smoke)
