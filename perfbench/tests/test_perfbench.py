"""The benchmark's own tests: each check fails on a wrong answer.

    python3 -m pytest -q perfbench/tests

Every wrong-answer test takes the outputs of one real round at the smoke
size, confirms the checks pass on them, changes one value and expects
the named check to report it.
"""

from __future__ import annotations

import copy
import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import make_inputs
import workloads
from tracing import Tracer

BENCH = Path(__file__).resolve().parent.parent
ROOT = BENCH.parent


@pytest.fixture(scope="module", params=workloads.WORKLOADS)
def any_round(request, tmp_path_factory):
    return _round(request.param, tmp_path_factory)


_ROUNDS = {}


def _round(name, tmp_path_factory):
    if name not in _ROUNDS:
        bench = workloads.make(name, ROOT, 7, tmp_path_factory.mktemp(name), smoke=True)
        _ROUNDS[name] = (bench, bench.run_round(Tracer()).out)
    return _ROUNDS[name]


@pytest.fixture(scope="module")
def scalar(tmp_path_factory):
    return _round("scalar", tmp_path_factory)


@pytest.fixture(scope="module")
def coupled(tmp_path_factory):
    return _round("coupled", tmp_path_factory)


@pytest.fixture(scope="module")
def delay(tmp_path_factory):
    return _round("delay", tmp_path_factory)


def failures_after(bench, out, change):
    wrong = copy.deepcopy(out)
    change(wrong)
    return bench.check(wrong)


def assert_fails(bench, out, check, change):
    found = failures_after(bench, out, change)
    assert any(f.startswith(f"{bench.name}.{check}:") for f in found), found


def point(bench, label):
    return next(i for i, p in enumerate(bench.sweep) if p.label == label)


def ten_se_off(bench, label):
    def change(out):
        got = out["ensembles"][label]
        got["var_y"] = bench.moment_reference(label) + 10.0 * got["stderr_y"]

    return change


def test_checks_pass_on_true_outputs(any_round):
    bench, out = any_round
    assert bench.check(out) == []


def test_fingerprint_sees_a_changed_round(any_round):
    bench, out = any_round
    wrong = copy.deepcopy(out)
    wrong["ensembles"]["ito"]["var_y"] *= 1.0 + 1e-15
    assert bench.fingerprint(wrong) != bench.fingerprint(out)


# -- scalar -------------------------------------------------------------


def test_scalar_rho(scalar):
    bench, out = scalar
    i = point(bench, "stratonovich s2=0.5")
    assert_fails(bench, out, "rho", lambda o: o["sweep"][i].update(rho=o["sweep"][i]["rho"] * 1.01))


def test_scalar_verdict_flips_exactly_at_threshold(scalar):
    bench, out = scalar
    i = point(bench, "ito s2=2.0")
    assert_fails(bench, out, "threshold", lambda o: o["sweep"][i].update(mss=True))


def test_scalar_steady_state(scalar):
    bench, out = scalar
    i = point(bench, "ito s2=1.5")
    assert_fails(bench, out, "steady", lambda o: o["sweep"][i]["y_bar"].__imul__(1.01))


def test_scalar_trajectory_recursion(scalar):
    bench, out = scalar
    assert_fails(bench, out, "trajectory", lambda o: o["trajectory"].__setitem__(-1, o["trajectory"][-1] * (1 + 1e-6)))


@pytest.mark.parametrize("label", ["ito", "stratonovich"])
def test_scalar_moment(scalar, label):
    bench, out = scalar
    assert_fails(bench, out, f"moment.{label}", ten_se_off(bench, label))


def test_scalar_cli(scalar):
    bench, out = scalar
    assert_fails(bench, out, "cli", lambda o: o["cli"]["codes"].update(compare=4))
    assert_fails(bench, out, "cli", lambda o: o["cli"]["reports"]["analyze"].update(rho=0.505))


# -- coupled ------------------------------------------------------------


def test_coupled_rho_against_reference_operator(coupled):
    bench, out = coupled
    i = point(bench, "stratonovich c=1.6")
    assert_fails(bench, out, "rho", lambda o: o["sweep"][i].update(rho=o["sweep"][i]["rho"] * 1.01))


def test_coupled_ito_rho_scales_with_gain(coupled):
    bench, out = coupled
    i = point(bench, "ito c=2.0")
    assert_fails(bench, out, "scaling", lambda o: o["sweep"][i].update(rho=o["sweep"][i]["rho"] * 1.01))


def test_coupled_threshold(coupled):
    bench, out = coupled
    i = point(bench, "ito c=2.4")
    assert_fails(bench, out, "threshold", lambda o: o["sweep"][i].update(mss=True))


def test_coupled_steady_state_fixed_point(coupled):
    bench, out = coupled
    i = point(bench, "stratonovich c=1.0")
    assert_fails(bench, out, "steady", lambda o: o["sweep"][i]["u_bar"].__imul__(1.01))
    assert_fails(bench, out, "steady", lambda o: o["sweep"][i]["y_bar"].__imul__(1.01))


def test_coupled_only_the_named_failure_is_accepted(coupled):
    bench, out = coupled
    i = point(bench, "24-state ito")
    assert out["sweep"][i].get("error") == "DimensionMismatch"
    assert_fails(bench, out, "rho", lambda o: o["sweep"][i].update(error="SingularFixedPoint"))


@pytest.mark.parametrize("label", ["ito", "stratonovich"])
def test_coupled_moment(coupled, label):
    bench, out = coupled
    assert_fails(bench, out, f"moment.{label}", ten_se_off(bench, label))


def test_coupled_diverged_paths(coupled):
    bench, out = coupled
    assert_fails(bench, out, "moment.ito", lambda o: o["ensembles"]["ito"].update(n_diverged=1))


def test_coupled_trajectory(coupled):
    bench, out = coupled
    assert_fails(bench, out, "trajectory", lambda o: o["trajectory"].__imul__(1.05))


def test_coupled_cli(coupled):
    bench, out = coupled
    assert_fails(bench, out, "cli", lambda o: o["cli"]["reports"]["analyze"].update(
        rho=o["cli"]["reports"]["analyze"]["rho"] * 1.01))


# -- delay --------------------------------------------------------------


def test_delay_rho_is_the_trapezoid_sum(delay):
    bench, out = delay
    i = point(bench, "ito s2=1.0")
    assert_fails(bench, out, "rho", lambda o: o["sweep"][i].update(rho=o["sweep"][i]["rho"] * 1.01))


def test_delay_threshold(delay):
    bench, out = delay
    i = point(bench, "ito s2=2.0")
    assert_fails(bench, out, "threshold", lambda o: o["sweep"][i].update(mss=True))


def test_delay_steady_state(delay):
    bench, out = delay
    i = point(bench, "ito s2=1.5")
    assert_fails(bench, out, "steady", lambda o: o["sweep"][i]["y_bar"].__imul__(1.01))


def test_delay_trajectory(delay):
    bench, out = delay
    assert_fails(bench, out, "trajectory", lambda o: o["trajectory"].__imul__(1.2))


@pytest.mark.parametrize("label", ["ito", "stratonovich"])
def test_delay_moment(delay, label):
    bench, out = delay
    assert_fails(bench, out, f"moment.{label}", ten_se_off(bench, label))


def test_delay_readings_agree(delay):
    bench, out = delay

    def change(o):
        ito, strat = o["ensembles"]["ito"], o["ensembles"]["stratonovich"]
        strat["var_y"] = ito["var_y"] + 10.0 * math.hypot(ito["stderr_y"], strat["stderr_y"])

    assert_fails(bench, out, "readings_agree", change)


def test_delay_cli(delay):
    bench, out = delay
    assert_fails(bench, out, "cli", lambda o: o["cli"]["codes"].update(trajectory=1))


# -- references and inputs ---------------------------------------------


def test_reference_expm_matches_closed_form():
    import reference as ref

    m = np.array([[0.0, 1.0], [-1.0, 0.0]]) * 2.5
    want = np.array([[math.cos(2.5), math.sin(2.5)], [-math.sin(2.5), math.cos(2.5)]])
    assert np.allclose(ref.expm(m), want, rtol=0, atol=1e-13)


def test_reference_second_moment_matches_scalar_closed_form():
    import reference as ref

    one = np.ones((1, 1))
    got = ref.output_second_moment(-one, one, one, 0.5 * one, one, 1.3)
    assert math.isclose(got, (1 - math.exp(-1.5 * 1.3)) / 1.5, rel_tol=1e-12)


def test_reference_renewal_without_feedback():
    import reference as ref

    # gamma = 0: E y(t)^2 = int_tau^t e^{-2(s - tau)} ds
    got = ref.delay_second_moment(0.2, 0.0, 1.0, 2.0)
    assert math.isclose(got, (1 - math.exp(-2 * 1.8)) / 2, rel_tol=1e-7)


def test_inputs_are_what_make_inputs_writes():
    for name in make_inputs.CONFIGS:
        text = (BENCH / "inputs" / name).read_text(encoding="utf-8")
        assert text == make_inputs.render(name), name


# -- the command ----------------------------------------------------------


def test_smoke_mode_runs_every_workload():
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--smoke"],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    assert child.returncode == 0, child.stdout + child.stderr
    assert json.loads(child.stdout.strip().splitlines()[-1]) == {"smoke": "ok"}


def test_refuses_to_run_without_the_program(tmp_path):
    # a directory that holds only BENCHMARK.json and the benchmark
    shutil.copytree(BENCH, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    child = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "scalar", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert child.returncode != 0
    assert "correct" not in child.stdout
