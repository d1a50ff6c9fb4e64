"""JSON problem configurations and report validation.

A problem config bundles a block (realization or sampled kernel), the
noise covariances, the interpretation and optional analysis/simulation
settings.  Structure is checked against a shipped JSON schema, then the
values go through the same constructors the library API uses, so a
loaded config can never be weaker-validated than one built in code.
All rejections raise ConfigError with a dotted field path.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from importlib import resources

import jsonschema

from .analysis import AnalysisOptions
from .errors import ConfigError, MsslabError
from .noise import NoiseSpec, validate_noise
from .simulate import SimulationConfig
from .system import LtiSystem, make_sampled, make_state_space

_SCHEMA_CACHE: dict[str, dict] = {}


def _load_schema(name: str) -> dict:
    """Load a shipped schema by name ('problem_config' or 'report')."""
    if name not in _SCHEMA_CACHE:
        text = (
            resources.files("msslab.schema")
            .joinpath(f"{name}.schema.json")
            .read_text(encoding="utf-8")
        )
        _SCHEMA_CACHE[name] = json.loads(text)
    return _SCHEMA_CACHE[name]


@dataclass(frozen=True)
class ProblemConfig:
    system: LtiSystem
    noise: NoiseSpec
    interpretation: str
    analysis: AnalysisOptions
    simulation: SimulationConfig | None


def _is_matrix(value) -> bool:
    """$defs/matrix: a non-empty list of non-empty lists of numbers, where
    the exact type test rejects bool, as JSON-schema "number" does."""
    return (
        isinstance(value, list)
        and len(value) > 0
        and all(
            isinstance(row, list)
            and len(row) > 0
            and all(type(x) in (int, float) for x in row)
            for row in value
        )
    )


def _schema_check(data, schema_name: str) -> None:
    validator = jsonschema.Draft202012Validator(_load_schema(schema_name))
    system = data.get("system") if isinstance(data, dict) else None
    samples = system.get("samples") if isinstance(system, dict) else None
    if (
        schema_name == "problem_config"
        and isinstance(samples, list)
        and all(map(_is_matrix, samples))
    ):
        # With every sample a matrix, the config cut to two samples is
        # valid exactly when the full one is: the samples constraints are
        # per item plus minItems 2, and the state-space branch of the
        # system oneOf fails on the samples key whatever the values.  Any
        # failure falls through to the full walk, which names the error.
        cut = {**data, "system": {**system, "samples": samples[:2]}}
        if validator.is_valid(cut):
            return
    errors = list(validator.iter_errors(data))
    if errors:
        best = jsonschema.exceptions.best_match(errors)
        path = ".".join(str(part) for part in best.absolute_path) or "<root>"
        raise ConfigError(path, best.message)


def parse_config(data: dict) -> ProblemConfig:
    """Validate a decoded JSON object and build the typed configuration."""
    _schema_check(data, "problem_config")
    block = data["system"]
    try:
        if "samples" in block:
            system = make_sampled(block["dt"], block["samples"])
        else:
            system = make_state_space(block["a"], block["b"], block["c"])
    except (MsslabError, ValueError) as err:
        raise ConfigError("system", str(err)) from err
    try:
        noise = validate_noise(data["noise"]["gamma_cov"], data["noise"]["w_cov"])
    except (MsslabError, ValueError) as err:
        raise ConfigError("noise", str(err)) from err
    if system.n_in != system.n_out:
        raise ConfigError(
            "system",
            f"feedback loop needs a square block, got {system.n_out} "
            f"outputs and {system.n_in} inputs",
        )
    if noise.n_gains != system.n_in:
        raise ConfigError(
            "noise.gamma_cov",
            f"gain covariance has {noise.n_gains} channels but the loop "
            f"has {system.n_in}",
        )
    if noise.n_drive != system.n_in:
        raise ConfigError(
            "noise.w_cov",
            f"drive covariance has {noise.n_drive} channels but the loop "
            f"has {system.n_in}",
        )
    interpretation = data.get("interpretation", "ito")
    try:
        analysis = AnalysisOptions(**data.get("analysis", {}))
    except ValueError as err:
        raise ConfigError("analysis", str(err)) from err
    simulation = None
    if "simulation" in data:
        sim = data["simulation"]
        try:
            simulation = SimulationConfig(
                dt=sim["dt"],
                horizon=sim["horizon"],
                n_paths=sim["n_paths"],
                seed=sim["seed"],
                interpretation=interpretation,
                scheme=sim.get("scheme", "state_space_step"),
            )
        except (MsslabError, ValueError) as err:
            raise ConfigError("simulation", str(err)) from err
    return ProblemConfig(
        system=system,
        noise=noise,
        interpretation=interpretation,
        analysis=analysis,
        simulation=simulation,
    )


def load_config(path) -> ProblemConfig:
    """Read and validate a problem configuration file."""
    with open(path, "r", encoding="utf-8") as handle:
        try:
            data = json.load(handle)
        except json.JSONDecodeError as err:
            raise ConfigError("<root>", f"invalid JSON: {err}") from err
    return parse_config(data)


def validate_report(report: dict) -> None:
    """Check a report object against the shipped report schema."""
    _schema_check(report, "report")
