"""JSON problem configurations and report validation.

A problem config bundles a block (realization or sampled kernel), the
noise covariances, the interpretation and optional analysis/simulation
settings.  Structure is checked against a shipped JSON schema, then the
values go through the same constructors the library API uses, so a
loaded config can never be weaker-validated than one built in code.
All rejections raise ConfigError with a dotted field path.

Each shipped schema is compiled once into a plain-Python acceptor that
answers exactly as jsonschema's Draft 2020-12 validator on JSON values.
A document it accepts is done; only one it refuses imports jsonschema,
whose full walk names the error (best_match), so a valid config or
report never pays for that import.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cache
from importlib import resources
from itertools import chain

from .analysis import AnalysisOptions
from .errors import ConfigError, MsslabError
from .noise import NoiseSpec, validate_noise
from .simulate import SimulationConfig
from .system import LtiSystem, make_sampled, make_state_space


@cache
def _load_schema(name: str) -> dict:
    """Load a shipped schema by name ('problem_config' or 'report')."""
    text = (
        resources.files("msslab.schema")
        .joinpath(f"{name}.schema.json")
        .read_text(encoding="utf-8")
    )
    return json.loads(text)


@dataclass(frozen=True)
class ProblemConfig:
    system: LtiSystem
    noise: NoiseSpec
    interpretation: str
    analysis: AnalysisOptions
    simulation: SimulationConfig | None


# Keywords the acceptor compiles: exactly those the shipped schemas use,
# plus a $ref into $defs standing alone.  Any other keyword makes
# compiling fail, so a schema edit cannot pass documents the acceptor
# does not understand.
_KEYWORDS = frozenset({
    "type", "required", "properties", "additionalProperties", "items",
    "minItems", "minimum", "exclusiveMinimum", "enum", "const", "oneOf",
    "allOf", "if", "then",
})
_ANNOTATIONS = frozenset({"$schema", "$id", "title", "$defs"})

# JSON type name -> the exact Python types json.load gives it.  bool is
# its own type, so it is never a number; an integral float is also an
# integer (Draft 2020-12).
_TYPES = {
    "object": {dict},
    "array": {list},
    "string": {str},
    "number": {int, float},
    "integer": {int},
    "boolean": {bool},
    "null": {type(None)},
}
_JSON_TYPES = frozenset({dict, list, str, int, float, bool, type(None)})
_LIST = frozenset({list})


class _Foreign(Exception):
    """A value of a type json.load never gives: jsonschema decides.

    An exception and not False, because oneOf and if/then would turn a
    branch wrongly called failed into a wrong accept.
    """


def _reject(kinds: set) -> bool:
    if not kinds <= _JSON_TYPES:
        raise _Foreign
    return False


def _deref(node: dict, root: dict) -> dict:
    """The $defs entry a lone {"$ref": ...} points to, else node itself."""
    if not isinstance(node, dict):
        raise ValueError(f"schema node {node!r} is not an object")
    if node.keys() != {"$ref"}:
        return node
    ref = node["$ref"]
    if not ref.startswith("#/$defs/"):
        raise ValueError(f"schema $ref {ref!r} does not point into $defs")
    return root["$defs"][ref[len("#/$defs/"):]]


def _type_names(node: dict) -> list:
    names = node["type"]
    return names if isinstance(names, list) else [names]


def _nested_lists(node: dict, root: dict):
    """Predicate for arrays of arrays ... of scalars, or None.

    Every level may only give type "array", minItems and items.  Each
    level is checked whole with map(type, ...), map(len, ...) and chain,
    so no Python function runs per entry or per sample.
    """
    min_items = []
    while (
        node.keys() <= {"type", "minItems", "items"}
        and node.get("type") == "array"
        and "items" in node
    ):
        min_items.append(node.get("minItems", 0))
        node = _deref(node["items"], root)
    if not min_items or node.keys() != {"type"} or "integer" in _type_names(node):
        return None
    leaf = frozenset().union(*(_TYPES[name] for name in _type_names(node)))

    def accept(value) -> bool:
        level = (value,)
        for least in min_items:
            kinds = set(map(type, level))
            if not kinds <= _LIST:
                return _reject(kinds)
            if level and min(map(len, level)) < least:
                return False
            level = list(chain.from_iterable(level))
        kinds = set(map(type, level))
        return kinds <= leaf or _reject(kinds)

    return accept


def _compile(node: dict, root: dict):
    """Compile a schema node into a predicate that is exact on JSON values.

    The predicate answers as Draft202012Validator(...).is_valid would, for
    values built from dict, list, str, int, float, bool and None; on any
    other Python type it raises _Foreign.  Types are tested with exact
    type(), and minimum and exclusiveMinimum fail only on v < m and
    v <= m, so NaN passes both as it does in jsonschema.
    """
    node = _deref(node, root)
    unsupported = node.keys() - _KEYWORDS - _ANNOTATIONS
    if unsupported:
        raise ValueError(f"schema keywords not supported: {sorted(unsupported)}")
    if node.get("additionalProperties", False) is not False:
        raise ValueError("only additionalProperties: false is supported")
    fast = _nested_lists(node, root)
    if fast is not None:
        return fast
    checks = []
    if "type" in node:
        names = _type_names(node)
        allowed = frozenset().union(*(_TYPES[name] for name in names))
        integral = "integer" in names and "number" not in names
        checks.append(
            lambda v, t: t in allowed or (integral and t is float and v.is_integer())
        )
    if "required" in node:
        required = frozenset(node["required"])
        checks.append(lambda v, t: t is not dict or required <= v.keys())
    if "properties" in node:
        props = [(name, _compile(sub, root)) for name, sub in node["properties"].items()]
        checks.append(
            lambda v, t: t is not dict
            or all(sub(v[name]) for name, sub in props if name in v)
        )
    if "additionalProperties" in node:
        names = frozenset(node.get("properties", ()))
        checks.append(lambda v, t: t is not dict or v.keys() <= names)
    if "items" in node:
        item = _compile(node["items"], root)
        checks.append(lambda v, t: t is not list or all(map(item, v)))
    if "minItems" in node:
        min_items = node["minItems"]
        checks.append(lambda v, t: t is not list or len(v) >= min_items)
    if "minimum" in node:
        low = node["minimum"]
        checks.append(lambda v, t: t not in _TYPES["number"] or not v < low)
    if "exclusiveMinimum" in node:
        above = node["exclusiveMinimum"]
        checks.append(lambda v, t: t not in _TYPES["number"] or not v <= above)
    for key in ("enum", "const"):
        if key in node:
            values = node[key] if key == "enum" else [node[key]]
            # Python's 1 == 1.0 == True is not JSON equality; strings are
            if not all(isinstance(x, str) for x in values):
                raise ValueError(f"only string {key} values are supported")
            values = frozenset(values)
            checks.append(lambda v, t, values=values: t is str and v in values)
    if "oneOf" in node:
        branches = [_compile(sub, root) for sub in node["oneOf"]]
        checks.append(lambda v, t: sum(branch(v) for branch in branches) == 1)
    if "allOf" in node:
        parts = [_compile(sub, root) for sub in node["allOf"]]
        checks.append(lambda v, t: all(part(v) for part in parts))
    if "if" in node and "then" in node:
        cond, then = _compile(node["if"], root), _compile(node["then"], root)
        checks.append(lambda v, t: not cond(v) or then(v))

    def accept(value) -> bool:
        kind = type(value)
        if kind not in _JSON_TYPES:
            raise _Foreign
        for check in checks:
            if not check(value, kind):
                return False
        return True

    return accept


@cache
def _acceptor(name: str):
    schema = _load_schema(name)
    return _compile(schema, schema)


def _schema_check(data, schema_name: str) -> None:
    try:
        if _acceptor(schema_name)(data):
            return
    except _Foreign:
        pass
    # Only a document the acceptor refuses pays for importing jsonschema,
    # which walks it again to name the error.
    import jsonschema

    validator = jsonschema.Draft202012Validator(_load_schema(schema_name))
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
