"""Config loading, schema validation and the command line interface."""
import copy
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import jsonschema
import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import msslab
from msslab import ConfigError
from msslab.cli import main
from msslab.config import (
    _Foreign,
    _acceptor,
    _compile,
    _load_schema,
    load_config,
    parse_config,
    validate_report,
)

CONFIGS = Path(__file__).resolve().parent.parent / "configs"


def scalar_data(**overrides):
    data = {
        "system": {"a": [[-1.0]], "b": [[1.0]], "c": [[1.0]]},
        "noise": {"gamma_cov": [[0.5]], "w_cov": [[1.0]]},
    }
    data.update(overrides)
    return data


def write_config(tmp_path, data, name="cfg.json"):
    path = tmp_path / name
    path.write_text(json.dumps(data), encoding="utf-8")
    return str(path)


def sampled_data(count=300, dt=0.01):
    """Scalar loop with the kernel e^{-t} given as count samples; sample 0
    is the int 1 so ints are exercised next to floats."""
    data = scalar_data()
    samples = [[[math.exp(-k * dt)]] for k in range(count)]
    samples[0] = [[1]]
    data["system"] = {"dt": dt, "samples": samples}
    return data


MID = 150
DROP = object()

# field path, the value put there (DROP deletes the field), and who
# rejects the result: "schema", the field path a constructor names, or
# None for a config that loads
SAMPLED_VARIANTS = {
    "valid": ((), None, None),
    "string_entry": (("system", "samples", MID, 0, 0), "0.5", "schema"),
    "bool_entry": (("system", "samples", MID, 0, 0), True, "schema"),
    "null_entry": (("system", "samples", MID, 0, 0), None, "schema"),
    "empty_sample": (("system", "samples", MID), [], "schema"),
    "empty_row": (("system", "samples", MID), [[]], "schema"),
    "null_sample": (("system", "samples", MID), None, "schema"),
    "non_list_sample": (("system", "samples", MID), 0.5, "schema"),
    "too_deep": (("system", "samples", MID), [[[0.5]]], "schema"),
    "ragged_row": (("system", "samples", MID), [[0.5], [0.5, 0.1]], "system"),
    "samples_not_a_list": (("system", "samples"), "many", "schema"),
    "zero_samples": (("system", "samples"), [], "schema"),
    "one_sample": (("system", "samples"), [[[1.0]]], "schema"),
    "two_samples": (("system", "samples"), [[[1.0]], [[0.5]]], None),
    "negative_dt": (("system", "dt"), -0.01, "schema"),
    "missing_dt": (("system", "dt"), DROP, "schema"),
    "extra_key": (("system", "extra"), 1, "schema"),
    "a_next_to_samples": (("system", "a"), [[-1.0]], "schema"),
    "bad_w_cov": (("noise", "w_cov"), [["1.0"]], "schema"),
}


class TestParseConfig:
    def test_shipped_configs_load(self):
        for name in ("scalar_ito", "scalar_stratonovich", "scalar_unstable"):
            cfg = load_config(CONFIGS / f"{name}.json")
            assert cfg.system.is_state_space
            assert cfg.simulation is not None
            assert cfg.simulation.interpretation == cfg.interpretation

    def test_defaults(self):
        cfg = parse_config(scalar_data())
        assert cfg.interpretation == "ito"
        assert cfg.simulation is None
        assert cfg.analysis == msslab.AnalysisOptions()

    def test_sampled_block(self):
        data = scalar_data()
        data["system"] = {"dt": 0.1, "samples": [[[1.0]], [[0.9]], [[0.81]]]}
        cfg = parse_config(data)
        assert not cfg.system.is_state_space

    def test_simulation_section_inherits_interpretation(self):
        data = scalar_data(interpretation="stratonovich")
        data["simulation"] = {"dt": 0.01, "horizon": 1.0, "n_paths": 5, "seed": 1}
        cfg = parse_config(data)
        assert cfg.simulation.interpretation == "stratonovich"
        assert cfg.simulation.scheme == "state_space_step"

    def test_missing_section_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config({"system": {"a": [[-1.0]], "b": [[1.0]], "c": [[1.0]]}})
        assert "noise" in str(exc.value)

    def test_unknown_key_rejected(self):
        with pytest.raises(ConfigError):
            parse_config(scalar_data(extra=1))

    def test_error_carries_field_path(self):
        data = scalar_data()
        data["analysis"] = {"power_tol": -1.0}
        with pytest.raises(ConfigError) as exc:
            parse_config(data)
        assert exc.value.field_path.startswith("analysis")
        assert str(exc.value).startswith(exc.value.field_path + ":")

    def test_bad_interpretation_rejected(self):
        with pytest.raises(ConfigError) as exc:
            parse_config(scalar_data(interpretation="milstein"))
        assert "interpretation" in exc.value.field_path

    def test_non_square_loop_rejected(self):
        data = scalar_data()
        data["system"] = {"a": [[-1.0]], "b": [[1.0]], "c": [[1.0], [1.0]]}
        with pytest.raises(ConfigError) as exc:
            parse_config(data)
        assert exc.value.field_path == "system"

    def test_channel_count_mismatch_names_the_field(self):
        data = scalar_data()
        data["noise"] = {
            "gamma_cov": [[1.0, 0.0], [0.0, 1.0]],
            "w_cov": [[1.0]],
        }
        with pytest.raises(ConfigError) as exc:
            parse_config(data)
        assert exc.value.field_path == "noise.gamma_cov"

    def test_indefinite_covariance_rejected(self):
        data = scalar_data()
        data["noise"] = {"gamma_cov": [[-1.0]], "w_cov": [[1.0]]}
        with pytest.raises(ConfigError) as exc:
            parse_config(data)
        assert exc.value.field_path == "noise"

    def test_bad_simulation_grid_rejected(self):
        data = scalar_data()
        data["simulation"] = {"dt": 0.3, "horizon": 1.0, "n_paths": 5, "seed": 1}
        with pytest.raises(ConfigError) as exc:
            parse_config(data)
        assert exc.value.field_path == "simulation"


    def test_nan_analysis_value_is_config_error(self):
        # Python's json reads NaN, and NaN passes exclusiveMinimum
        with pytest.raises(ConfigError, match="analysis: power_tol must be positive"):
            parse_config(scalar_data(analysis={"power_tol": math.nan}))


class TestSampledSchemaCheck:
    """A config with many samples: every outcome must be the full walk's."""

    @pytest.mark.parametrize("variant", sorted(SAMPLED_VARIANTS))
    def test_same_error_as_full_walk(self, variant):
        path, value, rejected_by = SAMPLED_VARIANTS[variant]
        data = sampled_data()
        if path:
            target = data
            for key in path[:-1]:
                target = target[key]
            if value is DROP:
                del target[path[-1]]
            else:
                target[path[-1]] = value
        validator = jsonschema.Draft202012Validator(_load_schema("problem_config"))
        errors = list(validator.iter_errors(data))
        assert bool(errors) == (rejected_by == "schema")
        if rejected_by is None:
            assert not parse_config(data).system.is_state_space
            return
        with pytest.raises(ConfigError) as exc:
            parse_config(data)
        if errors:
            best = jsonschema.exceptions.best_match(errors)
            path = ".".join(str(part) for part in best.absolute_path) or "<root>"
            assert exc.value.field_path == path
            assert str(exc.value) == f"{path}: {best.message}"
        else:
            assert exc.value.field_path == rejected_by


ROOT = CONFIGS.parent
SHIPPED = sorted(CONFIGS.glob("*.json")) + sorted((ROOT / "perfbench" / "inputs").glob("*.json"))
# the shipped state-space configs and a short sampled kernel: the 4,001
# samples of delay.json would make each edited example slow
CONFIG_BASES = [sampled_data(count=6)] + [
    json.loads(path.read_text(encoding="utf-8"))
    for path in SHIPPED
    if path.stem != "delay"
]
VALIDATORS = {
    name: jsonschema.Draft202012Validator(_load_schema(name))
    for name in ("problem_config", "report")
}

# values an edit puts in place: every JSON type, the schemas' boundary
# values (0, integral floats, NaN) and near-miss matrices; DROP deletes
EDITS = [
    DROP, None, True, False, 0, 1, -1, 0.0, 0.5, 20.0, 2.5, -0.01, math.nan,
    math.inf, "x", "ito", "stratonovich", "analysis", "simulation",
    "convolution_sum", [], {}, [[]], [[1.0]], [[1]], [[True]], [["1"]],
    [[0.5], [0.5, 0.1]], [[[1.0]], [[0.5]]], [1.0], {"a": [[1.0]]},
]
NEW_KEYS = ["extra", "a", "dt", "samples", "kind", "rho", "steady_state", "seed"]


def _slots(doc):
    """(container, slot) for every value in doc's tree, for a new key in
    every object and for an item appended to every array."""
    slots, stack = [], [doc]
    while stack:
        node = stack.pop()
        keys = list(node) if isinstance(node, dict) else list(range(len(node)))
        extra = NEW_KEYS if isinstance(node, dict) else [len(node)]
        slots += [(node, key) for key in keys + [k for k in extra if k not in keys]]
        stack += [node[key] for key in keys if isinstance(node[key], (dict, list))]
    return slots


def _edit(node, slot, value):
    if isinstance(node, list) and slot == len(node):
        if value is not DROP:
            node.append(copy.deepcopy(value))
    elif value is not DROP:
        node[slot] = copy.deepcopy(value)
    elif isinstance(node, list) or slot in node:
        del node[slot]


def _edited(data, doc):
    """doc with one to three edits drawn from EDITS, each in a drawn slot."""
    doc = copy.deepcopy(doc)
    for _ in range(data.draw(st.integers(1, 3))):
        _edit(*data.draw(st.sampled_from(_slots(doc))), data.draw(st.sampled_from(EDITS)))
    return doc


def _single_edits(doc):
    """doc with each value of EDITS in each of its slots, one at a time."""
    for index in range(len(_slots(doc))):
        for value in EDITS:
            edited = copy.deepcopy(doc)
            _edit(*_slots(edited)[index], value)
            yield edited


@pytest.fixture(scope="module")
def written_reports(tmp_path_factory):
    """The reports the four commands write, read back from disk."""
    tmp = tmp_path_factory.mktemp("reports")
    grid = ["--n-paths", "20", "--dt", "0.01", "--horizon", "0.5"]
    runs = [
        ["analyze", str(CONFIGS / "scalar_ito.json")],
        ["analyze", str(CONFIGS / "scalar_unstable.json")],
        ["analyze", str(ROOT / "perfbench" / "inputs" / "coupled.json")],
        ["simulate", str(CONFIGS / "scalar_stratonovich.json"), *grid],
        ["trajectory", str(CONFIGS / "scalar_stratonovich.json"), "--horizon", "0.5"],
        ["compare", str(CONFIGS / "scalar_stratonovich.json"), *grid],
    ]
    reports = []
    for index, argv in enumerate(runs):
        out = tmp / f"report{index}.json"
        assert main([*argv, "--out", str(out)]) in (0, 3)
        reports.append(json.loads(out.read_text(encoding="utf-8")))
    return reports


class TestSchemaAcceptor:
    """The compiled acceptor answers as jsonschema does on JSON values, so a
    valid document never needs jsonschema."""

    def test_valid_path_never_imports_jsonschema(self, tmp_path):
        out = tmp_path / "report.json"
        grid = ["--n-paths", "20", "--dt", "0.01", "--horizon", "0.5"]
        strat = str(CONFIGS / "scalar_stratonovich.json")
        commands = [["analyze", str(path)] for path in SHIPPED] + [
            ["simulate", strat, *grid],
            ["trajectory", strat, "--horizon", "0.5"],
            ["compare", strat, *grid],
        ]
        script = "\n".join([
            "import json, sys",
            "import msslab, msslab.cli",
            "for path in json.loads(sys.argv[1]): msslab.load_config(path)",
            "for argv in json.loads(sys.argv[2]):",
            "    assert msslab.cli.main([*argv, '--out', sys.argv[3]]) in (0, 3), argv",
            "print('jsonschema' in sys.modules)",
        ])
        env = {**os.environ, "PYTHONPATH": os.pathsep.join(
            filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])
        )}
        proc = subprocess.run(
            [sys.executable, "-c", script, json.dumps([str(p) for p in SHIPPED]),
             json.dumps(commands), str(out)],
            capture_output=True, text=True, env=env, check=True,
        )
        assert proc.stdout.splitlines()[-1] == "False"

    def test_agrees_on_shipped_configs_and_written_reports(self, written_reports):
        for path in SHIPPED:
            doc = json.loads(path.read_text(encoding="utf-8"))
            assert _acceptor("problem_config")(doc)
            assert VALIDATORS["problem_config"].is_valid(doc)
        for report in written_reports:
            assert _acceptor("report")(report)
            assert VALIDATORS["report"].is_valid(report)

    def test_foreign_number_type_is_left_to_jsonschema(self):
        # np.float64 is a JSON number to jsonschema but not a type json.load
        # gives, so the acceptor defers and the full walk accepts
        data = sampled_data()
        data["system"]["samples"][MID][0][0] = np.float64(0.5)
        assert parse_config(data).system.samples[MID, 0, 0] == 0.5

    @pytest.mark.parametrize(
        "schema, value",
        [
            (
                {"oneOf": [
                    {"type": "array", "items": {"type": "array", "items": {"type": "number"}}},
                    {"type": "array"},
                ]},
                [[np.float64(1.0)]],
            ),
            ({"oneOf": [{"type": "number"}, {}]}, np.float64(1.0)),
        ],
    )
    def test_foreign_value_is_left_to_jsonschema(self, schema, value):
        # jsonschema finds both branches valid and refuses the value; the
        # acceptor must defer, not count a branch it cannot judge as failed
        assert not jsonschema.Draft202012Validator(schema).is_valid(value)
        with pytest.raises(_Foreign):
            _compile(schema, schema)(value)

    def test_agrees_on_every_single_edit(self, written_reports):
        # a scalar and a sampled config, and one report of each kind with
        # and without a steady state
        cases = [("problem_config", CONFIG_BASES[i]) for i in (0, 1)] + [
            ("report", written_reports[i]) for i in (0, 1, 3, 4, 5)
        ]
        for name, base in cases:
            for doc in _single_edits(base):
                assert _acceptor(name)(doc) == VALIDATORS[name].is_valid(doc), doc

    @settings(max_examples=300, deadline=None)
    @given(data=st.data())
    def test_agrees_on_edited_configs(self, data):
        doc = _edited(data, data.draw(st.sampled_from(CONFIG_BASES)))
        assert _acceptor("problem_config")(doc) == VALIDATORS["problem_config"].is_valid(doc)

    @settings(
        max_examples=300,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(data=st.data())
    def test_agrees_on_edited_reports(self, data, written_reports):
        doc = _edited(data, data.draw(st.sampled_from(written_reports)))
        assert _acceptor("report")(doc) == VALIDATORS["report"].is_valid(doc)

    @pytest.mark.parametrize(
        "schema, values",
        [
            # keyword uses the shipped schemas do not exercise
            ({"oneOf": [{"type": "number"}, {"type": "integer"}]}, [1, 2.0, 1.5, "x"]),
            ({"minimum": 0}, [math.nan, -1, 0, -0.5, "x"]),
            ({"exclusiveMinimum": 0}, [math.nan, 0, 0.0, 1e-300, None]),
            (
                {"type": "array", "minItems": 2, "items": {"required": ["a"]}},
                [[], [{"a": 1}], [{"a": 1}, {"a": 2}], [{"a": 1}, {}], [{"a": 1}, 1], {}],
            ),
            ({"type": ["integer", "null"]}, [None, 1.0, 1.5, True, math.inf]),
            (
                {"type": "array", "items": {"type": "array", "items": {"type": "integer"}}},
                [[[1, 2.0]], [[1.5]], [[True]], [[]], [1]],
            ),
        ],
    )
    def test_matches_jsonschema_on_other_schemas(self, schema, values):
        validator = jsonschema.Draft202012Validator(schema)
        for value in values:
            assert _compile(schema, schema)(value) == validator.is_valid(value), value

    @pytest.mark.parametrize(
        "schema",
        [
            {"type": "number", "maximum": 1},
            {"type": "object", "patternProperties": {"^x": {}}},
            {"type": "object", "additionalProperties": {"type": "string"}},
            {"if": {"const": "a"}, "then": {}, "else": {}},
            {"enum": [1, 2]},
            {"items": {"type": "array", "items": {"format": "date"}}},
            {"$ref": "other.json#/x"},
            {"type": "array", "items": [{"type": "number"}]},
            {"type": "object", "properties": {"a": True}},
        ],
    )
    def test_unsupported_keyword_refused(self, schema):
        with pytest.raises(ValueError):
            _compile(schema, schema)


class TestLoadConfig:
    def test_missing_file_is_io_error(self, tmp_path):
        with pytest.raises(OSError):
            load_config(tmp_path / "absent.json")

    def test_invalid_json(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        with pytest.raises(ConfigError) as exc:
            load_config(path)
        assert exc.value.field_path == "<root>"


class TestValidateReport:
    def test_incomplete_report_rejected(self):
        with pytest.raises(ConfigError):
            validate_report({"kind": "analysis"})

    def test_unknown_kind_rejected(self):
        with pytest.raises(ConfigError):
            validate_report({"kind": "forecast"})


class TestCliAnalyze:
    def test_stable_config_exits_zero(self, capsys):
        rc = main(["analyze", str(CONFIGS / "scalar_ito.json")])
        assert rc == 0
        out = capsys.readouterr().out
        assert "mean-square stable:    yes" in out

    def test_unstable_config_exits_three(self, capsys):
        rc = main(["analyze", str(CONFIGS / "scalar_unstable.json")])
        assert rc == 3
        assert "mean-square stable:    no" in capsys.readouterr().out

    def test_interpretation_override_changes_verdict(self, tmp_path):
        # s2 = 1 sits exactly on the Stratonovich boundary but is fine
        # under Ito
        data = scalar_data(interpretation="stratonovich")
        data["noise"]["gamma_cov"] = [[1.0]]
        path = write_config(tmp_path, data)
        assert main(["analyze", path]) == 3
        assert main(["analyze", path, "--interpretation", "ito"]) == 0

    def test_report_is_valid_and_byte_stable(self, tmp_path):
        out = tmp_path / "report.json"
        args = [
            "analyze",
            str(CONFIGS / "scalar_ito.json"),
            "--out",
            str(out),
        ]
        assert main(args) == 0
        first = out.read_bytes()
        report = json.loads(first)
        validate_report(report)
        assert report["kind"] == "analysis"
        assert report["mss"] is True
        assert math.isclose(report["rho"], 0.5)
        assert math.isclose(report["steady_state"]["trace_y_bar"], 1.0)
        assert math.isclose(report["steady_state"]["trace_u_bar"], 2.0)
        assert main(args) == 0
        assert out.read_bytes() == first

    def test_bad_flag_value_is_config_error(self, capsys):
        rc = main(
            [
                "analyze",
                str(CONFIGS / "scalar_ito.json"),
                "--power-tol",
                "-1.0",
            ]
        )
        assert rc == 65
        assert "config error" in capsys.readouterr().err


class TestCliSimulate:
    def run(self, tmp_path, *extra):
        out = tmp_path / "report.json"
        csv_path = tmp_path / "table.csv"
        rc = main(
            [
                "simulate",
                str(CONFIGS / "scalar_ito.json"),
                "--n-paths",
                "50",
                "--horizon",
                "0.5",
                "--dt",
                "0.01",
                "--out",
                str(out),
                "--csv",
                str(csv_path),
                *extra,
            ]
        )
        return rc, out, csv_path

    def test_writes_csv_and_report(self, tmp_path, capsys):
        rc, out, csv_path = self.run(tmp_path)
        assert rc == 0
        assert "simulated 50 paths" in capsys.readouterr().out
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,var_y_empirical,stderr_y,var_y_predicted,n_diverged"
        assert len(lines) == 52
        assert lines[-1].startswith("0.5,")
        report = json.loads(out.read_text(encoding="utf-8"))
        validate_report(report)
        assert report["kind"] == "simulation"
        assert report["n_paths"] == 50
        assert report["predicted_terminal_var_y"] is not None

    def test_reruns_are_byte_identical(self, tmp_path):
        rc1, out, csv_path = self.run(tmp_path)
        first_out, first_csv = out.read_bytes(), csv_path.read_bytes()
        rc2, out, csv_path = self.run(tmp_path)
        assert (rc1, rc2) == (0, 0)
        assert out.read_bytes() == first_out
        assert csv_path.read_bytes() == first_csv

    def test_long_grid_is_downsampled_with_final_row_kept(self, tmp_path):
        csv_path = tmp_path / "table.csv"
        rc = main(
            [
                "simulate",
                str(CONFIGS / "scalar_ito.json"),
                "--n-paths",
                "2",
                "--horizon",
                "5.0",
                "--dt",
                "0.001",
                "--csv",
                str(csv_path),
            ]
        )
        assert rc == 0
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert len(lines) - 1 <= 2000
        assert lines[-1].startswith("5.0,")

    def test_one_path_has_no_stderr_and_integer_counts(self, tmp_path):
        rc, _, csv_path = self.run(tmp_path, "--n-paths", "1")
        assert rc == 0
        rows = [
            line.split(",")
            for line in csv_path.read_text(encoding="utf-8").splitlines()[1:]
        ]
        assert len(rows) == 51
        assert all(row[2] == "" for row in rows)
        assert all(row[4] == "0" for row in rows)

    def test_overflowing_prediction_leaves_cells_empty(self, tmp_path):
        data = scalar_data()
        data["system"] = {"a": [[100.0]], "b": [[1.0]], "c": [[1.0]]}
        data["noise"] = {"gamma_cov": [[0.0]], "w_cov": [[1.0]]}
        out, csv_path = tmp_path / "report.json", tmp_path / "table.csv"
        argv = ["simulate", write_config(tmp_path, data), "--n-paths", "4"]
        argv += ["--seed", "1", "--dt", "0.01", "--horizon", "5.0"]
        assert main([*argv, "--out", str(out), "--csv", str(csv_path)]) == 0
        rows = [
            line.split(",")
            for line in csv_path.read_text(encoding="utf-8").splitlines()[1:]
        ]
        assert all(row[3] == "" for row in rows)
        # the paths stay below the overflow limit, but their variance
        # does not: its standard error is infinite, so the cell is empty
        assert rows[-1][1] != "" and rows[-1][2] == ""
        report = json.loads(out.read_text(encoding="utf-8"))
        validate_report(report)
        assert report["predicted_terminal_var_y"] is None

    def test_missing_grid_settings_are_config_errors(self, tmp_path, capsys):
        path = write_config(tmp_path, scalar_data())
        rc = main(["simulate", path])
        assert rc == 65
        assert "simulation.dt" in capsys.readouterr().err


class TestCliTrajectory:
    def test_writes_csv(self, tmp_path):
        csv_path = tmp_path / "traj.csv"
        rc = main(
            [
                "trajectory",
                str(CONFIGS / "scalar_ito.json"),
                "--horizon",
                "2.0",
                "--dt",
                "0.01",
                "--csv",
                str(csv_path),
            ]
        )
        assert rc == 0
        lines = csv_path.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "t,trace_u,trace_r,trace_y"
        assert len(lines) == 202

    def test_scheme_flag_is_usage_error(self):
        # the recursion has no discretization scheme to choose
        with pytest.raises(SystemExit) as exc:
            main(
                [
                    "trajectory",
                    str(CONFIGS / "scalar_ito.json"),
                    "--scheme",
                    "convolution_sum",
                ]
            )
        assert exc.value.code == 64

    def test_overflow_is_reported_not_crashed(self, tmp_path, capsys):
        data = scalar_data()
        data["system"] = {"a": [[100.0]], "b": [[1.0]], "c": [[1.0]]}
        data["noise"] = {"gamma_cov": [[0.0]], "w_cov": [[1.0]]}
        path = write_config(tmp_path, data)
        rc = main(["trajectory", path, "--dt", "0.01", "--horizon", "5.0"])
        assert rc == 1
        assert "overflowed" in capsys.readouterr().err


class TestCliCompare:
    ARGS = [
        "compare",
        str(CONFIGS / "scalar_stratonovich.json"),
        "--dt",
        "0.01",
        "--horizon",
        "1.0",
        "--seed",
        "2",
    ]

    def test_paired_runs_agree(self, tmp_path, capsys):
        out = tmp_path / "cmp.json"
        rc = main([*self.ARGS, "--n-paths", "400", "--out", str(out)])
        assert rc == 0
        assert "-> agree" in capsys.readouterr().out
        report = json.loads(out.read_text(encoding="utf-8"))
        validate_report(report)
        assert report["kind"] == "comparison"
        assert report["agreement"]["agree"] is True
        assert report["analysis_ito"]["mss"] is True

    def test_single_path_cannot_agree(self, capsys):
        # one path has no standard error, so the tolerance is undefined
        rc = main([*self.ARGS, "--n-paths", "1"])
        assert rc == 4
        assert "DISAGREE" in capsys.readouterr().out


class TestCliSampled:
    """Every command on a config that holds a sampled kernel."""

    @pytest.fixture
    def path(self, tmp_path):
        data = sampled_data(201)
        data["simulation"] = {
            "dt": 0.01,
            "horizon": 0.5,
            "n_paths": 32,
            "seed": 3,
            "scheme": "convolution_sum",
        }
        return write_config(tmp_path, data)

    @pytest.mark.parametrize("command", ["analyze", "simulate", "trajectory"])
    def test_command_writes_valid_report(self, path, tmp_path, command):
        out = tmp_path / "report.json"
        assert main([command, path, "--out", str(out)]) == 0
        validate_report(json.loads(out.read_text(encoding="utf-8")))

    def test_compare_needs_a_realization(self, path, capsys):
        assert main(["compare", path]) == 65
        assert (
            "config error: Stratonovich conversion needs a state-space realization"
            in capsys.readouterr().err
        )


class TestCliIntegerFields:
    """JSON schema's integer admits 20.0; such a config runs as its twin
    written with the integer."""

    @pytest.mark.parametrize(
        "command, section, field, value",
        [
            ("simulate", "simulation", "n_paths", 20),
            ("simulate", "simulation", "seed", 42),
            ("analyze", "analysis", "power_max_iter", 100),
        ],
    )
    def test_integral_float_runs_as_the_int(
        self, tmp_path, capsys, command, section, field, value
    ):
        results = []
        for given in (value, float(value)):
            data = scalar_data(
                simulation={"dt": 0.01, "horizon": 0.5, "n_paths": 20, "seed": 42}
            )
            data.setdefault(section, {})[field] = given
            out = tmp_path / f"{given!r}.json"
            rc = main([command, write_config(tmp_path, data), "--out", str(out)])
            results.append((rc, capsys.readouterr(), out.read_bytes()))
        assert results[0][0] == 0
        assert results[1] == results[0]


class TestCliErrors:
    def test_no_arguments_is_usage(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 64

    def test_unknown_flag_is_usage(self):
        with pytest.raises(SystemExit) as exc:
            main(["analyze", "x.json", "--frobnicate"])
        assert exc.value.code == 64

    def test_missing_config_file_is_io(self, tmp_path, capsys):
        rc = main(["analyze", str(tmp_path / "absent.json")])
        assert rc == 66
        assert "io error" in capsys.readouterr().err

    def test_invalid_json_is_config(self, tmp_path, capsys):
        path = tmp_path / "broken.json"
        path.write_text("{not json", encoding="utf-8")
        rc = main(["analyze", str(path)])
        assert rc == 65
        assert "config error" in capsys.readouterr().err

    def test_unwritable_out_is_io(self, tmp_path):
        rc = main(
            [
                "analyze",
                str(CONFIGS / "scalar_ito.json"),
                "--out",
                str(tmp_path / "no_such_dir" / "report.json"),
            ]
        )
        assert rc == 66
