"""Config loading, schema validation and the command line interface."""
import json
import math
from pathlib import Path

import jsonschema
import pytest

import msslab
from msslab import ConfigError
from msslab.cli import main
from msslab.config import _load_schema, load_config, parse_config, validate_report

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
    """A config with many samples is schema-checked on two of them; every
    outcome must still be the full walk's."""

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

    def test_valid_config_reaches_schema_with_two_samples(self, monkeypatch):
        seen = []
        real = jsonschema.Draft202012Validator

        class Recording:
            def __init__(self, schema):
                self.inner = real(schema)

            def is_valid(self, instance):
                seen.append(len(instance["system"]["samples"]))
                return self.inner.is_valid(instance)

            def iter_errors(self, instance):
                seen.append(len(instance["system"]["samples"]))
                return self.inner.iter_errors(instance)

        monkeypatch.setattr(jsonschema, "Draft202012Validator", Recording)
        cfg = parse_config(sampled_data(400))
        assert cfg.system.samples.shape == (400, 1, 1)
        assert seen and max(seen) <= 2

    def test_schema_matrix_is_what_the_cut_assumes(self):
        # the cut to two samples is exact only for these definitions
        schema = _load_schema("problem_config")
        assert schema["$defs"]["matrix"] == {
            "type": "array",
            "minItems": 1,
            "items": {"type": "array", "minItems": 1, "items": {"type": "number"}},
        }
        state_space, sampled = schema["properties"]["system"]["oneOf"]
        assert sampled["properties"]["samples"] == {
            "type": "array",
            "minItems": 2,
            "items": {"$ref": "#/$defs/matrix"},
        }
        assert sampled["additionalProperties"] is False
        assert state_space["additionalProperties"] is False


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
