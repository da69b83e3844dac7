import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from ammflow import claims

SRC = Path(__file__).resolve().parents[1] / "src"
DATA = Path(__file__).resolve().parent / "data"


def trace_of(*events):
    """A trace file body with one 5 TOKA transfer per (seq, from, to)."""
    return {"bundle_id": "t", "initiator": "P", "assets": {"TOKA": 18},
            "events": [{"seq": seq, "from": src, "to": dst, "asset": "TOKA",
                        "amount": "5", "action_index": 0}
                       for seq, src, dst in events]}


def one_event(where, key, value):
    """A one-event trace, with one call, whose field `key` of the root, the
    event or the call is set to value."""
    body = trace_of((1, "P", "B"))
    body["calls"] = [{"action_index": 0, "kind": "transfer", "caller": "P",
                      "callee": "B"}]
    record = {"root": body, "event": body["events"][0],
              "call": body["calls"][0]}[where]
    record[key] = value
    return body


def simulate(cli, tmp_path, *names):
    out = tmp_path / "runs"
    result = cli(["simulate", *names, "--out", str(out)])
    assert result.exit_code == 0, result.stderr
    return out


class TestSimulate:
    def test_library_scenario_writes_run_dir(self, cli, tmp_path):
        out = simulate(cli, tmp_path, "relocation_sym_zero_fee")
        run_dir = out / "relocation_sym_zero_fee"
        for name in ("trace.json", "manifest.json", "migration_report.json",
                     "analysis.json", "plan.json", "transfers_TOKA.dot"):
            assert (run_dir / name).is_file(), name
        manifest = json.loads((run_dir / "manifest.json").read_text())
        assert manifest["scenario"] == "relocation_sym_zero_fee"
        assert manifest["numeric_mode"] == "rational"
        assert sorted(manifest["outputs"]) == manifest["outputs"]

    def test_config_file(self, cli, tmp_path):
        config = tmp_path / "s.yaml"
        config.write_text(
            "schema_version: 1\n"
            "scenario: from_config\n"
            "recipe: BenignRouting\n", encoding="utf-8")
        out = simulate(cli, tmp_path, str(config))
        assert (out / "from_config" / "trace.json").is_file()

    def test_quoted_receiver_keeps_the_dot_file_well_formed(self, cli,
                                                           tmp_path):
        config = tmp_path / "s.yaml"
        config.write_text(
            "schema_version: 1\n"
            "scenario: quoted\n"
            "recipe: PEBLimitOrder\n"
            "params:\n"
            "  receiver: 'a\"b'\n", encoding="utf-8")
        out = simulate(cli, tmp_path, str(config))
        dot = (out / "quoted" / "transfers_DAI.dot").read_text()
        assert '"a\\"b" [label="a\\"b\\n[Beneficiary]"];' in dot

    def test_peb_trace_initiator_is_executor(self, cli, tmp_path):
        out = simulate(cli, tmp_path, "peb_limit_order")
        trace = json.loads(
            (out / "peb_limit_order" / "trace.json").read_text())
        assert trace["initiator"] == "E"

    def test_malformed_config_exits_2(self, cli, tmp_path):
        config = tmp_path / "bad.yaml"
        config.write_text("schema_version: 99\nscenario: x\nrecipe: y\n",
                          encoding="utf-8")
        result = cli(["simulate", str(config),
                      "--out", str(tmp_path / "runs")])
        assert result.exit_code == 2
        assert "schema_version" in result.stderr

    @pytest.mark.parametrize("body", [
        "recipe: BenignRouting\nscenario: ../../escape\n",
        "recipe: RelocationZeroFee\nscenario: x\npools: oops\n",
    ])
    def test_malformed_config_stays_inside_out(self, cli, tmp_path, body):
        config = tmp_path / "bad.yaml"
        config.write_text("schema_version: 1\n" + body, encoding="utf-8")
        before = sorted(tmp_path.rglob("*"))
        result = cli(["simulate", str(config),
                      "--out", str(tmp_path / "out/a/b")])
        assert result.exit_code == 2, result.stderr
        assert "config error" in result.stderr
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("text, message", [
        ("- schema_version: 1\n", "the root must be a mapping"),
        ("schema_version: 1\nscenario: x\nrecipe: RelocationZeroFee\n"
         "params: [a, 5]\n", "params must be a mapping"),
    ], ids=["root_is_a_list", "params_is_a_list"])
    def test_non_mapping_config_exits_2(self, cli, tmp_path, text, message):
        config = tmp_path / "bad.yaml"
        config.write_text(text, encoding="utf-8")
        result = cli(["simulate", str(config),
                      "--out", str(tmp_path / "runs")])
        assert result.exit_code == 2, result.stderr
        assert message in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("body, message", [
        ("recipe: RelocationZeroFee\nparams:\n  fee_bps: 30\n",
         "bad scenario parameters"),
        ("recipe: RelocationZeroFee\nparams:\n  a: \"-5\"\n",
         "bad scenario parameters"),
        ("recipe: PEBLimitOrder\nparams:\n  taking: \"2000000\"\n",
         "bad scenario parameters"),
        # the reader or the config table refuses these before any recipe
        # runs: a YAML float is outside the reader's subset
        ("recipe: BenignArbitrage\nparams:\n  fee_bps: 30.9\n",
         "line 5: '30.9' is outside the YAML subset"),
        ("recipe: BenignArbitrage\nparams:\n  fee_bps: true\n",
         "params.fee_bps must be an int, got True"),
        ("recipe: RelocationZeroFee\nparams:\n  a: \"Infinity\"\n",
         "params.a: bad amount 'Infinity'"),
        ("recipe: RelocationZeroFee\nparams:\n  a: \"1e30000\"\n",
         "params.a: amount '1e30000' is not below 10**78"),
        ("recipe: RelocationZeroFee\nparams:\n  a: \"1e3000000\"\n",
         "params.a: amount '1e3000000' is not below 10**78"),
    ], ids=["fee_outside_exact_field", "negative_principal",
            "taking_drains_pool", "fee_not_an_integer", "fee_is_a_boolean",
            "infinite_principal", "principal_past_str_limit",
            "principal_exponent_huge"])
    def test_recipe_failure_exits_2(self, cli, tmp_path, body, message):
        config = tmp_path / "bad.yaml"
        config.write_text("schema_version: 1\nscenario: x\n" + body,
                          encoding="utf-8")
        result = cli(["simulate", str(config),
                      "--out", str(tmp_path / "runs")])
        assert result.exit_code == 2, result.stderr
        assert result.stderr.startswith("Error: config error: ")
        assert message in result.stderr
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("body", [
        "recipe: PEBLimitOrder\nparams: {making: '1000', taking: '1100'}\n",
        "recipe: PEBFlashSwapVariant\nparams: {fee_bps: 9999}\n",
    ], ids=["taking_above_making", "fee_9999_bps"])
    def test_bundle_that_cannot_execute_exits_2(self, cli, tmp_path, body):
        # the filler's swap cannot cover the taker amount: the bundle fails
        # in the engine, before the run directory is made
        config = tmp_path / "bad.yaml"
        config.write_text("schema_version: 1\nscenario: x\n" + body,
                          encoding="utf-8")
        result = cli(["simulate", str(config),
                      "--out", str(tmp_path / "runs")])
        assert result.exit_code == 2, result.stderr
        assert result.stderr.startswith("Error: config error: bundle does "
                                        "not execute: E holds")
        assert result.stderr.count("\n") == 1
        assert not (tmp_path / "runs").exists()

    def test_two_sources_of_one_scenario_exit_2_before_a_write(self, cli,
                                                                tmp_path):
        config = tmp_path / "dup.yaml"
        config.write_text("schema_version: 1\nscenario: "
                          "relocation_sym_zero_fee\nrecipe: BenignRouting\n",
                          encoding="utf-8")
        result = cli(["simulate", "relocation_sym_zero_fee", str(config),
                      "--out", str(tmp_path / "runs")])
        assert result.exit_code == 2, result.stderr
        assert result.stderr == ("Error: two sources name the scenario "
                                 "relocation_sym_zero_fee\n")
        assert not (tmp_path / "runs").exists()

    @pytest.mark.parametrize("field, value, message", [
        (("params",), 0, "params must be a mapping, got 0"),
        (("params",), [], "params must be a mapping, got []"),
        (("pools",), {}, "pools must be a list, got {}"),
        (("schema_version",), True, "schema_version must be one of (1,)"),
        (("schema_version",), 1.0, "schema_version must be one of (1,)"),
        (("pools", 0, "reserve1"), 1000,
         "pools.0.reserve1 must be a string, got 1000"),
        (("pools", 0, "reserve1"), 100.5,
         "pools.0.reserve1 must be a string, got 100.5"),
    ])
    def test_a_value_the_config_table_refuses_exits_2(self, cli, tmp_path,
                                                      field, value, message):
        import yaml
        from importlib import resources
        data = yaml.safe_load((resources.files("ammflow") / "configs"
                               / "relocation_sym.yaml").read_text())
        holder = data
        for key in field[:-1]:
            holder = holder[key]
        holder[field[-1]] = value
        # JSON: the block YAML subset has no float for the table to refuse
        config = tmp_path / "bad.json"
        config.write_text(json.dumps(data), encoding="utf-8")
        result = cli(["simulate", str(config),
                      "--out", str(tmp_path / "runs")])
        assert result.exit_code == 2, result.stderr
        assert result.stderr.startswith(f"Error: config error: {message}")
        assert not (tmp_path / "runs").exists()

    def test_library_name_wins_in_config_hash(self, cli, tmp_path,
                                              monkeypatch):
        monkeypatch.chdir(tmp_path)
        first = simulate(cli, tmp_path / "a", "benign_routing")
        (tmp_path / "benign_routing").write_text("junk", encoding="utf-8")
        second = simulate(cli, tmp_path / "b", "benign_routing")
        manifest = "benign_routing/manifest.json"
        assert (first / manifest).read_bytes() == \
            (second / manifest).read_bytes()

    @pytest.mark.parametrize("blocker, out", [
        ("afile", "afile/sub"),  # NotADirectoryError
        ("runs/benign_routing", "runs"),  # FileExistsError
    ])
    def test_unwritable_run_dir_exits_2(self, cli, tmp_path, blocker, out):
        (tmp_path / blocker).parent.mkdir(parents=True, exist_ok=True)
        (tmp_path / blocker).write_text("junk", encoding="utf-8")
        before = sorted(tmp_path.rglob("*"))
        result = cli(["simulate", "benign_routing",
                      "--out", str(tmp_path / out)])
        assert result.exit_code == 2, result.stderr
        assert result.stderr.startswith("Error: cannot create ")
        assert "Traceback" not in result.stderr
        assert sorted(tmp_path.rglob("*")) == before
        assert (tmp_path / blocker).read_text(encoding="utf-8") == "junk"

    def test_unknown_name_exits_2(self, cli, tmp_path):
        result = cli(["simulate", "does_not_exist",
                      "--out", str(tmp_path / "runs")])
        assert result.exit_code == 2


class TestAnalyze:
    def test_relocation_side_by_side(self, cli, tmp_path):
        out = simulate(cli, tmp_path, "relocation_sym_zero_fee")
        trace = out / "relocation_sym_zero_fee" / "trace.json"
        result = cli(["analyze", str(trace),
                      "--principal", "P",
                      "--beneficiary", "B"])
        assert result.exit_code == 0, result.stderr
        assert "transfer-layer: NOT RECOVERABLE" in result.stdout
        assert "MIGRATION P -> B 10 TOKA" in result.stdout

    def test_direct_transfer_both_recoverable(self, cli, tmp_path):
        out = simulate(cli, tmp_path, "benign_routing")
        trace = out / "benign_routing" / "trace.json"
        result = cli(["analyze", str(trace),
                      "--principal", "alice",
                      "--beneficiary", "carol"])
        assert result.exit_code == 0, result.stderr
        assert "transfer-layer: RECOVERABLE 25 TOKA" in result.stdout
        assert "MIGRATION alice -> carol 25 TOKA" in result.stdout

    def test_semantic_lines_agree_with_simulate(self, cli, tmp_path):
        from ammflow.scenarios import library
        from ammflow.semantic import recover_migrations

        out = simulate(cli, tmp_path, *library())
        for name, build in library().items():
            run = build()
            world_before = run.world.copy()
            world_after, trace = run.execute()
            expected = recover_migrations(trace, world_before,
                                          world_after).summary()
            result = cli(["analyze", str(out / name / "trace.json"),
                          "--principal", "P", "--beneficiary", "B"])
            assert result.exit_code == 0, result.stderr
            semantic = [line[len("semantic: "):]
                        for line in result.stdout.splitlines()
                        if line.startswith("semantic: ")]
            assert semantic == expected.splitlines(), name

    def test_missing_file_exits_2(self, cli, tmp_path):
        result = cli(["analyze",
                      str(tmp_path / "missing.json"),
                      "--principal", "P",
                      "--beneficiary", "B"])
        assert result.exit_code == 2

    @pytest.mark.parametrize("body", [
        [],
        {"bundle_id": "t", "initiator": "P", "assets": [], "events": []},
        {"bundle_id": "t", "initiator": "P", "assets": {}, "events": "x"},
        {"bundle_id": "t", "initiator": "P", "assets": {"T": 18},
         "events": [{"seq": 1, "from": "P", "to": "B", "asset": "T",
                     "amount": "abc", "action_index": 0}]},
        trace_of((2, "X", "P"), (1, "P", "B")),
        trace_of((1, "P", "B"), (1, "X", "P")),
        trace_of(("1", "P", "B"), ("2", "X", "P")),
        one_event("root", "bundle_id", 7),
        one_event("root", "initiator", ["P"]),
        one_event("event", "from", 5),
        one_event("event", "to", None),
        one_event("event", "amount", "-3"),
        one_event("event", "amount", "1+-1*sqrt(2)"),
        one_event("call", "kind", 1),
        one_event("call", "caller", ["P"]),
        one_event("call", "callee", ["B"]),
        one_event("event", "action_index", "x"),
        one_event("call", "action_index", True),
        one_event("event", "amount", "1/0"),
        one_event("event", "amount", "9" * 400),
        one_event("event", "amount", "1.5e999999999"),
        one_event("event", "amount", "1.5e-40"),
        one_event("event", "amount", "1.5e100"),
        one_event("root", "assets", {"TOKA": 18.5}),
        one_event("root", "assets", {"TOKA": True}),
        one_event("root", "events", {}),
        one_event("root", "calls", {}),
    ], ids=["root_is_a_list", "assets_not_a_mapping", "events_not_a_list",
            "amount_not_a_number", "seq_reversed", "seq_duplicate",
            "seq_a_string", "bundle_id_an_int", "initiator_a_list",
            "from_an_int", "to_null", "amount_negative",
            "amount_negative_radical", "kind_an_int", "caller_a_list",
            "callee_a_list", "event_action_index_a_string",
            "call_action_index_a_bool", "amount_zero_denominator",
            "amount_400_digits", "amount_exponent_999999999",
            "amount_finer_than_10e-38", "amount_not_below_10e78",
            "decimals_a_float", "decimals_a_bool", "events_a_mapping",
            "calls_a_mapping"])
    def test_malformed_trace_exits_2(self, cli, tmp_path, body):
        trace = tmp_path / "bad.json"
        trace.write_text(json.dumps(body), encoding="utf-8")
        result = cli(["analyze", str(trace),
                      "--principal", "P",
                      "--beneficiary", "B"])
        assert result.exit_code == 2, result.stderr
        assert "bad trace file" in result.stderr

    @pytest.mark.parametrize("where, key, value, message", [
        ("root", "mode", "float", "mode: 'float' is not a valid NumericMode"),
        ("root", "extra", 1, "unknown key extra"),
        ("event", "extra", 1, "unknown key events.0.extra"),
        ("event", "bundle_id", 3, "events.0.bundle_id must be a string, got 3"),
        ("event", "amount", 5, "events.0.amount must be a string, got 5"),
        ("call", "extra", 1, "unknown key calls.0.extra"),
    ])
    def test_a_field_the_trace_table_refuses_is_named(self, cli, tmp_path,
                                                      where, key, value,
                                                      message):
        trace = tmp_path / "bad.json"
        trace.write_text(json.dumps(one_event(where, key, value)),
                         encoding="utf-8")
        result = cli(["analyze", str(trace), "--principal", "P",
                      "--beneficiary", "B"])
        assert result.exit_code == 2, result.stderr
        assert result.stderr == f"Error: bad trace file: {message}\n"

    def test_cross_field_sum_exits_2(self, cli, tmp_path):
        # a Q(sqrt(2)) amount meets the Q(sqrt(21)) ones in O's TOKA sum:
        # their exact sum lies in the compositum, which no one field holds
        body = json.loads((DATA / "relocation_sym_trace.json").read_text(
            encoding="utf-8"))
        body["events"][0]["amount"] = "1+1*sqrt(2)"
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps(body), encoding="utf-8")
        result = cli(["analyze", str(trace),
                      "--principal", "P",
                      "--beneficiary", "B"])
        assert result.exit_code == 2, result.stderr
        assert result.stderr == (
            "Error: bad trace file: event 3: 5+1/400*sqrt(84000000) and "
            "O's TOKA sum 11+1*sqrt(2) lie in two quadratic fields\n")
        assert result.stdout == ""

    def test_zero_amount_is_legal(self, cli, tmp_path):
        # integer swaps can floor an output to 0
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps(one_event("event", "amount", "0")),
                         encoding="utf-8")
        result = cli(["analyze", str(trace),
                      "--principal", "P",
                      "--beneficiary", "B"])
        assert result.exit_code == 0, result.stderr
        assert "transfer-layer: NOT RECOVERABLE" in result.stdout

    def test_exponent_amount_is_read(self, cli, tmp_path):
        # trace amounts share the config grammar, exponents included
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps(one_event("event", "amount", "1e5")),
                         encoding="utf-8")
        result = cli(["analyze", str(trace),
                      "--principal", "P",
                      "--beneficiary", "B"])
        assert result.exit_code == 0, result.stderr
        assert "transfer-layer: RECOVERABLE 100000 TOKA" in result.stdout

    def test_events_in_seq_order(self, cli, tmp_path):
        # walked in the file order of the seq_reversed case above, the same
        # two events would read NOT RECOVERABLE
        trace = tmp_path / "trace.json"
        trace.write_text(json.dumps(trace_of((1, "P", "B"), (2, "X", "P"))),
                         encoding="utf-8")
        result = cli(["analyze", str(trace),
                      "--principal", "P",
                      "--beneficiary", "B"])
        assert result.exit_code == 0, result.stderr
        assert "transfer-layer: RECOVERABLE 5 TOKA" in result.stdout


class TestCalibrate:
    def test_default_observations(self, cli):
        result = cli(["calibrate"])
        assert result.exit_code == 0, result.stderr
        assert "relative residual" in result.stdout
        assert "eta" in result.stdout

    def test_observation_file(self, cli, tmp_path):
        from ammflow.calibration import PUBLISHED_OBSERVATIONS
        path = tmp_path / "obs.json"
        path.write_text(json.dumps(PUBLISHED_OBSERVATIONS.to_dict()),
                        encoding="utf-8")
        result = cli(["calibrate", "--observations", str(path)])
        assert result.exit_code == 0, result.stderr

    def test_inconsistent_observations_exit_1(self, cli, tmp_path):
        from ammflow.calibration import PUBLISHED_OBSERVATIONS
        data = PUBLISHED_OBSERVATIONS.to_dict()
        data["a_prime"] = 11.0
        path = tmp_path / "obs.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        result = cli(["calibrate", "--observations", str(path)])
        assert result.exit_code == 1

    def test_underflowing_observation_exits_1(self, cli, tmp_path):
        from ammflow.calibration import PUBLISHED_OBSERVATIONS
        data = PUBLISHED_OBSERVATIONS.to_dict()
        data["b"] = 1e-300
        path = tmp_path / "obs.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        result = cli(["calibrate", "--observations", str(path)])
        assert result.exit_code == 1, result.stderr
        assert "calibration failed" in result.stdout

    def test_singular_observations_exit_1(self, cli, tmp_path):
        path = tmp_path / "obs.json"
        path.write_text(json.dumps(
            {"a": 10, "x": 5, "b": 6, "x_prime": 2, "b_prime": 3, "y": 1,
             "a_prime": 9, "fee_bps": 0}), encoding="utf-8")
        result = cli(["calibrate", "--observations", str(path)])
        assert result.exit_code == 1, result.stderr
        assert "calibration failed" in result.stdout

    def test_overflowing_reserve_exits_1(self, cli, tmp_path):
        from ammflow.calibration import PUBLISHED_OBSERVATIONS
        data = PUBLISHED_OBSERVATIONS.to_dict()
        data.update(b=1.5946105e307, b_prime=1.572626e307)
        path = tmp_path / "obs.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        result = cli(["calibrate", "--observations", str(path)])
        assert result.exit_code == 1, result.stderr
        assert "calibration failed" in result.stdout

    @pytest.mark.parametrize("value", ["NaN", "Infinity"])
    def test_non_finite_observation_exits_2(self, cli, tmp_path, value):
        from ammflow.calibration import PUBLISHED_OBSERVATIONS
        text = json.dumps(PUBLISHED_OBSERVATIONS.to_dict())
        path = tmp_path / "obs.json"
        path.write_text(text.replace('"b": 159461.05', f'"b": {value}'),
                        encoding="utf-8")
        result = cli(["calibrate", "--observations", str(path)])
        assert result.exit_code == 2, result.stderr
        assert "bad observations file" in result.stderr

    @pytest.mark.parametrize("field, value", [
        ("asset_decimals", 50), ("counter_decimals", -1),
        ("fee_bps", -5), ("fee_bps", 20000), ("fee_bps", 30.9),
        ("fee_bps", True), ("asset_decimals", 18.0),
        ("counter_decimals", "6"), ("a", True), ("y", "49.9515"),
        ("b", 10 ** 400)])
    def test_out_of_range_field_exits_2(self, cli, tmp_path, field,
                                        value):
        from ammflow.calibration import PUBLISHED_OBSERVATIONS
        data = PUBLISHED_OBSERVATIONS.to_dict()
        data[field] = value
        path = tmp_path / "obs.json"
        path.write_text(json.dumps(data), encoding="utf-8")
        result = cli(["calibrate", "--observations", str(path)])
        assert result.exit_code == 2, result.stderr
        assert "bad observations file" in result.stderr

    def test_an_unknown_key_exits_2(self, cli, tmp_path):
        from ammflow.calibration import PUBLISHED_OBSERVATIONS
        path = tmp_path / "obs.json"
        path.write_text(json.dumps({**PUBLISHED_OBSERVATIONS.to_dict(),
                                    "extra": 1}), encoding="utf-8")
        result = cli(["calibrate", "--observations", str(path)])
        assert result.exit_code == 2, result.stderr
        assert result.stderr == \
            "Error: bad observations file: unknown key extra\n"

    def test_bad_file_exits_2(self, cli, tmp_path):
        path = tmp_path / "obs.json"
        for body in ("not json", "[1, 2]"):  # the second is not an object
            path.write_text(body, encoding="utf-8")
            result = cli(["calibrate", "--observations", str(path)])
            assert result.exit_code == 2, body
            assert "bad observations file" in result.stderr


class TestReport:
    def test_aggregates_and_is_deterministic(self, cli, tmp_path):
        out = simulate(cli, tmp_path, "relocation_sym_zero_fee",
                       "benign_routing")
        first = cli(["report", str(out)])
        assert first.exit_code == 0, first.stderr
        assert "relocation_sym_zero_fee" in first.stdout
        report_bytes = (out / "report.json").read_bytes()
        second = cli(["report", str(out)])
        assert second.exit_code == 0
        assert (out / "report.json").read_bytes() == report_bytes
        payload = json.loads(report_bytes)
        assert "relocation_sym_zero_fee" in payload["runs"]

    def test_empty_dir_exits_2(self, cli, tmp_path):
        empty = tmp_path / "empty"
        empty.mkdir()
        result = cli(["report", str(empty)])
        assert result.exit_code == 2

    @pytest.mark.parametrize("name, body", [
        ("manifest.json", "not json"),
        ("migration_report.json", '{"migrations": 5}'),
        ("analysis.json", "[]"),
    ], ids=["manifest_not_json", "migrations_not_a_list",
            "analysis_not_an_object"])
    def test_malformed_run_file_exits_2_and_writes_nothing(
            self, cli, tmp_path, name, body):
        out = simulate(cli, tmp_path, "relocation_sym_zero_fee",
                       "benign_routing")
        (out / "relocation_sym_zero_fee" / name).write_text(
            body, encoding="utf-8")
        result = cli(["report", str(out)])
        assert result.exit_code == 2, result.stderr
        assert "bad run file" in result.stderr
        assert not (out / "report.json").exists()
        assert not (out / "report.txt").exists()


@pytest.mark.parametrize("argv", [
    ["analyze", "{dir}", "--principal", "P", "--beneficiary", "B"],
    ["calibrate", "--observations", "{missing}"],
    ["calibrate", "--observations", "{dir}"],
    ["report", "{missing}"],
    ["report", "{file}"],
    ["simulate", "benign_routing", "--out", "{file}"],
], ids=["analyze_a_dir", "observations_missing", "observations_a_dir",
        "report_missing", "report_a_file", "simulate_out_a_file"])
def test_bad_path_exits_2(cli, tmp_path, argv):
    (tmp_path / "file").write_text("x", encoding="utf-8")
    paths = {"dir": tmp_path, "missing": tmp_path / "missing",
             "file": tmp_path / "file"}
    result = cli([arg.format(**paths) for arg in argv])
    assert result.exit_code == 2, result.stderr
    assert result.stderr.startswith("Error: ")
    assert sorted(tmp_path.iterdir()) == [tmp_path / "file"]


@pytest.mark.parametrize("argv", [
    [], ["bogus"], ["simulate"], ["analyze", "t.json", "--principal", "P"],
    ["calibrate", "--nope"],
])
def test_usage_error_exits_2(cli, argv):
    result = cli(argv)
    assert result.exit_code == 2
    assert "usage: ammflow" in result.stderr


def test_help_lists_every_command(cli):
    result = cli(["--help"])
    assert result.exit_code == 0
    for name in ("simulate", "analyze", "calibrate", "report", "selftest"):
        assert name in result.stdout


def run_python(*args):
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, *args], env=env, check=False,
                          capture_output=True, text=True)


def test_cold_import_loads_neither_click_nor_yaml(tmp_path):
    # nor the claims, which only selftest reads; the library's rows are
    # read by the config reader, so simulating them needs no YAML either
    for work in ("", "from ammflow.scenarios import library; main(["
                 "'simulate', *library(), '--out', sys.argv[1]], False); "):
        proc = run_python("-c", "import sys; from ammflow.cli import main; "
                          f"{work}print(sorted({{'click', 'yaml', "
                          "'ammflow.claims'} & set(sys.modules)), "
                          "file=sys.stderr)", str(tmp_path / "runs"))
        assert proc.returncode == 0, proc.stderr
        assert proc.stderr == "[]\n", work
    assert len(list(tmp_path.glob("runs/*/manifest.json"))) == 8


def test_module_entry_point_exits_with_status(tmp_path):
    proc = run_python("-m", "ammflow.cli", "report", str(tmp_path / "no"))
    assert proc.returncode == 2
    assert proc.stderr.startswith("Error: run dir ")
    assert "Traceback" not in proc.stderr


def test_selftest(cli):
    result = cli(["selftest"])
    assert result.exit_code == 0, result.stderr
    assert "all checks passed" in result.stdout
    assert "FAIL" not in result.stdout


def test_selftest_reports_a_violated_claim(cli, monkeypatch):
    def taint_divergence(run):
        return ["haircut_dilutes_beneficiary"]

    monkeypatch.setattr(claims, "taint_divergence", taint_divergence)
    result = cli(["selftest"])
    assert result.exit_code == 1
    assert "FAIL taint_divergence on relocation_sym_zero_fee: " \
        "haircut_dilutes_beneficiary\n" in result.stdout
    assert "PASS observer_gap on relocation_sym_zero_fee\n" in result.stdout
    assert "all checks passed" not in result.stdout


def test_simulate_rerun_byte_identical(cli, tmp_path):
    out1 = simulate(cli, tmp_path / "a", "relocation_sym_zero_fee")
    out2 = simulate(cli, tmp_path / "b", "relocation_sym_zero_fee")
    for name in ("trace.json", "migration_report.json", "analysis.json",
                 "manifest.json", "plan.json"):
        assert (out1 / "relocation_sym_zero_fee" / name).read_bytes() == \
            (out2 / "relocation_sym_zero_fee" / name).read_bytes()


@pytest.mark.parametrize("decimals, message", [
    (18.5, "asset decimals must be an int, got 18.5"),
    (True, "asset decimals must be an int, got True"),
    (39, "asset decimals must be in [0, 38]"),
], ids=["decimals_a_float", "decimals_a_bool", "decimals_above_38"])
def test_asset_decimals_refusal_names_the_asset(cli, tmp_path, decimals,
                                                 message):
    trace = tmp_path / "bad.json"
    trace.write_text(json.dumps(one_event("root", "assets",
                                          {"TOKA": decimals})),
                     encoding="utf-8")
    result = cli(["analyze", str(trace), "--principal", "P",
                  "--beneficiary", "B"])
    assert result.exit_code == 2, result.stderr
    assert result.stderr == \
        f"Error: bad trace file: assets.TOKA is refused: {message}\n"


DEEP_JSON = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("command", ["analyze", "calibrate", "report"])
def test_deeply_nested_json_exits_2(cli, tmp_path, command):
    # json.loads raises RecursionError long before 100,000 levels
    run_dir = tmp_path / "runs" / "deep"
    run_dir.mkdir(parents=True)
    source = run_dir / "manifest.json"
    source.write_text(DEEP_JSON, encoding="utf-8")
    argv = {"analyze": ["analyze", str(source), "--principal", "P",
                        "--beneficiary", "B"],
            "calibrate": ["calibrate", "--observations", str(source)],
            "report": ["report", str(tmp_path / "runs")]}[command]
    result = cli(argv)
    assert result.exit_code == 2, result.stderr
    assert result.stderr.startswith("Error: bad ")
    assert result.stderr.count("\n") == 1
    assert sorted(p.name for p in tmp_path.rglob("*")) == \
        ["deep", "manifest.json", "runs"]


@pytest.mark.parametrize("text", [
    "a: " + "[" * 5000 + "]" * 5000,
    "{a: " * 5000 + "}" * 5000,
], ids=["a_list_5000_deep", "a_mapping_5000_deep"])
def test_deeply_nested_config_exits_2(cli, tmp_path, text):
    config = tmp_path / "deep.yaml"
    config.write_text(text, encoding="utf-8")
    result = cli(["simulate", str(config), "--out", str(tmp_path / "out")])
    assert result.exit_code == 2, result.stderr
    assert result.stderr.startswith("Error: config error: ")
    assert "line 1" in result.stderr
    assert result.stderr.count("\n") == 1
    assert not (tmp_path / "out").exists()


def nested(depth):
    """A list depth levels deep around one string."""
    value = "x"
    for _ in range(depth):
        value = [value]
    return value


@pytest.mark.parametrize("field, value", [
    (("params", "a"), "9" * 5000),
    (("recipe",), nested(400)),
    (("params", "numeric_mode"), "x" * 5000),
    (("events", 0, "amount"), "9" * 4000 + "/7"),
    (("scenario",), "x" * 5000),
], ids=["amount_of_5000_digits", "recipe_400_deep", "mode_of_5000_letters",
        "trace_ratio_of_4000_digits", "scenario_of_5000_letters"])
def test_a_refusal_quotes_a_long_value_in_short(cli, tmp_path, field, value):
    # each refusal once repeated the whole value: a 5,061-character line
    # for the amount, a 974-character one for the nested recipe; the long
    # scenario name got past its check and failed as a directory name,
    # quoting the whole path in 5,052 characters
    import yaml
    from importlib import resources
    if field[0] == "events":
        data = one_event("event", "amount", value)
        argv = ["analyze", str(tmp_path / "bad.json"), "--principal", "P",
                "--beneficiary", "B"]
    else:
        data = yaml.safe_load((resources.files("ammflow") / "configs"
                               / "relocation_sym.yaml").read_text())
        data[field[0]] = value if len(field) == 1 else \
            {**data[field[0]], field[1]: value}
        argv = ["simulate", str(tmp_path / "bad.json"),
                "--out", str(tmp_path / "runs")]
    (tmp_path / "bad.json").write_text(json.dumps(data), encoding="utf-8")
    result = cli(argv)
    assert result.exit_code == 2, result.stderr
    assert result.stderr.startswith("Error: ")
    assert result.stderr.count("\n") == 1 and len(result.stderr) < 200, \
        result.stderr
    assert not (tmp_path / "runs").exists()
