"""Command-line surface: parsing, commands, formats, exit codes, budgets."""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from graphstate import moments
from graphstate.cli import (
    GraphFileError,
    cmd_analyze,
    cmd_dist,
    cmd_exact,
    cmd_verify,
    graph_to_dict,
    marginal_from_dict,
    parse_graph,
    run,
)
from graphstate.catalog import cycle_graph, exotic_graph, fc_template, one_loop

DATA = Path(__file__).parent / "data"


def write_graph(tmp_path, doc, name="graph.json"):
    path = tmp_path / name
    path.write_text(json.dumps(doc))
    return str(path)


class TestParseGraph:
    def test_figure_example_file(self):
        m = parse_graph(str(DATA / "figure_example.json"))
        assert m.k == 3
        assert [v.kind for v in m.blocks] == ["T", "S", "mixed"]

    def test_bond_dim_mismatch_rejected(self, tmp_path):
        path = write_graph(tmp_path, {
            "vertices": [[1, 2]], "bonds": [[1, 2]],
            "subsystems": [{"id": 1, "d": 2}, {"id": 2, "d": 3}],
            "trace": [2]})
        with pytest.raises(GraphFileError, match="dimension mismatch"):
            parse_graph(path)

    def test_missing_trace_requires_override(self, tmp_path):
        path = write_graph(tmp_path, {"vertices": [[1, 2]], "bonds": [[1, 2]]})
        with pytest.raises(GraphFileError, match="trace"):
            parse_graph(path)
        m = parse_graph(path, trace_override=[2])
        assert sorted(m.traced) == [2]

    def test_syntax_error_carries_position(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text('{"vertices": [[1,2]\n  "bonds"')
        with pytest.raises(GraphFileError, match=r":\d+:\d+:"):
            parse_graph(str(path))

    def test_round_trip(self):
        m = exotic_graph()
        again = marginal_from_dict(graph_to_dict(m))
        assert again.graph == m.graph
        assert again.traced == m.traced


class TestCommands:
    def test_analyze_golden_one_loop(self):
        report = cmd_analyze(one_loop(), p_max=6)
        golden = json.loads((DATA / "golden_analyze_one_loop.json").read_text())
        assert report == golden

    def test_analyze_golden_fc2(self):
        report = cmd_analyze(fc_template(2), p_max=5)
        golden = json.loads((DATA / "golden_analyze_fc2_template.json").read_text())
        assert report == golden
        assert report["max_flow"] == 3
        assert report["distribution"]["kind"] == "fuss_catalan"

    def test_analyze_golden_exotic(self):
        report = cmd_analyze(exotic_graph(), p_max=4)
        golden = json.loads((DATA / "golden_analyze_exotic.json").read_text())
        assert report == golden
        assert report["max_flow"] == 5
        assert [row["coefficient"] for row in report["moments"]] == ["1", "5", "38", "353"]

    def test_exact_one_loop(self):
        report = cmd_exact(one_loop(), N=8, p_max=2)
        assert report["moments"][1]["value"] == "16/65"

    def test_dist_fc2_grid(self):
        report = cmd_dist("fc", s=2, grid=64)
        assert report["support"] == [0.0, 27 / 4]
        assert len(report["grid"]) == 64
        assert all(row["density"] >= 0 for row in report["grid"])

    def test_dist_mp_atom(self):
        report = cmd_dist("mp", c="1/4", grid=16)
        assert report["atom_at_zero"] == pytest.approx(0.75)

    def test_verify_one_loop_green(self):
        report = cmd_verify(one_loop(), N=64, trials=120, seed=42, p_max=2)
        assert report["all_ok"]
        assert all(row["ok"] for row in report["checks"])
        assert report["checks"][1]["reference_kind"] == "exact"

    def test_verify_reference_reason(self, monkeypatch):
        report = cmd_verify(one_loop(), N=1, trials=4, seed=0, p_max=2)
        reasons = [(row["reference_kind"], row["reference_reason"]) for row in report["checks"]]
        assert reasons == [("exact", None), ("exact", None)]
        monkeypatch.setenv("GRAPHSTATE_BUDGET_TERMS", "30")
        report = cmd_verify(one_loop(), N=4, trials=4, seed=0, p_max=3)
        assert report["checks"][2]["reference_kind"] == "asymptotic"
        assert report["checks"][2]["reference_reason"] == "budget"
        assert report["checks"][1]["reference_reason"] is None

    def test_verify_deviation_zero_within_floor(self):
        # at N = 1 every moment is 1 and the sample stderr is rounding noise
        report = cmd_verify(one_loop(), N=1, trials=4, seed=0, p_max=3)
        assert [row["deviation_stderr"] for row in report["checks"]] == [0.0, 0.0, 0.0]
        assert report["all_ok"]

    def test_verify_ladder(self):
        report = cmd_verify(one_loop(), N=16, trials=40, seed=9, p_max=2,
                            ladder=[4, 8])
        assert [row["N"] for row in report["drift_ladder"]] == [4, 8]


class TestRun:
    def test_analyze_json_round_trips(self, tmp_path):
        code, text = run(["analyze", str(DATA / "one_loop.json"), "--pmax", "3"])
        assert code == 0
        parsed = json.loads(text)
        assert parsed["distribution"]["kind"] == "free_poisson"
        assert parsed == json.loads(json.dumps(parsed))

    def test_csv_format(self):
        code, text = run(["analyze", str(DATA / "one_loop.json"),
                          "--pmax", "3", "--format", "csv"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "p,exponent,coefficient,minimizers"
        assert lines[1] == "1,0,1,1"
        assert lines[3] == "3,-2,5,5"

    def test_trace_override_flag(self, tmp_path):
        path = write_graph(tmp_path, {"vertices": [[1, 2]], "bonds": [[1, 2]]})
        code, text = run(["analyze", path, "--trace", "1", "--pmax", "2"])
        assert code == 0
        assert json.loads(text)["marginal"]["traced"] == [1]

    def test_usage_error_exit_1(self):
        code, text = run(["analyze"])  # missing graph argument
        assert code == 1

    def test_unknown_family_exit_1(self):
        code, text = run(["dist", "weird"])
        assert code == 1

    def test_validation_error_exit_2(self, tmp_path):
        path = write_graph(tmp_path, {
            "vertices": [[1, 2]], "bonds": [[1, 2]],
            "subsystems": [{"id": 1, "d": 2}, {"id": 2, "d": 3}],
            "trace": [2]})
        code, text = run(["analyze", path])
        assert code == 2
        assert "mismatch" in text

    @pytest.mark.parametrize("field,value", [
        ("trace", 2),
        ("vertices", [[1, "x"]]),
        ("subsystems", [{"id": 1, "d": None}, {"id": 2, "d": 1}]),
        ("trace", [1.7]),
    ], ids=["trace_not_a_list", "vertex_id_string", "d_null", "trace_id_float"])
    def test_malformed_document_exit_2(self, tmp_path, field, value):
        doc = {"vertices": [[1, 2]], "bonds": [[1, 2]], "trace": [2], field: value}
        code, text = run(["analyze", write_graph(tmp_path, doc), "--pmax", "2"])
        assert code == 2
        assert text.startswith("validation error") and f"'{field}'" in text

    def test_budget_error_exit_3(self, tmp_path, monkeypatch):
        monkeypatch.setenv("GRAPHSTATE_BUDGET_TUPLES", "10")
        code, text = run(["analyze", str(DATA / "exotic.json"), "--pmax", "4"])
        assert code == 3
        assert "budget" in text.lower()

    def test_enumeration_cap_exit_3(self):
        code, text = run(["analyze", str(DATA / "one_loop.json"), "--pmax", "11"])
        assert code == 3
        assert "enumeration cap" in text

    def test_top_order_refused_before_any_sum(self, monkeypatch):
        # both commands evaluate p_max first, so its refusal comes before
        # any lower order is summed
        def summed(*args):
            raise AssertionError("a moment sum ran before the refusal")
        monkeypatch.setattr(moments, "_contract", summed)
        code, text = run(["exact", str(DATA / "exotic.json"), "--N", "2", "--pmax", "8"])
        assert code == 3 and "budget" in text
        code, text = run(["analyze", str(DATA / "one_loop.json"), "--pmax", "11"])
        assert code == 3 and "enumeration cap" in text

    def test_exact_below_order(self):
        code, text = run(["exact", str(DATA / "one_loop.json"), "--N", "1", "--pmax", "3"])
        assert code == 0, text
        assert [row["value"] for row in json.loads(text)["moments"]] == ["1", "1", "1"]

    def test_env_budget_override_allows_more(self, monkeypatch):
        monkeypatch.setenv("GRAPHSTATE_BUDGET_TUPLES", "100000000")
        code, _ = run(["analyze", str(DATA / "exotic.json"), "--pmax", "4"])
        assert code == 0

    def test_env_budget_accepts_exponent_notation(self, monkeypatch):
        monkeypatch.setenv("GRAPHSTATE_BUDGET_TUPLES", "5e6")
        monkeypatch.setenv("GRAPHSTATE_BUDGET_TERMS", "1e7")
        assert run(["analyze", str(DATA / "exotic.json"), "--pmax", "4"])[0] == 0
        assert run(["exact", str(DATA / "one_loop.json"), "--N", "4"])[0] == 0

    @pytest.mark.parametrize("env,argv", [
        ("GRAPHSTATE_BUDGET_TUPLES", ["analyze", str(DATA / "one_loop.json")]),
        ("GRAPHSTATE_BUDGET_TERMS", ["exact", str(DATA / "one_loop.json"), "--N", "4"]),
    ])
    @pytest.mark.parametrize("value", ["lots", "2.5", "inf", ""])
    def test_env_budget_not_an_integer_exit_1(self, monkeypatch, env, argv, value):
        monkeypatch.setenv(env, value)
        code, text = run(argv)
        assert code == 1
        assert env in text

    def test_dist_csv(self):
        code, text = run(["dist", "fc", "--s", "2", "--grid", "8",
                          "--format", "csv"])
        assert code == 0
        lines = text.strip().splitlines()
        assert lines[0] == "x,density"
        assert len(lines) == 9

    def test_simulate_smoke(self):
        code, text = run(["simulate", str(DATA / "one_loop.json"),
                          "--N", "8", "--trials", "10", "--seed", "1",
                          "--pmax", "2"])
        assert code == 0
        est = json.loads(text)["estimate"]
        assert est["moments"]["1"]["mean"] == pytest.approx(1.0)

    def test_simulate_ginibre_mode(self):
        code, text = run(["simulate", str(DATA / "fc2_template.json"),
                          "--N", "3", "--trials", "8", "--seed", "2",
                          "--pmax", "2", "--mode", "ginibre"])
        assert code == 0
        est = json.loads(text)["estimate"]
        assert est["mode"] == "ginibre"
        assert est["moments"]["1"]["mean"] == pytest.approx(1.0, abs=1e-12)
        assert est["raw_moments"]["1"]["mean"] != 1.0

    def test_verify_tsrr_at_n8(self, tmp_path):
        # 8^8 amplitudes are over the cap; the Haar fold samples 8^6
        path = write_graph(tmp_path, graph_to_dict(cycle_graph("TSRR")))
        code, text = run(["verify", path, "--N", "8", "--trials", "12", "--pmax", "2"])
        assert code == 0, text
        assert json.loads(text)["all_ok"]

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_threads_below_one_exit_1(self, command):
        code, text = run([command, str(DATA / "one_loop.json"), "--N", "4",
                          "--threads", "0"])
        assert code == 1
        assert "--threads" in text

    @pytest.mark.parametrize("argv", [
        ["analyze", str(DATA / "one_loop.json"), "--pmax", "0"],
        ["exact", str(DATA / "one_loop.json"), "--N", "4", "--pmax", "0"],
        ["verify", str(DATA / "one_loop.json"), "--N", "4", "--pmax", "-1"],
    ])
    def test_pmax_below_one_exit_1(self, argv):
        code, text = run(argv)
        assert code == 1
        assert "--pmax" in text

    @pytest.mark.parametrize("command", ["exact", "simulate", "verify"])
    def test_n_below_one_exit_1(self, command):
        code, text = run([command, str(DATA / "one_loop.json"), "--N", "0"])
        assert code == 1
        assert "--N" in text

    @pytest.mark.parametrize("command", ["simulate", "verify"])
    def test_trials_below_one_exit_1(self, command):
        code, text = run([command, str(DATA / "one_loop.json"), "--N", "4",
                          "--trials", "0"])
        assert code == 1
        assert "--trials" in text

    def test_grid_below_one_exit_1(self):
        code, text = run(["dist", "mp", "--grid", "0"])
        assert code == 1
        assert "--grid" in text

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @pytest.mark.parametrize("argv", [
        *(["dist", "mp", "--c", c] for c in ("1/0", "1e400", "abc", "inf", "nan", "0", "-1",
                                              "1e300", "1e-300")),
        ["dist", "fc", "--s", "0"],
    ], ids=" ".join)
    def test_bad_dist_parameter_exit_1(self, argv):
        # 1e300 and 1e-300 are valid rationals, but the float support
        # [(1 - sqrt(c))^2, (1 + sqrt(c))^2] collapses to one point
        code, text = run(argv)
        assert code == 1
        assert argv[2] in text

    @pytest.mark.parametrize("ladder", ["a,b", "4,0"])
    def test_bad_ladder_exit_1(self, ladder):
        code, text = run(["verify", str(DATA / "one_loop.json"), "--N", "4",
                          "--trials", "4", "--ladder", ladder])
        assert code == 1
        assert "--ladder" in text

    def test_determinism(self):
        args = ["simulate", str(DATA / "one_loop.json"), "--N", "8",
                "--trials", "12", "--seed", "7", "--pmax", "2"]
        assert run(args) == run(args)

    def test_python_dash_m(self):
        src = str(Path(__file__).resolve().parents[1] / "src")
        env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            filter(None, [src, os.environ.get("PYTHONPATH")])))
        proc = subprocess.run([sys.executable, "-m", "graphstate", "analyze",
                               str(DATA / "one_loop.json"), "--pmax", "2"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout)["max_flow"] == 1
