"""Command-line surface: parsing, commands, formats, exit codes, budgets."""

import json
import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

from graphstate import flow, moments
from graphstate.cli import (
    GraphFileError,
    cmd_dist,
    cmd_exact,
    cmd_verify,
    graph_to_dict,
    main,
    marginal_from_dict,
    parse_graph,
    run,
)
from graphstate import combinatorics
from graphstate.catalog import cycle_graph, exotic_graph, one_loop
from graphstate.combinatorics import catalan
from oracles import n_shaped_marginal, nc_labeling_sum, with_dims

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


def golden_analyze(name, p_max):
    """`analyze` of tests/data/<name>.json, checked byte for byte against its golden report
    as `json.dumps(report, indent=1, sort_keys=True)`; returns the report."""
    code, text = run(["analyze", str(DATA / f"{name}.json"), "--pmax", str(p_max)])
    assert code == 0, text
    report = json.loads(text)
    dumped = json.dumps(report, indent=1, sort_keys=True).encode()
    assert dumped == (DATA / f"golden_analyze_{name}.json").read_bytes()
    return report


class TestCommands:
    def test_analyze_golden_one_loop(self):
        golden_analyze("one_loop", 6)

    def test_analyze_golden_fc2(self):
        report = golden_analyze("fc2_template", 5)
        assert report["max_flow"] == 3
        assert report["distribution"]["kind"] == "fuss_catalan"

    def test_analyze_golden_exotic(self):
        report = golden_analyze("exotic", 4)
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


HELP = """\
usage: graphstate [-h] {analyze,exact,simulate,verify,dist} ...

Spectral statistics of random graph-state marginals.

positional arguments:
  {analyze,exact,simulate,verify,dist}
    analyze             flow, asymptotic moments, limit-law tag
    exact               exact finite-N moments
    simulate            Monte Carlo moment estimates
    verify              analytic predictions against Monte Carlo
    dist                density grids for the limit laws

options:
  -h, --help            show this help message and exit
"""


class TestSurface:
    """Help and usage errors, byte for byte: each command builds only its own
    parser, and a command line that names none still lists every command."""

    @pytest.fixture(autouse=True)
    def columns(self, monkeypatch):
        monkeypatch.setenv("COLUMNS", "80")     # argparse wraps help to the terminal

    @pytest.mark.parametrize("flag", ["--help", "-h"])
    def test_help_lists_every_command(self, capsys, flag):
        assert main([flag]) == 0
        assert capsys.readouterr() == (HELP, "")
        assert run([flag]) == (0, HELP)

    @pytest.mark.parametrize("command,usage", [
        ("analyze", "usage: graphstate analyze [-h] [--trace TRACE] [--format {json,csv}]"),
        ("exact", "usage: graphstate exact [-h] [--trace TRACE] [--format {json,csv}] --N N"),
        ("simulate", "usage: graphstate simulate [-h] [--trace TRACE] [--format {json,csv}] --N N"),
        ("verify", "usage: graphstate verify [-h] [--trace TRACE] [--format {json,csv}] --N N"),
        ("dist", "usage: graphstate dist [-h] [--format {json,csv}] [--c C] [--s S]"),
    ])
    def test_command_help_usage_line(self, capsys, command, usage):
        assert main([command, "--help"]) == 0
        out, err = capsys.readouterr()
        assert out.splitlines()[0] == usage and err == ""
        assert run([command, "--help"]) == (0, out)

    @pytest.mark.parametrize("argv,message", [
        ([], "the following arguments are required: command"),
        (["bogus"], "argument command: invalid choice: 'bogus' (choose from "
                    "'analyze', 'exact', 'simulate', 'verify', 'dist')"),
        (["analyze"], "the following arguments are required: graph"),
        (["exact", str(DATA / "one_loop.json")], "the following arguments are required: --N"),
        (["dist"], "the following arguments are required: family"),
    ], ids=["none", "bogus", "analyze", "exact", "dist"])
    def test_usage_error_text(self, argv, message):
        assert run(argv) == (1, f"usage error: {message}\n")


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
        # the class contraction of the N-shaped poset at d = 2 is gated;
        # exotic's residual poset is rooted and counted at every dimension,
        # which refuses nothing
        monkeypatch.setenv("GRAPHSTATE_BUDGET_TERMS", "10")
        path = write_graph(tmp_path, graph_to_dict(with_dims(n_shaped_marginal(), 2)))
        code, text = run(["analyze", path, "--pmax", "4"])
        assert code == 3
        assert "budget" in text.lower()
        assert run(["analyze", str(DATA / "exotic.json"), "--pmax", "4"])[0] == 0
        path = write_graph(tmp_path, graph_to_dict(with_dims(exotic_graph(), 2)), "exotic2.json")
        code, text = run(["analyze", path, "--pmax", "4"])
        assert code == 0, text
        assert [row["coefficient"] for row in json.loads(text)["moments"]] == \
            ["1", "5/32", "19/512", "353/32768"]

    def test_budget_setting_checked_with_a_warm_flow(self, monkeypatch):
        # the second run's marginal has its flow solved already, and its
        # malformed budget setting is still refused
        argv = ["analyze", str(DATA / "one_loop.json"), "--pmax", "3"]
        assert run(argv)[0] == 0
        monkeypatch.setenv("GRAPHSTATE_BUDGET_TERMS", "lots")
        code, text = run(argv)
        assert code == 1
        assert "GRAPHSTATE_BUDGET_TERMS" in text

    @pytest.mark.parametrize("argv", [
        ["analyze", str(DATA / "exotic.json"), "--pmax", "6"],
        ["verify", str(DATA / "one_loop.json"), "--N", "3", "--trials", "3", "--pmax", "3"],
    ], ids=["analyze", "verify"])
    def test_one_max_flow_per_command(self, cold_flows, argv):
        # every order and the network summary read one solve
        solves = []

        def profile(frame, event, arg):
            if event == "call" and frame.f_code is flow.max_flow.__code__:
                solves.append(event)
        sys.setprofile(profile)
        try:
            code, text = run(argv)
        finally:
            sys.setprofile(None)
        assert code == 0, text
        assert len(solves) == 1

    def test_enumeration_cap_exit_3(self, tmp_path, monkeypatch):
        # the N-shaped poset's class contraction at p = 11 plans 1.0e10
        # entries; with the budget lifted, NC_CAP still refuses it
        monkeypatch.setenv("GRAPHSTATE_BUDGET_TERMS", "1e12")
        path = write_graph(tmp_path, graph_to_dict(with_dims(n_shaped_marginal(), 2)))
        code, text = run(["analyze", path, "--pmax", "11"])
        assert code == 3
        assert "enumeration cap" in text
        # the cap binds only the class contraction, which a rooted poset
        # does not run, at any dimension
        code, text = run(["analyze", str(DATA / "one_loop.json"), "--pmax", "11"])
        assert code == 0, text
        assert json.loads(text)["moments"][-1]["coefficient"] == str(catalan(11))
        path = write_graph(tmp_path, graph_to_dict(one_loop(2)), "one_loop2.json")
        code, text = run(["analyze", path, "--pmax", "11"])
        assert code == 0, text
        assert json.loads(text)["moments"][-1]["coefficient"] == str(Fraction(catalan(11), 2 ** 10))

    def test_top_order_refused_before_any_sum(self, tmp_path, monkeypatch):
        # both commands evaluate p_max first, so its refusal comes before
        # any lower order is summed
        def summed(*args):
            raise AssertionError("a moment sum ran before the refusal")
        monkeypatch.setattr(moments, "_contract", summed)
        monkeypatch.setattr(combinatorics, "_contract", summed)
        code, text = run(["exact", str(DATA / "exotic.json"), "--N", "2", "--pmax", "8"])
        assert code == 3 and "budget" in text
        monkeypatch.setenv("GRAPHSTATE_BUDGET_TERMS", "1e12")
        path = write_graph(tmp_path, graph_to_dict(with_dims(n_shaped_marginal(), 2)))
        code, text = run(["analyze", path, "--pmax", "11"])
        assert code == 3 and "enumeration cap" in text
        # a rooted poset runs no contraction at any order or dimension
        assert run(["analyze", str(DATA / "one_loop.json"), "--pmax", "11"])[0] == 0
        path = write_graph(tmp_path, graph_to_dict(one_loop(2)), "one_loop2.json")
        assert run(["analyze", path, "--pmax", "11"])[0] == 0

    @pytest.mark.parametrize("name", ["exotic", "fc2_template", "figure_example", "one_loop"])
    def test_analyze_builds_no_label_table(self, monkeypatch, tmp_path, name):
        # every graph here has a rooted residual poset, at unit dimensions
        # and in its copy at d = 2, and its law is checked by closed forms
        # and the poset recursion
        def unbuilt(p, *args):
            raise AssertionError(f"built a label table at order {p}")
        monkeypatch.setattr(moments, "_label_table", unbuilt)
        monkeypatch.setattr(combinatorics, "_label_table", unbuilt)
        copy = write_graph(tmp_path, graph_to_dict(with_dims(parse_graph(str(DATA / f"{name}.json")), 2)))
        for path in (str(DATA / f"{name}.json"), copy):
            code, text = run(["analyze", path, "--pmax", "6"])
            assert code == 0, text

    @pytest.mark.parametrize("argv,oracle", [
        (["--pmax", "9"], exotic_graph), (["--pmax", "30"], exotic_graph),
        (["--pmax", "11"], one_loop)], ids=["exotic-9", "exotic-30", "one_loop-11"])
    def test_analyze_d2_rooted_runs_ungated(self, tmp_path, argv, oracle):
        # the d = 2 copies count their rooted residual posets with class
        # weights, which neither the work budget nor NC_CAP gates
        marginal = with_dims(oracle(), 2)
        code, text = run(["analyze", write_graph(tmp_path, graph_to_dict(marginal)), *argv])
        assert code == 0, text
        rows = json.loads(text)["moments"]
        assert len(rows) == int(argv[1])
        for row in rows[:8 if oracle is exotic_graph else 5]:
            cost, coefficient, count = nc_labeling_sum(marginal, row["p"])
            assert (row["exponent"], row["coefficient"], row["minimizers"]) == \
                (-cost, str(coefficient), count)

    def test_analyze_past_the_nc_cap(self):
        # NC_CAP = 10 binds only the class contraction of unrooted posets
        code, text = run(["analyze", str(DATA / "exotic.json"), "--pmax", "12"])
        assert code == 0, text
        report = json.loads(text)
        assert report["distribution"]["kind"] == "poset_law"
        assert report["moments"][7]["coefficient"] == "6304689"

    def test_exact_below_order(self):
        code, text = run(["exact", str(DATA / "one_loop.json"), "--N", "1", "--pmax", "3"])
        assert code == 0, text
        assert [row["value"] for row in json.loads(text)["moments"]] == ["1", "1", "1"]

    def test_env_budget_override_allows_more(self, monkeypatch):
        monkeypatch.setenv("GRAPHSTATE_BUDGET_TERMS", "100000000")
        code, _ = run(["analyze", str(DATA / "exotic.json"), "--pmax", "4"])
        assert code == 0

    def test_env_budget_accepts_exponent_notation(self, monkeypatch):
        monkeypatch.setenv("GRAPHSTATE_BUDGET_TERMS", "5e6")
        assert run(["analyze", str(DATA / "exotic.json"), "--pmax", "4"])[0] == 0
        monkeypatch.setenv("GRAPHSTATE_BUDGET_TERMS", "1e7")
        assert run(["exact", str(DATA / "one_loop.json"), "--N", "4"])[0] == 0

    # both commands read the one budget variable
    @pytest.mark.parametrize("env,argv", [
        ("GRAPHSTATE_BUDGET_TERMS", ["analyze", str(DATA / "one_loop.json")]),
        ("GRAPHSTATE_BUDGET_TERMS", ["exact", str(DATA / "one_loop.json"), "--N", "4"]),
    ])
    @pytest.mark.parametrize("value", ["lots", "2.5", "inf", "", "-1"])
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

    def test_verify_runs_no_eigensolve(self, tmp_path, monkeypatch):
        def refuse(*args, **kwargs):
            raise AssertionError("verify ran an eigensolve")

        def no_constant(name):
            raise ValueError(f"{name} in the JSON output")

        monkeypatch.setattr(np.linalg, "eigvalsh", refuse)
        tsrr = write_graph(tmp_path, graph_to_dict(cycle_graph("TSRR")))
        for path, n in ((str(DATA / "one_loop.json"), "16"), (tsrr, "3")):
            code, text = run(["verify", path, "--N", n, "--trials", "20", "--pmax", "3",
                              "--ladder", "2,3"])
            assert code == 0, text
            report = json.loads(text, parse_constant=no_constant)
            assert report["all_ok"]
            assert report["estimate"]["entropy"] == {
                "mean": None, "stderr": None, "bits": None,
                "skipped": "verify checks moments only"}

    def test_verify_past_p6_and_simulate_take_the_eigenvalue_route(self, monkeypatch):
        calls = []
        eigvalsh = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: calls.append(1) or eigvalsh(a))
        code, text = run(["verify", str(DATA / "one_loop.json"), "--N", "16", "--trials", "10",
                          "--seed", "0", "--pmax", "7"])
        assert code == 0, text
        assert json.loads(text)["all_ok"] and len(calls) == 10
        code, text = run(["simulate", str(DATA / "one_loop.json"), "--N", "4", "--trials", "10"])
        assert code == 0, text
        assert math.isfinite(json.loads(text)["estimate"]["entropy"]["mean"])

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

    def test_verify_needs_two_trials(self):
        # one trial has no sample stderr, so no deviation could be judged
        code, text = run(["verify", str(DATA / "one_loop.json"), "--N", "2",
                          "--trials", "1", "--pmax", "2"])
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
