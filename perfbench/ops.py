"""Workloads of the benchmark: fixed op lists, reference outputs, checks.

Every op runs in a fresh worker process (see worker.py), because a CLI
user pays for building the NC(p) / S_p / Weingarten tables on every
command.  An op is either one CLI command through `graphstate.cli.run` or
one public library call per order p = 1..pmax.  Paths are relative to the
checkout root.

Outputs are checked against `reference.json` (recorded from the seed
commit by record.py) and, for the three graphs that have one, byte for
byte against `tests/data/golden_analyze_*.json`.
"""

import json
import random
from pathlib import Path

DATA = "tests/data"
GRAPHS = "perfbench/graphs"
REFERENCE = Path(__file__).resolve().parent / "reference.json"

# Budget for library calls whose gate refuses work that finishes in about
# a second (its estimate counts (p!)^(2k) terms; the sum does far fewer).
LIFTED = 10 ** 15

# The kind of loop worker.calibrate times before each op of a workload:
# pure-Python Fraction work for the moment sums, numpy linear algebra for
# Monte Carlo, whose time goes to BLAS, LAPACK and large arrays.
CALIBRATION = {"asymptotic": "python", "exact": "python", "sampling": "numpy"}

# Graph files the CLI ops read that tests/data does not have; record.py
# writes them from the catalog functions.
CATALOG_GRAPHS = {
    "cycle_TSRR": ("cycle_graph", ["TSRR"]),
    "fc_template_3": ("fc_template", [3]),
    "star_2_1_1": ("star_graph", [2, 1, 1]),
}


def _cli(op_id, argv, golden=None):
    op = {"id": op_id, "kind": "cli", "argv": argv}
    if golden:
        op["golden"] = golden
    return op


def _analyze(name, path, pmax, golden=False):
    return _cli(f"analyze-{name}-p{pmax}", ["analyze", path, "--pmax", str(pmax)],
                golden=f"{DATA}/golden_analyze_{name}.json" if golden else None)


def _lib(fn, name, graph, graph_args, pmax, N, budget=None):
    return {"id": f"{fn}-{name}-p{pmax}-N{N}", "kind": "lib", "fn": fn, "graph": graph,
            "graph_args": graph_args, "pmax": pmax, "N": N, "budget": budget}


def _sampling(seed):
    mc_seed = str(seed % 2 ** 32)   # numpy seeds must be non-negative

    def cmd(command, name, path, N, trials, pmax, *extra):
        argv = [command, path, "--N", str(N), "--trials", str(trials), "--pmax", str(pmax),
                "--seed", mc_seed, "--threads", "1", *extra]
        return _cli(f"{command}-{name}-N{N}-t{trials}-p{pmax}", argv)

    # Ops with few trials use --pmax 1: with 2-4 trials the 4-stderr
    # check on p >= 2 raises false alarms at a few percent per seed, while
    # the per-trial work (assembly and spectrum) is the same at any pmax.
    return [
        cmd("verify", "exotic", f"{DATA}/exotic.json", 4, 2, 1),
        cmd("verify", "exotic", f"{DATA}/exotic.json", 3, 100, 3),
        cmd("verify", "fc2_template", f"{DATA}/fc2_template.json", 8, 4, 1),
        cmd("verify", "cycle_TSRR", f"{GRAPHS}/cycle_TSRR.json", 4, 60, 3),
        cmd("verify", "one_loop", f"{DATA}/one_loop.json", 64, 50, 3),
        cmd("simulate", "cycle_TSRR", f"{GRAPHS}/cycle_TSRR.json", 4, 40, 3,
            "--mode", "ginibre"),
    ]


def workload_ops(workload, seed):
    """The workload's ops in the order this seed runs them."""
    if workload == "asymptotic":
        ops = [
            _analyze("exotic", f"{DATA}/exotic.json", 5),
            _analyze("exotic", f"{DATA}/exotic.json", 4, golden=True),
            _analyze("cycle_TSRR", f"{GRAPHS}/cycle_TSRR.json", 6),
            _analyze("fc_template_3", f"{GRAPHS}/fc_template_3.json", 5),
            _analyze("star_2_1_1", f"{GRAPHS}/star_2_1_1.json", 6),
            _analyze("fc2_template", f"{DATA}/fc2_template.json", 5, golden=True),
            _analyze("one_loop", f"{DATA}/one_loop.json", 6, golden=True),
            _analyze("figure_example", f"{DATA}/figure_example.json", 6),
        ]
    elif workload == "exact":
        ops = [
            _lib("exact_moment", "cycle_TSRR", "cycle_graph", ["TSRR"], 4, 5, LIFTED),
            _lib("exact_moment", "exotic", "exotic_graph", [], 4, 4, LIFTED),
            _lib("exact_moment", "fc_template_3", "fc_template", [3], 4, 3, LIFTED),
            _lib("exact_moment", "fc2_template", "fc_template", [2], 5, 4, LIFTED),
            _lib("exact_moment_gaussian", "cycle_TRR", "cycle_graph", ["TRR"], 4, 5),
            _lib("exact_moment_gaussian", "exotic", "exotic_graph", [], 4, 5),
            _cli("exact-figure_example-N4-p3",
                 ["exact", f"{DATA}/figure_example.json", "--N", "4", "--pmax", "3"]),
        ]
    elif workload == "sampling":
        ops = _sampling(seed)
    else:
        raise ValueError(f"unknown workload {workload!r}")
    for op in ops:
        op["calibration"] = CALIBRATION[workload]
    random.Random(seed).shuffle(ops)
    return ops


def expected_part(op, out):
    """The part of an op's output that must equal the recorded reference.

    Monte Carlo numbers depend on the seed, so for `verify` only the
    analytic side (flow, law, forecasts, reference moments) is compared.
    """
    if op["kind"] == "lib":
        return out
    report = json.loads(out)
    command = op["argv"][0]
    if command == "verify":
        return {"graph": report["graph"], "max_flow": report["max_flow"],
                "distribution": report["distribution"],
                "predictions": report["predictions"],
                "references": [[row["p"], row["reference"], row["reference_kind"],
                                row["asymptotic_coefficient"]] for row in report["checks"]]}
    if command == "simulate":
        est = report["estimate"]
        return {"graph": report["graph"], "N": est["N"], "trials": est["trials"],
                "mode": est["mode"]}
    return report


def check(op, record, reference, root):
    """Problems with one worker record; an empty list means it passed."""
    if record.get("error"):
        return [record["error"]]
    if record["code"] != 0:
        return [f"exit code {record['code']}: {str(record['out']).strip()[:200]}"]
    out = record["out"]
    problems = []
    if op["id"] not in reference:
        problems.append("no reference recorded")
    elif expected_part(op, out) != reference[op["id"]]:
        problems.append("output differs from the reference")
    if op.get("golden"):
        text = json.dumps(json.loads(out), indent=1, sort_keys=True)
        if text.encode() != (root / op["golden"]).read_bytes():
            problems.append(f"not byte-identical to {op['golden']}")
    if op["kind"] == "cli" and op["argv"][0] in ("verify", "simulate"):
        report = json.loads(out)
        if op["argv"][0] == "verify" and not report["all_ok"]:
            problems.append("verify reported all_ok = false")
        mean = report["estimate"]["moments"]["1"]["mean"]
        if abs(mean - 1.0) > 1e-10:
            problems.append(f"p=1 mean {mean!r} is not 1 within 1e-10")
    return problems


def load_reference():
    return json.loads(REFERENCE.read_text())
