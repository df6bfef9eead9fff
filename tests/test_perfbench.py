"""The benchmark's ops against the outputs it has recorded.

`perfbench/` runs each op in a fresh worker process and checks its output
against `perfbench/reference.json`.  These tests run the library ops of
the `exact` workload in this process, and one cheap op per workload
through the worker itself with tracing on, so that a name the worker no
longer finds or a value that moved fails here, judged by the benchmark's
own `ops.check`, and a layer the traced run times from spans that are
gone reads 0 or fails in the benchmark's own `run.layer_metrics`.
"""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from graphstate import catalog, moments

ROOT = Path(__file__).resolve().parents[1]
PERFBENCH = ROOT / "perfbench"


def _load(name, filename):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


ops = _load("perfbench_ops", "ops.py")
run = _load("perfbench_run", "run.py")
REFERENCE = ops.load_reference()
EXACT_LIBRARY_OPS = [op for op in ops.workload_ops("exact", 1) if op["kind"] == "lib"]


def test_exact_workload_has_six_library_ops():
    assert len(EXACT_LIBRARY_OPS) == 6


@pytest.mark.parametrize("op", EXACT_LIBRARY_OPS, ids=lambda op: op["id"])
def test_exact_library_op_matches_reference(op):
    marginal = getattr(catalog, op["graph"])(*op["graph_args"])
    fn = getattr(moments, op["fn"])
    out = [str(fn(marginal, p, op["N"], budget=op["budget"])) for p in range(1, op["pmax"] + 1)]
    assert ops.check(op, {"code": 0, "out": out}, REFERENCE, ROOT) == []


# layer times each traced op's spans must give
TRACED_LAYERS = {
    "asymptotic": ["moments.coefficient_sum_s"],
    "exact": ["moments.exact_sum_s"],
    "sampling": ["montecarlo.assemble_s", "montecarlo.spectrum_s"],
}


@pytest.mark.parametrize("workload,op_id", [
    ("asymptotic", "analyze-one_loop-p6"),
    ("exact", "exact_moment-cycle_TSRR-p4-N5"),
    ("sampling", "verify-one_loop-N64-t50-p3"),
    ("sampling", "simulate-cycle_TSRR-N4-t40-p3"),
])
def test_traced_worker_op_passes_check(workload, op_id):
    op = next(op for op in ops.workload_ops(workload, 1) if op["id"] == op_id)
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), OPENBLAS_NUM_THREADS="1",
               OMP_NUM_THREADS="1", PYTHONHASHSEED="0")
    proc = subprocess.run([sys.executable, str(PERFBENCH / "worker.py")],
                          input=json.dumps(dict(op, trace=True)), capture_output=True,
                          text=True, cwd=ROOT, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr[-2000:]
    record = json.loads(proc.stdout)
    assert ops.check(op, record, REFERENCE, ROOT) == []
    assert record["spans"]
    assert record["gates"] or op["id"].startswith("simulate")    # simulate computes no reference
    # the traced run reads its layer times off these spans: a span the
    # package stops producing reads 0 here or fails the run
    metrics = run.layer_metrics([record])
    layers = {name: metrics[name] for name in TRACED_LAYERS[workload]}
    assert all(layers.values()), layers
    if workload == "sampling":    # one assembly and one reduction per trial, on either route
        trials = int(op["argv"][op["argv"].index("--trials") + 1])
        names = [span["name"] for span in record["spans"]]
        assert (names.count("montecarlo.assemble_state") == trials
                and names.count("montecarlo.reduced_spectrum") == trials)
