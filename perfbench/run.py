"""Benchmark of the graphstate CLI and engines, one fresh process per op.

    python3 perfbench/run.py --workload asymptotic --seed 1 --seconds 40 --trace 0

Run from the root of a checkout.  Workloads (ops.py):

    asymptotic  `analyze` on seven graphs: NC(p) pair tables, minimizer
                search, coefficient sums, classify.  No Weingarten, no
                Monte Carlo.
    exact       finite-N Weingarten and Wick sums: S_p tables, wg_exact,
                joint Fraction sums.  No NC tables, no Monte Carlo.
    sampling    `verify` / `simulate`: state assembly, Gram matrix and
                spectrum per trial, plus the analytic references.

Each op runs in its own worker (worker.py): the worker times
`import graphstate`, then a fixed calibration loop, then the op.  Workers
run two at a time, each pinned to its own CPU.  With `--trace 0` the ops
are repeated until `--seconds` have passed (see `Schedule`) and the
end-to-end metrics are printed:

    wall_s       sum over ops of the op's median time (import excluded)
    setup_s      median `import graphstate` time over all workers
    peak_rss_mb  largest peak RSS of any worker
    ok_frac      share of op runs that exited 0 and matched the reference

wall_s and setup_s are in seconds at a reference machine speed: each
worker's times are scaled by its own calibration loop (see CALIB_REF_S).

With `--trace 1` every op runs once untraced and once traced, side by
side, and the per-layer metrics derived from the spans are printed, plus
the tracing overhead (traced minus untraced wall_s).  Spans, per-op
records and the environment are written to `.bench_build/perfbench/`.  The last stdout
line is the JSON result; the exit code is 0 unless the benchmark itself
could not run (for example, no `src/graphstate` in the checkout).
"""

import argparse
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))
from ops import CALIBRATION, check, load_reference, workload_ops  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
OUT_DIR = ROOT / ".bench_build" / "perfbench"
WORKLOADS = ("asymptotic", "exact", "sampling")
# This one process starts the workers, at most WORKERS at a time, each
# pinned to its own CPU with one BLAS thread and `--threads 1`, so no more
# threads compute than there are cores.  Two lanes double the repetitions
# a run gets, which narrowed the run-to-run spread on a shared VM.
BLAS_THREADS = 1
WORKERS = 2
# Runs of every op before the schedule picks ops by their weight in wall_s.
MIN_RUNS = 2
# On a shared VM the speed a worker gets swings by tens of percent from
# one second to the next, and the same op's time swings with it.  So each
# worker times a fixed loop that does not call the package
# (worker.calibrate, of the kind ops.CALIBRATION names for the workload)
# right before its op, and wall_s and setup_s are given in seconds at the
# speed where that loop takes CALIB_REF_S, its usual time on the 2-core VM
# the benchmark was tuned on: each time is multiplied by CALIB_REF_S /
# calib_s of its own worker.  A change to the package moves the op's time
# but not the loop's.  The unscaled times go to stderr and to the per-run
# record.
CALIB_REF_S = {"python": 0.04, "numpy": 0.02}
# Workers get a timeout that ends with this many seconds after the start,
# so a run always finishes.
RUN_LIMIT_S = 170.0

PER_LAYER_TIMES = (
    "moments.nc_tables_s", "moments.minimizer_search_s", "moments.coefficient_sum_s",
    "moments.classify_s", "combinatorics.enumerate_nc_s", "flow.max_flow_s",
    "moments.perm_tables_s", "weingarten.wg_exact_s", "moments.exact_sum_s",
    "moments.wick_sum_s", "montecarlo.assemble_s", "montecarlo.spectrum_s",
    "montecarlo.reduce_self_s", "cli.analyze_self_s", "cli.verify_reference_s",
)
PER_LAYER_COUNTS = {
    "moments.minimizers": "count", "moments.search_space": "count",
    "moments.minimizer_yield": "ratio", "moments.tuples_gate_estimate": "count",
    "moments.exact_gate_estimate": "count", "moments.exact_terms": "count",
    "moments.exact_gate_ratio": "ratio", "montecarlo.amplitudes": "count",
    "montecarlo.spectral_side": "count", "montecarlo.gram_flops": "flop-computed",
    "montecarlo.eigvalsh_flops": "flop-computed", "montecarlo.state_bytes": "B-computed",
    "trace.spans": "count",
}
IMPORTS = {"import.graphstate_s": "graphstate", "import.spectra_s": "graphstate.spectra",
           "import.numpy_s": "numpy"}


class Runner:
    """Starts workers and keeps their records."""

    def __init__(self, deadline):
        self.deadline = deadline
        self.records = []
        self.env = None
        self.worker_env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
                               OPENBLAS_NUM_THREADS=str(BLAS_THREADS),
                               OMP_NUM_THREADS=str(BLAS_THREADS), PYTHONHASHSEED="0")

    def run(self, op, trace, cpu=None):
        spec = dict(op, trace=trace, env=self.env is None, cpu=cpu)
        cmd = [sys.executable] + (["-X", "importtime"] if trace else []) + [str(WORKER)]
        start = time.monotonic()
        timeout = max(5.0, self.deadline - start)
        try:
            proc = subprocess.run(cmd, input=json.dumps(spec), capture_output=True, text=True,
                                  cwd=ROOT, env=self.worker_env, timeout=timeout)
        except subprocess.TimeoutExpired:
            record = {"error": f"worker timed out after {timeout:.0f} s"}
        else:
            record = _parse_worker(proc)
            record["worker_s"] = time.monotonic() - start
        record.update(op=op["id"], traced=trace)
        if "env" in record:
            self.env = record.pop("env")
        self.records.append(record)
        return record


def _parse_worker(proc):
    lines = proc.stderr.splitlines()
    imports = {}
    for line in lines:
        if line.startswith("import time:") and line.count("|") == 2:
            _, cumulative, name = line.split("|")
            if cumulative.strip().isdigit():
                imports[name.strip()] = int(cumulative) * 1e-6
    if proc.returncode != 0 or not proc.stdout.strip():
        tail = [ln for ln in lines if not ln.startswith("import time:")][-3:]
        return {"error": f"worker exited {proc.returncode}: {' | '.join(tail)}"}
    record = json.loads(proc.stdout)
    record["imports"] = imports
    return record


def _check_source():
    src = ROOT / "src" / "graphstate"
    if not (src / "__init__.py").is_file() or not (ROOT / "tests" / "data").is_dir():
        sys.exit(f"perfbench: no graphstate sources under {ROOT}; run from a checkout root")


def _verify_import(record):
    """A worker must have imported the checkout's package, not another copy."""
    path = record.get("graphstate_file")
    if path and not Path(path).resolve().is_relative_to(ROOT / "src"):
        sys.exit(f"perfbench: workers imported graphstate from {path}, not {ROOT / 'src'}")


def _lanes():
    """CPUs the workers are pinned to, one worker per CPU at a time."""
    return sorted(os.sched_getaffinity(0))[:WORKERS]


def _tally(done, reference):
    """Check (op, record) pairs; returns (failed, problems, passing records)."""
    failed = 0
    problems = {}
    passed = []
    for op, record in done:
        _verify_import(record)
        found = check(op, record, reference, ROOT)
        if found:
            failed += 1
            problems.setdefault(op["id"], found)
        else:
            passed.append(record)
    return failed, problems, passed


class Schedule:
    """Which op a lane runs next, until `seconds` have passed.

    Every op first runs twice.  After that the next op is the one whose
    extra run narrows the variance of `wall_s` the most per second of lane
    time.  What the calibration leaves of the machine's swings averages out
    over runs taken at many moments.  An op with median m that has run n times
    adds about m^2 / n to the variance of the sum of medians; one more run
    removes m^2 / (n (n + 1)) and costs m plus the worker's start-up.  So
    the ops that weigh most in `wall_s` run most often, and the small ones,
    whose start-up costs more than their op, run least.
    """

    def __init__(self, ops, seconds):
        self.end = time.monotonic() + seconds
        self.queue = list(ops) * MIN_RUNS
        self.ops = ops
        self.started = {op["id"]: 0 for op in ops}
        self.op_s = {op["id"]: [] for op in ops}
        self.startup_s = []
        self.lock = threading.Lock()

    def next_op(self):
        with self.lock:
            if self.queue:
                op = self.queue.pop(0)
            else:
                left = self.end - time.monotonic()
                startup = statistics.median(self.startup_s) if self.startup_s else 1.0
                best = None
                for candidate in self.ops:
                    seen = self.op_s[candidate["id"]]
                    if not seen:
                        continue
                    m = statistics.median(seen)
                    if m + startup > left:
                        continue
                    n = self.started[candidate["id"]]
                    gain = m * m / (n * (n + 1) * (m + startup))
                    if best is None or gain > best[0]:
                        best = (gain, candidate)
                if best is None:
                    return None
                op = best[1]
            self.started[op["id"]] += 1
            return op

    def finished(self, op, record):
        with self.lock:
            if "op_s" in record:
                self.op_s[op["id"]].append(record["op_s"])
                self.startup_s.append(record["worker_s"] - record["op_s"])


def run_untraced(runner, ops, reference, seconds):
    """Repeat the ops until `seconds` pass; each op runs at least twice.

    Each lane starts its next worker as soon as its last one ends, so the
    two lanes sample an op at different moments.
    """
    schedule = Schedule(ops, seconds)
    done = []   # (op, record)
    errors = []

    def lane(cpu):
        try:
            while (op := schedule.next_op()) is not None:
                record = runner.run(op, False, cpu)
                schedule.finished(op, record)
                done.append((op, record))
        except Exception as exc:   # re-raised below, once both lanes have stopped
            errors.append(exc)
            with schedule.lock:
                schedule.queue.clear()
                schedule.end = 0.0

    threads = [threading.Thread(target=lane, args=(cpu,)) for cpu in _lanes()]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join()
    if errors:
        raise errors[0]
    failed, problems, passed = _tally(done, reference)
    by_op = {op["id"]: [] for op in ops}
    for record in passed:
        by_op[record["op"]].append(record)
    return by_op, len(done), failed, problems


def end_to_end(runner, by_op, attempted, failed, calib_ref_s):
    """The end-to-end metrics, and the same times unscaled (for the record).

    Times are in seconds at the speed where the workers' calibration loop
    takes `calib_ref_s`.
    """
    ok = [r for r in runner.records if "op_s" in r]

    def wall(time_of):
        return math.fsum(statistics.median(map(time_of, v)) for v in by_op.values() if v)

    def setup(time_of):
        return statistics.median(map(time_of, ok)) if ok else 0.0

    def scaled(key):
        return lambda r: r[key] * calib_ref_s / r["calib_s"]

    metrics = {
        "wall_s": (wall(scaled("op_s")), "s"),
        "setup_s": (setup(scaled("setup_s")), "s"),
        "peak_rss_mb": (max((r["rss_kb"] for r in ok), default=0) / 1024.0, "MB"),
        "ok_frac": ((attempted - failed) / attempted, "fraction"),
    }
    unscaled = {"wall_s": wall(lambda r: r["op_s"]), "setup_s": setup(lambda r: r["setup_s"]),
                "calib_s": setup(lambda r: r["calib_s"])}
    return metrics, unscaled


# ---------------------------------------------------------------------------
# per-layer metrics from the spans of traced workers
# ---------------------------------------------------------------------------

def _dur(span):
    return span["end"] - span["start"]


def layer_metrics(traced_records):
    """Sum each derived layer quantity over the traced ops.

    Cold is a call's first run in its worker; warm is the identical call
    repeated after the op.  Layers a workload never reaches report 0.
    """
    m = dict.fromkeys(PER_LAYER_TIMES, 0.0)
    m.update(dict.fromkeys(PER_LAYER_COUNTS, 0))
    for rec in traced_records:
        spans = rec.get("spans", [])
        m["trace.spans"] += len(spans)
        kids = [[] for _ in spans]
        for span in spans:
            if span["parent"] is not None:
                kids[span["parent"]].append(span)

        def self_time(i):
            return _dur(spans[i]) - math.fsum(_dur(c) for c in kids[i])

        first_cold, warm = {}, {}
        for i, s in enumerate(spans):
            key = (s["name"], s.get("p"), s.get("N"))
            if s["phase"] == "cold":
                first_cold.setdefault(key, i)
            elif key not in warm:
                warm[key] = i
        for key, i in warm.items():
            name = key[0]
            cold = spans[first_cold[key]] if key in first_cold else None
            if name == "moments.minimizer_set":
                m["moments.minimizer_search_s"] += _dur(spans[i])
                m["moments.minimizers"] += spans[i]["minimizers"]
                if cold is not None:
                    m["moments.nc_tables_s"] += _dur(cold) - _dur(spans[i])
            elif name == "moments.asymptotic_moment":
                m["moments.coefficient_sum_s"] += self_time(i)
            elif name in ("moments.exact_moment", "moments.exact_moment_gaussian"):
                sum_key = "moments.exact_sum_s" if name.endswith("exact_moment") else "moments.wick_sum_s"
                m[sum_key] += _dur(spans[i])
                if cold is not None:
                    wg = math.fsum(_dur(c) for c in kids[first_cold[key]]
                                   if c["name"] == "weingarten.wg_exact")
                    m["moments.perm_tables_s"] += _dur(cold) - wg - _dur(spans[i])

        for i, s in enumerate(spans):
            if s["phase"] != "cold":
                continue
            name = s["name"]
            if name == "moments.classify":
                m["moments.classify_s"] += _dur(s)
            elif name == "combinatorics.enumerate_nc":
                m["combinatorics.enumerate_nc_s"] += _dur(s)
            elif name == "flow.max_flow":
                m["flow.max_flow_s"] += _dur(s)
            elif name == "weingarten.wg_exact":
                m["weingarten.wg_exact_s"] += _dur(s)
            elif name == "cli.cmd_analyze":
                m["cli.analyze_self_s"] += self_time(i)
            elif name == "cli.cmd_verify":
                m["cli.verify_reference_s"] += _dur(s) - math.fsum(
                    _dur(c) for c in kids[i] if c["name"] == "montecarlo.estimate")
            elif name == "montecarlo.estimate":
                m["montecarlo.reduce_self_s"] += self_time(i)
                trials = [c for c in kids[i] if c["name"] == "montecarlo.assemble_state"]
                spectra = [c for c in kids[i] if c["name"] == "montecarlo.reduced_spectrum"]
                m["montecarlo.assemble_s"] += statistics.median(map(_dur, trials))
                m["montecarlo.spectrum_s"] += statistics.median(map(_dur, spectra))
                for t in trials:
                    m["montecarlo.amplitudes"] += t["amplitudes"]
                    m["montecarlo.state_bytes"] = max(m["montecarlo.state_bytes"],
                                                      16 * t["amplitudes"])
                for c in spectra:
                    side, long_side = c["side"], c["long_side"]
                    m["montecarlo.spectral_side"] = max(m["montecarlo.spectral_side"], side)
                    # complex products: 8 real flops per multiply-add; the
                    # Hermitian eigenvalue reduction is about 16/3 n^3
                    m["montecarlo.gram_flops"] += 8 * side * side * long_side
                    m["montecarlo.eigvalsh_flops"] += 16 * side ** 3 // 3

        for gate in rec.get("gates", []):
            if gate["gate"] == "minimizer_set":
                m["moments.tuples_gate_estimate"] += gate["estimated"]
                m["moments.search_space"] += gate["work"]
            else:
                m["moments.exact_gate_estimate"] += gate["estimated"]
                m["moments.exact_terms"] += gate["work"]

    if m["moments.search_space"]:
        m["moments.minimizer_yield"] = m["moments.minimizers"] / m["moments.search_space"]
    if m["moments.exact_terms"]:
        m["moments.exact_gate_ratio"] = m["moments.exact_gate_estimate"] / m["moments.exact_terms"]
    for name, module in IMPORTS.items():
        values = [r["imports"][module] for r in traced_records if module in r.get("imports", {})]
        m[name] = statistics.median(values) if values else 0.0
    return m


def run_traced(runner, ops, reference, calib_ref_s):
    """Each op once untraced and once traced, side by side on two cores.

    The tracing overhead compares the two at reference speed, as wall_s does.
    """
    cpus = _lanes()
    done = []
    with ThreadPoolExecutor(len(cpus)) as pool:
        for op in ops:
            futures = [pool.submit(runner.run, op, trace, cpu)
                       for trace, cpu in ((False, cpus[0]), (True, cpus[-1]))]
            done.extend((op, future.result()) for future in futures)
    failed, problems, passed = _tally(done, reference)
    wall = {False: 0.0, True: 0.0}
    for record in passed:
        wall[record["traced"]] += record["op_s"] * calib_ref_s / record["calib_s"]
    metrics = layer_metrics([r for r in passed if r["traced"]])
    metrics["trace.overhead_s"] = wall[True] - wall[False]
    return metrics, len(done), failed, problems


def environment(runner):
    try:
        commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                text=True, timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        commit = "unknown"
    env = dict(runner.env or {})
    env.update({"nproc": os.cpu_count(), "machine": platform.machine(),
                "OPENBLAS_NUM_THREADS": BLAS_THREADS, "PYTHONHASHSEED": 0,
                "cli_threads": 1, "git_commit": commit})
    return env


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    _check_source()

    ops = workload_ops(args.workload, args.seed)
    reference = load_reference()
    runner = Runner(deadline=time.monotonic() + RUN_LIMIT_S)
    calib_ref_s = CALIB_REF_S[CALIBRATION[args.workload]]
    unscaled = None
    if args.trace:
        values, attempted, failed, problems = run_traced(runner, ops, reference, calib_ref_s)
        units = {name: "s" for name in PER_LAYER_TIMES + tuple(IMPORTS) + ("trace.overhead_s",)}
        units.update(PER_LAYER_COUNTS)
        metrics = {name: {"value": value, "unit": units[name]} for name, value in values.items()}
    else:
        by_op, attempted, failed, problems = run_untraced(runner, ops, reference, args.seconds)
        values, unscaled = end_to_end(runner, by_op, attempted, failed, calib_ref_s)
        print("unscaled: " + " ".join(f"{k} {v:.4f}" for k, v in unscaled.items()),
              file=sys.stderr)
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in values.items()}

    env = environment(runner)
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    detail = OUT_DIR / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    detail.write_text(json.dumps({"env": env, "workload": args.workload, "seed": args.seed,
                                  "problems": problems, "unscaled": unscaled,
                                  "records": runner.records}))
    for op_id, found in problems.items():
        print(f"FAILED {op_id}: {'; '.join(found)}", file=sys.stderr)
    print(json.dumps({"env": env}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))


if __name__ == "__main__":
    main()
