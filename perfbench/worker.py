"""Run one benchmark op in a fresh interpreter and print a JSON record.

`run.py` starts this file as `python3 perfbench/worker.py`, with the op
spec as JSON on stdin and `PYTHONPATH` set to the checkout's `src`.  The
record is printed to stdout as one JSON object:

    setup_s   time of `import graphstate` (numpy and scipy included)
    op_s      time of the op: one `graphstate.cli.run` command, or one
              public library call per order p = 1..pmax
    rss_kb    peak resident set size of this process (ru_maxrss)
    calib_s   time of a fixed loop run right before the op, with no call
              into the package: the machine's speed at that moment (see
              `calibrate`)
    code      CLI exit code (0 for library ops)
    out       CLI output text, or the library results as strings

With `"trace": true` in the spec, the public functions the op reaches are
wrapped in spans (name, start, end, parent, op id) kept in memory.  After
the op, every moment sum it ran is called a second time with the same
arguments (warm: the lru_cache'd tables are built by then), and the work
gates are read by calling once more with `budget=0`.  Before the clock
starts only the standard library is imported.
"""

import gc
import json
import math
import os
import resource
import sys
import time

SPEC = json.loads(sys.stdin.read())
if SPEC.get("cpu") is not None:
    os.sched_setaffinity(0, {SPEC["cpu"]})

t0 = time.perf_counter()
import graphstate  # noqa: E402
SETUP_S = time.perf_counter() - t0

from fractions import Fraction  # noqa: E402  (these two are loaded by graphstate)
import numpy  # noqa: E402
from graphstate import catalog, cli, combinatorics, moments, montecarlo  # noqa: E402

# Functions wrapped in traced runs, listed under the module whose namespace
# their callers look them up in.  Per-element helpers stay unwrapped so
# the wrappers cost little next to the work they time.
TRACE_POINTS = {
    cli: ("parse_graph", "cmd_analyze", "cmd_exact", "cmd_simulate", "cmd_verify",
          "moment_table", "classify", "exact_moment", "estimate", "build_network",
          "max_flow", "render"),
    moments: ("minimizer_set", "asymptotic_moment", "moment_table", "exact_moment",
              "exact_moment_gaussian", "wg_exact", "build_network", "max_flow",
              "enumerate_nc", "count_poset_tuples"),
    combinatorics: ("enumerate_nc",),
    montecarlo: ("assemble_state", "reduced_spectrum", "trial_rngs"),
}
# Moment sums repeated warm after the op, once per (name, p, N).
REPEATED = ("asymptotic_moment", "exact_moment", "exact_moment_gaussian")
UNTRACED = {name: getattr(moments, name) for name in REPEATED + ("minimizer_set",)}


class Tracer:
    """In-memory span recorder for one op."""

    def __init__(self, op_id):
        self.op_id = op_id
        self.phase = "cold"
        self.spans = []
        self.stack = []
        self.first_calls = {}   # (name, p, N) -> (wrapped function, args, kwargs)

    def install(self):
        # a name the package no longer has is skipped, so a refactor that
        # drops one loses that span instead of failing every traced op
        for module, names in TRACE_POINTS.items():
            for name in names:
                if hasattr(module, name):
                    setattr(module, name, self._wrap(getattr(module, name), name))

    def _wrap(self, fn, name):
        span_name = f"{fn.__module__.rsplit('.', 1)[-1]}.{name}"

        def traced(*args, **kwargs):
            span = {"name": span_name, "start": time.perf_counter(), "end": None,
                    "parent": self.stack[-1] if self.stack else None,
                    "op": self.op_id, "phase": self.phase}
            span.update(_call_attrs(name, args, kwargs))
            self.stack.append(len(self.spans))
            self.spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span["end"] = time.perf_counter()
                self.stack.pop()
            if self.phase == "cold" and name in REPEATED:
                key = (name, span["p"], span.get("N"))
                self.first_calls.setdefault(key, (traced, args, kwargs))
            if name == "assemble_state":
                span["amplitudes"] = result.total_dim
            elif name == "minimizer_set":
                span["minimizers"] = len(result)
            return result

        return traced

    def repeat_warm(self):
        self.phase = "warm"
        for fn, args, kwargs in list(self.first_calls.values()):
            fn(*args, **kwargs)


def _call_attrs(name, args, kwargs):
    """The order p, dimension N and matrix sides a span's metrics need."""
    attrs = {}
    if name in REPEATED or name == "minimizer_set":
        attrs["p"] = args[1] if len(args) > 1 else kwargs["p"]
        if name.startswith("exact"):
            attrs["N"] = args[2] if len(args) > 2 else kwargs["N"]
    elif name == "reduced_spectrum":
        state, traced = args[0], {int(t) for t in args[1]}
        kept = math.prod(d for i, d in enumerate(state.dims, start=1) if i not in traced)
        other = state.total_dim // kept
        attrs["side"] = min(kept, other)
        attrs["long_side"] = max(kept, other)
    return attrs


def gate_probes(first_calls):
    """Each gate's estimate (read with budget=0) next to the work that runs.

    Work is (p!)^k joint terms plus k (p!)^2 inner terms for the Weingarten
    sum, (p!)^k for the Wick sum, and Catalan(p)^(mixed blocks) tuples for
    the minimizer search.
    """
    out = []
    for (name, p, N), (_, args, _) in first_calls.items():
        marginal = args[0]
        fact = math.factorial(p)
        if name == "asymptotic_moment":
            gated, call = "minimizer_set", (marginal, p)
            mixed = sum(1 for view in marginal.blocks if view.kind == "mixed")
            work = combinatorics.catalan(p) ** mixed
        else:
            gated, call = name, (marginal, p, N)
            work = fact ** marginal.k
            if name == "exact_moment":
                work += marginal.k * fact ** 2
        try:
            UNTRACED[gated](*call, budget=0)
            estimated = 0
        except moments.BudgetExceededError as exc:
            estimated = exc.estimated
        out.append({"gate": gated, "p": p, "N": N, "estimated": estimated, "work": work})
    return out


def run_op(spec):
    """Time the op; returns (seconds, exit code, output)."""
    if spec["kind"] == "cli":
        start = time.perf_counter()
        code, text = cli.run(spec["argv"])
        return time.perf_counter() - start, code, text
    marginal = getattr(catalog, spec["graph"])(*spec["graph_args"])
    fn = getattr(moments, spec["fn"])
    start = time.perf_counter()
    values = [fn(marginal, p, spec["N"], budget=spec["budget"])
              for p in range(1, spec["pmax"] + 1)]
    return time.perf_counter() - start, 0, [str(v) for v in values]


def calibrate(kind):
    """Time a fixed loop of the kind of work the op does, about 30-40 ms.

    "python" is Fraction sums and dict updates; "numpy" is complex Gram
    products, Hermitian eigenvalues and Kronecker products, with the one
    BLAS thread every worker gets.  Neither calls the package, and the
    garbage collector is off while it runs, so the package cannot change
    its time: it measures how fast the machine runs this process just then.
    """
    gc.disable()
    start = time.perf_counter()
    if kind == "python":
        total = Fraction(0)
        table = {}
        for i in range(1, 12001):
            total += Fraction(i % 7 + 1, i % 97 + 1)
            key = (i % 101, i % 13)
            table[key] = table.get(key, 0) + 1
        sorted(table.items())
    else:
        rng = numpy.random.default_rng(0)
        a = rng.standard_normal((128, 128)) + 1j * rng.standard_normal((128, 128))
        v = rng.standard_normal(64) + 0j
        for _ in range(6):
            gram = a @ a.conj().T
            top = numpy.linalg.eigvalsh(gram)[-1]
            numpy.kron(numpy.kron(v, v), v[:32])
            a = a / numpy.sqrt(top)
    elapsed = time.perf_counter() - start
    gc.enable()
    return elapsed


def environment():
    import scipy
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__, "blas": f"{blas['name']} {blas['version']}"}


def main():
    record = {"op": SPEC["id"], "setup_s": SETUP_S, "graphstate_file": graphstate.__file__}
    tracer = None
    if SPEC["trace"]:
        tracer = Tracer(SPEC["id"])
        tracer.install()
    record["calib_s"] = calibrate(SPEC["calibration"])
    op_s, code, out = run_op(SPEC)
    record.update(op_s=op_s, code=code, out=out,
                  rss_kb=resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    if tracer is not None:
        tracer.repeat_warm()
        record["spans"] = tracer.spans
        record["gates"] = gate_probes(tracer.first_calls)
    if SPEC.get("env"):
        record["env"] = environment()
    json.dump(record, sys.stdout)


if __name__ == "__main__":
    main()
