"""Command-line surface: analyze / exact / simulate / dist / verify.

Graph files are JSON documents with `vertices` (list of id lists),
`bonds` (list of id pairs), optional `subsystems` (list of {id, d},
default d=1) and optional `trace` (list of ids, overridable with
--trace); ids, d and trace entries are JSON integers.  Reports are JSON
by default, CSV with --format csv.  Exit codes: 0 ok, 1 usage,
2 validation, 3 budget/resource.
"""

from __future__ import annotations

import argparse
import json
import locale  # noqa: F401  (argparse's gettext imports it on every parse)
import sys
from fractions import Fraction

import numpy as np

from .combinatorics import BudgetSettingError, EnumerationCapError
from .graphs import GraphSpec, GraphValidationError, MarginalSpec
from .flow import SINK, SOURCE
from .moments import (
    BudgetExceededError,
    _solved,
    classify_reports,
    exact_moment,
    moment_table,
)
from .montecarlo import ResourceCapError, estimate
from .spectra import fc_density, fc_entropy, fc_support, mp_density, mp_entropy

REPORT_SCHEMA = "graphstate-report/1"


class GraphFileError(ValueError):
    """Graph document failed to parse or validate; carries context."""


class UsageError(ValueError):
    pass


# ---------------------------------------------------------------------------
# graph files
# ---------------------------------------------------------------------------

def parse_graph(path: str, trace_override=None) -> MarginalSpec:
    """Load a graph document; returns the marginal it describes.

    The trace set comes from the file's `trace` field unless overridden.
    Errors carry the offending field (and line/column for syntax errors).
    """
    try:
        with open(path) as fh:
            text = fh.read()
    except OSError as exc:
        raise GraphFileError(f"{path}: {exc}") from exc
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise GraphFileError(f"{path}:{exc.lineno}:{exc.colno}: {exc.msg}") from exc
    return marginal_from_dict(doc, source=path, trace_override=trace_override)


def marginal_from_dict(doc: dict, source: str = "<graph>", trace_override=None) -> MarginalSpec:
    if not isinstance(doc, dict):
        raise GraphFileError(f"{source}: top level must be an object")
    for key in ("vertices", "bonds"):
        if key not in doc:
            raise GraphFileError(f"{source}: missing required field '{key}'")
    vertices = doc["vertices"]
    bonds = doc["bonds"]
    if not isinstance(vertices, list) or not all(_integers(b) for b in vertices):
        raise GraphFileError(f"{source}: field 'vertices' must be a list of integer id lists")
    if not isinstance(bonds, list) or not all(_integers(e) and len(e) == 2 for e in bonds):
        raise GraphFileError(f"{source}: field 'bonds' must be a list of integer id pairs")

    dims = None
    if "subsystems" in doc:
        entries = doc["subsystems"]
        if not isinstance(entries, list) or not all(
                isinstance(e, dict) and "id" in e and _integers([e["id"], e.get("d", 1)])
                for e in entries):
            raise GraphFileError(f"{source}: field 'subsystems' entries need an integer "
                                 f"'id' and, if given, an integer 'd'")
        dims = {e["id"]: e.get("d", 1) for e in entries}
    try:
        graph = GraphSpec(vertex_blocks=vertices, bonds=[tuple(e) for e in bonds], dims=dims)
    except GraphValidationError as exc:
        raise GraphFileError(f"{source}: {exc}") from exc

    trace = trace_override if trace_override is not None else doc.get("trace")
    if trace is None:
        raise GraphFileError(
            f"{source}: no trace set; add a 'trace' field or pass --trace")
    if not _integers(trace):
        raise GraphFileError(f"{source}: field 'trace' must be a list of integer ids")
    try:
        return graph.marginal(trace)
    except GraphValidationError as exc:
        raise GraphFileError(f"{source}: trace: {exc}") from exc


def _integers(value) -> bool:
    """True for a list of JSON integers (bool is not one)."""
    return isinstance(value, list) and all(
        isinstance(x, int) and not isinstance(x, bool) for x in value)


def graph_to_dict(marginal: MarginalSpec) -> dict:
    g = marginal.graph
    return {
        "subsystems": [{"id": i, "d": g.dim_of[i]} for i in range(1, g.n + 1)],
        "vertices": [list(b) for b in g.vertex_blocks],
        "bonds": [list(e) for e in g.bonds],
        "trace": sorted(marginal.traced),
    }


# ---------------------------------------------------------------------------
# report assembly
# ---------------------------------------------------------------------------

def _network_summary(marginal: MarginalSpec) -> dict:
    solved = _solved(marginal)
    net, result = solved.network, solved.flow
    name = {SOURCE: "source", SINK: "sink"}
    edges = [{"from": name.get(u, f"b{u + 1}" if isinstance(u, int) else u),
              "to": name.get(v, f"b{v + 1}" if isinstance(v, int) else v),
              "capacity": c}
             for (u, v), c in net.capacity]
    return {"edges": edges, "max_flow": result.value,
            "labels": {f"b{i + 1}": lab for i, lab in result.labels.items()}}


def cmd_analyze(marginal: MarginalSpec, p_max: int = 6) -> dict:
    """Flow, asymptotic moment table, law tag, and entropy/purity forecast."""
    reports = moment_table(marginal, p_max)
    dist = classify_reports(reports)
    x = -reports[1].exponent if p_max >= 2 else 0
    entropy = {"log_term": x, "constant": dist.entropy_constant()}
    purity = None
    if p_max >= 2:
        purity = {"coefficient": str(reports[1].coefficient), "exponent": reports[1].exponent}
    return {
        "schema": REPORT_SCHEMA,
        "command": "analyze",
        "graph": graph_to_dict(marginal),
        "marginal": marginal.describe(),
        "network": _network_summary(marginal),
        "max_flow": x,
        "moments": [{"p": r.p, "exponent": r.exponent, "coefficient": str(r.coefficient),
                     "minimizers": r.minimizer_count} for r in reports],
        "distribution": dist.to_json(),
        "distribution_text": dist.describe(),
        "predictions": {"entropy": entropy, "purity": purity},
    }


def cmd_exact(marginal: MarginalSpec, N: int, p_max: int = 3) -> dict:
    """Exact finite-N moment table (rationals, plus float renderings)."""
    # p_max first, so that a refused top order is refused before the lower orders run
    orders = list(range(1, p_max + 1))
    values = {p: exact_moment(marginal, p, N) for p in orders[-1:] + orders[:-1]}
    rows = [{"p": p, "value": str(values[p]), "float": float(values[p])} for p in orders]
    return {
        "schema": REPORT_SCHEMA,
        "command": "exact",
        "graph": graph_to_dict(marginal),
        "N": N,
        "moments": rows,
    }


def cmd_simulate(marginal: MarginalSpec, N: int, trials: int, seed: int,
                 mode: str = "haar", p_max: int = 3, threads: int = 1) -> dict:
    rep = estimate(marginal, N, trials, p_list=tuple(range(1, p_max + 1)),
                   seed=seed, mode=mode, threads=threads)
    return {
        "schema": REPORT_SCHEMA,
        "command": "simulate",
        "graph": graph_to_dict(marginal),
        "estimate": rep.to_json(),
    }


def cmd_verify(marginal: MarginalSpec, N: int, trials: int, seed: int,
               p_max: int = 3, threads: int = 1, ladder=None) -> dict:
    """Analytic vs Monte Carlo comparison with deviation flags.

    Each sampled moment is compared against the exact finite-N value,
    which exists at every N; only when the work budget refuses it is the
    reference the asymptotic leading term, with `reference_reason`
    "budget".  Deviations above 4 standard errors are flagged; a gap
    within the absolute floor reports a deviation of 0.  A leading-term
    row keeps its deviation but is not judged (`ok` null, left out of
    `all_ok`): its gap measures the term's finite-N error, not a sampling
    fault.  An optional
    N-ladder reports the rescaled drift toward the asymptotic coefficient.
    No entropy is sampled: its report entry is null, with the reason.
    """
    analysis = cmd_analyze(marginal, p_max=p_max)
    rep = estimate(marginal, N, trials, p_list=tuple(range(1, p_max + 1)),
                   seed=seed, threads=threads, entropy=False)
    x = analysis["max_flow"]

    checks = []
    all_ok = True
    for row in analysis["moments"]:
        p = row["p"]
        reason = None
        try:
            reference = float(exact_moment(marginal, p, N))
        except BudgetExceededError:
            reason = "budget"
            reference = float(Fraction(row["coefficient"])) * N ** row["exponent"]
        ref_kind = "exact" if reason is None else "asymptotic"
        mean = rep.moment_mean[p]
        err = rep.moment_stderr[p]
        gap = mean - reference
        # absolute floor so deterministic moments (p=1) don't trip on
        # floating-point noise masquerading as a tiny stderr
        floor = 1e-10 * max(1.0, abs(reference))
        tol = max(4.0 * err, floor)
        dev = gap / err if err > 0 and abs(gap) > floor else 0.0
        ok = abs(gap) <= tol if reason is None else None
        all_ok = all_ok and ok is not False
        checks.append({
            "p": p, "reference": reference, "reference_kind": ref_kind,
            "reference_reason": reason,
            "mc_mean": mean, "mc_stderr": err,
            "rescaled_mc": mean * N ** (x * (p - 1)),
            "asymptotic_coefficient": row["coefficient"],
            "deviation_stderr": dev, "ok": ok,
        })

    out = {
        "schema": REPORT_SCHEMA,
        "command": "verify",
        "graph": analysis["graph"],
        "max_flow": x,
        "distribution": analysis["distribution"],
        "predictions": analysis["predictions"],
        "estimate": rep.to_json(),
        "checks": checks,
        "all_ok": all_ok,
    }
    out["estimate"]["entropy"]["skipped"] = "verify checks moments only"
    if ladder:
        drift = []
        for n_i in ladder:
            r_i = estimate(marginal, n_i, trials, p_list=(2,), seed=seed, threads=threads,
                           entropy=False)
            drift.append({"N": n_i, "rescaled_m2": r_i.moment_mean[2] * n_i ** x,
                          "stderr": r_i.moment_stderr[2] * n_i ** x})
        out["drift_ladder"] = drift
    return out


def cmd_dist(family: str, c=None, s=None, grid: int = 256) -> dict:
    """Density grid for a limit law; CSV-friendly rows plus metadata."""
    if family == "mp":
        c = Fraction(c) if c is not None else Fraction(1)
        density = mp_density(c)
        if density.lo >= density.hi:
            raise UsageError(f"--c {float(c):g} leaves the free Poisson support "
                             f"[{density.lo:g}, {density.hi:g}] empty in floating point")
        meta = {"family": "mp", "c": str(c), "entropy": mp_entropy(c)}
    elif family == "fc":
        s = int(s) if s is not None else 2
        if s > 2:
            raise UsageError(f"--s {s} has no closed-form density; choose 1 or 2")
        density = fc_density(s)
        meta = {"family": "fc", "s": s, "support": str(fc_support(s)),
                "entropy": float(fc_entropy(s))}
    else:
        raise UsageError(f"unknown family {family!r}; choose mp or fc")
    lo = density.lo if density.lo > 0 else density.hi / grid * 1e-3
    xs = np.linspace(lo, density.hi, grid)
    rows = [{"x": float(x), "density": float(density(x))} for x in xs]
    meta.update({"schema": REPORT_SCHEMA, "command": "dist",
                 "atom_at_zero": density.atom,
                 "support": [density.lo, density.hi], "grid": rows})
    return meta


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def render(report: dict, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report, indent=2, sort_keys=True)
    if fmt != "csv":
        raise UsageError(f"unknown format {fmt!r}")
    return _render_csv(report)


def _render_csv(report: dict) -> str:
    command = report.get("command")
    lines = []
    if command == "analyze":
        lines.append("p,exponent,coefficient,minimizers")
        for row in report["moments"]:
            lines.append(f"{row['p']},{row['exponent']},{row['coefficient']},{row['minimizers']}")
    elif command == "exact":
        lines.append("p,value,float")
        for row in report["moments"]:
            lines.append(f"{row['p']},{row['value']},{row['float']!r}")
    elif command == "simulate":
        lines.append("p,mean,stderr")
        est = report["estimate"]
        for p, cell in sorted(est["moments"].items(), key=lambda kv: int(kv[0])):
            lines.append(f"{p},{cell['mean']!r},{cell['stderr']!r}")
    elif command == "verify":
        lines.append("p,reference,mc_mean,mc_stderr,deviation_stderr,ok")
        for row in report["checks"]:
            lines.append(f"{row['p']},{row['reference']!r},{row['mc_mean']!r},"
                         f"{row['mc_stderr']!r},{row['deviation_stderr']!r},{row['ok']}")
    elif command == "dist":
        lines.append("x,density")
        for row in report["grid"]:
            lines.append(f"{row['x']!r},{row['density']!r}")
    else:
        raise UsageError(f"no csv rendering for command {command!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# argument parsing and dispatch
# ---------------------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    class Help(Exception):
        """A help flag was given: the help text, which `run` returns."""

    def error(self, message):
        raise UsageError(message)

    def print_help(self, file=None):    # the help action would print it and exit
        raise self.Help(self.format_help())


def _rational(arg):
    """A --c value: an exact rational whose float is positive and finite."""
    try:
        if float(Fraction(arg)) > 0:
            return Fraction(arg)
    except (ValueError, ZeroDivisionError, OverflowError):
        pass
    raise argparse.ArgumentTypeError(f"must be a positive rational in float range, "
                                     f"such as 1/4; got {arg!r}")


def _int(flag, **kwargs):
    return flag, dict(type=int, **kwargs)


_N, _TRIALS, _SEED = _int("--N", required=True), _int("--trials", default=100), _int("--seed", default=0)
_PMAX, _THREADS = _int("--pmax", default=3), _int("--threads", default=1)

# Every command: its help line, whether it reads a graph file, and its own
# arguments in order.
_COMMANDS = {
    "analyze": ("flow, asymptotic moments, limit-law tag", True, [_int("--pmax", default=6)]),
    "exact": ("exact finite-N moments", True, [_N, _PMAX]),
    "simulate": ("Monte Carlo moment estimates", True, [
        _N, _TRIALS, _SEED, ("--mode", {"choices": ("haar", "ginibre"), "default": "haar"}),
        _PMAX, _THREADS]),
    "verify": ("analytic predictions against Monte Carlo", True, [
        _N, _TRIALS, _SEED, _PMAX, _THREADS,
        ("--ladder", {"help": "comma-separated N values for drift trend"})]),
    "dist": ("density grids for the limit laws", False, [
        ("family", {"choices": ("mp", "fc")}),
        ("--c", {"type": _rational, "help": "free Poisson parameter (mp)"}),
        _int("--s", help="Fuss-Catalan order (fc)"), _int("--grid", default=256)]),
}


def _build_parser(names) -> _Parser:
    """The top-level parser with a subparser for each command in `names`."""
    parser = _Parser(prog="graphstate",
                     description="Spectral statistics of random graph-state marginals.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        help_line, reads_graph, arguments = _COMMANDS[name]
        p = sub.add_parser(name, help=help_line)
        if reads_graph:
            p.add_argument("graph", help="path to a JSON graph document")
            p.add_argument("--trace", help="comma-separated subsystem ids to trace "
                                           "(overrides the file's trace set)")
        p.add_argument("--format", choices=("json", "csv"), default="json")
        for flag, kwargs in arguments:
            p.add_argument(flag, **kwargs)
    return parser


def _parse_ints(flag, arg):
    if arg is None:
        return None
    try:
        return [int(x) for x in arg.split(",") if x.strip()]
    except ValueError as exc:
        raise UsageError(f"--{flag} expects comma-separated integers: {exc}") from exc


def run(argv) -> tuple[int, str]:
    """Execute a command line; returns (exit code, output text)."""
    # a command line that starts with a command builds that command's
    # parser alone; any other (help, none, a wrong name) lists them all
    parser = _build_parser(argv[:1] if argv and argv[0] in _COMMANDS else _COMMANDS)
    try:
        args = parser.parse_args(argv)
        for flag in ("pmax", "N", "trials", "threads", "grid", "s"):
            value = getattr(args, flag, None)
            if value is not None and value < 1:
                raise UsageError(f"--{flag} must be >= 1, got {value}")
        if args.command == "verify" and args.trials < 2:
            raise UsageError(f"--trials must be >= 2 for verify, got {args.trials}")
        if args.command == "dist":
            report = cmd_dist(args.family, c=args.c, s=args.s, grid=args.grid)
        else:
            ladder = _parse_ints("ladder", getattr(args, "ladder", None))
            if ladder and min(ladder) < 1:
                raise UsageError(f"--ladder values must be >= 1, got {min(ladder)}")
            marginal = parse_graph(args.graph, trace_override=_parse_ints("trace", args.trace))
            if args.command == "analyze":
                report = cmd_analyze(marginal, p_max=args.pmax)
            elif args.command == "exact":
                report = cmd_exact(marginal, args.N, p_max=args.pmax)
            elif args.command == "simulate":
                report = cmd_simulate(marginal, args.N, args.trials, args.seed,
                                      mode=args.mode, p_max=args.pmax,
                                      threads=args.threads)
            else:
                report = cmd_verify(marginal, args.N, args.trials, args.seed,
                                    p_max=args.pmax, threads=args.threads,
                                    ladder=ladder)
        return 0, render(report, args.format)
    except _Parser.Help as exc:
        return 0, exc.args[0]
    except (UsageError, BudgetSettingError) as exc:
        return 1, f"usage error: {exc}\n"
    except (BudgetExceededError, ResourceCapError, EnumerationCapError) as exc:
        return 3, f"budget error: {exc}\n"
    except (GraphFileError, GraphValidationError, ValueError) as exc:
        return 2, f"validation error: {exc}\n"


def main(argv=None) -> int:
    code, text = run(sys.argv[1:] if argv is None else argv)
    stream = sys.stdout if code == 0 else sys.stderr
    stream.write(text)
    return code


if __name__ == "__main__":
    sys.exit(main())
