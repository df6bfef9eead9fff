"""Cycle marginals: reading the limit law off the trace pattern.

Around a cycle, each vertex loses zero, one, or both of its subsystems
('S', 'R', 'T').  The arcs running from a fully traced vertex through
single-loss vertices to a fully kept one each contribute an independent
Fuss-Catalan factor; the flow is the single-loss count plus the arc
count.  Classical products of the family arise this way, and the exotic
hub-and-leaves graph escapes the family entirely.
"""

import math
import re

from graphstate import (
    ConstraintPoset,
    DistributionId,
    classify,
    count_poset_tuples,
    cycle_graph,
    estimate,
    exact_moment,
    exotic_graph,
    marginal_max_flow,
    minimizer_set,
    moment_table,
)


def arc_lengths(types):
    """Interior lengths of the arcs that join a T and an S vertex through R vertices alone."""
    ring = types * 2
    return [len(m[2]) for m in re.finditer(r"(?=([TS])(R*)([TS]))", ring)
            if m.start() < len(types) and m[1] != m[3]]


print("=== a tour of trace patterns ===")
for types in ("TS", "TRS", "TSRR", "TRRS", "TRSRT", "TTSS", "RRRR"):
    # the paper's closed form: X counts the R vertices and the arcs
    x = types.count("R") + len(arc_lengths(types))
    marginal = cycle_graph(types)
    print(f"  {types:6s}: X={x} (engine {marginal_max_flow(marginal)}), "
          f"law: {classify(marginal, 4).describe()}")
print()

print("=== the TSRR 4-cycle in detail ===")
marginal = cycle_graph("TSRR")
for report in moment_table(marginal, 4):
    print(f"  p={report.p}: coefficient {report.coefficient} "
          f"(2-chains in NC(p)), exponent {report.exponent}")
print("  classify:", classify(marginal, 4).describe())
rep = estimate(marginal, 5, 100, p_list=(1, 2), seed=17)
print(f"  Monte Carlo N=5: N^4 tr rho^2 = {5 ** 4 * rep.moment_mean[2]:.4f} "
      f"(exact finite-N {float(5 ** 4 * exact_moment(marginal, 2, 5)):.4f}, limit 3)")
print()

print("=== entropy forecast: X ln N minus harmonic arc sums ===")
for types in ("TSRR", "TRSRT"):
    marginal = cycle_graph(types)
    x, constant = marginal_max_flow(marginal), classify(marginal, 4).entropy_constant()
    n = 64
    print(f"  {types}: E H ~ {x} ln N + ({constant:.4f})"
          f" = {x * math.log(n) + constant:.3f} at N={n}")
print()

print("=== products vs a genuinely new law ===")
mp = DistributionId(kind="free_poisson", c=1)
two_mp = DistributionId(kind="classical_product", factors=(mp, mp))
print("  MP x MP moments (disjoint chains):", [str(two_mp.moment(p)) for p in range(1, 5)])
exotic = exotic_graph()
print("  exotic hub-and-leaves: X =", marginal_max_flow(exotic))
print("  engine coefficients:", [str(r.coefficient) for r in moment_table(exotic, 4)])
exotic_poset = ConstraintPoset(k=3, relations=[(0, 1), (0, 2)])     # hub <= each leaf
exotic_law = DistributionId(kind="poset_law", poset=exotic_poset)
print("  label-poset counts:  ", [str(exotic_law.moment(p)) for p in range(1, 5)])
print("  classify:", classify(exotic, 4).describe())
print("  (free x classical mix: not a plain product, "
      "p=3 gives 38 rather than MP x MP's 25 or FC(4)'s 35)")
assert count_poset_tuples(exotic_poset, 3) == len(minimizer_set(exotic, 3)) == 38
