"""Cycle marginals: reading the limit law off the trace pattern.

Around a cycle, each vertex loses zero, one, or both of its subsystems
('S', 'R', 'T').  The arcs running from a fully traced vertex through
single-loss vertices to a fully kept one each contribute an independent
Fuss-Catalan factor; the flow is the single-loss count plus the arc
count.  Classical products of the family arise this way, and the exotic
hub-and-leaves graph escapes the family entirely.
"""

import math

from graphstate import (
    DistributionId,
    classify,
    count_poset_tuples,
    cycle_graph,
    cycle_marginal,
    estimate,
    exact_moment,
    exotic_graph,
    exotic_poset,
    marginal_max_flow,
    minimizer_set,
    moment_table,
)

print("=== a tour of trace patterns ===")
for types in ("TS", "TRS", "TSRR", "TRRS", "TRSRT", "TTSS", "RRRR"):
    report = cycle_marginal(types)
    engine_x = marginal_max_flow(cycle_graph(types))
    print(f"  {types:6s}: X={report.flow} (engine {engine_x}), "
          f"law: {report.law.describe()}")
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
    report = cycle_marginal(types)
    n = 64
    print(f"  {types}: E H ~ {report.flow} ln N + ({report.entropy_constant:.4f})"
          f" = {report.entropy(n):.3f} at N={n}")
print()

print("=== products vs a genuinely new law ===")
mp = DistributionId(kind="free_poisson", c=1)
two_mp = DistributionId(kind="classical_product", factors=(mp, mp))
print("  MP x MP moments (disjoint chains):", [str(two_mp.moment(p)) for p in range(1, 5)])
exotic = exotic_graph()
print("  exotic hub-and-leaves: X =", marginal_max_flow(exotic))
print("  engine coefficients:", [str(r.coefficient) for r in moment_table(exotic, 4)])
exotic_law = DistributionId(kind="poset_law", poset=exotic_poset())
print("  label-poset counts:  ", [str(exotic_law.moment(p)) for p in range(1, 5)])
print("  classify:", classify(exotic, 4).describe())
print("  (free x classical mix: not a plain product, "
      "p=3 gives 38 rather than MP x MP's 25 or FC(4)'s 35)")
assert count_poset_tuples(exotic_poset(), 3) == len(minimizer_set(exotic, 3)) == 38
