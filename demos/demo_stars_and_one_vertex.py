"""Star graphs and single-surviving-vertex marginals.

Stars interpolate between exactly flat reduced states, sharp projector
limits, and the square-case free Poisson law, with closed forms for the
average entropy and purity in every regime.  When all surviving
subsystems sit inside one vertex the same trichotomy is controlled by
the kept/traced balance of that vertex alone.
"""

import math
from fractions import Fraction

from graphstate import (
    DistributionId,
    GraphSpec,
    classify,
    estimate,
    exact_moment,
    marginal_max_flow,
    moment_table,
    star_graph,
)


def one_vertex_law(kept, traced, external, d_kept, d_traced, d_external):
    """The paper's trichotomy for a vertex with kept and traced subsystems
    and external bonds to fully traced vertices: flat on the smaller side,
    free Poisson at balance."""
    env = traced + external
    if kept == env:
        return DistributionId(kind="free_poisson", c=Fraction(d_traced * d_external, d_kept))
    rank, coeff = (kept, d_kept) if kept < env else (env, d_traced * d_external)
    return DistributionId(kind="maximally_mixed", rank_coeff=Fraction(coeff), rank_exponent=rank)


print("=== the (s,t) phase diagram of the 2-star ===")
for s in range(3):
    for t in range(3):
        if s == 0 and t == 0:
            continue
        marginal = star_graph(2, s, t)
        purity = moment_table(marginal, 2)[1]
        # the paper: with an empty side rho is maximally mixed at every N
        exact = ", exactly flat at every N" if s == 0 or t == 0 else ""
        print(f"  (s={s}, t={t}): {classify(marginal, 4).describe():45s} "
              f"purity ~ {purity.coefficient}*N^{purity.exponent}{exact}")
print()

print("=== balanced case (1,1): free Poisson, verified three ways ===")
marginal = star_graph(2, 1, 1)
print("  prediction: purity 2*N^-2, entropy 2 ln N - 1/2")
print("  engine:", [(r.p, str(r.coefficient)) for r in moment_table(marginal, 4)],
      "->", classify(marginal, 4).describe())
rep = estimate(marginal, 16, 200, p_list=(1, 2), seed=11)
print(f"  sampled purity at N=16: {rep.purity_mean:.5e} "
      f"(exact {float(exact_moment(marginal, 2, 16)):.5e}, "
      f"asymptotic {2 / 256:.5e})")
print(f"  sampled entropy: {rep.entropy_mean:.4f} "
      f"(prediction {2 * math.log(16) - 0.5:.4f})")
print()

print("=== one-vertex marginals: the kept/traced trichotomy ===")
cases = [
    (1, 2, 1, 1, 1, 1),   # kept < traced + external: flat on the kept space
    (2, 1, 1, 1, 1, 1),   # balanced: free Poisson, c = 1
    (3, 1, 0, 1, 1, 1),   # kept side too large: flat on the complement rank
    (3, 2, 1, 1, 2, 2),   # balanced with weights: free Poisson, c = 4
]
for kept, tb, ext, dk, dt, de in cases:
    law = one_vertex_law(kept, tb, ext, dk, dt, de)
    print(f"  kept={kept} traced={tb} external={ext} "
          f"dims=({dk},{dt},{de}): {law.describe()}")
# the last case as a graph: loops (1 2) and (3 4), and a bond 5-6 of dimension
# factor 2 to a traced satellite; 1 and 5 are traced, 2, 3 and 4 kept
weighted = GraphSpec(vertex_blocks=[[1, 2, 3, 4, 5], [6]], bonds=[(1, 2), (3, 4), (5, 6)],
                     dims={1: 1, 2: 1, 3: 1, 4: 1, 5: 2, 6: 2}).marginal({1, 5, 6})
law = classify(weighted, 4)
print(f"  engine on the last case: {law.describe()}")
assert law.c == one_vertex_law(*cases[-1]).c == Fraction(4)
print()
print("flow values for the star family:",
      {(s, t): marginal_max_flow(star_graph(2, s, t))
       for s in (0, 1, 2) for t in (1, 2)})
