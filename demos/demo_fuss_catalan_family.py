"""The Fuss-Catalan family: chain templates, counts, and matrix products.

A chain of s vertices (loops on the ends) has a marginal whose rescaled
spectrum follows the order-s Fuss-Catalan law: max flow s+1, moment
coefficients counting s-chains in the non-crossing partition lattice.
The same law governs squared singular values of a product of s square
Gaussian matrices, which gives an independent sampling route.
"""

import math

import numpy as np

from graphstate import (
    ConstraintPoset,
    classify,
    count_poset_tuples,
    fc2_density,
    fc_entropy,
    fc_support,
    fc_template,
    fuss_catalan,
    marginal_max_flow,
    minimizer_set,
)
from graphstate.montecarlo import standard_complex_gaussian, trial_rngs

print("=== templates and flows ===")
for s in range(1, 5):
    marginal = fc_template(s)
    print(f"  s={s}: n={marginal.graph.n} subsystems, "
          f"max flow {marginal_max_flow(marginal)} (= s+1), "
          f"law: {classify(marginal, 4).describe()}")
print()

print("=== moments three ways (order s=2) ===")
print("  p      binomial   lattice-chains   minimizer-tuples")
for p in range(1, 6):
    binom = fuss_catalan(2, p)
    chains = count_poset_tuples(ConstraintPoset(k=2, relations=[(0, 1)]), p)
    tuples = len(minimizer_set(fc_template(2), p))
    print(f"  {p}    {binom:8d}   {chains:14d}   {tuples:16d}")
print()

print("=== sampled product-Wishart spectra vs the law ===")
# W = G G* with G a product of s square Ginibre factors, each over sqrt(N):
# (1/N) tr W^p tends to the order-s Fuss-Catalan moments
N = 256
for s in (1, 2):
    rows, largest = [], 0.0
    for rng in trial_rngs(7, 40):
        g = np.eye(N, dtype=complex)
        for _ in range(s):
            g = g @ (standard_complex_gaussian(rng, N, N) / math.sqrt(N))
        lam = np.linalg.eigvalsh(g @ g.conj().T)
        largest = max(largest, float(lam[-1]))
        rows.append([float(np.mean(lam ** p)) for p in (1, 2, 3, 4)])
    targets = [fuss_catalan(s, p) for p in (1, 2, 3, 4)]
    sampled = [round(float(np.mean(column)), 3) for column in np.array(rows).T]
    print(f"  s={s}: sampled {sampled} vs exact {targets}")
    print(f"       largest eigenvalue {largest:.3f}, "
          f"support edge {float(fc_support(s)):.3f}")
print()

print("=== the closed-form order-2 density ===")
density = fc2_density()
print(f"  support (0, {density.hi:.4f}], mass {density.total_mass():.8f}")
print(f"  second moment by quadrature: {density.moment(2):.6f} (exact 3)")
print(f"  entropy by quadrature: {density.entropy():.6f} "
      f"(exact {float(fc_entropy(2)):.6f} = -5/6)")
print()
print("entropy ladder: ", {s: str(fc_entropy(s)) for s in range(1, 6)})
