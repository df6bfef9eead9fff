"""Brute-force oracles and reference helpers that only the tests call.

They check the library from outside: the refinement order, meets and
joins of set partitions, the Kreweras complement and the geodesic test
on NC(p); the label, pair and Weingarten tables from `Perm` products,
one pair at a time; the cost functional f_beta; the labeling sum with
one Python lookup per entry; the law round trip;
partition joins of the coupling structure; max-flow duality and axioms;
Hankel windows; and the full reduced density matrix.  None of them is used by
`graphstate` itself.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from graphstate.combinatorics import (
    NCPartition,
    Perm,
    all_perms,
    count_poset_tuples,
    enumerate_nc,
    fuss_catalan,
    mobius,
    mp_moment,
    nc_to_geodesic,
)
from graphstate.flow import FlowNetwork, MaxFlowResult, marginal_max_flow
from graphstate.graphs import MarginalSpec
from graphstate.moments import DistributionId
from graphstate.montecarlo import MAX_DENSITY_DIM, ResourceCapError, StateVector, _split_matrix
from graphstate.weingarten import wg_exact


# ---------------------------------------------------------------------------
# set partitions and NC(p)
# ---------------------------------------------------------------------------

def is_noncrossing(part: NCPartition) -> bool:
    """True iff no blocks X, Y interleave as a < b < c < d (a,c in X; b,d in Y).

    Two blocks cross exactly when the X/Y labels along their sorted
    union alternate at least three times (pattern XYXY or YXYX).
    """
    for bx, by in itertools.combinations(part.blocks, 2):
        merged = sorted([(v, 0) for v in bx] + [(v, 1) for v in by])
        changes = sum(1 for (_, s), (_, t) in zip(merged, merged[1:]) if s != t)
        if changes >= 3:
            return False
    return True


def cycle_partition(sigma: Perm) -> NCPartition:
    """[sigma]: the set partition of {0..p-1} into orbits."""
    return NCPartition(sigma.cycles(), check=False)


def leq(a: NCPartition, b: NCPartition) -> bool:
    """Refinement order: every block of `a` lies inside a block of `b`."""
    if a.p != b.p:
        raise ValueError(f"order sizes differ: {a.p} vs {b.p}")
    owner = {}
    for idx, blk in enumerate(b.blocks):
        for x in blk:
            owner[x] = idx
    return all(len({owner[x] for x in blk}) == 1 for blk in a.blocks)


def meet(a: NCPartition, b: NCPartition) -> NCPartition:
    """Greatest lower bound: blockwise intersections (common refinement).

    The meet of two non-crossing partitions is itself non-crossing, so
    this is the meet in both the full partition lattice and in NC(p).
    """
    if a.p != b.p:
        raise ValueError(f"order sizes differ: {a.p} vs {b.p}")
    out = []
    for x in a.blocks:
        for y in b.blocks:
            common = tuple(sorted(set(x) & set(y)))
            if common:
                out.append(common)
    return NCPartition(out, check=False)


def join(a: NCPartition, b: NCPartition) -> NCPartition:
    """Least upper bound in the full partition lattice (union-find glue).

    For non-crossing inputs the result may cross; the join inside NC(p)
    is then strictly coarser, so downstream code never assumes the two
    lattices share suprema.
    """
    if a.p != b.p:
        raise ValueError(f"order sizes differ: {a.p} vs {b.p}")
    parent = list(range(a.p))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for part in (a, b):
        for blk in part.blocks:
            root = find(blk[0])
            for x in blk[1:]:
                parent[find(x)] = root
    groups = {}
    for x in range(a.p):
        groups.setdefault(find(x), []).append(x)
    return NCPartition(groups.values(), check=False)


def nc_join(a: NCPartition, b: NCPartition) -> NCPartition:
    """Least upper bound within NC(p): the finest non-crossing coarsening."""
    best = None
    for q in enumerate_nc(a.p):
        if leq(a, q) and leq(b, q):
            if best is None or leq(q, best):
                best = q
    return best


def enumerate_all_partitions(p: int):
    """Every set partition of {0..p-1} (Bell(p) of them); brute-force oracle."""
    def rec(i, blocks):
        if i == p:
            yield [tuple(b) for b in blocks]
            return
        for b in blocks:
            b.append(i)
            yield from rec(i + 1, blocks)
            b.pop()
        blocks.append([i])
        yield from rec(i + 1, blocks)
        blocks.pop()

    return [NCPartition(bs, check=False) for bs in rec(0, [])]


def is_geodesic(sigma: Perm) -> bool:
    gamma = Perm.full_cycle(sigma.p)
    return (gamma * sigma.inverse()).length + sigma.length == sigma.p - 1


def kreweras(part: NCPartition) -> NCPartition:
    """Kreweras complement: [sigma^-1 gamma] for the geodesic sigma of `part`.

    Order-reversing; block counts satisfy |pi| + |K(pi)| = p + 1.
    """
    sigma = nc_to_geodesic(part)
    gamma = Perm.full_cycle(part.p)
    return cycle_partition(sigma.inverse() * gamma)


def mobius_inversion_defect(beta: Perm) -> int:
    """Sum of Mob(alpha^-1 beta) over geodesic alpha with [alpha] <= [beta].

    Equals 1 when beta = id and 0 for any other geodesic beta; this is the
    convolution identity that collapses fully-traced vertices to id.
    """
    p = beta.p
    target = cycle_partition(beta)
    total = 0
    for part in enumerate_nc(p):
        if leq(part, target):
            alpha = nc_to_geodesic(part)
            total += mobius(alpha.inverse() * beta)
    return total


# ---------------------------------------------------------------------------
# label, pair and Weingarten tables from Perm products
# ---------------------------------------------------------------------------

def perm_labels(p: int, nc: bool):
    """The labels of `_label_table(p, nc)` as Perm objects, in its order."""
    return tuple(map(nc_to_geodesic, enumerate_nc(p))) if nc else all_perms(p)


def perm_pair_table(p: int, nc: bool):
    """`_pair_table(p, nc)` from one Perm product a^-1 b per label pair."""
    perms = perm_labels(p, nc)
    inverses = [a.inverse() for a in perms]
    if nc:
        return [[(a * b).num_cycles for b in perms] for a in inverses], None, None
    types = sorted({sig.cycle_type() for sig in perms})
    index = {t: c for c, t in enumerate(types)}
    classes = [[index[(a * b).cycle_type()] for b in perms] for a in inverses]
    return [[len(types[c]) for c in row] for row in classes], classes, types


def perm_weingarten_column(p: int, dim: int, weights):
    """h[b] = sum_a weights[a] Wg(a^-1 b, dim) over S_p in Fractions, pair by pair."""
    perms = all_perms(p)
    inverses = [a.inverse() for a in perms]
    table = wg_exact(p, dim)
    return [sum((Fraction(w) * table(a * b) for w, a in zip(weights, inverses)), Fraction(0))
            for b in perms]


# ---------------------------------------------------------------------------
# moments and laws
# ---------------------------------------------------------------------------

def f_beta(marginal: MarginalSpec, betas, p: int) -> int:
    """Cost of a full tuple of permutations, one per vertex block.

    sum_i |kept_i| |gamma^-1 b_i| + |traced_i| |b_i|
    + sum_{i<j} (bonds between i,j) * |b_i^-1 b_j|.
    """
    betas = list(betas)
    if len(betas) != marginal.k:
        raise ValueError(f"need {marginal.k} permutations, got {len(betas)}")
    gamma = Perm.full_cycle(p)
    total = 0
    for i, view in enumerate(marginal.blocks):
        b = betas[i]
        total += len(view.kept) * (gamma * b.inverse()).length
        total += len(view.traced) * b.length
    for (i, j), bonds in marginal.cross_bonds.items():
        total += len(bonds) * (betas[i].inverse() * betas[j]).length
    return total


def law_moments(dist: DistributionId, p_max: int):
    """Raw coefficient sequence a tagged law implies, for round-trip checks.

    Inverts what `classify` matched: flat spectra give geometric
    sequences in the support scale, a free Poisson tag reproduces its
    weighted lattice sums, and the counting families return their counts.
    Raises ValueError for the unknown tag.
    """
    ps = range(1, p_max + 1)
    if dist.kind == "dirac":
        return [Fraction(1) for _ in ps]
    if dist.kind == "maximally_mixed":
        return [Fraction(dist.rank_coeff) ** (1 - p) for p in ps]
    if dist.kind == "free_poisson":
        scale = Fraction(dist.rank_coeff if dist.rank_coeff is not None else 1)
        c = Fraction(dist.c)
        return [scale ** (1 - p) * c ** -p * mp_moment(c, p) for p in ps]
    if dist.kind == "fuss_catalan":
        return [Fraction(fuss_catalan(dist.s, p)) for p in ps]
    if dist.kind == "classical_product":
        seqs = [law_moments(f, p_max) for f in dist.factors]
        return [math.prod(col) for col in zip(*seqs)]
    if dist.kind == "poset_law":
        return [Fraction(count_poset_tuples(dist.poset, p)) for p in ps]
    raise ValueError(f"no moment rule for tag {dist.kind!r}")


def lookup_contract(factors, order, labels):
    """The labeling sum by bucket elimination, one Python call per entry.

    Every block ranges over `labels`.  A factor is (scope, lookup);
    lookup(labels of the scope's blocks) is an entry (cost, weight,
    count).  Products add costs and multiply the rest; sums keep the
    least cost and add the rest at it.  The reference for the array
    messages of `moments._contract`.
    """
    for v in order:
        bucket = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        factors.append(_lookup_eliminate(v, bucket, labels))
    total = (0, 1, 1)
    for _, lookup in factors:
        total = _times(total, lookup(()))
    return total


def _lookup_eliminate(v, group, labels):
    """Sum block v out of the product of `group`: a factor on the other blocks."""
    nbrs = tuple(sorted({b for scope, _ in group for b in scope} - {v}))
    message = {}
    for key in itertools.product(labels, repeat=len(nbrs)):
        fixed = dict(zip(nbrs, key))
        best, weight, count = None, 0, 0
        for x in labels:
            fixed[v] = x
            entry = (0, 1, 1)
            for scope, lookup in group:
                entry = _times(entry, lookup(tuple(fixed[b] for b in scope)))
            cost, w, c = entry
            if best is None or cost < best:
                best, weight, count = cost, w, c
            elif cost == best:
                weight += w
                count += c
        message[key] = (best, weight, count)
    return nbrs, message.__getitem__


def _times(a, b):
    return a[0] + b[0], a[1] * b[1], a[2] * b[2]


def hankel_matrix(moments, size: int):
    """Hankel matrix H[i][j] = m_(i+j) with m_0 = 1; PSD for true moments."""
    ms = [Fraction(1)] + [Fraction(m) for m in moments]
    if size > (len(ms) + 1) // 2:
        raise ValueError("not enough moments for requested window")
    return np.array([[float(ms[i + j]) for j in range(size)] for i in range(size)])


# ---------------------------------------------------------------------------
# graphs and flows
# ---------------------------------------------------------------------------

def entangle_partition(marginal: MarginalSpec):
    """Coupling partition of the subsystems after the partial trace.

    Blocks whose subsystems are all traced out stop correlating anything
    and are split into singletons; every other block survives unchanged.
    Joining the result with the bond matching and restricting to the kept
    set gives the block structure of the reduced state.
    """
    out = []
    for view in marginal.blocks:
        if view.kind == "T":
            out.extend((x,) for x in view.members)
        else:
            out.append(view.members)
    return tuple(sorted(out, key=lambda b: b[0]))


def partition_join(parts_a, parts_b, universe):
    """Least common coarsening of two partitions of `universe` (union-find)."""
    parent = {x: x for x in universe}

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    def union(a, b):
        ra, rb = find(a), find(b)
        if ra != rb:
            parent[ra] = rb

    for part in (parts_a, parts_b):
        for block in part:
            block = tuple(block)
            for x in block[1:]:
                union(block[0], x)
    groups = {}
    for x in universe:
        groups.setdefault(find(x), []).append(x)
    return tuple(sorted((tuple(sorted(g)) for g in groups.values()), key=lambda b: b[0]))


def restrict_partition(parts, keep):
    """Drop elements outside `keep`; empty blocks vanish."""
    keep = set(keep)
    out = [tuple(x for x in b if x in keep) for b in parts]
    return tuple(sorted((b for b in out if b), key=lambda b: b[0]))


def duality_check(marginal: MarginalSpec) -> bool:
    """True iff exchanging kept and traced subsystems preserves the max flow."""
    return marginal_max_flow(marginal) == marginal_max_flow(marginal.swap())


def check_flow_axioms(net: FlowNetwork, result: MaxFlowResult):
    """Violations of capacity, skew symmetry, or conservation; [] if clean."""
    cap = net.cap_map()
    errors = []
    for (u, v), f in result.flow.items():
        if f > cap.get((u, v), 0):
            errors.append(f"capacity violated on {(u, v)}: {f} > {cap.get((u, v), 0)}")
        if result.flow.get((v, u), 0) != -f:
            errors.append(f"skew symmetry violated on {(u, v)}")
    for u in range(net.k):
        net_out = sum(f for (a, _), f in result.flow.items() if a == u)
        if net_out != 0:
            errors.append(f"conservation violated at node {u}: net {net_out}")
    return errors


# ---------------------------------------------------------------------------
# Monte Carlo
# ---------------------------------------------------------------------------

@dataclass
class DensityMatrixSample:
    """Reduced density matrix on the kept subsystems."""

    matrix: np.ndarray
    kept: tuple

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)[::-1]


def partial_trace(state: StateVector, traced) -> DensityMatrixSample:
    """Trace out the listed subsystems; returns the matrix on the rest."""
    n = len(state.dims)
    traced = sorted(set(int(x) for x in traced))
    if any(t < 1 or t > n for t in traced):
        raise ValueError(f"traced ids outside 1..{n}: {traced}")
    kept = [i for i in range(1, n + 1) if i not in traced]
    mat = _split_matrix(state, kept)
    dim_s = mat.shape[0]
    if dim_s > MAX_DENSITY_DIM:
        raise ResourceCapError(f"density matrix dim {dim_s} over cap {MAX_DENSITY_DIM}")
    rho = mat @ mat.conj().T
    return DensityMatrixSample(matrix=rho, kept=tuple(kept))
