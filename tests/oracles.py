"""Brute-force oracles, closed forms and reference helpers that only the tests call.

They check the library from outside: permutations and set partitions as
objects (`Perm`, `NCPartition`, S_p and NC(p) enumerated, the Moebius
function), the refinement order, meets and joins of set partitions, the
Kreweras complement, the geodesic of a partition and the geodesic test
on NC(p); the NC(p) order from the pair table, and a frontier count of
poset labelings; the label, pair and Weingarten tables from `Perm`
products, one pair at a time, the Weingarten convolution identity and
the Moebius asymptotics of Wg; the cost functional f_beta; the
asymptotic labeling sum over blocks with N formal, and the labeling sum
with one Python lookup per entry; the law round trip; the paper's closed
forms for one-vertex, star and cycle marginals; partition joins of the
coupling structure; max-flow duality and axioms; Hankel windows; a
graph's copy at other dimension factors, its kept/traced swap, and a
graph for any poset; the full reduced density matrix, and its spectrum
from the dense amplitudes; product-Wishart spectra; and the shapes of a
sampled state's network with the greedy chain search that ordered its
reduction before tree plans.  None of them is used by `graphstate`
itself.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from graphstate.combinatorics import (
    ConstraintPoset,
    _contract,
    _label_table,
    _pair_arrays,
    _plan,
    catalan,
    count_poset_tuples,
    fuss_catalan,
    mp_moment,
)
from graphstate.flow import FlowNetwork, MaxFlowResult
from graphstate.graphs import GraphSpec, MarginalSpec
from graphstate.moments import DistributionId, _fc_law, marginal_max_flow
from graphstate.montecarlo import (
    MAX_DENSITY_DIM,
    ResourceCapError,
    StateVector,
    _bond_legs,
    _mirror,
    haar_fold,
    standard_complex_gaussian,
    trial_rngs,
)
from graphstate.weingarten import _character, _content_product, _partitions, wg_exact


# ---------------------------------------------------------------------------
# permutations and set partitions as objects
# ---------------------------------------------------------------------------

class Perm:
    """A permutation of {0..p-1} in one-line notation: `image[i]` is the image of i."""

    def __init__(self, image):
        self.image = tuple(image)
        if sorted(self.image) != list(range(len(self.image))):
            raise ValueError(f"not a permutation of 0..{len(self.image) - 1}: {self.image}")

    @classmethod
    def identity(cls, p: int) -> "Perm":
        return cls(range(p))

    @classmethod
    def full_cycle(cls, p: int) -> "Perm":
        """The long cycle gamma = (1 2 ... p), i -> i + 1 mod p."""
        return cls((i + 1) % p for i in range(p))

    @classmethod
    def from_cycles(cls, p: int, cycles) -> "Perm":
        image = list(range(p))
        for cyc in cycles:
            for a, b in zip(cyc, cyc[1:] + cyc[:1]):
                image[a] = b
        return cls(image)

    @property
    def p(self) -> int:
        return len(self.image)

    def __call__(self, i: int) -> int:
        return self.image[i]

    def __eq__(self, other):
        return isinstance(other, Perm) and self.image == other.image

    def __hash__(self):
        return hash(self.image)

    def __repr__(self):
        return f"Perm{self.image}"

    def __mul__(self, other: "Perm") -> "Perm":
        """Composition (self * other)(i) = self(other(i))."""
        return Perm(self.image[j] for j in other.image)

    def inverse(self) -> "Perm":
        inv = [0] * self.p
        for i, j in enumerate(self.image):
            inv[j] = i
        return Perm(inv)

    def cycles(self):
        """Disjoint cycles, each starting at its minimum, sorted by minimum."""
        seen, out = [False] * self.p, []
        for start in range(self.p):
            cyc, i = [], start
            while not seen[i]:
                seen[i] = True
                cyc.append(i)
                i = self.image[i]
            if cyc:
                out.append(tuple(cyc))
        return out

    @property
    def num_cycles(self) -> int:
        """#sigma, the number of disjoint cycles (fixed points included)."""
        return len(self.cycles())

    @property
    def length(self) -> int:
        """|sigma| = p - #sigma, the least number of transpositions."""
        return self.p - self.num_cycles

    def cycle_type(self):
        """Cycle lengths sorted descending: the conjugacy class, which indexes a Weingarten table."""
        return tuple(sorted(map(len, self.cycles()), reverse=True))


@functools.lru_cache(maxsize=None)
def all_perms(p: int):
    """S_p as Perm objects, in the order of `_label_table(p, False)`."""
    return tuple(map(Perm, itertools.permutations(range(p))))


class NCPartition:
    """A set partition of {0..p-1}, normally a non-crossing one.

    Blocks are stored sorted and ordered by their minima, so two equal
    partitions compare and hash equal.
    """

    def __init__(self, blocks):
        self.blocks = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        self.p = sum(map(len, self.blocks))
        if sorted(itertools.chain.from_iterable(self.blocks)) != list(range(self.p)):
            raise ValueError(f"blocks do not partition 0..{self.p - 1}: {blocks}")

    @classmethod
    def zero(cls, p: int) -> "NCPartition":
        """The discrete partition 0-hat: all singletons."""
        return cls((i,) for i in range(p))

    @classmethod
    def one(cls, p: int) -> "NCPartition":
        """The full partition 1-hat: a single block."""
        return cls((tuple(range(p)),))

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def __eq__(self, other):
        return isinstance(other, NCPartition) and self.blocks == other.blocks

    def __hash__(self):
        return hash(self.blocks)

    def __repr__(self):
        return f"NCPartition({[list(b) for b in self.blocks]})"


@functools.lru_cache(maxsize=None)
def enumerate_nc(p: int):
    """NC(p) as partitions, one per row of `_label_table(p, True)` and in its
    order: the cycles of each geodesic, so a label index means the same in both."""
    return tuple(cycle_partition(Perm(row)) for row in _label_table(p, True)[0].tolist())


def mobius(sigma: Perm) -> int:
    """Moebius function on S_p: each d-cycle contributes (-1)^(d-1) c_(d-1)."""
    return math.prod((-1) ** (len(c) - 1) * catalan(len(c) - 1) for c in sigma.cycles())


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
    return NCPartition(sigma.cycles())


def nc_to_geodesic(part: NCPartition) -> Perm:
    """The geodesic permutation whose orbits are the blocks of `part`.

    Each block, listed in increasing order, becomes one cycle; the result
    satisfies |gamma sigma^-1| + |sigma| = p - 1 with gamma = (1 2 ... p).
    """
    return Perm.from_cycles(part.p, [list(b) for b in part.blocks])


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
    return NCPartition(out)


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
    return NCPartition(groups.values())


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

    return [NCPartition(bs) for bs in rec(0, [])]


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


def nc_order(p: int):
    """Refinement on the NC(p) labels of `_label_table(p, True)`.

    Returns leq(a, b) on label indices with the indices of 0-hat (id) and
    1-hat (gamma).  On geodesics sigma <= tau iff |sigma| + |sigma^-1 tau|
    = |tau| (Biane 1997), a comparison of the cycle counts the pair table
    holds.
    """
    _, ncyc, _, zero, one = _label_table(p, True)
    pair = _pair_arrays(p, True)[0].tolist()
    return (lambda a, b: ncyc[a] + pair[a][b] == p + ncyc[b]), zero, one


def chain_poset(s: int) -> ConstraintPoset:
    """1 <= 2 <= ... <= s; its count in NC(p) is fuss_catalan(s, p)."""
    return ConstraintPoset(k=s, relations=[(i, i + 1) for i in range(s - 1)])


def exotic_poset() -> ConstraintPoset:
    """The V order 0 <= 1, 0 <= 2 that exotic_graph's minimizers follow."""
    return ConstraintPoset(k=3, relations=[(0, 1), (0, 2)])


def frontier_count(poset, p: int) -> int:
    """NC(p)-labelings of the poset's nodes that respect its relations and pins.

    Nodes are labelled in index order, and the count is kept per tuple of
    labels of the frontier, the labelled nodes that still have an
    unlabelled neighbour.  A relation is checked when its later node is
    labelled, so this is exact for every acyclic poset and never walks the
    tuples one by one.
    """
    leq, zero, one = nc_order(p)
    labels = range(catalan(p))
    domains = [{"zero": (zero,), "one": (one,)}.get(poset.pins.get(v), labels)
               for v in range(poset.k)]
    last = list(range(poset.k))              # the last node each node is related to
    earlier = [[] for _ in range(poset.k)]   # per node: (earlier related node, is it below)
    for a, b in poset.relations:
        last[a], last[b] = max(last[a], b), max(last[b], a)
        earlier[max(a, b)].append((min(a, b), a < b))

    frontier, counts = (), {(): 1}
    for v in range(poset.k):
        kept = tuple(u for u in frontier if last[u] > v)
        grown = {}
        for key, count in counts.items():
            fixed = dict(zip(frontier, key))
            allowed = domains[v]
            for u, below in earlier[v]:
                x = fixed[u]
                allowed = [y for y in allowed if (leq(x, y) if below else leq(y, x))]
            base = tuple(fixed[u] for u in kept)
            if last[v] > v:
                for y in allowed:
                    grown[base + (y,)] = grown.get(base + (y,), 0) + count
            else:
                grown[base] = grown.get(base, 0) + count * len(allowed)
        frontier, counts = kept + ((v,) if last[v] > v else ()), grown
    return sum(counts.values())


# ---------------------------------------------------------------------------
# label, pair and Weingarten tables from Perm products
# ---------------------------------------------------------------------------

def perm_labels(p: int, nc: bool):
    """The labels of `_label_table(p, nc)` as Perm objects, in its order."""
    return tuple(map(nc_to_geodesic, enumerate_nc(p))) if nc else all_perms(p)


def perm_pair_table(p: int, nc: bool):
    """`_pair_arrays(p, nc)` as lists, from one Perm product a^-1 b per label pair."""
    perms = perm_labels(p, nc)
    inverses = [a.inverse() for a in perms]
    if nc:
        return [[(a * b).num_cycles for b in perms] for a in inverses], None, None
    types = sorted({sig.cycle_type() for sig in perms})
    index = {t: c for c, t in enumerate(types)}
    classes = [[index[(a * b).cycle_type()] for b in perms] for a in inverses]
    return [[len(types[c]) for c in row] for row in classes], classes, types


def fraction_wg_values(p: int, n: int) -> dict:
    """`wg_exact(p, n).values` by the character formula, one Fraction term per shape."""
    shapes = [lam for lam in _partitions(p) if len(lam) <= n]
    ones = (1,) * p
    weights = [Fraction(_character(lam, ones), _content_product(lam, n)) for lam in shapes]
    return {rho: sum(w * _character(lam, rho) for lam, w in zip(shapes, weights))
            / math.factorial(p) for rho in sorted(_partitions(p))}


def perm_weingarten_column(p: int, dim: int, weights, at=None):
    """h[b] = sum_a weights[a] Wg(a^-1 b, dim) over S_p in Fractions, pair by pair,
    at the label indices `at` (every label by default)."""
    perms = all_perms(p)
    inverses = [a.inverse() for a in perms]
    table = wg_exact(p, dim)
    return [sum((Fraction(w) * wg(table, a * perms[b]) for w, a in zip(weights, inverses)), Fraction(0))
            for b in (range(len(perms)) if at is None else at)]


def wg(table, sigma: Perm) -> Fraction:
    """The table's value Wg(n, sigma), read by sigma's cycle type."""
    return table.by_type(sigma.cycle_type())


def wg_asym(p: int, n: float, sigma: Perm) -> float:
    """First-order asymptotic Wg(n, sigma) ~ n^-(p + |sigma|) Mob(sigma)."""
    return float(n) ** (-(p + sigma.length)) * mobius(sigma)


def convolution_defect(table, sigma: Perm) -> Fraction:
    """sum_tau Wg(sigma tau^-1) n^(#tau) minus its target delta(sigma, id).

    Zero for every sigma when n >= p; below that n^(#tau) is singular and
    the table is its pseudo-inverse, so the defect need not vanish.
    """
    total = sum(wg(table, sigma * tau.inverse()) * table.n ** tau.num_cycles
                for tau in all_perms(table.p))
    return total - (sigma.length == 0)


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


@dataclass(frozen=True)
class FamilyReport:
    """The paper's closed-form prediction for a solved family of marginals.

    E H ~ entropy_log_term ln N + the law's entropy constant, and the
    purity ~ the law's second moment times N^-entropy_log_term;
    `exact_at_finite_n` when the spectrum is flat at every N.
    """

    law: DistributionId
    flow: int
    entropy_log_term: int
    exact_at_finite_n: bool = False

    @property
    def entropy_constant(self) -> float:
        return self.law.entropy_constant()

    @property
    def purity_coeff(self) -> Fraction:
        return self.law.moment(2)

    @property
    def purity_exponent(self) -> int:
        return -self.entropy_log_term

    def entropy(self, n: float) -> float:
        return self.entropy_log_term * math.log(n) + self.entropy_constant


def _flat(rank_coeff, rank_exponent, kind="maximally_mixed"):
    return DistributionId(kind=kind, rank_coeff=Fraction(rank_coeff), rank_exponent=rank_exponent)


def one_unitary_marginal(kept: int, traced_in_block: int, external: int,
                         d_kept: int = 1, d_traced: int = 1, d_external: int = 1) -> FamilyReport:
    """Marginal whose surviving subsystems sit inside a single vertex.

    `kept` and `traced_in_block` count subsystems of the surviving vertex
    that are kept / traced; `external` counts its bonds to other (fully
    traced) vertices.  Loop bonds inside the vertex account for the rest.
    With nothing of the vertex traced, rho is a normalized Haar projector
    of rank d_external N^external.  Otherwise kept against traced_in_block
    + external decides between a flat spectrum on the smaller side and a
    free Poisson limit at the critical point.
    """
    if min(kept, traced_in_block, external) < 0:
        raise ValueError("cardinalities must be nonnegative")
    if kept == 0:
        raise ValueError("need at least one kept subsystem")
    env = traced_in_block + external
    if traced_in_block == 0:
        law = _flat(d_external, external)
        return FamilyReport(law, min(kept, external), external, exact_at_finite_n=True)
    if kept == env:
        law = DistributionId(kind="free_poisson", c=Fraction(d_traced * d_external, d_kept),
                             rank_coeff=Fraction(d_kept), rank_exponent=kept)
        return FamilyReport(law, kept, kept)
    rank, coeff = (kept, d_kept) if kept < env else (env, d_traced * d_external)
    return FamilyReport(_flat(coeff, rank), rank, rank)


def star_marginal(m: int, s: int, t: int) -> FamilyReport:
    """Limit law and entropy/purity forecast for an m-star marginal.

    s satellites and t center subsystems survive.  An empty side is
    exactly maximally mixed at every N; an unbalanced trace gives a flat
    limit on the smaller side; the balanced case s + t = m gives the
    square-case free Poisson law.
    """
    if not (0 <= s <= m and 0 <= t <= m):
        raise ValueError(f"need 0 <= s,t <= m; got s={s}, t={t}")
    if s == 0 or t == 0:
        return FamilyReport(_flat(1, max(s, t)), max(s, t), max(s, t), exact_at_finite_n=True)
    if s + t == m:
        return FamilyReport(DistributionId(kind="free_poisson", c=Fraction(1)), m, m)
    rank = min(s + t, 2 * m - s - t)
    return FamilyReport(_flat(1, rank, "dirac"), rank, rank)


def cycle_marginal(types: str) -> FamilyReport:
    """Limit law for a cycle marginal given its vertex type string.

    Arcs are the paths from a fully traced vertex to a fully kept one
    whose interior vertices each lose exactly one subsystem; every arc
    contributes an independent Fuss-Catalan factor of order equal to its
    interior length (length 0 contributes the trivial factor).  The flow
    is the number of single-loss vertices plus the number of arcs.  With
    no fully traced or fully kept vertex the block labels coincide but
    range over the whole lattice: the ring is one square-case vertex.
    """
    m = len(types)
    if m < 2 or set(types) - set("SRT"):
        raise ValueError(f"need at least 2 vertices over S/R/T, got {types!r}")
    if set(types) == {"R"}:
        return FamilyReport(DistributionId(kind="free_poisson", c=Fraction(1)), m, m)
    arcs = _cycle_arcs(types)
    x = types.count("R") + len(arcs)
    orders = [a for a in arcs if a > 0]
    if not orders:
        law = _flat(1, x, "dirac")
    elif len(orders) == 1:
        law = _fc_law(orders[0])
    else:
        law = DistributionId(kind="classical_product", factors=tuple(map(_fc_law, orders)))
    return FamilyReport(law, x, x)


def _cycle_arcs(types: str):
    """Interior lengths of all traced-to-kept arcs, scanning both ways, longest first."""
    m, arcs = len(types), []
    for start, end in (("T", "S"), ("S", "T")):
        for i in (i for i, ch in enumerate(types) if ch == start):
            run, j = 0, (i + 1) % m
            while types[j] == "R" and run < m:
                run, j = run + 1, (j + 1) % m
            if types[j] == end and j != i:
                arcs.append(run)
    return sorted(arcs, reverse=True)


def nc_labeling_sum(marginal: MarginalSpec, p: int):
    """(least cost, coefficient, count) of the asymptotic labeling sum, block by block.

    Every block is labelled by an NC(p) geodesic, T blocks pinned to id and
    S blocks to gamma.  A weight d^t N^(e t) in a cycle count t is the
    entry (e (p - t), d^t, 1), whose cost is its N-deficit; the sum keeps
    the least deficit, which must be X(p-1).  A block weighs its kept and
    traced entries at #(gamma b^-1) and #b over dim_block^p, a bond its
    entry at #(a^-1 b), with a = id or gamma for a pin, and a bond between
    two pins its entry at p (equal pins) or 1.  The reference for the
    weighted residual-poset count of `asymptotic_moment`.
    """
    pins = {i: v.kind for i, v in enumerate(marginal.blocks) if v.kind in ("T", "S")}
    free = [i for i in range(marginal.k) if i not in pins]
    n = catalan(p) if free else 0
    _, ncyc, ncyc_gamma, _, _ = _label_table(p, True)
    at = {"T": np.array(ncyc), "S": np.array(ncyc_gamma), "pair": _pair_arrays(p, True)[0]}

    def entry(e, d, t):
        """(cost, weight) arrays of d^t N^(e t) at the cycle counts t."""
        weight = np.array([d ** s for s in range(p + 1)], dtype=object)[t]
        return np.asarray(e * (p - np.asarray(t, dtype=np.int64))), np.asarray(weight, dtype=object)

    def ones(shape):
        return np.broadcast_to(np.array(1, dtype=object), shape)

    prefactor = Fraction(math.prod(v.dim_loops for v in marginal.blocks), marginal.dim_all_sqrt) ** p
    unary = {}
    for i in free:
        v = marginal.blocks[i]
        (ck, wk), (ct, wt) = (entry(len(v.kept), v.dim_kept, at["S"]),
                              entry(len(v.traced), v.dim_traced, at["T"]))
        unary[i] = ck + ct, wk * wt
        prefactor /= Fraction(v.dim_block) ** p
    factors = []
    for (i, j), bonds in marginal.cross_bonds.items():
        e, d = len(bonds), marginal.cross_dim(i, j)
        if i in pins and j in pins:
            factors.append(((), *entry(e, d, np.array(p if pins[i] == pins[j] else 1)), ones(())))
        elif i in pins or j in pins:
            pin, v = (i, j) if i in pins else (j, i)
            c, w = entry(e, d, at[pins[pin]])
            unary[v] = unary[v][0] + c, unary[v][1] * w
        else:
            factors.append(((i, j), *entry(e, d, at["pair"]), ones((n, n))))
    factors += [((i,), c, w, ones(n)) for i, (c, w) in unary.items()]
    order = _plan(free, n, marginal.cross_bonds, math.inf)
    cost, weight, count = _contract(factors, order, n)
    return cost, prefactor * weight, count


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


def swap(marginal: MarginalSpec) -> MarginalSpec:
    """The dual marginal with kept and traced subsystems exchanged."""
    return MarginalSpec(marginal.graph, marginal.kept)


def duality_check(marginal: MarginalSpec) -> bool:
    """True iff exchanging kept and traced subsystems preserves the max flow."""
    return marginal_max_flow(marginal) == marginal_max_flow(swap(marginal))


def with_dims(marginal: MarginalSpec, d: int) -> MarginalSpec:
    """The same graph and trace set with every dimension factor set to d.

    The plan of a labeling sum depends on the structure alone, so d = 2
    keeps a graph's gates and tables while taking it off the
    unit-dimension path of `asymptotic_moment`; d = 1 puts it there.
    """
    g = marginal.graph
    return GraphSpec(g.vertex_blocks, g.bonds, {i: d for i, _ in g.dims}).marginal(marginal.traced)


def poset_marginal(k: int, relations, d: int = 1) -> MarginalSpec:
    """A graph whose residual poset is the order on nodes 0..k-1 that `relations` generate.

    Block v holds one loop bond with one end traced, and each relation
    a <= b adds a bond from a traced end in block a to a kept end in block
    b.  Then the source and sink edges and the cross bonds are all
    saturated by the only max flow, so no class is pinned and each bond
    orders its ends.  Every subsystem has dimension factor d.
    """
    blocks = [[] for _ in range(k)]
    bonds, traced = [], set()

    def subsystem(v, trace):
        blocks[v].append(sum(map(len, blocks)) + 1)
        if trace:
            traced.add(blocks[v][-1])
        return blocks[v][-1]

    for a, b in relations:
        bonds.append((subsystem(a, True), subsystem(b, False)))
    for v in range(k):
        bonds.append((subsystem(v, True), subsystem(v, False)))
    # number the subsystems block by block
    ids = {old: new for new, old in enumerate((x for blk in blocks for x in blk), start=1)}
    g = GraphSpec(vertex_blocks=[[ids[x] for x in blk] for blk in blocks],
                  bonds=[(ids[x], ids[y]) for x, y in bonds],
                  dims={i: d for i in ids.values()})
    return g.marginal({ids[x] for x in traced})


def n_shaped_marginal() -> MarginalSpec:
    """A graph whose residual poset is the N {0 <= 2, 1 <= 2, 1 <= 3}."""
    return poset_marginal(4, [(0, 2), (1, 2), (1, 3)])


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


def _split_matrix(state: StateVector, kept):
    """Reshape amplitudes to (kept dims) x (traced dims)."""
    n = len(state.dims)
    kept = list(kept)
    traced = [i for i in range(1, n + 1) if i not in kept]
    order = [i - 1 for i in kept + traced]
    tensor = state.tensor
    moved = np.transpose(tensor, order)
    dim_s = 1
    for i in kept:
        dim_s *= state.dims[i - 1]
    return moved.reshape(dim_s, tensor.size // dim_s)


def dense_reduced_spectrum(state: StateVector, traced) -> np.ndarray:
    """Nonzero-part spectrum of the reduced state from the dense amplitudes.

    The amplitudes split as a kept x traced matrix M, and the Gram
    matrix M M^dagger or M^dagger M is formed on the smaller side.
    """
    n = len(state.dims)
    traced = sorted(set(int(x) for x in traced))
    kept = [i for i in range(1, n + 1) if i not in traced]
    mat = _split_matrix(state, kept)
    small = min(mat.shape)
    if small > MAX_DENSITY_DIM:
        raise ResourceCapError(f"spectral side {small} over cap {MAX_DENSITY_DIM}")
    gram = mat @ mat.conj().T if mat.shape[0] <= mat.shape[1] else mat.conj().T @ mat
    return np.linalg.eigvalsh(gram)[::-1]


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


def ginibre_product_spectra(s: int, N: int, trials: int, p_list=(1, 2, 3, 4), seed: int = 0):
    """Mean (1/N) tr W^p for each p in p_list, and the largest eigenvalue seen,
    of W = G G* with G a product of s square Ginibre factors, each over sqrt(N).

    The means converge to the order-s Fuss-Catalan moments as N grows.
    """
    if N > 1024:
        raise ResourceCapError("N over product-spectra cap 1024")
    if s > 4:
        raise ValueError("s over product-spectra cap 4")
    rows, top = [], 0.0
    for rng in trial_rngs(seed, trials):
        g = np.eye(N, dtype=complex)
        for _ in range(s):
            g = g @ (standard_complex_gaussian(rng, N, N) / math.sqrt(N))
        lam = np.linalg.eigvalsh(g @ g.conj().T)
        top = max(top, float(lam[-1]))
        rows.append([float(np.mean(lam ** p)) for p in p_list])
    return dict(zip(p_list, np.mean(rows, axis=0).tolist())), top


def sampled_network(marginal: MarginalSpec, N: int, mode: str):
    """The network `estimate` samples in `mode`, shapes only, as `assemble_state` lays it out.

    Returns (operand labels, operand shapes, subsystem dims, traced ids):
    Haar mode samples the `haar_fold` with its S/T blocks pinned.
    """
    pinned = ()
    if mode == "haar":
        fold = haar_fold(marginal, N)
        marginal, pinned = fold.marginal, fold.pinned
    graph = marginal.graph
    dim = {x: graph.dim_of[x] * N for x in range(1, graph.n + 1)}
    legs, pairs, _ = _bond_legs(graph, pinned, dim)
    labels = [members + tuple(label for _, label in legs[idx])
              for idx, members in enumerate(graph.vertex_blocks) if idx not in pinned] + pairs
    size = dict(dim)
    for block_legs in legs.values():
        size.update((label, dim[x]) for x, label in block_legs)
    return (tuple(labels), tuple(tuple(size[x] for x in l) for l in labels),
            tuple(dim[x] for x in sorted(dim)), marginal.traced)


def doubled_network(labels, shapes, summed):
    """psi (x) conj(psi) as one network: the copy shares the `summed` labels, negates the others."""
    return tuple(labels) + tuple(_mirror(l, summed) for l in labels), tuple(shapes) * 2


def chain_order(operand_labels, shapes):
    """Greedy chain contraction order, the largest array it builds, and its cost.

    Greedy from each start, absorbing next the operand that gives the
    smallest result; of those orders, the one with the fewest
    multiply-adds (a step costs the product of the sizes of every label
    it touches).  Labels shared by two operands are summed, the others
    are axes of the result.  Reductions took this order on the doubled
    network, or psi first where this one cost more, before tree plans.
    """
    size = {x: n for labels, shape in zip(operand_labels, shapes) for x, n in zip(labels, shape)}

    def volume(labels):
        return math.prod(size[label] for label in labels)

    largest = max((volume(labels) for labels in operand_labels), default=1)
    best = (0, (), 0)    # no operands
    for start in range(len(operand_labels)):
        acc, order, cost, peak = set(operand_labels[start]), [start], 0, 0
        rest = [i for i in range(len(operand_labels)) if i != start]
        while rest:
            nxt = min(rest, key=lambda i: (volume(acc ^ set(operand_labels[i])), i))
            rest.remove(nxt)
            cost += volume(acc | set(operand_labels[nxt]))
            acc ^= set(operand_labels[nxt])
            order.append(nxt)
            peak = max(peak, volume(acc))
        if start == 0 or cost < best[0]:
            best = (cost, tuple(order), peak)
    return best[1], max(largest, best[2]), best[0]
