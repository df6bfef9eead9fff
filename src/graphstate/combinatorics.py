"""Permutations, non-crossing partitions, and the counting engine.

Everything downstream (Weingarten tables, moment coefficients, limit-law
moments) reduces to counting structures in the symmetric group S_p and in
the lattice NC(p) of non-crossing partitions of {1..p}.  All counts are
exact Python integers; nothing here touches floating point.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb

NC_CAP_DEFAULT = 10


class EnumerationCapError(ValueError):
    """Requested order exceeds the configured enumeration cap."""


# ---------------------------------------------------------------------------
# permutations
# ---------------------------------------------------------------------------

class Perm:
    """A permutation of {0..p-1} in one-line notation.

    `image[i]` is the image of point i.  Cycle data is computed once and
    cached; instances are immutable and hashable.
    """

    __slots__ = ("image", "_cycles", "_hash")

    def __init__(self, image):
        image = tuple(image)
        if sorted(image) != list(range(len(image))):
            raise ValueError(f"not a permutation of 0..{len(image)-1}: {image}")
        object.__setattr__(self, "image", image)
        object.__setattr__(self, "_cycles", None)
        object.__setattr__(self, "_hash", hash(image))

    def __setattr__(self, name, value):
        raise AttributeError("Perm is immutable")

    @classmethod
    def identity(cls, p: int) -> "Perm":
        return cls(range(p))

    @classmethod
    def full_cycle(cls, p: int) -> "Perm":
        """The canonical long cycle gamma = (1 2 ... p), i.e. i -> i+1 mod p."""
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

    def __len__(self):
        return len(self.image)

    def __call__(self, i: int) -> int:
        return self.image[i]

    def __eq__(self, other):
        return isinstance(other, Perm) and self.image == other.image

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"Perm{self.image}"

    def __mul__(self, other: "Perm") -> "Perm":
        """Composition (self * other)(i) = self(other(i))."""
        oi = other.image
        si = self.image
        return Perm(si[oi[i]] for i in range(len(si)))

    def inverse(self) -> "Perm":
        inv = [0] * len(self.image)
        for i, j in enumerate(self.image):
            inv[j] = i
        return Perm(inv)

    def cycles(self):
        """Disjoint cycles, each starting at its minimum, sorted by minimum."""
        if self._cycles is None:
            seen = [False] * len(self.image)
            out = []
            for start in range(len(self.image)):
                if seen[start]:
                    continue
                cyc = []
                i = start
                while not seen[i]:
                    seen[i] = True
                    cyc.append(i)
                    i = self.image[i]
                out.append(tuple(cyc))
            object.__setattr__(self, "_cycles", tuple(out))
        return self._cycles

    @property
    def num_cycles(self) -> int:
        """#sigma, the number of disjoint cycles (fixed points included)."""
        return len(self.cycles())

    @property
    def length(self) -> int:
        """|sigma| = p - #sigma, minimal number of transpositions."""
        return len(self.image) - self.num_cycles

    def cycle_type(self):
        """Cycle lengths sorted descending; indexes conjugacy classes."""
        return tuple(sorted((len(c) for c in self.cycles()), reverse=True))

    def cycle_partition(self):
        """[sigma]: the set partition of {0..p-1} into orbits."""
        return NCPartition(self.cycles(), check=False)


def all_perms(p: int):
    """All of S_p as Perm objects (cached per p)."""
    return _all_perms_cached(p)


@lru_cache(maxsize=None)
def _all_perms_cached(p: int):
    return tuple(Perm(img) for img in itertools.permutations(range(p)))


# ---------------------------------------------------------------------------
# set partitions / non-crossing partitions
# ---------------------------------------------------------------------------

class NCPartition:
    """A set partition of {0..p-1}, normally a non-crossing one.

    Blocks are stored sorted internally and ordered by their minima, so two
    equal partitions compare and hash equal.  The class is also used for
    general (possibly crossing) partitions; `is_noncrossing` tells them
    apart and `leq` is plain refinement order on either kind.
    """

    __slots__ = ("blocks", "p", "_hash")

    def __init__(self, blocks, check: bool = True):
        norm = tuple(sorted((tuple(sorted(b)) for b in blocks), key=lambda b: b[0]))
        object.__setattr__(self, "blocks", norm)
        p = sum(len(b) for b in norm)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "_hash", hash(norm))
        if check:
            flat = sorted(itertools.chain.from_iterable(norm))
            if flat != list(range(p)):
                raise ValueError(f"blocks do not partition 0..{p-1}: {blocks}")

    def __setattr__(self, name, value):
        raise AttributeError("NCPartition is immutable")

    @classmethod
    def zero(cls, p: int) -> "NCPartition":
        """The discrete partition 0-hat: all singletons."""
        return cls(((i,) for i in range(p)), check=False)

    @classmethod
    def one(cls, p: int) -> "NCPartition":
        """The full partition 1-hat: a single block."""
        return cls((tuple(range(p)),), check=False)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    def block_of(self, i: int):
        for b in self.blocks:
            if i in b:
                return b
        raise KeyError(i)

    def __eq__(self, other):
        return isinstance(other, NCPartition) and self.blocks == other.blocks

    def __hash__(self):
        return self._hash

    def __repr__(self):
        return f"NCPartition({[list(b) for b in self.blocks]})"

    def is_noncrossing(self) -> bool:
        """True iff no blocks X, Y interleave as a < b < c < d (a,c in X; b,d in Y).

        Two blocks cross exactly when the X/Y labels along their sorted
        union alternate at least three times (pattern XYXY or YXYX).
        """
        for bx, by in itertools.combinations(self.blocks, 2):
            merged = sorted([(v, 0) for v in bx] + [(v, 1) for v in by])
            changes = sum(1 for (_, s), (_, t) in zip(merged, merged[1:]) if s != t)
            if changes >= 3:
                return False
        return True


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


def nc_join(a: NCPartition, b: NCPartition, cap: int = NC_CAP_DEFAULT) -> NCPartition:
    """Least upper bound within NC(p): the finest non-crossing coarsening."""
    best = None
    for q in enumerate_nc(a.p, cap=cap):
        if leq(a, q) and leq(b, q):
            if best is None or leq(q, best):
                best = q
    return best


def enumerate_nc(p: int, cap: int = NC_CAP_DEFAULT):
    """All non-crossing partitions of {0..p-1}; |result| = catalan(p).

    Built recursively from the block containing the smallest element: that
    block splits the remaining points into independent gaps, each of which
    is filled with a non-crossing partition of its own.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if p > cap:
        raise EnumerationCapError(f"p={p} exceeds enumeration cap {cap}")
    return _enumerate_nc_cached(p)


@lru_cache(maxsize=None)
def _enumerate_nc_cached(p: int):
    return tuple(NCPartition(blocks, check=False) for blocks in _nc_blocks(tuple(range(p))))


def _nc_blocks(points):
    """Yield block-lists of non-crossing partitions of an ordered point set."""
    if not points:
        yield []
        return
    first, rest = points[0], points[1:]
    # the block of `first` picks an increasing subset of the rest
    for r in range(len(rest) + 1):
        for chosen in itertools.combinations(range(len(rest)), r):
            block = (first,) + tuple(rest[i] for i in chosen)
            # gaps between consecutive chosen points must be partitioned
            # independently, otherwise something would cross `block`
            gaps = []
            prev = -1
            for i in chosen:
                gaps.append(rest[prev + 1:i])
                prev = i
            gaps.append(rest[prev + 1:])
            for combo in itertools.product(*(_nc_blocks(g) for g in gaps)):
                out = [block]
                for sub in combo:
                    out.extend(sub)
                yield out


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


# ---------------------------------------------------------------------------
# geodesics:  NC(p)  <->  permutations on the id -> gamma geodesic
# ---------------------------------------------------------------------------

def nc_to_geodesic(part: NCPartition) -> Perm:
    """The geodesic permutation whose orbits are the blocks of `part`.

    Each block, listed in increasing order, becomes one cycle; the result
    satisfies |gamma sigma^-1| + |sigma| = p - 1 with gamma = (1 2 ... p).
    """
    return Perm.from_cycles(part.p, [list(b) for b in part.blocks])


def is_geodesic(sigma: Perm) -> bool:
    gamma = Perm.full_cycle(sigma.p)
    return (gamma * sigma.inverse()).length + sigma.length == sigma.p - 1


def kreweras(part: NCPartition) -> NCPartition:
    """Kreweras complement: [sigma^-1 gamma] for the geodesic sigma of `part`.

    Order-reversing; block counts satisfy |pi| + |K(pi)| = p + 1.
    """
    sigma = nc_to_geodesic(part)
    gamma = Perm.full_cycle(part.p)
    return (sigma.inverse() * gamma).cycle_partition()


# ---------------------------------------------------------------------------
# Catalan / Fuss-Catalan numbers and the Moebius function
# ---------------------------------------------------------------------------

def catalan(i: int) -> int:
    """The i-th Catalan number C_i = binom(2i, i)/(i+1)."""
    if i < 0:
        raise ValueError("i must be >= 0")
    return comb(2 * i, i) // (i + 1)


def fuss_catalan(s: int, p: int) -> int:
    """FC^(s)_p = binom(sp + p, p) / (sp + 1); FC^(0)_p = 1.

    Exact integer arithmetic; these grow fast (FC^(4)_10 has 16 digits).
    """
    if s < 0:
        raise ValueError("s must be >= 0")
    if p < 0:
        raise ValueError("p must be >= 0")
    if p == 0:
        return 1
    q, r = divmod(comb(s * p + p, p), s * p + 1)
    assert r == 0
    return q


def mp_moment(c, p: int) -> Fraction:
    """p-th free-Poisson moment sum_k N(p, k) c^k, exactly.

    N(p, k) = C(p, k) C(p, k-1) / p, the Narayana number, counts the
    partitions in NC(p) with k blocks, so this equals the sum over NC(p)
    of c^(number of blocks).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    c = Fraction(c)
    return sum(comb(p, k) * comb(p, k - 1) // p * c ** k for k in range(1, p + 1))


def mobius(sigma: Perm) -> int:
    """Moebius function on S_p: each d-cycle contributes (-1)^(d-1) c_(d-1)."""
    out = 1
    for cyc in sigma.cycles():
        d = len(cyc)
        out *= (-1) ** (d - 1) * catalan(d - 1)
    return out


# ---------------------------------------------------------------------------
# chain and poset-tuple counting in NC(p)
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _leq_matrix(p: int):
    """Dense leq lookup over enumerate_nc(p); index order matches the tuple."""
    parts = _enumerate_nc_cached(p)
    idx = {part: i for i, part in enumerate(parts)}
    mat = [[False] * len(parts) for _ in parts]
    for i, a in enumerate(parts):
        for j, b in enumerate(parts):
            mat[i][j] = leq(a, b)
    return parts, idx, mat


def count_chains(s: int, p: int, cap: int = NC_CAP_DEFAULT) -> int:
    """Number of s-chains sigma_1 <= ... <= sigma_s in NC(p).

    Independent of the Fuss-Catalan binomial formula: pure lattice walk,
    iterating the zeta transform s-1 times.
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if p > cap:
        raise EnumerationCapError(f"p={p} exceeds enumeration cap {cap}")
    parts, _, mat = _leq_matrix(p)
    n = len(parts)
    counts = [1] * n
    for _ in range(s - 1):
        counts = [sum(counts[i] for i in range(n) if mat[i][j]) for j in range(n)]
    return sum(counts)


@dataclass(frozen=True)
class ConstraintPoset:
    """Order constraints on a tuple of NC(p) labels.

    Nodes are 0..k-1; `relations` holds pairs (i, j) meaning label_i <=
    label_j; `pins` forces a node to 0-hat ("zero") or 1-hat ("one").
    """

    k: int
    relations: tuple = ()
    pins: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "relations", tuple((int(a), int(b)) for a, b in self.relations))
        object.__setattr__(self, "pins", dict(self.pins))
        for a, b in self.relations:
            if not (0 <= a < self.k and 0 <= b < self.k):
                raise ValueError(f"relation ({a},{b}) outside nodes 0..{self.k-1}")
        for node, val in self.pins.items():
            if val not in ("zero", "one"):
                raise ValueError(f"pin for node {node} must be 'zero' or 'one'")
        if self._has_cycle():
            raise ValueError("constraint relation has a cycle")
        # a pin 'one' below a pin 'zero' can never be satisfied
        for a, b in self.relations:
            if self.pins.get(a) == "one" and self.pins.get(b) == "zero":
                raise ValueError(f"inconsistent pins across relation ({a},{b})")

    def _has_cycle(self) -> bool:
        adj = {i: [] for i in range(self.k)}
        for a, b in self.relations:
            if a == b:
                return True
            adj[a].append(b)
        state = [0] * self.k

        def visit(u):
            state[u] = 1
            for v in adj[u]:
                if state[v] == 1 or (state[v] == 0 and visit(v)):
                    return True
            state[u] = 2
            return False

        return any(state[u] == 0 and visit(u) for u in range(self.k))

    @staticmethod
    def make_chain(s: int) -> "ConstraintPoset":
        """1 <= 2 <= ... <= s; tuple count is fuss_catalan(s, p)."""
        return ConstraintPoset(k=s, relations=tuple((i, i + 1) for i in range(s - 1)))


def count_poset_tuples(poset: ConstraintPoset, p: int, cap: int = NC_CAP_DEFAULT) -> int:
    """Number of NC(p)-labelings of the poset nodes respecting all constraints."""
    if p > cap:
        raise EnumerationCapError(f"p={p} exceeds enumeration cap {cap}")
    parts, idx, mat = _leq_matrix(p)
    n = len(parts)
    zero = idx[NCPartition.zero(p)]
    one = idx[NCPartition.one(p)]
    choices = []
    for node in range(poset.k):
        pin = poset.pins.get(node)
        if pin == "zero":
            choices.append([zero])
        elif pin == "one":
            choices.append([one])
        else:
            choices.append(list(range(n)))

    # depth-first assignment with constraint checks against earlier nodes
    by_later = {}
    for a, b in poset.relations:
        by_later.setdefault(max(a, b), []).append((a, b))

    count = 0
    assign = [None] * poset.k

    def rec(node):
        nonlocal count
        if node == poset.k:
            count += 1
            return
        for c in choices[node]:
            assign[node] = c
            ok = True
            for a, b in by_later.get(node, ()):
                if not mat[assign[a]][assign[b]]:
                    ok = False
                    break
            if ok:
                rec(node + 1)
        assign[node] = None

    rec(0)
    return count


# ---------------------------------------------------------------------------
# incidence-algebra check helper (zeta * mobius = delta on the geodesic set)
# ---------------------------------------------------------------------------

def mobius_inversion_defect(beta: Perm) -> int:
    """Sum of Mob(alpha^-1 beta) over geodesic alpha with [alpha] <= [beta].

    Equals 1 when beta = id and 0 for any other geodesic beta; this is the
    convolution identity that collapses fully-traced vertices to id.
    """
    p = beta.p
    target = beta.cycle_partition()
    total = 0
    for part in enumerate_nc(p):
        if leq(part, target):
            alpha = nc_to_geodesic(part)
            total += mobius(alpha.inverse() * beta)
    return total
