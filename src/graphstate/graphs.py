"""Graphs of entangled pairs, dimension weights, and trace partitions.

A graph here couples `n = 2m` subsystems: bonds are a perfect matching on
the subsystems (one maximally entangled pair each), vertex blocks group
subsystems acted on by one joint random unitary.  Subsystem i carries
dimension `d_i * N`; the two ends of a bond must agree on `d_i`.  A
marginal singles out a subset of subsystems to trace over; everything the
moment machinery needs (per-block kept/traced splits, bond multiplicities
between blocks) is derived here.
"""

from __future__ import annotations

import math
from dataclasses import dataclass


class GraphValidationError(ValueError):
    """Raised when a graph or marginal violates a structural invariant."""

    def __init__(self, errors):
        if isinstance(errors, str):
            errors = [errors]
        self.errors = list(errors)
        super().__init__("; ".join(self.errors))


@dataclass(frozen=True)
class GraphSpec:
    """An undirected graph over subsystems 1..n with dimension factors.

    vertex_blocks: partition of {1..n}, each block one joint unitary.
    bonds: perfect matching on {1..n} (loops and multi-edges between the
        same pair of blocks are allowed).
    dims: subsystem id -> positive integer d_i.

    Instances are canonicalized (blocks sorted by smallest member, bond
    endpoints ascending) and validated on construction.
    """

    vertex_blocks: tuple
    bonds: tuple
    dims: tuple

    def __init__(self, vertex_blocks, bonds, dims=None):
        blocks = tuple(sorted((tuple(sorted(b)) for b in vertex_blocks), key=lambda b: (b[0] if b else -1)))
        bond_list = tuple(sorted(tuple(sorted(e)) for e in bonds))
        ids = sorted(x for b in blocks for x in b)
        if dims is None:
            dims = {i: 1 for i in ids}
        dim_items = tuple(sorted((int(i), int(d)) for i, d in dict(dims).items()))
        object.__setattr__(self, "vertex_blocks", blocks)
        object.__setattr__(self, "bonds", bond_list)
        object.__setattr__(self, "dims", dim_items)
        errors = validate(self)
        if errors:
            raise GraphValidationError(errors)
        object.__setattr__(self, "_dim_of", dict(dim_items))

    @property
    def n(self) -> int:
        """Number of subsystems (= 2 * number of bonds)."""
        return sum(len(b) for b in self.vertex_blocks)

    @property
    def m(self) -> int:
        return len(self.bonds)

    @property
    def k(self) -> int:
        return len(self.vertex_blocks)

    @property
    def dim_of(self) -> dict:
        return self._dim_of

    def dim_product(self, ids) -> int:
        """d_I = product of d_i over a set of subsystem ids."""
        return math.prod(self.dim_of[i] for i in ids)

    def block_index(self, subsystem: int) -> int:
        for idx, b in enumerate(self.vertex_blocks):
            if subsystem in b:
                return idx
        raise KeyError(subsystem)

    def marginal(self, traced) -> "MarginalSpec":
        return MarginalSpec(self, traced)


def validate(spec: GraphSpec):
    """All invariant violations of a GraphSpec, as a list of messages.

    Empty list means the spec is valid.  Checked: blocks partition 1..n
    with no empty block, bonds are a perfect matching, matched subsystems
    have equal dimension factors, all d_i positive.
    """
    errors = []
    flat = [x for b in spec.vertex_blocks for x in b]
    ids = sorted(flat)
    n = len(flat)
    if len(set(flat)) != n:
        errors.append("vertex blocks overlap")
    if any(len(b) == 0 for b in spec.vertex_blocks):
        errors.append("empty vertex block")
    if ids != list(range(1, n + 1)):
        errors.append(f"subsystem ids must be 1..{n}, got {ids}")
    if n % 2 != 0:
        errors.append(f"odd subsystem count {n}")

    dim_of = dict(spec.dims)
    if sorted(dim_of) != ids:
        errors.append("dims must cover exactly the subsystem ids")
    if any(d < 1 for d in dim_of.values()):
        errors.append("dimension factors must be positive integers")

    seen = {}
    for a, b in spec.bonds:
        for x in (a, b):
            seen[x] = seen.get(x, 0) + 1
        if a == b:
            errors.append(f"bond ({a},{b}) pairs a subsystem with itself")
        elif dim_of.get(a) != dim_of.get(b):
            errors.append(f"bond dimension mismatch on ({a},{b}): d_{a}={dim_of.get(a)}, d_{b}={dim_of.get(b)}")
    if n % 2 == 0 and len(spec.bonds) != n // 2:
        errors.append(f"{len(spec.bonds)} bonds cannot match {n} subsystems")
    multi = [x for x, cnt in seen.items() if cnt > 1]
    if multi:
        errors.append(f"subsystems in more than one bond: {sorted(multi)}")
    unmatched = [x for x in ids if x not in seen]
    if unmatched and not errors:
        errors.append(f"unmatched subsystems: {unmatched}")
    return errors


@dataclass(frozen=True)
class BlockView:
    """Per-block derived data for one marginal."""

    members: tuple       # subsystems of the block
    kept: tuple          # members not traced out
    traced: tuple        # members traced out
    kind: str            # "T" fully traced / "S" fully kept / "mixed"
    loop_bonds: tuple    # internal bonds (both ends in this block)
    dim_kept: int        # product of d_i over kept
    dim_traced: int
    dim_block: int
    dim_loops: int       # product of d over one end of each internal bond


class MarginalSpec:
    """A graph together with the set of subsystems being traced out."""

    def __init__(self, graph: GraphSpec, traced):
        traced = frozenset(int(x) for x in traced)
        bad = traced - {x for b in graph.vertex_blocks for x in b}
        if bad:
            raise GraphValidationError(f"traced ids not in graph: {sorted(bad)}")
        self.graph = graph
        self.traced = traced
        self.kept = frozenset(range(1, graph.n + 1)) - traced
        self._build_views()

    def __eq__(self, other):
        """Equal marginals have the same graph and trace set, and so every derived number."""
        if not isinstance(other, MarginalSpec):
            return NotImplemented
        return (self.graph, self.traced) == (other.graph, other.traced)

    def __hash__(self):
        return hash((self.graph, self.traced))

    def _build_views(self):
        g = self.graph
        blocks = []
        # bonds bucketed by the (unordered) pair of blocks they connect
        cross = {}
        loops = {i: [] for i in range(g.k)}
        for bond in g.bonds:
            bi, bj = sorted((g.block_index(bond[0]), g.block_index(bond[1])))
            if bi == bj:
                loops[bi].append(bond)
            else:
                cross.setdefault((bi, bj), []).append(bond)
        self.cross_bonds = {pair: tuple(bl) for pair, bl in cross.items()}

        for idx, members in enumerate(g.vertex_blocks):
            kept = tuple(x for x in members if x in self.kept)
            traced = tuple(x for x in members if x in self.traced)
            kind = "T" if not kept else ("S" if not traced else "mixed")
            loop_bonds = tuple(loops[idx])
            blocks.append(BlockView(
                members=members,
                kept=kept,
                traced=traced,
                kind=kind,
                loop_bonds=loop_bonds,
                dim_kept=g.dim_product(kept),
                dim_traced=g.dim_product(traced),
                dim_block=g.dim_product(members),
                dim_loops=g.dim_product(a for a, _ in loop_bonds),
            ))
        self.blocks = tuple(blocks)

    @property
    def k(self) -> int:
        return self.graph.k

    def cross_dim(self, i: int, j: int) -> int:
        """Product of bond dimension factors over bonds between blocks i, j."""
        bonds = self.cross_bonds.get(tuple(sorted((i, j))), ())
        return math.prod(self.graph.dim_of[a] for a, _ in bonds)

    @property
    def dim_all_sqrt(self) -> int:
        """sqrt of prod_i d_i: equals the product of bond dimension factors."""
        return math.prod(self.graph.dim_of[a] for a, _ in self.graph.bonds)

    def describe(self) -> dict:
        return {
            "kept": sorted(self.kept),
            "traced": sorted(self.traced),
            "block_types": [b.kind for b in self.blocks],
        }
