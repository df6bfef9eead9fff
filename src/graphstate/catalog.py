"""Ready-made graphs and marginals used across tests, demos, and docs.

Each builder returns a MarginalSpec wired exactly as the corresponding
limit-law construction requires; `random_marginal` generates valid random
instances for property-style corpus tests.
"""

from __future__ import annotations

from .graphs import GraphSpec, MarginalSpec


def one_loop(d: int = 1) -> MarginalSpec:
    """One vertex holding both ends of a single bond; trace one end.

    The smallest marginal with a Marchenko-Pastur limit: max flow 1,
    minimizer count Catalan(p).
    """
    g = GraphSpec(vertex_blocks=[[1, 2]], bonds=[(1, 2)], dims={1: d, 2: d})
    return g.marginal({2})


def bell_pair(d: int = 1) -> MarginalSpec:
    """Two single-subsystem vertices joined by one bond; trace one side."""
    g = GraphSpec(vertex_blocks=[[1], [2]], bonds=[(1, 2)], dims={1: d, 2: d})
    return g.marginal({2})


def fc_template(s: int) -> MarginalSpec:
    """Chain of s vertices whose marginal has the order-s Fuss-Catalan limit.

    End vertices carry a loop bond; interior vertices just pass one bond
    through.  Tracing the first vertex's loop pair, one subsystem of each
    interior vertex, and the last vertex's incoming bond end gives max
    flow s+1 and minimizer chains of length s.  For s=1 this degenerates
    to a single vertex with two loops (trace one pair).
    """
    if s < 1:
        raise ValueError("s must be >= 1")
    if s == 1:
        g = GraphSpec(vertex_blocks=[[1, 2, 3, 4]], bonds=[(1, 2), (3, 4)])
        return g.marginal({1, 2})

    blocks, bonds, traced = [], [], set()
    nxt = 1

    def take(count):
        nonlocal nxt
        ids = list(range(nxt, nxt + count))
        nxt += count
        return ids

    first = take(3)                      # loop pair + outgoing end
    blocks.append(first)
    bonds.append((first[0], first[1]))
    traced.update(first[:2])
    out_end = first[2]
    for _ in range(s - 2):
        mid = take(2)                    # incoming end + outgoing end
        blocks.append(mid)
        bonds.append((out_end, mid[0]))
        traced.add(mid[0])
        out_end = mid[1]
    last = take(3)                       # incoming end + loop pair
    blocks.append(last)
    bonds.append((out_end, last[0]))
    bonds.append((last[1], last[2]))
    traced.add(last[0])
    g = GraphSpec(vertex_blocks=blocks, bonds=bonds)
    return g.marginal(traced)


def star_graph(m: int, s: int, t: int) -> MarginalSpec:
    """m-star: satellites 1..m bonded to an m-subsystem center.

    Keeps s satellites and t center subsystems; traces the rest.
    """
    if not (0 <= s <= m and 0 <= t <= m):
        raise ValueError(f"need 0 <= s,t <= m, got s={s}, t={t}, m={m}")
    blocks = [[j] for j in range(1, m + 1)] + [list(range(m + 1, 2 * m + 1))]
    bonds = [(j, m + j) for j in range(1, m + 1)]
    traced = set(range(s + 1, m + 1)) | set(range(m + 1 + t, 2 * m + 1))
    g = GraphSpec(vertex_blocks=blocks, bonds=bonds)
    return g.marginal(traced)


def cycle_graph(types: str) -> MarginalSpec:
    """m-cycle with two subsystems per vertex; trace pattern per vertex type.

    `types[i]` governs vertex i+1: 'T' traces both its subsystems, 'R'
    traces one, 'S' traces none.
    """
    m = len(types)
    if m < 2:
        raise ValueError("cycle needs at least 2 vertices")
    if any(c not in "SRT" for c in types):
        raise ValueError(f"types must be over S/R/T, got {types!r}")
    blocks = [[2 * i + 1, 2 * i + 2] for i in range(m)]
    bonds = [(2 * i + 2, (2 * i + 3) if i < m - 1 else 1) for i in range(m)]
    traced = set()
    for i, c in enumerate(types):
        if c == "T":
            traced.update(blocks[i])
        elif c == "R":
            traced.add(blocks[i][0])
    g = GraphSpec(vertex_blocks=blocks, bonds=bonds)
    return g.marginal(traced)


def exotic_graph() -> MarginalSpec:
    """Three-vertex graph whose minimizers form the V-shaped order.

    A hub vertex (loop + one bond to each leaf, one subsystem kept) and
    two leaf vertices (loop + hub bond, loop pair kept).  Max flow 5; the
    surviving constraint on minimizer labels is hub <= each leaf, the
    smallest pattern that is neither a chain nor a disjoint union.
    """
    g = GraphSpec(
        vertex_blocks=[[1, 2, 3, 4], [5, 6, 7], [8, 9, 10]],
        bonds=[(1, 2), (3, 5), (4, 8), (6, 7), (9, 10)],
    )
    return g.marginal({1, 2, 3, 5, 8})


def figure_example() -> MarginalSpec:
    """Three-vertex, three-bond example with one loop; trace {1, 4, 5}."""
    g = GraphSpec(
        vertex_blocks=[[1], [2, 3], [4, 5, 6]],
        bonds=[(1, 2), (3, 4), (5, 6)],
    )
    return g.marginal({1, 4, 5})


def broadcast_example() -> MarginalSpec:
    """Three local vertices plus one joint vertex; trace {2, 4, 6}.

    After tracing, the joint vertex still couples subsystems 1 and 3 even
    though they share no bond.
    """
    g = GraphSpec(
        vertex_blocks=[[1], [2], [3], [4, 5, 6]],
        bonds=[(1, 4), (2, 5), (3, 6)],
    )
    return g.marginal({2, 4, 6})


def random_marginal(rng, max_bonds: int = 4, max_dim: int = 3,
                    ensure_kept: bool = True) -> MarginalSpec:
    """A random valid marginal: random matching, blocks, dims, trace set.

    `rng` is a numpy Generator; with `ensure_kept` the trace set never
    swallows every subsystem.
    """
    m = int(rng.integers(1, max_bonds + 1))
    n = 2 * m
    ids = rng.permutation(range(1, n + 1)).tolist()     # Python ints, as in a graph file
    bonds = [(ids[2 * i], ids[2 * i + 1]) for i in range(m)]
    dims = {}
    for a, b in bonds:
        d = int(rng.integers(1, max_dim + 1))
        dims[a] = d
        dims[b] = d
    k = int(rng.integers(1, n + 1))
    labels = [int(rng.integers(0, k)) for _ in range(n)]
    groups = {}
    for sub, lab in zip(range(1, n + 1), labels):
        groups.setdefault(lab, []).append(sub)
    blocks = list(groups.values())
    g = GraphSpec(vertex_blocks=blocks, bonds=bonds, dims=dims)
    while True:
        traced = {i for i in range(1, n + 1) if rng.random() < 0.5}
        if not ensure_kept or len(traced) < n:
            return g.marginal(traced)
