"""Max-flow network whose value sets the decay exponent of every moment.

Each marginal induces a small directed network: a source, a sink, and one
node per vertex block.  Source-side capacities count traced subsystems,
sink-side capacities count kept ones, and inter-block capacities count the
bonds running between two blocks.  Internal loop bonds create no edges.
The p-th moment of the reduced state decays like N^(-X(p-1)) where X is
the max flow, and the residual graph of a max flow orders the labels that
reach that bound (`residual_poset`).
"""

from __future__ import annotations

from collections import deque

from ._record import _Record
from .combinatorics import ConstraintPoset
from .graphs import MarginalSpec

SOURCE = "source"
SINK = "sink"


class MinimizerConsistencyError(AssertionError):
    """The minimizers found disagree with the max-flow bound."""


class FlowNetwork(_Record):
    """Integer-capacity digraph on {source, sink, 0..k-1}.

    `capacity` holds sorted ((u, v), cap) pairs: ordered node pairs with
    positive integer capacities; absent pairs have capacity zero.
    Block-to-block capacities are symmetric.
    """

    _fields = ("k", "capacity")

    def __init__(self, k, capacity):
        vars(self).update(k=k, capacity=capacity)

    @property
    def nodes(self):
        return [SOURCE, SINK] + list(range(self.k))

    def cap_map(self) -> dict:
        return dict(self.capacity)


class MaxFlowResult(_Record):
    """An integral maximum flow plus its residual structure.

    flow is skew-symmetric: flow[(u,v)] = -flow[(v,u)].  Component labels
    classify each block node from one canonical Edmonds-Karp run: on the
    source side of the min cut, on the sink side, or in neither ("inner").
    The labels are advisory hints; nothing downstream depends on them.
    """

    _fields = ("value", "flow", "residual", "labels")
    __hash__ = None
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__

    def __init__(self, value, flow, residual, labels=None):
        self.value = value
        self.flow = flow
        self.residual = residual
        self.labels = {} if labels is None else labels


def build_network(marginal: MarginalSpec) -> FlowNetwork:
    """Network for a marginal: traced counts feed the source, kept counts
    drain to the sink, cross-bond counts couple block nodes both ways."""
    caps = {}
    for i, view in enumerate(marginal.blocks):
        if view.traced:
            caps[(SOURCE, i)] = len(view.traced)
        if view.kept:
            caps[(i, SINK)] = len(view.kept)
    for (i, j), bonds in marginal.cross_bonds.items():
        caps[(i, j)] = len(bonds)
        caps[(j, i)] = len(bonds)
    return FlowNetwork(k=marginal.k, capacity=tuple(sorted(caps.items(), key=str)))


def max_flow(net: FlowNetwork) -> MaxFlowResult:
    """Edmonds-Karp (shortest augmenting path) maximum flow.

    Integral capacities give an integral flow; BFS order makes the run
    deterministic.  The residual map holds cap - flow for every ordered
    pair with either capacity or back-flow.
    """
    cap = net.cap_map()
    # make the capacity map symmetric in keys so residual back-edges exist
    for (u, v) in list(cap):
        cap.setdefault((v, u), 0)
    adj = {u: [] for u in net.nodes}
    for (u, v) in cap:
        adj[u].append(v)
    for u in adj:
        adj[u].sort(key=str)

    flow = {pair: 0 for pair in cap}

    def bfs():
        parent = {SOURCE: None}
        queue = deque([SOURCE])
        while queue:
            u = queue.popleft()
            if u == SINK:
                break
            for v in adj[u]:
                if v not in parent and cap[(u, v)] - flow[(u, v)] > 0:
                    parent[v] = u
                    queue.append(v)
        if SINK not in parent:
            return None
        path = []
        v = SINK
        while parent[v] is not None:
            path.append((parent[v], v))
            v = parent[v]
        return list(reversed(path))

    value = 0
    while True:
        path = bfs()
        if path is None:
            break
        push = min(cap[e] - flow[e] for e in path)
        for u, v in path:
            flow[(u, v)] += push
            flow[(v, u)] -= push
        value += push

    residual = {pair: cap[pair] - flow[pair] for pair in cap}

    # canonical labels from the final residual digraph
    reach_src = _reachable(adj, residual, SOURCE, forward=True)
    reach_snk = _reachable(adj, residual, SINK, forward=False)
    labels = {}
    for i in range(net.k):
        if i in reach_src:
            labels[i] = "source-side"
        elif i in reach_snk:
            labels[i] = "sink-side"
        else:
            labels[i] = "inner"
    return MaxFlowResult(value=value, flow=flow, residual=residual, labels=labels)


def _reachable(adj, residual, start, forward: bool):
    seen = {start}
    queue = deque([start])
    while queue:
        u = queue.popleft()
        for v in adj[u]:
            edge = (u, v) if forward else (v, u)
            if v not in seen and residual.get(edge, 0) > 0:
                seen.add(v)
                queue.append(v)
    return seen


def residual_poset(marginal: MarginalSpec, result: MaxFlowResult = None):
    """(poset, place): the order on the free label classes that every
    minimizing labeling respects, and each block's class index or pin.

    A labeling reaches the bound X(p-1) iff every flow path is a geodesic
    chain id <= ... <= gamma and every unsaturated bond joins equal labels:
    a residual edge a -> b forces label b <= label a.  So T blocks merge
    into the source (id), S blocks into the sink (gamma), and the strongly
    connected components of the residual edges are the classes of equal
    labels.  Every class the source class reaches is pinned to id
    ("zero"), every class that reaches the sink class to gamma ("one"); the
    others, numbered by their least block, are ordered by b <= a iff a
    reaches b, and no relation to a pin constrains them.  The minimizers
    are the order-preserving maps of this poset into NC(p).  The
    components are the same for every max flow (Picard & Queyranne, Math.
    Prog. Study 13, 1980), so `result` may be any.  Raises
    MinimizerConsistencyError if the source class reaches the sink class.
    """
    result = result or max_flow(build_network(marginal))
    merged = {i: {"T": SOURCE, "S": SINK}.get(view.kind, i) for i, view in enumerate(marginal.blocks)}
    edges = {(merged.get(u, u), merged.get(v, v)): 1
             for (u, v), left in result.residual.items() if left > 0}
    adj = {u: [] for u in (SOURCE, SINK, *merged.values())}
    for u, v in edges:
        adj[u].append(v)
    reach = {u: _reachable(adj, edges, u, forward=True) for u in adj}
    if SINK in reach[SOURCE]:
        raise MinimizerConsistencyError("the residual graph joins the id pins to the gamma pins")
    place = ["zero" if u in reach[SOURCE] else "one" if SINK in reach[u] else None
             for u in merged.values()]
    classes = []        # the blocks of each class, in order of their least block
    for i in range(marginal.k):
        if place[i] is None:
            classes.append({j for j in range(marginal.k)
                            if place[j] is None and j in reach[i] and i in reach[j]})
            place = [len(classes) - 1 if j in classes[-1] else c for j, c in enumerate(place)]
    return ConstraintPoset(k=len(classes), relations=[
        (b, a) for a, upper in enumerate(classes) for b, lower in enumerate(classes)
        if a != b and min(lower) in reach[min(upper)]]), tuple(place)
