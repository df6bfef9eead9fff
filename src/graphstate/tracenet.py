"""tr rho^p as closed tensor networks, with no rho formed.

tr rho is <psi|psi>, and tr rho^p is p copies of psi's operands and p
conjugates joined in a ring: copy k's traced legs meet its conjugate's,
and the conjugate's kept legs meet copy k + 1's (Pfeifer, Haegeman and
Verstraete, PRE 90, 033315, 2014).  <psi|psi> is planned by the tree
search of `montecarlo`; the ring, whose copies that search cannot hold,
by a greedy pair merge under a memory limit.  `montecarlo.reduced_spectrum`
loads this module on its first power sums, so a command that samples no
power sums never compiles it.
"""

import collections
import functools
import math

from .contraction import Program
from .montecarlo import _JOIN_COST, _search


def greedy_order(operand_labels, shapes, limit):
    """Tree of a closed network (each label on two operands): tree, largest, multiply-adds.

    Each step joins, of the pairs that share a label and whose result fits
    `limit`, the one that frees the most entries (its result less both
    inputs), then the one of fewest multiply-adds; labels of size 1 join
    nothing, and pieces that share nothing are scalars, joined in turn.
    None where no pair fits.
    """
    size = {x: n for labels, shape in zip(operand_labels, shapes)
            for x, n in zip(labels, shape) if n > 1}
    parts = {i: (frozenset(labels) & size.keys(), i, math.prod(shape))
             for i, (labels, shape) in enumerate(zip(operand_labels, shapes))}
    largest, cost = max([1, *(n for _, _, n in parts.values())]), 0
    while len(parts) > 1:
        owners = collections.defaultdict(list)
        for i, (labels, _, _) in parts.items():
            for x in labels:
                owners[x].append(i)
        best = None
        for i, j in set(map(tuple, owners.values())) or [tuple(parts)[:2]]:
            free = parts[i][0] ^ parts[j][0]
            out = math.prod(size[x] for x in free)
            if out <= limit:
                work = out * math.prod(size[x] for x in parts[i][0] & parts[j][0])
                freed = out - parts[i][2] - parts[j][2]
                best = min(best or (math.inf,), (freed, work, i, j, free, out))
        if best is None:
            return None
        _, work, i, j, free, out = best
        parts[i] = (free, (parts[i][1], parts.pop(j)[1], False), out)
        largest, cost = max(largest, out), cost + work
    return (parts.popitem()[1][1] if parts else ()), largest, cost


# `greedy_order`, searched once per (labels, shapes, limit)
_greedy = functools.lru_cache(maxsize=64)(lambda *network: greedy_order(*network))


def trace_network(labels, side, other, p):
    """Labels of tr rho^p as one network: p copies of psi's operands, then p conjugates.

    Copy k's labels move to slot 2k, its traced legs to slot 2k + 1; the
    conjugate of copy k shares those traced legs, has its bonds in slot
    2k + 1 and shares its kept legs with copy k + 1 (mod p).
    """
    step = 1 + max((x for ls in labels for x in ls), default=0)
    copies = [tuple(x + step * (2 * k + (x in other)) for x in ls)
              for k in range(p) for ls in labels]
    return tuple(copies + [tuple(x + step * (2 * ((k + 1) % p) if x in side else 2 * k + 1)
                                 for x in ls) for k in range(p) for ls in labels])


def ring_programs(labels, shapes, dtypes, side, other, powers, limit, rho_work):
    """Programs of tr rho^p for each p from closed networks, without rho; or None.

    p = 1 is <psi|psi>, planned like rho with every subsystem summed, on
    psi's operands; p >= 2 is its `trace_network` on a `greedy_order`, on
    p copies of psi's operands and then p conjugates.  None where some p
    has no plan whose arrays stay within `limit`, or where the networks'
    multiply-adds, with `_JOIN_COST` per join, reach `rho_work`.
    """
    ids = tuple(sorted(side + other))
    plans, work = [], 0
    for p in powers:
        network = trace_network(labels, frozenset(side), frozenset(other), p)
        plan = _search(labels, shapes, ids) if p == 1 else _greedy(network, shapes * 2 * p, limit)
        if plan is None or plan[1] > limit:
            return None
        work += plan[2] + (2 * p * len(labels) - 1) * _JOIN_COST
        plans.append((p, plan[0], network))
    if work >= rho_work:
        return None
    return [Program(labels, shapes, dtypes, tree, ids) if p == 1 else
            Program(network, shapes * 2 * p, dtypes * 2 * p, tree) for p, tree, network in plans]


def power_sums(powers, programs, arrays, views=None):
    """tr rho^p for each p, from `ring_programs`' programs on psi's operand arrays.

    p = 1 runs on the arrays, p >= 2 on p copies of them and then p
    conjugates; each program on its `views` (buffers of its own if None),
    each value read before the next program runs.
    """
    conj = [a.conj() for a in arrays]
    return [float(program.run(arrays if p == 1 else arrays * p + conj * p, vals).real)
            for p, program, vals in zip(powers, programs, views or [None] * len(programs))]
