"""The S_p and NC(p) label tables and the counting engine.

Everything downstream (Weingarten tables, moment coefficients, limit-law
moments) reduces to counting structures in the symmetric group S_p and in
the lattice NC(p) of non-crossing partitions of {1..p}, in exact integers
and Fractions.  A label is a row of permutation images in a read-only
int8 table, an NC(p) partition being its geodesic permutation, and the
pair tables hold #(a^-1 b) over pairs of rows; no label is ever an object
of its own.  Poset labelings are counted by the free moment-cumulant
recursion, or by the bucket elimination `_contract` that the moment
engines share.
"""

from __future__ import annotations

import itertools
import math
import os
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from math import comb

import numpy as np

NC_CAP = 10


class EnumerationCapError(ValueError):
    """Requested order exceeds the configured enumeration cap."""


class BudgetExceededError(RuntimeError):
    """Enumeration would exceed the configured work budget."""

    def __init__(self, message, estimated):
        super().__init__(message)
        self.estimated = estimated


# ---------------------------------------------------------------------------
# geodesics:  NC(p) as permutations on the id -> gamma geodesic, and the
# label and pair tables the moment engines and the counts share
# ---------------------------------------------------------------------------

@lru_cache(maxsize=None)
def _nc_images(p: int):
    """The NC(p) geodesics, each block one increasing cycle, as a read-only
    int8 image array with the block counts #sigma, by the Catalan recursion
    on b = sigma(0).  b = 0 fixes 0 and puts NC(p-1) on 1..p-1; b >= 1 puts
    NC(b-1) on 1..b-1 and NC(p-b) on b..p-1, and 0 enters b's cycle just
    before b.  Row 0 is the identity."""
    if p == 0:
        return np.zeros((1, 0), dtype=np.int8), np.zeros(1, dtype=np.int8)
    rest, rest_n = _nc_images(p - 1)
    images = [np.concatenate([np.zeros((len(rest), 1), dtype=np.int8), rest + 1], axis=1)]
    ncyc = [rest_n + 1]
    for b in range(1, p):
        (left, left_n), (right, right_n) = _nc_images(b - 1), _nc_images(p - b)
        tail = np.tile(right + b, (len(left), 1))
        tail[tail == b] = 0         # the point that mapped to b now maps to 0
        head = np.full((len(tail), 1), b, dtype=np.int8)
        images.append(np.concatenate([head, np.repeat(left + 1, len(right), axis=0), tail], axis=1))
        ncyc.append(np.repeat(left_n, len(right)) + np.tile(right_n, len(left)))
    images, ncyc = np.concatenate(images), np.concatenate(ncyc)
    images.flags.writeable = ncyc.flags.writeable = False
    return images, ncyc


# points per batch of composed permutations: at most 64 KB per int64
# temporary.  Larger ones, freed and allocated again batch after batch,
# can make malloc give the heap back and fault it in again: 104k page
# faults in `_pair_arrays(8, True)` with one row of 11,440 points per batch.
_BATCH_POINTS = 1 << 13


@lru_cache(maxsize=None)
def _label_table(p: int, nc: bool):
    """Labels at order p: the NC(p) geodesics of `_nc_images` (nc), at
    most NC_CAP points, or S_p in `itertools.permutations` order.  Returns
    their images as a read-only int8 array, one row per label, with #b,
    #(gamma b^-1) and the indices of id (row 0) and gamma.  On a geodesic
    #(gamma b^-1) = p + 1 - #b, so over NC(p) no product is formed."""
    ident, gamma = tuple(range(p)), tuple((i + 1) % p for i in range(p))
    if nc:
        if p > NC_CAP:
            raise EnumerationCapError(f"p={p} exceeds enumeration cap {NC_CAP}")
        images, ncyc = _nc_images(p)
        ncyc_gamma = p + 1 - ncyc
        one = int(np.flatnonzero((images == gamma).all(axis=1))[0])
    else:
        rows = list(itertools.permutations(ident))
        images = np.array(rows, dtype=np.int8)
        images.flags.writeable = False
        ncyc = _cycle_counts(images)
        ncyc_gamma = _cycle_counts(np.array(gamma, dtype=np.int8)[_inverse(images)])
        one = rows.index(gamma)
    return images, ncyc.tolist(), ncyc_gamma.tolist(), 0, one


@lru_cache(maxsize=None)
def _pair_arrays(p: int, nc: bool):
    """#(a^-1 b) over all label pairs, quadratic in the labels and built
    lazily; over S_p also the class of a^-1 b, indexing the cycle types.
    Both are read-only int8 arrays, one row per label a (classes is None
    over NC(p)).

    a^-1 b is composed for a batch of label pairs at a time by one
    gather, `inverse[a][:, images]`.  Over S_p each product is encoded as a
    base-p number and found among the labels' codes, which ascend in
    `itertools.permutations` order, so its class is one more gather.
    """
    images = _label_table(p, nc)[0]
    inverse = _inverse(images)
    n = len(images)
    if n * p <= _BATCH_POINTS:      # whole rows a at a time
        batch = _BATCH_POINTS // (n * p)
        products = (inverse[a:a + batch][:, images].reshape(-1, p) for a in range(0, n, batch))
    else:                           # one row a at a time, in equal slices of labels b
        slices = -(-n * p // _BATCH_POINTS)
        width = -(-n // slices)
        products = (inverse[a][images[b:b + width]] for a in range(n) for b in range(0, n, width))
    if nc:
        counts = np.concatenate([_cycle_counts(prod) for prod in products]).reshape(n, n)
        counts.flags.writeable = False
        return counts, None, None
    label_types = [_cycle_type(low) for low in _orbit_minima(images)]
    types = sorted(set(label_types))
    index = {t: c for c, t in enumerate(types)}
    label_class = np.array([index[t] for t in label_types], dtype=np.int8)
    codes = _codes(images)
    classes = np.concatenate([label_class[np.searchsorted(codes, _codes(prod))]
                              for prod in products]).reshape(n, n)
    counts = np.array([len(t) for t in types], dtype=np.int8)[classes]
    for table in (counts, classes):
        table.flags.writeable = False
    return counts, classes, types


@lru_cache(maxsize=None)
def _label_groups(p):
    """S_p's labels a in groups g by (#a, #(gamma a^-1)), all a free Haar block's weight
    reads of a: each group's two counts, and T[g, b, c] = #{a in g : class(a^-1 b) = c}."""
    ncyc, ncyc_gamma = _label_table(p, False)[1:3]
    keys = sorted(set(zip(ncyc, ncyc_gamma)))
    group = np.array([keys.index(key) for key in zip(ncyc, ncyc_gamma)])
    _, classes, types = _pair_arrays(p, False)
    n, size = len(group), len(types)
    tensor = np.array([np.bincount((classes[group == g] + size * np.arange(n)).ravel(), minlength=n * size)
                       for g in range(len(keys))])
    groups = *np.array(keys).T, tensor.reshape(len(keys), n, size)
    for table in groups:
        table.flags.writeable = False
    return groups


def _inverse(images):
    """Row-wise inverses of an (M, p) image array."""
    inverse = np.empty_like(images)
    inverse[np.arange(len(images))[:, None], images] = np.arange(images.shape[1])
    return inverse


def _orbit_minima(images):
    """The least point of each point's cycle, row by row: p - 1 gathers
    along the orbits of an (M, p) image array."""
    m, p = images.shape
    offset = np.arange(0, m * p, p)[:, None]
    step = (images + offset).ravel()    # the flat index of each point's image
    point = low = np.arange(m * p)
    for _ in range(p - 1):
        point = step[point]
        low = np.minimum(low, point)
    return low.reshape(m, p) - offset


def _cycle_counts(images):
    """#sigma for each row, in int8: the points that are the least of their cycle."""
    return (_orbit_minima(images) == np.arange(images.shape[1])).sum(axis=1, dtype=np.int8)


def _cycle_type(low):
    """Cycle lengths, sorted descending, from one row of orbit minima."""
    sizes = np.bincount(low)
    return tuple(sorted(sizes[sizes > 0].tolist(), reverse=True))


def _codes(images):
    """Each row read as a base-p number, first point most significant."""
    p = images.shape[-1]
    return images.astype(np.int64) @ p ** np.arange(p - 1, -1, -1, dtype=np.int64)


# ---------------------------------------------------------------------------
# bucket elimination: the sum over labelings that every engine shares
# ---------------------------------------------------------------------------

BUDGET_ENV = "GRAPHSTATE_BUDGET_TERMS"
BUDGET_DEFAULT = 10_000_000


class BudgetSettingError(ValueError):
    """A work budget, the `budget=` argument or BUDGET_ENV, that is not a non-negative integer."""


def work_budget(override=None) -> int:
    """The cap on planned table entries of every gate: the `budget=`
    argument `override`, else BUDGET_ENV, else BUDGET_DEFAULT; either one
    a non-negative integer in any integer-valued notation (such as 1e7)."""
    raw = os.environ.get(BUDGET_ENV, str(BUDGET_DEFAULT)) if override is None else override
    try:
        value = float(raw) if isinstance(raw, str) else raw
        if value >= 0 and value == int(value):    # int() refuses inf and nan
            return int(value)
    except (TypeError, ValueError, OverflowError):
        pass
    raise BudgetSettingError(f"{BUDGET_ENV if override is None else 'budget'} must be a "
                             f"non-negative integer such as 1e7, got {raw!r}")


def _plan(blocks, size, scopes, cap, extra=0):
    """Elimination order of `blocks` for `_contract`, refused if its work exceeds `cap`.

    Every block has `size` labels.  Blocks go in min-degree order, ties to
    the lower index; eliminating block v with neighbours joins them and
    fills size^(1 + #neighbours) entries, none at a single label (p = 1).
    The work is those entries plus the `extra` entries of the caller's own
    tables (its label table among them); callers plan from the sizes
    before building any table.
    """
    adj = {v: set() for v in blocks}
    for scope in scopes:
        for b in adj.keys() & set(scope):
            adj[b] |= adj.keys() & set(scope) - {b}
    order, work = [], extra
    while adj:
        v = min(adj, key=lambda u: (len(adj[u]), u))
        nbrs = adj.pop(v)
        work += size ** (1 + len(nbrs)) if nbrs and size > 1 else 0
        for n in nbrs:
            adj[n] = (adj[n] | nbrs) - {n, v}
        order.append(v)
    if work > cap:
        raise BudgetExceededError(f"moment sum needs {work} table entries (> budget {cap}); "
                                  f"lower p or raise {BUDGET_ENV}", work)
    return order


def _contract(factors, order, size):
    """Sum over all labelings of the blocks, eliminating them in `order`.

    Every block ranges over `size` labels.  A factor is (scope, cost,
    weight, count): arrays with one axis per block of the scope, the cost
    in int64 and the weight and count in Python ints (object dtype), which
    never overflow.  Products add costs and multiply the rest; sums keep
    the least cost and add the rest at it.  A bucket whose costs are all 0
    (every finite-N sum) is summed out by one object einsum per array,
    except that counts which are all broadcasts of one value (as every
    finite-N count is) sum to one more broadcast, size times their product.
    Any other takes the least cost over the block's axis and sums weights
    and counts where it is reached, a slice of neighbour labelings at a
    time, so no temporary exceeds _SLICE_ENTRIES entries (or one row of
    `size`).
    """
    for v in order:
        bucket = [f for f in factors if v in f[0]]
        factors = [f for f in factors if v not in f[0]]
        nbrs = tuple(sorted({b for f in bucket for b in f[0]} - {v}))
        shape = (size,) * len(nbrs)
        # each factor with its axes in the order nbrs, v: v's axis is last
        axes = {b: a for a, b in enumerate(nbrs + (v,))}
        local = []
        for scope, *arrays in bucket:
            scope = [axes[b] for b in scope]
            turn = np.argsort(scope)
            local.append((sorted(scope), *(x.transpose(turn) for x in arrays)))
        if not any(f[1].any() for f in local):
            def sum_out(k):
                return np.asarray(np.einsum(*[x for f in local for x in (f[k], f[0])],
                                            list(range(len(nbrs)))), dtype=object)
            weight = sum_out(2)
            if any(any(f[3].strides) for f in local):
                count = sum_out(3)
            else:   # every count is a broadcast of one value, and so is their sum
                count = np.broadcast_to(
                    np.array(size * math.prod(f[3].flat[0] for f in local), dtype=object), shape)
            factors.append((nbrs, np.zeros(shape, dtype=np.int64), weight, count))
            continue
        total = math.prod(shape)
        message = [np.empty(total, dtype=t) for t in (np.int64, object, object)]
        step = max(1, _SLICE_ENTRIES // size)
        for lo in range(0, total, step):
            at = slice(lo, lo + step)
            # the neighbours' labels in this slice, then v's: every label
            flat = np.arange(lo, min(lo + step, total))
            labels = [*(np.unravel_index(flat, shape) if nbrs else ()), slice(None)]
            cost = np.zeros((len(flat), size), dtype=np.int64)
            for scope, c, _, _ in local:     # each holds v, on its last axis
                cost += c[tuple(labels[a] for a in scope)]
            least = cost.min(axis=1)
            rows, cols = np.nonzero(cost == least[:, None])
            labels = [x[rows] for x in labels[:-1]] + [cols]
            starts = np.flatnonzero(np.diff(rows, prepend=-1))
            message[0][at] = least
            for k in (1, 2):
                terms = math.prod(f[k + 1][tuple(labels[a] for a in f[0])] for f in local)
                message[k][at] = np.add.reduceat(terms, starts)
        factors.append((nbrs, *(x.reshape(shape) for x in message)))
    cost, weight, count = 0, 1, 1
    for _, c, w, n in factors:
        cost, weight, count = cost + int(c), weight * w[()], count * n[()]
    return cost, weight, count


_SLICE_ENTRIES = 1 << 13
_ONE = np.array(1, dtype=object)

# ---------------------------------------------------------------------------
# Catalan and Fuss-Catalan numbers
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


# ---------------------------------------------------------------------------
# poset-tuple counting in NC(p)
# ---------------------------------------------------------------------------

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


def count_poset_tuples(poset: ConstraintPoset, p: int) -> int:
    """Number of NC(p)-labelings of the poset nodes respecting all constraints.

    A pin-free poset that is recursively rooted is counted by the free
    moment-cumulant recursion of `_rooted_moments`, in O(p^3) integer
    operations per node and with no NC(p) table, at any p.  Every other
    poset is counted by `_poset_sum` over the NC(p) labels, up to NC_CAP
    points.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    counts = None if poset.pins else _rooted_moments(poset, p)
    if counts is not None:
        return counts[p]
    cost, _, count = _poset_sum(poset, p)
    return count if cost == 0 else 0


def _poset_sum(poset: ConstraintPoset, p: int, x=None, cap=math.inf):
    """(least cost, weighted sum, count) over the labelings of the poset's
    nodes by NC(p), at a cost of 1 per violated cover relation or pin.

    At cost 0 these are the order-preserving maps sigma, and the weighted
    sum adds prod_v x_v^(#sigma_v) over them (every x_v is 1 by default).
    A pin is a node whose one label of cost 0 is id (# = p) or gamma
    (# = 1); a <= b iff #a + #(a^-1 b) = p + #b.  `_contract` sums the
    labelings in the order `_plan` gives, refused past `cap` planned
    entries.  A weight x = n/d enters as n^# d^(p - #), so that the sum
    stays integral, and the sum is divided by d^p.
    """
    x = [1] * poset.k if x is None else x
    rel = set(poset.relations)
    cover = [(a, b) for a, b in rel
             if not any((a, c) in rel and (c, b) in rel for c in range(poset.k))]
    n = catalan(p)
    order = _plan(range(poset.k), n, cover, cap, n)
    ncyc = np.array(_label_table(p, True)[1])
    factors, scale = [], Fraction(1)
    for v in range(poset.k):
        num, den = Fraction(x[v]).as_integer_ratio()
        weight = np.array([num ** t * den ** (p - t) for t in range(p + 1)], dtype=object)[ncyc]
        pin = {"zero": p, "one": 1}.get(poset.pins.get(v))
        cost = (ncyc != pin).astype(np.int64) if pin else np.zeros(n, dtype=np.int64)
        factors.append(((v,), cost, weight, np.broadcast_to(_ONE, (n,))))
        scale /= den ** p
    if cover:
        violated = (ncyc[:, None] + _pair_arrays(p, True)[0] != p + ncyc).astype(np.int64)
        ones = np.broadcast_to(_ONE, violated.shape)
        factors += [((a, b), violated, ones, ones) for a, b in cover]
    cost, weight, count = _contract(factors, order, n)
    return cost, scale * weight, count


def _rooted_moments(poset: ConstraintPoset, p: int, x=None):
    """[W(P, 0), ..., W(P, p)] for a recursively rooted poset P, else None.

    W(P, n) sums prod_v x_v^(#sigma_v) (1 by default, a count) over the
    order-preserving maps sigma of P into NC(n), pins ignored, and is the
    product over P's connected components.  If a component has a least
    node r, a map sends r to some pi and the rest R into [pi, 1], which
    tau -> pi^-1 tau maps onto prod over the cycles c of pi^-1 gamma of
    NC(|c|), #tau = #pi - n + sum_c #tau_c (Biane, Discrete Math. 175,
    1997): W_n = y x_r^n m_n, with y the product of x over the component
    and m the moments of the free cumulants kappa_n = W(R, n) / y.  If it
    has a greatest node r, R goes into [0, pi] = prod over the blocks B of
    pi of NC(|B|), and W holds the moments of kappa_n = x_r W(R, n) (Nica
    & Speicher, Lectures on the Combinatorics of Free Probability, Lecture
    9).  A component whose every such R fails to be rooted in turn, or
    that has neither node, makes P not rooted.
    """
    x = [1] * poset.k if x is None else x
    up = {v: set() for v in range(poset.k)}
    down = {v: set() for v in range(poset.k)}
    for a, b in poset.relations:
        up[a].add(b)
        down[b].add(a)

    @lru_cache(maxsize=None)
    def moments(nodes):
        total, rest = [1] * (p + 1), nodes
        while rest:
            comp, stack = set(), [min(rest)]
            while stack:
                v = stack.pop()
                if v not in comp:
                    comp.add(v)
                    stack += (up[v] | down[v]) & rest
            rest -= comp
            least, greatest = ([v for v in comp if not side[v] & comp] for side in (down, up))
            inner = moments(frozenset(comp) - set(least)) if len(least) == 1 else None
            if inner is not None:       # a least node r
                r, y = least[0], math.prod(x[v] for v in comp)
                # a division by y = 1 would turn integer counts into floats
                m = _free_moments([c / y for c in inner] if y != 1 else inner)
                w = [1] + [y * x[r] ** n * m[n] for n in range(1, p + 1)]
            else:                       # a greatest node r
                inner = moments(frozenset(comp) - set(greatest)) if len(greatest) == 1 else None
                if inner is None:
                    return None
                w = _free_moments([x[greatest[0]] * c for c in inner])
            total = [a * b for a, b in zip(total, w)]
        return total

    return moments(frozenset(range(poset.k)))


def _free_moments(kappa):
    """Moments m_0..m_p of the free cumulants kappa[1..p] (kappa[0] unused).

    m_n sums kappa_s [z^(n-s)] M(z)^s over the size s of the block of 1,
    with M(z) = sum_j m_j z^j; power[s] grows by one coefficient per n.
    """
    p = len(kappa) - 1
    m, power = [1], [[1] + [0] * p]
    for n in range(1, p + 1):
        power.append([])
        for s in range(1, n + 1):
            j = n - s
            power[s].append(sum(m[i] * power[s - 1][j - i] for i in range(j + 1)))
        m.append(sum(kappa[s] * power[s][n - s] for s in range(1, n + 1)))
    return m
