"""Moment engines and limit-law classification for graph-state marginals.

Every moment is one sum over labelings of the vertex blocks, with a factor
per block label and one per pair of bonded blocks.  `_labeling_sum` builds
it for all three engines and `_contract` sums it by bucket elimination,
one array message per eliminated block, in exact integers.
Each weight is a monomial d^t N^(e t) in a cycle count t.
`asymptotic_moment` keeps N formal over the NC(p) geodesics: a monomial is
the entry (e (p - t), d^t, 1), and the sum keeps the least N-deficit,
X(p-1); at unit dimensions it counts the maps of the max flow's residual
poset into NC(p) instead, where that poset is recursively rooted.  The
flow and the poset do not depend on p, so `_solved` keeps them per
marginal for every order and caller.
`exact_moment` and `exact_moment_gaussian` plug N in over S_p,
(0, (d N^e)^t, 1), with a Weingarten or a Wick (1/dim^p) block kernel.
The Haar engines pin fully traced blocks to the identity and fully kept
ones to the long cycle, where a Haar unitary integrates out, and
`_labeling_sum` takes them out of the sum it builds.  The Wick sum pins
nothing, as a Gaussian block does not drop out.  `minimizer_set` checks
the asymptotic engine by brute force, with pins of its own; the law
classifiers sit on top.  The label and pair tables live in `combinatorics`.
"""

from __future__ import annotations

import functools
import math
import os
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .combinatorics import (
    ConstraintPoset,
    EnumerationCapError,
    _label_groups,
    _label_table,
    _pair_arrays,
    _pair_table,
    _rooted_moments,
    catalan,
    count_poset_tuples,
    enumerate_nc,
    fuss_catalan,
    mp_moment,
)
from .flow import MinimizerConsistencyError, build_network, max_flow, residual_poset
from .graphs import MarginalSpec
from .spectra import fc_entropy, mp_entropy
from .weingarten import wg_exact

TUPLES_BUDGET_DEFAULT = 5_000_000
TERMS_BUDGET_DEFAULT = 10_000_000
TUPLES_BUDGET_ENV = "GRAPHSTATE_BUDGET_TUPLES"
TERMS_BUDGET_ENV = "GRAPHSTATE_BUDGET_TERMS"


class BudgetExceededError(RuntimeError):
    """Enumeration would exceed the configured work budget."""

    def __init__(self, message, estimated):
        super().__init__(message)
        self.estimated = estimated


class BudgetSettingError(ValueError):
    """A budget environment variable does not hold an integer."""


def tuples_budget(override=None) -> int:
    return _budget(override, TUPLES_BUDGET_ENV, TUPLES_BUDGET_DEFAULT)


def terms_budget(override=None) -> int:
    return _budget(override, TERMS_BUDGET_ENV, TERMS_BUDGET_DEFAULT)


def _budget(override, env, default) -> int:
    if override is not None:
        return int(override)
    raw = os.environ.get(env, str(default))
    try:
        if float(raw).is_integer():     # any integer-valued notation, such as 5e6
            return int(float(raw))
    except ValueError:
        pass
    raise BudgetSettingError(f"{env} must be an integer such as 5e6, got {raw!r}")


# ---------------------------------------------------------------------------
# the max flow, solved once per marginal
# ---------------------------------------------------------------------------

class _Solved:
    """A marginal's flow network and a max flow of it, and its residual poset's counts.

    The exponent X and the residual poset depend on the graph and its trace
    set alone, not on p.  `_solved` keeps them for the last 64 marginals,
    so every order, engine and report reads one solve; callers must not
    change what they read.  The poset is built when first asked for, and a
    MinimizerConsistencyError it raises is raised again on every ask, as
    nothing is kept for it.  The counts are kept at the highest order asked.
    """

    def __init__(self, marginal: MarginalSpec):
        self.marginal = marginal
        self.network = build_network(marginal)
        self.flow = max_flow(self.network)
        self._counts = ()

    @functools.cached_property
    def poset(self):
        return residual_poset(self.marginal, self.flow)

    def rooted_counts(self, p: int):
        """`_rooted_moments` of the poset up to at least p, or None if it is not rooted."""
        if self._counts is not None and len(self._counts) <= p:
            self._counts = _rooted_moments(self.poset, p)
        return self._counts


_solved = functools.lru_cache(maxsize=64)(_Solved)


def marginal_max_flow(marginal: MarginalSpec) -> int:
    """The max flow X of the marginal's network."""
    return _solved(marginal).flow.value


# ---------------------------------------------------------------------------
# the brute-force minimizer oracle
# ---------------------------------------------------------------------------

@dataclass
class MinimizerSet:
    """All geodesic tuples achieving the max-flow cost bound.

    `tuples` holds NC(p)-indices per block (into `partitions`); pinned
    blocks are fixed at the discrete / full partition according to type.
    """

    p: int
    x: int
    partitions: tuple          # enumerate_nc(p), shared index space
    tuples: list               # list of tuples of partition indices
    pinned: dict               # block -> "zero" | "one"

    def __len__(self):
        return len(self.tuples)


def minimizer_set(marginal: MarginalSpec, p: int, budget=None) -> MinimizerSet:
    """Enumerate the minimizing geodesic tuples at order p.

    Fully traced blocks are pinned to the identity, fully kept blocks to
    the long cycle; the remaining blocks range over all of NC(p).  Kept
    are exactly the tuples whose cost equals X(p-1) where X is the max
    flow; the enumerated minimum is checked against that bound.
    """
    x = marginal_max_flow(marginal)
    target = x * (p - 1)

    pinned = {}
    free = []
    for i, view in enumerate(marginal.blocks):
        if view.kind == "T":
            pinned[i] = "zero"
        elif view.kind == "S":
            pinned[i] = "one"
        else:
            free.append(i)

    k = marginal.k
    cross = {pair: len(bonds) for pair, bonds in marginal.cross_bonds.items()}

    est = catalan(p) ** len(free) + (catalan(p) ** 2 if cross else 0)
    cap = tuples_budget(budget)
    if est > cap:
        raise BudgetExceededError(
            f"minimizer search needs ~{est} table entries (> budget {cap}); "
            f"lower p or raise {TUPLES_BUDGET_ENV}", est)
    parts = enumerate_nc(p)
    _, ncyc, ncyc_gamma, idx_zero, idx_one = _label_table(p, True)
    pair_ncyc = _pair_table(p, True)[0] if cross else None
    kept_w = [len(v.kept) for v in marginal.blocks]
    traced_w = [len(v.traced) for v in marginal.blocks]

    # assignment order: pinned blocks first (their cost is a constant),
    # then free blocks; cross terms are charged when the later block lands
    order = sorted(pinned) + free
    pos = {blk: t for t, blk in enumerate(order)}
    earlier_cross = [[] for _ in order]
    for (a, b), weight in cross.items():
        later, earlier = (a, b) if pos[a] > pos[b] else (b, a)
        earlier_cross[pos[later]].append((pos[earlier], weight))

    choices = []
    for blk in order:
        if blk in pinned:
            choices.append((idx_zero,) if pinned[blk] == "zero" else (idx_one,))
        else:
            choices.append(tuple(range(len(parts))))

    best = [None]
    hits = []
    assign = [0] * k

    def rec(t, cost):
        if cost > target:
            return
        if t == k:
            if best[0] is None or cost < best[0]:
                best[0] = cost
            if cost == target:
                hits.append(tuple(assign))
            return
        blk = order[t]
        for c in choices[t]:
            # lengths are p - #: |gamma b^-1| on kept legs, |b| on traced ones
            step = kept_w[blk] * (p - ncyc_gamma[c]) + traced_w[blk] * (p - ncyc[c])
            for other_t, weight in earlier_cross[t]:
                step += weight * (p - pair_ncyc[assign[other_t]][c])
            assign[t] = c
            rec(t + 1, cost + step)

    rec(0, 0)

    if best[0] != target:
        raise MinimizerConsistencyError(
            f"enumerated minimum {best[0]} != X(p-1) = {target} at p={p}")

    # restore block order inside each tuple
    unscramble = [pos[blk] for blk in range(k)]
    tuples = [tuple(hit[unscramble[blk]] for blk in range(k)) for hit in hits]
    return MinimizerSet(p=p, x=x, partitions=parts, tuples=tuples, pinned=pinned)


# ---------------------------------------------------------------------------
# labeling sums over the block graph
# ---------------------------------------------------------------------------

def _labeling_sum(marginal: MarginalSpec, p: int, N, haar: bool, budget):
    """(least cost, prefactor * weight, count) of the labeling sum behind every engine.

    Every weight is a monomial d^t N^(e t) in a cycle count t.  N=None keeps
    N formal: labels are NC(p) geodesics, and the monomial is the entry
    (e (p - t), d^t, 1), whose cost is its N-deficit.  An integer N labels
    by S_p and plugs N in: (0, (d N^e)^t, 1).  Haar sums pin T blocks to id
    and S blocks to gamma, whose factor is then exactly 1, and sum over the
    free blocks alone: a bond from a pin to a free label b is a factor of
    b at #b (id) or #(gamma b^-1) (gamma), and a bond between two pins is a
    constant at p (equal pins) or 1.  A free Haar block at finite N weighs
    a Weingarten column at its dimension; every other free block weighs its
    monomials, over dim_block^p in the prefactor.  Each factor is an array
    over its scope, read off the p + 1 monomials by the cycle counts.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if N is not None and N < 1:
        raise ValueError("N must be >= 1")
    nc = N is None
    pins = {i: v.kind for i, v in enumerate(marginal.blocks) if haar and v.kind in ("T", "S")}
    free = [i for i in range(marginal.k) if i not in pins]
    # without free blocks no label table is built, NC(p) or S_p
    n_labels = (catalan(p) if nc else math.factorial(p)) if free else 0
    # a free Haar block at finite N needs a Weingarten column per label
    columns = len(free) * n_labels ** 2 if haar and not nc and n_labels > 1 else 0
    cap, env = ((tuples_budget(budget), TUPLES_BUDGET_ENV) if nc
                else (terms_budget(budget), TERMS_BUDGET_ENV))
    order = _plan(free, n_labels, marginal.cross_bonds, cap, env, n_labels + columns)

    def monomial(e, d, t):
        return (e * (p - t), d ** t) if nc else (0, (d * N ** e) ** t)

    def monomials(e, d):
        """(cost, weight) of the monomial at t = 0..p: int64 and Python-int arrays."""
        cost, weight = zip(*(monomial(e, d, t) for t in range(p + 1)))
        return np.array(cost, dtype=np.int64), np.array(weight, dtype=object)

    prefactor = Fraction(1, monomial(marginal.graph.m, marginal.dim_all_sqrt, p)[1])
    for view in marginal.blocks:
        prefactor *= monomial(len(view.loop_bonds), view.dim_loops, p)[1]
    unary = {}
    if free:
        ncyc, ncyc_gamma = map(np.array, _label_table(p, nc)[1:3])
        pin_rows = {"T": ncyc, "S": ncyc_gamma}     # #(a^-1 b) for a = id, gamma
        if any(not pins.keys() & bond for bond in marginal.cross_bonds):
            pair = _pair_arrays(p, nc)[0]
    for i in free:
        view = marginal.blocks[i]
        kept_cost, kept_weight = monomials(len(view.kept), view.dim_kept)
        traced_cost, traced_weight = monomials(len(view.traced), view.dim_traced)
        cost = kept_cost[ncyc_gamma] + traced_cost[ncyc]    # all 0 at finite N
        if haar and not nc:     # a Weingarten column, from one weight per label group
            ncyc_g, ncyc_gamma_g = _label_groups(p)[:2]
            weight, denominator = _weingarten_column(p, view.dim_block * N ** len(view.members),
                                                     kept_weight[ncyc_gamma_g] * traced_weight[ncyc_g])
            prefactor /= denominator
        else:   # the 1/dim^p kernel, kept out of the sum so that it stays integral
            weight = kept_weight[ncyc_gamma] * traced_weight[ncyc]
            prefactor /= monomial(len(view.members), view.dim_block, p)[1]
        unary[i] = cost, weight

    factors, shared = [], {}
    for (i, j), bonds in marginal.cross_bonds.items():
        key = len(bonds), marginal.cross_dim(i, j)
        entries = monomials(*key)
        if i in pins and j in pins:     # a factor on no block
            factors.append(_factor((), entries, np.array(p if pins[i] == pins[j] else 1)))
        elif i in pins or j in pins:
            pin, v = (i, j) if i in pins else (j, i)
            rows = pin_rows[pins[pin]]
            unary[v] = unary[v][0] + entries[0][rows], unary[v][1] * entries[1][rows]
        else:
            # alike bonds share their arrays, of n_labels^2 entries each
            if key not in shared:
                shared[key] = _factor((), entries, pair)[1:]
            factors.append(((i, j), *shared[key]))
    factors += [_factor((i,), entries, np.arange(n_labels)) for i, entries in unary.items()]
    cost, weight, count = _contract(factors, order, n_labels)
    return cost, prefactor * weight, count


def _factor(scope, entries, index):
    """(scope, cost, weight, count) with entries[index] as its cost and weight.

    Every count is 1, and an array whose entries are all alike is a
    read-only broadcast of that one value, so an NC(8) pair of unit
    dimension stores only its int64 costs.
    """
    arrays = [np.broadcast_to(column[:1].reshape(()), index.shape) if (column == column[0]).all()
              else np.asarray(column[index], dtype=column.dtype) for column in entries]
    return scope, *arrays, np.broadcast_to(_ONE, index.shape)


_ONE = np.array(1, dtype=object)


@functools.lru_cache(maxsize=64)
def _weingarten_rows(p, dim):
    """(Q, D) with Q[g, b] / D = sum over a in group g of Wg(a^-1 b, dim): T . wg
    in Python ints, the table scaled by the lcm D of its denominators; read-only."""
    wg = list(map(wg_exact(p, dim).by_type, _pair_arrays(p, False)[2]))
    denominator = math.lcm(*(w.denominator for w in wg))
    rows = np.dot(_label_groups(p)[2], np.array([int(w * denominator) for w in wg], dtype=object))
    rows.flags.writeable = False
    return rows, denominator


def _weingarten_column(p, dim, weights):
    """(h, D), h[b] / D = sum_a weights[g(a)] Wg(a^-1 b, dim), one weight per label group g."""
    rows, denominator = _weingarten_rows(p, dim)
    return np.dot(weights, rows), denominator


def _plan(blocks, size, scopes, cap, env, extra=0):
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
                                  f"lower p or raise {env}", work)
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


# ---------------------------------------------------------------------------
# the three engines
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class MomentReport:
    """Leading term of the p-th moment: coefficient * N^exponent."""

    p: int
    exponent: int
    coefficient: Fraction
    minimizer_count: int


def asymptotic_moment(marginal: MarginalSpec, p: int, budget=None) -> MomentReport:
    """Exact leading coefficient of E tr(rho^p) and its N-exponent.

    Labels are NC(p) geodesics, T blocks pinned to id and S blocks to
    gamma.  A labeling costs sum_i |kept_i| |gamma b_i^-1| + |traced_i| |b_i|
    plus, per cross bond, |b_i^-1 b_j|, and weighs dimension factors raised
    to cycle counts; the coefficient sums the weights at the least cost,
    which must equal the max-flow bound X(p-1).  With the loop-bond factor
    and the square-root normalization, p=1 always reports (0, 1).

    When every subsystem has d = 1, every such labeling weighs 1, and the
    labelings are the order-preserving maps of `flow.residual_poset` into
    NC(p).  If that poset is recursively rooted, the coefficient is their
    count by `count_poset_tuples`' recursion: no table, no plan and no
    budget refusal.  Every other case runs `_labeling_sum`, gated by the
    tuples budget and NC_CAP.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    tuples_budget(budget)   # a malformed budget setting is refused on either path
    solved = _solved(marginal)
    x = solved.flow.value
    if all(d == 1 for _, d in marginal.graph.dims):
        counts = solved.rooted_counts(p)
        if counts is not None:
            return MomentReport(p=p, exponent=-x * (p - 1), coefficient=Fraction(counts[p]),
                                minimizer_count=counts[p])
    cost, coefficient, count = _labeling_sum(marginal, p, None, True, budget)
    if cost != x * (p - 1):
        raise MinimizerConsistencyError(
            f"least labeling cost {cost} != X(p-1) = {x * (p - 1)} at p={p}")
    return MomentReport(p=p, exponent=-x * (p - 1), coefficient=coefficient,
                        minimizer_count=count)


def moment_table(marginal: MarginalSpec, p_max: int, budget=None):
    """MomentReports for p = 1..p_max."""
    # p_max first, so that a refused top order is refused before the lower orders run
    orders = list(range(1, p_max + 1))
    reports = {p: asymptotic_moment(marginal, p, budget=budget) for p in orders[-1:] + orders[:-1]}
    return [reports[p] for p in orders]


def exact_moment(marginal: MarginalSpec, p: int, N: int, budget=None) -> Fraction:
    """E tr(rho^p) at finite N, exactly, via the full Weingarten sum.

    Label b of a block weighs h[b] = sum_a weight(a) Wg(a^-1 b), from the
    Weingarten table at the block's dimension.  h is delta(b, id) on a
    fully traced block and delta(b, gamma) on a fully kept one, so those
    are pinned and need no table.
    """
    return _labeling_sum(marginal, p, N, True, budget)[1]


def exact_moment_gaussian(marginal: MarginalSpec, p: int, N: int, budget=None) -> Fraction:
    """E tr(rho^p) at finite N for the Gaussian-block model, exactly.

    The sum of `exact_moment` with Wick weights (kept/traced factor over
    dim^p) and no pinned blocks: the exact oracle for the Ginibre sampling
    mode, an ensemble apart from the Haar one.  The two agree to leading
    order on `one_loop` and the RRRR and SRR cycles but not in general: on
    TSRR, N^4 times this tends to 5 and N^4 times `exact_moment` to 3.
    """
    return _labeling_sum(marginal, p, N, False, budget)[1]


# ---------------------------------------------------------------------------
# distribution identities
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DistributionId:
    """Tagged identification of a limiting eigenvalue law.

    kind: one of maximally_mixed, dirac, free_poisson, fuss_catalan,
    classical_product, poset_law, unknown.  Payload fields are used per
    kind; unused ones stay None.  `moment` and `entropy_constant` hold the
    law formulas of every kind.
    """

    kind: str
    c: Fraction = None            # free_poisson parameter
    s: int = None                 # fuss_catalan order
    factors: tuple = None         # classical_product parts
    poset: ConstraintPoset = None
    rank_coeff: Fraction = None   # maximally_mixed/dirac support ~ coeff * N^exp
    rank_exponent: int = None
    moments: tuple = None         # unknown: raw coefficient sequence

    def moment(self, p: int) -> Fraction:
        """The p-th moment coefficient the law implies, on `moment_table`'s scale.

        A flat spectrum on ~rank_coeff * N^x states gives rank_coeff^(1-p);
        free Poisson gives the Narayana sum d^(1-p) c^-p M_p(c) at scale
        d = rank_coeff; Fuss-Catalan gives its numbers; a product of
        independent laws multiplies its factors' moments; a poset law
        counts its NC(p)-labelings.
        """
        if self.kind in ("dirac", "maximally_mixed"):
            return Fraction(self.rank_coeff) ** (1 - p)
        if self.kind == "free_poisson":
            scale = Fraction(self.rank_coeff if self.rank_coeff is not None else 1)
            c = Fraction(self.c)
            return scale ** (1 - p) * c ** -p * mp_moment(c, p)
        if self.kind == "fuss_catalan":
            return Fraction(fuss_catalan(self.s, p))
        if self.kind == "classical_product":
            return math.prod(f.moment(p) for f in self.factors)
        if self.kind == "poset_law":
            return Fraction(count_poset_tuples(self.poset, p))
        raise ValueError(f"no moment rule for kind {self.kind!r}")

    def entropy_constant(self):
        """Constant of the leading entropy E H ~ x ln N + constant, or None.

        None for the laws without a closed form: poset laws, unknown
        sequences and products with such a factor.
        """
        if self.kind == "dirac":
            return 0.0
        if self.kind == "maximally_mixed":
            return math.log(float(self.rank_coeff))
        if self.kind == "free_poisson":
            scale = self.rank_coeff if self.rank_coeff is not None else 1
            return (math.log(float(self.c * scale))
                    + mp_entropy(self.c) / float(self.c))
        if self.kind == "fuss_catalan":
            return float(fc_entropy(self.s))
        if self.kind == "classical_product":
            total = 0.0
            for f in self.factors:
                if f.kind == "free_poisson":
                    total += mp_entropy(f.c)
                elif f.kind == "fuss_catalan":
                    total += float(fc_entropy(f.s))
                else:
                    return None
            return total
        return None

    def describe(self) -> str:
        if self.kind == "maximally_mixed":
            return f"maximally mixed on ~{self.rank_coeff}*N^{self.rank_exponent}"
        if self.kind == "dirac":
            return "unit point mass after rescaling"
        if self.kind == "free_poisson":
            return f"free Poisson (Marchenko-Pastur), c={self.c}"
        if self.kind == "fuss_catalan":
            return f"Fuss-Catalan, order {self.s}"
        if self.kind == "classical_product":
            return " x ".join(f.describe() for f in self.factors)
        if self.kind == "poset_law":
            return f"poset law on {self.poset.relations}"
        return f"unclassified, moments {[str(m) for m in (self.moments or ())]}"

    def to_json(self) -> dict:
        out = {"kind": self.kind}
        if self.c is not None:
            out["c"] = str(self.c)
        if self.s is not None:
            out["s"] = self.s
        if self.factors is not None:
            out["factors"] = [f.to_json() for f in self.factors]
        if self.poset is not None:
            out["poset"] = {"k": self.poset.k, "relations": list(map(list, self.poset.relations))}
        if self.rank_coeff is not None:
            out["rank"] = {"coeff": str(self.rank_coeff), "exponent": self.rank_exponent}
        if self.moments is not None:
            out["moments"] = [str(m) for m in self.moments]
        return out


def _free_poisson_fits(coeffs):
    """(c, d) fitting coeffs[p-1] = d^(1-p) c^-p M_p(c) at p = 2, 3, c >= 1 first.

    Eliminating d from the p=2,3 equations leaves a quadratic in 1/c with
    rational coefficients; only rational roots with c, d > 0 are fits.
    """
    if len(coeffs) < 3:
        return
    c2, c3 = coeffs[1], coeffs[2]
    # v = 1/c solves (c3 - c2^2) v^2 + (2 c3 - 3 c2^2) v + (c3 - c2^2) = 0
    a = c3 - c2 ** 2
    b = 2 * c3 - 3 * c2 ** 2
    if a == 0:
        # forces v = 0, i.e. an infinite parameter: not a free Poisson law
        return
    root = _rational_sqrt(b * b - 4 * a * a)
    if root is None:
        return
    # the sequence determines the law only up to the Wishart aspect-ratio
    # duality (c, d) <-> (1/c, c*d); the roots' product is 1, so the
    # smaller v is the atomless c >= 1 description, preferred
    for v in sorted({(-b + root) / (2 * a), (-b - root) / (2 * a)}):
        if v > 0 and c2 > 0:
            yield 1 / v, (1 + v) / c2


def _rational_sqrt(x: Fraction):
    """Exact square root of a nonnegative rational, or None."""
    x = Fraction(x)
    if x < 0:
        return None
    num, den = math.isqrt(x.numerator), math.isqrt(x.denominator)
    if num * num != x.numerator or den * den != x.denominator:
        return None
    return Fraction(num, den)


def _factorizations(target: int, min_part: int = 2):
    """Multisets of integers >= min_part with the given product."""
    if target == 1:
        yield ()
        return
    for part in range(min_part, target + 1):
        if target % part == 0:
            for rest in _factorizations(target // part, part):
                yield (part,) + rest


def classify(marginal: MarginalSpec, p_max: int = 6, budget=None) -> DistributionId:
    """Conservative tag for the limiting law: `classify_reports` of the moment table."""
    return classify_reports(moment_table(marginal, p_max, budget=budget))


def classify_reports(reports) -> DistributionId:
    """Tag the limiting law from the reports of `moment_table` for p = 1..p_max.

    The first candidate law whose `moment` reproduces every order exactly
    is reported; otherwise the sequence stays unknown.
    """
    coeffs = [r.coefficient for r in reports]
    x = -reports[1].exponent if len(coeffs) >= 2 else 0
    for law in _candidate_laws(coeffs, x):
        try:
            if all(law.moment(p) == coeff for p, coeff in enumerate(coeffs, start=1)):
                return law
        except EnumerationCapError:
            continue
    return DistributionId(kind="unknown", moments=tuple(coeffs))


def _candidate_laws(coeffs, x):
    """Laws the sequence may follow, most specific first.

    A flat spectrum (Dirac / maximally mixed) at the scale of c2, the free
    Poisson fits, Fuss-Catalan of the order c2 fixes, the classical
    products of Fuss-Catalan laws that c2 factors into, then the V poset
    (one node below two).
    """
    c2 = coeffs[1] if len(coeffs) >= 2 else Fraction(1)
    if c2 == 1:
        yield DistributionId(kind="dirac", rank_coeff=Fraction(1), rank_exponent=x)
    else:
        yield DistributionId(kind="maximally_mixed", rank_coeff=1 / c2, rank_exponent=x)
    for c, scale in _free_poisson_fits(coeffs):
        yield DistributionId(kind="free_poisson", c=c, rank_coeff=scale, rank_exponent=x)
    if c2.denominator == 1 and c2 > 1:
        # FC(s, 2) = s + 1 fixes the only Fuss-Catalan order to try
        if c2 >= 3:
            yield DistributionId(kind="fuss_catalan", s=int(c2) - 1)
        for combo in _factorizations(int(c2)):
            if len(combo) >= 2:
                yield DistributionId(kind="classical_product",
                                     factors=tuple(_fc_law(part - 1) for part in combo))
    yield DistributionId(kind="poset_law", poset=ConstraintPoset(k=3, relations=[(0, 1), (0, 2)]))


def _fc_law(s: int) -> DistributionId:
    """Fuss-Catalan law of order s; order 1 is free Poisson with c = 1."""
    if s == 1:
        return DistributionId(kind="free_poisson", c=Fraction(1))
    return DistributionId(kind="fuss_catalan", s=s)


# ---------------------------------------------------------------------------
# closed-form families
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class FamilyReport:
    """Closed-form prediction for one of the solved families.

    entropy(N) is the leading expression in natural log; purity terms are
    (coefficient, exponent) for coefficient * N^exponent.  The entropy
    constant and the purity coefficient are read off the law.
    """

    law: DistributionId
    flow: int
    entropy_log_term: int          # multiplies ln N
    purity_exponent: int
    exact_at_finite_n: bool = False
    rescale_note: str = ""

    @property
    def entropy_constant(self) -> float:
        return self.law.entropy_constant()

    @property
    def purity_coeff(self) -> Fraction:
        return self.law.moment(2)

    def entropy(self, n: float) -> float:
        return self.entropy_log_term * math.log(n) + self.entropy_constant

    def purity(self, n: float) -> float:
        return float(self.purity_coeff) * float(n) ** self.purity_exponent


def one_unitary_marginal(kept: int, traced_in_block: int, external: int,
                         d_kept: int = 1, d_traced: int = 1, d_external: int = 1) -> FamilyReport:
    """Marginal whose surviving subsystems sit inside a single vertex.

    `kept` and `traced_in_block` count subsystems of the surviving vertex
    that are kept / traced; `external` counts its bonds to other (fully
    traced) vertices.  Loop bonds inside the vertex account for the rest.
    The comparison of kept against traced_in_block + external decides
    between a flat spectrum on the smaller side and a free Poisson limit
    at the critical point.
    """
    if kept < 0 or traced_in_block < 0 or external < 0:
        raise ValueError("cardinalities must be nonnegative")
    if kept == 0:
        raise ValueError("need at least one kept subsystem")

    env = traced_in_block + external
    d_env = d_traced * d_external

    if traced_in_block == 0:
        # nothing of the surviving vertex is traced: rho is exactly a
        # normalized Haar projector of rank d_external * N^external
        law = DistributionId(kind="maximally_mixed", rank_coeff=Fraction(d_external),
                             rank_exponent=external)
        return FamilyReport(law=law, flow=min(kept, external),
                            entropy_log_term=external, purity_exponent=-external,
                            exact_at_finite_n=True)

    if kept < env:
        law = DistributionId(kind="maximally_mixed", rank_coeff=Fraction(d_kept),
                             rank_exponent=kept)
        return FamilyReport(law=law, flow=kept, entropy_log_term=kept, purity_exponent=-kept)

    if kept == env:
        c = Fraction(d_env, d_kept)
        law = DistributionId(kind="free_poisson", c=c,
                             rank_coeff=Fraction(d_kept), rank_exponent=kept)
        return FamilyReport(law=law, flow=kept, entropy_log_term=kept, purity_exponent=-kept,
                            rescale_note=f"rescale by {d_env}*N^{kept}")

    law = DistributionId(kind="maximally_mixed", rank_coeff=Fraction(d_env),
                         rank_exponent=env)
    return FamilyReport(law=law, flow=env, entropy_log_term=env, purity_exponent=-env)


def star_marginal(m: int, s: int, t: int) -> FamilyReport:
    """Limit law and entropy/purity forecast for an m-star marginal.

    s satellites and t center subsystems survive.  Branches: an empty
    side is exactly maximally mixed at every N; an unbalanced trace gives
    a flat limit on the smaller side; the balanced case s+t = m gives the
    square-case free Poisson law.
    """
    if not (0 <= s <= m and 0 <= t <= m):
        raise ValueError(f"need 0 <= s,t <= m; got s={s}, t={t}")
    if s == 0 or t == 0:
        r = max(s, t)
        law = DistributionId(kind="maximally_mixed", rank_coeff=Fraction(1), rank_exponent=r)
        return FamilyReport(law=law, flow=r, entropy_log_term=r, purity_exponent=-r,
                            exact_at_finite_n=True)
    if s + t < m:
        law = DistributionId(kind="dirac", rank_coeff=Fraction(1), rank_exponent=s + t)
        return FamilyReport(law=law, flow=s + t, entropy_log_term=s + t,
                            purity_exponent=-(s + t),
                            rescale_note=f"rescale by N^{s+t}")
    if s + t > m:
        r = 2 * m - s - t
        law = DistributionId(kind="dirac", rank_coeff=Fraction(1), rank_exponent=r)
        return FamilyReport(law=law, flow=r, entropy_log_term=r, purity_exponent=-r,
                            rescale_note=f"rank N^{r}; rescale by N^{r}")
    law = DistributionId(kind="free_poisson", c=Fraction(1))
    return FamilyReport(law=law, flow=m, entropy_log_term=m, purity_exponent=-m,
                        rescale_note=f"rescale by N^{m}")


def cycle_marginal(types: str) -> FamilyReport:
    """Limit law for a cycle marginal given its vertex type string.

    Arcs are the paths from a fully traced vertex to a fully kept one
    whose interior vertices each lose exactly one subsystem; every arc
    contributes an independent Fuss-Catalan factor of order equal to its
    interior length (length 0 contributes the trivial factor).  The flow
    is the number of single-loss vertices plus the number of arcs.
    """
    m = len(types)
    if m < 2:
        raise ValueError("cycle needs at least 2 vertices")
    if any(ch not in "SRT" for ch in types):
        raise ValueError(f"types must be over S/R/T, got {types!r}")

    if set(types) == {"R"}:
        # no fully traced or fully kept vertex pins anything: the block
        # labels must all coincide but range over the whole lattice, so
        # the ring behaves like a single square-case vertex
        law = DistributionId(kind="free_poisson", c=Fraction(1))
        return FamilyReport(law=law, flow=m, entropy_log_term=m, purity_exponent=-m,
                            rescale_note=f"rescale by N^{m}")

    arcs = _cycle_arcs(types)
    k_r = types.count("R")
    x = k_r + len(arcs)

    orders = sorted((a for a in arcs if a > 0), reverse=True)
    if not orders:
        law = DistributionId(kind="dirac", rank_coeff=Fraction(1), rank_exponent=x)
    elif len(orders) == 1:
        law = _fc_law(orders[0])
    else:
        law = DistributionId(kind="classical_product",
                             factors=tuple(_fc_law(s) for s in orders))
    return FamilyReport(law=law, flow=x, entropy_log_term=x, purity_exponent=-x)


def _cycle_arcs(types: str):
    """Interior lengths of all traced-to-kept arcs, scanning both ways."""
    m = len(types)
    arcs = []
    for start_ch, end_ch in (("T", "S"), ("S", "T")):
        for i, ch in enumerate(types):
            if ch != start_ch:
                continue
            run = 0
            j = (i + 1) % m
            while types[j] == "R" and run < m:
                run += 1
                j = (j + 1) % m
            if types[j] == end_ch and j != i:
                arcs.append(run)
    return sorted(arcs, reverse=True)
