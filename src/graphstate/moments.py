"""Moment engines and limit-law classification for graph-state marginals.

`asymptotic_moment` gives the leading term of E tr(rho^p), N^(-X(p-1))
with X the max flow, times the weighted count of the order-preserving
maps of the flow's residual poset into NC(p); the flow, the poset and its
weights do not depend on p, so `_solved` keeps them per marginal.
`exact_moment` and `exact_moment_gaussian` sum at finite N over the
labelings of the blocks by S_p, with a Weingarten or a Wick (1/dim^p)
block kernel: `_labeling_sum` builds a factor per block label and one per
pair of bonded blocks, and `combinatorics._contract` sums them by bucket
elimination in exact integers.  The Haar engines pin fully traced blocks
to the identity and fully kept ones to the long cycle, where a Haar
unitary integrates out; the Wick sum pins nothing, as a Gaussian block
does not drop out.  `minimizer_set` checks the asymptotic engine by brute
force, with pins of its own; the law classifiers sit on top.  The paper's
closed forms for stars, cycles and one-vertex graphs, which check these
engines, are oracles in `tests/oracles.py`.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction

import numpy as np

from ._record import _Record
from .combinatorics import (
    _ONE,
    BUDGET_ENV,
    BudgetExceededError,
    ConstraintPoset,
    _contract,
    _label_groups,
    _label_table,
    _pair_arrays,
    _plan,
    _poset_sum,
    _rooted_moments,
    catalan,
    count_poset_tuples,
    fuss_catalan,
    mp_moment,
    work_budget,
)
from .flow import MinimizerConsistencyError, build_network, max_flow, residual_poset
from .graphs import MarginalSpec
from .spectra import fc_entropy, mp_entropy
from .weingarten import wg_exact

# ---------------------------------------------------------------------------
# the max flow, solved once per marginal
# ---------------------------------------------------------------------------

class _Solved:
    """A marginal's flow network, a max flow of it, and its residual poset's weights.

    The exponent X, the residual poset and its weights depend on the graph
    and its trace set alone, not on p.  `_solved` keeps them for the last
    64 marginals, so every order, engine and report reads one solve;
    callers must not change what they read.  The poset is built when first
    asked for, and a MinimizerConsistencyError it raises is raised again on
    every ask, as nothing is kept for it.  A rooted poset's weighted counts
    are kept at the highest order asked.
    """

    def __init__(self, marginal: MarginalSpec):
        self.marginal = marginal
        self.network = build_network(marginal)
        self.flow = max_flow(self.network)
        self._sums = ((),)

    @functools.cached_property
    def poset(self):
        return residual_poset(self.marginal, self.flow)

    @functools.cached_property
    def weights(self):
        """(x, a, b): at order p a minimizer sigma weighs a b^p prod_c x_c^(#sigma_c).

        Block i at label s weighs d_kept^(p+1-#s) d_traced^#s / d_block^p,
        a bond of dimension d between labels s <= t weighs d^(p + #t - #s),
        and the prefactor is (d_loops / sqrt(d_all))^p.  A block's label is
        its class's sigma_c, or its pin: id, with # = p, or gamma, with # = 1.
        """
        (poset, place), m = self.poset, self.marginal
        x = dict.fromkeys([*range(poset.k), "zero", "one"], Fraction(1))
        a, b = Fraction(1), Fraction(math.prod(v.dim_loops for v in m.blocks), m.dim_all_sqrt)
        for i, view in enumerate(m.blocks):
            a, b = a * view.dim_kept, b * Fraction(view.dim_kept, view.dim_block)
            x[place[i]] *= Fraction(view.dim_traced, view.dim_kept)
        for i, j in m.cross_bonds:
            d, lower, upper = m.cross_dim(i, j), place[i], place[j]
            b *= d
            if lower == "one" or upper == "zero" or (upper, lower) in poset.relations:
                lower, upper = upper, lower
            if lower != upper:
                x[upper], x[lower] = x[upper] * d, x[lower] / d
        return [x[c] for c in range(poset.k)], a * x["one"], b * x["zero"]

    def rooted_sums(self, p: int):
        """(weighted, plain) `_rooted_moments` up to at least p, or None if not rooted."""
        if self._sums is not None and len(self._sums[0]) <= p:
            poset, x = self.poset[0], self.weights[0]
            counts = _rooted_moments(poset, p)
            self._sums = None if counts is None else (
                counts if all(w == 1 for w in x) else _rooted_moments(poset, p, x), counts)
        return self._sums


_solved = functools.lru_cache(maxsize=64)(_Solved)


def marginal_max_flow(marginal: MarginalSpec) -> int:
    """The max flow X of the marginal's network."""
    return _solved(marginal).flow.value


# ---------------------------------------------------------------------------
# the brute-force minimizer oracle
# ---------------------------------------------------------------------------

class MinimizerSet(_Record):
    """All geodesic tuples achieving the max-flow cost bound.

    `tuples` is a list of tuples holding one NC(p) label per block, an
    index into the rows of `combinatorics._label_table(p, True)`;
    `pinned` maps each pinned block to "zero" or "one", the discrete or
    full partition it is fixed at according to type.
    """

    _fields = ("p", "x", "tuples", "pinned")
    __hash__ = None
    __setattr__, __delattr__ = object.__setattr__, object.__delattr__

    def __init__(self, p, x, tuples, pinned):
        self.p = p
        self.x = x
        self.tuples = tuples
        self.pinned = pinned

    def __len__(self):
        return len(self.tuples)


def minimizer_set(marginal: MarginalSpec, p: int, budget=None) -> MinimizerSet:
    """Enumerate the minimizing geodesic tuples at order p.

    Fully traced blocks are pinned to the identity, fully kept blocks to
    the long cycle; the remaining blocks range over all of NC(p).  Kept
    are exactly the tuples whose cost equals X(p-1) where X is the max
    flow; the enumerated minimum is checked against that bound.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
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
    cap = work_budget(budget)
    if est > cap:
        raise BudgetExceededError(
            f"minimizer search needs ~{est} table entries (> budget {cap}); "
            f"lower p or raise {BUDGET_ENV}", est)
    _, ncyc, ncyc_gamma, idx_zero, idx_one = _label_table(p, True)
    pair_ncyc = _pair_arrays(p, True)[0].tolist() if cross else None
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
            choices.append(range(len(ncyc)))

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
    return MinimizerSet(p=p, x=x, tuples=tuples, pinned=pinned)


# ---------------------------------------------------------------------------
# finite-N labeling sums over the block graph
# ---------------------------------------------------------------------------

def _labeling_sum(marginal: MarginalSpec, p: int, N: int, haar: bool, budget) -> Fraction:
    """E tr(rho^p) at finite N: a sum over labelings of the blocks by S_p.

    Every weight is a power (d N^e)^t of a cycle count t.  Haar sums pin T
    blocks to id and S blocks to gamma, whose factor is then exactly 1, and
    sum over the free blocks alone: a bond from a pin to a free label b is
    a factor of b at #b (id) or #(gamma b^-1) (gamma), and a bond between
    two pins is a constant at p (equal pins) or 1.  A free Haar block weighs
    a Weingarten column at its dimension; a Wick block weighs its powers,
    over dim_block^p in the prefactor.  Each factor is an array over its
    scope, read off the p + 1 powers by the cycle counts, at cost 0.
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    if N < 1:
        raise ValueError("N must be >= 1")
    pins = {i: v.kind for i, v in enumerate(marginal.blocks) if haar and v.kind in ("T", "S")}
    free = [i for i in range(marginal.k) if i not in pins]
    # without free blocks no label table is built
    n_labels = math.factorial(p) if free else 0
    # free Haar blocks read one class table of n_labels^2 entries, and each
    # weighs a column of n_labels entries per label group (#a, #(gamma a^-1)):
    # one per i + j <= p + 1 of the parity of p + 1, so (p + 1)^2 // 4 groups
    groups = (p + 1) ** 2 // 4
    columns = n_labels * (n_labels + len(free) * groups) if haar and n_labels > 1 else 0
    order = _plan(free, n_labels, marginal.cross_bonds, work_budget(budget), n_labels + columns)

    def powers(e, d):
        """(d N^e)^t at t = 0..p, a Python-int array."""
        return np.array([(d * N ** e) ** t for t in range(p + 1)], dtype=object)

    prefactor = Fraction(1, (marginal.dim_all_sqrt * N ** marginal.graph.m) ** p)
    for view in marginal.blocks:
        prefactor *= (view.dim_loops * N ** len(view.loop_bonds)) ** p
    unary = {}
    if free:
        ncyc, ncyc_gamma = map(np.array, _label_table(p, False)[1:3])
        pin_rows = {"T": ncyc, "S": ncyc_gamma}     # #(a^-1 b) for a = id, gamma
        if any(not pins.keys() & bond for bond in marginal.cross_bonds):
            pair = _pair_arrays(p, False)[0]
    for i in free:
        view = marginal.blocks[i]
        kept = powers(len(view.kept), view.dim_kept)
        traced = powers(len(view.traced), view.dim_traced)
        dim = view.dim_block * N ** len(view.members)
        if haar:    # a Weingarten column, from one weight per label group
            ncyc_g, ncyc_gamma_g = _label_groups(p)[:2]
            unary[i], denominator = _weingarten_column(p, dim, kept[ncyc_gamma_g] * traced[ncyc_g])
            prefactor /= denominator
        else:   # the 1/dim^p kernel, kept out of the sum so that it stays integral
            unary[i] = kept[ncyc_gamma] * traced[ncyc]
            prefactor /= dim ** p

    factors, shared = [], {}
    for (i, j), bonds in marginal.cross_bonds.items():
        key = len(bonds), marginal.cross_dim(i, j)
        weights = powers(*key)
        if i in pins and j in pins:     # a factor on no block
            factors.append(_factor((), weights[p if pins[i] == pins[j] else 1]))
        elif i in pins or j in pins:
            pin, v = (i, j) if i in pins else (j, i)
            unary[v] = unary[v] * weights[pin_rows[pins[pin]]]
        else:
            # alike bonds share their arrays, of n_labels^2 entries each
            if key not in shared:
                shared[key] = _factor((), weights[pair])[1:]
            factors.append(((i, j), *shared[key]))
    factors += [_factor((i,), weight) for i, weight in unary.items()]
    return prefactor * _contract(factors, order, n_labels)[1]


def _factor(scope, weight):
    """(scope, cost, weight, count): the weight as an object array, with cost
    0 and count 1 as read-only broadcasts of one value."""
    weight = np.asarray(weight, dtype=object)
    return scope, np.broadcast_to(_ZERO, weight.shape), weight, np.broadcast_to(_ONE, weight.shape)


_ZERO = np.array(0, dtype=np.int64)


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


# ---------------------------------------------------------------------------
# the three engines
# ---------------------------------------------------------------------------

class MomentReport(_Record):
    """Leading term of the p-th moment: coefficient * N^exponent."""

    _fields = ("p", "exponent", "coefficient", "minimizer_count")

    def __init__(self, p, exponent, coefficient, minimizer_count):
        vars(self).update(p=p, exponent=exponent, coefficient=coefficient,
                          minimizer_count=minimizer_count)


def asymptotic_moment(marginal: MarginalSpec, p: int, budget=None) -> MomentReport:
    """Exact leading coefficient of E tr(rho^p) and its N-exponent -X(p-1).

    The labelings of the blocks by NC(p) geodesics that reach the bound,
    with T blocks at id and S blocks at gamma, are the order-preserving
    maps sigma of `flow.residual_poset` into NC(p), each of weight
    a b^p prod_c x_c^(#sigma_c) (`_Solved.weights`).  A recursively rooted
    poset sums them by `_rooted_moments`, with no table and no budget
    refusal at any p; any other by the class contraction `_poset_sum`,
    gated by the work budget and NC_CAP, whose least cost (violated
    relations) must be 0.  `minimizer_count` is the count at every x_c = 1.
    p=1 always reports (0, 1).
    """
    if p < 1:
        raise ValueError("p must be >= 1")
    cap = work_budget(budget)   # a malformed budget setting is refused on either path
    solved = _solved(marginal)
    x, a, b = solved.weights
    sums = solved.rooted_sums(p)
    if sums is not None:
        weighted, count = sums[0][p], sums[1][p]
    else:
        cost, weighted, count = _poset_sum(solved.poset[0], p, x, cap)
        if cost != 0:
            raise MinimizerConsistencyError(f"least violated relations {cost} != 0 at p={p}")
    return MomentReport(p=p, exponent=-solved.flow.value * (p - 1),
                        coefficient=a * b ** p * weighted, minimizer_count=count)


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
    return _labeling_sum(marginal, p, N, True, budget)


def exact_moment_gaussian(marginal: MarginalSpec, p: int, N: int, budget=None) -> Fraction:
    """E tr(rho^p) at finite N for the Gaussian-block model, exactly.

    The sum of `exact_moment` with Wick weights (kept/traced factor over
    dim^p) and no pinned blocks: the exact oracle for the Ginibre sampling
    mode, an ensemble apart from the Haar one.  The two agree to leading
    order on `one_loop` and the RRRR and SRR cycles but not in general: on
    TSRR, N^4 times this tends to 5 and N^4 times `exact_moment` to 3.
    """
    return _labeling_sum(marginal, p, N, False, budget)


# ---------------------------------------------------------------------------
# distribution identities
# ---------------------------------------------------------------------------

class DistributionId(_Record):
    """Tagged identification of a limiting eigenvalue law.

    kind: one of maximally_mixed, dirac, free_poisson, fuss_catalan,
    classical_product, poset_law, unknown.  Payload fields are used per
    kind; unused ones stay None: `c` the free Poisson parameter, `s` the
    Fuss-Catalan order, `factors` the parts of a classical product,
    `poset` a poset law's ConstraintPoset, `rank_coeff` and
    `rank_exponent` a flat or Dirac support of ~ coeff * N^exponent
    states, `moments` an unknown law's raw coefficient sequence.
    `moment` and `entropy_constant` hold the law formulas of every kind.
    """

    _fields = ("kind", "c", "s", "factors", "poset", "rank_coeff", "rank_exponent", "moments")

    def __init__(self, kind, c=None, s=None, factors=None, poset=None, rank_coeff=None,
                 rank_exponent=None, moments=None):
        vars(self).update(kind=kind, c=c, s=s, factors=factors, poset=poset,
                          rank_coeff=rank_coeff, rank_exponent=rank_exponent, moments=moments)

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

        A classical product adds its factors' constants.  None for the
        laws without a closed form: poset laws, unknown sequences and
        products with such a factor.
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
            parts = [f.entropy_constant() for f in self.factors]
            return None if None in parts else sum(parts)
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
        if all(law.moment(p) == coeff for p, coeff in enumerate(coeffs, start=1)):
            return law
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

