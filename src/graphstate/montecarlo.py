"""Monte Carlo sampler for graph-state marginals: the numerical oracle.

Samples the random state ensemble at finite N and measures spectral
statistics (moments, purity, von Neumann entropy) for comparison with the
analytic engines.  Haar unitaries come from phase-corrected QR of complex
Gaussian matrices; a Ginibre mode replaces every block unitary with a
normalized complex Gaussian matrix.  That Ginibre-block model is its own
ensemble, with the Wick sum `moments.exact_moment_gaussian` as its exact
oracle, not a finite-N stand-in for the Haar one: a Haar unitary on a
fully traced or fully kept block drops out of the spectrum, a Gaussian
there does not, and the limits can differ (on the TSRR 4-cycle
N^4 tr rho^2 tends to 3 for Haar blocks and to 5 for Ginibre blocks).

State assembly.  A block's transform U only ever acts on the block's
share of the pair state: a fixed |Phi> on each loop bond and one open
leg per cross bond.  So the block enters as the isometry W = U V, where
the frame V maps the cross-bond legs into the block space.  For Haar U,
W is a Haar isometry of shape block_dim x prod(cross legs); for a
normalized Gaussian U it is a thin Gaussian divided by sqrt(block_dim).
The sampler draws W directly; the isometries, joined along the cross
bonds with 1/sqrt(D) per bond, are the state.  No product state and no
full unitary is formed: a one-vertex graph at N = 64 costs the QR of
one vector.  rho on the smaller side is one contraction tree of psi (x)
conj(psi), planned once per network shape, where the copy of any part
of psi is its conj(): the cheapest tree that builds nothing larger than
rho where one does.  No intermediate outlives rho into `eigvalsh`, or
into the power sums tr rho^p that replace it where no entropy is asked.

Haar fold.  A Haar unitary on a fully traced (T) or fully kept (S) block
leaves the reduced spectrum unchanged (the graphical-calculus rule of
Collins and Nechita, "Random quantum channels I", CMP 2010).  So in Haar
mode `estimate` leaves those blocks untransformed and samples the
`haar_fold` of the marginal: every bond whose two ends lie in S/T blocks
is a tensor factor of the state and is removed.  A traced-kept one adds
a flat factor I/D to rho (D = d N), which `estimate` puts back (moments
times D^(1-p), entropy plus ln D); a traced-traced or kept-kept one
leaves the nonzero spectrum unchanged.  The S/T blocks shrink to their
remaining members.  Ginibre mode folds nothing, because a Gaussian on an
S/T block changes the spectrum.

MAX_AMPLITUDES bounds psi's size and each isometry, after any fold,
whether or not a trial builds psi (no tree of psi builds more than psi),
and every array of the reduction's plan; MAX_DENSITY_DIM bounds the side
of rho.
"""

from __future__ import annotations

import collections
import functools
import math
import operator
import os
from dataclasses import dataclass, field

import numpy as np
import numpy.random  # noqa: F401  (loaded with the module: numpy loads it on first use)

from .graphs import GraphSpec, MarginalSpec

MAX_AMPLITUDES = 2 ** 22
MAX_DENSITY_DIM = 4096


class ResourceCapError(RuntimeError):
    """State vector or density matrix would exceed the desk-scale caps."""


# ---------------------------------------------------------------------------
# random matrices
# ---------------------------------------------------------------------------

def standard_complex_gaussian(rng, rows: int, cols: int) -> np.ndarray:
    """Entries with independent N(0, 1/2) real and imaginary parts."""
    return (rng.standard_normal((rows, cols)) + 1j * rng.standard_normal((rows, cols))) / math.sqrt(2.0)


def haar_isometry(rng, rows: int, cols: int) -> np.ndarray:
    """First `cols` columns of a Haar unitary on C^rows (cols <= rows).

    QR of a Gaussian matrix with each Q column rescaled by the phase of
    the matching R diagonal entry; plain QR alone is not Haar because
    LAPACK's phase convention biases the factors.
    """
    if cols > rows:
        raise ValueError("need cols <= rows")
    a = standard_complex_gaussian(rng, rows, cols)
    q, r = np.linalg.qr(a, mode="reduced")
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def haar_unitary(dim: int, rng) -> np.ndarray:
    """Haar-distributed unitary on C^dim."""
    if dim < 1:
        raise ValueError("dim must be >= 1")
    if dim > MAX_DENSITY_DIM:
        raise ResourceCapError(f"unitary dimension {dim} over cap {MAX_DENSITY_DIM}")
    return haar_isometry(rng, dim, dim)


# ---------------------------------------------------------------------------
# state assembly
# ---------------------------------------------------------------------------

class StateVector:
    """A pure state as (array, labels) operands, contracted only when read.

    Subsystem i's leg is labelled i; a label two operands share is summed.
    `StateVector(tensor=..., dims=...)` is a dense state of one operand.
    """

    def __init__(self, tensor=None, dims=(), operands=None):
        self.dims = tuple(dims)    # subsystem i has size d_i * N
        ids = tuple(range(1, len(self.dims) + 1))
        self.operands = [(np.asarray(tensor), ids)] if operands is None else operands

    @property
    def tensor(self) -> np.ndarray:
        """The amplitudes, one axis per subsystem (id order)."""
        array, labels = _contract(self.operands, _order(self.operands)[0])
        ids = [x for x in range(1, len(self.dims) + 1) if x in labels]
        return np.transpose(array, [labels.index(x) for x in ids]).reshape(self.dims)

    @property
    def total_dim(self) -> int:
        return math.prod(self.dims)

    def norm(self) -> float:
        return float(np.linalg.norm(self.tensor))


def assemble_state(marginal: MarginalSpec, N: int, rng=None, mode: str = "haar",
                   unitaries: dict | None = None, pinned=()) -> StateVector:
    """Entangled-pair state with one random transform per block.

    Each transformed block enters as its isometry (module docstring),
    Haar or thin Gaussian by `mode`; the isometries, joined along the
    cross bonds, are the state's operands.  `unitaries` (block index ->
    matrix) overrides a block's draw.  Blocks in `pinned` keep the
    identity transform and draw nothing.
    """
    graph = marginal.graph
    if mode not in ("haar", "ginibre"):
        raise ValueError(f"unknown mode {mode!r}")
    unitaries = unitaries or {}
    dim = {x: graph.dim_of[x] * N for x in range(1, graph.n + 1)}
    legs, pairs, scale = _bond_legs(graph, pinned, dim)

    # operands: one isometry per transformed block, one |Phi> per pinned pair
    specs = [(idx, members + tuple(label for _, label in legs[idx]))
             for idx, members in enumerate(graph.vertex_blocks) if idx not in pinned]
    specs += [(None, pair) for pair in pairs]
    size = dict(dim)
    for block_legs in legs.values():
        size.update((label, dim[x]) for x, label in block_legs)
    shapes = [tuple(size[x] for x in labels) for _, labels in specs]
    # psi and each isometry bound every tree of psi: a set of operands keeps
    # open its members and one leg per cross bond leaving it, and each such
    # leg matches a subsystem of the same size outside the set
    largest = max([math.prod(dim.values()), *map(math.prod, shapes)])
    if largest > MAX_AMPLITUDES:
        raise ResourceCapError(f"state assembly needs {largest} amplitudes, cap {MAX_AMPLITUDES}")

    operands = []
    for idx, labels in specs:
        if idx is None:
            w = np.eye(size[labels[0]], dtype=complex) / math.sqrt(size[labels[0]])
        elif idx in unitaries:
            w = unitaries[idx] @ _frame(graph, idx, legs[idx], dim)
        else:
            rows = math.prod(dim[x] for x in graph.vertex_blocks[idx])
            cols = math.prod(dim[x] for x, _ in legs[idx])
            w = (haar_isometry(rng, rows, cols) if mode == "haar"
                 else standard_complex_gaussian(rng, rows, cols) / math.sqrt(rows))
        operands.append((w.reshape([size[label] for label in labels]), labels))
    if scale != 1.0:
        i = min(range(len(operands)), key=lambda j: operands[j][0].size)
        operands[i] = (operands[i][0] * scale, operands[i][1])
    return StateVector(dims=tuple(dim[x] for x in sorted(dim)), operands=operands)


def _bond_legs(graph, pinned, dim):
    """Index labels of the contraction, bond by bond.

    Subsystem x's axis is labelled x.  Returns each transformed block's
    open legs as sorted (member, label) pairs, the bonds with both ends
    pinned (each a |Phi> operand of its own), and the product of
    1/sqrt(D) over the other cross bonds.  A cross bond between two
    transformed blocks gets a fresh label above n, summed over; a leg
    towards a pinned block carries the pinned subsystem's own label,
    since an identity transform passes the bond index through.  Loop
    bonds of a transformed block live inside its isometry.
    """
    block_of = {x: idx for idx, members in enumerate(graph.vertex_blocks) for x in members}
    legs = {idx: [] for idx in range(graph.k) if idx not in pinned}
    pairs, scale, fresh = [], 1.0, graph.n
    for a, b in graph.bonds:
        ia, ib = block_of[a], block_of[b]
        if ia in pinned and ib in pinned:
            pairs.append((a, b))
        elif ia != ib:
            scale /= math.sqrt(dim[a])
            if ia in pinned:
                legs[ib].append((b, a))
            elif ib in pinned:
                legs[ia].append((a, b))
            else:
                fresh += 1
                legs[ia].append((a, fresh))
                legs[ib].append((b, fresh))
    for block_legs in legs.values():
        block_legs.sort()
    return legs, pairs, scale


def _frame(graph, idx, block_legs, dim):
    """The block's share of the pair state, as an isometry from its legs.

    Rows are the block space (members in order), columns its open legs:
    a |Phi> on each loop bond, the identity from each leg to its member.
    A unitary override U enters the contraction as U times this frame.
    """
    members = graph.vertex_blocks[idx]
    parts = [(np.eye(dim[a], dtype=complex) / math.sqrt(dim[a]), (a, b))
             for a, b in graph.bonds if a in members and b in members]
    parts += [(np.eye(dim[x], dtype=complex), (x, -x)) for x, _ in block_legs]
    frame, labels = _contract(parts, _order(parts)[0])
    out = members + tuple(-x for x, _ in block_legs)
    frame = np.transpose(frame, [labels.index(x) for x in out if x in labels])
    return frame.reshape(math.prod(dim[x] for x in members), -1)


def _contraction_order(operand_labels, shapes, summed=None):
    """Tree of psi, or with `summed` of rho = psi (x) conj(psi): tree, largest array, multiply-adds.

    A dynamic program over the connected sets S of psi's operands, each
    split in two connected halves, where labels of size 1 join nothing
    (Pfeifer, Haegeman and Verstraete, PRE 90, 033315, 2014).  P(S), their
    contraction, joins two P parts; D(S), P(S) joined to its copy, joins
    two D parts, or nothing or a D part to a P part and then to that part's
    copy.  Whole components meet last.  Best is no array larger than the
    result where some tree meets that, else the least largest; then the
    fewest multiply-adds, a step costing the product of its labels' sizes.
    """
    if not operand_labels:
        return (), 1, 0
    size = {x: n for labels, shape in zip(operand_labels, shapes)
            for x, n in zip(labels, shape) if n > 1}
    sets = [frozenset(labels) & size.keys() for labels in operand_labels]
    once = {x for x, n in collections.Counter(x for s in sets for x in s).items() if n == 1}
    if summed is not None:
        once = {y for x in once.difference(summed) for y in (x, -x)}
        size.update({-x: n for x, n in size.items()})
    limit, k = math.prod(size[x] for x in once), len(sets)
    near = [sum(1 << j for j in range(k) if j != i and sets[i] & sets[j]) for i in range(k)]

    def out(s):    # the operands bonded to s, outside it
        return functools.reduce(operator.or_, (near[j] for j in range(k) if s >> j & 1)) & ~s

    def grow(s, allowed):    # each connected superset of s within s | allowed, once
        yield s
        sub = new = allowed & out(s)
        while sub:
            yield from grow(s | sub, allowed & ~new)
            sub = (sub - 1) & new

    def join(x, y, tree=None):   # parts are (largest, multiply-adds, labels, tree, size)
        if x and y and (x[2] & y[2] or x[2] | y[2] <= once):    # shared labels, or two whole parts
            shared = math.prod(size[z] for z in x[2] & y[2])
            volume = x[4] * y[4] // shared
            return (max(x[0], y[0], volume // shared), x[1] + y[1] + volume, x[2] ^ y[2],
                    tree or (x[3], y[3], False), volume // shared)

    def then_copy(x, y):    # x joined to y (y alone if x is None), then to y's copy
        copy = (y[0], 0, frozenset(_mirror(y[2], summed)), None, y[4])
        return join(y if x is None else join(x, y), copy, (x and x[3], y[3], True))

    def rank(part):    # the limit clamps the size, so cost decides among parts within it
        return max(part[0], limit), part[1]

    def keep(table, s, part):
        if part and (s not in table or rank(part) < rank(table[s])):
            table[s] = part

    connected = sorted((s for j in range(k) for s in grow(1 << j, (1 << k) - (2 << j))),
                       key=int.bit_count)    # smaller sets first
    halves = collections.defaultdict(list)    # S -> its splits in two connected halves
    for a in connected:
        bonded = out(a)
        for v in (v for v in range(k) if bonded >> v & 1):    # v: b's first operand bonded to a
            for b in grow(1 << v, ((1 << k) - 1) & ~a & ~(bonded & ((2 << v) - 1))):
                if a & -a < b & -b:    # each split once, a holding its first operand
                    halves[a | b].append((a, b))
    P, D = {1 << i: (n, 0, sets[i], i, n) for i, n in enumerate(map(math.prod, shapes))}, {}
    for s in connected:
        for a, b in halves[s]:
            keep(P, s, join(P[a], P[b]))
            if summed is not None:
                keep(D, s, join(D.get(a, False), D.get(b, False)))
                keep(D, s, then_copy(D.get(a, False), P[b]))
                keep(D, s, then_copy(D.get(b, False), P[a]))
        if summed is not None:
            keep(D, s, then_copy(None, P[s]))
    whole = [(P if summed is None else D)[s] for s in connected if not out(s)]
    largest, cost, _, tree, _ = functools.reduce(join, whole)
    return tree, largest, cost


# `_contraction_order`, searched once per (labels, shapes, summed)
_search = functools.lru_cache(maxsize=64)(lambda *network: _contraction_order(*network))


def _order(operands, summed=None):
    """`_search` of (array, labels) operands: tree, largest array, multiply-adds."""
    labels, shapes = tuple(l for _, l in operands), tuple(a.shape for a, _ in operands)
    return _search(labels, shapes, summed)


def _mirror(labels, summed):
    """The copy's labels: the `summed` ones shared, the others negated."""
    return tuple(x if x in summed else -x for x in labels)


def _contract(operands, tree, summed=None):
    """Run a `_contraction_order` tree on (array, labels) operands: (array, labels).

    A tree is an operand index, () for no operands, or (a, b, copy): a's
    result joined to b's (b's alone if a is None), then with `copy` to b's
    copy, the conj() of b's result with `_mirror`ed labels.
    """
    if not isinstance(tree, tuple):    # an operand, its axes of size 1 dropped
        array, labels = operands[tree]
        return array.squeeze(), tuple(x for x, n in zip(labels, array.shape) if n > 1)
    if not tree:
        return np.ones((), dtype=complex), ()
    a, b, copy = tree
    right = _contract(operands, b, summed)
    acc = right if a is None else _join(_contract(operands, a, summed), right)
    return _join(acc, (right[0].conj(), _mirror(right[1], summed))) if copy else acc


def _join(x, y):
    """tensordot of two (array, labels) operands over the labels they share."""
    (a, la), (b, lb) = x, y
    shared = [label for label in la if label in lb]
    return (np.tensordot(a, b, axes=([la.index(label) for label in shared],
                                     [lb.index(label) for label in shared])),
            tuple(label for label in la + lb if label not in shared))


@dataclass(frozen=True)
class HaarFold:
    """A marginal with its S/T-only bonds taken out, for Haar sampling.

    `marginal` is what remains: its subsystems are the original ones in
    `subsystems` order, renumbered 1..n; mixed blocks are whole and S/T
    blocks keep only their members bonded to mixed blocks.  `flat_dim` is
    the D of the flat factor I/D the removed traced-kept bonds add to rho.
    """

    marginal: MarginalSpec
    subsystems: tuple
    flat_dim: int

    @property
    def pinned(self) -> tuple:
        """The folded S/T blocks: their Haar transform is left out."""
        return tuple(idx for idx, view in enumerate(self.marginal.blocks) if view.kind != "mixed")


def haar_fold(marginal: MarginalSpec, N: int) -> HaarFold:
    """Remove every bond whose two ends lie in fully traced or fully kept blocks.

    With those blocks untransformed such a bond is a tensor factor of the
    state: traced-kept it puts a flat factor I/D (D = d N) on rho,
    traced-traced or kept-kept it leaves the nonzero spectrum unchanged.
    """
    graph = marginal.graph
    fixed = {x for view in marginal.blocks if view.kind != "mixed" for x in view.members}
    removed = [(a, b) for a, b in graph.bonds if a in fixed and b in fixed]
    gone = {x for bond in removed for x in bond}
    keep = [x for x in range(1, graph.n + 1) if x not in gone]
    new_id = {x: i for i, x in enumerate(keep, start=1)}
    folded = GraphSpec(
        vertex_blocks=[[new_id[x] for x in members if x in new_id]
                       for members in graph.vertex_blocks if not set(members) <= gone],
        bonds=[(new_id[a], new_id[b]) for a, b in graph.bonds if a in new_id],
        dims={new_id[x]: graph.dim_of[x] for x in keep})
    flat_dim = math.prod(graph.dim_of[a] * N for a, b in removed
                         if (a in marginal.traced) != (b in marginal.traced))
    return HaarFold(marginal=folded.marginal(new_id[x] for x in marginal.traced if x in new_id),
                    subsystems=tuple(keep), flat_dim=flat_dim)


# ---------------------------------------------------------------------------
# reduction and spectra
# ---------------------------------------------------------------------------

def reduced_spectrum(state: StateVector, traced, powers=None) -> np.ndarray:
    """Nonzero-part spectrum of the reduced state, from rho on the smaller
    side (the kept and the traced side share their nonzero eigenvalues).

    With `powers` (each p >= 1) it returns tr rho^p for each p in place of
    the eigenvalues, as the Frobenius product of the Hermitian
    rho^floor(p/2) and rho^ceil(p/2): ceil(max/2) - 1 matrix products.
    """
    ids = range(1, len(state.dims) + 1)
    traced = {int(x) for x in traced}
    side, other = sorted(([x for x in ids if x not in traced], [x for x in ids if x in traced]),
                         key=lambda xs: math.prod(state.dims[x - 1] for x in xs))
    small = math.prod(state.dims[x - 1] for x in side)
    if small > MAX_DENSITY_DIM:
        raise ResourceCapError(f"spectral side {small} over cap {MAX_DENSITY_DIM}")
    tree, largest, _ = _order(state.operands, tuple(other))
    if largest > MAX_AMPLITUDES:
        raise ResourceCapError(f"reduction needs {largest} amplitudes, cap {MAX_AMPLITUDES}")
    rho, labels = _contract(state.operands, tree, tuple(other))
    rows = [x for x in labels if x in side]     # C order already after psi psi^dagger
    order = [labels.index(x) for x in rows + [-x for x in rows]]
    rho = np.ascontiguousarray(np.transpose(rho, order)).reshape(small, small)
    if powers is None:
        return np.linalg.eigvalsh(rho)[::-1]
    power = [None, rho]     # power[k] = rho^k, up to the larger half of max(powers)
    for _ in range((max(powers) + 1) // 2 - 1):
        power.append(power[-1] @ rho)
    return np.array([np.trace(rho).real if p == 1 else
                     np.vdot(power[p // 2], power[p - p // 2]).real for p in powers])


# ---------------------------------------------------------------------------
# estimation
# ---------------------------------------------------------------------------

@dataclass
class EstimateReport:
    """Sampling summary: per-order moment means with standard errors.

    `moment_*` comes from unit-trace spectra (the Gaussian mode divides
    each sample by its trace, so its first moment is exactly 1);
    `raw_moment_*` skips that division and is the quantity the finite-N
    moment formulas predict.  The two coincide for Haar samples.
    Entropies are natural-log, with a base-2 copy for display, and None
    where `estimate` skipped them; stderr is the sample standard deviation
    over sqrt(trials).
    """

    N: int
    trials: int
    seed: int
    mode: str
    p_list: tuple
    moment_mean: dict
    moment_stderr: dict
    entropy_mean: float
    entropy_stderr: float
    entropy_bits_mean: float
    purity_mean: float = None
    purity_stderr: float = None
    raw_moment_mean: dict = field(default_factory=dict)
    raw_moment_stderr: dict = field(default_factory=dict)

    def to_json(self) -> dict:
        return {
            "N": self.N, "trials": self.trials, "seed": self.seed, "mode": self.mode,
            "moments": {str(p): {"mean": self.moment_mean[p], "stderr": self.moment_stderr[p]}
                        for p in self.p_list},
            "raw_moments": {str(p): {"mean": self.raw_moment_mean[p],
                                     "stderr": self.raw_moment_stderr[p]}
                            for p in self.p_list},
            "entropy": {"mean": self.entropy_mean, "stderr": self.entropy_stderr,
                        "bits": self.entropy_bits_mean},
            "purity": {"mean": self.purity_mean, "stderr": self.purity_stderr},
        }


def trial_rngs(seed: int, trials: int):
    """Independent per-trial generators from one root seed."""
    root = np.random.SeedSequence(seed)
    return [np.random.default_rng(child) for child in root.spawn(trials)]


def estimate(marginal, N: int, trials: int, p_list=(1, 2, 3), seed: int = 0,
             mode: str = "haar", threads: int = 1, entropy: bool = True) -> EstimateReport:
    """Sample the marginal and report moment and entropy statistics.

    Trials are independent with their own RNG streams, so the report is
    bit-identical for a given seed regardless of thread count; at most
    min(threads, trials, cpu count) threads run.  In Haar mode every
    trial samples the `haar_fold` of the marginal and puts its flat factor
    back.  In Ginibre mode each sampled spectrum is normalized to unit
    trace, its moments tr rho^p / (tr rho)^p.  With `entropy` false no
    entropy is reported, and where every p is 1..6 (at most two matrix
    products) the moments are power sums of rho, with no eigensolve.
    """
    if threads < 1:
        raise ValueError(f"threads must be >= 1, got {threads}")
    if trials < 1:
        raise ValueError(f"trials must be >= 1, got {trials}")
    p_list = tuple(p_list)
    rngs = trial_rngs(seed, trials)
    if mode == "haar":
        fold = haar_fold(marginal, N)
        target, pinned, flat = fold.marginal, fold.pinned, fold.flat_dim
    else:
        target, pinned, flat = marginal, (), 1
    powers = None if entropy or not set(p_list) <= set(range(1, 7)) else sorted({1, *p_list})

    def one_trial(t):
        state = assemble_state(target, N, rngs[t], mode=mode, pinned=pinned)
        h = None
        if powers:
            raw = dict(zip(powers, map(float, reduced_spectrum(state, target.traced, powers))))
            unit = {p: raw[p] / raw[1] ** p for p in p_list} if mode == "ginibre" else raw
        else:
            lam = np.clip(reduced_spectrum(state, target.traced), 0.0, None)
            raw = {p: float(np.sum(lam ** p)) for p in p_list}
            lam = lam / lam.sum() if mode == "ginibre" else lam
            unit = {p: float(np.sum(lam ** p)) for p in p_list}
            if entropy:
                pos = lam[lam > 0]
                h = float(-np.sum(pos * np.log(pos))) + math.log(flat)
        return ([unit[p] * flat ** (1 - p) for p in p_list],
                [raw[p] * flat ** (1 - p) for p in p_list], h)

    workers = min(threads, trials, os.cpu_count() or 1)
    if workers > 1:
        from concurrent.futures import ThreadPoolExecutor   # with logging, ~10 ms per process

        with ThreadPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(one_trial, range(trials)))
    else:
        results = [one_trial(t) for t in range(trials)]

    moment_rows, raw_rows, entropies = (np.array(column) for column in zip(*results))

    def mean_stderr(col):
        err = float(np.std(col, ddof=1) / math.sqrt(len(col))) if len(col) > 1 else 0.0
        return float(np.mean(col)), err

    moment_mean, moment_stderr, raw_mean, raw_stderr = {}, {}, {}, {}
    for j, p in enumerate(p_list):
        moment_mean[p], moment_stderr[p] = mean_stderr(moment_rows[:, j])
        raw_mean[p], raw_stderr[p] = mean_stderr(raw_rows[:, j])
    h_mean, h_err = mean_stderr(entropies) if entropy else (None, None)

    return EstimateReport(
        N=N, trials=trials, seed=seed, mode=mode, p_list=p_list,
        moment_mean=moment_mean, moment_stderr=moment_stderr,
        entropy_mean=h_mean, entropy_stderr=h_err,
        entropy_bits_mean=h_mean and h_mean / math.log(2.0),
        purity_mean=moment_mean.get(2), purity_stderr=moment_stderr.get(2),
        raw_moment_mean=raw_mean, raw_moment_stderr=raw_stderr)


@dataclass
class ProductSpectraReport:
    """Empirical rescaled moments of a product-Wishart spectrum."""

    s: int
    N: int
    trials: int
    seed: int
    moment_mean: dict
    moment_stderr: dict
    max_eigenvalue: float


def ginibre_product_spectra(s: int, N: int, trials: int, p_list=(1, 2, 3, 4),
                            seed: int = 0) -> ProductSpectraReport:
    """Eigenvalue moments of W = G G* with G a product of s square
    Ginibre factors, each normalized by sqrt(N).

    The empirical (1/N) tr W^p converge to the order-s Fuss-Catalan
    moments as N grows.
    """
    if N > 1024:
        raise ResourceCapError("N over product-spectra cap 1024")
    if s > 4:
        raise ValueError("s over product-spectra cap 4")
    rows, max_eig = [], 0.0
    for rng in trial_rngs(seed, trials):
        g = np.eye(N, dtype=complex)
        for _ in range(s):
            g = g @ (standard_complex_gaussian(rng, N, N) / math.sqrt(N))
        lam = np.linalg.eigvalsh(g @ g.conj().T)
        max_eig = max(max_eig, float(lam[-1]))
        rows.append([float(np.mean(lam ** p)) for p in p_list])
    arr = np.array(rows)
    mean = {p: float(np.mean(arr[:, j])) for j, p in enumerate(p_list)}
    err = {p: float(np.std(arr[:, j], ddof=1) / math.sqrt(trials)) if trials > 1 else 0.0
           for j, p in enumerate(p_list)}
    return ProductSpectraReport(s=s, N=N, trials=trials, seed=seed, moment_mean=mean,
                                moment_stderr=err, max_eigenvalue=max_eig)
