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

Applying a Haar matrix to a state whose reshaped block matrix has fewer
columns than rows only ever sees the matrix through a random isometry on
the column space, so the sampler draws that isometry directly instead of
a full unitary; one-vertex graphs at N = 64 then cost QR of a vector, not
of a 4096 x 4096 matrix.
"""

from __future__ import annotations

import math
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

import numpy as np

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

@dataclass
class StateVector:
    """Amplitudes laid out as one tensor axis per subsystem (id order)."""

    tensor: np.ndarray
    dims: tuple        # axis i holds subsystem i+1, size d_i * N

    @property
    def total_dim(self) -> int:
        return int(np.prod(self.dims))

    def norm(self) -> float:
        return float(np.linalg.norm(self.tensor))


def assemble_state(marginal_or_graph, N: int, rng=None, mode: str = "haar",
                   unitaries: dict | None = None) -> StateVector:
    """Entangled-pair product state with one random transform per block.

    `mode` picks Haar unitaries or normalized Ginibre matrices for the
    block transforms; `unitaries` (block index -> matrix) overrides the
    random draw, with the identity simply skipped.
    """
    graph = getattr(marginal_or_graph, "graph", marginal_or_graph)
    if mode not in ("haar", "ginibre"):
        raise ValueError(f"unknown mode {mode!r}")
    dims = tuple(graph.dim_of[i] * N for i in range(1, graph.n + 1))
    total = math.prod(dims)
    if total > MAX_AMPLITUDES:
        raise ResourceCapError(f"state needs {total} amplitudes, cap {MAX_AMPLITUDES}")

    # product of normalized identity tensors, one per bond, then reorder
    vec = np.ones(1, dtype=complex)
    axis_order = []
    for a, b in graph.bonds:
        bond_dim = dims[a - 1]
        vec = np.kron(vec, np.eye(bond_dim, dtype=complex).ravel() / math.sqrt(bond_dim))
        axis_order.extend([a, b])
    tensor = vec.reshape([dims[i - 1] for i in axis_order])
    perm = [axis_order.index(i) for i in range(1, graph.n + 1)]
    tensor = np.transpose(tensor, perm)

    for idx, members in enumerate(graph.vertex_blocks):
        override = None if unitaries is None else unitaries.get(idx)
        tensor = _apply_block(tensor, [i - 1 for i in members], rng, mode, override)
    return StateVector(tensor=tensor, dims=dims)


def _apply_block(tensor, axes, rng, mode, override):
    shape = tensor.shape
    block_dim = 1
    for ax in axes:
        block_dim *= shape[ax]
    rest = tensor.size // block_dim

    moved = np.moveaxis(tensor, axes, range(len(axes)))
    kept_shape = moved.shape
    mat = moved.reshape(block_dim, rest)

    if override is not None:
        out = override @ mat if not _is_identity(override) else mat
    elif block_dim <= rest:
        if mode == "haar":
            out = haar_unitary(block_dim, rng) @ mat
        else:
            out = (standard_complex_gaussian(rng, block_dim, block_dim)
                   / math.sqrt(block_dim)) @ mat
    else:
        # the block transform only acts on the column space of `mat`:
        # draw its restriction there (isometry / thin Gaussian) directly
        q, r = np.linalg.qr(mat, mode="reduced")
        if mode == "haar":
            w = haar_isometry(rng, block_dim, rest)
        else:
            w = standard_complex_gaussian(rng, block_dim, rest) / math.sqrt(block_dim)
        out = w @ r

    return np.moveaxis(out.reshape(kept_shape), range(len(axes)), axes)


def _is_identity(mat) -> bool:
    return mat.shape[0] == mat.shape[1] and np.array_equal(mat, np.eye(mat.shape[0]))


# ---------------------------------------------------------------------------
# reduction and spectra
# ---------------------------------------------------------------------------

@dataclass
class DensityMatrixSample:
    """Reduced density matrix on the kept subsystems."""

    matrix: np.ndarray
    kept: tuple

    def eigenvalues(self) -> np.ndarray:
        return np.linalg.eigvalsh(self.matrix)[::-1]


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


def _split_matrix(state: StateVector, kept):
    """Reshape amplitudes to (kept dims) x (traced dims)."""
    n = len(state.dims)
    kept = list(kept)
    traced = [i for i in range(1, n + 1) if i not in kept]
    order = [i - 1 for i in kept + traced]
    moved = np.transpose(state.tensor, order)
    dim_s = 1
    for i in kept:
        dim_s *= state.dims[i - 1]
    return moved.reshape(dim_s, state.tensor.size // dim_s)


def reduced_spectrum(state: StateVector, traced) -> np.ndarray:
    """Nonzero-part spectrum of the reduced state, via the smaller side.

    The reduced states on the kept and on the traced subsystems share
    their nonzero eigenvalues, so the Gram matrix is formed on whichever
    side is smaller.
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
    Entropies are natural-log, with a base-2 copy for display; stderr is
    the sample standard deviation over sqrt(trials).
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
             mode: str = "haar", threads: int = 1) -> EstimateReport:
    """Sample the marginal and report moment and entropy statistics.

    Trials are independent with their own RNG streams, so the report is
    bit-identical for a given seed regardless of thread count.  In
    Ginibre mode each sampled spectrum is normalized to unit trace.
    """
    p_list = tuple(p_list)
    rngs = trial_rngs(seed, trials)

    def one_trial(t):
        state = assemble_state(marginal, N, rngs[t], mode=mode)
        raw = np.clip(reduced_spectrum(state, marginal.traced), 0.0, None)
        raw_moments = [float(np.sum(raw ** p)) for p in p_list]
        lam = raw / raw.sum() if mode == "ginibre" else raw
        moments = [float(np.sum(lam ** p)) for p in p_list]
        pos = lam[lam > 0]
        entropy = float(-np.sum(pos * np.log(pos)))
        return moments, raw_moments, entropy

    if threads > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            results = list(pool.map(one_trial, range(trials)))
    else:
        results = [one_trial(t) for t in range(trials)]

    moment_rows = np.array([r[0] for r in results])
    raw_rows = np.array([r[1] for r in results])
    entropies = np.array([r[2] for r in results])

    def mean_stderr(col):
        mean = float(np.mean(col))
        err = float(np.std(col, ddof=1) / math.sqrt(len(col))) if len(col) > 1 else 0.0
        return mean, err

    moment_mean, moment_stderr = {}, {}
    raw_mean, raw_stderr = {}, {}
    for j, p in enumerate(p_list):
        moment_mean[p], moment_stderr[p] = mean_stderr(moment_rows[:, j])
        raw_mean[p], raw_stderr[p] = mean_stderr(raw_rows[:, j])
    h_mean, h_err = mean_stderr(entropies)

    purity_mean = moment_mean.get(2)
    purity_stderr = moment_stderr.get(2)
    return EstimateReport(
        N=N, trials=trials, seed=seed, mode=mode, p_list=p_list,
        moment_mean=moment_mean, moment_stderr=moment_stderr,
        entropy_mean=h_mean, entropy_stderr=h_err,
        entropy_bits_mean=h_mean / math.log(2.0),
        purity_mean=purity_mean, purity_stderr=purity_stderr,
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
    rngs = trial_rngs(seed, trials)
    rows = []
    max_eig = 0.0
    for rng in rngs:
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
    return ProductSpectraReport(s=s, N=N, trials=trials, seed=seed,
                                moment_mean=mean, moment_stderr=err,
                                max_eigenvalue=max_eig)
