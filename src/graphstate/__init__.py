"""Spectral statistics of random graph-state marginals.

Graphs of maximally entangled pairs coupled by per-vertex Haar unitaries
induce random density matrices under partial tracing.  This package
computes their moments exactly (Weingarten sums) and asymptotically
(max-flow exponents with residual-poset coefficients), identifies the
limiting eigenvalue laws (free Poisson, Fuss-Catalan, their products,
and label-poset laws), and verifies everything against a Monte Carlo
sampler.
"""

from .catalog import (
    bell_pair,
    broadcast_example,
    cycle_graph,
    exotic_graph,
    exotic_poset,
    fc_template,
    figure_example,
    one_loop,
    random_marginal,
    star_graph,
)
from .combinatorics import (
    ConstraintPoset,
    NCPartition,
    Perm,
    catalan,
    count_chains,
    count_poset_tuples,
    enumerate_nc,
    fuss_catalan,
    mobius,
)
from .flow import FlowNetwork, MaxFlowResult, build_network, max_flow
from .graphs import GraphSpec, GraphValidationError, MarginalSpec, validate
from .moments import (
    BudgetExceededError,
    DistributionId,
    MomentReport,
    asymptotic_moment,
    classify,
    cycle_marginal,
    exact_moment,
    exact_moment_gaussian,
    marginal_max_flow,
    minimizer_set,
    moment_table,
    one_unitary_marginal,
    star_marginal,
)
from .montecarlo import (
    EstimateReport,
    ResourceCapError,
    assemble_state,
    estimate,
    ginibre_product_spectra,
    haar_unitary,
    reduced_spectrum,
)
from .spectra import (
    DensityFn,
    fc2_density,
    fc_density,
    fc_entropy,
    fc_support,
    mp_density,
    mp_entropy,
)
from .weingarten import WeingartenTable, wg_asym, wg_exact

__version__ = "0.1.0"
