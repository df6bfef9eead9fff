"""Spectral statistics of random graph-state marginals.

Graphs of maximally entangled pairs coupled by per-vertex Haar unitaries
induce random density matrices under partial tracing.  This package
ships four engines: the max flow of the marginal's network, the leading
moment coefficient as a weighted count over the flow's residual poset,
the exact finite-N Weingarten and Wick sums, and a Monte Carlo sampler.
On top of them it identifies the limiting eigenvalue laws (free Poisson,
Fuss-Catalan, their products, and label-poset laws).  The paper's closed
forms and the brute-force references that check the engines are test
oracles, not part of the package.
"""

from .catalog import (
    bell_pair,
    broadcast_example,
    cycle_graph,
    exotic_graph,
    fc_template,
    figure_example,
    one_loop,
    random_marginal,
    star_graph,
)
from .combinatorics import (
    ConstraintPoset,
    catalan,
    count_poset_tuples,
    fuss_catalan,
)
from .flow import FlowNetwork, MaxFlowResult, build_network, max_flow
from .graphs import GraphSpec, GraphValidationError, MarginalSpec, validate
from .moments import (
    BudgetExceededError,
    DistributionId,
    MomentReport,
    asymptotic_moment,
    classify,
    exact_moment,
    exact_moment_gaussian,
    marginal_max_flow,
    minimizer_set,
    moment_table,
)
from .montecarlo import (
    EstimateReport,
    ResourceCapError,
    assemble_state,
    estimate,
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
from .weingarten import WeingartenTable, wg_exact

__version__ = "0.1.0"
