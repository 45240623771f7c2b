"""Budgeted epidemic-control interventions on contact networks.

Two solver families are provided for choosing, under a budget, which social
ties to break (edge removal) or which people to vaccinate (node removal) so
that the expected number of infections reachable from a source under
independent edge percolation is small:

* a cut-sampling solver for unit-cost, uniform-probability instances
  (:mod:`epictrl.sbcc`), and
* a sample-average-approximation pipeline that optimizes an LP over drawn
  percolation scenarios and rounds it randomly or deterministically
  (:mod:`epictrl.saa`).

:mod:`epictrl.chunglu` generates power-law random graphs and quantifies
their simple-path counts, which govern when the randomized rounding
guarantee applies. Brute-force oracles back every solver at desk scale.

Importing the package, or its CLI, loads numpy and no heavy scipy module.
scipy.sparse and scipy.sparse.csgraph (which pull in scipy.sparse.linalg
and scipy.linalg) load on the first max flow or LP, scipy.optimize on the
first LP, and scipy.special on the first LP or weight-class allocation
bound (the Chung-Lu path-count bound is exact integer arithmetic).
Loaded at import they cost every process 0.3-0.6 s and ~37 MB of
resident memory that Monte Carlo runs never use: a fresh ``import epictrl,
epictrl.cli`` peaks at 29.7 MB instead of 66.8 MB (numpy 2.4, scipy 1.17,
2 cores). The scipy routines the package calls are module attributes
that import scipy's own on their first call (``network.maximum_flow``,
``network.breadth_first_order``, ``saa.dijkstra``); the rest are
imported inside the functions that use them.
"""

from .errors import (
    EpictrlError,
    InstanceTooLargeError,
    ParseError,
    SolverError,
    ValidationError,
)
from .network import (
    ComponentReport,
    ContactNetwork,
    Intervention,
    RegimeReport,
    component_of,
    edge_removal,
    load_network,
    merge_seeds,
    no_intervention,
    node_removal,
    sparsification_regime,
    write_network,
)
from .percolate import (
    InfectionEstimate,
    empirical_infections,
    estimate_infections,
    exact_expected_infections,
)
from .chunglu import (
    ChungLuModel,
    PathCensus,
    allocation_sum_bound,
    allocation_sum_enumerated,
    allocation_sum_recurrence,
    build_model,
    count_simple_paths,
    estimate_percolated_paths,
    expected_path_count_bound,
    generate,
)
from .saa import (
    FractionalSolution,
    LpModel,
    SampleSet,
    brute_force_optimum,
    build_lp,
    draw_samples,
    required_sample_count,
    round_deterministic,
    round_randomized,
    solve_lp,
    solve_saa,
)
from .sbcc import (
    SbccSolution,
    min_sbcc,
    min_sbcc_exact,
    min_sbcc_many,
    solve_karger,
)

__version__ = "0.1.0"
