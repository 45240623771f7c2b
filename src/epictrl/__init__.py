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
    global_min_cut,
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
