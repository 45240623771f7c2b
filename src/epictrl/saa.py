"""Sample-average-approximation pipeline: sample, solve an LP, round.

The stochastic objective (expected infections under percolation) is replaced
by its empirical average over N drawn scenario subgraphs. Over those
scenarios, a compact LP lower-bounds the best budget-feasible removal:
fractional removal mass x on edges (or vertices), and per-scenario variables
y that propagate x-weighted shortest-path distances from the source. A path
from the source survives only if its total removal mass is small, so
maximizing y makes y_vj = min(1, distance), exactly the path-cover
constraint without enumerating paths.

The LP is built reduced, with the same optimum: in each scenario only the
source's component carries constraints (every other vertex sits at y = 1,
a constant of the objective), and scenarios whose kept component edges
coincide are merged into one, weighted by their count. The constraint
matrix is assembled with array operations; ``solve_lp`` rebuilds the dense
per-scenario y from the distinct scenarios.

Rounding is either randomized (inflate x by (gamma+5) ln(n)/epsilon and pick
independently) or deterministic (threshold at 1/(4 n^(2/3))). Brute-force
search over every budget-feasible subset provides the validation oracle.
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass

import numpy as np
from scipy import sparse

from . import rng
from .errors import InstanceTooLargeError, SolverError, ValidationError
from .network import (
    ContactNetwork,
    Intervention,
    edge_removal,
    node_removal,
    source_component_members,
)
from .percolate import (
    MASK_TABLE_CAP,
    affordable_subsets,
    empirical_infections,
    estimate_infections,
    infection_table,
    keep_rows_to_masks,
    sample_keep_matrix,
)

LP_TOLERANCE = 1e-7

# Most constraint-matrix nonzeros build_lp allocates. HiGHS used ~0.7 kB of
# memory per nonzero on a 129k-nonzero scenario LP (and 17 s of dual
# simplex), so this caps the solve near 0.7 GB; LPs past it would run for a
# long time and are better solved with fewer scenarios.
LP_NNZ_CAP = 1 << 20

# Most scenario-vertex cells, N x n, that build_lp takes on. Labelling the
# source's component and rebuilding the dense (N, n) y in solve_lp allocate
# per cell: measured peaks (tracemalloc, a 50-leaf star in n = 5000, N = 200
# to 1000, every scenario distinct) were 12 bytes per cell in build_lp and
# 17.3 in solve_lp, so this caps the pair near 100 MB and 145 MB, with or
# without a large LP (vertices outside every source component still cost a
# cell).
SCENARIO_CELL_CAP = 1 << 23

# Most uniforms, N x rng.stride_for(m), that draw_samples draws. They are
# float64, so this caps the draw at 134 MB; a theory-sized N on a graph with
# a hundred edges would otherwise draw hundreds of MB before any LP guard.
SAMPLE_DRAW_CAP = 1 << 24


@dataclass(frozen=True)
class SampleSet:
    """N percolation scenarios drawn from one network."""

    network: ContactNetwork
    keep_rows: np.ndarray  # (N, m) bool
    seed: int

    def __post_init__(self):
        rows = np.asarray(self.keep_rows, dtype=bool)
        if rows.ndim != 2 or rows.shape[1] != self.network.m:
            raise ValidationError("keep matrix shape does not match the network")
        if rows.shape[0] < 1:
            raise ValidationError("a sample set needs at least one sample")
        rows.setflags(write=False)
        object.__setattr__(self, "keep_rows", rows)

    @property
    def N(self) -> int:
        return self.keep_rows.shape[0]


def required_sample_count(n: int, m: int, epsilon: float) -> int:
    """Scenario count (3n/eps^2) * ln(n^2 * 2^(m+1)), rounded up.

    With this many samples the empirical objective of every removal set
    simultaneously concentrates within a factor (1 +- epsilon).
    """
    if not 0.0 < epsilon < 1.0:
        raise ValidationError(f"epsilon must lie in (0, 1), got {epsilon}")
    if n < 2 or m < 1:
        raise ValidationError("need n >= 2 and m >= 1")
    log_term = 2.0 * math.log(n) + (m + 1) * math.log(2.0)
    return math.ceil(3.0 * n / (epsilon * epsilon) * log_term)


def draw_samples(network: ContactNetwork, N: int, seed: int) -> SampleSet:
    """Draw N independent scenario subgraphs (indices 0..N-1).

    More than ``SAMPLE_DRAW_CAP`` uniforms (N times the network's padded
    per-sample stride) raise ``InstanceTooLargeError`` before drawing.
    """
    if N < 1:
        raise ValidationError("N must be >= 1")
    draws = N * rng.stride_for(network.m)
    if draws > SAMPLE_DRAW_CAP:
        raise InstanceTooLargeError(
            f"N = {N} scenarios of a network with m = {network.m} edges need "
            f"{draws} uniform draws, above the cap of {SAMPLE_DRAW_CAP}; pass fewer "
            f"scenarios with --samples (num_samples)"
        )
    return SampleSet(network=network, keep_rows=sample_keep_matrix(network, seed, 0, N),
                     seed=seed)


@dataclass(frozen=True)
class LpModel:
    """The reduced scenario LP in standard inequality form.

    Only the source's component of a scenario carries constraints, and
    scenarios whose kept edges inside that component coincide are merged
    into one distinct scenario weighted by its count. Columns are the
    removal variables (one per affordable entity) followed by y_vd for every
    distinct scenario d and every vertex v != s of its component, ordered by
    d, then v. Row 0 is the budget constraint with costs scaled by 1/B; the
    remaining rows propagate distances along each distinct scenario's kept
    component edges. Entities priced above the budget are hard-wired to
    zero (no column), but their edges still propagate. A vertex outside the
    component sits at y = 1 and adds nothing to the objective; ``offset``
    carries the constant part of the objective instead.
    """

    samples: SampleSet
    mode: str  # "edge" | "node"
    budget: float
    var_entities: np.ndarray  # entity id per x column
    objective: np.ndarray  # -count_d / N on every y column of distinct scenario d
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    scenario_map: np.ndarray  # (N,) distinct scenario of each scenario
    component: np.ndarray  # (D, n) bool, source's component per distinct scenario
    offset: float  # mean over scenarios of (component size - 1)
    node_costs: np.ndarray | None = None

    @property
    def network(self) -> ContactNetwork:
        return self.samples.network

    @property
    def num_x(self) -> int:
        return len(self.var_entities)

    @property
    def num_y(self) -> int:
        """Non-source component vertices, summed over distinct scenarios."""
        return len(self.objective) - self.num_x


def _entity_costs(network: ContactNetwork, mode: str, node_costs) -> np.ndarray:
    if mode == "edge":
        return network.costs
    costs = np.ones(network.n) if node_costs is None else np.asarray(node_costs, dtype=float)
    if len(costs) != network.n:
        raise ValidationError("node costs must cover every vertex")
    if np.any(costs < 0):
        raise ValidationError("node costs must be nonnegative")
    return costs


def build_lp(
    samples: SampleSet,
    budget: float,
    mode: str = "edge",
    node_costs: np.ndarray | None = None,
) -> LpModel:
    """Assemble the reduced scenario LP for an edge- or node-removal budget.

    Raises :class:`InstanceTooLargeError` when N x n exceeds
    ``SCENARIO_CELL_CAP`` scenario-vertex cells, before any per-cell array,
    and, before the constraint matrix is allocated, when it would hold more
    than ``LP_NNZ_CAP`` nonzeros.
    """
    if mode not in ("edge", "node"):
        raise ValidationError(f"unknown mode {mode!r}")
    net = samples.network
    n, s, N = net.n, net.source, samples.N
    if mode == "edge":
        if budget <= 0:
            raise ValidationError("budget must be positive")
        if not np.any(np.isfinite(net.costs)):
            raise ValidationError("network has no removable edges")
    else:
        # budget 0 is allowed and hard-wires everything (empty rounding)
        if budget < 0:
            raise ValidationError("budget must be nonnegative")
        if n < 2:
            raise ValidationError("network has no removable vertices")

    if N * n > SCENARIO_CELL_CAP:
        raise InstanceTooLargeError(
            f"N = {N} scenarios of a network with n = {n} vertices span {N * n} "
            f"scenario-vertex cells, above the cap of {SCENARIO_CELL_CAP}; pass fewer "
            f"scenarios with --samples (num_samples)"
        )

    costs = _entity_costs(net, mode, node_costs)
    if mode == "edge":
        # self-loops never affect reachability, so they get no variable
        affordable = np.isfinite(costs) & (costs <= budget) & (net.us != net.vs)
    else:
        affordable = costs <= budget
        affordable[s] = False  # the source cannot be vaccinated
    var_entities = np.flatnonzero(affordable)
    num_x = len(var_entities)
    scale = budget if budget > 0 else 1.0

    # A kept edge touching the source's component lies inside it, and these
    # edges determine the component, so they identify a distinct scenario.
    # Rows are packed 8 edges to a byte for the sort, which keeps their order.
    members = source_component_members(net, samples.keep_rows)
    inner = samples.keep_rows & members[:, net.us] & (net.us != net.vs)
    _, first, scenario_map, counts = np.unique(
        np.packbits(inner, axis=1), axis=0,
        return_index=True, return_inverse=True, return_counts=True,
    )
    inner, component = inner[first], members[first]

    # Size check. Each kept component edge is a hop in both directions
    # except into s; a hop row holds y_b, y_a unless a is s, and x if priced.
    into_u, into_v = net.us != s, net.vs != s
    hops = into_u.astype(np.int64) + into_v
    if mode == "edge":
        x_hops = hops * affordable
    else:  # entering b charges x_b, and the source has no x column
        x_hops = affordable[net.us].astype(np.int64) + affordable[net.vs]
    per_edge = inner.sum(axis=0)
    num_rows = 1 + int(per_edge @ hops)
    nnz = num_x + int(per_edge @ (hops + 2 * (into_u & into_v) + x_hops))
    if nnz > LP_NNZ_CAP:
        raise InstanceTooLargeError(
            f"the scenario LP for N={N} scenarios would have {num_rows} rows and "
            f"{nnz} nonzeros, above the cap of {LP_NNZ_CAP}; pass fewer scenarios "
            f"with --samples (num_samples)"
        )

    # y column of vertex v != s in distinct scenario d, ordered by d, then v
    y_mask = component.copy()
    y_mask[:, s] = False
    num_y = int(y_mask.sum())
    y_col = np.full(component.shape, -1, dtype=np.int64)
    y_col[y_mask] = num_x + np.arange(num_y)
    x_col = np.full(len(costs), -1, dtype=np.int64)
    x_col[var_entities] = np.arange(num_x)

    # hop a -> b reads y_b <= y_a + removal mass on the hop
    d, e = np.nonzero(inner)
    d = np.repeat(d, 2)
    a = np.stack([net.us[e], net.vs[e]], axis=1).ravel()
    b = np.stack([net.vs[e], net.us[e]], axis=1).ravel()
    e = np.repeat(e, 2)
    hop = b != s
    d, e, a, b = d[hop], e[hop], a[hop], b[hop]
    row = 1 + np.arange(len(b))
    ya = y_col[d, a]  # -1 when a is the source
    xb = x_col[e] if mode == "edge" else x_col[b]
    has_a, has_x = ya >= 0, xb >= 0
    rows = np.concatenate([np.zeros(num_x, dtype=np.int64), row, row[has_a], row[has_x]])
    cols = np.concatenate([np.arange(num_x), y_col[d, b], ya[has_a], xb[has_x]])
    vals = np.concatenate([costs[var_entities] / scale, np.ones(len(row)),
                           np.full(int(has_a.sum() + has_x.sum()), -1.0)])
    a_ub = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(num_rows, num_x + num_y), dtype=np.float64
    )
    b_ub = np.zeros(num_rows)
    b_ub[0] = 1.0  # budget row, costs scaled so the row reads <= 1
    objective = np.zeros(num_x + num_y)
    objective[num_x:] = -counts[np.nonzero(y_mask)[0]] / N
    return LpModel(
        samples=samples, mode=mode, budget=float(budget),
        var_entities=var_entities, objective=objective, a_ub=a_ub, b_ub=b_ub,
        scenario_map=scenario_map.reshape(-1), component=component,
        offset=int(counts @ y_mask.sum(axis=1)) / N,
        node_costs=None if mode == "edge" else costs,
    )


@dataclass(frozen=True)
class FractionalSolution:
    """Optimal fractional removal mass and per-scenario disconnection levels."""

    model: LpModel
    x: np.ndarray  # per entity (edge or vertex), zeros where hard-wired
    y: np.ndarray  # (N, n); y[:, source] == 0
    objective: float
    solver_status: str  # "optimal" | "iteration-limit"
    iterations: int = 0  # HiGHS simplex iterations, 0 when no simplex ran


def solve_lp(model: LpModel) -> FractionalSolution:
    """Solve the scenario LP by HiGHS's dual simplex with devex pricing.

    The solve is deterministic. Devex (Harris 1973) takes about as many
    iterations as HiGHS's default pricing on these LPs but about half the
    time per iteration; ``iterations`` reports the count. The returned
    objective equals the average, over scenarios, of the fractional count
    of non-source vertices still connected to the source.
    ``y`` is rebuilt dense over all N scenarios, at 1 outside each
    scenario's source component. With no y column the objective is
    constant, so x = 0 is taken as optimal without a solver call.
    """
    if model.num_y:
        # imported here: loading scipy.optimize takes ~0.1 s, and solvers
        # without an LP never pay it
        from scipy.optimize import linprog

        res = linprog(
            c=model.objective,
            A_ub=model.a_ub,
            b_ub=model.b_ub,
            bounds=(0.0, 1.0),
            method="highs-ds",
            options={
                "primal_feasibility_tolerance": LP_TOLERANCE,
                "dual_feasibility_tolerance": LP_TOLERANCE,
                "simplex_dual_edge_weight_strategy": "devex",
            },
        )
        if res.status == 1:
            status = "iteration-limit"
        elif res.status == 0:
            status = "optimal"
        else:
            raise SolverError(f"LP solve failed: {res.message}")
        solution, value, iterations = res.x, float(res.fun), int(res.nit)
    else:
        solution, value, status = np.zeros(len(model.objective)), 0.0, "optimal"
        iterations = 0

    net = model.network
    n, s, N = net.n, net.source, model.samples.N
    num_x = model.num_x
    width = net.m if model.mode == "edge" else net.n
    x = np.zeros(width)
    x[model.var_entities] = np.clip(solution[:num_x], 0.0, 1.0)
    y_mask = model.component.copy()
    y_mask[:, s] = False
    y_distinct = np.ones(y_mask.shape)
    y_distinct[:, s] = 0.0
    y_distinct[y_mask] = np.clip(solution[num_x:], 0.0, 1.0)
    y = y_distinct[model.scenario_map]

    objective = value + model.offset
    objective = min(max(objective, 0.0), float(n - 1))  # strip solver noise
    # sanity: budget row and objective identity within solver tolerance
    if num_x:
        row = float(model.a_ub.getrow(0).dot(solution)[0])
        if row > 1.0 + 10 * LP_TOLERANCE:
            raise SolverError(f"budget row violated: {row}")
    # over the distinct scenarios, weighted by their counts: no (N, n) copy;
    # y is 0 at s, so the n - 1 others give n - 1 - (row sum) unconnected
    counts = np.bincount(model.scenario_map, minlength=len(y_distinct))
    recomputed = float(counts @ (n - 1 - y_distinct.sum(axis=1)) / N)
    if abs(recomputed - objective) > 1e-6 * max(1.0, abs(objective)):
        raise SolverError("objective/variable inconsistency in LP solution")
    return FractionalSolution(model=model, x=x, y=y, objective=objective,
                              solver_status=status, iterations=iterations)


def round_randomized(
    frac: FractionalSolution, gamma: float, epsilon: float, seed: int
) -> Intervention:
    """Randomized rounding: keep entity e with probability min(f * x_e, 1).

    The inflation f = (gamma+5) ln(n) / epsilon makes every scenario path
    that the LP pays to cut survive with probability at most n^-(gamma+5).
    Reported costs are un-normalized.
    """
    if gamma <= 1:
        raise ValidationError("gamma must exceed 1")
    if not 0.0 < epsilon < 1.0:
        raise ValidationError(f"epsilon must lie in (0, 1), got {epsilon}")
    model = frac.model
    net = model.network
    inflate = (gamma + 5.0) * math.log(net.n) / epsilon
    probs = np.minimum(frac.x * inflate, 1.0)
    u = rng.generator(seed, "round").random(len(probs))
    picked = np.flatnonzero((u < probs) | (probs >= 1.0))
    prov = "saa-randomized"
    if model.mode == "edge":
        return edge_removal(net, picked, prov)
    return node_removal(net, picked, prov, node_costs=model.node_costs)


def round_deterministic(frac: FractionalSolution) -> Intervention:
    """Threshold rounding: keep every entity with x >= 1 / (4 n^(2/3)).

    The budget constraint then caps the selection's cost at 4 n^(2/3) B;
    this is asserted, not assumed.
    """
    model = frac.model
    net = model.network
    threshold = 1.0 / (4.0 * net.n ** (2.0 / 3.0))
    picked = np.flatnonzero(frac.x >= threshold)
    prov = "saa-deterministic"
    if model.mode == "edge":
        out = edge_removal(net, picked, prov)
    else:
        out = node_removal(net, picked, prov, node_costs=model.node_costs)
    bound = 4.0 * net.n ** (2.0 / 3.0) * model.budget
    if out.cost > bound:
        raise SolverError(
            f"deterministic rounding exceeded its cost guarantee: {out.cost} > {bound}"
        )
    return out


def separated_sets(
    frac: FractionalSolution, samples: SampleSet, epsilon: float
) -> list[frozenset[int]]:
    """Per-scenario sets of vertices the LP commits to disconnect.

    Scenario j's set holds every vertex with y_vj >= epsilon. Diagnostic:
    after a successful rounding, surviving reachable vertices should mostly
    fall outside these sets.
    """
    if not 0.0 < epsilon < 1.0:
        raise ValidationError(f"epsilon must lie in (0, 1), got {epsilon}")
    if samples is not frac.model.samples:
        raise ValidationError("samples do not match the solved model")
    rows, verts = np.nonzero(frac.y >= epsilon)
    splits = np.searchsorted(rows, np.arange(1, samples.N))
    return [frozenset(part.tolist()) for part in np.split(verts, splits)]


def brute_force_optimum(
    samples: SampleSet,
    budget: float,
    mode: str = "edge",
    node_costs: np.ndarray | None = None,
) -> tuple[Intervention, float]:
    """Exhaustive minimizer of the empirical objective under the budget.

    Returns the best intervention and its empirical average infections.
    Ties are broken toward the lexicographically smallest member set.
    ``percolate.affordable_subsets`` lists only the subsets that fit the
    budget (an edge removes itself, a vertex its incident edges), and each
    is scored over all samples through the 2^m mask table, so both modes
    need m <= ``MASK_TABLE_CAP`` (16) edges; node mode also caps at 20
    vertices.
    """
    net = samples.network
    if net.m > MASK_TABLE_CAP:
        raise InstanceTooLargeError(
            f"brute force needs m <= {MASK_TABLE_CAP} edges (the mask-table cap), got {net.m}"
        )
    if not budget >= 0:
        raise ValidationError(f"budget must be nonnegative, got {budget}")
    edge_bits = np.int64(1) << np.arange(net.m, dtype=np.int64)
    if mode == "edge":
        costs = net.costs
        candidates = np.flatnonzero(np.isfinite(costs) & (net.us != net.vs))
        removal = edge_bits[candidates]
    else:
        if net.n > 20:
            raise InstanceTooLargeError("brute force caps at 20 vertices")
        costs = _entity_costs(net, "node", node_costs)
        candidates = np.flatnonzero(np.arange(net.n) != net.source)
        incident = np.zeros(net.n, dtype=np.int64)
        np.bitwise_or.at(incident, net.us, edge_bits)
        np.bitwise_or.at(incident, net.vs, edge_bits)
        removal = incident[candidates]

    picks, removed = affordable_subsets(removal, costs[candidates], budget)
    table = infection_table(net)
    masks = keep_rows_to_masks(samples.keep_rows)
    totals = [int(table[masks & ~r].sum()) for r in removed]
    best_total = min(totals)
    best_members = min(
        tuple(int(c) for i, c in enumerate(candidates) if pick >> i & 1)
        for t, pick in zip(totals, picks.tolist()) if t == best_total
    )
    if mode == "edge":
        best = edge_removal(net, best_members, "brute-force")
    else:
        best = node_removal(net, best_members, "brute-force", node_costs=node_costs)
    return best, best_total / samples.N


def solve_saa(
    network: ContactNetwork,
    budget: float,
    epsilon: float,
    gamma: float = 2.0,
    rounding: str = "randomized",
    mode: str = "edge",
    seed: int = 0,
    num_samples: int | None = None,
    eval_samples: int = 1000,
    node_costs: np.ndarray | None = None,
) -> tuple[Intervention, dict]:
    """End-to-end pipeline: sample, solve the LP, round, evaluate.

    ``num_samples`` overrides the theory-driven scenario count (the override
    voids the concentration guarantee and is flagged in the report). The
    report evaluates the rounded solution both on the optimization samples
    and on fresh Monte Carlo draws from an independent stream.
    """
    if rounding not in ("randomized", "deterministic"):
        raise ValidationError(f"unknown rounding {rounding!r}")
    t0 = time.perf_counter()
    auto_n = required_sample_count(network.n, max(network.m, 1), epsilon)
    N = num_samples if num_samples is not None else auto_n
    samples = draw_samples(network, N, seed)
    model = build_lp(samples, budget, mode=mode, node_costs=node_costs)
    frac = solve_lp(model)
    if frac.solver_status != "optimal":
        raise SolverError(f"LP did not reach optimality: {frac.solver_status}")
    if rounding == "randomized":
        chosen = round_randomized(frac, gamma, epsilon, seed)
    else:
        chosen = round_deterministic(frac)
    fresh_seed = rng.derived_seed(seed, "eval")
    fresh = estimate_infections(network, chosen, eval_samples, fresh_seed)
    report = {
        "mode": mode,
        "rounding": rounding,
        "epsilon": epsilon,
        "gamma": gamma,
        "seed": seed,
        "budget": budget,
        "n_samples": N,
        "n_samples_auto": auto_n,
        "sample_override": num_samples is not None,
        "lp_objective": frac.objective,
        "lp_status": frac.solver_status,
        "lp_rows": model.a_ub.shape[0],
        "lp_cols": model.a_ub.shape[1],
        "lp_nnz": model.a_ub.nnz,
        "lp_iterations": frac.iterations,
        "scenarios_distinct": len(model.component),
        "cost": chosen.cost,
        "cost_ratio": chosen.cost / budget if budget > 0 else math.inf,
        "members": list(chosen.members),
        "empirical_infections": empirical_infections(samples, network, chosen),
        "fresh_mc_mean": fresh.mean,
        "fresh_mc_half_width": fresh.half_width,
        "runtime_ms": (time.perf_counter() - t0) * 1000.0,
    }
    return chosen, report
