"""Sample-average-approximation pipeline: sample, solve an LP, round.

The stochastic objective (expected infections under percolation) is replaced
by its empirical average over N drawn scenario subgraphs. Over those
scenarios, a compact LP lower-bounds the best budget-feasible removal:
fractional removal mass x on edges (or vertices), and per-scenario variables
y that propagate x-weighted shortest-path distances from the source. A path
from the source survives only if its total removal mass is small, so
maximizing y makes y_vj = min(1, distance), exactly the path-cover
constraint without enumerating paths.

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
from scipy.optimize import linprog

from . import rng
from .errors import InstanceTooLargeError, SolverError, ValidationError
from .network import (
    ContactNetwork,
    Intervention,
    edge_removal,
    node_removal,
)
from .percolate import (
    MASK_TABLE_CAP,
    empirical_infections,
    estimate_infections,
    infection_table,
    keep_rows_to_masks,
    sample_keep_matrix,
)

LP_TOLERANCE = 1e-7


@dataclass(frozen=True)
class SampleSet:
    """N percolation scenarios drawn from one network."""

    network: ContactNetwork
    keep_rows: np.ndarray  # (N, m) bool
    seed: int
    epsilon: float | None = None  # the epsilon used to size N, when auto-sized

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

    def sample(self, j: int):
        from .percolate import PercolationSample

        return PercolationSample(
            kept_edges=tuple(int(e) for e in np.flatnonzero(self.keep_rows[j])),
            sample_index=j,
            seed=self.seed,
        )


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


def draw_samples(
    network: ContactNetwork, N: int, seed: int, epsilon: float | None = None
) -> SampleSet:
    """Draw N independent scenario subgraphs (indices 0..N-1)."""
    if N < 1:
        raise ValidationError("N must be >= 1")
    return SampleSet(network=network, keep_rows=sample_keep_matrix(network, seed, 0, N),
                     seed=seed, epsilon=epsilon)


@dataclass(frozen=True)
class LpModel:
    """The compact scenario LP in standard inequality form.

    Columns are the removal variables (one per affordable entity) followed by
    y_vj for every non-source vertex v and scenario j. Row 0 is the budget
    constraint with costs scaled by 1/B; the remaining rows propagate
    distances along each scenario's kept edges. Entities priced above the
    budget are hard-wired to zero (no column), but their edges still
    propagate.
    """

    samples: SampleSet
    mode: str  # "edge" | "node"
    budget: float
    var_entities: np.ndarray  # entity id per x column
    objective: np.ndarray
    a_ub: sparse.csr_matrix
    b_ub: np.ndarray
    node_costs: np.ndarray | None = None

    @property
    def network(self) -> ContactNetwork:
        return self.samples.network

    @property
    def num_x(self) -> int:
        return len(self.var_entities)

    @property
    def num_y(self) -> int:
        return self.samples.N * (self.network.n - 1)


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
    """Assemble the scenario LP for an edge- or node-removal budget."""
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

    costs = _entity_costs(net, mode, node_costs)
    if mode == "edge":
        # self-loops never affect reachability, so they get no variable
        affordable = np.isfinite(costs) & (costs <= budget) & (net.us != net.vs)
    else:
        affordable = costs <= budget
        affordable[s] = False  # the source cannot be vaccinated
    var_entities = np.flatnonzero(affordable)
    col_of_entity = {int(e): i for i, e in enumerate(var_entities)}
    num_x = len(var_entities)
    scale = budget if budget > 0 else 1.0

    # y columns: vertex v != s in scenario j at num_x + j*(n-1) + rank(v)
    vrank = np.full(n, -1, dtype=np.int64)
    others = [v for v in range(n) if v != s]
    for r, v in enumerate(others):
        vrank[v] = r

    def ycol(j: int, v: int) -> int:
        return num_x + j * (n - 1) + int(vrank[v])

    rows: list[int] = []
    cols: list[int] = []
    vals: list[float] = []

    # budget row (always row 0, costs scaled so the row reads <= 1)
    for i, e in enumerate(var_entities):
        rows.append(0)
        cols.append(i)
        vals.append(float(costs[e]) / scale)
    b: list[float] = [1.0]

    loops = net.us == net.vs
    row = 1
    for j in range(N):
        kept = np.flatnonzero(samples.keep_rows[j] & ~loops)
        for e in kept:
            u, v = int(net.us[e]), int(net.vs[e])
            for a, bvert in ((u, v), (v, u)):
                if bvert == s:
                    continue  # a hop into the source constrains nothing
                # y_b <= y_a + removal mass on this hop
                cs, vs_ = [ycol(j, bvert)], [1.0]
                if a != s:
                    cs.append(ycol(j, a))
                    vs_.append(-1.0)
                if mode == "edge":
                    xe = col_of_entity.get(int(e))
                else:
                    xe = col_of_entity.get(bvert)  # entering b charges x_b
                if xe is not None:
                    cs.append(xe)
                    vs_.append(-1.0)
                rows.extend([row] * len(cs))
                cols.extend(cs)
                vals.extend(vs_)
                b.append(0.0)
                row += 1

    num_vars = num_x + N * (n - 1)
    a_ub = sparse.csr_matrix(
        (vals, (rows, cols)), shape=(row, num_vars), dtype=np.float64
    )
    objective = np.zeros(num_vars)
    objective[num_x:] = -1.0 / N
    return LpModel(
        samples=samples, mode=mode, budget=float(budget),
        var_entities=var_entities, objective=objective,
        a_ub=a_ub, b_ub=np.asarray(b), node_costs=None if mode == "edge" else costs,
    )


@dataclass(frozen=True)
class FractionalSolution:
    """Optimal fractional removal mass and per-scenario disconnection levels."""

    model: LpModel
    x: np.ndarray  # per entity (edge or vertex), zeros where hard-wired
    y: np.ndarray  # (N, n); y[:, source] == 0
    objective: float
    solver_status: str  # "optimal" | "iteration-limit"


def solve_lp(model: LpModel) -> FractionalSolution:
    """Solve the scenario LP (deterministic dual simplex).

    The returned objective equals the average, over scenarios, of the
    fractional count of non-source vertices still connected to the source.
    """
    res = linprog(
        c=model.objective,
        A_ub=model.a_ub,
        b_ub=model.b_ub,
        bounds=(0.0, 1.0),
        method="highs-ds",
        options={
            "primal_feasibility_tolerance": LP_TOLERANCE,
            "dual_feasibility_tolerance": LP_TOLERANCE,
        },
    )
    if res.status == 1:
        status = "iteration-limit"
    elif res.status == 0:
        status = "optimal"
    else:
        raise SolverError(f"LP solve failed: {res.message}")

    net = model.network
    n, s, N = net.n, net.source, model.samples.N
    num_x = model.num_x
    width = net.m if model.mode == "edge" else net.n
    x = np.zeros(width)
    x[model.var_entities] = np.clip(res.x[:num_x], 0.0, 1.0)
    y = np.zeros((N, n))
    others = [v for v in range(n) if v != s]
    y[:, others] = np.clip(res.x[num_x:].reshape(N, n - 1), 0.0, 1.0)

    objective = float(res.fun) + (n - 1)
    objective = min(max(objective, 0.0), float(n - 1))  # strip solver noise
    # sanity: budget row and objective identity within solver tolerance
    if num_x:
        row = float(model.a_ub.getrow(0).dot(res.x)[0])
        if row > 1.0 + 10 * LP_TOLERANCE:
            raise SolverError(f"budget row violated: {row}")
    recomputed = float(np.sum(1.0 - y[:, others]) / N)
    if abs(recomputed - objective) > 1e-6 * max(1.0, abs(objective)):
        raise SolverError("objective/variable inconsistency in LP solution")
    return FractionalSolution(model=model, x=x, y=y, objective=objective,
                              solver_status=status)


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
    out = []
    for j in range(samples.N):
        out.append(frozenset(int(v) for v in np.flatnonzero(frac.y[j] >= epsilon)))
    return out


def _subset_totals_edge(
    samples: SampleSet, candidates: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """Subset costs and infection totals for every subset of candidate edges.

    Subset r (bit i = candidate i removed) maps to its total cost and the
    summed source-component sizes over all samples.
    """
    net = samples.network
    table = infection_table(net)
    masks = keep_rows_to_masks(samples.keep_rows)
    subset_cost = np.zeros(1, dtype=np.float64)
    keep_bits = np.full(1, (1 << net.m) - 1, dtype=np.int64)
    for e in candidates:
        subset_cost = np.concatenate([subset_cost, subset_cost + net.costs[e]])
        keep_bits = np.concatenate([keep_bits, keep_bits & ~(1 << int(e))])
    totals = np.empty(len(keep_bits), dtype=np.int64)
    for r in range(len(keep_bits)):
        totals[r] = int(table[masks & keep_bits[r]].sum())
    return subset_cost, totals


def _subset_totals_node(
    samples: SampleSet, candidates: np.ndarray, costs: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    net = samples.network
    table = infection_table(net)
    masks = keep_rows_to_masks(samples.keep_rows)
    incident = np.zeros(net.n, dtype=np.int64)
    for e in range(net.m):
        incident[net.us[e]] |= 1 << e
        incident[net.vs[e]] |= 1 << e
    full = (1 << net.m) - 1
    subset_cost = np.zeros(1, dtype=np.float64)
    keep_bits = np.full(1, full, dtype=np.int64)
    for v in candidates:
        subset_cost = np.concatenate([subset_cost, subset_cost + costs[v]])
        keep_bits = np.concatenate([keep_bits, keep_bits & ~incident[v]])
    totals = np.empty(len(keep_bits), dtype=np.int64)
    for r in range(len(keep_bits)):
        totals[r] = int(table[masks & keep_bits[r]].sum())
    return subset_cost, totals


def brute_force_optimum(
    samples: SampleSet,
    budget: float,
    mode: str = "edge",
    node_costs: np.ndarray | None = None,
) -> tuple[Intervention, float]:
    """Exhaustive minimizer of the empirical objective under the budget.

    Returns the best intervention and its empirical average infections.
    Ties are broken toward the lexicographically smallest member set.
    Subsets are scored through the 2^m mask table, so both modes need
    m <= ``MASK_TABLE_CAP`` (16) edges; node mode also caps at 20 vertices.
    """
    net = samples.network
    if net.m > MASK_TABLE_CAP:
        raise InstanceTooLargeError(
            f"brute force needs m <= {MASK_TABLE_CAP} edges (the mask-table cap), got {net.m}"
        )
    if mode == "edge":
        removable = np.isfinite(net.costs) & (net.us != net.vs)
        candidates = np.flatnonzero(removable & (net.costs <= budget))
        costs, totals = _subset_totals_edge(samples, candidates)
    else:
        if net.n > 20:
            raise InstanceTooLargeError("brute force caps at 20 vertices")
        all_costs = _entity_costs(net, "node", node_costs)
        candidates = np.asarray(
            [v for v in range(net.n) if v != net.source and all_costs[v] <= budget],
            dtype=np.int64,
        )
        costs, totals = _subset_totals_node(samples, candidates, all_costs)

    feasible = costs <= budget
    best_total = None
    best_members: tuple[int, ...] | None = None
    for r in np.flatnonzero(feasible):
        t = int(totals[r])
        if best_total is None or t < best_total:
            best_total = t
            best_members = _subset_members(int(r), candidates)
        elif t == best_total:
            members = _subset_members(int(r), candidates)
            if members < best_members:
                best_members = members
    assert best_total is not None  # the empty set is always feasible
    if mode == "edge":
        best = edge_removal(net, best_members, "brute-force")
    else:
        best = node_removal(net, best_members, "brute-force", node_costs=node_costs)
    return best, best_total / samples.N


def _subset_members(r: int, candidates: np.ndarray) -> tuple[int, ...]:
    out = []
    i = 0
    while r:
        if r & 1:
            out.append(int(candidates[i]))
        r >>= 1
        i += 1
    return tuple(out)


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
    samples = draw_samples(network, N, seed, epsilon=epsilon)
    model = build_lp(samples, budget, mode=mode, node_costs=node_costs)
    frac = solve_lp(model)
    if frac.solver_status != "optimal":
        raise SolverError(f"LP did not reach optimality: {frac.solver_status}")
    if rounding == "randomized":
        chosen = round_randomized(frac, gamma, epsilon, seed)
    else:
        chosen = round_deterministic(frac)
    fresh_seed = int(rng.philox_key(seed, "eval")[0] & 0x7FFFFFFF)
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
        "cost": chosen.cost,
        "cost_ratio": chosen.cost / budget if budget > 0 else math.inf,
        "members": list(chosen.members),
        "empirical_infections": empirical_infections(samples, network, chosen),
        "fresh_mc_mean": fresh.mean,
        "fresh_mc_half_width": fresh.half_width,
        "runtime_ms": (time.perf_counter() - t0) * 1000.0,
    }
    return chosen, report
