"""Sample-average-approximation pipeline: sample, solve an LP, round.

The stochastic objective (expected infections under percolation) is replaced
by its empirical average over N drawn scenario subgraphs. Over those
scenarios, an LP lower-bounds the best budget-feasible removal: fractional
removal mass x on edges (or vertices), and per scenario the disconnection
level y_vj = min(1, x-weighted distance from the source to v), which is
the path-cover constraint without enumerating paths. For fixed x the best
y is exactly that capped distance, so the LP is solved over x alone: its
objective is a convex, piecewise-linear function of x, minimised by
Kelley's cutting planes with one shortest-path run per round. The
objective is a sum of per-vertex terms, so each round adds one cut per
vertex (the multi-cut form of the L-shaped method). The master LPs of one
solve share one HiGHS model, which each round extends by its cuts and
re-solves from its last basis.

Scenarios are held reduced, with the same optimum: only the source's
component of a scenario matters (every other vertex sits at y = 1, a
constant of the objective), and a ``SampleSet`` keeps each distinct set of
kept component edges once, with its count, so no array scales with N n.
Those edges become one graph whose source copies are merged, so one
Dijkstra run gives every distance. A network keeps the arrays of the last
``SampleSet`` drawn on it, keyed by (N, seed), so the solvers and the
brute-force oracle that run on the same scenarios draw and label them once.

Rounding is either randomized (inflate x by (gamma+5) ln(n)/epsilon and pick
independently) or deterministic (threshold at 1/(4 n^(2/3))). Brute-force
search over every budget-feasible subset provides the validation oracle.
"""

from __future__ import annotations

import importlib
import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import InstanceTooLargeError, SolverError, ValidationError
from .network import (
    ContactNetwork,
    Intervention,
    breadth_first_order,
    check_budget,
    edge_removal,
    kernel_rows,
    node_removal,
    source_component_members,
)
from .percolate import (
    MASK_TABLE_CAP,
    PATTERN_CELLS,
    affordable_subsets,
    check_eval_samples,
    empirical_infections,
    estimate_infections,
    infection_table,
    keep_rows_to_masks,
    prepare_removal,
    sample_keep_matrix,
)

LP_TOLERANCE = 1e-7

# Kelley's loop stops once the best F seen is within CUT_GAP max(1, F) of
# the last master LP's bound, or at MAX_CUT_ROUNDS oracle calls; desk-sized
# LPs take up to ~12 rounds and the n = 200, N = 400 Chung-Lu LPs 2.
CUT_GAP = 1e-9
MAX_CUT_ROUNDS = 500

# Most distinct scenario-vertex cells, D x n, that draw_samples takes on; it
# bounds build_lp's transient int32 index of those cells. Peaks per cell
# (tracemalloc, a 20-leaf star in n = 40,000, N = 100 and 200, all distinct)
# were 0.1-0.2 bytes in draw_samples, 4.0 in build_lp, 0.05 in solve_lp.
DISTINCT_CELL_CAP = 1 << 23

# Most cells, N x m, that draw_samples draws, one kernel block at a time.
# A cell is one 32-bit half of its PCG64DXSM stream, two an output: sample
# j takes the ceil(m/2) outputs from output j ceil(m/2) (rng.sample_stream),
# for odd m leaving the high half of its last one unused, and an edge is
# kept when its half is below p_e 2^32, within 2^-32 of p_e. The merge
# after the draw keeps a few int64s per scenario, and this bounds N for it:
# N <= 2^24 / m.
SAMPLE_DRAW_CAP = 1 << 24


@dataclass(frozen=True)
class SampleSet:
    """N percolation scenarios from one network, held as the D distinct ones.

    A restricted row keeps a scenario's kept non-loop edges inside the
    source's component, which fix that component: the source and the ends of
    the row's edges. The distinct rows are in ``np.unique``'s order; the
    arrays are read-only.
    """

    network: ContactNetwork
    rows: np.ndarray  # (D, m) bool, the distinct restricted rows
    counts: np.ndarray  # (D,) int64, scenarios per row
    N: int  # scenarios drawn, counts.sum()


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
    """Draw N independent scenario subgraphs (indices 0..N-1), merged.

    Scenarios are drawn and labelled in the component kernel's blocks, so no
    (N, n) array exists, and one ``_distinct_rows`` merges their packed
    restricted rows. Over ``SAMPLE_DRAW_CAP`` cells (N times m, one 32-bit
    uniform draw each) ``InstanceTooLargeError`` is raised before the draw, and over
    ``DISTINCT_CELL_CAP`` cells (D n) right after the merge, before the
    rows are unpacked.

    The network keeps the arrays of the last set drawn on it, keyed by (N,
    seed), for its lifetime: the set is a pure function of (network, N,
    seed), so a call with the same key returns a set over those arrays and
    draws nothing. Both caps are checked on such a call too, with the same
    messages.
    """
    if N < 1:
        raise ValidationError("N must be >= 1")
    n, m, us, vs = network.n, network.m, network.us, network.vs
    draws = N * m
    if draws > SAMPLE_DRAW_CAP:
        raise InstanceTooLargeError(
            f"N = {N} scenarios of a network with m = {m} edges need "
            f"{draws} uniform draws, above the cap of {SAMPLE_DRAW_CAP}; pass fewer "
            f"scenarios with --samples (num_samples)"
        )
    cached = network.__dict__.get("_samples")
    if cached is not None and cached[0] == (N, seed):
        samples = SampleSet(network, *cached[1], N)
        _check_distinct_cells(N, n, len(samples.counts))
        return samples
    step = kernel_rows(network)
    packed = np.empty((N, -(-m // 8)), dtype=np.uint8)
    for start in range(0, N, step):
        keep = sample_keep_matrix(network, seed, start, min(step, N - start))
        # a kept edge touching the source's component lies inside it
        inner = keep & source_component_members(network, keep)[:, us] & (us != vs)
        packed[start:start + len(keep)] = np.packbits(inner, axis=1)
    first, counts = _distinct_rows(packed)
    _check_distinct_cells(N, n, len(first))
    rows = np.unpackbits(packed[first], axis=1, count=m).astype(bool)
    arrays = (rows, counts)
    for array in arrays:
        array.setflags(write=False)
    # the network keeps the arrays, not the SampleSet: a set refers to its
    # network, and that cycle would keep each dropped network alive until a
    # full garbage collection
    object.__setattr__(network, "_samples", ((N, seed), arrays))
    return SampleSet(network, *arrays, N)


def _check_distinct_cells(N: int, n: int, D: int) -> None:
    if D * n > DISTINCT_CELL_CAP:
        raise InstanceTooLargeError(
            f"N = {N} scenarios of a network with n = {n} vertices have D = {D} "
            f"distinct ones, {D * n} cells, above the cap of {DISTINCT_CELL_CAP}; "
            f"pass fewer scenarios with --samples (num_samples)"
        )


@dataclass(frozen=True)
class LpModel:
    """The reduced scenario LP, posed over the removal mass x alone.

    The kept component edges of the samples' distinct scenarios form one
    graph. Distinct scenario d adds a copy of every vertex v != s of its
    component: ``y_cells`` holds the flat (d, v) cell of each copy in
    row-major order, and copy i is graph vertex i + 1. Every copy of s is
    merged into vertex 0, which is exact because the copies meet only at s.
    Each kept component edge gives an arc in both directions except into s,
    sorted by (tail, head); ``arc_col`` is the x column that weighs the arc
    (its edge's, or in node mode its head's), -1 when none does. Columns
    exist only for affordable entities that weigh some arc; every other
    entity is hard-wired to zero. ``budget_row`` holds the costs of the x
    columns scaled by 1/B, so that the budget reads budget_row @ x <= 1.
    ``offset`` is the mean over scenarios of (component size - 1).
    """

    samples: SampleSet
    mode: str  # "edge" | "node"
    budget: float
    var_entities: np.ndarray  # entity id per x column
    budget_row: np.ndarray  # (num_x,) cost / B per x column
    offset: float
    y_cells: np.ndarray  # (num_y,) flat (d, v) cell of each non-source vertex copy
    arc_tail: np.ndarray  # graph vertex per arc, 0 for the merged source
    arc_head: np.ndarray
    arc_col: np.ndarray

    @property
    def network(self) -> ContactNetwork:
        return self.samples.network

    @property
    def num_x(self) -> int:
        return len(self.var_entities)

    @property
    def num_y(self) -> int:
        """Non-source component vertices, summed over distinct scenarios."""
        return len(self.y_cells)

    # The budget row as the (1, num_x) sparse matrix, which the benchmark's
    # trace reads as the LP's size. Nothing in the package uses it; the
    # benchmark change that takes the LP size from the report's counters
    # deletes it.
    @property
    def a_ub(self):
        from scipy import sparse

        return sparse.csr_matrix(self.budget_row.reshape(1, -1))


def _distinct_rows(rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """``np.unique(rows, axis=0)``'s index and counts for uint8 rows.

    Rows are padded with zero bytes to whole 8-byte words and read as
    big-endian uint64, which orders them as their bytes do. A stable sort
    on the words, the first word primary, then ranks the rows as
    ``np.unique``'s sort of rows as a void dtype does, first occurrences
    first, at a fraction of its cost.
    """
    num, width = rows.shape
    padded = np.zeros((num, max(1, -(-width // 8)) * 8), dtype=np.uint8)
    padded[:, :width] = rows
    words = padded.view(">u8")
    order = np.lexsort(words.T[::-1])
    ranked = words[order]
    starts = np.ones(num, dtype=bool)
    starts[1:] = np.any(ranked[1:] != ranked[:-1], axis=1)
    return order[starts], np.diff(np.append(np.flatnonzero(starts), num))


def build_lp(samples: SampleSet, budget: float, mode: str = "edge") -> LpModel:
    """Presolve the scenario LP for an edge- or node-removal budget.

    A row's component is the source and the ends of its kept edges, marked
    in a transient int32 index of the D n (scenario, vertex) cells that
    ``DISTINCT_CELL_CAP`` bounds. The merged graph has at most D n vertices
    and 2 D m arcs, so that cap and ``SAMPLE_DRAW_CAP`` (N m) bound it.
    """
    if mode not in ("edge", "node"):
        raise ValidationError(f"unknown mode {mode!r}")
    net = samples.network
    n, s = net.n, net.source
    check_budget(budget)
    if mode == "edge":
        if budget <= 0:
            raise ValidationError("budget must be positive")
        if not np.any(np.isfinite(net.costs)):
            raise ValidationError("network has no removable edges")
        costs = net.costs
        # self-loops never affect reachability, so they get no variable
        affordable = np.isfinite(costs) & (costs <= budget) & (net.us != net.vs)
    else:
        # budget 0 is allowed and hard-wires everything (empty rounding)
        if n < 2:
            raise ValidationError("network has no removable vertices")
        costs = np.ones(n)  # a vertex costs 1: the budget counts vertices
        affordable = costs <= budget
        affordable[s] = False  # the source cannot be vaccinated
    scale = budget if budget > 0 else 1.0

    # graph vertex of each (d, v) cell: 0 for s and outside the component,
    # i + 1 for copy i; int32 holds it, as DISTINCT_CELL_CAP holds the D n
    # cells at 2^23, and it is dropped once the kept edges' ends are read
    num_rows = len(samples.counts)
    d, e = np.divmod(np.flatnonzero(samples.rows), net.m)
    ends = np.stack([d * n + net.us[e], d * n + net.vs[e]], axis=1)  # (d, v) cells
    cell_vertex = np.zeros(num_rows * n, dtype=np.int32)
    cell_vertex[ends] = 1
    cell_vertex[s::n] = 0
    y_cells = np.flatnonzero(cell_vertex)
    cell_vertex[y_cells] = np.arange(1, len(y_cells) + 1)
    ends = cell_vertex[ends].astype(np.int64)
    del cell_vertex

    # arcs u -> v and v -> u of each kept component edge, but none into s
    tail, head, e = ends.ravel(), ends[:, ::-1].ravel(), np.repeat(e, 2)
    hop = head != 0
    tail, head, e = tail[hop], head[hop], e[hop]
    weighs = e if mode == "edge" else y_cells[head - 1] % n
    live = np.zeros(len(costs), dtype=bool)
    live[weighs] = True
    var_entities = np.flatnonzero(affordable & live)
    x_col = np.full(len(costs), -1, dtype=np.int64)
    x_col[var_entities] = np.arange(len(var_entities))
    order = np.lexsort((head, tail))
    return LpModel(
        samples=samples, mode=mode, budget=float(budget), var_entities=var_entities,
        budget_row=costs[var_entities] / scale,
        offset=int(samples.counts @ np.bincount(y_cells // n, minlength=num_rows)) / samples.N,
        y_cells=y_cells,
        arc_tail=tail[order], arc_head=head[order], arc_col=x_col[weighs][order],
    )


@dataclass(frozen=True)
class FractionalSolution:
    """Optimal fractional removal mass and per-scenario disconnection levels."""

    model: LpModel
    x: np.ndarray  # per entity (edge or vertex), zeros where hard-wired
    # (num_y,) level of each copy, aligned with model.y_cells; every other
    # cell sits at 1 outside its scenario's component and 0 at the source
    y: np.ndarray
    objective: float
    solver_status: str  # "optimal" | "iteration-limit"
    # dual-simplex iterations summed over every master LP, each one warm
    # started from the previous master's basis
    iterations: int = 0
    # oracle calls: a breadth-first search at x = 0, then one Dijkstra each
    cut_rounds: int = 0
    # last master's rows (1 + cuts), columns (num_x + G) and nonzeros
    master_size: tuple[int, int, int] = (0, 0, 0)


def _cut_rows(dist, pred, copy_counts, groups, model: LpModel, num_groups: int):
    """One cut per group at the point that gave the shortest-path tree (dist, pred).

    Group v's share of F is F_v(x) = sum over v's copies i of w_i (1 -
    min(1, dist_i(x))), with w_i = copy_counts[i] / N. For every x it is
    at least the sum over the close copies (dist < 1) of w_i (1 - x(P_i)),
    with P_i the tree path of copy i, and equal to it at the tree's point.
    Row v states that cut as g_v @ x - theta_v <= -(v's close weight),
    theta_v being column num_x + v: each close copy charges -w_i to the x
    column of every arc on its path, in its own group's row. A close
    vertex's ancestors are all close, so the paths are walked up one level
    at a time. The rows come back as CSR (start, index, value, rhs), never
    dense; every group gets a row, even one with no close copy.

    A tree arc is an arc whose tail is its head's predecessor; scipy's pred
    is int32, so it is only compared and indexed, never multiplied. Each
    entry is the int64 key ((row, column) << bits) | count, so one sort
    groups the entries by (row, column) and the counts sum exactly. An arc
    that weighs no column takes the column ``end`` past every row, so a key
    stays below ((2 G - 1) width + 1) << bits, which ``solve_lp`` checks
    against 2^63 before the first round (:func:`_check_cut_keys`).
    """
    num_x, N = model.num_x, model.samples.N
    width = num_x + num_groups
    end = num_groups * width  # the key of an arc that weighs no column: past every row
    bits = N.bit_length()
    tree = pred[model.arc_head] == model.arc_tail
    cols = model.arc_col[tree]
    tree_key = np.empty(len(dist), dtype=np.int64)  # read at close vertices only
    tree_key[model.arc_head[tree]] = np.where(cols >= 0, cols, end) << bits
    verts = np.flatnonzero(dist[1:] < 1.0) + 1
    row, count = groups[verts - 1], copy_counts[verts - 1]
    rhs = -np.bincount(row, weights=count, minlength=num_groups) / N
    keys = [(np.arange(num_groups) * (width + 1) + num_x) << bits]  # theta_v in row v
    base = row * width << bits | count
    while len(verts):
        keys.append(base + tree_key[verts])
        verts = pred[verts]
        up = verts != 0
        verts, base = verts[up], base[up]
    keys = np.concatenate(keys)
    keys.sort()  # sorted, then masked, in place: a copy takes 8 bytes per entry
    pairs = keys >> bits
    starts = np.ones(len(keys), dtype=bool)
    np.not_equal(pairs[1:], pairs[:-1], out=starts[1:])
    heads = np.flatnonzero(starts)
    keys &= (1 << bits) - 1
    totals = np.add.reduceat(keys, heads)
    pairs = pairs[heads]
    stop = np.searchsorted(pairs, end)
    index = pairs[:stop] % width
    value = np.where(index < num_x, -totals[:stop] / N, -1.0)
    return np.searchsorted(pairs[:stop], np.arange(num_groups + 1) * width), index, value, rhs


def _check_cut_keys(num_groups: int, width: int, N: int) -> None:
    """Raise ``InstanceTooLargeError`` when :func:`_cut_rows`' int64 keys could
    wrap: a ``SampleSet`` built by hand skips ``SAMPLE_DRAW_CAP``."""
    if ((2 * num_groups - 1) * width + 1) << N.bit_length() >= 1 << 63:
        raise InstanceTooLargeError(
            f"N = {N} scenarios over G = {num_groups} component vertices and "
            f"{width - num_groups} LP columns need int64 cut keys up to "
            f"((2 G - 1) (columns + G) + 1) 2^{N.bit_length()}, at or above 2^63; "
            f"pass fewer scenarios with --samples (num_samples)"
        )


def _highs():
    """scipy's HiGHS bindings, ``scipy.optimize._highspy._core``.

    A private module, so a scipy that lacks it, or lacks one of the names
    the master LP reads from it, raises :class:`SolverError` naming the
    installed and the tested scipy version; there is no second LP path.
    Imported on first use: loading scipy.optimize takes ~0.1 s, and solvers
    without an LP never pay it.
    """
    try:
        highs = importlib.import_module("scipy.optimize._highspy._core")
        for name in ("_Highs", "HighsLp", "HighsOptions", "HighsStatus",
                     "HighsModelStatus", "MatrixFormat", "simplex_constants"):
            getattr(highs, name)
    except (ImportError, AttributeError) as err:
        import scipy

        raise SolverError(
            f"scipy {scipy.__version__} lacks the HiGHS bindings the master LP "
            f"uses, scipy.optimize._highspy._core ({err}); tested with scipy 1.17.1"
        ) from None
    return highs


def _master_solver(budget_row: np.ndarray, num_groups: int):
    """One HiGHS instance holding the first master: the budget row alone.

    The options are those ``linprog(method="highs-ds")`` sets, but for
    presolve: the simplex solver with the dual strategy, primal and dual
    feasibility tolerances ``LP_TOLERANCE`` and no output; every other
    option keeps HiGHS's default. Presolve is off. HiGHS runs it only on a
    model without a basis, so only on the first, cold master, where it took
    about half of that master's time (70-row masters of the n = 200 Chung-Lu
    LPs). The model minimises the sum of the ``num_groups``
    theta columns, which follow the x columns, under budget_row @ x <= 1
    (exact zeros dropped), 0 <= x <= 1 and theta >= 0; ``_solve_master``
    adds the cuts.
    """
    highs = _highs()
    options = highs.HighsOptions()
    options.output_flag = options.log_to_console = False
    options.presolve, options.solver = "off", "simplex"
    dual = highs.simplex_constants.SimplexStrategy.kSimplexStrategyDual
    options.simplex_strategy = int(dual)
    options.primal_feasibility_tolerance = options.dual_feasibility_tolerance = LP_TOLERANCE
    solver = highs._Highs()
    if solver.passOptions(options) != highs.HighsStatus.kOk:
        raise SolverError("HiGHS rejected the master LP options")

    num_x = len(budget_row)
    cols = num_x + num_groups
    lp = highs.HighsLp()
    lp.num_col_, lp.num_row_ = cols, 1
    lp.col_cost_ = np.append(np.zeros(num_x), np.ones(num_groups))
    lp.col_lower_ = np.zeros(cols)
    lp.col_upper_ = np.append(np.ones(num_x), np.full(num_groups, np.inf))
    lp.row_lower_, lp.row_upper_ = np.full(1, -np.inf), np.ones(1)
    matrix = lp.a_matrix_
    matrix.format_ = highs.MatrixFormat.kRowwise
    matrix.num_col_, matrix.num_row_ = cols, 1
    index = np.flatnonzero(budget_row)
    matrix.start_ = np.array([0, len(index)])
    matrix.index_ = index
    matrix.value_ = budget_row[index]
    if solver.passModel(lp) == highs.HighsStatus.kError:
        raise SolverError("master LP solve failed: HiGHS rejected the model")
    return solver


def _solve_master(
    solver, start: np.ndarray, index: np.ndarray, value: np.ndarray, rhs: np.ndarray
) -> tuple[int, np.ndarray, float, int]:
    """Add the cuts (CSR rows, each <= its rhs) to the master and solve it again.

    The rows go in with one ``addRows``, and the model keeps the basis of
    the previous solve. New cuts leave that basis dual feasible, so dual
    simplex restarts from it instead of from scratch. Returns
    ``linprog``'s status code (0 optimal, 1 iteration limit), the column
    values, the objective and this run's simplex iterations; any other
    model status raises :class:`SolverError` with HiGHS's status string.
    """
    highs = _highs()
    added = solver.addRows(len(rhs), np.full(len(rhs), -np.inf), rhs, len(index),
                           start[:-1].astype(np.int32), index.astype(np.int32), value)
    if added == highs.HighsStatus.kError:
        raise SolverError("master LP solve failed: HiGHS rejected the cuts")
    solver.run()
    status = solver.getModelStatus()
    info = solver.getInfo()
    iterations = int(info.simplex_iteration_count)
    if status == highs.HighsModelStatus.kIterationLimit:
        return 1, np.zeros(solver.getNumCol()), math.nan, iterations
    if status != highs.HighsModelStatus.kOptimal:
        raise SolverError(f"master LP solve failed: {solver.modelStatusToString(status)}")
    solution = np.array(solver.getSolution().col_value)
    return 0, solution, info.objective_function_value, iterations


def dijkstra(*args, **kwargs):
    """``scipy.sparse.csgraph.dijkstra``, imported on its first call, like
    ``network.breadth_first_order``."""
    from scipy.sparse.csgraph import dijkstra

    return dijkstra(*args, **kwargs)


def solve_lp(model: LpModel) -> FractionalSolution:
    """Solve the scenario LP by Kelley's cutting planes over x, one cut per vertex.

    The LP optimum is the minimum over the budget box {0 <= x <= 1, budget
    row} of the convex, piecewise-linear F(x) = sum_d w_d sum_v (1 - min(1,
    dist_d(v; x))), where w_d is the share of scenarios merged into distinct
    scenario d and dist_d is the x-weighted distance from s along d's kept
    component edges. F is the sum over the G base vertices v != s that some
    component holds of F_v, the terms of v's copies, so each oracle call
    gives one cut per base vertex: the multi-cut L-shaped method (Birge and
    Louveaux 1988). A round's oracle is one Dijkstra over the merged graph
    (capped at distance 1), which gives F(x_k) and, from its tree, the cuts
    theta_v >= F_v(x_k) + g_v (x - x_k). The first round is at x = 0, where
    every distance is 0, so a breadth-first tree from the merged source
    stands in for the Dijkstra. A master LP minimises sum_v theta_v >= 0
    under the budget row and every cut so far, and its x, clipped to [0, 1],
    is the next point. Every master of the call is one HiGHS model over the
    num_x + G columns, passed once with the budget row; each round adds its
    G cuts to it and dual simplex restarts from the previous master's basis.
    ``iterations`` sums those warm runs' simplex iterations, and
    ``master_size`` is the model's size after the last master: 1 + cuts
    rows, num_x + G columns. The solve is "optimal" once the best F seen is
    within ``CUT_GAP`` max(1, F) of the last master's bound, checked before
    a round adds its cuts, and stops at ``MAX_CUT_ROUNDS`` oracle calls with
    "iteration-limit", before that round's cuts and master.

    The returned x is the best point seen, and y = min(1, dist) there, the
    exact optimal y for that x, one level per vertex copy of ``y_cells``
    (every other vertex of a scenario is at 1, the source at 0). The
    returned objective is F at that x: the average, over scenarios, of the
    fractional count of non-source vertices still connected to the source.
    With no vertex but s in any component, no round runs; with no x column,
    F is constant and one oracle call solves it without a master LP. The
    solve is deterministic.
    """
    from scipy import sparse

    net = model.network
    n, N = net.n, model.samples.N
    num_x, counts = model.num_x, model.samples.counts
    x, levels, value = np.zeros(num_x), np.ones(0), model.offset
    status, rounds, iterations, master_size = "optimal", 0, 0, (0, 0, 0)
    if model.num_y:
        size = model.num_y + 1
        copy_counts = counts[model.y_cells // n]
        weights = copy_counts / N
        groups = np.unique(model.y_cells % n, return_inverse=True)[1]
        num_groups = int(groups.max()) + 1
        _check_cut_keys(num_groups, num_x + num_groups, N)
        graph = sparse.csr_matrix(
            (np.zeros(len(model.arc_head)), model.arc_head,
             np.searchsorted(model.arc_tail, np.arange(size + 1))),
            shape=(size, size),
        )
        solver = _master_solver(model.budget_row, num_groups) if num_x else None
        point, value, bound = x, math.inf, -math.inf
        status = "iteration-limit"
        while True:
            rounds += 1
            if rounds == 1:  # x = 0: every tree of zero-mass arcs is a shortest-path tree
                dist = np.zeros(size)
                pred = breadth_first_order(graph, 0, return_predecessors=True)[1]
            else:
                # explicit zeros stay arcs: a zero-mass arc still connects
                graph.data = np.append(point, 0.0)[model.arc_col]
                dist, pred = dijkstra(graph, indices=0, limit=1.0, return_predecessors=True)
            capped = np.minimum(dist[1:], 1.0)
            f = model.offset - float(weights @ capped)
            if f < value:
                x, levels, value = point, capped, f
            if not num_x or value - bound <= CUT_GAP * max(1.0, value):
                status = "optimal"
                break
            if rounds == MAX_CUT_ROUNDS:  # a master now would go unused
                break
            cuts = _cut_rows(dist, pred, copy_counts, groups, model, num_groups)
            code, solution, bound, nit = _solve_master(solver, *cuts)
            iterations += nit
            master_size = (solver.getNumRow(), solver.getNumCol(), solver.getNumNz())
            if code == 1:
                break
            # HiGHS may return -1e-17, and dijkstra dies on a negative weight
            point = np.clip(solution[:num_x], 0.0, 1.0)

    width = net.m if model.mode == "edge" else net.n
    x_full = np.zeros(width)
    x_full[model.var_entities] = x
    objective = min(max(value, 0.0), float(n - 1))  # strip rounding noise
    # sanity: budget row and objective identity within solver tolerance
    if num_x:
        row = float(model.budget_row @ x)
        if row > 1.0 + 10 * LP_TOLERANCE:
            raise SolverError(f"budget row violated: {row}")
    # over the distinct scenarios, weighted by their counts: each copy stays
    # 1 - level connected, and a vertex outside the component (y = 1) none
    connected = np.bincount(model.y_cells // n, weights=1.0 - levels, minlength=len(counts))
    recomputed = float(counts @ connected / N)
    if abs(recomputed - objective) > 1e-6 * max(1.0, abs(objective)):
        raise SolverError("objective/variable inconsistency in LP solution")
    return FractionalSolution(model=model, x=x_full, y=levels, objective=objective,
                              solver_status=status, iterations=iterations,
                              cut_rounds=rounds, master_size=master_size)


def _removal(net: ContactNetwork, mode: str, ids) -> Intervention:
    """The removal of edges ``ids`` (mode "edge") or vertices ``ids`` ("node")."""
    return (edge_removal if mode == "edge" else node_removal)(net, ids)


def _check_gamma(gamma: float) -> None:
    """Reject a rounding gamma that is NaN, infinite or not above 1."""
    if not 1.0 < gamma < math.inf:
        raise ValidationError(f"gamma must be a finite number above 1, got {gamma}")


def round_randomized(
    frac: FractionalSolution, gamma: float, epsilon: float, seed: int
) -> Intervention:
    """Randomized rounding: keep entity e with probability min(f * x_e, 1).

    The inflation f = (gamma+5) ln(n) / epsilon makes every scenario path
    that the LP pays to cut survive with probability at most n^-(gamma+5).
    Reported costs are un-normalized.
    """
    _check_gamma(gamma)
    if not 0.0 < epsilon < 1.0:
        raise ValidationError(f"epsilon must lie in (0, 1), got {epsilon}")
    model = frac.model
    net = model.network
    inflate = (gamma + 5.0) * math.log(net.n) / epsilon
    probs = np.minimum(frac.x * inflate, 1.0)
    u = rng.generator(seed, "round").random(len(probs))
    picked = np.flatnonzero((u < probs) | (probs >= 1.0))
    return _removal(net, model.mode, picked)


def round_deterministic(frac: FractionalSolution) -> Intervention:
    """Threshold rounding: keep every entity with x >= 1 / (4 n^(2/3)).

    The budget constraint then caps the selection's cost at 4 n^(2/3) B;
    this is asserted, not assumed.
    """
    model = frac.model
    net = model.network
    threshold = 1.0 / (4.0 * net.n ** (2.0 / 3.0))
    picked = np.flatnonzero(frac.x >= threshold)
    out = _removal(net, model.mode, picked)
    bound = 4.0 * net.n ** (2.0 / 3.0) * model.budget
    if out.cost > bound:
        raise SolverError(
            f"deterministic rounding exceeded its cost guarantee: {out.cost} > {bound}"
        )
    return out


def brute_force_optimum(
    samples: SampleSet, budget: float, mode: str = "edge"
) -> tuple[Intervention, float]:
    """Exhaustive minimizer of the empirical objective under the budget.

    Returns the best intervention and its empirical average infections.
    Ties are broken toward the lexicographically smallest member set.
    ``percolate.affordable_subsets`` lists only the subsets that fit the
    budget (an edge removes itself, a vertex its incident edges), and each
    is scored through the 2^m mask table on the distinct restricted rows,
    weighted by their counts, so both modes need m <= ``MASK_TABLE_CAP``
    (16) edges; node mode also caps at 20 vertices. The subsets are scored
    in blocks of at most ``PATTERN_CELLS`` (subset, distinct row) cells.
    """
    net = samples.network
    if net.m > MASK_TABLE_CAP:
        raise InstanceTooLargeError(
            f"brute force needs m <= {MASK_TABLE_CAP} edges (the mask-table cap), got {net.m}"
        )
    check_budget(budget)
    edge_bits = np.int64(1) << np.arange(net.m, dtype=np.int64)
    if mode == "edge":
        candidates = np.flatnonzero(np.isfinite(net.costs) & (net.us != net.vs))
        costs = net.costs[candidates]
        removal = edge_bits[candidates]
    else:
        if net.n > 20:
            raise InstanceTooLargeError(
                f"node-mode brute force caps at 20 vertices, got n = {net.n}; use "
                f"solve_saa with mode='node', or an instance with at most 20 vertices"
            )
        candidates = np.flatnonzero(np.arange(net.n) != net.source)
        costs = np.ones(len(candidates))
        incident = np.zeros(net.n, dtype=np.int64)
        np.bitwise_or.at(incident, net.us, edge_bits)
        np.bitwise_or.at(incident, net.vs, edge_bits)
        removal = incident[candidates]

    picks, removed = affordable_subsets(removal, costs, budget)
    table = infection_table(net)
    masks = keep_rows_to_masks(samples.rows)
    step = max(1, PATTERN_CELLS // len(masks))
    totals = np.concatenate([table[masks & ~removed[a:a + step, np.newaxis]] @ samples.counts
                             for a in range(0, len(removed), step)])
    best_total = int(totals.min())
    best_members = min(
        tuple(int(c) for i, c in enumerate(candidates) if pick >> i & 1)
        for pick in picks[totals == best_total].tolist()
    )
    return _removal(net, mode, best_members), best_total / samples.N


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
) -> tuple[Intervention, dict]:
    """End-to-end pipeline: sample, solve the LP, round, evaluate.

    ``num_samples`` overrides the theory-driven scenario count (the override
    voids the concentration guarantee and is flagged in the report). The
    report evaluates the rounded solution both on the optimization samples
    and on fresh Monte Carlo draws from an independent stream.
    """
    if rounding not in ("randomized", "deterministic"):
        raise ValidationError(f"unknown rounding {rounding!r}")
    # the report carries gamma under either rounding
    _check_gamma(gamma)
    check_eval_samples(eval_samples)
    auto_n = required_sample_count(network.n, max(network.m, 1), epsilon)
    N = num_samples if num_samples is not None else auto_n
    samples = draw_samples(network, N, seed)
    model = build_lp(samples, budget, mode=mode)
    frac = solve_lp(model)
    if frac.solver_status != "optimal":
        raise SolverError(f"LP did not reach optimality: {frac.solver_status}")
    if rounding == "randomized":
        chosen = round_randomized(frac, gamma, epsilon, seed)
    else:
        chosen = round_deterministic(frac)
    # prepared once for the fresh check and the empirical objective alike
    prepared = prepare_removal(network, chosen)
    fresh_seed = rng.derived_seed(seed, "eval")
    fresh = estimate_infections(network, prepared, eval_samples, fresh_seed)
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
        "lp_rows": frac.master_size[0],
        "lp_cols": frac.master_size[1],
        "lp_nnz": frac.master_size[2],
        "lp_iterations": frac.iterations,
        "lp_cut_rounds": frac.cut_rounds,
        "scenarios_distinct": len(samples.counts),
        "cost": chosen.cost,
        "cost_ratio": chosen.cost / budget if budget > 0 else math.inf,
        "members": list(chosen.members),
        "empirical_infections": empirical_infections(samples, network, prepared),
        "fresh_mc_mean": fresh.mean,
        "fresh_mc_half_width": fresh.half_width,
    }
    return chosen, report
