"""Unit-cost uniform-probability solver via cut sampling.

For unit edge costs and a single transmission probability p, one percolation
sample H of the network already carries enough cut information (when the
minimum cut is large enough for concentration): solve a minimum-size
bounded-capacity cut problem on H with budget gamma*B*p, read off the source
side S, and return the boundary of S in the original graph. Repeating a few
times and keeping the Monte Carlo best turns the constant success
probability into a high-probability guarantee.

The bounded-capacity cut subproblem (minimize the source side's size subject
to cutting at most a budget of edges) is solved by an exact parametric
sweep. A super-sink receives an arc of integer capacity C from every
non-source vertex, and edges have capacity 2^16, so an s-t min cut minimizes
the line L_S(C) = 2^16 * cut(S) + C * (|S| - 1) over source sides S. The
minimal min-cut sides are nested in C (parametric max-flow: Gallo,
Grigoriadis and Tarjan, 1989), and every breakpoint of the concave min-cut
curve is an intersection of two such lines (Eisner and Severance, 1976). The
sweep probes C = 0 and a top capacity, then the integers around the line
intersection of each pair of adjacent known sides, until no probe finds a
new side; it thereby finds the minimal min-cut side at every integer C in
between. Both ends are known without a flow: at C = 0 the minimal side is
the source's component, and at the top capacity it is {s} unless the cap
of 2^30 meets a source degree of 2^14 or more. The sweep is verified
against an exhaustive oracle rather than assumed correct.

The solver runs its repetitions' sweeps in lockstep on the kept-edge rows
of one network (``min_sbcc_many``): the flow network is built once and
masked per row, and each round stacks the next max-flow probe of every
running sweep into one block-diagonal flow network behind a shared
super-source and super-sink, so one max-flow call answers them all. On
K40 that is 2 calls for 16 sweeps instead of about 32, and a max-flow
call costs about as much on a 2-vertex graph as on one sample's network.
The flow helper is ``network._minimal_sides``, which also answers the
regime check: the global minimum cut c_min needs max flows only from a
minimum-degree vertex to its non-neighbours, so on a dense graph such as
K40 it needs none.
"""

from __future__ import annotations

import math
from collections.abc import Generator
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import InstanceTooLargeError, ValidationError
from .network import (
    CELLS,
    ContactNetwork,
    Intervention,
    _FlowNetwork,
    _SCALE,
    _minimal_sides,
    boundary_of,
    edge_removal,
    source_component_members,
    sparsification_regime,
)
from .percolate import (
    affordable_subsets,
    component_sizes,
    estimate_infections_many,
    sample_keep_matrix,
)

_CAP_MAX = 1 << 30

# Subsets sized per block by min_sbcc_exact. Sizing all 2^20 subsets of an
# m = 20 graph at once peaked at 281 MB of RSS; a block's removal matrix is
# EXACT_BLOCK x m bools.
EXACT_BLOCK = 1 << 14


@dataclass(frozen=True)
class SbccSolution:
    """One point of the cut-size / component-size trade-off curve.

    ``cut_edges`` is exactly the boundary of ``component`` in the solved
    graph, a row's kept edges, as edge ids of the whole network.
    ``component`` is connected there (it is what the source reaches
    in the residual network), so it is the source's component once
    ``cut_edges`` are removed. ``lagrange_alpha`` is the breakpoint of
    ``component``: C / 2^16 for the smallest integer sink capacity C at
    which it is the minimal min-cut source side.
    ``within_budget`` records whether the relaxed budget cut_size <=
    budget/lambda was met (otherwise the smallest-cut fallback is returned).
    ``probes`` counts the sink capacities the sweep answered by a max
    flow; the end probes it answers without one do not count.
    """

    cut_edges: tuple[int, ...]
    component: tuple[int, ...]
    cut_size: int
    component_size: int
    lam: float
    lagrange_alpha: float
    within_budget: bool
    probes: int


def _sweep(
    net: _FlowNetwork, component: np.ndarray, budget: float, lam: float
) -> Generator[int, np.ndarray, SbccSolution]:
    """The parametric sweep of one flow network, one probe at a time.

    ``component`` is the source's component in ``net``, the minimal side at
    C = 0. Yields each sink capacity that needs a max flow, receives the
    minimal min-cut side at that capacity, and returns the selected
    solution.
    """
    n = net.n
    # top multiplier: a power of two over n, at least 16 n and 4 * budget
    top = 2.0 ** (math.ceil(2 * math.log2(max(n, 2))) + 4) / n
    while top < 4.0 * max(budget, 1.0):
        top *= 2.0
    c_max = min(round(top * _SCALE), _CAP_MAX)

    inside = np.zeros(n, dtype=bool)
    # side size -> (smallest probed capacity, cut size, side); nested sides
    # have distinct sizes
    sides: dict[int, tuple[int, int, np.ndarray]] = {}
    probes = 0

    def leaving(side: np.ndarray) -> np.ndarray:
        """Arc mask of the side's boundary: one arc out per boundary edge."""
        inside[:] = False
        inside[side] = True
        return inside[net.tails] & ~inside[net.heads]

    def record(cap: int, side: np.ndarray) -> tuple[int, int, np.ndarray]:
        cut = int(np.count_nonzero(leaving(side)))
        if len(side) not in sides or cap < sides[len(side)][0]:
            sides[len(side)] = (cap, cut, side)
        return cap, cut, side

    # The ends need no flow when their answer is known. At C = 0 every sink
    # arc has capacity 0, so the minimal side is the source's component.
    # At C_max any side of two or more vertices costs at least C_max, so
    # {s}, which costs 2^16 deg(s), is the unique minimizer whenever
    # C_max > 2^16 deg(s); top >= 16 n makes that fail only when C_max is
    # capped at 2^30 and deg(s) >= 2^14.
    lo = record(0, component)
    if c_max > _SCALE * net.degree:
        hi = record(c_max, np.array([net.s]))
    else:
        probes += 1
        hi = record(c_max, (yield c_max))
    # Between sides S_a > S_b found at C_a < C_b, a third side can be
    # minimal at an integer C only if it is minimal at floor(x) or ceil(x),
    # x the intersection of L_a and L_b: L_c - min(L_a, L_b) is convex in C
    # with its kink at x. x lies in [C_a, C_b], so a point outside the open
    # interval is an end that was already probed.
    work = [(lo, hi)]
    while work:
        lo, hi = work.pop()
        (c_a, cut_a, side_a), (c_b, cut_b, side_b) = lo, hi
        if len(side_a) == len(side_b):
            continue
        num = _SCALE * (cut_b - cut_a)
        den = len(side_a) - len(side_b)
        for cap in sorted({num // den, -(-num // den)}):
            if not c_a < cap < c_b:
                continue
            probes += 1
            mid = record(cap, (yield cap))
            if len(mid[2]) not in (len(side_a), len(side_b)):
                work += [(lo, mid), (mid, hi)]
                break

    limit = budget / lam
    qualifying = [
        (comp, cut, cap) for comp, (cap, cut, _) in sides.items() if cut <= limit
    ]
    if qualifying:
        comp, cut, cap = min(qualifying)
        within = True
    else:
        cut, comp, cap = min((cut, comp, cap) for comp, (cap, cut, _) in sides.items())
        within = False
    side = sides[comp][2]
    if within and cut > limit:
        raise AssertionError("sweep returned a cut above budget/lambda")
    return SbccSolution(
        cut_edges=tuple(np.sort(net.edges[leaving(side)]).tolist()),
        component=tuple(side.tolist()),
        cut_size=cut,
        component_size=comp,
        lam=lam,
        lagrange_alpha=cap / _SCALE,
        within_budget=within,
        probes=probes,
    )


def min_sbcc_many(
    network: ContactNetwork, keep_rows: np.ndarray, budget: float, lam: float
) -> tuple[list[SbccSolution], int]:
    """Bicriteria bounded-capacity cut of each kept-edge row, sweeps in lockstep.

    Row r of the (R, m) bool ``keep_rows`` is the subgraph of ``network``
    on the edges it keeps, with the network's source; it gets the exact
    parametric sweep of :func:`min_sbcc`, and ``cut_edges`` are edge ids of
    ``network``. The flow network is built once, with one sort of its
    arcs, and each row's copy masks those sorted arcs. The C = 0 side of
    every row comes from one call of the component kernel, and the C_max
    side is {s} without a flow whenever C_max > 2^16 deg(s). The sweeps
    advance in rounds: a round takes the next probe of every sweep still
    running and answers them with one max-flow call on a block-diagonal
    stack of their flow networks, or with several when the stack would
    exceed ``CELLS`` vertices and arcs (at least one copy per call).
    Returns the solutions, in row order, and the number of max-flow calls
    made.
    """
    if not 0.0 < lam < 1.0:
        raise ValidationError(f"lambda must lie in (0, 1), got {lam}")
    if not 0 <= budget < math.inf:
        raise ValidationError(f"budget must be finite and nonnegative, got {budget}")
    if network.m and not np.all(network.costs == 1.0):
        raise ValidationError("bounded-capacity cut requires unit edge capacities")
    keep_rows = np.asarray(keep_rows, dtype=bool)
    if keep_rows.ndim != 2 or keep_rows.shape[1] != network.m:
        raise ValidationError(
            f"kept-edge rows must have shape (rows, {network.m}), got {keep_rows.shape}"
        )

    s = network.source
    base = _FlowNetwork(network, s, np.delete(np.arange(network.n), s))
    networks = [base.with_edges(keep) for keep in keep_rows]
    components = source_component_members(network, keep_rows)
    sweeps = [_sweep(net, np.flatnonzero(comp), budget, lam)
              for net, comp in zip(networks, components)]
    solutions: list[SbccSolution | None] = [None] * len(sweeps)
    pending: dict[int, int] = {}
    for i, sweep in enumerate(sweeps):
        try:
            pending[i] = next(sweep)
        except StopIteration as done:  # both ends known: no flow at all
            solutions[i] = done.value
    flow_calls = 0
    while pending:
        batches: list[list[int]] = [[]]
        cells = 0
        for i in pending:
            if batches[-1] and cells + networks[i].cells > CELLS:
                batches.append([])
                cells = 0
            batches[-1].append(i)
            cells += networks[i].cells
        for batch in batches:
            sides = _minimal_sides([networks[i] for i in batch], [pending[i] for i in batch])
            flow_calls += 1
            for i, side in zip(batch, sides):
                try:
                    pending[i] = sweeps[i].send(side)
                except StopIteration as done:
                    solutions[i] = done.value
                    del pending[i]
    return solutions, flow_calls


def min_sbcc(
    graph: ContactNetwork,
    budget: float,
    lam: float,
    source: int | None = None,
) -> SbccSolution:
    """Bicriteria bounded-capacity cut by an exact parametric min-cut sweep.

    Among the minimal min-cut sides at every integer sink capacity in
    [0, C_max] (C_max: 2^16 times a power of two over n that is at least
    16 n and 4 * budget, capped at 2^30), returns the one with the smallest
    source-side component whose cut size is within budget/lambda (hard
    guarantee on the cut side; the component side is validated empirically
    against the exhaustive oracle). Falls back to the smallest-cut side, flagged, when nothing
    qualifies. Unit edge capacities are required, and the source degree
    must stay below 2^15 so that flow values fit in int32. This is
    :func:`min_sbcc_many` on one row that keeps every edge.
    """
    graph = graph.with_source(source)
    return min_sbcc_many(graph, np.ones((1, graph.m), dtype=bool), budget, lam)[0][0]


def min_sbcc_exact(
    graph: ContactNetwork, source: int | None, budget: float
) -> tuple[tuple[int, ...], int]:
    """Exhaustive bounded-capacity cut oracle (m <= 20).

    Minimum source-component size over all edge subsets of size at most
    the budget; ties prefer fewer edges, then the lexicographically
    smallest id tuple. ``percolate.affordable_subsets`` lists the subsets
    (every edge, self-loops included, at unit cost) and
    ``percolate.component_sizes`` sizes them, ``EXACT_BLOCK`` subsets at a
    time with a running best: through the 2^m mask table for m <= 16,
    through the component kernel above.
    """
    if graph.m > 20:
        raise InstanceTooLargeError(f"exact oracle caps at 20 edges, got {graph.m}")
    if not budget >= 0:
        raise ValidationError(f"budget must be nonnegative, got {budget}")
    graph = graph.with_source(source)
    m = graph.m
    edge_ids = np.arange(m, dtype=np.int64)
    picks, _ = affordable_subsets(np.int64(1) << edge_ids, np.ones(m), int(min(m, budget)))
    best = None
    for start in range(0, len(picks), EXACT_BLOCK):
        removed = ((picks[start:start + EXACT_BLOCK, np.newaxis] >> edge_ids) & 1).astype(bool)
        sizes = component_sizes(graph, ~removed)
        counts = removed.sum(axis=1)
        rows = np.flatnonzero(sizes == sizes.min())
        rows = rows[counts[rows] == counts[rows].min()]
        ids = min(tuple(int(e) for e in np.flatnonzero(removed[r])) for r in rows)
        block_best = (int(sizes[rows[0]]), int(counts[rows[0]]), ids)
        if best is None or block_best < best:
            best = block_best
    return best[2], best[0]


def solve_karger(
    network: ContactNetwork,
    budget: float,
    p: float,
    gamma: float = 4.0,
    lam: float = 0.5,
    repetitions: int | None = None,
    eval_samples: int = 500,
    seed: int = 0,
    d: float = 1.0,
) -> tuple[Intervention, dict]:
    """Cut-sampling solver for unit costs and uniform probability p.

    Each repetition percolates the network once, solves the bounded-capacity
    cut on the sample with budget gamma*B*p, takes the realized component S
    of the source, and proposes the boundary of S in the original graph.
    Candidates are compared on a shared fresh Monte Carlo evaluation stream,
    drawn and sized block by block, and the lowest estimated infection
    count wins. Self-loops are inert, so only non-loop edges must carry
    probability p (``sparsification_regime`` checks this before any
    sampling).
    """
    if network.m == 0:
        raise ValidationError("network has no edges")
    if not np.all(np.isfinite(network.costs)) or not np.all(network.costs == 1.0):
        raise ValidationError("cut-sampling solver requires unit edge costs")
    if gamma <= 2:
        raise ValidationError("gamma must exceed 2 for a positive success probability")
    if budget < 0:
        raise ValidationError("budget must be nonnegative")
    reps = repetitions if repetitions is not None else math.ceil(4 * math.log(network.n))
    reps = max(reps, 1)

    regime = sparsification_regime(network, p, d=d)

    keep_rows = sample_keep_matrix(network, seed, 0, reps)
    solutions, flow_calls = min_sbcc_many(network, keep_rows, budget=gamma * budget * p, lam=lam)
    candidates: list[dict] = []
    members_per_candidate: list[tuple[int, ...]] = []
    for sol in solutions:
        barrier = boundary_of(network, sol.component)
        members_per_candidate.append(barrier)
        candidates.append({
            "cut_cost": float(len(barrier)),
            "component_size": len(sol.component),
            "component_members": list(sol.component),
            "members": [int(e) for e in barrier],
            "sample_cut_size": sol.cut_size,
            "within_sample_budget": sol.within_budget,
        })

    # equal candidates get equal estimates: score each distinct one once, all
    # of them on the shared evaluation stream
    distinct = list(dict.fromkeys(members_per_candidate))
    estimates = estimate_infections_many(
        network, [edge_removal(network, members) for members in distinct], eval_samples,
        rng.derived_seed(seed, "eval"))
    scores = dict(zip(distinct, estimates))
    for cand, members in zip(candidates, members_per_candidate):
        cand["mc_mean"], cand["mc_half_width"] = scores[members].mean, scores[members].half_width

    chosen_index = min(range(reps), key=lambda i: (candidates[i]["mc_mean"], i))
    chosen = edge_removal(network, members_per_candidate[chosen_index], "karger")
    if regime.epsilon < 1.0:
        budget_bound = gamma / ((1.0 - regime.epsilon) * lam) * budget
    else:
        budget_bound = math.inf
    report = {
        "budget": budget,
        "p": p,
        "gamma": gamma,
        "lambda": lam,
        "repetitions": reps,
        "eval_samples": eval_samples,
        "seed": seed,
        "candidates": candidates,
        "candidates_distinct": len(scores),
        "flow_calls": flow_calls,
        "sweep_probes": sum(sol.probes for sol in solutions),
        "chosen_index": chosen_index,
        "cost": chosen.cost,
        "epsilon_regime": regime.epsilon,
        "in_regime": regime.in_regime,
        "c_min": regime.c_min,
        "regime_flow_calls": regime.flow_calls,
        "budget_bound": budget_bound,
    }
    if not regime.in_regime:
        report["regime_note"] = "out-of-regime: guarantees void"
    return chosen, report
