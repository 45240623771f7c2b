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
between. The sweep is verified against an exhaustive oracle rather than
assumed correct.

The solver runs its repetitions' sweeps in lockstep (``min_sbcc_many``):
each round stacks the next probe of every running sweep into one
block-diagonal flow network behind a shared super-source and super-sink,
so one max-flow call answers them all. On K40 that is 4 calls for 16
sweeps instead of about 64, and a max-flow call costs about as much on a
2-vertex graph as on one sample's network. The flow helper is
``network._minimal_sides``, which also answers the regime check: the
global minimum cut c_min needs max flows only from a minimum-degree vertex
to its non-neighbours, so on a dense graph such as K40 it needs none.
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
    sparsification_regime,
)
from .percolate import (
    affordable_subsets,
    component_sizes,
    mean_half_width,
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
    graph. ``component`` is connected there (it is what the source reaches
    in the residual network), so it is the source's component once
    ``cut_edges`` are removed. ``lagrange_alpha`` is the breakpoint of
    ``component``: C / 2^16 for the smallest integer sink capacity C at
    which it is the minimal min-cut source side.
    ``within_budget`` records whether the relaxed budget cut_size <=
    budget/lambda was met (otherwise the smallest-cut fallback is returned).
    ``probes`` counts the sink capacities the sweep probed, one max flow
    each.
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
    graph: ContactNetwork, budget: float, lam: float
) -> Generator[int, np.ndarray, SbccSolution]:
    """The parametric sweep of one graph, one probe at a time.

    Yields each sink capacity to probe, receives the minimal min-cut side
    at that capacity, and returns the selected solution.
    """
    n = graph.n
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

    def record(cap: int, side: np.ndarray) -> tuple[int, int, np.ndarray]:
        nonlocal probes
        probes += 1
        inside[:] = False
        inside[side] = True
        cut = int(np.count_nonzero(inside[graph.us] ^ inside[graph.vs]))
        if len(side) not in sides or cap < sides[len(side)][0]:
            sides[len(side)] = (cap, cut, side)
        return cap, cut, side

    # Between sides S_a > S_b found at C_a < C_b, a third side can be
    # minimal at an integer C only if it is minimal at floor(x) or ceil(x),
    # x the intersection of L_a and L_b: L_c - min(L_a, L_b) is convex in C
    # with its kink at x. x lies in [C_a, C_b], so a point outside the open
    # interval is an end that was already probed.
    lo = record(0, (yield 0))
    work = [(lo, record(c_max, (yield c_max)))]
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
    side = tuple(int(v) for v in sides[comp][2])
    if within and cut > limit:
        raise AssertionError("sweep returned a cut above budget/lambda")
    return SbccSolution(
        cut_edges=boundary_of(graph, side),
        component=side,
        cut_size=cut,
        component_size=comp,
        lam=lam,
        lagrange_alpha=cap / _SCALE,
        within_budget=within,
        probes=probes,
    )


def min_sbcc_many(
    graphs: list[ContactNetwork], budget: float, lam: float
) -> tuple[list[SbccSolution], int]:
    """Bicriteria bounded-capacity cut of each graph, all sweeps in lockstep.

    Each graph gets the exact parametric sweep of :func:`min_sbcc`; the
    solutions are the ones it returns, in order. The sweeps advance in
    rounds: a round takes the next probe of every sweep still running and
    answers them with one max-flow call on a block-diagonal stack of their
    flow networks, or with several when the stack would exceed ``CELLS``
    vertices and arcs (at least one copy per call). Returns the solutions
    and the number of max-flow calls made.
    """
    if not 0.0 < lam < 1.0:
        raise ValidationError(f"lambda must lie in (0, 1), got {lam}")
    if not 0 <= budget < math.inf:
        raise ValidationError(f"budget must be finite and nonnegative, got {budget}")
    for graph in graphs:
        if graph.m and not np.all(graph.costs == 1.0):
            raise ValidationError("bounded-capacity cut requires unit edge capacities")

    networks = [_FlowNetwork(graph, graph.source, np.delete(np.arange(graph.n), graph.source))
                for graph in graphs]
    sweeps = [_sweep(graph, budget, lam) for graph in graphs]
    solutions: list[SbccSolution | None] = [None] * len(graphs)
    pending = {i: next(sweep) for i, sweep in enumerate(sweeps)}
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
    :func:`min_sbcc_many` on one graph.
    """
    return min_sbcc_many([graph.with_source(source)], budget, lam)[0][0]


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
    Candidates are compared on a shared fresh Monte Carlo evaluation stream
    and the lowest estimated infection count wins. Self-loops are inert, so
    only non-loop edges must carry probability p (``sparsification_regime``
    checks this before any sampling).
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
    samples = [
        ContactNetwork(
            n=network.n,
            us=network.us[kept_ids],
            vs=network.vs[kept_ids],
            costs=np.ones(len(kept_ids)),
            probs=np.ones(len(kept_ids)),
            source=network.source,
        )
        for kept_ids in map(np.flatnonzero, keep_rows)
    ]
    solutions, flow_calls = min_sbcc_many(samples, budget=gamma * budget * p, lam=lam)
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

    # equal candidates get equal estimates: score each distinct one once
    eval_seed = rng.derived_seed(seed, "eval")
    eval_keep = sample_keep_matrix(network, eval_seed, 0, eval_samples)
    scores: dict[tuple[int, ...], tuple[float, float]] = {}
    for cand, members in zip(candidates, members_per_candidate):
        if members not in scores:
            sizes = component_sizes(network, eval_keep, edge_removal(network, members))
            scores[members] = mean_half_width(
                int(sizes.sum()), int((sizes * sizes).sum()), eval_samples
            )
        cand["mc_mean"], cand["mc_half_width"] = scores[members]

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
