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
sweep starts from C = 0 and the source's own arc capacity 2^16 deg(s) + 1,
then probes the integers around the line intersection of each pair of
adjacent known sides, until no probe finds a new side; it thereby finds the
minimal min-cut side at every integer C in between. Neither end needs a
flow: at C = 0 the minimal side is the source's component, and at the top
it is {s}, as any larger side costs at least C there. The sweep is verified
against an exhaustive oracle rather than assumed correct.

The solver runs its repetitions' sweeps in lockstep on the kept-edge rows
of one network (``min_sbcc_many``): the flow network is built once and
masked per row, and each round stacks the next max-flow probe of every
running sweep into one block-diagonal flow network behind a shared
super-source and super-sink, so one max-flow call answers them all. On
K40 that is 2 calls for 16 sweeps instead of about 32, and a max-flow
call costs about as much on a 2-vertex graph as on one sample's network.
The flow helper is ``network._minimal_sides``, which also sets how many
copies one call holds and answers the regime check: c_min needs max flows
only from a minimum-degree vertex of a connected graph to its
non-neighbours, so on a dense graph such as K40 it needs none.
"""

from __future__ import annotations

import math
from collections.abc import Generator
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import InstanceTooLargeError, ValidationError
from .network import (
    ContactNetwork,
    Intervention,
    _FlowNetwork,
    _SCALE,
    _minimal_sides,
    boundary_of,
    check_budget,
    edge_removal,
    source_component_members,
    sparsification_regime,
)
from .percolate import (
    PATTERN_CELLS,
    affordable_subsets,
    component_sizes,
    estimate_infections_many,
    sample_keep_matrix,
)


@dataclass(frozen=True)
class SbccSolution:
    """One point of the cut-size / component-size trade-off curve.

    ``cut_edges`` is exactly the boundary of ``component`` in the solved
    graph, a row's kept edges, as edge ids of the whole network.
    ``component`` is connected there (it is what the source reaches
    in the residual network), so it is the source's component once
    ``cut_edges`` are removed. ``cut_size`` is at most budget/lambda.
    ``probes`` counts the sink capacities the sweep answered by a max
    flow, all strictly between its two ends, 0 and 2^16 deg(s) + 1.
    """

    cut_edges: tuple[int, ...]
    component: tuple[int, ...]
    cut_size: int
    component_size: int
    probes: int


def _sweep(
    net: _FlowNetwork, component: np.ndarray, limit: float
) -> Generator[int, np.ndarray, SbccSolution]:
    """The parametric sweep of one flow network, one probe at a time.

    ``component`` is the source's component in ``net``, the minimal side at
    C = 0. Yields each sink capacity that needs a max flow, receives the
    minimal min-cut side at that capacity, and returns the smallest side
    found whose cut is at most ``limit``.
    """
    inside = np.zeros(net.n, dtype=bool)
    # side size -> (cut size, side); nested sides have distinct sizes
    sides: dict[int, tuple[int, np.ndarray]] = {}
    probes = 0

    def leaving(side: np.ndarray) -> np.ndarray:
        """Arc mask of the side's boundary: one arc out per boundary edge."""
        inside[:] = False
        inside[side] = True
        return inside[net.tails] & ~inside[net.heads]

    def record(cap: int, side: np.ndarray) -> tuple[int, int, np.ndarray]:
        cut = int(np.count_nonzero(leaving(side)))
        sides[len(side)] = (cut, side)
        return cap, cut, side

    # The ends need no flow. At C = 0 every sink arc has capacity 0, so the
    # minimal side is the source's component. At the source's arc capacity
    # 2^16 deg(s) + 1 any side of two or more vertices costs at least that,
    # so {s}, which costs 2^16 deg(s), is the unique minimizer.
    lo = record(0, component)
    hi = record(net.source_cap, np.array([net.s]))
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

    # The C = 0 side cuts nothing, and min_sbcc_many rejects a NaN, infinite
    # or negative budget, so some side is within the limit.
    comp = min(size for size, (cut, _) in sides.items() if cut <= limit)
    cut, side = sides[comp]
    return SbccSolution(
        cut_edges=tuple(np.sort(net.edges[leaving(side)]).tolist()),
        component=tuple(side.tolist()),
        cut_size=cut,
        component_size=comp,
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
    every row comes from one call of the component kernel, and the top
    side, at the source's arc capacity, is {s} without a flow. The sweeps
    advance in rounds: a round takes the next probe of every sweep still
    running and answers them all with one ``network._minimal_sides``
    call, which stacks their flow networks block-diagonally into as few
    max-flow calls as ``network.CELLS`` allows. Returns the solutions, in
    row order, and the number of max-flow calls made.
    """
    if not 0.0 < lam < 1.0:
        raise ValidationError(f"lambda must lie in (0, 1), got {lam}")
    check_budget(budget)
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
    sweeps = [_sweep(net, np.flatnonzero(comp), budget / lam)
              for net, comp in zip(networks, components)]
    solutions: list[SbccSolution | None] = [None] * len(sweeps)
    # the side each running sweep receives next; None starts it
    sides: dict[int, np.ndarray | None] = dict.fromkeys(range(len(sweeps)))
    flow_calls = 0
    while sides:
        caps: dict[int, int] = {}
        for i, side in sides.items():
            try:
                caps[i] = sweeps[i].send(side)
            except StopIteration as done:
                solutions[i] = done.value
        found, calls = _minimal_sides([networks[i] for i in caps], list(caps.values()))
        flow_calls += calls
        sides = dict(zip(caps, found))
    return solutions, flow_calls


def min_sbcc(graph: ContactNetwork, budget: float, lam: float) -> SbccSolution:
    """Bicriteria bounded-capacity cut by an exact parametric min-cut sweep.

    Among the minimal min-cut sides at every integer sink capacity from 0
    to the source's arc capacity 2^16 deg(s) + 1, where the side is {s},
    returns the one with the smallest source-side component whose cut size
    is within budget/lambda (hard guarantee on the cut side; the component
    side is validated empirically against the exhaustive oracle). The
    source's component at C = 0 cuts nothing, so some side always
    qualifies. Unit edge capacities are required, and the source degree
    must stay below 2^15 so that flow values fit in int32. This is
    :func:`min_sbcc_many` on one row that keeps every edge.
    """
    return min_sbcc_many(graph, np.ones((1, graph.m), dtype=bool), budget, lam)[0][0]


def min_sbcc_exact(graph: ContactNetwork, budget: float) -> tuple[tuple[int, ...], int]:
    """Exhaustive bounded-capacity cut oracle (m <= 20).

    Minimum source-component size over all edge subsets of size at most
    the budget; ties prefer fewer edges, then the lexicographically
    smallest id tuple. ``percolate.affordable_subsets`` lists the subsets
    (every edge, self-loops included, at unit cost) and
    ``percolate.component_sizes`` sizes them, ``PATTERN_CELLS // m`` subsets
    at a time with a running best: through the 2^m mask table for m <= 16,
    through the component kernel above.
    """
    if graph.m > 20:
        raise InstanceTooLargeError(f"exact oracle caps at 20 edges, got {graph.m}")
    check_budget(budget)
    m = graph.m
    edge_ids = np.arange(m, dtype=np.int64)
    picks, _ = affordable_subsets(np.int64(1) << edge_ids, np.ones(m), int(min(m, budget)))
    best = None
    step = max(1, PATTERN_CELLS // max(m, 1))
    for start in range(0, len(picks), step):
        removed = ((picks[start:start + step, np.newaxis] >> edge_ids) & 1).astype(bool)
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
    count wins. When every distinct candidate leaves the source no edge
    (on K40 the sampled cut isolates it), the stream is not drawn at all
    and each estimate is 1 with half-width 0. Self-loops are inert, so only
    non-loop edges must carry probability p (``sparsification_regime``
    checks this before any sampling).
    """
    if network.m == 0:
        raise ValidationError("network has no edges")
    if not np.all(np.isfinite(network.costs)) or not np.all(network.costs == 1.0):
        raise ValidationError("cut-sampling solver requires unit edge costs")
    if not 2.0 < gamma < math.inf:
        raise ValidationError(f"gamma must be a finite number above 2, got {gamma}")
    check_budget(budget)
    if repetitions is not None and repetitions < 1:
        raise ValidationError(f"repetitions must be at least 1, got {repetitions}")
    # n >= 2, which the regime check below requires, makes this at least 3
    reps = repetitions if repetitions is not None else math.ceil(4 * math.log(network.n))

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
    chosen = edge_removal(network, members_per_candidate[chosen_index])
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
