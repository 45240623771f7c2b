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
adjacent known sides, until no probe finds a new side. Neither end needs a
flow: at C = 0 the minimal side is the source's component, and at the top
it is {s}, as any larger side costs at least C there. Along the nested
sides the cut never shrinks as the side does, so the sweep skips a pair of
known sides when the smaller one already cuts at most budget/lambda or the
larger one cuts more: no side between them could be the answer. The sweep
is verified against an exhaustive oracle rather than assumed correct.

The solver runs its repetitions' sweeps in lockstep on the kept-edge rows
of one network (``min_sbcc_many``). Every row's {s} is read off one slice
of the rows, on the source's arcs, and a row whose {s} cuts at most
budget/lambda is answered there and starts no sweep; on K40, where
deg(s) <= 39 against 144 / 0.5 = 288, that is every row, so no max flow
runs. Each other row starts its sweep with its C = 0 side, from one
component-kernel call over those rows, and its flow copy is the list of
the row's kept arcs. Each round stacks the next max-flow probe of every
running sweep into one block-diagonal flow network behind a shared
super-source and super-sink, so one max-flow call answers them all: a
max-flow call costs about as much on a 2-vertex graph as on one sample's
network. The flow helper is ``network._minimal_sides``, which also sets
how many copies one call holds and answers the regime check: c_min needs
max flows only from a minimum-degree vertex of a connected graph to its
non-neighbours, so on a dense graph such as K40 it needs none.
``solve_karger`` then computes a boundary once per distinct component,
and a removal and an estimate once per distinct candidate.
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
    _SCALE,
    _arcs,
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
    check_eval_samples,
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
    flow, all strictly between its two ends, 0 and 2^16 deg(s) + 1, and
    each between two known sides whose cuts straddle budget/lambda; it is
    0 when {s} is within budget/lambda.
    """

    cut_edges: tuple[int, ...]
    component: tuple[int, ...]
    cut_size: int
    component_size: int
    probes: int


def _sweep(
    network: ContactNetwork, keep: np.ndarray, limit: float, zero: np.ndarray,
    top: tuple[int, int, np.ndarray]
) -> Generator[int, np.ndarray, SbccSolution]:
    """The parametric sweep of the kept-edge row ``keep``, one side at a time.

    Its two ends need no flow: ``zero`` is the minimal side at C = 0, the
    source's component in the row, which cuts nothing, and ``top`` is
    (sink capacity, cut, side) for {s} at the source's arc capacity, which
    ``min_sbcc_many`` passes only when its cut is over ``limit``. Yields
    each sink capacity between them whose minimal min-cut side it needs,
    receives that side, and returns the smallest side found whose cut is
    at most ``limit``.
    """
    inside = np.zeros(network.n, dtype=bool)
    # the smallest side found within the limit: (side, its kept boundary edges)
    best: tuple[np.ndarray, np.ndarray] | None = None
    probes = 0

    def record(cap: int, side: np.ndarray) -> tuple[int, int, np.ndarray]:
        nonlocal best
        inside[:] = False
        inside[side] = True
        cut_edges = np.flatnonzero(keep & (inside[network.us] != inside[network.vs]))
        if len(cut_edges) <= limit and (best is None or len(side) < len(best[0])):
            best = (side, cut_edges)
        return cap, len(cut_edges), side

    work = [(record(0, zero), top)]
    # Between sides S_a > S_b found at C_a < C_b, a third side can be
    # minimal at an integer C only if it is minimal at floor(x) or ceil(x),
    # x the intersection of L_a and L_b: L_c - min(L_a, L_b) is convex in C
    # with its kink at x. x lies in [C_a, C_b], so a point outside the open
    # interval is an end that was already probed.
    while work:
        lo, hi = work.pop()
        (c_a, cut_a, side_a), (c_b, cut_b, side_b) = lo, hi
        # Along nested minimal sides the cut never shrinks as the side does:
        # L_a <= L_b at C_a gives 2^16 (cut_b - cut_a) >= C_a (|S_a| - |S_b|).
        # So no side in between is chosen if S_b already qualifies, nor can
        # one qualify if S_a does not. Equal sides always stop here.
        if cut_b <= limit or cut_a > limit:
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
    side, cut_edges = best
    return SbccSolution(tuple(cut_edges.tolist()), tuple(side.tolist()),
                        len(cut_edges), len(side), probes)


def min_sbcc_many(
    network: ContactNetwork, keep_rows: np.ndarray, budget: float, lam: float
) -> tuple[list[SbccSolution], int]:
    """Bicriteria bounded-capacity cut of each kept-edge row, sweeps in lockstep.

    Row r of the (R, m) bool ``keep_rows`` is the subgraph of ``network``
    on the edges it keeps, with the network's source; it gets the exact
    parametric sweep of :func:`min_sbcc`, and ``cut_edges`` are edge ids of
    ``network``. The top side, at the source's arc capacity, is {s}
    without a flow, and every row's {s} comes from one slice of the rows,
    on the source's arcs in the network's cached ``_arcs``: its cut is the
    row's kept non-loop degree at s. A row whose {s} is within
    budget/lambda is answered there, with no sweep, no flow copy, no
    kernel row and no max flow. Every other row's C = 0 side comes from
    one call of the component kernel, and its sweep runs on the flow copy
    that keeps the row's arcs. The sweeps then advance in rounds: a round
    takes the next probe of every sweep still running and answers them
    all with one ``network._minimal_sides`` call, which stacks their flow
    copies block-diagonally into as few max-flow calls as
    ``network.FLOW_CELLS`` allows. Returns the solutions, in row order,
    and the number of max-flow calls made. ``InstanceTooLargeError`` is
    raised only for a row that needs a flow and has a source degree of
    2^15 or more.
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
    limit = budget / lam
    # The top end needs no flow. At the source's arc capacity 2^16 deg(s) + 1
    # any side of two or more vertices costs at least that, so {s}, which
    # costs 2^16 deg(s), is the unique minimizer; its cut is deg(s), the
    # row's kept arcs out of s, taken in ascending edge id so that each
    # row's cut edges come out sorted.
    _, _, arc_edges, starts, _, _ = _arcs(network)
    at_s = np.sort(arc_edges[starts[s]:starts[s + 1]])
    kept_at_s = keep_rows[:, at_s]
    solutions: list[SbccSolution | None] = [None] * len(keep_rows)
    degrees = np.count_nonzero(kept_at_s, axis=1).tolist()
    for r, degree in enumerate(degrees):
        if degree <= limit:
            solutions[r] = SbccSolution(tuple(at_s[kept_at_s[r]].tolist()), (int(s),),
                                        degree, 1, 0)
    rows = [r for r, sol in enumerate(solutions) if sol is None]
    if not rows:
        return solutions, 0

    # at C = 0 every sink arc has capacity 0, so the minimal side is the
    # source's component
    components = source_component_members(network, keep_rows[rows])
    top = np.array([s])
    sweeps = {r: _sweep(network, keep_rows[r], limit, np.flatnonzero(comp),
                        (_SCALE * degrees[r] + 1, degrees[r], top))
              for r, comp in zip(rows, components)}
    arcs = {r: np.flatnonzero(keep_rows[r][arc_edges]) for r in rows}
    sinks = np.delete(np.arange(network.n), s)

    def advance(sides: dict[int, np.ndarray | None]) -> dict[int, int]:
        """Send each sweep its side (None starts it); the capacity each asks next."""
        caps = {}
        for r, side in sides.items():
            try:
                caps[r] = sweeps[r].send(side)
            except StopIteration as done:
                solutions[r] = done.value
        return caps

    caps = advance(dict.fromkeys(rows))
    flow_calls = 0
    while caps:
        found, calls = _minimal_sides(network, s, [(arcs[r], sinks, cap)
                                                   for r, cap in caps.items()])
        flow_calls += calls
        caps = advance(dict(zip(caps, found)))
    return solutions, flow_calls


def min_sbcc(graph: ContactNetwork, budget: float, lam: float) -> SbccSolution:
    """Bicriteria bounded-capacity cut by an exact parametric min-cut sweep.

    Among the minimal min-cut sides at every integer sink capacity from 0
    to the source's arc capacity 2^16 deg(s) + 1, where the side is {s},
    returns the one with the smallest source-side component whose cut size
    is within budget/lambda (hard guarantee on the cut side; the component
    side is validated empirically against the exhaustive oracle). The
    source's component at C = 0 cuts nothing, so some side always
    qualifies. Unit edge capacities are required. When {s} cuts more than
    budget/lambda, so that a max flow is needed, the source degree must
    stay below 2^15 so that flow values fit in int32. This is
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
    count wins; equal components share one boundary, and equal candidates
    one removal, which is also the one returned. When every distinct
    candidate leaves the source no edge (on K40 the sampled cut isolates
    it), the stream is not drawn at all and each estimate is 1 with
    half-width 0. ``eval_samples`` below 1 and a negative seed are refused
    before any work. Self-loops are inert, so only
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
    check_eval_samples(eval_samples)
    rng.check_seed(seed)  # before the regime check's flows
    # n >= 2, which the regime check below requires, makes this at least 3
    reps = repetitions if repetitions is not None else math.ceil(4 * math.log(network.n))

    regime = sparsification_regime(network, p, d=d)

    keep_rows = sample_keep_matrix(network, seed, 0, reps)
    solutions, flow_calls = min_sbcc_many(network, keep_rows, budget=gamma * budget * p, lam=lam)
    # equal components give equal barriers, and equal barriers equal
    # removals and estimates: each is computed once, the estimates of all
    # distinct removals on the shared evaluation stream
    barriers = {comp: boundary_of(network, comp)
                for comp in dict.fromkeys(sol.component for sol in solutions)}
    members_per_candidate = [barriers[sol.component] for sol in solutions]
    removals = {members: edge_removal(network, members)
                for members in dict.fromkeys(members_per_candidate)}
    estimates = estimate_infections_many(
        network, list(removals.values()), eval_samples, rng.derived_seed(seed, "eval"))
    scores = dict(zip(removals, estimates))
    candidates = [{
        "cut_cost": float(len(barrier)),
        "component_size": len(sol.component),
        "component_members": list(sol.component),
        "members": list(barrier),
        "sample_cut_size": sol.cut_size,
        "mc_mean": scores[barrier].mean,
        "mc_half_width": scores[barrier].half_width,
    } for sol, barrier in zip(solutions, members_per_candidate)]

    chosen_index = min(range(reps), key=lambda i: (candidates[i]["mc_mean"], i))
    chosen = removals[members_per_candidate[chosen_index]]
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
