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
between. One flow network is built per sweep; each probe rewrites only the
sink capacities. The sweep is verified against an exhaustive oracle rather
than assumed correct.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import breadth_first_order, maximum_flow

from . import rng
from .errors import InstanceTooLargeError, ValidationError
from .network import (
    ContactNetwork,
    Intervention,
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

_SCALE = 1 << 16  # integer capacity unit for the flow solver
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
    """

    cut_edges: tuple[int, ...]
    component: tuple[int, ...]
    cut_size: int
    component_size: int
    lam: float
    lagrange_alpha: float
    within_budget: bool


class _FlowNetwork:
    """The super-sink flow network of one graph, built once per sweep.

    Arcs are both directions of every non-loop edge, with capacity 2^16,
    and v -> t for every non-source v, with the probed capacity C. The CSR
    structure is sorted once; each probe writes only the sink capacities.
    """

    def __init__(self, graph: ContactNetwork):
        n, s = graph.n, graph.source
        self.n, self.s, self.t = n, s, n
        real = graph.us != graph.vs
        others = np.flatnonzero(np.arange(n) != s)
        tails = np.concatenate([graph.us[real], graph.vs[real], others])
        heads = np.concatenate([graph.vs[real], graph.us[real], np.full(len(others), n)])
        order = np.lexsort((heads, tails))
        self.tails, self.heads = tails[order], heads[order]
        self.keys = self.tails * (n + 1) + self.heads  # ascending
        self.indptr = np.concatenate(
            [[0], np.cumsum(np.bincount(self.tails, minlength=n + 1))]
        ).astype(np.int32)
        self.sink_arcs = np.flatnonzero(self.heads == n)
        self.caps = np.full(len(self.keys), _SCALE, dtype=np.int32)

    def minimal_side(self, cap: int) -> np.ndarray:
        """Ascending source side of the minimal min cut at sink capacity cap."""
        n1 = self.n + 1
        caps = self.caps.copy()
        caps[self.sink_arcs] = cap
        # maximum_flow may rewrite its input in place: hand it fresh arrays
        mat = sparse.csr_matrix(
            (caps.copy(), self.heads.astype(np.int32), self.indptr.copy()),
            shape=(n1, n1),
        )
        flow = maximum_flow(mat, self.s, self.t).flow
        flow_rows = np.repeat(np.arange(n1), np.diff(flow.indptr))
        flow_keys = flow_rows * n1 + flow.indices
        pos = np.minimum(np.searchsorted(self.keys, flow_keys), len(self.keys) - 1)
        on_arc = self.keys[pos] == flow_keys
        residual = caps.astype(np.int64)
        residual[pos[on_arc]] -= flow.data[on_arc]
        open_arc = residual > 0
        reach = sparse.csr_matrix(
            (np.ones(int(open_arc.sum()), dtype=np.int8),
             self.heads[open_arc].astype(np.int32),
             np.concatenate([[0], np.cumsum(np.bincount(
                 self.tails[open_arc], minlength=n1))]).astype(np.int32)),
            shape=(n1, n1),
        )
        return np.sort(breadth_first_order(reach, self.s, return_predecessors=False))


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
    must stay below 2^15 so that flow values fit in int32.
    """
    if not 0.0 < lam < 1.0:
        raise ValidationError(f"lambda must lie in (0, 1), got {lam}")
    if not 0 <= budget < math.inf:
        raise ValidationError(f"budget must be finite and nonnegative, got {budget}")
    graph = graph.with_source(source)
    if graph.m and not np.all(graph.costs == 1.0):
        raise ValidationError("bounded-capacity cut requires unit edge capacities")
    n, s = graph.n, graph.source
    degree = int(np.count_nonzero((graph.us == s) ^ (graph.vs == s)))
    if _SCALE * degree > np.iinfo(np.int32).max:  # the flow value out of s
        raise InstanceTooLargeError(
            f"source {s} has degree {degree}; the int32 flow network (capacity "
            f"unit 2^16) needs source degree below 2^15 = 32768"
        )

    # top multiplier: a power of two over n, at least 16 n and 4 * budget
    top = 2.0 ** (math.ceil(2 * math.log2(max(n, 2))) + 4) / n
    while top < 4.0 * max(budget, 1.0):
        top *= 2.0
    c_max = min(round(top * _SCALE), _CAP_MAX)

    network = _FlowNetwork(graph)
    inside = np.zeros(n, dtype=bool)
    # side size -> (smallest probed capacity, cut size, side); nested sides
    # have distinct sizes
    sides: dict[int, tuple[int, int, np.ndarray]] = {}

    def probe(cap: int) -> tuple[int, int, np.ndarray]:
        side = network.minimal_side(cap)
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
    work = [(probe(0), probe(c_max))]
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
            mid = probe(cap)
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
    )


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
    candidates: list[dict] = []
    members_per_candidate: list[tuple[int, ...]] = []
    for r in range(reps):
        kept_ids = np.flatnonzero(keep_rows[r])
        sub = ContactNetwork(
            n=network.n,
            us=network.us[kept_ids],
            vs=network.vs[kept_ids],
            costs=np.ones(len(kept_ids)),
            probs=np.ones(len(kept_ids)),
            source=network.source,
        )
        sol = min_sbcc(sub, budget=gamma * budget * p, lam=lam)
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

    eval_seed = rng.derived_seed(seed, "eval")
    eval_keep = sample_keep_matrix(network, eval_seed, 0, eval_samples)
    for cand, members in zip(candidates, members_per_candidate):
        sizes = component_sizes(network, eval_keep, edge_removal(network, members))
        cand["mc_mean"], cand["mc_half_width"] = mean_half_width(
            int(sizes.sum()), int((sizes * sizes).sum()), eval_samples
        )

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
        "chosen_index": chosen_index,
        "cost": chosen.cost,
        "epsilon_regime": regime.epsilon,
        "in_regime": regime.in_regime,
        "budget_bound": budget_bound,
    }
    if not regime.in_regime:
        report["regime_note"] = "out-of-regime: guarantees void"
    return chosen, report
