"""Shared instance factories for the test suite."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest
from scipy import sparse
from scipy.optimize import linprog

from epictrl.network import ContactNetwork
from epictrl.network import random_connected_network  # noqa: F401  (re-exported to the tests)
from epictrl.percolate import sample_keep_matrix
from epictrl.saa import LP_TOLERANCE, draw_samples


def recording_draws(draw, counts):
    """A ``sample_keep_matrix`` stand-in that calls ``draw`` and records
    each call's row count in ``counts``."""
    def spy(network, seed, start_index, count):
        counts.append(count)
        return draw(network, seed, start_index, count)
    return spy


def kernel_cells(network, rows: int) -> int:
    """The ``network.CELLS`` that makes ``kernel_rows(network)``, the block
    of the component kernel and of every Monte Carlo draw, ``rows`` rows
    (``network.n + network.m`` must exceed 7)."""
    return -(-rows * (network.n + network.m) // 8)


def make_network(n, edges, probs=None, costs=None, source=0) -> ContactNetwork:
    """Small-network helper: edges as (u, v) pairs."""
    m = len(edges)
    us = np.array([e[0] for e in edges], dtype=np.int64)
    vs = np.array([e[1] for e in edges], dtype=np.int64)
    if probs is None:
        probs = np.ones(m)
    elif np.isscalar(probs):
        probs = np.full(m, float(probs))
    if costs is None:
        costs = np.ones(m)
    elif np.isscalar(costs):
        costs = np.full(m, float(costs))
    return ContactNetwork(n=n, us=us, vs=vs, costs=np.asarray(costs, dtype=float),
                          probs=np.asarray(probs, dtype=float), source=source)


def path_network(p=1.0, costs=None) -> ContactNetwork:
    """s - a - b with ids 0, 1, 2."""
    return make_network(3, [(0, 1), (1, 2)], probs=p, costs=costs)


def star_network(leaves=4, p=1.0) -> ContactNetwork:
    return make_network(leaves + 1, [(0, i) for i in range(1, leaves + 1)], probs=p)


def triangle_network(p=0.5) -> ContactNetwork:
    return make_network(3, [(0, 1), (0, 2), (1, 2)], probs=p)


def complete_network(n, p=1.0) -> ContactNetwork:
    edges = list(itertools.combinations(range(n), 2))
    return make_network(n, edges, probs=p)


def adjacency(network, edge_keep=None) -> list[list[tuple[int, int]]]:
    """Adjacency lists of (neighbor, edge id) over the kept edges; no self-loops."""
    adj: list[list[tuple[int, int]]] = [[] for _ in range(network.n)]
    for e in range(network.m):
        if edge_keep is not None and not edge_keep[e]:
            continue
        u, v = int(network.us[e]), int(network.vs[e])
        if u != v:
            adj[u].append((v, e))
            adj[v].append((u, e))
    return adj


def drawn(network, N, seed):
    """``draw_samples(network, N, seed)`` and, for the oracles, the raw
    kept-edge rows of the same N scenarios from ``sample_keep_matrix``."""
    return draw_samples(network, N, seed), sample_keep_matrix(network, seed, 0, N)


def dense_y(model, y) -> np.ndarray:
    """The LP levels ``y`` of ``model`` as the (D, n) array of every
    (distinct scenario, vertex) cell: ``y[i]`` at cell ``model.y_cells[i]``,
    1 outside the scenario's source component and 0 at the source."""
    dense = np.ones((len(model.samples.counts), model.network.n))
    dense[:, model.network.source] = 0.0
    np.put(dense, model.y_cells, y)
    return dense


def union_find_component(network, keep) -> tuple[int, ...]:
    """Reference source component (ascending ids) of one kept-edge row."""
    parent = list(range(network.n))

    def find(x):
        while parent[x] != x:
            parent[x] = x = parent[parent[x]]  # path halving
        return x

    for e in np.flatnonzero(keep):
        parent[find(int(network.us[e]))] = find(int(network.vs[e]))
    root = find(network.source)
    return tuple(v for v in range(network.n) if find(v) == root)


def union_find_sizes(network, keep_rows) -> np.ndarray:
    """Reference source-component size of each kept-edge row."""
    return np.array([len(union_find_component(network, row)) for row in keep_rows],
                    dtype=np.int64)


def stoer_wagner_min_cut(network) -> float:
    """Reference global minimum cut (edge costs) by Stoer-Wagner.

    Returns 0.0 for a disconnected network and +inf for a single vertex;
    self-loops are ignored. Maximum-adjacency selection breaks ties toward
    the smallest vertex id. O(n^3) time on a dense n x n matrix.
    """
    n = network.n
    if n <= 1:
        return math.inf
    if len(union_find_component(network, np.ones(network.m, dtype=bool))) < n:
        return 0.0
    w = np.zeros((n, n), dtype=np.float64)
    for e in range(network.m):
        u, v = int(network.us[e]), int(network.vs[e])
        if u != v:
            w[u, v] += network.costs[e]
            w[v, u] += network.costs[e]
    active = list(range(n))
    best = math.inf
    while len(active) > 1:
        # maximum-adjacency order starting from the smallest active id
        order = [active[0]]
        weights = {v: w[order[0], v] for v in active[1:]}
        while weights:
            nxt = max(sorted(weights), key=lambda v: weights[v])
            order.append(nxt)
            del weights[nxt]
            for v in weights:
                weights[v] += w[nxt, v]
        s_, t_ = order[-2], order[-1]
        best = min(best, float(sum(w[t_, v] for v in active if v != t_)))
        # contract t_ into s_
        for v in active:
            if v not in (s_, t_):
                w[s_, v] += w[t_, v]
                w[v, s_] = w[s_, v]
        active.remove(t_)
    return best


def brute_force_reference(net, keep_rows, budget, mode="edge"):
    """Reference for ``brute_force_optimum`` by ``itertools.combinations``.

    Tries every set of removable entities (finite-cost non-loop edges, or
    non-source vertices), sums costs left to right in ascending id order,
    and scores the feasible ones by union-find on the raw kept-edge rows.
    Returns the least (total infections, members).
    """
    if mode == "edge":
        costs = net.costs
        entities = [e for e in range(net.m)
                    if math.isfinite(costs[e]) and net.us[e] != net.vs[e]]
    else:
        costs = np.ones(net.n)
        entities = [v for v in range(net.n) if v != net.source]
    best = None
    for k in range(len(entities) + 1):
        for combo in itertools.combinations(entities, k):
            spent = 0.0
            for x in combo:
                spent += float(costs[x])
            if not spent <= budget:
                continue
            keep = np.ones(net.m, dtype=bool)
            for x in combo:
                if mode == "edge":
                    keep[x] = False
                else:
                    keep &= (net.us != x) & (net.vs != x)
            total = int(union_find_sizes(net, keep_rows & keep).sum())
            if best is None or (total, combo) < best:
                best = (total, combo)
    return best


def exact_sbcc_reference(network, budget):
    """Reference for ``min_sbcc_exact``: combinations of at most the budget
    many edges, sized by union-find; least (size, edge count, ids) wins."""
    best = None
    for k in range(min(network.m, int(budget)) + 1):
        for combo in itertools.combinations(range(network.m), k):
            keep = np.ones(network.m, dtype=bool)
            keep[list(combo)] = False
            size = len(union_find_component(network, keep))
            if best is None or (size, k, combo) < best:
                best = (size, k, combo)
    return best[2], best[0]


def parametric_sbcc_oracle(network, budget, lam):
    """Reference for ``min_sbcc`` by enumerating every source side (n <= 9).

    Each side S defines the line L_S(C) = 2^16 * cut(S) + C * (|S| - 1). The
    minimal minimizer (least L, then least |S|) is taken at C = 0 and at
    floor/ceil of every pairwise line intersection at or above 0, with no
    upper cap; the smallest minimizer whose cut is within budget / lambda
    is then chosen, or the smallest-cut one if none is. Only the lowest line
    of each slope can be a minimizer, so only those intersect. Returns
    (side, cut, component size, whether the side is within budget / lambda).
    """
    n, s, scale = network.n, network.source, 1 << 16
    assert n <= 9
    sides = []
    for mask in range(1 << n):
        if mask >> s & 1:
            side = tuple(v for v in range(n) if mask >> v & 1)
            cut = sum((mask >> int(u) & 1) != (mask >> int(v) & 1)
                      for u, v in zip(network.us, network.vs))
            sides.append((side, cut))
    lowest = {}
    for side, cut in sides:
        k = len(side) - 1
        lowest[k] = min(lowest.get(k, cut), cut)
    caps = {0}
    for (k_a, cut_a), (k_b, cut_b) in itertools.combinations(lowest.items(), 2):
        num, den = scale * (cut_b - cut_a), k_a - k_b
        if den < 0:
            num, den = -num, -den
        caps |= {c for c in (num // den, -(-num // den)) if c >= 0}
    minimal = {min(sides, key=lambda sc: (scale * sc[1] + cap * (len(sc[0]) - 1),
                                          len(sc[0])))
               for cap in caps}
    qualifying = [(len(side), cut, side) for side, cut in minimal if cut <= budget / lam]
    if qualifying:
        comp, cut, side = min(qualifying)
        return side, cut, comp, True
    cut, comp, side = min((cut, len(side), side) for side, cut in minimal)
    return side, cut, comp, False


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)


def unreduced_lp_solution(net, keep_rows, budget, mode="edge"):
    """Reference for ``build_lp``/``solve_lp``: the unreduced scenario LP.

    Every raw scenario (a row of ``keep_rows``) gets a y column for each
    vertex v != s and a row for each hop along every kept edge, built in
    Python loops, and the y-space LP is solved at once by HiGHS's dual
    simplex, so the comparison also crosses ``solve_lp``'s cutting planes
    over x. Returns (objective, x, y) with x per entity and y of shape
    (N, n).
    """
    n, s, N = net.n, net.source, len(keep_rows)
    if mode == "edge":
        costs = net.costs
        affordable = np.isfinite(costs) & (costs <= budget) & (net.us != net.vs)
    else:
        costs = np.ones(n)
        affordable = costs <= budget
        affordable[s] = False
    var_entities = np.flatnonzero(affordable)
    col_of_entity = {int(e): i for i, e in enumerate(var_entities)}
    num_x = len(var_entities)
    scale = budget if budget > 0 else 1.0
    others = [v for v in range(n) if v != s]
    vrank = {v: r for r, v in enumerate(others)}

    def ycol(j, v):
        return num_x + j * (n - 1) + vrank[v]

    rows, cols, vals, b = [], [], [], [1.0]
    for i, e in enumerate(var_entities):
        rows.append(0)
        cols.append(i)
        vals.append(float(costs[e]) / scale)
    row = 1
    for j in range(N):
        for e in np.flatnonzero(keep_rows[j] & (net.us != net.vs)):
            u, v = int(net.us[e]), int(net.vs[e])
            for a, bvert in ((u, v), (v, u)):
                if bvert == s:
                    continue
                cs, vs_ = [ycol(j, bvert)], [1.0]
                if a != s:
                    cs.append(ycol(j, a))
                    vs_.append(-1.0)
                xe = col_of_entity.get(int(e) if mode == "edge" else bvert)
                if xe is not None:
                    cs.append(xe)
                    vs_.append(-1.0)
                rows.extend([row] * len(cs))
                cols.extend(cs)
                vals.extend(vs_)
                b.append(0.0)
                row += 1
    num_vars = num_x + N * (n - 1)
    objective = np.zeros(num_vars)
    objective[num_x:] = -1.0 / N
    res = linprog(
        c=objective,
        A_ub=sparse.csr_matrix((vals, (rows, cols)), shape=(row, num_vars)),
        b_ub=np.asarray(b), bounds=(0.0, 1.0), method="highs-ds",
        options={"primal_feasibility_tolerance": LP_TOLERANCE,
                 "dual_feasibility_tolerance": LP_TOLERANCE},
    )
    assert res.status == 0, res.message
    x = np.zeros(net.m if mode == "edge" else n)
    x[var_entities] = np.clip(res.x[:num_x], 0.0, 1.0)
    y = np.zeros((N, n))
    y[:, others] = np.clip(res.x[num_x:].reshape(N, n - 1), 0.0, 1.0)
    objective = min(max(float(res.fun) + (n - 1), 0.0), float(n - 1))
    return objective, x, y
