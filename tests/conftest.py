"""Shared instance factories for the test suite."""

from __future__ import annotations

import itertools
import math

import numpy as np
import pytest

from epictrl.network import ContactNetwork


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


def random_connected_network(rng, n_lo=4, n_hi=8, max_m=12, p_mode="random",
                             unit_costs=True) -> ContactNetwork:
    """Random connected instance: spanning tree plus extra edges."""
    n = int(rng.integers(n_lo, n_hi + 1))
    edges = []
    for v in range(1, n):
        edges.append((int(rng.integers(0, v)), v))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    extra = [e for e in all_pairs if e not in set(edges)]
    rng.shuffle(extra)
    budget_m = min(max_m, len(all_pairs))
    for e in extra:
        if len(edges) >= budget_m:
            break
        edges.append(e)
    m = len(edges)
    if p_mode == "random":
        probs = rng.uniform(0.05, 0.95, size=m)
    else:
        probs = np.full(m, float(p_mode))
    costs = np.ones(m) if unit_costs else rng.uniform(0.5, 3.0, size=m)
    return make_network(n, edges, probs=probs, costs=costs)


def union_find_component(network, keep) -> tuple[int, ...]:
    """Reference source component (ascending ids) of one kept-edge row."""
    parent = list(range(network.n))

    def find(x):
        while parent[x] != x:
            x = parent[x]
        return x

    for e in np.flatnonzero(keep):
        parent[find(int(network.us[e]))] = find(int(network.vs[e]))
    root = find(network.source)
    return tuple(v for v in range(network.n) if find(v) == root)


def union_find_sizes(network, keep_rows) -> np.ndarray:
    """Reference source-component size of each kept-edge row."""
    return np.array([len(union_find_component(network, row)) for row in keep_rows],
                    dtype=np.int64)


def parametric_sbcc_oracle(network, budget, lam):
    """Reference for ``min_sbcc`` by enumerating every source side (n <= 9).

    Each side S defines the line L_S(C) = 2^16 * cut(S) + C * (|S| - 1). The
    minimal minimizer (least L, then least |S|) is taken at C = 0, at C_max
    and at floor/ceil of every pairwise line intersection inside
    [0, C_max]; the selection rule of ``min_sbcc`` is then applied. Only the
    lowest line of each slope can be a minimizer, so only those intersect.
    Returns (side, cut, component size, within budget, lagrange alpha).
    """
    n, s, scale = network.n, network.source, 1 << 16
    assert n <= 9
    top = 2.0 ** (math.ceil(2 * math.log2(max(n, 2))) + 4) / n
    while top < 4.0 * max(budget, 1.0):
        top *= 2.0
    c_max = min(round(top * scale), 1 << 30)
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
    caps = {0, c_max}
    for (k_a, cut_a), (k_b, cut_b) in itertools.combinations(lowest.items(), 2):
        num, den = scale * (cut_b - cut_a), k_a - k_b
        if den < 0:
            num, den = -num, -den
        caps |= {c for c in (num // den, -(-num // den)) if 0 <= c <= c_max}
    first_cap = {}
    for cap in sorted(caps):
        side, cut = min(sides, key=lambda sc: (scale * sc[1] + cap * (len(sc[0]) - 1),
                                               len(sc[0])))
        first_cap.setdefault((side, cut), cap)
    limit = budget / lam
    qualifying = [(len(side), cut, cap, side)
                  for (side, cut), cap in first_cap.items() if cut <= limit]
    if qualifying:
        comp, cut, cap, side = min(qualifying)
        return side, cut, comp, True, cap / scale
    cut, comp, cap, side = min((cut, len(side), cap, side)
                               for (side, cut), cap in first_cap.items())
    return side, cut, comp, False, cap / scale


@pytest.fixture
def rng():
    return np.random.default_rng(20240817)
