"""Seeded input generation for every benchmark workload.

Every network the benchmark hands to the program is built here from seeded
streams keyed by ``(seed, purpose)`` through ``numpy.random.SeedSequence``,
independent of the program's own Philox streams: the instances from
``FAMILY_SEED``, the per-op solver and sample seeds from the workload seed.
The same workload seed therefore gives the same inputs.
"""

from __future__ import annotations

import itertools

import numpy as np

from epictrl import chunglu
from epictrl.network import ContactNetwork

# Fixed parameters of the workload families (see README.md for why).
K40_N, K40_P = 40, 0.9
POWERLAW_N, POWERLAW_BETA, POWERLAW_W = 200, 2.5, (1, 8)
POWERLAW_P = 0.4
SPARSE_N, SPARSE_M, SPARSE_P = 1000, 3000, 0.8
DESK_N, DESK_M = (7, 9), 14

# Seed of the fixed instances of saa-powerlaw, mc-supercritical and
# desk-oracle. Op times differ between instances of one family (0.6-3.8 s
# per op over Chung-Lu draws, +-10% between sparse graphs), so instances
# drawn per workload seed would make every per-run median depend on which
# instances were drawn; the workload seed fixes the solver and sample
# seeds, and so the scenarios, instead.
FAMILY_SEED = 20220216


class InputError(RuntimeError):
    """A generated input violates a property its workload relies on."""


def stream(seed: int, *purpose: int) -> np.random.Generator:
    """Independent generator for one purpose of one seed."""
    return np.random.default_rng(np.random.SeedSequence(seed, spawn_key=purpose))


def op_seeds(seed: int, purpose: int, count: int) -> list[int]:
    """Solver seeds for the ops of a workload, fixed by the workload seed."""
    return [int(s) for s in stream(seed, purpose).integers(0, 2**31 - 1, size=count)]


def complete_network(n: int, p: float) -> ContactNetwork:
    """K_n with unit costs and uniform probability p, source 0."""
    us, vs = np.array(list(itertools.combinations(range(n), 2)), dtype=np.int64).T
    m = len(us)
    return ContactNetwork(n=n, us=us, vs=vs, costs=np.ones(m),
                          probs=np.full(m, p), source=0)


def reroot_at_max_degree(net: ContactNetwork) -> ContactNetwork:
    """Move the source to the highest-degree vertex (smallest id on ties).

    ``chunglu.generate`` pins ``source=0``, a vertex of the lowest weight
    class that is usually isolated, which leaves every solver nothing to
    do. An isolated source after the move means the draw is unusable.
    """
    real = net.us != net.vs
    deg = np.bincount(net.us[real], minlength=net.n) + np.bincount(net.vs[real], minlength=net.n)
    source = int(np.argmax(deg))
    if deg[source] == 0:
        raise InputError("generated network has no edges: the source would be isolated")
    return ContactNetwork(n=net.n, us=net.us, vs=net.vs, costs=net.costs,
                          probs=net.probs, source=source)


def powerlaw_network(index: int) -> ContactNetwork:
    """Chung-Lu draw ``index`` of the family: n=200, beta=2.5, w in [1, 8], p=0.4."""
    model = chunglu.build_model(POWERLAW_N, POWERLAW_BETA, *POWERLAW_W)
    net = chunglu.generate(model, FAMILY_SEED, index)
    return reroot_at_max_degree(net).with_uniform_probability(POWERLAW_P)


def connected_network(g: np.random.Generator, n: int, m: int, probs=None) -> ContactNetwork:
    """Random spanning tree plus distinct extra edges up to m; source 0."""
    if not n - 1 <= m <= n * (n - 1) // 2:
        raise InputError(f"cannot build a simple connected graph with n={n}, m={m}")
    parents = [int(g.integers(0, v)) for v in range(1, n)]
    edges = {(p, v) for v, p in zip(range(1, n), parents)}
    while len(edges) < m:
        u, v = sorted(int(x) for x in g.choice(n, size=2, replace=False))
        edges.add((u, v))
    us, vs = np.array(sorted(edges), dtype=np.int64).T
    if probs is None:
        probs = g.uniform(0.05, 0.95, size=m)
    return ContactNetwork(n=n, us=us, vs=vs, costs=np.ones(m),
                          probs=np.broadcast_to(probs, (m,)).astype(np.float64), source=0)


def sparse_network() -> ContactNetwork:
    """The sparse connected graph: n=1000, m=3000, uniform p=0.8."""
    return connected_network(stream(FAMILY_SEED, 1), SPARSE_N, SPARSE_M, probs=SPARSE_P)


def desk_network(index: int) -> ContactNetwork:
    """Desk-scale instance ``index`` of the family: connected, n in 7..9, m=14."""
    g = stream(FAMILY_SEED, 2, index)
    n = int(g.integers(DESK_N[0], DESK_N[1] + 1))
    return connected_network(g, n, DESK_M)
