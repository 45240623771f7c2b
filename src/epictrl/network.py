"""Contact-network instances and the graph primitives shared by all solvers.

A :class:`ContactNetwork` is an undirected graph with per-edge removal costs
and transmission probabilities, plus a designated infection source. Vertices
are dense integers ``0..n-1``; an optional label map preserves input naming.
Multi-seed instances are reduced to a single source by
:func:`merge_seeds`, which adds a meta-vertex wired to every seed with
probability 1 and an infinite (never removable) cost.

All values here are immutable after construction and safe to share across
threads.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy import sparse
from scipy.sparse.csgraph import connected_components

from .errors import ParseError, ValidationError

META_SOURCE_LABEL = "__source__"

# Cells, rows x (n + m), per block of the component kernel. It bounds a
# block's edge arrays and label array together and keeps block vertex ids
# far below int32. On the sparse Monte Carlo benchmark, half this ran ~7%
# slower and four times this raised peak memory by ~6 MB.
CELLS = 1 << 16


@dataclass(frozen=True)
class ContactNetwork:
    """An instance: graph, edge costs, transmission probabilities, source.

    Edges are stored as parallel arrays (``us[e]``, ``vs[e]``, ``costs[e]``,
    ``probs[e]``). Self-loops are kept in storage but are inert: they never
    affect reachability, cuts, or path counts.
    """

    n: int
    us: np.ndarray
    vs: np.ndarray
    costs: np.ndarray
    probs: np.ndarray
    source: int
    labels: tuple[str, ...] | None = None

    def __post_init__(self):
        us = np.asarray(self.us, dtype=np.int64)
        vs = np.asarray(self.vs, dtype=np.int64)
        costs = np.asarray(self.costs, dtype=np.float64)
        probs = np.asarray(self.probs, dtype=np.float64)
        if not (len(us) == len(vs) == len(costs) == len(probs)):
            raise ValidationError("edge arrays must have equal length")
        if self.n < 1:
            raise ValidationError("network needs at least one vertex")
        if len(us) and (us.min() < 0 or vs.min() < 0 or max(us.max(), vs.max()) >= self.n):
            raise ValidationError("edge endpoint out of range")
        if not (0 <= self.source < self.n):
            raise ValidationError(f"source id {self.source} out of range")
        if np.any(probs < 0.0) or np.any(probs > 1.0):
            bad = int(np.flatnonzero((probs < 0) | (probs > 1))[0])
            raise ValidationError(f"edge {bad}: probability {probs[bad]} outside [0, 1]")
        if np.any(costs < 0.0):
            bad = int(np.flatnonzero(costs < 0)[0])
            raise ValidationError(f"edge {bad}: negative cost {costs[bad]}")
        if len(us):
            pair_keys = np.minimum(us, vs) * self.n + np.maximum(us, vs)
            first = np.zeros(len(us), dtype=bool)
            first[np.unique(pair_keys, return_index=True)[1]] = True
            if not first.all():
                # the first edge whose unordered pair appeared earlier
                e = int(np.flatnonzero(~first)[0])
                key = (min(us[e], vs[e]), max(us[e], vs[e]))
                raise ValidationError(f"duplicate undirected edge {key}")
        if self.labels is not None and len(self.labels) != self.n:
            raise ValidationError("label map length must equal vertex count")
        for arr, name in ((us, "us"), (vs, "vs"), (costs, "costs"), (probs, "probs")):
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)

    @property
    def m(self) -> int:
        return len(self.us)

    @property
    def self_loops(self) -> tuple[int, ...]:
        """Edge ids of self-loops (flagged on ingest, epidemiologically inert)."""
        return tuple(int(e) for e in np.flatnonzero(self.us == self.vs))

    @property
    def max_degree(self) -> int:
        """Maximum vertex degree; a self-loop contributes 1 to its endpoint."""
        deg = np.zeros(self.n, dtype=np.int64)
        np.add.at(deg, self.us, 1)
        loops = self.us != self.vs
        np.add.at(deg, self.vs[loops], 1)
        return int(deg.max()) if self.n else 0

    def label_of(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def index_of(self, label: str) -> int:
        if self.labels is None:
            return int(label)
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValidationError(f"unknown vertex label {label!r}") from None

    def adjacency(self, edge_keep: np.ndarray | None = None) -> list[list[tuple[int, int]]]:
        """Adjacency lists of (neighbor, edge id); self-loops omitted."""
        adj: list[list[tuple[int, int]]] = [[] for _ in range(self.n)]
        for e in range(self.m):
            if edge_keep is not None and not edge_keep[e]:
                continue
            u, v = int(self.us[e]), int(self.vs[e])
            if u == v:
                continue
            adj[u].append((v, e))
            adj[v].append((u, e))
        return adj

    def with_source(self, source: int | None) -> "ContactNetwork":
        """This network with its source moved to ``source`` (None keeps it)."""
        if source is None or source == self.source:
            return self
        return ContactNetwork(
            n=self.n, us=self.us, vs=self.vs, costs=self.costs,
            probs=self.probs, source=source, labels=self.labels,
        )

    def with_uniform_probability(self, p: float) -> "ContactNetwork":
        """Copy of this network with every transmission probability set to p."""
        if not 0.0 <= p <= 1.0:
            raise ValidationError(f"probability {p} outside [0, 1]")
        return ContactNetwork(
            n=self.n, us=self.us, vs=self.vs, costs=self.costs,
            probs=np.full(self.m, p), source=self.source, labels=self.labels,
        )

    def uniform_probability(self) -> float:
        """The shared p_e when probabilities are uniform; error otherwise.

        Self-loops are inert and excluded from the uniformity check.
        """
        real = np.flatnonzero(self.us != self.vs)
        if len(real) == 0:
            raise ValidationError("network has no non-loop edges")
        p = float(self.probs[real[0]])
        if not np.all(self.probs[real] == p):
            raise ValidationError("edge probabilities are not uniform")
        return p


@dataclass(frozen=True)
class Intervention:
    """A committed removal: a set of edge ids or vertex ids with its cost."""

    kind: str  # "edge" | "node"
    members: tuple[int, ...]
    cost: float
    provenance: str = ""

    def __post_init__(self):
        if self.kind not in ("edge", "node"):
            raise ValidationError(f"unknown intervention kind {self.kind!r}")
        object.__setattr__(self, "members", tuple(sorted(set(int(x) for x in self.members))))


def edge_removal(
    network: ContactNetwork, edge_ids, provenance: str = ""
) -> Intervention:
    """Edge-removal intervention; cost is recomputed from the network."""
    ids = sorted(set(int(e) for e in edge_ids))
    for e in ids:
        if not 0 <= e < network.m:
            raise ValidationError(f"edge id {e} out of range")
    cost = float(np.sum(network.costs[ids])) if ids else 0.0
    return Intervention("edge", tuple(ids), cost, provenance)


def node_removal(
    network: ContactNetwork, vertex_ids, provenance: str = "",
    node_costs: np.ndarray | None = None,
) -> Intervention:
    """Node-removal intervention; unit cost per vertex unless costs given.

    The source can never be removed (it is already infected).
    """
    ids = sorted(set(int(v) for v in vertex_ids))
    for v in ids:
        if not 0 <= v < network.n:
            raise ValidationError(f"vertex id {v} out of range")
    if network.source in ids:
        raise ValidationError("node removal may not contain the source")
    if node_costs is None:
        cost = float(len(ids))
    else:
        cost = float(np.sum(np.asarray(node_costs, dtype=float)[ids])) if ids else 0.0
    return Intervention("node", tuple(ids), cost, provenance)


def no_intervention(kind: str = "edge") -> Intervention:
    return Intervention(kind, (), 0.0, "none")


@dataclass(frozen=True)
class ComponentReport:
    """The source's component in a residual graph.

    ``size`` is the infection count of that residual graph. ``boundary``
    holds edge ids of the *full* graph with exactly one endpoint inside.
    """

    members: tuple[int, ...]
    boundary: tuple[int, ...]
    size: int = field(default=0)

    def __post_init__(self):
        object.__setattr__(self, "size", len(self.members))


def removal_edge_keep(network: ContactNetwork, removed: Intervention | None) -> np.ndarray:
    """Boolean per-edge keep mask implied by an intervention.

    Edge removal drops the listed edges; node removal drops every edge
    incident to a removed vertex.
    """
    keep = np.ones(network.m, dtype=bool)
    if removed is None or not removed.members:
        return keep
    if removed.kind == "edge":
        keep[list(removed.members)] = False
    else:
        gone = np.zeros(network.n, dtype=bool)
        gone[list(removed.members)] = True
        keep &= ~(gone[network.us] | gone[network.vs])
    return keep


def source_component_sizes(network: ContactNetwork, keep_rows: np.ndarray) -> np.ndarray:
    """Size of the source's component for each row of a kept-edge matrix."""
    return source_component_members(network, keep_rows).sum(axis=1)


def source_component_members(network: ContactNetwork, keep_rows: np.ndarray) -> np.ndarray:
    """Membership of the source's component, one (n,) bool row per kept-edge row.

    This is the one component kernel. Rows go through
    :func:`_component_labels` in blocks of ``max(1, CELLS // (n + m))``.
    """
    step = max(1, CELLS // (network.n + network.m))
    members = np.empty((len(keep_rows), network.n), dtype=bool)
    for start in range(0, len(keep_rows), step):
        labels = _component_labels(network, keep_rows[start:start + step])
        members[start:start + len(labels)] = labels == labels[:, [network.source]]
    return members


def _component_labels(network: ContactNetwork, keep_rows: np.ndarray) -> np.ndarray:
    """Component label of every vertex, one row per kept-edge row.

    The rows are stacked into one block-diagonal graph (row r's kept edges
    with endpoints offset by r*n) whose components are found in a single
    ``connected_components`` call. A self-loop joins a vertex only to
    itself, so self-loops stay inert.
    """
    r, n = len(keep_rows), network.n
    rows, edges = np.nonzero(keep_rows)
    offset = rows * n
    graph = sparse.csr_matrix(
        (np.ones(len(edges)), (network.us[edges] + offset, network.vs[edges] + offset)),
        shape=(r * n, r * n),
    )
    return connected_components(graph, directed=False)[1].reshape(r, n)


def component_of(
    network: ContactNetwork,
    removed: Intervention | None = None,
    edge_mask: np.ndarray | None = None,
) -> ComponentReport:
    """Component of the source after applying a sample mask and a removal.

    ``edge_mask`` (boolean, per edge) restricts to a percolation sample's
    kept edges before the removal is applied. Members are listed in
    ascending vertex id.
    """
    keep = removal_edge_keep(network, removed)
    if edge_mask is not None:
        keep = keep & np.asarray(edge_mask, dtype=bool)
    inside = source_component_members(network, keep[np.newaxis, :])[0]
    members = tuple(int(v) for v in np.flatnonzero(inside))
    cross = inside[network.us] ^ inside[network.vs]
    boundary = tuple(int(e) for e in np.flatnonzero(cross))
    return ComponentReport(members=members, boundary=boundary)


def boundary_of(network: ContactNetwork, members) -> tuple[int, ...]:
    """Edge ids with exactly one endpoint in ``members``."""
    inside = np.zeros(network.n, dtype=bool)
    inside[list(members)] = True
    cross = inside[network.us] ^ inside[network.vs]
    return tuple(int(e) for e in np.flatnonzero(cross))


def merge_seeds(network: ContactNetwork, seeds) -> ContactNetwork:
    """Reduce a multi-seed instance to a single meta-source.

    Adds one new vertex s with an edge to every seed, each with probability 1
    and infinite cost, so no solver can remove them and every percolation
    sample retains them. The input network is not modified.
    """
    seed_ids = sorted(set(int(v) for v in seeds))
    if not seed_ids:
        raise ValidationError("seed set may not be empty")
    for v in seed_ids:
        if not 0 <= v < network.n:
            raise ValidationError(f"seed vertex {v} out of range")
    s = network.n
    us = np.concatenate([network.us, np.full(len(seed_ids), s, dtype=np.int64)])
    vs = np.concatenate([network.vs, np.asarray(seed_ids, dtype=np.int64)])
    costs = np.concatenate([network.costs, np.full(len(seed_ids), math.inf)])
    probs = np.concatenate([network.probs, np.ones(len(seed_ids))])
    labels = None
    if network.labels is not None:
        meta = META_SOURCE_LABEL
        while meta in network.labels:
            meta = "_" + meta
        labels = network.labels + (meta,)
    return ContactNetwork(n=network.n + 1, us=us, vs=vs, costs=costs,
                          probs=probs, source=s, labels=labels)


def random_connected_network(rng, n_lo=4, n_hi=8, max_m=12, p_mode="random",
                             unit_costs=True) -> ContactNetwork:
    """Random connected instance: a spanning tree plus extra edges, source 0.

    ``rng`` is a numpy Generator. n is drawn from [n_lo, n_hi]; vertex v
    hangs off a uniform earlier vertex, then shuffled distinct pairs are
    added up to ``max_m`` edges. Probabilities are uniform on [0.05, 0.95]
    unless ``p_mode`` is a number; costs are 1 or uniform on [0.5, 3].
    """
    n = int(rng.integers(n_lo, n_hi + 1))
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    tree = set(edges)
    extra = [e for e in all_pairs if e not in tree]
    rng.shuffle(extra)
    edges += extra[:max(0, min(max_m, len(all_pairs)) - len(edges))]
    m = len(edges)
    if p_mode == "random":
        probs = rng.uniform(0.05, 0.95, size=m)
    else:
        probs = np.full(m, float(p_mode))
    costs = np.ones(m) if unit_costs else rng.uniform(0.5, 3.0, size=m)
    us, vs = np.array(edges, dtype=np.int64).reshape(m, 2).T
    return ContactNetwork(n=n, us=us, vs=vs, costs=costs, probs=probs, source=0)


def removable_edges(network: ContactNetwork) -> np.ndarray:
    """Edge ids with finite cost (meta-source edges are excluded)."""
    return np.flatnonzero(np.isfinite(network.costs))


def load_network(path) -> ContactNetwork:
    """Read a whitespace-separated edge list.

    One edge per line: ``u v cost prob``. ``#`` starts a comment. Directive
    lines: ``@source <label>`` names the source; ``@seeds <label>...`` names
    the initially infected set, in which case the meta-source merge is
    applied on load. Labels map to dense ids in first-appearance order.
    """
    path = str(path)
    labels: list[str] = []
    index: dict[str, int] = {}
    us: list[int] = []
    vs: list[int] = []
    costs: list[float] = []
    probs: list[float] = []
    source_label: str | None = None
    seed_labels: list[str] | None = None
    seen_edges: set[tuple[int, int]] = set()

    def intern(label: str) -> int:
        if label not in index:
            index[label] = len(labels)
            labels.append(label)
        return index[label]

    with open(path, "r", encoding="utf-8") as fh:
        for lineno, raw in enumerate(fh, start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            parts = line.split()
            if parts[0] == "@source":
                if len(parts) != 2:
                    raise ParseError("@source expects exactly one label", path, lineno)
                source_label = parts[1]
                continue
            if parts[0] == "@seeds":
                if len(parts) < 2:
                    raise ParseError("@seeds expects at least one label", path, lineno)
                seed_labels = parts[1:]
                continue
            if len(parts) != 4:
                raise ParseError(f"expected 'u v cost prob', got {len(parts)} fields", path, lineno)
            u = intern(parts[0])
            v = intern(parts[1])
            try:
                cost = float(parts[2])
                prob = float(parts[3])
            except ValueError as exc:
                raise ParseError(f"bad number: {exc}", path, lineno) from None
            if not 0.0 <= prob <= 1.0:
                raise ParseError(f"probability {prob} outside [0, 1]", path, lineno)
            if cost < 0:
                raise ParseError(f"negative cost {cost}", path, lineno)
            key = (min(u, v), max(u, v))
            if key in seen_edges:
                raise ParseError(f"duplicate undirected edge {parts[0]} {parts[1]}", path, lineno)
            seen_edges.add(key)
            us.append(u)
            vs.append(v)
            costs.append(cost)
            probs.append(prob)

    if source_label is None and seed_labels is None:
        raise ParseError("missing @source (or @seeds) directive", path)
    if source_label is not None and source_label not in index:
        raise ParseError(f"unknown source label {source_label!r}", path)
    if seed_labels is not None:
        for lab in seed_labels:
            if lab not in index:
                raise ParseError(f"unknown seed label {lab!r}", path)

    source = index[source_label] if source_label is not None else 0
    net = ContactNetwork(
        n=len(labels),
        us=np.asarray(us, dtype=np.int64),
        vs=np.asarray(vs, dtype=np.int64),
        costs=np.asarray(costs, dtype=np.float64),
        probs=np.asarray(probs, dtype=np.float64),
        source=source,
        labels=tuple(labels),
    )
    if seed_labels is not None:
        net = merge_seeds(net, [index[lab] for lab in seed_labels])
    return net


def write_network(network: ContactNetwork, path) -> None:
    """Write the edge-list format read by :func:`load_network`.

    Vertices only exist in the format as edge endpoints, so isolated
    vertices are anchored with an inert self-loop of probability 0; they
    survive a round trip (as flagged self-loops) instead of vanishing.
    """
    touched = np.zeros(network.n, dtype=bool)
    touched[network.us] = True
    touched[network.vs] = True
    with open(str(path), "w", encoding="utf-8") as fh:
        fh.write(f"@source {network.label_of(network.source)}\n")
        for e in range(network.m):
            fh.write(
                f"{network.label_of(int(network.us[e]))} "
                f"{network.label_of(int(network.vs[e]))} "
                f"{float(network.costs[e])!r} {float(network.probs[e])!r}\n"
            )
        for v in np.flatnonzero(~touched):
            lab = network.label_of(int(v))
            fh.write(f"{lab} {lab} 1.0 0.0\n")


def global_min_cut(network: ContactNetwork) -> float:
    """Exact global minimum cut weight (edge costs) by Stoer-Wagner.

    Returns 0.0 for a disconnected network and +inf for a single vertex.
    Self-loops are ignored. Deterministic: maximum-adjacency selection
    breaks ties toward the smallest vertex id.
    """
    n = network.n
    if n <= 1:
        return math.inf
    w = np.zeros((n, n), dtype=np.float64)
    for e in range(network.m):
        u, v = int(network.us[e]), int(network.vs[e])
        if u == v:
            continue
        w[u, v] += network.costs[e]
        w[v, u] += network.costs[e]
    # connectivity check (cost-0 edges still connect)
    rep = component_of(network)
    if rep.size < n:
        return 0.0
    active = list(range(n))
    best = math.inf
    while len(active) > 1:
        # maximum-adjacency order starting from the smallest active id
        a = active[0]
        in_a = {a}
        order = [a]
        weights = {v: w[a, v] for v in active if v != a}
        while len(order) < len(active):
            nxt = max(sorted(weights), key=lambda v: weights[v])
            order.append(nxt)
            in_a.add(nxt)
            del weights[nxt]
            for v in weights:
                weights[v] += w[nxt, v]
        s_, t_ = order[-2], order[-1]
        cut_of_phase = float(sum(w[t_, v] for v in active if v != t_))
        best = min(best, cut_of_phase)
        # contract t_ into s_
        for v in active:
            if v not in (s_, t_):
                w[s_, v] += w[t_, v]
                w[v, s_] = w[s_, v]
        active.remove(t_)
    return best


@dataclass(frozen=True)
class RegimeReport:
    """Sparsification check for uniform-probability unit-cost networks."""

    epsilon: float
    in_regime: bool
    c_min: float
    threshold: float  # 9 ln n


def sparsification_regime(network: ContactNetwork, p: float, d: float = 1.0) -> RegimeReport:
    """Cut-sampling concentration parameters for a uniform probability p.

    epsilon = sqrt(3 (d+2) ln n / (c_min p)); the high-probability regime
    holds when c_min * p >= 9 ln n. Requires n >= 2, unit edge costs,
    p on every non-loop edge (self-loops are inert), and p > 0 (the
    epsilon formula divides by p).
    """
    if network.n < 2:
        raise ValidationError("regime check needs at least two vertices")
    if not 0.0 < p <= 1.0:
        raise ValidationError(f"uniform probability must be in (0, 1], got {p}")
    if d <= 0:
        raise ValidationError("d must be positive")
    if network.m and not np.all(network.costs == 1.0):
        raise ValidationError("regime check requires unit edge costs")
    if not np.all(network.probs[network.us != network.vs] == p):
        raise ValidationError("network probabilities disagree with the uniform p")
    c_min = global_min_cut(network)
    ln_n = math.log(network.n)
    if c_min == 0.0:
        return RegimeReport(math.inf, False, 0.0, 9.0 * ln_n)
    eps = math.sqrt(3.0 * (d + 2.0) * ln_n / (c_min * p))
    return RegimeReport(eps, c_min * p >= 9.0 * ln_n, c_min, 9.0 * ln_n)
