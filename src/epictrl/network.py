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

from .errors import InstanceTooLargeError, ParseError, ValidationError

META_SOURCE_LABEL = "__source__"

# Cells per block of the component kernel and of the draws. The kernel takes
# at most 8 CELLS // (n + m) rows at a time, whole 64-row words from 64 rows
# up, so at most CELLS bytes of packed bits (kernel_rows); Monte Carlo
# estimates and scenario draws draw one such block at a time, and its
# 32-bit halves, m per sample from one PCG64DXSM stream, two an output,
# CELLS // m rows at a time; an edge is kept when its half is below
# p_e 2^32, within 2^-32 of p_e (percolate.sample_keep_matrix).
# The value is set by the cache and the allocator. On a 1,000-vertex,
# 3,000-edge graph a block is then 64 rows, one lane word: its 120 kB
# raw chunk, its 192 kB keep rows, their transpose and a removal's
# mask, and the kernel's own arrays fit a 2 MB L2 cache together, as those
# of 2^16 did not. Each array past glibc's mmap threshold is a fresh
# mapping whose pages fault in on first touch: an estimate of 200 samples
# there takes ~120 minor page faults against ~215 at 2^16, and 9% less
# time. 2^14 is slower: 32-row blocks fill half a lane word, and each
# round of the kernel walks whole words.
CELLS = 1 << 15

# Vertices plus arcs per max-flow call of the stacked flow networks
# (_minimal_sides). A call's cost is mostly scipy's fixed overhead, so
# larger stacks make fewer calls: with CELLS cells a stack, a dense
# 200-vertex, 10,000-edge Karger instance takes 119 regime flows and 32
# sweep flows against 40 and 12, and about 14% more time.
FLOW_CELLS = 1 << 16

# Share of a kernel block's arcs above which the arcs leaving a round's
# front make the round pull over every arc instead of pushing along those
# (_block_reach). A pull round walks all arcs in a few whole-array calls; a
# push round walks only the front's, with a gather, a scatter and a dedupe
# per arc. On the sparse 1,000-vertex, 3,000-edge graph at p = 0.8 a 64-row
# block then pulls in its wide middle rounds and takes about 0.55 times as
# long as with push rounds alone (0.85 times pull rounds alone); the narrow
# fronts of a path, a ladder or a grid never pass it and push only.
PULL_SHARE = 0.25

_SCALE = 1 << 16  # integer capacity of an edge in the flow networks


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
        # written so that NaN fails them; an infinite cost marks an edge
        # that cannot be removed (merge_seeds)
        wrong = ~((probs >= 0.0) & (probs <= 1.0))
        if wrong.any():
            bad = int(np.flatnonzero(wrong)[0])
            raise ValidationError(f"edge {bad}: probability {probs[bad]} outside [0, 1]")
        wrong = ~(costs >= 0.0)
        if wrong.any():
            bad = int(np.flatnonzero(wrong)[0])
            raise ValidationError(f"edge {bad}: negative cost or NaN: {costs[bad]}")
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

    def label_of(self, v: int) -> str:
        return self.labels[v] if self.labels is not None else str(v)

    def index_of(self, label: str) -> int:
        if self.labels is None:
            return int(label)
        try:
            return self.labels.index(label)
        except ValueError:
            raise ValidationError(f"unknown vertex label {label!r}") from None

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

    def __post_init__(self):
        if self.kind not in ("edge", "node"):
            raise ValidationError(f"unknown intervention kind {self.kind!r}")
        object.__setattr__(self, "members", tuple(sorted(set(int(x) for x in self.members))))


def edge_removal(network: ContactNetwork, edge_ids) -> Intervention:
    """Edge-removal intervention; cost is recomputed from the network."""
    ids = sorted(set(int(e) for e in edge_ids))
    for e in ids:
        if not 0 <= e < network.m:
            raise ValidationError(f"edge id {e} out of range")
    cost = float(np.sum(network.costs[ids])) if ids else 0.0
    return Intervention("edge", tuple(ids), cost)


def node_removal(network: ContactNetwork, vertex_ids) -> Intervention:
    """Node-removal intervention at unit cost per vertex, so a budget B
    removes at most B vertices.

    The source can never be removed (it is already infected).
    """
    ids = sorted(set(int(v) for v in vertex_ids))
    for v in ids:
        if not 0 <= v < network.n:
            raise ValidationError(f"vertex id {v} out of range")
    if network.source in ids:
        raise ValidationError("node removal may not contain the source")
    return Intervention("node", tuple(ids), float(len(ids)))


def no_intervention() -> Intervention:
    return Intervention("edge", (), 0.0)


def check_budget(budget: float) -> None:
    """Reject a NaN, infinite or negative removal budget."""
    if not 0 <= budget < math.inf:
        raise ValidationError(f"budget must be finite and nonnegative, got {budget}")


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
    sizes = np.empty(len(keep_rows), dtype=np.int64)
    for start, stop, inside in _source_reach(network, keep_rows):
        sizes[start:stop] = np.count_nonzero(inside, axis=1)
    return sizes


def source_component_members(network: ContactNetwork, keep_rows: np.ndarray) -> np.ndarray:
    """Membership of the source's component, one (n,) bool row per kept-edge row.

    This and :func:`source_component_sizes` share the one component kernel,
    :func:`_source_reach`. Rows that fit one kernel block come back as that
    block's own array, so they are held once.
    """
    if 0 < len(keep_rows) <= kernel_rows(network):
        return next(_source_reach(network, keep_rows))[2]
    members = np.zeros((len(keep_rows), network.n), dtype=bool)
    for start, stop, inside in _source_reach(network, keep_rows):
        members[start:stop] = inside
    return members


def kernel_rows(network: ContactNetwork) -> int:
    """Kept-edge rows per block of the component kernel.

    That is ``8 * CELLS // (n + m)``, at least 1, and from 64 up rounded
    down to whole 64-row words, since each word of a block is a copy of
    the graph that every round walks, full or not. A block of r rows holds
    r n bits of reach and r m bits of kept edges, at most ``CELLS`` bytes
    (their per-arc copy takes twice the latter), and unpacks its
    membership into r n bools, at most ``8 * CELLS`` bytes.
    """
    rows = max(1, 8 * CELLS // (network.n + network.m))
    return rows if rows < 64 else rows // 64 * 64


def _source_reach(network: ContactNetwork, keep_rows: np.ndarray):
    """Yield ``(start, stop, inside)`` for each block of kept-edge rows.

    Rows go in blocks of :func:`kernel_rows`; :func:`_block_reach` finds a
    block's source components as bit lanes, and ``inside`` is the block's
    (r, n) bool membership, unpacked for its r rows only.
    """
    n = network.n
    step = kernel_rows(network)
    for start in range(0, len(keep_rows), step):
        block = keep_rows[start:start + step]
        reach = _block_reach(network, block)
        words = len(reach) // n
        # byte b of word j holds rows 64 j + 8 b .. 64 j + 8 b + 7
        lanes = reach.view(np.uint8).reshape(words, n, 8).transpose(0, 2, 1)
        inside = np.unpackbits(lanes.reshape(8 * words, n), axis=0, count=len(block),
                               bitorder="little")
        yield start, start + len(block), inside.view(bool)


def _block_reach(network: ContactNetwork, block: np.ndarray) -> np.ndarray:
    """The source's component in each of r kept-edge rows, as bit lanes.

    Row 64 j + i is bit i of word j, for w = ceil(r / 64) words, and word j
    stands for its own copy of the graph, whose vertex v is j n + v and
    whose arc k is j a + k, for the a arcs of :func:`_arcs`. ``kept`` holds,
    per copy's arc, the lanes that keep its edge, and ``reach`` per copy's
    vertex the lanes that reach it, at first the source alone. The front is
    the vertices that gained lanes in the round before, and each round is
    one of two kinds (Beamer, Asanović and Patterson, SC 2012), chosen from
    the arcs that leave the front. While they are at most ``PULL_SHARE`` of
    the block's w a arcs, the round pushes: it sends ``reach[tail] &
    kept[arc]`` along those arcs alone and ORs the lanes new to each head
    into its reach. Past that, it pulls: every vertex with an arc ORs in
    ``reach[head] & kept[arc]`` over its whole CSR run, one reduction per
    run, and the vertices that gained lanes, already sorted and unique, are
    the next front. Pulling is exact because every edge has an arc in each
    direction with the same ``kept`` lanes, so vertex v's run names exactly
    the arcs into v. Each kind of round moves every lane that the front
    holds across every kept arc, so both reach the same fixpoint, and the
    rounds stop when no lane changes. Every lane then holds its row's
    source component, after as many rounds as the deepest of those
    components has levels. A self-loop has no arc, so self-loops stay
    inert. The block is packed along its contiguous axis: its (m, r)
    transpose packs into the first ceil(r / 8) bytes of each edge's 8 w
    zeroed bytes, read as w little-endian words. Returns ``reach``, (w n,)
    uint64; the lanes past r reach the source alone.
    """
    n, m, source = network.n, network.m, network.source
    _, heads, edges, starts, with_arcs, run_starts = _arcs(network)
    a = len(heads)
    words = -(-len(block) // 64)
    # edge e's row of packed holds its lanes: row i is bit i % 64 of word i // 64
    packed = np.zeros((m, 8 * words), dtype=np.uint8)
    packed[:, :-(-len(block) // 8)] = np.packbits(np.ascontiguousarray(block.T), axis=1,
                                                  bitorder="little")
    kept = packed.view("<u8")[edges].T.reshape(-1)  # (words, a) -> (words a,)
    copy = np.arange(words)[:, np.newaxis]
    first_arc = np.append((starts[:-1] + a * copy).reshape(-1), words * a)
    head = (heads + n * copy).reshape(-1)
    pull_above = int(PULL_SHARE * words * a)  # an int compares with ends[-1] fastest
    pulled = runs = None  # each copy's vertices with arcs and their runs' first arcs
    reach = np.zeros(words * n, dtype="<u8")
    reach[source::n] = np.iinfo(np.uint64).max
    latest = np.empty(words * n, dtype=np.int32)  # dedupes each round's heads
    front = np.arange(source, words * n, n)
    while len(front):
        # the arcs leaving front: vertex v's run first_arc[v]:first_arc[v + 1]
        first = first_arc[front]
        count = first_arc[front + 1] - first
        ends = np.cumsum(count)
        if ends[-1] > pull_above:
            del first, count, ends  # push rounds' own; freed before the pull allocates
            if pulled is None:
                # reduceat copies a read-only index array on every call, so
                # the cached offsets are copied once here
                pulled, runs = ((with_arcs, run_starts.copy()) if words == 1 else
                                ((with_arcs + n * copy).reshape(-1),
                                 (run_starts + a * copy).reshape(-1)))
            got = reach[head]
            got &= kept
            gain = np.bitwise_or.reduceat(got, runs)
            del got
            old = reach[pulled]
            gain &= np.invert(old, out=old)
            del old
            new = gain != 0
            front = pulled[new]
            reach[front] |= gain[new]
            continue
        arcs = np.repeat(first - ends + count, count)
        arcs += np.arange(len(arcs))
        to = head[arcs]
        gain = np.repeat(reach[front], count)
        gain &= kept[arcs]
        gain &= ~reach[to]
        new = gain != 0
        to = to[new]
        np.bitwise_or.at(reach, to, gain[new])
        order = np.arange(len(to), dtype=np.int32)
        latest[to] = order
        front = to[latest[to] == order]
    return reach


def _arcs(network: ContactNetwork) -> tuple[np.ndarray, ...]:
    """Both arcs of every non-loop edge, sorted by (tail, head).

    Returns their tails, heads and edge ids, the (n + 1,) offsets at which
    each vertex's arcs start (vertex v's arcs are v's CSR row,
    ``starts[v]:starts[v + 1]``), and the segments of the component
    kernel's pull rounds: the ascending vertices with at least one arc and
    the offset of each one's run. Those runs tile the arcs, so one
    ``np.bitwise_or.reduceat`` over the offsets ORs each such vertex's arcs;
    an arc-less vertex is left out, since reduceat would read its empty run
    as the next vertex's first arc. Built once per network and cached,
    read-only; the component kernel reads it, and a flow copy of
    :func:`_minimal_sides` is a list of indices into it.
    """
    cached = network.__dict__.get("_arcs")
    if cached is not None:
        return cached
    real = np.flatnonzero(network.us != network.vs)
    tails = np.concatenate([network.us[real], network.vs[real]])
    heads = np.concatenate([network.vs[real], network.us[real]])
    order = np.lexsort((heads, tails))
    tails = tails[order]
    starts = np.searchsorted(tails, np.arange(network.n + 1))
    with_arcs = np.flatnonzero(np.diff(starts))
    arcs = (tails, heads[order], np.concatenate([real, real])[order], starts,
            with_arcs, starts[with_arcs])
    for arr in arcs:
        arr.setflags(write=False)
    object.__setattr__(network, "_arcs", arcs)
    return arcs


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
    members = tuple(np.flatnonzero(inside).tolist())
    cross = inside[network.us] ^ inside[network.vs]
    boundary = tuple(np.flatnonzero(cross).tolist())
    return ComponentReport(members=members, boundary=boundary)


def boundary_of(network: ContactNetwork, members) -> tuple[int, ...]:
    """Edge ids with exactly one endpoint in ``members``."""
    inside = np.zeros(network.n, dtype=bool)
    inside[list(members)] = True
    cross = inside[network.us] ^ inside[network.vs]
    return tuple(np.flatnonzero(cross).tolist())


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
        try:
            text = fh.read()
        except UnicodeDecodeError as exc:
            raise ParseError(f"not UTF-8 text ({exc.reason})", path) from None
        # text mode has already turned every line ending into "\n"
        for lineno, raw in enumerate(text.split("\n"), start=1):
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
            if not cost >= 0:  # NaN too
                raise ParseError(f"negative cost or NaN: {cost}", path, lineno)
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


# scipy's graph routines, imported on their first call: scipy.sparse.csgraph
# pulls in scipy.sparse, scipy.sparse.linalg and scipy.linalg, which a run
# without a max flow or an LP never needs (see the package docstring).

def breadth_first_order(*args, **kwargs):
    """``scipy.sparse.csgraph.breadth_first_order``."""
    from scipy.sparse.csgraph import breadth_first_order

    return breadth_first_order(*args, **kwargs)


def maximum_flow(*args, **kwargs):
    """``scipy.sparse.csgraph.maximum_flow``."""
    from scipy.sparse.csgraph import maximum_flow

    return maximum_flow(*args, **kwargs)


def _minimal_sides(network: ContactNetwork, source: int,
                   copies: list[tuple[np.ndarray, np.ndarray, int]]
                   ) -> tuple[list[np.ndarray], int]:
    """Ascending minimal min-cut source side of each flow copy of ``network``.

    A copy is ``(arcs, sinks, cap)``. Its vertices are the network's, its
    source is ``source``, and its arcs are the edge arcs that ``arcs``
    names, ascending indices into the network's cached :func:`_arcs`,
    each of capacity ``_SCALE``, plus an arc of capacity ``cap`` from
    every vertex of ``sinks`` to a sink t. The list is cut into
    consecutive stacks of at most ``FLOW_CELLS`` vertices plus arcs, at
    least one copy each, and one max flow answers a stack.
    Its copies are stacked block-diagonally into one graph: copy i's
    vertices are offset by n i, every copy's sink arcs go to one shared
    super-sink T, and a super-source S feeds each copy's source through an
    arc of capacity 2^16 deg + 1, deg the source's out-arcs in the copy,
    which they cannot saturate.
    One max flow from S to T is then a max flow of every copy; T is
    unreachable from S in the residual network, so the copies cannot
    affect each other, and a residual search from S reaches exactly the
    union of every copy's minimal min-cut side. Returns the sides, in list
    order, and the number of max-flow calls. Raises
    ``InstanceTooLargeError`` before building anything when a copy's flow
    value, 2^16 times its source degree, would overflow int32.
    """
    from scipy import sparse

    n = network.n
    all_tails, all_heads, _, starts, _, _ = _arcs(network)

    def kept(arcs: np.ndarray, offset: int) -> tuple[np.ndarray, np.ndarray]:
        """The tails and heads of a copy's arcs, shifted by ``offset``. As many
        ascending indices as there are arcs name every arc, and such a copy
        reads the cached arrays with no gather."""
        if len(arcs) == len(all_tails):
            return all_tails + offset, all_heads + offset
        return all_tails[arcs] + offset, all_heads[arcs] + offset

    lo, hi = starts[source], starts[source + 1]
    # the source's arcs are lo:hi, so a copy keeps those of its arcs in that range
    degrees = [int(np.searchsorted(arcs, hi) - np.searchsorted(arcs, lo)) for arcs, _, _ in copies]
    for degree in degrees:
        if _SCALE * degree > np.iinfo(np.int32).max:
            raise InstanceTooLargeError(
                f"flow source {source} has degree {degree}; the int32 flow network "
                f"(capacity unit 2^16) needs source degree below 2^15 = 32768"
            )
    # ends[k]: the vertices plus arcs of the first k copies
    ends = np.cumsum([0] + [n + len(arcs) + len(sinks) for arcs, sinks, _ in copies])
    sides: list[np.ndarray] = []
    calls = 0
    while len(sides) < len(copies):
        start = len(sides)
        stop = max(start + 1, int(np.searchsorted(ends, ends[start] + FLOW_CELLS, "right")) - 1)
        stack = copies[start:stop]
        offsets = n * np.arange(len(stack) + 1)
        t = offsets[-1]
        s_super = t + 1
        size = t + 2
        # the edge arcs, the sink arcs, then the arcs out of S: a row built in
        # this order lists its heads in ascending order, as CSR keeps them
        edges = [kept(arcs, off) for (arcs, _, _), off in zip(stack, offsets)]
        tails = np.concatenate([arc_tails for arc_tails, _ in edges]
                               + [sinks + off for (_, sinks, _), off in zip(stack, offsets)]
                               + [np.full(len(stack), s_super)])
        heads = np.concatenate([arc_heads for _, arc_heads in edges]
                               + [np.full(len(sinks), t) for _, sinks, _ in stack]
                               + [source + offsets[:-1]])
        edge_arcs = sum(len(arcs) for arcs, _, _ in stack)
        # S's arcs carry more than the source's out-arcs can: never saturated
        arc_caps = np.concatenate([np.full(edge_arcs, _SCALE),
                                   np.repeat([cap for _, _, cap in stack],
                                             [len(sinks) for _, sinks, _ in stack]),
                                   _SCALE * np.array(degrees[start:stop]) + 1]).astype(np.int32)
        capacity = sparse.csr_matrix((arc_caps, (tails, heads)), shape=(size, size))
        del edges, tails, heads, arc_caps  # free them before the max flow's own arrays
        # maximum_flow may rewrite its input in place: hand it a copy
        flow = maximum_flow(capacity.copy(), s_super, t).flow
        calls += 1
        # the residual network: arcs below capacity, reverse arcs of a positive flow
        residual = (capacity - flow) > 0
        reached = np.sort(breadth_first_order(residual, s_super, return_predecessors=False))
        reached = reached[reached < t]
        parts = np.split(reached, np.searchsorted(reached, offsets[1:-1]))
        sides += [part - off for part, off in zip(parts, offsets)]
    return sides, calls


def _edge_connectivity(network: ContactNetwork) -> tuple[float, int]:
    """Edge connectivity of a unit-cost network by max flows from a
    minimum-degree vertex: 0.0 when it is disconnected, +inf for one vertex.

    Self-loops are ignored. Let δ be the minimum degree over non-loop edges
    and v the smallest-id vertex of degree δ. Then the connectivity is
    min(δ, λ(v, w) over every w outside v's closed neighbourhood)
    (Esfahanian and Hakimi, 1984): in a simple graph a side of k <= δ
    vertices has at least k(δ - k + 1) >= δ boundary edges, so a cut below
    δ leaves at least δ + 1 vertices on the side without v, more than v's δ
    neighbours. A complete graph therefore needs no flow, and neither does
    δ = 0 or, as one component-kernel call tells, a disconnected graph.
    Each λ(v, w) is the boundary of the minimal source side of a flow copy
    on every arc whose one sink arc, from w, carries 2^16 δ + 1, more than
    v's arcs do, and so is never the cut; :func:`_minimal_sides` answers
    every target's copy, in ascending id. Returns the connectivity and the
    number of max-flow calls.
    """
    n = network.n
    if n <= 1:
        return math.inf, 0
    _, heads, _, starts, _, _ = _arcs(network)
    degree = np.diff(starts)
    v = int(np.argmin(degree))
    best = int(degree[v])
    outside = np.ones(n, dtype=bool)
    outside[v] = False
    outside[heads[starts[v]:starts[v + 1]]] = False
    targets = np.flatnonzero(outside)
    if not len(targets) or best == 0:
        return float(best), 0
    if source_component_sizes(network, np.ones((1, network.m), dtype=bool))[0] < n:
        return 0.0, 0
    every = np.arange(len(heads))
    sides, flow_calls = _minimal_sides(network, v, [(every, w, _SCALE * best + 1)
                                                    for w in targets[:, np.newaxis]])
    inside = np.zeros(n, dtype=bool)
    for side in sides:
        inside[:] = False
        inside[side] = True
        best = min(best, int(np.count_nonzero(inside[network.us] ^ inside[network.vs])))
    return float(best), flow_calls


@dataclass(frozen=True)
class RegimeReport:
    """Sparsification check for uniform-probability unit-cost networks.

    ``flow_calls`` counts the max-flow calls that found ``c_min``: 0 on a
    complete graph, where every vertex neighbours the minimum-degree one,
    and 0 on a disconnected graph, where ``c_min`` is 0.
    """

    epsilon: float
    in_regime: bool
    c_min: float
    threshold: float  # 9 ln n
    flow_calls: int


def sparsification_regime(network: ContactNetwork, p: float, d: float = 1.0) -> RegimeReport:
    """Cut-sampling concentration parameters for a uniform probability p.

    epsilon = sqrt(3 (d+2) ln n / (c_min p)); the high-probability regime
    holds when c_min * p >= 9 ln n. Requires n >= 2, unit edge costs,
    p on every non-loop edge (self-loops are inert), and p > 0 (the
    epsilon formula divides by p). c_min is the global minimum cut, found
    by max flows from a minimum-degree vertex to its non-neighbours only
    (:func:`_edge_connectivity`), so a dense graph needs few flows or none.
    """
    if network.n < 2:
        raise ValidationError("regime check needs at least two vertices")
    if not 0.0 < p <= 1.0:
        raise ValidationError(f"uniform probability must be in (0, 1], got {p}")
    if not 0.0 < d < math.inf:
        raise ValidationError(f"d must be a finite number above 0, got {d}")
    if network.m and not np.all(network.costs == 1.0):
        raise ValidationError("regime check requires unit edge costs")
    if not np.all(network.probs[network.us != network.vs] == p):
        raise ValidationError("network probabilities disagree with the uniform p")
    c_min, flow_calls = _edge_connectivity(network)
    ln_n = math.log(network.n)
    if c_min == 0.0:
        return RegimeReport(math.inf, False, 0.0, 9.0 * ln_n, flow_calls)
    eps = math.sqrt(3.0 * (d + 2.0) * ln_n / (c_min * p))
    return RegimeReport(eps, c_min * p >= 9.0 * ln_n, c_min, 9.0 * ln_n, flow_calls)
