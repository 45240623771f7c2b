import dataclasses
import itertools
import math
import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epictrl import (
    InstanceTooLargeError,
    ParseError,
    ValidationError,
    component_of,
    edge_removal,
    exact_expected_infections,
    load_network,
    merge_seeds,
    node_removal,
    sparsification_regime,
)
from epictrl import network as network_module
from epictrl.network import ContactNetwork, _edge_connectivity, boundary_of

from conftest import (
    complete_network,
    make_network,
    path_network,
    star_network,
    random_connected_network,
    stoer_wagner_min_cut,
    union_find_component,
)


# ---------------------------------------------------------------- loading

def write(tmp_path, text, name="g.tsv"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_basic(tmp_path):
    p = write(tmp_path, "@source s\ns a 1.0 0.5\na b 1.0 0.5\n")
    net = load_network(p)
    assert net.n == 3 and net.m == 2
    assert net.labels == ("s", "a", "b")
    assert net.source == 0
    assert net.probs.tolist() == [0.5, 0.5]


def test_load_comments_and_scientific(tmp_path):
    p = write(tmp_path, "# header\n@source a\na b 1e0 5e-1  # trailing\n\n")
    net = load_network(p)
    assert net.m == 1 and net.probs[0] == 0.5 and net.costs[0] == 1.0


def test_load_probability_out_of_range(tmp_path):
    p = write(tmp_path, "@source a\na b 1.0 1.3\n")
    with pytest.raises(ParseError, match="probability"):
        load_network(p)


def test_load_negative_cost(tmp_path):
    p = write(tmp_path, "@source a\na b -2 0.5\n")
    with pytest.raises(ParseError, match="negative cost"):
        load_network(p)


@pytest.mark.parametrize("entry", ["api", "file"])
@pytest.mark.parametrize("field", ["prob", "cost"])
def test_nan_probability_or_cost_is_rejected(tmp_path, entry, field):
    """NaN passes every check written as ``< 0`` or ``> 1``; it is refused,
    naming the edge (API) or the line (file). An infinite cost stays legal:
    it marks an edge that cannot be removed."""
    def build(cost, prob):
        if entry == "api":
            return ContactNetwork(n=3, us=np.array([0, 1]), vs=np.array([1, 2]),
                                  costs=np.array([1.0, cost]), probs=np.array([0.5, prob]),
                                  source=0)
        return load_network(write(tmp_path, f"@source a\na b 1.0 0.5\nb c {cost} {prob}\n"))

    cost, prob = (1.0, math.nan) if field == "prob" else (math.nan, 0.5)
    message = "probability nan outside" if field == "prob" else "negative cost or NaN: nan"
    where = "edge 1: " if entry == "api" else ":3: "
    with pytest.raises(ValidationError, match=re.escape(where + message)):
        build(cost, prob)
    assert build(math.inf, 0.5).costs[1] == math.inf


def test_load_duplicate_edge_either_orientation(tmp_path):
    p = write(tmp_path, "@source a\na b 1 0.5\nb a 1 0.5\n")
    with pytest.raises(ParseError, match="duplicate"):
        load_network(p)


def test_load_missing_source(tmp_path):
    p = write(tmp_path, "a b 1 0.5\n")
    with pytest.raises(ParseError, match="missing @source"):
        load_network(p)


def test_load_unknown_source(tmp_path):
    p = write(tmp_path, "@source zz\na b 1 0.5\n")
    with pytest.raises(ParseError, match="unknown source"):
        load_network(p)


def test_load_bad_field_count_reports_line(tmp_path):
    p = write(tmp_path, "@source a\na b 1 0.5\na c 1\n")
    with pytest.raises(ParseError, match=":3"):
        load_network(p)


def test_load_seeds_applies_merge(tmp_path):
    p = write(tmp_path, "@seeds a b\na b 1 0.5\nb c 1 0.5\n")
    net = load_network(p)
    assert net.n == 4  # a, b, c plus the meta-source
    assert net.source == 3
    meta_edges = [e for e in range(net.m) if not np.isfinite(net.costs[e])]
    assert len(meta_edges) == 2
    assert all(net.probs[e] == 1.0 for e in meta_edges)


def test_self_loop_flagged_and_inert(tmp_path):
    p = write(tmp_path, "@source a\na a 1 1.0\na b 1 1.0\n")
    net = load_network(p)
    assert net.self_loops == (0,)
    assert component_of(net).size == 2


# ------------------------------------------------------------- merge_seeds

def test_merge_seeds_two_seeds():
    net = make_network(4, [(0, 1), (1, 2), (2, 3)], probs=0.5)
    merged = merge_seeds(net, [0, 1])
    assert merged.n == 5 and merged.m == 5
    new = [e for e in range(merged.m) if merged.us[e] == 4 or merged.vs[e] == 4]
    assert len(new) == 2
    assert all(merged.probs[e] == 1.0 for e in new)
    assert all(math.isinf(merged.costs[e]) for e in new)
    # original untouched
    assert net.n == 4 and net.m == 3


def test_merge_seeds_single_seed_equivalence():
    net = make_network(4, [(0, 1), (1, 2), (2, 3)], probs=0.6, source=1)
    merged = merge_seeds(net, [1])
    direct = exact_expected_infections(net).mean
    via_meta = exact_expected_infections(merged).mean
    assert via_meta == pytest.approx(direct + 1.0, abs=1e-12)


def test_merge_seeds_empty_error():
    net = path_network()
    with pytest.raises(ValidationError, match="empty"):
        merge_seeds(net, [])


def test_merge_members_match_union_of_components():
    # two components: 0-1 and 2-3; seeds one from each
    net = make_network(5, [(0, 1), (2, 3)], probs=1.0)
    merged = merge_seeds(net, [0, 2])
    rep = component_of(merged)
    assert set(rep.members) - {merged.source} == {0, 1, 2, 3}


# ------------------------------------------------------------ component_of

def test_component_source_isolated():
    rep = component_of(path_network(), edge_removal(path_network(), [0]))
    assert rep.size == 1 and rep.members == (0,)


def test_component_star_two_removed():
    net = star_network(4)
    rep = component_of(net, edge_removal(net, [0, 1]))
    assert rep.size == 3


def test_component_node_removal_cuts_path():
    net = path_network()
    rep = component_of(net, node_removal(net, [1]))
    assert rep.size == 1


def test_component_boundary_edges():
    net = star_network(3)
    rep = component_of(net, edge_removal(net, [0]))
    assert rep.members == (0, 2, 3)
    assert rep.boundary == (0,)  # the removed star edge now crosses


def test_component_edge_mask_applies_before_removal():
    net = path_network()
    mask = np.array([True, False])
    rep = component_of(net, None, edge_mask=mask)
    assert rep.members == (0, 1)


def test_component_monotone_under_superset_removal(rng):
    net = random_connected_network(rng, max_m=10)
    ids = list(range(net.m))
    for trial in range(20):
        k = int(rng.integers(0, net.m))
        f_small = sorted(rng.choice(ids, size=k, replace=False).tolist())
        extra = [e for e in ids if e not in f_small]
        f_big = f_small + list(rng.choice(extra, size=min(2, len(extra)), replace=False))
        small = component_of(net, edge_removal(net, f_small)).size
        big = component_of(net, edge_removal(net, f_big)).size
        assert big <= small


def test_node_removal_rejects_source():
    net = path_network()
    with pytest.raises(ValidationError, match="source"):
        node_removal(net, [0])


def test_intervention_cost_recomputed():
    net = make_network(3, [(0, 1), (1, 2)], costs=[2.0, 3.5])
    assert edge_removal(net, [0, 1]).cost == 5.5
    assert node_removal(net, [1, 2]).cost == 2.0


# ------------------------------------------------------------ min cut

def brute_force_min_cut(net):
    best = math.inf
    verts = list(range(net.n))
    for r in range(1, net.n):
        for side in itertools.combinations(verts[1:], r - 1):
            inside = {0, *side}
            cut = sum(
                net.costs[e]
                for e in range(net.m)
                if (net.us[e] in inside) != (net.vs[e] in inside)
            )
            best = min(best, cut)
    return best


def test_min_cut_k4_unit():
    assert _edge_connectivity(complete_network(4))[0] == 3.0
    assert brute_force_min_cut(complete_network(4)) == 3.0


def test_min_cut_path_is_bridge():
    assert _edge_connectivity(path_network())[0] == 1.0


def test_min_cut_disconnected_zero():
    net = make_network(4, [(0, 1), (2, 3)])
    assert _edge_connectivity(net)[0] == 0.0


def test_min_cut_matches_brute_force_on_random_weighted(rng):
    # _edge_connectivity takes unit costs only, so the random graphs carry them
    for _ in range(15):
        net = random_connected_network(rng, n_lo=4, n_hi=7, max_m=12)
        assert _edge_connectivity(net)[0] == brute_force_min_cut(net) == stoer_wagner_min_cut(net)


def test_min_cut_rejects_non_unit_costs():
    # _edge_connectivity trusts its caller for unit costs: the regime check
    # refuses any other cost before a single max flow is run
    for edges, costs in (([(0, 1), (1, 2)], [1.0, 2.0]),
                         ([(0, 1), (1, 2)], [1.0, 0.0]),
                         ([(0, 1), (1, 2)], [1.0, math.inf]),
                         ([(0, 1), (1, 1)], [1.0, 0.5])):
        net = make_network(3, edges, probs=0.5, costs=costs)
        with mock.patch.object(network_module, "_edge_connectivity",
                               wraps=_edge_connectivity) as cut, \
             pytest.raises(ValidationError, match="unit"):
            sparsification_regime(net, 0.5)
        cut.assert_not_called()
    # the unit-cost twin of the first case does reach the min cut
    with mock.patch.object(network_module, "_edge_connectivity",
                           wraps=_edge_connectivity) as cut:
        assert sparsification_regime(make_network(3, [(0, 1), (1, 2)], probs=0.5), 0.5).c_min == 1.0
    cut.assert_called_once()


GRAPH_KINDS = ("random", "complete", "path", "cycle", "cliques")


@st.composite
def unit_graphs(draw, kind=None):
    """A unit-cost graph on at most 10 vertices.

    A random edge set, a complete graph, a path, a cycle or two cliques
    joined by k < δ edges (the connectivity is then k, below the minimum
    degree δ), then padded with isolated vertices, given self-loops and
    relabelled at random. ``kind`` picks one of ``GRAPH_KINDS``; None draws
    it.
    """
    if kind is None:
        kind = draw(st.sampled_from(GRAPH_KINDS))
    if kind == "cliques":
        a = draw(st.integers(3, 5))
        b = draw(st.integers(3, 10 - a))
        k = draw(st.integers(0, min(a, b) - 2))
        cross = [(u, a + v) for u in range(a) for v in range(b)]
        edges = (list(itertools.combinations(range(a), 2))
                 + [(a + u, a + v) for u, v in itertools.combinations(range(b), 2)]
                 + draw(st.permutations(cross))[:k])
        n = a + b
    else:
        n = draw(st.integers(3 if kind == "cycle" else 1, 10))
        if kind == "random":
            pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
            edges = draw(st.permutations(pairs))[:draw(st.integers(0, len(pairs)))]
        elif kind == "complete":
            edges = list(itertools.combinations(range(n), 2))
        else:
            edges = [(v, v + 1) for v in range(n - 1)] + ([(0, n - 1)] if kind == "cycle" else [])
    n += draw(st.integers(0, 10 - n))  # isolated vertices
    edges += [(v, v) for v in draw(st.sets(st.integers(0, n - 1)))]
    perm = draw(st.permutations(range(n)))
    return make_network(n, [(perm[u], perm[v]) for u, v in edges])


ORACLE_EXAMPLES = (
    make_network(2, [(0, 1), (0, 0), (1, 1)]),            # every vertex looped
    make_network(3, [(0, 1), (1, 2), (0, 0), (2, 2)]),
    make_network(4, [(0, 1), (2, 3), (0, 0)]),            # disconnected pieces
    make_network(3, [(0, 1), (1, 1)]),                     # isolated vertex
    make_network(1, [(0, 0)]),
    # two K5 joined by one edge: the non-neighbours of vertex 0 find the bridge
    make_network(10, list(itertools.combinations(range(5), 2))
                 + list(itertools.combinations(range(5, 10), 2)) + [(4, 5)]),
    # two K4 joined by two edges; a tie for the minimum degree
    make_network(8, list(itertools.combinations(range(4), 2))
                 + list(itertools.combinations(range(4, 8), 2)) + [(3, 4), (2, 5)]),
    # two triangles: disconnected at minimum degree 2
    make_network(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)]),
)


def _with_examples(**extra):
    def decorate(test):
        for net in ORACLE_EXAMPLES:
            test = example(net=net, **extra)(test)
        return test
    return decorate


@settings(max_examples=120, deadline=None)
@given(net=unit_graphs())
@_with_examples()
def test_min_cut_matches_both_oracles(net):
    expected = brute_force_min_cut(net)
    assert stoer_wagner_min_cut(net) == expected
    assert _edge_connectivity(net)[0] == expected


@settings(max_examples=60, deadline=None)
@given(net=unit_graphs(), cells=st.integers(1, 60))
@_with_examples(cells=1)
def test_min_cut_matches_both_oracles_with_targets_split(net, cells):
    """The same answer when a flow call holds only a few target copies."""
    with mock.patch.object(network_module, "FLOW_CELLS", cells):
        cut = _edge_connectivity(net)[0]
    assert cut == brute_force_min_cut(net) == stoer_wagner_min_cut(net)


@settings(max_examples=60, deadline=None)
@given(net=unit_graphs())
@_with_examples()
def test_min_cut_flows_to_non_neighbours_of_min_degree_vertex(net):
    """With one copy per call, a flow goes to each vertex outside the closed
    neighbourhood of the smallest-id minimum-degree vertex of a connected
    graph; a minimum degree of 0 needs none, and nor does a disconnected
    graph."""
    if net.n < 2:
        return
    degree = [0] * net.n
    neighbours = [set() for _ in range(net.n)]
    for u, v in zip(net.us.tolist(), net.vs.tolist()):
        if u != v:
            degree[u] += 1
            degree[v] += 1
            neighbours[u].add(v)
            neighbours[v].add(u)
    v = min(range(net.n), key=lambda x: (degree[x], x))
    targets = [w for w in range(net.n) if w != v and w not in neighbours[v]]
    rooted = dataclasses.replace(net, source=v)
    reached = set(union_find_component(rooted, np.ones(net.m, dtype=bool)))
    connected = len(reached) == net.n
    expected = len(targets) if degree[v] and connected else 0
    with mock.patch.object(network_module, "FLOW_CELLS", 1):
        assert sparsification_regime(net, 1.0).flow_calls == expected


def test_min_cut_memory_stays_linear_on_sparse_graph():
    """No n x n matrix: on a random tree of 1500 vertices the cut peaks far
    below the 8 n^2 = 18 MB of a dense cost matrix (about 2.5 MB measured)."""
    n = 1500
    gen = np.random.default_rng(5)
    net = make_network(n, [(int(gen.integers(0, v)), v) for v in range(1, n)])
    tracemalloc.start()
    try:
        cut = _edge_connectivity(net)[0]
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert cut == 1.0
    assert peak < 2 * n * n


def test_min_cut_exact_when_stacked_flow_exceeds_int32():
    """Every target copy keeps its exact side when the stack's total flow
    passes 2^31 and each copy's flow does not.

    Two K_{8,8} joined by 3 edges: vertex 0 has the minimum degree 8, and
    its 23 non-neighbours are 7 at connectivity 8 and 16 at connectivity 3.
    A real instance needs degree near 2^15 to get there, so the capacity
    unit is raised from 2^16 to 2^27: each copy then carries at most
    8 * 2^27 = 2^30, and the one stacked call 104 * 2^27 = 13 * 2^30.
    """
    edges = ([(u, 8 + v) for u in range(8) for v in range(8)]
             + [(16 + u, 24 + v) for u in range(8) for v in range(8)]
             + [(1, 17), (2, 18), (3, 19)])
    net = make_network(32, edges)
    targets = list(range(1, 8)) + list(range(16, 32))

    def sides():
        base = network_module._FlowNetwork(net, 0, [])
        sides, calls = network_module._minimal_sides([base.with_sinks([w]) for w in targets],
                                                     [base.source_cap] * len(targets))
        assert calls == 1
        return sides

    with mock.patch.object(network_module, "_SCALE", 1 << 27):
        wide = sides()
        regime = sparsification_regime(net, 1.0)
    for w, side, narrow in zip(targets, wide, sides()):
        assert 0 in side and w not in side
        assert len(boundary_of(net, side)) == (8 if w < 8 else 3)
        assert np.array_equal(side, narrow)
    assert (regime.c_min, regime.flow_calls) == (3.0, 1) == (stoer_wagner_min_cut(net), 1)


def test_flow_stacks_have_their_own_cell_budget():
    """A stack of flow copies over ``CELLS`` but within ``FLOW_CELLS``
    vertices plus arcs takes one max flow, not the two that the kernel's
    budget would cut it into: 39 copies of a 40-vertex, 600-edge graph,
    one per sink, hold 39 (40 + 1,200 + 1) = 48,399 cells. Each side is
    the one its copy gets alone."""
    net = random_connected_network(np.random.default_rng(2), n_lo=40, n_hi=40, max_m=600)
    base = network_module._FlowNetwork(net, 0, [])
    copies = [base.with_sinks([w]) for w in range(1, net.n)]
    cells = sum(c.n + len(c.tails) + len(c.sinks) for c in copies)
    assert network_module.CELLS < cells == 48399 <= network_module.FLOW_CELLS
    caps = [base.source_cap] * len(copies)
    sides, calls = network_module._minimal_sides(copies, caps)
    assert calls == 1
    with mock.patch.object(network_module, "FLOW_CELLS", 1):
        alone, alone_calls = network_module._minimal_sides(copies, caps)
    assert alone_calls == len(copies)
    for side, single in zip(sides, alone):
        assert np.array_equal(side, single)
    # at 2^27 a source of degree 16 would overflow int32 and is refused
    k16 = make_network(32, [(u, 16 + v) for u in range(16) for v in range(16)])
    with mock.patch.object(network_module, "_SCALE", 1 << 27), \
         pytest.raises(InstanceTooLargeError, match="degree 16"):
        _edge_connectivity(k16)


# ------------------------------------------------------------ component kernel

@pytest.mark.parametrize("kind", GRAPH_KINDS)
@settings(max_examples=20, deadline=None)
@given(data=st.data())
def test_component_kernel_matches_union_find_across_words(kind, data):
    """Sizes and members of 0, 1, 63, 64, 65 and 130 kept-edge rows, so
    blocks of no word, one partial word, one and two full words, a second
    word of one lane, and three words, against union-find, on each kind
    of graph and at any source."""
    net = data.draw(unit_graphs(kind))
    net = dataclasses.replace(net, source=data.draw(st.integers(0, net.n - 1)))
    density = data.draw(st.sampled_from([0.2, 0.5, 0.8, 1.0]))
    g = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
    for rows in (0, 1, 63, 64, 65, 130):
        keep = g.random((rows, net.m)) < density
        sizes = network_module.source_component_sizes(net, keep)
        members = network_module.source_component_members(net, keep)
        assert sizes.dtype == np.int64 and sizes.shape == (rows,)
        assert members.dtype == bool and members.shape == (rows, net.n)
        for size, row, kept in zip(sizes, members, keep):
            expected = union_find_component(net, kept)
            assert size == len(expected)
            assert tuple(np.flatnonzero(row)) == expected


def test_component_members_of_one_block_are_held_once():
    """Rows that fit one kernel block come back as the block's own (r, n)
    array, not copied into a second one: 64 rows of a 20-leaf star among
    4,000 vertices, one block, peak within 1.5 times the 256 kB result
    (about 2.25 times with the copy)."""
    n = 4000
    star = make_network(n, [(0, i) for i in range(1, 21)], probs=0.5)
    keep = np.random.default_rng(7).random((64, star.m)) < 0.5
    assert network_module.kernel_rows(star) >= len(keep)
    tracemalloc.start()
    try:
        members = network_module.source_component_members(star, keep)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert members.shape == (64, n)
    assert np.array_equal(members.sum(axis=1), 1 + keep.sum(axis=1))
    assert peak < 1.5 * members.nbytes, peak / members.nbytes


# ------------------------------------------------------------ regime check

def test_regime_formula_value():
    # c_min = 3 (K4), n = 4, p = 0.9, d = 1
    net = complete_network(4, p=0.9)
    rep = sparsification_regime(net, 0.9, d=1.0)
    expected = math.sqrt(3 * 3 * math.log(4) / (3 * 0.9))
    assert rep.epsilon == pytest.approx(expected, rel=1e-14)
    assert rep.in_regime == (3 * 0.9 >= 9 * math.log(4))
    assert not rep.in_regime


def test_regime_boundary_epsilon_one():
    # K40 with p chosen so that c_min * p = 9 ln n; with d=1 epsilon = 1 exactly
    n = 40
    p = 9 * math.log(n) / (n - 1)
    net = complete_network(n, p=p)
    rep = sparsification_regime(net, p, d=1.0)
    assert rep.epsilon == pytest.approx(1.0, rel=1e-12)
    assert rep.in_regime


def test_regime_monotonicity():
    n = 30
    base = complete_network(n, p=0.5)
    rep = sparsification_regime(base, 0.5, d=1.0)
    higher_d = sparsification_regime(base, 0.5, d=2.0)
    assert higher_d.epsilon > rep.epsilon
    higher_p = sparsification_regime(complete_network(n, p=0.9), 0.9, d=1.0)
    assert higher_p.epsilon < rep.epsilon
    smaller_cut = sparsification_regime(complete_network(10, p=0.5), 0.5, d=1.0)
    assert smaller_cut.epsilon > rep.epsilon  # c_min drops from 29 to 9


def test_regime_p_zero_rejected():
    with pytest.raises(ValidationError):
        sparsification_regime(complete_network(4, p=0.0), 0.0)


def test_regime_requires_uniform_probability():
    net = make_network(3, [(0, 1), (1, 2)], probs=[0.5, 0.6])
    with pytest.raises(ValidationError, match="uniform|disagree"):
        sparsification_regime(net, 0.5)
    # self-loops are inert: a p = 0 anchor loop does not break uniformity
    looped = make_network(4, [(0, 1), (1, 2), (3, 3)], probs=[0.5, 0.5, 0.0])
    assert sparsification_regime(looped, 0.5).c_min == 0.0
    looped = make_network(4, [(0, 1), (1, 2), (3, 3)], probs=[0.5, 0.6, 0.0])
    with pytest.raises(ValidationError, match="disagree"):
        sparsification_regime(looped, 0.5)


def test_regime_requires_unit_costs():
    for edges, costs in (([(0, 1), (1, 2)], [1.0, 2.0]),
                         ([(0, 1), (1, 2)], [1.0, 0.0]),
                         ([(0, 1), (1, 2)], [1.0, math.inf]),
                         ([(0, 1), (1, 1)], [1.0, 0.5])):
        net = make_network(3, edges, probs=0.5, costs=costs)
        with pytest.raises(ValidationError, match="unit"):
            sparsification_regime(net, 0.5)


# ------------------------------------------------------------ validation

def test_duplicate_edges_rejected_in_constructor():
    with pytest.raises(ValidationError, match="duplicate"):
        make_network(3, [(0, 1), (1, 0)])


def _first_duplicate_message(edges):
    """Reference: the per-edge loop the constructor's check must agree with."""
    us = np.array([e[0] for e in edges], dtype=np.int64)
    vs = np.array([e[1] for e in edges], dtype=np.int64)
    seen = set()
    for e in range(len(us)):
        key = (min(us[e], vs[e]), max(us[e], vs[e]))
        if key in seen:
            return f"duplicate undirected edge {key}"
        seen.add(key)
    return None


@pytest.mark.parametrize("edges", [
    [(0, 1), (2, 3), (3, 2), (1, 0)],
    [(4, 4), (1, 2), (4, 4), (2, 1)],
    [(1, 2), (3, 3), (0, 1), (3, 3), (2, 1), (1, 0)],
    [(3, 0), (2, 4), (0, 3), (4, 2), (4, 4), (4, 4)],
    [(0, 0), (1, 1), (0, 4), (1, 1), (4, 0), (0, 0)],
])
def test_duplicate_edge_reports_first_repeated_pair(edges):
    expected = _first_duplicate_message(edges)
    with pytest.raises(ValidationError) as err:
        make_network(5, edges)
    assert str(err.value) == expected


def test_boundary_of_matches_definition(rng):
    net = random_connected_network(rng)
    members = [0] + [v for v in range(1, net.n) if rng.random() < 0.4]
    expected = tuple(
        e for e in range(net.m)
        if (net.us[e] in members) != (net.vs[e] in members)
    )
    assert boundary_of(net, members) == expected


def test_kernel_transient_memory_per_edge():
    """Sizing 1 and 8 rows of a 16,000-leaf star, one block each, peaks
    below 120 and 150 bytes per edge (about 107 and 137): each edge's lanes
    are padded to whole bytes, not to 64 bool lanes (about 171 and 201)."""
    star = star_network(16000, p=0.5)
    network_module._arcs(star)  # the cached arcs are the network's, not the call's
    for rows, limit in ((1, 120), (8, 150)):
        keep = np.random.default_rng(rows).random((rows, star.m)) < 0.5
        assert network_module.kernel_rows(star) >= rows
        tracemalloc.start()
        try:
            sizes = network_module.source_component_sizes(star, keep)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert np.array_equal(sizes, 1 + keep.sum(axis=1))
        assert peak < limit * star.m, peak / star.m
