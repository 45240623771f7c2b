import itertools
import math

import numpy as np
import pytest

from epictrl import (
    ParseError,
    ValidationError,
    component_of,
    edge_removal,
    exact_expected_infections,
    global_min_cut,
    load_network,
    merge_seeds,
    node_removal,
    sparsification_regime,
)
from epictrl.network import boundary_of, removable_edges

from conftest import (
    complete_network,
    make_network,
    path_network,
    star_network,
    random_connected_network,
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


def test_removable_edges_excludes_meta():
    merged = merge_seeds(path_network(), [0])
    assert list(removable_edges(merged)) == [0, 1]


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
    assert global_min_cut(complete_network(4)) == 3.0
    assert brute_force_min_cut(complete_network(4)) == 3.0


def test_min_cut_path_is_bridge():
    assert global_min_cut(path_network()) == 1.0


def test_min_cut_disconnected_zero():
    net = make_network(4, [(0, 1), (2, 3)])
    assert global_min_cut(net) == 0.0


def test_min_cut_matches_brute_force_on_random_weighted(rng):
    for _ in range(15):
        net = random_connected_network(rng, n_lo=4, n_hi=7, max_m=12, unit_costs=False)
        assert global_min_cut(net) == pytest.approx(brute_force_min_cut(net), rel=1e-12)


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
    net = make_network(3, [(0, 1), (1, 2)], probs=0.5, costs=[1.0, 2.0])
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


def test_max_degree():
    assert star_network(4).max_degree == 4
    loopy = make_network(2, [(0, 0), (0, 1)])
    assert loopy.max_degree == 2  # loop counts once
