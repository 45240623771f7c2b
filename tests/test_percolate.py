import math
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epictrl import (
    InstanceTooLargeError,
    ValidationError,
    edge_removal,
    empirical_infections,
    estimate_infections,
    exact_expected_infections,
    sample_subgraph,
)
from epictrl.percolate import (
    MASK_TABLE_CAP,
    PercolationSample,
    component_sizes,
    infection_table,
    sample_keep_matrix,
)

from epictrl import network as network_module
from epictrl.network import component_of, node_removal, removal_edge_keep

from conftest import complete_network, make_network, path_network, star_network, \
    triangle_network, random_connected_network, union_find_component, union_find_sizes


# ------------------------------------------------------------- sampling

def test_deterministic_edges():
    sure = path_network(p=1.0)
    assert sample_subgraph(sure, 1, 0).kept_edges == (0, 1)
    never = path_network(p=0.0)
    assert sample_subgraph(never, 1, 0).kept_edges == ()


def test_sample_reproducible_and_batch_invariant():
    net = random_connected_network(np.random.default_rng(5), max_m=9, p_mode=0.37)
    a = sample_subgraph(net, seed=42, index=6)
    b = sample_subgraph(net, seed=42, index=6)
    assert a == b
    full = sample_keep_matrix(net, 42, 0, 10)
    offset = sample_keep_matrix(net, 42, 6, 1)
    assert np.array_equal(full[6], offset[0])
    assert tuple(np.flatnonzero(full[6])) == a.kept_edges


def test_sample_mean_kept_count_binomial():
    net = make_network(11, [(i, i + 1) for i in range(10)], probs=0.5)
    keep = sample_keep_matrix(net, 7, 0, 10_000)
    mean = keep.sum(axis=1).mean()
    sigma = math.sqrt(10 * 0.25 / 10_000)
    assert abs(mean - 5.0) <= 4 * sigma


def test_uniform_block_positions_are_stable():
    from epictrl import rng as streams

    m = 7
    full = streams.uniform_block(31, 0, 20, m)
    # any (start, count) slice reads the same positions
    assert np.array_equal(streams.uniform_block(31, 5, 3, m), full[5:8])
    # a different purpose path gives an unrelated stream
    other = streams.uniform_block(31, 0, 20, m, "eval")
    assert not np.array_equal(full, other)


# ------------------------------------------------------------- estimation

def test_estimate_path_matches_enumeration():
    net = path_network(p=0.5)
    est = estimate_infections(net, None, 40_000, seed=3)
    sigma = est.half_width / 2.5758293035489004
    assert abs(est.mean - 1.75) <= 4 * sigma


def test_estimate_isolated_source_exact_one():
    net = star_network(3, p=0.5)
    est = estimate_infections(net, edge_removal(net, [0, 1, 2]), 500, seed=0)
    assert est.mean == 1.0 and est.half_width == 0.0


def test_estimate_full_graph_p_one():
    net = star_network(4, p=1.0)
    est = estimate_infections(net, None, 100, seed=0)
    assert est.mean == 5.0 and est.half_width == 0.0


def test_estimate_at_least_one():
    net = triangle_network(p=0.02)
    est = estimate_infections(net, None, 2000, seed=9)
    assert est.mean >= 1.0


def test_estimate_rejects_zero_samples():
    with pytest.raises(ValidationError):
        estimate_infections(path_network(), None, 0, seed=0)


# ------------------------------------------------------------- exact oracle

def test_exact_path():
    assert exact_expected_infections(path_network(p=0.5)).mean == pytest.approx(1.75)


def test_exact_triangle_hand_enumeration():
    # 8 patterns at p=1/2: sizes 1,2,2,1,3,3,3,3 -> 18/8
    got = exact_expected_infections(triangle_network(p=0.5))
    assert got.mean == pytest.approx(18 / 8)
    assert got.exact and got.half_width == 0.0


def test_exact_disconnected_source():
    net = path_network(p=0.5)
    assert exact_expected_infections(net, edge_removal(net, [0])).mean == 1.0


def test_exact_folds_deterministic_edges():
    # 24 edges total but only 2 random: stays under the enumeration cap
    edges = [(i, i + 1) for i in range(24)]
    probs = [1.0] * 10 + [0.5, 0.5] + [0.0] * 12
    net = make_network(25, edges, probs=probs)
    got = exact_expected_infections(net)
    # source reaches 10 surely, then edge 10 w.p. .5, then edge 11 w.p. .25
    assert got.mean == pytest.approx(11 + 0.5 + 0.25)


def test_exact_cap_on_random_edges():
    edges = [(i, i + 1) for i in range(23)]
    net = make_network(24, edges, probs=0.5)
    with pytest.raises(InstanceTooLargeError):
        exact_expected_infections(net)


def test_exact_vs_union_find_path_agree(rng):
    # same expectations whether sizes come from the mask table or union-find
    for _ in range(5):
        net = random_connected_network(rng, n_lo=4, n_hi=6, max_m=9)
        keep = sample_keep_matrix(net, 11, 0, 64)
        via_table = component_sizes(net, keep, None)
        via_uf = union_find_sizes(net, keep)
        assert np.array_equal(via_table, via_uf)


def test_estimate_within_4sigma_of_exact(rng):
    for _ in range(5):
        net = random_connected_network(rng, n_lo=3, n_hi=7, max_m=10)
        exact = exact_expected_infections(net).mean
        est = estimate_infections(net, None, 20_000, seed=int(rng.integers(1 << 30)))
        sigma = est.half_width / 2.5758293035489004
        assert abs(est.mean - exact) <= 4 * max(sigma, 1e-12)


# ------------------------------------------------------------- empirical

def test_empirical_all_empty_samples():
    net = path_network(p=0.5)
    samples = [PercolationSample((), j, 0) for j in range(3)]
    assert empirical_infections(samples, net) == 1.0


def test_empirical_single_full_sample():
    net = star_network(3, p=1.0)
    assert empirical_infections([sample_subgraph(net, 0, 0)], net) == 4.0


def test_empirical_two_fixed_samples():
    net = path_network(p=0.5)
    samples = [PercolationSample((0,), 0, 0), PercolationSample((0, 1), 1, 0)]
    assert empirical_infections(samples, net) == pytest.approx(2.5)


def test_empirical_rejects_empty_list():
    with pytest.raises(ValidationError):
        empirical_infections([], path_network())


def test_empirical_rejects_foreign_samples():
    net = path_network()
    with pytest.raises(ValidationError):
        empirical_infections([PercolationSample((5,), 0, 0)], net)


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_empirical_monotone_under_superset_removal(data):
    net = make_network(5, [(0, 1), (0, 2), (1, 3), (2, 4), (3, 4)], probs=0.6)
    keep = sample_keep_matrix(net, 99, 0, 30)
    small = data.draw(st.sets(st.integers(0, net.m - 1), max_size=3))
    extra = data.draw(st.sets(st.integers(0, net.m - 1), max_size=2))
    f_small = edge_removal(net, small)
    f_big = edge_removal(net, small | extra)
    h_small = empirical_infections(keep, net, f_small)
    h_big = empirical_infections(keep, net, f_big)
    assert h_big <= h_small


def test_infection_table_matches_component_walks():
    net = make_network(4, [(0, 1), (1, 2), (2, 3), (0, 3)], probs=0.5)
    table = infection_table(net)
    # spot patterns against direct reasoning
    assert table[0b0000] == 1          # nothing kept
    assert table[0b0001] == 2          # only edge (0,1)
    assert table[0b1111] == 4          # everything kept
    assert table[0b1001] == 3          # (0,1) and (0,3)
    # exhaustive cross-check against the generic component walk
    for mask in range(1 << net.m):
        keep = np.array([(mask >> e) & 1 == 1 for e in range(net.m)])
        assert table[mask] == union_find_sizes(net, keep[np.newaxis, :])[0]


@st.composite
def kernel_cases(draw):
    """A random graph (self-loops allowed), kept-edge rows and a removal."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u, n)]
    m = draw(st.integers(0, min(len(pairs), MASK_TABLE_CAP + 6)))
    edges = draw(st.permutations(pairs))[:m]
    net = make_network(n, edges, probs=0.5, source=draw(st.integers(0, n - 1)))
    rows = draw(st.integers(0, 40))
    density = draw(st.sampled_from([0.0, 0.3, 0.7, 1.0]))
    keep = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((rows, m)) < density
    kind = draw(st.sampled_from(["none", "edge", "node"]))
    if kind == "edge":
        removed = edge_removal(net, draw(st.sets(st.integers(0, max(m - 1, 0)), max_size=m)))
    elif kind == "node":
        others = [v for v in range(n) if v != net.source]
        removed = node_removal(net, draw(st.sets(st.sampled_from(others), max_size=3))
                               if others else [])
    else:
        removed = None
    return net, keep, removed, draw(st.integers(1, 200))


@settings(max_examples=150, deadline=None)
@given(case=kernel_cases())
@example(case=(make_network(3, []), np.zeros((5, 0), dtype=bool), None, 1))
@example(case=(path_network(), np.zeros((0, 2), dtype=bool), None, 1))
@example(case=(make_network(4, [(0, 0), (1, 2), (2, 3)]), np.ones((4, 3), dtype=bool), None, 7))
@example(case=(complete_network(7), np.ones((9, 21), dtype=bool),
               edge_removal(complete_network(7), [0, 1]), 60))
def test_component_kernel_matches_union_find(case):
    net, keep, removed, cells = case
    effective = keep & removal_edge_keep(net, removed)
    expected = union_find_sizes(net, effective)
    # the mask table (m <= 16) or the kernel (m > 16) behind component_sizes
    assert np.array_equal(component_sizes(net, keep, removed), expected)
    # small blocks: many per batch, the last one usually partial
    with mock.patch.object(network_module, "CELLS", cells):
        assert np.array_equal(network_module.source_component_sizes(net, effective), expected)
        for row, kept in zip(keep[:3], effective):
            rep = component_of(net, removed, edge_mask=row)
            members = union_find_component(net, kept)
            assert rep.members == members
            inside = np.isin(net.us, members) != np.isin(net.vs, members)
            assert rep.boundary == tuple(np.flatnonzero(inside))


def test_estimate_order_insensitive_totals():
    # integer accumulation: two different batch splits give identical means
    net = triangle_network(p=0.3)
    a = estimate_infections(net, None, 3000, seed=5)
    b = estimate_infections(net, None, 3000, seed=5)
    assert a.mean == b.mean and a.half_width == b.half_width
