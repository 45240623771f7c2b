import dataclasses
import itertools
import math
import tracemalloc
from decimal import Decimal, localcontext
from fractions import Fraction
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
)
from epictrl.percolate import (
    MASK_TABLE_CAP,
    Z99,
    component_sizes,
    infection_table,
    mean_half_width,
    prepare_removal,
    sample_keep_matrix,
)

from epictrl import network as network_module
from epictrl import percolate as percolate_module
from epictrl.saa import draw_samples
from epictrl.network import (
    ContactNetwork,
    boundary_of,
    node_removal,
    removal_edge_keep,
)

from conftest import complete_network, kernel_cells, make_network, path_network, \
    recording_draws, star_network, triangle_network, random_connected_network, \
    union_find_component, union_find_sizes


# ------------------------------------------------------------- sampling

def test_deterministic_edges():
    sure = path_network(p=1.0)
    assert sample_keep_matrix(sure, 1, 0, 3).all()
    never = path_network(p=0.0)
    assert not sample_keep_matrix(never, 1, 0, 3).any()


def test_sample_reproducible_and_batch_invariant():
    net = random_connected_network(np.random.default_rng(5), max_m=9, p_mode=0.37)
    a = sample_keep_matrix(net, 42, 6, 1)
    b = sample_keep_matrix(net, 42, 6, 1)
    assert a.dtype == bool and a.shape == (1, net.m)
    assert np.array_equal(a, b)
    full = sample_keep_matrix(net, 42, 0, 10)
    assert np.array_equal(full[6], a[0])
    assert not np.array_equal(full, sample_keep_matrix(net, 43, 0, 10))
    # the uniforms of 1, 3 or 4 rows at a time give the same rows
    for rows in (1, 3, 4):
        with mock.patch.object(percolate_module, "CELLS", rows * net.m):
            assert np.array_equal(sample_keep_matrix(net, 42, 0, 10), full)


def test_sample_mean_kept_count_binomial():
    net = make_network(11, [(i, i + 1) for i in range(10)], probs=0.5)
    keep = sample_keep_matrix(net, 7, 0, 10_000)
    mean = keep.sum(axis=1).mean()
    sigma = math.sqrt(10 * 0.25 / 10_000)
    assert abs(mean - 5.0) <= 4 * sigma


def test_sample_stream_positions_are_stable():
    from epictrl import rng as streams

    m = 7
    full = streams.sample_stream(31, 0, m).random((20, m))
    # any start reads the same positions
    assert np.array_equal(streams.sample_stream(31, 5, m).random((3, m)), full[5:8])
    # and so does any split of the rows into blocks drawn one after another
    stream = streams.sample_stream(31, 5, m)
    blocks = [stream.random((rows, m)) for rows in (1, 4, 2)]
    assert np.array_equal(np.concatenate(blocks), full[5:12])
    # a different purpose path gives an unrelated stream
    other = streams.sample_stream(31, 0, m, "eval").random((20, m))
    assert not np.array_equal(full, other)


def test_streams_are_those_of_philox_keyed_by_philox_key():
    """``generator`` is Philox keyed by ``philox_key``; ``sample_stream`` is
    PCG64DXSM on the same seed sequence, one position per double, at sample
    j of m edges after ``advance(j * m)``."""
    from epictrl import rng as streams

    for seed, path, encoded in ((0, (), ()), (31, ("eval",), (streams._encode("eval"),)),
                                (2**40, (3, "round"), (3, streams._encode("round")))):
        keyed = np.random.Philox(key=streams.philox_key(seed, *path))
        assert np.array_equal(streams.generator(seed, *path).random(9),
                              np.random.Generator(keyed).random(9))
        for j, m in ((0, 7), (5, 7), (3, 1), (11, 35)):
            bitgen = np.random.PCG64DXSM(np.random.SeedSequence(seed, spawn_key=encoded))
            bitgen.advance(j * m)
            assert np.array_equal(streams.sample_stream(seed, j, m, *path).random((3, m)),
                                  np.random.Generator(bitgen).random((3, m)))


@settings(max_examples=40, deadline=None)
@given(m=st.sampled_from([1, 3, 4, 5, 7, 35]), start=st.integers(0, 500),
       count=st.integers(1, 40), rows=st.integers(1, 3), seed=st.integers(0, 2**32))
def test_keep_matrix_is_one_reference_draw_in_any_chunks(m, start, count, rows, seed):
    """``sample_keep_matrix`` over samples start..start+count-1, its uniforms
    drawn 1-3 rows a chunk, is one reference draw of (start + count) m
    uniforms from the sample stream's seed sequence, reshaped to rows of m
    and compared with the edges' probabilities: no padding, no gap between
    rows, and every m, a multiple of 4 or not."""
    probs = np.linspace(0.05, 0.95, m)
    net = make_network(m + 1, [(i, i + 1) for i in range(m)], probs=probs)
    bitgen = np.random.PCG64DXSM(np.random.SeedSequence(seed))
    uniforms = np.random.Generator(bitgen).random((start + count) * m).reshape(-1, m)
    with mock.patch.object(percolate_module, "CELLS", rows * m):
        keep = sample_keep_matrix(net, seed, start, count)
    assert np.array_equal(keep, uniforms[start:] < probs)


@pytest.mark.parametrize("entry", ["estimate", "estimate-edgeless", "draw", "samples",
                                   "solve-saa", "solve-karger", "generate", "paths"])
def test_negative_seed_is_a_validation_error(entry):
    """Every seeded entry point refuses a negative seed with
    ``ValidationError``, not numpy's ``ValueError``: an estimate that draws
    nothing too, and ``solve_karger`` before its regime check."""
    from epictrl import chunglu, saa, sbcc

    net = complete_network(5, p=0.5)
    model = chunglu.build_model(8, 2.5, 1, 2)
    calls = {
        "estimate": lambda: estimate_infections(net, None, 10, -1),
        "estimate-edgeless": lambda: estimate_infections(make_network(3, []), None, 10, -1),
        "draw": lambda: sample_keep_matrix(net, -1, 0, 3),
        "samples": lambda: draw_samples(net, 10, -1),
        "solve-saa": lambda: saa.solve_saa(net, 1.0, 0.3, num_samples=5, seed=-1),
        "solve-karger": lambda: sbcc.solve_karger(net, 1.0, 0.5, seed=-1),
        "generate": lambda: chunglu.generate(model, -1),
        "paths": lambda: chunglu.estimate_percolated_paths(model, 0.5, 3, 2, -1),
    }
    with mock.patch.object(sbcc, "sparsification_regime") as regime, \
         pytest.raises(ValidationError, match=r"^seed must be a nonnegative integer, got -1$"):
        calls[entry]()
    assert regime.call_count == 0


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

def test_mean_half_width_is_exact():
    """Within 1 ulp of Z99 sqrt(var / N) from the two-pass Fraction variance.

    Both samples cancel in the one-pass float formula sum(x^2) - N mean^2:
    it gave 0.0 on the first and was 3.6e-8 off, relatively, on the second.
    """
    for xs in ([2**27, 2**27 + 1], [1000] * 999 + [1001]):
        N, total, total_sq = len(xs), sum(xs), sum(x * x for x in xs)
        mean = Fraction(total, N)
        var_over_n = sum((x - mean) ** 2 for x in xs) / (N - 1) / N
        with localcontext() as ctx:
            ctx.prec = 50
            want = float(Decimal(Z99) * (Decimal(var_over_n.numerator)
                                         / Decimal(var_over_n.denominator)).sqrt())
        got_mean, got = mean_half_width(total, total_sq, N)
        assert got_mean == float(mean)
        assert abs(got - want) <= math.ulp(want), (xs[-1], got, want)
    assert mean_half_width(2**27, 2**54, 1) == (float(2**27), math.inf)


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
    with pytest.raises(InstanceTooLargeError, match="22 random edges.*got 23.*estimate_infections"):
        exact_expected_infections(net)


def test_exact_enumeration_runs_in_bounded_blocks():
    """A 3,000-edge path whose first 12 edges are random: its 2^12 patterns
    are 12 MB of rows in one piece, so they are built and sized in blocks."""
    m = 3000
    net = make_network(m + 1, [(i, i + 1) for i in range(m)],
                       probs=[0.5] * 12 + [1.0] * (m - 12))
    tracemalloc.start()
    try:
        got = exact_expected_infections(net)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # vertex i is reached when edges 0..i-1 are all kept
    assert got.mean == 1 + sum(0.5 ** i for i in range(1, 13)) + (m - 12) * 0.5 ** 12
    assert got.num_samples == 1 << 12
    assert peak < (1 << 12) * m // 2


def test_exact_enumeration_blocks_leave_the_mean_unchanged(rng):
    # bitmasks read off the mask table (every m <= 16 network) against the
    # component kernel on pattern rows, in blocks of a few rows
    for _ in range(5):
        net = random_connected_network(rng, n_lo=5, n_hi=8, max_m=12, p_mode=0.37)
        removed = edge_removal(net, [0])
        whole = [exact_expected_infections(net, iv).mean for iv in (None, removed)]
        with mock.patch.object(percolate_module, "PATTERN_CELLS", 61 * net.m + 1), \
             mock.patch.object(percolate_module, "MASK_TABLE_CAP", 0):
            blocked = [exact_expected_infections(net, iv).mean for iv in (None, removed)]
        assert [x.hex() for x in blocked] == [x.hex() for x in whole]


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
    assert empirical_infections(np.zeros((3, net.m), dtype=bool), net) == 1.0


def test_empirical_single_full_sample():
    net = star_network(3, p=1.0)
    assert empirical_infections(sample_keep_matrix(net, 0, 0, 1), net) == 4.0


def test_empirical_two_fixed_samples():
    net = path_network(p=0.5)
    samples = np.array([[True, False], [True, True]])
    assert empirical_infections(samples, net) == pytest.approx(2.5)


def test_empirical_rejects_empty_list():
    with pytest.raises(ValidationError, match="empty"):
        empirical_infections(np.zeros((0, 2), dtype=bool), path_network())


def test_empirical_rejects_foreign_samples():
    net = path_network()
    for shape in ((1, 5), (1, 1), (2,), (1, 2, 1)):
        with pytest.raises(ValidationError, match="shape"):
            empirical_infections(np.ones(shape, dtype=bool), net)
    twin = path_network()  # equal arrays, but another network
    with pytest.raises(ValidationError, match="different network"):
        empirical_infections(draw_samples(twin, 2, seed=0), net)


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


def _parallel_network() -> ContactNetwork:
    """Edges (0, 1), (1, 0) and (1, 2) on three vertices.

    ``ContactNetwork`` rejects parallel edges, so the network is built
    simple and its endpoints are swapped in afterwards; the kernel must not
    depend on that check.
    """
    net = make_network(3, [(0, 1), (0, 2), (1, 2)], probs=0.5)
    object.__setattr__(net, "us", np.array([0, 1, 1]))
    object.__setattr__(net, "vs", np.array([1, 0, 2]))
    return net


PARALLEL = _parallel_network()


@st.composite
def table_networks(draw):
    """A graph on 1-12 vertices with 0-16 edges (self-loops allowed) and a
    random source."""
    n = draw(st.integers(1, 12))
    pairs = [(u, v) for u in range(n) for v in range(u, n)]
    m = draw(st.integers(0, min(len(pairs), MASK_TABLE_CAP)))
    edges = draw(st.permutations(pairs))[:m]
    return make_network(n, edges, probs=0.5, source=draw(st.integers(0, n - 1)))


def _raise_kernel(*args, **kwargs):
    raise AssertionError("the mask table ran the component kernel")


def _table_examples(test):
    """The graphs of every table test: parallel edges, a looped source, an
    isolated source, n > 2m + 1, and 16 disjoint edges."""
    for net in (
        PARALLEL,
        # a source whose only edge is a self-loop
        make_network(4, [(2, 2), (0, 1), (1, 3), (0, 3)], source=2),
        # an isolated source
        make_network(5, [(0, 1), (1, 2), (2, 3)], source=4),
        # n > 2m + 1: relabelling keeps 3 of 12 vertices
        make_network(12, [(3, 7), (9, 7)], source=7),
        # 16 disjoint edges and an isolated source: 33 labels, the most there can be
        make_network(33, [(2 * i, 2 * i + 1) for i in range(16)], source=32),
    ):
        test = example(net=net)(test)
    return test


def _every_pattern(m: int) -> np.ndarray:
    """All 2^m kept-edge rows; row ``mask`` keeps edge e iff bit e is set."""
    masks = np.arange(1 << m)
    return ((masks[:, np.newaxis] >> np.arange(m)) & 1).astype(bool)


@settings(max_examples=30, deadline=None)
@given(net=table_networks())
@_table_examples
def test_infection_table_matches_union_find(net):
    net.__dict__.pop("_infection_table", None)  # shared examples may hold one
    with mock.patch.object(network_module, "_block_reach", _raise_kernel), \
            mock.patch.object(network_module, "source_component_sizes", _raise_kernel):
        table = infection_table(net)
    assert table.dtype == np.int64
    assert np.array_equal(table, union_find_sizes(net, _every_pattern(net.m)))


@settings(max_examples=30, deadline=None)
@given(net=table_networks())
@_table_examples
def test_kernel_matches_infection_table_on_every_pattern(net):
    """The bit-parallel kernel against label merging, two engines that
    share no code: the kernel's sizes of all 2^m patterns, up to 65,536
    rows, equal the mask table."""
    sizes = network_module.source_component_sizes(net, _every_pattern(net.m))
    assert np.array_equal(sizes, infection_table(net))


def test_infection_table_cap_names_the_kernel_paths():
    net = make_network(18, [(i, i + 1) for i in range(MASK_TABLE_CAP + 1)])
    with pytest.raises(InstanceTooLargeError,
                       match=r"m <= MASK_TABLE_CAP \(16\) edges, got m = 17; "
                             r"component_sizes and estimate_infections run the component "
                             r"kernel at any m"):
        infection_table(net)


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


# The kernel pushes a round while the arcs leaving its front are at most
# PULL_SHARE of the block's, and pulls over every arc past that.
LONG_PATH = make_network(12, [(v, v + 1) for v in range(11)])
STAR = star_network(10, p=0.5)
# a handle 0 - 1 - 2 - 3 - 4, and ten bristles at 4
BROOM = make_network(15, [(v, v + 1) for v in range(4)] + [(4, v) for v in range(5, 15)],
                     probs=0.5)
# vertices 0, 4 and 8 have no arc (0 and 8 only a self-loop); the rest hang
# off the source 2 and each other
ARCLESS = make_network(9, [(2, 1), (2, 3), (2, 5), (2, 6), (2, 7), (1, 3), (5, 6), (6, 7),
                           (0, 0), (8, 8)], probs=0.5, source=2)


def _random_rows(rows, m, seed):
    return np.random.default_rng(seed).random((rows, m)) < 0.6


@settings(max_examples=150, deadline=None)
@given(case=kernel_cases())
@example(case=(make_network(3, []), np.zeros((5, 0), dtype=bool), None, 1))
@example(case=(path_network(), np.zeros((0, 2), dtype=bool), None, 1))
@example(case=(make_network(4, [(0, 0), (1, 2), (2, 3)]), np.ones((4, 3), dtype=bool), None, 7))
@example(case=(complete_network(7), np.ones((9, 21), dtype=bool),
               edge_removal(complete_network(7), [0, 1]), 60))
# parallel edges between one pair: only one, the other or both kept
@example(case=(PARALLEL, np.array([[1, 0, 1], [0, 1, 1], [1, 1, 0], [0, 0, 1]], dtype=bool),
               None, 12))
# a trailing isolated vertex n - 1: the last CSR rows of every block are empty
@example(case=(make_network(6, [(0, 1), (1, 2), (2, 3), (3, 4)], source=4),
               np.ones((5, 4), dtype=bool), None, 25))
# a source whose only edges are self-loops
@example(case=(make_network(4, [(2, 2), (0, 1), (1, 3), (0, 3)], source=2),
               np.ones((3, 4), dtype=bool), None, 16))
# n + m = 28 above 8 CELLS = 24: step 1, one row per block
@example(case=(complete_network(7), np.ones((4, 21), dtype=bool), None, 3))
# push rounds only: every front is one vertex with at most 2 of 22 arcs
@example(case=(LONG_PATH, np.ones((5, 11), dtype=bool), None, 200))
# a pull first: the source's 10 arcs are half the block's
@example(case=(STAR, _random_rows(20, 10, 1), None, 200))
# four push rounds along the handle, then pulls from its 11-arc end
@example(case=(BROOM, np.ones((3, 14), dtype=bool), None, 200))
@example(case=(BROOM, _random_rows(40, 14, 2), edge_removal(BROOM, [7]), 200))
# pull rounds whose segments skip the arc-less vertices 0, 4 and 8
@example(case=(ARCLESS, _random_rows(30, 10, 3), None, 200))
# 130 rows in one block of three words: each word pulls over its own segments
@example(case=(ARCLESS, _random_rows(130, 10, 4), None, 1000))
@example(case=(STAR, _random_rows(130, 10, 5), None, 1000))
def test_component_kernel_matches_union_find(case):
    net, keep, removed, cells = case
    effective = keep & removal_edge_keep(net, removed)
    expected = union_find_sizes(net, effective)
    # the mask table (m <= 16) or the kernel (m > 16) behind component_sizes
    assert np.array_equal(component_sizes(net, keep, removed), expected)
    # small blocks: many per batch, the last one usually partial
    with mock.patch.object(network_module, "CELLS", cells):
        assert np.array_equal(network_module.source_component_sizes(net, effective), expected)
        inside = network_module.source_component_members(net, effective)
        assert inside.shape == (len(effective), net.n)
        for row, kept in zip(inside, effective):
            assert tuple(np.flatnonzero(row)) == union_find_component(net, kept)
        for kept in effective[:3]:
            members = union_find_component(net, kept)
            inside = np.isin(net.us, members) != np.isin(net.vs, members)
            assert boundary_of(net, members) == tuple(np.flatnonzero(inside))


def test_kernel_block_size_follows_cells():
    """A patched ``CELLS`` sets the kernel's block, 8 CELLS // (n + m)
    rows: blocks of 1, 4 and 1 rows and one of all 40, each a partial
    word, split the rows where the block size says and keep the sizes and
    members of union-find."""
    net = random_connected_network(np.random.default_rng(3), n_lo=9, n_hi=9, max_m=20,
                                   p_mode=0.6)
    keep = sample_keep_matrix(net, 11, 0, 40)
    expected = union_find_sizes(net, keep)
    for cells, rows in ((kernel_cells(net, 1), 1), (kernel_cells(net, 4), 4),
                        (kernel_cells(net, 1), 1), (1 << 20, 40)):
        with mock.patch.object(network_module, "CELLS", cells):
            blocks = [(start, stop) for start, stop, _ in
                      network_module._source_reach(net, keep)]
            assert blocks == [(i, min(i + rows, 40)) for i in range(0, 40, rows)]
            assert np.array_equal(network_module.source_component_sizes(net, keep), expected)
            inside = network_module.source_component_members(net, keep)
        for row, kept in zip(inside, keep):
            assert tuple(np.flatnonzero(row)) == union_find_component(net, kept)


def test_kernel_blocks_are_whole_words():
    """Below 64 rows a block takes all 8 CELLS // (n + m) rows its bytes
    allow; from 64 up it takes the most whole 64-row words within them.
    On the 3,000-edge graph, N = 200 goes in blocks of 64, 64, 64 and 8
    rows (4 words, not the 6 of 65 + 65 + 65 + 5), sized as union-find
    sizes them."""
    nets = [path_network(), star_network(20000), complete_network(40), sparse_network(),
            random_connected_network(np.random.default_rng(3), n_lo=9, n_hi=9, max_m=20)]
    for net in nets:
        for cells in [1, 7, 1 << 10, 1 << 16, 1 << 20] + [
                kernel_cells(net, r) for r in (63, 64, 65, 127, 128, 131, 200)]:
            with mock.patch.object(network_module, "CELLS", cells):
                rows = network_module.kernel_rows(net)
            bound = 8 * cells // (net.n + net.m)
            assert 1 <= rows <= max(1, bound), (net.n, net.m, cells)
            assert rows == max(1, bound) if bound < 64 else rows % 64 == 0 and rows > bound - 64
    net = sparse_network()
    keep = sample_keep_matrix(net, 7, 0, 200)
    blocks, sizes = [], np.empty(200, dtype=np.int64)
    for start, stop, inside in network_module._source_reach(net, keep):
        blocks.append((start, stop))
        sizes[start:stop] = inside.sum(axis=1)
    assert blocks == [(0, 64), (64, 128), (128, 192), (192, 200)]
    assert np.array_equal(sizes, union_find_sizes(net, keep))


@st.composite
def restriction_cases(draw):
    """A graph (self-loops allowed), kept-edge rows and a removal that may
    cut the source's component off, isolate the source, or leave G whole."""
    kernel = draw(st.booleans())  # m above MASK_TABLE_CAP, or at most it
    n = draw(st.integers(6 if kernel else 2, 12))
    pairs = [(u, v) for u in range(n) for v in range(u, n)]
    if kernel:
        m = draw(st.integers(MASK_TABLE_CAP + 1, min(len(pairs), MASK_TABLE_CAP + 10)))
    else:
        m = draw(st.integers(1, min(len(pairs), MASK_TABLE_CAP)))
    edges = draw(st.permutations(pairs))[:m]
    net = make_network(n, edges, probs=0.5, source=draw(st.integers(0, n - 1)))
    rows = draw(st.sampled_from([1, 2, 17, 40]))  # R = 0 is an explicit example
    density = draw(st.sampled_from([0.3, 0.7, 1.0]))
    keep = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((rows, m)) < density
    kind = draw(st.sampled_from(["cut", "isolate", "edge", "node"]))
    if kind in ("cut", "isolate"):
        # the boundary of a vertex set around the source: C lies inside it
        side = {net.source}
        if kind == "cut":
            side |= draw(st.sets(st.integers(0, n - 1)))
        removed = edge_removal(net, boundary_of(net, side))
    elif kind == "edge":
        removed = edge_removal(net, draw(st.sets(st.integers(0, m - 1), min_size=1, max_size=3)))
    else:
        others = [v for v in range(n) if v != net.source]
        removed = node_removal(net, draw(st.sets(st.sampled_from(others), min_size=1, max_size=3)))
    return net, keep, removed, draw(st.integers(1, 200))


LOOPED = make_network(9, [(0, 1), (1, 1), (1, 2), (2, 3), (3, 3)]
                      + list(itertools.combinations(range(3, 9), 2)))
# K7 whose source 6 is the second endpoint of each of its edges
LAST_SOURCE = make_network(7, list(itertools.combinations(range(7), 2)), source=6)


@settings(max_examples=200, deadline=None)
@given(case=restriction_cases())
# isolated source: C = {s} and no restricted edges, for R = 0, 1 and 3
@example(case=(complete_network(7), np.ones((0, 21), dtype=bool),
               edge_removal(complete_network(7), range(6)), 1))
@example(case=(complete_network(7), np.ones((1, 21), dtype=bool),
               edge_removal(complete_network(7), range(6)), 1))
@example(case=(complete_network(7), np.ones((3, 21), dtype=bool),
               edge_removal(complete_network(7), range(6)), 1))
# C = {0, 1, 2} (m = 20): a self-loop inside it and one outside, R = 5 and 0
@example(case=(LOOPED, np.ones((5, LOOPED.m), dtype=bool), edge_removal(LOOPED, [3]), 3))
@example(case=(LOOPED, np.ones((0, LOOPED.m), dtype=bool), edge_removal(LOOPED, [3]), 3))
# the source keeps only edges it is the second endpoint of
@example(case=(LAST_SOURCE, np.ones((2, 21), dtype=bool), edge_removal(LAST_SOURCE, [0]), 5))
@example(case=(LAST_SOURCE, np.ones((2, 21), dtype=bool),
               edge_removal(LAST_SOURCE, boundary_of(LAST_SOURCE, [6])), 5))
def test_component_sizes_restricted_to_source_component(case):
    """Sizes match conftest's union-find on every path; a removal that
    isolates the source finds C = {s} without the component kernel."""
    net, keep, removed, cells = case
    after = removal_edge_keep(net, removed)
    expected = union_find_sizes(net, keep & after)
    members = mock.Mock(side_effect=percolate_module.source_component_members)
    # small blocks: the restricted rows span several
    with mock.patch.object(network_module, "CELLS", cells), \
         mock.patch.object(percolate_module, "source_component_members", members):
        sizes = component_sizes(net, keep, removed)
    assert np.array_equal(sizes, expected)
    if union_find_component(net, after) == (net.source,):
        assert members.call_count == 0


def test_estimate_order_insensitive_totals():
    # integer accumulation: two different batch splits give identical means
    net = triangle_network(p=0.3)
    a = estimate_infections(net, None, 3000, seed=5)
    b = estimate_infections(net, None, 3000, seed=5)
    assert a.mean == b.mean and a.half_width == b.half_width


# ------------------------------------------------------------- blocked estimates

# K7 on 0..6 and K5 on 7..11, joined by the edge (6, 7), source 0: m = 32 >
# MASK_TABLE_CAP. Removing that edge or the vertex 7 leaves the source's
# component C = the K7, which does not hold every kept edge, so rows are
# sized on C alone, by the kernel (21 edges); cutting {0, 1, 2} off leaves a
# C of 3 edges, sized by its 2^3 table.
TWO_CLIQUES = make_network(
    12, list(itertools.combinations(range(7), 2)) + [(6, 7)]
    + list(itertools.combinations(range(7, 12), 2)), probs=0.6)
DESK = random_connected_network(np.random.default_rng(5), n_lo=8, n_hi=8, max_m=14,
                                p_mode="random")


@pytest.mark.parametrize("net, removed, path", [
    (DESK, None, "table"),
    (DESK, edge_removal(DESK, [0, 3]), "table"),
    (TWO_CLIQUES, None, "kernel"),
    (TWO_CLIQUES, edge_removal(TWO_CLIQUES, [21]), "restricted kernel"),
    (TWO_CLIQUES, node_removal(TWO_CLIQUES, [7]), "restricted kernel"),
    (TWO_CLIQUES, edge_removal(TWO_CLIQUES, boundary_of(TWO_CLIQUES, [0, 1, 2])),
     "restricted table"),
])
def test_estimate_is_the_same_at_any_block_size(net, removed, path):
    """Blocks of 1, 3 and 7 samples, drawn two rows of uniforms at a time
    and sized one block at a time, give the float.hex-identical mean and
    half-width of the default blocks (one block of 50 rows here) on every
    path."""
    prepared = prepare_removal(net, removed)
    assert path == " ".join(["restricted"] * (prepared.edges is not None)
                            + ["table" if prepared.network.m <= MASK_TABLE_CAP else "kernel"])
    whole = estimate_infections(net, removed, 50, seed=9)
    for rows in (1, 3, 7):
        counts = []
        with mock.patch.object(network_module, "CELLS", kernel_cells(net, rows)), \
             mock.patch.object(percolate_module, "CELLS", 2 * net.m), \
             mock.patch.object(percolate_module, "sample_keep_matrix",
                               recording_draws(sample_keep_matrix, counts)):
            blocked = estimate_infections(net, removed, 50, seed=9)
        assert max(counts) == rows and sum(counts) == 50
        assert (blocked.mean.hex(), blocked.half_width.hex()) == \
            (whole.mean.hex(), whole.half_width.hex())


def test_shared_estimates_match_each_removal_alone():
    """Removals on the table, kernel and restricted paths, estimated on one
    shared stream in blocks of the least of their draw blocks, get the
    float.hex-identical estimate each gets alone."""
    removals = [None, edge_removal(TWO_CLIQUES, [21]), node_removal(TWO_CLIQUES, [7]),
                edge_removal(TWO_CLIQUES, boundary_of(TWO_CLIQUES, [0, 1, 2]))]
    shared = percolate_module.estimate_infections_many(TWO_CLIQUES, removals, 300, seed=5)
    for removed, got in zip(removals, shared):
        alone = estimate_infections(TWO_CLIQUES, removed, 300, seed=5)
        assert got.num_samples == 300
        assert (got.mean.hex(), got.half_width.hex()) == \
            (alone.mean.hex(), alone.half_width.hex())


def test_estimates_of_no_removals_draw_nothing():
    """No removals give no estimates, and no block is drawn for them."""
    counts = []
    with mock.patch.object(percolate_module, "sample_keep_matrix",
                           recording_draws(sample_keep_matrix, counts)):
        assert percolate_module.estimate_infections_many(TWO_CLIQUES, [], 50, seed=5) == []
    assert counts == []
    with pytest.raises(ValidationError, match="num_samples"):
        percolate_module.estimate_infections_many(TWO_CLIQUES, [], 0, seed=5)


@pytest.mark.parametrize("num_samples", [1, 2, 500])
def test_isolated_source_estimates_draw_nothing(num_samples):
    """Past the mask table (m = 32), a removal of every edge of the source
    restricts to C = {s} with no edge: the estimate draws no sample, and
    equals a reference that shares no kernel code with it (the drawn rows
    with the removed columns cleared, union-find, ``mean_half_width``) and
    exact enumeration: 1 with half-width 0, infinite at N = 1. An edgeless
    network of 5 vertices gives 1 too, not 5. In a list with removals that
    read columns, every removal gets the estimate it gets alone."""
    probs = np.ones(TWO_CLIQUES.m)
    probs[:14] = 0.6  # the source's edges, then 8 more of the K7: 8 random ones remain
    net = dataclasses.replace(TWO_CLIQUES, probs=probs)
    isolated = edge_removal(net, boundary_of(net, [net.source]))
    assert prepare_removal(net, isolated).network.m == 0
    edgeless = make_network(5, [])
    counts = []
    with mock.patch.object(percolate_module, "sample_keep_matrix",
                           recording_draws(sample_keep_matrix, counts)):
        got = estimate_infections(net, isolated, num_samples, seed=9)
        bare = estimate_infections(edgeless, None, num_samples, seed=9)
    assert counts == []
    rows = sample_keep_matrix(net, 9, 0, num_samples) & removal_edge_keep(net, isolated)
    sizes = union_find_sizes(net, rows)
    want = mean_half_width(int(sizes.sum()), int((sizes * sizes).sum()), num_samples)
    assert (got.mean, got.half_width, got.num_samples) == (*want, num_samples)
    assert (bare.mean, bare.half_width) == want
    assert got.mean == exact_expected_infections(net, isolated).mean == 1.0
    assert want[1] == (math.inf if num_samples == 1 else 0.0)

    mixed = [None, isolated, edge_removal(net, [21]), isolated]
    with mock.patch.object(percolate_module, "sample_keep_matrix",
                           recording_draws(sample_keep_matrix, counts)):
        shared = percolate_module.estimate_infections_many(net, mixed, num_samples, seed=9)
    assert sum(counts) == num_samples
    for removed, est in zip(mixed, shared):
        alone = estimate_infections(net, removed, num_samples, seed=9)
        assert (est.mean.hex(), est.half_width, est.num_samples) == \
            (alone.mean.hex(), alone.half_width, alone.num_samples)
    assert shared[1] == shared[3] == got


def test_exact_enumeration_prepares_its_removal_once():
    """Past the mask table (m = 32), 2^14 patterns in 17 blocks under the
    removal of the bridge: the removal is prepared once, not once per block,
    and the mean is that of the bridge at p = 0 with no removal, and the
    mean that preparing it per block gave."""
    probs = np.ones(TWO_CLIQUES.m)
    probs[:6], probs[6:14] = 0.3, 0.5  # the source's edges, then 8 more of the K7
    net = dataclasses.replace(TWO_CLIQUES, probs=probs)
    calls = []

    def counted(*args):
        calls.append(args)
        return prepare_removal(*args)

    with mock.patch.object(percolate_module, "PATTERN_CELLS", 1000 * net.m), \
         mock.patch.object(percolate_module, "prepare_removal", counted):
        got = exact_expected_infections(net, edge_removal(net, [21]))
    assert len(calls) == 1 and got.num_samples == 1 << 14
    probs = probs.copy()
    probs[21] = 0.0
    assert got.mean == exact_expected_infections(dataclasses.replace(net, probs=probs)).mean
    assert got.mean.hex() == "0x1.91276427c7c56p+2"


def sparse_network(n=1000, m=3000, p=0.8, seed=4):
    """A random spanning tree plus distinct extra edges up to m, source 0."""
    g = np.random.default_rng(seed)
    us = [int(g.integers(0, v)) for v in range(1, n)]
    pairs = {(u, v) for u, v in zip(us, range(1, n))}
    while len(pairs) < m:
        u, v = sorted(int(x) for x in g.choice(n, size=2, replace=False))
        pairs.add((u, v))
    return make_network(n, sorted(pairs), probs=p)


def test_estimate_memory_does_not_grow_with_samples():
    """On a 3,000-edge graph the samples are drawn and sized one kernel
    block at a time: the peak at N = 4,096 is within 1.5x of the peak at
    N = 256 and under 5 bytes per kept-edge cell of a block, 64 rows of
    3,000 (960,000 bytes). Drawing all N rows at once would take 24 KB
    of uniforms per sample, 98 MB at N = 4,096."""
    net = sparse_network()
    estimate_infections(net, None, 64, seed=1)  # builds the kernel's cached arcs
    block_cells = network_module.kernel_rows(net) * net.m
    assert block_cells == 64 * 3000
    peaks = []
    for num_samples in (256, 4096):
        tracemalloc.start()
        try:
            estimate_infections(net, None, num_samples, seed=2)
            peaks.append(tracemalloc.get_traced_memory()[1])
        finally:
            tracemalloc.stop()
    assert max(peaks) <= 1.5 * min(peaks)
    assert max(peaks) < 5 * block_cells
