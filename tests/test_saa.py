import dataclasses
import heapq
import itertools
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy import sparse
from scipy.sparse.csgraph import dijkstra

from epictrl import (
    InstanceTooLargeError,
    SolverError,
    ValidationError,
    brute_force_optimum,
    build_lp,
    draw_samples,
    edge_removal,
    empirical_infections,
    estimate_infections,
    merge_seeds,
    required_sample_count,
    round_deterministic,
    round_randomized,
    solve_lp,
    solve_saa,
)
from epictrl import network as network_module
from epictrl import percolate as percolate_module
from epictrl import rng as rng_module
from epictrl import saa
from epictrl.network import ContactNetwork
from epictrl.percolate import (
    PreparedRemoval,
    affordable_subsets,
    infection_table,
    keep_rows_to_masks,
    prepare_removal,
)
from epictrl.saa import FractionalSolution, SampleSet

from conftest import (
    adjacency,
    brute_force_reference,
    complete_network,
    dense_y,
    drawn,
    kernel_cells,
    make_network,
    path_network,
    star_network,
    random_connected_network,
    scipy_loaded_by,
    union_find_component,
    unreduced_lp_solution,
)


# ------------------------------------------------------------- sample count

def test_sample_count_values():
    assert required_sample_count(10, 20, 0.5) == 2300
    assert required_sample_count(2, 1, 1 - 1e-9) == 17


def test_sample_count_epsilon_validation():
    for eps in (0.0, 1.0, -0.2):
        with pytest.raises(ValidationError):
            required_sample_count(10, 20, eps)


# ------------------------------------------------------------- sampling

SAMPLE_FIELDS = ("rows", "counts")


def restricted_rows(net, keep_rows):
    """Each raw row cut to its kept non-loop edges inside the source's
    component, and that component, by union-find."""
    rows, comps = np.zeros_like(keep_rows), np.zeros((len(keep_rows), net.n), dtype=bool)
    for j, keep in enumerate(keep_rows):
        comps[j, list(union_find_component(net, keep))] = True
        rows[j] = keep & comps[j, net.us] & (net.us != net.vs)
    return rows, comps


def scenario_map(samples, keep_rows):
    """The distinct row of ``samples`` that holds each raw scenario of
    ``keep_rows``, rebuilt from the reference draw: the rows restricted by
    union-find and ``np.unique``'s inverse, whose distinct rows must be the
    set's."""
    distinct, inverse = np.unique(restricted_rows(samples.network, keep_rows)[0], axis=0,
                                  return_inverse=True)
    assert np.array_equal(distinct, samples.rows)
    return inverse.reshape(-1)


def rebuilt(net):
    """A new network object with ``net``'s fields, so it holds no drawn set."""
    return ContactNetwork(n=net.n, us=net.us, vs=net.vs, costs=net.costs, probs=net.probs,
                          source=net.source, labels=net.labels)


def test_draw_samples_deterministic_and_full():
    net = path_network(p=1.0)
    ss = draw_samples(net, 1, seed=0)
    assert ss.rows.tolist() == [[True, True]]
    again = draw_samples(rebuilt(net), 1, seed=0)
    assert again.rows is not ss.rows and np.array_equal(ss.rows, again.rows)


def test_draw_samples_reuses_the_last_set_of_its_network(monkeypatch):
    """A repeated (N, seed) on the same network draws nothing and returns a
    set over the last set's arrays; a rebuilt copy of the network draws the
    same set afresh. Another N or another seed draws anew, and the network
    then holds only that set."""
    net = random_connected_network(np.random.default_rng(2020), n_lo=7, n_hi=9, max_m=14)
    samples = draw_samples(net, 60, seed=4)
    fresh = draw_samples(rebuilt(net), 60, seed=4)
    draws, keep_matrix = [], saa.sample_keep_matrix

    def counted(network, *args):  # (seed, start, count) of each draw on net
        if network is net:
            draws.append(args)
        return keep_matrix(network, *args)

    monkeypatch.setattr(saa, "sample_keep_matrix", counted)
    again = draw_samples(net, 60, seed=4)
    assert draws == [] and again.network is net and again.N == fresh.N == samples.N == 60
    for field in SAMPLE_FIELDS:
        assert getattr(again, field) is getattr(samples, field), field
        assert getattr(fresh, field) is not getattr(samples, field), field
        assert np.array_equal(getattr(fresh, field), getattr(samples, field)), field
    for N, seed in ((61, 4), (60, 5), (60, 4)):
        other = draw_samples(net, N, seed)
        assert draws[-1] == (seed, 0, N)  # one block: the whole draw
        assert other.rows is not samples.rows
        expected = samples if (N, seed) == (60, 4) else draw_samples(rebuilt(net), N, seed)
        assert other.N == expected.N == N
        for field in SAMPLE_FIELDS:
            assert np.array_equal(getattr(other, field), getattr(expected, field)), field
    assert len(draws) == 3


def test_both_caps_fire_on_a_repeated_draw(monkeypatch):
    """Caps lowered after a draw still stop the same (N, seed): the draw cap
    before the network's set is looked up, the distinct-cell cap again on a
    hit, each with the message of a first draw on a rebuilt copy."""
    net = make_network(7, [(0, 1), (1, 2), (0, 3), (6, 6)], probs=0.5)  # m = 4, stride 4
    N = 30
    samples = draw_samples(net, N, seed=3)
    D = len(samples.counts)
    monkeypatch.setattr(saa, "DISTINCT_CELL_CAP", D * 7 - 1)
    with pytest.raises(InstanceTooLargeError) as first:
        draw_samples(rebuilt(net), N, seed=3)

    def no_draw(*args):
        raise AssertionError("a repeated (N, seed) drew again")

    monkeypatch.setattr(saa, "sample_keep_matrix", no_draw)
    message = f"N = {N} .* n = 7 .*D = {D} distinct .*{D * 7} cells.*--samples \\(num_samples\\)"
    with pytest.raises(InstanceTooLargeError, match=message) as hit:
        draw_samples(net, N, seed=3)
    assert str(hit.value) == str(first.value)
    monkeypatch.setattr(saa, "DISTINCT_CELL_CAP", D * 7)
    assert draw_samples(net, N, seed=3).rows is samples.rows

    monkeypatch.setattr(saa, "SAMPLE_DRAW_CAP", N * 4 - 1)
    with pytest.raises(InstanceTooLargeError) as first:
        draw_samples(rebuilt(net), N, seed=3)
    message = f"N = {N} .* m = 4 .*{N * 4} uniform draws.*--samples \\(num_samples\\)"
    with pytest.raises(InstanceTooLargeError, match=message) as hit:
        draw_samples(net, N, seed=3)
    assert str(hit.value) == str(first.value)


def test_draw_samples_binomial_presence():
    net = make_network(2, [(0, 1)], probs=0.3)
    ss, keep = drawn(net, 1000, 5)
    count = int(ss.rows[scenario_map(ss, keep)].sum())
    sigma = math.sqrt(1000 * 0.3 * 0.7)
    assert abs(count - 300) <= 4 * sigma


# ------------------------------------------------------------- LP building

def test_import_leaves_the_lp_solver_unloaded():
    """scipy.optimize, home of the HiGHS bindings, loads on the first LP
    solve, and scipy.sparse, its csgraph, sparse.linalg, linalg and special
    on the first flow, LP or path-count bound; ``import epictrl`` and the
    CLI's import load none of them."""
    assert scipy_loaded_by("import epictrl, epictrl.cli") == []


@pytest.mark.parametrize("unaffordable", [False, True], ids=["every-edge", "edge-3-too-dear"])
@pytest.mark.parametrize("count, fits", [(2**55, True), (2**56, False), (2**58, False)])
def test_cut_keys_beyond_int64_fail_before_the_first_round(monkeypatch, count, fits,
                                                           unaffordable):
    """``_cut_rows`` packs ((row, column) << bit_length(N)) | count into int64.
    A hand-built ``SampleSet`` skips ``SAMPLE_DRAW_CAP``, so ``solve_lp``
    checks the largest key, ((2 G - 1)(num_x + G) + 1) << bits, against
    2^63 before its first round. On the 5-vertex path G = 4 and num_x + G
    is 8, or 7 when edge 3 costs more than the budget; either way the
    bound holds up to N = 2^56, and with edge 3 too dear a bound of
    (G (num_x + G) + 1) << bits would let N = 2^57 through to keys that
    wrap (the dear edge's arcs take the column past every row)."""
    costs = [1.0, 1.0, 1.0, 5.0 if unaffordable else 1.0]
    net = make_network(5, [(0, 1), (1, 2), (2, 3), (3, 4)], probs=0.5, costs=costs)
    rows = np.array([[1, 1, 0, 0], [1, 1, 1, 1]], dtype=bool)
    model = build_lp(SampleSet(net, rows, np.array([count, count]), 2 * count), budget=1.0)
    if fits:
        frac = solve_lp(model)
        assert frac.objective == 0.0 and frac.x.tolist() == [1.0, 0.0, 0.0, 0.0]
        return

    def no_round(*args, **kwargs):
        raise AssertionError("a round ran")

    monkeypatch.setattr(saa, "breadth_first_order", no_round)
    with pytest.raises(InstanceTooLargeError, match="--samples"):
        solve_lp(model)


def test_lp_path_hand_solution():
    net = path_network(p=1.0)
    ss = draw_samples(net, 1, seed=1)
    frac = solve_lp(build_lp(ss, budget=1.0))
    assert frac.objective == pytest.approx(0.0, abs=1e-9)
    assert frac.x[0] == pytest.approx(1.0, abs=1e-7)
    y = dense_y(frac.model, frac.y)
    assert y[0, 1] == pytest.approx(1.0, abs=1e-7)
    assert y[0, 2] == pytest.approx(1.0, abs=1e-7)


def test_lp_empty_samples_objective_zero():
    net = path_network(p=0.0)
    ss = draw_samples(net, 3, seed=1)
    frac = solve_lp(build_lp(ss, budget=1.0))
    assert frac.objective == pytest.approx(0.0, abs=1e-9)
    assert np.all(dense_y(frac.model, frac.y)[:, 1:] >= 1.0 - 1e-9)


def test_lp_budget_below_every_cost():
    net = path_network(p=1.0, costs=[5.0, 5.0])
    ss = draw_samples(net, 2, seed=1)
    frac = solve_lp(build_lp(ss, budget=1.0))
    assert np.all(frac.x == 0.0)
    # nothing removable: fractional objective equals reachable count minus s
    assert frac.objective == pytest.approx(2.0, abs=1e-9)


def test_lp_objective_bounds(rng):
    for _ in range(5):
        net = random_connected_network(rng, n_lo=4, n_hi=6, max_m=9)
        ss = draw_samples(net, 20, seed=int(rng.integers(1 << 30)))
        frac = solve_lp(build_lp(ss, budget=2.0))
        assert 0.0 <= frac.objective <= net.n - 1


def test_lp_validation_errors():
    net = path_network(p=1.0)
    ss = draw_samples(net, 1, seed=0)
    with pytest.raises(ValidationError):
        build_lp(ss, budget=0.0)
    meta_only = merge_seeds(make_network(2, [], probs=[]), [0, 1])
    ss2 = draw_samples(meta_only, 1, seed=0)
    with pytest.raises(ValidationError, match="no removable"):
        build_lp(ss2, budget=1.0)


def dijkstra_capped(net, keep_row, x, mode):
    """Independent oracle: min(1, removal-mass shortest distance) per vertex."""
    dist = [math.inf] * net.n
    dist[net.source] = 0.0
    heap = [(0.0, net.source)]
    adj = adjacency(net, keep_row)
    while heap:
        d, u = heapq.heappop(heap)
        if d > dist[u]:
            continue
        for v, e in adj[u]:
            w = x[e] if mode == "edge" else x[v]
            if d + w < dist[v]:
                dist[v] = d + w
                heapq.heappush(heap, (dist[v], v))
    return np.minimum(1.0, dist)


@pytest.mark.parametrize("mode", ["edge", "node"])
def test_lp_y_is_capped_shortest_path_distance(rng, mode):
    for _ in range(4):
        net = random_connected_network(rng, n_lo=4, n_hi=6, max_m=9, p_mode=0.6)
        ss, keep = drawn(net, 12, int(rng.integers(1 << 30)))
        frac = solve_lp(build_lp(ss, budget=2.0, mode=mode))
        y = dense_y(frac.model, frac.y)
        rows = scenario_map(ss, keep)
        for j in range(ss.N):
            want = dijkstra_capped(net, keep[j], frac.x, mode)
            got = y[rows[j]].copy()
            got[net.source] = 0.0
            assert np.allclose(got, want, atol=1e-6), (mode, j)


def test_lp_relaxation_lower_bounds_every_feasible_removal(rng):
    for _ in range(5):
        net = random_connected_network(rng, n_lo=4, n_hi=6, max_m=8)
        ss = draw_samples(net, 25, seed=int(rng.integers(1 << 30)))
        budget = 2.0
        frac = solve_lp(build_lp(ss, budget=budget))
        candidates = list(range(net.m))
        for r in range(net.m + 1):
            for combo in itertools.combinations(candidates, r):
                if sum(net.costs[e] for e in combo) > budget:
                    continue
                h = empirical_infections(ss, net, edge_removal(net, combo))
                assert frac.objective + 1.0 <= h + 1e-6


def assert_matches_unreduced(samples, keep_rows, budget, mode="edge", tied=False):
    """The reduced LP solves the unreduced LP on the raw rows ``keep_rows``:
    same objective, and its x with its y (the capped x-distances, read
    through the rebuilt ``scenario_map``) is an optimum of the unreduced LP.

    An entity that no scenario's source component reaches changes neither
    objective, so the unreduced LP may leave mass on it; the reduced LP has
    no row for it and leaves it at 0. Unless the instance may have tied
    optima, the rounded members on the other entities and y must also equal
    the unreduced LP's.
    """
    frac = solve_lp(build_lp(samples, budget, mode=mode))
    net = samples.network
    objective, x, y = unreduced_lp_solution(net, keep_rows, budget, mode)
    assert abs(frac.objective - objective) <= 1e-9, (mode, frac.objective, objective)
    frac_y = dense_y(frac.model, frac.y)
    rows = scenario_map(samples, keep_rows)
    live = np.zeros(len(x), dtype=bool)
    for j, row in enumerate(keep_rows):
        want = dijkstra_capped(net, row, frac.x, mode)
        assert np.abs(frac_y[rows[j]] - want).max() <= 1e-7, (mode, j)
        members = list(union_find_component(net, row))
        if mode == "edge":
            live |= row & np.isin(net.us, members)
        else:
            live[members] = True
    assert np.all(frac.x[~live] == 0.0)
    if not tied:
        threshold = 1.0 / (4.0 * net.n ** (2.0 / 3.0))
        assert np.array_equal(np.flatnonzero(frac.x >= threshold),
                              np.flatnonzero(live & (x >= threshold))), mode
        assert np.abs(frac_y[rows] - y).max() <= 1e-7, mode
    return frac


@st.composite
def lp_cases(draw):
    """Small graphs with self-loops, any source (often isolated), either mode,
    unit or random edge costs, budgets down to 0 in node mode, and
    sometimes a merged meta-source behind infinite-cost edges."""
    n = draw(st.integers(2, 7))
    pairs = [(u, v) for u in range(n) for v in range(u, n)]
    m = draw(st.integers(1, min(len(pairs), 12)))
    edges = draw(st.permutations(pairs))[:m]
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    probs = g.choice([0.0, 0.2, 0.5, 0.9, 1.0], size=m)
    costs = np.ones(m) if draw(st.booleans()) else g.uniform(0.5, 3.0, size=m)
    net = make_network(n, edges, probs=probs, costs=costs, source=draw(st.integers(0, n - 1)))
    if draw(st.booleans()):
        net = merge_seeds(net, draw(st.sets(st.integers(0, n - 1), min_size=1, max_size=3)))
    mode = draw(st.sampled_from(["edge", "node"]))
    budget = draw(st.sampled_from([0.0, 0.5, 1.0, 2.0, 3.5]))
    if mode == "edge" and budget == 0.0:
        budget = 1.0
    samples, keep = drawn(net, draw(st.integers(1, 25)), draw(st.integers(0, 2**31)))
    return samples, keep, budget, mode


@settings(max_examples=150, deadline=None)
@given(case=lp_cases())
def test_lp_matches_unreduced_oracle(case):
    # unit costs and few scenarios often tie several optima (three leaves of
    # the source, one removable), and the two LPs may pick different ones
    samples, keep, budget, mode = case
    assert_matches_unreduced(samples, keep, budget, mode, tied=True)


def test_lp_matches_unreduced_oracle_on_batteries():
    """The LP instances of acceptance criteria 2/3 (edge) and 11 (node), and
    sources isolated in every scenario: no y column, and in node mode with
    B = 0 (or in edge mode with every edge above budget) no column at all."""
    rng = np.random.default_rng(202)
    for i in range(20):
        net = random_connected_network(rng, n_lo=4, n_hi=8, max_m=14, p_mode="random",
                                       unit_costs=bool(i % 2))
        budget = max(1.0, round(0.35 * float(net.costs.sum()), 2))
        samples, keep = drawn(net, 40, 500 + i)
        if i != 6:
            assert_matches_unreduced(samples, keep, budget)
            continue
        # objective 0 is reached by several removals: both LPs are optimal
        # there, and the cutting planes round to another one
        frac = assert_matches_unreduced(samples, keep, budget, tied=True)
        objective, x, _ = unreduced_lp_solution(net, keep, budget)
        assert frac.solver_status == "optimal" and frac.objective == objective == 0.0
        threshold = 1.0 / (4.0 * net.n ** (2.0 / 3.0))
        assert not np.array_equal(np.flatnonzero(frac.x >= threshold),
                                  np.flatnonzero(x >= threshold))
    rng = np.random.default_rng(1111)
    for i in range(10):
        net = random_connected_network(rng, n_lo=6, n_hi=12, max_m=16, p_mode="random")
        assert_matches_unreduced(*drawn(net, 40, 920 + i), 2.0, "node")
    net = random_connected_network(np.random.default_rng(1212), n_lo=12, n_hi=12, max_m=16,
                                   p_mode="random")
    assert_matches_unreduced(*drawn(net, 40, 33), 2.0, "node")

    isolated = make_network(4, [(0, 0), (1, 2), (2, 3)], probs=[1.0, 1.0, 0.5],
                            costs=[1.0, 0.5, 2.0])
    for net, budget, mode in [
        (path_network(p=0.0), 1.0, "edge"),
        (path_network(p=0.0), 0.0, "node"),
        (path_network(p=0.0, costs=[5.0, 5.0]), 1.0, "edge"),
        (isolated, 1.0, "edge"),
    ]:
        frac = assert_matches_unreduced(*drawn(net, 6, 2), budget, mode)
        assert frac.model.num_y == frac.iterations == 0  # no solver call
    merged = merge_seeds(dataclasses.replace(isolated, source=1), [1, 3])
    samples, keep = drawn(merged, 6, 2)
    assert_matches_unreduced(samples, keep, 1.0)


def test_lp_restricts_and_merges_scenarios():
    # the source's edge is kept in every scenario and the far edge never
    net = make_network(4, [(0, 1), (2, 3)], probs=[1.0, 0.0])
    samples, keep = drawn(net, 5, 0)
    model = build_lp(samples, budget=1.0)
    assert len(samples.counts) == 1
    assert np.array_equal(scenario_map(samples, keep), np.zeros(5))
    assert samples.rows.tolist() == [[True, False]] and samples.counts.tolist() == [5]
    assert (model.num_x, model.num_y) == (1, 1)
    assert model.y_cells.tolist() == [1]  # the component {0, 1}: one copy, of vertex 1
    assert model.a_ub.toarray().tolist() == [[1.0]]  # the budget row: cost 1 / B = 1
    # one arc: the merged source 0 -> the copy of vertex 1, weighed by x column 0
    assert (model.arc_tail.tolist(), model.arc_head.tolist(), model.arc_col.tolist()) == \
        ([0], [1], [0])
    assert model.offset == 1.0


@st.composite
def packed_rows(draw):
    """1-40 rows of 0-80 bits, packed 8 to a byte, drawn from a pool of
    1 to N patterns so that rows repeat."""
    m, num = draw(st.integers(0, 80)), draw(st.integers(1, 40))
    g = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    pool = g.random((draw(st.integers(1, num)), m)) < 0.5
    return np.packbits(pool[g.integers(0, len(pool), num)], axis=1)


@settings(max_examples=200, deadline=None)
@given(rows=packed_rows())
@example(rows=np.zeros((5, 0), dtype=np.uint8))  # m = 0
@example(rows=np.packbits(np.ones((1, 64), dtype=bool), axis=1))  # N = 1, one whole word
@example(rows=np.packbits(np.ones((6, 65), dtype=bool), axis=1))  # all rows equal
@example(rows=np.packbits(np.eye(64, dtype=bool)[::-1], axis=1))  # m = 64, all distinct
@example(rows=np.packbits(np.eye(65, dtype=bool), axis=1))  # m = 65, the last in word 2
def test_distinct_rows_match_np_unique(rows):
    want = np.unique(rows, axis=0, return_index=True, return_counts=True)[1:]
    for got, ref in zip(saa._distinct_rows(rows), want):
        assert got.dtype == ref.dtype and np.array_equal(got, ref.reshape(-1))


@pytest.fixture
def no_master(monkeypatch):
    """Fail any master LP solve."""

    def solve_master(*args, **kwargs):
        raise AssertionError("solved a master LP")

    monkeypatch.setattr(saa, "_solve_master", solve_master)


def test_no_master_fixture_fails_a_master_solve(no_master):
    model = build_lp(draw_samples(complete_network(8, p=0.5), 60, seed=3), budget=2.0)
    with pytest.raises(AssertionError, match="solved a master LP"):
        solve_lp(model)


def test_cut_loop_skips_an_isolated_source(no_master):
    frac = solve_lp(build_lp(draw_samples(path_network(p=0.0), 4, seed=1), budget=1.0))
    assert (frac.cut_rounds, frac.iterations, frac.master_size) == (0, 0, (0, 0, 0))
    assert frac.solver_status == "optimal" and frac.objective == 0.0


@pytest.mark.parametrize("budget, mode, costs", [(0.0, "node", None), (1.0, "edge", [5.0, 5.0])])
def test_cut_loop_without_x_columns_calls_the_oracle_once(no_master, budget, mode, costs):
    net = path_network(p=1.0, costs=costs)
    model = build_lp(draw_samples(net, 3, seed=1), budget=budget, mode=mode)
    assert (model.num_x, model.num_y) == (0, 2)
    frac = solve_lp(model)
    assert (frac.cut_rounds, frac.iterations, frac.master_size) == (1, 0, (0, 0, 0))
    assert frac.solver_status == "optimal" and frac.objective == 2.0
    assert np.all(frac.x == 0.0) and np.all(frac.y == 0.0)
    assert np.all(dense_y(model, frac.y)[:, 1:] == 0.0)


def test_cut_loop_at_its_round_cap(monkeypatch):
    net = complete_network(8, p=0.5)
    model = build_lp(draw_samples(net, 60, seed=3), budget=2.0)
    assert solve_lp(model).cut_rounds > 1
    monkeypatch.setattr(saa, "MAX_CUT_ROUNDS", 1)
    frac = solve_lp(model)
    assert (frac.solver_status, frac.cut_rounds) == ("iteration-limit", 1)
    with pytest.raises(SolverError, match="iteration-limit"):
        solve_saa(net, budget=2.0, epsilon=0.5, rounding="deterministic", seed=3,
                  num_samples=60, eval_samples=20)


def wide_tree_oracle(seed=5):
    """A Dijkstra over a depth-2 merged graph of 50,001 vertices.

    The root 0 points at vertices 25,001..50,000, and vertex k + 25,000
    points at vertex k. Every depth-2 vertex has a parent id above
    2^31 / 50,001, so a tree-arc key parent * size + child passes 2^31,
    while scipy returns the predecessors as int32. The copies fall in 7
    groups with scenario counts up to 40 of N = 400. Returns (model, dist,
    pred, copy_counts, groups, num_groups), with the model's arc arrays,
    num_x and N.
    """
    g = np.random.default_rng(seed)
    half, num_x, num_groups = 25_000, 30, 7
    size = 2 * half + 1
    top = np.arange(half + 1, size)
    tail = np.concatenate([np.zeros(half, dtype=np.int64), top])
    head = np.concatenate([top, top - half])
    order = np.lexsort((head, tail))
    tail, head = tail[order], head[order]
    arc_col = g.integers(-1, num_x, len(tail))
    point = g.uniform(0.0, 0.6, num_x)
    graph = sparse.csr_matrix(
        (np.append(point, 0.0)[arc_col], head, np.searchsorted(tail, np.arange(size + 1))),
        shape=(size, size),
    )
    dist, pred = dijkstra(graph, indices=0, limit=1.0, return_predecessors=True)
    model = SimpleNamespace(arc_tail=tail, arc_head=head, arc_col=arc_col, num_x=num_x,
                            samples=SimpleNamespace(N=400))
    return (model, dist, pred, g.integers(1, 41, size - 1),
            g.integers(0, num_groups, size - 1), num_groups)


def path_walk_cuts(model, dist, pred, copy_counts, groups, num_groups):
    """Reference cut rows, dense (G, num_x + G), and their right-hand sides:
    each close vertex charges count / N to every column on its tree path,
    found one arc at a time from Python integer keys parent * size + child."""
    size, num_x, N = len(dist), model.num_x, model.samples.N
    col_of = dict(zip((model.arc_tail * size + model.arc_head).tolist(),
                      model.arc_col.tolist()))
    rows = np.zeros((num_groups, num_x + num_groups))
    rows[:, num_x:] = -np.eye(num_groups)
    rhs = np.zeros(num_groups)
    for v in np.flatnonzero(dist < 1.0).tolist()[1:]:
        group, w = int(groups[v - 1]), copy_counts[v - 1] / N
        rhs[group] -= w
        child = v
        while child != 0:
            parent = int(pred[child])
            col = col_of[parent * size + child]
            if col >= 0:
                rows[group, col] -= w
            child = parent
    return rows, rhs


def test_cut_rows_match_a_path_walk_past_int32_arc_keys():
    model, dist, pred, copy_counts, groups, num_groups = oracle = wide_tree_oracle()
    assert pred.dtype == np.int32 and int(pred.max()) * len(dist) > 2**31
    assert 0 < np.count_nonzero(dist >= 1.0) < len(dist) // 4  # some depth-2 vertices are far
    start, index, value, rhs = saa._cut_rows(dist, pred, copy_counts, groups, model, num_groups)
    got = np.zeros((num_groups, model.num_x + num_groups))
    for v in range(num_groups):
        part = slice(start[v], start[v + 1])
        assert np.all(np.diff(index[part]) > 0)  # sorted, no duplicate column
        got[v, index[part]] = value[part]
    want, want_rhs = path_walk_cuts(*oracle)
    assert np.allclose(got, want, rtol=1e-12, atol=0.0)
    assert np.allclose(rhs, want_rhs, rtol=1e-12, atol=0.0)


def group_shares(net, keep_rows, x, mode, bases):
    """F_v(x) for each base vertex v in ``bases``, from a Dijkstra per raw
    scenario: the mean over scenarios of 1 - min(1, distance to v)."""
    y = np.array([dijkstra_capped(net, row, x, mode) for row in keep_rows])
    return (1.0 - y[:, bases]).mean(axis=0)


@pytest.mark.parametrize("mode", ["edge", "node"])
def test_every_cut_lower_bounds_its_vertex_share(monkeypatch, mode):
    """Every cut the loop adds, theta_v >= a_v x - rhs_v, lies below F_v at
    random points of the budget box, and at the loop's x the shares F_v
    sum to its objective."""
    added = []

    def record(solver, start, index, value, rhs):
        added.append((start, index, value, rhs))
        return solve_master(solver, start, index, value, rhs)

    solve_master = saa._solve_master
    monkeypatch.setattr(saa, "_solve_master", record)
    g = np.random.default_rng(77)
    for i in range(4):
        net = random_connected_network(g, n_lo=6, n_hi=9, max_m=14, p_mode="random")
        samples, keep = drawn(net, 40, 700 + i)
        model = build_lp(samples, 2.0, mode=mode)
        added.clear()
        frac = solve_lp(model)
        assert added and frac.solver_status == "optimal"
        bases = np.unique(model.y_cells % net.n)
        width = model.num_x + len(bases)
        assert abs(group_shares(net, keep, frac.x, mode, bases).sum() - frac.objective) <= 1e-12
        for _ in range(10):
            z = g.random(model.num_x) * g.random()
            z /= max(1.0, float(model.budget_row @ z))
            x = np.zeros(len(frac.x))
            x[model.var_entities] = z
            shares = group_shares(net, keep, x, mode, bases)
            for start, index, value, rhs in added:
                rows = np.zeros((len(bases), width))
                for v in range(len(bases)):
                    rows[v, index[start[v]:start[v + 1]]] = value[start[v]:start[v + 1]]
                assert np.all(rows[:, model.num_x:] == -np.eye(len(bases)))
                assert np.all(rows[:, :model.num_x] @ z - rhs <= shares + 1e-12)


def test_first_round_needs_no_dijkstra(monkeypatch):
    """At x = 0 every distance is 0: the first oracle call is a breadth-first
    search, and F there is the model's offset. At a cap of one round no
    master LP runs: its point would never be evaluated."""
    calls = []

    def counting_dijkstra(*args, **kwargs):
        calls.append(1)
        return dijkstra(*args, **kwargs)

    monkeypatch.setattr(saa, "dijkstra", counting_dijkstra)
    model = build_lp(draw_samples(complete_network(8, p=0.5), 60, seed=3), budget=2.0)
    monkeypatch.setattr(saa, "MAX_CUT_ROUNDS", 1)
    frac = solve_lp(model)
    assert (frac.solver_status, frac.cut_rounds, calls) == ("iteration-limit", 1, [])
    assert (frac.iterations, frac.master_size) == (0, (0, 0, 0))
    assert frac.objective == model.offset and np.all(frac.x == 0.0)
    monkeypatch.setattr(saa, "MAX_CUT_ROUNDS", 2)
    assert solve_lp(model).cut_rounds == 2 and calls == [1]


def test_two_round_lp_runs_one_master(monkeypatch):
    """The loop stops once the best F meets the last master's bound, before
    it adds that round's cuts: two oracle calls, one HiGHS run."""
    from scipy.optimize._highspy import _core

    runs = []

    class CountingHighs(_core._Highs):
        def run(self):
            runs.append(1)
            return super().run()

    monkeypatch.setattr(_core, "_Highs", CountingHighs)
    frac = solve_lp(build_lp(draw_samples(path_network(p=0.5), 30, seed=3), budget=1.0))
    assert (frac.solver_status, frac.cut_rounds, len(runs)) == ("optimal", 2, 1)


def test_affordable_edge_outside_every_component_gets_no_column():
    # edge 1 is always kept but never touches the source's component
    net = make_network(4, [(0, 1), (2, 3)], probs=[1.0, 1.0])
    model = build_lp(draw_samples(net, 3, seed=0), budget=2.0)
    assert model.var_entities.tolist() == [0]
    frac = solve_lp(model)
    assert frac.x.tolist() == [1.0, 0.0] and frac.objective == 0.0


def test_node_mode_members_match_unreduced_oracle():
    """Desk-sized node LPs (n 7-9, m = 14, N = 100, B = 2): the rounded
    members equal those of the unreduced LP's x. Instance 4's LP has tied
    optima; the single-cut loop ended at another one than the unreduced LP,
    and the multi-cut loop ends at the unreduced LP's, so the members there
    depend on where the cutting planes stop."""
    rng = np.random.default_rng(1414)
    for i in range(8):
        net = random_connected_network(rng, n_lo=7, n_hi=9, max_m=14, p_mode="random")
        frac = assert_matches_unreduced(*drawn(net, 100, 1400 + i), 2.0, "node")
        assert frac.solver_status == "optimal"


def test_draw_guard_fails_before_drawing(monkeypatch):
    """N x stride uniforms: at the cap the draw runs, one below it raises."""
    net = complete_network(4, p=0.5)
    N = required_sample_count(net.n, net.m, 0.9)
    draws = N * 8  # m = 6 pads to a stride of 8
    monkeypatch.setattr(saa, "SAMPLE_DRAW_CAP", draws)
    assert draw_samples(net, N, seed=1).N == N
    _, report = solve_saa(net, budget=1.0, epsilon=0.9, seed=1, eval_samples=10)
    assert report["n_samples"] == N
    monkeypatch.setattr(saa, "SAMPLE_DRAW_CAP", draws - 1)
    message = f"N = {N} .* m = 6 .*{draws} uniform draws.*--samples \\(num_samples\\)"
    with pytest.raises(InstanceTooLargeError, match=message):
        draw_samples(net, N, seed=1)
    with pytest.raises(InstanceTooLargeError, match=message):
        solve_saa(net, budget=1.0, epsilon=0.9, seed=1, eval_samples=10)


@pytest.mark.parametrize("mode", ["edge", "node"])
def test_distinct_cell_cap_fails_before_any_distinct_array(monkeypatch, mode):
    """D x n distinct cells: at the cap the samples draw and the LP builds,
    one below it draw_samples raises right after the merge. On a star of 20
    edges among n = 40,000 vertices (N = 100, nearly every scenario
    distinct) the failing draw peaks below half of D n bytes, while the
    smallest (D, n) array, a bool one, takes D n."""
    net = make_network(7, [(0, 1), (1, 2), (0, 3), (6, 6)], probs=0.5)  # 4, 5 isolated
    N = 30
    D = len(draw_samples(net, N, seed=3).counts)
    assert 1 < D < N
    monkeypatch.setattr(saa, "DISTINCT_CELL_CAP", D * 7)
    assert build_lp(draw_samples(net, N, seed=3), 1.0, mode=mode).samples.N == N
    _, report = solve_saa(net, budget=1.0, epsilon=0.5, mode=mode, seed=3,
                          num_samples=N, eval_samples=10)
    assert (report["n_samples"], report["scenarios_distinct"]) == (N, D)
    monkeypatch.setattr(saa, "DISTINCT_CELL_CAP", D * 7 - 1)
    message = f"N = {N} .* n = 7 .*D = {D} distinct .*{D * 7} cells.*--samples \\(num_samples\\)"
    with pytest.raises(InstanceTooLargeError, match=message):
        draw_samples(net, N, seed=3)
    with pytest.raises(InstanceTooLargeError, match=message):
        solve_saa(net, budget=1.0, epsilon=0.5, mode=mode, seed=3, num_samples=N,
                  eval_samples=10)

    n, N = 40_000, 100
    star = make_network(n, [(0, i) for i in range(1, 21)], probs=0.5)
    monkeypatch.undo()
    D = len(draw_samples(star, N, seed=1).counts)
    assert D > N // 2
    monkeypatch.setattr(saa, "DISTINCT_CELL_CAP", D * n - 1)
    star = rebuilt(star)  # not drawn before, so the failing call draws and merges
    tracemalloc.start()
    try:
        with pytest.raises(InstanceTooLargeError, match=f"D = {D} distinct"):
            draw_samples(star, N, seed=1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < D * n // 2, peak / (D * n)


def test_solve_lp_peak_memory_per_cell():
    """y holds one level per vertex copy, (num_y,), and solve_lp peaks within
    256 bytes per copy and arc.

    Stars among 5000 vertices, after one solve that loads the LP solver.
    With 50 leaves nearly every scenario is distinct, so D is about N; a
    dense (D, n) y took 825 bytes per copy and arc there, and the objective
    check once copied it twice more. With 4 leaves at most 16 of the 500
    scenarios are distinct, and a dense (N, n) y alone would take 8 N n
    bytes.
    """
    n = 5000
    solve_lp(build_lp(draw_samples(star_network(4, p=0.5), 20, seed=1), 3.0))
    for leaves, N in ((50, 200), (4, 500)):
        net = make_network(n, [(0, i) for i in range(1, leaves + 1)], probs=0.5)
        model = build_lp(draw_samples(net, N, seed=1), 3.0)
        D = len(model.samples.counts)
        tracemalloc.start()
        try:
            frac = solve_lp(model)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert frac.y.shape == (model.num_y,) and (D > 0.9 * N if leaves == 50 else D <= 16)
        cells = model.num_y + len(model.arc_head)
        assert peak <= 256 * cells, (leaves, peak / cells)
        # the count-weighted check still sees an objective that y does not carry
        with pytest.raises(SolverError, match="inconsistency"):
            solve_lp(dataclasses.replace(model, offset=model.offset + 0.5))


def test_no_array_of_d_n_cells_outlives_the_solve():
    """A SampleSet holds the network, rows, counts and N alone,
    and no array of it, of the LP model or of the solution has D n cells or
    more: a 40-leaf star among 2000 vertices, nearly every scenario
    distinct."""
    assert [f.name for f in dataclasses.fields(saa.SampleSet)] == \
        ["network", "rows", "counts", "N"]
    net = make_network(2000, [(0, i) for i in range(1, 41)], probs=0.5)
    for mode in ("edge", "node"):
        frac = solve_lp(build_lp(draw_samples(net, 100, seed=1), 3.0, mode=mode))
        cells = len(frac.model.samples.counts) * net.n
        for held in (frac.model.samples, frac.model, frac):
            for field in dataclasses.fields(held):
                value = getattr(held, field.name)
                assert not isinstance(value, np.ndarray) or value.size < cells, field.name


def test_sample_set_matches_union_find_restriction(monkeypatch):
    """Random desk instances, and larger ones past the mask table: the
    distinct view expands to the raw rows restricted by union-find, the
    LP's component cells (the source and ``build_lp``'s ``y_cells``) to the
    union-find components, its counts are the rebuilt scenario map's, its
    rows are distinct, and forced blocks of 1 and 3 rows build the same
    SampleSet. Scored on it, the empirical
    objective under random edge removals is the raw rows'."""
    g = np.random.default_rng(1919)
    for i in range(12):
        big = i % 4 == 3
        net = random_connected_network(g, n_lo=12 if big else 5, n_hi=20 if big else 9,
                                       max_m=40 if big else 14, p_mode="random")
        if i % 3 == 1:
            net = merge_seeds(dataclasses.replace(net, source=int(g.integers(net.n))), [0, 1])
        N, seed = int(g.integers(1, 120)), int(g.integers(1 << 30))
        samples, keep = drawn(net, N, seed)
        rows, comps = restricted_rows(net, keep)
        rebuilt_map = scenario_map(samples, keep)
        assert np.array_equal(samples.rows[rebuilt_map], rows)
        model = build_lp(samples, 1.0)
        assert np.all(np.diff(model.y_cells) > 0)  # row-major
        component = dense_y(model, np.zeros(model.num_y)) == 0.0  # 0 on s and every copy
        assert np.array_equal(component[rebuilt_map], comps)
        assert np.array_equal(samples.counts, np.bincount(rebuilt_map))
        assert len(np.unique(samples.rows, axis=0)) == len(samples.rows)
        for block_rows in (1, 3):
            monkeypatch.setattr(network_module, "CELLS", kernel_cells(net, block_rows))
            again = draw_samples(rebuilt(net), N, seed)  # a fresh draw, not the set held by net
            assert again is not samples and again.rows is not samples.rows and again.N == N
            for field in SAMPLE_FIELDS:
                assert np.array_equal(getattr(again, field), getattr(samples, field)), field
        monkeypatch.undo()
        for _ in range(3):
            gone = g.choice(net.m, size=int(g.integers(0, net.m // 2 + 1)), replace=False)
            removal = edge_removal(net, gone)
            assert empirical_infections(samples, net, removal) == \
                empirical_infections(keep, net, removal)


# ------------------------------------------------------------- rounding

def craft_fraction(net, x_values, budget=1.0, mode="edge", N=1):
    ss = draw_samples(net, N, seed=0)
    model = build_lp(ss, budget=budget, mode=mode)
    width = net.m if mode == "edge" else net.n
    x = np.zeros(width)
    for ent, val in x_values.items():
        x[ent] = val
    return FractionalSolution(model=model, x=x, y=np.zeros(model.num_y), objective=0.0,
                              solver_status="optimal")


def test_randomized_rounding_never_picks_zero_mass():
    net = star_network(4, p=0.5)
    frac = craft_fraction(net, {0: 0.0, 1: 0.0})
    for seed in range(50):
        assert round_randomized(frac, gamma=2.0, epsilon=0.5, seed=seed).members == ()


def test_randomized_rounding_caps_at_one():
    net = star_network(4, p=0.5)
    frac = craft_fraction(net, {2: 1.0})
    for seed in range(20):
        assert 2 in round_randomized(frac, gamma=2.0, epsilon=0.5, seed=seed).members


def test_randomized_rounding_inflation_arithmetic():
    # x = 0.01, gamma=2, eps=0.5, n=100: selection probability 7*0.01*ln(100)/.5
    n = 100
    net = make_network(n, [(0, 1)], probs=0.5)
    frac = craft_fraction(net, {0: 0.01})
    target = 7 * 0.01 * math.log(100) / 0.5
    assert target == pytest.approx(0.64472, abs=5e-6)
    hits = sum(
        1 for seed in range(4000)
        if round_randomized(frac, gamma=2.0, epsilon=0.5, seed=seed).members
    )
    sigma = math.sqrt(target * (1 - target) / 4000)
    assert abs(hits / 4000 - target) <= 4 * sigma


def test_randomized_rounding_validation():
    net = star_network(4, p=0.5)
    frac = craft_fraction(net, {0: 0.5})
    with pytest.raises(ValidationError):
        round_randomized(frac, gamma=1.0, epsilon=0.5, seed=0)
    with pytest.raises(ValidationError):
        round_randomized(frac, gamma=2.0, epsilon=1.0, seed=0)


@pytest.mark.parametrize("rounding", ["randomized", "deterministic"])
@pytest.mark.parametrize("gamma", [math.nan, math.inf, 1.0])
def test_solve_saa_checks_gamma_before_drawing(monkeypatch, rounding, gamma):
    """Either rounding refuses a gamma that is NaN, infinite or not above 1,
    since the report carries it, and draws no sample first."""
    def no_draw(*args, **kwargs):
        raise AssertionError("drew a sample")

    monkeypatch.setattr(saa, "draw_samples", no_draw)
    with pytest.raises(ValidationError, match="gamma must be a finite number above 1"):
        solve_saa(path_network(p=0.5), budget=1.0, epsilon=0.5, gamma=gamma,
                  rounding=rounding, num_samples=20)


def test_deterministic_threshold_boundary():
    net = complete_network(8, p=0.5)
    frac = craft_fraction(net, {0: 0.07, 1: 0.06}, budget=10.0)
    picked = round_deterministic(frac)
    assert 0 in picked.members and 1 not in picked.members
    assert 1 / (4 * 8 ** (2 / 3)) == pytest.approx(0.0625, rel=1e-12)


def test_deterministic_all_zero_empty():
    net = star_network(4, p=0.5)
    assert round_deterministic(craft_fraction(net, {})).members == ()


def test_deterministic_all_one_with_budget():
    net = star_network(4, p=0.5)
    frac = craft_fraction(net, {e: 1.0 for e in range(4)}, budget=4.0)
    assert round_deterministic(frac).members == (0, 1, 2, 3)


def test_deterministic_budget_guarantee_enforced():
    net = star_network(4, p=0.5)
    # a correct LP solution can never produce this state; feed a corrupt one
    frac = craft_fraction(net, {e: 1.0 for e in range(4)}, budget=1e-3)
    with pytest.raises(SolverError):
        round_deterministic(frac)


# ------------------------------------------------------------- brute force

def test_brute_force_star():
    star = star_network(4, p=1.0)
    ss = draw_samples(star, 1, seed=0)
    best, h = brute_force_optimum(ss, budget=2.0)
    assert h == 3.0 and best.members == (0, 1)


def test_brute_force_zero_budget():
    net = path_network(p=1.0)
    ss = draw_samples(net, 1, seed=0)
    best, h = brute_force_optimum(ss, budget=0.0)
    assert best.members == () and h == 3.0


def test_brute_force_full_budget_isolates_source():
    net = star_network(3, p=1.0)
    ss = draw_samples(net, 1, seed=0)
    best, h = brute_force_optimum(ss, budget=3.0)
    assert h == 1.0


def test_brute_force_node_mode():
    net = path_network(p=1.0)
    ss = draw_samples(net, 1, seed=0)
    best, h = brute_force_optimum(ss, budget=1.0, mode="node")
    assert best.members == (1,) and h == 1.0


def test_brute_force_matches_itertools_reference():
    rng = np.random.default_rng(4242)
    cases = []
    for i in range(25):
        net = random_connected_network(rng, n_lo=3, n_hi=6, max_m=7, unit_costs=False)
        net = dataclasses.replace(net, source=int(rng.integers(0, net.n)))
        rng.random(net.n)  # keeps rng's stream, and so every later instance, pinned
        cases.append((*drawn(net, int(rng.integers(1, 9)), i),
                      (0.0, float(rng.uniform(0.0, 4.0)), 100.0)))
    # 0.1 + 0.2 > 0.3 in binary floats: the pair fits only the second budget;
    # the merged meta-source adds infinite-cost edges, the loop is inert
    boundary = make_network(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 4)], probs=0.7,
                            costs=[0.1, 0.2, 0.3, 0.1, 0.2, 0.1])
    for net in (boundary, merge_seeds(boundary, [0, 3])):
        cases.append((*drawn(net, 6, 8), (0.3, 0.1 + 0.2, 0.6, 0.1 + 0.2 + 0.3)))
    for samples, keep, budgets in cases:
        for budget in budgets:
            for mode in ("edge", "node"):
                best, h = brute_force_optimum(samples, budget, mode=mode)
                total, members = brute_force_reference(samples.network, keep, budget, mode)
                assert (best.members, h) == (members, total / samples.N), (mode, budget)


def per_subset_optimum(samples, budget, mode):
    """``brute_force_optimum``'s (members, h_hat) by scoring every affordable
    subset alone through the mask table, and the number of those subsets."""
    net = samples.network
    if mode == "edge":
        candidates = [e for e in range(net.m)
                      if np.isfinite(net.costs[e]) and net.us[e] != net.vs[e]]
        removal = [1 << e for e in candidates]
        costs = net.costs[candidates]
    else:
        candidates = [v for v in range(net.n) if v != net.source]
        removal = [sum(1 << e for e in range(net.m) if v in (net.us[e], net.vs[e]))
                   for v in candidates]
        costs = np.ones(len(candidates))
    picks, removed = affordable_subsets(np.array(removal, dtype=np.int64), costs, budget)
    table, masks = infection_table(net), keep_rows_to_masks(samples.rows)
    total, members = min(
        (int(table[masks & ~r] @ samples.counts),
         tuple(c for i, c in enumerate(candidates) if pick >> i & 1))
        for pick, r in zip(picks.tolist(), removed.tolist())
    )
    return members, total / samples.N, len(picks)


def sixteen_edge_instance():
    """n = 9 and m = 16, the source moved to a vertex of the highest degree
    (7); at B = 5 with unit costs 6,885 edge subsets fit the budget, and
    none of them isolates the source."""
    net = random_connected_network(np.random.default_rng(2121), n_lo=9, n_hi=10, max_m=16)
    degree = np.bincount(np.concatenate([net.us, net.vs]), minlength=net.n)
    return dataclasses.replace(net, source=int(np.argmax(degree)))


@pytest.mark.parametrize("mode", ["edge", "node"])
def test_block_scoring_matches_a_per_subset_loop(monkeypatch, mode):
    """With blocks so small that scoring takes at least 3 of them, the
    members and h_hat are those of scoring each subset alone: on random
    desk instances, and on an m = 16 instance that affords thousands of
    edge subsets."""
    g = np.random.default_rng(2222)
    cases = [(random_connected_network(g, n_lo=7, n_hi=9, max_m=14), 2.0) for _ in range(6)]
    cases.append((sixteen_edge_instance(), 5.0))
    for i, (net, budget) in enumerate(cases):
        samples = draw_samples(net, 400, seed=i)
        members, h_hat, subsets = per_subset_optimum(samples, budget, mode)
        D = len(samples.counts)
        step = max(1, (subsets - 1) // 3)  # subsets per block
        monkeypatch.setattr(saa, "PATTERN_CELLS", D * step + D - 1)  # floors to step rows
        assert subsets >= 3 and -(-subsets // step) >= 3
        best, h = brute_force_optimum(samples, budget, mode=mode)
        assert (best.members, h) == (members, h_hat), (i, mode)
    if mode == "edge":  # the m = 16 instance, last
        assert subsets == 6885 and h_hat > 1.0


def test_block_scoring_peak_memory_per_block_cell(monkeypatch):
    """Scoring holds one block of (subset, distinct row) cells at a time,
    about 16 bytes per cell (an int64 mask and an int64 size). On the m = 16
    instance, in blocks of 2^16 cells, the peak stays within 24 bytes per
    block cell; all 6,885 subsets at once would take over 30 times that."""
    samples = draw_samples(sixteen_edge_instance(), 400, seed=6)
    reference = brute_force_optimum(samples, 5.0)  # builds the cached mask table
    cells = 1 << 16
    monkeypatch.setattr(saa, "PATTERN_CELLS", cells)
    block_cells = cells // len(samples.counts) * len(samples.counts)
    tracemalloc.start()
    try:
        best, h = brute_force_optimum(samples, 5.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (best.members, h) == (reference[0].members, reference[1])
    assert 6885 * len(samples.counts) > 30 * block_cells
    assert peak <= 24 * block_cells, peak / block_cells


@pytest.mark.parametrize("budget", [-1.0, math.nan, math.inf])
def test_brute_force_rejects_negative_budget(budget):
    ss = draw_samples(path_network(p=1.0), 1, seed=0)
    with pytest.raises(ValidationError, match="budget"):
        brute_force_optimum(ss, budget=budget)


@pytest.mark.parametrize("mode", ["edge", "node"])
def test_brute_force_rejects_m_above_mask_table_cap(mode):
    net = star_network(17, p=0.5)
    ss = draw_samples(net, 2, seed=0)
    with pytest.raises(InstanceTooLargeError, match="m <= 16"):
        brute_force_optimum(ss, budget=1.0, mode=mode)


def test_node_brute_force_rejects_more_than_20_vertices():
    # m = 10 fits the mask table; n = 21, with 10 isolated vertices, passes the vertex cap
    net = make_network(21, [(0, i) for i in range(1, 11)], probs=0.5)
    ss = draw_samples(net, 2, seed=0)
    with pytest.raises(InstanceTooLargeError, match="20 vertices, got n = 21; use solve_saa"):
        brute_force_optimum(ss, budget=1.0, mode="node")
    brute_force_optimum(ss, budget=1.0, mode="edge")  # edge mode has no vertex cap


# ------------------------------------------------------------- end to end

def test_solve_saa_isolates_source_at_min_cut_budget():
    net = complete_network(5, p=1.0)
    # min cut separating the source costs 4 (unit edges)
    iv, report = solve_saa(net, budget=4.0, epsilon=0.5,
                           rounding="deterministic", seed=0,
                           num_samples=5, eval_samples=50)
    assert report["empirical_infections"] == 1.0
    assert report["lp_objective"] == pytest.approx(0.0, abs=1e-7)
    assert report["fresh_mc_mean"] == 1.0


def test_solve_saa_node_zero_budget():
    net = path_network(p=0.7)
    iv, report = solve_saa(net, budget=0.0, epsilon=0.5, mode="node",
                           rounding="randomized", seed=0,
                           num_samples=40, eval_samples=50)
    assert iv.members == ()
    no_removal = empirical_infections(draw_samples(net, 40, 0), net)
    assert report["lp_objective"] + 1.0 == pytest.approx(no_removal, abs=1e-6)


@pytest.mark.parametrize("mode, members, restricted", [
    ("edge", (21,), (7, 21)),  # the bridge: the source's K7
    ("node", (6,), (6, 15)),  # the bridge's end in the K7: the K6 left of it
])
def test_solve_saa_prepares_its_removal_once(monkeypatch, mode, members, restricted):
    """Past the mask table (two cliques, m = 32), the removal a solve picks
    is prepared once, restricted to the source's component, and that one
    ``PreparedRemoval`` serves both the fresh Monte Carlo check and the
    empirical objective, which equal the unprepared removal's."""
    net = make_network(12, list(itertools.combinations(range(7), 2)) + [(6, 7)]
                       + list(itertools.combinations(range(7, 12), 2)), probs=0.6)
    calls = []

    def counted(network, removed):
        prepared = prepare_removal(network, removed)
        calls.append((removed, prepared))
        return prepared

    monkeypatch.setattr(saa, "prepare_removal", counted)
    monkeypatch.setattr(percolate_module, "prepare_removal", counted)
    chosen, report = solve_saa(net, budget=1.0, epsilon=0.5, rounding="deterministic",
                               mode=mode, seed=3, num_samples=40, eval_samples=50)
    monkeypatch.undo()
    prepared = [got for removed, got in calls if not isinstance(removed, PreparedRemoval)]
    assert calls[0][0] is chosen and chosen.members == members and len(prepared) == 1
    assert all(got is prepared[0] for _, got in calls)
    assert prepared[0].edges is not None
    assert (prepared[0].network.n, prepared[0].network.m) == restricted
    fresh = estimate_infections(net, chosen, 50, rng_module.derived_seed(3, "eval"))
    assert (report["fresh_mc_mean"], report["fresh_mc_half_width"]) == \
        (fresh.mean, fresh.half_width)
    assert report["empirical_infections"] == \
        empirical_infections(draw_samples(net, 40, 3), net, chosen)


def test_solve_saa_report_is_deterministic():
    net = path_network(p=0.5)
    _, a = solve_saa(net, budget=1.0, epsilon=0.4, seed=3,
                     num_samples=30, eval_samples=100)
    _, b = solve_saa(net, budget=1.0, epsilon=0.4, seed=3,
                     num_samples=30, eval_samples=100)
    assert a == b


def test_solve_saa_source_accounting():
    net = path_network(p=0.5)
    iv, report = solve_saa(net, budget=1.0, epsilon=0.4, seed=3,
                           num_samples=30, eval_samples=10)
    ss = draw_samples(net, 30, seed=3)
    assert report["empirical_infections"] == empirical_infections(ss, net, iv)
    assert report["empirical_infections"] >= 1.0


def test_solve_saa_reports_lp_size():
    net = path_network(p=0.5)
    _, report = solve_saa(net, budget=1.0, epsilon=0.4, seed=3, num_samples=30,
                          eval_samples=10)
    model = build_lp(draw_samples(net, 30, seed=3), budget=1.0)
    frac = solve_lp(model)
    # two oracle calls and one master: the budget row and a cut per base
    # vertex (1 and 2), over x and one theta per base vertex
    assert report["lp_cut_rounds"] == frac.cut_rounds == 2
    assert (report["lp_rows"], report["lp_cols"], report["lp_nnz"]) == frac.master_size
    assert frac.master_size[:2] == (1 + 2, model.num_x + 2)
    assert report["lp_iterations"] == frac.iterations
    # the source's component keeps no edge, the first edge, or both
    assert report["scenarios_distinct"] == len(model.samples.counts) == 3


def test_lp_iterations_repeat_across_reruns():
    """The cut loop and HiGHS are deterministic: a rerun repeats its rounds,
    master size, iterations, x and objective."""
    net = complete_network(8, p=0.5)
    reports = [solve_saa(net, budget=2.0, epsilon=0.5, rounding="deterministic", seed=3,
                         num_samples=60, eval_samples=20)[1] for _ in range(2)]
    fracs = [solve_lp(build_lp(draw_samples(net, 60, seed=3), budget=2.0)) for _ in range(2)]
    counters = ("lp_cut_rounds", "lp_rows", "lp_cols", "lp_nnz", "lp_iterations", "lp_objective")
    assert [reports[0][k] for k in counters] == [reports[1][k] for k in counters]
    assert reports[0]["lp_cut_rounds"] > 1 and reports[0]["lp_iterations"] > 0
    for frac in fracs:
        assert frac.cut_rounds == reports[0]["lp_cut_rounds"]
        assert frac.master_size == tuple(reports[0][k] for k in ("lp_rows", "lp_cols", "lp_nnz"))
        assert frac.iterations == reports[0]["lp_iterations"]
        assert frac.objective == reports[0]["lp_objective"]
    assert fracs[0].x.tobytes() == fracs[1].x.tobytes()


def random_master(rng):
    """A multi-cut Kelley master over (x, theta_0..theta_{G-1}): the budget
    row over x, then 1-20 cuts theta_v >= f + g (x - p) as (g, rhs) with
    g <= 0, some of its entries exactly 0. Cut j belongs to group j mod G,
    and the cuts come in rounds of G, one per group (the last round may be
    short)."""
    num_x = int(rng.integers(1, 31))
    budget_row = rng.uniform(0.05, 1.0, num_x)
    cuts = []
    for _ in range(int(rng.integers(1, 21))):
        g = -rng.exponential(2.0, num_x) * (rng.random(num_x) < 0.7)
        point, f = rng.random(num_x), rng.uniform(0.0, 10.0)
        cuts.append((g, float(g @ point) - f))
    return budget_row, int(rng.integers(1, 5)), cuts


def test_warm_masters_match_linprog_highs_ds():
    """Seeded random masters, fed to one kept model a round of cuts at a
    time: after each round, the warm-started solve reaches
    ``linprog(method="highs-ds")``'s objective on the whole master within
    ``LP_TOLERANCE``, at a feasible point whose thetas sum to it."""
    from scipy.optimize import linprog

    rng = np.random.default_rng(2024)
    tol = saa.LP_TOLERANCE
    for _ in range(60):
        budget_row, groups, cuts = random_master(rng)
        num_x = len(budget_row)
        solver = saa._master_solver(budget_row, groups)
        rows, rhs = [np.append(budget_row, np.zeros(groups))], [1.0]
        for first in range(0, len(cuts), groups):
            start, index, value, round_rhs = [0], [], [], []
            for v, (g, cut_rhs) in enumerate(cuts[first:first + groups]):
                row = np.append(g, np.zeros(groups))
                row[num_x + v] = -1.0
                rows.append(row)
                rhs.append(cut_rhs)
                nonzero = np.flatnonzero(row)
                index.extend(nonzero)
                value.extend(row[nonzero])
                start.append(len(index))
                round_rhs.append(cut_rhs)
            a, b = np.vstack(rows), np.asarray(rhs)
            res = linprog(
                c=np.append(np.zeros(num_x), np.ones(groups)), A_ub=a, b_ub=b,
                bounds=[(0.0, 1.0)] * num_x + [(0.0, None)] * groups, method="highs-ds",
                options={"primal_feasibility_tolerance": tol,
                         "dual_feasibility_tolerance": tol},
            )
            code, x, objective, _ = saa._solve_master(
                solver, np.asarray(start), np.asarray(index), np.asarray(value),
                np.asarray(round_rhs))
            assert code == res.status == 0
            assert abs(objective - res.fun) <= tol * max(1.0, abs(res.fun))
            assert x[num_x:].sum() == pytest.approx(objective, abs=tol)
            assert np.all(x >= -tol) and np.all(x[:num_x] <= 1.0 + tol)
            assert np.all(a @ x <= b + tol * np.maximum(1.0, np.abs(b)))


def test_solve_lp_passes_one_master_model(monkeypatch):
    """All the masters of one solve_lp call live in one HiGHS model: it is
    passed once, and each round but the last adds a cut per base vertex."""
    from scipy.optimize._highspy import _core

    passed = []

    class CountingHighs(_core._Highs):
        def passModel(self, lp):
            passed.append(lp)
            return super().passModel(lp)

    monkeypatch.setattr(_core, "_Highs", CountingHighs)
    model = build_lp(draw_samples(complete_network(8, p=0.5), 60, seed=3), budget=2.0)
    frac = solve_lp(model)
    assert frac.cut_rounds > 1 and len(passed) == 1
    groups = 7  # every vertex but the source
    assert frac.master_size[:2] == (1 + groups * (frac.cut_rounds - 1), model.num_x + groups)


@pytest.mark.parametrize("mode, expected", [
    ("edge", (5, 38, 4.845238095238119, [0, 1, 2, 3, 4, 5, 6])),
    ("node", (7, 48, 3.9095238095238347, [1, 2, 3, 4, 5, 6, 7])),
])
def test_solve_saa_repeats_pinned_lp_counters(mode, expected):
    """Rounds, iterations, objective and members of the multi-cut loop. The
    single-cut loop took 11 and 21 rounds (16 and 33 iterations) to the
    same members; the edge objective is bit-identical and the node one
    moved in its last bits."""
    _, report = solve_saa(complete_network(8, p=0.5), budget=2.0, epsilon=0.5,
                          rounding="deterministic", mode=mode, seed=3, num_samples=60,
                          eval_samples=20)
    keys = ("lp_cut_rounds", "lp_iterations", "lp_objective", "members")
    assert tuple(report[k] for k in keys) == expected


def test_solve_saa_node_mode_never_selects_source(rng):
    net = random_connected_network(rng, n_lo=5, n_hi=7, max_m=10, p_mode=0.6)
    iv, _ = solve_saa(net, budget=2.0, epsilon=0.4, mode="node",
                      rounding="randomized", gamma=2.0, seed=1,
                      num_samples=30, eval_samples=10)
    assert net.source not in iv.members
