import dataclasses
import itertools
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from epictrl import (
    ValidationError,
    edge_removal,
    estimate_infections,
    min_sbcc,
    min_sbcc_exact,
    min_sbcc_many,
    solve_karger,
    sparsification_regime,
)
from epictrl import network as network_module
from epictrl import percolate as percolate_module
from epictrl import rng as rng_module
from epictrl import sbcc as sbcc_module
from epictrl.network import boundary_of, source_component_members
from epictrl.percolate import sample_keep_matrix

from conftest import (
    complete_network,
    exact_sbcc_reference,
    make_network,
    minimal_side,
    parametric_sbcc_oracle,
    path_network,
    star_network,
    random_connected_network,
    recording_draws,
    source_sides,
    union_find_component,
)


# ------------------------------------------------------------- min_sbcc

def test_sbcc_star_contract():
    star = star_network(4)
    sol = min_sbcc(star, budget=2.0, lam=0.5)
    assert sol.cut_size <= 2.0 / 0.5
    # {s} cuts exactly budget / lam, so it is the answer
    assert (sol.component, sol.probes) == ((0,), 0)
    exact_set, exact_size = min_sbcc_exact(star, 2.0)
    assert exact_size == 3
    assert sol.component_size <= math.ceil(exact_size / (1 - 0.5))


def test_sbcc_budget_at_source_degree_isolates():
    star = star_network(4)
    sol = min_sbcc(star, budget=4.0, lam=0.5)
    assert sol.component_size == 1 and sol.component == (0,)
    assert sol.cut_size == 4


def test_sbcc_zero_budget_returns_whole_component():
    net = path_network()
    sol = min_sbcc(net, budget=0.0, lam=0.9)
    assert sol.cut_size == 0
    assert sol.component_size == 3


def test_sbcc_cut_edges_are_exact_boundary():
    net = make_network(6, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 5)])
    for budget in (0.0, 1.0, 2.0, 4.0):
        sol = min_sbcc(net, budget=budget, lam=0.5)
        assert sol.cut_edges == boundary_of(net, sol.component)
        assert 0 in sol.component
        assert sol.cut_size == len(sol.cut_edges)


def test_sbcc_lambda_validation():
    with pytest.raises(ValidationError):
        min_sbcc(path_network(), budget=1.0, lam=0.0)
    with pytest.raises(ValidationError):
        min_sbcc(path_network(), budget=1.0, lam=1.0)


def test_sbcc_budget_validation():
    for budget in (-1.0, math.inf, math.nan):
        with pytest.raises(ValidationError, match="budget"):
            min_sbcc(path_network(), budget=budget, lam=0.5)


def test_sbcc_many_rejects_rows_of_the_wrong_shape():
    net = path_network()
    for rows in (np.ones(net.m, dtype=bool), np.ones((2, net.m + 1), dtype=bool)):
        with pytest.raises(ValidationError, match="shape"):
            min_sbcc_many(net, rows, 1.0, 0.5)


def test_sbcc_requires_unit_capacities():
    net = make_network(3, [(0, 1), (1, 2)], costs=[2.0, 1.0])
    with pytest.raises(ValidationError, match="unit"):
        min_sbcc(net, budget=1.0, lam=0.5)


# ------------------------------------------------------------- exact oracle

def test_exact_star_budget_two():
    assert min_sbcc_exact(star_network(4), 2.0) == ((0, 1), 3)


def test_exact_path_budget_one():
    assert min_sbcc_exact(path_network(), 1.0) == ((0,), 1)


def test_exact_triangle_budget_one():
    tri = complete_network(3)
    assert min_sbcc_exact(tri, 1.0)[1] == 3


def test_exact_cap():
    from epictrl import InstanceTooLargeError

    big = complete_network(7)  # 21 edges
    with pytest.raises(InstanceTooLargeError):
        min_sbcc_exact(big, 2.0)


@pytest.mark.parametrize("m", [16, 17, 18, 19, 20])
def test_exact_matches_union_find_reference(m):
    """Both sizing branches: the mask table (m <= 16) and the kernel above."""
    rng = np.random.default_rng(m)
    nets = [random_connected_network(rng, n_lo=7, n_hi=9, max_m=m, p_mode=1.0)
            for _ in range(2)]
    # a star with one spare leaf edge and an inert self-loop on the source
    star = [(0, i) for i in range(1, m - 1)] + [(1, m - 1), (0, 0)]
    nets.append(make_network(m, star))
    for net in nets:
        assert net.m == m
        net = dataclasses.replace(net, source=int(rng.integers(0, net.n)))
        for budget in (0.0, 1.0, 2.5, 3.0):
            want = exact_sbcc_reference(net, budget)
            assert min_sbcc_exact(net, budget) == want
            # blocks of 7 subsets: ties are settled across blocks
            with mock.patch.object(sbcc_module, "PATTERN_CELLS", 7 * net.m):
                assert min_sbcc_exact(net, budget) == want


def test_exact_full_budget_at_m20_sizes_subsets_in_blocks():
    """All 2^20 subsets fit the budget; the least is the source's edges."""
    net = random_connected_network(np.random.default_rng(20), n_lo=8, n_hi=8,
                                   max_m=20, p_mode=1.0)
    assert net.m == 20
    at_source = tuple(int(e) for e in np.flatnonzero((net.us == 0) | (net.vs == 0)))
    tracemalloc.start()
    try:
        assert min_sbcc_exact(net, 20.0) == (at_source, 1)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # sizing every subset at once peaked near 200 MB
    assert peak < 64 * 2**20, peak


@pytest.mark.parametrize("budget", [-1.0, math.nan, math.inf])
def test_exact_rejects_negative_budget(budget):
    with pytest.raises(ValidationError, match="budget"):
        min_sbcc_exact(path_network(), budget)


def test_contract_against_oracle_grid(rng):
    for _ in range(10):
        net = random_connected_network(rng, n_lo=4, n_hi=7, max_m=16, p_mode=1.0)
        for lam in (0.25, 0.5, 0.75):
            for budget in (1.0, 2.0, 3.0):
                sol = min_sbcc(net, budget=budget, lam=lam)
                assert sol.cut_size <= budget / lam
                _, exact = min_sbcc_exact(net, budget)
                cap = math.ceil(exact / (1.0 - lam))
                assert sol.component_size <= cap, (lam, budget)


# ------------------------------------------------------------- solve_karger

def test_karger_p_one_reduces_to_plain_sbcc():
    net = path_network(p=1.0)
    iv, report = solve_karger(net, budget=1.0, p=1.0, gamma=4.0, lam=0.5,
                              repetitions=2, eval_samples=50, seed=0)
    assert iv.members == (0,)
    chosen = report["candidates"][report["chosen_index"]]
    assert chosen["mc_mean"] == 1.0
    # with the full graph sampled, the returned barrier is the sample cut
    assert chosen["members"] == [0]


def test_karger_path_best_candidate():
    net = path_network(p=0.6)
    iv, report = solve_karger(net, budget=1.0, p=0.6, gamma=4.0, lam=0.5,
                              repetitions=6, eval_samples=200, seed=3)
    assert iv.members == (0,)
    assert report["cost"] == 1.0


def test_karger_reconstruction_consistency():
    rng = np.random.default_rng(11)
    for _ in range(5):
        net = random_connected_network(rng, n_lo=5, n_hi=8, max_m=12, p_mode=0.7)
        iv, report = solve_karger(net, budget=2.0, p=0.7, gamma=4.0, lam=0.5,
                                  repetitions=4, eval_samples=20,
                                  seed=int(rng.integers(1 << 30)))
        for cand in report["candidates"]:
            members = union_find_component(net, ~np.isin(np.arange(net.m), cand["members"]))
            assert list(members) == cand["component_members"]
            assert boundary_of(net, members) == tuple(cand["members"])


def test_min_sbcc_side_is_the_component_its_cut_leaves():
    # solve_karger reports the sweep's side as the source's component of the
    # sample minus the cut: a minimal min-cut side is connected in the sample
    rng = np.random.default_rng(29)
    graphs = [complete_network(40, p=0.9)]
    for i in range(40):
        base = random_connected_network(rng, n_lo=4, n_hi=10, max_m=20, p_mode=0.6)
        loops = [(int(v), int(v)) for v in rng.choice(base.n, size=2, replace=False)]
        # vertex base.n is isolated; every fourth graph has its source there
        source = base.n if i % 4 == 0 else int(rng.integers(base.n))
        edges = list(zip(base.us.tolist(), base.vs.tolist())) + loops
        graphs.append(make_network(base.n + 1, edges, probs=0.6, source=source))
    for i, net in enumerate(graphs):
        for keep in sample_keep_matrix(net, i, 0, 3):
            kept = np.flatnonzero(keep)
            sub = make_network(net.n, list(zip(net.us[kept], net.vs[kept])),
                               source=net.source)
            for budget in (0.5, 1.0, 3.0, 40.0):
                sol = min_sbcc(sub, budget=budget, lam=0.5)
                realized = union_find_component(sub, ~np.isin(np.arange(sub.m), sol.cut_edges))
                assert realized == sol.component


def test_karger_validation():
    nonuniform = make_network(3, [(0, 1), (1, 2)], probs=[0.5, 0.6])
    with pytest.raises(ValidationError, match="disagree"):
        solve_karger(nonuniform, budget=1.0, p=0.5)
    weighted = make_network(3, [(0, 1), (1, 2)], probs=0.5, costs=[2.0, 1.0])
    with pytest.raises(ValidationError, match="unit"):
        solve_karger(weighted, budget=1.0, p=0.5)
    with pytest.raises(ValidationError, match="gamma"):
        solve_karger(path_network(p=0.5), budget=1.0, p=0.5, gamma=2.0)


def test_karger_out_of_regime_flagged():
    net = path_network(p=0.5)
    _, report = solve_karger(net, budget=1.0, p=0.5, repetitions=2,
                             eval_samples=20, seed=0)
    assert not report["in_regime"]
    assert report["regime_note"].startswith("out-of-regime")


def test_karger_deterministic():
    net = complete_network(8, p=0.8)
    _, a = solve_karger(net, budget=3.0, p=0.8, repetitions=3,
                        eval_samples=100, seed=7)
    _, b = solve_karger(net, budget=3.0, p=0.8, repetitions=3,
                        eval_samples=100, seed=7)
    assert a == b


RANDOM_20 = random_connected_network(np.random.default_rng(1), n_lo=10, n_hi=12, max_m=20,
                                     p_mode=0.5)


@pytest.mark.parametrize("net, budget, seed, distinct", [
    (complete_network(40, p=0.9), 40.0, 4, 1),  # every candidate isolates the source
    # 3 distinct of 6, two of them of equal size
    (RANDOM_20, 0.25, 48, 3),
    # 5 distinct of 6, two pairs of distinct components of equal size (10
    # and 9 vertices), and the last distinct one is chosen
    (RANDOM_20, 0.25, 997, 5),
], ids=["k40", "random-3-distinct", "random-5-distinct"])
def test_karger_counters_and_one_score_per_distinct_candidate(net, budget, seed, distinct):
    p = float(net.probs[0])
    counts = {"flow": 0, "prepare": 0, "draw": 0, "sizes": 0, "boundary": 0, "removal": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    draw = counted("draw", sample_keep_matrix)
    with mock.patch.object(network_module, "maximum_flow",
                           counted("flow", network_module.maximum_flow)), \
         mock.patch.object(percolate_module, "prepare_removal",
                           counted("prepare", percolate_module.prepare_removal)), \
         mock.patch.object(sbcc_module, "sample_keep_matrix", draw), \
         mock.patch.object(percolate_module, "sample_keep_matrix", draw), \
         mock.patch.object(percolate_module, "component_sizes",
                           counted("sizes", percolate_module.component_sizes)), \
         mock.patch.object(sbcc_module, "boundary_of",
                           counted("boundary", sbcc_module.boundary_of)), \
         mock.patch.object(sbcc_module, "edge_removal",
                           counted("removal", sbcc_module.edge_removal)):
        chosen, report = solve_karger(net, budget=budget, p=p, repetitions=6,
                                      eval_samples=50, seed=seed)
    members = {tuple(c["members"]) for c in report["candidates"]}
    assert report["candidates_distinct"] == len(members) == distinct
    # one barrier per distinct component, and one removal, prepared once, per
    # distinct barrier; the chosen candidate's removal is that same one
    assert counts["boundary"] == len({tuple(c["component_members"])
                                      for c in report["candidates"]})
    assert counts["removal"] == counts["prepare"] == distinct
    assert list(chosen.members) == report["candidates"][report["chosen_index"]]["members"]
    assert chosen.cost == report["cost"]
    # the repetitions' draw, then the evaluation's blocks, each sized under
    # every distinct candidate; on K40 the candidate leaves the source no
    # edge, so the evaluation draws and sizes nothing
    if net.n == 40:
        assert counts["draw"] == 1 and counts["sizes"] == 0
    else:
        assert counts["draw"] > 1
        assert counts["sizes"] == (counts["draw"] - 1) * report["candidates_distinct"]
    # the sweeps' calls and the regime check's; K40 needs no regime flow
    assert report["flow_calls"] + report["regime_flow_calls"] == counts["flow"]
    assert (report["regime_flow_calls"] == 0) == (net.n == 40)
    # on K40 every sample's {s} is within the limit, so no sweep probes; else
    # one call per round answers every running sweep's probe
    if net.n == 40:
        assert report["flow_calls"] == report["sweep_probes"] == 0
    else:
        assert -(-report["sweep_probes"] // 6) <= report["flow_calls"] < report["sweep_probes"]
    # a repeated candidate carries the estimate scoring it afresh would give
    eval_seed = rng_module.derived_seed(seed, "eval")
    for cand in report["candidates"]:
        est = estimate_infections(net, edge_removal(net, cand["members"]), 50, eval_seed)
        assert (cand["mc_mean"], cand["mc_half_width"]) == (est.mean, est.half_width)
    # the counters repeat, and one copy per flow call makes one call per probe
    _, again = solve_karger(net, budget=budget, p=p, repetitions=6,
                            eval_samples=50, seed=seed)
    assert again == report
    with mock.patch.object(network_module, "FLOW_CELLS", 1):
        _, split = solve_karger(net, budget=budget, p=p, repetitions=6,
                                eval_samples=50, seed=seed)
    assert split["flow_calls"] == split["sweep_probes"] == report["sweep_probes"]
    # the regime check's split too, one call per non-neighbour of a
    # minimum-degree vertex of these connected graphs; nothing else moves
    degree = np.bincount(net.us, minlength=net.n) + np.bincount(net.vs, minlength=net.n)
    assert split["regime_flow_calls"] == net.n - 1 - degree.min()
    assert {**split, "flow_calls": report["flow_calls"],
            "regime_flow_calls": report["regime_flow_calls"]} == report


def test_karger_reports_regime_cut_and_flow_calls():
    """c_min and the regime check's flow calls repeat across reruns; K_n
    needs no flow, a barbell some."""
    barbell = make_network(10, list(itertools.combinations(range(5), 2))
                           + list(itertools.combinations(range(5, 10), 2)) + [(4, 5)],
                           probs=0.5)
    for net, c_min in ((complete_network(8, p=0.5), 7.0), (barbell, 1.0)):
        first, again = (solve_karger(net, budget=1.0, p=0.5, repetitions=2,
                                     eval_samples=20, seed=3)[1] for _ in range(2))
        assert first == again
        regime = sparsification_regime(net, 0.5)
        assert first["c_min"] == regime.c_min == c_min
        assert first["regime_flow_calls"] == regime.flow_calls
        assert (regime.flow_calls > 0) == (net is barbell)


def test_cut_sampling_concentration_smoke():
    # sampled cut sizes concentrate around p * |F| inside the regime
    n, p = 40, 0.9
    net = complete_network(n, p=p)
    regime = sparsification_regime(net, p, d=1.0)
    assert regime.in_regime
    eps = regime.epsilon
    rng = np.random.default_rng(1)
    cuts = []
    for _ in range(20):
        side = {0} | {int(v) for v in rng.choice(np.arange(1, n), size=rng.integers(1, n - 1),
                                                 replace=False)}
        cuts.append(np.array([(net.us[e] in side) != (net.vs[e] in side)
                              for e in range(net.m)]))
    cuts.append(np.array([bool((net.us[e] == 0) ^ (net.vs[e] == 0))
                          for e in range(net.m)]))  # a minimum cut
    keep = sample_keep_matrix(net, 123, 0, 30)
    good = 0
    total = 0
    for cut in cuts:
        f_size = int(cut.sum())
        sampled = keep[:, cut].sum(axis=1)
        ok = np.abs(sampled - p * f_size) <= eps * p * f_size
        good += int(ok.sum())
        total += len(ok)
    assert good / total >= 0.95


# ------------------------------------------------------------- parametric sweep

@st.composite
def sbcc_cases(draw):
    """A small graph (self-loops allowed), a source, a budget and a lambda."""
    n = draw(st.integers(1, 9))
    pairs = [(u, v) for u in range(n) for v in range(u, n)]
    m = draw(st.integers(0, min(len(pairs), 20)))
    edges = draw(st.permutations(pairs))[:m]
    source = draw(st.integers(0, n - 1))
    budget = draw(st.integers(0, 22)) / 2
    lam = draw(st.one_of(st.sampled_from([1e-9, 1 - 1e-9]), st.floats(0.01, 0.99)))
    return n, edges, source, budget, lam


@settings(max_examples=150, deadline=None)
@given(case=sbcc_cases())
@example(case=(4, [(1, 2), (2, 3)], 0, 2.0, 0.5))                  # isolated source
@example(case=(4, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 3)], 1, 1.0, 0.5))  # self-loops
@example(case=(5, [(0, 1), (1, 2), (0, 2), (2, 3), (3, 4)], 0, 0.0, 0.5))  # B = 0
@example(case=(6, [(0, 1), (2, 3), (3, 4), (2, 4), (4, 5)], 3, 1.0, 0.25))  # disconnected
@example(case=(9, list(itertools.combinations(range(9), 2))[:20], 0, 3.0, 1e-9))
@example(case=(9, list(itertools.combinations(range(9), 2))[:20], 0, 3.0, 1 - 1e-9))
@example(case=(1, [(0, 0)], 0, 0.0, 0.5))
# the probe at the first intersection finds a side with another one between it and C = 0
@example(case=(7, [(0, 0), (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (2, 6)], 0, 0.5, 0.5))
def test_min_sbcc_matches_parametric_oracle(case):
    n, edges, source, budget, lam = case
    rooted = make_network(n, edges, source=source)
    with mock.patch.object(sbcc_module, "_minimal_sides",
                           recording_minimal_sides(probed := [])):
        sol = min_sbcc(rooted, budget=budget, lam=lam)
    side, cut, comp, within = parametric_sbcc_oracle(rooted, budget, lam)
    assert within  # the reference, too, always finds a side within budget / lam
    assert sol.component == side
    assert (sol.cut_size, sol.component_size) == (cut, comp)
    assert sol.cut_edges == boundary_of(rooted, side)
    # every probe lies strictly between the ends, which need no flow
    degree = sum(u != v and source in (u, v) for u, v in edges)
    assert sol.probes == len(probed)
    assert all(0 < cap < network_module._SCALE * degree + 1 for cap in probed)


def recording_minimal_sides(probed):
    """``_minimal_sides`` that appends every probed sink capacity to ``probed``."""
    def record(network, source, copies):
        probed.extend(cap for _, _, cap in copies)
        return network_module._minimal_sides(network, source, copies)
    return record


@settings(max_examples=100, deadline=None)
@given(case=sbcc_cases())
@example(case=(4, [(1, 2), (2, 3)], 0, 2.0, 0.5))                  # isolated source
@example(case=(4, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 3)], 1, 1.0, 0.5))  # self-loops
@example(case=(1, [(0, 0)], 0, 0.0, 0.5))
def test_sweep_ends_are_known_without_a_flow(case):
    """At C = 0 the minimal side is the kernel's component of the source; at
    every C above 2^16 deg(s), the sweep's top 2^16 deg(s) + 1 and the
    largest int32 capacity among them, it is {s}."""
    n, edges, source, _, _ = case
    net = make_network(n, edges, source=source)
    degree = sum(u != v and source in (u, v) for u, v in edges)
    above = network_module._SCALE * degree + 1
    every = np.arange(len(network_module._arcs(net)[0]))
    sinks = np.delete(np.arange(n), source)
    (zero, just_above, top), _ = network_module._minimal_sides(
        net, source, [(every, sinks, cap) for cap in (0, above, np.iinfo(np.int32).max)])
    component = source_component_members(net, np.ones((1, net.m), dtype=bool))[0]
    assert zero.tolist() == np.flatnonzero(component).tolist()
    assert just_above.tolist() == top.tolist() == [source]


@pytest.mark.parametrize("leaves", [(1 << 14) - 1, 1 << 14])
def test_sweep_makes_no_flow_at_the_top_for_high_source_degree(leaves):
    """The top, the source's arc capacity 2^16 deg(s) + 1, needs no flow
    however high deg(s) is, below 2^30 or above it: with {s} over the
    budget / lam of leaves / 2, each star makes one probe, where the whole
    star's line meets {s}'s, at 2^16 leaves / leaves."""
    star = star_network(leaves)
    with mock.patch.object(sbcc_module, "_minimal_sides",
                           recording_minimal_sides(probed := [])):
        sol = min_sbcc(star, budget=leaves / 4, lam=0.5)
    assert probed == [network_module._SCALE]
    assert sol.probes == 1
    # the whole star cuts nothing; {s} cuts every leaf
    assert (sol.component, sol.cut_size) == (tuple(range(leaves + 1)), 0)
    assert sol.cut_edges == ()


@pytest.mark.parametrize("leaves", [(1 << 14) - 1, 1 << 14])
def test_sweep_makes_no_flow_when_the_top_qualifies(leaves):
    """With {s} within the budget / lam of 2 leaves, the sweep is done at its
    top: no ``_minimal_sides`` call at all."""
    star = star_network(leaves)
    spy = mock.Mock(side_effect=recording_minimal_sides(probed := []))
    with mock.patch.object(sbcc_module, "_minimal_sides", spy):
        sol = min_sbcc(star, budget=float(leaves), lam=0.5)
    assert spy.call_count == 0 and probed == []
    assert sol.probes == 0
    assert (sol.component, sol.cut_size) == ((0,), leaves)
    assert sol.cut_edges == tuple(range(leaves))


@st.composite
def sbcc_rows(draw):
    """An ``sbcc_cases`` case and kept-edge rows of its graph: random ones,
    one that keeps nothing (an isolated source) and one that keeps all."""
    case = draw(sbcc_cases())
    m = len(case[1])
    rows = draw(st.lists(st.lists(st.booleans(), min_size=m, max_size=m), max_size=4))
    rows = np.array(rows + [[False] * m, [True] * m], dtype=bool).reshape(len(rows) + 2, m)
    return case, rows[draw(st.permutations(range(len(rows))))]


@settings(max_examples=60, deadline=None)
@given(case_rows=sbcc_rows(), cells=st.integers(1, 60))
@example(case_rows=((4, [(0, 0), (0, 1), (1, 1), (1, 2), (2, 3)], 1, 0.0, 0.5),
                    [[True] * 5, [False] * 5, [True, False, True, True, True]]), cells=1)
@example(case_rows=((4, [(1, 2), (2, 3)], 0, 2.0, 0.5), [[True, True]]), cells=1)
@example(case_rows=((1, [(0, 0)], 0, 0.0, 0.5), [[True], [False]]), cells=60)
# {s} cuts 5 and 4 = budget / lam
@example(case_rows=((6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)], 0, 2.0, 0.5),
                    [[True] * 5, [True] * 4 + [False]]), cells=60)
def test_min_sbcc_many_matches_one_at_a_time(case_rows, cells):
    """Each row's sweep gives the answer of min_sbcc on the row's own
    subgraph, with cut edges as ids of the full graph, however the rounds
    split."""
    (n, edges, source, budget, lam), rows = case_rows
    rows = np.asarray(rows, dtype=bool)
    net = make_network(n, edges, source=source)
    alone = []
    for keep in rows:
        kept = np.flatnonzero(keep)
        sub = make_network(n, [edges[e] for e in kept], source=source)
        sol = min_sbcc(sub, budget=budget, lam=lam)
        side, cut, comp, within = parametric_sbcc_oracle(sub, budget, lam)
        assert within
        assert (sol.component, sol.cut_size, sol.component_size) == (side, cut, comp)
        alone.append(dataclasses.replace(sol, cut_edges=tuple(kept[list(sol.cut_edges)].tolist())))
    stacked, calls = min_sbcc_many(net, rows, budget, lam)
    assert stacked == alone
    assert calls == max(sol.probes for sol in alone)
    with mock.patch.object(network_module, "FLOW_CELLS", cells):
        split, split_calls = min_sbcc_many(net, rows, budget, lam)
    assert split == alone
    assert calls <= split_calls <= sum(sol.probes for sol in alone)


@settings(max_examples=100, deadline=None)
@given(case_rows=sbcc_rows())
# {s} cuts 5, 4 = budget / lam and 3
@example(case_rows=((6, [(0, 1), (0, 2), (0, 3), (0, 4), (0, 5)], 0, 2.0, 0.5),
                    [[True] * 5, [True] * 4 + [False], [True] * 3 + [False] * 2]))
# the minimal sides cut 0, 1, 3 and 4: at limits 3 and 1 a side cuts exactly
# the limit, and at limit 1 the pair of sides cutting 3 and 4 needs no probe
@example(case_rows=((7, [(1, 2), (0, 3), (3, 5), (0, 4), (3, 6), (0, 1), (0, 5)], 0, 1.5, 0.5),
                    [[True] * 7, [True] * 6 + [False]]))
@example(case_rows=((7, [(1, 2), (0, 3), (3, 5), (0, 4), (3, 6), (0, 1), (0, 5)], 0, 0.5, 0.5),
                    [[True] * 7]))
# B = 0: the C = 0 side, which cuts nothing, is exactly at the limit
@example(case_rows=((7, [(1, 2), (0, 3), (3, 5), (0, 4), (3, 6), (0, 1), (0, 5)], 0, 0.0, 0.5),
                    [[True] * 7, [False] * 7]))
def test_min_sbcc_many_matches_parametric_oracle(case_rows):
    """Each row's answer is the parametric oracle's on the row's own subgraph.
    A row gets a sweep, a flow copy and a kernel row only when its {s} cuts
    more than budget / lam. Its sweep starts from its C = 0 side, the
    source's component in the row, and its flow copy keeps exactly the
    row's arcs, with every vertex but s a sink. A sweep probes a sink
    capacity only between the two nearest capacities it knows, 0,
    2^16 deg(s) + 1 and its earlier probes, when their minimal sides' cuts
    straddle budget / lam strictly: the smaller side does not qualify and
    the larger one cuts less than the limit, so a side between them could
    still qualify and change the answer."""
    (n, edges, source, budget, lam), rows = case_rows
    rows = np.asarray(rows, dtype=bool)
    net = make_network(n, edges, source=source)
    limit = budget / lam
    degrees = [sum(u != v and source in (u, v) for u, v in (edges[e] for e in np.flatnonzero(keep)))
               for keep in rows]
    over = [r for r, degree in enumerate(degrees) if degree > limit]
    kernel_rows: list[int] = []
    swept: list = []  # (kept-edge row, C = 0 side) of each sweep started
    rounds: list = []  # the flow copies of each _minimal_sides call
    run_sweep = sbcc_module._sweep

    def sweep(network, keep, limit, zero, top):
        swept.append((keep.tolist(), zero.tolist()))
        return run_sweep(network, keep, limit, zero, top)

    def members(network, keep_rows):
        kernel_rows.append(len(keep_rows))
        return source_component_members(network, keep_rows)

    def flows(network, source, copies):
        rounds.append(copies)
        return network_module._minimal_sides(network, source, copies)

    with mock.patch.object(sbcc_module, "_sweep", sweep), \
         mock.patch.object(sbcc_module, "source_component_members", members), \
         mock.patch.object(sbcc_module, "_minimal_sides", flows):
        solutions, calls = min_sbcc_many(net, rows, budget, lam)
    assert [keep for keep, _ in swept] == [rows[r].tolist() for r in over]
    assert kernel_rows == ([len(over)] if over else [])
    assert (calls == 0) == (not rounds)
    # the first round holds the flow copy of every row that probes, in row
    # order
    probing = [r for r in over if solutions[r].probes]
    arc_edges = network_module._arcs(net)[2]
    row_of = {}  # id of a flow copy's arcs -> its row
    for r, (arcs, sinks, _) in zip(probing, rounds[0] if rounds else []):
        assert arcs.tolist() == np.flatnonzero(rows[r][arc_edges]).tolist()
        assert sinks.tolist() == [v for v in range(n) if v != source]
        row_of[id(arcs)] = r
    assert len(row_of) == len(probing) == (len(rounds[0]) if rounds else 0)
    probes_of = {r: [] for r in probing}
    for copies in rounds:
        for arcs, _, cap in copies:
            probes_of[row_of[id(arcs)]].append(cap)
    zero_of = {r: zero for r, (_, zero) in zip(over, swept)}

    for r, (keep, sol, degree) in enumerate(zip(rows, solutions, degrees)):
        caps = probes_of.get(r, [])
        kept = np.flatnonzero(keep)
        sub = make_network(n, [edges[e] for e in kept], source=source)
        side, cut, comp, within = parametric_sbcc_oracle(sub, budget, lam)
        assert within
        assert (sol.component, sol.cut_size, sol.component_size) == (side, cut, comp)
        assert sol.cut_edges == tuple(kept[list(boundary_of(sub, side))].tolist())
        assert sol.probes == len(caps)
        sides = source_sides(sub)
        if r in zero_of:
            assert tuple(zero_of[r]) == minimal_side(sides, 0)[0]
        known = [0, network_module._SCALE * degree + 1]
        for cap in caps:
            below = max(c for c in known if c < cap)
            above = min(c for c in known if c > cap)
            assert minimal_side(sides, below)[1] < limit < minimal_side(sides, above)[1]
            known.append(cap)


def test_sbcc_source_degree_overflow_guard():
    from epictrl import InstanceTooLargeError

    with pytest.raises(InstanceTooLargeError, match=r"degree 32768.*2\^15"):
        min_sbcc(star_network(1 << 15), budget=1.0, lam=0.5)
    # one leaf fewer: the flow value 2^16 * (2^15 - 1) still fits in int32.
    # B / lam = 2^14 < 2^15 - 1, so {s} does not qualify and each row makes
    # its one probe, at C = 2^16, where every side ties and {s} is minimal
    star = star_network((1 << 15) - 1)
    budget = float(1 << 13)
    sol = min_sbcc(star, budget=budget, lam=0.5)
    assert sol.component == tuple(range(star.n))
    assert (sol.cut_size, sol.cut_edges, sol.probes) == (0, (), 1)
    # three copies in one flow network: the total flow exceeds 2^31, each
    # copy's does not
    with mock.patch.object(network_module, "FLOW_CELLS", 1 << 20):
        stacked, calls = min_sbcc_many(star, np.ones((3, star.m), dtype=bool), budget, 0.5)
    assert stacked == [sol] * 3
    assert calls == 1
    # the guard reads each row's source degree, not the full graph's; a copy
    # is over network.FLOW_CELLS, so each row gets its own max flow
    big = star_network(1 << 15)
    rows = np.ones((2, big.m), dtype=bool)
    rows[0, -1] = rows[1, 0] = False
    sols, calls = min_sbcc_many(big, rows, budget, 0.5)
    assert calls == 2
    assert [s.component for s in sols] == [tuple(range(big.n - 1)), (0, *range(2, big.n))]
    assert [(s.cut_size, s.cut_edges, s.probes) for s in sols] == [(0, (), 1)] * 2


def test_karger_report_is_the_same_at_any_evaluation_block_size():
    """The candidates are scored on blocks of 1, 3 and 7 evaluation samples
    (the estimate draws ``kernel_rows`` samples per block) with the same
    report as on one block of 50."""
    net = RANDOM_20
    _, report = solve_karger(net, budget=0.25, p=0.5, repetitions=6, eval_samples=50, seed=48)
    assert report["candidates_distinct"] == 3
    for rows in (1, 3, 7):
        counts = []
        with mock.patch.object(percolate_module, "kernel_rows", lambda network: rows), \
             mock.patch.object(percolate_module, "sample_keep_matrix",
                               recording_draws(sample_keep_matrix, counts)):
            _, blocked = solve_karger(net, budget=0.25, p=0.5, repetitions=6,
                                      eval_samples=50, seed=48)
        # the evaluation's draws; the repetitions' samples are drawn in sbcc
        assert max(counts) == rows and sum(counts) == 50
        assert blocked == report
