import heapq
import itertools
import math

import numpy as np
import pytest

from epictrl import (
    InstanceTooLargeError,
    SolverError,
    ValidationError,
    brute_force_optimum,
    build_lp,
    draw_samples,
    edge_removal,
    empirical_infections,
    merge_seeds,
    required_sample_count,
    round_deterministic,
    round_randomized,
    separated_sets,
    solve_lp,
    solve_saa,
)
from epictrl.saa import FractionalSolution

from conftest import (
    brute_force_reference,
    complete_network,
    make_network,
    path_network,
    star_network,
    random_connected_network,
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

def test_draw_samples_deterministic_and_full():
    net = path_network(p=1.0)
    ss = draw_samples(net, 1, seed=0)
    assert ss.sample(0).kept_edges == (0, 1)
    again = draw_samples(net, 1, seed=0)
    assert np.array_equal(ss.keep_rows, again.keep_rows)


def test_draw_samples_binomial_presence():
    net = make_network(2, [(0, 1)], probs=0.3)
    ss = draw_samples(net, 1000, seed=5)
    count = int(ss.keep_rows.sum())
    sigma = math.sqrt(1000 * 0.3 * 0.7)
    assert abs(count - 300) <= 4 * sigma


# ------------------------------------------------------------- LP building

def test_lp_path_hand_solution():
    net = path_network(p=1.0)
    ss = draw_samples(net, 1, seed=1)
    frac = solve_lp(build_lp(ss, budget=1.0))
    assert frac.objective == pytest.approx(0.0, abs=1e-9)
    assert frac.x[0] == pytest.approx(1.0, abs=1e-7)
    assert frac.y[0, 1] == pytest.approx(1.0, abs=1e-7)
    assert frac.y[0, 2] == pytest.approx(1.0, abs=1e-7)


def test_lp_empty_samples_objective_zero():
    net = path_network(p=0.0)
    ss = draw_samples(net, 3, seed=1)
    frac = solve_lp(build_lp(ss, budget=1.0))
    assert frac.objective == pytest.approx(0.0, abs=1e-9)
    assert np.all(frac.y[:, 1:] >= 1.0 - 1e-9)


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
    adj = net.adjacency(keep_row)
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
        ss = draw_samples(net, 12, seed=int(rng.integers(1 << 30)))
        frac = solve_lp(build_lp(ss, budget=2.0, mode=mode))
        for j in range(ss.N):
            want = dijkstra_capped(net, ss.keep_rows[j], frac.x, mode)
            got = frac.y[j].copy()
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


# ------------------------------------------------------------- rounding

def craft_fraction(net, x_values, budget=1.0, mode="edge", N=1):
    ss = draw_samples(net, N, seed=0)
    model = build_lp(ss, budget=budget, mode=mode)
    width = net.m if mode == "edge" else net.n
    x = np.zeros(width)
    for ent, val in x_values.items():
        x[ent] = val
    y = np.zeros((N, net.n))
    return FractionalSolution(model=model, x=x, y=y, objective=0.0,
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
        net = net.with_source(int(rng.integers(0, net.n)))
        node_costs = rng.uniform(0.0, 2.0, size=net.n)
        cases.append((draw_samples(net, int(rng.integers(1, 9)), seed=i), node_costs,
                      (0.0, float(rng.uniform(0.0, 4.0)), 100.0)))
    # 0.1 + 0.2 > 0.3 in binary floats: the pair fits only the second budget;
    # the merged meta-source adds infinite-cost edges, the loop is inert
    boundary = make_network(5, [(0, 1), (0, 2), (1, 3), (2, 3), (3, 4), (4, 4)], probs=0.7,
                            costs=[0.1, 0.2, 0.3, 0.1, 0.2, 0.1])
    node_costs = np.array([0.1, 0.2, 0.0, 0.1, 0.3, 0.2])
    for net in (boundary, merge_seeds(boundary, [0, 3])):
        cases.append((draw_samples(net, 6, seed=8), node_costs[:net.n],
                      (0.3, 0.1 + 0.2, 0.6, 0.1 + 0.2 + 0.3)))
    for samples, node_costs, budgets in cases:
        for budget in budgets:
            for mode, costs in (("edge", None), ("node", node_costs), ("node", None)):
                best, h = brute_force_optimum(samples, budget, mode=mode, node_costs=costs)
                total, members = brute_force_reference(samples, budget, mode, costs)
                assert (best.members, h) == (members, total / samples.N), (mode, budget)


@pytest.mark.parametrize("budget", [-1.0, math.nan])
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


# ------------------------------------------------------------- hit sets

def test_separated_sets_threshold_extremes():
    net = path_network(p=1.0)
    ss = draw_samples(net, 1, seed=1)
    frac = solve_lp(build_lp(ss, budget=1.0))
    assert separated_sets(frac, ss, 0.5) == [frozenset({1, 2})]
    low_y = FractionalSolution(model=frac.model, x=frac.x,
                               y=np.full_like(frac.y, 0.2), objective=0.0,
                               solver_status="optimal")
    assert separated_sets(low_y, ss, 0.999) == [frozenset()]


def test_separated_sets_contains_disconnected_vertices():
    net = path_network(p=0.0)
    ss = draw_samples(net, 2, seed=1)
    frac = solve_lp(build_lp(ss, budget=1.0))
    sets = separated_sets(frac, ss, 0.05)
    assert all({1, 2} <= s for s in sets)


def test_separated_sets_validation():
    net = path_network(p=1.0)
    ss = draw_samples(net, 1, seed=1)
    frac = solve_lp(build_lp(ss, budget=1.0))
    other = draw_samples(net, 1, seed=2)
    with pytest.raises(ValidationError):
        separated_sets(frac, other, 0.5)


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


def test_solve_saa_report_is_deterministic():
    net = path_network(p=0.5)
    _, a = solve_saa(net, budget=1.0, epsilon=0.4, seed=3,
                     num_samples=30, eval_samples=100)
    _, b = solve_saa(net, budget=1.0, epsilon=0.4, seed=3,
                     num_samples=30, eval_samples=100)
    a.pop("runtime_ms")
    b.pop("runtime_ms")
    assert a == b


def test_solve_saa_source_accounting():
    net = path_network(p=0.5)
    iv, report = solve_saa(net, budget=1.0, epsilon=0.4, seed=3,
                           num_samples=30, eval_samples=10)
    ss = draw_samples(net, 30, seed=3, epsilon=0.4)
    assert report["empirical_infections"] == empirical_infections(ss, net, iv)
    assert report["empirical_infections"] >= 1.0


def test_solve_saa_node_mode_never_selects_source(rng):
    net = random_connected_network(rng, n_lo=5, n_hi=7, max_m=10, p_mode=0.6)
    iv, _ = solve_saa(net, budget=2.0, epsilon=0.4, mode="node",
                      rounding="randomized", gamma=2.0, seed=1,
                      num_samples=30, eval_samples=10)
    assert net.source not in iv.members
