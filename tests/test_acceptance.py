"""Acceptance battery: one test per exit criterion, desk scale.

Every test prints a single PASS line (visible under ``pytest -v -s``) and
enforces its stated tolerance; statistical criteria run on fixed seeds so
the whole battery is reproducible bit for bit.
"""

import json
import math
import time

import numpy as np
import pytest

from epictrl import (
    allocation_sum_bound,
    allocation_sum_enumerated,
    allocation_sum_recurrence,
    brute_force_optimum,
    build_lp,
    build_model,
    draw_samples,
    empirical_infections,
    estimate_infections,
    estimate_percolated_paths,
    exact_expected_infections,
    expected_path_count_bound,
    min_sbcc,
    min_sbcc_exact,
    required_sample_count,
    round_deterministic,
    round_randomized,
    solve_karger,
    solve_lp,
    sparsification_regime,
)
from epictrl.cli import main as cli_main
from epictrl.network import boundary_of, write_network
from epictrl.percolate import (
    infection_table,
    keep_rows_to_masks,
    sample_keep_matrix,
)

from conftest import (
    complete_network,
    make_network,
    random_connected_network,
    union_find_component,
)

Z99 = 2.5758293035489004
Z99_ONE_SIDED = 2.3263478740408408


def report(num: int, text: str) -> None:
    print(f"criterion {num:2d} PASS: {text}")


# ------------------------------------------------------------------ 1

def test_criterion_01_percolation_oracle_equivalence():
    t0 = time.perf_counter()
    rng = np.random.default_rng(101)
    hits = 0
    for i in range(50):
        net = random_connected_network(rng, n_lo=3, n_hi=8, max_m=12,
                                       p_mode="random")
        exact = exact_expected_infections(net).mean
        est = estimate_infections(net, None, 100_000, seed=1000 + i)
        sigma = est.half_width / Z99
        if abs(est.mean - exact) <= 4 * max(sigma, 1e-12):
            hits += 1
    elapsed = time.perf_counter() - t0
    assert hits >= 49, f"only {hits}/50 instances inside 4 sigma"
    assert elapsed < 60.0, f"took {elapsed:.1f}s"
    report(1, f"{hits}/50 instances within 4 sigma of the exact oracle "
              f"({elapsed:.1f}s)")


# ------------------------------------------------------------------ 2 & 3

@pytest.fixture(scope="module")
def lp_battery():
    """20 instances with <= 14 removable edges, shared by criteria 2 and 3."""
    rng = np.random.default_rng(202)
    battery = []
    for i in range(20):
        net = random_connected_network(rng, n_lo=4, n_hi=8, max_m=14,
                                       p_mode="random",
                                       unit_costs=bool(i % 2))
        total_cost = float(net.costs.sum())
        budget = max(1.0, round(0.35 * total_cost, 2))
        samples = draw_samples(net, 40, seed=500 + i)
        frac = solve_lp(build_lp(samples, budget))
        best, h_hat = brute_force_optimum(samples, budget)
        battery.append((net, samples, budget, frac, best, h_hat))
    return battery


def test_criterion_02_lp_relaxation_soundness(lp_battery):
    worst = math.inf
    for net, samples, budget, frac, best, h_hat in lp_battery:
        slack = h_hat - (frac.objective + 1.0)
        worst = min(worst, slack)
        assert frac.objective + 1.0 <= h_hat + 1e-6
    report(2, f"LP+1 lower-bounds the empirical optimum on 20/20 instances "
              f"(min slack {worst:.3e})")


def test_criterion_03_deterministic_rounding_guarantees(lp_battery):
    for net, samples, budget, frac, best, h_hat in lp_battery:
        rounded = round_deterministic(frac)
        factor = 4.0 * net.n ** (2.0 / 3.0)
        assert rounded.cost <= factor * budget
        h_rounded = empirical_infections(samples, net, rounded)
        assert h_rounded <= 2.0 * net.n ** (2.0 / 3.0) * h_hat
    report(3, "cost <= 4 n^(2/3) B and quality <= 2 n^(2/3) optimum on "
              "20/20 instances")


# ------------------------------------------------------------------ 4

def big_instance(n=50, m=120, p=0.5, seed=404):
    rng = np.random.default_rng(seed)
    edges = [(int(rng.integers(0, v)), v) for v in range(1, n)]
    chosen = set(edges)
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)
             if (u, v) not in chosen]
    rng.shuffle(pairs)
    edges += pairs[: m - len(edges)]
    return make_network(n, edges, probs=p)


def test_criterion_04_randomized_budget_tail():
    net = big_instance()
    epsilon, gamma, budget = 0.3, 2.0, 10.0
    samples = draw_samples(net, 30, seed=7)
    frac = solve_lp(build_lp(samples, budget))
    cap = (6.0 * (gamma + 5.0) * math.log(net.n) / epsilon) * budget
    good = 0
    costs = []
    for seed in range(200):
        rounded = round_randomized(frac, gamma, epsilon, seed=seed)
        costs.append(rounded.cost)
        if rounded.cost <= cap:
            good += 1
    assert good >= 0.95 * 200, f"{good}/200 under the tail cap"
    report(4, f"{good}/200 roundings under the budget tail cap "
              f"(mean cost {np.mean(costs):.1f}, cap {cap:.0f})")


# ------------------------------------------------------------------ 5

def test_criterion_05_simultaneous_concentration():
    rng = np.random.default_rng(505)
    net = random_connected_network(rng, n_lo=6, n_hi=6, max_m=10,
                                   p_mode="random")
    assert net.m == 10
    epsilon = 0.5
    N = required_sample_count(net.n, net.m, epsilon)
    table = infection_table(net)
    n_subsets = 1 << net.m
    patterns = np.arange(n_subsets, dtype=np.int64)
    # size lookup for (removal set F, kept pattern K): table[K & ~F]
    per_f = np.empty((n_subsets, n_subsets), dtype=np.int64)
    for f in range(n_subsets):
        per_f[f] = table[patterns & ~f]
    weights = np.ones(1)
    for e in range(net.m):
        p = float(net.probs[e])
        weights = np.concatenate([weights * (1 - p), weights * p])
    exact_h = per_f @ weights

    trials_ok = 0
    for t in range(100):
        keep = sample_keep_matrix(net, 99, t * N, N)
        counts = np.bincount(keep_rows_to_masks(keep), minlength=n_subsets)
        emp_h = (per_f @ counts.astype(np.float64)) / N
        if np.all(np.abs(emp_h - exact_h) <= epsilon * exact_h):
            trials_ok += 1
    assert trials_ok >= 99, f"{trials_ok}/100 trials concentrated"
    report(5, f"{trials_ok}/100 trials: all {n_subsets} subsets within "
              f"eps*exact at N={N}")


# ------------------------------------------------------------------ 6

def test_criterion_06_allocation_recurrence_vs_enumeration():
    cells = 0
    for w_min in (1, 2):
        for decay in (1.1, 1.5, 2.0):
            for d in range(w_min, 9):
                for k in range(0, 9):
                    a = allocation_sum_recurrence(d, k, decay, w_min)
                    b = allocation_sum_enumerated(d, k, decay, w_min)
                    assert abs(a - b) <= 1e-10 * max(abs(b), 1e-300), \
                        (w_min, decay, d, k)
                    bound = allocation_sum_bound(d, k, decay, w_min)
                    assert bound >= a * (1 - 1e-12), (w_min, decay, d, k)
                    cells += 1
    witness = allocation_sum_bound(2, 1, 2.0, 1)
    assert witness == pytest.approx(1.25, abs=1e-15)
    assert allocation_sum_recurrence(2, 1, 2.0, 1) == pytest.approx(1.25, abs=1e-15)
    report(6, f"recurrence == enumeration and bound dominates on {cells} "
              f"grid cells; equality witness 1.25 checked")


# ------------------------------------------------------------------ 7

PATH_MODELS = [
    (2.5, 1, 1), (2.5, 1, 2), (2.5, 1, 3), (2.5, 2, 2), (2.5, 2, 3),
    (3.5, 1, 1), (3.5, 1, 2), (3.5, 1, 3), (3.5, 2, 2), (3.5, 2, 3),
]


def test_criterion_07_path_bound_dominates_monte_carlo():
    checked = 0
    for idx, (beta, w_min, w_max) in enumerate(PATH_MODELS):
        model = build_model(10, beta, w_min, w_max)
        census = estimate_percolated_paths(model, p=1.0, trials=2000,
                                           k_max=5, seed=700 + idx)
        for k in range(1, 6):
            lo = census.count(k) - 4.0 * census.half_widths[k - 1]
            bound = expected_path_count_bound(model, k)
            assert lo <= bound, (beta, w_min, w_max, k, lo, bound)
            checked += 1
    report(7, f"analytic bound dominates the Monte Carlo census on "
              f"{checked} (model, k) pairs")


# ------------------------------------------------------------------ 8

def test_criterion_08_phase_transition_signature():
    heavy = build_model(10, 2.5, 1, 3)
    light = build_model(10, 3.5, 1, 3)
    trials = 4000
    a = estimate_percolated_paths(heavy, p=1.0, trials=trials, k_max=5, seed=81)
    b = estimate_percolated_paths(light, p=1.0, trials=trials, k_max=5, seed=82)
    assert np.all(a.counts > 0) and np.all(b.counts > 0)
    ratios = a.counts / b.counts
    for k in range(4):
        # log-ratio difference with delta-method standard error
        diff = math.log(ratios[k + 1]) - math.log(ratios[k])
        se = math.sqrt(sum(
            (c.half_widths[i] / Z99 / c.counts[i]) ** 2
            for c in (a, b) for i in (k, k + 1)
        ))
        assert diff >= -Z99_ONE_SIDED * se, (k, diff, se)
    report(8, "heavy/light tail path-count ratio nondecreasing in k "
              f"at 99% confidence (ratios {np.round(ratios, 2).tolist()})")


# ------------------------------------------------------------------ 9

def test_criterion_09_bounded_cut_contract():
    rng = np.random.default_rng(909)
    instances = 0
    for _ in range(12):
        net = random_connected_network(rng, n_lo=4, n_hi=8, max_m=16,
                                       p_mode=1.0)
        for lam in (0.25, 0.5, 0.75):
            for budget in (1.0, 2.0, 3.0):
                sol = min_sbcc(net, budget=budget, lam=lam)
                assert sol.cut_size <= budget / lam
                _, exact = min_sbcc_exact(net, budget)
                cap = math.ceil(exact / (1.0 - lam))
                assert sol.component_size <= cap, (lam, budget)
                instances += 1
    report(9, f"cut and component contract held on {instances} "
              "(instance, lambda, budget) cells")


# ------------------------------------------------------------------ 10

def test_criterion_10_cut_sampling_end_to_end():
    t0 = time.perf_counter()
    n, p, budget, gamma, lam = 40, 0.9, 40.0, 4.0, 0.5
    net = complete_network(n, p=p)
    regime = sparsification_regime(net, p, d=1.0)
    assert regime.in_regime
    assert regime.epsilon < 1.0
    cap = gamma / ((1.0 - regime.epsilon) * lam) * budget
    good = 0
    for run in range(50):
        iv, rep = solve_karger(net, budget=budget, p=p, gamma=gamma, lam=lam,
                               repetitions=16, eval_samples=200, seed=run)
        if iv.cost <= cap:
            good += 1
        for cand in rep["candidates"]:
            members = union_find_component(net, ~np.isin(np.arange(net.m), cand["members"]))
            assert list(members) == cand["component_members"]
            assert boundary_of(net, members) == tuple(cand["members"])
    elapsed = time.perf_counter() - t0
    assert good >= 45, f"{good}/50 runs under the relaxed budget"
    assert elapsed < 300.0, f"took {elapsed:.1f}s"
    report(10, f"{good}/50 runs within budget bound {cap:.0f}; "
               f"reconstruction consistent in all runs ({elapsed:.1f}s)")


# ------------------------------------------------------------------ 11

def test_criterion_11_node_variant():
    rng = np.random.default_rng(1111)
    budget = 2.0
    for i in range(10):
        net = random_connected_network(rng, n_lo=6, n_hi=12, max_m=16,
                                       p_mode="random")
        samples = draw_samples(net, 40, seed=920 + i)
        frac = solve_lp(build_lp(samples, budget, mode="node"))
        rounded = round_deterministic(frac)
        assert len(rounded.members) <= 4.0 * net.n ** (2.0 / 3.0) * budget
        _, h_hat = brute_force_optimum(samples, budget, mode="node")
        assert frac.objective + 1.0 <= h_hat + 1e-6

    # randomized budget tail, scaled to node counts
    net = random_connected_network(np.random.default_rng(1212),
                                   n_lo=12, n_hi=12, max_m=16, p_mode="random")
    epsilon, gamma = 0.3, 2.0
    samples = draw_samples(net, 40, seed=33)
    frac = solve_lp(build_lp(samples, budget, mode="node"))
    cap = (6.0 * (gamma + 5.0) * math.log(net.n) / epsilon) * budget
    good = sum(
        1 for seed in range(200)
        if round_randomized(frac, gamma, epsilon, seed=seed).cost <= cap
    )
    assert good >= 0.95 * 200
    report(11, f"node mode: rounding bounds and LP soundness on 10 instances; "
               f"{good}/200 randomized roundings under the tail cap")


# ------------------------------------------------------------------ 12

def test_criterion_12_result_file_determinism(tmp_path):
    net = random_connected_network(np.random.default_rng(3), n_lo=6, n_hi=6,
                                   max_m=9, p_mode=0.5)
    graph = tmp_path / "det.tsv"
    write_network(net, graph)
    commands = {
        "saa": ["solve-saa", "--graph", str(graph), "--budget", "2",
                "--epsilon", "0.4", "--gamma", "2", "--rounding", "randomized",
                "--seed", "13", "--samples", "50", "--eval-samples", "200"],
        "karger": ["solve-karger", "--graph", str(graph), "--budget", "2",
                   "--seed", "13", "--reps", "4", "--eval-samples", "100"],
        "paths": ["count-paths", "--n", "9", "--beta", "2.5", "--w-min", "1",
                  "--w-max", "2", "--kmax", "4", "--trials", "200",
                  "--p", "0.5", "--seed", "13"],
        "bounds": ["bounds", "--n", "20", "--beta", "3.5", "--w-min", "1",
                   "--w-max", "3", "--kmax", "5"],
    }
    for name, argv in commands.items():
        out_a = tmp_path / f"{name}_a.json"
        out_b = tmp_path / f"{name}_b.json"
        assert cli_main(argv + ["--output", str(out_a)]) == 0
        assert cli_main(argv + ["--output", str(out_b)]) == 0
        assert out_a.read_bytes() == out_b.read_bytes(), name
        payload = json.loads(out_a.read_text())
        assert payload["schema"] == 1
    report(12, f"byte-identical result files for {len(commands)} commands "
               "re-run with fixed seeds")
