import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epictrl import (
    InstanceTooLargeError,
    ValidationError,
    allocation_sum_bound,
    allocation_sum_enumerated,
    allocation_sum_recurrence,
    build_model,
    count_simple_paths,
    estimate_percolated_paths,
    expected_path_count_bound,
    generate,
)
from epictrl import chunglu
from epictrl import rng as streams
from epictrl.percolate import Z99, mean_half_width

from conftest import complete_network, make_network, path_network


# ------------------------------------------------------------- model build

def test_largest_remainder_apportionment():
    model = build_model(100, 3.0, 1, 4)
    # quotas 84.914, 10.614, 3.145, 1.327 -> floors + seats to classes 1 and 2
    assert model.class_sizes == (85, 11, 3, 1)
    assert sum(model.class_sizes) == 100
    assert model.total_weight == 85 + 22 + 9 + 4
    assert model.expected_edges == model.total_weight / 2


def test_single_class():
    model = build_model(7, 2.5, 3, 3)
    assert model.class_sizes == (7,)
    assert np.all(model.weights == 3)


def test_steep_law_leaves_top_class_empty():
    model = build_model(10, 3.5, 1, 3)
    assert model.class_sizes == (9, 1, 0)
    assert model.total_weight == 11


def test_beta_at_most_two_rejected():
    with pytest.raises(ValidationError):
        build_model(10, 2.0, 1, 3)


def test_range_wider_than_n_rejected():
    with pytest.raises(ValidationError, match="too small"):
        build_model(2, 2.5, 1, 4)


def test_top_pair_probability_above_one_rejected():
    with pytest.raises(ValidationError, match="exceeds 1"):
        build_model(2, 2.5, 3, 3)  # total weight 6 < 3^2


def test_derived_fields():
    model = build_model(50, 3.5, 1, 3)
    assert model.decay_exponent == pytest.approx(1.5)
    assert model.poly_path_regime
    assert not build_model(50, 2.5, 1, 3).poly_path_regime


def test_weights_ascending_by_vertex_id():
    model = build_model(20, 2.5, 1, 3)
    w = model.weights
    assert np.all(np.diff(w) >= 0)
    assert len(w) == 20


# ------------------------------------------------------------- generation

def test_generate_all_pairs_certain():
    # two weight-2 vertices: every pair probability is 4/4 = 1, loops included
    model = build_model(2, 2.5, 2, 2)
    net = generate(model, seed=1)
    assert net.m == 3  # (0,0), (0,1), (1,1)
    assert sorted(net.self_loops) == [0, 2]
    assert net.source == 0  # degrees tie at 1 (loops not counted): smallest id


def test_generate_source_is_not_isolated():
    # the README example; vertex 0 is isolated in this draw
    net = generate(build_model(60, 3.5, 1, 3), seed=7)
    real = net.us != net.vs
    degree = (np.bincount(net.us[real], minlength=net.n)
              + np.bincount(net.vs[real], minlength=net.n))
    assert degree[0] == 0
    assert degree[net.source] == degree.max() > 0
    assert net.source == int(np.flatnonzero(degree == degree.max())[0])


def test_generate_pair_guard(monkeypatch):
    """n(n+1)/2 pairs: at the cap the graph draws, one below it raises."""
    model = build_model(30, 2.5, 1, 3)
    monkeypatch.setattr(chunglu, "PAIR_CAP", 465)
    assert generate(model, seed=9).n == 30
    monkeypatch.setattr(chunglu, "PAIR_CAP", 464)
    with pytest.raises(InstanceTooLargeError, match="n = 30 .*465 .*cap of 464"):
        generate(model, seed=9)


def test_generate_deterministic():
    model = build_model(30, 2.5, 1, 3)
    a, b = generate(model, seed=9), generate(model, seed=9)
    assert np.array_equal(a.us, b.us) and np.array_equal(a.vs, b.vs)


def test_generate_degree_calibration():
    model = build_model(60, 2.5, 1, 3)
    w = model.weights
    seeds = 300
    deg_sum = np.zeros(model.n)
    for s in range(seeds):
        net = generate(model, seed=s)
        for e in range(net.m):
            u, v = int(net.us[e]), int(net.vs[e])
            deg_sum[u] += 1
            if v != u:
                deg_sum[v] += 1
    mean_deg = deg_sum / seeds
    for cls in sorted(set(w.tolist())):
        members = np.flatnonzero(w == cls)
        got = mean_deg[members].mean()
        # Var(deg v) <= E[deg v] = w, so the class-mean sigma is bounded by
        sigma = math.sqrt(cls / (len(members) * seeds))
        assert abs(got - cls) <= 4 * sigma, (cls, got)


def test_generate_edge_count_calibration():
    model = build_model(60, 2.5, 1, 3)
    w = model.weights.astype(float)
    total = model.total_weight
    iu, iv = np.triu_indices(model.n)
    q = w[iu] * w[iv] / total
    exact_mean = q.sum()
    exact_var = (q * (1 - q)).sum()
    seeds = 300
    counts = [generate(model, seed=s).m for s in range(seeds)]
    sigma = math.sqrt(exact_var / seeds)
    assert abs(np.mean(counts) - exact_mean) <= 4 * sigma


# ------------------------------------------------------------- path census

def test_census_triangle():
    census = count_simple_paths(complete_network(3), 3)
    assert census.counts.tolist() == [3, 3, 0]
    assert census.total == 6


def test_census_path():
    census = count_simple_paths(path_network(), 2)
    assert census.counts.tolist() == [2, 1]


def test_census_k4():
    census = count_simple_paths(complete_network(4), 3)
    assert census.counts.tolist() == [6, 12, 12]


def test_census_edgeless():
    net = make_network(4, [(0, 1)], probs=1.0)
    lonely = make_network(4, [], probs=[])
    assert count_simple_paths(lonely, 3).total == 0
    assert count_simple_paths(net, 1).counts.tolist() == [1]


def test_census_ignores_self_loops():
    net = make_network(3, [(0, 0), (0, 1), (1, 2)])
    assert count_simple_paths(net, 2).counts.tolist() == [2, 1]


def test_census_cap():
    with pytest.raises(InstanceTooLargeError):
        count_simple_paths(complete_network(13), 2)


def exact_expected_path_counts(model, k_max):
    """Tuple-sum oracle: E[paths of length k] over graph randomness."""
    w = model.weights.astype(float)
    total = model.total_weight
    out = np.zeros(k_max)
    for k in range(1, k_max + 1):
        acc = 0.0
        for tup in itertools.permutations(range(model.n), k + 1):
            prob = 1.0
            for a, b in zip(tup, tup[1:]):
                prob *= w[a] * w[b] / total
            acc += prob
        out[k - 1] = acc / 2.0  # each undirected path seen from both ends
    return out


def test_estimated_counts_match_tuple_oracle():
    model = build_model(8, 3.5, 1, 2)
    exact = exact_expected_path_counts(model, 3)
    census = estimate_percolated_paths(model, p=1.0, trials=3000, k_max=3, seed=4)
    for k in range(1, 4):
        hw = census.half_widths[k - 1]
        assert abs(census.count(k) - exact[k - 1]) <= 4 * max(hw, 1e-9)


def test_percolation_zero_kills_everything():
    model = build_model(8, 2.5, 1, 2)
    census = estimate_percolated_paths(model, p=0.0, trials=50, k_max=4, seed=0)
    assert census.total == 0.0


def test_percolation_one_single_trial_equals_exact_census():
    model = build_model(9, 2.5, 1, 3)
    census = estimate_percolated_paths(model, p=1.0, trials=1, k_max=4, seed=12)
    direct = count_simple_paths(generate(model, seed=12, index=0), 4)
    assert np.array_equal(census.counts, direct.counts.astype(float))


@pytest.mark.parametrize("p, seed", [(0.35, 3), (0.8, 12), (1.0, 5)])
def test_percolated_trials_equal_census_of_rebuilt_networks(p, seed):
    """Each trial is generate(model, seed, t), thinned by its "pathperc" keep."""
    model = build_model(9, 2.5, 1, 3)
    trials, k_max = 6, 4
    per_trial = []
    for t in range(trials):
        net = generate(model, seed=seed, index=t)
        keep = np.ones(net.m, dtype=bool)
        if p < 1.0:
            keep = streams.generator(seed, "pathperc", t).random(net.m) < p
        kept = make_network(net.n, list(zip(net.us[keep], net.vs[keep])))
        per_trial.append(count_simple_paths(kept, k_max).counts)
    per_trial = np.array(per_trial)
    assert per_trial.sum() > 0
    census = estimate_percolated_paths(model, p=p, trials=trials, k_max=k_max, seed=seed)
    assert np.array_equal(census.counts, per_trial.sum(axis=0) / trials)
    assert census.total == per_trial.sum() / trials
    expected_hw = Z99 * per_trial.std(axis=0, ddof=1) / math.sqrt(trials)
    assert np.allclose(census.half_widths, expected_hw, rtol=1e-9, atol=1e-12)
    totals = per_trial.sum(axis=1)
    assert census.total_half_width == pytest.approx(
        Z99 * totals.std(ddof=1) / math.sqrt(trials), rel=1e-9, abs=1e-12)


def test_census_is_the_shared_monte_carlo_summary():
    """At p = 1 each trial is generate(model, seed, t): the census is
    mean_half_width of the trials' Python-int sums, bit for bit."""
    model = build_model(9, 2.5, 1, 3)
    trials, k_max = 60, 4
    for seed in range(20):
        per_trial = [count_simple_paths(generate(model, seed=seed, index=t), k_max).counts.tolist()
                     for t in range(trials)]
        sums = [sum(col) for col in zip(*per_trial)]
        sq_sums = [sum(c * c for c in col) for col in zip(*per_trial)]
        totals = [sum(counts) for counts in per_trial]
        want = [mean_half_width(s, sq, trials) for s, sq in zip(sums, sq_sums)]
        census = estimate_percolated_paths(model, p=1.0, trials=trials, k_max=k_max, seed=seed)
        assert census.counts.tolist() == [mean for mean, _ in want], seed
        assert census.half_widths.tolist() == [half for _, half in want], seed
        assert (census.total, census.total_half_width) == \
            mean_half_width(sum(totals), sum(t * t for t in totals), trials), seed


def test_two_independent_runs_agree():
    model = build_model(10, 3.5, 1, 2)
    a = estimate_percolated_paths(model, p=0.25, trials=1500, k_max=4, seed=1)
    b = estimate_percolated_paths(model, p=0.25, trials=1500, k_max=4, seed=2)
    spread = math.hypot(a.total_half_width, b.total_half_width)
    assert abs(a.total - b.total) <= max(spread, 1e-9)


# ------------------------------------------------------------- count bound

def test_bound_k1_closed_form():
    model = build_model(30, 2.5, 1, 3)
    m = model.expected_edges
    expected = model.n * (2.0 / m) * sum(
        n_i * (model.w_min + j) ** 2 for j, n_i in enumerate(model.class_sizes)
    )
    assert expected_path_count_bound(model, 1) == pytest.approx(expected, rel=1e-12)


def test_bound_k0_is_n():
    model = build_model(30, 2.5, 1, 3)
    assert expected_path_count_bound(model, 0) == 30.0


def test_bound_k2_matches_direct_vector_sum():
    model = build_model(10, 3.5, 1, 3)  # class sizes (9, 1, 0)
    sizes = model.class_sizes
    total = 0.0
    vectors = [v for v in itertools.product(range(3), repeat=3) if sum(v) == 2]
    assert len(vectors) == 6
    for a in vectors:
        term = 1.0
        for j, aj in enumerate(a):
            term *= math.comb(sizes[j], aj) * (model.w_min + j) ** (2 * aj)
        total += term
    m = model.expected_edges
    expected = model.n * (4.0 * 2.0 / m ** 2) * total  # 2^k k! = 8 at k=2
    assert expected_path_count_bound(model, 2) == pytest.approx(expected, rel=1e-12)


def test_bound_dominates_monte_carlo():
    model = build_model(10, 3.5, 1, 2)
    census = estimate_percolated_paths(model, p=1.0, trials=800, k_max=4, seed=3)
    for k in range(1, 5):
        lo = census.count(k) - 4 * census.half_widths[k - 1]
        assert lo <= expected_path_count_bound(model, k)


# ------------------------------------------------------------- allocations

def test_allocation_base_cases():
    assert allocation_sum_recurrence(1, 2, 2.0, 1) == pytest.approx(0.5)
    assert allocation_sum_recurrence(2, 1, 2.0, 1) == pytest.approx(1.25)
    for d in range(1, 6):
        assert allocation_sum_recurrence(d, 0, 2.0, 1) == 1.0
    assert allocation_sum_enumerated(2, 1, 2.0, 1) == pytest.approx(1.25)
    assert allocation_sum_enumerated(3, 0, 2.0, 1) == 1.0


def test_allocation_recurrence_one_step_by_hand():
    # N(2,1) = N(1,1) + N(1,0) / (2^2 * 1!) = 1 + 0.25
    assert allocation_sum_recurrence(2, 1, 2.0, 1) == pytest.approx(1.25, abs=1e-15)


@settings(max_examples=60, deadline=None)
@given(
    w_min=st.integers(1, 2),
    extra=st.integers(0, 5),
    k=st.integers(0, 6),
    decay=st.sampled_from([1.1, 1.5, 2.0, 0.7]),
)
def test_allocation_recurrence_equals_enumeration(w_min, extra, k, decay):
    d = w_min + extra
    a = allocation_sum_recurrence(d, k, decay, w_min)
    b = allocation_sum_enumerated(d, k, decay, w_min)
    assert a == pytest.approx(b, rel=1e-10)


def test_allocation_bound_dominates_on_grid():
    for w_min in (1, 2):
        for d in range(w_min, 9):
            for k in range(0, 9):
                for decay in (1.1, 1.5, 2.0):
                    val = allocation_sum_recurrence(d, k, decay, w_min)
                    bound = allocation_sum_bound(d, k, decay, w_min)
                    assert bound >= val * (1 - 1e-12), (w_min, d, k, decay)


def test_allocation_bound_equality_witness():
    assert allocation_sum_bound(2, 1, 2.0, 1) == pytest.approx(1.25, abs=1e-15)
    assert allocation_sum_enumerated(2, 1, 2.0, 1) == pytest.approx(1.25, abs=1e-15)


def test_allocation_bound_requires_decay_above_one():
    with pytest.raises(ValidationError):
        allocation_sum_bound(3, 2, 1.0, 1)


def test_allocation_validation():
    with pytest.raises(ValidationError):
        allocation_sum_recurrence(0, 1, 2.0, 1)
    with pytest.raises(ValidationError):
        allocation_sum_recurrence(2, -1, 2.0, 1)
    with pytest.raises(ValidationError):
        allocation_sum_enumerated(1, 2, 0.0, 1)


def test_percolation_ceiling_sweep_monotone_inputs():
    from epictrl.chunglu import estimate_percolation_ceiling

    model = build_model(8, 3.5, 1, 2)
    # generous polynomial: even p = 1 keeps path counts under it
    assert estimate_percolation_ceiling(model, k_max=3, trials=40, seed=1,
                                        poly_coefficient=100.0,
                                        poly_degree=3.0) == 1.0
    # impossible polynomial: nothing qualifies
    assert estimate_percolation_ceiling(model, k_max=3, trials=40, seed=1,
                                        poly_coefficient=1e-9,
                                        poly_degree=0.1) == 0.0


# n^D past float range, then C n^D past it with n^D within
@pytest.mark.parametrize("coeff, degree", [(1.0, 400.0), (1e300, 30.0), (math.nan, 1.0)])
def test_percolation_ceiling_rejects_a_polynomial_outside_float_range(coeff, degree):
    model = build_model(8, 2.5, 1, 2)
    with pytest.raises(ValidationError, match=r"C\*n\^D must be a finite float"):
        chunglu.estimate_percolation_ceiling(model, k_max=3, trials=5, seed=1,
                                             poly_coefficient=coeff, poly_degree=degree)
