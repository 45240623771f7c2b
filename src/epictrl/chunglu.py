"""Power-law random graphs and simple-path counting.

The generator draws each unordered vertex pair (u, v) independently with
probability w_u * w_v / sum(w), where per-vertex weights w follow a power
law with exponent beta: the number of weight-i vertices is proportional to
n / i^beta. Self-loops are generated but epidemiologically inert.

The rest of the module quantifies how many simple paths such graphs carry:
exact enumeration at desk scale, Monte Carlo estimation (optionally after
percolation), an analytic upper bound on the expected number of length-k
paths, and the weight-class allocation sums that certify the bound stays
polynomial when beta > 3.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction

import numpy as np

from . import rng
from .errors import InstanceTooLargeError, ValidationError
from .network import ContactNetwork
from .percolate import mean_half_width

PATH_GRAPH_CAP = 12  # exhaustive path census cap on vertex count
ENUMERATION_CAP = 10_000_000  # max composition vectors for direct sums

# Most vertex pairs, n(n+1)/2, that generate draws. It holds one uniform and
# one probability per pair, ~33 bytes per pair at its peak, so this cap
# (n <= 4095) bounds a draw near 280 MB.
PAIR_CAP = 1 << 23

# Steps of estimate_percolation_ceiling's scan over p in (0, 1].
CEILING_GRID = 20


@dataclass(frozen=True)
class ChungLuModel:
    """Power-law degree-weight specification plus derived quantities."""

    n: int
    beta: float
    w_min: int
    w_max: int
    class_sizes: tuple[int, ...]  # vertices of weight w_min, w_min+1, ..., w_max

    @property
    def weights(self) -> np.ndarray:
        """Per-vertex weights, ascending by vertex id."""
        out = np.empty(self.n, dtype=np.int64)
        pos = 0
        for i, cnt in enumerate(self.class_sizes):
            out[pos:pos + cnt] = self.w_min + i
            pos += cnt
        return out

    @property
    def total_weight(self) -> int:
        return int(sum((self.w_min + i) * c for i, c in enumerate(self.class_sizes)))

    @property
    def expected_edges(self) -> float:
        return self.total_weight / 2.0

    @property
    def decay_exponent(self) -> float:
        """beta - 2: the exponent governing the weight-class allocation sums."""
        return self.beta - 2.0

    @property
    def poly_path_regime(self) -> bool:
        """True when beta > 3, where expected path counts stay polynomial."""
        return self.beta > 3.0


def build_model(n: int, beta: float, w_min: int, w_max: int) -> ChungLuModel:
    """Apportion n vertices across weight classes w_min..w_max.

    Class sizes follow largest-remainder apportionment of quotas
    proportional to 1/i^beta, so they sum to n exactly. Ties in the
    remainders go to the smaller weight class.
    """
    if not 2.0 < beta < math.inf:
        raise ValidationError(
            f"power-law exponent beta must be a finite number above 2, got {beta}")
    if not (1 <= w_min <= w_max):
        raise ValidationError(f"need 1 <= w_min <= w_max, got [{w_min}, {w_max}]")
    if n < 1:
        raise ValidationError("n must be positive")
    classes = list(range(w_min, w_max + 1))
    if n < len(classes):
        raise ValidationError(
            f"n={n} is too small to populate the weight range [{w_min}, {w_max}]"
        )
    raw = np.array([i ** (-beta) for i in classes], dtype=np.float64)
    quotas = n * raw / raw.sum()
    sizes = np.floor(quotas).astype(np.int64)
    remainders = quotas - sizes
    seats = n - int(sizes.sum())
    order = sorted(range(len(classes)), key=lambda j: (-remainders[j], j))
    for j in order[:seats]:
        sizes[j] += 1
    model = ChungLuModel(n=n, beta=beta, w_min=w_min, w_max=w_max,
                         class_sizes=tuple(int(c) for c in sizes))
    # a steep power law may leave top classes empty; check the realized top
    top = max(classes[j] for j in range(len(classes)) if sizes[j] > 0)
    if top * top > model.total_weight:
        raise ValidationError(
            f"pair probability {top}^2 / {model.total_weight} exceeds 1; "
            "shrink w_max or grow n"
        )
    return model


def _pairs(model: ChungLuModel) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Every vertex pair (iu, iv) with iu <= iv and its edge probability q.

    More than ``PAIR_CAP`` pairs raise ``InstanceTooLargeError`` before any
    pair array is allocated.
    """
    pairs = model.n * (model.n + 1) // 2
    if pairs > PAIR_CAP:
        raise InstanceTooLargeError(
            f"n = {model.n} vertices give {pairs} vertex pairs, above the cap of "
            f"{PAIR_CAP} pairs that generate draws at once; use a smaller n"
        )
    w = model.weights.astype(np.float64)
    total = float(model.total_weight)
    iu, iv = np.triu_indices(model.n)
    return iu, iv, w[iu] * w[iv] / total


def generate(model: ChungLuModel, seed: int, index: int = 0) -> ContactNetwork:
    """Draw one graph from the model.

    Each unordered pair (u, v) with u <= v is included independently with
    probability w_u * w_v / total_weight; self-loops are allowed but inert.
    The source is the vertex of highest degree (self-loops not counted),
    smallest id on ties: low-weight vertices, vertex 0 among them, are
    often isolated. Edge costs default to 1 and transmission probabilities
    to 1 (callers set them, e.g. via ``with_uniform_probability``). More
    than ``PAIR_CAP`` vertex pairs raise ``InstanceTooLargeError`` before
    any pair array is allocated.
    """
    iu, iv, q = _pairs(model)
    hit = rng.generator(seed, "chunglu", index).random(len(q)) < q
    us = iu[hit].astype(np.int64)
    vs = iv[hit].astype(np.int64)
    real = us != vs
    degree = np.bincount(us[real], minlength=model.n) + np.bincount(vs[real], minlength=model.n)
    return ContactNetwork(
        n=model.n, us=us, vs=vs,
        costs=np.ones(len(us)), probs=np.ones(len(us)),
        source=int(np.argmax(degree)),
    )


@dataclass(frozen=True)
class PathCensus:
    """Simple-path counts per length, exact or Monte Carlo.

    ``counts[k-1]`` is the (mean) number of undirected simple paths with
    exactly k edges; each unordered vertex sequence is counted once. An
    estimated census's means and 99% half-widths, per length and for the
    total, come from ``percolate.mean_half_width``.
    """

    counts: np.ndarray
    total: float
    mode: str  # "exact" | "estimated"
    half_widths: np.ndarray | None = None
    total_half_width: float | None = None
    trials: int | None = None
    k_max: int = field(default=0)

    def __post_init__(self):
        counts = np.asarray(self.counts, dtype=np.float64)
        counts.setflags(write=False)
        object.__setattr__(self, "counts", counts)
        object.__setattr__(self, "k_max", len(counts))

    def count(self, k: int) -> float:
        if not 1 <= k <= self.k_max:
            raise ValidationError(f"k={k} outside census range 1..{self.k_max}")
        return float(self.counts[k - 1])


def _path_counts(n: int, us: np.ndarray, vs: np.ndarray, k_max: int) -> np.ndarray:
    """Count undirected simple paths over the edges (us[e], vs[e]) by DFS.

    Self-loops are skipped. Every path is walked from both endpoints;
    counting only walks that end at a vertex larger than the start counts
    each path exactly once.
    """
    adj: list[list[int]] = [[] for _ in range(n)]
    for u, v in zip(us.tolist(), vs.tolist()):
        if u != v:
            adj[u].append(v)
            adj[v].append(u)
    counts = [0] * k_max
    visited = [False] * n

    def extend(start: int, u: int, depth: int):
        visited[u] = True
        for v in adj[u]:
            if visited[v]:
                continue
            if v > start:
                counts[depth] += 1
            if depth + 1 < k_max:
                extend(start, v, depth + 1)
        visited[u] = False

    for start in range(n):
        extend(start, start, 0)
    return np.array(counts, dtype=np.int64)


def count_simple_paths(network: ContactNetwork, k_max: int) -> PathCensus:
    """Exact census of undirected simple paths of length 1..k_max.

    Exhaustive DFS; requires n <= 12. Self-loops are excluded, path length
    is the edge count.
    """
    if network.n > PATH_GRAPH_CAP:
        raise InstanceTooLargeError(
            f"exhaustive path census caps at n={PATH_GRAPH_CAP}, got {network.n}"
        )
    if k_max < 1:
        raise ValidationError("k_max must be >= 1")
    counts = _path_counts(network.n, network.us, network.vs, k_max)
    return PathCensus(counts=counts, total=float(counts.sum()), mode="exact")


def estimate_percolated_paths(
    model: ChungLuModel, p: float, trials: int, k_max: int, seed: int
) -> PathCensus:
    """Monte Carlo estimate of expected path counts in percolated graphs.

    Each trial draws a fresh graph from the model (the edge arrays of
    ``generate(model, seed, t)``, with no network built), percolates its
    edges with uniform probability p, and counts simple paths exactly. With
    p = 1 this estimates the generated graphs' own expected counts; the
    census total estimates the expected number of surviving paths. Each
    length's counts and the totals are summed as Python ints and
    summarised by :func:`percolate.mean_half_width`.
    """
    if model.n > PATH_GRAPH_CAP:
        raise InstanceTooLargeError(
            f"exhaustive path census caps at n={PATH_GRAPH_CAP}, got {model.n}"
        )
    if trials < 1:
        raise ValidationError("trials must be >= 1")
    if k_max < 1:
        raise ValidationError("k_max must be >= 1")
    if not 0.0 <= p <= 1.0:
        raise ValidationError(f"percolation probability {p} outside [0, 1]")
    # Python-int sums of x and x^2 for each length k, then for the total
    sums = [0] * (k_max + 1)
    sq_sums = [0] * (k_max + 1)
    iu, iv, q = _pairs(model)
    for t in range(trials):
        hit = rng.generator(seed, "chunglu", t).random(len(q)) < q
        us, vs = iu[hit], iv[hit]
        if p < 1.0:
            keep = rng.generator(seed, "pathperc", t).random(len(us)) < p
            us, vs = us[keep], vs[keep]
        counts = _path_counts(model.n, us, vs, k_max).tolist()
        for k, c in enumerate(counts + [sum(counts)]):
            sums[k] += c
            sq_sums[k] += c * c
    *per_k, (total, total_hw) = (mean_half_width(s, sq, trials) for s, sq in zip(sums, sq_sums))
    means, half_widths = zip(*per_k)
    return PathCensus(counts=means, total=total, mode="estimated",
                      half_widths=np.array(half_widths), total_half_width=total_hw,
                      trials=trials)


def _check_enumeration_size(span: int, k: int) -> None:
    if math.comb(span + k, k) > ENUMERATION_CAP:
        raise InstanceTooLargeError(
            f"composition enumeration too large: C({span + k}, {k}) vectors"
        )


def expected_path_count_bound(model: ChungLuModel, k: int) -> float:
    """Upper bound on the expected number of length-k simple paths.

    The bound is
        n * (2^k k! / m^k) * sum over class allocations a of
            prod_i C(n_i, a(i)) * i^(2 a(i))
    where a allocates the k path vertices among the weight classes and m is
    the expected edge count. That sum is e_k(w_1^2, ..., w_n^2), the k-th
    elementary symmetric polynomial of the squared vertex weights, so with
    m = W/2 for the total weight W the bound is n 4^k k! e_k / W^k. e_k is
    built exactly in Python ints, one class at a time, by convolving with
    the class's coefficients C(n_i, a) i^(2a), a <= k; the float returned is
    the rational's correctly rounded value (0.0 when k > n). A value past
    the float range raises ``ValidationError``.
    """
    if k < 0:
        raise ValidationError("k must be >= 0")
    e = [1] + [0] * k
    for j, size in enumerate(model.class_sizes):
        sq = (model.w_min + j) ** 2
        c = [math.comb(size, a) * sq ** a for a in range(min(k, size) + 1)]
        e = [sum(e[t - a] * c[a] for a in range(min(t, len(c) - 1) + 1))
             for t in range(k + 1)]
    bound = Fraction(model.n * 4 ** k * math.factorial(k) * e[k], model.total_weight ** k)
    try:
        return float(bound)
    except OverflowError:
        raise ValidationError(
            f"the length-{k} path-count bound exceeds the float range; use a smaller k"
        ) from None


def _validate_allocation_args(max_class: int, k: int, decay: float, w_min: int) -> None:
    if w_min < 1:
        raise ValidationError("w_min must be >= 1")
    if max_class < w_min:
        raise ValidationError("max_class must be >= w_min")
    if k < 0:
        raise ValidationError("k must be >= 0")
    if decay <= 0:
        raise ValidationError("decay must be positive")


def _allocation_divisor(i: int, decay: float, a: int) -> float:
    """i^(decay a) a!, or inf once that leaves the float range (its term is 0.0)."""
    try:
        return i ** (decay * a) * math.factorial(a)
    except OverflowError:
        return math.inf


def allocation_sum_recurrence(max_class: int, k: int, decay: float, w_min: int) -> float:
    """Weight-class allocation sum by dynamic programming.

    The quantity is sum over allocations a of k items to classes
    w_min..max_class of prod_i 1 / (i^(decay * a(i)) * a(i)!). It obeys
        N(D, k) = sum_j N(D-1, k-j) / (D^(decay j) j!)
    with base N(w_min, k) = 1 / (w_min^(decay k) k!).
    """
    _validate_allocation_args(max_class, k, decay, w_min)
    prev = [1.0 / _allocation_divisor(w_min, decay, kk) for kk in range(k + 1)]
    for d in range(w_min + 1, max_class + 1):
        div = [_allocation_divisor(d, decay, j) for j in range(k + 1)]
        cur = [0.0] * (k + 1)
        for kk in range(k + 1):
            acc = 0.0
            for j in range(kk + 1):
                acc += prev[kk - j] / div[j]
            cur[kk] = acc
        prev = cur
    return prev[k]


def allocation_sum_enumerated(max_class: int, k: int, decay: float, w_min: int) -> float:
    """The allocation sum by direct enumeration (oracle for the recurrence)."""
    _validate_allocation_args(max_class, k, decay, w_min)
    _check_enumeration_size(max_class - w_min, k)
    terms: list[float] = []

    def walk(i: int, remaining: int, acc: float):
        if i == max_class:
            terms.append(acc / _allocation_divisor(i, decay, remaining))
            return
        for a in range(remaining + 1):
            walk(i + 1, remaining - a, acc / _allocation_divisor(i, decay, a))

    walk(w_min, k, 1.0)
    return math.fsum(terms)


def allocation_sum_bound(max_class: int, k: int, decay: float, w_min: int) -> float:
    """Closed-form upper bound (1/k!) prod_{i=w_min+1}^{D} (1 + i^-decay)^k.

    Valid (dominates the allocation sum) when decay > 1.
    """
    from scipy.special import gammaln

    _validate_allocation_args(max_class, k, decay, w_min)
    if decay <= 1.0:
        raise ValidationError(f"bound requires decay > 1, got {decay}")
    log_val = -float(gammaln(k + 1))
    for i in range(w_min + 1, max_class + 1):
        log_val += k * math.log1p(i ** (-decay))
    return math.exp(log_val)


def estimate_percolation_ceiling(
    model: ChungLuModel,
    k_max: int,
    trials: int,
    seed: int,
    poly_coefficient: float = 1.0,
    poly_degree: float = 1.0,
) -> float:
    """Empirical sweep: the largest uniform p keeping path counts polynomial.

    Scans p = 1/``CEILING_GRID``, 2/``CEILING_GRID``, ..., 1 and returns the
    largest value whose estimated expected surviving-path count stays below
    ``poly_coefficient * n ** poly_degree``. A diagnostic, not a certified
    bound: the true ceiling constant is not extractable in closed form.
    Raises ``ValidationError`` when that polynomial is not a finite float.
    """
    try:
        budget = poly_coefficient * model.n ** poly_degree
    except OverflowError:  # a float power past float range; a product past it is inf
        budget = math.inf
    if not math.isfinite(budget):
        raise ValidationError(
            f"C*n^D must be a finite float, got C = {poly_coefficient}, "
            f"D = {poly_degree} at n = {model.n}"
        )
    best = 0.0
    for g in range(1, CEILING_GRID + 1):
        p = g / CEILING_GRID
        census = estimate_percolated_paths(model, p, trials, k_max, seed)
        if census.total <= budget:
            best = p
        else:
            break
    return best
