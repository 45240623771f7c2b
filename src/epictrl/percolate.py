"""Percolation sampling and expected-infection estimation.

The disease process is equivalent to keeping each edge e independently with
probability p_e and counting the vertices reachable from the source. This
module draws such samples reproducibly, estimates the expectation by Monte
Carlo, and computes it exactly by exhaustive enumeration at desk scale.

Sampled rows are sized by the component kernel in ``network``, which
searches 64 samples per machine word, one bit each; on networks with
m <= ``MASK_TABLE_CAP`` edges they are read off a 2^m table that
:func:`infection_table` fills by label merging instead.

A Monte Carlo estimate prepares its removal once (:func:`prepare_removal`)
and then draws, percolates and sizes its samples one block of the kernel,
``network.kernel_rows``, at a time, so no array of all N samples is ever
held; when no prepared removal leaves the source an edge, it draws nothing.
Component-size totals are accumulated as integers, so aggregate results are
exactly independent of accumulation order and of the block size.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import InstanceTooLargeError, ValidationError
from .network import (
    CELLS,
    ContactNetwork,
    Intervention,
    kernel_rows,
    removal_edge_keep,
    source_component_members,
    source_component_sizes,
)

# Largest edge count for which a full 2^m reachability table is built.
MASK_TABLE_CAP = 16

# Kept-edge cells per block of exact-enumeration patterns (1 MB of bools).
# 2^m rows of m cells fit in one block for every m <= MASK_TABLE_CAP.
PATTERN_CELLS = 1 << 20

# z for the 99% two-sided normal half-width used in estimates.
CONFIDENCE = 0.99
Z99 = 2.5758293035489004


@dataclass(frozen=True)
class InfectionEstimate:
    """Expected infections: a mean with a normal-approximation half-width."""

    mean: float
    half_width: float
    num_samples: int
    exact: bool = False
    confidence: float = CONFIDENCE


def sample_keep_matrix(
    network: ContactNetwork, seed: int, start_index: int, count: int
) -> np.ndarray:
    """Kept-edge indicators for samples start_index..start_index+count-1.

    Row i is sample ``start_index + i``; entry e is True when edge e is
    retained. Each row depends only on (seed, sample index, edge id), so
    identical indices reproduce identical rows regardless of batching.
    Edge e of a sample reads its 32-bit half k of the sample stream
    (:func:`rng.sample_stream`) and is kept when k < p_e 2^32, computed as
    k <= ceil(p_e 2^32) - 1 in uint32: with probability ceil(p_e 2^32) /
    2^32, within 2^-32 of p_e. Edges with p_e = 1 are always kept and
    p_e = 0 never: the threshold -1 of p_e = 0 does not fit in uint32, so
    those columns are cleared after the draw. The raw outputs come
    ``CELLS // m`` rows of ceil(m/2) outputs at a time, about 4 ``CELLS``
    bytes, beside the (count, m) result.
    """
    m = network.m
    keep = np.empty((count, m), dtype=bool)
    stream = rng.sample_stream(seed, start_index, m)
    words = (m + 1) // 2
    rows = max(1, CELLS // max(m, 1))
    limits = (np.maximum(np.ceil(network.probs * 2.0**32), 1.0) - 1.0).astype(np.uint32)
    for start in range(0, count, rows):
        out = keep[start:start + rows]
        raw = stream.random_raw(len(out) * words)
        # the halves in little-endian order on any platform: edge 2i is low
        halves = np.asarray(raw, dtype="<u8").view("<u4").reshape(len(out), 2 * words)
        np.less_equal(halves[:, :m], limits, out=out)
    keep[:, network.probs == 0.0] = False
    return keep


def infection_table(network: ContactNetwork) -> np.ndarray:
    """Source-component size for every kept-edge bitmask (m <= 16).

    Entry ``t[mask]`` is the number of vertices reachable from the source
    when exactly the edges whose bits are set in ``mask`` are present.
    Built once per network (cached) by merging component labels over the
    masks, not through the component kernel: the touched vertices (the
    source and the endpoints of non-loop edges, k <= 2m + 1 of them) are
    relabelled 0..k-1, and column ``mask`` of a (k, 2^m) int8 array holds
    each vertex's component label under that mask. A mask whose highest
    bit is e is ``mask - 2^e`` plus edge e, so columns [2^e, 2^(e+1)) are
    columns [0, 2^e) with the classes of e's endpoints merged. Used to
    vectorize Monte Carlo and exhaustive evaluation on small instances.
    """
    cached = network.__dict__.get("_infection_table")
    if cached is not None:
        return cached
    m = network.m
    if m > MASK_TABLE_CAP:
        raise InstanceTooLargeError(
            f"the 2^m mask table needs m <= MASK_TABLE_CAP ({MASK_TABLE_CAP}) edges, got "
            f"m = {m}; component_sizes and estimate_infections run the component kernel "
            f"at any m"
        )
    loops = network.us == network.vs
    touched = np.unique(np.concatenate(
        [[network.source], network.us[~loops], network.vs[~loops]]))
    us = np.searchsorted(touched, network.us)
    vs = np.searchsorted(touched, network.vs)
    labels = np.empty((len(touched), 1 << m), dtype=np.int8)
    labels[:, 0] = np.arange(len(touched))
    for e in range(m):
        out = labels[:, 1 << e:2 << e]
        out[...] = labels[:, :1 << e]
        if not loops[e]:
            np.copyto(out, out[us[e]], where=out == out[vs[e]])
    source = np.searchsorted(touched, network.source)
    table = (labels == labels[source]).sum(axis=0, dtype=np.int64)
    object.__setattr__(network, "_infection_table", table)
    return table


def keep_rows_to_masks(keep_rows: np.ndarray) -> np.ndarray:
    """Pack boolean kept-edge rows into integer bitmasks (edge e = bit e)."""
    m = keep_rows.shape[1]
    weights = (1 << np.arange(m, dtype=np.int64))
    return keep_rows.astype(np.int64) @ weights


def affordable_subsets(
    removal_masks: np.ndarray, costs: np.ndarray, budget: float
) -> tuple[np.ndarray, np.ndarray]:
    """Every subset of the candidates whose summed cost is <= budget.

    Candidate i removes the edges set in ``removal_masks[i]`` and costs
    ``costs[i]`` (nonnegative); budget must be >= 0, so the empty subset
    always fits. Returns ``(picks, removed)``: bit i of ``picks[r]`` is set
    when candidate i is in subset r, and ``removed[r]`` is the OR of its
    members' removal masks. Subsets grow one candidate at a time and only
    rows that still fit are extended; costs are summed in candidate order,
    and a float partial sum of nonnegative costs never decreases, so the
    pruning drops exactly the subsets whose full sum exceeds the budget.
    """
    picks = np.zeros(1, dtype=np.int64)
    removed = np.zeros(1, dtype=np.int64)
    spent = np.zeros(1, dtype=np.float64)
    for i, (mask, cost) in enumerate(zip(removal_masks, costs)):
        fits = spent + cost <= budget
        picks = np.concatenate([picks, picks[fits] | (1 << i)])
        removed = np.concatenate([removed, removed[fits] | int(mask)])
        spent = np.concatenate([spent, spent[fits] + cost])
    return picks, removed


@dataclass(frozen=True)
class PreparedRemoval:
    """A removal made ready to size many blocks of kept-edge rows.

    Rows of the full network are sized on ``network``: the full network
    itself, or the restricted network of the source's component C, whose
    edge j is edge ``edges[j]`` of the full network. The removed edges'
    columns are cleared by ``keep`` (None: none removed), and the rows are
    then sized by the 2^m table of a ``network`` of at most
    ``MASK_TABLE_CAP`` edges, or by the component kernel.
    """

    network: ContactNetwork
    keep: np.ndarray | None = None
    edges: np.ndarray | None = None


def prepare_removal(
    network: ContactNetwork, removed: Intervention | PreparedRemoval | None
) -> PreparedRemoval:
    """Prepare a removal once for :func:`component_sizes` on many blocks.

    Above ``MASK_TABLE_CAP`` edges, a removal that drops edges is evaluated
    only on the source's component C of G - removal, labelled here once: in
    every sample the source's component lies inside C, so the rows are cut
    to the kept edges with an endpoint in C, on C's vertices relabelled
    0..|C|-1, and the sizes are unchanged. When C holds every kept edge
    (say, G - removal is connected apart from removed vertices) the rows
    run on the whole network. When the removal leaves the source no kept
    non-loop edge, C = {s} is known without the kernel. A restricted
    network is sized like any other: by its 2^m table when it has at most
    ``MASK_TABLE_CAP`` edges.
    A removal that is already prepared comes back as it is, so a caller
    that scores one removal in several estimates prepares it once.
    """
    if isinstance(removed, PreparedRemoval):
        return removed
    keep = removal_edge_keep(network, removed)
    if keep.all():
        return PreparedRemoval(network)
    if network.m <= MASK_TABLE_CAP:
        return PreparedRemoval(network, keep=keep)
    s = network.source
    if keep[(network.us == s) != (network.vs == s)].any():
        inside = source_component_members(network, keep[np.newaxis, :])[0]
    else:
        # no kept non-loop edge at the source: C = {s}, with no kernel call
        inside = np.arange(network.n) == s
    # a kept edge with one endpoint in C has both there
    edges = np.flatnonzero(keep & inside[network.us])
    if len(edges) == np.count_nonzero(keep):
        return PreparedRemoval(network, keep=keep)
    relabel = np.cumsum(inside) - 1
    restricted = ContactNetwork(
        n=int(inside.sum()),
        us=relabel[network.us[edges]],
        vs=relabel[network.vs[edges]],
        costs=network.costs[edges],
        probs=network.probs[edges],
        source=int(relabel[network.source]),
    )
    return PreparedRemoval(restricted, edges=edges)


def component_sizes(
    network: ContactNetwork,
    keep_rows: np.ndarray,
    removed: Intervention | PreparedRemoval | None = None,
) -> np.ndarray:
    """Source-component sizes for a batch of samples under an intervention.

    The rows are sized on the source's component of G - removal when that
    is smaller (see :func:`prepare_removal`): by the 2^m reachability table
    when the network sized is small enough, otherwise by the batched
    component kernel. A caller that sizes many blocks under one removal
    passes it prepared.
    """
    keep_rows = np.asarray(keep_rows, dtype=bool)
    if not isinstance(removed, PreparedRemoval):
        removed = prepare_removal(network, removed)
    net = removed.network
    if removed.edges is not None:
        keep_rows = keep_rows[:, removed.edges]
    if removed.keep is not None:
        keep_rows = keep_rows & removed.keep
    if net.m <= MASK_TABLE_CAP:
        return infection_table(net)[keep_rows_to_masks(keep_rows)]
    return source_component_sizes(net, keep_rows)


def check_eval_samples(eval_samples: int) -> None:
    """Reject an evaluation sample count below 1, before a solver runs."""
    if eval_samples < 1:
        raise ValidationError(f"eval_samples must be at least 1, got {eval_samples}")


def estimate_infections(
    network: ContactNetwork,
    intervention: Intervention | PreparedRemoval | None,
    num_samples: int,
    seed: int,
) -> InfectionEstimate:
    """Monte Carlo estimate of expected infections under an intervention.

    Retention and removal commute, so the intervention is applied to each
    sampled subgraph; :func:`estimate_infections_many` of this one removal.
    """
    return estimate_infections_many(network, [intervention], num_samples, seed)[0]


def estimate_infections_many(
    network: ContactNetwork,
    interventions: list[Intervention | PreparedRemoval | None],
    num_samples: int,
    seed: int,
) -> list[InfectionEstimate]:
    """Monte Carlo estimates of several removals on one shared sample stream.

    Each removal is prepared once, and the samples are drawn once, one
    block of the component kernel (``kernel_rows`` of the full network) at
    a time, and sized under every removal, so memory does not grow with
    ``num_samples``; the integer sums make each result the same at any
    block size. A restriction's kernel blocks are at least as large, so a
    block is one kernel block on every path. The half-width is the 99%
    normal-approximation bound from the sample variance.

    When every prepared network has no edge (an edgeless network, or above
    ``MASK_TABLE_CAP`` edges a removal that cuts the source off, C = {s}),
    no sample is drawn: every sample's source component is the source
    alone, size 1 (not ``network.n``: an edgeless network of many vertices
    also gives 1), and the sums of N ones give the drawn path's mean 1.0
    and half-width 0.0 (infinite at N = 1). No removals give no estimates,
    and nothing is drawn.
    """
    if num_samples < 1:
        raise ValidationError("num_samples must be >= 1")
    rng.check_seed(seed)  # also when nothing is drawn
    removals = [prepare_removal(network, intervention) for intervention in interventions]
    if all(removal.network.m == 0 for removal in removals):
        sums = [[num_samples, num_samples] for _ in removals]
    else:
        step = kernel_rows(network)
        sums = [[0, 0] for _ in removals]
        for start in range(0, num_samples, step):
            keep = sample_keep_matrix(network, seed, start, min(step, num_samples - start))
            for removal, total in zip(removals, sums):
                sizes = component_sizes(network, keep, removal)
                total[0] += int(sizes.sum())
                total[1] += int((sizes * sizes).sum())
    return [InfectionEstimate(*mean_half_width(total, total_sq, num_samples), num_samples)
            for total, total_sq in sums]


def mean_half_width(total: int, total_sq: int, num_samples: int) -> tuple[float, float]:
    """Mean and 99% normal half-width from Python-int sums of x and x^2.

    The sample variance's numerator N sum(x^2) - sum(x)^2 is computed
    exactly in integers and divided once by N (N - 1), so the variance is
    correctly rounded at any size of the sums and never negative. This is
    the package's one Monte Carlo summary. The half-width is infinite for a
    single sample.
    """
    mean = total / num_samples
    if num_samples == 1:
        return mean, math.inf
    var = (num_samples * total_sq - total * total) / (num_samples * (num_samples - 1))
    return mean, Z99 * math.sqrt(var / num_samples)


def exact_expected_infections(
    network: ContactNetwork, intervention: Intervention | None = None
) -> InfectionEstimate:
    """Exact expectation by enumerating all retention patterns.

    Deterministic edges (p in {0, 1}, or removed) are fixed; the remaining
    r random edges are enumerated over all 2^r patterns weighted by their
    Bernoulli probabilities. Requires r <= 22. With m <= ``MASK_TABLE_CAP``
    each pattern's bitmask is built by doubling, like its weight, and its
    size read off the 2^m table. Above that the removal is prepared once,
    and the patterns are built as rows and sized ``PATTERN_CELLS // m``
    rows at a time, so memory stays bounded for any m. The sizes fill one
    array and one dot product weights them.
    """
    keep = removal_edge_keep(network, intervention)
    always = keep & (network.probs == 1.0)
    random_ids = np.flatnonzero(keep & (network.probs > 0.0) & ~always)
    r = len(random_ids)
    if r > 22:
        raise InstanceTooLargeError(
            f"exact enumeration caps at 22 random edges (0 < p < 1, not removed), got {r}, "
            f"i.e. 2^{r} patterns; use estimate_infections (Monte Carlo) or an instance "
            f"with fewer random edges"
        )
    # pattern i keeps random edge random_ids[k] iff bit k of i is set
    weights = np.ones(1, dtype=np.float64)
    for e in random_ids:
        p = float(network.probs[e])
        weights = np.concatenate([weights * (1.0 - p), weights * p])
    if network.m <= MASK_TABLE_CAP:
        # each pattern's bitmask, doubled in the order of the weights
        masks = keep_rows_to_masks(always[np.newaxis, :])
        for e in random_ids:
            masks = np.concatenate([masks, masks | (1 << int(e))])
        sizes = infection_table(network)[masks]
    else:
        removal = prepare_removal(network, intervention)
        sizes = np.empty(1 << r, dtype=np.int64)
        step = max(1, PATTERN_CELLS // network.m)
        for start in range(0, 1 << r, step):
            patterns = np.arange(start, min(start + step, 1 << r))
            rows = np.tile(always, (len(patterns), 1))
            for bit, e in enumerate(random_ids):
                rows[:, e] = (patterns >> bit) & 1
            sizes[start:start + len(patterns)] = component_sizes(network, rows, removal)
    mean = float(np.dot(weights, sizes.astype(np.float64)))
    return InfectionEstimate(mean=mean, half_width=0.0, num_samples=1 << r, exact=True)


def empirical_infections(
    samples,
    network: ContactNetwork,
    intervention: Intervention | PreparedRemoval | None = None,
) -> float:
    """Exact average component size over a fixed sample list.

    This is the empirical objective optimized by the sampling pipeline: no
    fresh randomness, integer accumulation, order-insensitive. A SampleSet
    is scored on its distinct restricted rows, weighted by their counts;
    under any removal the source's component lies inside a row's restricted
    scenario, so each size is the drawn scenario's.
    """
    if hasattr(samples, "counts"):  # SampleSet
        if samples.network is not network:
            raise ValidationError("samples were drawn from a different network")
        rows, counts = samples.rows, samples.counts
    else:
        rows = np.asarray(samples, dtype=bool)
        if rows.ndim != 2 or rows.shape[1] != network.m:
            raise ValidationError("keep matrix shape does not match the network")
        counts = np.ones(len(rows), dtype=np.int64)
    if len(rows) == 0:
        raise ValidationError("sample list may not be empty")
    return int(component_sizes(network, rows, intervention) @ counts) / int(counts.sum())
