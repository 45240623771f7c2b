"""Percolation sampling and expected-infection estimation.

The disease process is equivalent to keeping each edge e independently with
probability p_e and counting the vertices reachable from the source. This
module draws such samples reproducibly, estimates the expectation by Monte
Carlo, and computes it exactly by exhaustive enumeration at desk scale.

Component-size totals are accumulated as integers, so aggregate results are
exactly independent of accumulation order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import rng
from .errors import InstanceTooLargeError, ValidationError
from .network import (
    ContactNetwork,
    Intervention,
    removal_edge_keep,
    source_component_sizes,
)

# Largest edge count for which a full 2^m reachability table is built.
MASK_TABLE_CAP = 16

# z for the 99% two-sided normal half-width used in estimates.
CONFIDENCE = 0.99
_Z99 = 2.5758293035489004


@dataclass(frozen=True)
class PercolationSample:
    """One realized subgraph: the kept edge ids of a single draw."""

    kept_edges: tuple[int, ...]
    sample_index: int
    seed: int

    def keep_mask(self, m: int) -> np.ndarray:
        mask = np.zeros(m, dtype=bool)
        mask[list(self.kept_edges)] = True
        return mask


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
    Edges with p_e = 1 are always kept and p_e = 0 never.
    """
    u = rng.uniform_block(seed, start_index, count, network.m)
    return u < network.probs[np.newaxis, :]


def sample_subgraph(network: ContactNetwork, seed: int, index: int = 0) -> PercolationSample:
    """Draw one percolation sample (bit-reproducible for fixed inputs)."""
    keep = sample_keep_matrix(network, seed, index, 1)[0]
    return PercolationSample(
        kept_edges=tuple(int(e) for e in np.flatnonzero(keep)),
        sample_index=index,
        seed=seed,
    )


def infection_table(network: ContactNetwork) -> np.ndarray:
    """Source-component size for every kept-edge bitmask (m <= 16).

    Entry ``t[mask]`` is the number of vertices reachable from the source
    when exactly the edges whose bits are set in ``mask`` are present.
    Built once per network (cached) by running all 2^m masks through the
    component kernel; used to vectorize Monte Carlo and exhaustive
    evaluation on small instances.
    """
    cached = network.__dict__.get("_infection_table")
    if cached is not None:
        return cached
    m = network.m
    if m > MASK_TABLE_CAP:
        raise InstanceTooLargeError(f"mask table needs m <= {MASK_TABLE_CAP}, got {m}")
    masks = np.arange(1 << m, dtype=np.int32)[:, np.newaxis]
    bits = (masks >> np.arange(m, dtype=np.int32)) & 1
    table = source_component_sizes(network, bits.astype(bool))
    object.__setattr__(network, "_infection_table", table)
    return table


def keep_rows_to_masks(keep_rows: np.ndarray) -> np.ndarray:
    """Pack boolean kept-edge rows into integer bitmasks (edge e = bit e)."""
    m = keep_rows.shape[1]
    weights = (1 << np.arange(m, dtype=np.int64))
    return keep_rows.astype(np.int64) @ weights


def intervention_keep_bits(network: ContactNetwork, removed: Intervention | None) -> int:
    """Bitmask of edges that survive an intervention."""
    keep = removal_edge_keep(network, removed)
    return int(keep_rows_to_masks(keep[np.newaxis, :])[0])


def component_sizes(
    network: ContactNetwork,
    keep_rows: np.ndarray,
    removed: Intervention | None = None,
    table: np.ndarray | None = None,
) -> np.ndarray:
    """Source-component sizes for a batch of samples under an intervention.

    Uses the 2^m reachability table when the instance is small enough
    (or one is supplied); otherwise runs the rows through the batched
    component kernel.
    """
    keep_rows = np.asarray(keep_rows, dtype=bool)
    if table is None and network.m <= MASK_TABLE_CAP:
        table = infection_table(network)
    if table is not None:
        masks = keep_rows_to_masks(keep_rows) & intervention_keep_bits(network, removed)
        return table[masks]
    return source_component_sizes(network, keep_rows & removal_edge_keep(network, removed))


def estimate_infections(
    network: ContactNetwork,
    intervention: Intervention | None,
    num_samples: int,
    seed: int,
) -> InfectionEstimate:
    """Monte Carlo estimate of expected infections under an intervention.

    Retention and removal commute, so the intervention is applied to each
    sampled subgraph. The half-width is the 99% normal-approximation bound
    from the sample variance.
    """
    if num_samples < 1:
        raise ValidationError("num_samples must be >= 1")
    batch = 1 << 14
    total = 0
    total_sq = 0
    done = 0
    table = infection_table(network) if network.m <= MASK_TABLE_CAP else None
    while done < num_samples:
        count = min(batch, num_samples - done)
        keep = sample_keep_matrix(network, seed, done, count)
        sizes = component_sizes(network, keep, intervention, table=table)
        total += int(sizes.sum())
        total_sq += int((sizes * sizes).sum())
        done += count
    mean = total / num_samples
    if num_samples > 1:
        var = (total_sq - num_samples * mean * mean) / (num_samples - 1)
        var = max(var, 0.0)
        half = _Z99 * math.sqrt(var / num_samples)
    else:
        half = math.inf
    return InfectionEstimate(mean=mean, half_width=half, num_samples=num_samples)


def _fold_deterministic(network: ContactNetwork, removed: Intervention | None):
    """Split edges into always-kept, never-kept, and random after a removal."""
    keep = removal_edge_keep(network, removed)
    always = keep & (network.probs == 1.0)
    never = (~keep) | (network.probs == 0.0)
    random = keep & ~always & ~never
    return always, np.flatnonzero(random)


def exact_expected_infections(
    network: ContactNetwork, intervention: Intervention | None = None
) -> InfectionEstimate:
    """Exact expectation by enumerating all retention patterns.

    Deterministic edges (p in {0, 1}, or removed) are folded first; the
    remaining r random edges are enumerated over all 2^r patterns weighted
    by their Bernoulli probabilities. Requires r <= 22.
    """
    always, random_ids = _fold_deterministic(network, intervention)
    r = len(random_ids)
    if r > 22:
        raise InstanceTooLargeError(f"exact oracle caps at 22 random edges, got {r}")
    # pattern i keeps random edge random_ids[k] iff bit k of i is set
    weights = np.ones(1, dtype=np.float64)
    for e in random_ids:
        p = float(network.probs[e])
        weights = np.concatenate([weights * (1.0 - p), weights * p])
    if network.m <= MASK_TABLE_CAP:
        base = int(keep_rows_to_masks(always[np.newaxis, :])[0])
        masks = np.full(1, base, dtype=np.int64)
        for e in random_ids:
            masks = np.concatenate([masks, masks | (1 << int(e))])
        sizes = infection_table(network)[masks]
    else:
        rows = np.tile(always, (1 << r, 1))
        for bit, e in enumerate(random_ids):
            on = (np.arange(1 << r) >> bit) & 1
            rows[:, e] = on.astype(bool)
        sizes = source_component_sizes(network, rows)
    mean = float(np.dot(weights, sizes.astype(np.float64)))
    return InfectionEstimate(mean=mean, half_width=0.0, num_samples=1 << r, exact=True)


def empirical_infections(
    samples,
    network: ContactNetwork,
    intervention: Intervention | None = None,
) -> float:
    """Exact average component size over a fixed sample list.

    This is the empirical objective optimized by the sampling pipeline: no
    fresh randomness, integer accumulation, order-insensitive.
    """
    keep_rows = _as_keep_rows(samples, network)
    if len(keep_rows) == 0:
        raise ValidationError("sample list may not be empty")
    sizes = component_sizes(network, keep_rows, intervention)
    return int(sizes.sum()) / len(sizes)


def _as_keep_rows(samples, network: ContactNetwork) -> np.ndarray:
    """Normalize a SampleSet / sample list / boolean matrix to keep rows."""
    if hasattr(samples, "keep_rows"):  # SampleSet
        if samples.network is not network:
            raise ValidationError("samples were drawn from a different network")
        return samples.keep_rows
    if isinstance(samples, np.ndarray):
        if samples.ndim != 2 or samples.shape[1] != network.m:
            raise ValidationError("keep matrix shape does not match the network")
        return samples.astype(bool)
    rows = np.zeros((len(samples), network.m), dtype=bool)
    for i, s in enumerate(samples):
        ids = list(s.kept_edges)
        if ids and (min(ids) < 0 or max(ids) >= network.m):
            raise ValidationError("sample references edges outside this network")
        rows[i, ids] = True
    return rows
