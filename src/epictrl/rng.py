"""Seeded random streams.

Every stream is named by a user seed and a purpose path and seeded from
``SeedSequence(seed, spawn_key=...)``, so results are bit-identical across
runs and platforms, and distinct paths give independent streams. A seed
must be a nonnegative integer: every stream checks it (:func:`check_seed`)
and refuses a negative one with ``ValidationError``.

Two bit generators serve two kinds of stream. Percolation samples, the
bulk of all draws, come from PCG64DXSM (:func:`sample_stream`), which
jumps to any position with ``advance``, and each of its 64-bit outputs
decides two edges, one 32-bit half each. Sample ``j`` of a network with
``m`` edges owns the ``w = ceil(m/2)`` outputs from position ``j*w``, and
edge ``e`` of it the half ``e % 2`` (low half first) of output
``j*w + e // 2``; for odd ``m`` the high half of a sample's last output
is unused. So an edge always sees the same 32 bits ``k`` for a given
seed, no matter how many samples are drawn or in which batches, and it
is kept when ``k < p_e * 2^32``: with probability ``ceil(p_e * 2^32) /
2^32``, within 2^-32 of ``p_e``. Monte Carlo estimates use this to draw
one block of samples at a time, right before they size it, instead of
drawing all N first, and take a block's outputs a few rows at a time
from one :func:`sample_stream`.

Every other stream (:func:`generator`: Chung-Lu graphs, path percolation,
randomized rounding) stays on counter-based Philox keyed by
:func:`philox_key`: those draws are few, and moving them would change the
graph that ``generate`` writes for a seed, and every instance built on it.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError


def philox_key(seed: int, *path: int | str) -> np.ndarray:
    """Derive a 128-bit Philox key from a user seed and a purpose path.

    Distinct paths (e.g. ("round",) vs ("eval",)) give statistically
    independent streams for the same user seed.
    """
    return _seed_sequence(seed, *path).generate_state(2, np.uint64)


def check_seed(seed: int, name: str = "seed") -> None:
    """Reject a negative seed, which ``SeedSequence`` cannot take; ``name``
    is what the message calls it."""
    if seed < 0:
        raise ValidationError(f"{name} must be a nonnegative integer, got {seed}")


def _seed_sequence(seed: int, *path: int | str) -> np.random.SeedSequence:
    check_seed(seed)
    return np.random.SeedSequence(seed, spawn_key=tuple(_encode(p) for p in path))


def derived_seed(seed: int, *path: int | str) -> int:
    """A 31-bit integer seed for the stream named by (seed, path).

    Solvers use it to seed a second purpose, such as the evaluation draws,
    from the user's seed.
    """
    return int(philox_key(seed, *path)[0] & 0x7FFFFFFF)


def _encode(part: int | str) -> int:
    if isinstance(part, int):
        return part & 0xFFFFFFFF
    # stable, platform-independent string tag
    h = 2166136261
    for b in part.encode("utf-8"):
        h = ((h ^ b) * 16777619) & 0xFFFFFFFF
    return h


def generator(seed: int, *path: int | str) -> np.random.Generator:
    """A fresh Philox Generator at counter 0 on the stream named by (seed,
    path), keyed by :func:`philox_key`.

    Seeded with the sequence itself, Philox takes the same two words as its
    key. ``Philox(key=...)`` would also seed an unused sequence from OS
    entropy, about 20 us per call.
    """
    return np.random.Generator(np.random.Philox(_seed_sequence(seed, *path)))


def sample_stream(seed: int, start_index: int, m: int, *path: int | str) -> np.random.PCG64DXSM:
    """A PCG64DXSM bit generator at the first output of sample ``start_index``.

    Sample j of an m-edge network owns the ceil(m/2) outputs from position
    j * ceil(m/2), two edges an output: edge e reads the 32-bit half e % 2,
    low half first, of output j * ceil(m/2) + e // 2. So each block of k
    rows of ceil(m/2) outputs then drawn with ``random_raw`` holds the bits
    of the next k samples, row by row, whatever the block sizes. A row's
    contents depend only on (seed, path, sample index, edge position).
    """
    bitgen = np.random.PCG64DXSM(_seed_sequence(seed, *path))
    bitgen.advance(start_index * ((m + 1) // 2))
    return bitgen
