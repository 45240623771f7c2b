"""Seeded random streams.

Every stream is named by a user seed and a purpose path and seeded from
``SeedSequence(seed, spawn_key=...)``, so results are bit-identical across
runs and platforms, and distinct paths give independent streams. A seed
must be a nonnegative integer: every stream checks it (:func:`check_seed`)
and refuses a negative one with ``ValidationError``.

Two bit generators serve two kinds of stream. Percolation samples, the
bulk of all draws, come from PCG64DXSM (:func:`sample_stream`), which
yields one double per 64-bit output at under half Philox's cost and jumps
to any position with ``advance``. Sample ``j`` of a network with ``m``
edges owns the draw positions ``[j*m, j*m + m)``, and edge ``e`` of it
the position ``j*m + e``, so it always sees the same uniform for a given
seed, no matter how many samples are drawn or in which batches. Monte
Carlo estimates use this to draw one block of samples at a time, right
before they size it, instead of drawing all N first, and take a block's
uniforms a few rows at a time from one :func:`sample_stream`.

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


def sample_stream(seed: int, start_index: int, m: int, *path: int | str) -> np.random.Generator:
    """A PCG64DXSM Generator at the first uniform of sample ``start_index``.

    Sample j of an m-edge network owns the m uniforms from position j * m,
    and a double takes one position, so each (k, m) block then drawn holds
    the uniforms of the next k samples, row by row, whatever the block
    sizes. A row's contents depend only on (seed, path, sample index, edge
    position).
    """
    bitgen = np.random.PCG64DXSM(_seed_sequence(seed, *path))
    bitgen.advance(start_index * m)
    return np.random.Generator(bitgen)
