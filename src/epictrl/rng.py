"""Counter-based random streams.

All randomness in the package flows through Philox keyed by
``SeedSequence(seed, spawn_key=...)``. Philox is counter-based, so a stream
position is a pure function of (key, position): results are bit-identical
across runs, platforms, and batch sizes, and independent streams can be
consumed in any order or in parallel.

Percolation uses a fixed layout on top of this: sample ``j`` of a network
with ``m`` edges owns the draw positions ``[j*stride, j*stride + m)`` where
``stride`` pads ``m`` up to whole Philox blocks (4 draws). Edge ``e`` of
sample ``j`` therefore always sees the same uniform for a given seed, no
matter how many samples are drawn or in which batches. Monte Carlo
estimates use this to draw one small block of samples at a time, right
before they size it, instead of drawing all N first.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 4  # uint64 outputs per Philox counter increment


def philox_key(seed: int, *path: int | str) -> np.ndarray:
    """Derive a 128-bit Philox key from a user seed and a purpose path.

    Distinct paths (e.g. ("round",) vs ("eval",)) give statistically
    independent streams for the same user seed.
    """
    return _seed_sequence(seed, *path).generate_state(2, np.uint64)


def _seed_sequence(seed: int, *path: int | str) -> np.random.SeedSequence:
    return np.random.SeedSequence(seed, spawn_key=tuple(_encode(p) for p in path))


def _philox(seed: int, *path: int | str) -> np.random.Philox:
    """A Philox bit generator at counter 0, keyed by :func:`philox_key`.

    Seeded with the sequence itself, Philox takes the same two words as its
    key. ``Philox(key=...)`` would also seed an unused sequence from OS
    entropy, about 20 us per call, which blocked draws pay once per block.
    """
    return np.random.Philox(_seed_sequence(seed, *path))


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
    """A fresh Generator on the stream named by (seed, path)."""
    return np.random.Generator(_philox(seed, *path))


def stride_for(m: int) -> int:
    """Per-sample draw stride: m padded to whole Philox blocks."""
    return -(-m // _BLOCK) * _BLOCK


def uniform_block(
    seed: int, start_index: int, count: int, m: int, *path: int | str
) -> np.ndarray:
    """Uniforms for samples ``start_index .. start_index+count-1``.

    Returns a (count, m) float64 array; row i holds the per-edge uniforms of
    sample ``start_index + i``. Row contents depend only on (seed, path,
    sample index, edge position).
    """
    if m == 0:
        return np.empty((count, 0), dtype=np.float64)
    stride = stride_for(m)
    bitgen = _philox(seed, *path)
    bitgen.advance(start_index * (stride // _BLOCK))
    vals = np.random.Generator(bitgen).random((count, stride))
    return vals[:, :m]
