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
matter how many samples are drawn or in which batches.
"""

from __future__ import annotations

import numpy as np

_BLOCK = 4  # uint64 outputs per Philox counter increment


def philox_key(seed: int, *path: int | str) -> np.ndarray:
    """Derive a 128-bit Philox key from a user seed and a purpose path.

    Distinct paths (e.g. ("round",) vs ("eval",)) give statistically
    independent streams for the same user seed.
    """
    spawn = tuple(_encode(p) for p in path)
    return np.random.SeedSequence(seed, spawn_key=spawn).generate_state(2, np.uint64)


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
    return np.random.Generator(np.random.Philox(key=philox_key(seed, *path)))


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
    bitgen = np.random.Philox(key=philox_key(seed, *path))
    bitgen.advance(start_index * (stride // _BLOCK))
    vals = np.random.Generator(bitgen).random((count, stride))
    return vals[:, :m]
