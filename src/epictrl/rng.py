"""Counter-based random streams.

All randomness in the package flows through Philox keyed by
``SeedSequence(seed, spawn_key=...)``. Philox is counter-based, so a stream
position is a pure function of (key, position): results are bit-identical
across runs, platforms, and batch sizes, and independent streams can be
consumed in any order or in parallel. A seed must be a nonnegative
integer: every stream checks it (:func:`check_seed`) and refuses a
negative one with ``ValidationError``.

Percolation uses a fixed layout on top of this: sample ``j`` of a network
with ``m`` edges owns the draw positions ``[j*stride, j*stride + m)`` where
``stride`` pads ``m`` up to whole Philox blocks (4 draws). Edge ``e`` of
sample ``j`` therefore always sees the same uniform for a given seed, no
matter how many samples are drawn or in which batches. Monte Carlo
estimates use this to draw one block of samples at a time, right before
they size it, instead of drawing all N first, and take a block's uniforms
a few rows at a time from one :func:`sample_stream`.
"""

from __future__ import annotations

import numpy as np

from .errors import ValidationError

_BLOCK = 4  # uint64 outputs per Philox counter increment


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


def sample_stream(seed: int, start_index: int, m: int, *path: int | str) -> np.random.Generator:
    """A Generator at the first uniform of sample ``start_index``.

    Sample j of an m-edge network owns the ``stride_for(m)`` uniforms from
    position j * stride, so each (k, stride) block then drawn holds the
    uniforms of the next k samples, row by row, whatever the block sizes;
    the first m of a row are its edges'. A row's contents depend only on
    (seed, path, sample index, edge position).
    """
    bitgen = _philox(seed, *path)
    bitgen.advance(start_index * (stride_for(m) // _BLOCK))
    return np.random.Generator(bitgen)
