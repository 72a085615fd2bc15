"""Deterministic counter-based random sampling.

Every sample is a pure function of ``(seed, draw_index, flat_position)``:

1. a stream key is derived as ``mix64(seed + GAMMA * (draw_index + 1))``,
2. the n-th raw word is ``mix64(key + GAMMA * (n + 1))`` where ``mix64`` is
   the SplitMix64 finalizer,
3. Gaussian samples use the Box-Muller transform on two consecutive words,
   one output sample per word pair, laid out in row-major order.

Because there is no sequential state, parallel evaluation in any order is
bit-identical to sequential evaluation, and the same ``(seed, draw_index,
shape)`` always reproduces the same field.
"""

from __future__ import annotations

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 2.0 ** -53
# samples per pass of standard_normal
_NORMAL_CHUNK = 1 << 18


def _mix64(z: np.ndarray) -> np.ndarray:
    z = (z ^ (z >> np.uint64(30))) * _MIX1
    z = (z ^ (z >> np.uint64(27))) * _MIX2
    return z ^ (z >> np.uint64(31))


def _stream_key(seed: int, draw_index: int) -> np.uint64:
    s = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    d = np.uint64(draw_index & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        return _mix64(np.atleast_1d(s + _GAMMA * (d + np.uint64(1))))[0]


def raw_words(n: int, seed: int, draw_index: int = 0, offset: int = 0) -> np.ndarray:
    """Words ``offset .. offset+n-1`` of the (seed, draw_index) stream."""
    key = _stream_key(seed, draw_index)
    idx = np.arange(offset + 1, offset + n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        return _mix64(key + _GAMMA * idx)


def uniforms(n: int, seed: int, draw_index: int = 0) -> np.ndarray:
    """n doubles uniform on [0, 1)."""
    return (raw_words(n, seed, draw_index) >> np.uint64(11)).astype(np.float64) * _U53


def standard_normal(shape, seed: int, draw_index: int = 0) -> np.ndarray:
    """Standard-normal field of the given shape (float32, row-major draws).

    Filled ``_NORMAL_CHUNK`` samples at a time, so the float64 temporaries
    stay a few MB whatever the shape; every sample depends only on its own
    two words, so the result does not depend on the chunking.
    """
    shape = tuple(int(s) for s in np.atleast_1d(shape))
    n = int(np.prod(shape)) if shape else 1
    out = np.empty(n, dtype=np.float32)
    for i in range(0, n, _NORMAL_CHUNK):
        m = min(_NORMAL_CHUNK, n - i)
        words = raw_words(2 * m, seed, draw_index, offset=2 * i)
        # u1 in (0, 1] so log() is safe; u2 in [0, 1)
        u1 = ((words[0::2] >> np.uint64(11))
              + np.uint64(1)).astype(np.float64) * _U53
        u2 = (words[1::2] >> np.uint64(11)).astype(np.float64) * _U53
        out[i:i + m] = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    return out.reshape(shape)

