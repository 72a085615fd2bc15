"""Deterministic counter-based random sampling.

Every sample is a pure function of ``(seed, draw_index, flat_position)``:

1. a stream key is derived as ``mix64(seed + GAMMA * (draw_index + 1))``,
2. the n-th raw word is ``mix64(key + GAMMA * (n + 1))`` where ``mix64`` is
   the SplitMix64 finalizer,
3. Gaussian samples use the Box-Muller transform on two consecutive words,
   one output sample per word pair, laid out in row-major order.

Because there is no sequential state, parallel evaluation in any order is
bit-identical to sequential evaluation, and any flat range of a field can
be drawn on its own.  Words and ``uniforms`` are exact integer and
power-of-two arithmetic, so they are the same on every machine.  Gaussian
fields go through NumPy's ``log``, which NumPy dispatches by CPU (its
AVX-512 path and libm differ in the last bit on a fraction of inputs), so
they repeat exactly for one NumPy build and CPU dispatch level.

Every draw the package makes is ``(seed, stream(purpose, *keys))``: the
index hashes what the field is for and the integers it is drawn at, so
two purposes, or one purpose at two keys, share a stream with
probability 2^-64.  Indices 0-3 are the phantom scatterers' reserved block.
"""

from __future__ import annotations

import hashlib

import numpy as np

_GAMMA = np.uint64(0x9E3779B97F4A7C15)
_MIX1 = np.uint64(0xBF58476D1CE4E5B9)
_MIX2 = np.uint64(0x94D049BB133111EB)
_U53 = 2.0 ** -53
_TWO_PI = 2.0 * np.pi
# samples per fill block: its two word buffers and two float64 buffers
# (768 KiB) stay in a core's L2 while a block makes its dozen passes
_NORMAL_CHUNK = 1 << 14
_WORD_BLOCK = 2 * _NORMAL_CHUNK
# word n of a block that starts at word s is (key + GAMMA * s) + _STEPS[n]
_STEPS = _GAMMA * np.arange(1, _WORD_BLOCK + 1, dtype=np.uint64)


def stream(purpose: str, *keys) -> int:
    """Draw index of ``purpose`` at the integer ``keys``: the first 8 bytes
    of BLAKE2b over ``repr((purpose, *keys))``, read little-endian."""
    text = repr((purpose, *map(int, keys))).encode()
    return int.from_bytes(hashlib.blake2b(text).digest()[:8], "little")


def _mix64(z: np.ndarray, tmp: np.ndarray) -> None:
    """SplitMix64 finalizer of ``z`` in place; ``tmp`` is scratch of its size."""
    np.right_shift(z, 30, out=tmp)
    z ^= tmp
    z *= _MIX1
    np.right_shift(z, 27, out=tmp)
    z ^= tmp
    z *= _MIX2
    np.right_shift(z, 31, out=tmp)
    z ^= tmp


def _stream_key(seed: int, draw_index: int) -> np.uint64:
    s = np.uint64(seed & 0xFFFFFFFFFFFFFFFF)
    d = np.uint64(draw_index & 0xFFFFFFFFFFFFFFFF)
    with np.errstate(over="ignore"):
        key = np.array([s + _GAMMA * (d + np.uint64(1))])
    _mix64(key, np.empty_like(key))
    return key[0]


def _word_blocks(n: int, seed: int, draw_index: int, offset: int):
    """Words ``offset .. offset+n-1`` of the (seed, draw_index) stream, as
    ``(start, words)`` blocks of at most ``_WORD_BLOCK`` words.

    ``words`` is one reused buffer: each block overwrites the last, and the
    caller may change it in place.
    """
    key = _stream_key(seed, draw_index)
    words = np.empty(min(n, _WORD_BLOCK), dtype=np.uint64)
    tmp = np.empty_like(words)
    for i in range(0, n, _WORD_BLOCK):
        m = min(_WORD_BLOCK, n - i)
        with np.errstate(over="ignore"):
            base = key + _GAMMA * np.uint64((offset + i) & 0xFFFFFFFFFFFFFFFF)
        np.add(_STEPS[:m], base, out=words[:m])
        _mix64(words[:m], tmp[:m])
        yield i, words[:m]


def raw_words(n: int, seed: int, draw_index: int = 0, offset: int = 0) -> np.ndarray:
    """Words ``offset .. offset+n-1`` of the (seed, draw_index) stream."""
    out = np.empty(n, dtype=np.uint64)
    for i, words in _word_blocks(n, seed, draw_index, offset):
        out[i:i + words.size] = words
    return out


def uniforms(n: int, seed: int, draw_index: int = 0) -> np.ndarray:
    """n doubles uniform on [0, 1)."""
    out = np.empty(n, dtype=np.float64)
    for i, words in _word_blocks(n, seed, draw_index, 0):
        np.right_shift(words, 11, out=words)
        np.multiply(words, _U53, out=out[i:i + words.size])
    return out


def _normals(out: np.ndarray, seed: int, draw_index: int, offset: int) -> None:
    """Fill the flat float32 ``out`` with samples ``offset ..
    offset+out.size-1`` of the (seed, draw_index) standard-normal field.

    Samples are made ``_NORMAL_CHUNK`` at a time; each depends only on its
    own two words, so the values do not depend on the blocking.
    """
    u1 = np.empty(min(out.size, _NORMAL_CHUNK))
    u2 = np.empty_like(u1)
    for i, words in _word_blocks(2 * out.size, seed, draw_index, 2 * offset):
        m = words.size // 2
        a, b = u1[:m], u2[:m]
        np.right_shift(words, 11, out=words)
        # u1 in (0, 1] so log() is safe; u2 in [0, 1).  (k + 1) * 2^-53 and
        # k * 2^-53 + 2^-53 are the same double for every k < 2^53.
        np.multiply(words[0::2], _U53, out=a)
        a += _U53
        np.multiply(words[1::2], _U53, out=b)
        np.log(a, out=a)
        a *= -2.0
        np.sqrt(a, out=a)
        b *= _TWO_PI
        np.cos(b, out=b)
        np.multiply(a, b, out=out[i // 2:i // 2 + m])


def standard_normal(shape, seed: int, draw_index: int = 0) -> np.ndarray:
    """Standard-normal field of the given shape (float32, row-major draws)."""
    shape = tuple(int(s) for s in np.atleast_1d(shape))
    n = int(np.prod(shape)) if shape else 1
    out = np.empty(n, dtype=np.float32)
    _normals(out, seed, draw_index, 0)
    return out.reshape(shape)
