import tracemalloc
import warnings

import numpy as np
import pytest

from usdenoise import rng
from usdenoise.rng import raw_words, standard_normal, uniforms


def test_reproducible():
    a = standard_normal((17, 9), seed=1234, draw_index=5)
    b = standard_normal((17, 9), seed=1234, draw_index=5)
    assert a.dtype == np.float32
    assert np.array_equal(a, b)


def test_seed_and_draw_index_change_samples():
    base = standard_normal((64,), seed=7, draw_index=0)
    assert not np.array_equal(base, standard_normal((64,), seed=8, draw_index=0))
    assert not np.array_equal(base, standard_normal((64,), seed=7, draw_index=1))


def test_row_major_layout_independent_of_shape():
    # sample i is a pure function of its flat position, so any reshape of the
    # same element count yields the same values (parallel == sequential)
    flat = standard_normal((24,), seed=42, draw_index=3)
    grid = standard_normal((4, 6), seed=42, draw_index=3)
    assert np.array_equal(flat, grid.reshape(-1))


def test_chunked_fill_equals_one_shot_box_muller():
    n = 2 * rng._NORMAL_CHUNK + 123
    words = raw_words(2 * n, seed=5, draw_index=2)
    u1 = ((words[0::2] >> np.uint64(11)) + np.uint64(1)) * 2.0 ** -53
    u2 = (words[1::2] >> np.uint64(11)) * 2.0 ** -53
    z = np.sqrt(-2.0 * np.log(u1)) * np.cos(2.0 * np.pi * u2)
    got = standard_normal((n,), seed=5, draw_index=2)
    assert np.array_equal(got, z.astype(np.float32))


_M64 = 2 ** 64 - 1
_GAMMA = 0x9E3779B97F4A7C15


def _mix64(z):
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & _M64
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & _M64
    return z ^ (z >> 31)


def _word(seed, draw_index, n):
    # the two formulas of the module docstring, in Python ints
    key = _mix64((seed + _GAMMA * (draw_index + 1)) & _M64)
    return _mix64((key + _GAMMA * (n + 1)) & _M64)


@pytest.mark.parametrize("seed", [0, 2 ** 64 - 1, -12345])
# stream() gives 64-bit indices; a negative index wraps mod 2**64
@pytest.mark.parametrize("draw_index", [0, -20, 2 ** 64 - 1])
def test_words_match_an_independent_splitmix64(seed, draw_index):
    block = 2 * rng._NORMAL_CHUNK                     # words per fill block
    n = 2 * block + 9                                 # three fill blocks
    # every block's first and last words, and the call's ends
    picks = [*range(3), *range(block - 3, block + 3), *range(2 * block - 3, n)]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        uni = uniforms(n, seed, draw_index)
        for offset in (0, block - 5, 2 ** 40):
            words = raw_words(n, seed, draw_index, offset)
            for i in picks:
                assert int(words[i]) == _word(seed, draw_index, offset + i)
    for i in picks:
        assert uni[i] == (_word(seed, draw_index, i) >> 11) * 2.0 ** -53


def test_normal_fill_memory_does_not_grow_with_the_field():
    # the words and doubles are made a block at a time over reused buffers;
    # whole-field temporaries took 20 MiB beyond a 2^20-sample output
    tracemalloc.start()
    try:
        out = standard_normal((1 << 20,), seed=3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak - out.nbytes < 2 * 2 ** 20


def test_moments_are_standard_normal():
    z = standard_normal((200_000,), seed=99).astype(np.float64)
    assert abs(z.mean()) < 0.01
    assert abs(z.var() - 1.0) < 0.02
    assert abs((z ** 3).mean()) < 0.03  # skew


def test_uniforms_cover_unit_interval():
    u = uniforms(100_000, seed=5)
    assert u.min() >= 0.0 and u.max() < 1.0
    assert abs(u.mean() - 0.5) < 0.005
    # all 10 deciles populated
    counts, _ = np.histogram(u, bins=10, range=(0, 1))
    assert counts.min() > 9_000
