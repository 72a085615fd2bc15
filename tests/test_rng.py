import numpy as np

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
