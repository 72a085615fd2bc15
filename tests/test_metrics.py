import math

import numpy as np
import pytest

from usdenoise.image import Image2D
from usdenoise.metrics import gcnr, mse, psnr


# ------------------------------------------------------------------- MSE

def test_mse_identical_is_zero():
    a = np.random.default_rng(0).normal(size=(16, 16))
    assert mse(a, a.copy()) == 0.0


def test_mse_single_differing_pixel():
    i = np.array([[1.0, 2.0], [3.0, 4.0]])
    k = np.array([[1.0, 2.0], [3.0, 0.0]])
    assert mse(i, k) == pytest.approx(4.0, abs=1e-12)


def test_mse_matches_brute_force():
    rng = np.random.default_rng(1)
    a = rng.normal(size=(23, 31))
    b = rng.normal(size=(23, 31))
    total = 0.0
    for r in range(23):
        for c in range(31):
            total += (a[r, c] - b[r, c]) ** 2
    oracle = total / (23 * 31)
    assert mse(a, b) == pytest.approx(oracle, rel=1e-9)


def test_mse_rejects_dim_mismatch():
    with pytest.raises(ValueError):
        mse(np.zeros((2, 2)), np.zeros((3, 2)))


# ------------------------------------------------------------------ PSNR

def test_psnr_identical_is_infinite():
    a = np.ones((4, 4))
    assert psnr(a, a, max_val=255) == math.inf


def test_psnr_standard_fixture():
    i = np.zeros((8, 8))
    k = np.full((8, 8), 16.0)  # MSE = 256
    # scalar oracle 10*log10(255^2/256) = 24.0484
    assert psnr(i, k, 255.0) == pytest.approx(24.0484, abs=0.001)


def test_psnr_strictly_decreasing_in_mse():
    i = np.zeros((8, 8))
    values = [psnr(i, np.full((8, 8), d), 255.0)
              for d in (1.0, 2.0, 4.0, 8.0, 32.0)]
    assert all(a > b for a, b in zip(values, values[1:]))


def test_psnr_validation():
    with pytest.raises(ValueError):
        psnr(np.zeros((2, 2)), np.zeros((2, 2)), max_val=0.0)


def test_psnr_accepts_image2d():
    i = Image2D(np.zeros((8, 8)))
    k = Image2D(np.full((8, 8), 16 / 255))
    assert psnr(i, k, 1.0) == pytest.approx(24.0484, abs=0.001)


# ------------------------------------------------------------------ GCNR

def _disjoint_masks(shape, n_each):
    m1 = np.zeros(shape, dtype=bool)
    m2 = np.zeros(shape, dtype=bool)
    flat1 = np.arange(n_each)
    flat2 = np.arange(n_each, 2 * n_each)
    m1.reshape(-1)[flat1] = True
    m2.reshape(-1)[flat2] = True
    return m1, m2


def test_gcnr_same_population_near_zero():
    rng = np.random.default_rng(2)
    img = rng.normal(size=(200, 200))
    inside, outside = _disjoint_masks((200, 200), 15_000)
    assert gcnr(img, inside, outside) <= 0.1


def test_gcnr_disjoint_ranges_is_one():
    img = np.zeros((64, 64))
    img[:32] = 5.0
    inside = np.vstack([np.ones((32, 64)), np.zeros((32, 64))]).astype(bool)
    outside = ~inside
    assert gcnr(img, inside, outside) == pytest.approx(1.0, abs=1e-12)


def test_gcnr_uniform_half_overlap():
    # inside U[0,1], outside U[0.5,1.5]: analytic density overlap is 0.5
    n = 10_000
    rng = np.random.default_rng(3)
    img = np.zeros((200, 100))
    vals_in = rng.uniform(0.0, 1.0, n)
    vals_out = rng.uniform(0.5, 1.5, n)
    img.reshape(-1)[:n] = vals_in
    img.reshape(-1)[n:2 * n] = vals_out
    inside, outside = _disjoint_masks((200, 100), n)
    assert gcnr(img, inside, outside) == pytest.approx(0.5, abs=0.05)


def test_gcnr_symmetric():
    rng = np.random.default_rng(4)
    img = rng.normal(size=(100, 100))
    img[:50] += 1.5
    inside = np.vstack([np.ones((50, 100)), np.zeros((50, 100))]).astype(bool)
    outside = ~inside
    a = gcnr(img, inside, outside)
    b = gcnr(img, outside, inside)
    assert a == pytest.approx(b, abs=1e-12)


def test_gcnr_invariant_under_affine_rescale():
    rng = np.random.default_rng(5)
    img = rng.normal(size=(100, 100))
    img[:50] += 1.0
    inside = np.vstack([np.ones((50, 100)), np.zeros((50, 100))]).astype(bool)
    outside = ~inside
    base = gcnr(img, inside, outside)
    for a, b in ((2.0, 0.0), (0.5, 3.0), (10.0, -7.0)):
        assert gcnr(a * img + b, inside, outside) == pytest.approx(base, abs=1e-12)


def test_gcnr_validation():
    img = np.zeros((32, 32))
    small = np.eye(32, dtype=bool)  # 32 pixels -> ok
    tiny = np.zeros((32, 32), dtype=bool)
    tiny[0, :8] = True
    with pytest.raises(ValueError):
        gcnr(img, tiny, ~tiny)
    with pytest.raises(ValueError):
        gcnr(img, small, small)  # overlap


def test_gcnr_constant_image_is_zero():
    img = np.ones((64, 64))
    inside = np.vstack([np.ones((32, 64)), np.zeros((32, 64))]).astype(bool)
    outside = ~inside
    assert gcnr(img, inside, outside) == 0.0

