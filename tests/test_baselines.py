import tracemalloc
import warnings

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from usdenoise.baselines import (
    Bm3dConfig,
    NlmConfig,
    bm3d_denoise,
    dct2,
    haar1,
    idct2,
    ihaar1,
    nlm_denoise,
)
from usdenoise.baselines import bm3d
from usdenoise.baselines.transforms import dct_matrix, haar_matrix
from usdenoise.image import RANGE_UNIT, Image2D
from usdenoise.metrics import psnr
from usdenoise.ultrasound import speckle_patches


def unit_image(data):
    return Image2D(np.asarray(data, dtype=np.float32), RANGE_UNIT)


def step_edge_fixture(sigma=0.1, seed=0, size=64):
    rng = np.random.default_rng(seed)
    clean = np.full((size, size), 0.2)
    clean[:, size // 2:] = 0.8
    noisy = np.clip(clean + sigma * rng.normal(size=clean.shape), 0.0, 1.0)
    return clean, unit_image(noisy)


# -------------------------------------------------------------- transforms

def test_dct2_constant_block_energy_in_dc():
    for n in (4, 8, 16):
        coeffs = dct2(np.full((n, n), 0.5))
        assert coeffs[0, 0] == pytest.approx(0.5 * n, rel=1e-12)
        coeffs[0, 0] = 0.0
        assert np.abs(coeffs).max() < 1e-12


def test_dct2_round_trip_and_parseval():
    rng = np.random.default_rng(0)
    block = rng.normal(size=(8, 8))
    coeffs = dct2(block)
    assert np.abs(idct2(coeffs) - block).max() <= 1e-5
    assert abs((coeffs ** 2).sum() - (block ** 2).sum()) <= 1e-5 * (block ** 2).sum()


def test_dct2_batched_matches_loop():
    rng = np.random.default_rng(1)
    blocks = rng.normal(size=(5, 3, 8, 8))
    batched = dct2(blocks)
    for i in range(5):
        for j in range(3):
            assert np.allclose(batched[i, j], dct2(blocks[i, j]), atol=1e-12)


def test_haar_four_point_average():
    out = haar1(np.array([1.0, 1.0, 1.0, 1.0]))
    assert np.allclose(out, [2.0, 0.0, 0.0, 0.0], atol=1e-12)


def test_haar_round_trip_and_parseval():
    rng = np.random.default_rng(2)
    stack = rng.normal(size=(16, 8, 8))
    coeffs = haar1(stack)
    assert np.abs(ihaar1(coeffs) - stack).max() <= 1e-5
    assert abs((coeffs ** 2).sum() - (stack ** 2).sum()) <= 1e-5 * (stack ** 2).sum()


def test_haar_rejects_non_power_of_two():
    with pytest.raises(ValueError):
        haar1(np.zeros(6))
    with pytest.raises(ValueError):
        ihaar1(np.zeros(12))
    with pytest.raises(ValueError):
        haar_matrix(6)


def _haar_levels(stack, inverse=False):
    """Level-by-level Haar reference: pairwise (a + b)/sqrt(2) sums over
    (a - b)/sqrt(2) differences, the sums transformed again."""
    out = np.array(stack, dtype=np.float64)
    n = out.shape[0]
    root2 = np.sqrt(2.0)
    sizes = [n >> k for k in range(n.bit_length() - 1)]
    for m in (sizes[::-1] if inverse else sizes):
        half = m // 2
        if inverse:
            a, d = out[:half].copy(), out[half:m].copy()
            out[0:m:2], out[1:m:2] = (a + d) / root2, (a - d) / root2
        else:
            a, b = out[0:m:2].copy(), out[1:m:2].copy()
            out[:half], out[half:m] = (a + b) / root2, (a - b) / root2
    return out


@pytest.mark.parametrize("n", [1, 2, 4, 8, 16])
def test_haar_matches_level_by_level_reference(n):
    # the matrix product sums in another order than the level loop, so the
    # two agree to rounding: within 1e-15 of each column's L2 norm, which
    # an orthonormal transform preserves
    stack = np.random.default_rng(n).normal(size=(n, 3, 8, 8))
    bound = 1e-15 * np.sqrt((stack ** 2).sum(axis=0))
    assert np.all(np.abs(haar1(stack) - _haar_levels(stack)) <= bound)
    assert np.all(np.abs(ihaar1(stack) - _haar_levels(stack, inverse=True))
                  <= bound)


def test_haar_matrix_is_the_orthonormal_basis():
    r = np.sqrt(0.5)
    want = np.array([[0.5, 0.5, 0.5, 0.5],
                     [0.5, 0.5, -0.5, -0.5],
                     [r, -r, 0.0, 0.0],
                     [0.0, 0.0, r, -r]])
    assert np.array_equal(haar_matrix(4), want)


def test_cached_bases_are_read_only():
    # every caller shares the cached array: a write would change them all
    assert not dct_matrix(8).flags.writeable
    assert not haar_matrix(8).flags.writeable


def test_dct_rejects_non_square():
    with pytest.raises(ValueError):
        dct2(np.zeros((4, 8)))


# -------------------------------------------------------------------- NLM

def test_nlm_constant_image_unchanged():
    img = unit_image(np.full((64, 64), 0.37))
    out = nlm_denoise(img, NlmConfig(h=0.1))
    assert np.allclose(out.data, 0.37, atol=1e-6)


def test_nlm_huge_h_approaches_window_mean():
    rng = np.random.default_rng(3)
    img = unit_image(np.clip(0.5 + 0.1 * rng.normal(size=(48, 48)), 0, 1))
    cfg = NlmConfig(patch_radius=2, search_radius=5, h=1e6)
    out = nlm_denoise(img, cfg)
    # independent oracle: plain mean of the search-window centers over the
    # same symmetric padding
    m = cfg.patch_radius + cfg.search_radius
    padded = np.pad(img.data.astype(np.float64), m, mode="symmetric")
    acc = np.zeros((48, 48))
    for dy in range(-5, 6):
        for dx in range(-5, 6):
            acc += padded[m + dy:m + dy + 48, m + dx:m + dx + 48]
    expected = acc / 11 ** 2
    assert np.abs(out.data - expected).max() < 1e-4


def test_nlm_step_edge_gain():
    clean, noisy = step_edge_fixture(sigma=0.1)
    cfg = NlmConfig(patch_radius=2, search_radius=7, h=0.12, sigma=0.1)
    out = nlm_denoise(noisy, cfg)
    gain = psnr(clean, out.data, 1.0) - psnr(clean, noisy.data, 1.0)
    assert gain >= 2.0


def test_nlm_output_range_is_convex():
    rng = np.random.default_rng(4)
    img = unit_image(np.clip(0.5 + 0.2 * rng.normal(size=(40, 40)), 0, 1))
    out = nlm_denoise(img, NlmConfig(h=0.15, sigma=0.1))
    assert out.data.min() >= img.data.min() - 1e-3
    assert out.data.max() <= img.data.max() + 1e-3


def test_nlm_shift_equivariant_interior():
    rng = np.random.default_rng(5)
    base = np.clip(0.5 + 0.15 * rng.normal(size=(81, 81)), 0, 1).astype(np.float32)
    a, b = base[:80, :80], base[1:, 1:]
    cfg = NlmConfig(patch_radius=2, search_radius=7, h=0.12, sigma=0.1)
    na = nlm_denoise(unit_image(a), cfg).data
    nb = nlm_denoise(unit_image(b), cfg).data
    m = 12
    assert np.abs(na[1 + m:80 - m, 1 + m:80 - m]
                  - nb[m:79 - m, m:79 - m]).max() < 1e-5


def test_nlm_deterministic():
    _, noisy = step_edge_fixture()
    cfg = NlmConfig(h=0.12, sigma=0.1)
    a = nlm_denoise(noisy, cfg).data
    b = nlm_denoise(noisy, cfg).data
    assert np.array_equal(a, b)


def test_nlm_rejects_degenerate_config():
    with pytest.raises(ValueError):
        NlmConfig(patch_radius=0)
    with pytest.raises(ValueError):
        NlmConfig(h=0.0)
    with pytest.raises(ValueError):
        nlm_denoise(unit_image(np.zeros((16, 16))), NlmConfig())  # too small


# -------------------------------------------------------------------- BM3D

def test_bm3d_constant_image_unchanged():
    img = unit_image(np.full((64, 64), 0.5))
    out = bm3d_denoise(img, Bm3dConfig(sigma=0.05))
    assert np.allclose(out.data, 0.5, atol=1e-6)


def test_bm3d_underflowing_sigma_keeps_a_flat_image():
    # below sigma ~ 1.5e-162 sigma^2 is 0, and the Wiener shrink of a zero
    # pilot coefficient was 0 / 0
    img = unit_image(np.full((24, 24), 0.5))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        out = bm3d_denoise(img, Bm3dConfig(sigma=1e-200))
    assert np.array_equal(out.data, img.data)


def test_bm3d_huge_sigma_kills_ac():
    rng = np.random.default_rng(6)
    img = unit_image(np.clip(0.5 + 0.1 * rng.normal(size=(64, 64)), 0, 1))
    out = bm3d_denoise(img, Bm3dConfig(sigma=100.0, stages="one"))
    # only per-group DC averages survive
    assert out.data.std() < 0.1 * img.data.std()


def test_bm3d_step_edge_gain():
    clean, noisy = step_edge_fixture(sigma=0.1, seed=7)
    out = bm3d_denoise(noisy, Bm3dConfig(block_size=8, max_matches=16, sigma=0.1))
    gain = psnr(clean, out.data, 1.0) - psnr(clean, noisy.data, 1.0)
    assert gain >= 2.0


def test_bm3d_two_stages_beat_one():
    clean, noisy = step_edge_fixture(sigma=0.12, seed=8)
    one = bm3d_denoise(noisy, Bm3dConfig(sigma=0.12, stages="one"))
    two = bm3d_denoise(noisy, Bm3dConfig(sigma=0.12, stages="two"))
    assert psnr(clean, two.data, 1.0) >= psnr(clean, one.data, 1.0)


def test_bm3d_output_clamped_to_range():
    rng = np.random.default_rng(9)
    img = unit_image(np.clip(0.5 + 0.3 * rng.normal(size=(48, 48)), 0, 1))
    out = bm3d_denoise(img, Bm3dConfig(sigma=0.3))
    assert out.data.min() >= 0.0 and out.data.max() <= 1.0


def test_bm3d_shift_equivariant_interior():
    rng = np.random.default_rng(10)
    base = np.clip(0.5 + 0.15 * rng.normal(size=(81, 81)), 0, 1).astype(np.float32)
    a, b = base[:80, :80], base[1:, 1:]
    cfg = Bm3dConfig(sigma=0.15)
    ba = bm3d_denoise(unit_image(a), cfg).data
    bb = bm3d_denoise(unit_image(b), cfg).data
    m = 24
    assert np.abs(ba[1 + m:80 - m, 1 + m:80 - m]
                  - bb[m:79 - m, m:79 - m]).max() < 0.02


def test_bm3d_deterministic():
    _, noisy = step_edge_fixture(seed=11)
    cfg = Bm3dConfig(sigma=0.1)
    assert np.array_equal(bm3d_denoise(noisy, cfg).data,
                          bm3d_denoise(noisy, cfg).data)


def test_bm3d_rejects_degenerate_config():
    with pytest.raises(ValueError):
        Bm3dConfig(block_size=5)
    with pytest.raises(ValueError):
        Bm3dConfig(max_matches=12)
    with pytest.raises(ValueError, match="search_radius=1 .* max_matches=16"):
        Bm3dConfig(search_radius=1)             # a 3 x 3 window of blocks
    with pytest.raises(ValueError):
        Bm3dConfig(sigma=0.0)
    with pytest.raises(ValueError):
        Bm3dConfig(stages="three")
    with pytest.raises(ValueError):
        bm3d_denoise(unit_image(np.zeros((8, 8))), Bm3dConfig(sigma=0.1))


# ------------------------------------------------- BM3D per-group reference
# One group at a time, each block added into the image by a slice; the
# array-at-a-time stages must give the same image up to summation order.

def _aggregate(acc, wacc, est, weight, ys, xs, b):
    for k in range(est.shape[0]):
        acc[ys[k]:ys[k] + b, xs[k]:xs[k] + b] += weight * est[k]
        wacc[ys[k]:ys[k] + b, xs[k]:xs[k] + b] += weight


def _stage1_per_group(noisy, cfg):
    b = cfg.block_size
    spectra = bm3d._block_spectra(noisy, b)
    matches, px = bm3d._match(spectra, cfg)
    acc = np.zeros_like(noisy)
    wacc = np.zeros_like(noisy)
    thr = cfg.hard_threshold * cfg.sigma
    for lin in matches:
        ys, xs = lin // px, lin % px
        coeffs = haar1(spectra[ys, xs])
        keep = np.abs(coeffs) >= thr
        keep[0, 0, 0] = True                      # group DC always survives
        retained = int(keep.sum())
        est = idct2(ihaar1(np.where(keep, coeffs, 0.0)))
        _aggregate(acc, wacc, est, 1.0 / retained, ys, xs, b)
    return acc / wacc


def _stage2_per_group(noisy, pilot, cfg):
    b = cfg.block_size
    spectra_n = bm3d._block_spectra(noisy, b)
    spectra_p = bm3d._block_spectra(pilot, b)
    matches, px = bm3d._match(spectra_p, cfg)
    acc = np.zeros_like(noisy)
    wacc = np.zeros_like(noisy)
    s2 = cfg.sigma ** 2
    for lin in matches:
        ys, xs = lin // px, lin % px
        p = haar1(spectra_p[ys, xs])
        n = haar1(spectra_n[ys, xs])
        shrink = p * p / (p * p + s2)
        est = idct2(ihaar1(shrink * n))
        weight = 1.0 / max(float((shrink * shrink).sum()), 1e-12)
        _aggregate(acc, wacc, est, weight, ys, xs, b)
    return acc / wacc


def _speckle(height, width, seed):
    return speckle_patches(1, size=max(height, width),
                           seed=seed)[0, :height, :width].astype(np.float64)


@pytest.mark.parametrize("noisy, cfg", [
    (_speckle(64, 64, 1), Bm3dConfig(sigma=0.02)),
    (_speckle(64, 64, 1), Bm3dConfig(sigma=0.2)),
    (np.full((40, 40), 0.5), Bm3dConfig(sigma=0.1)),
    (np.round(_speckle(48, 48, 2) * 20) / 20, Bm3dConfig(sigma=0.05)),
    (_speckle(40, 52, 3), Bm3dConfig(block_size=4, sigma=0.05)),
    (_speckle(48, 48, 4), Bm3dConfig(block_size=16, sigma=0.05)),
    (_speckle(40, 40, 5), Bm3dConfig(max_matches=1, sigma=0.05)),
], ids=["speckle-sigma0.02", "speckle-sigma0.2", "constant", "quantised",
        "block4", "block16", "matches1"])
def test_bm3d_stages_match_per_group_reference(noisy, cfg):
    groups = len(bm3d._ref_positions(noisy.shape[0], cfg.block_size)) * len(
        bm3d._ref_positions(noisy.shape[1], cfg.block_size))
    if noisy.shape == (64, 64):          # more than one chunk, the last short
        assert groups > bm3d.GROUP_CHUNK and groups % bm3d.GROUP_CHUNK
    spectra = bm3d._block_spectra(noisy, cfg.block_size)
    basic = bm3d._stage1(noisy, spectra, cfg)
    assert np.abs(basic - _stage1_per_group(noisy, cfg)).max() <= 1e-12
    final = bm3d._stage2(noisy, spectra, basic, cfg)
    assert np.abs(final - _stage2_per_group(noisy, basic, cfg)).max() <= 1e-12


def test_bm3d_aggregation_memory_does_not_grow_with_the_groups():
    # A filter that returns each group's own pixel blocks at weight 1 must
    # give the image back.  The aggregation's traced peak must stay below
    # half of one whole-image (groups, K, b, b) float64 estimate array, so
    # it cannot hold every group's estimates or pixel indices at once.
    noisy = _speckle(128, 128, 6)
    cfg = Bm3dConfig(sigma=0.1)
    b = cfg.block_size
    matches, px = bm3d._match(bm3d._block_spectra(noisy, b), cfg)
    blocks = sliding_window_view(noisy, (b, b)).reshape(-1, b, b)

    def own_blocks(lin):
        return blocks[lin], np.ones(lin.shape[1])

    tracemalloc.start()
    try:
        out = bm3d._collaborate(noisy.shape, matches, px, b, own_blocks)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert np.allclose(out, noisy, rtol=0, atol=1e-12)
    whole_image_estimates = matches.size * b * b * 8
    assert matches.shape[0] > 20 * bm3d.GROUP_CHUNK
    assert peak < whole_image_estimates / 2
