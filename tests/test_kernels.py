"""Kernel semantics against direct loops of their documented formulas.

``deposit_pulses`` is checked the same way in ``test_ultrasound.py``.
"""

import math
import warnings

import numpy as np
import pytest

from usdenoise import _kernels
from usdenoise.baselines.nlm import NlmConfig, nlm_denoise
from usdenoise.image import Image2D


def _nlm_per_pixel(padded, height, width, pr, sr, h, sigma):
    m = pr + sr
    out = np.empty((height, width))
    for i in range(height):
        for j in range(width):
            ci, cj = m + i, m + j
            patch = padded[ci - pr:ci + pr + 1, cj - pr:cj + pr + 1]
            acc = wsum = 0.0
            for dy in range(-sr, sr + 1):
                for dx in range(-sr, sr + 1):
                    y, x = ci + dy, cj + dx
                    other = padded[y - pr:y + pr + 1, x - pr:x + pr + 1]
                    d2 = ((patch - other) ** 2).mean()
                    w = math.exp(-max(d2 - 2 * sigma * sigma, 0.0) / (h * h))
                    acc += w * padded[y, x]
                    wsum += w
            out[i, j] = acc / wsum
    return out


@pytest.mark.parametrize("height, width, pr, sr, sigma", [
    pytest.param(12, 12, 1, 3, 0.3, id="12x12"),
    pytest.param(20, 23, 2, 7, 0.3, id="20x23-bench-radii"),
    pytest.param(9, 14, 1, 3, 0.0, id="9x14-sigma0"),
    pytest.param(13, 8, 1, 5, 0.3, id="13x8-window-wider-than-image"),
    pytest.param(21, 20, 3, 2, 0.3, id="21x20-patch-wider-than-window"),
])
def test_nlm_filter_matches_per_pixel_loop(height, width, pr, sr, sigma):
    # each pair of pixels is scored once, over anchors that reach past the
    # outputs by the offset: an off-by-one there moves a weight or a pixel
    rng = np.random.default_rng(0)
    img = rng.normal(size=(height, width))
    padded = np.pad(img, pr + sr, mode="symmetric")
    got = _kernels.nlm_filter(img, pr, sr, 0.9, sigma)
    want = _nlm_per_pixel(padded, height, width, pr, sr, 0.9, sigma)
    assert got.shape == (height, width)
    assert np.abs(got - want).max() < 1e-12


def test_nlm_filter_tiny_h_takes_the_zero_limit():
    # 1/h^2 overflows for h below about 1e-154, and 0 * inf gave NaN weights;
    # the loop's scalar division overflows to inf instead, which is the
    # h -> 0 limit: weight 1 at zero excess, else 0.  Integer pixels make
    # every patch distance exact, so both pick the same patches
    rng = np.random.default_rng(3)
    img = rng.integers(0, 4, size=(12, 12)).astype(np.float64)
    padded = np.pad(img, 4, mode="symmetric")
    got = _kernels.nlm_filter(img, 1, 3, 1e-160, 0.5)
    with np.errstate(over="ignore"):
        want = _nlm_per_pixel(padded, 12, 12, 1, 3, 1e-160, 0.5)
    assert np.isfinite(got).all()
    assert np.abs(got - want).max() < 1e-12
    assert not np.array_equal(got, img)     # some neighbours do get weight 1


def test_nlm_filter_floors_exponents_that_underflow():
    # patch distances far above h^2: exp underflows to subnormals and 0,
    # NumPy's slow path, so the kernel floors its exponents at EXP_FLOOR.
    # The floor's weights are invisible next to each pixel's weight 1
    pr, sr, h, sigma = 1, 2, 0.055, 0.1
    img = np.random.default_rng(6).normal(size=(64, 64)).astype(np.float32)
    padded = np.pad(img.astype(np.float64), pr + sr, mode="symmetric")
    k, m = 2 * pr + 1, pr + sr
    centre = padded[sr:sr + 64 + 2 * pr, sr:sr + 64 + 2 * pr]
    exponents = []
    for dy in range(-sr, sr + 1):
        for dx in range(-sr, sr + 1):
            other = padded[m + dy - pr:m + dy + pr + 64,
                           m + dx - pr:m + dx + pr + 64]
            d2 = np.lib.stride_tricks.sliding_window_view(
                (centre - other) ** 2, (k, k)).mean(axis=(-2, -1))
            exponents.append(-np.maximum(d2 - 2 * sigma * sigma, 0) / h ** 2)
    exponents = np.array(exponents)
    assert (exponents < -745).any() and (exponents > _kernels.EXP_FLOOR).any()
    want = _nlm_per_pixel(padded, 64, 64, pr, sr, h, sigma)
    got = _kernels.nlm_filter(img, pr, sr, h, sigma)
    assert np.abs(got - want).max() < 1e-12
    out = nlm_denoise(Image2D(img), NlmConfig(patch_radius=pr,
                                              search_radius=sr, h=h,
                                              sigma=sigma))
    assert np.array_equal(out.data, want.astype(np.float32))


def _match_brute_force(blocks, ref_rows, ref_cols, search_radius, k):
    py, px, _ = blocks.shape
    out = []
    for ry, rx in zip(ref_rows, ref_cols):
        cand = []
        for y in range(py):
            for x in range(px):
                if max(abs(y - ry), abs(x - rx)) <= search_radius:
                    d = float(((blocks[y, x] - blocks[ry, rx]) ** 2).sum())
                    cand.append((d, y * px + x))
        group = [lin for _, lin in sorted(cand)[:k]]
        if ry * px + rx not in group:
            group[-1] = ry * px + rx
        out.append(group)
    return np.array(out, dtype=np.int64)


def test_match_blocks_matches_brute_force_random_and_degenerate():
    rng = np.random.default_rng(1)
    # the windows clip at all four edges of the 20 x 20 grid, and the
    # references come in shuffled order, more than one chunk of them
    refs = np.array([0, 1, 3, 6, 9, 12, 15, 18, 19], dtype=np.int64)
    order = rng.permutation(refs.size ** 2)
    rr = np.repeat(refs, refs.size)[order]
    cc = np.tile(refs, refs.size)[order]
    assert rr.size > _kernels.MATCH_CHUNK
    noise = rng.normal(size=(20, 20, 16))
    outlier = noise.copy()
    outlier[10, 4] *= 1e30
    cases = [
        (noise, 5, 8),
        # every distance ties, so positions decide and the reference block
        # has to be put back into its own group
        (np.ones((20, 20, 16)), 5, 8),
        (np.round(noise), 5, 8),   # exact ties at non-zero distances
        # near ties: the GEMM's cancellation error on the offset is larger
        # than the gaps between some distances, so its ranking differs
        (1000.0 + np.round(noise) / 10, 5, 8),
        # the GEMM overflows, so every candidate is scored exactly
        (noise * 1e200, 5, 8),
        (noise, 5, 1),
        (noise, 19, 400),          # k is the whole window
        # the float32 prefilter's squares underflow, so it ranks nothing
        (noise * 1e-30, 5, 8),
        # its squares are subnormal: only the absolute term of the
        # tolerance covers their rounding
        (noise * 1e-22, 5, 8),
        # float32 overflows where float64 does not, so the chunks that see
        # such a block are scored exactly
        (noise * 1e25, 5, 8),
        (outlier, 5, 8),
        # cancellation: the offset is 1e6, the distances 1e-2 apart
        (1e6 + np.round(noise) / 10, 5, 8),
    ]
    for blocks, radius, k in cases:
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = _kernels.match_blocks(blocks, rr, cc, radius, k)
        with np.errstate(over="ignore"):
            want = _match_brute_force(blocks, rr, cc, radius, k)
        assert np.array_equal(got, want)


def test_match_blocks_include_self_and_sorted():
    rng = np.random.default_rng(2)
    blocks = np.ascontiguousarray(rng.normal(size=(20, 20, 16)))
    rr = np.array([10], dtype=np.int64)
    cc = np.array([12], dtype=np.int64)
    out = _kernels.match_blocks(blocks, rr, cc, 5, 8)[0]
    assert out[0] == 10 * 20 + 12  # self distance is zero -> first
    ref = blocks[10, 12]
    dists = [((blocks[i // 20, i % 20] - ref) ** 2).sum() for i in out]
    assert all(x <= y + 1e-12 for x, y in zip(dists, dists[1:]))


def test_match_blocks_insufficient_candidates():
    blocks = np.ascontiguousarray(np.zeros((4, 4, 16)))
    with pytest.raises(ValueError):
        _kernels.match_blocks(blocks, np.array([0], dtype=np.int64),
                              np.array([0], dtype=np.int64), 1, 8)


def test_das_sum_matches_per_element_loop_with_out_of_window():
    rng = np.random.default_rng(4)
    n_el, n_s = 16, 256
    rf = rng.normal(size=(n_el, n_s))
    idx = rng.uniform(-10.0, 270.0, size=(n_el, 100))
    # the window edges: both neighbours inside only from 0 to just below n_s-1
    idx[:, :6] = [-0.5, 0.0, 0.25, n_s - 1.5, n_s - 1 - 1e-9, n_s - 1.0]
    want = np.zeros(idx.shape[1])
    for e in range(n_el):
        for p in range(idx.shape[1]):
            i0 = math.floor(idx[e, p])
            if 0 <= i0 and i0 + 1 < n_s:
                f = idx[e, p] - i0
                want[p] += rf[e, i0] * (1.0 - f) + rf[e, i0 + 1] * f
    got = _kernels.das_sum(rf, idx)
    assert np.abs(got - want).max() < 1e-12
    assert np.all(want[[0, 5]] == 0.0) and np.all(want[1:5] != 0.0)


def test_das_sum_non_finite_positions_contribute_zero_without_warning():
    # floor(nan) and floor(+-inf) cast to int64 warned "invalid value
    # encountered in cast" before the window mask dropped them
    rf = np.random.default_rng(5).normal(size=(3, 16))
    idx = np.tile([np.nan, np.inf, -np.inf, 2.25], (3, 1))
    idx[1, 3] = np.nan
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = _kernels.das_sum(rf, idx)
    want = (0.75 * rf[[0, 2], 2] + 0.25 * rf[[0, 2], 3]).sum()
    assert np.array_equal(got[:3], np.zeros(3))
    assert abs(got[3] - want) < 1e-12
