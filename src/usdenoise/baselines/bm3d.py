"""Block-matching 3-D collaborative filtering.

Stage 1 groups the most similar blocks per reference position, applies a
2-D DCT per block plus a 1-D Haar transform across the stack, hard-
thresholds everything except the group DC, and aggregates the inverse-
transformed blocks weighted by the inverse retained-coefficient count.
Stage 2 repeats the grouping on the stage-1 pilot and applies empirical
Wiener shrinkage to the noisy coefficients.

Because both transforms are orthonormal, block matching runs directly in
the DCT domain (distances are preserved), which lets all block spectra be
precomputed once.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from usdenoise import _kernels
from usdenoise.baselines.transforms import dct2, haar1, idct2, ihaar1
from usdenoise.image import Image2D

REF_STEP = 3  # reference-block stride; < block_size so every pixel is covered


@dataclass(frozen=True)
class Bm3dConfig:
    block_size: int = 8
    max_matches: int = 16
    search_radius: int = 19
    hard_threshold: float = 2.7   # multiples of sigma
    sigma: float = 0.1
    stages: str = "two"

    def __post_init__(self):
        if self.block_size not in (4, 8, 16):
            raise ValueError("block size must be 4, 8, or 16")
        k = self.max_matches
        if k < 1 or k & (k - 1):
            raise ValueError("max_matches must be a power of two")
        if self.search_radius < 1:
            raise ValueError("search radius must be >= 1")
        if not self.sigma > 0:
            raise ValueError("sigma must be positive")
        if not self.hard_threshold > 0:
            raise ValueError("hard threshold must be positive")
        if self.stages not in ("one", "two"):
            raise ValueError("stages must be 'one' or 'two'")


def _block_spectra(img: np.ndarray, b: int) -> np.ndarray:
    """DCT of every b x b block; shape (Py, Px, b, b)."""
    return dct2(sliding_window_view(img, (b, b)))


def _ref_positions(n: int, b: int) -> np.ndarray:
    last = n - b
    pos = list(range(0, last + 1, REF_STEP))
    if pos[-1] != last:
        pos.append(last)
    return np.asarray(pos, dtype=np.int64)


def _match(spectra: np.ndarray, cfg: Bm3dConfig):
    py, px = spectra.shape[:2]
    rows = _ref_positions(py + cfg.block_size - 1, cfg.block_size)
    cols = _ref_positions(px + cfg.block_size - 1, cfg.block_size)
    ref_rows = np.repeat(rows, cols.size)
    ref_cols = np.tile(cols, rows.size)
    flat = np.ascontiguousarray(spectra.reshape(py, px,
                                                cfg.block_size ** 2))
    matches = _kernels.match_blocks(flat, ref_rows, ref_cols,
                                    cfg.search_radius, cfg.max_matches)
    return matches, px


def _aggregate(acc, wacc, est, weight, ys, xs, b):
    for k in range(est.shape[0]):
        acc[ys[k]:ys[k] + b, xs[k]:xs[k] + b] += weight * est[k]
        wacc[ys[k]:ys[k] + b, xs[k]:xs[k] + b] += weight


def _stage1(noisy: np.ndarray, cfg: Bm3dConfig) -> np.ndarray:
    b = cfg.block_size
    spectra = _block_spectra(noisy, b)
    matches, px = _match(spectra, cfg)
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


def _stage2(noisy: np.ndarray, pilot: np.ndarray, cfg: Bm3dConfig) -> np.ndarray:
    b = cfg.block_size
    spectra_n = _block_spectra(noisy, b)
    spectra_p = _block_spectra(pilot, b)
    matches, px = _match(spectra_p, cfg)          # group on the pilot
    acc = np.zeros_like(noisy)
    wacc = np.zeros_like(noisy)
    # the same bits as float ** 2, but inf for a huge sigma instead of
    # OverflowError
    with np.errstate(over="ignore"):
        s2 = np.float64(cfg.sigma) ** 2
    for lin in matches:
        ys, xs = lin // px, lin % px
        p = haar1(spectra_p[ys, xs])
        n = haar1(spectra_n[ys, xs])
        shrink = p * p / (p * p + s2)
        est = idct2(ihaar1(shrink * n))
        weight = 1.0 / max(float((shrink * shrink).sum()), 1e-12)
        _aggregate(acc, wacc, est, weight, ys, xs, b)
    return acc / wacc


def bm3d_denoise(img: Image2D, cfg: Bm3dConfig) -> Image2D:
    b = cfg.block_size
    if img.height < b + 1 or img.width < b + 1:
        raise ValueError(f"image smaller than one {b}x{b} block neighborhood")
    noisy = img.data.astype(np.float64)
    basic = _stage1(noisy, cfg)
    out = _stage2(noisy, basic, cfg) if cfg.stages == "two" else basic
    lo, hi = img.bounds()
    out = np.clip(out, lo, hi)
    return img.like(out.astype(np.float32), method="bm3d",
                    bm3d_config={"block_size": b,
                                 "max_matches": cfg.max_matches,
                                 "search_radius": cfg.search_radius,
                                 "hard_threshold": cfg.hard_threshold,
                                 "sigma": cfg.sigma, "stages": cfg.stages})
