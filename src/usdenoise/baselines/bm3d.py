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

Each stage works on arrays, not on one group at a time.
``_kernels.match_blocks`` finds every group.  The groups are then filtered
``GROUP_CHUNK`` at a time: their spectra are gathered as one (K, G, b, b)
array, and each transform, the threshold or shrinkage, and the weight are
applied once to the whole chunk.  ``np.add.at`` adds the chunk's weighted
block estimates into the image over flat pixel indices, and its weights
into a second image.  Each pixel gets its terms in group-then-block order,
as a per-group loop of slice adds would give, so the result is that loop's
to the bit.  The chunks bound every temporary, so the aggregation's memory
does not grow with the number of groups: on a 128 x 128 image it peaks at
about 2 MB (tracemalloc), where holding every group's estimates and pixel
indices for one ``np.bincount`` took 28 MB.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from usdenoise import _kernels
from usdenoise.baselines.transforms import dct2, haar1, idct2, ihaar1
from usdenoise.image import Image2D

REF_STEP = 3  # reference-block stride; < block_size so every pixel is covered
GROUP_CHUNK = 64  # groups per batched transform; bounds the temporaries


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
        window = (2 * self.search_radius + 1) ** 2
        if window < k:
            raise ValueError(f"search_radius={self.search_radius} gives "
                             f"{window} candidate blocks; they must hold a "
                             f"group of max_matches={k}")
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


def _collaborate(shape, matches: np.ndarray, px: int, b: int,
                 group_filter) -> np.ndarray:
    """Filter the groups ``GROUP_CHUNK`` at a time and average the estimates.

    ``group_filter(lin)`` takes the (K, g) linear block positions of g groups
    and returns their (K, g, b, b) pixel estimates and (g,) weights.  Each
    pixel is the weighted mean over every block estimate covering it, summed
    in group-then-block order.
    """
    size = shape[0] * shape[1]
    acc = np.zeros(size)
    wacc = np.zeros(size)
    offs = (np.arange(b)[:, None] * shape[1] + np.arange(b)).ravel()
    for g0 in range(0, matches.shape[0], GROUP_CHUNK):
        chunk = matches[g0:g0 + GROUP_CHUNK]
        est, weight = group_filter(chunk.T)
        est = est.swapaxes(0, 1) * weight[:, None, None, None]
        corner = (chunk // px) * shape[1] + chunk % px
        idx = (corner[..., None] + offs).ravel()
        np.add.at(acc, idx, est.ravel())
        np.add.at(wacc, idx, np.repeat(weight, est[0].size))
    return (acc / wacc).reshape(shape)


def _stage1(noisy: np.ndarray, spectra: np.ndarray,
            cfg: Bm3dConfig) -> np.ndarray:
    """Hard-thresholding estimate; ``spectra`` is ``_block_spectra(noisy)``."""
    b = cfg.block_size
    matches, px = _match(spectra, cfg)
    flat = spectra.reshape(-1, b, b)
    thr = cfg.hard_threshold * cfg.sigma

    def hard_threshold(lin):
        coeffs = haar1(flat[lin])
        keep = np.abs(coeffs) >= thr
        keep[0, :, 0, 0] = True                   # group DC always survives
        est = idct2(ihaar1(np.where(keep, coeffs, 0.0)))
        return est, 1.0 / keep.sum(axis=(0, 2, 3))

    return _collaborate(noisy.shape, matches, px, b, hard_threshold)


def _stage2(noisy: np.ndarray, spectra: np.ndarray, pilot: np.ndarray,
            cfg: Bm3dConfig) -> np.ndarray:
    """Wiener estimate grouped on ``pilot``; ``spectra`` is
    ``_block_spectra(noisy)``."""
    b = cfg.block_size
    flat_n = spectra.reshape(-1, b, b)
    spectra_p = _block_spectra(pilot, b)
    matches, px = _match(spectra_p, cfg)          # group on the pilot
    flat_p = spectra_p.reshape(-1, b, b)
    # the same bits as float ** 2, but inf for a huge sigma instead of
    # OverflowError
    with np.errstate(over="ignore"):
        s2 = np.float64(cfg.sigma) ** 2

    def wiener(lin):
        p = haar1(flat_p[lin])
        if s2 > 0:
            shrink = p * p / (p * p + s2)
        else:       # sigma^2 underflowed to 0: the limit is 1, or 0 at p = 0
            shrink = (p != 0).astype(np.float64)
        est = idct2(ihaar1(shrink * haar1(flat_n[lin])))
        # each group's energy summed over one contiguous run, as for a
        # single (K, b, b) group
        energy = (shrink * shrink).swapaxes(0, 1).reshape(lin.shape[1], -1)
        return est, 1.0 / np.maximum(energy.sum(axis=1), 1e-12)

    return _collaborate(noisy.shape, matches, px, b, wiener)


def bm3d_denoise(img: Image2D, cfg: Bm3dConfig) -> Image2D:
    b = cfg.block_size
    if img.height < b + 1 or img.width < b + 1:
        raise ValueError(f"image smaller than one {b}x{b} block neighborhood")
    noisy = img.data.astype(np.float64)
    spectra = _block_spectra(noisy, b)
    basic = _stage1(noisy, spectra, cfg)
    out = (_stage2(noisy, spectra, basic, cfg) if cfg.stages == "two"
           else basic)
    return Image2D(np.clip(out, 0.0, 1.0).astype(np.float32))
