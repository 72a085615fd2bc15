"""Image quality metrics (MSE, PSNR, GCNR); ``bench`` writes the reports."""

from __future__ import annotations

import math

import numpy as np

from usdenoise.image import Image2D

GCNR_BINS = 64


def _data(img) -> np.ndarray:
    return img.data if isinstance(img, Image2D) else np.asarray(img)


def mse(i, k) -> float:
    """Mean squared difference over all pixels."""
    a = _data(i).astype(np.float64)
    b = _data(k).astype(np.float64)
    if a.shape != b.shape:
        raise ValueError(f"image dims differ: {a.shape} vs {b.shape}")
    return float(np.mean((a - b) ** 2))


def psnr(i, k, max_val: float) -> float:
    """Peak signal-to-noise ratio in dB, 10*log10(max_val^2 / MSE); +inf
    when the images are identical."""
    if max_val <= 0:
        raise ValueError("max_val must be positive")
    err = mse(i, k)
    if err == 0.0:
        return math.inf
    return 10.0 * math.log10(max_val * max_val / err)


def gcnr(img, inside, outside) -> float:
    """Generalized contrast-to-noise ratio between two pixel populations.

    ``inside`` and ``outside`` are boolean pixel masks of the image's shape
    (read with ``np.asarray(..., dtype=bool)``); they must not overlap and
    each must hold at least 32 pixels.  Builds ``GCNR_BINS``-bin histograms
    of both regions on a shared support and returns ``1 - sum_b min(p_in,
    p_out)``, i.e. one minus the overlap of the two intensity densities.
    0 means indistinguishable regions, 1 means fully separated.  Tables
    report it as a percentage.
    """
    data = _data(img)
    m_in = np.asarray(inside, dtype=bool)
    m_out = np.asarray(outside, dtype=bool)
    if m_in.shape != data.shape or m_out.shape != data.shape:
        raise ValueError("mask dims do not match image")
    if np.any(m_in & m_out):
        raise ValueError("inside and outside masks overlap")
    if m_in.sum() < 32 or m_out.sum() < 32:
        raise ValueError("each region needs at least 32 pixels")
    vin = data[m_in].astype(np.float64)
    vout = data[m_out].astype(np.float64)
    lo = min(vin.min(), vout.min())
    hi = max(vin.max(), vout.max())
    if hi == lo:  # all pixels equal: identical distributions
        return 0.0
    h_in, _ = np.histogram(vin, bins=GCNR_BINS, range=(lo, hi))
    h_out, _ = np.histogram(vout, bins=GCNR_BINS, range=(lo, hi))
    p_in = h_in / vin.size
    p_out = h_out / vout.size
    return float(1.0 - np.minimum(p_in, p_out).sum())
