"""Power-of-two FFT, analytic-signal envelope detection and log compression."""

from __future__ import annotations

import numpy as np

from usdenoise.image import Image2D


def fft(x: np.ndarray) -> np.ndarray:
    """DFT along the last axis, whose length must be a power of two.

    Works on batched inputs: any leading axes are carried through.
    """
    x = np.asarray(x)
    n = x.shape[-1]
    if n < 1 or n & (n - 1):
        raise ValueError(f"length {n} is not a power of two")
    return np.fft.fft(x.astype(np.complex128), axis=-1)


def envelope_image(rf_img: np.ndarray) -> np.ndarray:
    """Column-wise envelope of a 2-D beamformed RF image (depth along rows):
    the magnitude of each column's analytic signal, as float64.

    Columns whose length is not a power of two are zero-padded to the next
    power of two and the result is truncated back, so edge samples carry
    mild windowing error.
    """
    rf_img = np.asarray(rf_img, dtype=np.float64)
    if rf_img.ndim != 2:
        raise ValueError(f"RF image must be 2-D, got shape {rf_img.shape}")
    n = rf_img.shape[0]
    m = 1 << max(0, (n - 1).bit_length())
    hilbert = np.zeros((m, 1))
    hilbert[0] = hilbert[m // 2] = 1.0
    hilbert[1:m // 2] = 2.0
    spec = np.fft.fft(rf_img, n=m, axis=0)
    return np.abs(np.fft.ifft(spec * hilbert, axis=0))[:n]


def log_compress(env, dynamic_range_db: float) -> Image2D:
    """Map a non-negative envelope to a unit-interval B-mode image.

    Computes 20*log10(env / max(env)), clamps to [-dynamic_range_db, 0],
    and rescales affinely to [0, 1].
    """
    data = np.asarray(env, dtype=np.float64)
    if not (dynamic_range_db > 0 and np.isfinite(dynamic_range_db)):
        raise ValueError("dynamic range must be positive and finite")
    if np.any(data < 0):
        raise ValueError("envelope must be non-negative")
    peak = data.max()
    if peak == 0:
        raise ValueError("all-zero envelope cannot be log-compressed")
    floor = peak * 10.0 ** (-dynamic_range_db / 20.0)
    db = 20.0 * np.log10(np.maximum(data, floor) / peak)
    return Image2D((db + dynamic_range_db) / dynamic_range_db)
