"""Power-of-two FFT, analytic-signal envelope detection and log compression."""

from __future__ import annotations

import numpy as np

from usdenoise.image import RANGE_UNIT, Image2D


def _check_pow2(n: int) -> int:
    if n < 1 or n & (n - 1):
        raise ValueError(f"length {n} is not a power of two")
    return n


def fft(x: np.ndarray) -> np.ndarray:
    """DFT along the last axis, whose length must be a power of two.

    Works on batched inputs: any leading axes are carried through.
    """
    x = np.asarray(x)
    _check_pow2(x.shape[-1])
    return np.fft.fft(x.astype(np.complex128), axis=-1)


def ifft(x: np.ndarray) -> np.ndarray:
    x = np.asarray(x, dtype=np.complex128)
    n = _check_pow2(x.shape[-1])
    return np.conj(fft(np.conj(x))) / n


def _analytic(x: np.ndarray) -> np.ndarray:
    """Analytic signal via the frequency-domain Hilbert filter."""
    n = x.shape[-1]
    spec = fft(x)
    h = np.zeros(n)
    h[0] = 1.0
    h[n // 2] = 1.0
    h[1:n // 2] = 2.0
    return ifft(spec * h)


def envelope(line: np.ndarray) -> np.ndarray:
    """Magnitude of the analytic signal of a real vector.

    Non-power-of-two inputs are zero-padded to the next power of two and the
    result is truncated back, so edge samples carry mild windowing error.
    """
    line = np.asarray(line, dtype=np.float64)
    if line.ndim != 1:
        raise ValueError("envelope expects a 1-D vector")
    n = line.size
    m = 1 << max(0, (n - 1).bit_length())
    if m != n:
        padded = np.zeros(m)
        padded[:n] = line
    else:
        padded = line
    return np.abs(_analytic(padded))[:n]


def envelope_image(rf_img: np.ndarray) -> np.ndarray:
    """Column-wise envelope of a beamformed RF image (depth along rows)."""
    rf_img = np.asarray(rf_img, dtype=np.float64)
    n = rf_img.shape[0]
    m = 1 << max(0, (n - 1).bit_length())
    padded = np.zeros((m, rf_img.shape[1]))
    padded[:n] = rf_img
    return np.abs(_analytic(padded.T)).T[:n]


def log_compress(env, dynamic_range_db: float = 60.0) -> Image2D:
    """Map a non-negative envelope to a unit-interval B-mode image.

    Computes 20*log10(env / max(env)), clamps to [-dynamic_range_db, 0],
    and rescales affinely to [0, 1].
    """
    data = env.data if isinstance(env, Image2D) else np.asarray(env)
    data = data.astype(np.float64)
    if dynamic_range_db <= 0:
        raise ValueError("dynamic range must be positive")
    if np.any(data < 0):
        raise ValueError("envelope must be non-negative")
    peak = data.max()
    if peak == 0:
        raise ValueError("all-zero envelope cannot be log-compressed")
    floor = peak * 10.0 ** (-dynamic_range_db / 20.0)
    db = 20.0 * np.log10(np.maximum(data, floor) / peak)
    return Image2D((db + dynamic_range_db) / dynamic_range_db, RANGE_UNIT,
                   {"dynamic_range_db": float(dynamic_range_db)})
