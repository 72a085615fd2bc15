"""Hot-loop kernels, in NumPy:

- ``nlm_filter``      patchwise non-local means on a padded image
- ``match_blocks``    top-K similar-block search for collaborative filtering
- ``deposit_pulses``  scatterer echo synthesis onto an RF trace
- ``das_sum``         delay-and-sum accumulation with linear interpolation
"""

from __future__ import annotations

import math

import numpy as np


def _box_sum(img: np.ndarray, k: int) -> np.ndarray:
    """Sliding k x k window sums; output is (H-k+1, W-k+1)."""
    ii = np.zeros((img.shape[0] + 1, img.shape[1] + 1), dtype=np.float64)
    np.cumsum(np.cumsum(img, axis=0), axis=1, out=ii[1:, 1:])
    return ii[k:, k:] - ii[:-k, k:] - ii[k:, :-k] + ii[:-k, :-k]


def nlm_filter(padded: np.ndarray, height: int, width: int, patch_radius: int,
               search_radius: int, h: float, sigma: float) -> np.ndarray:
    """Non-local means over a symmetrically padded image.

    ``padded`` carries a margin of ``patch_radius + search_radius`` pixels on
    every side.  Pixel weights are
    ``exp(-max(d2 - 2 sigma^2, 0) / h^2)`` with ``d2`` the mean squared
    distance between the two centered patches; each output pixel is the
    weight-normalized average of the search-window center pixels.
    """
    q = np.asarray(padded, dtype=np.float64)
    pr, sr = int(patch_radius), int(search_radius)
    m = pr + sr
    if q.shape != (height + 2 * m, width + 2 * m):
        raise ValueError("padded image does not match declared margins")
    k = 2 * pr + 1
    inv_h2 = 1.0 / (h * h)
    two_sigma2 = 2.0 * sigma * sigma

    base = q[m - pr:m + height + pr, m - pr:m + width + pr]
    acc = np.zeros((height, width), dtype=np.float64)
    wsum = np.zeros((height, width), dtype=np.float64)
    for dy in range(-sr, sr + 1):
        for dx in range(-sr, sr + 1):
            shifted = q[m - pr + dy:m + height + pr + dy,
                        m - pr + dx:m + width + pr + dx]
            d2 = _box_sum((base - shifted) ** 2, k) / (k * k)
            w = np.exp(-np.maximum(d2 - two_sigma2, 0.0) * inv_h2)
            acc += w * q[m + dy:m + dy + height, m + dx:m + dx + width]
            wsum += w
    return acc / wsum


def match_blocks(blocks: np.ndarray, ref_rows: np.ndarray, ref_cols: np.ndarray,
                 search_radius: int, k: int) -> np.ndarray:
    """Top-k most similar blocks for every reference position.

    ``blocks`` is (Py, Px, bsize*bsize): the flattened block starting at each
    top-left position.  Candidates are block positions within Chebyshev
    distance ``search_radius`` of the reference.  Similarity is the summed
    squared difference; ties break on ascending linear position, so the
    groups are deterministic.  The reference block itself is always
    part of its group (in flat regions full distance ties could otherwise
    crowd it out, leaving pixels with no aggregated estimate).  Returns
    (R, k) linear indices into the (Py, Px) position grid, best first.
    """
    py, px, _ = blocks.shape
    # a wider window selects the same candidates; clipping keeps the window
    # arithmetic inside int64
    search_radius = min(int(search_radius), max(py, px))
    ref_rows = np.asarray(ref_rows, dtype=np.int64)
    ref_cols = np.asarray(ref_cols, dtype=np.int64)
    out = np.empty((ref_rows.size, k), dtype=np.int64)
    for r, (ry, rx) in enumerate(zip(ref_rows, ref_cols)):
        y0, y1 = max(0, ry - search_radius), min(py, ry + search_radius + 1)
        x0, x1 = max(0, rx - search_radius), min(px, rx + search_radius + 1)
        cand = blocks[y0:y1, x0:x1].reshape(-1, blocks.shape[2])
        d = ((cand - blocks[ry, rx]) ** 2).sum(axis=1)
        rows = np.repeat(np.arange(y0, y1), x1 - x0)
        cols = np.tile(np.arange(x0, x1), y1 - y0)
        lin = rows * px + cols
        if d.size < k:
            raise ValueError(f"only {d.size} candidate blocks, need {k}")
        order = np.lexsort((lin, d))[:k]
        sel = lin[order]
        self_lin = ry * px + rx
        if self_lin not in sel:
            sel[-1] = self_lin
        out[r] = sel
    return out


def deposit_pulses(tau: np.ndarray, amp: np.ndarray, phase: np.ndarray,
                   fs: float, f0: float, sigma_t: float, n_samples: int,
                   half_width: int) -> np.ndarray:
    """Sum Gaussian-modulated cosine echoes onto one RF trace.

    Each scatterer contributes
    ``amp * exp(-dt^2 / (2 sigma_t^2)) * cos(2 pi f0 dt + phase)`` with
    ``dt = k/fs - tau`` over the ``2*half_width+1`` samples around its
    arrival time; samples falling outside the trace are dropped.

    Works tap by tap: with ``c = floor(tau*fs)`` and ``x = c - tau*fs`` in
    (-1, 0], tap ``j`` (sample ``c + j``) has ``dt = (x + j)/fs``.  The carrier
    is the per-scatterer phasor ``amp*exp(i(theta x + phase))`` rotated by the
    scalar ``exp(i theta j)``, ``theta = 2 pi f0/fs``.  The Gaussian
    ``exp(-b (x + j)^2)``, ``b = 1/(2 (sigma_t fs)^2)``, is the scalar
    ``exp(-b j^2)`` times ``exp(-b x^2 - 2 b x j)``, which steps by
    ``exp(-2 b x)`` from tap to tap.  That recurrence stays inside float64
    range while ``b*(2*half_width+1) < 700``, i.e. for pulses wider than about
    a twentieth of a sample; narrower ones take the exponential at every tap.
    Each tap is one ``bincount`` over the centre samples, read at offset ``j``.
    """
    tau = np.asarray(tau, dtype=np.float64)
    amp = np.asarray(amp, dtype=np.float64)
    phase = np.asarray(phase, dtype=np.float64)
    n, hw = int(n_samples), int(half_width)
    trace = np.zeros(n, dtype=np.float64)
    if tau.size == 0:
        return trace
    pos = tau * fs
    centers = np.floor(pos)
    hit = (centers >= -hw) & (centers < n + hw)
    if not hit.all():
        centers, pos, amp, phase = (centers[hit], pos[hit], amp[hit],
                                    phase[hit])
    x = centers - pos
    theta = 2.0 * np.pi * f0 / fs
    carrier = theta * x + phase
    re = amp * np.cos(carrier)
    im = amp * np.sin(carrier)
    # bin c + hw collects the scatterers centred on sample c, so for tap j
    # the bins from hw - j on line up with samples 0, 1, ..., n - 1
    idx = centers.astype(np.int64) + hw
    n_bins = n + 2 * hw
    b = 0.5 / (sigma_t * fs) ** 2
    q = None
    if b * (2 * hw + 1) < 700.0:
        g = np.exp(-b * x * (x - 2.0 * hw))
        re *= g
        im *= g
        q = np.exp(-2.0 * b * x)
    w = np.empty_like(x)
    t = np.empty_like(x)
    for j in range(-hw, hw + 1):
        if q is None:
            g = np.exp(-b * (x + j) ** 2)
            cr, ci, s = re * g, im * g, 1.0
        else:
            cr, ci, s = re, im, math.exp(-b * j * j)
        np.multiply(cr, s * math.cos(theta * j), out=w)
        np.multiply(ci, s * math.sin(theta * j), out=t)
        w -= t
        trace += np.bincount(idx, weights=w,
                             minlength=n_bins)[hw - j:hw - j + n]
        if q is not None:
            re *= q
            im *= q
    return trace


def das_sum(rf: np.ndarray, sample_idx: np.ndarray) -> np.ndarray:
    """Delay-and-sum: accumulate linearly interpolated samples per pixel.

    ``rf`` is (elements, samples); ``sample_idx`` is (elements, pixels) of
    fractional sample positions.  Positions without both neighbors inside
    the recorded window contribute zero.
    """
    rf = np.asarray(rf, dtype=np.float64)
    idx = np.asarray(sample_idx, dtype=np.float64)
    n_el, n_s = rf.shape
    out = np.zeros(idx.shape[1], dtype=np.float64)
    for e in range(n_el):
        i0 = np.floor(idx[e]).astype(np.int64)
        frac = idx[e] - i0
        ok = (i0 >= 0) & (i0 + 1 < n_s)
        i0c = np.where(ok, i0, 0)
        contrib = rf[e, i0c] * (1.0 - frac) + rf[e, i0c + 1] * frac
        out += np.where(ok, contrib, 0.0)
    return out
