"""Hot-loop kernels, in NumPy:

- ``nlm_filter``      patchwise non-local means, symmetric padding at borders
- ``match_blocks``    top-K similar-block search for collaborative filtering
- ``deposit_pulses``  scatterer echo synthesis onto an RF trace
- ``das_sum``         delay-and-sum accumulation, interpolated by ``np.interp``
"""

from __future__ import annotations

import functools
import math

import numpy as np

MATCH_CHUNK = 16  # references per block-matching GEMM


def _box_sum(img: np.ndarray, k: int) -> np.ndarray:
    """Sliding k x k window sums; output is (H-k+1, W-k+1)."""
    ii = np.zeros((img.shape[0] + 1, img.shape[1] + 1), dtype=np.float64)
    np.cumsum(np.cumsum(img, axis=0), axis=1, out=ii[1:, 1:])
    return ii[k:, k:] - ii[:-k, k:] - ii[k:, :-k] + ii[:-k, :-k]


def nlm_filter(img: np.ndarray, patch_radius: int, search_radius: int,
               h: float, sigma: float) -> np.ndarray:
    """Non-local means of a 2-D image, as float64 of the same shape.

    The image is padded symmetrically by ``patch_radius + search_radius``
    pixels on every side.  Pixel weights are
    ``exp(-max(d2 - 2 sigma^2, 0) / h^2)`` with ``d2`` the mean squared
    distance between the two centered patches; each output pixel is the
    weight-normalized average of the search-window center pixels.
    """
    pr, sr = int(patch_radius), int(search_radius)
    m = pr + sr
    height, width = np.shape(img)
    q = np.pad(np.asarray(img, dtype=np.float64), m, mode="symmetric")
    k = 2 * pr + 1
    # scaling by 1/h twice keeps the h -> 0 limit, weight 1 at zero excess
    # and 0 elsewhere: below h ~ 1e-154, 1/h^2 is inf and 0 * inf is NaN
    inv_h = 1.0 / h
    two_sigma2 = 2.0 * sigma * sigma

    base = q[m - pr:m + height + pr, m - pr:m + width + pr]
    acc = np.zeros((height, width), dtype=np.float64)
    wsum = np.zeros((height, width), dtype=np.float64)
    with np.errstate(over="ignore"):
        for dy in range(-sr, sr + 1):
            for dx in range(-sr, sr + 1):
                shifted = q[m - pr + dy:m + height + pr + dy,
                            m - pr + dx:m + width + pr + dx]
                d2 = _box_sum((base - shifted) ** 2, k) / (k * k)
                w = np.maximum(d2 - two_sigma2, 0.0)
                w *= -inv_h
                w *= inv_h
                np.exp(w, out=w)
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

    References go ``MATCH_CHUNK`` at a time, in raster order, against the
    candidates in the bounding box of their windows.  One GEMM gives the
    approximate distances ``|r|^2 + |c|^2 - 2 r.c`` (``+inf`` outside a
    reference's window), and ``np.partition`` their k-th smallest value.
    Every candidate within ``2 tol`` of it, ``tol = 1e-12 (|r|^2 + |c|^2)``,
    is scored again as ``((c - r)**2).sum()`` over the same contiguous vector
    as a per-reference loop, so with the same bits; one ``lexsort`` then
    ranks them.  The GEMM's rounding error is below ``(n + 2) 2^-53`` times
    ``|r|^2 + |c|^2`` (n the vector length, 256 at most), far inside ``tol``,
    so every exact top-k member is within ``2 tol`` of the approximate k-th
    value and is scored exactly: the groups are the same as a loop of exact
    distances gives.  Where an approximation overflows, every candidate in
    the chunk's windows is scored exactly.
    """
    py, px, n = blocks.shape
    # a wider window selects the same candidates; clipping keeps the window
    # arithmetic inside int64
    sr = min(int(search_radius), max(py, px))
    ref_rows = np.asarray(ref_rows, dtype=np.int64)
    ref_cols = np.asarray(ref_cols, dtype=np.int64)
    win = ((np.minimum(py, ref_rows + sr + 1) - np.maximum(0, ref_rows - sr))
           * (np.minimum(px, ref_cols + sr + 1)
              - np.maximum(0, ref_cols - sr)))
    if (win < k).any():
        raise ValueError(f"only {win[np.argmax(win < k)]} candidate blocks, "
                         f"need {k}")
    with np.errstate(over="ignore"):
        norms = (blocks * blocks).sum(axis=-1)
    out = np.empty((ref_rows.size, k), dtype=np.int64)
    raster = np.lexsort((ref_cols, ref_rows))
    for c0 in range(0, raster.size, MATCH_CHUNK):
        chunk = raster[c0:c0 + MATCH_CHUNK]
        ry, rx = ref_rows[chunk], ref_cols[chunk]
        y0, y1 = max(0, ry.min() - sr), min(py, ry.max() + sr + 1)
        x0, x1 = max(0, rx.min() - sr), min(px, rx.max() + sr + 1)
        cand = blocks[y0:y1, x0:x1].reshape(-1, n)
        ref = blocks[ry, rx]
        far_y = np.abs(np.arange(y0, y1) - ry[:, None]) > sr
        far_x = np.abs(np.arange(x0, x1) - rx[:, None]) > sr
        outside = (far_y[:, :, None] | far_x[:, None, :]).reshape(chunk.size,
                                                                  -1)
        with np.errstate(over="ignore", invalid="ignore"):
            scale = norms[ry, rx][:, None] + norms[y0:y1, x0:x1].reshape(1, -1)
            approx = ref @ cand.T
            approx *= -2.0
            approx += scale
            if np.isfinite(approx).all():
                np.copyto(approx, np.inf, where=outside)
                kth = np.partition(approx, k - 1, axis=1)[:, k - 1:k]
                again = approx <= kth + 2e-12 * scale
            else:               # overflow: score the whole window exactly
                again = ~outside
        ri, ci = np.divmod(np.flatnonzero(again), again.shape[1])
        with np.errstate(over="ignore"):
            d = ((cand[ci] - ref[ri]) ** 2).sum(axis=-1)
        cy, cx = np.divmod(ci, x1 - x0)
        lin = (y0 + cy) * px + x0 + cx
        order = np.lexsort((lin, d, ri))
        starts = np.searchsorted(ri, np.arange(chunk.size))
        group = lin[order[starts[:, None] + np.arange(k)]]
        self_lin = ry * px + rx
        lost = ~(group == self_lin[:, None]).any(axis=1)
        group[lost, -1] = self_lin[lost]
        out[chunk] = group
    return out


def cycle_phasor(cycles: np.ndarray) -> np.ndarray:
    """``exp(i 2 pi cycles)``, with ``cycles`` reduced to a fraction of a
    cycle before ``cos`` and ``sin``: small arguments take libm's fast path
    and lose no precision to whole turns."""
    frac = cycles - np.round(cycles)
    frac *= 2.0 * np.pi
    out = np.empty(frac.shape, dtype=np.complex128)
    np.cos(frac, out=out.real)
    np.sin(frac, out=out.imag)
    return out


@functools.lru_cache(maxsize=32)
def _carrier_table(cycles_per_sample: float, half_width: int,
                   n_bins: int) -> np.ndarray:
    """``exp(i theta k)`` for samples ``k = -half_width .. n_bins -
    half_width - 1``, ``theta = 2 pi cycles_per_sample``; read-only because
    every caller shares it."""
    k = np.arange(-half_width, n_bins - half_width, dtype=np.float64)
    table = cycle_phasor(k * cycles_per_sample)
    table.setflags(write=False)
    return table


def deposit_pulses(tau: np.ndarray, re: np.ndarray, im: np.ndarray,
                   fs: float, f0: float, sigma_t: float, n_samples: int,
                   half_width: int) -> np.ndarray:
    """Sum Gaussian-enveloped echoes onto one RF trace.

    Echo ``s`` is ``Re{A exp(i 2 pi f0 t)} * exp(-(t - tau)^2 / (2 sigma_t^2))``
    with ``A = re + i im`` its complex amplitude referenced to ``t = 0``,
    i.e. ``amp * exp(i (phase - 2 pi f0 tau))`` for an echo that reads
    ``amp * cos(2 pi f0 (t - tau) + phase)`` under its envelope.  It is
    summed over the ``2*half_width+1`` samples around its arrival time;
    samples falling outside the trace are dropped.

    Works tap by tap: with ``c = floor(tau*fs)`` and ``x = c - tau*fs`` in
    (-1, 0], tap ``j`` (sample ``c + j``) has ``t - tau = (x + j)/fs``.  The
    carrier is ``A`` rotated to its centre sample, ``A exp(i theta c)``,
    ``theta = 2 pi f0/fs``, then by the scalar ``exp(i theta j)``.  The
    centre-sample phasors are gathered from one table per trace length
    (``_carrier_table``), so no ``cos`` or ``sin`` runs per echo: NumPy
    evaluates float64 ``cos``/``sin`` one element at a time, at 10-20 times
    the cost of ``exp``.  The Gaussian ``exp(-b (x + j)^2)``,
    ``b = 1/(2 (sigma_t fs)^2)``, is the scalar ``exp(-b j^2)`` times
    ``exp(-b x^2 - 2 b x j)``, which steps by ``exp(-2 b x)`` from tap to
    tap.  That recurrence stays inside float64 range while
    ``b*(2*half_width+1) < 700``, i.e. for pulses wider than about a
    twentieth of a sample; a narrower pulse raises ``ValueError``.  A
    phantom's pulse is wider than a sample, because ``PhantomSpec`` keeps
    ``f0`` below ``fs/2``.  Each tap is one ``bincount`` over the centre
    samples, read at offset ``j``.
    """
    tau = np.asarray(tau, dtype=np.float64)
    re = np.asarray(re, dtype=np.float64)
    im = np.asarray(im, dtype=np.float64)
    n, hw = int(n_samples), int(half_width)
    trace = np.zeros(n, dtype=np.float64)
    if tau.size == 0:
        return trace
    b = 0.5 / (sigma_t * fs) ** 2
    if not b * (2 * hw + 1) < 700.0:
        raise ValueError(f"pulse std {sigma_t} s is too narrow for "
                         f"{2 * hw + 1} taps at {fs} Hz")
    pos = tau * fs
    centers = np.floor(pos)
    hit = (centers >= -hw) & (centers < n + hw)
    if not hit.all():
        centers, pos, re, im = centers[hit], pos[hit], re[hit], im[hit]
    x = centers - pos
    theta = 2.0 * np.pi * f0 / fs
    # bin c + hw collects the scatterers centred on sample c, so for tap j
    # the bins from hw - j on line up with samples 0, 1, ..., n - 1
    idx = centers.astype(np.int64) + hw
    n_bins = n + 2 * hw
    carrier = _carrier_table(f0 / fs, hw, n_bins)[idx]
    cr, ci = carrier.real, carrier.imag
    re, im = re * cr - im * ci, re * ci + im * cr
    g = np.exp(-b * x * (x - 2.0 * hw))
    re *= g
    im *= g
    q = np.exp(-2.0 * b * x)
    w = np.empty_like(x)
    t = np.empty_like(x)
    for j in range(-hw, hw + 1):
        s = math.exp(-b * j * j)
        np.multiply(re, s * math.cos(theta * j), out=w)
        np.multiply(im, s * math.sin(theta * j), out=t)
        w -= t
        trace += np.bincount(idx, weights=w,
                             minlength=n_bins)[hw - j:hw - j + n]
        re *= q
        im *= q
    return trace


def das_sum(rf: np.ndarray, sample_idx: np.ndarray) -> np.ndarray:
    """Delay-and-sum: accumulate linearly interpolated samples per pixel.

    ``rf`` is (elements, samples); ``sample_idx`` is (elements, pixels) of
    fractional sample positions.  Positions without both neighbors inside
    the recorded window, NaN and +-inf among them, contribute zero.
    """
    rf = np.asarray(rf, dtype=np.float64)
    idx = np.asarray(sample_idx, dtype=np.float64)
    n_el, n_s = rf.shape
    xp = np.arange(n_s, dtype=np.float64)
    out = np.zeros(idx.shape[1], dtype=np.float64)
    for e in range(n_el):
        # from the last sample on np.interp has one neighbor: move to +inf
        pos = np.where(idx[e] < n_s - 1, idx[e], np.inf)
        out += np.interp(pos, xp, rf[e], left=0.0, right=0.0)
    return out
