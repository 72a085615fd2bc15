"""Hot-loop kernels, in NumPy:

- ``nlm_filter``      patchwise non-local means, symmetric padding at borders
- ``match_blocks``    top-K similar-block search for collaborative filtering
- ``cycle_phasor``    ``exp(i 2 pi cycles)`` from a table of turns, no ``cos``
- ``deposit_pulses``  scatterer echo synthesis onto an RF trace
- ``das_sum``         delay-and-sum accumulation, interpolated by ``np.interp``
"""

from __future__ import annotations

import cmath
import functools
import math

import numpy as np

MATCH_CHUNK = 16  # references per block-matching GEMM
SAFETY = 2.0      # margin of the block-matching prefilter over its error bound
F32_SAFE = float(np.finfo(np.float32).max) / 8  # no float32 distance overflows
EXP_FLOOR = -600.0  # NLM weights: exp(-600) times any |pixel| > 1e-47 is normal
PHASOR_TURNS = 1024  # cycle_phasor's table of turns: 16 KiB of complex128


def nlm_filter(img: np.ndarray, patch_radius: int, search_radius: int,
               h: float, sigma: float) -> np.ndarray:
    """Non-local means of a 2-D image, as float64 of the same shape.

    The image is padded symmetrically by ``patch_radius + search_radius``
    pixels on every side.  Pixel weights are
    ``exp(-max(d2 - 2 sigma^2, 0) / h^2)`` with ``d2`` the mean squared
    distance between the two centered patches; each output pixel is the
    weight-normalized average of the search-window center pixels.
    Exponents below ``EXP_FLOOR`` count as ``EXP_FLOOR``.  Below about -708
    ``exp`` returns subnormals or 0, which NumPy computes 13-55 times
    slower than a normal result, and above that the weights' products with
    small pixels are subnormal, 30 times slower to multiply.  The weight
    this adds, under ``3e-261`` a pair against the pixel's own weight 1,
    moves an output by at most ``3e-261`` times the window's pixel count
    times the image's peak magnitude.

    The weight of a pair of pixels does not depend on which of the two is
    the output, so each pair is scored once (Condat, "A simple trick to
    speed up and improve the non-local means", 2010).  The loop visits the
    offsets ``delta = (dy, dx)`` with ``dy > 0``, or ``dy = 0`` and
    ``dx > 0``: half the window.  For each it computes the weight at every
    anchor ``a`` in the outputs and in the outputs minus ``delta``, and adds
    it twice: to ``a`` with the pixel ``a + delta``, and to ``a + delta``
    with the pixel ``a``.  ``delta = 0`` is weight 1 and the pixel itself.

    Every array is a contiguous run of the padded image in raster order,
    so that a shift by ``(dy, dx)`` is a shift by ``dy * row + dx``
    elements.  The outputs are the run from output pixel ``(0, 0)`` to
    ``(height - 1, width - 1)``; it holds the padding columns between the
    rows too, whose sums are discarded.  The patch sums are separable: the
    squared differences summed over the patch rows, then over its columns,
    each as ``2 patch_radius`` adds of shifted runs.  No patch around an
    anchor that an output reads crosses a row end.
    """
    pr, sr = int(patch_radius), int(search_radius)
    m = pr + sr
    height, width = np.shape(img)
    q = np.pad(np.asarray(img, dtype=np.float64), m, mode="symmetric")
    row = q.shape[1]
    qf = q.ravel()
    k = 2 * pr + 1
    # the exponent is -max(d2 k^2 - 2 sigma^2 k^2, 0) / (h k)^2, with d2 k^2
    # the patch's sum of squares.  Scaling by 1/(h k) twice keeps the h -> 0
    # limit, weight 1 at zero excess and (next to) 0 elsewhere: below
    # h ~ 1e-154, 1/h^2 is inf and 0 * inf is NaN
    inv_hk = 1.0 / (h * k)
    two_sigma2 = 2.0 * sigma * sigma * k * k

    n_out = (height - 1) * row + width
    first = m * row + m                 # flat index of output pixel (0, 0)
    acc = qf[first:first + height * row].copy()      # delta = 0
    wsum = np.ones(height * row)
    acc_run, wsum_run = acc[:n_out], wsum[:n_out]
    most = sr * row + sr                # the largest shift
    sq_buf = np.empty(n_out + most + 2 * pr * (row + 1))
    rows_buf = np.empty(n_out + most + 2 * pr)
    w_buf = np.empty(n_out + most)
    term = np.empty(n_out)
    with np.errstate(over="ignore"):
        for dy in range(sr + 1):
            for dx in range(-sr if dy else 1, sr + 1):
                s = dy * row + dx
                # anchors run from output (0, 0) minus delta to the last
                # output; sq_buf[0] is the top-left pixel of the first
                # anchor's patch
                n_w = n_out + s
                n_rows = n_w + 2 * pr
                n_sq = n_rows + 2 * pr * row
                u0 = first - s - pr * row - pr
                sq, rows, w = sq_buf[:n_sq], rows_buf[:n_rows], w_buf[:n_w]
                np.subtract(qf[u0:u0 + n_sq], qf[u0 + s:u0 + s + n_sq],
                            out=sq)
                np.square(sq, out=sq)
                np.add(sq[:n_rows], sq[row:row + n_rows], out=rows)
                for i in range(2, k):
                    rows += sq[i * row:i * row + n_rows]
                np.add(rows[:n_w], rows[1:1 + n_w], out=w)
                for j in range(2, k):
                    w += rows[j:j + n_w]
                w -= two_sigma2
                np.maximum(w, 0.0, out=w)
                w *= -inv_hk
                w *= inv_hk
                np.maximum(w, EXP_FLOOR, out=w)
                np.exp(w, out=w)
                # output t takes anchor t with the pixel t + delta ...
                np.multiply(w[s:], qf[first + s:first + s + n_out], out=term)
                acc_run += term
                wsum_run += w[s:]
                # ... and anchor t - delta with the pixel t - delta
                np.multiply(w[:n_out], qf[first - s:first - s + n_out],
                            out=term)
                acc_run += term
                wsum_run += w[:n_out]
    return (acc / wsum).reshape(height, row)[:, :width]


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
    candidates in the bounding box of their windows.  A float32 copy of the
    blocks ranks them.  The copy has the mean block subtracted: distances
    do not change, and a common offset, such as the DC of a bright image,
    costs no precision.  One GEMM gives the approximate distances
    ``a = |r|^2 + |c|^2 - 2 r.c`` (``+inf`` outside a reference's window),
    and ``np.partition`` their k-th smallest value ``a_k``.  Every candidate
    with ``a <= a_k + 2 tol`` is scored again as ``((c - r)**2).sum()`` over
    the same contiguous float64 vector as a per-reference loop, so with the
    same bits; one ``lexsort`` then ranks them.

    ``tol`` bounds ``|a - d|``, ``d`` the exact distance.  With
    ``u = 2^-24``, ``S = |r|^2 + |c|^2`` of the centred blocks and
    ``gamma_n = n u / (1 - n u)`` for dot products of length ``n``:

    - the dot product is off by ``gamma_n S / 2``, so ``2 r.c`` by
      ``gamma_n S``;
    - the two norms are off by ``gamma_n S`` together;
    - the two additions by ``3 u S``;
    - rounding the centred blocks to float32 moves ``c - r`` by some ``e``
      with ``|e| <= u (|c| + |r|)``, and ``d`` by at most
      ``2 sqrt(d) |e| + |e|^2``, so by ``5 u S`` at most;
    - each product that underflows loses at most ``2^-126``, the smallest
      normal float32 (so also where subnormals are flushed to zero): ``2n``
      of them contribute ``2n 2^-126`` in all.

    ``tol`` is ``SAFETY`` = 2 times the sum, ``(2n + 8) u S + 2n 2^-126``, so
    that the second-order terms, the rounding of the float64 centring and
    scores, and that of ``tol`` and ``a_k + 2 tol`` themselves fit in the
    margin.  ``S`` is taken at its largest in the chunk's box, which holds
    every pair's blocks.  Then at least ``k`` candidates have
    ``d <= a_k + tol``, so each of the exact top ``k`` has
    ``a <= d + tol <= a_k + 2 tol``: every one is scored exactly, and the
    groups are the same as a loop of exact distances gives, to the bit.
    Blocks so small that their squares underflow have ``S`` near 0 and
    every ``a`` within ``tol``, so their whole window is scored exactly.  A
    chunk whose box holds a float32 norm above an eighth of the float32
    range, or one that is not finite (the cast or the float64 centring
    overflowed), skips the GEMM and scores its windows exactly.  Below that
    bound no float32 term overflows, as ``|a| <= 4 max(|r|^2, |c|^2)``.
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
    flat = blocks.reshape(-1, n)
    # the prefilter's copy: centred, so a common offset costs no precision,
    # and cast without a warning where it overflows
    with np.errstate(over="ignore", invalid="ignore"):
        flat32 = (flat - flat.mean(axis=0)).astype(np.float32)
        norms = (flat32 * flat32).sum(axis=-1)
    blocks32 = flat32.reshape(py, px, n)
    norms = norms.reshape(py, px)
    rel = np.float32(SAFETY * (2 * n + 8) * 2.0 ** -24)
    tiny = np.float32(SAFETY * 2 * n * 2.0 ** -126)
    out = np.empty((ref_rows.size, k), dtype=np.int64)
    raster = np.lexsort((ref_cols, ref_rows))
    for c0 in range(0, raster.size, MATCH_CHUNK):
        chunk = raster[c0:c0 + MATCH_CHUNK]
        ry, rx = ref_rows[chunk], ref_cols[chunk]
        self_lin = ry * px + rx
        y0, y1 = max(0, ry.min() - sr), min(py, ry.max() + sr + 1)
        x0, x1 = max(0, rx.min() - sr), min(px, rx.max() + sr + 1)
        far_y = np.abs(np.arange(y0, y1) - ry[:, None]) > sr
        far_x = np.abs(np.arange(x0, x1) - rx[:, None]) > sr
        outside = (far_y[:, :, None] | far_x[:, None, :]).reshape(chunk.size,
                                                                  -1)
        cand_norms = norms[y0:y1, x0:x1].reshape(-1)
        widest = cand_norms.max()       # the references are in the box too
        if widest < F32_SAFE:
            ref_norms = norms[ry, rx]
            approx = flat32[self_lin] @ blocks32[y0:y1, x0:x1].reshape(-1, n).T
            approx *= -2.0
            approx += cand_norms
            approx += ref_norms[:, None]
            np.copyto(approx, np.inf, where=outside)
            kth = np.partition(approx, k - 1, axis=1)[:, k - 1]
            tol = rel * (ref_norms + widest) + tiny
            again = approx <= (kth + 2.0 * tol)[:, None]
        else:       # inf, NaN or near overflow: score the window exactly
            again = ~outside
        ri, ci = np.divmod(np.flatnonzero(again), again.shape[1])
        cy, cx = np.divmod(ci, x1 - x0)
        lin = (y0 + cy) * px + x0 + cx
        with np.errstate(over="ignore"):
            d = ((flat[lin] - flat[self_lin][ri]) ** 2).sum(axis=-1)
        order = np.lexsort((lin, d, ri))
        starts = np.searchsorted(ri, np.arange(chunk.size))
        group = lin[order[starts[:, None] + np.arange(k)]]
        lost = ~(group == self_lin[:, None]).any(axis=1)
        group[lost, -1] = self_lin[lost]
        out[chunk] = group
    return out


def _turn_table() -> np.ndarray:
    """``exp(i 2 pi k / PHASOR_TURNS)`` for ``k = 0 .. PHASOR_TURNS - 1``,
    with ``2 pi`` the float64 constant, to about an ulp.

    ``k * 2 pi`` rounds, by up to 4e-16 near a whole turn, so the constant
    is split: its first 40 bits times ``k`` are exact, and the rest, under
    3e-12 per turn, is added as a first-order rotation.
    """
    two_pi = 2.0 * math.pi
    two_pi_hi = math.ldexp(math.floor(math.ldexp(two_pi, 37)), -37)
    k = np.arange(PHASOR_TURNS, dtype=np.float64)
    hi = k * (two_pi_hi / PHASOR_TURNS)
    lo = k * ((two_pi - two_pi_hi) / PHASOR_TURNS)
    cos_hi, sin_hi = np.cos(hi), np.sin(hi)
    table = np.empty(PHASOR_TURNS, dtype=np.complex128)
    table.real = cos_hi - sin_hi * lo
    table.imag = sin_hi + cos_hi * lo
    table.setflags(write=False)
    return table


_TURNS = _turn_table()


def cycle_phasor(cycles: np.ndarray) -> np.ndarray:
    """``exp(i 2 pi cycles)`` as complex128 of the same shape, with no
    ``cos`` or ``sin`` per element (Tang, ACM TOMS 15(2), 1989).

    ``cycles`` is reduced to a fraction of a turn and split into the
    nearest of ``PHASOR_TURNS`` table turns, ``k / PHASOR_TURNS``, and a
    residual angle ``|x| <= pi / PHASOR_TURNS``; all three steps are exact.
    The residual's phasor is its degree-5 Taylor polynomial ``p(x)``, whose
    first omitted term is under 2e-18, and rotates table entry ``T`` as
    ``T + T (p(x) - 1)``, so only the final addition rounds at the scale
    of 1.  The result is within 5e-16 of ``exp(i 2 pi cycles)`` and
    exactly ``1`` at whole turns.  Non-finite cycles give NaN, without a
    warning.
    """
    c = np.asarray(cycles, dtype=np.float64)
    with np.errstate(invalid="ignore"):     # inf - inf, and casting NaN
        x = c - np.rint(c)
        x *= PHASOR_TURNS
        k = np.rint(x)
        x -= k
        k = k.astype(np.int64)
    k &= PHASOR_TURNS - 1
    x *= 2.0 * math.pi / PHASOR_TURNS
    x2 = x * x
    out = np.empty(c.shape, dtype=np.complex128)
    cos_m1, sin_x = out.real, out.imag      # p(x) - 1, built in place
    np.multiply(x2, 1.0 / 24.0, out=cos_m1)
    cos_m1 -= 0.5
    cos_m1 *= x2
    np.multiply(x2, 1.0 / 120.0, out=sin_x)
    sin_x -= 1.0 / 6.0
    sin_x *= x2
    sin_x += 1.0
    sin_x *= x
    t = np.take(_TURNS, k)
    out *= t
    out += t
    return out


@functools.lru_cache(maxsize=32)
def _carrier_table(cycles_per_sample: float, half_width: int, n_bins: int,
                   tap: int) -> np.ndarray:
    """``exp(i theta (k + tap))`` for centre samples ``k = -half_width ..
    n_bins - half_width - 1``, ``theta = 2 pi cycles_per_sample``: the
    carrier at tap ``tap`` of an echo centred on ``k``.  The phasor of ``k``
    is ``cycle_phasor``'s and the tap's is one scalar rotation.  Read-only
    because every caller shares it."""
    k = np.arange(-half_width, n_bins - half_width, dtype=np.float64)
    table = cycle_phasor(k * cycles_per_sample)
    table *= cmath.exp(2j * math.pi * cycles_per_sample * tap)
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
    (-1, 0], tap ``j`` (sample ``c + j``) has ``t - tau = (x + j)/fs``.  With
    ``theta = 2 pi f0/fs`` and ``b = 1/(2 (sigma_t fs)^2)`` the Gaussian
    ``exp(-b (x + j)^2)`` is the scalar ``exp(-b j^2)`` times
    ``exp(-b x^2 - 2 b x j)``, so tap ``j`` adds ``exp(-b j^2) v_j`` with

        v_j = Re{A exp(i theta (c + j)) exp(-b x^2 - 2 b x j)}.

    With ``q = exp(-2 b x)`` that is a rotation by ``theta`` damped by
    ``q`` per tap, which obeys Goertzel's second-order recurrence (Am. Math.
    Monthly 65(1), 1958) ``v_(j+1) = p v_j - q^2 v_(j-1)``, ``p = 2 q
    cos(theta)``.  Each tap is three passes over the echoes (scale
    ``v_(j-1)`` by ``q^2``, form ``p v_j``, subtract) and one ``bincount``
    of ``v_j`` over the echoes' centre samples.  The first two taps' ``v``
    come from ``exp(i theta (c + j))`` gathered from one table per tap and
    trace length (``_carrier_table``, built once by ``cycle_phasor``), so
    an echo's carrier is one gather: no ``cos``, ``sin`` or phasor runs per
    echo.  The Gaussian's scalars ``exp(-b j^2)`` weight the bins, not the
    echoes: tap ``j``'s bins, read from ``j`` on, line up with the samples,
    and one matrix-vector product sums the taps.

    Range: over the taps ``|v_j| / |A|`` runs from ``exp(-b (2 hw + 1))``
    (``j = -hw``, ``x`` near -1, ``hw = half_width``) up to
    ``exp(b (2 hw - 1))``, and ``q^2`` reaches ``exp(4 b)``.  The first taps
    must be normal floats, as the recurrence carries their relative error
    to every later tap, and the largest must not overflow, so
    ``b * max(2 hw + 1, 4) < 700`` keeps all of them inside float64 range
    with a margin of ``e^8`` for the amplitudes: pulses wider than about a
    twentieth of a sample.  A narrower pulse raises ``ValueError``.  A
    phantom's pulse is wider than a sample, because ``PhantomSpec`` keeps
    ``f0`` below ``fs/2``.

    Rounding: an error made at tap ``k`` reaches tap ``j`` scaled by
    ``q^(j-k) sin((j - k + 1) theta) / sin(theta)``, against the envelope's
    ``q^(j-k)``, so the errors grow about as ``j u / sin(theta)`` relative to
    the envelope (``u = 2^-53``, ``j`` counted from the first tap), or as
    ``j^2 u`` while ``j`` is below ``1/sin(theta)``.  Over 27 taps that is
    about ``5e-14 |A|`` per echo at ``f0 = 0.49 fs`` (``sin(theta) =
    0.063``) and ``4e-15 |A|`` at the phantom's ``0.16 fs``.
    """
    tau = np.asarray(tau, dtype=np.float64)
    re = np.asarray(re, dtype=np.float64)
    im = np.asarray(im, dtype=np.float64)
    n, hw = int(n_samples), int(half_width)
    if tau.size == 0:
        return np.zeros(n, dtype=np.float64)
    b = 0.5 / (sigma_t * fs) ** 2
    if not b * max(2 * hw + 1, 4) < 700.0:
        raise ValueError(f"pulse std {sigma_t} s is too narrow for "
                         f"{2 * hw + 1} taps at {fs} Hz")
    pos = tau * fs
    centers = np.floor(pos)
    hit = (centers >= -hw) & (centers < n + hw)
    if not hit.all():
        centers, pos, re, im = centers[hit], pos[hit], re[hit], im[hit]
    x = centers - pos
    # bin c + hw collects the scatterers centred on sample c, so for tap j
    # the bins from hw - j on line up with samples 0, 1, ..., n - 1
    idx = centers.astype(np.int64) + hw
    n_bins = n + 2 * hw
    g = np.exp(-b * x * (x - 2.0 * hw))     # exp(-b x^2 - 2 b x j), j = -hw
    q = np.exp(-2.0 * b * x)
    v, v_next, t = np.empty_like(x), np.empty_like(x), np.empty_like(x)
    for out, j in ((v, -hw), (v_next, 1 - hw)):   # at j = -hw, 1 - hw
        carrier = _carrier_table(f0 / fs, hw, n_bins, j)[idx]
        np.multiply(re, carrier.real, out=out)
        np.multiply(im, carrier.imag, out=t)
        out -= t
        out *= g
    v_next *= q
    p = q * (2.0 * math.cos(2.0 * math.pi * f0 / fs))
    q2 = np.square(q, out=q)
    # row j + hw holds tap j's bins, one column to spare: the flat run from
    # 2 hw in rows of n_bins starts each row at that tap's bin hw - j
    bins = np.empty((2 * hw + 1, n_bins + 1))
    for j in range(-hw, hw + 1):
        bins[j + hw, :n_bins] = np.bincount(idx, weights=v, minlength=n_bins)
        if j + 1 < hw:      # v_(j+2) = p v_(j+1) - q^2 v_j, in v_j's buffer
            v *= q2
            np.multiply(p, v_next, out=t)
            np.subtract(t, v, out=v)
        v, v_next = v_next, v
    taps = np.arange(-hw, hw + 1, dtype=np.float64)
    aligned = bins.reshape(-1)[2 * hw:2 * hw + (2 * hw + 1) * n_bins]
    return np.exp(-b * taps * taps) @ aligned.reshape(2 * hw + 1, -1)[:, :n]


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
