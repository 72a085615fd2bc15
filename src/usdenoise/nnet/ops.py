"""Array primitives for the noise-prediction network.

Every primitive computes in the floating dtype of the arrays it is given
and returns that dtype; every buffer it allocates takes the input's dtype,
so float32 in means float32 arithmetic throughout and nothing upcasts
silently.  Parameters are stored float32 (so checkpoints round-trip
bit-exactly); the U-Net casts them to its input's dtype.  Training and
sampling run in float32, which doubles the GEMM throughput.  Float64 stays
available, by passing float64 input, for the finite-difference gradient
checks: central differences at delta = 1e-3 need its headroom to certify
gradients to 1e-3 relative error.

Convolutions are row-tap GEMMs (a kn2row / shifted-GEMM scheme).  The
input is copied once, zero-bordered, into E (C, 3, s, Q, B, OW) with
E[c, kx, p, q, b, ow] = xpad[b, c, s*q + p, s*ow + kx] at stride s: 3x the
input instead of im2col's 9x.  E is allocated uninitialised and only its
border is zeroed.  At stride 1 each kx plane is one flat copy of the
(C, H*B*W) input shifted by kx - 1 elements; the pixel a shift carries
across a row end lands in a border column, zeroed after the copy.  At
stride 2 the rows are grouped by parity as E is written, so the rows that
kernel row ky reads, s*oh + ky for oh < OH, are the contiguous rows
ky//s + oh of phase ky % s.  For each ky the (3C, OH*B*OW) operand is then
a strided view of E: its rows (c, kx) are a uniform stride apart and its
columns are contiguous, so NumPy hands it to BLAS without a copy.  The
forward is three GEMMs with K = 3C,
y = sum_ky W[:, :, ky, :].reshape(O, 3C) @ view_ky, accumulated in
(O, OH, B, OW) memory and returned as a (B, O, OH, OW) view; elementwise
ops keep that layout, so the next layer's copy into E reads contiguous
(H, B, W) planes per channel.  The stem (C = 1) runs GEMMs with K = 3,
which BLAS runs at a fraction of its rate on the other layers (5.6 against
24-40 GFLOP/s for a B=1 64x64 forward on one OpenBLAS thread of a 2-vCPU
VM); it is 0.2 ms of that 12 ms forward.

The backward pass keeps no E: taping E for every convolution raised the
peak resident memory of 16-sample training passes on 32x32 by 66 MB (+63%,
measured before the backward pass freed its tape as it went) and ran no
faster.  At stride 1 it expands dY instead, once, and takes both gradients
from the tap rows of that expansion.  dX is the transposed convolution:
the same three GEMMs over dY's rows with every kernel flipped in both
spatial axes and the in/out channels swapped.  At pixel (h, b, w), row
(o, kx') of tap row ky' holds dY[b, o, h + ky' - 1, w + kx' - 1], the
gradient that dW's tap (2 - ky', 2 - kx') multiplies with x[b, c, h, w], so
dW[o, c, ky, kx] = rows_{2-ky}[(o, 2-kx)] . x[c]: one (3O, H*B*W) by
(H*B*W, C) GEMM per ky, reading the (C, H, B, W) input in place.  At
stride 2 dY is on the output grid, so dW expands the input on the tape
instead, dW_ky = dY @ view_ky^T; a convolution of dY for dX would run
over a grid that is three quarters zeros, so dX is one matmul W^T dY,
giving each input window's nine tap gradients, followed by nine stride-2
adds into a zero-bordered (C, H+2, B, W+2) buffer.

Upsampling is never materialised.  The decoder's nearest-neighbour 2x
upsampling followed by a 3x3 convolution (a resize-convolution) is computed
at the low resolution as a sub-pixel convolution: output row 2i + p reads,
through kernel tap k, the input row i + floor((p + k - 1) / 2), so along
each axis parity p = 0 sees the taps (w0 | w1 + w2 | 0) at input offsets
(-1, 0, +1) and parity p = 1 sees (0 | w0 + w1 | w2).  The four parity
kernels are folded from W by one matmul with a constant 0/1 matrix,
stacked into one (4*O, C, 3, 3) stride-1 convolution of the low-resolution
input, and its channels are interleaved into the (B, O, 2H, 2W) output.
The flops are those of the full-resolution convolution, but the operand
E is 4x smaller, the GEMMs have 4*O rows and the tape keeps the
low-resolution input.  The backward pass de-interleaves dY, runs the
convolution's backward and folds dW back with the transposed matrix.
"""

from __future__ import annotations

import numpy as np

# _TAPS[p, k, j] = 1 where tap k of a kernel over the 2x-upsampled input
# lands on tap j of the kernel over the input itself, for output parity p
_TAPS = np.array([[[1, 0, 0], [0, 1, 0], [0, 1, 0]],
                  [[0, 1, 0], [0, 1, 0], [0, 0, 1]]], dtype=np.float64)
# (ky*3 + kx) -> ((py*2 + px)*9 + jy*3 + jx): the four folded 3x3 kernels
_FOLD = np.einsum("pkj,qlm->klpqjm", _TAPS, _TAPS).reshape(9, 36)


def _tap_span(k: int, n: int, size: int, stride: int):
    """Outputs ``lo:hi`` whose tap ``k`` reads inside an axis of ``size``,
    and the slice of input positions they read (tap k of output i reads
    position stride*i + k - 1; tap 0 of output 0 reads the zero border)."""
    lo = 1 if k == 0 else 0
    start = stride * lo + k - 1
    hi = min(n, lo + (size - start + stride - 1) // stride)
    return slice(lo, hi), slice(start, start + stride * (hi - lo), stride)


def _expand(x: np.ndarray, stride: int) -> np.ndarray:
    """The row-tap operand of x, E (C, 3, stride, Q, B, OW).

    E[c, kx, p, q, b, ow] = xpad[b, c, stride*q + p, stride*ow + kx], where
    xpad is x with a one-pixel zero border; rows are grouped by their phase
    p, so kernel row ky reads the contiguous rows ky//stride + oh, oh < OH,
    of phase ky % stride.
    """
    B, C, H, W = x.shape
    OH, OW = (H - 1) // stride + 1, (W - 1) // stride + 1
    xt = x.transpose(1, 2, 0, 3)
    # rows per phase: OH + 2 at stride 1, OH + 1 at stride 2
    e = np.empty((C, 3, stride, OH + 2 // stride, B, OW), dtype=x.dtype)
    if stride == 1:
        # plane kx is the (H, B, W) input shifted by kx - 1 elements, one
        # flat copy; what the shift carries across a row end lands in the
        # border columns and rows, which are zeroed below
        n = H * B * W
        planes = e.reshape(C, 3, -1)
        for kx in range(3):
            start = B * W + 1 - kx
            planes[:, kx, start:start + n].reshape(xt.shape)[...] = xt
    else:
        for p in range(stride):
            dst_r, src_r = _tap_span(p, e.shape[3], H, stride)
            rows = xt[:, src_r]
            for kx in range(3):
                dst_c, src_c = _tap_span(kx, OW, W, stride)
                e[:, kx, p, dst_r, :, dst_c] = rows[..., src_c]
    for p in range(stride):
        dst_r = _tap_span(p, e.shape[3], H, stride)[0]
        e[:, :, p, :dst_r.start] = 0
        e[:, :, p, dst_r.stop:] = 0
    for kx in range(3):
        dst_c = _tap_span(kx, OW, W, stride)[0]
        e[:, kx, ..., :dst_c.start] = 0
        e[:, kx, ..., dst_c.stop:] = 0
    return e


def _tap_rows(e: np.ndarray, oh: int) -> list:
    """Kernel row ky's (3C, OH*B*OW) operand for ky = 0, 1, 2: strided
    views of e, with a uniform row stride and contiguous columns."""
    C, _, s, _, B, OW = e.shape
    return [e[:, :, ky % s, ky // s:ky // s + oh].reshape(3 * C, oh * B * OW)
            for ky in range(3)]


def _tap_gemms(w: np.ndarray, rows: list) -> np.ndarray:
    """sum_ky w[:, :, ky].reshape(O, 3C) @ rows[ky]: the three GEMMs of a
    row-tap convolution over the tap rows of ``_tap_rows``, as (O, N)
    memory."""
    O = w.shape[0]
    y = w[:, :, 0].reshape(O, -1) @ rows[0]
    part = np.empty_like(y)
    for ky in (1, 2):
        np.matmul(w[:, :, ky].reshape(O, -1), rows[ky], out=part)
        y += part
    return y


def conv2d_fwd(x: np.ndarray, w: np.ndarray, b: np.ndarray, stride: int = 1):
    """3x3 same-padding convolution; returns (y, cache).

    x is (B, C, H, W); w is (O, C, 3, 3).  stride 2 halves the spatial size
    (inputs must have even extent in that case).
    """
    B, C, H, W = x.shape
    O, C2 = w.shape[:2]
    if C2 != C:
        raise ValueError(f"weight expects {C2} channels, input has {C}")
    OH, OW = (H - 1) // stride + 1, (W - 1) // stride + 1
    y = _tap_gemms(w, _tap_rows(_expand(x, stride), OH))
    y += b[:, None]
    return y.reshape(O, OH, B, OW).transpose(2, 0, 1, 3), (x, w, stride)


def conv2d_bwd(dy: np.ndarray, cache):
    """Gradients of conv2d_fwd; returns (dx, dw, db)."""
    x, w, stride = cache
    B, C, H, W = x.shape
    O = w.shape[0]
    OH, OW = dy.shape[2:]
    dy_mat = dy.transpose(1, 2, 0, 3).reshape(O, OH * B * OW)
    db = dy_mat.sum(axis=1)
    if stride == 1:
        # rows[ky'][(o, kx'), (h, b, w)] = dy[b, o, h + ky' - 1, w + kx' - 1],
        # so tap (ky, kx) of dW reads rows[2 - ky][(o, 2 - kx)] against x
        rows = _tap_rows(_expand(dy, 1), H)
        x_mat = x.transpose(1, 2, 0, 3).reshape(C, H * B * W)
        dw_ky = np.stack([r @ x_mat.T for r in rows[::-1]])
        dw = dw_ky.reshape(3, O, 3, C)[:, :, ::-1].transpose(1, 3, 0, 2).copy()
        w_t = w[:, :, ::-1, ::-1].transpose(1, 0, 2, 3)
        dx = _tap_gemms(w_t, rows).reshape(C, H, B, W)
    else:
        dw = np.stack([(dy_mat @ rows.T).reshape(O, C, 3)
                       for rows in _tap_rows(_expand(x, stride), OH)], axis=2)
        taps = (w.reshape(O, C * 9).T @ dy_mat).reshape(C, 3, 3, OH, B, OW)
        dxp = np.zeros((C, H + 2, B, W + 2), dtype=taps.dtype)
        for ky in range(3):
            for kx in range(3):
                dxp[:, ky:ky + stride * OH:stride, :,
                    kx:kx + stride * OW:stride] += taps[:, ky, kx]
        dx = dxp[:, 1:-1, :, 1:-1]
    return dx.transpose(2, 0, 1, 3), dw, db


def _sigmoid(x: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-x)) as 0.5 (1 + tanh(x / 2)), which cannot overflow."""
    s = np.tanh(x * 0.5)
    s += 1.0
    s *= 0.5
    return s


def silu_fwd(x: np.ndarray, out: np.ndarray | None = None):
    """``(x * sigmoid(x), x)``, the product written to ``out`` if given."""
    return np.multiply(x, _sigmoid(x), out=out), x


def silu_bwd(dy: np.ndarray, x: np.ndarray):
    s = _sigmoid(x)
    return dy * s * (1.0 + x * (1.0 - s))


def upconv2d_fwd(x: np.ndarray, w: np.ndarray, b: np.ndarray,
                 out: np.ndarray | None = None):
    """``conv2d_fwd(upsample2(x), w, b)`` computed at x's resolution.

    x is (B, C, H, W); returns ``(y, cache)`` with y (B, O, 2H, 2W), where
    upsample2 is nearest-neighbour 2x upsampling.  One stride-1 convolution
    of x with the (4*O, C, 3, 3) parity-folded kernels gives every output
    parity; its channels are interleaved into the output pixels.  y is a
    view of (O, 2H, B, 2W) memory: ``out`` if given, else a new array.
    """
    O, C = w.shape[:2]
    wf = w.reshape(O * C, 9) @ _FOLD.astype(w.dtype, copy=False)
    wf = wf.reshape(O, C, 4, 3, 3).transpose(2, 0, 1, 3, 4)
    y4, cache = conv2d_fwd(x, wf.reshape(4 * O, C, 3, 3), np.tile(b, 4))
    B, _, H, W = y4.shape
    # y4 is a view of (py, px, O, H, B, W) memory; write (O, H, py, B, W, px)
    # memory by parity, which runs 5-7x faster than one transposed copy
    parts = y4.transpose(1, 2, 0, 3).reshape(2, 2, O, H, B, W)
    if out is None:
        out = np.empty((O, 2 * H, B, 2 * W), dtype=y4.dtype)
    y = out.reshape(O, H, 2, B, W, 2)
    for py in range(2):
        for px in range(2):
            y[:, :, py, :, :, px] = parts[py, px]
    return y.reshape(O, 2 * H, B, 2 * W).transpose(2, 0, 1, 3), cache


def upconv2d_bwd(dy: np.ndarray, cache):
    """Gradients of upconv2d_fwd; returns (dx, dw, db)."""
    x, wf, _ = cache
    B, C, H, W = x.shape
    O = wf.shape[0] // 4
    # de-interleave (O, H, py, B, W, px) into (py, px, O, H, B, W) memory,
    # the layout conv2d_bwd reads without a copy
    src = dy.transpose(1, 2, 0, 3).reshape(O, H, 2, B, W, 2)
    parts = np.ascontiguousarray(src.transpose(2, 5, 0, 1, 3, 4))
    dy4 = parts.reshape(4 * O, H, B, W).transpose(2, 0, 1, 3)
    dx, dwf, dbf = conv2d_bwd(dy4, cache)
    dwf = dwf.reshape(4, O, C, 9).transpose(1, 2, 0, 3).reshape(O * C, 36)
    dw = (dwf @ _FOLD.T.astype(dwf.dtype, copy=False)).reshape(O, C, 3, 3)
    return dx, dw, dbf.reshape(4, O).sum(axis=0)


def mse_loss(eps_hat: np.ndarray, eps: np.ndarray):
    """Mean squared error and its gradient wrt the prediction."""
    if eps_hat.shape != eps.shape:
        raise ValueError(f"shape mismatch: {eps_hat.shape} vs {eps.shape}")
    diff = eps_hat.astype(np.float64) - eps.astype(np.float64)
    loss = float(np.mean(diff * diff))
    return loss, 2.0 * diff / diff.size


def l1_eval(eps_hat: np.ndarray, eps: np.ndarray) -> float:
    """Mean absolute error (evaluation only, no gradient)."""
    if eps_hat.shape != eps.shape:
        raise ValueError(f"shape mismatch: {eps_hat.shape} vs {eps.shape}")
    return float(np.mean(np.abs(eps_hat.astype(np.float64) - eps)))
